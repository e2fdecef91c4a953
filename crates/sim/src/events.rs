//! A deterministic event queue.
//!
//! Events fire in `(time, insertion order)` order, so two events scheduled
//! for the same instant always pop in the order they were pushed. This is
//! what makes whole-cluster runs bit-for-bit reproducible for a given seed.
//!
//! Two interchangeable backends implement that contract:
//!
//! * [`SchedulerKind::Heap`] — a `BinaryHeap` ordered on `(time, seq)`.
//!   O(log n) per operation, minimal constant factor, and simple enough to
//!   serve as the differential oracle;
//! * [`SchedulerKind::Wheel`] — a hierarchical timing wheel
//!   ([`crate::wheel`]), O(1) push and O(1) amortized pop, for scale-mode
//!   runs with ≥100k pending events.
//!
//! Fixed-seed runs produce byte-identical results on either backend; the
//! repo's `scheduler_equivalence` test enforces this across every built-in
//! balancer and fault scenario.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;
use crate::wheel::TimingWheel;

/// Which event-queue backend a simulation run uses.
///
/// Both backends pop in identical `(time, insertion-seq)` order; they
/// differ only in asymptotics. `Heap` is the default and the differential
/// oracle; `Wheel` is the scale-mode engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerKind {
    /// Binary heap: O(log n) push/pop, the reference implementation.
    #[default]
    Heap,
    /// Hierarchical timing wheel: O(1) push, O(1) amortized pop.
    Wheel,
}

impl SchedulerKind {
    /// Short lowercase name (`"heap"` / `"wheel"`), for reports and CLI.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Heap => "heap",
            SchedulerKind::Wheel => "wheel",
        }
    }
}

/// An event plus its firing time, as stored in the queue.
#[derive(Debug, Clone)]
pub struct Scheduled<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Tie-break sequence number (insertion order).
    seq: u64,
    /// The payload.
    pub event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The storage strategy behind an [`EventQueue`].
#[derive(Debug)]
enum Backend<E> {
    Heap(BinaryHeap<Scheduled<E>>),
    Wheel(Box<TimingWheel<E>>),
}

/// Priority queue of timestamped events with stable FIFO tie-breaking.
///
/// The queue owns the virtual clock: [`pop`](EventQueue::pop) advances
/// [`now`](EventQueue::now) to the popped event's firing time, and
/// scheduling in the past clamps to `now` (asserting in debug builds).
///
/// ```
/// use mantle_sim::{EventQueue, SchedulerKind, SimTime};
///
/// let mut q = EventQueue::with_scheduler(SchedulerKind::Wheel);
/// q.schedule_at(SimTime::from_millis(2), "late");
/// q.schedule_at(SimTime::from_millis(1), "early");
/// q.schedule_at(SimTime::from_millis(1), "early-but-second");
///
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1), "early-but-second")));
/// assert_eq!(q.now(), SimTime::from_millis(1));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(2), "late")));
/// assert!(q.is_empty());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    backend: Backend<E>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty heap-backed queue with the clock at zero.
    pub fn new() -> Self {
        Self::with_scheduler(SchedulerKind::Heap)
    }

    /// An empty queue on the chosen backend with the clock at zero.
    pub fn with_scheduler(kind: SchedulerKind) -> Self {
        let backend = match kind {
            SchedulerKind::Heap => Backend::Heap(BinaryHeap::new()),
            SchedulerKind::Wheel => Backend::Wheel(Box::new(TimingWheel::new())),
        };
        EventQueue {
            backend,
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Which backend this queue runs on.
    pub fn scheduler(&self) -> SchedulerKind {
        match self.backend {
            Backend::Heap(_) => SchedulerKind::Heap,
            Backend::Wheel(_) => SchedulerKind::Wheel,
        }
    }

    /// Current virtual time: the firing time of the last popped event.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in the caller; the kernel
    /// clamps it to `now` so time never goes backwards, and debug builds
    /// assert.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        debug_assert!(at >= self.now, "scheduled event in the past");
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        match &mut self.backend {
            Backend::Heap(heap) => heap.push(Scheduled { at, seq, event }),
            Backend::Wheel(wheel) => wheel.push(at.as_micros(), seq, event),
        }
    }

    /// Schedule `event` after a relative delay from `now`.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedule `event` at `at` under an explicit tie-break key instead of
    /// the queue's insertion counter.
    ///
    /// Same-instant events pop in ascending key order. The cluster engine
    /// stamps every event with a key that encodes its producer's
    /// identity, so tie-breaks do not depend on insertion order. Keys
    /// must be unique per instant; don't mix keyed
    /// and auto-seq scheduling in one queue unless the key spaces are
    /// disjoint.
    pub fn schedule_at_key(&mut self, at: SimTime, key: u64, event: E) {
        debug_assert!(at >= self.now, "scheduled event in the past");
        let at = at.max(self.now);
        match &mut self.backend {
            Backend::Heap(heap) => heap.push(Scheduled {
                at,
                seq: key,
                event,
            }),
            Backend::Wheel(wheel) => wheel.push(at.as_micros(), key, event),
        }
    }

    /// Pop the next event, advancing the clock to its firing time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let popped = match &mut self.backend {
            Backend::Heap(heap) => heap.pop().map(|s| (s.at, s.event)),
            Backend::Wheel(wheel) => wheel.pop().map(|(us, e)| (SimTime::from_micros(us), e)),
        };
        popped.inspect(|&(at, _)| self.now = at)
    }

    /// Pop the next event together with its tie-break key (the insertion
    /// seq, or the caller's key for [`schedule_at_key`](Self::schedule_at_key)).
    pub fn pop_keyed(&mut self) -> Option<(SimTime, u64, E)> {
        let popped = match &mut self.backend {
            Backend::Heap(heap) => heap.pop().map(|s| (s.at, s.seq, s.event)),
            Backend::Wheel(wheel) => wheel
                .pop_keyed()
                .map(|(us, k, e)| (SimTime::from_micros(us), k, e)),
        };
        popped.inspect(|&(at, ..)| self.now = at)
    }

    /// Pop the next event only if it fires strictly before `limit`,
    /// returning its key. Declined pops leave the queue (and the clock)
    /// untouched — the windowed cluster engine drains its queue with this.
    pub fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, u64, E)> {
        let popped = match &mut self.backend {
            Backend::Heap(heap) => {
                if heap.peek().is_some_and(|s| s.at < limit) {
                    heap.pop().map(|s| (s.at, s.seq, s.event))
                } else {
                    None
                }
            }
            Backend::Wheel(wheel) => wheel
                .pop_before(limit.as_micros())
                .map(|(us, k, e)| (SimTime::from_micros(us), k, e)),
        };
        popped.inspect(|&(at, ..)| self.now = at)
    }

    /// Firing time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.backend {
            Backend::Heap(heap) => heap.peek().map(|s| s.at),
            Backend::Wheel(wheel) => wheel.peek().map(SimTime::from_micros),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Heap(heap) => heap.len(),
            Backend::Wheel(wheel) => wheel.len(),
        }
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        match &self.backend {
            Backend::Heap(heap) => heap.is_empty(),
            Backend::Wheel(wheel) => wheel.is_empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOTH: [SchedulerKind; 2] = [SchedulerKind::Heap, SchedulerKind::Wheel];

    #[test]
    fn pops_in_time_order() {
        for kind in BOTH {
            let mut q = EventQueue::with_scheduler(kind);
            q.schedule_at(SimTime::from_millis(30), "c");
            q.schedule_at(SimTime::from_millis(10), "a");
            q.schedule_at(SimTime::from_millis(20), "b");
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec!["a", "b", "c"], "{kind:?}");
        }
    }

    #[test]
    fn ties_break_fifo() {
        for kind in BOTH {
            let mut q = EventQueue::with_scheduler(kind);
            let t = SimTime::from_millis(5);
            for i in 0..100 {
                q.schedule_at(t, i);
            }
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>(), "{kind:?}");
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        for kind in BOTH {
            let mut q = EventQueue::with_scheduler(kind);
            q.schedule_in(SimTime::from_millis(7), ());
            assert_eq!(q.now(), SimTime::ZERO);
            q.pop();
            assert_eq!(q.now(), SimTime::from_millis(7));
            // Relative scheduling now uses the advanced clock.
            q.schedule_in(SimTime::from_millis(3), ());
            assert_eq!(q.peek_time(), Some(SimTime::from_millis(10)));
        }
    }

    #[test]
    fn len_and_empty() {
        for kind in BOTH {
            let mut q = EventQueue::with_scheduler(kind);
            assert!(q.is_empty());
            q.schedule_in(SimTime::ZERO, 1);
            q.schedule_in(SimTime::ZERO, 2);
            assert_eq!(q.len(), 2);
            q.pop();
            q.pop();
            assert!(q.is_empty());
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn default_is_heap() {
        let q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.scheduler(), SchedulerKind::Heap);
        assert_eq!(SchedulerKind::default(), SchedulerKind::Heap);
    }

    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "debug_assert only fires in debug builds"
    )]
    #[should_panic(expected = "scheduled event in the past")]
    fn scheduling_in_the_past_asserts_in_debug() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(10), ());
        q.pop();
        q.schedule_at(SimTime::from_millis(5), ());
    }

    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "debug_assert only fires in debug builds"
    )]
    #[should_panic(expected = "scheduled event in the past")]
    fn wheel_scheduling_in_the_past_asserts_in_debug() {
        let mut q = EventQueue::with_scheduler(SchedulerKind::Wheel);
        q.schedule_at(SimTime::from_millis(10), ());
        q.pop();
        q.schedule_at(SimTime::from_millis(5), ());
    }

    #[test]
    fn explicit_keys_order_same_instant_events() {
        for kind in BOTH {
            let mut q = EventQueue::with_scheduler(kind);
            let t = SimTime::from_millis(1);
            q.schedule_at_key(t, 30, "c");
            q.schedule_at_key(t, 10, "a");
            q.schedule_at_key(t, 20, "b");
            assert_eq!(q.pop_keyed(), Some((t, 10, "a")), "{kind:?}");
            assert_eq!(q.pop_keyed(), Some((t, 20, "b")), "{kind:?}");
            assert_eq!(q.pop_keyed(), Some((t, 30, "c")), "{kind:?}");
        }
    }

    #[test]
    fn pop_before_is_exclusive_and_non_destructive() {
        for kind in BOTH {
            let mut q = EventQueue::with_scheduler(kind);
            q.schedule_at_key(SimTime::from_micros(100), 1, "x");
            q.schedule_at_key(SimTime::from_micros(300), 2, "y");
            assert_eq!(q.pop_before(SimTime::from_micros(100)), None, "{kind:?}");
            assert_eq!(q.len(), 2);
            assert_eq!(
                q.pop_before(SimTime::from_micros(101)),
                Some((SimTime::from_micros(100), 1, "x")),
                "{kind:?}"
            );
            assert_eq!(q.pop_before(SimTime::from_micros(200)), None, "{kind:?}");
            assert_eq!(
                q.now(),
                SimTime::from_micros(100),
                "declined pop holds the clock"
            );
            assert_eq!(
                q.pop_before(SimTime::from_micros(301)),
                Some((SimTime::from_micros(300), 2, "y")),
                "{kind:?}"
            );
        }
    }

    /// The backends must agree on arbitrary interleavings of scheduling
    /// and popping, including same-instant bursts and far-future events.
    #[test]
    fn backends_agree_on_mixed_interleaving() {
        let mut heap = EventQueue::with_scheduler(SchedulerKind::Heap);
        let mut wheel = EventQueue::with_scheduler(SchedulerKind::Wheel);
        let mut rng = crate::SimRng::new(0xD1FF).stream("events-mixed");
        let mut next_id = 0u64;
        let mut popped = Vec::new();
        for round in 0..2_000 {
            let burst = 1 + (rng.next_u64() % 4) as usize;
            for _ in 0..burst {
                let delay = match rng.next_u64() % 10 {
                    0..=5 => rng.next_u64() % 1_000,             // sub-ms
                    6..=7 => rng.next_u64() % 20_000_000,        // ≤ 20 s
                    8 => 0,                                      // same instant
                    _ => (1 << 37) + rng.next_u64() % (1 << 20), // overflow range
                };
                let at = heap.now() + SimTime::from_micros(delay);
                heap.schedule_at(at, next_id);
                wheel.schedule_at(at, next_id);
                next_id += 1;
            }
            if round % 3 != 0 {
                let a = heap.pop();
                let b = wheel.pop();
                assert_eq!(a, b, "divergence at round {round}");
                popped.push(a);
            }
        }
        loop {
            let a = heap.pop();
            let b = wheel.pop();
            assert_eq!(a, b, "divergence during final drain");
            if a.is_none() {
                break;
            }
        }
    }
}
