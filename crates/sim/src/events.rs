//! A deterministic event queue.
//!
//! Events fire in `(time, key)` order, where the key is the caller's
//! ([`EventQueue::schedule_at_key`]) or, failing that, the insertion count,
//! so two events scheduled for the same instant always pop in the order
//! they were pushed. This is what makes whole-cluster runs bit-for-bit
//! reproducible for a given seed.
//!
//! The engine's queue holds about one event per client and per MDS, and
//! each step pops one and schedules its producer's next, so the heap is
//! the largest single layer of a batch run (DESIGN.md §13). The heap holds
//! 24-byte `(time, key, slot)` entries with the payloads in a slab, and
//! [`pop`](EventQueue::pop) leaves its entry at the top, stale: the next
//! schedule overwrites it in place (one sift-down, not a pop's sift plus a
//! push's), and the next pop drops it if nothing did. The tests below pin
//! the stale top; `tests/properties.rs` checks the queue against a
//! min-scan over a `Vec`, the same contract said slowly.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A pending event's place in the heap: its firing time, its tie-break
/// key and the slab slot that holds its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    at: u64,
    key: u64,
    slot: u32,
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // `(at, key)` as one integer, so the sift loops compare once;
        // inverted, as BinaryHeap is a max-heap.
        let order = |e: &Entry| (e.at as u128) << 64 | e.key as u128;
        order(other).cmp(&order(self))
    }
}

/// Priority queue of timestamped events with stable FIFO tie-breaking.
///
/// The queue owns the virtual clock: [`pop`](EventQueue::pop) advances
/// [`now`](EventQueue::now) to the popped event's firing time, and
/// scheduling in the past clamps to `now` (asserting in debug builds).
///
/// ```
/// use mantle_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
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
    heap: BinaryHeap<Entry>,
    /// Payloads by slot; `free` lists the empty ones.
    slab: Vec<Option<E>>,
    free: Vec<u32>,
    /// The heap's top was popped: the next schedule overwrites it.
    stale_top: bool,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            stale_top: false,
            next_seq: 0,
            now: SimTime::ZERO,
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
        let seq = self.next_seq;
        self.next_seq += 1;
        self.schedule_at_key(at, seq, event);
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
        let at = at.max(self.now).as_micros();
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slab.push(None);
            (self.slab.len() - 1) as u32
        });
        self.slab[slot as usize] = Some(event);
        let entry = Entry { at, key, slot };
        if std::mem::take(&mut self.stale_top) {
            *self.heap.peek_mut().expect("a stale top is in the heap") = entry;
        } else {
            self.heap.push(entry);
        }
    }

    /// Pop the next event, advancing the clock to its firing time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_keyed().map(|(at, _, event)| (at, event))
    }

    /// Pop the next event together with its tie-break key (the insertion
    /// seq, or the caller's key for [`schedule_at_key`](Self::schedule_at_key)).
    pub fn pop_keyed(&mut self) -> Option<(SimTime, u64, E)> {
        if std::mem::take(&mut self.stale_top) {
            self.heap.pop();
        }
        let top = *self.heap.peek()?;
        self.stale_top = true;
        let event = self.slab[top.slot as usize].take();
        self.free.push(top.slot);
        self.now = SimTime::from_micros(top.at);
        Some((self.now, top.key, event.expect("a live entry's payload")))
    }

    /// Firing time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        // Past a stale top, the next event is one of its two children.
        let stale = self.stale_top as usize;
        let next = self.heap.as_slice().iter().skip(stale).take(1 + stale);
        next.map(|e| e.at).min().map(SimTime::from_micros)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() - self.stale_top as usize
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// -- Harness pins ---------------------------------------------------------
//
// The pinned benchmark harness (`benchmark/src/{layers,batch}.rs`) compiles
// against these two names; both are ignored — there is one queue. They
// leave with the harness un-pin (ROADMAP item 1).

/// Ignored: every queue is the binary heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerKind {
    /// Ignored.
    #[default]
    Heap,
    /// Ignored.
    Wheel,
}

impl<E> EventQueue<E> {
    /// Ignored: the same as [`EventQueue::new`].
    pub fn with_scheduler(_: SchedulerKind) -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(30), "c");
        q.schedule_at(SimTime::from_millis(10), "a");
        q.schedule_at(SimTime::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_in(SimTime::from_millis(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(7));
        // Relative scheduling now uses the advanced clock.
        q.schedule_in(SimTime::from_millis(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(10)));
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_in(SimTime::ZERO, 1);
        q.schedule_in(SimTime::ZERO, 2);
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
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
    fn explicit_keys_order_same_instant_events() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        q.schedule_at_key(t, 30, "c");
        q.schedule_at_key(t, 10, "a");
        q.schedule_at_key(t, 20, "b");
        assert_eq!(q.pop_keyed(), Some((t, 10, "a")));
        assert_eq!(q.pop_keyed(), Some((t, 20, "b")));
        assert_eq!(q.pop_keyed(), Some((t, 30, "c")));
    }

    /// A queue holding events at 1, 2, 3 and 4 ms, pushed out of order.
    fn four() -> EventQueue<u64> {
        let mut q = EventQueue::new();
        for ms in [3, 1, 4, 2] {
            q.schedule_at(SimTime::from_millis(ms), ms);
        }
        q
    }

    #[test]
    fn peek_time_sees_past_a_stale_top() {
        let mut q = four();
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), 1)));
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(2)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(2), 2)));
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(3)));
    }

    #[test]
    fn pop_after_pop_drops_the_stale_top() {
        let mut q = four();
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, [1, 2, 3, 4]);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn two_pushes_after_a_pop() {
        let mut q = four();
        q.pop();
        // The first overwrites the stale top, the second is a plain push;
        // both must land in order among the rest.
        q.schedule_at(SimTime::from_millis(5), 5);
        q.schedule_at(SimTime::from_millis(1), 0);
        assert_eq!(q.len(), 5);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, [0, 2, 3, 4, 5]);
    }

    #[test]
    fn pop_on_a_one_entry_queue() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(1), "only");
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), "only")));
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
        // The stale top is gone; a push after an empty pop is a plain push.
        q.schedule_at(SimTime::from_millis(2), "next");
        assert_eq!(q.pop(), Some((SimTime::from_millis(2), "next")));
    }

    #[test]
    fn len_and_is_empty_skip_a_stale_top() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(1), 1);
        q.schedule_at(SimTime::from_millis(2), 2);
        q.pop();
        assert_eq!((q.len(), q.is_empty()), (1, false));
        q.pop();
        assert_eq!((q.len(), q.is_empty()), (0, true));
        q.schedule_at(SimTime::from_millis(3), 3);
        assert_eq!((q.len(), q.is_empty()), (1, false));
    }

    /// The engine's hold shape — pop one, schedule zero to two, peek in
    /// between — against a min-scan over the pending `(time, key)` pairs.
    #[test]
    fn hold_shape_matches_min_scan() {
        let mut rng = crate::SimRng::new(43).stream("hold");
        for case in 0..64 {
            let mut q = EventQueue::new();
            let mut model: Vec<(SimTime, u64)> = Vec::new();
            let mut key = 0;
            for _ in 0..rng.range_inclusive(1, 64) {
                let at = SimTime::from_micros(rng.below(50));
                q.schedule_at_key(at, key, key);
                model.push((at, key));
                key += 1;
            }
            for step in 0..500 {
                let next = model.iter().copied().min();
                model.retain(|&e| Some(e) != next);
                let want = next.map(|(at, key)| (at, key, key));
                assert_eq!(q.pop_keyed(), want, "case {case} step {step}");
                for _ in 0..rng.below(3) {
                    assert_eq!(q.peek_time(), model.iter().map(|e| e.0).min());
                    let at = q.now() + SimTime::from_micros(rng.below(50));
                    q.schedule_at_key(at, key, key);
                    model.push((at, key));
                    key += 1;
                }
                assert_eq!(q.len(), model.len(), "case {case} step {step}");
                assert_eq!(q.peek_time(), model.iter().map(|e| e.0).min());
            }
        }
    }
}
