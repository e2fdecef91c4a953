//! A deterministic event queue.
//!
//! Events fire in `(time, key)` order, where the key is the caller's
//! ([`EventQueue::schedule_at_key`]) or, failing that, the insertion count,
//! so two events scheduled for the same instant always pop in the order
//! they were pushed. This is what makes whole-cluster runs bit-for-bit
//! reproducible for a given seed.
//!
//! The queue is a `BinaryHeap` ordered on `(time, key)`: O(log n) per
//! operation with a small constant, at depths of about one event per
//! client and per MDS (DESIGN.md §13 has why there is no O(1) structure
//! here). `tests/properties.rs` checks the queue against a min-scan over
//! a `Vec`, the same contract said slowly.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

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
    heap: BinaryHeap<Scheduled<E>>,
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
        let at = at.max(self.now);
        self.heap.push(Scheduled {
            at,
            seq: key,
            event,
        });
    }

    /// Pop the next event, advancing the clock to its firing time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_keyed().map(|(at, _, event)| (at, event))
    }

    /// Pop the next event together with its tie-break key (the insertion
    /// seq, or the caller's key for [`schedule_at_key`](Self::schedule_at_key)).
    pub fn pop_keyed(&mut self) -> Option<(SimTime, u64, E)> {
        let s = self.heap.pop()?;
        self.now = s.at;
        Some((s.at, s.seq, s.event))
    }

    /// Pop the next event only if it fires strictly before `limit`,
    /// returning its key. Declined pops leave the queue (and the clock)
    /// untouched — the windowed cluster engine drains its queue with this.
    pub fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, u64, E)> {
        if self.heap.peek()?.at < limit {
            self.pop_keyed()
        } else {
            None
        }
    }

    /// Firing time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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

    #[test]
    fn pop_before_is_exclusive_and_non_destructive() {
        let mut q = EventQueue::new();
        q.schedule_at_key(SimTime::from_micros(100), 1, "x");
        q.schedule_at_key(SimTime::from_micros(300), 2, "y");
        assert_eq!(q.pop_before(SimTime::from_micros(100)), None);
        assert_eq!(q.len(), 2);
        assert_eq!(
            q.pop_before(SimTime::from_micros(101)),
            Some((SimTime::from_micros(100), 1, "x"))
        );
        assert_eq!(q.pop_before(SimTime::from_micros(200)), None);
        assert_eq!(
            q.now(),
            SimTime::from_micros(100),
            "declined pop holds the clock"
        );
        assert_eq!(
            q.pop_before(SimTime::from_micros(301)),
            Some((SimTime::from_micros(300), 2, "y"))
        );
    }
}
