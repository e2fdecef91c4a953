//! Hierarchical timing wheel — the scale-mode event-queue backend.
//!
//! A [`BinaryHeap`](std::collections::BinaryHeap) costs O(log n) per
//! push/pop; with ≥100k pending events (64+ MDSs, thousands of clients)
//! the comparisons and pointer-chasing in `sift_up`/`sift_down` dominate
//! the per-event budget. The classic fix (Varghese & Lauck, SOSP '87) is a
//! hierarchical timing wheel: events hash into time-indexed slots, so
//! push is O(1) and pop is O(1) amortized.
//!
//! Layout: `LEVELS` levels of `SLOTS` slots each, `BITS` bits per
//! level. Level `l` spans `256^(l+1)` µs per full rotation; slot `s` at
//! level `l` holds events whose timestamp agrees with the cursor on all
//! digits above `l` and has digit `s` at level `l`. Five 256-slot levels
//! cover `2^40` µs ≈ 12.7 days of virtual time — far past any run cap —
//! and anything further lands in an unsorted **overflow list** that is
//! re-homed into the wheel only once the wheel itself drains (overflow
//! events provably fire after every wheel event, because they differ from
//! the cursor in a higher digit).
//!
//! The 256-slot geometry is deliberate: metadata service times cluster in
//! the 90–700 µs band, so with 64-slot levels (the original layout) most
//! events entered at level 1–2 and paid one or two cascade re-placements
//! before firing. A 256 µs level-0 window swallows the bulk of that band
//! on first placement, which is what fixed the mid-density (64-MDS)
//! cluster rows where cascade overhead had made the wheel slower than the
//! heap.
//!
//! # Determinism
//!
//! The simulator's contract is *exact* `(time, seq)` pop order (see
//! [`EventQueue`](crate::EventQueue)). Naive timing wheels only guarantee
//! time order per slot granularity. Two mechanisms restore the exact
//! order:
//!
//! * **absolute slot indexing** — a level-0 slot can only ever hold events
//!   for a single timestamp (the cursor never crosses a 256 µs window
//!   while an event in it is pending), so draining one slot yields exactly
//!   one instant;
//! * **seq-sorted drain** — a level-0 slot's events may have been inserted
//!   out of seq order (an event can cascade down from level 2 after a
//!   direct level-0 insertion, and callers may supply explicit seq keys),
//!   so the drain buffer is sorted by seq before events are handed out,
//!   and a same-instant push while that instant is mid-drain is inserted
//!   at its sorted position.
//!
//! Cascades are allocation-free in steady state: slot `Vec`s and the drain
//! buffer are recycled, so the per-event hot path does not touch the
//! allocator once capacities have warmed up.

use std::collections::VecDeque;

/// Bits per wheel level (8 → 256 slots).
const BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << BITS;
/// Number of hierarchical levels; together they span `2^(BITS*LEVELS)` µs.
const LEVELS: usize = 5;
/// Low-`BITS` mask for slot extraction.
const MASK: u64 = (SLOTS as u64) - 1;
/// Words per occupancy bitmap (256 slots / 64 bits).
const WORDS: usize = SLOTS / 64;

/// A pending event: absolute firing time, seq, payload.
#[derive(Debug)]
struct Entry<E> {
    at: u64,
    seq: u64,
    event: E,
}

/// Which wheel level an event at `at` belongs to, given cursor `cur`.
///
/// The level is the position of the highest digit in which `at` and `cur`
/// differ; `>= LEVELS` means the event is out of wheel range (overflow).
#[inline]
fn level_of(cur: u64, at: u64) -> usize {
    let diff = cur ^ at;
    if diff == 0 {
        0
    } else {
        ((63 - diff.leading_zeros()) / BITS) as usize
    }
}

/// Hierarchical timing wheel holding events of type `E`.
///
/// Internal backend of [`EventQueue`](crate::EventQueue); the queue owns
/// the `(now, seq)` bookkeeping and this type owns placement. All times
/// are raw microseconds.
#[derive(Debug)]
pub(crate) struct TimingWheel<E> {
    /// `LEVELS × SLOTS` buckets of pending entries, flattened
    /// (`level * SLOTS + slot`) so a bucket access is one indirection.
    buckets: Box<[Vec<Entry<E>>]>,
    /// Per-level bitmap of non-empty slots (bit `s` ⇔ slot `s` occupied).
    occupied: [[u64; WORDS]; LEVELS],
    /// Events beyond the wheel's span, unsorted.
    overflow: Vec<Entry<E>>,
    /// Minimum firing time in `overflow` (`u64::MAX` when empty).
    overflow_min: u64,
    /// Cursor: never exceeds any pending event's time.
    cur: u64,
    /// Total pending events (wheel + overflow + ready).
    len: usize,
    /// Drain buffer: the current instant's events, sorted by seq.
    ready: VecDeque<Entry<E>>,
    /// The instant `ready` holds events for (valid while non-empty).
    ready_time: u64,
}

impl<E> TimingWheel<E> {
    pub(crate) fn new() -> Self {
        TimingWheel {
            buckets: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [[0; WORDS]; LEVELS],
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            cur: 0,
            len: 0,
            ready: VecDeque::new(),
            ready_time: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn mark(&mut self, level: usize, slot: usize) {
        self.occupied[level][slot >> 6] |= 1u64 << (slot & 63);
    }

    #[inline]
    fn unmark(&mut self, level: usize, slot: usize) {
        self.occupied[level][slot >> 6] &= !(1u64 << (slot & 63));
    }

    /// Lowest occupied slot at `level`, if any.
    #[inline]
    fn first_slot(&self, level: usize) -> Option<usize> {
        self.occupied[level]
            .iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .map(|(i, w)| (i << 6) + w.trailing_zeros() as usize)
    }

    /// Insert an event. `at` must be `>= cur` (the queue clamps).
    #[inline]
    pub(crate) fn push(&mut self, at: u64, seq: u64, event: E) {
        debug_assert!(at >= self.cur, "wheel push into the past");
        self.len += 1;
        let e = Entry { at, seq, event };
        // Same-instant push while that instant is being drained. Auto-seq
        // callers always append in order, but explicit keys may land
        // mid-sequence — insert at the sorted position either way.
        if !self.ready.is_empty() && at == self.ready_time {
            let pos = self.ready.partition_point(|r| r.seq <= seq);
            if pos == self.ready.len() {
                self.ready.push_back(e);
            } else {
                self.ready.insert(pos, e);
            }
            return;
        }
        self.place(e);
    }

    fn place(&mut self, e: Entry<E>) {
        if level_of(self.cur, e.at) >= LEVELS {
            self.overflow_min = self.overflow_min.min(e.at);
            self.overflow.push(e);
        } else {
            self.place_in_wheel(e);
        }
    }

    /// Bucket an event known to be within wheel range.
    #[inline]
    fn place_in_wheel(&mut self, e: Entry<E>) {
        let level = level_of(self.cur, e.at);
        let slot = ((e.at >> (BITS * level as u32)) & MASK) as usize;
        self.mark(level, slot);
        self.buckets[level * SLOTS + slot].push(e);
    }

    /// Cascade until `ready` holds the earliest pending instant's events
    /// in seq order. Returns false when the wheel is empty.
    fn make_ready(&mut self) -> bool {
        if !self.ready.is_empty() {
            return true;
        }
        loop {
            let Some(level) = (0..LEVELS).find(|&l| self.occupied[l].iter().any(|&w| w != 0))
            else {
                if self.overflow.is_empty() {
                    return false;
                }
                self.rehome_overflow();
                continue;
            };
            let slot = self.first_slot(level).expect("level is occupied");
            self.unmark(level, slot);
            if level == 0 {
                // A level-0 slot holds exactly one instant: every entry in
                // it agrees with the cursor above bit 8 (the cursor cannot
                // have left that 256 µs window while the entry was pending)
                // and shares the slot's low digit.
                let t = (self.cur & !MASK) | slot as u64;
                self.cur = t;
                let mut bucket = std::mem::take(&mut self.buckets[slot]);
                self.ready.extend(bucket.drain(..));
                self.buckets[slot] = bucket; // keep the capacity warm
                if self.ready.len() > 1 {
                    self.ready.make_contiguous().sort_unstable_by_key(|e| e.seq);
                }
                self.ready_time = t;
                return true;
            }
            // Advance the cursor to the base of this slot's window; all
            // remaining events at this level sit in higher slots, so
            // the cursor stays ≤ every pending time, and each cascaded
            // entry now lands at a strictly lower level.
            let shift = BITS * level as u32;
            let window = 1u64 << (shift + BITS);
            self.cur = (self.cur & !(window - 1)) | ((slot as u64) << shift);
            let base = level * SLOTS;
            let mut bucket = std::mem::take(&mut self.buckets[base + slot]);
            for e in bucket.drain(..) {
                self.place_in_wheel(e);
            }
            self.buckets[base + slot] = bucket;
        }
    }

    /// Remove and return the earliest `(time, event)` in `(time, seq)`
    /// order, advancing the cursor.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(u64, E)> {
        self.pop_keyed().map(|(at, _, e)| (at, e))
    }

    /// [`pop`](Self::pop), also returning the event's seq.
    #[inline]
    pub(crate) fn pop_keyed(&mut self) -> Option<(u64, u64, E)> {
        if !self.make_ready() {
            return None;
        }
        let e = self.ready.pop_front().expect("ready is non-empty");
        self.len -= 1;
        Some((e.at, e.seq, e.event))
    }

    /// Pop the next event only if it fires strictly before `limit`.
    ///
    /// Crucially this never *stages* an instant it then declines: staging
    /// advances the cursor to the staged time, and the windowed cluster
    /// engine can push *after* a declined call — a woken live session —
    /// an event that fires earlier than the staged instant (though
    /// never earlier than anything already popped). A
    /// pinned-forward cursor would mis-place those pushes. Declines
    /// therefore go through [`peek`](Self::peek) (a bitmap scan, paid once
    /// per window), and `make_ready` runs only once an instant is known to
    /// fall inside the window — after which the whole instant is drained
    /// before the next barrier, restoring `cur == now`.
    #[inline]
    pub(crate) fn pop_before(&mut self, limit: u64) -> Option<(u64, u64, E)> {
        if let Some(e) = self.ready.front() {
            if e.at >= limit {
                return None;
            }
        } else {
            if self.peek()? >= limit {
                return None;
            }
            self.make_ready();
        }
        self.pop_keyed()
    }

    /// Wheel is empty but overflow is not: jump the cursor to the earliest
    /// overflow event and pull everything now in range into the wheel.
    fn rehome_overflow(&mut self) {
        self.cur = self.overflow_min;
        self.overflow_min = u64::MAX;
        let mut keep = std::mem::take(&mut self.overflow);
        let mut i = 0;
        while i < keep.len() {
            if level_of(self.cur, keep[i].at) < LEVELS {
                let e = keep.swap_remove(i);
                self.place_in_wheel(e);
            } else {
                self.overflow_min = self.overflow_min.min(keep[i].at);
                i += 1;
            }
        }
        self.overflow = keep;
    }

    /// Earliest pending firing time, without popping.
    pub(crate) fn peek(&self) -> Option<u64> {
        if let Some(e) = self.ready.front() {
            return Some(e.at);
        }
        for l in 0..LEVELS {
            if let Some(slot) = self.first_slot(l) {
                if l == 0 {
                    // Single-instant slot: the time is implied by the index.
                    return Some((self.cur & !MASK) | slot as u64);
                }
                // Higher-level slots mix instants; scan for the minimum.
                return self.buckets[l * SLOTS + slot].iter().map(|e| e.at).min();
            }
        }
        if !self.overflow.is_empty() {
            return Some(self.overflow_min);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimingWheel<u64>) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| w.pop()).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut w = TimingWheel::new();
        for (i, t) in [900u64, 5, 63, 64, 4096, 70, 0].iter().enumerate() {
            w.push(*t, i as u64, *t);
        }
        let times: Vec<u64> = drain(&mut w).iter().map(|&(t, _)| t).collect();
        assert_eq!(times, vec![0, 5, 63, 64, 70, 900, 4096]);
    }

    #[test]
    fn same_instant_fifo_across_cascades() {
        let mut w = TimingWheel::new();
        // Event 0 goes in at a higher level (t=70000), event 1 directly at
        // level 0 after the cursor advances — the cascade must not reorder
        // them.
        w.push(70_000, 0, 0);
        w.push(10, 1, 1);
        assert_eq!(w.pop(), Some((10, 1)));
        w.push(70_000, 2, 2); // same instant as event 0, later seq
        assert_eq!(w.pop(), Some((70_000, 0)));
        assert_eq!(w.pop(), Some((70_000, 2)));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn push_while_draining_same_instant() {
        let mut w = TimingWheel::new();
        w.push(50, 0, 0);
        w.push(50, 1, 1);
        assert_eq!(w.pop(), Some((50, 0)));
        // The instant 50 is mid-drain; a push at 50 must queue behind seq 1.
        w.push(50, 2, 2);
        assert_eq!(w.pop(), Some((50, 1)));
        assert_eq!(w.pop(), Some((50, 2)));
    }

    #[test]
    fn push_while_draining_respects_explicit_seq() {
        let mut w = TimingWheel::new();
        w.push(50, 10, 10);
        w.push(50, 30, 30);
        assert_eq!(w.pop(), Some((50, 10)));
        // Mid-drain push with a seq between the staged entries: it must
        // slot in by seq, not append.
        w.push(50, 20, 20);
        assert_eq!(w.pop(), Some((50, 20)));
        assert_eq!(w.pop(), Some((50, 30)));
    }

    #[test]
    fn far_future_goes_to_overflow_and_comes_back() {
        let mut w = TimingWheel::new();
        let far = 1u64 << 41; // beyond the 2^40 µs wheel span
        w.push(far + 3, 0, 0);
        w.push(far, 1, 1);
        w.push(7, 2, 2);
        assert_eq!(w.pop(), Some((7, 2)));
        assert_eq!(w.pop(), Some((far, 1)));
        assert_eq!(w.pop(), Some((far + 3, 0)));
        assert_eq!(w.pop(), None);
        assert!(w.is_empty());
    }

    #[test]
    fn overflow_rehomes_in_waves() {
        let mut w = TimingWheel::new();
        let far = 1u64 << 41;
        // Two overflow events so distant from each other that the second
        // stays in overflow after the first re-homing.
        w.push(far, 0, 0);
        w.push(far + (1 << 55), 1, 1);
        assert_eq!(w.pop(), Some((far, 0)));
        assert_eq!(w.pop(), Some((far + (1 << 55), 1)));
    }

    #[test]
    fn peek_matches_pop() {
        let mut w = TimingWheel::new();
        for (i, t) in [300u64, 2, 1 << 41, 4097, 64].iter().enumerate() {
            w.push(*t, i as u64, *t);
        }
        while !w.is_empty() {
            let peeked = w.peek().unwrap();
            let (t, _) = w.pop().unwrap();
            assert_eq!(peeked, t);
        }
        assert_eq!(w.peek(), None);
    }

    #[test]
    fn declined_pop_before_does_not_pin_the_cursor() {
        // The windowed cluster engine's pattern: a window's final
        // pop_before declines the next instant, then a push between
        // windows fires *before* the declined instant (but at or after the
        // window end). The declined instant must not have advanced the
        // cursor, or the late push mis-sorts.
        let mut w = TimingWheel::new();
        w.push(1805, 7, 1805);
        assert_eq!(w.pop_before(1709), None, "window [_, 1709) is empty");
        w.push(1709, 3, 1709); // pushed between windows, earlier than the declined instant
        assert_eq!(w.pop_before(1959), Some((1709, 3, 1709)));
        assert_eq!(w.pop_before(1959), Some((1805, 7, 1805)));
        assert_eq!(w.pop_before(1959), None);
    }

    #[test]
    fn pop_before_respects_the_limit() {
        let mut w = TimingWheel::new();
        w.push(100, 0, 0);
        w.push(300, 1, 1);
        assert_eq!(w.pop_before(100), None, "limit is exclusive");
        assert_eq!(w.pop_before(101), Some((100, 0, 0)));
        assert_eq!(w.pop_before(250), None);
        assert_eq!(w.len(), 1, "declined pops keep the event pending");
        assert_eq!(w.pop_before(u64::MAX), Some((300, 1, 1)));
        assert_eq!(w.pop_before(u64::MAX), None);
    }

    #[test]
    fn len_tracks_everything() {
        let mut w = TimingWheel::new();
        w.push(1, 0, 0);
        w.push(1 << 41, 1, 1);
        w.push(1, 2, 2);
        assert_eq!(w.len(), 3);
        w.pop();
        assert_eq!(w.len(), 2);
        drain(&mut w);
        assert_eq!(w.len(), 0);
    }
}
