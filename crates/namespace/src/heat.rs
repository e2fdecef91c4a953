//! Decayed popularity counters — the per-directory "heat" of Fig. 1.
//!
//! A [`FragHeat`] is the five counters CephFS keeps per dirfrag. Each one
//! loses half its value every half life. The half life is one number for
//! the whole namespace (`NsConfig::decay_half_life`), so the counters do
//! not store it: every decaying method takes a [`DecayRate`] — the
//! namespace's [`DecayTable`], or a bare half life where no namespace is
//! at hand.
//!
//! Decay is applied lazily, when a counter is touched or read, so idle
//! directories cost nothing. Elapsed time is taken in whole milliseconds.
//! Two cases never reach a factor, and skipping them is exact: a counter
//! touched less than a millisecond ago (its factor is `0.5⁰ = 1`), and a
//! counter that holds zero (zero times any factor in `[0, 1]` is itself).
//! Every factor is `half_life_factor`'s one expression: the table holds
//! its values for the short gaps, computed once, and longer gaps compute
//! it on the spot, so a table lookup and a `powf` agree bit for bit.

use std::sync::OnceLock;

use mantle_sim::SimTime;

use crate::types::OpKind;

const IRD: usize = 0;
const IWR: usize = 1;
const READDIR: usize = 2;
const FETCH: usize = 3;
const STORE: usize = 4;

/// The five decayed counters a dirfrag carries; these are the exact inputs
/// to the `metaload` policy hook (Table 2's local metrics). Each counter has
/// its own last-touch time; both arrays are in `ird, iwr, readdir, fetch,
/// store` order.
#[derive(Debug, Clone, Default)]
pub struct FragHeat {
    value: [f64; 5],
    last: [SimTime; 5],
}

/// A point-in-time sample of a [`FragHeat`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HeatSample {
    /// Decayed inode reads.
    pub ird: f64,
    /// Decayed inode writes.
    pub iwr: f64,
    /// Decayed readdirs.
    pub readdir: f64,
    /// Decayed object-store fetches.
    pub fetch: f64,
    /// Decayed object-store stores.
    pub store: f64,
}

impl HeatSample {
    /// The default CephFS scalarization (Table 1's `metaload` row):
    /// `IRD + 2·IWR + READDIR + 2·FETCH + 4·STORE`.
    pub fn cephfs_metaload(&self) -> f64 {
        self.ird + 2.0 * self.iwr + self.readdir + 2.0 * self.fetch + 4.0 * self.store
    }

    /// Element-wise sum.
    pub fn add(&self, other: &HeatSample) -> HeatSample {
        HeatSample {
            ird: self.ird + other.ird,
            iwr: self.iwr + other.iwr,
            readdir: self.readdir + other.readdir,
            fetch: self.fetch + other.fetch,
            store: self.store + other.store,
        }
    }

    fn from_array([ird, iwr, readdir, fetch, store]: [f64; 5]) -> HeatSample {
        HeatSample {
            ird,
            iwr,
            readdir,
            fetch,
            store,
        }
    }

    fn to_array(self) -> [f64; 5] {
        [self.ird, self.iwr, self.readdir, self.fetch, self.store]
    }
}

/// Gaps shorter than this many milliseconds are looked up rather than
/// computed. At paper scale 87 % of the gaps that need a factor are
/// shorter (40 % under 16 ms), and the table is 32 KiB, small enough to
/// stay in cache beside the directories it decays.
const TABLE_MS: usize = 4_096;

/// `0.5^(dt / half_life)`, the factor a counter keeps over `dt_ms`
/// milliseconds: the one expression every decay factor comes from.
#[inline]
fn half_life_factor(half_life: SimTime, dt_ms: u64) -> f64 {
    0.5_f64.powf(dt_ms as f64 / half_life.as_millis() as f64)
}

/// How a counter decays: the factor it keeps over a gap of whole
/// milliseconds. A half life ([`SimTime`]) computes every factor; a
/// [`DecayTable`] looks the short gaps up. Both give the same bits.
pub trait DecayRate: Copy {
    /// The factor a counter keeps over `dt_ms` milliseconds.
    fn factor(self, dt_ms: u64) -> f64;
}

impl DecayRate for SimTime {
    #[inline]
    fn factor(self, dt_ms: u64) -> f64 {
        half_life_factor(self, dt_ms)
    }
}

/// The decay factors of one half life for every gap below 4 096 ms,
/// computed once. A namespace owns one and hands it to every counter it
/// decays; a longer gap still calls `powf`.
#[derive(Clone)]
pub struct DecayTable {
    half_life: SimTime,
    /// `factors[dt]` is `half_life_factor(half_life, dt)`. Filled at the
    /// first lookup: a namespace that has decayed nothing yet — a daemon
    /// between its start and its first op — has not paid for it.
    factors: OnceLock<Box<[f64; TABLE_MS]>>,
}

impl DecayTable {
    /// The table for `half_life`.
    pub fn new(half_life: SimTime) -> Self {
        DecayTable {
            half_life,
            factors: OnceLock::new(),
        }
    }

    fn factors(&self) -> &[f64; TABLE_MS] {
        self.factors.get_or_init(|| {
            let mut factors = Box::new([0.0; TABLE_MS]);
            for (dt, f) in (0..).zip(factors.iter_mut()) {
                *f = half_life_factor(self.half_life, dt);
            }
            factors
        })
    }
}

impl std::fmt::Debug for DecayTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecayTable")
            .field("half_life", &self.half_life)
            .finish_non_exhaustive()
    }
}

impl DecayRate for &DecayTable {
    #[inline]
    fn factor(self, dt_ms: u64) -> f64 {
        if dt_ms < TABLE_MS as u64 {
            self.factors()[dt_ms as usize]
        } else {
            half_life_factor(self.half_life, dt_ms)
        }
    }
}

/// The decay factor last taken in one call, and the elapsed time it is
/// for. The counters of a dirfrag are touched together more often than
/// not, so a counter as many milliseconds behind `now` as the one before it
/// reuses that factor instead of taking its own. Starts out knowing the
/// one factor that needs no computing: nothing elapsed, nothing lost.
struct Decay<R> {
    rate: R,
    dt_ms: u64,
    factor: f64,
}

impl<R: DecayRate> Decay<R> {
    fn new(rate: R) -> Self {
        Decay {
            rate,
            dt_ms: 0,
            factor: 1.0,
        }
    }

    #[inline]
    fn factor(&mut self, dt_ms: u64) -> f64 {
        if self.dt_ms != dt_ms {
            self.dt_ms = dt_ms;
            self.factor = self.rate.factor(dt_ms);
        }
        self.factor
    }
}

impl FragHeat {
    /// Counter `i` decayed to `now`, without writing it back.
    #[inline]
    fn decayed(&self, i: usize, now: SimTime, decay: &mut Decay<impl DecayRate>) -> f64 {
        let value = self.value[i];
        if now > self.last[i] {
            let dt_ms = (now - self.last[i]).as_millis();
            if dt_ms != 0 && value != 0.0 {
                return value * decay.factor(dt_ms);
            }
        }
        value
    }

    /// Decay counter `i` to `now`.
    #[inline]
    fn decay_to(&mut self, i: usize, now: SimTime, decay: &mut Decay<impl DecayRate>) {
        if now > self.last[i] {
            self.value[i] = self.decayed(i, now, decay);
            self.last[i] = now;
        }
    }

    /// Decay counter `i` to `now`, then add `amount`.
    #[inline]
    fn hit(&mut self, i: usize, now: SimTime, amount: f64, decay: &mut Decay<impl DecayRate>) {
        self.decay_to(i, now, decay);
        self.value[i] += amount;
    }

    /// Record one operation at `now`.
    ///
    /// The mapping mirrors the CephFS counters: every op is an inode
    /// read or write; readdirs additionally bump `READDIR`; opens that miss
    /// the cache would fetch from RADOS (`FETCH`) and creates eventually
    /// journal (`STORE`) — we charge those deterministically at fixed
    /// ratios rather than modelling the cache itself.
    pub fn record(&mut self, op: OpKind, now: SimTime, rate: impl DecayRate) {
        // Counters an op bumps together were mostly last bumped together,
        // so they decay by one shared factor.
        let decay = &mut Decay::new(rate);
        self.hit(if op.is_write() { IWR } else { IRD }, now, 1.0, decay);
        match op {
            OpKind::Readdir => {
                self.hit(READDIR, now, 1.0, decay);
                // Listing a cold directory fetches its dirfrag object.
                self.hit(FETCH, now, 0.2, decay);
            }
            // Journal flush amortized over creates.
            OpKind::Create => self.hit(STORE, now, 0.1, decay),
            OpKind::OpenRead => self.hit(FETCH, now, 0.1, decay),
            _ => {}
        }
    }

    /// Fold a sampled heat into these counters at `now`, scaled by
    /// `scale`. Because all counters share one exponential decay, adding a
    /// point-in-time sample is equivalent to having recorded the underlying
    /// ops here — which is what lets per-MDS aggregates be rebuilt from
    /// per-frag truth.
    pub fn add_sample(&mut self, s: &HeatSample, now: SimTime, scale: f64, rate: impl DecayRate) {
        let decay = &mut Decay::new(rate);
        for (i, v) in s.to_array().into_iter().enumerate() {
            self.hit(i, now, v * scale, decay);
        }
    }

    /// Sample all counters at `now`, decaying them there. Counters equally
    /// far behind `now` — all five, after the first sample — decay by one
    /// shared factor.
    pub fn sample(&mut self, now: SimTime, rate: impl DecayRate) -> HeatSample {
        let decay = &mut Decay::new(rate);
        HeatSample::from_array(std::array::from_fn(|i| {
            self.decay_to(i, now, decay);
            self.value[i]
        }))
    }

    /// Sample all counters at `now` without mutating the decay state (for
    /// consistency oracles that must not perturb the counters they check).
    pub fn peek(&self, now: SimTime, rate: impl DecayRate) -> HeatSample {
        let decay = &mut Decay::new(rate);
        HeatSample::from_array(std::array::from_fn(|i| self.decayed(i, now, decay)))
    }

    /// Split this heat into `n` equal parts (used when a dirfrag splits —
    /// the children inherit the parent's heat evenly, like CephFS).
    pub fn split(&mut self, now: SimTime, n: usize, rate: impl DecayRate) -> Vec<FragHeat> {
        assert!(n >= 1);
        let sample = self.sample(now, rate);
        let share = 1.0 / n as f64;
        (0..n)
            .map(|_| {
                let mut h = FragHeat::default();
                h.add_sample(&sample, now, share, rate);
                h
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn five_counters_and_their_times_are_the_whole_state() {
        assert_eq!(std::mem::size_of::<FragHeat>(), 80);
    }

    #[test]
    fn write_ops_bump_iwr() {
        let mut h = FragHeat::default();
        h.record(OpKind::Create, t(0), t(10));
        h.record(OpKind::Stat, t(0), t(10));
        let s = h.sample(t(0), t(10));
        assert_eq!(s.iwr, 1.0);
        assert_eq!(s.ird, 1.0);
        assert!(s.store > 0.0, "creates charge journal stores");
    }

    #[test]
    fn heat_decays() {
        let mut h = FragHeat::default();
        for _ in 0..8 {
            h.record(OpKind::Create, t(0), t(10));
        }
        let hot = h.sample(t(0), t(10)).iwr;
        let cooled = h.sample(t(10), t(10)).iwr;
        assert!((cooled - hot / 2.0).abs() < 1e-9);
        // Two more half lives, read without decaying, then for real.
        assert!((h.peek(t(30), t(10)).iwr - hot / 8.0).abs() < 1e-9);
        assert!((h.sample(t(30), t(10)).iwr - hot / 8.0).abs() < 1e-9);
    }

    #[test]
    fn hits_accumulate_on_the_decayed_value() {
        let mut h = FragHeat::default();
        h.record(OpKind::Stat, t(0), t(10));
        h.record(OpKind::Stat, t(10), t(10));
        // The first hit decayed to 0.5, plus the new 1.0.
        assert!((h.peek(t(10), t(10)).ird - 1.5).abs() < 1e-9);
    }

    #[test]
    fn cephfs_metaload_weights() {
        let s = HeatSample {
            ird: 1.0,
            iwr: 2.0,
            readdir: 3.0,
            fetch: 4.0,
            store: 5.0,
        };
        assert_eq!(s.cephfs_metaload(), 1.0 + 4.0 + 3.0 + 8.0 + 20.0);
    }

    #[test]
    fn split_conserves_heat() {
        let mut h = FragHeat::default();
        for _ in 0..80 {
            h.record(OpKind::Create, t(0), t(10));
        }
        let before = h.sample(t(0), t(10));
        let parts = h.split(t(0), 8, t(10));
        assert_eq!(parts.len(), 8);
        let mut total = HeatSample::default();
        for mut p in parts {
            total = total.add(&p.sample(t(0), t(10)));
        }
        assert!((total.iwr - before.iwr).abs() < 1e-6);
        assert!((total.store - before.store).abs() < 1e-6);
    }

    /// Five counters decayed one at a time by the plain formula, with the
    /// op → counter mapping written out again.
    struct PlainHeat {
        half_life_ms: f64,
        /// `(value, last)` in `ird, iwr, readdir, fetch, store` order.
        counters: [(f64, SimTime); 5],
    }

    impl PlainHeat {
        fn peek(&self, i: usize, now: SimTime) -> f64 {
            let (value, last) = self.counters[i];
            if now > last {
                let dt = (now - last).as_millis() as f64;
                value * 0.5_f64.powf(dt / self.half_life_ms)
            } else {
                value
            }
        }
        fn decay(&mut self, i: usize, now: SimTime) {
            self.counters[i] = (self.peek(i, now), self.counters[i].1.max(now));
        }
        fn hit(&mut self, i: usize, now: SimTime, amount: f64) {
            self.decay(i, now);
            self.counters[i].0 += amount;
        }
        fn record(&mut self, op: OpKind, now: SimTime) {
            self.hit(usize::from(op.is_write()), now, 1.0);
            match op {
                OpKind::Readdir => {
                    self.hit(2, now, 1.0);
                    self.hit(3, now, 0.2);
                }
                OpKind::Create => self.hit(4, now, 0.1),
                OpKind::OpenRead => self.hit(3, now, 0.1),
                _ => {}
            }
        }
        fn sample(&self, now: SimTime) -> [u64; 5] {
            std::array::from_fn(|i| self.peek(i, now).to_bits())
        }
    }

    fn bits(s: &HeatSample) -> [u64; 5] {
        s.to_array().map(f64::to_bits)
    }

    /// Every entry of the table is the factor `powf` gives for its gap,
    /// bit for bit, at half lives on both sides of the table's span.
    #[test]
    fn every_table_entry_is_the_computed_factor() {
        for half_life in [1, 3, 500, 4_096, 7_000, 10_000, 86_400_000] {
            let hl = SimTime::from_millis(half_life);
            let table = DecayTable::new(hl);
            for (d, &f) in table.factors().iter().enumerate() {
                let want = 0.5_f64.powf(d as f64 / half_life as f64);
                assert_eq!(
                    f.to_bits(),
                    want.to_bits(),
                    "half life {half_life} ms, gap {d}"
                );
            }
            for d in [TABLE_MS as u64 - 1, TABLE_MS as u64, 1 << 40] {
                let want = 0.5_f64.powf(d as f64 / half_life as f64);
                assert_eq!((&table).factor(d).to_bits(), want.to_bits(), "gap {d}");
            }
        }
    }

    /// `record`, `sample`, `peek`, `add_sample` and `split`, decayed
    /// through the table, against [`PlainHeat`], which calls `powf` for
    /// every counter: values and last-touch times bit for bit, over random
    /// histories in which time stands still, creeps by microseconds (no
    /// whole millisecond: factor 1), jumps by gaps on both sides of the
    /// table's end, or is asked about the past — at the default half life
    /// and at the 500 ms of the elastic scenarios. A split carries on with
    /// one of its parts, checked against a reference split the same way.
    #[test]
    fn table_decay_is_bit_identical_to_five_plain_counters() {
        for half_life in [t(10), SimTime::from_millis(500)] {
            let table = &DecayTable::new(half_life);
            let mut rng = mantle_sim::SimRng::new(0x4ea7);
            let mut fast = FragHeat::default();
            let mut slow = PlainHeat {
                half_life_ms: half_life.as_millis() as f64,
                counters: [(0.0, SimTime::ZERO); 5],
            };
            let mut now = SimTime::ZERO;
            let (mut multiplied, mut splits) = (0, 0);
            for step in 0..30_000 {
                now = match rng.below(9) {
                    0 | 1 => now,
                    2 | 3 => now + SimTime::from_micros(rng.below(900)),
                    4 => now.saturating_sub(SimTime::from_millis(rng.below(5))),
                    5 => now + SimTime::from_secs(rng.below(200)),
                    // Around the table's end: 4 086 ..= 4 105 ms.
                    6 => now + SimTime::from_millis(TABLE_MS as u64 - 10 + rng.below(20)),
                    _ => now + SimTime::from_millis(rng.below(3_000)),
                };
                match rng.below(9) {
                    0..=3 => {
                        let ops = OpKind::all();
                        let op = ops[rng.below(ops.len() as u64) as usize];
                        fast.record(op, now, table);
                        slow.record(op, now);
                    }
                    4 => {
                        let got = fast.sample(now, table);
                        (0..5).for_each(|i| slow.decay(i, now));
                        assert_eq!(bits(&got), slow.sample(now), "step {step}");
                    }
                    5 => {
                        // Move heat in or out, as an authority change does —
                        // taking out exactly what is there leaves signed zeros.
                        let mut s = fast.peek(now, table);
                        if rng.below(2) == 0 {
                            s.fetch = 0.0;
                            s.store = -0.0;
                        }
                        let scale = [1.0, -1.0, 0.5, -0.0][rng.below(4) as usize];
                        fast.add_sample(&s, now, scale, table);
                        for (i, v) in s.to_array().into_iter().enumerate() {
                            slow.hit(i, now, v * scale);
                        }
                    }
                    6 => {
                        let n = 1 + rng.below(8) as usize;
                        let keep = rng.below(n as u64) as usize;
                        let parts = fast.split(now, n, table);
                        (0..5).for_each(|i| slow.decay(i, now));
                        let sampled = slow.counters.map(|c| c.0);
                        let share = 1.0 / n as f64;
                        let mut part = PlainHeat {
                            counters: [(0.0, SimTime::ZERO); 5],
                            ..slow
                        };
                        for (i, v) in sampled.into_iter().enumerate() {
                            part.hit(i, now, v * share);
                        }
                        for p in &parts {
                            assert_eq!(bits(&p.peek(now, table)), part.sample(now), "step {step}");
                            assert_eq!(p.last, part.counters.map(|c| c.1), "step {step}");
                        }
                        (fast, slow) = (parts[keep].clone(), part);
                        splits += 1;
                    }
                    _ => {}
                }
                assert_eq!(fast.last, slow.counters.map(|c| c.1), "step {step}");
                for at in [
                    now + SimTime::from_micros(rng.below(2_000_000)),
                    now + SimTime::from_millis(TABLE_MS as u64 - 2 + rng.below(4)),
                    now + SimTime::from_secs(rng.below(100)),
                ] {
                    let got = bits(&fast.peek(at, table));
                    assert_eq!(got, slow.sample(at), "step {step}");
                    assert_eq!(got, bits(&fast.peek(at, half_life)), "step {step}");
                }
                multiplied += fast.value.iter().filter(|&&v| v != 0.0).count();
            }
            assert!(multiplied > 50_000, "the walk kept counters warm");
            assert!(splits > 1_000, "{splits} splits");
        }
    }

    #[test]
    fn readdir_charges_fetch() {
        let mut h = FragHeat::default();
        h.record(OpKind::Readdir, t(0), t(10));
        let s = h.sample(t(0), t(10));
        assert_eq!(s.readdir, 1.0);
        assert!(s.fetch > 0.0);
        assert_eq!(s.iwr, 0.0);
    }
}
