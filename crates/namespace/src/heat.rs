//! Decayed popularity counters — the per-directory "heat" of Fig. 1.

use mantle_sim::{DecayCounter, SharedDecay, SimTime};

use crate::types::OpKind;

/// The five decayed counters a dirfrag carries; these are the exact inputs
/// to the `metaload` policy hook (Table 2's local metrics).
#[derive(Debug, Clone)]
pub struct FragHeat {
    half_life_ms: u64,
    ird: DecayCounter,
    iwr: DecayCounter,
    readdir: DecayCounter,
    fetch: DecayCounter,
    store: DecayCounter,
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
}

impl FragHeat {
    /// Fresh counters with the given decay half life.
    pub fn new(half_life: SimTime) -> Self {
        FragHeat {
            half_life_ms: half_life.as_millis(),
            ird: DecayCounter::new(half_life),
            iwr: DecayCounter::new(half_life),
            readdir: DecayCounter::new(half_life),
            fetch: DecayCounter::new(half_life),
            store: DecayCounter::new(half_life),
        }
    }

    /// Record one operation at `now`.
    ///
    /// The mapping mirrors the CephFS counters: every op is an inode
    /// read or write; readdirs additionally bump `READDIR`; opens that miss
    /// the cache would fetch from RADOS (`FETCH`) and creates eventually
    /// journal (`STORE`) — we charge those deterministically at fixed
    /// ratios rather than modelling the cache itself.
    pub fn record(&mut self, op: OpKind, now: SimTime) {
        // Counters an op bumps together were mostly last bumped together,
        // so they decay by one shared factor.
        let mut shared = SharedDecay::default();
        if op.is_write() {
            self.iwr.hit_sharing(now, 1.0, &mut shared);
        } else {
            self.ird.hit_sharing(now, 1.0, &mut shared);
        }
        match op {
            OpKind::Readdir => {
                self.readdir.hit_sharing(now, 1.0, &mut shared);
                // Listing a cold directory fetches its dirfrag object.
                self.fetch.hit_sharing(now, 0.2, &mut shared);
            }
            OpKind::Create => {
                // Journal flush amortized over creates.
                self.store.hit_sharing(now, 0.1, &mut shared);
            }
            OpKind::OpenRead => {
                self.fetch.hit_sharing(now, 0.1, &mut shared);
            }
            _ => {}
        }
    }

    /// Fold a sampled heat into these counters at `now`, scaled by
    /// `scale`. Because all counters share one exponential decay, adding a
    /// point-in-time sample is equivalent to having recorded the underlying
    /// ops here — which is what lets per-MDS aggregates be rebuilt from
    /// per-frag truth.
    pub fn add_sample(&mut self, s: &HeatSample, now: SimTime, scale: f64) {
        let mut shared = SharedDecay::default();
        self.ird.hit_sharing(now, s.ird * scale, &mut shared);
        self.iwr.hit_sharing(now, s.iwr * scale, &mut shared);
        self.readdir
            .hit_sharing(now, s.readdir * scale, &mut shared);
        self.fetch.hit_sharing(now, s.fetch * scale, &mut shared);
        self.store.hit_sharing(now, s.store * scale, &mut shared);
    }

    /// Sample all counters at `now`. Counters equally far behind `now` —
    /// all five, after the first sample — decay by one shared factor.
    pub fn sample(&mut self, now: SimTime) -> HeatSample {
        let mut shared = SharedDecay::default();
        HeatSample {
            ird: self.ird.get_sharing(now, &mut shared),
            iwr: self.iwr.get_sharing(now, &mut shared),
            readdir: self.readdir.get_sharing(now, &mut shared),
            fetch: self.fetch.get_sharing(now, &mut shared),
            store: self.store.get_sharing(now, &mut shared),
        }
    }

    /// Sample all counters at `now` without mutating the decay state (for
    /// consistency oracles that must not perturb the counters they check).
    pub fn peek(&self, now: SimTime) -> HeatSample {
        HeatSample {
            ird: self.ird.peek_at(now),
            iwr: self.iwr.peek_at(now),
            readdir: self.readdir.peek_at(now),
            fetch: self.fetch.peek_at(now),
            store: self.store.peek_at(now),
        }
    }

    /// Split this heat into `n` equal parts (used when a dirfrag splits —
    /// the children inherit the parent's heat evenly, like CephFS).
    pub fn split(&mut self, now: SimTime, n: usize) -> Vec<FragHeat> {
        assert!(n >= 1);
        let sample = self.sample(now);
        let share = 1.0 / n as f64;
        (0..n)
            .map(|_| {
                let mut h = FragHeat::new(self.half_life());
                h.ird.hit(now, sample.ird * share);
                h.iwr.hit(now, sample.iwr * share);
                h.readdir.hit(now, sample.readdir * share);
                h.fetch.hit(now, sample.fetch * share);
                h.store.hit(now, sample.store * share);
                h
            })
            .collect()
    }

    /// Decay half life (shared by all five counters).
    pub fn half_life(&self) -> SimTime {
        SimTime::from_millis(self.half_life_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn write_ops_bump_iwr() {
        let mut h = FragHeat::new(t(10));
        h.record(OpKind::Create, t(0));
        h.record(OpKind::Stat, t(0));
        let s = h.sample(t(0));
        assert_eq!(s.iwr, 1.0);
        assert_eq!(s.ird, 1.0);
        assert!(s.store > 0.0, "creates charge journal stores");
    }

    #[test]
    fn heat_decays() {
        let mut h = FragHeat::new(t(10));
        for _ in 0..8 {
            h.record(OpKind::Create, t(0));
        }
        let hot = h.sample(t(0)).iwr;
        let cooled = h.sample(t(10)).iwr;
        assert!((cooled - hot / 2.0).abs() < 1e-9);
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
        let mut h = FragHeat::new(t(10));
        for _ in 0..80 {
            h.record(OpKind::Create, t(0));
        }
        let before = h.sample(t(0));
        let parts = h.split(t(0), 8);
        assert_eq!(parts.len(), 8);
        let mut total = HeatSample::default();
        for mut p in parts {
            total = total.add(&p.sample(t(0)));
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
        [s.ird, s.iwr, s.readdir, s.fetch, s.store].map(f64::to_bits)
    }

    #[test]
    fn shared_decay_factors_are_bit_identical_to_five_plain_counters() {
        let mut rng = mantle_sim::SimRng::new(0x4ea7);
        let mut fast = FragHeat::new(t(10));
        let mut slow = PlainHeat {
            half_life_ms: 10_000.0,
            counters: [(0.0, SimTime::ZERO); 5],
        };
        let mut now = SimTime::ZERO;
        for step in 0..30_000 {
            now = match rng.below(8) {
                0 | 1 => now,
                2 | 3 => now + SimTime::from_micros(rng.below(900)),
                4 => now.saturating_sub(SimTime::from_millis(rng.below(5))),
                5 => now + SimTime::from_secs(rng.below(200)),
                _ => now + SimTime::from_millis(rng.below(3_000)),
            };
            match rng.below(8) {
                0..=3 => {
                    let ops = OpKind::all();
                    let op = ops[rng.below(ops.len() as u64) as usize];
                    fast.record(op, now);
                    slow.record(op, now);
                }
                4 => {
                    let got = fast.sample(now);
                    (0..5).for_each(|i| slow.decay(i, now));
                    assert_eq!(bits(&got), slow.sample(now), "step {step}");
                }
                5 => {
                    // Move heat in or out, as an authority change does —
                    // taking out exactly what is there leaves signed zeros.
                    let mut s = fast.peek(now);
                    if rng.below(2) == 0 {
                        s.fetch = 0.0;
                        s.store = -0.0;
                    }
                    let scale = [1.0, -1.0, 0.5, -0.0][rng.below(4) as usize];
                    fast.add_sample(&s, now, scale);
                    for (i, v) in [s.ird, s.iwr, s.readdir, s.fetch, s.store]
                        .into_iter()
                        .enumerate()
                    {
                        slow.hit(i, now, v * scale);
                    }
                }
                _ => {}
            }
            let at = now + SimTime::from_micros(rng.below(2_000_000));
            assert_eq!(bits(&fast.peek(at)), slow.sample(at), "step {step}");
        }
    }

    #[test]
    fn readdir_charges_fetch() {
        let mut h = FragHeat::new(t(10));
        h.record(OpKind::Readdir, t(0));
        let s = h.sample(t(0));
        assert_eq!(s.readdir, 1.0);
        assert!(s.fetch > 0.0);
        assert_eq!(s.iwr, 0.0);
    }
}
