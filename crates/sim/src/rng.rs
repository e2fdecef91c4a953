//! Seeded random-number streams.
//!
//! A run has one master seed; every component (each client, each MDS's
//! measurement noise, each workload generator) derives an independent
//! stream from `(master seed, label)` so adding a new consumer of
//! randomness never perturbs the draws of existing ones.
//!
//! The generator is xoshiro256++ seeded through SplitMix64 — small, fast,
//! and dependency-free, with more than enough statistical quality for a
//! simulator (we never need cryptographic randomness).

/// A deterministic random stream.
#[derive(Debug, Clone)]
pub struct SimRng {
    seed: u64,
    state: [u64; 4],
}

/// SplitMix64 step, used to expand a 64-bit seed into generator state.
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Master stream for a run.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { seed, state }
    }

    /// Derive an independent child stream named `label`.
    ///
    /// Uses an FNV-1a mix of the label over the parent seed, which is cheap
    /// and collision-resistant enough for a handful of component names.
    pub fn stream(&self, label: &str) -> SimRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Avoid the degenerate case of deriving the identical seed.
        SimRng::new(h ^ self.seed.rotate_left(17))
    }

    /// Derive a child stream for a numbered component (client 3, MDS 1, ...).
    pub fn stream_n(&self, label: &str, n: usize) -> SimRng {
        self.stream(&format!("{label}#{n}"))
    }

    /// Next raw 64-bit output (xoshiro256++).
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform f64 in `[0, 1)` (53 mantissa bits).
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform u64 in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Rejection sampling over the top multiple of n avoids modulo bias.
        let zone = u64::MAX - (u64::MAX % n) - 1;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % n;
            }
        }
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.below(span + 1)
    }

    /// A multiplicative jitter factor in `[1-amount, 1+amount]`.
    pub fn jitter(&mut self, amount: f64) -> f64 {
        1.0 + (self.f64() * 2.0 - 1.0) * amount
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_streams_diverge() {
        let master = SimRng::new(7);
        let mut a = master.stream("clients");
        let mut b = master.stream("mds-noise");
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams should be effectively independent");
    }

    #[test]
    fn stream_is_stable_across_calls() {
        let master = SimRng::new(7);
        let mut a = master.stream("x");
        let mut b = master.stream("x");
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn numbered_streams_differ() {
        let master = SimRng::new(3);
        let mut a = master.stream_n("client", 0);
        let mut b = master.stream_n("client", 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_is_in_unit_interval() {
        let mut rng = SimRng::new(23);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_unbiased_enough() {
        let mut rng = SimRng::new(29);
        let mut counts = [0usize; 7];
        let n = 70_000;
        for _ in 0..n {
            counts[rng.below(7) as usize] += 1;
        }
        for c in counts {
            let expected = n / 7;
            assert!(
                (c as i64 - expected as i64).abs() < (expected / 10) as i64,
                "bucket count {c} far from {expected}"
            );
        }
    }

    #[test]
    fn jitter_bounds() {
        let mut rng = SimRng::new(17);
        for _ in 0..1_000 {
            let j = rng.jitter(0.25);
            assert!((0.75..=1.25).contains(&j));
        }
    }
}
