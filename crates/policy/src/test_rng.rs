//! SplitMix64 — enough randomness for the fixed-seed property tests of a
//! crate with no dependencies.

pub(crate) struct Rng(pub(crate) u64);

impl Rng {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    pub(crate) fn f64(&mut self) -> f64 {
        // Mixed magnitudes, so association order shows up in the bits.
        let mantissa = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        mantissa * 10f64.powi(self.below(13) as i32 - 6)
    }
}
