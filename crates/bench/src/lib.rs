//! Benchmark crate for the Mantle reproduction.
//!
//! The interesting code lives in `benches/`:
//!
//! * `figures` — one benchmark per paper table/figure (the data itself
//!   comes from `cargo run -p mantle-core --bin repro`);
//! * `policy_lang` — cost of the programmable layer per balancer tick;
//! * `ablations` — design-choice sweeps (decay half-life, migration
//!   freeze cost, dirfrag split threshold, heartbeat cadence, selector
//!   accuracy), printing the domain metric per variant.
//!
//! End-to-end and per-layer timings with a history live in the
//! repository's `benchmark/` program, not here.
//!
//! All of them run on [`harness`], a ~100-line `std::time::Instant`
//! measurement loop, because the build environment is offline and cannot
//! fetch criterion. The harness understands `cargo bench -- <substring>`
//! filtering and prints one `ns/iter` line per benchmark.

#![forbid(unsafe_code)]

pub mod harness {
    //! Minimal wall-clock benchmark harness (no external dependencies).

    use std::time::{Duration, Instant};

    /// Re-export so benches don't have to spell out the `std::hint` path.
    pub use std::hint::black_box;

    /// A benchmark runner: parses CLI args once, then times closures.
    pub struct Runner {
        filter: Option<String>,
        /// Target measurement time per benchmark.
        measure_for: Duration,
        group: Option<String>,
    }

    impl Default for Runner {
        fn default() -> Self {
            Runner::from_env()
        }
    }

    impl Runner {
        /// Build from `cargo bench` CLI args: flags (`--bench`, `--exact`,
        /// ...) are ignored, the first free argument is a name filter.
        pub fn from_env() -> Self {
            let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
            Runner {
                filter,
                measure_for: Duration::from_millis(300),
                group: None,
            }
        }

        /// Override the per-benchmark measurement window.
        pub fn measure_for(mut self, d: Duration) -> Self {
            self.measure_for = d;
            self
        }

        /// Set a group label prefixed to every subsequent benchmark name.
        pub fn group(&mut self, name: &str) {
            self.group = Some(name.to_string());
        }

        fn full_name(&self, name: &str) -> String {
            match &self.group {
                Some(g) => format!("{g}/{name}"),
                None => name.to_string(),
            }
        }

        /// Time `f`, printing mean ns/iter. Returns the mean duration of
        /// one iteration (`Duration::ZERO` when filtered out).
        pub fn bench<R>(&self, name: &str, mut f: impl FnMut() -> R) -> Duration {
            let full = self.full_name(name);
            if let Some(filter) = &self.filter {
                if !full.contains(filter.as_str()) {
                    return Duration::ZERO;
                }
            }
            let mean = time_mean(self.measure_for, &mut f);
            println!("{full:<55} {:>12.1} ns/iter", mean.as_nanos() as f64);
            mean
        }
    }

    /// Measure the mean duration of one call to `f` over a window of at
    /// least `measure_for` (always at least 3 timed calls, after warmup).
    pub fn time_mean<R>(measure_for: Duration, f: &mut impl FnMut() -> R) -> Duration {
        // Warmup: one call, and estimate the per-iteration cost.
        let start = Instant::now();
        black_box(f());
        let first = start.elapsed();

        // Choose a batch size that keeps timer overhead negligible for
        // fast closures without over-running slow ones.
        let batch = if first < Duration::from_micros(10) {
            1_000
        } else if first < Duration::from_millis(1) {
            10
        } else {
            1
        };

        let mut iters: u64 = 0;
        let mut spent = Duration::ZERO;
        while spent < measure_for || iters < 3 {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            spent += t.elapsed();
            iters += batch;
        }
        spent / (iters as u32).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::harness::{black_box, time_mean};
    use std::time::Duration;

    #[test]
    fn time_mean_orders_cheap_vs_expensive() {
        let cheap = time_mean(Duration::from_millis(5), &mut || 1 + 1);
        let costly = time_mean(Duration::from_millis(5), &mut || {
            // An opaque bound: release builds fold the sum of a literal
            // range to a constant, and the loop with it.
            (0..black_box(20_000u64))
                .map(|i| i.wrapping_mul(i))
                .sum::<u64>()
        });
        assert!(costly > cheap, "{costly:?} should exceed {cheap:?}");
    }
}
