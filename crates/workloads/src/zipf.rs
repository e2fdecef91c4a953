//! A Zipf-distributed mixed-metadata workload.
//!
//! Not taken from a specific figure — this is the "many types of parallel
//! applications" generalization the paper's intro motivates, used by the
//! ablation benches to study balancers under skew that is *not* one of the
//! two extremes (one shared directory vs perfectly separate directories).

use mantle_mds::{ClientOp, Workload};
use mantle_namespace::{Namespace, NodeId, OpKind};
use mantle_sim::{SimRng, SimTime};

/// Clients issue a mix of metadata ops over a flat population of
/// directories whose popularity follows a Zipf distribution.
#[derive(Debug, Clone)]
pub struct ZipfMix {
    clients: usize,
    dirs: usize,
    ops_per_client: u64,
    write_fraction: f64,
    issued: Vec<u64>,
    nodes: Vec<NodeId>,
    /// Cumulative Zipf weights for sampling.
    cdf: Vec<f64>,
    /// Guide table over `cdf`, `K = dirs.next_power_of_two()` entries:
    /// `guide[b]` is the first index whose `cdf` is ≥ `b / K` (at most
    /// the last index). A draw `u` starts at `guide[⌊u·K⌋]` and steps
    /// forward, at most `1 + dirs/K ≤ 2` steps in expectation (Chen and
    /// Asau's guide table), where a binary search took ⌈log₂ dirs⌉
    /// dependent probes.
    guide: Vec<u32>,
    rngs: Vec<SimRng>,
}

impl ZipfMix {
    /// New workload: `clients` clients × `ops_per_client` ops over `dirs`
    /// directories with Zipf exponent `exponent` (1.0 ≈ classic web skew)
    /// and the given fraction of metadata writes.
    pub fn new(
        clients: usize,
        dirs: usize,
        ops_per_client: u64,
        exponent: f64,
        write_fraction: f64,
        seed: u64,
    ) -> Self {
        assert!(clients > 0 && dirs > 0);
        assert!((0.0..=1.0).contains(&write_fraction));
        assert!(exponent >= 0.0);
        let mut cdf = Vec::with_capacity(dirs);
        let mut acc = 0.0;
        for rank in 1..=dirs {
            acc += 1.0 / (rank as f64).powf(exponent);
            cdf.push(acc);
        }
        for w in &mut cdf {
            *w /= acc;
        }
        // One pass: `cdf` is non-decreasing, so each bucket's first index
        // is at or after the previous bucket's.
        let (k, last) = (dirs.next_power_of_two(), dirs - 1);
        let mut guide = Vec::with_capacity(k);
        let mut i = 0;
        for b in 0..k {
            let lo = b as f64 / k as f64;
            while i < last && cdf[i] < lo {
                i += 1;
            }
            guide.push(i as u32);
        }
        let master = SimRng::new(seed);
        ZipfMix {
            clients,
            dirs,
            ops_per_client,
            write_fraction,
            issued: vec![0; clients],
            nodes: Vec::new(),
            cdf,
            guide,
            rngs: (0..clients)
                .map(|c| master.stream_n("zipf-client", c))
                .collect(),
        }
    }

    /// Number of directories in the population.
    pub fn dirs(&self) -> usize {
        self.dirs
    }

    fn sample_dir(&mut self, client: usize) -> NodeId {
        // `nodes` is only populated by `setup`; sampling before that would
        // underflow `len() - 1` in debug builds (and index out of bounds in
        // release). `index_of` stays inside the cdf, which is built in
        // `new` and is never empty (`dirs > 0` is asserted there).
        assert!(
            !self.nodes.is_empty(),
            "ZipfMix::setup must run before ops are sampled"
        );
        let u = self.rngs[client].f64();
        self.nodes[self.index_of(u)]
    }

    /// The population index a uniform draw `u ∈ [0, 1)` selects: the first
    /// whose `cdf` is ≥ `u`, or the last. `K` is a power of two, so `u·K`
    /// and every `b / K` are exact, and `guide[⌊u·K⌋]` is never past the
    /// answer: the walk from it is exactly a binary search's result.
    fn index_of(&self, u: f64) -> usize {
        let last = self.cdf.len() - 1;
        let mut i = self.guide[(u * self.guide.len() as f64) as usize] as usize;
        while i < last && self.cdf[i] < u {
            i += 1;
        }
        i
    }
}

impl Workload for ZipfMix {
    fn num_clients(&self) -> usize {
        self.clients
    }

    fn setup(&mut self, ns: &mut Namespace) {
        // A two-level tree so subtree partitioning has units to move:
        // /zipf/g<k>/d<i> with 16 dirs per group.
        self.nodes = (0..self.dirs)
            .map(|i| ns.mkdir_p(&format!("/zipf/g{}/d{}", i / 16, i % 16)))
            .collect();
    }

    fn next(&mut self, client: usize, _ns: &Namespace, _now: SimTime) -> Option<ClientOp> {
        if self.issued[client] >= self.ops_per_client {
            return None;
        }
        self.issued[client] += 1;
        let dir = self.sample_dir(client);
        let r = self.rngs[client].f64();
        let kind = if r < self.write_fraction {
            if r < self.write_fraction * 0.7 {
                OpKind::Create
            } else {
                OpKind::SetAttr
            }
        } else {
            let r2 = (r - self.write_fraction) / (1.0 - self.write_fraction).max(1e-9);
            if r2 < 0.7 {
                OpKind::Stat
            } else if r2 < 0.9 {
                OpKind::OpenRead
            } else {
                OpKind::Readdir
            }
        };
        Some(ClientOp { dir, kind })
    }

    fn name(&self) -> &str {
        "zipf-mix"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_population() {
        let mut w = ZipfMix::new(2, 64, 100, 1.0, 0.5, 3);
        let mut ns = Namespace::default();
        w.setup(&mut ns);
        assert_eq!(w.nodes.len(), 64);
        assert_eq!(w.dirs(), 64);
        // Two-level grouping exists.
        assert!(ns.mkdir_p("/zipf/g0") != ns.root());
    }

    /// The guide table selects exactly what a binary search over the CDF
    /// selects: at random draws, at every bucket boundary `b / K`, at
    /// every CDF value and the float just below it, and at the largest
    /// draw the generator can make, `1 − 2⁻⁵³`. 10⁶ random draws in all.
    #[test]
    fn guide_table_matches_binary_search() {
        const DIRS: [usize; 6] = [1, 2, 3, 17, 1_000, 100_000];
        const EXPONENTS: [f64; 3] = [0.0, 1.1, 2.0];
        const DRAWS: usize = 1_000_000 / (DIRS.len() * EXPONENTS.len()) + 1;
        let mut rng = SimRng::new(0x6a1d);
        for dirs in DIRS {
            for exponent in EXPONENTS {
                let w = ZipfMix::new(1, dirs, 0, exponent, 0.5, 1);
                let (k, last) = (w.guide.len(), w.cdf.len() - 1);
                assert_eq!(k, dirs.next_power_of_two());
                let check = |u: f64| {
                    if (0.0..1.0).contains(&u) {
                        let searched = w.cdf.partition_point(|&c| c < u).min(last);
                        assert_eq!(
                            w.index_of(u),
                            searched,
                            "{dirs} dirs, s = {exponent}, u = {u:e}"
                        );
                    }
                };
                for _ in 0..DRAWS {
                    check(rng.f64());
                }
                for b in 0..k {
                    check(b as f64 / k as f64);
                }
                for &c in &w.cdf {
                    check(c);
                    check(f64::from_bits(c.to_bits() - 1));
                }
                check(1.0 - f64::EPSILON / 2.0);
            }
        }
    }

    #[test]
    fn skew_favors_low_ranks() {
        let mut w = ZipfMix::new(1, 50, 20_000, 1.2, 0.5, 9);
        let mut ns = Namespace::default();
        w.setup(&mut ns);
        let first = w.nodes[0];
        let mut hits_first = 0u64;
        let mut total = 0u64;
        while let Some(op) = w.next(0, &ns, SimTime::ZERO) {
            total += 1;
            if op.dir == first {
                hits_first += 1;
            }
        }
        assert_eq!(total, 20_000);
        let frac = hits_first as f64 / total as f64;
        assert!(frac > 0.15, "rank-1 dir got {frac:.3} of traffic");
    }

    #[test]
    fn write_fraction_respected() {
        let mut w = ZipfMix::new(1, 10, 10_000, 1.0, 0.3, 5);
        let mut ns = Namespace::default();
        w.setup(&mut ns);
        let mut writes = 0u64;
        let mut total = 0u64;
        while let Some(op) = w.next(0, &ns, SimTime::ZERO) {
            total += 1;
            if op.kind.is_write() {
                writes += 1;
            }
        }
        let frac = writes as f64 / total as f64;
        assert!((frac - 0.3).abs() < 0.03, "write fraction {frac:.3}");
    }

    #[test]
    #[should_panic(expected = "setup must run before ops are sampled")]
    fn next_before_setup_panics_cleanly() {
        // Regression: this used to underflow `self.nodes.len() - 1` (debug
        // panic deep in `sample_dir`); now it's a clear assertion.
        let mut w = ZipfMix::new(1, 8, 10, 1.0, 0.5, 1);
        let ns = Namespace::default();
        let _ = w.next(0, &ns, SimTime::ZERO);
    }

    #[test]
    fn uniform_when_exponent_zero() {
        let mut w = ZipfMix::new(1, 20, 40_000, 0.0, 0.5, 7);
        let mut ns = Namespace::default();
        w.setup(&mut ns);
        let mut counts = std::collections::HashMap::new();
        while let Some(op) = w.next(0, &ns, SimTime::ZERO) {
            *counts.entry(op.dir).or_insert(0u64) += 1;
        }
        let max = counts.values().max().copied().unwrap() as f64;
        let min = counts.values().min().copied().unwrap() as f64;
        assert!(max / min < 1.35, "uniform spread: {min}..{max}");
    }
}
