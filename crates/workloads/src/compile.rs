//! The compile workload: a phased synthetic stand-in for compiling the
//! Linux source tree on CephFS (the job behind Figs. 1, 3, 9 and 10).
//!
//! Three phases per client, each with the paper's characteristic request
//! mix:
//!
//! 1. **untar** — sequential, create-heavy load sweeping across the whole
//!    tree ("untarring the code has high, sequential metadata load across
//!    directories");
//! 2. **compile** — hotspots in `arch`, `kernel`, `fs` and `mm` with a
//!    stat/open/create mix ("compiling the code has hotspots in the arch,
//!    kernel, fs, and mm directories");
//! 3. **link** — a readdir flash crowd at the end of the job ("the clients
//!    shift to linking, which overloads 1 MDS with readdirs", Fig. 10).

use mantle_mds::{ClientOp, Workload};
use mantle_namespace::{Namespace, NodeId, OpKind};
use mantle_sim::{SimRng, SimTime};

/// The top-level directories of the synthetic source tree, with their
/// compile-phase hotspot weights (hot: `arch`, `kernel`, `fs`, `mm`).
const TREE: &[(&str, &[&str], f64)] = &[
    ("arch", &["x86", "arm", "powerpc"], 0.26),
    ("kernel", &["sched", "time", "irq"], 0.22),
    ("fs", &["ext4", "btrfs", "nfs"], 0.14),
    ("mm", &["slab", "huge"], 0.10),
    ("drivers", &["net", "gpu", "block"], 0.08),
    ("include", &["linux", "asm"], 0.07),
    ("net", &["ipv4", "core"], 0.05),
    ("lib", &["zlib"], 0.04),
    ("scripts", &["kconfig"], 0.02),
    ("Documentation", &["admin"], 0.02),
];

#[derive(Debug, Clone)]
struct ClientPlan {
    /// All directories of this client's tree, in untar order.
    dirs: Vec<NodeId>,
    /// Indices into `dirs` weighted for the compile phase.
    rng: SimRng,
    issued: u64,
}

/// The compile workload. `scale` multiplies the op counts (1.0 ≈ a few
/// thousand metadata ops per client — minutes of simulated time).
#[derive(Debug, Clone)]
pub struct Compile {
    clients: usize,
    scale: f64,
    seed: u64,
    plans: Vec<ClientPlan>,
    untar_ops: u64,
    compile_ops: u64,
    link_ops: u64,
}

impl Compile {
    /// New compile workload for `clients` clients at op-count `scale`.
    pub fn new(clients: usize, scale: f64, seed: u64) -> Self {
        assert!(clients > 0, "need at least one client");
        assert!(scale > 0.0);
        Compile {
            clients,
            scale,
            seed,
            plans: Vec::new(),
            untar_ops: (1_500.0 * scale) as u64,
            compile_ops: (5_000.0 * scale) as u64,
            link_ops: (1_200.0 * scale) as u64,
        }
    }

    /// Ops every client issues in total.
    pub fn ops_per_client(&self) -> u64 {
        self.untar_ops + self.compile_ops + self.link_ops
    }

    /// The op-count scale this workload was built with.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    fn pick_compile_dir(plan: &mut ClientPlan, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        let mut x = plan.rng.f64() * total;
        for (i, w) in weights.iter().enumerate() {
            x -= w;
            if x <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }
}

impl Workload for Compile {
    fn num_clients(&self) -> usize {
        self.clients
    }

    fn setup(&mut self, ns: &mut Namespace) {
        let master = SimRng::new(self.seed);
        self.plans = (0..self.clients)
            .map(|c| {
                let mut dirs = Vec::new();
                for (top, subs, _) in TREE {
                    let top_node = ns.mkdir_p(&format!("/client{c}/linux/{top}"));
                    dirs.push(top_node);
                    for sub in *subs {
                        dirs.push(ns.mkdir_p(&format!("/client{c}/linux/{top}/{sub}")));
                    }
                }
                ClientPlan {
                    dirs,
                    rng: master.stream_n("compile-client", c),
                    issued: 0,
                }
            })
            .collect();
    }

    fn next(&mut self, client: usize, _ns: &Namespace, _now: SimTime) -> Option<ClientOp> {
        let untar_ops = self.untar_ops;
        let compile_ops = self.compile_ops;
        let link_ops = self.link_ops;
        let plan = &mut self.plans[client];
        let i = plan.issued;
        if i >= untar_ops + compile_ops + link_ops {
            return None;
        }
        plan.issued += 1;
        let ndirs = plan.dirs.len() as u64;
        let op = if i < untar_ops {
            // Untar: sweep the tree sequentially, mostly creates.
            let dir = plan.dirs[(i % ndirs) as usize];
            let kind = if plan.rng.f64() < 0.92 {
                OpKind::Create
            } else {
                OpKind::Mkdir
            };
            ClientOp { dir, kind }
        } else if i < untar_ops + compile_ops {
            // Compile: weighted hotspots; stat/open/create mix.
            // Weight per *directory*: each top dir's weight is split over
            // itself + its subdirs.
            let weights: Vec<f64> = {
                let mut out = Vec::with_capacity(plan.dirs.len());
                for (_, subs, w) in TREE {
                    let n = 1 + subs.len();
                    for _ in 0..n {
                        out.push(w / n as f64);
                    }
                }
                out
            };
            let di = Self::pick_compile_dir(plan, &weights);
            let dir = plan.dirs[di];
            let r = plan.rng.f64();
            let kind = if r < 0.45 {
                OpKind::Stat
            } else if r < 0.75 {
                OpKind::OpenRead
            } else if r < 0.95 {
                OpKind::Create
            } else {
                OpKind::SetAttr
            };
            ClientOp { dir, kind }
        } else {
            // Link: the flash crowd — readdir sweep plus stats.
            let j = i - untar_ops - compile_ops;
            let dir = plan.dirs[(j % ndirs) as usize];
            let kind = if plan.rng.f64() < 0.55 {
                OpKind::Readdir
            } else {
                OpKind::Stat
            };
            ClientOp { dir, kind }
        };
        Some(op)
    }

    fn name(&self) -> &str {
        "compile"
    }

    fn ops_per_client_hint(&self) -> Option<u64> {
        Some(self.ops_per_client())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_per_client_trees() {
        let mut w = Compile::new(2, 0.1, 7);
        let mut ns = Namespace::default();
        w.setup(&mut ns);
        let client0 = ns.lookup_child(ns.root(), "client0").expect("setup ran");
        let linux = ns.lookup_child(client0, "linux").expect("tree built");
        let tops = ns.children(linux);
        assert_eq!(tops.len(), TREE.len());
        assert!(tops.iter().any(|&c| ns.name(c) == "arch"));
        assert!(ns.lookup_child(ns.root(), "client1").is_some());
    }

    #[test]
    fn issues_exactly_ops_per_client() {
        let mut w = Compile::new(1, 0.05, 3);
        let mut ns = Namespace::default();
        w.setup(&mut ns);
        let expected = w.ops_per_client();
        let mut n = 0;
        while w.next(0, &ns, SimTime::ZERO).is_some() {
            n += 1;
        }
        assert_eq!(n, expected);
    }

    #[test]
    fn compile_phase_prefers_hot_dirs() {
        let mut w = Compile::new(1, 1.0, 11);
        let mut ns = Namespace::default();
        w.setup(&mut ns);
        // Drain the untar phase.
        for _ in 0..w.untar_ops {
            w.next(0, &ns, SimTime::ZERO).unwrap();
        }
        // Sample compile-phase ops and count hits under /client0/linux/arch.
        let arch = ns.mkdir_p("/client0/linux/arch");
        let mut arch_hits = 0;
        let samples = 2_000;
        for _ in 0..samples {
            let op = w.next(0, &ns, SimTime::ZERO).unwrap();
            let p = ns.path(op.dir);
            if p.starts_with(&ns.path(arch)) {
                arch_hits += 1;
            }
        }
        let frac = arch_hits as f64 / samples as f64;
        assert!(
            (0.18..0.35).contains(&frac),
            "arch got {frac:.2} of compile ops (want ≈0.26)"
        );
    }

    #[test]
    fn link_phase_is_readdir_heavy() {
        let mut w = Compile::new(1, 0.2, 5);
        let mut ns = Namespace::default();
        w.setup(&mut ns);
        for _ in 0..(w.untar_ops + w.compile_ops) {
            w.next(0, &ns, SimTime::ZERO).unwrap();
        }
        let mut readdirs = 0;
        let mut total = 0;
        while let Some(op) = w.next(0, &ns, SimTime::ZERO) {
            total += 1;
            if op.kind == OpKind::Readdir {
                readdirs += 1;
            }
        }
        assert!(total > 0);
        let frac = readdirs as f64 / total as f64;
        assert!(frac > 0.4, "link phase readdir fraction {frac:.2}");
    }

    #[test]
    fn deterministic_per_seed() {
        let gen = |seed| {
            let mut w = Compile::new(1, 0.05, seed);
            let mut ns = Namespace::default();
            w.setup(&mut ns);
            let mut ops = Vec::new();
            while let Some(op) = w.next(0, &ns, SimTime::ZERO) {
                ops.push((op.dir, op.kind));
            }
            ops
        };
        assert_eq!(gen(9), gen(9));
        assert_ne!(gen(9), gen(10));
    }
}
