//! A flash-crowd readdir storm over one hot directory.
//!
//! The scenario the cache tier exists for: every client suddenly hammers
//! the *same* directory with read-class lookups (the link-phase flash
//! crowd of Fig. 1, distilled to its worst case). Without a proxy cache
//! every op queues at the one MDS that owns the hot directory, so
//! cluster throughput is pinned to single-server service rate no matter
//! how the balancer migrates. With the cache, the first lookup per proxy
//! group fills an entry and the rest are absorbed.
//!
//! Each client mixes:
//!
//! * hot-dir reads (readdir/stat/open on the shared hot directory) with
//!   probability `hot_fraction`;
//! * private-dir ops (stat + occasional create in the client's own
//!   directory) for the rest — background traffic that keeps the
//!   namespace mutating, so invalidation correctness matters.

use mantle_mds::{ClientOp, Workload};
use mantle_namespace::{Namespace, NodeId, OpKind};
use mantle_sim::{SimRng, SimTime};

/// Clients issue read-class ops against one shared hot directory, plus a
/// trickle of ops in per-client private directories.
#[derive(Debug, Clone)]
pub struct FlashCrowd {
    clients: usize,
    ops_per_client: u64,
    hot_fraction: f64,
    write_fraction: f64,
    issued: Vec<u64>,
    hot: Option<NodeId>,
    private: Vec<NodeId>,
    rngs: Vec<SimRng>,
}

impl FlashCrowd {
    /// New storm: `clients` clients × `ops_per_client` ops, a
    /// `hot_fraction` of them against the shared hot directory, and a
    /// `write_fraction` of the *private* remainder mutating (creates).
    pub fn new(
        clients: usize,
        ops_per_client: u64,
        hot_fraction: f64,
        write_fraction: f64,
        seed: u64,
    ) -> Self {
        assert!(clients > 0);
        assert!((0.0..=1.0).contains(&hot_fraction));
        assert!((0.0..=1.0).contains(&write_fraction));
        let master = SimRng::new(seed);
        FlashCrowd {
            clients,
            ops_per_client,
            hot_fraction,
            write_fraction,
            issued: vec![0; clients],
            hot: None,
            private: Vec::new(),
            rngs: (0..clients)
                .map(|c| master.stream_n("flashcrowd-client", c))
                .collect(),
        }
    }
}

impl Workload for FlashCrowd {
    fn num_clients(&self) -> usize {
        self.clients
    }

    fn setup(&mut self, ns: &mut Namespace) {
        // The hot dir plus one private dir per client, grouped 16 to a
        // parent so subtree partitioning has units to move.
        self.hot = Some(ns.mkdir_p("/crowd/hot"));
        self.private = (0..self.clients)
            .map(|c| ns.mkdir_p(&format!("/crowd/p{}/c{}", c / 16, c % 16)))
            .collect();
    }

    fn next(&mut self, client: usize, _ns: &Namespace, _now: SimTime) -> Option<ClientOp> {
        if self.issued[client] >= self.ops_per_client {
            return None;
        }
        let hot = self.hot.expect("FlashCrowd::setup must run before ops");
        self.issued[client] += 1;
        let r = self.rngs[client].f64();
        if r < self.hot_fraction {
            // The storm itself: read-class only, weighted toward readdir
            // (the expensive one — a directory listing per request).
            let r2 = r / self.hot_fraction.max(1e-9);
            let kind = if r2 < 0.6 {
                OpKind::Readdir
            } else if r2 < 0.9 {
                OpKind::Stat
            } else {
                OpKind::OpenRead
            };
            return Some(ClientOp { dir: hot, kind });
        }
        // Private-dir background traffic.
        let r2 = (r - self.hot_fraction) / (1.0 - self.hot_fraction).max(1e-9);
        let kind = if r2 < self.write_fraction {
            OpKind::Create
        } else {
            OpKind::Stat
        };
        Some(ClientOp {
            dir: self.private[client],
            kind,
        })
    }

    fn name(&self) -> &str {
        "flash-crowd"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_hot_and_private_dirs() {
        let mut w = FlashCrowd::new(20, 100, 0.9, 0.2, 3);
        let mut ns = Namespace::default();
        w.setup(&mut ns);
        assert!(w.hot.is_some());
        assert_eq!(w.private.len(), 20);
    }

    #[test]
    fn hot_fraction_respected_and_read_only() {
        let mut w = FlashCrowd::new(1, 20_000, 0.8, 0.2, 7);
        let mut ns = Namespace::default();
        w.setup(&mut ns);
        let hot = w.hot.unwrap();
        let (mut on_hot, mut hot_writes, mut total) = (0u64, 0u64, 0u64);
        while let Some(op) = w.next(0, &ns, SimTime::ZERO) {
            total += 1;
            if op.dir == hot {
                on_hot += 1;
                if op.kind.is_write() {
                    hot_writes += 1;
                }
            }
        }
        assert_eq!(total, 20_000);
        let frac = on_hot as f64 / total as f64;
        assert!((frac - 0.8).abs() < 0.02, "hot fraction {frac:.3}");
        assert_eq!(hot_writes, 0, "the storm never mutates the hot dir");
    }

    #[test]
    fn private_ops_stay_in_own_dir() {
        let mut w = FlashCrowd::new(4, 2_000, 0.5, 0.3, 11);
        let mut ns = Namespace::default();
        w.setup(&mut ns);
        let hot = w.hot.unwrap();
        let private = w.private.clone();
        for (c, &own) in private.iter().enumerate() {
            while let Some(op) = w.next(c, &ns, SimTime::ZERO) {
                assert!(
                    op.dir == hot || op.dir == own,
                    "client {c} touched a foreign dir"
                );
            }
        }
    }

    #[test]
    fn deterministic_across_forks() {
        let mut a = FlashCrowd::new(3, 500, 0.9, 0.2, 42);
        let mut ns = Namespace::default();
        a.setup(&mut ns);
        let mut b = a.clone();
        for c in 0..3 {
            loop {
                let x = a.next(c, &ns, SimTime::ZERO);
                let y = b.next(c, &ns, SimTime::ZERO);
                assert_eq!(x.is_some(), y.is_some());
                match (x, y) {
                    (Some(x), Some(y)) => {
                        assert_eq!(x.dir, y.dir);
                        assert_eq!(x.kind, y.kind);
                    }
                    _ => break,
                }
            }
        }
    }
}
