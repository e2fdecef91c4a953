//! Cluster configuration: topology, service-cost model, and balancer
//! cadence. Defaults are calibrated so the paper's shapes come out (a
//! single MDS saturates at ≈4 create clients, Fig. 5; distribution
//! overheads make spilling to 2 MDSs a win and to 4 a loss, Fig. 8).

use mantle_namespace::{IndexMode, OpKind};
use mantle_sim::SimTime;

use crate::faults::FaultPlan;

/// How metadata is placed on MDS nodes when no balancer moves it.
///
/// `Subtree` is CephFS's dynamic subtree partitioning (everything starts
/// on MDS 0 and moves only when a balancer exports it). `HashDirs` is the
/// related-work baseline (§5 "Compute it – Hashing", PVFSv2/SkyFS-style):
/// every directory is pinned to `hash(dir) % num_mds` the moment its
/// first request is served — perfectly balanced, zero locality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// Dynamic subtree partitioning (the paper's system).
    #[default]
    Subtree,
    /// Hash every directory across the cluster.
    HashDirs,
}

/// Full configuration of one simulated cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of MDS nodes.
    pub num_mds: usize,
    /// Initial metadata placement.
    pub placement: PlacementPolicy,
    /// Master RNG seed; every component derives its own stream from it.
    pub seed: u64,
    /// Heartbeat / balancer cadence (10 s in CephFS).
    pub heartbeat_interval: SimTime,
    /// Service cost model.
    pub costs: CostModel,
    /// Directory fragmentation threshold (entries per dirfrag before it
    /// splits; §4.1 uses 50 000 — experiments scale this with file counts).
    pub frag_split_threshold: u64,
    /// Half life of the popularity counters.
    pub decay_half_life: SimTime,
    /// Std-dev of the multiplicative noise on instantaneous CPU
    /// measurements (§2.2.2's "influenced by the measurement tool").
    pub cpu_noise: f64,
    /// Multiplicative sampling noise on the heartbeat's metadata-load
    /// metrics. The paper's balancer reads counters at an instant and
    /// ships them in heartbeats; this noise (together with stale views) is
    /// why "the balancing behavior is not reproducible" (Fig. 4).
    pub metaload_noise: f64,
    /// Hard stop for a run (safety net; most runs end when the workload
    /// drains).
    pub max_duration: SimTime,
    /// Deterministic fault schedule plus degradation knobs (client
    /// timeouts, retry backoff, balancer fallback). The default plan is
    /// inert.
    pub faults: FaultPlan,
    /// Ignored: a one-valued harness pin (see the bottom of this file).
    pub index_mode: IndexMode,
    /// The proxy-tier read cache in front of the cluster
    /// ([`crate::cache`]). **Inert by default** — with
    /// `cache.enabled == false` no cache state is allocated, no extra
    /// events are scheduled, and every fixed-seed run is byte-identical
    /// to a build without the cache layer.
    pub cache: CacheConfig,
    /// Elastic cluster membership driven by the `howmany` policy hook.
    /// **Inert by default** — with `elastic.enabled == false` every MDS
    /// in `0..num_mds` is a member for the whole run, no membership
    /// events fire, and every pre-existing fixed-seed run is
    /// byte-identical to a build without the elastic layer.
    pub elastic: ElasticConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            num_mds: 1,
            placement: PlacementPolicy::default(),
            seed: 42,
            heartbeat_interval: SimTime::from_secs(10),
            costs: CostModel::default(),
            frag_split_threshold: 2_000,
            decay_half_life: SimTime::from_secs(10),
            cpu_noise: 0.05,
            metaload_noise: 0.15,
            max_duration: SimTime::from_mins(60),
            faults: FaultPlan::default(),
            index_mode: IndexMode::default(),
            cache: CacheConfig::default(),
            elastic: ElasticConfig::default(),
        }
    }
}

impl ClusterConfig {
    /// Convenience: set the MDS count.
    pub fn with_mds(mut self, n: usize) -> Self {
        self.num_mds = n;
        self
    }

    /// Convenience: set the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Convenience: install a cache-tier configuration.
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    /// Convenience: install an elastic-membership configuration.
    pub fn with_elastic(mut self, elastic: ElasticConfig) -> Self {
        self.elastic = elastic;
        self
    }
}

/// Configuration of the proxy-tier read cache ([`crate::cache`]): on or
/// off. The tier's sizing — 4 proxy groups of 4096 entries each, a 60 µs
/// hit — is fixed in that module.
///
/// The default is **inert** (`enabled == false`): the cache layer is
/// compiled in but allocates no state and changes no behavior, so every
/// pre-existing fixed-seed run stays byte-identical.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CacheConfig {
    /// Master switch. Off by default.
    pub enabled: bool,
}

impl CacheConfig {
    /// An enabled cache tier.
    pub fn on() -> Self {
        CacheConfig { enabled: true }
    }
}

/// Configuration of elastic cluster membership ([`crate::cluster`]): on
/// or off.
///
/// `num_mds` stays the fixed *pool* size — every per-MDS array and cache
/// group keeps its shape — while membership becomes a
/// versioned subset of the pool. An elastic run starts with MDS 0 as its
/// one member. The `howmany` policy hook picks a target member count in
/// `[1, num_mds]` each heartbeat; the coordinator then performs at most
/// one join (re-home subtrees onto the lowest-id spare via the migration
/// machinery) or one leave (drain the highest-id member, then deregister)
/// per tick.
///
/// The default is **inert** (`enabled == false`): all `num_mds` MDSs are
/// members from the start and membership never changes, so every
/// pre-existing fixed-seed run stays byte-identical.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ElasticConfig {
    /// Master switch. Off by default.
    pub enabled: bool,
}

impl ElasticConfig {
    /// An enabled elastic tier: start at one member, scale anywhere in
    /// `[1, num_mds]`, consistent-hash re-homing.
    pub fn on() -> Self {
        ElasticConfig { enabled: true }
    }

    /// The initial member count for a pool of `num_mds`: one when
    /// elastic, the whole pool otherwise.
    pub fn initial(&self, num_mds: usize) -> usize {
        if self.enabled {
            1
        } else {
            num_mds
        }
    }
}

/// Service-time and overhead model, all in **microseconds** (the
/// simulation clock is milliseconds; sub-ms costs accumulate in the
/// per-MDS busy accounting and are rounded at scheduling boundaries).
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Service time of a create, µs.
    pub create_us: f64,
    /// Service time of a stat/lookup/open, µs.
    pub stat_us: f64,
    /// Service time of a setattr/unlink, µs.
    pub setattr_us: f64,
    /// Base service time of a readdir, µs.
    pub readdir_us: f64,
    /// Service time of a mkdir, µs.
    pub mkdir_us: f64,
    /// Client think time + round trip per op, µs (closed loop: a client's
    /// unloaded rate is `1e6 / (rtt_us + service)` ops/s).
    pub rtt_us: f64,
    /// Wasted service on the *wrong* MDS when it forwards a request, µs.
    pub forward_us: f64,
    /// Extra one-way latency of a forward hop, µs.
    pub forward_hop_us: f64,
    /// Per-op coherency surcharge coefficient. An op on a directory whose
    /// fragments span `k` MDSs costs `service × (1 + c·(k-1)²)` —
    /// scatter-gather with the authority and session maintenance grow
    /// superlinearly with the span (§4.1 footnote 3; the 323→936 session
    /// growth). The quadratic form is what makes spilling to 2 MDSs a win
    /// while spilling to 4 loses 20–40 % (Fig. 8).
    pub coherency_per_span: f64,
    /// Two-phase-commit fixed cost of a migration: the subtree is frozen
    /// for this long, µs.
    pub migrate_fixed_us: f64,
    /// Additional freeze per inode migrated, µs.
    pub migrate_per_inode_us: f64,
    /// Each client session flushed during a migration stalls that client
    /// this long, µs (halt updates → send stats → wait for authority).
    pub session_flush_us: f64,
    /// Cost charged to the auth MDS when a directory fragments, µs.
    pub split_us: f64,
    /// Surcharge on ops served while the target directory's ancestor
    /// prefix is not yet replicated locally (right after an import): the
    /// path traversal resolves through the remote authority — the locality
    /// cost of §2.1 and the "forwards" of Fig. 3b.
    pub remote_prefix_penalty: f64,
    /// How long after an import the ancestor-prefix replicas take to warm
    /// up, µs. Frequent migrations keep paying this; a clean one-time
    /// handoff pays it once.
    pub prefix_warmup_us: f64,
    /// Convex load penalty: each queued request inflates service time by
    /// this fraction (lock contention and cache pressure on an overloaded
    /// MDS — why Fig. 5's latency grows superlinearly past saturation).
    pub contention_per_queued: f64,
    /// Queue depth beyond which the contention penalty stops growing.
    pub contention_cap: f64,
    /// Std-dev of multiplicative service-time noise (seeded).
    pub service_noise: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            create_us: 200.0,
            stat_us: 90.0,
            setattr_us: 140.0,
            readdir_us: 250.0,
            mkdir_us: 260.0,
            rtt_us: 500.0,
            forward_us: 60.0,
            forward_hop_us: 350.0,
            coherency_per_span: 0.10,
            migrate_fixed_us: 50_000.0,
            migrate_per_inode_us: 4.0,
            session_flush_us: 15_000.0,
            split_us: 3_000.0,
            remote_prefix_penalty: 0.30,
            prefix_warmup_us: 2_000_000.0,
            contention_per_queued: 0.05,
            contention_cap: 6.0,
            service_noise: 0.12,
        }
    }
}

impl CostModel {
    /// Base service time for an op, µs.
    pub fn service_us(&self, op: OpKind) -> f64 {
        match op {
            OpKind::Create => self.create_us,
            OpKind::Stat | OpKind::OpenRead => self.stat_us,
            OpKind::SetAttr | OpKind::Unlink => self.setattr_us,
            OpKind::Readdir => self.readdir_us,
            OpKind::Mkdir => self.mkdir_us,
        }
    }

    /// Service time including the coherency surcharge for a directory
    /// spanning `span` MDS nodes, µs (quadratic in the extra span — see
    /// [`CostModel::coherency_per_span`]).
    pub fn service_with_span(&self, op: OpKind, span: usize) -> f64 {
        let extra_span = span.saturating_sub(1) as f64;
        self.service_us(op) * (1.0 + self.coherency_per_span * extra_span * extra_span)
    }

    /// Contention multiplier for an MDS currently holding `queued`
    /// requests.
    pub fn contention_factor(&self, queued: u64) -> f64 {
        1.0 + self.contention_per_queued * (queued as f64).min(self.contention_cap)
    }

    /// Freeze duration of a migration moving `inodes` inodes, µs.
    pub fn migrate_freeze_us(&self, inodes: u64) -> f64 {
        self.migrate_fixed_us + self.migrate_per_inode_us * inodes as f64
    }
}

// -- Harness pins ---------------------------------------------------------
//
// The pinned benchmark harness (`benchmark/src/{batch,layers}.rs`) compiles
// against `ExecMode`, `with_exec_mode` and the one-valued `index_mode` field
// (`mantle_namespace::IndexMode`); all three are ignored. They leave with
// the harness un-pin (ROADMAP item 1), as do `ExecStats::{threads, shards}`
// and `ShardStats::{msgs_sent, barrier_wait_ns}` in `shard.rs`, and
// `mantle_sim::SchedulerKind`, re-exported from `lib.rs`.

/// Ignored: every run has one data plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Ignored.
    #[default]
    Single,
    /// Ignored.
    Sharded {
        /// Ignored.
        threads: usize,
    },
}

impl ClusterConfig {
    /// Ignored: returns `self` unchanged.
    pub fn with_exec_mode(self, _: ExecMode) -> Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ClusterConfig::default();
        assert_eq!(c.num_mds, 1);
        assert!(c.costs.create_us > c.costs.stat_us);
        assert!(c.costs.readdir_us > c.costs.create_us);
    }

    #[test]
    fn single_mds_saturates_around_four_clients() {
        // Fig. 5 calibration: client unloaded rate vs MDS capacity.
        let c = CostModel::default();
        let client_rate = 1e6 / (c.rtt_us + c.create_us);
        let capacity = 1e6 / c.create_us;
        let saturation_clients = capacity / client_rate;
        assert!(
            (3.0..5.5).contains(&saturation_clients),
            "saturation at {saturation_clients:.1} clients"
        );
    }

    #[test]
    fn span_surcharge_grows() {
        let c = CostModel::default();
        let s1 = c.service_with_span(OpKind::Create, 1);
        let s2 = c.service_with_span(OpKind::Create, 2);
        let s4 = c.service_with_span(OpKind::Create, 4);
        assert_eq!(s1, c.create_us);
        assert!(s2 > s1 && s4 > s2);
        // Quadratic in the extra span.
        assert!((s4 - s1 * (1.0 + 9.0 * c.coherency_per_span)).abs() < 1e-9);
        // Superlinear: the marginal cost of the 4th span exceeds the 2nd's.
        assert!(s4 - c.service_with_span(OpKind::Create, 3) > s2 - s1);
    }

    #[test]
    fn migration_freeze_scales_with_size() {
        let c = CostModel::default();
        assert!(c.migrate_freeze_us(10_000) > c.migrate_freeze_us(100));
        assert_eq!(c.migrate_freeze_us(0), c.migrate_fixed_us);
    }

    #[test]
    fn contention_factor_caps() {
        let c = CostModel::default();
        assert_eq!(c.contention_factor(0), 1.0);
        assert!(c.contention_factor(3) > c.contention_factor(1));
        // Capped: queue depths beyond the cap cost the same.
        assert_eq!(
            c.contention_factor(100),
            c.contention_factor(c.contention_cap as u64)
        );
    }

    #[test]
    fn placement_defaults_to_subtree() {
        assert_eq!(ClusterConfig::default().placement, PlacementPolicy::Subtree);
    }

    #[test]
    fn elastic_default_is_inert() {
        let e = ElasticConfig::default();
        assert!(!e.enabled);
        // Inert: the whole pool is the member set.
        assert_eq!(e.initial(4), 4);
        // Elastic: one member to start.
        assert_eq!(ElasticConfig::on().initial(4), 1);
    }

    #[test]
    fn builder_helpers() {
        let c = ClusterConfig::default().with_mds(5).with_seed(7);
        assert_eq!(c.num_mds, 5);
        assert_eq!(c.seed, 7);
    }
}
