//! Cluster configuration: topology, migration costs, and balancer
//! cadence, plus the frozen service-cost calibration. The calibration is
//! fit so the paper's shapes come out (a single MDS saturates at ≈4
//! create clients, Fig. 5; distribution overheads make spilling to 2 MDSs
//! a win and to 4 a loss, Fig. 8) and is constants, not configuration.

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
    /// Migration and locality costs.
    pub costs: CostModel,
    /// Directory fragmentation threshold (entries per dirfrag before it
    /// splits; §4.1 uses 50 000 — experiments scale this with file counts).
    pub frag_split_threshold: u64,
    /// Half life of the popularity counters.
    pub decay_half_life: SimTime,
    /// Hard stop for a run (safety net; most runs end when the workload
    /// drains).
    pub max_duration: SimTime,
    /// Deterministic fault schedule plus the clients' reaction knobs
    /// (request timeout, retry backoff). The default plan is inert.
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

// -- The frozen calibration ----------------------------------------------
//
// The service-cost model, fit once so the paper's shapes come out and then
// left alone (DESIGN.md §8). All times are in **microseconds**, as is the
// simulation clock (`SimTime` counts whole µs): fractional costs accumulate
// in the per-MDS busy accounting and are rounded at scheduling boundaries.

/// Service time of a create, µs.
pub(crate) const CREATE_US: f64 = 200.0;
/// Service time of a stat/lookup/open, µs.
pub(crate) const STAT_US: f64 = 90.0;
/// Service time of a setattr/unlink, µs.
pub(crate) const SETATTR_US: f64 = 140.0;
/// Base service time of a readdir, µs.
pub(crate) const READDIR_US: f64 = 250.0;
/// Service time of a mkdir, µs.
pub(crate) const MKDIR_US: f64 = 260.0;
/// Client think time + round trip per op, µs (closed loop: a client's
/// unloaded rate is `1e6 / (RTT_US + service)` ops/s).
pub(crate) const RTT_US: f64 = 500.0;
/// One way of [`RTT_US`]: request out, or reply back.
pub(crate) const HALF_RTT: SimTime = SimTime::from_micros(RTT_US as u64 / 2);
/// Wasted service on the *wrong* MDS when it forwards a request, µs.
pub(crate) const FORWARD_US: f64 = 60.0;
/// Extra one-way latency of a forward hop.
pub(crate) const FORWARD_HOP: SimTime = SimTime::from_micros(350);
/// Per-op coherency surcharge coefficient. An op on a directory whose
/// fragments span `k` MDSs costs `service × (1 + c·(k-1)²)` —
/// scatter-gather with the authority and session maintenance grow
/// superlinearly with the span (§4.1 footnote 3; the 323→936 session
/// growth). The quadratic form is what makes spilling to 2 MDSs a win
/// while spilling to 4 loses 20–40 % (Fig. 8).
pub(crate) const COHERENCY_PER_SPAN: f64 = 0.10;
/// Cost charged to the auth MDS when a directory fragments, µs.
pub(crate) const SPLIT_US: f64 = 3_000.0;
/// Surcharge on ops served while the target directory's ancestor prefix
/// is not yet replicated locally (right after an import): the path
/// traversal resolves through the remote authority — the locality cost of
/// §2.1 and the "forwards" of Fig. 3b.
pub(crate) const REMOTE_PREFIX_PENALTY: f64 = 0.30;
/// Convex load penalty: each queued request inflates service time by this
/// fraction (lock contention and cache pressure on an overloaded MDS — why
/// Fig. 5's latency grows superlinearly past saturation).
const CONTENTION_PER_QUEUED: f64 = 0.05;
/// Queue depth beyond which the contention penalty stops growing.
const CONTENTION_CAP: f64 = 6.0;
/// Multiplicative service-time noise, a seeded uniform factor in
/// `1 ± SERVICE_NOISE`.
pub(crate) const SERVICE_NOISE: f64 = 0.12;

/// Base service time for an op, µs.
fn service_us(op: OpKind) -> f64 {
    match op {
        OpKind::Create => CREATE_US,
        OpKind::Stat | OpKind::OpenRead => STAT_US,
        OpKind::SetAttr | OpKind::Unlink => SETATTR_US,
        OpKind::Readdir => READDIR_US,
        OpKind::Mkdir => MKDIR_US,
    }
}

/// Service time including the coherency surcharge for a directory
/// spanning `span` MDS nodes, µs (quadratic in the extra span — see
/// [`COHERENCY_PER_SPAN`]).
pub(crate) fn service_with_span(op: OpKind, span: usize) -> f64 {
    let extra_span = span.saturating_sub(1) as f64;
    service_us(op) * (1.0 + COHERENCY_PER_SPAN * extra_span * extra_span)
}

/// Contention multiplier for an MDS currently holding `queued` requests.
pub(crate) fn contention_factor(queued: u64) -> f64 {
    1.0 + CONTENTION_PER_QUEUED * (queued as f64).min(CONTENTION_CAP)
}

/// The migration and locality costs, in **microseconds**: the levers the
/// experiments and ablations move. The rest of the service-cost model is
/// the frozen calibration above.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Two-phase-commit fixed cost of a migration: the subtree is frozen
    /// for this long, µs.
    pub migrate_fixed_us: f64,
    /// Additional freeze per inode migrated, µs.
    pub migrate_per_inode_us: f64,
    /// Each client session flushed during a migration stalls that client
    /// this long, µs (halt updates → send stats → wait for authority).
    pub session_flush_us: f64,
    /// How long after an import the ancestor-prefix replicas take to warm
    /// up, µs. Frequent migrations keep paying the remote-prefix
    /// surcharge; a clean one-time handoff pays it once.
    pub prefix_warmup_us: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            migrate_fixed_us: 50_000.0,
            migrate_per_inode_us: 4.0,
            session_flush_us: 15_000.0,
            prefix_warmup_us: 2_000_000.0,
        }
    }
}

impl CostModel {
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
// and `ShardStats::{msgs_sent, barrier_wait_ns}` in `world.rs`, and
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
        const { assert!(CREATE_US > STAT_US) };
        const { assert!(READDIR_US > CREATE_US) };
    }

    #[test]
    fn single_mds_saturates_around_four_clients() {
        // Fig. 5 calibration: client unloaded rate vs MDS capacity.
        let client_rate = 1e6 / (RTT_US + CREATE_US);
        let capacity = 1e6 / CREATE_US;
        let saturation_clients = capacity / client_rate;
        assert!(
            (3.0..5.5).contains(&saturation_clients),
            "saturation at {saturation_clients:.1} clients"
        );
    }

    #[test]
    fn span_surcharge_grows() {
        let s1 = service_with_span(OpKind::Create, 1);
        let s2 = service_with_span(OpKind::Create, 2);
        let s4 = service_with_span(OpKind::Create, 4);
        assert_eq!(s1, CREATE_US);
        assert!(s2 > s1 && s4 > s2);
        // Quadratic in the extra span.
        assert!((s4 - s1 * (1.0 + 9.0 * COHERENCY_PER_SPAN)).abs() < 1e-9);
        // Superlinear: the marginal cost of the 4th span exceeds the 2nd's.
        assert!(s4 - service_with_span(OpKind::Create, 3) > s2 - s1);
    }

    #[test]
    fn migration_freeze_scales_with_size() {
        let c = CostModel::default();
        assert!(c.migrate_freeze_us(10_000) > c.migrate_freeze_us(100));
        assert_eq!(c.migrate_freeze_us(0), c.migrate_fixed_us);
    }

    #[test]
    fn contention_factor_caps() {
        assert_eq!(contention_factor(0), 1.0);
        assert!(contention_factor(3) > contention_factor(1));
        // Capped: queue depths beyond the cap cost the same.
        assert_eq!(
            contention_factor(100),
            contention_factor(CONTENTION_CAP as u64)
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
