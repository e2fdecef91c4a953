//! Differential and directed tests for the proxy-cache tier.
//!
//! The cache must be *behaviorally invisible* along two axes:
//!
//! * **off** (`CacheConfig::default()`), it is inert — reports are
//!   byte-identical to a configuration that never mentions the cache,
//!   and every cache counter stays zero;
//! * **on**, the simulation stays deterministic — byte-identical
//!   reports across both hook engines, because every cache mutation
//!   (fill, LRU touch, invalidation) lands as the event that causes it
//!   runs, in `(time, key)` order.
//!
//! And it must be *coherent*: a storm that keeps migrating subtrees
//! while the cache serves hits must never serve a stale entry — the
//! invariant checker's `cache-coherence` rule replays every fill,
//! invalidation, and migration freeze against its own superset cache
//! model and flags any hit the model cannot justify.

use mantle::core::flashcrowd::storm_experiment;
use mantle::mds::HookEngine;
use mantle::prelude::*;

/// A mixed flash crowd: half the ops hammer the hot directory
/// (read-class, cacheable), the rest write into per-group private dirs
/// hard enough that balancers keep migrating even with the cache on —
/// so one run exercises fills, hits, dentry invalidations, *and*
/// migration-driven region invalidations.
fn mixed_storm(cache: CacheConfig, balancer: BalancerSpec) -> Experiment {
    let config = ClusterConfig {
        num_mds: 4,
        heartbeat_interval: SimTime::from_millis(400),
        frag_split_threshold: 300,
        ..Default::default()
    }
    .with_cache(cache);
    Experiment::new(
        config,
        WorkloadSpec::FlashCrowd {
            clients: 16,
            ops_per_client: 1_200,
            hot_fraction: 0.5,
            write_fraction: 0.8,
        },
        balancer,
    )
}

fn migrating_balancer(engine: HookEngine) -> BalancerSpec {
    BalancerSpec::mantle_with_engine(
        "greedy-spill-even",
        policies::greedy_spill_even().expect("preset policy validates"),
        engine,
    )
}

/// `CacheConfig::default()` is inert: a config that never mentions the
/// cache and one that sets the default explicitly produce byte-identical
/// reports with every cache counter at zero.
#[test]
fn default_cache_config_is_inert() {
    let implicit = Experiment::new(
        ClusterConfig {
            num_mds: 4,
            heartbeat_interval: SimTime::from_millis(400),
            ..Default::default()
        },
        WorkloadSpec::FlashCrowd {
            clients: 8,
            ops_per_client: 600,
            hot_fraction: 0.9,
            write_fraction: 0.2,
        },
        BalancerSpec::Cephfs,
    );
    let mut explicit = implicit.clone();
    explicit.config = explicit.config.clone().with_cache(CacheConfig::default());
    let a = run_experiment(&implicit);
    let b = run_experiment(&explicit);
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "explicit default cache config changed the run"
    );
    assert_eq!(a.cache_hits, 0, "disabled cache recorded hits");
    assert_eq!(a.cache_misses, 0, "disabled cache recorded misses");
    for m in &a.mds {
        assert_eq!((m.cache_hits, m.cache_misses), (0, 0));
    }
    // `cache_invalidations` may still be nonzero: migrations always drop
    // the per-client learned route maps, cache tier or not. What must
    // hold is that no *group* cache ever filled — zero hits and misses
    // above — and the byte-equality already proved the tier changed
    // nothing.
}

/// Cache off and cache on, the report is byte-identical across both
/// hook engines — the oracle is the bytecode run.
#[test]
fn reports_byte_identical_across_engines() {
    for (cache_label, cache) in [("off", CacheConfig::default()), ("on", CacheConfig::on())] {
        let oracle = run_experiment(&mixed_storm(
            cache.clone(),
            migrating_balancer(HookEngine::Bytecode),
        ));
        let oracle_repr = format!("{oracle:?}");
        if cache_label == "on" {
            assert!(oracle.cache_hits > 0, "storm produced no cache hits");
        }
        for engine in [HookEngine::Bytecode, HookEngine::Tree] {
            let run = run_experiment(&mixed_storm(cache.clone(), migrating_balancer(engine)));
            assert_eq!(
                oracle_repr,
                format!("{run:?}"),
                "cache {cache_label}: {engine:?} diverged from the oracle"
            );
        }
    }
}

/// The directed stale-read hunt: migrations keep landing mid-storm
/// while the cache serves hits, and the full trace replays through the
/// invariant checker — whose `cache-coherence` rule would flag any hit
/// served from a region a migration already invalidated.
#[test]
fn migrations_mid_storm_serve_no_stale_reads() {
    let spec = mixed_storm(CacheConfig::on(), migrating_balancer(HookEngine::Bytecode));
    let (report, trace) = run_experiment_traced(&spec, TraceLevel::Full);
    // The run must actually exercise the dangerous interleaving…
    assert!(
        report.total_migrations() > 0,
        "no migrations — the storm never tested migration coherence"
    );
    assert!(report.cache_hits > 0, "no hits — the cache never engaged");
    assert!(
        report.cache_invalidations > 0,
        "no invalidations — writes and migrations never touched the cache"
    );
    // …and come out clean: zero violations, including `cache-coherence`.
    assert_invariants(trace.records());
    // Tracing itself must not perturb the cache-on simulation.
    let plain = run_experiment(&spec);
    assert_eq!(
        format!("{plain:?}"),
        format!("{report:?}"),
        "tracing changed the cache-on run"
    );
}

/// Hits bypass the MDS tier but never the clients: with the cache on,
/// MDS-served ops plus absorbed hits account for every client
/// completion, and the completions themselves match the cache-off run.
#[test]
fn hits_are_absorbed_not_lost() {
    let off = run_experiment(&storm_experiment(
        8,
        800,
        BalancerSpec::None,
        CacheConfig::default(),
        11,
    ));
    let on = run_experiment(&storm_experiment(
        8,
        800,
        BalancerSpec::None,
        CacheConfig::on(),
        11,
    ));
    assert_eq!(off.client_ops(), on.client_ops(), "completions diverged");
    assert_eq!(
        on.total_ops() as u64 + on.cache_hits,
        on.client_ops(),
        "served + absorbed must cover every completion"
    );
    assert!(
        on.total_ops() < off.total_ops(),
        "cache-on should off-load the MDS tier"
    );
}
