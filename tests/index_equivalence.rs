//! Differential end-to-end tests for the incremental index layer.
//!
//! The Euler-interval membership checks, the per-MDS ownership indexes,
//! and the delta-maintained aggregates must be *behaviorally invisible*:
//! for a fixed seed the whole simulated cluster produces a byte-identical
//! [`RunReport`] whether the namespace runs its incremental machinery or
//! the retained walk-based oracle paths — under a healthy run and with
//! every fault kind firing at once.

use mantle::namespace::IndexMode;
use mantle::prelude::*;

fn quick_cfg(num_mds: usize, mode: IndexMode) -> ClusterConfig {
    ClusterConfig {
        num_mds,
        frag_split_threshold: 500,
        heartbeat_interval: SimTime::from_millis(400),
        index_mode: mode,
        ..Default::default()
    }
}

/// A plan exercising every fault kind at once (crash-driven failover
/// re-binds whole swaths of the namespace through `set_auth`, the path
/// most likely to betray an index bug).
fn kitchen_sink_plan() -> FaultPlan {
    FaultPlan {
        request_timeout: SimTime::from_millis(150),
        retry_backoff: SimTime::from_millis(25),
        ..FaultPlan::default()
    }
    .slowdown(
        SimTime::from_millis(500),
        1,
        3.0,
        SimTime::from_millis(1_000),
    )
    .drop_heartbeats(SimTime::from_millis(400), 1, SimTime::from_millis(800))
    .delay_heartbeats(SimTime::from_millis(800), 2, SimTime::from_millis(800))
    .crash(SimTime::from_millis(900), 2)
    .restart(SimTime::from_millis(1_800), 2)
    .poison_balancer(SimTime::from_millis(1_200), 1)
}

fn spec(mode: IndexMode, workload: WorkloadSpec, faults: Option<FaultPlan>) -> Experiment {
    let mut spec = Experiment::new(
        quick_cfg(3, mode),
        workload,
        BalancerSpec::mantle("greedy", policies::greedy_spill().unwrap()),
    );
    if let Some(plan) = faults {
        spec.config.faults = plan;
    }
    spec
}

fn assert_modes_agree(workload: WorkloadSpec, faults: Option<FaultPlan>, label: &str) {
    let inc = run_experiment(&spec(
        IndexMode::Incremental,
        workload.clone(),
        faults.clone(),
    ));
    let ora = run_experiment(&spec(IndexMode::WalkOracle, workload, faults));
    assert_eq!(
        format!("{inc:?}"),
        format!("{ora:?}"),
        "{label}: index modes must yield byte-identical reports"
    );
    assert!(
        inc.total_migrations() >= 1,
        "{label}: vacuous without migrations"
    );
}

#[test]
fn healthy_shared_dir_run_is_identical_across_index_modes() {
    // Greedy spill over a shared create-heavy directory: dirfrag exports,
    // frag-authority overrides, freeze/cold windows.
    assert_modes_agree(
        WorkloadSpec::CreateShared {
            clients: 4,
            files: 2_000,
        },
        None,
        "healthy create-shared",
    );
}

#[test]
fn healthy_separate_dir_run_is_identical_across_index_modes() {
    // Per-client directories: whole-subtree exports dominate, exercising
    // the single-walk migration and the delta aggregate transfer.
    assert_modes_agree(
        WorkloadSpec::CreateSeparate {
            clients: 4,
            files: 2_000,
        },
        None,
        "healthy create-separate",
    );
}

#[test]
fn all_faults_run_is_identical_across_index_modes() {
    assert_modes_agree(
        WorkloadSpec::CreateSeparate {
            clients: 4,
            files: 2_000,
        },
        Some(kitchen_sink_plan()),
        "kitchen-sink faults",
    );
}

#[test]
fn only_the_walk_oracle_rebuilds_aggregates_under_migration_ticks() {
    // Migration-heavy balancer ticks straight against the namespace:
    // export a small subtree, then take the load snapshot the next
    // heartbeat needs. The incremental index must never fall back to a
    // full aggregate rebuild; the walk oracle rebuilds on every snapshot.
    const NUM_MDS: usize = 3;
    let now = SimTime::from_secs(1);
    let build = |mode: IndexMode| -> (Namespace, Vec<NodeId>) {
        let mut ns = Namespace::new(NsConfig {
            index_mode: mode,
            ..Default::default()
        });
        let proj = ns.mkdir(ns.root(), "proj0");
        let leaves = (0..8)
            .map(|d| {
                let dir = ns.mkdir(proj, format!("d{d}"));
                ns.record_op(dir, OpKind::Create, SimTime::ZERO);
                dir
            })
            .collect();
        (ns, leaves)
    };
    let (mut inc, inc_leaves) = build(IndexMode::Incremental);
    let (mut ora, ora_leaves) = build(IndexMode::WalkOracle);
    for i in 0..16 {
        for (ns, leaves) in [(&mut inc, &inc_leaves), (&mut ora, &ora_leaves)] {
            ns.migrate_subtree(leaves[i % leaves.len()], i % NUM_MDS);
            ns.mds_load_samples(NUM_MDS, now);
        }
    }
    assert_eq!(
        inc.rebuilds(),
        0,
        "incremental index fell back to a full aggregate rebuild"
    );
    assert!(
        ora.rebuilds() > 0,
        "walk-oracle mode never exercised the rebuild path"
    );
}
