//! End-to-end checks of the namespace's incremental indexes.
//!
//! The resolution caches and the per-MDS ownership indexes are
//! maintained by deltas while a cluster runs: exports, dirfrag
//! spills, splits, and crash failover re-binding whole swaths through
//! `set_auth`. Each scenario here is one run with a probe every 200 ms of
//! simulated time that recomputes all of it from the live tree by walking
//! (`support::assert_indexes_match_walk`) and compares. The probes only
//! read: `mds_load_samples` writes decay state, so the aggregates are
//! checked on free-standing namespaces in `tests/properties.rs`.

use std::sync::{Arc, Mutex};

use mantle::core::build_cluster;
use mantle::prelude::*;

mod support;

const NUM_MDS: usize = 3;
const PROBE_EVERY: SimTime = SimTime::from_millis(200);
const PROBE_HORIZON: SimTime = SimTime::from_secs(60);
const CRASH_AT: SimTime = SimTime::from_millis(900);

/// A plan exercising every fault kind at once. The crash hits MDS 1,
/// which greedy spill has loaded by then: failover re-binds its subtrees
/// through `set_auth`, the path most likely to betray an index bug.
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
    .crash(CRASH_AT, 1)
    .restart(SimTime::from_millis(1_800), 1)
    .poison_balancer(SimTime::from_millis(1_200), 0)
}

/// Run `workload` under greedy spill with the walk-checker probing the
/// live namespace; returns the report and the instants the probes ran at.
fn run_probed(workload: WorkloadSpec, faults: FaultPlan, label: &str) -> (RunReport, Vec<SimTime>) {
    let config = ClusterConfig {
        num_mds: NUM_MDS,
        frag_split_threshold: 500,
        heartbeat_interval: SimTime::from_millis(400),
        faults,
        ..Default::default()
    };
    let balancer = BalancerSpec::mantle("greedy", policies::greedy_spill().unwrap());
    let mut cluster = build_cluster(&Experiment::new(config, workload, balancer));
    let probed = Arc::new(Mutex::new(Vec::new()));
    let mut at = PROBE_EVERY;
    while at <= PROBE_HORIZON {
        let probed = Arc::clone(&probed);
        cluster.schedule_admin(at, move |ns| {
            support::assert_indexes_match_walk(ns, NUM_MDS);
            // Admin steps run between events, and an op that takes a
            // fragment over the threshold splits it in the same step.
            support::assert_no_frag_over_threshold(ns);
            probed.lock().unwrap().push(at);
        });
        at += PROBE_EVERY;
    }
    let report = cluster.run();
    let probed = std::mem::take(&mut *probed.lock().unwrap());
    assert!(
        report.total_migrations() >= 1,
        "{label}: vacuous without migrations"
    );
    assert!(
        report.makespan <= PROBE_HORIZON && probed.len() >= 3,
        "{label}: probes {probed:?} do not cover a run of {:?}",
        report.makespan
    );
    (report, probed)
}

#[test]
fn healthy_shared_dir_run_keeps_every_index_equal_to_a_walk() {
    // Greedy spill over a shared create-heavy directory: dirfrag exports,
    // frag-authority overrides, freeze/cold windows.
    run_probed(
        WorkloadSpec::CreateShared {
            clients: 4,
            files: 2_000,
        },
        FaultPlan::default(),
        "healthy create-shared",
    );
}

#[test]
fn healthy_separate_dir_run_keeps_every_index_equal_to_a_walk() {
    // Per-client directories: whole-subtree exports dominate, exercising
    // the single-walk migration.
    run_probed(
        WorkloadSpec::CreateSeparate {
            clients: 4,
            files: 2_000,
        },
        FaultPlan::default(),
        "healthy create-separate",
    );
}

#[test]
fn all_faults_run_keeps_every_index_equal_to_a_walk() {
    let (report, probed) = run_probed(
        WorkloadSpec::CreateSeparate {
            clients: 4,
            files: 2_000,
        },
        kitchen_sink_plan(),
        "kitchen-sink faults",
    );
    assert!(report.failovers >= 1, "the crash re-bound nothing");
    assert!(report.balancer_fallbacks >= 1, "the poison never took");
    assert!(
        probed.iter().any(|&at| at > CRASH_AT),
        "no probe ran after the crash at {CRASH_AT:?}: {probed:?}"
    );
}
