//! Differential end-to-end tests for the partition count.
//!
//! How the cluster is cut into logical shards must be *behaviorally
//! invisible*: for a fixed seed the cluster produces a byte-identical
//! [`RunReport`] whether events drain from one shard
//! ([`ExecMode::Single`], the oracle) or from 2/3/4/5/8 shards with
//! cross-shard delivery at window barriers — for every built-in
//! balancer, and under every degraded-cluster fault scenario. That is the
//! witness that tie-breaking depends on the simulated entity and never
//! on the partition. Traced runs must also merge their per-shard buffers
//! back into the exact one-shard event order.

use mantle::core::degraded;
use mantle::core::experiment::run_experiment_with_stats;
use mantle::core::repro::ReproOpts;
use mantle::mds::ExecMode;
use mantle::prelude::*;

/// Partition counts exercised against the one-shard oracle. 3 and 5 cut
/// the 3 MDSs / 4 clients at uneven slice boundaries; 5 and 8 leave some
/// shards without an MDS or a client — degenerate partitions must still
/// agree.
const SHARD_COUNTS: [usize; 5] = [2, 3, 4, 5, 8];

fn quick_cfg(num_mds: usize, mode: ExecMode) -> ClusterConfig {
    ClusterConfig {
        num_mds,
        frag_split_threshold: 500,
        heartbeat_interval: SimTime::from_millis(400),
        ..Default::default()
    }
    .with_exec_mode(mode)
}

fn spec_on(mode: ExecMode, balancer: &BalancerSpec, faults: Option<&FaultPlan>) -> Experiment {
    let mut spec = Experiment::new(
        quick_cfg(3, mode),
        WorkloadSpec::CreateShared {
            clients: 4,
            files: 2_000,
        },
        balancer.clone(),
    );
    if let Some(plan) = faults {
        spec.config.faults = plan.clone();
    }
    spec
}

fn assert_modes_agree(balancer: &BalancerSpec, faults: Option<&FaultPlan>, label: &str) {
    let oracle = run_experiment(&spec_on(ExecMode::Single, balancer, faults));
    let oracle_repr = format!("{oracle:?}");
    for threads in SHARD_COUNTS {
        let sharded = run_experiment(&spec_on(ExecMode::Sharded { threads }, balancer, faults));
        assert_eq!(
            oracle_repr,
            format!("{sharded:?}"),
            "{label}: {threads}-shard run must yield a byte-identical report"
        );
    }
}

/// Every built-in balancer spec (the paper's Table 1 / Listings 1–4 set,
/// plus the hard-coded CephFS balancer and the no-op baseline).
fn builtin_balancers() -> Vec<(&'static str, BalancerSpec)> {
    vec![
        ("none", BalancerSpec::None),
        ("cephfs-default", BalancerSpec::Cephfs),
        (
            "greedy-spill",
            BalancerSpec::mantle("greedy-spill", policies::greedy_spill().unwrap()),
        ),
        (
            "greedy-spill-even",
            BalancerSpec::mantle("greedy-spill-even", policies::greedy_spill_even().unwrap()),
        ),
        (
            "fill-and-spill",
            BalancerSpec::mantle("fill-and-spill", policies::fill_and_spill(0.5).unwrap()),
        ),
        (
            "adaptable",
            BalancerSpec::mantle("adaptable", policies::adaptable().unwrap()),
        ),
        (
            "adaptable-conservative",
            BalancerSpec::mantle(
                "adaptable-conservative",
                policies::adaptable_conservative().unwrap(),
            ),
        ),
        (
            "adaptable-too-aggressive",
            BalancerSpec::mantle(
                "adaptable-too-aggressive",
                policies::adaptable_too_aggressive().unwrap(),
            ),
        ),
        (
            "cephfs-original",
            BalancerSpec::mantle("cephfs-original", policies::cephfs_original().unwrap()),
        ),
    ]
}

#[test]
fn all_builtin_balancers_are_identical_across_shard_counts() {
    for (name, balancer) in builtin_balancers() {
        assert_modes_agree(&balancer, None, name);
    }
}

#[test]
fn all_fault_scenarios_are_identical_across_shard_counts() {
    // The degraded-cluster scenario family (healthy, crash+restart,
    // slow-mds, stale-heartbeats, poisoned-balancer) at the quick cadence,
    // which matches this file's 400 ms heartbeat. Faults land via the
    // coordinator's exclusive steps, so crash/restart timing must not
    // shift relative to shard-local event processing.
    let balancer =
        BalancerSpec::mantle("greedy-spill-even", policies::greedy_spill_even().unwrap());
    for (name, plan) in degraded::scenario_plans(ReproOpts::QUICK) {
        assert_modes_agree(&balancer, Some(&plan), name);
    }
}

#[test]
fn balancer_fault_cross_product_is_identical_at_two_shards() {
    // The full built-in-balancer × fault-scenario grid. The two tests
    // above sweep shard counts along each axis separately; this one
    // covers every pairing at one even and one uneven split, so a
    // divergence that needs a particular balancer *and* a particular
    // fault to manifest still has a differential witness.
    for (bname, balancer) in builtin_balancers() {
        for (fname, plan) in degraded::scenario_plans(ReproOpts::QUICK) {
            let oracle = run_experiment(&spec_on(ExecMode::Single, &balancer, Some(&plan)));
            for threads in [2, 3] {
                let sharded = run_experiment(&spec_on(
                    ExecMode::Sharded { threads },
                    &balancer,
                    Some(&plan),
                ));
                assert_eq!(
                    format!("{oracle:?}"),
                    format!("{sharded:?}"),
                    "{bname} × {fname}: {threads}-shard run must yield a byte-identical report"
                );
            }
        }
    }
}

#[test]
fn traced_runs_merge_into_the_single_threaded_order() {
    // Per-shard trace buffers are merged at run end by (time, key,
    // emission index); the merged stream must match the one-shard
    // golden ordering byte-for-byte and still satisfy every trace
    // invariant (balanced freeze/thaw, authority consistency, ...).
    let balancer = BalancerSpec::mantle("greedy-spill", policies::greedy_spill().unwrap());
    let (oracle_report, oracle_trace) = run_experiment_traced(
        &spec_on(ExecMode::Single, &balancer, None),
        TraceLevel::Full,
    );
    let oracle_jsonl = oracle_trace.to_jsonl();
    assert_invariants(oracle_trace.records());
    for threads in SHARD_COUNTS {
        let (report, trace) = run_experiment_traced(
            &spec_on(ExecMode::Sharded { threads }, &balancer, None),
            TraceLevel::Full,
        );
        assert_eq!(
            format!("{oracle_report:?}"),
            format!("{report:?}"),
            "{threads}-shard traced report drifted"
        );
        assert_eq!(
            oracle_jsonl,
            trace.to_jsonl(),
            "{threads}-shard merged trace must match the one-shard order"
        );
        assert_invariants(trace.records());
    }
}

#[test]
fn sharded_runs_are_not_vacuous() {
    // The differential tests above prove nothing if a sharded run
    // never actually crosses a shard boundary or migrates. Pin the
    // interesting denominators: real shards, real cross-shard traffic,
    // real migrations, no lost operations.
    let balancer = BalancerSpec::mantle("greedy-spill", policies::greedy_spill().unwrap());
    let (report, stats) =
        run_experiment_with_stats(&spec_on(ExecMode::Sharded { threads: 4 }, &balancer, None));
    assert_eq!(stats.threads, 4);
    assert_eq!(stats.shards.len(), 4);
    assert!(stats.windows > 0, "windowed loop must have run");
    let msgs: u64 = stats.shards.iter().map(|s| s.msgs_sent).sum();
    assert!(
        msgs > 0,
        "no cross-shard messages — partition is degenerate"
    );
    assert!(report.total_migrations() >= 1);
    assert_eq!(report.total_ops(), 8_000.0, "no ops lost");
}
