//! Trace-driven invariant suite: every built-in balancer crossed with
//! every fault scenario, replayed through the checker at full trace depth,
//! plus proof that the checker actually catches corrupted streams and
//! that a disabled sink costs nothing.

use mantle::core::degraded::{base_experiment, scenario_plans};
use mantle::core::repro::ReproOpts;
use mantle::mds::{check_trace, TraceEvent};
use mantle::prelude::*;

/// The built-in balancers from the paper (Listing 1–4 + Table 1), as
/// specs for the degraded base experiment.
fn balancers() -> Vec<(&'static str, BalancerSpec)> {
    vec![
        (
            "greedy-spill",
            BalancerSpec::mantle("greedy-spill", policies::greedy_spill().unwrap()),
        ),
        (
            "fill-and-spill",
            BalancerSpec::mantle("fill-and-spill", policies::fill_and_spill(0.3).unwrap()),
        ),
        (
            "cephfs-adaptable",
            BalancerSpec::mantle("adaptable", policies::adaptable().unwrap()),
        ),
    ]
}

/// Trace the degraded base experiment with `balancer` swapped in and the
/// named fault plan applied.
fn traced_run(balancer: &BalancerSpec, scenario: &str) -> (RunReport, TraceBuffer) {
    let plan = scenario_plans(ReproOpts::QUICK)
        .into_iter()
        .find(|(n, _)| *n == scenario)
        .expect("known scenario")
        .1;
    let mut spec = base_experiment(ReproOpts::QUICK, 42);
    spec.balancer = balancer.clone();
    spec.config.faults = plan;
    run_experiment_traced(&spec, TraceLevel::Full)
}

#[test]
fn every_balancer_and_fault_plan_upholds_invariants() {
    for (bname, balancer) in balancers() {
        for (scenario, _) in scenario_plans(ReproOpts::QUICK) {
            let (report, trace) = traced_run(&balancer, scenario);
            let violations = check_trace(trace.records());
            assert!(
                violations.is_empty(),
                "{bname} × {scenario}: {} violation(s), first: {}",
                violations.len(),
                violations[0]
            );
            assert!(report.total_ops() > 0.0, "{bname} × {scenario} did work");
            // Nothing sorts the stream: its time order is the engine's own.
            // Events run one at a time in time order, each record is
            // stamped with its event's instant, and the trailer with the
            // time frontier, the last event's.
            let records = trace.records();
            if let Some(i) = records.windows(2).position(|w| w[1].at < w[0].at) {
                panic!(
                    "{bname} × {scenario}: record {} at {} follows one at {}",
                    i + 1,
                    records[i + 1].at,
                    records[i].at
                );
            }
            // The stream must be non-trivial: a run with no events would
            // pass every invariant vacuously.
            assert!(
                trace.records().len() > 100,
                "{bname} × {scenario}: only {} records",
                trace.records().len()
            );
        }
    }
}

#[test]
fn traces_cover_the_interesting_events() {
    // The crash scenario under greedy-spill must exercise the full event
    // vocabulary the checker reasons about.
    let (_, trace) = traced_run(&balancers()[0].1, "crash+restart");
    let names: std::collections::HashSet<&'static str> =
        trace.records().iter().map(|r| r.event.name()).collect();
    for expect in [
        "run_start",
        "dir_added",
        "auth_snapshot",
        "heartbeat_tick",
        "migration_freeze",
        "migration_journal",
        "migration_commit",
        "migration_unfreeze",
        "session_flush",
        "request_issued",
        "served",
        "completed",
        "mds_crash",
        "mds_restart",
        "request_timeout",
        "request_retry",
        "run_end",
    ] {
        assert!(names.contains(expect), "crash trace lacks {expect}");
    }
}

#[test]
fn poisoned_balancer_trace_shows_fallback_chain() {
    let (report, trace) = traced_run(&balancers()[0].1, "poisoned-balancer");
    assert!(report.balancer_fallbacks > 0, "poison forced a fallback");
    let errors = trace
        .records()
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::PolicyError { .. }))
        .count();
    let fallbacks = trace
        .records()
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::BalancerFallback { .. }))
        .count();
    assert!(errors >= 3, "fallback takes K consecutive errors");
    assert_eq!(fallbacks as u64, report.balancer_fallbacks);
}

// ---- corruption detection: a checker that can't fail proves nothing ----

#[test]
fn checker_detects_mutated_migration_inodes() {
    let (_, mut trace) = traced_run(&balancers()[0].1, "healthy");
    let rec = trace
        .records_mut()
        .iter_mut()
        .find(|r| matches!(r.event, TraceEvent::MigrationCommit { .. }))
        .expect("healthy greedy-spill run migrates");
    let TraceEvent::MigrationCommit { inodes, .. } = &mut rec.event else {
        unreachable!();
    };
    *inodes += 7;
    let v = check_trace(trace.records());
    assert!(
        v.iter().any(|v| v.rule == "inode-conservation"),
        "inflated commit must be caught: {v:?}"
    );
}

#[test]
fn checker_detects_misrouted_serve() {
    let (_, mut trace) = traced_run(&balancers()[0].1, "healthy");
    let num_mds = 3;
    let rec = trace
        .records_mut()
        .iter_mut()
        .find(|r| matches!(r.event, TraceEvent::Served { .. }))
        .expect("requests were served");
    let TraceEvent::Served { mds, .. } = &mut rec.event else {
        unreachable!();
    };
    *mds = (*mds + 1) % num_mds;
    let v = check_trace(trace.records());
    assert!(
        v.iter().any(|v| v.rule == "authority"),
        "misrouted serve must be caught: {v:?}"
    );
}

#[test]
fn checker_detects_epoch_regression() {
    let (_, mut trace) = traced_run(&balancers()[0].1, "healthy");
    let rec = trace
        .records_mut()
        .iter_mut()
        .rev()
        .find(|r| matches!(r.event, TraceEvent::HeartbeatTick { .. }))
        .expect("run spans heartbeats");
    rec.epoch -= 1;
    let v = check_trace(trace.records());
    assert!(
        v.iter().any(|v| v.rule == "epoch-monotonicity"),
        "regressed tick epoch must be caught: {v:?}"
    );
}

#[test]
fn checker_detects_serve_inside_freeze() {
    let (_, mut trace) = traced_run(&balancers()[0].1, "healthy");
    // Fabricate a serve against the frozen root in the middle of the
    // freeze window of the first subtree migration.
    let (at, root, from) = trace
        .records()
        .iter()
        .find_map(|r| match r.event {
            TraceEvent::MigrationFreeze {
                from,
                root,
                frag: None,
                until,
                ..
            } => Some((
                mantle::sim::SimTime::from_micros((r.at.as_micros() + until.as_micros()) / 2),
                root,
                from,
            )),
            _ => None,
        })
        .expect("healthy greedy-spill run migrates a subtree");
    let idx = trace
        .records()
        .iter()
        .position(|r| r.at >= at)
        .expect("freeze midpoint is inside the run");
    let epoch = trace.records()[idx].epoch;
    trace.records_mut().insert(
        idx,
        TraceRecord {
            at,
            epoch,
            event: TraceEvent::Served {
                mds: from,
                client: 0,
                dir: root,
                frag: 0,
                kind: OpKind::Stat,
                seq: 0,
            },
        },
    );
    let v = check_trace(trace.records());
    assert!(
        v.iter().any(|v| v.rule == "freeze-discipline"),
        "serve inside a freeze window must be caught: {v:?}"
    );
}

#[test]
fn checker_detects_dropped_unfreeze() {
    let (_, mut trace) = traced_run(&balancers()[0].1, "healthy");
    let idx = trace
        .records()
        .iter()
        .position(|r| matches!(r.event, TraceEvent::MigrationUnfreeze { .. }))
        .expect("migrations unfreeze");
    trace.records_mut().remove(idx);
    let v = check_trace(trace.records());
    assert!(
        v.iter().any(|v| v.rule == "migration-phases"),
        "missing unfreeze must be caught: {v:?}"
    );
}

// ---- overhead guard: tracing must be free when off, inert when on ----

/// The quick Fig. 10 bottom row: the too-aggressive adaptable balancer on
/// 5 MDSs, whose planner once shipped a subtree whole and then again
/// fragment by fragment in the same tick.
#[test]
fn fig10_too_aggressive_run_upholds_invariants() {
    let opts = ReproOpts::QUICK;
    let spec = Experiment::new(
        opts.cfg(5, 17),
        // `repro fig10`'s compile scale.
        WorkloadSpec::Compile {
            clients: 5,
            scale: opts.s(24.0),
        },
        BalancerSpec::mantle(
            "adaptable-too-aggressive",
            policies::adaptable_too_aggressive().unwrap(),
        ),
    );
    let (report, trace) = run_experiment_traced(&spec, TraceLevel::Decisions);
    assert!(report.total_migrations() > 100, "the run thrashes");
    let violations = check_trace(trace.records());
    assert!(
        violations.is_empty(),
        "{} violation(s), first: {}",
        violations.len(),
        violations[0]
    );
}

#[test]
fn disabled_sink_keeps_reports_byte_identical() {
    let spec = base_experiment(ReproOpts::QUICK, 42);
    let plain = format!("{:?}", run_experiment(&spec));
    let (traced, trace) = run_experiment_traced(&spec, TraceLevel::Full);
    assert_eq!(
        plain,
        format!("{traced:?}"),
        "attaching a sink must not change the simulation"
    );
    assert!(trace.records().len() > 100, "the sink did record");
    // Decisions level must also be inert and strictly smaller.
    let (decided, thin) = run_experiment_traced(&spec, TraceLevel::Decisions);
    assert_eq!(plain, format!("{decided:?}"));
    assert!(thin.records().len() < trace.records().len());
}

#[test]
fn every_heartbeat_tick_carries_each_mds_gauges() {
    let (report, trace) = traced_run(&balancers()[0].1, "healthy");
    let mut ticks = 0;
    let mut served = 0;
    for r in trace.records() {
        if let TraceEvent::HeartbeatTick {
            loads,
            queued,
            window_ops,
        } = &r.event
        {
            ticks += 1;
            let lens = [loads.len(), queued.len(), window_ops.len()];
            assert_eq!(lens, [3; 3], "one entry per MDS at {}", r.at);
            served += window_ops.iter().sum::<u64>();
        }
    }
    assert!(ticks > 0, "run spans heartbeats");
    assert!(
        served as f64 <= report.total_ops(),
        "the windows count {served} ops of {}",
        report.total_ops()
    );
    let jsonl = trace.to_jsonl();
    let tick = jsonl
        .lines()
        .find(|l| l.contains("\"ev\":\"heartbeat_tick\""))
        .expect("a tick line");
    assert!(tick.contains("\"queued\":") && tick.contains("\"window_ops\":"));
}
