//! Golden-trace snapshot: a small fixed-seed run's decisions-level JSONL
//! stream is committed at `tests/golden/trace_small.jsonl` and compared
//! byte-for-byte. Any drift in event vocabulary, field order, number
//! formatting, or simulation behaviour shows up as a diff here.
//!
//! To bless an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_trace
//! ```

use mantle::prelude::*;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/trace_small.jsonl"
);

/// The pinned scenario: small enough to review as text, busy enough to
/// exercise splits, migrations, and session flushes.
fn golden_spec() -> Experiment {
    Experiment::new(
        ClusterConfig {
            num_mds: 2,
            seed: 11,
            heartbeat_interval: SimTime::from_millis(400),
            frag_split_threshold: 300,
            ..Default::default()
        },
        WorkloadSpec::CreateShared {
            clients: 2,
            files: 800,
        },
        BalancerSpec::mantle("greedy-spill", policies::greedy_spill().unwrap()),
    )
}

#[test]
fn decisions_trace_matches_golden_snapshot() {
    let (report, trace) = run_experiment_traced(&golden_spec(), TraceLevel::Decisions);
    assert_eq!(report.total_ops(), 1_600.0, "the pinned run does its work");
    let got = trace.to_jsonl();

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &got).expect("write golden file");
        return;
    }

    let want = std::fs::read_to_string(GOLDEN)
        .expect("golden file missing — bless it with UPDATE_GOLDEN=1");
    assert!(
        got == want,
        "decisions trace drifted from {GOLDEN} ({} vs {} bytes).\n\
         If the change is intentional, re-bless with:\n\
         UPDATE_GOLDEN=1 cargo test --test golden_trace",
        got.len(),
        want.len()
    );
}

#[test]
fn golden_trace_itself_upholds_invariants() {
    let (_, trace) = run_experiment_traced(&golden_spec(), TraceLevel::Decisions);
    assert_invariants(trace.records());
    // Records are kept in emission order, never sorted, and that order is
    // already time order.
    assert!(
        trace.records().windows(2).all(|w| w[0].at <= w[1].at),
        "the pinned stream goes back in time"
    );
    // The pinned stream must include the control-plane vocabulary the
    // snapshot exists to guard.
    let names: std::collections::HashSet<&'static str> =
        trace.records().iter().map(|r| r.event.name()).collect();
    for expect in [
        "run_start",
        "heartbeat_tick",
        "balancer_plan",
        "migration_freeze",
        "migration_commit",
        "migration_unfreeze",
        "frag_split",
        "session_flush",
        "run_end",
    ] {
        assert!(names.contains(expect), "golden trace lacks {expect}");
    }
}
