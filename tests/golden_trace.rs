//! Golden-trace snapshots, compared byte-for-byte:
//!
//! * `tests/golden/trace_small.jsonl` — a small fixed-seed run's
//!   decisions-level JSONL stream. Any drift in event vocabulary, field
//!   order, number formatting, or simulation behaviour shows up here.
//! * `tests/golden/trace_variants.jsonl` — hand-built records, at least
//!   one per [`TraceEvent`] variant plus the encoding's edge cases
//!   (`None` and `Some`, empty lists, non-finite numbers, strings that
//!   need escaping), so every tag's wire form is pinned whether or not a
//!   simulated run emits it.
//!
//! PROTOCOL.md §5's example trace frames are checked against the encoder
//! too.
//!
//! To bless an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_trace
//! ```

use mantle::namespace::MdsId;
use mantle::prelude::*;

mod support;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/trace_small.jsonl"
);

const VARIANTS_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/trace_variants.jsonl"
);

const PROTOCOL_MD: &str = include_str!("../PROTOCOL.md");

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

fn record(at_us: u64, epoch: u64, event: TraceEvent) -> TraceRecord {
    TraceRecord {
        at: SimTime::from_micros(at_us),
        epoch,
        event,
    }
}

fn line(rec: &TraceRecord) -> String {
    let mut out = String::new();
    rec.write_json(&mut out);
    out
}

/// Every variant at least once, in declaration order, with the edge
/// cases of each field type next to the variant that carries them.
fn every_variant() -> Vec<TraceRecord> {
    const ESCAPED: &str = "q\"uote \\ back\nnew\ttab\u{1}ctl é 😀";
    let n = NodeId;
    let t = SimTime::from_micros;
    let mut events = vec![
        TraceEvent::RunStart {
            num_mds: 4,
            fallback_after: 3,
            level: TraceLevel::Decisions,
            heartbeat_us: 400_000,
        },
        TraceEvent::RunStart {
            num_mds: 1,
            fallback_after: 0,
            level: TraceLevel::Full,
            heartbeat_us: 0,
        },
        TraceEvent::DirAdded {
            dir: n(0),
            parent: None,
            files: vec![],
        },
        TraceEvent::DirAdded {
            dir: n(u32::MAX),
            parent: Some(n(3)),
            files: vec![0, 17, u64::MAX],
        },
        TraceEvent::AuthSnapshot {
            dirs: vec![],
            frags: vec![],
        },
        TraceEvent::AuthSnapshot {
            dirs: vec![(n(1), 0), (n(5), 3)],
            frags: vec![(n(5), 2, 1), (n(8), 0, MdsId::MAX)],
        },
        TraceEvent::HeartbeatTick {
            loads: vec![],
            queued: vec![],
            window_ops: vec![],
        },
        TraceEvent::HeartbeatTick {
            loads: vec![
                0.0,
                -0.0,
                1.5,
                -2.25,
                0.1,
                1e-7,
                123_456_789.0,
                9.0e15,
                1e300,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ],
            queued: vec![0, 3, u64::MAX],
            window_ops: vec![1_024, 0],
        },
        TraceEvent::BalancerTick { mds: 2 },
        TraceEvent::BalancerPlan {
            mds: 0,
            targets: vec![],
            selectors: vec![],
            exports: 0,
        },
        TraceEvent::BalancerPlan {
            mds: 1,
            targets: vec![0.0, 12.5, f64::NAN],
            selectors: vec!["big_first".into(), String::new(), ESCAPED.into()],
            exports: 3,
        },
        TraceEvent::PolicyError {
            mds: 1,
            consecutive: 2,
        },
        TraceEvent::BalancerFallback { mds: 1 },
        TraceEvent::PolicyInstalled {
            install_epoch: 0,
            name: String::new(),
        },
        TraceEvent::PolicyInstalled {
            install_epoch: 7,
            name: ESCAPED.into(),
        },
        TraceEvent::MigrationFreeze {
            mig: 1,
            from: 0,
            to: 1,
            root: n(5),
            frag: None,
            holes: vec![],
            watermark: 40,
            until: t(1_200_000),
        },
        TraceEvent::MigrationFreeze {
            mig: 2,
            from: 3,
            to: 0,
            root: n(6),
            frag: Some(3),
            holes: vec![n(9), n(11)],
            watermark: u32::MAX,
            until: t(u64::MAX),
        },
        TraceEvent::MigrationJournal {
            mig: 1,
            mds: 0,
            micros: 250.0,
        },
        TraceEvent::MigrationJournal {
            mig: 1,
            mds: 1,
            micros: 1234.5678,
        },
        TraceEvent::MigrationCommit {
            mig: 1,
            from: 0,
            to: 1,
            root: n(5),
            frag: None,
            inodes: 140,
        },
        TraceEvent::MigrationCommit {
            mig: 2,
            from: 3,
            to: 0,
            root: n(6),
            frag: Some(0),
            inodes: 0,
        },
        TraceEvent::MigrationUnfreeze {
            mig: 1,
            root: n(5),
            thaw: t(1_200_000),
        },
        TraceEvent::SessionFlush { mds: 0, clients: 8 },
        TraceEvent::FragSplit {
            dir: n(5),
            frag: 1,
            ways: 4,
            resulting_frags: 7,
        },
        TraceEvent::HashPin { dir: n(12), mds: 3 },
        TraceEvent::MdsCrash { mds: 1 },
        TraceEvent::MdsRestart { mds: 1 },
        TraceEvent::MdsJoinStart {
            mds: 2,
            membership_epoch: 1,
        },
        TraceEvent::MdsJoinComplete {
            mds: 2,
            membership_epoch: 1,
            rehomed: 5,
        },
        TraceEvent::MdsDrainStart {
            mds: 2,
            membership_epoch: 2,
        },
        TraceEvent::MdsDrainComplete {
            mds: 2,
            membership_epoch: 2,
            drained: 5,
        },
        TraceEvent::MdsDeparted {
            mds: 2,
            membership_epoch: 3,
        },
    ];
    for kind in [
        "slowdown",
        "drop-heartbeats",
        "delay-heartbeats",
        "poison-balancer",
    ] {
        events.push(TraceEvent::FaultInjected { mds: 1, kind });
    }
    events.extend([
        TraceEvent::RequestIssued {
            client: 4,
            dir: n(12),
            mds: 0,
            seq: 9,
        },
        TraceEvent::RequestTimeout { client: 4, seq: 9 },
        TraceEvent::RequestRetry {
            client: 4,
            attempt: 1,
        },
        TraceEvent::Dropped { mds: 1, client: 4 },
        TraceEvent::Deferred {
            mds: 1,
            dir: n(5),
            until: t(1_200_000),
        },
        TraceEvent::Forwarded {
            from: 0,
            to: 1,
            dir: n(5),
            frag: 2,
            client: 4,
        },
        TraceEvent::Served {
            mds: 1,
            client: 4,
            dir: n(5),
            frag: 2,
            kind: OpKind::Create,
            seq: 10,
        },
        TraceEvent::GhostReply { mds: 1 },
        TraceEvent::StaleReply {
            mds: 1,
            client: 4,
            dir: n(5),
            frag: 2,
            kind: OpKind::OpenRead,
        },
        TraceEvent::CacheHit {
            group: 0,
            client: 4,
            dir: n(5),
            mds: 1,
        },
        TraceEvent::CacheFill {
            group: 0,
            dir: n(5),
            mds: 1,
        },
        TraceEvent::CacheInvalidate {
            dir: n(5),
            entries: 3,
        },
    ]);
    // Every op kind's wire name.
    for (i, kind) in OpKind::all().into_iter().enumerate() {
        events.push(TraceEvent::Completed {
            mds: i % 2,
            client: i,
            dir: n(5),
            frag: 0,
            kind,
        });
    }
    events.push(TraceEvent::RunEnd { inflight: 0 });
    events.push(TraceEvent::RunEnd { inflight: 3 });

    let mut records: Vec<TraceRecord> = events
        .into_iter()
        .enumerate()
        .map(|(i, ev)| record(i as u64 * 1_000, i as u64 / 4, ev))
        .collect();
    // The largest stamps a record can carry.
    let inflight = records.len();
    records.push(record(u64::MAX, u64::MAX, TraceEvent::RunEnd { inflight }));
    records
}

#[test]
fn every_variant_encodes_as_pinned() {
    let records = every_variant();
    let tags: std::collections::HashSet<&str> = records.iter().map(|r| r.event.name()).collect();
    assert_eq!(tags.len(), 38, "one record per TraceEvent variant");
    let got: String = records.iter().map(|r| line(r) + "\n").collect();
    for l in got.lines() {
        mantle::sim::json::parse(l).unwrap_or_else(|e| panic!("not one JSON document ({e}): {l}"));
    }

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(VARIANTS_GOLDEN, &got).expect("write golden file");
        return;
    }

    let want = std::fs::read_to_string(VARIANTS_GOLDEN)
        .expect("golden file missing — bless it with UPDATE_GOLDEN=1");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "record {} drifted from {VARIANTS_GOLDEN}", i + 1);
    }
    assert_eq!(got, want, "{VARIANTS_GOLDEN} has a different record count");
}

/// PROTOCOL.md §5 shows two trace frames as they appear on the wire;
/// they are exactly what the encoder writes for those records.
#[test]
fn protocol_md_trace_examples_are_the_encoding() {
    let commit = record(
        10_000_000,
        1,
        TraceEvent::MigrationCommit {
            mig: 3,
            from: 0,
            to: 2,
            root: NodeId(7),
            frag: None,
            inodes: 140,
        },
    );
    let installed = record(
        2_000_000,
        0,
        TraceEvent::PolicyInstalled {
            install_epoch: 1,
            name: "greedy-v2".into(),
        },
    );
    let fences = support::fences_in("PROTOCOL.md", PROTOCOL_MD);
    for rec in [commit, installed] {
        let tag = format!("\"ev\":\"{}\"", rec.event.name());
        let example = fences
            .iter()
            .find(|f| f.tag == "json frame" && f.body.contains(&tag))
            .unwrap_or_else(|| panic!("PROTOCOL.md lost its {tag} example"));
        assert_eq!(
            example.body.trim(),
            line(&rec),
            "PROTOCOL.md:{}",
            example.line
        );
    }
}
