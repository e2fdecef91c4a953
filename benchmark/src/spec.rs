//! The benchmark's fixed vocabulary: workload names and why each
//! exists, every end-to-end metric with its unit, direction and
//! regression bound, and every per-layer metric name. `BENCHMARK.json`
//! at the repository root repeats the workloads, [`GATED`] and
//! [`PER_LAYER`]; a self-test keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

#[cfg(test)]
impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far a metric may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the baseline value.
    Share(f64),
    /// An absolute amount (for a metric whose baseline is 0).
    Absolute(f64),
}

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound; per-layer metrics have none.
    pub bound: Option<Bound>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: Bound) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Kind of workload: what is driven and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `build_cluster` + `run_with_stats` in this process.
    Batch,
    /// A spawned `mantled` driven over loopback TCP.
    Wire,
}

/// One workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Batch or wire.
    pub kind: Kind,
    /// One line on why it exists (repeated in `BENCHMARK.json`).
    pub why: &'static str,
}

/// The four workloads, in running order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "batch-steady",
        kind: Kind::Batch,
        why: "10 MDSs, 2.56 M zipf ops: the per-op path (queue, routing, record_op, generator) is >95 % of the run and balancing <2 %, so balancer changes must not show here",
    },
    Workload {
        name: "batch-rebalance",
        kind: Kind::Batch,
        why: "128 MDSs, 640 k ops, ~14 k migrations: about three quarters of host time is balancer ticks and migration, which barely register on batch-steady",
    },
    Workload {
        name: "wire-closed",
        kind: Kind::Wire,
        why: "real mantled over loopback, 2 closed-loop sessions: reactor polling, codec and inbox hand-off dominate; balancer and event queue do almost nothing",
    },
    Workload {
        name: "wire-open-swap",
        kind: Kind::Wire,
        why: "same daemon, one pipelined open-loop session at 800 ops/s plus 60 policy swaps: batching per read/flush and control-plane installs while ops flow",
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// End-to-end metrics every workload reports with tracing off, and the
/// acceptance check gates (`BENCHMARK.json`'s `end_to_end`). That check
/// wants each of them from every workload, never 0, and steady across
/// runs on *different seeds* to within its bound of at most 25 %; that
/// decides the list.
///
/// `latency_p50_ms` is the median latency of one metadata op as its
/// client sees it, on the clock that client lives on: wall ms on the
/// wire workloads (round trip; from the due instant in the open loop),
/// simulated ms on the batch workloads, whose clients are simulated
/// (median over clients of each client's median: the one model output
/// that holds still from seed to seed, 0.02-0.12). A wall-clock op
/// latency does not exist on batch, so the two cannot go under two
/// names that every workload fills.
///
/// The bounds are as wide as the host and the seeds make them: a
/// 4-second batch repetition varies ±10 % from the next and the level
/// drifts further over minutes, another seed moves the simulated p50 by
/// up to 12 %, and a 4.5 MiB daemon's peak RSS moves 4 % by itself.
pub const GATED: [Metric; 4] = [
    e2e("setup_s", "s", Better::Lower, Bound::Share(0.25)),
    e2e("ops_per_s", "ops/s", Better::Higher, Bound::Share(0.25)),
    e2e("peak_rss_mb", "MiB", Better::Lower, Bound::Share(0.15)),
    e2e("latency_p50_ms", "ms", Better::Lower, Bound::Share(0.25)),
];

/// End-to-end metrics the acceptance check cannot gate. A run prints
/// them beside the gated ones (its `detail` line), `run` records them,
/// and `compare` / `run --sets`, which hold the seed fixed, hold them to
/// these bounds. The acceptance check's traced pass still reads each of
/// them, unbounded, under a per-layer name: `model.ops_per_sim_s`,
/// `model.latency_p99_ms`, `wire.rtt_p99_ms`, `wire.overhead_p50_ms`,
/// `daemon.engine.swap_ack_p50_ms`.
pub const WHERE_DEFINED: [Metric; 6] = [
    // batch: model outputs, exact for a seed. Not gated because another
    // seed is another balancing trajectory: over ten seeds they spread
    // (interquartile range over median) by 0.18-0.20 on batch-rebalance,
    // too close to the largest bound the acceptance check allows.
    e2e(
        "model_ops_per_sim_s",
        "ops/s",
        Better::Higher,
        Bound::Share(0.005),
    ),
    e2e(
        "model_latency_p99_ms",
        "ms",
        Better::Lower,
        Bound::Share(0.005),
    ),
    // all: ops not completed ok / ops attempted. 0 on a healthy run, so
    // the acceptance check reads it from `attempted` and `failed`.
    e2e(
        "failed_share",
        "share",
        Better::Lower,
        Bound::Absolute(0.001),
    ),
    // wire-closed only: open-loop p99 swings 4-29 ms with host stalls.
    // The closed loop's moves between 3.6 and 4.4 ms from one run to the
    // next on this host, so the issue's 15 % fails two runs of one commit.
    e2e("rtt_p99_ms", "ms", Better::Lower, Bound::Share(0.25)),
    // wire: RTT minus simulated service time
    e2e("overhead_p50_ms", "ms", Better::Lower, Bound::Share(0.10)),
    // wire-open-swap: policy-swap sent -> swapped received
    e2e("swap_ack_p50_ms", "ms", Better::Lower, Bound::Share(0.15)),
];

/// Per-layer metrics of the traced pass, named by module path. Every
/// workload reports every name; one whose layer is not on the workload's
/// path (or that the program does not export there) reads 0.
pub const PER_LAYER: [Metric; 71] = [
    // sim
    layer("sim.queue.heap_ns_per_push_pop", "ns", Better::Lower),
    layer("sim.queue.wheel_ns_per_push_pop", "ns", Better::Lower),
    layer("sim.queue.share", "share", Better::Lower),
    // workloads
    layer("workloads.next_ns_per_op", "ns", Better::Lower),
    layer("workloads.share", "share", Better::Lower),
    // namespace
    layer("namespace.record_op_ns", "ns", Better::Lower),
    layer("namespace.record_op.share", "share", Better::Lower),
    layer("namespace.setup_us_per_dir", "us", Better::Lower),
    layer("namespace.migrate_subtree_us", "us", Better::Lower),
    layer("namespace.load_samples_us_per_tick", "us", Better::Lower),
    layer("namespace.export_candidates_us", "us", Better::Lower),
    layer("namespace.mkdir_p_us", "us", Better::Lower),
    // policy
    layer("policy.metaload_ns", "ns", Better::Lower),
    layer("policy.mdsload_ns", "ns", Better::Lower),
    layer("policy.decide_us", "us", Better::Lower),
    layer("policy.prepare_us", "us", Better::Lower),
    // mds.cluster
    layer("mds.cluster.events", "count", Better::Lower),
    layer("mds.cluster.windows", "count", Better::Lower),
    layer("mds.cluster.exclusive_events", "count", Better::Lower),
    layer("mds.cluster.forwards", "count", Better::Lower),
    layer("mds.cluster.migrations", "count", Better::Lower),
    layer("mds.cluster.inodes_exported", "count", Better::Lower),
    layer("mds.cluster.sessions_flushed", "count", Better::Lower),
    layer("mds.cluster.splits", "count", Better::Lower),
    layer("mds.cluster.ns_per_event", "ns", Better::Lower),
    // mds.balancer / mds.selector
    layer("mds.balancer.tick_us", "us", Better::Lower),
    layer("mds.balancer.share", "share", Better::Lower),
    layer("mds.balancer.off_ns_per_event", "ns", Better::Lower),
    layer("mds.selector.select_us", "us", Better::Lower),
    // mds.shard
    layer("mds.shard.speedup_2t", "x", Better::Higher),
    layer("mds.shard.barrier_wait_share", "share", Better::Lower),
    layer("mds.shard.msgs_sent", "count", Better::Lower),
    // mds.trace / mds.invariants
    layer("mds.trace.records", "count", Better::Lower),
    layer("mds.trace.run_overhead_pct", "%", Better::Lower),
    layer("mds.trace.jsonl_ns_per_record", "ns", Better::Lower),
    layer("mds.invariants.check_ns_per_record", "ns", Better::Lower),
    layer("mds.invariants.violations", "count", Better::Lower),
    // mds.service
    layer("mds.service.inproc_rtt_p50_ms", "ms", Better::Lower),
    layer("mds.service.sim_latency_p50_ms", "ms", Better::Lower),
    layer("mds.service.sim_lag_ms", "ms", Better::Lower),
    // core
    layer("core.build_cluster_s", "s", Better::Lower),
    layer("core.run_cpu_s", "s", Better::Lower),
    layer("budget.unattributed_share", "share", Better::Lower),
    // daemon.json / daemon.wire
    layer("daemon.json.parse_ns_per_frame", "ns", Better::Lower),
    layer("daemon.json.encode_ns_per_frame", "ns", Better::Lower),
    layer("daemon.wire.bytes_per_op", "bytes", Better::Lower),
    layer("daemon.wire.report_json_us", "us", Better::Lower),
    // daemon.server
    layer("daemon.server.reactor_added_p50_ms", "ms", Better::Lower),
    layer(
        "daemon.server.reactor_wakeups_per_op",
        "count",
        Better::Lower,
    ),
    layer("daemon.engine.wakeups_per_op", "count", Better::Lower),
    layer("daemon.server.cpu_ms_per_s", "ms/s", Better::Lower),
    layer("daemon.server.connect_hello_ms", "ms", Better::Lower),
    layer("daemon.server.status_rtt_ms", "ms", Better::Lower),
    layer("daemon.server.drain_ms", "ms", Better::Lower),
    // daemon.engine
    layer("daemon.engine.swap_ack_p50_ms", "ms", Better::Lower),
    layer("daemon.engine.swap_ack_p80_ms", "ms", Better::Lower),
    layer("daemon.engine.swap_wait_share", "share", Better::Lower),
    // wire: what the generator saw (tails are informative)
    layer("wire.rtt_p50_ms", "ms", Better::Lower),
    layer("wire.rtt_p99_ms", "ms", Better::Lower),
    layer("wire.rtt_p99_9_ms", "ms", Better::Lower),
    layer("wire.overhead_p50_ms", "ms", Better::Lower),
    layer("wire.open.rtt_p99_ms", "ms", Better::Lower),
    layer("wire.open.generator_late_p99_ms", "ms", Better::Lower),
    layer("wire.open.max_outstanding", "count", Better::Lower),
    // harness spans: self time per op of each client-side step
    layer("harness.encode_us_per_op", "us", Better::Lower),
    layer("harness.write_us_per_op", "us", Better::Lower),
    layer("harness.wait_us_per_op", "us", Better::Lower),
    layer("harness.decode_us_per_op", "us", Better::Lower),
    // model outputs: the program's own report (batch: exact for a seed;
    // wire: what the daemon prints on exit, in its simulated clock)
    layer("model.ops_per_sim_s", "ops/s", Better::Higher),
    layer("model.latency_p99_ms", "ms", Better::Lower),
    // cost of the harness's own spans (wire; batch has none inside a run)
    layer("trace_overhead_pct", "%", Better::Lower),
];

/// Find an end-to-end metric (gated or where-defined) by name.
pub fn end_to_end(name: &str) -> Option<Metric> {
    GATED
        .iter()
        .chain(WHERE_DEFINED.iter())
        .copied()
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mantle_daemon::json::{parse, Json};

    /// `BENCHMARK.json` is the acceptance check's copy of this module.
    #[test]
    fn benchmark_json_repeats_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
            .expect("BENCHMARK.json parses");
        let keys: Vec<&str> = match &doc {
            Json::Obj(m) => m.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("BENCHMARK.json is an object"),
        };
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |key: &str| -> Vec<String> {
            doc.get_arr(key)
                .unwrap()
                .iter()
                .map(|m| m.get_str("name").unwrap().to_string())
                .collect()
        };
        assert_eq!(
            names("workloads"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        for (w, j) in WORKLOADS.iter().zip(doc.get_arr("workloads").unwrap()) {
            assert_eq!(j.get_str("why"), Some(w.why));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        for (key, table) in [("end_to_end", &GATED[..]), ("per_layer", &PER_LAYER[..])] {
            let listed = doc.get_arr(key).unwrap();
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (m, j) in table.iter().zip(listed) {
                assert_eq!(j.get_str("name"), Some(m.name));
                assert_eq!(j.get_str("unit"), Some(m.unit), "{}", m.name);
                assert_eq!(j.get_str("better"), Some(m.better.word()), "{}", m.name);
                match m.bound {
                    Some(Bound::Share(b)) => assert_eq!(j.get_num("bound"), Some(b), "{}", m.name),
                    Some(Bound::Absolute(_)) => panic!("gated bounds are shares"),
                    None => assert!(j.get("bound").is_none(), "{}", m.name),
                }
            }
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for m in GATED.iter().chain(&WHERE_DEFINED).chain(&PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(ok(m.name, "_.-", 64), "name {}", m.name);
            assert!(ok(m.unit, "_/%.-", 16), "unit {}", m.unit);
        }
        assert!(GATED.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(PER_LAYER.len() <= 128 && GATED.len() <= 16);
    }
}
