//! The two batch workloads, end to end: `build_cluster` (set-up) then
//! `Cluster::run_with_stats` (the run), repeated, in this process.
//!
//! Everything not named here is the code's default — heap scheduler,
//! `ExecMode::Single`, incremental index, bytecode hooks, cache, elastic
//! membership and faults inert — via `scale`'s own experiment builder,
//! so the benchmark runs exactly what `scale` runs.

use std::hint::black_box;
use std::time::Instant;

use std::path::Path;

use mantle_core::scale::{scale_experiment, ScaleSpec};
use mantle_core::{build_cluster, run_experiment, run_experiment_traced, BalancerSpec, Experiment};
use mantle_mds::{
    check_trace, ExecMode, ExecStats, RunReport, SchedulerKind, TraceLevel, Workload,
};
use mantle_namespace::{NodeId, OpKind};
use mantle_sim::SimTime;
use mantle_workloads::ZipfMix;

use crate::layers;
use crate::outcome::{Layers, Outcome};
use crate::proc;
use crate::spans::{SpanId, Spans};
use crate::stats::median;

/// The cluster shape and request count of a batch workload.
///
/// Sizes are fixed: when a run must get shorter, repetitions are cut,
/// never the workload (set-up is ≈3 s of a ≈7 s repetition at either
/// shape — that split is a finding, not a bug in the benchmark).
pub fn shape(workload: &str) -> ScaleSpec {
    match workload {
        // `scale`'s paper-scale row.
        "batch-steady" => ScaleSpec {
            name: "batch-steady",
            num_mds: 10,
            clients: 64,
            dirs: 100_000,
            ops_per_client: 40_000,
        },
        "batch-rebalance" => ScaleSpec {
            name: "batch-rebalance",
            num_mds: 128,
            clients: 128,
            dirs: 100_000,
            ops_per_client: 5_000,
        },
        other => panic!("{other} is not a batch workload"),
    }
}

/// A tenth-size instance of a batch shape (a tenth of the directories
/// and of the ops per client) for the layer replays that need a whole
/// run but not a long one.
pub fn tenth(spec: &ScaleSpec) -> ScaleSpec {
    ScaleSpec {
        dirs: spec.dirs / 10,
        ops_per_client: spec.ops_per_client / 10,
        ..*spec
    }
}

/// The experiment of a batch shape: zipf-mix 1.1 / 50 % writes,
/// `greedy_spill_even`, heartbeat 2 s, split threshold 1 000.
pub fn experiment(spec: &ScaleSpec, seed: u64) -> Experiment {
    scale_experiment(spec, SchedulerKind::Heap, seed)
}

/// One repetition: set-up and run, each timed on the wall clock.
pub struct Rep {
    /// When `build_cluster` was called.
    pub started: Instant,
    /// When `run_with_stats` was called.
    pub run_started: Instant,
    /// `build_cluster` wall seconds.
    pub setup_s: f64,
    /// `run_with_stats` wall seconds.
    pub run_s: f64,
    /// On-CPU seconds of this thread during the run.
    pub run_cpu_s: f64,
    /// The run's report.
    pub report: RunReport,
    /// The engine's execution statistics.
    pub stats: ExecStats,
}

impl Rep {
    /// Events the engine drained.
    pub fn events(&self) -> u64 {
        self.stats.shards.iter().map(|s| s.events).sum()
    }
}

/// Build and run `exp` once.
pub fn rep(exp: &Experiment) -> Rep {
    let t0 = Instant::now();
    let cluster = build_cluster(exp);
    let setup_s = t0.elapsed().as_secs_f64();
    let cpu0 = proc::thread_cpu_ns();
    let t1 = Instant::now();
    let (report, stats) = cluster.run_with_stats();
    let run_s = t1.elapsed().as_secs_f64();
    let run_cpu_s = match (cpu0, proc::thread_cpu_ns()) {
        (Some(a), Some(b)) => b.saturating_sub(a) as f64 / 1e9,
        _ => 0.0,
    };
    Rep {
        started: t0,
        run_started: t1,
        setup_s,
        run_s,
        run_cpu_s,
        report,
        stats,
    }
}

/// Median over clients of each client's median op latency, simulated ms.
pub fn model_latency_p50_ms(report: &RunReport) -> f64 {
    let per_client: Vec<f64> = report
        .clients
        .iter()
        .filter(|c| c.latency.count > 0)
        .map(|c| c.latency.p50)
        .collect();
    median(&per_client)
}

/// Run a batch workload with tracing off: repetitions of build + run
/// until `seconds` have passed, medians over the repetitions.
pub fn run_end_to_end(workload: &str, seed: u64, seconds: u64) -> Outcome {
    let spec = shape(workload);
    let exp = experiment(&spec, seed);
    let expected = spec.total_ops();
    let mut out = Outcome::default();
    let (mut setups, mut rates) = (Vec::new(), Vec::new());
    let mut first: Option<(String, RunReport)> = None;
    let started = Instant::now();
    loop {
        let r = rep(&exp);
        let done = r.report.total_ops() as u64;
        out.attempted += expected;
        out.failed += expected.saturating_sub(done) + r.report.timeouts + r.report.total_dropped();
        out.check(done == expected, || {
            format!(
                "{workload}: completed {done} ops, expected clients x ops_per_client = {expected}"
            )
        });
        setups.push(r.setup_s);
        rates.push(done as f64 / r.run_s);
        let debug = format!("{:?}", r.report);
        match &first {
            None => first = Some((debug, r.report)),
            Some((reference, _)) => out.check(*reference == debug, || {
                format!(
                    "{workload}: repetition {} produced a different report",
                    setups.len()
                )
            }),
        }
        if started.elapsed().as_secs_f64() >= seconds as f64 {
            break;
        }
    }
    let (_, report) = first.expect("at least one repetition ran");
    out.metrics = vec![
        ("setup_s", median(&setups)),
        ("ops_per_s", median(&rates)),
        ("peak_rss_mb", proc::peak_rss_mib(None).unwrap_or(0.0)),
        ("latency_p50_ms", model_latency_p50_ms(&report)),
    ];
    out.detail = vec![
        ("model_ops_per_sim_s", report.mean_throughput()),
        ("model_latency_p99_ms", report.latency_all().p99),
        ("failed_share", out.failed as f64 / out.attempted as f64),
    ];
    out
}

/// Most ops the generator and `record_op` replays push through.
const REPLAY_OPS: u64 = 1_000_000;
/// Most queue turnovers the event-queue replay makes.
const REPLAY_EVENTS: u64 = 2_000_000;

impl Rep {
    /// Record this repetition's `build_cluster` and `run` spans.
    fn record(&self, spans: &mut Spans, parent: SpanId) {
        let secs = std::time::Duration::from_secs_f64;
        spans.record(
            "build_cluster",
            self.started,
            self.started + secs(self.setup_s),
            Some(parent),
            None,
        );
        spans.record(
            "run",
            self.run_started,
            self.run_started + secs(self.run_s),
            Some(parent),
            None,
        );
    }
}

/// The traced pass of a batch workload: one repetition, then every
/// layer replayed from outside at the workload's shape. Its length is
/// set by the replays (about two repetitions and a half), not by
/// `--seconds`. Spans go to `spans_path`.
///
/// `trace_overhead_pct` stays 0 here: the harness has no span inside a
/// batch run — `build_cluster` and `run` are written from the
/// repetition's stored instants once it is over — so there is no traced
/// running to compare with untraced.
pub fn run_traced(workload: &str, seed: u64, spans_path: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let mut spans = Spans::new(Instant::now());
    let root = spans.open("workload", None, None);
    let spec = shape(workload);
    let exp = experiment(&spec, seed);
    let expected = spec.total_ops();

    // -- the workload itself --------------------------------------------
    let whole = rep(&exp);
    whole.record(&mut spans, root);
    let done = whole.report.total_ops() as u64;
    out.attempted += expected;
    out.failed += expected.saturating_sub(done);
    out.check(done == expected, || {
        format!("{workload}: completed {done} ops, expected {expected}")
    });
    let run_s = whole.run_s;
    let events = whole.events();
    let report = &whole.report;
    layers.set("core.build_cluster_s", whole.setup_s);
    layers.set("core.run_cpu_s", whole.run_cpu_s);
    layers.set("mds.cluster.events", events as f64);
    layers.set("mds.cluster.windows", whole.stats.windows as f64);
    layers.set(
        "mds.cluster.exclusive_events",
        whole.stats.exclusive_events as f64,
    );
    layers.set("mds.cluster.forwards", report.total_forwards() as f64);
    layers.set("mds.cluster.migrations", report.total_migrations() as f64);
    let sum = |f: fn(&mantle_mds::report::MdsReport) -> u64| report.mds.iter().map(f).sum::<u64>();
    layers.set(
        "mds.cluster.inodes_exported",
        sum(|m| m.inodes_exported) as f64,
    );
    layers.set(
        "mds.cluster.sessions_flushed",
        report.sessions_flushed as f64,
    );
    layers.set("mds.cluster.splits", sum(|m| m.splits) as f64);
    layers.set("mds.cluster.ns_per_event", run_s * 1e9 / events as f64);
    layers.set("model.ops_per_sim_s", report.mean_throughput());
    layers.set("model.latency_p99_ms", report.latency_all().p99);

    // -- mds.balancer: the same workload with balancing off ------------
    let mut off_exp = exp.clone();
    off_exp.balancer = BalancerSpec::None;
    let (off, _) = spans.time("replay.balancer_off_run", Some(root), || rep(&off_exp));
    layers.set(
        "mds.balancer.off_ns_per_event",
        off.run_s * 1e9 / off.events() as f64,
    );
    let balancer_share = (1.0 - off.run_s / run_s).max(0.0);
    layers.set("mds.balancer.share", balancer_share);

    // -- workloads + namespace + sim + policy at this shape -------------
    let mut zipf = ZipfMix::new(spec.clients, spec.dirs, spec.ops_per_client, 1.1, 0.5, seed);
    let (mut ns, setup_us, ranked) =
        layers::namespace_setup(layers::ns_config(&exp.config), |ns| zipf.setup(ns));
    layers.set("namespace.setup_us_per_dir", setup_us);
    let n = expected.min(REPLAY_OPS) as usize;
    let mut ops: Vec<(NodeId, OpKind)> = Vec::with_capacity(n);
    let (_, gen_s) = spans.time("replay.workloads.next", Some(root), || {
        let mut client = 0;
        while ops.len() < n {
            if let Some(op) = zipf.next(client % spec.clients, &ns, SimTime::ZERO) {
                ops.push((op.dir, op.kind));
            }
            client += 1;
        }
    });
    let next_ns = gen_s * 1e9 / n as f64;
    layers.set("workloads.next_ns_per_op", next_ns);
    let paths: Vec<String> = (0..ranked.len().min(4096))
        .map(|i| format!("/zipf/g{}/d{}", i / 16, i % 16))
        .collect();
    let BalancerSpec::Mantle { policy, .. } = &exp.balancer else {
        unreachable!("batch workloads run a Mantle policy");
    };
    layers::shared_replays(
        &mut layers,
        &mut spans,
        root,
        &mut ns,
        &ranked,
        &paths,
        &ops,
        policy,
        spec.num_mds,
        spec.clients + spec.num_mds,
        events.min(REPLAY_EVENTS) as u32,
        report.total_migrations() as usize,
    );
    drop((ns, ops));

    // -- the budget: shares of the run's wall time ----------------------
    let run_ns = run_s * 1e9;
    let queue_share = layers.get("sim.queue.heap_ns_per_push_pop") * events as f64 / run_ns;
    let workload_share = next_ns * expected as f64 / run_ns;
    let record_share = layers.get("namespace.record_op_ns") * expected as f64 / run_ns;
    layers.set("sim.queue.share", queue_share);
    layers.set("workloads.share", workload_share);
    layers.set("namespace.record_op.share", record_share);
    layers.set(
        "budget.unattributed_share",
        1.0 - queue_share - workload_share - record_share - balancer_share,
    );

    // -- mds.shard: a tenth-size instance, Sharded{2} against Single ----
    let small = experiment(&tenth(&spec), seed);
    let (single, _) = spans.time("replay.shard.single", Some(root), || rep(&small));
    let mut sharded_exp = small.clone();
    sharded_exp.config = sharded_exp
        .config
        .with_exec_mode(ExecMode::Sharded { threads: 2 });
    let (sharded, _) = spans.time("replay.shard.sharded2", Some(root), || rep(&sharded_exp));
    out.check(
        format!("{:?}", single.report) == format!("{:?}", sharded.report),
        || format!("{workload}: Sharded{{2}} and Single reports differ"),
    );
    layers.set("mds.shard.speedup_2t", single.run_s / sharded.run_s);
    let waited: u64 = sharded.stats.shards.iter().map(|s| s.barrier_wait_ns).sum();
    layers.set(
        "mds.shard.barrier_wait_share",
        waited as f64 / (sharded.stats.threads.max(1) as f64 * sharded.run_s * 1e9),
    );
    layers.set(
        "mds.shard.msgs_sent",
        sharded
            .stats
            .shards
            .iter()
            .map(|s| s.msgs_sent)
            .sum::<u64>() as f64,
    );

    // -- mds.trace / mds.invariants on the tenth-size instance ----------
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut buffer = None;
    spans.time("replay.trace", Some(root), || {
        for _ in 0..5 {
            let t = Instant::now();
            black_box(run_experiment(&small));
            plain_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let (_, buf) = run_experiment_traced(&small, TraceLevel::Decisions);
            traced_s.push(t.elapsed().as_secs_f64());
            buffer = Some(buf);
        }
    });
    let buffer = buffer.expect("the traced runs ran");
    let records = buffer.records().len();
    layers.set("mds.trace.records", records as f64);
    layers.set(
        "mds.trace.run_overhead_pct",
        100.0 * (median(&traced_s) / median(&plain_s) - 1.0),
    );
    let (jsonl, jsonl_s) = spans.time("replay.trace.jsonl", Some(root), || buffer.to_jsonl());
    black_box(jsonl);
    layers.set(
        "mds.trace.jsonl_ns_per_record",
        jsonl_s * 1e9 / records.max(1) as f64,
    );
    let (violations, check_s) = spans.time("replay.invariants", Some(root), || {
        check_trace(buffer.records())
    });
    layers.set(
        "mds.invariants.check_ns_per_record",
        check_s * 1e9 / records.max(1) as f64,
    );
    layers.set("mds.invariants.violations", violations.len() as f64);
    out.check(violations.is_empty(), || {
        format!(
            "{workload}: invariant checker found {} violations",
            violations.len()
        )
    });

    spans.close(root);
    if let Err(e) = spans.write_jsonl(spans_path) {
        out.problem(format!("writing {}: {e}", spans_path.display()));
    }
    out.metrics = layers.into_metrics();
    out
}
