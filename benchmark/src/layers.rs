//! Layer replays: each layer of the program timed from outside, by
//! calling its public functions with the workload's own shape (MDS
//! count, client count, directory population, op stream). These are the
//! per-layer numbers of the traced pass; nothing here runs with tracing
//! off.

use std::hint::black_box;
use std::time::Instant;

use mantle_daemon::engine::policy_source_from_json;
use mantle_mds::balancer::{BalanceContext, Balancer};
use mantle_mds::metrics::Heartbeat;
use mantle_mds::partition::plan_exports;
use mantle_mds::selector::{select_best, DirfragSelector};
use mantle_mds::{ClusterConfig, MantleBalancer, SchedulerKind};
use mantle_namespace::{Namespace, NodeId, NsConfig, OpKind};
use mantle_policy::env::{BalancerInputs, FragMetrics, MantleRuntime, MdsMetrics, PolicySet};
use mantle_policy::install::prepare;
use mantle_sim::{EventQueue, SimRng, SimTime};

use crate::outcome::Layers;
use crate::spans::{SpanId, Spans};
use crate::wire::bundle;

/// Seconds per call of `f`, averaged over `iters` calls after one
/// warm-up call.
pub fn per_call(iters: u32, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_secs_f64() / iters as f64
}

// ---------------------------------------------------------------------
// sim: the event queue
// ---------------------------------------------------------------------

/// A cluster-shaped delay: mostly sub-ms service/RTT hops, some multi-ms
/// stragglers, the occasional heartbeat-scale timer (`bench_ticks`'s
/// mix).
fn event_delay(rng: &mut SimRng) -> SimTime {
    let us = match rng.below(10) {
        0..=7 => rng.below(1_000),
        8 => rng.below(100_000),
        _ => 2_000_000 + rng.below(8_000_000),
    };
    SimTime::from_micros(us)
}

/// Nanoseconds per pop + push of `kind` with `pending` events in flight,
/// over `ops` turnovers: the workload's own mean depth (about one event
/// per client and one per MDS) and event count, not a stress depth.
pub fn queue_ns_per_push_pop(kind: SchedulerKind, pending: usize, ops: u32) -> f64 {
    let mut rng = SimRng::new(0xBEEF).stream("queue-bench");
    let delays: Vec<SimTime> = (0..pending + ops as usize)
        .map(|_| event_delay(&mut rng))
        .collect();
    let mut delays = delays.iter().cycle();
    let mut q = EventQueue::with_scheduler(kind);
    for i in 0..pending {
        q.schedule_in(*delays.next().expect("cycle"), i as u64);
    }
    for _ in 0..pending {
        let (_, e) = q.pop().expect("queue stays full");
        q.schedule_in(*delays.next().expect("cycle"), e);
    }
    let t0 = Instant::now();
    for _ in 0..ops {
        let (_, e) = q.pop().expect("queue stays full");
        q.schedule_in(*delays.next().expect("cycle"), e);
    }
    black_box(q.len());
    t0.elapsed().as_secs_f64() * 1e9 / ops as f64
}

// ---------------------------------------------------------------------
// namespace
// ---------------------------------------------------------------------

/// The namespace configuration a cluster derives from its own config.
pub fn ns_config(cfg: &ClusterConfig) -> NsConfig {
    NsConfig {
        frag_split_threshold: cfg.frag_split_threshold,
        decay_half_life: cfg.decay_half_life,
        index_mode: cfg.index_mode,
        ..Default::default()
    }
}

/// What the namespace replay measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct NamespaceCosts {
    /// One `migrate_subtree`, µs.
    pub migrate_subtree_us: f64,
    /// One `record_op`, ns.
    pub record_op_ns: f64,
    /// One `mds_load_samples`, µs (once per balancer tick).
    pub load_samples_us: f64,
    /// One `export_candidate_dirs`, µs.
    pub export_candidates_us: f64,
    /// One `mkdir_p` of an existing path, µs (wire path resolution).
    pub mkdir_p_us: f64,
    /// Most export candidates any MDS had.
    pub max_candidates: usize,
}

/// Build the directory population on a fresh namespace, timed. Returns
/// the namespace, µs per directory created, and the leaf directories in
/// creation order (both generators create them hottest first).
pub fn namespace_setup(
    cfg: NsConfig,
    setup: impl FnOnce(&mut Namespace),
) -> (Namespace, f64, Vec<NodeId>) {
    let mut ns = Namespace::new(cfg);
    let t = Instant::now();
    setup(&mut ns);
    let secs = t.elapsed().as_secs_f64();
    let root = ns.root();
    let ranked: Vec<NodeId> = ns
        .all_dirs()
        .filter(|&d| d != root && ns.dir(d).children.is_empty())
        .collect();
    let us_per_dir = secs * 1e6 / ranked.len().max(1) as f64;
    (ns, us_per_dir, ranked)
}

/// Replay the namespace's public operations at the workload's shape.
///
/// `ranked` are the leaf directories hottest first, `paths` absolute
/// paths of existing directories, `ops` the workload's own op stream.
/// The hottest `migrations` directories are first spread round-robin
/// over the MDSs (as many exports as the real run made), so the later
/// steps see authority as fragmented as the workload leaves it.
pub fn namespace_costs(
    ns: &mut Namespace,
    ranked: &[NodeId],
    paths: &[String],
    ops: &[(NodeId, OpKind)],
    num_mds: usize,
    migrations: usize,
) -> NamespaceCosts {
    let mut out = NamespaceCosts::default();
    // At least a few dozen, so the per-call time is not one cold call.
    let moved = migrations.clamp(ranked.len().min(64), ranked.len());
    let t = Instant::now();
    for (i, &dir) in ranked.iter().take(moved).enumerate() {
        black_box(ns.migrate_subtree(dir, (i + 1) % num_mds));
    }
    out.migrate_subtree_us = t.elapsed().as_secs_f64() * 1e6 / moved.max(1) as f64;

    let now = SimTime::from_secs(1);
    let t = Instant::now();
    for &(dir, kind) in ops {
        black_box(ns.record_op(dir, kind, now));
    }
    out.record_op_ns = t.elapsed().as_secs_f64() * 1e9 / ops.len().max(1) as f64;

    let mut tick = 1u64;
    out.load_samples_us = 1e6
        * per_call(200, || {
            tick += 1;
            black_box(ns.mds_load_samples(num_mds, SimTime::from_secs(tick)));
        });
    let (mut m, mut most) = (0, 0);
    out.export_candidates_us = 1e6
        * per_call(4 * num_mds as u32, || {
            m = (m + 1) % num_mds;
            let c = ns.export_candidate_dirs(m);
            most = most.max(c.len());
            black_box(c);
        });
    out.max_candidates = most;
    let mut p = 0;
    out.mkdir_p_us = 1e6
        * per_call(20_000, || {
            p = (p + 1) % paths.len();
            black_box(ns.mkdir_p(&paths[p]));
        });
    out
}

// ---------------------------------------------------------------------
// policy, mds.balancer, mds.selector
// ---------------------------------------------------------------------

/// What the policy and balancer replays measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct PolicyCosts {
    /// One `metaload` evaluation, ns.
    pub metaload_ns: f64,
    /// One `mdsload` evaluation, ns.
    pub mdsload_ns: f64,
    /// One when/where decision over the workload's MDS count, µs.
    pub decide_us: f64,
    /// Compile + validate of the swap bundle, µs.
    pub prepare_us: f64,
    /// One balancer tick — every MDS decides and plans its exports — µs.
    pub tick_us: f64,
    /// One dirfrag selection over the workload's candidate count, µs.
    pub select_us: f64,
}

fn mds_metrics(i: usize, n: usize) -> MdsMetrics {
    // A skewed cluster: rank 0 hottest, load falling off with rank.
    let load = 100.0 / (1 + i) as f64 + 10.0 * ((n - i) as f64 / n as f64);
    MdsMetrics {
        auth: load,
        all: load * 1.1,
        cpu: 60.0,
        mem: 25.0,
        q: 1.0,
        req: 40.0,
        cache_hits: 0.0,
        cache_misses: 0.0,
    }
}

/// Compile + validate of the bundle the swap workload sends, µs.
pub fn prepare_us() -> f64 {
    let source = policy_source_from_json(&bundle("bench-a")).expect("bench-a is well-formed");
    1e6 * per_call(50, || {
        black_box(prepare(&source).expect("bench-a validates"));
    })
}

/// Replay the policy hooks, one balancer tick and one selection at the
/// workload's MDS and candidate counts, against the namespace the
/// namespace replay left behind.
pub fn policy_costs(
    policy: &PolicySet,
    ns: &mut Namespace,
    num_mds: usize,
    candidates: usize,
) -> PolicyCosts {
    let rt = MantleRuntime::new(policy.clone());
    let frag = FragMetrics {
        ird: 3.0,
        iwr: 5.0,
        readdir: 1.0,
        fetch: 0.5,
        store: 0.25,
    };
    let metaload_ns = 1e9
        * per_call(200_000, || {
            black_box(
                rt.eval_metaload(0, black_box(&frag))
                    .expect("metaload evaluates"),
            );
        });
    let fields = [80.0, 90.0, 60.0, 25.0, 1.0, 40.0, 0.0, 0.0];
    let mdsload_ns = match rt.mdsload_scalar() {
        Some(scalar) => {
            1e9 * per_call(200_000, || {
                black_box(scalar.eval(black_box(&fields)));
            })
        }
        None => 0.0,
    };
    let inputs = BalancerInputs {
        whoami: 0,
        mds: (0..num_mds).map(|i| mds_metrics(i, num_mds)).collect(),
        auth_metaload: mds_metrics(0, num_mds).auth,
        all_metaload: mds_metrics(0, num_mds).all,
    };
    let decide_us = 1e6
        * per_call(2_000, || {
            black_box(rt.decide(&inputs).expect("decision evaluates"));
        });

    // One tick: every MDS runs when/where on the shared heartbeats and,
    // if it decides to shed, plans concrete exports over the namespace.
    let mut balancer =
        MantleBalancer::new_unvalidated("bench", policy.clone()).expect("preset policy compiles");
    let now = SimTime::from_secs(400);
    let (auth, rep) = ns.mds_load_samples(num_mds, now);
    let heartbeats: std::sync::Arc<[Heartbeat]> = (0..num_mds)
        .map(|m| {
            let a = balancer.metaload(&auth[m]).unwrap_or(0.0);
            let r = balancer.metaload(&rep[m]).unwrap_or(0.0);
            Heartbeat {
                auth_metaload: a,
                all_metaload: a + 0.2 * r,
                cpu: 60.0,
                mem: 25.0,
                queue_len: 1.0,
                req_rate: 40.0,
                cache_hits: 0.0,
                cache_misses: 0.0,
                taken_at: now,
            }
        })
        .collect();
    let tick_us = 1e6
        * per_call(20, || {
            for whoami in 0..num_mds {
                let ctx = BalanceContext {
                    whoami,
                    heartbeats: std::sync::Arc::clone(&heartbeats),
                };
                if let Ok(Some(plan)) = balancer.decide(&ctx) {
                    black_box(plan_exports(ns, whoami, &balancer, &plan, now).ok());
                }
            }
        });

    let selectors: Vec<DirfragSelector> = rt
        .selectors()
        .iter()
        .filter_map(|name| DirfragSelector::parse(name))
        .collect();
    let loads: Vec<f64> = (1..=candidates.max(2)).map(|r| 100.0 / r as f64).collect();
    let target = loads.iter().sum::<f64>() / 2.0;
    let select_us = if selectors.is_empty() {
        0.0
    } else {
        1e6 * per_call(2_000, || {
            black_box(select_best(&selectors, black_box(&loads), target));
        })
    };
    PolicyCosts {
        metaload_ns,
        mdsload_ns,
        decide_us,
        prepare_us: prepare_us(),
        tick_us,
        select_us,
    }
}

/// The replays every workload shares — event queue, namespace, policy,
/// balancer tick, selector — at the workload's shape, each under its own
/// span, written into `layers`.
#[allow(clippy::too_many_arguments)]
pub fn shared_replays(
    layers: &mut Layers,
    spans: &mut Spans,
    parent: SpanId,
    ns: &mut Namespace,
    ranked: &[NodeId],
    paths: &[String],
    ops: &[(NodeId, OpKind)],
    policy: &PolicySet,
    num_mds: usize,
    queue_depth: usize,
    queue_ops: u32,
    migrations: usize,
) {
    let (heap, _) = spans.time("replay.sim.queue.heap", Some(parent), || {
        queue_ns_per_push_pop(SchedulerKind::Heap, queue_depth, queue_ops)
    });
    let (wheel, _) = spans.time("replay.sim.queue.wheel", Some(parent), || {
        queue_ns_per_push_pop(SchedulerKind::Wheel, queue_depth, queue_ops)
    });
    layers.set("sim.queue.heap_ns_per_push_pop", heap);
    layers.set("sim.queue.wheel_ns_per_push_pop", wheel);

    let (nsc, _) = spans.time("replay.namespace", Some(parent), || {
        namespace_costs(ns, ranked, paths, ops, num_mds, migrations)
    });
    layers.set("namespace.migrate_subtree_us", nsc.migrate_subtree_us);
    layers.set("namespace.record_op_ns", nsc.record_op_ns);
    layers.set("namespace.load_samples_us_per_tick", nsc.load_samples_us);
    layers.set("namespace.export_candidates_us", nsc.export_candidates_us);
    layers.set("namespace.mkdir_p_us", nsc.mkdir_p_us);

    let (pc, _) = spans.time("replay.policy", Some(parent), || {
        policy_costs(policy, ns, num_mds, nsc.max_candidates)
    });
    layers.set("policy.metaload_ns", pc.metaload_ns);
    layers.set("policy.mdsload_ns", pc.mdsload_ns);
    layers.set("policy.decide_us", pc.decide_us);
    layers.set("policy.prepare_us", pc.prepare_us);
    layers.set("mds.balancer.tick_us", pc.tick_us);
    layers.set("mds.selector.select_us", pc.select_us);
}
