//! The cluster simulation: clients, MDS queues, heartbeats, balancer
//! ticks, and migrations, driven by a conservative windowed event loop
//! that runs single-threaded or sharded across worker threads
//! ([`crate::config::ExecMode`]) with byte-identical results.
//!
//! # Engine shape
//!
//! The data plane (clients, requests, per-MDS service queues) lives in
//! [`Shard`]s — see [`crate::shard`] for the partitioning and determinism
//! story. This module owns the **coordinator**: the control plane
//! (heartbeats, balancer ticks, migrations, faults, admin actions) plus
//! the window scheduler that alternates between
//!
//! 1. **windows** — every shard concurrently drains its events inside
//!    `[base, base + lookahead)`, then a barrier applies deferred
//!    namespace mutations in global `(time, key)` order and exchanges
//!    cross-shard messages, and
//! 2. **exclusive steps** — global events (heartbeat ticks, faults,
//!    admin actions) run alone between windows with write access to
//!    everything, exactly like the old sequential engine.
//!
//! Both [`ExecMode::Single`] and [`ExecMode::Sharded`] drive the *same*
//! loop; `Single` simply runs the one shard inline on the calling thread.
//! Window boundaries, event keys, and barrier effects are all
//! shard-count-invariant, so a fixed seed produces byte-identical
//! [`RunReport`]s and traces at any thread count.

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use mantle_namespace::{MdsId, Namespace, NodeId, NsConfig, SubtreeMigration};
use mantle_sim::{EventQueue, SimRng, SimTime, Summary};

use crate::balancer::{BalanceContext, Balancer, CephfsBalancer, MigrationPlan};
use crate::cache::{GroupCache, IntervalRegion};
use crate::client::{ClientState, Workload};
use crate::config::{ClusterConfig, ExecMode};
use crate::elastic::rendezvous_owner;
use crate::faults::FaultKind;
use crate::metrics::{Heartbeat, MdsCounters};
use crate::partition::{plan_exports, Export, ExportUnit};
use crate::report::{ClientReport, MdsReport, RunReport};
use crate::shard::{
    DeferredNsOp, Event, ExecStats, NsOp, Shard, ShardRouter, SharedSim, SpinBarrier,
    SubtreeWindow, TraceKey,
};
use crate::trace::{TraceBuffer, TraceEvent, TraceLevel, TraceRecord};

/// A balancer that never migrates — used for static-partition experiments
/// (the "high locality" / "spread" setups of Fig. 3).
#[derive(Debug, Default, Clone)]
pub struct NoopBalancer;

impl Balancer for NoopBalancer {
    fn name(&self) -> &str {
        "none"
    }
    fn metaload(&self, heat: &mantle_namespace::HeatSample) -> mantle_policy::PolicyResult<f64> {
        Ok(heat.cephfs_metaload())
    }
    fn metaload_is_additive(&self) -> bool {
        true
    }
    fn decide(
        &mut self,
        _ctx: &BalanceContext,
    ) -> mantle_policy::PolicyResult<Option<crate::balancer::MigrationPlan>> {
        Ok(None)
    }
}

/// A scheduled control-plane mutation, run in an exclusive step.
#[allow(clippy::large_enum_variant)] // few instances, never collection-heavy
enum AdminOp {
    /// A namespace edit (manual repartition etc.).
    Ns(Box<dyn FnOnce(&mut Namespace) + Send>),
    /// A hot policy install: swap every MDS's balancer for a fresh one
    /// built from an already-validated policy. In-flight decisions are
    /// untouched — balancers only ever run inside exclusive heartbeat
    /// steps, so a decision that started before the swap has already
    /// finished on the old policy by the time this op runs.
    Swap {
        name: String,
        epoch: u64,
        set: mantle_policy::env::PolicySet,
        /// Acked with the simulated install instant.
        ack: std::sync::mpsc::Sender<Result<SimTime, String>>,
    },
}

/// A control-plane event. Globals always run in exclusive steps — never
/// concurrently with a window — because they read and write cluster-wide
/// state (the namespace, every shard's counters, liveness).
#[derive(Debug)]
enum GlobalEvent {
    /// Cluster-wide heartbeat + balancer tick.
    Heartbeat,
    /// A scheduled administrative action (manual repartition etc.).
    Admin(usize),
    /// A scheduled fault from the [`crate::faults::FaultPlan`] fires.
    Fault(usize),
}

/// The control plane. Lives on the coordinating thread for the whole
/// run; worker threads never touch it (balancers and the trace handle
/// are deliberately not `Sync`).
struct Coordinator {
    cfg: ClusterConfig,
    balancers: Vec<Box<dyn Balancer>>,
    /// CPU/metaload measurement noise. Coordinator-only, consumed in MDS
    /// order once per tick — identical in every execution mode.
    rng_cpu: SimRng,
    globals: EventQueue<GlobalEvent>,
    admin_actions: Vec<Option<AdminOp>>,
    /// A hot-swap ack was sent since the service pump last looked: the
    /// pump owes the consumer a notification even if no event batch
    /// follows (tracing may be off).
    swap_acked: bool,
    /// Count of balancer hook errors (bad policies surface here).
    policy_errors: u64,
    /// Balancers whose hooks were poisoned mid-run (every decide errors).
    poisoned: Vec<bool>,
    /// Consecutive balancer errors per MDS; reaching
    /// `faults.fallback_after` swaps in the default CephFS balancer.
    consecutive_policy_errors: Vec<u32>,
    /// Heartbeat outage windows: while dropping, readers see the snapshot
    /// frozen at the window start; while delaying, the previous tick's.
    hb_drop_until: Vec<SimTime>,
    hb_delay_until: Vec<SimTime>,
    hb_frozen: Vec<Option<Heartbeat>>,
    hb_published: Vec<Heartbeat>,
    /// The configured balancer's name, pinned at construction so a
    /// mid-run fallback doesn't relabel the report.
    balancer_name: String,
    workload_name: String,
    failovers: u64,
    balancer_fallbacks: u64,
    /// Cache entries dropped by coherence invalidation (mutating ops,
    /// migrations/session flushes), across group and client caches.
    cache_invalidations: u64,
    /// Optional trace sink ([`Cluster::enable_tracing`]). `None` costs one
    /// branch per emission site and never builds event payloads, so
    /// untraced fixed-seed runs stay byte-identical.
    trace: Option<Rc<RefCell<TraceBuffer>>>,
    /// The sink's level is Full (mirrors the shards' `trace_full` so the
    /// coordinator can gate its own data-plane emissions — barrier-time
    /// cache fills/invalidations — without borrowing the sink).
    trace_full: bool,
    /// Coordinator-side trace records with their merge keys. Coordinator
    /// emissions carry origin rank 0, so at equal timestamps they sort
    /// before every shard emission — matching the exclusive-step /
    /// barrier ordering that produced them.
    ctrace: Vec<(TraceKey, TraceRecord)>,
    /// Monotonic rank-0 key counter.
    coord_ctr: u64,
    /// Latest timestamp the coordinator emitted at (barrier emissions can
    /// postdate the last processed event; `RunEnd` must not precede them).
    last_emit_at: SimTime,
    /// Heartbeat epoch: balancer ticks completed so far (stamps records;
    /// mirrored into [`SharedSim`] for the shards).
    hb_epoch: u64,
    /// Directories already announced to the trace (`DirAdded` watermark).
    traced_dirs: u32,
    /// Migration counter: ids shared by the freeze→…→unfreeze phases.
    mig_seq: u64,
    faults_active: bool,
    /// MDS-join transitions taken by the elastic controller.
    joins: u64,
    /// MDS-leave (drain) transitions taken by the elastic controller.
    leaves: u64,
    /// Current member count (mirrors [`SharedSim::member`]; drives the
    /// MDS-seconds accrual).
    active_count: usize,
    /// Provisioned MDS-time accrued so far: the integral of the member
    /// count over virtual time, in seconds (the ops/s-per-MDS-hour
    /// denominator). With elasticity off this is `num_mds × makespan`.
    mds_seconds: f64,
    /// Instant up to which [`Coordinator::mds_seconds`] has been accrued.
    last_accrual: SimTime,
    /// Reused per-tick load accumulators (heartbeat snapshots).
    scratch_auth_load: Vec<f64>,
    scratch_all_load: Vec<f64>,
    /// Reused directory-list buffer (non-additive metaload walks).
    scratch_dirs: Vec<NodeId>,
    /// Reused barrier buffers (merged deferred ops, split-check worklist).
    scratch_deferred: Vec<DeferredNsOp>,
    scratch_touched: Vec<NodeId>,
    touched_seen: HashSet<NodeId>,
}

impl Coordinator {
    /// Emit a control-plane event (recorded at every trace level). The
    /// payload closure only runs when a sink is attached.
    fn emit(&mut self, at: SimTime, make: impl FnOnce() -> TraceEvent) {
        if self.trace.is_none() {
            return;
        }
        let record = TraceRecord {
            at,
            epoch: self.hb_epoch,
            event: make(),
        };
        self.ctrace.push(((at, self.coord_ctr, 0), record));
        self.coord_ctr += 1;
        if at > self.last_emit_at {
            self.last_emit_at = at;
        }
    }

    /// Emit a data-plane record from the coordinator (recorded only at
    /// `TraceLevel::Full`): barrier-applied cache fills/invalidations.
    fn emit_data(&mut self, at: SimTime, make: impl FnOnce() -> TraceEvent) {
        if self.trace_full {
            self.emit(at, make);
        }
    }

    /// Announce directories created since the last sync (workload setup,
    /// admin repartitions) so the checker's tree model stays complete.
    fn sync_dirs(&mut self, ns: &Namespace, at: SimTime) {
        if self.trace.is_none() {
            return;
        }
        let total = ns.dir_count() as u32;
        while self.traced_dirs < total {
            let id = NodeId(self.traced_dirs);
            let (parent, files) = {
                let d = ns.dir(id);
                (
                    d.parent,
                    d.frags.iter().map(|f| f.files).collect::<Vec<_>>(),
                )
            };
            self.emit(at, || TraceEvent::DirAdded {
                dir: id,
                parent,
                files,
            });
            self.traced_dirs += 1;
        }
    }

    /// Emit the complete explicit-authority state. Used at the preamble
    /// and after admin actions, which mutate authority outside the traced
    /// event flow.
    fn emit_auth_snapshot(&mut self, ns: &Namespace, at: SimTime) {
        if self.trace.is_none() {
            return;
        }
        let mut dirs = Vec::new();
        let mut frags = Vec::new();
        let all: Vec<NodeId> = ns.all_dirs().collect();
        for d in all {
            let dir = ns.dir(d);
            if let Some(m) = dir.auth {
                dirs.push((d, m));
            }
            for (f, frag) in dir.frags.iter().enumerate() {
                if let Some(m) = frag.auth {
                    frags.push((d, f, m));
                }
            }
        }
        self.emit(at, || TraceEvent::AuthSnapshot { dirs, frags });
    }

    /// Record a failed balancer tick on `mds`; after
    /// `faults.fallback_after` consecutive failures the MDS swaps in the
    /// default CephFS balancer (§3.4's graceful degradation).
    fn note_policy_error(&mut self, mds: MdsId, now: SimTime) {
        self.policy_errors += 1;
        self.consecutive_policy_errors[mds] += 1;
        let consecutive = self.consecutive_policy_errors[mds];
        self.emit(now, || TraceEvent::PolicyError { mds, consecutive });
        let k = self.cfg.faults.fallback_after;
        if k > 0 && self.consecutive_policy_errors[mds] >= k {
            self.balancers[mds] = Box::new(CephfsBalancer::default());
            self.poisoned[mds] = false;
            self.consecutive_policy_errors[mds] = 0;
            self.balancer_fallbacks += 1;
            self.emit(now, || TraceEvent::BalancerFallback { mds });
        }
    }
}

/// The simulated cluster. Build one, optionally schedule admin actions,
/// then [`Cluster::run`] it to completion.
pub struct Cluster {
    co: Coordinator,
    shared: SharedSim,
    shards: Vec<Mutex<Shard>>,
    router: ShardRouter,
    /// Conservative window width: no simulated interaction crosses shards
    /// faster than this (the minimum of half an RTT and a forward hop).
    lookahead: SimTime,
}

impl Cluster {
    /// Build a cluster. `make_balancer` is invoked once per MDS — each MDS
    /// runs its own independent balancer instance, as in the paper.
    pub fn new<F>(cfg: ClusterConfig, mut workload: Box<dyn Workload>, mut make_balancer: F) -> Self
    where
        F: FnMut(MdsId) -> Box<dyn Balancer>,
    {
        let mut ns = Namespace::new(NsConfig {
            frag_split_threshold: cfg.frag_split_threshold,
            decay_half_life: cfg.decay_half_life,
            index_mode: cfg.index_mode,
            ..Default::default()
        });
        workload.setup(&mut ns);
        let n = cfg.num_mds;
        let num_clients = workload.num_clients();
        let shards_wanted = cfg.exec_mode.shards();
        let router = ShardRouter::new(n, num_clients, shards_wanted);
        let master = SimRng::new(cfg.seed);
        let balancers: Vec<Box<dyn Balancer>> = (0..n).map(&mut make_balancer).collect();
        let balancer_name = balancers
            .first()
            .map(|b| b.name().to_string())
            .unwrap_or_default();
        let faults_active = cfg.faults.is_active();
        let initial_members = cfg.elastic.initial(n);
        // Every shard gets a fork of the post-setup workload and the
        // contiguous slice of clients it owns; forks only ever see their
        // own clients, so per-client op streams are partition-invariant.
        let mut rest: Vec<ClientState> = (0..num_clients).map(ClientState::new).collect();
        let shards: Vec<Mutex<Shard>> = (0..router.num_shards())
            .map(|s| {
                let take = router.clients_of_shard(s).len();
                let remaining = rest.split_off(take);
                let mine = std::mem::replace(&mut rest, remaining);
                Mutex::new(Shard::new(
                    s,
                    &router,
                    cfg.clone(),
                    workload.fork(),
                    mine,
                    &master,
                    false,
                ))
            })
            .collect();
        let half_rtt = SimTime::from_micros_f64(cfg.costs.rtt_us / 2.0);
        let hop = SimTime::from_micros_f64(cfg.costs.forward_hop_us);
        // Degenerate zero-latency configs still need forward progress.
        let lookahead = half_rtt.min(hop).max(SimTime::from_micros(1));
        let co = Coordinator {
            balancers,
            rng_cpu: master.stream("cpu-noise"),
            globals: EventQueue::with_scheduler(cfg.scheduler),
            admin_actions: Vec::new(),
            swap_acked: false,
            policy_errors: 0,
            poisoned: vec![false; n],
            consecutive_policy_errors: vec![0; n],
            hb_drop_until: vec![SimTime::ZERO; n],
            hb_delay_until: vec![SimTime::ZERO; n],
            hb_frozen: vec![None; n],
            hb_published: vec![Heartbeat::default(); n],
            balancer_name,
            workload_name: workload.name().to_string(),
            failovers: 0,
            balancer_fallbacks: 0,
            cache_invalidations: 0,
            trace: None,
            trace_full: false,
            ctrace: Vec::new(),
            coord_ctr: 0,
            last_emit_at: SimTime::ZERO,
            hb_epoch: 0,
            traced_dirs: 0,
            mig_seq: 0,
            faults_active,
            joins: 0,
            leaves: 0,
            active_count: initial_members,
            mds_seconds: 0.0,
            last_accrual: SimTime::ZERO,
            scratch_auth_load: Vec::new(),
            scratch_all_load: Vec::new(),
            scratch_dirs: Vec::new(),
            scratch_deferred: Vec::new(),
            scratch_touched: Vec::new(),
            touched_seen: HashSet::new(),
            cfg,
        };
        // Proxy-tier caches: one LRU per client group, shared by every
        // shard (read-only in windows). Empty when disabled — the inert
        // default adds no state and no per-event work.
        let caches = if co.cfg.cache.enabled {
            vec![GroupCache::new(co.cfg.cache.capacity); co.cfg.cache.groups.max(1)]
        } else {
            Vec::new()
        };
        let shared = SharedSim {
            ns,
            up: vec![true; n],
            mds_epoch: vec![0; n],
            slow_factor: vec![1.0; n],
            slow_until: vec![SimTime::ZERO; n],
            frozen: Vec::new(),
            prefix_cold: Vec::new(),
            hb_epoch: 0,
            caches,
            member: (0..n).map(|m| m < initial_members).collect(),
            membership_epoch: 0,
        };
        Cluster {
            co,
            shared,
            shards,
            router,
            lookahead,
        }
    }

    /// Attach a trace sink at `level` and return a handle to it. Call
    /// before [`Cluster::run`]; after the run (which consumes the
    /// cluster) the handle is the only owner and can be unwrapped.
    pub fn enable_tracing(&mut self, level: TraceLevel) -> Rc<RefCell<TraceBuffer>> {
        let buf = Rc::new(RefCell::new(TraceBuffer::new(
            level,
            self.co.cfg.num_mds,
            self.co.cfg.heartbeat_interval,
        )));
        self.co.trace = Some(Rc::clone(&buf));
        let full = level == TraceLevel::Full;
        self.co.trace_full = full;
        for m in &self.shards {
            m.lock()
                .expect("no running workers before run()")
                .trace_full = full;
        }
        buf
    }

    /// Mutable access to the namespace before the run (static partitions).
    pub fn namespace_mut(&mut self) -> &mut Namespace {
        &mut self.shared.ns
    }

    /// Balancer hook errors recorded so far (meaningful after the run).
    pub fn policy_errors(&self) -> u64 {
        self.co.policy_errors
    }

    /// Schedule an administrative action (e.g. a manual repartition) at a
    /// point in virtual time.
    pub fn schedule_admin<F>(&mut self, at: SimTime, action: F)
    where
        F: FnOnce(&mut Namespace) + Send + 'static,
    {
        let idx = self.co.admin_actions.len();
        self.co
            .admin_actions
            .push(Some(AdminOp::Ns(Box::new(action))));
        self.co.globals.schedule_at(at, GlobalEvent::Admin(idx));
    }

    /// Run to completion and produce the report.
    pub fn run(self) -> RunReport {
        self.run_with_stats().0
    }

    /// Run to completion, also returning execution statistics (thread
    /// count, windows, per-shard event/message/barrier-stall breakdown).
    /// The [`RunReport`] is identical in every [`ExecMode`]; the
    /// [`ExecStats`] are a wall-clock side channel.
    pub fn run_with_stats(self) -> (RunReport, ExecStats) {
        self.run_inner(None)
    }

    /// Run as a live service: the engine loop additionally pumps `svc` —
    /// draining submitted ops and policy installs before each scheduler
    /// iteration and streaming trace records and completions after it —
    /// and, under [`ClockMode::Wall`], paces event processing so
    /// simulated time tracks wall time. Returns when the service is shut
    /// down ([`crate::service::ServiceHandle::shutdown`]) and every
    /// client has drained, or when the (scripted) workload finishes.
    ///
    /// With [`ClockMode::Sim`], an empty inbox, and a scripted workload
    /// this is behaviorally identical to [`Cluster::run_with_stats`]:
    /// the pump observes the run without perturbing event order, which
    /// is what `tests/daemon_equivalence.rs` pins byte-for-byte.
    ///
    /// `trace` optionally attaches a trace sink whose records are
    /// streamed live as [`ServiceEvent::Trace`] batches instead of
    /// accumulating; the returned buffer holds the per-tick
    /// [`crate::trace::Timeline`] and nothing else.
    ///
    /// [`ClockMode::Wall`]: mantle_sim::ClockMode::Wall
    /// [`ClockMode::Sim`]: mantle_sim::ClockMode::Sim
    /// [`ServiceEvent::Trace`]: crate::service::ServiceEvent::Trace
    pub fn serve(
        self,
        svc: crate::service::LiveService,
        trace: Option<TraceLevel>,
    ) -> (RunReport, Option<TraceBuffer>) {
        let (report, buffer, _stats) = self.serve_with_stats(svc, trace);
        (report, buffer)
    }

    /// [`Cluster::serve`], also returning the execution stats (the live
    /// path's tests count events with them).
    pub(crate) fn serve_with_stats(
        mut self,
        svc: crate::service::LiveService,
        trace: Option<TraceLevel>,
    ) -> (RunReport, Option<TraceBuffer>, ExecStats) {
        let sink = trace.map(|l| self.enable_tracing(l));
        for m in &self.shards {
            m.lock().expect("no workers before serve()").live = true;
        }
        let mut pump = ServicePump {
            inbox: svc.inbox,
            events: svc.events,
            clock: svc.clock,
            wall: mantle_sim::WallClock::start(),
            queues: svc.queues,
            notify: svc.notify,
        };
        let (report, stats) = self.run_inner(Some(&mut pump));
        // Stream the tail: records merged after the loop's last pump
        // (including the RunEnd trailer) still belong on the wire.
        let buffer = sink.map(|s| {
            let mut buf = Rc::try_unwrap(s)
                .expect("serve consumed the cluster; the sink is the sole owner")
                .into_inner();
            let tail = std::mem::take(buf.records_mut());
            if !tail.is_empty() {
                let _ = pump.events.send(crate::service::ServiceEvent::Trace(tail));
                pump.notify();
            }
            buf
        });
        (report, buffer, stats)
    }

    fn run_inner(mut self, pump: Option<&mut ServicePump>) -> (RunReport, ExecStats) {
        let k = self.router.num_shards();
        let trace_on = self.co.trace.is_some();
        // Trace preamble: stream header, the setup-time tree, and the
        // explicit authority state (static partitions applied before run).
        if trace_on {
            let num_mds = self.co.cfg.num_mds;
            let fallback_after = self.co.cfg.faults.fallback_after;
            let level = self
                .co
                .trace
                .as_ref()
                .map(|t| t.borrow().level)
                .expect("trace checked above");
            let heartbeat_us = self.co.cfg.heartbeat_interval.as_micros();
            self.co.emit(SimTime::ZERO, || TraceEvent::RunStart {
                num_mds,
                fallback_after,
                level,
                heartbeat_us,
            });
            let ns = std::mem::take(&mut self.shared.ns);
            self.co.sync_dirs(&ns, SimTime::ZERO);
            self.co.emit_auth_snapshot(&ns, SimTime::ZERO);
            self.shared.ns = ns;
        }
        // Kick off every client (client-rank keys preserve global client
        // order for the time-zero ties) and the heartbeat cycle.
        for m in &self.shards {
            let mut g = m.lock().expect("no workers yet");
            for c in self.router.clients_of_shard(g.id) {
                let key = g.client_key(c);
                g.queue
                    .schedule_at_key(SimTime::ZERO, key, Event::ClientNext(c));
            }
        }
        self.co
            .globals
            .schedule_at(self.co.cfg.heartbeat_interval, GlobalEvent::Heartbeat);
        for i in 0..self.co.cfg.faults.events.len() {
            let at = self.co.cfg.faults.events[i].at;
            self.co.globals.schedule_at(at, GlobalEvent::Fault(i));
        }

        let mut stats = ExecStats {
            threads: k,
            windows: 0,
            exclusive_events: 0,
            shards: Vec::new(),
        };
        let shared = RwLock::new(self.shared);
        let last_now = {
            let co = &mut self.co;
            let shards = &self.shards[..];
            let router = &self.router;
            let lookahead = self.lookahead;
            match co.cfg.exec_mode {
                ExecMode::Single => {
                    let mut run_window = |window_end: SimTime| {
                        let sh = shared.read().expect("sim lock");
                        for m in shards {
                            m.lock()
                                .expect("shard lock")
                                .process_window(&sh, router, window_end);
                        }
                    };
                    run_loop(
                        co,
                        &shared,
                        shards,
                        router,
                        lookahead,
                        &mut stats,
                        &mut run_window,
                        pump,
                    )
                }
                ExecMode::Sharded { .. } => {
                    // Thread-per-shard: workers park on a start barrier,
                    // read the window command, drain their slice, and park
                    // on the end barrier while the coordinator applies the
                    // barrier effects. `u64::MAX` terminates.
                    let cmd = AtomicU64::new(0);
                    let start = SpinBarrier::new(k + 1);
                    let end = SpinBarrier::new(k + 1);
                    std::thread::scope(|scope| {
                        for m in shards {
                            let (shared, cmd, start, end) = (&shared, &cmd, &start, &end);
                            scope.spawn(move || loop {
                                let t0 = std::time::Instant::now();
                                start.wait();
                                let wait_ns = t0.elapsed().as_nanos() as u64;
                                let c = cmd.load(Ordering::Acquire);
                                if c == u64::MAX {
                                    break;
                                }
                                let sh = shared.read().expect("sim lock");
                                let mut g = m.lock().expect("shard lock");
                                g.stats.barrier_wait_ns += wait_ns;
                                g.process_window(&sh, router, SimTime::from_micros(c));
                                drop(g);
                                drop(sh);
                                end.wait();
                            });
                        }
                        let mut run_window = |window_end: SimTime| {
                            cmd.store(window_end.as_micros(), Ordering::Release);
                            start.wait();
                            end.wait();
                        };
                        let res = run_loop(
                            co,
                            &shared,
                            shards,
                            router,
                            lookahead,
                            &mut stats,
                            &mut run_window,
                            pump,
                        );
                        cmd.store(u64::MAX, Ordering::Release);
                        start.wait();
                        res
                    })
                }
            }
        };
        let shared = shared.into_inner().expect("workers joined");
        let membership_epoch = shared.membership_epoch;
        let mut shard_objs: Vec<Shard> = self
            .shards
            .into_iter()
            .map(|m| m.into_inner().expect("workers joined"))
            .collect();
        let inflight: i64 = shard_objs.iter().map(|s| s.inflight).sum();
        let mut co = self.co;
        if trace_on {
            // RunEnd is the stream trailer: it must sort after everything,
            // including barrier emissions stamped past the last event.
            let end_at = last_now.max(co.last_emit_at);
            let inflight = inflight.max(0) as usize;
            co.ctrace.push((
                (end_at, u64::MAX, 0),
                TraceRecord {
                    at: end_at,
                    epoch: co.hb_epoch,
                    event: TraceEvent::RunEnd { inflight },
                },
            ));
            // Merge every per-shard slice with the coordinator's records.
            // Keys are globally unique, so the sort is a total order — the
            // exact sequence a sequential engine would have emitted.
            let mut all = std::mem::take(&mut co.ctrace);
            for s in &mut shard_objs {
                all.append(&mut s.trace);
            }
            all.sort_unstable_by_key(|(k, _)| *k);
            let sink = co.trace.as_ref().expect("trace checked above");
            let mut buf = sink.borrow_mut();
            for (_, r) in all {
                buf.push(r);
            }
        }
        stats.shards = shard_objs.iter().map(|s| s.stats).collect();
        (into_report(co, shard_objs, membership_epoch), stats)
    }
}

/// The shared window scheduler. `run_window` executes one window over
/// every shard (inline or via worker threads); everything else — gather,
/// exclusive global steps, barriers — is identical in both modes.
/// Returns the timestamp of the last processed event.
///
/// `pump` is the live-service hook ([`Cluster::serve`]): drained before
/// the gather (command injection + wall pacing) and after each step
/// (trace/completion streaming). Batch runs pass `None`, which skips
/// both calls entirely — the scheduler's decisions are untouched.
#[allow(clippy::too_many_arguments)]
fn run_loop(
    co: &mut Coordinator,
    shared: &RwLock<SharedSim>,
    shards: &[Mutex<Shard>],
    router: &ShardRouter,
    lookahead: SimTime,
    stats: &mut ExecStats,
    run_window: &mut dyn FnMut(SimTime),
    mut pump: Option<&mut ServicePump>,
) -> SimTime {
    let max_d = co.cfg.max_duration;
    // Events at exactly `max_duration` still run (strict-less windows).
    let hard_end = max_d + SimTime::from_micros(1);
    let mut last_now = SimTime::ZERO;
    loop {
        if let Some(p) = pump.as_deref_mut() {
            pump_pre(p, co, shared, shards, router, last_now);
        }
        // Gather: next event time, liveness, and conservation counts.
        let mut t_shard: Option<SimTime> = None;
        let mut active = 0usize;
        let mut inflight = 0i64;
        for m in shards {
            let g = m.lock().expect("shard lock");
            if let Some(t) = g.queue.peek_time() {
                t_shard = Some(t_shard.map_or(t, |x: SimTime| x.min(t)));
            }
            active += g.active;
            inflight += g.inflight;
            if g.last_event > last_now {
                last_now = g.last_event;
            }
        }
        if active == 0 && inflight == 0 {
            break;
        }
        let t_glob = co.globals.peek_time();
        let t_min = match (t_shard, t_glob) {
            (None, None) => break,
            (a, b) => a.into_iter().chain(b).min().expect("one is Some"),
        };
        if t_min > max_d {
            break;
        }
        // Globals run exclusively, winning same-instant ties — the
        // heartbeat at T sees the world as of T, before events at T.
        let global_first = match (t_glob, t_shard) {
            (Some(tg), Some(ts)) => tg <= ts,
            (Some(_), None) => true,
            _ => false,
        };
        if global_first {
            let (tg, gev) = co.globals.pop().expect("peeked above");
            last_now = last_now.max(tg);
            let mut sh = shared.write().expect("sim lock");
            let mut guards: Vec<MutexGuard<Shard>> = shards
                .iter()
                .map(|m| m.lock().expect("shard lock"))
                .collect();
            exclusive_step(co, &mut sh, &mut guards, router, gev, tg);
            stats.exclusive_events += 1;
        } else {
            let base = t_shard.expect("not global_first");
            let mut window_end = (base + lookahead).min(hard_end);
            if let Some(tg) = t_glob {
                window_end = window_end.min(tg);
            }
            run_window(window_end);
            stats.windows += 1;
            let mut sh = shared.write().expect("sim lock");
            let mut guards: Vec<MutexGuard<Shard>> = shards
                .iter()
                .map(|m| m.lock().expect("shard lock"))
                .collect();
            barrier_apply(co, &mut sh, &mut guards, router, window_end);
        }
        if let Some(p) = pump.as_deref_mut() {
            pump_post(p, co, shards);
        }
    }
    if let Some(p) = pump {
        pump_post(p, co, shards);
    }
    last_now
}

/// Live-service driver state: the engine side of a
/// [`crate::service::LiveService`], pumped by [`run_loop`].
struct ServicePump {
    inbox: Arc<crate::service::Inbox>,
    events: std::sync::mpsc::Sender<crate::service::ServiceEvent>,
    clock: mantle_sim::ClockMode,
    wall: mantle_sim::WallClock,
    queues: Option<Arc<crate::service::LiveQueues>>,
    notify: Option<Box<dyn Fn() + Send>>,
}

impl ServicePump {
    /// Tell the consumer a message is waiting (an event batch or an ack).
    fn notify(&self) {
        if let Some(notify) = &self.notify {
            notify();
        }
    }
}

/// Drain the service inbox into the engine — waking the parked clients
/// the commands concern — then wait: under the wall clock until the next
/// event falls due or a command arrives, under the simulated clock only
/// for a command, and only when there is nothing else to do.
fn pump_pre(
    pump: &mut ServicePump,
    co: &mut Coordinator,
    shared: &RwLock<SharedSim>,
    shards: &[Mutex<Shard>],
    router: &ShardRouter,
    last_now: SimTime,
) {
    use crate::service::ServiceCmd;
    let mut drained: Vec<ServiceCmd> = Vec::new();
    loop {
        drained.extend(
            pump.inbox
                .queue
                .lock()
                .expect("service inbox never poisoned")
                .drain(..),
        );
        // The time frontier: the instant of the last event anyone
        // processed. `last_now` was gathered before the latest window, so
        // the shards' own marks complete it.
        let frontier = shards
            .iter()
            .map(|m| m.lock().expect("shard lock").last_event)
            .fold(last_now, SimTime::max);
        // Where a woken client resumes. A wall-paced engine that sat idle
        // has a frontier as old as its last event, but the command
        // arrived now: stamp it with the simulated instant it arrived at.
        let wake_at = match pump.clock {
            mantle_sim::ClockMode::Sim => frontier,
            mantle_sim::ClockMode::Wall => frontier.max(pump.wall.now()),
        };
        for cmd in drained.drain(..) {
            match cmd {
                ServiceCmd::Op { client, path, kind } => {
                    let Some(queues) = &pump.queues else { continue };
                    let Some(slot) = queues.queues.get(client) else {
                        continue;
                    };
                    // Resolve (and create) the target directory now, at
                    // the engine's time frontier, so the namespace stays
                    // read-only inside windows and the trace stream
                    // announces the dir before any op touches it.
                    let dir = {
                        let mut sh = shared.write().expect("sim lock");
                        let dir = sh.ns.mkdir_p(&path);
                        co.sync_dirs(&sh.ns, last_now);
                        dir
                    };
                    slot.lock()
                        .expect("live queue never poisoned")
                        .push_back(crate::client::ClientOp { dir, kind });
                    shards[router.client_shard[client]]
                        .lock()
                        .expect("shard lock")
                        .wake_client(client, wake_at);
                }
                ServiceCmd::Install {
                    name,
                    epoch,
                    set,
                    ack,
                } => {
                    // Queue the swap as a regular admin event at the time
                    // frontier: the very next scheduler iteration runs it
                    // in an exclusive step (globals win same-instant
                    // ties), after which every balancer tick uses the new
                    // policy.
                    let at = last_now.max(co.globals.now());
                    let idx = co.admin_actions.len();
                    co.admin_actions.push(Some(AdminOp::Swap {
                        name,
                        epoch,
                        set,
                        ack,
                    }));
                    co.globals.schedule_at(at, GlobalEvent::Admin(idx));
                }
                ServiceCmd::Shutdown => {
                    // Close the queues, then wake every parked client so
                    // each asks for its next op, gets none, and finishes.
                    let Some(queues) = &pump.queues else { continue };
                    queues.closed.store(true, Ordering::Release);
                    for (c, &shard) in router.client_shard.iter().enumerate() {
                        shards[shard]
                            .lock()
                            .expect("shard lock")
                            .wake_client(c, wake_at);
                    }
                }
            }
        }
        let mut t_shard: Option<SimTime> = None;
        let (mut active, mut inflight) = (0usize, 0i64);
        for m in shards {
            let g = m.lock().expect("shard lock");
            if let Some(t) = g.queue.peek_time() {
                t_shard = Some(t_shard.map_or(t, |x: SimTime| x.min(t)));
            }
            active += g.active;
            inflight += g.inflight;
        }
        if active == 0 && inflight == 0 {
            // Drained: the caller's liveness check ends the run. Waiting
            // here would stall shutdown until the next (now moot) global
            // event — typically a whole heartbeat interval away.
            return;
        }
        let t_glob = co.globals.peek_time();
        let wait = match pump.clock {
            mantle_sim::ClockMode::Sim => {
                // Free-running: no deadline is ever waited for. But when
                // every live session is parked, nothing is in flight and
                // no admin event is due, the only events left are future
                // heartbeats; running through them would carry an idle
                // service to its duration cap in under a second. Virtual
                // time stands still until a command gives it work.
                let idle = pump.queues.is_some()
                    && t_shard.is_none()
                    && t_glob.is_none_or(|t| t > frontier);
                if !idle {
                    return;
                }
                None
            }
            mantle_sim::ClockMode::Wall => {
                // Wall pacing: wait until the next event is due or the
                // inbox signals. Spurious wakeups just loop: the deadline
                // is re-derived every pass, so newly injected (earlier)
                // events shorten the wait and overdue backlogs skip it.
                // With every session parked the next event is a
                // heartbeat or a fault, never a client poll.
                let Some(t) = t_shard.into_iter().chain(t_glob).min() else {
                    return;
                };
                match pump.wall.until(t) {
                    Some(wait) => Some(wait),
                    None => return,
                }
            }
        };
        let q = pump
            .inbox
            .queue
            .lock()
            .expect("service inbox never poisoned");
        if q.is_empty() {
            let signal = &pump.inbox.signal;
            let poisoned = "service inbox never poisoned";
            match wait {
                Some(wait) => drop(signal.wait_timeout(q, wait).expect(poisoned)),
                None => drop(signal.wait(q).expect(poisoned)),
            }
        }
    }
}

/// Stream freshly-emitted trace records and live completions, then tell
/// the consumer if anything (a batch, or a swap ack sent by this
/// iteration's exclusive step) is waiting for it. Records are globally
/// ordered within a batch (the `(time, key)` sort), and batches are
/// time-ordered because the scheduler frontier only moves forward —
/// concatenated batches reproduce the batch-mode stream.
fn pump_post(pump: &mut ServicePump, co: &mut Coordinator, shards: &[Mutex<Shard>]) {
    let mut recs: Vec<(TraceKey, TraceRecord)> = std::mem::take(&mut co.ctrace);
    let mut comps: Vec<crate::service::LiveCompletion> = Vec::new();
    for m in shards {
        let mut g = m.lock().expect("shard lock");
        recs.append(&mut g.trace);
        comps.append(&mut g.completions);
    }
    let mut waiting = std::mem::take(&mut co.swap_acked);
    if !recs.is_empty() {
        recs.sort_unstable_by_key(|(k, _)| *k);
        let _ = pump.events.send(crate::service::ServiceEvent::Trace(
            recs.into_iter().map(|(_, r)| r).collect(),
        ));
        waiting = true;
    }
    if !comps.is_empty() {
        // Cross-shard merge: completion order is deterministic by
        // (time, client) — clients are closed-loop, so one instant never
        // holds two completions for the same client.
        comps.sort_unstable_by_key(|c| (c.at, c.client));
        let _ = pump
            .events
            .send(crate::service::ServiceEvent::Completions(comps));
        waiting = true;
    }
    if waiting {
        pump.notify();
    }
}

/// Resolve the shard owning MDS `m` out of the full guard set.
fn mds_shard<'a, 'g>(
    shards: &'a mut [MutexGuard<'g, Shard>],
    router: &ShardRouter,
    m: MdsId,
) -> &'a mut Shard {
    &mut shards[router.shard_of_mds(m)]
}

/// Window barrier: apply the window's deferred namespace mutations in
/// global `(time, key)` order, run fragment splits, deliver cross-shard
/// messages, and purge lapsed freeze/cold windows. Runs with every shard
/// locked and exclusive access to [`SharedSim`]; its effects are a pure
/// function of the merged per-shard outputs, so they are identical no
/// matter how many shards produced them.
fn barrier_apply(
    co: &mut Coordinator,
    sh: &mut SharedSim,
    shards: &mut [MutexGuard<Shard>],
    router: &ShardRouter,
    window_end: SimTime,
) {
    // Phase A — heat/size charges and hash pins, in the order a
    // sequential engine would have applied them. Splits are deliberately
    // excluded (phase B) so every charge in this window lands on the
    // fragment layout the shards routed against.
    let mut ops = std::mem::take(&mut co.scratch_deferred);
    ops.clear();
    for g in shards.iter_mut() {
        ops.append(&mut g.deferred);
    }
    ops.sort_unstable_by_key(|d| (d.at, d.key));
    let mut touched = std::mem::take(&mut co.scratch_touched);
    let mut seen = std::mem::take(&mut co.touched_seen);
    touched.clear();
    seen.clear();
    for d in ops.drain(..) {
        match d.op {
            NsOp::Record { dir, frag, kind } => {
                sh.ns.record_op_no_split(dir, frag, kind, d.at);
                if seen.insert(dir) {
                    touched.push(dir);
                }
            }
            NsOp::Pin { dir, mds } => {
                // First arrival (in key order) wins; later deferred pins
                // for the same dir are no-ops, exactly like the second
                // arrival in a sequential run.
                if sh.ns.dir(dir).auth.is_none() {
                    sh.ns.set_auth(dir, Some(mds));
                    co.emit(window_end, || TraceEvent::HashPin { dir, mds });
                }
            }
            NsOp::CacheTouch { group, dir } => {
                sh.caches[group].touch(dir);
            }
            NsOp::CacheFill { group, dir, mds } => {
                sh.caches[group].fill(&sh.ns, dir, mds);
                // Stamped at the barrier: that is when the fill takes
                // effect, and it keeps the trace order-sound (no hit in
                // a later window can precede its fill in the stream).
                co.emit_data(window_end, || TraceEvent::CacheFill { group, dir, mds });
            }
            NsOp::CacheInvalidate { dir } => {
                let mut entries = 0u64;
                for cache in &mut sh.caches {
                    entries += u64::from(cache.invalidate(dir));
                }
                if entries > 0 {
                    co.cache_invalidations += entries;
                    co.emit_data(window_end, || TraceEvent::CacheInvalidate { dir, entries });
                }
            }
        }
    }
    co.scratch_deferred = ops;
    // Phase B — fragment splits for every directory charged this window.
    // The split work is billed to the fragment's authority, which is the
    // MDS that was serving those ops.
    for dir in touched.drain(..) {
        while let Some(se) = sh.ns.check_split(dir, window_end) {
            co.emit(window_end, || TraceEvent::FragSplit {
                dir,
                frag: se.frag,
                ways: se.ways,
                resulting_frags: se.resulting_frags,
            });
            let auth = sh.ns.frag_auth(dir, se.resulting_frags - 1);
            let split_us = co.cfg.costs.split_us;
            let g = mds_shard(shards, router, auth);
            let c = g.counters_mut(auth);
            c.splits += 1;
            c.busy_window_us += split_us;
            let l = auth - g.mds_lo;
            g.next_free[l] = g.next_free[l].max(window_end) + SimTime::from_micros_f64(split_us);
        }
    }
    co.scratch_touched = touched;
    co.touched_seen = seen;
    // Deliver cross-shard messages. Order is irrelevant — every message
    // carries its total-order `(at, key)` and queues sort on it.
    let mut bin: Vec<crate::shard::CrossShardMsg> = Vec::new();
    for s in 0..shards.len() {
        for t in 0..shards.len() {
            if t == s || shards[s].outbox[t].is_empty() {
                continue;
            }
            std::mem::swap(&mut bin, &mut shards[s].outbox[t]);
            for msg in bin.drain(..) {
                shards[t].queue.schedule_at_key(msg.at, msg.key, msg.event);
            }
            std::mem::swap(&mut bin, &mut shards[s].outbox[t]);
        }
    }
    // Lapsed freeze / cold-prefix windows can only be purged here —
    // in-window readers filter by `until` and never mutate the shared set.
    sh.frozen.retain(|w| w.until > window_end);
    sh.prefix_cold.retain(|w| w.until > window_end);
}

/// Run one global (control-plane) event with exclusive access to the
/// whole simulation. Globals never overlap windows, so everything here
/// reads and writes as freely as the old sequential engine did.
fn exclusive_step(
    co: &mut Coordinator,
    sh: &mut SharedSim,
    shards: &mut [MutexGuard<Shard>],
    router: &ShardRouter,
    ev: GlobalEvent,
    now: SimTime,
) {
    match ev {
        GlobalEvent::Heartbeat => on_heartbeat(co, sh, shards, router, now),
        GlobalEvent::Admin(idx) => match co.admin_actions[idx].take() {
            Some(AdminOp::Ns(action)) => {
                action(&mut sh.ns);
                // Admin actions mutate the namespace wholesale;
                // re-announce new dirs and the authority state.
                co.sync_dirs(&sh.ns, now);
                co.emit_auth_snapshot(&sh.ns, now);
            }
            Some(AdminOp::Swap {
                name,
                epoch,
                set,
                ack,
            }) => install_policy(co, name, epoch, set, ack, now),
            None => {}
        },
        GlobalEvent::Fault(idx) => on_fault(co, sh, shards, router, idx, now),
    }
}

/// Run a hot policy install inside an exclusive step: build one fresh
/// balancer per MDS from the validated policy, swap the whole set, and
/// stamp the install epoch into the trace stream. Building happens here
/// (not on the submitting thread) because balancer runtimes are
/// deliberately not `Send`; the raw [`PolicySet`] is.
fn install_policy(
    co: &mut Coordinator,
    name: String,
    epoch: u64,
    set: mantle_policy::env::PolicySet,
    ack: std::sync::mpsc::Sender<Result<SimTime, String>>,
    now: SimTime,
) {
    let n = co.cfg.num_mds;
    let built: Result<Vec<Box<dyn Balancer>>, mantle_policy::PolicyError> = (0..n)
        .map(|_| {
            crate::balancer::MantleBalancer::new_unvalidated(name.clone(), set.clone())
                .map(|b| Box::new(b) as Box<dyn Balancer>)
        })
        .collect();
    match built {
        Ok(balancers) => {
            co.balancers = balancers;
            // A fresh policy gets a clean slate: prior poisoning and
            // error streaks belonged to the replaced one.
            co.poisoned = vec![false; n];
            co.consecutive_policy_errors = vec![0; n];
            co.balancer_name = name.clone();
            co.emit(now, || TraceEvent::PolicyInstalled { epoch, name });
            let _ = ack.send(Ok(now));
        }
        Err(e) => {
            // Validated upstream, so this is exceptional — keep the old
            // balancers running and surface the error.
            co.policy_errors += 1;
            let _ = ack.send(Err(e.to_string()));
        }
    }
    co.swap_acked = true;
}

/// Apply one scheduled fault.
fn on_fault(
    co: &mut Coordinator,
    sh: &mut SharedSim,
    shards: &mut [MutexGuard<Shard>],
    router: &ShardRouter,
    idx: usize,
    now: SimTime,
) {
    match co.cfg.faults.events[idx].kind.clone() {
        FaultKind::Crash { mds } => {
            // MDS 0 is the mount authority and the failover target; a
            // cluster that loses it has no root to serve from.
            if mds == 0 || mds >= co.cfg.num_mds || !sh.up[mds] {
                return;
            }
            sh.up[mds] = false;
            sh.mds_epoch[mds] += 1;
            mds_shard(shards, router, mds).counters_mut(mds).queued = 0;
            co.sync_dirs(&sh.ns, now);
            co.emit(now, || TraceEvent::MdsCrash { mds });
            // Every subtree and dirfrag it served fails over to the
            // mount authority; the balancers respread load from there.
            let dirs: Vec<NodeId> = sh.ns.all_dirs().collect();
            for d in dirs {
                if sh.ns.dir(d).auth == Some(mds) {
                    sh.ns.set_auth(d, Some(0));
                    co.failovers += 1;
                }
                for f in 0..sh.ns.dir(d).frags.len() {
                    if sh.ns.dir(d).frags[f].auth == Some(mds) {
                        sh.ns.set_frag_auth(d, f, Some(0));
                        co.failovers += 1;
                    }
                }
            }
        }
        FaultKind::Restart { mds } => {
            if mds >= co.cfg.num_mds || sh.up[mds] {
                return;
            }
            sh.up[mds] = true;
            co.emit(now, || TraceEvent::MdsRestart { mds });
            // Fresh queue, nothing owed from the previous incarnation.
            let g = mds_shard(shards, router, mds);
            let l = mds - g.mds_lo;
            g.next_free[l] = now;
        }
        FaultKind::Slowdown {
            mds,
            factor,
            duration,
        } => {
            if mds >= co.cfg.num_mds {
                return;
            }
            sh.slow_factor[mds] = factor.max(0.0);
            sh.slow_until[mds] = now + duration;
            co.emit(now, || TraceEvent::FaultInjected {
                mds,
                kind: "slowdown",
            });
        }
        FaultKind::DropHeartbeats { mds, duration } => {
            if mds >= co.cfg.num_mds {
                return;
            }
            co.hb_drop_until[mds] = now + duration;
            co.emit(now, || TraceEvent::FaultInjected {
                mds,
                kind: "drop-heartbeats",
            });
        }
        FaultKind::DelayHeartbeats { mds, duration } => {
            if mds >= co.cfg.num_mds {
                return;
            }
            co.hb_delay_until[mds] = now + duration;
            co.emit(now, || TraceEvent::FaultInjected {
                mds,
                kind: "delay-heartbeats",
            });
        }
        FaultKind::PoisonBalancer { mds } => {
            if mds >= co.cfg.num_mds {
                return;
            }
            co.poisoned[mds] = true;
            co.emit(now, || TraceEvent::FaultInjected {
                mds,
                kind: "poison-balancer",
            });
        }
    }
}

/// Cluster-wide heartbeat + balancer tick.
fn on_heartbeat(
    co: &mut Coordinator,
    sh: &mut SharedSim,
    shards: &mut [MutexGuard<Shard>],
    router: &ShardRouter,
    now: SimTime,
) {
    // Catch the trace's namespace model up under the *old* epoch —
    // every record carries `epoch == ticks seen so far` except the tick
    // itself, which announces the increment.
    co.sync_dirs(&sh.ns, now);
    co.hb_epoch += 1;
    sh.hb_epoch = co.hb_epoch;
    // Accrue provisioned MDS-time up to this instant under the *old*
    // membership; transitions below only bill from here on.
    co.mds_seconds += co.active_count as f64 * (now.as_secs_f64() - co.last_accrual.as_secs_f64());
    co.last_accrual = now;
    // 1. Every MDS packages up its metrics ("send HB").
    let heartbeats = snapshot_heartbeats(co, sh, shards, router, now);
    // Timeline + tick record before the windows roll, so the sampled
    // queue depth / throughput are the ones the balancers will act on.
    if let Some(t) = &co.trace {
        let mut b = t.borrow_mut();
        for m in 0..co.cfg.num_mds {
            let g = &shards[router.shard_of_mds(m)];
            let c = &g.counters[m - g.mds_lo];
            b.timeline.sample(
                now,
                m,
                heartbeats[m].auth_metaload,
                c.queued as f64,
                c.window_ops as f64,
            );
        }
    }
    if co.trace.is_some() {
        let loads: Vec<f64> = heartbeats.iter().map(|h| h.auth_metaload).collect();
        co.emit(now, || TraceEvent::HeartbeatTick { loads });
    }
    // 2. Roll the measurement windows (cache tallies roll with them).
    for g in shards.iter_mut() {
        for c in &mut g.counters {
            c.roll_window();
        }
        g.cache_window_hits.iter_mut().for_each(|x| *x = 0);
        g.cache_window_misses.iter_mut().for_each(|x| *x = 0);
    }
    // 2½. The elastic controller: evaluate the `howmany` hook over the
    //     member-filtered snapshots and take at most one membership
    //     transition (join or drain) per tick. No-op when disabled.
    let elastic = co.cfg.elastic.enabled;
    if elastic {
        elastic_step(co, sh, shards, router, &heartbeats, now);
    }
    // The post-transition member view the balancers run against. With
    // elasticity off this is the identity (all MDSs are members) and the
    // filtered snapshot is never built.
    let active_ids: Vec<MdsId> = (0..co.cfg.num_mds).filter(|&m| sh.member[m]).collect();
    let member_view: Option<Arc<[Heartbeat]>> = if elastic {
        Some(active_ids.iter().map(|&m| heartbeats[m]).collect())
    } else {
        None
    };
    // 3. Every MDS runs its balancer against the (shared, already
    //    slightly stale) snapshots and migrates ("recv HB" →
    //    "rebalance" → "migrate").
    for m in 0..co.cfg.num_mds {
        // A crashed MDS neither balances nor exports; a non-member
        // (spare or departed) has nothing to balance.
        if !sh.up[m] || !sh.member[m] {
            continue;
        }
        // A poisoned balancer errors before reaching a decision.
        if co.poisoned[m] {
            co.note_policy_error(m, now);
            continue;
        }
        // Elastic clusters show the policy only the member set: `whoami`
        // and the MDSs table are positions in `active_ids`, so hooks see
        // a dense cluster of the current size.
        let ctx = match &member_view {
            Some(view) => BalanceContext {
                whoami: active_ids
                    .iter()
                    .position(|&x| x == m)
                    .expect("m is a member"),
                heartbeats: view.clone(),
            },
            None => BalanceContext {
                whoami: m,
                heartbeats: heartbeats.clone(),
            },
        };
        let plan = match co.balancers[m].decide(&ctx) {
            Ok(Some(plan)) => plan,
            Ok(None) => {
                co.consecutive_policy_errors[m] = 0;
                co.emit(now, || TraceEvent::BalancerTick { mds: m });
                continue;
            }
            Err(_) => {
                co.note_policy_error(m, now);
                continue;
            }
        };
        // Translate member-relative targets back to global MDS ids for
        // the export planner (identity when elasticity is off).
        let plan = if elastic {
            let mut targets = vec![0.0; co.cfg.num_mds];
            for (pos, t) in plan.targets.iter().enumerate() {
                if let Some(&id) = active_ids.get(pos) {
                    targets[id] = *t;
                }
            }
            MigrationPlan {
                targets,
                selectors: plan.selectors,
            }
        } else {
            plan
        };
        let exports = match plan_exports(&mut sh.ns, m, co.balancers[m].as_ref(), &plan, now) {
            Ok(e) => e,
            Err(_) => {
                co.note_policy_error(m, now);
                continue;
            }
        };
        co.consecutive_policy_errors[m] = 0;
        if co.trace.is_some() {
            let targets = plan.targets.clone();
            let selectors: Vec<String> = plan
                .selectors
                .iter()
                .map(|s| s.name().to_string())
                .collect();
            let n_exports = exports.len();
            co.emit(now, || TraceEvent::BalancerPlan {
                mds: m,
                targets,
                selectors,
                exports: n_exports,
            });
        }
        for export in exports {
            apply_export(co, sh, shards, router, m, export, now);
        }
    }
    // 4. Next tick, while clients are still running.
    let active: usize = shards.iter().map(|g| g.active).sum();
    if active > 0 {
        co.globals
            .schedule_at(now + co.cfg.heartbeat_interval, GlobalEvent::Heartbeat);
    }
}

/// One elastic-controller tick: ask the `howmany` hook for a target MDS
/// count and take at most one membership transition toward it. Runs in
/// the exclusive heartbeat step, so membership state, the namespace, and
/// every shard are writable — exactly like fault handling.
fn elastic_step(
    co: &mut Coordinator,
    sh: &mut SharedSim,
    shards: &mut [MutexGuard<Shard>],
    router: &ShardRouter,
    heartbeats: &Arc<[Heartbeat]>,
    now: SimTime,
) {
    let n = co.cfg.num_mds;
    // MDS 0 hosts the controller (it is the mount authority, never
    // crashes, and never leaves); a poisoned balancer there suspends
    // scaling — the decide loop already records the error.
    if co.poisoned[0] {
        return;
    }
    let members: Vec<MdsId> = (0..n).filter(|&m| sh.member[m]).collect();
    let active = members.len();
    let (min_mds, max_mds) = co.cfg.elastic.bounds(n);
    // The hook sees the member-filtered pre-transition snapshot: the
    // same dense view the `where`/`howmuch` hooks get this tick.
    let view: Arc<[Heartbeat]> = members.iter().map(|&m| heartbeats[m]).collect();
    let ctx = BalanceContext {
        whoami: 0,
        heartbeats: view,
    };
    let target = match co.balancers[0].howmany(&ctx, active, min_mds, max_mds) {
        Ok(Some(t)) if t.is_finite() => t,
        Ok(_) => return, // no hook (or nothing to decide): fixed size
        Err(_) => {
            co.note_policy_error(0, now);
            return;
        }
    };
    let want = (target.round() as i64).clamp(min_mds as i64, max_mds as i64) as usize;
    if want > active {
        join_one(co, sh, shards, router, &members, now);
    } else if want < active {
        leave_one(co, sh, shards, router, &members, now);
    }
}

/// Activate the lowest-id live spare and re-home onto it the subtrees
/// rendezvous hashing assigns it. The whole join — epoch bump, member
/// flip, re-home migrations — happens inside this exclusive step, so the
/// `MdsJoinStart` → `MdsJoinComplete` chain can never be split by a
/// concurrent fault or window.
fn join_one(
    co: &mut Coordinator,
    sh: &mut SharedSim,
    shards: &mut [MutexGuard<Shard>],
    router: &ShardRouter,
    members: &[MdsId],
    now: SimTime,
) {
    let n = co.cfg.num_mds;
    let Some(j) = (0..n).find(|&m| !sh.member[m] && sh.up[m]) else {
        return; // no live spare in the pool
    };
    sh.membership_epoch += 1;
    let epoch = sh.membership_epoch;
    co.joins += 1;
    co.emit(now, || TraceEvent::MdsJoinStart {
        mds: j,
        membership_epoch: epoch,
    });
    sh.member[j] = true;
    co.active_count += 1;
    let mut rehomed = 0usize;
    // Rendezvous re-home: move exactly the subtrees whose owner-of-record
    // under the *new* member set is the joiner — the minimal set, nothing
    // shuffles between survivors.
    let owners: Vec<MdsId> = (0..n).filter(|&m| sh.member[m] && sh.up[m]).collect();
    for &src in members {
        if !sh.up[src] {
            continue;
        }
        for d in sh.ns.export_candidate_dirs(src) {
            if sh.ns.dir(d).auth != Some(src) {
                continue; // frag-only ownership stays put on join
            }
            if rendezvous_owner(d, &owners) == j {
                let export = Export {
                    unit: ExportUnit::Subtree(d),
                    to: j,
                    load: 0.0,
                };
                apply_export(co, sh, shards, router, src, export, now);
                rehomed += 1;
            }
        }
    }
    co.emit(now, || TraceEvent::MdsJoinComplete {
        mds: j,
        membership_epoch: epoch,
        rehomed,
    });
}

/// Drain and deregister the highest-id member (never MDS 0): freeze and
/// export every subtree and dirfrag it owns to the rendezvous owner
/// among the remaining members, then flip it out of the member set. The
/// departed MDS stays `up` — straggler requests routed by stale client
/// caches are served by the normal forward path until the caches relearn.
fn leave_one(
    co: &mut Coordinator,
    sh: &mut SharedSim,
    shards: &mut [MutexGuard<Shard>],
    router: &ShardRouter,
    members: &[MdsId],
    now: SimTime,
) {
    let Some(&victim) = members.iter().rev().find(|&&m| m != 0) else {
        return; // only the mount authority is left
    };
    sh.membership_epoch += 1;
    let epoch = sh.membership_epoch;
    co.leaves += 1;
    co.emit(now, || TraceEvent::MdsDrainStart {
        mds: victim,
        membership_epoch: epoch,
    });
    // Drain targets: live surviving members. MDS 0 never crashes and
    // never leaves, so this is never empty.
    let remaining: Vec<MdsId> = members
        .iter()
        .copied()
        .filter(|&m| m != victim && sh.up[m])
        .collect();
    let mut drained = 0usize;
    if sh.up[victim] && !remaining.is_empty() {
        // A crashed victim owns nothing (its subtrees already failed
        // over); draining it is pure deregistration.
        for dir in sh.ns.export_candidate_dirs(victim) {
            if sh.ns.dir(dir).auth == Some(victim) {
                let export = Export {
                    unit: ExportUnit::Subtree(dir),
                    to: rendezvous_owner(dir, &remaining),
                    load: 0.0,
                };
                apply_export(co, sh, shards, router, victim, export, now);
                drained += 1;
            } else {
                // Frag-only ownership: ship the victim's fragments.
                let nfrags = sh.ns.dir(dir).frags.len();
                for f in 0..nfrags {
                    if sh.ns.frag_auth(dir, f) == victim {
                        let export = Export {
                            unit: ExportUnit::Frag(dir, f),
                            to: rendezvous_owner(dir, &remaining),
                            load: 0.0,
                        };
                        apply_export(co, sh, shards, router, victim, export, now);
                        drained += 1;
                    }
                }
            }
        }
    }
    co.emit(now, || TraceEvent::MdsDrainComplete {
        mds: victim,
        membership_epoch: epoch,
        drained,
    });
    sh.member[victim] = false;
    co.active_count -= 1;
    co.emit(now, || TraceEvent::MdsDeparted {
        mds: victim,
        membership_epoch: epoch,
    });
}

fn snapshot_heartbeats(
    co: &mut Coordinator,
    sh: &mut SharedSim,
    shards: &mut [MutexGuard<Shard>],
    router: &ShardRouter,
    now: SimTime,
) -> Arc<[Heartbeat]> {
    let n = co.cfg.num_mds;
    // Recycled accumulators: at 64+ MDSs this runs every tick and the
    // per-tick allocations would dominate the balancer path.
    let mut auth_load = std::mem::take(&mut co.scratch_auth_load);
    let mut all_load = std::mem::take(&mut co.scratch_all_load);
    auth_load.clear();
    auth_load.resize(n, 0.0);
    all_load.clear();
    all_load.resize(n, 0.0);
    // Metadata loads from the decayed counters, via each MDS's own
    // metaload policy (evaluated on that MDS's authoritative heat).
    if co.balancers.iter().all(|b| b.metaload_is_additive()) {
        // Every metaload hook is linear with no constant term, so the
        // per-MDS decayed aggregates the namespace maintains
        // incrementally stand in for the frag-by-frag walk: O(MDSs)
        // per tick instead of O(dirs × frags × hook evaluations).
        let (auth_s, rep_s) = sh.ns.mds_load_samples(n, now);
        for m in 0..n {
            let auth = match co.balancers[m].metaload(&auth_s[m]) {
                Ok(l) => l,
                Err(_) => {
                    co.policy_errors += 1;
                    auth_s[m].cephfs_metaload()
                }
            };
            let rep = match co.balancers[m].metaload(&rep_s[m]) {
                Ok(l) => l,
                Err(_) => {
                    co.policy_errors += 1;
                    rep_s[m].cephfs_metaload()
                }
            };
            auth_load[m] = auth;
            // Replicated ancestor heat counts at the usual 0.2
            // discount.
            all_load[m] = auth + 0.2 * rep;
        }
    } else {
        // Some hook is non-linear (or has a constant term), so sums of
        // heat don't commute with the hook: fall back to evaluating it
        // per dirfrag.
        let mut dirs = std::mem::take(&mut co.scratch_dirs);
        dirs.clear();
        dirs.extend(sh.ns.all_dirs());
        for d in dirs.drain(..) {
            let nfrags = sh.ns.dir(d).frags.len();
            for f in 0..nfrags {
                let heat = sh.ns.frag_heat(d, f, now);
                let auth = sh.ns.frag_auth(d, f);
                let load = match co.balancers[auth].metaload(&heat) {
                    Ok(l) => l,
                    Err(_) => {
                        co.policy_errors += 1;
                        heat.cephfs_metaload()
                    }
                };
                auth_load[auth] += load;
                all_load[auth] += load;
                // Every MDS replicating this path prefix also "knows"
                // about this load.
                for rep in sh.ns.ancestor_auth_chain(d) {
                    if rep != auth {
                        all_load[rep] += load * 0.2;
                    }
                }
            }
        }
        co.scratch_dirs = dirs;
    }
    let fresh: Vec<Heartbeat> = (0..n)
        .map(|m| {
            let g = &shards[router.shard_of_mds(m)];
            let c = &g.counters[m - g.mds_lo];
            let cpu_raw = c.cpu_percent(co.cfg.heartbeat_interval);
            let cpu = (cpu_raw * co.rng_cpu.jitter(co.cfg.cpu_noise)).clamp(0.0, 100.0);
            // Loads are instantaneous samples shipped over the wire —
            // every reader sees them with sampling error (§2.2.2).
            let load_jitter = co.rng_cpu.jitter(co.cfg.metaload_noise);
            // Cache tallies live per shard (any shard's clients can hit
            // an entry naming any MDS); the heartbeat view sums them.
            let cache_hits = shards
                .iter()
                .map(|g| g.cache_window_hits[m] as f64)
                .sum::<f64>();
            let cache_misses = shards
                .iter()
                .map(|g| g.cache_window_misses[m] as f64)
                .sum::<f64>();
            Heartbeat {
                auth_metaload: auth_load[m] * load_jitter,
                all_metaload: all_load[m] * load_jitter,
                cpu,
                mem: 20.0 + 0.5 * auth_load[m].min(100.0),
                queue_len: c.queued as f64,
                req_rate: c.req_rate(co.cfg.heartbeat_interval),
                cache_hits,
                cache_misses,
                taken_at: now,
            }
        })
        .collect();
    co.scratch_auth_load = auth_load;
    co.scratch_all_load = all_load;
    if !co.faults_active {
        return fresh.into();
    }
    // Heartbeat outages: a dropped MDS's snapshot stays frozen at its
    // last pre-window value; a delayed one lags a full interval. The
    // fresh samples are always recorded so the window can end cleanly.
    let mut view = fresh.clone();
    for (m, slot) in view.iter_mut().enumerate() {
        if now < co.hb_drop_until[m] {
            *slot = *co.hb_frozen[m].get_or_insert(co.hb_published[m]);
        } else {
            co.hb_frozen[m] = None;
            if now < co.hb_delay_until[m] {
                *slot = co.hb_published[m];
            }
        }
    }
    co.hb_published = fresh;
    view.into()
}

fn apply_export(
    co: &mut Coordinator,
    sh: &mut SharedSim,
    shards: &mut [MutexGuard<Shard>],
    router: &ShardRouter,
    from: MdsId,
    export: Export,
    now: SimTime,
) {
    let to = export.to;
    // Non-members (spares and departed MDSs) never import: a drained MDS
    // must not regain dirfrag authority until it rejoins.
    if to >= co.cfg.num_mds || to == from || !sh.up[to] || !sh.member[to] {
        return;
    }
    // The checker replays migrations against its namespace model; make
    // sure every directory the walk can touch is already in the trace.
    co.sync_dirs(&sh.ns, now);
    let watermark = sh.ns.dir_count() as u32;
    let frag_unit = match export.unit {
        ExportUnit::Frag(_, f) => Some(f),
        ExportUnit::Subtree(_) => None,
    };
    // The moved region: the whole (bounded) subtree for a subtree
    // export, just the fragmented dir otherwise. The migration walk
    // reports the inode count and the authority holes in one pass.
    let (root, root_only, migration) = match export.unit {
        ExportUnit::Subtree(d) => (d, false, sh.ns.migrate_subtree(d, to)),
        ExportUnit::Frag(d, f) => {
            let inodes = sh.ns.migrate_frag(d, f, to);
            (
                d,
                true,
                SubtreeMigration {
                    inodes,
                    holes: Vec::new(),
                },
            )
        }
    };
    let moved = migration.inodes;
    let region = SubtreeWindow {
        root,
        holes: migration.holes,
        watermark,
        root_only,
        until: SimTime::ZERO,
    };
    // Two-phase commit: the subtree freezes while the importer
    // journals the metadata. Requests to *any* directory inside the
    // moving subtree — not only its root — defer to the thaw.
    let freeze_us = co.cfg.costs.migrate_freeze_us(moved);
    let thaw = now + SimTime::from_micros_f64(freeze_us);
    sh.frozen.push(SubtreeWindow {
        until: thaw,
        ..region.clone()
    });
    // Importer and exporter both journal (busy time on each).
    let journal_us = freeze_us / 4.0;
    if co.trace.is_some() {
        co.mig_seq += 1;
        let mig = co.mig_seq;
        let holes = region.holes.clone();
        co.emit(now, || TraceEvent::MigrationFreeze {
            mig,
            from,
            to,
            root,
            frag: frag_unit,
            holes,
            watermark,
            until: thaw,
        });
        co.emit(now, || TraceEvent::MigrationJournal {
            mig,
            mds: from,
            micros: journal_us,
        });
        co.emit(now, || TraceEvent::MigrationJournal {
            mig,
            mds: to,
            micros: journal_us,
        });
        co.emit(now, || TraceEvent::MigrationCommit {
            mig,
            from,
            to,
            root,
            frag: frag_unit,
            inodes: moved,
        });
        co.emit(now, || TraceEvent::MigrationUnfreeze { mig, root, thaw });
    }
    for &m in &[from, to] {
        let g = mds_shard(shards, router, m);
        let l = m - g.mds_lo;
        g.next_free[l] = g.next_free[l].max(now) + SimTime::from_micros_f64(journal_us);
        g.counters[l].busy_window_us += journal_us;
    }
    {
        let g = mds_shard(shards, router, from);
        let l = from - g.mds_lo;
        g.counters[l].migrations_out += 1;
        g.counters[l].inodes_exported += moved;
    }
    // The importer's ancestor-prefix replicas need to warm up; the
    // exported subtree's own directories are cold too.
    let warm = now + SimTime::from_micros_f64(co.cfg.costs.prefix_warmup_us);
    sh.prefix_cold.push(SubtreeWindow {
        until: warm,
        ..region.clone()
    });
    // Session flushes: every active client halts updates on the moved
    // directories and re-syncs (§4.1). The whole migrated subtree is
    // forgotten — a cache entry for a child dir is as stale as one for
    // the root.
    let flush = SimTime::from_micros_f64(co.cfg.costs.session_flush_us);
    let mut flushed = 0;
    // The moved region in Euler-interval form: one range scan per cache
    // drops every stale entry — client route maps and proxy-tier group
    // caches alike — instead of a predicate test per cached dir.
    let iregion = IntervalRegion::new(&sh.ns, root, &region.holes, watermark, root_only);
    {
        let SharedSim { ns, caches, .. } = &mut *sh;
        for cache in caches.iter_mut() {
            co.cache_invalidations += cache.invalidate_region(ns, &iregion);
        }
    }
    let ns = &sh.ns;
    for g in shards.iter_mut() {
        for c in &mut g.clients {
            if !c.done {
                co.cache_invalidations += c.invalidate_region(ns, &iregion);
                let until = now + flush;
                if until > c.stall_until {
                    c.stall_until = until;
                }
                flushed += 1;
            }
        }
    }
    mds_shard(shards, router, from)
        .counters_mut(from)
        .sessions_flushed += flushed;
    co.emit(now, || TraceEvent::SessionFlush {
        mds: from,
        clients: flushed,
    });
}

/// Assemble the report from the coordinator and the drained shards.
/// Shards own contiguous id slices in order, so concatenating their
/// counters/clients reproduces the global id order.
fn into_report(co: Coordinator, shards: Vec<Shard>, membership_epoch: u64) -> RunReport {
    let mut counters: Vec<MdsCounters> = Vec::new();
    let mut clients: Vec<ClientState> = Vec::new();
    let mut timeouts = 0u64;
    let mut retries = 0u64;
    // Cache attribution arrays are per-shard over *global* MDS ids.
    let mut cache_hits = vec![0u64; co.cfg.num_mds];
    let mut cache_misses = vec![0u64; co.cfg.num_mds];
    for s in shards {
        for m in 0..co.cfg.num_mds {
            cache_hits[m] += s.cache_hits[m];
            cache_misses[m] += s.cache_misses[m];
        }
        counters.extend(s.counters);
        clients.extend(s.clients);
        timeouts += s.timeouts;
        retries += s.retries;
    }
    let makespan = clients
        .iter()
        .map(|c| c.finished_at)
        .max()
        .unwrap_or(SimTime::ZERO);
    let sessions: u64 = counters.iter().map(|c| c.sessions_flushed).sum();
    // Close the MDS-seconds integral at the later of the last accrual
    // point and the makespan (heartbeats can outlast the final op).
    let end = makespan.max(co.last_accrual);
    let mds_seconds = co.mds_seconds
        + co.active_count as f64 * (end.as_secs_f64() - co.last_accrual.as_secs_f64());
    RunReport {
        balancer: co.balancer_name,
        workload: co.workload_name,
        num_mds: co.cfg.num_mds,
        seed: co.cfg.seed,
        makespan,
        mds: counters
            .into_iter()
            .enumerate()
            .map(|(m, c)| MdsReport {
                total_ops: c.completed.total(),
                throughput: c.completed,
                hits: c.hits,
                forwards_out: c.forwards_out,
                forwards_in: c.forwards_in,
                migrations_out: c.migrations_out,
                inodes_exported: c.inodes_exported,
                sessions_flushed: c.sessions_flushed,
                splits: c.splits,
                remote_prefix: c.remote_prefix,
                dropped: c.dropped,
                cache_hits: cache_hits[m],
                cache_misses: cache_misses[m],
            })
            .collect(),
        clients: clients
            .into_iter()
            .map(|c| ClientReport {
                completed: c.completed,
                finished_at: c.finished_at,
                latency: Summary::of(&c.latencies),
            })
            .collect(),
        sessions_flushed: sessions,
        timeouts,
        retries,
        failovers: co.failovers,
        balancer_fallbacks: co.balancer_fallbacks,
        cache_hits: cache_hits.iter().sum(),
        cache_misses: cache_misses.iter().sum(),
        cache_invalidations: co.cache_invalidations,
        mds_seconds,
        joins: co.joins,
        leaves: co.leaves,
        membership_epoch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientOp;
    use crate::shard::{frozen_until, Request};
    use mantle_namespace::OpKind;

    /// A trivial workload: each client creates `count` files in its own
    /// directory.
    #[derive(Clone)]
    struct TinyCreate {
        clients: usize,
        count: u64,
        issued: Vec<u64>,
        dirs: Vec<NodeId>,
    }

    impl TinyCreate {
        fn new(clients: usize, count: u64) -> Self {
            TinyCreate {
                clients,
                count,
                issued: vec![0; clients],
                dirs: Vec::new(),
            }
        }
    }

    impl Workload for TinyCreate {
        fn num_clients(&self) -> usize {
            self.clients
        }
        fn setup(&mut self, ns: &mut Namespace) {
            self.dirs = (0..self.clients)
                .map(|c| ns.mkdir_p(&format!("/client{c}")))
                .collect();
        }
        fn next(&mut self, client: usize, _ns: &Namespace, _now: SimTime) -> Option<ClientOp> {
            if self.issued[client] >= self.count {
                return None;
            }
            self.issued[client] += 1;
            Some(ClientOp {
                dir: self.dirs[client],
                kind: OpKind::Create,
            })
        }
        fn fork(&self) -> Box<dyn Workload> {
            Box::new(self.clone())
        }
        fn name(&self) -> &str {
            "tiny-create"
        }
    }

    fn run_tiny(num_mds: usize, clients: usize, count: u64, seed: u64) -> RunReport {
        let cfg = ClusterConfig {
            num_mds,
            seed,
            ..Default::default()
        };
        let cluster = Cluster::new(cfg, Box::new(TinyCreate::new(clients, count)), |_| {
            Box::new(NoopBalancer)
        });
        cluster.run()
    }

    #[test]
    fn completes_all_ops_single_mds() {
        let r = run_tiny(1, 2, 100, 1);
        assert_eq!(r.total_ops(), 200.0);
        assert_eq!(r.total_hits(), 200);
        assert_eq!(r.total_forwards(), 0);
        assert!(r.makespan > SimTime::ZERO);
        assert_eq!(r.clients.len(), 2);
        assert_eq!(r.clients[0].completed, 100);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_tiny(2, 3, 50, 7);
        let b = run_tiny(2, 3, 50, 7);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.total_ops(), b.total_ops());
        let c = run_tiny(2, 3, 50, 8);
        assert_ne!(
            a.makespan, c.makespan,
            "different seeds give different noise"
        );
    }

    #[test]
    fn sharded_run_matches_single_threaded_oracle() {
        // The full matrix (all balancers × fault scenarios × 2/4/8
        // threads) lives in tests/shard_equivalence.rs; this is the
        // fast in-crate smoke check of the same property.
        let run = |mode: ExecMode| {
            let cfg = ClusterConfig {
                num_mds: 3,
                seed: 11,
                heartbeat_interval: SimTime::from_millis(400),
                frag_split_threshold: 500,
                exec_mode: mode,
                ..Default::default()
            };
            Cluster::new(cfg, Box::new(TinyCreate::new(4, 500)), |_| {
                Box::new(NoopBalancer)
            })
            .run()
        };
        let single = run(ExecMode::Single);
        let sharded = run(ExecMode::Sharded { threads: 2 });
        assert_eq!(
            format!("{single:?}"),
            format!("{sharded:?}"),
            "2-shard run must be byte-identical to the single-threaded oracle"
        );
    }

    #[test]
    fn static_partition_splits_work() {
        let cfg = ClusterConfig {
            num_mds: 2,
            ..Default::default()
        };
        let mut cluster = Cluster::new(cfg, Box::new(TinyCreate::new(2, 200)), |_| {
            Box::new(NoopBalancer)
        });
        // Statically give client1's dir to MDS 1.
        let ns = cluster.namespace_mut();
        let d1 = ns.lookup_child(ns.root(), "client1").unwrap();
        ns.set_auth(d1, Some(1));
        let r = cluster.run();
        assert!(r.mds[0].total_ops > 0.0);
        assert!(r.mds[1].total_ops > 0.0, "MDS1 served its subtree");
    }

    #[test]
    fn unknown_dirs_route_to_mds0_then_learn() {
        // With everything on MDS 0 and no migrations there are no forwards;
        // statically moving a dir *after* clients learned creates some.
        let cfg = ClusterConfig {
            num_mds: 2,
            ..Default::default()
        };
        let mut cluster = Cluster::new(cfg, Box::new(TinyCreate::new(1, 500)), |_| {
            Box::new(NoopBalancer)
        });
        cluster.schedule_admin(SimTime::from_millis(50), |ns| {
            let d = ns.lookup_child(ns.root(), "client0").unwrap();
            ns.set_auth(d, Some(1));
        });
        let r = cluster.run();
        assert!(
            r.total_forwards() >= 1,
            "stale client cache must cause at least one forward"
        );
        assert!(r.mds[1].total_ops > 0.0);
    }

    #[test]
    fn throughput_series_covers_run() {
        let r = run_tiny(1, 4, 500, 3);
        let ts = r.cluster_throughput();
        assert!((ts.total() - 2000.0).abs() < 1e-9);
        assert!(ts.len() as f64 <= r.makespan.as_secs_f64() + 2.0);
    }

    #[test]
    fn latencies_recorded() {
        let r = run_tiny(1, 1, 50, 9);
        let lat = &r.clients[0].latency;
        assert_eq!(lat.count, 50);
        assert!(lat.mean > 0.5 && lat.mean < 5.0, "mean {} ms", lat.mean);
    }

    #[test]
    fn max_duration_stops_runaway() {
        let cfg = ClusterConfig {
            num_mds: 1,
            max_duration: SimTime::from_millis(10),
            ..Default::default()
        };
        let cluster = Cluster::new(cfg, Box::new(TinyCreate::new(1, 1_000_000)), |_| {
            Box::new(NoopBalancer)
        });
        let r = cluster.run();
        assert!(r.total_ops() < 1_000_000.0);
    }

    #[test]
    fn expensive_migrations_slow_the_job() {
        // The same spill decisions with a 2-second two-phase-commit freeze
        // must produce a longer makespan — the freeze defers every request
        // to the moved directory.
        let mk = |freeze_us: f64| {
            let mut cfg = ClusterConfig {
                num_mds: 2,
                seed: 4,
                heartbeat_interval: SimTime::from_millis(400),
                frag_split_threshold: 300,
                ..Default::default()
            };
            cfg.costs.migrate_fixed_us = freeze_us;
            let workload = TinyCreate::new(4, 2_000);
            // A one-shot admin migration makes the comparison exact.
            let mut cluster = Cluster::new(cfg, Box::new(workload), |_| Box::new(NoopBalancer));
            cluster.schedule_admin(SimTime::from_millis(200), |ns| {
                let d = ns.lookup_child(ns.root(), "client1").unwrap();
                ns.set_auth(d, Some(1));
            });
            cluster.run()
        };
        let cheap = mk(1_000.0);
        let costly = mk(1_000.0); // admin path doesn't freeze — both equal…
        assert_eq!(cheap.makespan, costly.makespan, "control: determinism");

        // …but the balancer path does. Greedy spill with huge freezes:
        let spec = |freeze_us: f64| {
            let mut cfg = ClusterConfig {
                num_mds: 2,
                seed: 4,
                heartbeat_interval: SimTime::from_millis(400),
                frag_split_threshold: 300,
                ..Default::default()
            };
            cfg.costs.migrate_fixed_us = freeze_us;
            cfg
        };
        let policy = mantle_policy::env::PolicySet::from_combined(
            "IWR",
            r#"MDSs[i]["all"]"#,
            r#"if whoami < #MDSs and MDSs[whoami]["load"]>.01 and MDSs[whoami+1]["load"]<.01 then targets[whoami+1]=allmetaload/2 end"#,
            &["half"],
        )
        .unwrap();
        let run_with = |cfg: ClusterConfig| {
            let p = policy.clone();
            Cluster::new(cfg, Box::new(TinyCreate::new(4, 2_000)), move |_| {
                Box::new(crate::balancer::MantleBalancer::new_unvalidated("g", p.clone()).unwrap())
            })
            .run()
        };
        let fast = run_with(spec(1_000.0));
        let slow = run_with(spec(2_000_000.0));
        assert!(
            slow.makespan > fast.makespan,
            "2 s freezes must hurt: {} vs {}",
            slow.makespan,
            fast.makespan
        );
    }

    #[test]
    fn session_flushes_stall_clients() {
        let mut cfg = ClusterConfig {
            num_mds: 2,
            seed: 9,
            heartbeat_interval: SimTime::from_millis(400),
            frag_split_threshold: 300,
            ..Default::default()
        };
        cfg.costs.session_flush_us = 500_000.0; // half a second per flush
        let policy = mantle_policy::env::PolicySet::from_combined(
            "IWR",
            r#"MDSs[i]["all"]"#,
            r#"if whoami < #MDSs and MDSs[whoami]["load"]>.01 and MDSs[whoami+1]["load"]<.01 then targets[whoami+1]=allmetaload/2 end"#,
            &["half"],
        )
        .unwrap();
        let p2 = policy.clone();
        let r = Cluster::new(
            cfg.clone(),
            Box::new(TinyCreate::new(2, 1_500)),
            move |_| {
                Box::new(crate::balancer::MantleBalancer::new_unvalidated("g", p2.clone()).unwrap())
            },
        )
        .run();
        cfg.costs.session_flush_us = 1_000.0;
        let p3 = policy;
        let r_cheap = Cluster::new(cfg, Box::new(TinyCreate::new(2, 1_500)), move |_| {
            Box::new(crate::balancer::MantleBalancer::new_unvalidated("g", p3.clone()).unwrap())
        })
        .run();
        assert!(r.sessions_flushed > 0);
        assert!(
            r.makespan > r_cheap.makespan,
            "expensive session flushes stall clients: {} vs {}",
            r.makespan,
            r_cheap.makespan
        );
    }

    #[test]
    fn subtree_freeze_covers_descendants() {
        // Regression: the two-phase-commit freeze used to mark only the
        // subtree *root*, so requests to descendant directories of a
        // mid-migration subtree were served during the freeze instead of
        // deferring to the thaw.
        let cfg = ClusterConfig {
            num_mds: 2,
            ..Default::default()
        };
        let mut cluster = Cluster::new(cfg, Box::new(TinyCreate::new(1, 1)), |_| {
            Box::new(NoopBalancer)
        });
        let (a, ab) = {
            let ns = cluster.namespace_mut();
            (ns.mkdir_p("/a"), ns.mkdir_p("/a/b"))
        };
        {
            let mut guards: Vec<MutexGuard<Shard>> =
                cluster.shards.iter().map(|m| m.lock().unwrap()).collect();
            apply_export(
                &mut cluster.co,
                &mut cluster.shared,
                &mut guards,
                &cluster.router,
                0,
                Export {
                    unit: ExportUnit::Subtree(a),
                    to: 1,
                    load: 1.0,
                },
                SimTime::ZERO,
            );
        }
        assert!(
            frozen_until(&cluster.shared, a, SimTime::ZERO).is_some(),
            "root frozen"
        );
        let thaw = frozen_until(&cluster.shared, ab, SimTime::ZERO).expect("descendant frozen too");
        // A request to the descendant during the freeze defers to the
        // thaw instead of being served.
        let req = Request {
            client: 0,
            op: ClientOp {
                dir: ab,
                kind: OpKind::Stat,
            },
            frag: 0,
            issued: SimTime::ZERO,
            forwarded: false,
            seq: 1,
            attempts: 0,
        };
        let mut g = cluster.shards[0].lock().unwrap();
        let key = g.client_key(0);
        g.queue
            .schedule_at_key(SimTime::ZERO, key, Event::Arrive { mds: 1, req });
        g.process_window(&cluster.shared, &cluster.router, SimTime::from_micros(1));
        assert_eq!(
            g.queue.peek_time(),
            Some(thaw),
            "descendant request re-scheduled for the thaw, not served"
        );
    }

    #[test]
    fn migration_invalidates_descendant_cache_entries() {
        // Regression: session flushes used to invalidate only the subtree
        // root, so clients kept stale cache entries for child dirs and
        // routed them to the old authority forever.
        let cfg = ClusterConfig {
            num_mds: 3,
            ..Default::default()
        };
        let mut cluster = Cluster::new(cfg, Box::new(TinyCreate::new(1, 1)), |_| {
            Box::new(NoopBalancer)
        });
        let (a, ab) = {
            let ns = cluster.namespace_mut();
            let a = ns.mkdir_p("/a");
            let ab = ns.mkdir_p("/a/b");
            ns.set_auth(a, Some(2));
            (a, ab)
        };
        // The client learned MDS 2 serves both dirs.
        {
            let mut g = cluster.shards[0].lock().unwrap();
            g.clients[0].learn(&cluster.shared.ns, a, 2);
            g.clients[0].learn(&cluster.shared.ns, ab, 2);
        }
        // MDS 2 exports the subtree to MDS 1.
        {
            let mut guards: Vec<MutexGuard<Shard>> =
                cluster.shards.iter().map(|m| m.lock().unwrap()).collect();
            apply_export(
                &mut cluster.co,
                &mut cluster.shared,
                &mut guards,
                &cluster.router,
                2,
                Export {
                    unit: ExportUnit::Subtree(a),
                    to: 1,
                    load: 1.0,
                },
                SimTime::ZERO,
            );
        }
        let op = ClientOp {
            dir: ab,
            kind: OpKind::Stat,
        };
        let frag = cluster.shared.ns.peek_frag(ab);
        let multi = cluster.shared.ns.frag_owners(ab).len() > 1;
        let mut g = cluster.shards[0].lock().unwrap();
        assert_eq!(
            g.clients[0].route(&cluster.shared.ns, &op, frag, multi),
            0,
            "descendant cache entry cleared: route falls back to the mount authority"
        );
    }

    #[test]
    fn lapsed_windows_are_purged_at_barriers() {
        // Freeze/cold windows are shared state, so in-window readers only
        // filter by `until`; the purge that keeps the sets from
        // accumulating runs at the next barrier after the lapse.
        let cfg = ClusterConfig {
            num_mds: 2,
            ..Default::default()
        };
        let mut cluster = Cluster::new(cfg, Box::new(TinyCreate::new(1, 1)), |_| {
            Box::new(NoopBalancer)
        });
        let a = cluster.namespace_mut().mkdir_p("/a");
        {
            let mut guards: Vec<MutexGuard<Shard>> =
                cluster.shards.iter().map(|m| m.lock().unwrap()).collect();
            apply_export(
                &mut cluster.co,
                &mut cluster.shared,
                &mut guards,
                &cluster.router,
                0,
                Export {
                    unit: ExportUnit::Subtree(a),
                    to: 1,
                    load: 1.0,
                },
                SimTime::ZERO,
            );
        }
        assert!(!cluster.shared.frozen.is_empty());
        assert!(!cluster.shared.prefix_cold.is_empty());
        // Long after the lapse, readers already ignore the windows…
        assert!(frozen_until(&cluster.shared, a, SimTime::from_secs(100)).is_none());
        // …and the next barrier drops them wholesale.
        {
            let mut guards: Vec<MutexGuard<Shard>> =
                cluster.shards.iter().map(|m| m.lock().unwrap()).collect();
            barrier_apply(
                &mut cluster.co,
                &mut cluster.shared,
                &mut guards,
                &cluster.router,
                SimTime::from_secs(100),
            );
        }
        assert!(
            cluster.shared.frozen.is_empty(),
            "lapsed freeze windows purged"
        );
        assert!(
            cluster.shared.prefix_cold.is_empty(),
            "lapsed cold windows purged"
        );
    }

    #[test]
    fn saturation_shape_matches_fig5() {
        // Fig. 5: throughput stops improving around 4-5 clients and
        // latency keeps rising.
        let t1 = run_tiny(1, 1, 400, 5);
        let t4 = run_tiny(1, 4, 400, 5);
        let t7 = run_tiny(1, 7, 400, 5);
        let rate1 = t1.mean_throughput();
        let rate4 = t4.mean_throughput();
        let rate7 = t7.mean_throughput();
        assert!(rate4 > rate1 * 2.5, "scales early: {rate1} → {rate4}");
        assert!(rate7 < rate4 * 1.35, "saturates late: {rate4} → {rate7}");
        assert!(
            t7.clients[0].latency.mean > t1.clients[0].latency.mean * 1.3,
            "latency rises under overload"
        );
    }
}
