//! The cluster and its control plane.
//!
//! [`Cluster`] is the public face: build one, optionally schedule admin
//! actions, then run it to completion or serve it live. Behind it sit the
//! simulation state, one `World` ([`crate::world`]), and the
//! `Coordinator`, the control plane — the data plane never touches it.
//! `Cluster::run_while` is the event loop: it runs the earliest event in
//! the world's one queue to completion. A coordinator event (heartbeat
//! tick, fault, admin action, hot install) is one more event on that
//! timeline, keyed rank 0 so that at its instant it runs before every
//! data-plane event; `World::step` hands it back, and the coordinator
//! runs it.
//!
//! # The time frontier
//!
//! The queue's own clock, `World::queue`'s `now`, is the instant of the
//! last event the loop ran, data-plane or coordinator. It is the one
//! place "now" is read between events. The trace's `RunEnd`
//! trailer, and everything the live service injects — woken
//! clients, directories a live op creates, hot installs — are stamped
//! with it, so no record is stamped before one already emitted, and
//! live and batch streams alike are in time order.
//!
//! # One loop body
//!
//! `Cluster::run_while` is the loop body of every run: it takes events
//! until the run is over or the caller's `due` test refuses the next
//! instant. A batch run passes a test that always agrees, which compiles
//! away; the live service ([`crate::service`]) passes the clock's test
//! and is stepped again by its caller.
//!
//! # The balancer tick, stage by stage
//!
//! Mantle's claim is that balancing policy separates cleanly from
//! migration mechanism (§3). The mechanism is a pipeline, and each stage
//! is a module that owns the state it mutates and takes the coordinator
//! and the world (`&mut World`), which holds the configuration and the
//! tracer too:
//!
//! | stage | where | state it owns |
//! |---|---|---|
//! | send / recv HB | [`crate::heartbeat`] | snapshots, outage windows, noise |
//! | membership (`howmany`) | [`crate::elastic`] | member count, MDS-seconds |
//! | rebalance (`when`/`where`) | `Coordinator::tick`, [`crate::balancer`] | balancers, error streaks |
//! | fragment (`howmuch`) | [`crate::partition`] | — (pure planning) |
//! | migrate | [`crate::migration`] | migration ids, invalidation count |
//!
//! The rebalance stage runs over the member set alone (`World::member_view`):
//! a member's position is its `whoami`, and the targets its policy names
//! are translated back to MDS ids. With every MDS a member, the view is
//! every MDS and the translation the identity.
//!
//! Around the tick: [`crate::faults`] applies scheduled faults, [`crate::tracer`] owns the
//! trace sink, and [`crate::service`] feeds a live daemon's commands in
//! and hands its events out.

use mantle_namespace::{MdsId, Namespace, NsConfig};
use mantle_policy::env::PolicySet;
use mantle_sim::{ClockMode, SimRng, SimTime};

use crate::balancer::{BalanceContext, Balancer, BalancerSet, MigrationPlan};
use crate::client::Workload;
use crate::config::ClusterConfig;
use crate::elastic::Membership;
use crate::faults::FaultKind;
use crate::heartbeat::HeartbeatView;
use crate::migration::Migrator;
use crate::partition::plan_exports;
use crate::report::{ClientReport, MdsReport, RunReport};
use crate::service::{LiveService, ServiceEvent};
use crate::trace::{TraceBuffer, TraceEvent, TraceLevel};
use crate::tracer::Tracer;
use crate::world::{Event, ExecStats, World};

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

/// A control-plane event. Each runs as one loop step, between two
/// data-plane events, and reads and writes cluster-wide state (the
/// namespace, every MDS's counters, liveness). It waits in the world's
/// queue ([`World::schedule_global`]).
pub(crate) enum GlobalEvent {
    /// Cluster-wide heartbeat + balancer tick.
    Heartbeat,
    /// A scheduled namespace edit (manual repartition etc.).
    Admin(Box<dyn FnOnce(&mut Namespace) + Send>),
    /// A hot policy install: swap every MDS's balancer for a fresh one
    /// built from an already-validated policy. In-flight decisions are
    /// untouched — balancers only ever run inside heartbeat steps, so a
    /// decision that started before the swap has already
    /// finished on the old policy by the time this runs.
    Swap {
        name: String,
        epoch: u64,
        set: Box<PolicySet>,
    },
    /// A scheduled fault from the [`crate::faults::FaultPlan`] fires.
    Fault(FaultKind),
}

/// The control plane: one component per mechanism stage. Components keep
/// their fields to themselves; steps that span several of them (a join
/// exports) take the whole coordinator.
pub(crate) struct Coordinator {
    pub(crate) policy: BalancerSet,
    pub(crate) hb: HeartbeatView,
    pub(crate) membership: Membership,
    pub(crate) migrator: Migrator,
    /// Subtrees and dirfrags failed over to MDS 0 by crashes.
    pub(crate) failovers: u64,
    /// Results of installs run since the live service last looked, in
    /// install order ([`ServiceEvent::Swapped`]).
    swapped: Vec<ServiceEvent>,
    workload_name: String,
}

impl Coordinator {
    /// Run a global event the world just popped, with `&mut` access to
    /// the whole simulation.
    pub(crate) fn run_global(&mut self, w: &mut World, event: GlobalEvent) {
        let now = w.queue.now();
        match event {
            GlobalEvent::Heartbeat => self.tick(w, now),
            GlobalEvent::Admin(action) => {
                action(&mut w.ns);
                // Admin actions mutate the namespace wholesale;
                // re-announce new dirs and the authority state.
                w.trace.sync_dirs(&w.ns, now);
                w.trace.emit_auth_snapshot(&w.ns, now);
            }
            GlobalEvent::Swap { name, epoch, set } => {
                let result = match self.policy.install(&name, &set) {
                    Ok(()) => {
                        w.trace.emit(now, || TraceEvent::PolicyInstalled {
                            install_epoch: epoch,
                            name,
                        });
                        Ok(now)
                    }
                    Err(e) => Err(e.to_string()),
                };
                self.swapped.push(ServiceEvent::Swapped { epoch, result });
            }
            GlobalEvent::Fault(kind) => crate::faults::apply(self, w, &kind, now),
        }
    }

    /// Install results not yet streamed.
    pub(crate) fn take_swapped(&mut self) -> Vec<ServiceEvent> {
        std::mem::take(&mut self.swapped)
    }

    /// Cluster-wide heartbeat + balancer tick.
    fn tick(&mut self, w: &mut World, now: SimTime) {
        let n = w.cfg.num_mds;
        // Catch the trace's namespace model up under the *old* epoch —
        // every record carries `epoch == ticks seen so far` except the
        // tick itself, which announces the increment.
        w.trace.sync_dirs(&w.ns, now);
        w.trace.epoch += 1;
        // Accrue provisioned MDS-time up to this instant under the *old*
        // membership; transitions below only bill from here on.
        self.membership.accrue(now, w.members());
        // 1. Every MDS packages up its metrics ("send HB").
        let heartbeats = self.hb.snapshot(w, &self.policy, now);
        // The tick record before the windows roll, so its queue depth and
        // window ops are the ones the balancers will act on.
        w.trace.emit(now, || TraceEvent::HeartbeatTick {
            loads: heartbeats.iter().map(|h| h.auth_metaload).collect(),
            queued: w.counters.iter().map(|c| c.queued).collect(),
            window_ops: w.counters.iter().map(|c| c.window_ops).collect(),
        });
        // 2. Roll the measurement windows (cache tallies roll with them).
        for c in &mut w.counters {
            c.roll_window();
        }
        // 2½. The elastic controller: evaluate the `howmany` hook over the
        //     member view and take at most one membership transition
        //     (join or drain) per tick. No-op when disabled.
        crate::elastic::step(self, w, &heartbeats, now);
        // 3. Every member runs its balancer against the shared snapshots
        //    of the post-transition member set and migrates ("recv HB" →
        //    "rebalance" → "fragment" → "migrate"). A spare or departed
        //    MDS has nothing to balance.
        let (members, view) = w.member_view(&heartbeats);
        for (whoami, &m) in members.iter().enumerate() {
            // A crashed MDS neither balances nor exports.
            if !w.up[m] {
                continue;
            }
            // A poisoned balancer errors before reaching a decision.
            if self.policy.is_poisoned(m) {
                self.policy.note_error(m, now, &mut w.trace);
                continue;
            }
            let ctx = BalanceContext {
                whoami,
                heartbeats: view.clone(),
            };
            let plan = match self.policy.balancer(m).decide(&ctx) {
                Ok(Some(plan)) => plan,
                Ok(None) => {
                    self.policy.note_ok(m);
                    w.trace.emit(now, || TraceEvent::BalancerTick { mds: m });
                    continue;
                }
                Err(_) => {
                    self.policy.note_error(m, now, &mut w.trace);
                    continue;
                }
            };
            // Translate member positions back to MDS ids for the export
            // planner.
            let mut targets = vec![0.0; n];
            for (&id, &t) in members.iter().zip(&plan.targets) {
                targets[id] = t;
            }
            let plan = MigrationPlan {
                targets,
                selectors: plan.selectors,
            };
            let ns = &mut w.ns;
            let Ok(exports) = plan_exports(ns, m, self.policy.balancer(m), &plan, now) else {
                self.policy.note_error(m, now, &mut w.trace);
                continue;
            };
            self.policy.note_ok(m);
            if w.trace.on() {
                let targets = plan.targets.clone();
                let selectors: Vec<String> = plan
                    .selectors
                    .iter()
                    .map(|s| s.name().to_string())
                    .collect();
                let n_exports = exports.len();
                w.trace.emit(now, || TraceEvent::BalancerPlan {
                    mds: m,
                    targets,
                    selectors,
                    exports: n_exports,
                });
            }
            for export in exports {
                self.migrator.apply_export(w, m, export, now);
            }
        }
        // 4. Next tick, while clients are still running.
        if w.active > 0 {
            w.schedule_global(now + w.cfg.heartbeat_interval, GlobalEvent::Heartbeat);
        }
    }
}

/// The simulated cluster. Build one, optionally schedule admin actions,
/// then [`Cluster::run`] it to completion.
pub struct Cluster {
    pub(crate) co: Coordinator,
    pub(crate) world: World,
    /// Coordinator events the loop ran.
    global_steps: u64,
}

impl Cluster {
    /// Build a cluster. `make_balancer` is invoked once per MDS — each MDS
    /// runs its own independent balancer instance, as in the paper.
    pub fn new<F>(cfg: ClusterConfig, mut workload: Box<dyn Workload>, make_balancer: F) -> Self
    where
        F: FnMut(MdsId) -> Box<dyn Balancer>,
    {
        let mut ns = Namespace::new(NsConfig {
            frag_split_threshold: cfg.frag_split_threshold,
            decay_half_life: cfg.decay_half_life,
            ..Default::default()
        });
        workload.setup(&mut ns);
        let master = SimRng::new(cfg.seed);
        let co = Coordinator {
            policy: BalancerSet::new((0..cfg.num_mds).map(make_balancer).collect()),
            hb: HeartbeatView::new(&cfg, &master),
            membership: Membership::default(),
            migrator: Migrator::default(),
            failovers: 0,
            swapped: Vec::new(),
            workload_name: workload.name().to_string(),
        };
        let world = World::new(cfg, ns, workload, &master);
        Cluster {
            co,
            world,
            global_steps: 0,
        }
    }

    /// MDS `m`'s balancer, as built (or last installed).
    pub fn balancer(&self, m: MdsId) -> &dyn Balancer {
        self.co.policy.get(m)
    }

    /// Mutable access to the namespace before the run (static partitions).
    pub fn namespace_mut(&mut self) -> &mut Namespace {
        &mut self.world.ns
    }

    /// Schedule an administrative action (e.g. a manual repartition) at a
    /// point in virtual time.
    pub fn schedule_admin<F>(&mut self, at: SimTime, action: F)
    where
        F: FnOnce(&mut Namespace) + Send + 'static,
    {
        self.world
            .schedule_global(at, GlobalEvent::Admin(Box::new(action)));
    }

    /// Run to completion and produce the report.
    pub fn run(self) -> RunReport {
        self.run_with_stats().0
    }

    /// Run to completion, also returning execution statistics (data and
    /// global steps). The [`ExecStats`] never feed back into
    /// the simulation.
    pub fn run_with_stats(self) -> (RunReport, ExecStats) {
        let (report, stats, _) = self.run_inner(None);
        (report, stats)
    }

    /// Run to completion with a trace sink at `level` attached, returning
    /// the report together with the captured event stream.
    pub fn run_traced(self, level: TraceLevel) -> (RunReport, TraceBuffer) {
        let (report, _, buffer) = self.run_inner(Some(level));
        (report, buffer.expect("a level was given"))
    }

    /// Serve the cluster live: hand it to a [`LiveService`], which its
    /// caller steps in line, feeding it submitted ops and policy installs
    /// and taking install results, trace records, completions and at last
    /// the report ([`ServiceEvent::Finished`]) from it. `clock` picks
    /// batch speed ([`ClockMode::Sim`]) or wall pacing
    /// ([`ClockMode::Wall`]), under which simulated time tracks wall time
    /// from this call on.
    ///
    /// With [`ClockMode::Sim`], no command, and a scripted workload this
    /// is behaviorally identical to [`Cluster::run_with_stats`]: the
    /// service observes the run without perturbing event order, which
    /// is what `tests/daemon_equivalence.rs` pins byte-for-byte.
    ///
    /// `trace` optionally attaches a trace sink whose records are
    /// handed out as [`ServiceEvent::Trace`] batches instead of
    /// accumulating.
    pub fn serve(self, clock: ClockMode, trace: Option<TraceLevel>) -> LiveService {
        LiveService::new(self, clock, trace)
    }

    /// The one way a cluster runs to completion, untraced or with a sink
    /// at `trace` whose records are kept.
    pub(crate) fn run_inner(
        mut self,
        trace: Option<TraceLevel>,
    ) -> (RunReport, ExecStats, Option<TraceBuffer>) {
        self.begin(trace);
        self.run_while(|_, _| true);
        let (report, stats, trace) = self.end();
        (report, stats, trace.into_buffer())
    }

    /// Attach the trace sink and queue the run's first events: every
    /// client's kick-off, the heartbeat cycle and the fault plan.
    pub(crate) fn begin(&mut self, trace: Option<TraceLevel>) {
        let w = &mut self.world;
        if let Some(level) = trace {
            w.trace = Tracer::new(Some(level));
            w.trace.preamble(&w.cfg, &w.ns);
        }
        // Client-rank keys order the time-zero ties by client id.
        for c in 0..w.clients.len() {
            let key = w.client_key(c);
            w.queue
                .schedule_at_key(SimTime::ZERO, key, Event::ClientNext(c));
        }
        w.schedule_global(w.cfg.heartbeat_interval, GlobalEvent::Heartbeat);
        for fault in w.cfg.faults.events.clone() {
            w.schedule_global(fault.at, GlobalEvent::Fault(fault.kind));
        }
    }

    /// The loop body of every run: take events in time order while
    /// `due` accepts the next one's instant. Returns `true` once the run
    /// is over — the clients drained, time ran out, or nothing is left to
    /// do — and `false` when `due` refused.
    pub(crate) fn run_while(&mut self, mut due: impl FnMut(&World, SimTime) -> bool) -> bool {
        let Cluster {
            co,
            world: w,
            global_steps,
        } = self;
        loop {
            if w.drained() {
                return true;
            }
            // Events at exactly `max_duration` still run.
            let Some(next) = w.queue.peek_time().filter(|&t| t <= w.cfg.max_duration) else {
                return true;
            };
            if !due(w, next) {
                return false;
            }
            // A global comes back from the world to run here; its rank-0
            // key put it before the data-plane events of its instant.
            if let Some(global) = w.step() {
                co.run_global(w, global);
                *global_steps += 1;
            }
        }
    }

    /// Close the run: the trace's `RunEnd` trailer, the execution
    /// statistics, and the report, with the tracer handed back.
    pub(crate) fn end(self) -> (RunReport, ExecStats, Tracer) {
        let Cluster {
            co,
            mut world,
            global_steps,
        } = self;
        let w = &mut world;
        let stats = ExecStats {
            threads: 1,
            windows: w.stats.events,
            exclusive_events: global_steps,
            shards: vec![w.stats],
        };
        w.trace.run_end(w.queue.now(), w.inflight.max(0) as usize);
        let (report, trace) = into_report(&co, world);
        (report, stats, trace)
    }
}

/// Assemble the report from the coordinator and the drained simulation,
/// handing back the tracer. Each MDS's report was filled in as the run
/// went; only its `total_ops` is summed here.
fn into_report(co: &Coordinator, world: World) -> (RunReport, Tracer) {
    let members = world.members();
    let World {
        cfg,
        trace,
        counters,
        clients,
        timeouts,
        retries,
        cache_invalidations,
        ..
    } = world;
    let makespan = clients
        .iter()
        .map(|c| c.finished_at)
        .max()
        .unwrap_or(SimTime::ZERO);
    let mut mds: Vec<MdsReport> = counters.into_iter().map(|c| c.report).collect();
    for m in &mut mds {
        m.total_ops = m.throughput.total();
    }
    let sessions: u64 = mds.iter().map(|m| m.sessions_flushed).sum();
    let cache_hits: u64 = mds.iter().map(|m| m.cache_hits).sum();
    let cache_misses: u64 = mds.iter().map(|m| m.cache_misses).sum();
    let report = RunReport {
        balancer: co.policy.name.clone(),
        workload: co.workload_name.clone(),
        num_mds: cfg.num_mds,
        seed: cfg.seed,
        makespan,
        mds,
        clients: clients
            .into_iter()
            .map(|c| ClientReport {
                completed: c.completed,
                finished_at: c.finished_at,
                latency: c.latencies.summary(),
            })
            .collect(),
        sessions_flushed: sessions,
        timeouts,
        retries,
        failovers: co.failovers,
        balancer_fallbacks: co.policy.fallbacks,
        cache_hits,
        cache_misses,
        cache_invalidations: cache_invalidations + co.migrator.cache_invalidations,
        mds_seconds: co.membership.total_mds_seconds(makespan, members),
        joins: co.membership.joins,
        leaves: co.membership.leaves,
        membership_epoch: co.membership.epoch(),
    };
    (report, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{route, ClientOp};
    use crate::partition::{Export, ExportUnit};
    use crate::world::tests::SubtreeWindow;
    use crate::world::Request;
    use mantle_namespace::{NodeId, OpKind};

    /// A trivial workload: each client creates `count` files in its own
    /// directory.
    #[derive(Clone)]
    struct TinyCreate {
        clients: usize,
        count: u64,
        issued: Vec<u64>,
        dirs: Vec<NodeId>,
        /// Tell the cluster `count` up front.
        hinted: bool,
    }

    impl TinyCreate {
        fn new(clients: usize, count: u64) -> Self {
            TinyCreate {
                clients,
                count,
                issued: vec![0; clients],
                dirs: Vec::new(),
                hinted: true,
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
        fn name(&self) -> &str {
            "tiny-create"
        }
        fn ops_per_client_hint(&self) -> Option<u64> {
            self.hinted.then_some(self.count)
        }
    }

    fn subtree_to_mds1(root: NodeId) -> Export {
        Export {
            unit: ExportUnit::Subtree(root),
            to: 1,
            load: 1.0,
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

    /// The op-count hint sizes each latency log once, and changes
    /// nothing a report says.
    #[test]
    fn the_hint_sizes_latency_logs_once() {
        let cfg = ClusterConfig {
            num_mds: 2,
            ..Default::default()
        };
        let build = |hinted| {
            let tiny = TinyCreate {
                hinted,
                ..TinyCreate::new(3, 50)
            };
            Cluster::new(cfg.clone(), Box::new(tiny), |_| Box::new(NoopBalancer))
        };
        let (hinted, unhinted) = (build(true), build(false));
        let capacities = |c: &Cluster| -> Vec<usize> {
            c.world
                .clients
                .iter()
                .map(|c| c.latencies.capacity())
                .collect()
        };
        assert_eq!(capacities(&hinted), vec![50; 3]);
        assert_eq!(capacities(&unhinted), vec![0; 3]);
        let (a, b) = (hinted.run(), unhinted.run());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// At one instant the coordinator's events run before a client's, in
    /// the order they were scheduled, whatever order the queue got them
    /// in.
    #[test]
    fn coordinator_events_run_first_at_an_instant_in_schedule_order() {
        let cfg = ClusterConfig {
            num_mds: 2,
            ..Default::default()
        };
        let mut cluster = Cluster::new(cfg, Box::new(TinyCreate::new(1, 1)), |_| {
            Box::new(NoopBalancer)
        });
        let at = cluster.world.cfg.heartbeat_interval;
        let key = cluster.world.client_key(0);
        cluster
            .world
            .queue
            .schedule_at_key(at, key, Event::ClientNext(0));
        cluster.schedule_admin(at, |ns| {
            ns.mkdir_p("/first");
        });
        cluster.world.schedule_global(at, GlobalEvent::Heartbeat);
        cluster.schedule_admin(at, |ns| {
            ns.mkdir_p("/second");
        });
        let w = &mut cluster.world;
        let mut order = Vec::new();
        while w.queue.peek_time() == Some(at) {
            order.push(match w.step() {
                Some(GlobalEvent::Admin(action)) => {
                    action(&mut w.ns);
                    "admin"
                }
                Some(GlobalEvent::Heartbeat) => "heartbeat",
                Some(_) => "other global",
                None => "client",
            });
        }
        assert_eq!(order, ["admin", "heartbeat", "admin", "client"]);
        let dir = |path: &str| w.ns.lookup_child(w.ns.root(), path).expect("created");
        assert!(dir("first") < dir("second"), "admins ran in schedule order");
        assert_eq!((w.stats.events, w.queued_globals), (1, 0));
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
        let w = &mut cluster.world;
        cluster
            .co
            .migrator
            .apply_export(w, 0, subtree_to_mds1(a), SimTime::ZERO);
        assert!(w.frozen_until(a, SimTime::ZERO).is_some(), "root frozen");
        let thaw = w
            .frozen_until(ab, SimTime::ZERO)
            .expect("descendant frozen too");
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
        let key = w.client_key(0);
        w.queue
            .schedule_at_key(SimTime::ZERO, key, Event::Arrive { mds: 1, req });
        w.step();
        assert_eq!(
            w.queue.peek_time(),
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
        let w = &mut cluster.world;
        // The client learned MDS 2 serves both dirs.
        for d in [a, ab] {
            w.routes.learn(0, d, 2);
        }
        // MDS 2 exports the subtree to MDS 1.
        cluster
            .co
            .migrator
            .apply_export(w, 2, subtree_to_mds1(a), SimTime::ZERO);
        let frag = w.ns.peek_frag(ab);
        let multi = w.ns.frag_owners(ab).len() > 1;
        assert_eq!(
            route(&w.ns, ab, frag, multi, w.routes.get(0, ab)),
            0,
            "descendant cache entry cleared: route falls back to the mount authority"
        );
    }

    #[test]
    fn lapsed_stamps_defer_nothing() {
        // A freeze/cold stamp is never removed: once it lapses it reads as
        // "not covered" and defers nothing.
        let cfg = ClusterConfig {
            num_mds: 2,
            ..Default::default()
        };
        let mut cluster = Cluster::new(cfg, Box::new(TinyCreate::new(1, 1)), |_| {
            Box::new(NoopBalancer)
        });
        let a = cluster.namespace_mut().mkdir_p("/a");
        let w = &mut cluster.world;
        cluster
            .co
            .migrator
            .apply_export(w, 0, subtree_to_mds1(a), SimTime::ZERO);
        assert!(w.frozen_until(a, SimTime::ZERO).is_some());
        assert!(w.in_cold(a, SimTime::ZERO));
        let late = SimTime::from_secs(100);
        assert!(w.frozen_until(a, late).is_none());
        assert!(!w.in_cold(a, late));
        // A request arriving after the lapse is served on arrival, at the
        // warm price.
        let req = Request {
            client: 0,
            op: ClientOp {
                dir: a,
                kind: OpKind::Stat,
            },
            frag: 0,
            issued: late,
            forwarded: false,
            seq: 1,
            attempts: 0,
        };
        let key = w.client_key(0);
        w.queue
            .schedule_at_key(late, key, Event::Arrive { mds: 1, req });
        w.step();
        assert_eq!(w.counters[1].report.hits, 1, "served, not deferred");
        assert_eq!(
            w.counters[1].report.remote_prefix, 0,
            "prefix replicas warm"
        );
    }

    /// The moved region of a subtree export about to happen, worked out
    /// from the tree alone: the nested bounds directly inside it.
    fn holes_of(ns: &Namespace, root: NodeId) -> Vec<NodeId> {
        let mut holes = Vec::new();
        let mut stack = vec![root];
        while let Some(d) = stack.pop() {
            for &c in ns.children(d) {
                match ns.dir(c).auth.get() {
                    Some(_) => holes.push(c),
                    None => stack.push(c),
                }
            }
        }
        holes
    }

    /// Satellite check: the per-directory stamps answer, for every
    /// directory at every instant, what the list of live export windows
    /// they replaced answered — `max` / `any` over `contains`.
    #[test]
    fn dir_stamps_match_the_window_list_oracle() {
        let mut rng = SimRng::new(0x57a3_9105);
        let us = SimTime::from_micros;
        let (mut frag_exports, mut holed, mut overlaps, mut late_dirs) = (0, 0, 0, 0);
        for case in 0..200 {
            let mut cfg = ClusterConfig {
                num_mds: 4,
                frag_split_threshold: 12,
                ..Default::default()
            };
            // Freezes as long as the region is big.
            cfg.costs.migrate_per_inode_us = 2_000.0;
            let costs = cfg.costs.clone();
            let mut cluster = Cluster::new(cfg, Box::new(TinyCreate::new(1, 1)), |_| {
                Box::new(NoopBalancer)
            });
            let pick =
                |rng: &mut SimRng, from: &[NodeId]| from[rng.below(from.len() as u64) as usize];
            let mut dirs = vec![NodeId(0)];
            {
                let ns = cluster.namespace_mut();
                dirs.push(ns.lookup_child(ns.root(), "client0").unwrap());
                for i in 0..8 + rng.below(40) {
                    let parent = pick(&mut rng, &dirs);
                    dirs.push(ns.mkdir(parent, format!("d{i}")));
                    // Files make freezes of different lengths; a big
                    // directory fragments.
                    for _ in 0..rng.below(3) * rng.below(20) {
                        ns.record_op(parent, OpKind::Create, SimTime::ZERO);
                    }
                }
                for _ in 0..rng.below(8) {
                    ns.set_auth(pick(&mut rng, &dirs[1..]), Some(rng.below(4) as MdsId));
                }
            }
            let w = &mut cluster.world;
            let (mut frozen, mut cold): (Vec<SubtreeWindow>, Vec<SubtreeWindow>) =
                Default::default();
            let mut instants = vec![SimTime::ZERO];
            let mut now = SimTime::ZERO;
            for step in 0..2 + rng.below(7) {
                // Close enough together that freezes overlap in time, far
                // enough apart that some cold prefixes have warmed up.
                let gap = [60_000, 1_500_000][rng.below(2) as usize];
                now += us(rng.below(gap));
                if rng.below(2) == 0 {
                    let parent = pick(&mut rng, &dirs);
                    dirs.push(w.ns.mkdir(parent, format!("late{step}")));
                    late_dirs += 1;
                }
                let ns = &w.ns;
                // Half the time, on or just above an earlier export's root.
                let root = match frozen.last().filter(|_| rng.below(2) == 0) {
                    Some(w) => match ns.dir(w.root).parent() {
                        Some(up) if up != ns.root() && rng.below(2) == 0 => up,
                        _ => w.root,
                    },
                    None => pick(&mut rng, &dirs[1..]),
                };
                let frags = ns.dir(root).frags.len();
                let (unit, from, holes, inodes) = if rng.below(4) == 0 {
                    let f = rng.below(frags as u64) as usize;
                    let inodes = ns.dir(root).frags[f].files + 1;
                    (
                        ExportUnit::Frag(root, f),
                        ns.frag_auth(root, f),
                        vec![],
                        inodes,
                    )
                } else {
                    let holes = holes_of(ns, root);
                    let from = ns.resolve_auth(root);
                    (
                        ExportUnit::Subtree(root),
                        from,
                        holes,
                        ns.subtree_inodes(root),
                    )
                };
                let region = SubtreeWindow {
                    root,
                    holes,
                    watermark: ns.dir_count() as u32,
                    root_only: matches!(unit, ExportUnit::Frag(..)),
                    until: SimTime::ZERO,
                };
                frag_exports += usize::from(region.root_only);
                holed += usize::from(!region.holes.is_empty());
                overlaps += frozen
                    .iter()
                    .filter(|w| w.contains(ns, root) && w.until > now)
                    .count();
                let thaw = now + SimTime::from_micros_f64(costs.migrate_freeze_us(inodes));
                let warm = now + SimTime::from_micros_f64(costs.prefix_warmup_us);
                frozen.push(SubtreeWindow {
                    until: thaw,
                    ..region.clone()
                });
                cold.push(SubtreeWindow {
                    until: warm,
                    ..region
                });
                for t in [now, thaw, warm] {
                    instants.extend([t.saturating_sub(us(1)), t, t + us(1)]);
                }
                let to = (from + 1 + rng.below(3) as usize) % 4;
                let load = 1.0;
                cluster
                    .co
                    .migrator
                    .apply_export(w, from, Export { unit, to, load }, now);

                // Directories past the stamp vectors: one created since
                // this export, and ids the namespace has never issued.
                if step % 2 == 0 {
                    let parent = pick(&mut rng, &dirs);
                    dirs.push(w.ns.mkdir(parent, format!("after{step}")));
                }
                let world = &*w;
                let beyond = world.ns.dir_count() as u32;
                let all = (0..beyond).chain([beyond, beyond + 77, u32::MAX]);
                for d in all.map(NodeId) {
                    for &t in &instants {
                        let covering = |ws: &[SubtreeWindow]| {
                            let live = ws
                                .iter()
                                .filter(|w| w.until > t && w.contains(&world.ns, d));
                            live.map(|w| w.until).max()
                        };
                        let ctx = format!("case {case} step {step} {d:?} at {t}");
                        assert_eq!(world.frozen_until(d, t), covering(&frozen), "{ctx}");
                        assert_eq!(world.in_cold(d, t), covering(&cold).is_some(), "{ctx}");
                    }
                }
            }
        }
        // The cases did cover what the stamps have rules for.
        assert!(frag_exports > 100, "{frag_exports} frag exports");
        assert!(holed > 100, "{holed} subtree exports with nested holes");
        assert!(overlaps > 100, "{overlaps} overlapping live regions");
        assert!(
            late_dirs > 100,
            "{late_dirs} directories created between exports"
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
