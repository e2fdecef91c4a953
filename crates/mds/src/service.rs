//! The live service: a *running* cluster that a long-running daemon
//! feeds — injected client ops, hot policy installs — and that says
//! everything it has to say as **one ordered list of events**, without
//! forking the engine itself.
//!
//! # Shape
//!
//! [`Cluster::serve`] turns a cluster into a [`LiveService`], which its
//! one caller steps in line: there is no engine thread. The run loop is
//! the batch loop (`Cluster::run_while`, see [`crate::cluster`]); the
//! service only decides how far each call may go and what goes in and
//! out between calls:
//!
//! * **inbound** — [`LiveService::submit_op`] resolves the op's path
//!   against the namespace at once and queues the op on its session of a
//!   [`LiveWorkload`]; [`LiveService::install_policy`] puts the install
//!   into the engine's one event queue as a global event, so the swap
//!   runs as a coordinator step like every other control-plane mutation;
//! * **running** — [`LiveService::run_due`] runs every event that is due
//!   (see *Clocks*), and [`LiveService::deadline`] says when the next one
//!   will be;
//! * **outbound** — [`LiveService::next_event`] hands out what the runs
//!   produced, as [`ServiceEvent`]s. Each `run_due` appends, in this
//!   order: the results of installs that ran ([`ServiceEvent::Swapped`]),
//!   the trace records emitted (in emission order), and the live ops
//!   that completed.
//!
//! # Lifecycle, as event order
//!
//! `boot → serving → draining → done` is not a state anyone stores; it is
//! what the events look like. While *serving*, batches flow.
//! [`LiveService::shutdown`] starts *draining*: queues close, clients
//! finish what they have, completions keep flowing. At the end come the
//! trace tail (through `RunEnd`) and the terminal
//! [`ServiceEvent::Finished`] with the report, after which nothing more
//! is produced. "The report follows the last completion" and "an install
//! is acknowledged before anything decided under it" are thus properties
//! of event order.
//!
//! # Parked sessions
//!
//! A live client whose queue is empty is *parked*: its workload answers
//! [`PARKED`] and the engine leaves it with no scheduled event, so an idle
//! service processes no client events at all. `submit_op` wakes a parked
//! client right after queueing an op for it — one `ClientNext` under a
//! fresh key — and `shutdown` wakes every parked client so each sees its
//! stream end. A client that is busy is never woken: it pulls its next op
//! inline from the reply, exactly like a scripted client, which keeps
//! pipelined submits on one slot FIFO and leaves no stale wake-up behind.
//!
//! The wake-up lands at the engine's time frontier (the instant of the
//! last event the loop ran: the event queue's own clock), and so do the
//! directories an op creates and a hot install: nothing injected is
//! stamped before a record already handed out. Under [`ClockMode::Wall`]
//! that frontier is as old as the last thing the engine did — seconds, on
//! an idle daemon — while the op arrived *now*, so the wake-up is stamped
//! `max(frontier, WallClock::now())`: the op is issued at the simulated
//! instant it really arrived and its service time is paced from there.
//!
//! # Clocks
//!
//! With [`ClockMode::Wall`], `run_due` runs the events whose wall
//! deadline has passed, and `deadline` is the time until the next one,
//! so simulated time tracks real time. With [`ClockMode::Sim`], `run_due`
//! runs until nothing is runnable: when every live session is parked and
//! nothing is in flight, the only events left are future heartbeats, and
//! running through them would carry an idle service to its duration cap
//! in under a second. So virtual time stands still until a command gives
//! it work, and `deadline` is `None`. A `--clock=sim` service is thereby
//! a function of its command sequence. A service with no live workload
//! (scenario mode) is never idle and behaves exactly like the batch
//! engine — `tests/daemon_equivalence.rs` pins that the reports are
//! byte-identical.

use std::any::Any;
use std::collections::VecDeque;
use std::time::Duration;

use mantle_namespace::{MdsId, Namespace, NodeId, OpKind};
use mantle_policy::env::PolicySet;
use mantle_sim::{ClockMode, SimTime, WallClock};

use crate::client::{ClientOp, Workload, PARKED};
use crate::cluster::{Cluster, GlobalEvent};
use crate::report::RunReport;
use crate::trace::{TraceLevel, TraceRecord};
use crate::world::World;

/// An event out of the running engine (engine → daemon).
#[derive(Debug)]
pub enum ServiceEvent {
    /// A hot install ran (or failed to) in a coordinator global step.
    /// Handed out before the trace batch holding that install's
    /// `PolicyInstalled` record and before any completion decided under
    /// the new policy.
    Swapped {
        /// The install epoch the daemon assigned.
        epoch: u64,
        /// The simulated install instant, or why the install failed.
        result: Result<SimTime, String>,
    },
    /// Trace records emitted since the last batch, in emission order;
    /// concatenating the batches reproduces the batch-mode trace stream.
    Trace(Vec<TraceRecord>),
    /// Live ops completed since the last batch.
    Completions(Vec<LiveCompletion>),
    /// The run is over and this is its report: always the last event.
    Finished(Box<RunReport>),
}

/// One completed live op, as observed by the issuing client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveCompletion {
    /// The issuing client slot.
    pub client: usize,
    /// The MDS that ultimately served the op.
    pub mds: MdsId,
    /// What the op did.
    pub kind: OpKind,
    /// The directory it targeted.
    pub dir: NodeId,
    /// Completion instant (simulated; tracks wall time under
    /// [`ClockMode::Wall`]).
    pub at: SimTime,
    /// Client-observed latency in milliseconds.
    pub latency_ms: f64,
}

/// A [`Workload`] fed at runtime instead of generated: each client owns a
/// queue of submitted ops and is [`PARKED`] while its queue is empty.
/// Closing the queues ends every client's stream, so a live run drains
/// and terminates exactly like a batch run.
pub struct LiveWorkload {
    queues: Vec<VecDeque<ClientOp>>,
    closed: bool,
}

impl LiveWorkload {
    /// `sessions` client slots, each parked until an op is submitted for
    /// it. Pass it to [`Cluster::new`], then [`Cluster::serve`] the
    /// cluster.
    pub fn new(sessions: usize) -> LiveWorkload {
        LiveWorkload {
            queues: vec![VecDeque::new(); sessions],
            closed: false,
        }
    }
}

impl Workload for LiveWorkload {
    fn num_clients(&self) -> usize {
        self.queues.len()
    }

    fn setup(&mut self, _ns: &mut Namespace) {}

    fn next(&mut self, client: usize, _ns: &Namespace, _now: SimTime) -> Option<ClientOp> {
        // `next_ready_at` parks the client while its queue is empty and
        // open, so reaching here with an empty queue means closed.
        self.queues[client].pop_front()
    }

    fn next_ready_at(&mut self, client: usize, _now: SimTime) -> Option<SimTime> {
        (self.queues[client].is_empty() && !self.closed).then_some(PARKED)
    }

    fn name(&self) -> &str {
        "live"
    }
}

/// The world's workload as live sessions, if that is what it is.
fn sessions(w: &mut World) -> Option<&mut LiveWorkload> {
    let workload: &mut dyn Any = &mut *w.workload;
    workload.downcast_mut()
}

/// A cluster being served: built by [`Cluster::serve`], stepped by its
/// one caller with [`LiveService::run_due`].
pub struct LiveService {
    /// The run, until it ends.
    run: Option<Cluster>,
    /// What paces the run under [`ClockMode::Wall`]; `None` under
    /// [`ClockMode::Sim`].
    wall: Option<WallClock>,
    /// What the runs produced and the caller has not taken yet.
    events: VecDeque<ServiceEvent>,
}

impl LiveService {
    /// Serve `run`, with a trace sink at `trace` whose records are
    /// handed out as [`ServiceEvent::Trace`] batches instead of kept.
    /// Under [`ClockMode::Wall`], simulated time zero is now.
    pub(crate) fn new(
        mut run: Cluster,
        clock: ClockMode,
        trace: Option<TraceLevel>,
    ) -> LiveService {
        run.world.live = true;
        run.begin(trace);
        LiveService {
            run: Some(run),
            wall: (clock == ClockMode::Wall).then(WallClock::start),
            events: VecDeque::new(),
        }
    }

    /// The world, while the run lasts, and where a client woken now
    /// resumes: the frontier, or — a wall-paced engine that sat idle has
    /// a frontier as old as its last event, but the command arrived now —
    /// the simulated instant it arrived at.
    fn world(&mut self) -> Option<(&mut World, SimTime)> {
        let w = &mut self.run.as_mut()?.world;
        let frontier = w.queue.now();
        let wake_at = self.wall.map_or(frontier, |wall| frontier.max(wall.now()));
        Some((w, wake_at))
    }

    /// Queue one metadata op for `client`: its directory is resolved (and
    /// created, announced in the trace at the frontier) now, and a parked
    /// client is woken. Completions come back as
    /// [`ServiceEvent::Completions`] in submission order per client
    /// (clients are closed-loop: one outstanding op each). An op for a
    /// slot that does not exist, or once the run has ended, is dropped.
    pub fn submit_op(&mut self, client: usize, path: &str, kind: OpKind) {
        let Some((w, wake_at)) = self.world() else {
            return;
        };
        if sessions(w).is_none_or(|s| client >= s.queues.len()) {
            return;
        }
        let frontier = w.queue.now();
        let dir = w.ns.mkdir_p(path);
        w.trace.sync_dirs(&w.ns, frontier);
        if let Some(s) = sessions(w) {
            s.queues[client].push_back(ClientOp { dir, kind });
        }
        w.wake_client(client, wake_at);
    }

    /// Hot-install `set` (validated by the caller — see
    /// [`mantle_policy::install::prepare`]) on every MDS: a global event
    /// at the frontier, so the next `run_due` runs it (globals win
    /// same-instant ties) and every balancer tick after it uses the new
    /// policy. It is answered by a [`ServiceEvent::Swapped`] carrying
    /// `epoch`.
    pub fn install_policy(&mut self, name: &str, epoch: u64, set: PolicySet) {
        let Some((w, _)) = self.world() else {
            return;
        };
        let (name, set) = (name.to_string(), Box::new(set));
        w.schedule_global(w.queue.now(), GlobalEvent::Swap { name, epoch, set });
    }

    /// Shut down cleanly: close the live queues and wake every parked
    /// client, so each asks for its next op, gets none, and finishes. The
    /// run ends — with [`ServiceEvent::Finished`] — once the clients have
    /// drained. A second shutdown changes nothing.
    pub fn shutdown(&mut self) {
        let Some((w, wake_at)) = self.world() else {
            return;
        };
        let Some(s) = sessions(w) else {
            return;
        };
        s.closed = true;
        for c in 0..w.clients.len() {
            w.wake_client(c, wake_at);
        }
    }

    /// Run every event that is due — under the wall clock, those whose
    /// deadline has passed; under the simulated clock, until nothing is
    /// runnable — then queue what they produced for
    /// [`LiveService::next_event`], ending with the report if the run
    /// ended.
    pub fn run_due(&mut self) {
        let Some(run) = self.run.as_mut() else {
            return;
        };
        let over = match self.wall {
            None => run.run_while(|w, next| !idle(w, next)),
            Some(wall) => {
                // Events that fall due while earlier ones run, run too.
                let mut now = wall.now();
                run.run_while(|_, next| {
                    next <= now || {
                        now = wall.now();
                        next <= now
                    }
                })
            }
        };
        let swapped = run.co.take_swapped();
        self.events.extend(swapped);
        push_trace(&mut self.events, run.world.trace.drain());
        let mut comps = std::mem::take(&mut run.world.completions);
        if !comps.is_empty() {
            // By (time, client) — clients are closed-loop, so one instant
            // never holds two completions for the same client.
            comps.sort_unstable_by_key(|c| (c.at, c.client));
            self.events.push_back(ServiceEvent::Completions(comps));
        }
        if over {
            let (report, _, mut trace) = self.run.take().expect("running").end();
            push_trace(&mut self.events, trace.drain());
            self.events
                .push_back(ServiceEvent::Finished(Box::new(report)));
        }
    }

    /// How long until [`LiveService::run_due`] has something to run:
    /// zero if something is due now, `None` if nothing will be until a
    /// command arrives (an idle simulated clock) or ever again (the run
    /// has ended).
    pub fn deadline(&self) -> Option<Duration> {
        let w = &self.run.as_ref()?.world;
        let Some(next) = w.queue.peek_time() else {
            // Nothing queued: the next `run_due` ends the run.
            return Some(Duration::ZERO);
        };
        match self.wall {
            None => (!idle(w, next)).then_some(Duration::ZERO),
            Some(wall) => Some(wall.until(next).unwrap_or_default()),
        }
    }

    /// The oldest event not yet taken.
    pub fn next_event(&mut self) -> Option<ServiceEvent> {
        self.events.pop_front()
    }
}

/// Queue `records` as one trace batch, unless there are none.
fn push_trace(events: &mut VecDeque<ServiceEvent>, records: Vec<TraceRecord>) {
    if !records.is_empty() {
        events.push_back(ServiceEvent::Trace(records));
    }
}

/// Nothing is runnable under the simulated clock: live sessions wait for
/// commands, every queued event is a global (the world counts them), and
/// the next lies past the frontier.
fn idle(w: &World, next: SimTime) -> bool {
    w.queue.len() == w.queued_globals
        && next > w.queue.now()
        && (&*w.workload as &dyn Any).is::<LiveWorkload>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::{BalanceContext, Balancer, MigrationPlan};
    use crate::cluster::NoopBalancer;
    use crate::trace::TraceEvent;
    use crate::ClusterConfig;

    const OPS: [(&str, OpKind); 5] = [
        ("/live/a", OpKind::Mkdir),
        ("/live/a", OpKind::Create),
        ("/live/b", OpKind::Create),
        ("/live/a", OpKind::Stat),
        ("/live/a", OpKind::Readdir),
    ];

    /// `OPS`, issued back-to-back by one client of `clients`: the
    /// scripted twin of a live session fed the same ops.
    #[derive(Clone)]
    struct Script {
        clients: usize,
        client: usize,
        dirs: Vec<NodeId>,
        issued: usize,
    }

    impl Script {
        fn new(clients: usize, client: usize) -> Self {
            Script {
                clients,
                client,
                dirs: Vec::new(),
                issued: 0,
            }
        }
    }

    impl Workload for Script {
        fn num_clients(&self) -> usize {
            self.clients
        }
        fn setup(&mut self, ns: &mut Namespace) {
            self.dirs = OPS.iter().map(|(path, _)| ns.mkdir_p(path)).collect();
        }
        fn next(&mut self, client: usize, _ns: &Namespace, _now: SimTime) -> Option<ClientOp> {
            if client != self.client || self.issued == OPS.len() {
                return None;
            }
            self.issued += 1;
            Some(ClientOp {
                dir: self.dirs[self.issued - 1],
                kind: OPS[self.issued - 1].1,
            })
        }
    }

    fn config() -> ClusterConfig {
        ClusterConfig::default().with_mds(2).with_seed(9)
    }

    /// Serve `sessions` live sessions — or, given one, the scripted twin —
    /// on `clock`.
    fn serve(
        clock: ClockMode,
        sessions: usize,
        script: Option<Script>,
        trace: Option<TraceLevel>,
    ) -> LiveService {
        let workload: Box<dyn Workload> = match script {
            Some(script) => Box::new(script),
            None => Box::new(LiveWorkload::new(sessions)),
        };
        Cluster::new(config(), workload, |_| Box::new(NoopBalancer)).serve(clock, trace)
    }

    /// Everything `svc` has handed out and nobody has taken yet.
    fn taken(svc: &mut LiveService) -> Vec<ServiceEvent> {
        std::iter::from_fn(|| svc.next_event()).collect()
    }

    /// The completions among `events`, in order.
    fn completed(events: &[ServiceEvent]) -> Vec<LiveCompletion> {
        let batches = events.iter().filter_map(|ev| match ev {
            ServiceEvent::Completions(batch) => Some(batch),
            _ => None,
        });
        batches.flatten().copied().collect()
    }

    /// Step `svc` as the daemon does — run what is due, take the events,
    /// sleep to the next deadline — until `enough` holds of what `seen`
    /// has taken.
    fn run_until(
        svc: &mut LiveService,
        seen: &mut Vec<ServiceEvent>,
        enough: impl Fn(&[ServiceEvent]) -> bool,
    ) {
        loop {
            svc.run_due();
            seen.extend(taken(svc));
            if enough(seen) {
                return;
            }
            let wait = svc.deadline().expect("the engine stopped short");
            std::thread::sleep(wait);
        }
    }

    /// Step `svc` until the next `n` completions are back.
    fn completions(svc: &mut LiveService, n: usize) -> Vec<LiveCompletion> {
        let mut seen = Vec::new();
        run_until(svc, &mut seen, |seen| completed(seen).len() >= n);
        completed(&seen)
    }

    /// Shut `svc` down and run it to its end. Returns the report, the
    /// data-plane events the whole run took (`ClientNext`s included) and
    /// everything handed out since the last take, the report last.
    fn finish(mut svc: LiveService) -> (RunReport, u64, Vec<ServiceEvent>) {
        svc.shutdown();
        // The drain by hand, to read the count the run's end consumes.
        let run = svc.run.as_mut().expect("still running");
        assert!(run.run_while(|_, _| true));
        let events = run.world.stats.events;
        svc.run_due();
        let rest = taken(&mut svc);
        let Some(ServiceEvent::Finished(report)) = rest.last() else {
            panic!("the run must end with its report");
        };
        (RunReport::clone(report), events, rest)
    }

    /// The scripted twin: its completions, and how many data-plane events
    /// the five ops cost apart from the `ClientNext`s (one kick-off each).
    fn scripted(clients: usize, client: usize) -> (Vec<LiveCompletion>, u64) {
        let script = Script::new(clients, client);
        let (report, events, rest) = finish(serve(ClockMode::Sim, clients, Some(script), None));
        assert_eq!(report.total_ops(), OPS.len() as f64);
        (completed(&rest), events - clients as u64)
    }

    #[test]
    fn an_idle_service_processes_no_client_events() {
        let (_, op_events) = scripted(16, 0);
        let per_op = op_events / OPS.len() as u64;
        for (clock, idle) in [
            (ClockMode::Sim, Duration::ZERO),
            (ClockMode::Wall, Duration::from_millis(60)),
        ] {
            // Submitted before the first run, the op lands ahead of the
            // time-zero kick-off; its completion proves the kick-off ran,
            // so every session is parked from here on.
            let mut svc = serve(clock, 16, None, None);
            svc.submit_op(0, OPS[0].0, OPS[0].1);
            completions(&mut svc, 1);
            std::thread::sleep(idle);
            svc.run_due();
            let (report, events, _) = finish(svc);
            assert_eq!(report.total_ops(), 1.0);
            // 16 kick-offs and 16 shutdown wake-ups; polling every
            // millisecond would add 16 per millisecond idled.
            assert_eq!(events - per_op, 32, "{clock:?}");
        }
    }

    #[test]
    fn ops_to_a_parked_session_complete_once_in_order_at_scripted_cost() {
        let (want, op_events) = scripted(3, 1);
        let mut svc = serve(ClockMode::Sim, 3, None, None);
        svc.submit_op(1, OPS[0].0, OPS[0].1);
        // Lock-step: each op is submitted once the one before it has
        // completed and the session has parked again, so it must wake it.
        let mut got = completions(&mut svc, 1);
        for (path, kind) in &OPS[1..] {
            svc.submit_op(1, path, *kind);
            got.extend(completions(&mut svc, 1));
        }
        let (report, events, rest) = finish(svc);
        assert!(completed(&rest).is_empty(), "no completion arrives twice");
        assert_eq!(report.total_ops(), OPS.len() as f64);
        // Same kinds, same MDS, same latency, and — because a woken
        // session resumes at the frontier, which is its last reply — the
        // same instants as the closed loop that never parked.
        let key = |c: &LiveCompletion| (c.client, c.kind, c.mds, c.at, c.latency_ms.to_bits());
        assert_eq!(
            got.iter().map(key).collect::<Vec<_>>(),
            want.iter().map(key).collect::<Vec<_>>()
        );
        // ClientNext events: 3 kick-offs, 4 wake-ups, 3 shutdown wake-ups.
        assert_eq!(events - op_events, 3 + 4 + 3);
    }

    #[test]
    fn pipelined_submits_to_one_slot_share_one_wake() {
        let (want, op_events) = scripted(1, 0);
        let mut svc = serve(ClockMode::Sim, 1, None, None);
        svc.submit_op(0, OPS[0].0, OPS[0].1);
        svc.submit_op(0, OPS[1].0, OPS[1].1);
        completions(&mut svc, 2);
        // The session is parked. Three ops between two runs: the first
        // wakes it, the other two are pulled inline from the replies.
        for (path, kind) in &OPS[2..] {
            svc.submit_op(0, path, *kind);
        }
        let got = completions(&mut svc, 3);
        let (report, events, _) = finish(svc);
        assert_eq!(report.total_ops(), OPS.len() as f64);
        let kinds = |v: &[LiveCompletion]| v.iter().map(|c| (c.kind, c.at)).collect::<Vec<_>>();
        assert_eq!(kinds(&got), kinds(&want[2..]));
        // ClientNext events: the kick-off, one wake-up for the three, and
        // the shutdown wake-up.
        assert_eq!(events - op_events, 3);
    }

    #[test]
    fn shutdown_with_every_session_parked_reports_every_op_the_same_twice() {
        let run = || {
            let mut svc = serve(ClockMode::Sim, 4, None, None);
            svc.submit_op(0, OPS[0].0, OPS[0].1);
            completions(&mut svc, 1);
            // Every session in turn, one op at a time, each submitted
            // with the engine quiescent at a known frontier.
            for (i, (path, kind)) in OPS.iter().enumerate().skip(1) {
                svc.submit_op(i % 4, path, *kind);
                completions(&mut svc, 1);
            }
            let (report, _, _) = finish(svc);
            assert_eq!(report.total_ops(), OPS.len() as f64);
            format!("{report:?}")
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn swapped_precedes_its_trace_record_and_every_completion_after_it() {
        let mut svc = serve(ClockMode::Sim, 2, None, Some(TraceLevel::Decisions));
        svc.submit_op(0, OPS[0].0, OPS[0].1);
        let mut seen = Vec::new();
        run_until(&mut svc, &mut seen, |seen| completed(seen).len() == 1);
        let set = PolicySet::from_combined("IWR", r#"MDSs[i]["all"]"#, "targets[1] = 0", &["half"])
            .expect("policy compiles");
        svc.install_policy("swapped", 1, set);
        // An op submitted behind the install is decided under it.
        svc.submit_op(1, OPS[1].0, OPS[1].1);
        run_until(&mut svc, &mut seen, |seen| completed(seen).len() == 2);
        let (report, _, rest) = finish(svc);
        assert_eq!(report.balancer, "swapped");
        seen.extend(rest);

        let swapped_at = seen
            .iter()
            .position(|ev| matches!(ev, ServiceEvent::Swapped { epoch: 1, .. }))
            .expect("the install is answered");
        let ServiceEvent::Swapped {
            result: Ok(installed),
            ..
        } = &seen[swapped_at]
        else {
            panic!("install failed: {:?}", seen[swapped_at]);
        };
        let record_at = seen
            .iter()
            .position(|ev| match ev {
                ServiceEvent::Trace(batch) => batch.iter().any(|r| {
                    matches!(
                        r.event,
                        TraceEvent::PolicyInstalled {
                            install_epoch: 1,
                            ..
                        }
                    ) && r.at == *installed
                }),
                _ => false,
            })
            .expect("the install is traced at the acknowledged instant");
        assert!(swapped_at < record_at, "ack, then its trace record");
        // Session 1's op was submitted behind the install, so the new
        // policy was in force for all of it.
        let decided_under_it = seen
            .iter()
            .position(|ev| match ev {
                ServiceEvent::Completions(batch) => batch.iter().any(|c| c.client == 1),
                _ => false,
            })
            .expect("the second op completed");
        assert!(swapped_at < decided_under_it, "ack, then what it governs");
    }

    #[test]
    fn finished_is_the_last_event_and_nothing_follows_it() {
        let mut svc = serve(ClockMode::Sim, 2, None, None);
        svc.submit_op(0, OPS[0].0, OPS[0].1);
        completions(&mut svc, 1);
        svc.shutdown();
        svc.run_due();
        let mut events = taken(&mut svc);
        let Some(ServiceEvent::Finished(last)) = events.pop() else {
            panic!("the run must end with the report");
        };
        assert_eq!(last.total_ops(), 1.0);
        assert!(
            !events
                .iter()
                .any(|ev| matches!(ev, ServiceEvent::Finished(_))),
            "one report"
        );
        // Whatever it is told after its end, a service stays ended.
        svc.submit_op(0, OPS[1].0, OPS[1].1);
        svc.shutdown();
        svc.run_due();
        assert!(svc.next_event().is_none(), "nothing follows the report");
        assert_eq!(svc.deadline(), None);
    }

    #[test]
    fn a_mid_run_install_is_stamped_at_the_frontier_and_the_stream_stays_in_time_order() {
        let script = Script::new(1, 0);
        let mut svc = serve(ClockMode::Sim, 1, Some(script), Some(TraceLevel::Full));
        // Stop after the third data-plane event, with the rest of the run
        // still queued behind it.
        let run = svc.run.as_mut().expect("running");
        assert!(!run.run_while(|w, _| w.stats.events < 3));
        let frontier = run.world.queue.now();
        assert!(frontier > SimTime::ZERO, "events already ran");
        let set = PolicySet::from_combined("IWR", r#"MDSs[i]["all"]"#, "targets[1] = 0", &["half"])
            .expect("policy compiles");
        svc.install_policy("mid-run", 1, set);
        let (report, _, events) = finish(svc);
        assert_eq!(report.total_ops(), OPS.len() as f64);
        assert_eq!(report.balancer, "mid-run");
        let records: Vec<&TraceRecord> = events
            .iter()
            .filter_map(|ev| match ev {
                ServiceEvent::Trace(batch) => Some(batch),
                _ => None,
            })
            .flatten()
            .collect();
        if let Some(i) = records.windows(2).position(|w| w[1].at < w[0].at) {
            panic!(
                "record {} ({:?}) at {} µs follows one at {} µs",
                i + 1,
                records[i + 1].event,
                records[i + 1].at.as_micros(),
                records[i].at.as_micros()
            );
        }
        let installed = events
            .iter()
            .find_map(|ev| match ev {
                ServiceEvent::Swapped { epoch: 1, result } => Some(result.clone()),
                _ => None,
            })
            .expect("the install is answered")
            .expect("the install ran");
        assert_eq!(installed, frontier, "stamped at the frontier");
        let record = records
            .iter()
            .find(|r| {
                matches!(
                    r.event,
                    TraceEvent::PolicyInstalled {
                        install_epoch: 1,
                        ..
                    }
                )
            })
            .expect("the install is traced");
        assert_eq!(record.at, installed, "traced at the acknowledged instant");
    }

    /// MDS 0 ships half of what it serves to MDS 1, every tick.
    struct ShedHalf;

    impl Balancer for ShedHalf {
        fn name(&self) -> &str {
            "shed-half"
        }
        fn metaload(
            &self,
            heat: &mantle_namespace::HeatSample,
        ) -> mantle_policy::PolicyResult<f64> {
            Ok(heat.cephfs_metaload())
        }
        fn metaload_is_additive(&self) -> bool {
            true
        }
        fn decide(
            &mut self,
            ctx: &BalanceContext,
        ) -> mantle_policy::PolicyResult<Option<MigrationPlan>> {
            let mine = ctx.heartbeats[0].auth_metaload;
            Ok((ctx.whoami == 0 && mine > 0.0).then(|| MigrationPlan {
                targets: vec![0.0, mine / 2.0],
                selectors: [crate::selector::DirfragSelector::BigFirst.into()].into(),
            }))
        }
    }

    /// A client that issues `ops` back to back, resolving each path when
    /// its turn comes: the directory may have been created mid-run.
    struct PathScript {
        ops: Vec<(String, OpKind)>,
        issued: usize,
    }

    impl Workload for PathScript {
        fn num_clients(&self) -> usize {
            1
        }
        fn setup(&mut self, ns: &mut Namespace) {
            for (path, _) in self.ops.iter().filter(|(path, _)| !path.contains("late")) {
                ns.mkdir_p(path);
            }
        }
        fn next(&mut self, _client: usize, ns: &Namespace, _now: SimTime) -> Option<ClientOp> {
            let (path, kind) = self.ops.get(self.issued)?;
            self.issued += 1;
            let dir = path
                .split('/')
                .filter(|c| !c.is_empty())
                .fold(ns.root(), |d, c| {
                    ns.lookup_child(d, c).expect("created before its first op")
                });
            Some(ClientOp { dir, kind: *kind })
        }
        fn name(&self) -> &str {
            "live"
        }
    }

    /// Directories created after a migration — by a live session's ops, or
    /// by admin actions in the batch twin — sit past the end of everything
    /// an export sized by the directory count (freeze / cold stamps) and,
    /// seventy of them, past a word of the namespace's `warm` bits. They
    /// are served like any other directory, and the live run is the batch
    /// run, byte for byte.
    #[test]
    fn directories_created_after_a_migration_are_served_identically_live_and_in_batch() {
        let mut cfg = config();
        cfg.heartbeat_interval = SimTime::from_millis(5);
        let late = |i: usize| format!("/live/a/late{i}");
        let mut ops: Vec<(String, OpKind)> = Vec::new();
        for i in 0..40 {
            ops.push((["/live/a", "/live/b"][i % 2].to_string(), OpKind::Create));
        }
        let first_late = ops.len();
        ops.extend((0..70).map(|i| (late(i), OpKind::Mkdir)));
        ops.extend((0..10).map(|i| (late(69 - i), [OpKind::Stat, OpKind::Create][i % 2])));

        // Live, in lock-step: each op is submitted — its directory created
        // — at the instant the previous one completed.
        let workload = Box::new(LiveWorkload::new(1));
        let live = Cluster::new(cfg.clone(), workload, |_| Box::new(ShedHalf));
        let mut svc = live.serve(ClockMode::Sim, None);
        let mut got = Vec::new();
        for (path, kind) in &ops {
            svc.submit_op(0, path, *kind);
            got.extend(completions(&mut svc, 1));
        }
        let (live, _, _) = finish(svc);
        assert_eq!(live.total_ops(), ops.len() as f64, "every op answered");
        assert!(
            live.mds[0].migrations_out > 0 && got[first_late].mds == 1,
            "/live/a moved to MDS 1 before the first late mkdir"
        );
        assert!(
            got[first_late..].iter().all(|c| c.mds == 1),
            "late directories are served by the importer they were born under"
        );

        // The batch twin: the same ops from a script, each late directory
        // created by an admin action at the instant the live run created
        // it (globals win same-instant ties, so just before the reply
        // that makes the client ask for it).
        let script = PathScript { ops, issued: 0 };
        let mut twin = Cluster::new(cfg, Box::new(script), |_| Box::new(ShedHalf));
        for i in 0..70 {
            let (at, path) = (got[first_late + i - 1].at, late(i));
            twin.schedule_admin(at, move |ns| {
                ns.mkdir_p(&path);
            });
        }
        let batch = twin.run();
        assert_eq!(format!("{live:?}"), format!("{batch:?}"));
    }
}
