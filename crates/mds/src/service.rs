//! The live service: the seam that lets a long-running daemon feed a
//! *running* cluster engine — injected client ops, hot policy installs —
//! and hear everything the engine has to say on **one ordered stream**,
//! without forking the engine itself.
//!
//! # Shape
//!
//! The engine keeps its exact batch-mode event loop
//! (`Cluster::run_inner`, see [`crate::cluster`]); the service pump
//! merely hooks the top and bottom of each iteration:
//!
//! * **inbound** — commands submitted through a [`ServiceHandle`] are
//!   drained between events: ops are resolved against the namespace and
//!   pushed into the per-client queues of a [`LiveWorkload`], and policy
//!   installs go into the engine's one event queue as global events, so
//!   the swap runs as a coordinator step like every other control-plane
//!   mutation.
//! * **outbound** — [`ServiceHandle::events`], an
//!   [`mpsc`](std::sync::mpsc) stream of [`ServiceEvent`]s, is the only
//!   way anything leaves the engine. Each iteration sends, in this
//!   order: the results of installs that ran ([`ServiceEvent::Swapped`]),
//!   the trace records emitted since the last batch (in emission order),
//!   and the live ops that completed.
//!
//! # Lifecycle, as message order
//!
//! `boot → serving → draining → done` is not a state anyone stores; it is
//! what the stream looks like. While *serving*, batches flow.
//! [`ServiceHandle::shutdown`] starts *draining*: queues close, clients
//! finish what they have, completions keep flowing. At the end come the
//! trace tail (through `RunEnd`) and the terminal
//! [`ServiceEvent::Finished`] with the report; then the sender is
//! dropped. "The report follows the last completion" and "an install is
//! acknowledged before anything decided under it" are thus properties of
//! channel order, and a stream that disconnects *without* `Finished` is
//! an engine that died.
//!
//! A consumer that blocks on something other than the channel (the
//! daemon's reactor sits in `poll(2)`) registers a notifier
//! ([`LiveService::notify_with`]): called once an iteration's events are
//! all sent, and once more after the stream has closed — by return or by
//! panic — so the consumer always gets to observe the disconnect.
//!
//! # Parked sessions
//!
//! A live client whose queue is empty is *parked*: its workload answers
//! [`PARKED`] and the engine leaves it with no scheduled event, so an idle
//! service processes no client events at all. The pump wakes a parked
//! client right after queueing an op for it — one `ClientNext` under a
//! fresh key — and wakes every parked client on shutdown so each sees
//! its stream end. A client that is busy is never woken: it pulls its
//! next op inline from the reply, exactly like a scripted client, which
//! keeps pipelined submits on one slot FIFO and leaves no stale wake-up
//! behind.
//!
//! The wake-up lands at the engine's time frontier (the instant of the
//! last event the loop ran: the event queue's own clock), and so do the
//! directories an op creates and a hot install: nothing the pump injects
//! is stamped before a record already streamed. Under [`ClockMode::Wall`]
//! that frontier is as old as the last thing the engine did — seconds, on
//! an idle daemon — while the op arrived *now*, so the wake-up is stamped
//! `max(frontier, WallClock::now())`: the op is issued at the simulated
//! instant it really arrived and its service time is paced from there.
//!
//! # Clocks
//!
//! The pump reads one queue: the next event's instant is its
//! `peek_time`, and the world counts the coordinator events in it, so
//! "no data-plane event is pending" is "every queued event is a global".
//! With [`ClockMode::Wall`] the pump sleeps until the next event's wall
//! deadline (interruptibly — a submitted command wakes it), so simulated
//! time tracks real time. With [`ClockMode::Sim`] it never waits for a
//! deadline; the one thing it waits for is a command, when every live
//! session is parked and nothing is in flight — virtual time stands
//! still while there is no work instead of racing through heartbeats to
//! the run cap. A service with no live workload (scenario mode) never
//! waits and behaves exactly like the batch engine —
//! `tests/daemon_equivalence.rs` pins that the reports are
//! byte-identical.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};

use mantle_namespace::{MdsId, Namespace, NodeId, OpKind};
use mantle_policy::env::PolicySet;
use mantle_sim::{ClockMode, SimTime, WallClock};

use crate::client::{ClientOp, Workload, PARKED};
use crate::cluster::{Coordinator, GlobalEvent};
use crate::report::RunReport;
use crate::trace::TraceRecord;
use crate::world::World;

/// A command sent into the running engine (daemon → engine).
pub(crate) enum ServiceCmd {
    /// Inject one metadata op for `client`; the engine resolves `path`
    /// (creating missing parents) and enqueues it on the client's live
    /// queue.
    Op {
        /// Target client slot.
        client: usize,
        /// Directory path the op targets.
        path: String,
        /// What the op does.
        kind: OpKind,
    },
    /// Hot-install a new (already validated) policy on every MDS in the
    /// coordinator's next global step.
    Install {
        /// Policy name for reports and trace records.
        name: String,
        /// Install epoch assigned by the daemon.
        epoch: u64,
        /// The compiled, validated policy.
        set: PolicySet,
    },
    /// Close the live queues: clients drain and the run ends normally.
    Shutdown,
}

/// An event streamed out of the running engine (engine → daemon).
#[derive(Debug)]
pub enum ServiceEvent {
    /// A hot install ran (or failed to) in a coordinator global step. Sent before the trace batch holding that install's
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
    /// The run is over and this is its report: always the last event,
    /// after which the stream disconnects.
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

/// The command inbox shared between handle and pump. The condvar wakes a
/// wall-clock pump sleeping until the next event deadline, so a newly
/// submitted op is picked up immediately instead of after the sleep.
#[derive(Default)]
pub(crate) struct Inbox {
    pub(crate) queue: Mutex<VecDeque<ServiceCmd>>,
    pub(crate) signal: Condvar,
}

impl Inbox {
    fn push(&self, cmd: ServiceCmd) {
        self.queue
            .lock()
            .expect("service inbox never poisoned")
            .push_back(cmd);
        self.signal.notify_all();
    }
}

/// Per-client live op queues, shared by the engine's [`LiveWorkload`]
/// and the service pump (which pushes resolved ops).
pub(crate) struct LiveQueues {
    pub(crate) queues: Vec<Mutex<VecDeque<ClientOp>>>,
    pub(crate) closed: AtomicBool,
}

impl LiveQueues {
    fn new(num_clients: usize) -> Self {
        LiveQueues {
            queues: (0..num_clients)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            closed: AtomicBool::new(false),
        }
    }
}

/// A [`Workload`] fed at runtime instead of generated: each client owns a
/// queue of injected ops and is [`PARKED`] while its queue is empty.
/// Closing the queues ends every client's stream, so a live run drains
/// and terminates exactly like a batch run.
pub struct LiveWorkload {
    shared: Arc<LiveQueues>,
}

impl Workload for LiveWorkload {
    fn num_clients(&self) -> usize {
        self.shared.queues.len()
    }

    fn setup(&mut self, _ns: &mut Namespace) {}

    fn next(&mut self, client: usize, _ns: &Namespace, _now: SimTime) -> Option<ClientOp> {
        let mut q = self.shared.queues[client]
            .lock()
            .expect("live queue never poisoned");
        // `next_ready_at` parks the client while its queue is empty and
        // open, so reaching here with an empty queue means closed (or a
        // benign submit/close race, where ending the client is also the
        // right answer).
        q.pop_front()
    }

    fn next_ready_at(&mut self, client: usize, _now: SimTime) -> Option<SimTime> {
        let q = self.shared.queues[client]
            .lock()
            .expect("live queue never poisoned");
        (q.is_empty() && !self.shared.closed.load(Ordering::Acquire)).then_some(PARKED)
    }

    fn name(&self) -> &str {
        "live"
    }
}

/// The consumer's wake-up call. Called behind each iteration's sends,
/// and — because [`LiveService`] declares it after the sender — once
/// more when the service is dropped, *after* the stream has closed: a
/// consumer woken by it finds a message or the disconnect, never nothing.
#[derive(Default)]
struct Notifier(Option<Box<dyn Fn() + Send>>);

impl Notifier {
    fn notify(&self) {
        if let Some(notify) = &self.0 {
            notify();
        }
    }
}

impl Drop for Notifier {
    fn drop(&mut self) {
        self.notify();
    }
}

/// The engine side of a live service: handed to
/// [`crate::cluster::Cluster::serve`], which pumps it every scheduler
/// iteration. Create one with [`LiveService::new`]; the paired
/// [`ServiceHandle`] goes to the connection-handling side.
pub struct LiveService {
    inbox: Arc<Inbox>,
    // Field order is drop order: the stream closes, then the last notify.
    events: Sender<ServiceEvent>,
    notify: Notifier,
    clock: ClockMode,
    queues: Option<Arc<LiveQueues>>,
}

impl LiveService {
    /// Build a service and its handle. `clock` picks batch speed
    /// ([`ClockMode::Sim`]) or wall pacing ([`ClockMode::Wall`]).
    pub fn new(clock: ClockMode) -> (LiveService, ServiceHandle) {
        let inbox = Arc::new(Inbox::default());
        let (tx, rx) = channel();
        (
            LiveService {
                inbox: Arc::clone(&inbox),
                events: tx,
                notify: Notifier::default(),
                clock,
                queues: None,
            },
            ServiceHandle { inbox, events: rx },
        )
    }

    /// Create the live workload this service feeds: `sessions` client
    /// slots, each parked until an op is submitted for it. Pass the
    /// result to [`crate::cluster::Cluster::new`]. A service without a
    /// live workload (scenario mode) still pumps commands and streams
    /// events, but [`ServiceHandle::submit_op`] has no queues to land in.
    pub fn workload(&mut self, sessions: usize) -> Box<dyn Workload> {
        let q = Arc::new(LiveQueues::new(sessions));
        self.queues = Some(Arc::clone(&q));
        Box::new(LiveWorkload { shared: q })
    }

    /// Call `notify` on the engine thread whenever a scheduler iteration
    /// has sent events on [`ServiceHandle::events`] (after the last of
    /// them), and one last time once that stream has closed (the engine
    /// returned, or unwound from a panic). A consumer that blocks on
    /// sockets rather than on the channel (the daemon's reactor) uses it
    /// to be woken; it must not block.
    pub fn notify_with(&mut self, notify: impl Fn() + Send + 'static) {
        self.notify = Notifier(Some(Box::new(notify)));
    }

    fn send(&self, event: ServiceEvent) {
        // A consumer that hung up is not the engine's problem: the run
        // still drains and ends normally.
        let _ = self.events.send(event);
    }
}

/// The engine side of a [`LiveService`] at work: called by the event loop
/// (`Cluster::run_inner`) before each iteration and after each step.
pub(crate) struct ServicePump {
    svc: LiveService,
    wall: WallClock,
}

impl ServicePump {
    pub(crate) fn new(svc: LiveService) -> Self {
        ServicePump {
            svc,
            wall: WallClock::start(),
        }
    }

    /// Drain the service inbox into the engine — waking the parked
    /// clients the commands concern — then wait: under the wall clock
    /// until the next event falls due or a command arrives, under the
    /// simulated clock only for a command, and only when there is nothing
    /// else to do.
    pub(crate) fn pre(&mut self, w: &mut World) {
        let svc = &self.svc;
        let lock_inbox = || {
            svc.inbox
                .queue
                .lock()
                .expect("service inbox never poisoned")
        };
        let mut drained: Vec<ServiceCmd> = Vec::new();
        loop {
            drained.extend(lock_inbox().drain(..));
            let frontier = w.queue.now();
            // Where a woken client resumes. A wall-paced engine that sat
            // idle has a frontier as old as its last event, but the
            // command arrived now: stamp it with the simulated instant it
            // arrived at.
            let wake_at = match svc.clock {
                ClockMode::Sim => frontier,
                ClockMode::Wall => frontier.max(self.wall.now()),
            };
            for cmd in drained.drain(..) {
                match cmd {
                    ServiceCmd::Op { client, path, kind } => {
                        let Some(queues) = &svc.queues else { continue };
                        let Some(slot) = queues.queues.get(client) else {
                            continue;
                        };
                        // Resolve (and create) the target directory now,
                        // at the engine's time frontier, so the trace
                        // stream announces the dir before any op touches
                        // it.
                        let dir = w.ns.mkdir_p(&path);
                        w.trace.sync_dirs(&w.ns, frontier);
                        slot.lock()
                            .expect("live queue never poisoned")
                            .push_back(ClientOp { dir, kind });
                        w.wake_client(client, wake_at);
                    }
                    ServiceCmd::Install { name, epoch, set } => {
                        // A global event at the time frontier: the next
                        // iteration runs it (globals win same-instant
                        // ties), and every balancer tick after it uses
                        // the new policy.
                        let set = Box::new(set);
                        w.schedule_global(frontier, GlobalEvent::Swap { name, epoch, set });
                    }
                    ServiceCmd::Shutdown => {
                        // Close the queues, then wake every parked client
                        // so each asks for its next op, gets none, and
                        // finishes.
                        let Some(queues) = &svc.queues else { continue };
                        queues.closed.store(true, Ordering::Release);
                        for c in 0..w.clients.len() {
                            w.wake_client(c, wake_at);
                        }
                    }
                }
            }
            if w.drained() {
                // Drained: the scheduler's liveness check ends the run.
                // Waiting here would stall shutdown until the next (now
                // moot) global event — typically a whole heartbeat
                // interval away.
                return;
            }
            let next = w.queue.peek_time();
            let wait = match svc.clock {
                ClockMode::Sim => {
                    // Free-running: no deadline is ever waited for. But
                    // when every live session is parked, nothing is in
                    // flight and no admin event is due, the only events
                    // left are future heartbeats; running through them
                    // would carry an idle service to its duration cap in
                    // under a second. Virtual time stands still until a
                    // command gives it work. Every queued event being a
                    // global, the next is the next global.
                    let idle = svc.queues.is_some()
                        && w.queue.len() == w.queued_globals
                        && next.is_none_or(|t| t > frontier);
                    if !idle {
                        return;
                    }
                    None
                }
                ClockMode::Wall => {
                    // Wall pacing: wait until the next event is due or the
                    // inbox signals. Spurious wakeups just loop: the
                    // deadline is re-derived every pass, so newly injected
                    // (earlier) events shorten the wait and overdue
                    // backlogs skip it. With every session parked the next
                    // event is a heartbeat or a fault, never a client poll.
                    let Some(t) = next else {
                        return;
                    };
                    match self.wall.until(t) {
                        Some(wait) => Some(wait),
                        None => return,
                    }
                }
            };
            let q = lock_inbox();
            if q.is_empty() {
                let signal = &svc.inbox.signal;
                let poisoned = "service inbox never poisoned";
                match wait {
                    Some(wait) => drop(signal.wait_timeout(q, wait).expect(poisoned)),
                    None => drop(signal.wait(q).expect(poisoned)),
                }
            }
        }
    }

    /// Stream what the last iteration produced — install results first,
    /// then freshly-emitted trace records, then live completions — and
    /// tell the consumer if anything is waiting for it.
    pub(crate) fn post(&mut self, co: &mut Coordinator, w: &mut World) {
        let swapped = co.take_swapped();
        let mut waiting = !swapped.is_empty();
        for event in swapped {
            self.svc.send(event);
        }
        waiting |= self.send_trace(w.trace.drain());
        let mut comps = std::mem::take(&mut w.completions);
        if !comps.is_empty() {
            // Streamed by (time, client) — clients are closed-loop, so
            // one instant never holds two completions for the same
            // client.
            comps.sort_unstable_by_key(|c| (c.at, c.client));
            self.svc.send(ServiceEvent::Completions(comps));
            waiting = true;
        }
        if waiting {
            self.svc.notify.notify();
        }
    }

    fn send_trace(&self, records: Vec<TraceRecord>) -> bool {
        let any = !records.is_empty();
        if any {
            self.svc.send(ServiceEvent::Trace(records));
        }
        any
    }

    /// End the stream: the trace tail (records emitted after the loop's
    /// last `post`, including the `RunEnd` trailer), then the report.
    /// Consuming the pump drops the service, which closes the stream and
    /// — only then — wakes the consumer: one wake-up shows it the tail,
    /// the report and the disconnect together.
    pub(crate) fn finish(self, tail: Vec<TraceRecord>, report: RunReport) {
        self.send_trace(tail);
        self.svc.send(ServiceEvent::Finished(Box::new(report)));
    }
}

/// The daemon side of a live service: submit ops and installs, receive
/// the event stream.
pub struct ServiceHandle {
    inbox: Arc<Inbox>,
    /// Everything the engine says, in order; ends with
    /// [`ServiceEvent::Finished`], then disconnects.
    pub events: Receiver<ServiceEvent>,
}

impl ServiceHandle {
    /// Inject one op for `client`. The engine resolves the path when it
    /// drains the command; completions come back as
    /// [`ServiceEvent::Completions`] in submission order per client
    /// (clients are closed-loop: one outstanding op each).
    pub fn submit_op(&self, client: usize, path: impl Into<String>, kind: OpKind) {
        self.inbox.push(ServiceCmd::Op {
            client,
            path: path.into(),
            kind,
        });
    }

    /// Hot-install `set` (validated by the caller — see
    /// [`mantle_policy::install::prepare`]) on every MDS. The swap runs in
    /// the coordinator's next global step and is answered on the event
    /// stream by a [`ServiceEvent::Swapped`] carrying `epoch`.
    pub fn install_policy(&self, name: impl Into<String>, epoch: u64, set: PolicySet) {
        self.inbox.push(ServiceCmd::Install {
            name: name.into(),
            epoch,
            set,
        });
    }

    /// Ask the engine to shut down cleanly: live queues close, clients
    /// drain their remaining ops, and the stream ends with
    /// [`ServiceEvent::Finished`].
    pub fn shutdown(&self) {
        self.inbox.push(ServiceCmd::Shutdown);
    }
}

/// Dropping the handle shuts the engine down as [`ServiceHandle::shutdown`]
/// does: no command can reach the engine after it, so nothing else would
/// ever end a service whose every session is parked. A second shutdown
/// changes nothing.
impl Drop for ServiceHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::{BalanceContext, Balancer, MigrationPlan};
    use crate::cluster::NoopBalancer;
    use crate::trace::{TraceEvent, TraceLevel};
    use crate::world::ExecStats;
    use crate::{Cluster, ClusterConfig};
    use std::sync::mpsc::TryRecvError;
    use std::thread::JoinHandle;
    use std::time::Duration;

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

    type Run = JoinHandle<(RunReport, ExecStats)>;

    fn config() -> ClusterConfig {
        ClusterConfig::default().with_mds(2).with_seed(9)
    }

    /// Run `cluster` behind `svc` on its own thread.
    fn spawn(
        svc: LiveService,
        trace: Option<TraceLevel>,
        cluster: impl FnOnce() -> Cluster + Send + 'static,
    ) -> Run {
        std::thread::spawn(move || {
            let (report, stats, _) = cluster().run_inner(trace, Some(ServicePump::new(svc)));
            (report, stats)
        })
    }

    /// Serve `workload` (or, with `None`, `sessions` live sessions) on
    /// its own thread. Whatever `preload` submits is in the inbox before
    /// the engine's first drain, so it lands ahead of the time-zero
    /// kick-off — the one submission instant a test fully controls.
    fn serve(
        clock: ClockMode,
        sessions: usize,
        workload: Option<Script>,
        preload: impl FnOnce(&ServiceHandle),
    ) -> (ServiceHandle, Run) {
        let (mut svc, handle) = LiveService::new(clock);
        let workload: Box<dyn Workload> = match workload {
            Some(script) => Box::new(script),
            None => svc.workload(sessions),
        };
        preload(&handle);
        let run = spawn(svc, None, move || {
            Cluster::new(config(), workload, |_| Box::new(NoopBalancer))
        });
        (handle, run)
    }

    /// Block for the next `n` completions.
    fn completions(handle: &ServiceHandle, n: usize) -> Vec<LiveCompletion> {
        let mut got = Vec::new();
        while got.len() < n {
            match handle.events.recv_timeout(Duration::from_secs(30)) {
                Ok(ServiceEvent::Completions(batch)) => got.extend(batch),
                Ok(ServiceEvent::Finished(_)) => panic!("stream ended after {} of {n}", got.len()),
                Ok(_) => {}
                Err(e) => panic!("engine went quiet after {} of {n}: {e}", got.len()),
            }
        }
        got
    }

    fn events(stats: &ExecStats) -> u64 {
        stats.shards.iter().map(|s| s.events).sum()
    }

    /// The scripted twin: its completions, and how many data-plane events the
    /// five ops cost apart from the `ClientNext`s (one kick-off each).
    fn scripted(clients: usize, client: usize) -> (Vec<LiveCompletion>, u64) {
        let script = Script {
            clients,
            client,
            dirs: Vec::new(),
            issued: 0,
        };
        let (handle, run) = serve(ClockMode::Sim, clients, Some(script), |_| {});
        let (report, stats) = run.join().expect("scripted run");
        assert_eq!(report.total_ops(), OPS.len() as f64);
        (
            completions(&handle, OPS.len()),
            events(&stats) - clients as u64,
        )
    }

    #[test]
    fn an_idle_service_processes_no_client_events() {
        let (_, op_events) = scripted(16, 0);
        let per_op = op_events / OPS.len() as u64;
        for (clock, idle) in [
            (ClockMode::Sim, Duration::ZERO),
            (ClockMode::Wall, Duration::from_millis(60)),
        ] {
            // One preloaded op: its completion proves the time-zero
            // kick-off ran, so every session is parked from here on.
            let (handle, run) = serve(clock, 16, None, |h| h.submit_op(0, OPS[0].0, OPS[0].1));
            completions(&handle, 1);
            std::thread::sleep(idle);
            handle.shutdown();
            let (report, stats) = run.join().expect("live run");
            assert_eq!(report.total_ops(), 1.0);
            // 16 kick-offs and 16 shutdown wake-ups; polling every
            // millisecond would add 16 per millisecond idled.
            assert_eq!(events(&stats) - per_op, 32, "{clock:?}");
        }
    }

    #[test]
    fn ops_to_a_parked_session_complete_once_in_order_at_scripted_cost() {
        let (want, op_events) = scripted(3, 1);
        let (handle, run) = serve(ClockMode::Sim, 3, None, |h| {
            h.submit_op(1, OPS[0].0, OPS[0].1)
        });
        // Lock-step: each completion is sent after the session parked
        // again, so every later op finds it parked and must wake it.
        let mut got = completions(&handle, 1);
        for (path, kind) in &OPS[1..] {
            handle.submit_op(1, *path, *kind);
            got.extend(completions(&handle, 1));
        }
        handle.shutdown();
        let (report, stats) = run.join().expect("live run");
        assert!(
            !handle
                .events
                .try_iter()
                .any(|ev| matches!(ev, ServiceEvent::Completions(_))),
            "no completion arrives twice"
        );
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
        assert_eq!(events(&stats) - op_events, 3 + 4 + 3);
    }

    #[test]
    fn pipelined_submits_to_one_slot_share_one_wake() {
        let (want, op_events) = scripted(1, 0);
        let (handle, run) = serve(ClockMode::Sim, 1, None, |h| {
            h.submit_op(0, OPS[0].0, OPS[0].1);
            h.submit_op(0, OPS[1].0, OPS[1].1);
        });
        completions(&handle, 2);
        // The session is parked. Three ops in one inbox drain: the first
        // wakes it, the other two are pulled inline from the replies.
        {
            let mut q = handle.inbox.queue.lock().unwrap();
            for (path, kind) in &OPS[2..] {
                q.push_back(ServiceCmd::Op {
                    client: 0,
                    path: path.to_string(),
                    kind: *kind,
                });
            }
        }
        handle.inbox.signal.notify_all();
        let got = completions(&handle, 3);
        handle.shutdown();
        let (report, stats) = run.join().expect("live run");
        assert_eq!(report.total_ops(), OPS.len() as f64);
        let kinds = |v: &[LiveCompletion]| v.iter().map(|c| (c.kind, c.at)).collect::<Vec<_>>();
        assert_eq!(kinds(&got), kinds(&want[2..]));
        // ClientNext events: the kick-off, one wake-up for the three, and
        // the shutdown wake-up.
        assert_eq!(events(&stats) - op_events, 3);
    }

    #[test]
    fn dropping_the_handle_ends_an_engine_whose_sessions_are_all_parked() {
        let (handle, run) = serve(ClockMode::Sim, 2, None, |h| {
            h.submit_op(0, OPS[0].0, OPS[0].1)
        });
        // The op completed, so both sessions are parked and the engine
        // waits for a command.
        completions(&handle, 1);
        drop(handle);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !run.is_finished() {
            assert!(
                std::time::Instant::now() < deadline,
                "the engine outlived its handle"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        let (report, _) = run.join().expect("live run");
        assert_eq!(report.total_ops(), 1.0);
    }

    #[test]
    fn shutdown_with_every_session_parked_reports_every_op_the_same_twice() {
        let run = || {
            let (handle, run) = serve(ClockMode::Sim, 4, None, |h| {
                h.submit_op(0, OPS[0].0, OPS[0].1)
            });
            completions(&handle, 1);
            // Every session in turn, one op at a time, so each is
            // injected with the engine quiescent at a known frontier.
            for (i, (path, kind)) in OPS.iter().enumerate().skip(1) {
                handle.submit_op(i % 4, *path, *kind);
                completions(&handle, 1);
            }
            handle.shutdown();
            let (report, _) = run.join().expect("live run");
            assert_eq!(report.total_ops(), OPS.len() as f64);
            format!("{report:?}")
        };
        assert_eq!(run(), run());
    }

    /// Everything left on the stream of a run that has ended.
    fn rest(handle: &ServiceHandle) -> Vec<ServiceEvent> {
        handle.events.try_iter().collect()
    }

    #[test]
    fn swapped_precedes_its_trace_record_and_every_completion_after_it() {
        let (mut svc, handle) = LiveService::new(ClockMode::Sim);
        let workload = svc.workload(2);
        handle.submit_op(0, OPS[0].0, OPS[0].1);
        let run = spawn(svc, Some(TraceLevel::Decisions), move || {
            Cluster::new(config(), workload, |_| Box::new(NoopBalancer))
        });
        let mut seen: Vec<ServiceEvent> = Vec::new();
        let mut wait_for = |what: &dyn Fn(&ServiceEvent) -> bool| loop {
            let ev = handle
                .events
                .recv_timeout(Duration::from_secs(30))
                .expect("engine went quiet");
            seen.push(ev);
            if what(seen.last().expect("just pushed")) {
                break;
            }
        };
        wait_for(&|ev| matches!(ev, ServiceEvent::Completions(_)));
        let set = PolicySet::from_combined("IWR", r#"MDSs[i]["all"]"#, "targets[1] = 0", &["half"])
            .expect("policy compiles");
        handle.install_policy("swapped", 1, set);
        // An op submitted behind the install is decided under it.
        handle.submit_op(1, OPS[1].0, OPS[1].1);
        wait_for(&|ev| matches!(ev, ServiceEvent::Completions(_)));
        handle.shutdown();
        let (report, _) = run.join().expect("live run");
        assert_eq!(report.balancer, "swapped");
        seen.extend(rest(&handle));

        let swapped_at = seen
            .iter()
            .position(|ev| matches!(ev, ServiceEvent::Swapped { epoch: 1, .. }))
            .expect("the install is answered on the stream");
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
        // Session 1's op entered the inbox behind the install, so the new
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
    fn finished_is_the_last_event_and_then_the_stream_disconnects() {
        let (handle, run) = serve(ClockMode::Sim, 2, None, |h| {
            h.submit_op(0, OPS[0].0, OPS[0].1)
        });
        completions(&handle, 1);
        handle.shutdown();
        let (report, _) = run.join().expect("live run");
        let mut events = rest(&handle);
        let Some(ServiceEvent::Finished(last)) = events.pop() else {
            panic!("the stream must end with the report");
        };
        assert_eq!(format!("{last:?}"), format!("{report:?}"));
        assert!(
            !events
                .iter()
                .any(|ev| matches!(ev, ServiceEvent::Finished(_))),
            "one report"
        );
        assert_eq!(
            handle.events.try_recv().unwrap_err(),
            TryRecvError::Disconnected,
            "nothing follows it"
        );
    }

    /// `OPS` from one client, as the scripted twin issues them, except
    /// that the third `next()` call also submits a policy install: the
    /// pump drains it mid-run, with events already behind it.
    struct InstallMidRun {
        script: Script,
        inbox: Arc<Inbox>,
        calls: usize,
    }

    impl Workload for InstallMidRun {
        fn num_clients(&self) -> usize {
            self.script.num_clients()
        }
        fn setup(&mut self, ns: &mut Namespace) {
            self.script.setup(ns);
        }
        fn next(&mut self, client: usize, ns: &Namespace, now: SimTime) -> Option<ClientOp> {
            self.calls += 1;
            if self.calls == 3 {
                let set = PolicySet::from_combined(
                    "IWR",
                    r#"MDSs[i]["all"]"#,
                    "targets[1] = 0",
                    &["half"],
                )
                .expect("policy compiles");
                self.inbox.push(ServiceCmd::Install {
                    name: "mid-run".into(),
                    epoch: 1,
                    set,
                });
            }
            self.script.next(client, ns, now)
        }
    }

    #[test]
    fn a_mid_run_install_is_stamped_at_the_frontier_and_the_stream_stays_in_time_order() {
        let (svc, handle) = LiveService::new(ClockMode::Sim);
        let workload = InstallMidRun {
            script: Script {
                clients: 1,
                client: 0,
                dirs: Vec::new(),
                issued: 0,
            },
            inbox: Arc::clone(&handle.inbox),
            calls: 0,
        };
        let run = spawn(svc, Some(TraceLevel::Full), move || {
            Cluster::new(config(), Box::new(workload), |_| Box::new(NoopBalancer))
        });
        let (report, _) = run.join().expect("live run");
        assert_eq!(report.total_ops(), OPS.len() as f64);
        assert_eq!(report.balancer, "mid-run");
        let events = rest(&handle);
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
            .expect("the install is answered on the stream")
            .expect("the install ran");
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
        let (mut svc, handle) = LiveService::new(ClockMode::Sim);
        let workload = svc.workload(1);
        handle.submit_op(0, &ops[0].0, ops[0].1);
        let live_cfg = cfg.clone();
        let run = spawn(svc, None, move || {
            Cluster::new(live_cfg, workload, |_| Box::new(ShedHalf))
        });
        let mut got = completions(&handle, 1);
        for (path, kind) in &ops[1..] {
            handle.submit_op(0, path, *kind);
            got.extend(completions(&handle, 1));
        }
        handle.shutdown();
        let (live, _) = run.join().expect("live run");
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

    /// A policy bug of the worst kind.
    struct Exploding;

    impl Balancer for Exploding {
        fn name(&self) -> &str {
            "exploding"
        }
        fn metaload(
            &self,
            heat: &mantle_namespace::HeatSample,
        ) -> mantle_policy::PolicyResult<f64> {
            Ok(heat.cephfs_metaload())
        }
        fn decide(
            &mut self,
            _ctx: &BalanceContext,
        ) -> mantle_policy::PolicyResult<Option<MigrationPlan>> {
            panic!("balancer bug (expected by this test)")
        }
    }

    #[test]
    fn a_panicking_engine_closes_the_stream_without_finished_and_still_notifies() {
        let (mut svc, handle) = LiveService::new(ClockMode::Sim);
        let workload = svc.workload(1);
        handle.submit_op(0, OPS[0].0, OPS[0].1);
        // The consumer is the notifier itself, as the daemon's reactor is:
        // woken, it drains the stream and notes what it found. It runs on
        // the engine thread, so what it sees at each call is exact.
        let log = Arc::new(Mutex::new(Vec::new()));
        svc.notify_with({
            let log = Arc::clone(&log);
            move || {
                let mut log = log.lock().expect("log");
                loop {
                    match handle.events.try_recv() {
                        Ok(ServiceEvent::Finished(_)) => log.push("finished"),
                        Ok(_) => log.push("event"),
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => {
                            log.push("disconnected");
                            break;
                        }
                    }
                }
            }
        });
        let run = spawn(svc, None, move || {
            // The first tick comes before the op can complete.
            let mut cfg = config();
            cfg.heartbeat_interval = SimTime::from_micros(100);
            Cluster::new(cfg, workload, |_| Box::new(Exploding))
        });
        assert!(run.join().is_err(), "the engine thread panicked");
        let log = log.lock().expect("log");
        assert_eq!(
            log.last(),
            Some(&"disconnected"),
            "the last wake-up shows the hang-up: {log:?}"
        );
        assert!(!log.contains(&"finished"), "{log:?}");
    }
}
