//! Live-service plumbing: the channel types that let a long-running
//! daemon feed a *running* cluster engine — injected client ops, hot
//! policy installs, live trace/completion streams — without forking the
//! engine itself.
//!
//! # Shape
//!
//! The engine keeps its exact batch-mode event loop (windows + exclusive
//! steps, see [`crate::cluster`]); a [`LiveService`] merely hooks the top
//! and bottom of each scheduler iteration:
//!
//! * **inbound** — commands submitted through a [`ServiceHandle`] are
//!   drained between windows: ops are resolved against the namespace and
//!   pushed into the per-client queues of a [`LiveWorkload`], and policy
//!   installs are scheduled as admin events so the swap runs in the
//!   coordinator's exclusive step like every other control-plane
//!   mutation.
//! * **outbound** — each iteration the pump drains newly-emitted trace
//!   records (already in global `(time, key)` order) and live op
//!   completions into an [`mpsc`](std::sync::mpsc) stream of
//!   [`ServiceEvent`]s the daemon forwards to subscribers, then calls the
//!   service's notifier ([`LiveService::notify_with`]) so a consumer
//!   blocked on something other than the channel learns there is
//!   something to read. A swap ack and the trailing trace batch notify
//!   the same way.
//!
//! # Parked sessions
//!
//! A live client whose queue is empty is *parked*: its workload answers
//! [`PARKED`] and the shard leaves it with no scheduled event, so an idle
//! service processes no client events at all. The pump wakes a parked
//! client right after queueing an op for it — one `ClientNext` under a
//! fresh key — and wakes every parked client on shutdown so each sees
//! its stream end. A client that is busy is never woken: it pulls its
//! next op inline from the reply, exactly like a scripted client, which
//! keeps pipelined submits on one slot FIFO and leaves no stale wake-up
//! behind.
//!
//! The wake-up lands at the engine's time frontier (the instant of the
//! last processed event). Under [`ClockMode::Wall`] that frontier is as
//! old as the last thing the engine did — seconds, on an idle daemon —
//! while the op arrived *now*, so the wake-up is stamped
//! `max(frontier, WallClock::now())`: the op is issued at the simulated
//! instant it really arrived and its service time is paced from there.
//!
//! # Clocks
//!
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
use mantle_sim::{ClockMode, SimTime};

use crate::client::{ClientOp, Workload, PARKED};
use crate::trace::TraceRecord;

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
    /// coordinator's next exclusive step.
    Install {
        /// Policy name for reports and trace records.
        name: String,
        /// Install epoch assigned by the daemon.
        epoch: u64,
        /// The compiled, validated policy.
        set: PolicySet,
        /// Acked with the simulated install instant, or an error.
        ack: Sender<Result<SimTime, String>>,
    },
    /// Close the live queues: clients drain and the run ends normally.
    Shutdown,
}

/// An event streamed out of the running engine (engine → daemon).
#[derive(Debug)]
pub enum ServiceEvent {
    /// Trace records emitted since the last batch, in global
    /// `(time, key)` order; batches are themselves time-ordered, so
    /// concatenating them reproduces the batch-mode trace stream.
    Trace(Vec<TraceRecord>),
    /// Live ops completed since the last batch.
    Completions(Vec<LiveCompletion>),
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

/// Per-client live op queues, shared by every shard's [`LiveWorkload`]
/// fork and the service pump (which pushes resolved ops).
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

    fn fork(&self) -> Box<dyn Workload> {
        Box::new(LiveWorkload {
            shared: Arc::clone(&self.shared),
        })
    }

    fn name(&self) -> &str {
        "live"
    }
}

/// The engine side of a live service: handed to
/// [`crate::cluster::Cluster::serve`], which pumps it every scheduler
/// iteration. Create one with [`LiveService::new`]; the paired
/// [`ServiceHandle`] goes to the connection-handling side.
pub struct LiveService {
    pub(crate) inbox: Arc<Inbox>,
    pub(crate) events: Sender<ServiceEvent>,
    pub(crate) clock: ClockMode,
    pub(crate) queues: Option<Arc<LiveQueues>>,
    pub(crate) notify: Option<Box<dyn Fn() + Send>>,
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
                clock,
                queues: None,
                notify: None,
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

    /// Call `notify` on the engine thread after every message the service
    /// makes available: an event batch sent on [`ServiceHandle::events`]
    /// or a swap ack. A consumer that blocks on sockets rather than on
    /// the channel (the daemon's reactor) uses it to be woken; it must
    /// not block.
    pub fn notify_with(&mut self, notify: impl Fn() + Send + 'static) {
        self.notify = Some(Box::new(notify));
    }
}

/// The daemon side of a live service: submit ops and installs, receive
/// the event stream.
pub struct ServiceHandle {
    inbox: Arc<Inbox>,
    /// Trace/completion batches emitted by the engine, in order.
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
    /// [`mantle_policy::install::prepare`]) on every MDS. Returns a
    /// receiver acked with the simulated install instant once the swap
    /// has run in the coordinator's exclusive step.
    pub fn install_policy(
        &self,
        name: impl Into<String>,
        epoch: u64,
        set: PolicySet,
    ) -> Receiver<Result<SimTime, String>> {
        let (tx, rx) = channel();
        self.inbox.push(ServiceCmd::Install {
            name: name.into(),
            epoch,
            set,
            ack: tx,
        });
        rx
    }

    /// Ask the engine to shut down cleanly: live queues close, clients
    /// drain their remaining ops, and the run ends with a normal
    /// [`crate::report::RunReport`].
    pub fn shutdown(&self) {
        self.inbox.push(ServiceCmd::Shutdown);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::NoopBalancer;
    use crate::shard::ExecStats;
    use crate::{Cluster, ClusterConfig, ExecMode, RunReport};
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
        fn fork(&self) -> Box<dyn Workload> {
            Box::new(self.clone())
        }
    }

    type Run = JoinHandle<(RunReport, ExecStats)>;

    fn config(exec: ExecMode) -> ClusterConfig {
        ClusterConfig::default()
            .with_mds(2)
            .with_seed(9)
            .with_exec_mode(exec)
    }

    /// Serve `workload` (or, with `None`, `sessions` live sessions) on
    /// its own thread. Whatever `preload` submits is in the inbox before
    /// the engine's first drain, so it lands ahead of the time-zero
    /// kick-off — the one submission instant a test fully controls.
    fn serve(
        clock: ClockMode,
        exec: ExecMode,
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
        let run = std::thread::spawn(move || {
            let cluster = Cluster::new(config(exec), workload, |_| Box::new(NoopBalancer));
            let (report, _, stats) = cluster.serve_with_stats(svc, None);
            (report, stats)
        });
        (handle, run)
    }

    /// Block for the next `n` completions.
    fn completions(handle: &ServiceHandle, n: usize) -> Vec<LiveCompletion> {
        let mut got = Vec::new();
        while got.len() < n {
            match handle.events.recv_timeout(Duration::from_secs(30)) {
                Ok(ServiceEvent::Completions(batch)) => got.extend(batch),
                Ok(ServiceEvent::Trace(_)) => {}
                Err(e) => panic!("engine went quiet after {} of {n}: {e}", got.len()),
            }
        }
        got
    }

    fn events(stats: &ExecStats) -> u64 {
        stats.shards.iter().map(|s| s.events).sum()
    }

    /// The scripted twin: its completions, and how many shard events the
    /// five ops cost apart from the `ClientNext`s (one kick-off each).
    fn scripted(clients: usize, client: usize) -> (Vec<LiveCompletion>, u64) {
        let script = Script {
            clients,
            client,
            dirs: Vec::new(),
            issued: 0,
        };
        let (handle, run) = serve(
            ClockMode::Sim,
            ExecMode::Single,
            clients,
            Some(script),
            |_| {},
        );
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
            let (handle, run) = serve(clock, ExecMode::Single, 16, None, |h| {
                h.submit_op(0, OPS[0].0, OPS[0].1)
            });
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
        let (handle, run) = serve(ClockMode::Sim, ExecMode::Single, 3, None, |h| {
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
            handle.events.try_recv().is_err(),
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
        let (handle, run) = serve(ClockMode::Sim, ExecMode::Single, 1, None, |h| {
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
    fn shutdown_with_every_session_parked_reports_every_op_in_both_exec_modes() {
        let run = |exec| {
            let (handle, run) = serve(ClockMode::Sim, exec, 4, None, |h| {
                h.submit_op(0, OPS[0].0, OPS[0].1)
            });
            completions(&handle, 1);
            // Sessions on both shards, one op at a time, so each is
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
        assert_eq!(run(ExecMode::Single), run(ExecMode::Sharded { threads: 2 }));
    }
}
