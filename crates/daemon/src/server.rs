//! The `mantled` connection reactor: a single-threaded nonblocking
//! accept/read/dispatch/write loop over `std::net`, blocked in `poll(2)`
//! ([`crate::sys`]) whenever an iteration finds nothing to do.
//!
//! The reactor owns the [`Engine`] handle. Inbound frames become engine
//! commands; each loop iteration drains the engine's event stream,
//! routing completions back to the issuing connection (per-slot FIFO
//! tickets — a slot's ops complete in submission order, pipelined or
//! not), install results back to the admin that asked (one more FIFO —
//! installs run in submission order), and broadcasting trace records to
//! every `trace`-role subscriber. The stream's last event is the
//! engine's report; receiving it is what ends [`Server::run`].
//!
//! # One state per connection
//!
//! A connection's lifecycle is one `State`. Its frame cap, whether it is
//! read, and which frames it takes are each one `match` on it:
//!
//! | state | frame cap | read | frames taken | exits |
//! |---|---|---|---|---|
//! | `Hello` | 64 KiB | yes | `hello` | to the role the hello names; to `Closing` on a refused hello (`bad-hello`, `no-slot`) or any other frame |
//! | `Client { slot }` | 64 KiB | while at most 1 MiB is unsent | `op` | to `Closing` on any other frame, which frees the slot |
//! | `Admin` | 16 MiB | while at most 1 MiB is unsent | `admin` | to `Closing` on any other frame |
//! | `Trace` | 64 KiB | yes | none | to `Closing` on any frame, or when it lags |
//! | `Closing` | — | no | none | dropped once its queue is flushed |
//!
//! A malformed frame (`bad-frame`) is answered in its turn, after the
//! frames ahead of it, and moves any state to `Closing`; a hang-up or a
//! socket error drops the connection from any state. Every reply is
//! addressed by slab index *and* accept token (`Addr`), so one for a
//! connection that has gone is dropped, not delivered to whoever reuses
//! its index.
//!
//! # No polling, no timeout
//!
//! The `poll` set is the listener, every connection (readable as the
//! table says, writable only while it has unsent bytes) and the
//! engine's wake stream, into which the engine thread writes a byte
//! behind every batch of events it sends. Readiness is level-triggered
//! and the reactor only blocks after a full iteration that found every
//! source empty, so anything that arrives after its source was checked
//! is still there — as a readable descriptor — when `poll` is entered:
//! no wake-up can be lost, and `poll` is given no timeout. An idle
//! daemon therefore makes no system calls at all between heartbeats;
//! `status` reports `reactor_wakeups` and `reactor_timeouts` (returns
//! with nothing ready, which only a signal can cause) so that is
//! checkable from outside.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::TryRecvError;
use std::time::Instant;

use mantle_mds::{RunReport, ServiceEvent};

use crate::config::DaemonConfig;
use crate::engine::{policy_source_from_json, Engine, PRESET_NAMES};
use crate::json::Json;
use crate::sys::{poll, PollFd, POLLIN, POLLOUT};
use crate::wire::{
    decode_frame, encode_frame, error_msg, op_kind, report_json, MAX_FRAME, PROTO_VERSION,
};

/// Connections beyond `sessions + SPARE_CONNS` are refused with
/// `too-many-connections`: every session slot can be bound and a few
/// dozen admin and trace connections still fit, while the `poll` set —
/// and the memory a crowd of idle peers can pin — stays bounded.
const SPARE_CONNS: usize = 32;

/// A `trace` subscriber whose write buffer would pass this is dropped
/// with `lagged`. The stream is best-effort by design; one stalled reader
/// must not grow the daemon without limit. The buffer is only reset when
/// it empties, so this also catches a reader that trails by less but
/// never catches up — which takes being a full socket buffer behind for
/// 4 MiB of stream.
const TRACE_BACKLOG_CAP: usize = 4 << 20;

/// A `client` or `admin` connection with more than this queued for it is
/// not read from until the queue drains back under it: a peer that
/// pipelines requests and never reads its replies is pushed back by TCP
/// and cannot grow the daemon. Replies are never dropped, so the
/// connection resumes where it stopped.
const REPLY_BACKLOG_CAP: usize = 1 << 20;

/// The longest frame a connection may send before its `hello`, and ever
/// on a `client` or `trace` connection: far above any `op` frame, and all
/// the receive buffer a peer that announces more and trickles it in can
/// pin. `admin` connections carry policy bundles and keep [`MAX_FRAME`].
const SMALL_FRAME: usize = 64 << 10;

/// Detail of the `policy-rejected` reply to a bundle that carries
/// `howmany`.
const HOWMANY_REFUSED: &str = "this daemon runs fixed membership: `howmany` is evaluated only by \
                               the offline `elastic` scenarios; remove it from the bundle";

/// Where a connection is in its life: the table in the module docs.
#[derive(Debug, Clone, Copy)]
enum State {
    /// Accepted; its first frame must be a `hello`.
    Hello,
    /// Issues metadata ops on session slot `slot`.
    Client { slot: usize },
    /// Control plane: status, policy swap, scenarios, shutdown.
    Admin,
    /// Receives the live trace stream, one record per frame.
    Trace,
    /// Refused or cut off: flush what is queued, then drop.
    Closing,
}

/// Where a reply goes: a connection's slab index and the token it was
/// accepted with, which no later connection at that index shares.
#[derive(Debug, Clone, Copy)]
struct Addr {
    idx: usize,
    token: u64,
}

struct Conn {
    stream: TcpStream,
    /// Unique per accepted connection (see [`Addr`]).
    token: u64,
    rbuf: Vec<u8>,
    /// Outbound bytes; `wbuf[..wpos]` is already written. Whole frames
    /// are appended, and the buffer is reset only once fully flushed, so
    /// offset 0 is always a frame boundary.
    wbuf: Vec<u8>,
    wpos: usize,
    state: State,
}

impl Conn {
    fn unsent(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// The longest frame this connection may send.
    fn frame_cap(&self) -> usize {
        match self.state {
            State::Admin => MAX_FRAME,
            State::Hello | State::Client { .. } | State::Trace | State::Closing => SMALL_FRAME,
        }
    }

    /// Pop the next complete frame off `rbuf`, refusing one announced
    /// longer than [`Conn::frame_cap`] before its bytes arrive.
    fn next_frame(&mut self) -> Result<Option<Json>, String> {
        let cap = self.frame_cap();
        if let Some(prefix) = self.rbuf.first_chunk::<4>() {
            let len = u32::from_be_bytes(*prefix) as usize;
            if len > cap {
                return Err(format!(
                    "frame of {len} bytes exceeds {cap} on this connection"
                ));
            }
        }
        decode_frame(&mut self.rbuf).map_err(|e| e.to_string())
    }

    /// Whether to take input from the peer.
    fn reading(&self) -> bool {
        match self.state {
            State::Hello | State::Client { .. } | State::Admin => {
                self.unsent() <= REPLY_BACKLOG_CAP
            }
            State::Trace => true,
            State::Closing => false,
        }
    }

    /// Give up on a subscriber that cannot keep up: drop every queued
    /// frame that has not started going out, and end the stream with a
    /// `lagged` error. The frame in flight (if any) is completed first so
    /// the error still arrives on a frame boundary.
    fn cut_off_lagged(&mut self) {
        let mut boundary = 0;
        while boundary < self.wpos {
            let len = u32::from_be_bytes(
                self.wbuf[boundary..boundary + 4]
                    .try_into()
                    .expect("four bytes"),
            );
            boundary += 4 + len as usize;
        }
        self.wbuf.truncate(boundary);
        self.wbuf.extend_from_slice(&encode_frame(&error_msg(
            None,
            "lagged",
            format!("trace backlog passed {TRACE_BACKLOG_CAP} bytes; resubscribe"),
        )));
        self.state = State::Closing;
    }
}

/// A client slot: whether a connection holds it, and its outstanding
/// tickets in submission order. Completions for the slot pop the front
/// ticket. The engine completes a slot's ops in order even after the
/// connection that submitted them has gone, so tickets live here, not on
/// the connection; a reply to a gone connection is dropped by
/// [`Server::push`].
#[derive(Default)]
struct Slot {
    bound: bool,
    tickets: VecDeque<Ticket>,
}

/// Who to answer, once the engine has: the connection and the request's
/// `id`.
type Ticket = (Addr, Option<u64>);

/// The daemon server: listener, connections, engine.
pub struct Server {
    cfg: DaemonConfig,
    listener: TcpListener,
    engine: Engine,
    conns: Vec<Option<Conn>>,
    slots: Vec<Slot>,
    /// Installs handed to the engine and not yet answered, oldest first.
    swaps: VecDeque<Ticket>,
    /// How the event stream ended, once it has: with the engine's report,
    /// or (`None`) by hanging up without one.
    ended: Option<Option<RunReport>>,
    started: Instant,
    next_token: u64,
    ops_submitted: u64,
    ops_completed: u64,
    /// Returns from `poll`, and those of them with nothing ready.
    reactor_wakeups: u64,
    reactor_timeouts: u64,
    shutting_down: bool,
}

impl Server {
    /// Bind the listen address and boot the engine. Does not serve yet —
    /// call [`Server::run`].
    pub fn bind(cfg: DaemonConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let engine = Engine::start(&cfg).map_err(io::Error::other)?;
        let slots = (0..cfg.sessions).map(|_| Slot::default()).collect();
        Ok(Server {
            cfg,
            listener,
            engine,
            conns: Vec::new(),
            slots,
            swaps: VecDeque::new(),
            ended: None,
            started: Instant::now(),
            next_token: 0,
            ops_submitted: 0,
            ops_completed: 0,
            reactor_wakeups: 0,
            reactor_timeouts: 0,
            shutting_down: false,
        })
    }

    /// The bound address (resolves `--addr=...:0` ephemeral ports).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Run the reactor until the engine's event stream ends (normally: a
    /// `shutdown` admin request closed the live queues, the clients
    /// drained, and the engine sent its report). The report is the
    /// stream's last event, so every reply and trace record ahead of it
    /// has been queued — and gets one more flush — before this returns it.
    pub fn run(mut self) -> RunReport {
        let report = loop {
            let mut progressed = false;
            progressed |= self.accept_new();
            progressed |= self.read_all();
            progressed |= self.drain_events();
            progressed |= self.flush_all();
            self.reap_closed();
            if let Some(end) = self.ended.take() {
                break end;
            }
            if !progressed {
                self.wait();
            }
        };
        self.engine.finish();
        report.expect("engine thread completed")
    }

    /// Block until a socket or the engine has something for the reactor.
    /// Only called after an iteration that found every source empty; see
    /// the module docs for why that needs no timeout.
    fn wait(&mut self) {
        let mut fds = Vec::with_capacity(2 + self.conns.len());
        fds.push(PollFd::new(self.engine.wake_stream(), POLLIN));
        fds.push(PollFd::new(&self.listener, POLLIN));
        for conn in self.conns.iter().flatten() {
            let mut events = 0;
            if conn.reading() {
                events |= POLLIN;
            }
            if conn.unsent() > 0 {
                events |= POLLOUT;
            }
            fds.push(PollFd::new(&conn.stream, events));
        }
        let ready = poll(&mut fds, None).expect("poll on the reactor's own descriptors");
        self.reactor_wakeups += 1;
        if ready == 0 {
            self.reactor_timeouts += 1;
        }
        if fds[0].ready() {
            self.engine.drain_wakes();
        }
    }

    fn accept_new(&mut self) -> bool {
        let mut any = false;
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    any = true;
                    let open = self.conns.iter().flatten().count();
                    if open >= self.cfg.sessions + SPARE_CONNS {
                        // One small frame into a fresh socket's empty
                        // send buffer; then the drop closes it.
                        let _ = (&stream).write(&encode_frame(&error_msg(
                            None,
                            "too-many-connections",
                            format!("{open} connections already open"),
                        )));
                        continue;
                    }
                    self.next_token += 1;
                    let conn = Conn {
                        stream,
                        token: self.next_token,
                        rbuf: Vec::new(),
                        wbuf: Vec::new(),
                        wpos: 0,
                        state: State::Hello,
                    };
                    match self.conns.iter().position(Option::is_none) {
                        Some(idx) => self.conns[idx] = Some(conn),
                        None => self.conns.push(Some(conn)),
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        any
    }

    /// Read every readable connection, then dispatch what was decoded in
    /// arrival order, then drop the peers that hung up: each frame that
    /// arrived before a hang-up is dispatched like any other.
    fn read_all(&mut self) -> bool {
        let mut inbound: Vec<(usize, Result<Json, String>)> = Vec::new();
        let mut hung_up = Vec::new();
        let mut any = false;
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_mut() else {
                continue;
            };
            if !conn.reading() {
                continue;
            }
            let mut tmp = [0u8; 4096];
            loop {
                // Never more than one frame's worth buffered: whatever is
                // in `rbuf` past that is a complete frame to decode first.
                let room = (4 + conn.frame_cap()).saturating_sub(conn.rbuf.len());
                if room == 0 {
                    break;
                }
                let take = room.min(tmp.len());
                match conn.stream.read(&mut tmp[..take]) {
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Ok(0) | Err(_) => {
                        hung_up.push(idx);
                        break;
                    }
                    Ok(n) => {
                        any = true;
                        conn.rbuf.extend_from_slice(&tmp[..n]);
                    }
                }
            }
            while let Some(frame) = conn.next_frame().transpose() {
                any = true;
                let refused = frame.is_err();
                inbound.push((idx, frame));
                // A malformed frame is the last one taken from this peer.
                // A `hello` sets the state, and with it the cap the frames
                // behind it are held to: dispatch it first, and decode
                // those on the next pass.
                if refused || matches!(conn.state, State::Hello) {
                    break;
                }
            }
        }
        for (idx, frame) in inbound {
            self.dispatch(idx, frame);
        }
        for idx in hung_up {
            self.drop_conn(idx);
        }
        any
    }

    /// Answer one decoded frame (or decode error) as the connection's
    /// state dictates.
    fn dispatch(&mut self, idx: usize, frame: Result<Json, String>) {
        let Some(conn) = self.conns[idx].as_ref() else {
            return;
        };
        let (token, state) = (conn.token, conn.state);
        let addr = Addr { idx, token };
        let id = frame.as_ref().ok().and_then(|msg| msg.get_u64("id"));
        let kind = frame.as_ref().ok().and_then(|msg| msg.get_str("type"));
        let reply = match (state, &frame) {
            // Frames queued behind a refused one go unanswered.
            (State::Closing, _) => None,
            (_, Err(e)) => self.refuse(idx, None, "bad-frame", e),
            (State::Hello, Ok(msg)) if kind == Some("hello") => self.on_hello(idx, msg),
            (State::Hello, Ok(_)) => {
                self.refuse(idx, id, "bad-hello", "first frame must be a hello")
            }
            (State::Client { slot }, Ok(msg)) if kind == Some("op") => {
                self.on_op(slot, addr, id, msg)
            }
            (State::Admin, Ok(msg)) if kind == Some("admin") => self.on_admin(addr, id, msg),
            (State::Trace, Ok(_)) => {
                self.refuse(idx, id, "bad-frame", "trace connections only receive")
            }
            (State::Client { .. } | State::Admin, Ok(_)) => {
                let detail = format!("unexpected message type {kind:?} for this role");
                self.refuse(idx, id, "bad-frame", detail)
            }
        };
        if let Some(reply) = reply {
            self.push(addr, &reply);
        }
    }

    /// Move the connection to `Closing` and return the error that tells
    /// its peer why: a frame its state does not take, or a hello that
    /// cannot be granted.
    fn refuse(
        &mut self,
        idx: usize,
        id: Option<u64>,
        code: &str,
        detail: impl std::fmt::Display,
    ) -> Option<Json> {
        self.close(idx);
        Some(error_msg(id, code, detail))
    }

    fn on_hello(&mut self, idx: usize, msg: &Json) -> Option<Json> {
        if msg.get_u64("proto") != Some(PROTO_VERSION) {
            let detail = format!("unsupported proto (want {PROTO_VERSION})");
            return self.refuse(idx, None, "bad-hello", detail);
        }
        let (role, state) = match msg.get_str("role") {
            Some("client") => {
                let Some(slot) = self.slots.iter().position(|s| !s.bound) else {
                    let detail = format!("all {} client slots in use", self.slots.len());
                    return self.refuse(idx, None, "no-slot", detail);
                };
                self.slots[slot].bound = true;
                ("client", State::Client { slot })
            }
            Some("admin") => ("admin", State::Admin),
            Some("trace") if self.cfg.trace.is_some() => ("trace", State::Trace),
            Some("trace") => {
                return self.refuse(idx, None, "bad-hello", "tracing is disabled (--trace=off)")
            }
            other => {
                let detail = format!("unknown role {other:?} (client|admin|trace)");
                return self.refuse(idx, None, "bad-hello", detail);
            }
        };
        self.conns[idx].as_mut()?.state = state;
        let (policy, epoch) = self.engine.policy();
        let mut members = vec![
            ("type", Json::str("welcome")),
            ("proto", Json::num(PROTO_VERSION as f64)),
            ("role", Json::str(role)),
            ("policy", Json::str(policy)),
            ("epoch", Json::num(epoch as f64)),
        ];
        if let State::Client { slot } = state {
            members.push(("slot", Json::num(slot as f64)));
        }
        Some(Json::obj(members))
    }

    fn on_op(&mut self, slot: usize, addr: Addr, id: Option<u64>, msg: &Json) -> Option<Json> {
        if self.shutting_down {
            return Some(error_msg(id, "shutting-down", "daemon is draining"));
        }
        let Some(kind) = msg.get_str("op").and_then(op_kind) else {
            return Some(error_msg(id, "bad-op", "unknown or missing `op`"));
        };
        let path = msg.get_str("path").unwrap_or("");
        if !path.starts_with('/') || path.len() > 4096 {
            return Some(error_msg(id, "bad-op", "`path` must be absolute"));
        }
        self.slots[slot].tickets.push_back((addr, id));
        self.engine.handle.submit_op(slot, path, kind);
        self.ops_submitted += 1;
        None // replied asynchronously, from the completion stream
    }

    fn on_admin(&mut self, addr: Addr, id: Option<u64>, msg: &Json) -> Option<Json> {
        match msg.get_str("verb") {
            Some("status") => Some(self.status_msg(id)),
            Some("policy-show") => {
                let (name, epoch) = self.engine.policy();
                Some(Json::obj(vec![
                    ("type", Json::str("policy")),
                    ("id", id.map_or(Json::Null, |i| Json::num(i as f64))),
                    ("name", Json::str(name)),
                    ("epoch", Json::num(epoch as f64)),
                ]))
            }
            Some("policy-swap") => {
                let Some(policy) = msg.get("policy") else {
                    return Some(error_msg(
                        id,
                        "bad-admin",
                        "policy-swap needs a `policy` object",
                    ));
                };
                let src = match policy_source_from_json(policy) {
                    Ok(src) => src,
                    Err(e) => return Some(error_msg(id, "policy-rejected", e)),
                };
                // `mantled` boots a fixed-membership cluster: a `howmany`
                // hook would be installed and never run. Refuse it here,
                // not in the parser, which only describes the bundle
                // format.
                if src.howmany.is_some() {
                    return Some(error_msg(id, "policy-rejected", HOWMANY_REFUSED));
                }
                match self.engine.swap(&src) {
                    // Reply deferred until the engine reports the install
                    // from its exclusive step (`ServiceEvent::Swapped`).
                    Ok(_epoch) => {
                        self.swaps.push_back((addr, id));
                        None
                    }
                    Err(e) => Some(error_msg(id, "policy-rejected", e)),
                }
            }
            Some("scenario") => {
                let name = msg.get_str("name").unwrap_or("");
                // Runs synchronously on the reactor thread: scenarios are
                // small fixed workloads. The live engine keeps simulating
                // on its own thread meanwhile, but no connection is read
                // or answered until the scenario is done.
                let report = match mantle_core::service::self_check(name) {
                    Ok(report) => report,
                    Err(e) => return Some(error_msg(id, "unknown-scenario", e)),
                };
                let mut out = report_json(&report);
                if let (Json::Obj(members), Some(i)) = (&mut out, id) {
                    members.insert(1, ("id".into(), Json::num(i as f64)));
                }
                Some(out)
            }
            Some("shutdown") => {
                self.shutting_down = true;
                self.engine.handle.shutdown();
                Some(Json::obj(vec![
                    ("type", Json::str("ok")),
                    ("id", id.map_or(Json::Null, |i| Json::num(i as f64))),
                    ("detail", Json::str("draining; report follows on exit")),
                ]))
            }
            other => Some(error_msg(
                id,
                "bad-admin",
                format!("unknown verb {other:?}"),
            )),
        }
    }

    fn status_msg(&self, id: Option<u64>) -> Json {
        let (policy, epoch) = self.engine.policy();
        let bound = self.slots.iter().filter(|s| s.bound).count();
        let conns = self.conns.iter().flatten().count();
        Json::obj(vec![
            ("type", Json::str("status")),
            ("id", id.map_or(Json::Null, |i| Json::num(i as f64))),
            ("uptime_s", Json::num(self.started.elapsed().as_secs_f64())),
            ("clock", Json::str(self.cfg.clock.name())),
            ("mds", Json::num(self.cfg.mds as f64)),
            ("seed", Json::num(self.cfg.seed as f64)),
            ("policy", Json::str(policy)),
            ("epoch", Json::num(epoch as f64)),
            ("sessions_total", Json::num(self.slots.len() as f64)),
            ("sessions_bound", Json::num(bound as f64)),
            ("connections", Json::num(conns as f64)),
            ("ops_submitted", Json::num(self.ops_submitted as f64)),
            ("ops_completed", Json::num(self.ops_completed as f64)),
            ("reactor_wakeups", Json::num(self.reactor_wakeups as f64)),
            ("reactor_timeouts", Json::num(self.reactor_timeouts as f64)),
            ("draining", Json::Bool(self.shutting_down)),
            (
                "presets",
                Json::Arr(PRESET_NAMES.iter().map(|n| Json::str(*n)).collect()),
            ),
            (
                "scenarios",
                Json::Arr(
                    mantle_core::service::SCENARIO_NAMES
                        .iter()
                        .map(|n| Json::str(*n))
                        .collect(),
                ),
            ),
        ])
    }

    /// Drain the engine's event stream: install results and completions
    /// matched to their tickets, trace records broadcast to subscribers,
    /// and the end of the stream noted in `ended`.
    fn drain_events(&mut self) -> bool {
        let mut any = false;
        loop {
            let ev = match self.engine.handle.events.try_recv() {
                Ok(ev) => ev,
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    self.end_stream(None);
                    break;
                }
            };
            any = true;
            match ev {
                ServiceEvent::Swapped { epoch, result } => {
                    let Some((addr, id)) = self.swaps.pop_front() else {
                        continue;
                    };
                    let reply = match result {
                        Ok(at) => Json::obj(vec![
                            ("type", Json::str("swapped")),
                            ("id", id.map_or(Json::Null, |i| Json::num(i as f64))),
                            ("epoch", Json::num(epoch as f64)),
                            ("at_us", Json::num(at.as_micros() as f64)),
                        ]),
                        Err(e) => error_msg(id, "swap-failed", e),
                    };
                    self.push(addr, &reply);
                }
                ServiceEvent::Trace(batch) => {
                    if batch.is_empty() {
                        continue;
                    }
                    let mut frames = Vec::new();
                    for rec in &batch {
                        let mut line = String::new();
                        rec.write_json(&mut line);
                        frames.extend_from_slice(&(line.len() as u32).to_be_bytes());
                        frames.extend_from_slice(line.as_bytes());
                    }
                    for conn in self.conns.iter_mut().flatten() {
                        if !matches!(conn.state, State::Trace) {
                            continue;
                        }
                        if conn.wbuf.len() + frames.len() > TRACE_BACKLOG_CAP {
                            conn.cut_off_lagged();
                        } else {
                            conn.wbuf.extend_from_slice(&frames);
                        }
                    }
                }
                ServiceEvent::Completions(batch) => {
                    for done in batch {
                        self.ops_completed += 1;
                        let slot = self.slots.get_mut(done.client);
                        let Some((addr, id)) = slot.and_then(|s| s.tickets.pop_front()) else {
                            continue;
                        };
                        let reply = Json::obj(vec![
                            ("type", Json::str("reply")),
                            ("id", id.map_or(Json::Null, |i| Json::num(i as f64))),
                            ("status", Json::str("ok")),
                            ("op", Json::str(crate::wire::op_name(done.kind))),
                            ("mds", Json::num(done.mds as f64)),
                            ("latency_ms", Json::num(done.latency_ms)),
                            ("at_us", Json::num(done.at.as_micros() as f64)),
                        ]);
                        self.push(addr, &reply);
                    }
                }
                ServiceEvent::Finished(report) => {
                    self.end_stream(Some(*report));
                    break;
                }
            }
        }
        any
    }

    /// The event stream is over. An install that reached the inbox after
    /// the engine's last look will never run; say so.
    fn end_stream(&mut self, report: Option<RunReport>) {
        for (addr, id) in std::mem::take(&mut self.swaps) {
            let reply = error_msg(id, "swap-failed", "engine exited before the install");
            self.push(addr, &reply);
        }
        self.ended = Some(report);
    }

    /// Queue `msg` for the connection at `addr`. A no-op once that
    /// connection has gone, even if a newer one now holds its index.
    fn push(&mut self, addr: Addr, msg: &Json) {
        if let Some(conn) = self.conns[addr.idx].as_mut() {
            if conn.token == addr.token {
                conn.wbuf.extend_from_slice(&encode_frame(msg));
            }
        }
    }

    fn flush_all(&mut self) -> bool {
        let mut any = false;
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_mut() else {
                continue;
            };
            let mut dead = false;
            while conn.unsent() > 0 {
                match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Ok(0) | Err(_) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        any = true;
                        conn.wpos += n;
                    }
                }
            }
            if conn.unsent() == 0 {
                conn.wbuf.clear();
                conn.wpos = 0;
            }
            if dead {
                self.drop_conn(idx);
            }
        }
        any
    }

    fn reap_closed(&mut self) {
        for idx in 0..self.conns.len() {
            if let Some(
                c @ Conn {
                    state: State::Closing,
                    ..
                },
            ) = &self.conns[idx]
            {
                if c.unsent() == 0 {
                    self.drop_conn(idx);
                }
            }
        }
    }

    /// Enter `Closing`. A client's slot is free from here on; its
    /// outstanding tickets stay queued on the slot (see [`Slot`]).
    fn close(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        if let State::Client { slot } = std::mem::replace(&mut conn.state, State::Closing) {
            self.slots[slot].bound = false;
        }
    }

    fn drop_conn(&mut self, idx: usize) {
        self.close(idx);
        self.conns[idx] = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_lagged_subscriber_keeps_the_frame_in_flight_and_gets_one_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let frames: Vec<Vec<u8>> = (0..4)
            .map(|i| encode_frame(&Json::obj(vec![("n", Json::num(i as f64))])))
            .collect();
        let mut conn = Conn {
            stream,
            token: 1,
            rbuf: Vec::new(),
            wbuf: frames.concat(),
            // The first frame is out, the second is half written.
            wpos: frames[0].len() + 3,
            state: State::Trace,
        };
        conn.cut_off_lagged();
        assert!(matches!(conn.state, State::Closing));
        let mut rest = conn.wbuf.split_off(frames[0].len());
        assert_eq!(
            decode_frame(&mut rest).unwrap(),
            Some(Json::obj(vec![("n", Json::num(1.0))])),
            "the frame in flight is completed"
        );
        let error = decode_frame(&mut rest).unwrap().expect("then the error");
        assert_eq!(error.get_str("code"), Some("lagged"));
        assert!(rest.is_empty(), "and nothing after it");

        // Nothing in flight: everything unsent goes.
        conn.wbuf = frames.concat();
        conn.wpos = frames[0].len();
        conn.cut_off_lagged();
        let mut rest = conn.wbuf.split_off(frames[0].len());
        let error = decode_frame(&mut rest).unwrap().expect("the error");
        assert_eq!(error.get_str("code"), Some("lagged"));
        assert!(rest.is_empty());
    }
}
