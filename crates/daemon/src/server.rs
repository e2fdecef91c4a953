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
//! # No polling, no timeout
//!
//! The `poll` set is the listener, every connection (readable unless it
//! is being closed or owed more than `REPLY_BACKLOG_CAP`; writable only
//! while it has unsent bytes) and the
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

/// What a connection declared itself to be in its `hello`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Issues metadata ops, bound to one client slot.
    Client,
    /// Control plane: status, policy swap, scenarios, shutdown.
    Admin,
    /// Receives the live trace stream, one record per frame.
    Trace,
}

struct Conn {
    stream: TcpStream,
    /// Unique per accepted connection; async replies (completions,
    /// install results) are addressed by token, so a reply for a dead
    /// connection is dropped instead of reaching whoever reused its slab
    /// index.
    token: u64,
    rbuf: Vec<u8>,
    /// Outbound bytes; `wbuf[..wpos]` is already written. Whole frames
    /// are appended, and the buffer is reset only once fully flushed, so
    /// offset 0 is always a frame boundary.
    wbuf: Vec<u8>,
    wpos: usize,
    role: Option<Role>,
    /// Client slot, for `Role::Client`.
    slot: Option<usize>,
    /// Set when the peer misbehaved: flush what is queued, then drop.
    closing: bool,
}

impl Conn {
    fn unsent(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// The longest frame this connection may send.
    fn frame_cap(&self) -> usize {
        if self.role == Some(Role::Admin) {
            MAX_FRAME
        } else {
            SMALL_FRAME
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
        !self.closing && (self.role == Some(Role::Trace) || self.unsent() <= REPLY_BACKLOG_CAP)
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
        self.closing = true;
    }
}

/// A client slot's reply routing: outstanding tickets in submission
/// order. Completions for a slot pop the front ticket; a ticket whose
/// connection died is popped and dropped silently.
#[derive(Default)]
struct Slot {
    bound: Option<u64>,
    tickets: VecDeque<Ticket>,
}

/// Who to answer, once the engine has: a connection token and the
/// request's `id`.
type Ticket = (u64, Option<u64>);

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
                        role: None,
                        slot: None,
                        closing: false,
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

    fn read_all(&mut self) -> bool {
        let mut inbound: Vec<(usize, Json)> = Vec::new();
        let mut any = false;
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_mut() else {
                continue;
            };
            if !conn.reading() {
                continue;
            }
            let mut tmp = [0u8; 4096];
            let mut dead = false;
            loop {
                // Never more than one frame's worth buffered: whatever is
                // in `rbuf` past that is a complete frame to decode first.
                let room = (4 + conn.frame_cap()).saturating_sub(conn.rbuf.len());
                if room == 0 {
                    break;
                }
                let take = room.min(tmp.len());
                match conn.stream.read(&mut tmp[..take]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        any = true;
                        conn.rbuf.extend_from_slice(&tmp[..n]);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            loop {
                match conn.next_frame() {
                    Ok(Some(msg)) => {
                        any = true;
                        inbound.push((idx, msg));
                        // The `hello` sets the role, and with it the cap
                        // the frames behind it are held to: dispatch it
                        // first, and decode those on the next pass.
                        if conn.role.is_none() {
                            break;
                        }
                    }
                    Ok(None) => break,
                    Err(e) => {
                        conn.wbuf.extend_from_slice(&encode_frame(&error_msg(
                            None,
                            "bad-frame",
                            e,
                        )));
                        conn.closing = true;
                        break;
                    }
                }
            }
            if dead {
                self.drop_conn(idx);
            }
        }
        for (idx, msg) in inbound {
            self.dispatch(idx, msg);
        }
        any
    }

    fn dispatch(&mut self, idx: usize, msg: Json) {
        let id = msg.get_u64("id");
        let reply = match (self.conn_role(idx), msg.get_str("type")) {
            (None, Some("hello")) => self.on_hello(idx, &msg),
            (None, _) => Some(self.fail(idx, id, "bad-hello", "first frame must be a hello")),
            (Some(Role::Client), Some("op")) => self.on_op(idx, id, &msg),
            (Some(Role::Admin), Some("admin")) => self.on_admin(idx, id, &msg),
            (Some(Role::Trace), _) => {
                Some(self.fail(idx, id, "bad-frame", "trace connections only receive"))
            }
            (Some(_), other) => Some(self.fail(
                idx,
                id,
                "bad-frame",
                format!("unexpected message type {other:?} for this role"),
            )),
        };
        if let Some(reply) = reply {
            self.push_msg(idx, &reply);
        }
    }

    fn conn_role(&self, idx: usize) -> Option<Role> {
        self.conns[idx].as_ref().and_then(|c| c.role)
    }

    /// Build an error reply and mark the connection for close when the
    /// failure is not recoverable at the protocol level.
    fn fail(
        &mut self,
        idx: usize,
        id: Option<u64>,
        code: &str,
        detail: impl std::fmt::Display,
    ) -> Json {
        if matches!(code, "bad-hello" | "bad-frame" | "no-slot") {
            if let Some(conn) = self.conns[idx].as_mut() {
                conn.closing = true;
            }
        }
        error_msg(id, code, detail)
    }

    fn on_hello(&mut self, idx: usize, msg: &Json) -> Option<Json> {
        if msg.get_u64("proto") != Some(PROTO_VERSION) {
            return Some(self.fail(
                idx,
                None,
                "bad-hello",
                format!("unsupported proto (want {PROTO_VERSION})"),
            ));
        }
        let role = match msg.get_str("role") {
            Some("client") => Role::Client,
            Some("admin") => Role::Admin,
            Some("trace") => Role::Trace,
            other => {
                return Some(self.fail(
                    idx,
                    None,
                    "bad-hello",
                    format!("unknown role {other:?} (client|admin|trace)"),
                ))
            }
        };
        if role == Role::Trace && self.cfg.trace.is_none() {
            return Some(self.fail(idx, None, "bad-hello", "tracing is disabled (--trace=off)"));
        }
        let mut slot = None;
        if role == Role::Client {
            let Some(free) = self.slots.iter().position(|s| s.bound.is_none()) else {
                return Some(self.fail(
                    idx,
                    None,
                    "no-slot",
                    format!("all {} client slots in use", self.slots.len()),
                ));
            };
            let token = self.conns[idx].as_ref().map(|c| c.token).unwrap_or(0);
            self.slots[free].bound = Some(token);
            slot = Some(free);
        }
        if let Some(conn) = self.conns[idx].as_mut() {
            conn.role = Some(role);
            conn.slot = slot;
        }
        let (policy, epoch) = self.engine.policy();
        let mut members = vec![
            ("type", Json::str("welcome")),
            ("proto", Json::num(PROTO_VERSION as f64)),
            (
                "role",
                Json::str(match role {
                    Role::Client => "client",
                    Role::Admin => "admin",
                    Role::Trace => "trace",
                }),
            ),
            ("policy", Json::str(policy)),
            ("epoch", Json::num(epoch as f64)),
        ];
        if let Some(slot) = slot {
            members.push(("slot", Json::num(slot as f64)));
        }
        Some(Json::obj(members))
    }

    fn on_op(&mut self, idx: usize, id: Option<u64>, msg: &Json) -> Option<Json> {
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
        let conn = self.conns[idx].as_ref()?;
        let (token, slot) = (conn.token, conn.slot?);
        self.slots[slot].tickets.push_back((token, id));
        self.engine.handle.submit_op(slot, path, kind);
        self.ops_submitted += 1;
        None // replied asynchronously, from the completion stream
    }

    fn on_admin(&mut self, idx: usize, id: Option<u64>, msg: &Json) -> Option<Json> {
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
                        let token = self.conns[idx].as_ref().map(|c| c.token).unwrap_or(0);
                        self.swaps.push_back((token, id));
                        None
                    }
                    Err(e) => Some(error_msg(id, "policy-rejected", e)),
                }
            }
            Some("scenario") => {
                let name = msg.get_str("name").unwrap_or("");
                let Some(spec) = mantle_core::service::scenario(name) else {
                    return Some(error_msg(
                        id,
                        "unknown-scenario",
                        format!("try one of {:?}", mantle_core::service::SCENARIO_NAMES),
                    ));
                };
                // Runs synchronously on the reactor thread: scenarios are
                // small fixed workloads, and the live engine keeps running
                // independently on its own thread meanwhile.
                let (report, _) = mantle_core::service::run_service(&spec, None);
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
        let bound = self.slots.iter().filter(|s| s.bound.is_some()).count();
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
                    let Some((token, id)) = self.swaps.pop_front() else {
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
                    self.push_msg_token(token, &reply);
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
                        if conn.role != Some(Role::Trace) || conn.closing {
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
                        let Some(slot) = self.slots.get_mut(done.client) else {
                            continue;
                        };
                        let Some((token, id)) = slot.tickets.pop_front() else {
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
                        self.push_msg_token(token, &reply);
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
        for (token, id) in std::mem::take(&mut self.swaps) {
            let reply = error_msg(id, "swap-failed", "engine exited before the install");
            self.push_msg_token(token, &reply);
        }
        self.ended = Some(report);
    }

    fn push_msg(&mut self, idx: usize, msg: &Json) {
        if let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) {
            conn.wbuf.extend_from_slice(&encode_frame(msg));
        }
    }

    /// Queue a message by connection token (async replies). Silently a
    /// no-op when the connection has since closed.
    fn push_msg_token(&mut self, token: u64, msg: &Json) {
        if let Some(conn) = self.conns.iter_mut().flatten().find(|c| c.token == token) {
            conn.wbuf.extend_from_slice(&encode_frame(msg));
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
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        any = true;
                        conn.wpos += n;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
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
            let close = matches!(&self.conns[idx], Some(c) if c.closing && c.unsent() == 0);
            if close {
                self.drop_conn(idx);
            }
        }
    }

    fn drop_conn(&mut self, idx: usize) {
        if let Some(conn) = self.conns[idx].take() {
            if let Some(slot) = conn.slot {
                self.slots[slot].bound = None;
                // Outstanding tickets stay queued: their completions pop
                // them in order and find the connection gone.
            }
        }
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
            role: Some(Role::Trace),
            slot: None,
            closing: false,
        };
        conn.cut_off_lagged();
        assert!(conn.closing);
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
