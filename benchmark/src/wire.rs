//! The load generator for the two wire workloads: a real `mantled`
//! spawned on an ephemeral loopback port and driven over the framed
//! protocol, from at most two threads and two connections (the host has
//! two cores, and the daemon needs one of them).
//!
//! Loopback is not a real link: round trips here contain no wire
//! latency, only the daemon's reactor, codec, inbox hand-off and the
//! engine's simulated service time.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use mantle_daemon::json::{parse, Json};
use mantle_daemon::wire::{decode_frame, encode_frame, op_name, PROTO_VERSION};

use crate::opmix::{path_of, Draw, OpDraw, DIRS};
use crate::spans::{SpanId, Spans};

/// MDS count of a default-flag daemon; a reply naming a higher rank is
/// wrong.
pub const DAEMON_MDS: u64 = 4;

/// Open-loop offered rate, ops per second. About half of what one
/// session can complete (≈1 500/s, set by the simulated service time and
/// the 1 ms live poll, not by the program) — raising it measures the
/// simulated queue, not the daemon.
pub const OPEN_RATE: f64 = 800.0;

/// Policy swaps spread evenly over the open-loop measurement.
pub const SWAPS: usize = 60;

/// How often the open loop looks at its socket. Its latencies carry up
/// to this much polling delay (plus the kernel's ~50 µs timer slack).
pub const POLL: Duration = Duration::from_micros(100);

/// How long a generator waits for a reply before counting it missing.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

fn other(msg: impl Into<String>) -> io::Error {
    io::Error::other(msg.into())
}

// ---------------------------------------------------------------------
// The daemon process
// ---------------------------------------------------------------------

/// Where the built `mantled` is: `$MANTLED_BIN`, else next to this
/// executable (both are built into one target directory by `run.sh`).
pub fn mantled_path() -> io::Result<PathBuf> {
    if let Some(p) = std::env::var_os("MANTLED_BIN") {
        return Ok(PathBuf::from(p));
    }
    let here = std::env::current_exe()?;
    let path = here
        .parent()
        .map(|d| d.join("mantled"))
        .ok_or_else(|| other("benchmark executable has no parent directory"))?;
    if path.is_file() {
        Ok(path)
    } else {
        Err(other(format!(
            "{} not found: build it with `cargo build --release -p mantle-daemon --bin mantled` \
             (benchmark/run.sh does) or set MANTLED_BIN",
            path.display()
        )))
    }
}

/// A spawned `mantled`, killed and reaped on drop if still running.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// The address it printed as `listening <addr>`.
    pub addr: String,
    /// When the spawn began (set-up time is measured from here).
    pub spawned: Instant,
}

impl Daemon {
    /// Spawn `mantled --addr=127.0.0.1:0 --seed=<seed>`, every other flag
    /// at its default (wall clock, 16 sessions, 4 MDSs, greedy-spill,
    /// trace=decisions), and wait for its `listening` line.
    pub fn spawn(seed: u64) -> io::Result<Daemon> {
        let spawned = Instant::now();
        let mut child = Command::new(mantled_path()?)
            .arg("--addr=127.0.0.1:0")
            .arg(format!("--seed={seed}"))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let Some(addr) = line.trim().strip_prefix("listening ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(other(format!(
                "mantled said {line:?}, not `listening <addr>`"
            )));
        };
        Ok(Daemon {
            child,
            stdout,
            addr: addr.to_string(),
            spawned,
        })
    }

    /// Process id, for `/proc`.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Wait for the daemon to exit after a `shutdown`; returns its exit
    /// status and the report it printed last, if it printed one.
    pub fn wait_report(mut self) -> io::Result<(ExitStatus, Option<Json>)> {
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest)?;
        let status = self.child.wait()?;
        let report = rest
            .lines()
            .last()
            .and_then(|l| parse(l).ok())
            .filter(|j| j.get_str("type") == Some("report"));
        Ok((status, report))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

// ---------------------------------------------------------------------
// One connection
// ---------------------------------------------------------------------

/// A framed connection to the daemon.
pub struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    next_id: u64,
    /// Set by [`Conn::poll_mode`]: reads return at once instead of
    /// waiting.
    polling: bool,
    /// Bytes written and read, for `daemon.wire.bytes_per_op`.
    pub bytes: u64,
}

/// Instants of one request's client-side steps.
#[derive(Debug, Clone, Copy)]
pub struct Steps {
    /// Before the frame was encoded.
    pub start: Instant,
    /// After encoding, before the write.
    pub encoded: Instant,
    /// After the write returned.
    pub written: Instant,
    /// When the first reply bytes arrived.
    pub arrived: Instant,
    /// After the reply was decoded.
    pub decoded: Instant,
}

impl Steps {
    /// Record the four step spans under one op span.
    pub fn record(&self, spans: &mut Spans, parent: Option<SpanId>, op: u64) {
        let id = spans.record("op", self.start, self.decoded, parent, Some(op));
        spans.record("encode", self.start, self.encoded, Some(id), Some(op));
        spans.record("write", self.encoded, self.written, Some(id), Some(op));
        spans.record("wait", self.written, self.arrived, Some(id), Some(op));
        spans.record("decode", self.arrived, self.decoded, Some(id), Some(op));
    }
}

impl Conn {
    /// Connect and complete the hello handshake for `role`; returns the
    /// connection, the `welcome`, and how long the two steps took.
    pub fn connect(addr: &str, role: &str) -> io::Result<(Conn, Json, Duration)> {
        let t0 = Instant::now();
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut conn = Conn {
            stream,
            rbuf: Vec::new(),
            next_id: 0,
            polling: false,
            bytes: 0,
        };
        conn.send(&Json::obj(vec![
            ("type", Json::str("hello")),
            ("role", Json::str(role)),
            ("proto", Json::num(PROTO_VERSION as f64)),
        ]))?;
        let welcome = conn
            .recv(REPLY_TIMEOUT)?
            .ok_or_else(|| other("no welcome within the reply timeout"))?;
        if welcome.get_str("type") != Some("welcome") {
            return Err(other(format!("handshake rejected: {welcome}")));
        }
        Ok((conn, welcome, t0.elapsed()))
    }

    /// Encode and write one frame; returns the instants around the two
    /// steps.
    pub fn send(&mut self, msg: &Json) -> io::Result<(Instant, Instant, Instant)> {
        let start = Instant::now();
        let frame = encode_frame(msg);
        let encoded = Instant::now();
        let mut rest = &frame[..];
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => rest = &rest[n..],
                // Poll mode with a full send buffer: the daemon is behind.
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.bytes += frame.len() as u64;
        Ok((start, encoded, Instant::now()))
    }

    /// Pop a frame that is already buffered.
    fn buffered(&mut self) -> io::Result<Option<Json>> {
        decode_frame(&mut self.rbuf).map_err(|e| other(e.to_string()))
    }

    /// Make reads return at once when nothing has arrived. Socket read
    /// timeouts are rounded up to scheduler ticks (milliseconds), far
    /// too coarse for an 800/s schedule, so the open loop polls the
    /// socket between precise sleeps instead.
    pub fn poll_mode(&mut self) -> io::Result<()> {
        self.polling = true;
        self.stream.set_nonblocking(true)
    }

    /// Read whatever arrives within `wait` (poll mode: whatever has
    /// arrived) into the buffer. `Ok(false)` when nothing did; end of
    /// stream is an error (the daemon hung up).
    fn fill(&mut self, wait: Duration) -> io::Result<bool> {
        if !self.polling {
            // A zero timeout means "block forever" to the socket layer.
            self.stream
                .set_read_timeout(Some(wait.max(Duration::from_micros(50))))?;
        }
        let mut tmp = [0u8; 16 * 1024];
        match self.stream.read(&mut tmp) {
            Ok(0) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            )),
            Ok(n) => {
                self.rbuf.extend_from_slice(&tmp[..n]);
                self.bytes += n as u64;
                Ok(true)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(false)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(true),
            Err(e) => Err(e),
        }
    }

    /// The next frame, waiting up to `wait` for it; `Ok(None)` on timeout.
    pub fn recv(&mut self, wait: Duration) -> io::Result<Option<Json>> {
        Ok(self.recv_timed(wait)?.map(|(msg, _, _)| msg))
    }

    /// [`Conn::recv`], also returning when the frame's first bytes
    /// arrived and when it was decoded.
    fn recv_timed(&mut self, wait: Duration) -> io::Result<Option<(Json, Instant, Instant)>> {
        let deadline = Instant::now() + wait;
        // Pipelined replies may already sit in the buffer.
        let mut arrived = (!self.rbuf.is_empty()).then(Instant::now);
        loop {
            if let Some(at) = arrived {
                if let Some(msg) = self.buffered()? {
                    return Ok(Some((msg, at, Instant::now())));
                }
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            if self.fill(left)? {
                arrived.get_or_insert_with(Instant::now);
            }
        }
    }

    /// Give `msg` a fresh request id (after its `type`); returns it.
    fn stamp(&mut self, msg: &mut Json) -> u64 {
        self.next_id += 1;
        if let Json::Obj(members) = msg {
            let at = 1.min(members.len());
            members.insert(at, ("id".into(), Json::num(self.next_id as f64)));
        }
        self.next_id
    }

    /// Send a request with a fresh id and wait for the reply carrying it
    /// (frames with another id — a late reply — are skipped).
    pub fn request(&mut self, mut msg: Json, wait: Duration) -> io::Result<Option<(Json, Steps)>> {
        let id = self.stamp(&mut msg);
        let (start, encoded, written) = self.send(&msg)?;
        let deadline = written + wait;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let Some((reply, arrived, decoded)) = self.recv_timed(left)? else {
                return Ok(None);
            };
            if reply.get_u64("id") == Some(id) {
                let steps = Steps {
                    start,
                    encoded,
                    written,
                    arrived,
                    decoded,
                };
                return Ok(Some((reply, steps)));
            }
        }
    }

    /// An admin verb.
    pub fn admin(
        &mut self,
        verb: &str,
        extra: Vec<(&str, Json)>,
    ) -> io::Result<Option<(Json, Steps)>> {
        let mut members = vec![("type", Json::str("admin")), ("verb", Json::str(verb))];
        members.extend(extra);
        self.request(Json::obj(members), REPLY_TIMEOUT)
    }
}

/// The `op` request for one draw.
pub fn op_msg(draw: Draw) -> Json {
    Json::obj(vec![
        ("type", Json::str("op")),
        ("op", Json::str(op_name(draw.kind))),
        ("path", Json::str(path_of(draw.dir))),
    ])
}

// ---------------------------------------------------------------------
// Samples and phases
// ---------------------------------------------------------------------

/// A stretch of a generator's timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// How long it lasts.
    pub secs: f64,
    /// Whether its ops are measured (warm-up is not).
    pub measured: bool,
    /// Whether the harness records spans during it.
    pub traced: bool,
}

/// Warm-up length: every directory is touched once, then the draw runs
/// until the time is up.
pub const WARMUP_SECS: f64 = 2.0;

/// Length of one slice of the traced pass.
pub const SLICE_SECS: f64 = 1.0;

/// The phases of a run measuring `seconds`: warm-up, then — with
/// tracing off — one measured stretch. With tracing on the stretch is
/// cut into one-second slices, alternately untraced and traced: the
/// daemon's balancer ticks stall sessions for a moment every simulated
/// 10 s, and alternating slices keep such a moment from landing on one
/// side of the comparison only.
pub fn phases(seconds: f64, trace: bool) -> Vec<Phase> {
    let mut plan = vec![Phase {
        secs: WARMUP_SECS,
        measured: false,
        traced: false,
    }];
    if trace {
        let slices = (seconds / SLICE_SECS).floor().max(2.0) as usize;
        plan.extend((0..slices).map(|i| Phase {
            secs: SLICE_SECS,
            measured: true,
            traced: i % 2 == 1,
        }));
    } else {
        plan.push(Phase {
            secs: seconds,
            measured: true,
            traced: false,
        });
    }
    plan
}

/// What one generator thread measured in one phase.
#[derive(Debug, Clone, Default)]
pub struct PhaseSamples {
    /// Ops sent in the phase.
    pub attempted: u64,
    /// Ops that did not complete ok.
    pub failed: u64,
    /// Latency of each ok op, ms (closed: from send; open: from due).
    pub latency_ms: Vec<f64>,
    /// `reply.latency_ms` of each ok op: simulated service time.
    pub sim_ms: Vec<f64>,
    /// Open loop: how late each op was sent, ms.
    pub late_ms: Vec<f64>,
    /// Open loop: most ops in flight at once.
    pub max_outstanding: usize,
    /// When the last ok reply of the phase was decoded.
    pub last_done: Option<Instant>,
}

impl PhaseSamples {
    /// Fold another thread's samples of the same phase in.
    pub fn merge(&mut self, other: PhaseSamples) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latency_ms.extend(other.latency_ms);
        self.sim_ms.extend(other.sim_ms);
        self.late_ms.extend(other.late_ms);
        self.max_outstanding = self.max_outstanding.max(other.max_outstanding);
        self.last_done = self.last_done.max(other.last_done);
    }

    /// Ok ops per second of the phase that began at `began`, over the
    /// time it actually took: to the last ok reply, which a closed loop
    /// gets just past the phase's end and an open loop a queue later.
    pub fn rate(&self, began: Instant) -> f64 {
        match self.last_done {
            Some(done) if done > began => {
                self.ok() as f64 / done.duration_since(began).as_secs_f64()
            }
            _ => 0.0,
        }
    }

    /// Ops completed ok.
    pub fn ok(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// Everything one generator thread brings back.
pub struct Generated {
    /// Samples per phase, in phase order.
    pub phases: Vec<PhaseSamples>,
    /// Ops sent over the whole timeline, warm-up included.
    pub sent: u64,
    /// Bytes written and read.
    pub bytes: u64,
    /// Spans of the traced phases.
    pub spans: Spans,
    /// Output checks that failed.
    pub problems: Vec<String>,
}

/// Failed checks a generator keeps word for word; a run that goes wrong
/// tends to go wrong thousands of times the same way.
const PROBLEMS_KEPT: usize = 8;

impl Generated {
    fn new(phases: &[Phase], start: Instant) -> Generated {
        Generated {
            phases: vec![PhaseSamples::default(); phases.len()],
            sent: 0,
            bytes: 0,
            spans: Spans::new(start),
            problems: Vec::new(),
        }
    }
}

/// Keep a failed check, up to [`PROBLEMS_KEPT`] of them.
fn note(problems: &mut Vec<String>, what: String) {
    if problems.len() < PROBLEMS_KEPT {
        problems.push(what);
    }
}

/// Check one op reply; returns its simulated latency when it is ok.
fn check_reply(reply: &Json, id: u64, problems: &mut Vec<String>) -> Option<f64> {
    let ok = reply.get_str("type") == Some("reply")
        && reply.get_str("status") == Some("ok")
        && reply.get_u64("id") == Some(id)
        && reply.get_u64("mds").is_some_and(|m| m < DAEMON_MDS);
    match (ok, reply.get_num("latency_ms")) {
        (true, Some(sim)) => Some(sim),
        _ => {
            note(problems, format!("op {id}: bad reply {reply}"));
            None
        }
    }
}

/// When phase `index` begins on a timeline that began at `start`.
pub fn phase_start(phases: &[Phase], start: Instant, index: usize) -> Instant {
    start + Duration::from_secs_f64(phases[..index].iter().map(|p| p.secs).sum())
}

/// Which phase `t` falls in, or `None` once the timeline is over.
fn phase_at(phases: &[Phase], start: Instant, t: Instant) -> Option<usize> {
    let mut left = t.saturating_duration_since(start).as_secs_f64();
    for (i, p) in phases.iter().enumerate() {
        if left < p.secs {
            return Some(i);
        }
        left -= p.secs;
    }
    None
}

/// The draw for the `n`-th op of connection `conn`: the first ops walk
/// every directory once (this connection's share of them), so that the
/// measured phases never pay a first-touch `mkdir`.
fn nth_draw(draws: &mut OpDraw, n: u64, conn: usize, conns: usize) -> Draw {
    let mine = n as usize * conns + conn;
    if mine < DIRS {
        Draw {
            dir: mine,
            kind: mantle_namespace::OpKind::Create,
        }
    } else {
        draws.next()
    }
}

// ---------------------------------------------------------------------
// Closed loop
// ---------------------------------------------------------------------

/// One closed-loop session: one op outstanding, the next sent when its
/// reply is in. Runs until the phases are over.
pub fn closed_loop(
    addr: &str,
    seed: u64,
    conn_index: usize,
    conns: usize,
    phases: &[Phase],
    start: Instant,
    reply_timeout: Duration,
) -> io::Result<Generated> {
    let (mut conn, _, _) = Conn::connect(addr, "client")?;
    let mut draws = OpDraw::new(seed, conn_index);
    let mut out = Generated::new(phases, start);
    while let Some(p) = phase_at(phases, start, Instant::now()) {
        let draw = nth_draw(&mut draws, out.sent, conn_index, conns);
        out.sent += 1;
        let result = conn.request(op_msg(draw), reply_timeout)?;
        let id = conn.next_id;
        if !phases[p].measured {
            match &result {
                Some((reply, _)) => {
                    check_reply(reply, id, &mut out.problems);
                }
                None => out.problems.push(format!("warm-up op {id} got no reply")),
            }
            continue;
        }
        let samples = &mut out.phases[p];
        samples.attempted += 1;
        match result {
            Some((reply, steps)) => match check_reply(&reply, id, &mut out.problems) {
                Some(sim) => {
                    samples
                        .latency_ms
                        .push(steps.decoded.duration_since(steps.start).as_secs_f64() * 1e3);
                    samples.sim_ms.push(sim);
                    samples.last_done = Some(steps.decoded);
                    if phases[p].traced {
                        steps.record(&mut out.spans, None, id);
                    }
                }
                None => samples.failed += 1,
            },
            None => {
                samples.failed += 1;
                note(
                    &mut out.problems,
                    format!("op {id}: no reply within {reply_timeout:?}"),
                );
            }
        }
    }
    out.bytes = conn.bytes;
    Ok(out)
}

// ---------------------------------------------------------------------
// Open loop
// ---------------------------------------------------------------------

struct InFlight {
    id: u64,
    due: Instant,
    phase: usize,
    start: Instant,
    encoded: Instant,
    written: Instant,
}

/// One open-loop session: ops are sent on a fixed schedule of `rate` per
/// second whether or not earlier replies are in (pipelined on the one
/// session), and each op's latency runs from the instant it was *due*,
/// so a stall is charged to every op it delays; how late the generator
/// itself ran is reported separately.
pub fn open_loop(
    addr: &str,
    seed: u64,
    rate: f64,
    phases: &[Phase],
    start: Instant,
    reply_timeout: Duration,
) -> io::Result<Generated> {
    let (mut conn, _, _) = Conn::connect(addr, "client")?;
    conn.poll_mode()?;
    let mut draws = OpDraw::new(seed, 0);
    let mut out = Generated::new(phases, start);
    let total_secs: f64 = phases.iter().map(|p| p.secs).sum();
    let total = (total_secs * rate).floor() as u64;
    let due_of = |n: u64| start + Duration::from_secs_f64(n as f64 / rate);
    let mut flying: VecDeque<InFlight> = VecDeque::new();
    let fail = |out: &mut Generated, f: &InFlight, why: &str| {
        if phases[f.phase].measured {
            out.phases[f.phase].failed += 1;
        }
        note(&mut out.problems, format!("op {}: {why}", f.id));
    };
    loop {
        // Send everything that is due.
        let mut now = Instant::now();
        while out.sent < total && due_of(out.sent) <= now {
            let due = due_of(out.sent);
            let phase = phase_at(phases, start, due).unwrap_or(phases.len() - 1);
            let draw = nth_draw(&mut draws, out.sent, 0, 1);
            let mut msg = op_msg(draw);
            let id = conn.stamp(&mut msg);
            let (s, e, w) = conn.send(&msg)?;
            out.sent += 1;
            if phases[phase].measured {
                let samples = &mut out.phases[phase];
                samples.attempted += 1;
                samples
                    .late_ms
                    .push(s.saturating_duration_since(due).as_secs_f64() * 1e3);
            }
            flying.push_back(InFlight {
                id,
                due,
                phase,
                start: s,
                encoded: e,
                written: w,
            });
            let depth = flying.len();
            let samples = &mut out.phases[phase];
            samples.max_outstanding = samples.max_outstanding.max(depth);
            now = Instant::now();
        }
        if out.sent == total && flying.is_empty() {
            break;
        }
        // Wait for replies until the next op is due (or, once all are
        // sent, until the oldest outstanding op times out).
        let wait = if out.sent < total {
            due_of(out.sent).saturating_duration_since(now)
        } else {
            let oldest = flying.front().expect("not empty").written;
            let left = (oldest + reply_timeout).saturating_duration_since(now);
            if left.is_zero() {
                while let Some(f) = flying.pop_front() {
                    fail(&mut out, &f, "no reply before the end of the run");
                }
                break;
            }
            left
        };
        if !conn.fill(wait)? {
            std::thread::sleep(wait.min(POLL));
            continue;
        }
        let arrived = Instant::now();
        while let Some(reply) = conn.buffered()? {
            let decoded = Instant::now();
            let got = reply.get_u64("id").unwrap_or(0);
            // Replies on one session come back in order; an id further
            // along means the ones before it were dropped.
            while flying.front().is_some_and(|f| f.id < got) {
                let f = flying.pop_front().expect("checked");
                fail(&mut out, &f, "reply missing (a later one arrived)");
            }
            let Some(f) = flying.pop_front().filter(|f| f.id == got) else {
                out.problems.push(format!("unexpected frame {reply}"));
                continue;
            };
            if !phases[f.phase].measured {
                check_reply(&reply, f.id, &mut out.problems);
                continue;
            }
            match check_reply(&reply, f.id, &mut out.problems) {
                Some(sim) => {
                    let samples = &mut out.phases[f.phase];
                    samples
                        .latency_ms
                        .push(decoded.saturating_duration_since(f.due).as_secs_f64() * 1e3);
                    samples.sim_ms.push(sim);
                    samples.last_done = Some(decoded);
                    if phases[f.phase].traced {
                        Steps {
                            start: f.start,
                            encoded: f.encoded,
                            written: f.written,
                            arrived: arrived.max(f.written),
                            decoded,
                        }
                        .record(&mut out.spans, None, f.id);
                    }
                }
                None => out.phases[f.phase].failed += 1,
            }
        }
    }
    out.bytes = conn.bytes;
    Ok(out)
}

// ---------------------------------------------------------------------
// Policy swaps (admin connection)
// ---------------------------------------------------------------------

/// The two valid bundles the swap workload alternates, and one the
/// validator must refuse (PROTOCOL.md §4 schema; OPERATIONS.md §3's
/// known-good and known-rejected examples).
pub fn bundle(name: &str) -> Json {
    let hooks = |name: &str, metaload: &str| {
        Json::obj(vec![
            ("name", Json::str(name)),
            ("metaload", Json::str(metaload)),
            ("mdsload", Json::str("MDSs[i][\"all\"]")),
            (
                "when",
                Json::str("result = MDSs[whoami][\"load\"] > total/#MDSs"),
            ),
            (
                "where",
                Json::str("targets[1] = MDSs[whoami][\"load\"] - total/#MDSs"),
            ),
            ("howmuch", Json::Arr(vec![Json::str("half")])),
        ])
    };
    match name {
        "bench-a" => hooks("bench-a", "IWR + IRD"),
        "bench-b" => hooks("bench-b", "IWR + IRD + READDIR"),
        "bench-broken" => Json::obj(vec![
            ("name", Json::str("bench-broken")),
            ("metaload", Json::str("IWR + IRD")),
            ("mdsload", Json::str("MDSs[i][\"all\"]")),
            ("decision", Json::str("result = undefined_global + 1")),
        ]),
        other => panic!("no bundle called {other}"),
    }
}

/// Name of the `i`-th swap's bundle (1-based, as epochs are).
pub fn swap_name(i: usize) -> &'static str {
    if i % 2 == 1 {
        "bench-a"
    } else {
        "bench-b"
    }
}

/// What the admin connection measured.
pub struct Swapped {
    /// `policy-swap` sent → `swapped` received, ms, per swap.
    pub ack_ms: Vec<f64>,
    /// `swap` spans of the traced phases.
    pub spans: Spans,
    /// Output checks that failed.
    pub problems: Vec<String>,
}

/// Send `swaps` policy swaps evenly over the measured phases,
/// alternating the two valid bundles; each must come back `swapped` with
/// the next epoch. Then one invalid bundle, which must be refused.
pub fn swap_loop(
    conn: &mut Conn,
    swaps: usize,
    phases: &[Phase],
    start: Instant,
) -> io::Result<Swapped> {
    let warm: f64 = phases
        .iter()
        .take_while(|p| !p.measured)
        .map(|p| p.secs)
        .sum();
    let measured: f64 = phases.iter().filter(|p| p.measured).map(|p| p.secs).sum();
    let period = measured / swaps as f64;
    let mut out = Swapped {
        ack_ms: Vec::with_capacity(swaps),
        spans: Spans::new(start),
        problems: Vec::new(),
    };
    for i in 1..=swaps {
        let due = start + Duration::from_secs_f64(warm + (i - 1) as f64 * period);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let reply = conn.admin("policy-swap", vec![("policy", bundle(swap_name(i)))])?;
        match reply {
            Some((msg, steps))
                if msg.get_str("type") == Some("swapped")
                    && msg.get_u64("epoch") == Some(i as u64) =>
            {
                out.ack_ms
                    .push(steps.decoded.duration_since(steps.start).as_secs_f64() * 1e3);
                if phase_at(phases, start, steps.start).is_some_and(|p| phases[p].traced) {
                    out.spans
                        .record("swap", steps.start, steps.decoded, None, None);
                }
            }
            other => out.problems.push(format!(
                "swap {i}: expected swapped at epoch {i}, got {}",
                other.map_or("no reply".to_string(), |(m, _)| m.to_string())
            )),
        }
    }
    // A refused bundle must leave the running policy and epoch alone.
    match conn.admin("policy-swap", vec![("policy", bundle("bench-broken"))])? {
        Some((msg, _))
            if msg.get_str("type") == Some("error")
                && msg.get_str("code") == Some("policy-rejected") => {}
        other => out.problems.push(format!(
            "invalid bundle: expected policy-rejected, got {}",
            other.map_or("no reply".to_string(), |(m, _)| m.to_string())
        )),
    }
    match conn.admin("policy-show", vec![])? {
        Some((msg, _))
            if msg.get_str("name") == Some(swap_name(swaps))
                && msg.get_u64("epoch") == Some(swaps as u64) => {}
        other => out.problems.push(format!(
            "policy-show: expected {} at epoch {swaps}, got {}",
            swap_name(swaps),
            other.map_or("no reply".to_string(), |(m, _)| m.to_string())
        )),
    }
    Ok(out)
}

/// A stand-in daemon for the harness's self-tests: speaks the framing
/// and the hello/op exchange, and misbehaves on request.
#[cfg(test)]
pub(crate) mod fake {
    use super::*;
    use std::net::TcpListener;

    /// How the fake misbehaves.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Faults {
        /// Never answer the op with this id.
        pub drop_id: Option<u64>,
        /// Before answering the op with this id, stop reading and
        /// answering for this long.
        pub stall: Option<(u64, Duration)>,
    }

    /// Serve `conns` connections, one after the other, then stop.
    /// Returns the address to connect to and the server thread.
    pub fn serve(conns: usize, faults: Faults) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback binds");
        let addr = listener.local_addr().expect("bound").to_string();
        let thread = std::thread::spawn(move || {
            for _ in 0..conns {
                let (stream, _) = listener.accept().expect("a client connects");
                session(stream, faults);
            }
        });
        (addr, thread)
    }

    fn session(mut stream: TcpStream, faults: Faults) {
        stream
            .set_nodelay(true)
            .expect("loopback sockets take options");
        let mut buf = Vec::new();
        let mut tmp = [0u8; 4096];
        loop {
            while let Some(msg) = decode_frame(&mut buf).expect("clients send valid frames") {
                let id = msg.get_u64("id");
                let reply = match msg.get_str("type") {
                    Some("hello") => Json::obj(vec![
                        ("type", Json::str("welcome")),
                        ("proto", Json::num(PROTO_VERSION as f64)),
                        ("role", Json::str("client")),
                        ("slot", Json::num(0.0)),
                    ]),
                    _ => {
                        if faults.drop_id == id {
                            continue;
                        }
                        if let Some((at, pause)) = faults.stall {
                            if Some(at) == id {
                                std::thread::sleep(pause);
                            }
                        }
                        Json::obj(vec![
                            ("type", Json::str("reply")),
                            ("id", Json::num(id.unwrap_or(0) as f64)),
                            ("status", Json::str("ok")),
                            ("mds", Json::num(0.0)),
                            ("latency_ms", Json::num(0.25)),
                        ])
                    }
                };
                if stream.write_all(&encode_frame(&reply)).is_err() {
                    return;
                }
            }
            match stream.read(&mut tmp) {
                Ok(0) | Err(_) => return,
                Ok(n) => buf.extend_from_slice(&tmp[..n]),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::fake::{serve, Faults};
    use super::*;
    use crate::stats::median;

    fn one_measured(secs: f64) -> Vec<Phase> {
        vec![Phase {
            secs,
            measured: true,
            traced: true,
        }]
    }

    /// A stall in the server must show up as latency of every op it
    /// delays — those that were due while it lasted — and not as the
    /// generator running late.
    #[test]
    fn open_loop_times_from_the_due_instant() {
        let stall = Duration::from_millis(250);
        let (addr, server) = serve(
            1,
            Faults {
                stall: Some((100, stall)),
                ..Faults::default()
            },
        );
        let plan = one_measured(0.8);
        let rate = 500.0;
        let got = open_loop(
            &addr,
            1,
            rate,
            &plan,
            Instant::now(),
            Duration::from_secs(2),
        )
        .expect("the generator runs");
        server.join().expect("the fake exits cleanly");
        let s = &got.phases[0];
        assert_eq!((s.attempted, s.failed), (400, 0), "{:?}", got.problems);
        // Ops keep being sent on schedule through the stall ...
        assert!(
            median(&s.late_ms) < 5.0,
            "generator ran late: {:?}",
            median(&s.late_ms)
        );
        assert!(
            s.max_outstanding >= 50,
            "only {} in flight",
            s.max_outstanding
        );
        // ... and everything due during it waited for its end: about
        // rate x stall ops, the first of them for the whole stall.
        let delayed = s.latency_ms.iter().filter(|&&ms| ms > 50.0).count();
        assert!((60..=140).contains(&delayed), "{delayed} ops saw the stall");
        let worst = s.latency_ms.iter().cloned().fold(0.0, f64::max);
        assert!(worst >= 0.9 * stall.as_secs_f64() * 1e3, "worst {worst} ms");
        assert!(median(&s.latency_ms) < 20.0, "the rest are unaffected");
        // Traced: one op span and four step spans per ok op.
        assert_eq!(got.spans.self_ns().len(), 5 * 400);
    }

    #[test]
    fn open_loop_counts_a_dropped_reply_as_failed() {
        let (addr, server) = serve(
            1,
            Faults {
                drop_id: Some(30),
                ..Faults::default()
            },
        );
        let got = open_loop(
            &addr,
            1,
            400.0,
            &one_measured(0.25),
            Instant::now(),
            Duration::from_millis(300),
        )
        .expect("the generator runs");
        server.join().expect("the fake exits cleanly");
        let s = &got.phases[0];
        assert_eq!((s.attempted, s.failed, s.ok()), (100, 1, 99));
        assert!(
            got.problems.iter().any(|p| p.contains("op 30")),
            "{:?}",
            got.problems
        );
    }

    #[test]
    fn phases_alternate_in_the_traced_pass() {
        let plain = phases(20.0, false);
        assert_eq!(plain.len(), 2);
        assert!(!plain[0].measured && plain[1].measured && !plain[1].traced);
        let traced = phases(20.0, true);
        assert_eq!(traced.len(), 21);
        assert_eq!(traced.iter().filter(|p| p.traced).count(), 10);
        assert!((traced.iter().map(|p| p.secs).sum::<f64>() - 22.0).abs() < 1e-9);
        let start = Instant::now();
        assert_eq!(
            phase_at(&traced, start, start + Duration::from_millis(2_500)),
            Some(1)
        );
        assert_eq!(
            phase_at(&traced, start, start + Duration::from_secs(23)),
            None
        );
    }

    #[test]
    fn the_swap_bundles_are_what_the_validator_says_they_are() {
        use mantle_daemon::engine::policy_source_from_json;
        use mantle_policy::install::prepare;
        for name in ["bench-a", "bench-b"] {
            let source = policy_source_from_json(&bundle(name)).expect("well-formed");
            prepare(&source).unwrap_or_else(|e| panic!("{name} must validate: {e}"));
        }
        let broken = policy_source_from_json(&bundle("bench-broken")).expect("well-formed");
        assert!(prepare(&broken).is_err(), "bench-broken must be refused");
        assert_eq!(
            (swap_name(1), swap_name(2), swap_name(60)),
            ("bench-a", "bench-b", "bench-b")
        );
    }
}
