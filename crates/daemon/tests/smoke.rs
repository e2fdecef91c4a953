//! End-to-end smoke test over a real socket: start `mantled` on an
//! ephemeral loopback port, drive metadata ops from a wire client,
//! hot-swap the policy through the admin socket, watch the install epoch
//! appear in the live trace stream, then shut down cleanly and check the
//! final report. CI runs it with the workspace tests, in both profiles.
//!
//! The later tests pin the event-driven wire path from outside: an idle
//! daemon makes (almost) no context switches and runs one thread, a swap
//! ack reaches the reactor with no other traffic to carry it, neither a
//! stalled peer nor a crowd of them gets in another client's way, a peer
//! that pipelines ops without reading its replies is pushed back, not
//! buffered, and a `--clock=sim` daemon answers one frame sequence the
//! same way every time.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

use mantle_daemon::json::Json;
use mantle_daemon::MantleClient;

struct Daemon {
    child: Child,
    addr: String,
    stdout: BufReader<std::process::ChildStdout>,
}

impl Daemon {
    fn spawn(args: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mantled"))
            .arg("--addr=127.0.0.1:0")
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("mantled spawns");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("mantled announces");
        let addr = line
            .trim()
            .strip_prefix("listening ")
            .unwrap_or_else(|| panic!("unexpected announce line: {line:?}"))
            .to_string();
        Daemon {
            child,
            addr,
            stdout,
        }
    }

    /// Wait for exit; returns (exit ok, remaining stdout).
    fn finish(mut self) -> (bool, String) {
        let mut rest = String::new();
        let mut buf = String::new();
        while self.stdout.read_line(&mut buf).unwrap_or(0) > 0 {
            rest.push_str(&buf);
            buf.clear();
        }
        let status = self.child.wait().expect("mantled reaped");
        (status.success(), rest)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Belt-and-braces: never leave a daemon behind if an assert fired.
        let _ = self.child.kill();
    }
}

fn swap_bundle() -> Json {
    mantle_daemon::json::parse(
        r#"{
          "name": "greedy-smoke-v2",
          "metaload": "IWR + IRD",
          "mdsload": "MDSs[i][\"all\"]",
          "when": "result = MDSs[whoami][\"load\"] > total/#MDSs",
          "where": "targets[1] = MDSs[whoami][\"load\"] - total/#MDSs",
          "howmuch": ["half"]
        }"#,
    )
    .expect("bundle parses")
}

#[test]
fn daemon_serves_swaps_and_drains() {
    let daemon = Daemon::spawn(&[
        "--sessions=4",
        "--mds=3",
        "--clock=wall",
        "--trace=decisions",
    ]);

    // Subscribe to the trace stream before the swap so the install
    // record must pass through it.
    let mut trace = MantleClient::connect(&daemon.addr, "trace").expect("trace role connects");

    // A client issues ops and gets routed replies back.
    let mut client = MantleClient::connect(&daemon.addr, "client").expect("client role connects");
    assert_eq!(client.slot(), Some(0), "first client gets slot 0");
    for i in 0..8 {
        let reply = client
            .op(if i % 2 == 0 { "create" } else { "stat" }, "/smoke/dir")
            .expect("op round-trips");
        assert_eq!(reply.get_str("status"), Some("ok"), "reply: {reply}");
        assert!(reply.get_num("mds").is_some(), "reply names an MDS");
    }

    // Admin: status reflects the boot policy, then a hot swap bumps it.
    let mut admin = MantleClient::connect(&daemon.addr, "admin").expect("admin role connects");
    let status = admin.admin("status", vec![]).expect("status");
    assert_eq!(status.get_str("policy"), Some("greedy-spill"));
    assert_eq!(status.get_u64("epoch"), Some(0));
    assert!(status.get_num("ops_completed").unwrap_or(0.0) >= 8.0);

    // A bundle with a `howmany` hook is refused — this daemon's
    // membership is fixed, the hook would steer nothing — and nothing is
    // published; the same bundle without it is then epoch 1.
    let mut elastic = swap_bundle();
    if let Json::Obj(members) = &mut elastic {
        members.push(("howmany".into(), Json::str("result = #MDSs")));
    }
    let refused = admin
        .admin("policy-swap", vec![("policy", elastic)])
        .expect("refusal round-trips");
    assert_eq!(refused.get_str("type"), Some("error"), "reply: {refused}");
    assert_eq!(refused.get_str("code"), Some("policy-rejected"));
    assert!(
        refused
            .get_str("detail")
            .is_some_and(|d| d.contains("fixed membership")),
        "reply: {refused}"
    );
    let shown = admin.admin("policy-show", vec![]).expect("policy-show");
    assert_eq!(shown.get_str("name"), Some("greedy-spill"));
    assert_eq!(shown.get_u64("epoch"), Some(0));

    let swapped = admin
        .admin("policy-swap", vec![("policy", swap_bundle())])
        .expect("swap round-trips");
    assert_eq!(swapped.get_str("type"), Some("swapped"), "swap: {swapped}");
    assert_eq!(swapped.get_u64("epoch"), Some(1));

    // A rejected policy must fail validation and leave the epoch alone.
    let mut bad = swap_bundle();
    if let Json::Obj(members) = &mut bad {
        members.retain(|(k, _)| k != "metaload");
        members.push(("metaload".into(), Json::str("IWR +")));
    }
    let rejected = admin
        .admin("policy-swap", vec![("policy", bad)])
        .expect("rejection round-trips");
    assert_eq!(rejected.get_str("type"), Some("error"));
    assert_eq!(rejected.get_str("code"), Some("policy-rejected"));

    let shown = admin.admin("policy-show", vec![]).expect("policy-show");
    assert_eq!(shown.get_str("name"), Some("greedy-smoke-v2"));
    assert_eq!(shown.get_u64("epoch"), Some(1));

    // Ops keep flowing on the new policy.
    let reply = client
        .op("mkdir", "/smoke/after-swap")
        .expect("post-swap op");
    assert_eq!(reply.get_str("status"), Some("ok"));

    // The install epoch is visible in the live trace stream.
    let mut saw_install = false;
    for _ in 0..10_000 {
        let record = trace
            .recv()
            .expect("trace stream alive")
            .expect("stream open until shutdown");
        if record.get_str("ev") == Some("policy_installed") {
            assert_eq!(record.get_u64("install_epoch"), Some(1));
            assert_eq!(record.get_str("name"), Some("greedy-smoke-v2"));
            saw_install = true;
            break;
        }
    }
    assert!(
        saw_install,
        "policy_installed record reached the subscriber"
    );

    // Clean shutdown: daemon drains, exits 0, prints the final report.
    let ok = admin.admin("shutdown", vec![]).expect("shutdown acked");
    assert_eq!(ok.get_str("type"), Some("ok"));
    let (success, rest) = daemon.finish();
    assert!(success, "mantled exits cleanly");
    let report_line = rest
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("final report printed");
    let report = mantle_daemon::json::parse(report_line).expect("report is json");
    assert_eq!(report.get_str("type"), Some("report"));
    assert_eq!(
        report.get_str("balancer"),
        Some("greedy-smoke-v2"),
        "report names the hot-swapped policy"
    );
    assert!(report.get_num("total_ops").unwrap_or(0.0) >= 9.0);
}

#[test]
fn scenario_mode_runs_one_shot() {
    let out = Command::new(env!("CARGO_BIN_EXE_mantled"))
        .arg("--scenario=static-spread")
        .output()
        .expect("mantled runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf-8 report");
    let report = mantle_daemon::json::parse(text.trim()).expect("report is json");
    assert_eq!(report.get_str("balancer"), Some("none"));
    assert_eq!(report.get_num("total_ops"), Some(1600.0));
}

#[test]
fn protocol_errors_are_reported_not_fatal() {
    let daemon = Daemon::spawn(&["--sessions=1", "--mds=2", "--clock=wall"]);

    // Unknown admin verb → typed error, connection stays usable.
    let mut admin = MantleClient::connect(&daemon.addr, "admin").expect("admin connects");
    let err = admin.admin("frobnicate", vec![]).expect("error reply");
    assert_eq!(err.get_str("code"), Some("bad-admin"));
    let status = admin.admin("status", vec![]).expect("still usable");
    assert_eq!(status.get_str("type"), Some("status"));

    // Slot exhaustion: --sessions=1 means the second client is refused.
    let _first = MantleClient::connect(&daemon.addr, "client").expect("first client fits");
    let refused = MantleClient::connect(&daemon.addr, "client");
    assert!(refused.is_err(), "second client must be refused");

    // Unknown scenario → typed error.
    let err = admin
        .admin("scenario", vec![("name", Json::str("nope"))])
        .expect("error reply");
    assert_eq!(err.get_str("code"), Some("unknown-scenario"));

    let ok = admin.admin("shutdown", vec![]).expect("shutdown");
    assert_eq!(ok.get_str("type"), Some("ok"));
    let (success, _) = daemon.finish();
    assert!(success);
}

/// Voluntary context switches of every thread of `pid`, summed.
#[cfg(target_os = "linux")]
fn voluntary_switches(pid: u32) -> u64 {
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).expect("daemon is running");
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("status")).ok())
        .filter_map(|status| {
            let line = status
                .lines()
                .find(|l| l.starts_with("voluntary_ctxt_switches:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .sum()
}

#[cfg(target_os = "linux")]
#[test]
fn an_idle_daemon_does_not_poll() {
    let daemon = Daemon::spawn(&["--clock=wall"]);
    let mut admin = MantleClient::connect(&daemon.addr, "admin").expect("admin connects");
    let before = voluntary_switches(daemon.child.id());
    std::thread::sleep(std::time::Duration::from_secs(1));
    let switched = voluntary_switches(daemon.child.id()) - before;
    // A 1 ms reactor sleep plus 16 sessions polled every millisecond cost
    // ≈1 850 switches a second; blocked in ppoll(2) until the engine's
    // next deadline, the heartbeat 10 s out, the one thread makes none.
    assert!(
        switched < 100,
        "{switched} context switches in an idle second"
    );
    let status = admin.admin("status", vec![]).expect("status");
    assert!(status.get_u64("reactor_wakeups").expect("reported") < 100);
    assert_eq!(status.get_u64("reactor_timeouts"), Some(0));
    admin.admin("shutdown", vec![]).expect("shutdown");
    assert!(daemon.finish().0);
}

/// The reactor steps the engine in line: a serving daemon is one thread.
#[cfg(target_os = "linux")]
#[test]
fn a_serving_daemon_runs_one_thread() {
    let daemon = Daemon::spawn(&["--clock=wall"]);
    let mut client = MantleClient::connect(&daemon.addr, "client").expect("client connects");
    let reply = client.op("create", "/smoke/one-thread").expect("op");
    assert_eq!(reply.get_str("status"), Some("ok"), "reply: {reply}");
    let tasks = std::fs::read_dir(format!("/proc/{}/task", daemon.child.id()))
        .expect("daemon is running")
        .count();
    assert_eq!(tasks, 1, "threads of a serving mantled");
    let mut admin = MantleClient::connect(&daemon.addr, "admin").expect("admin connects");
    admin.admin("shutdown", vec![]).expect("shutdown");
    assert!(daemon.finish().0);
}

/// One frame off `stream`, as the bytes it came in.
fn raw_frame(stream: &mut std::net::TcpStream) -> Vec<u8> {
    use std::io::Read as _;
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("a frame");
    let mut body = vec![0; u32::from_be_bytes(len) as usize];
    stream.read_exact(&mut body).expect("its payload");
    body
}

/// Under `--clock=sim` a daemon is a function of the frames it is sent,
/// in the order it dispatches them: two sessions pipelining ops around a
/// hot swap get the same bytes back, and print the same exit report,
/// every time.
#[test]
fn a_sim_clock_daemon_answers_one_frame_sequence_the_same_twice() {
    use std::io::Write as _;
    let frame = |members| mantle_daemon::wire::encode_frame(&Json::obj(members));
    let run = || {
        let daemon = Daemon::spawn(&["--sessions=2", "--mds=2", "--clock=sim"]);
        let mut replies = Vec::new();
        let mut connect = |role: &str| {
            let mut stream = std::net::TcpStream::connect(&daemon.addr).expect("connects");
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(20)))
                .unwrap();
            stream
                .write_all(&frame(vec![
                    ("type", Json::str("hello")),
                    ("role", Json::str(role)),
                    ("proto", Json::num(1.0)),
                ]))
                .unwrap();
            replies.push(raw_frame(&mut stream));
            stream
        };
        let (mut admin, mut a, mut b) = (connect("admin"), connect("client"), connect("client"));
        // Six ops in one write: pipelined, whatever reads TCP splits them
        // into.
        let ops = |session: usize, round: usize| -> Vec<u8> {
            (0..6)
                .flat_map(|i| {
                    frame(vec![
                        ("type", Json::str("op")),
                        ("id", Json::num((round * 6 + i) as f64)),
                        ("op", Json::str(["mkdir", "create", "stat"][i % 3])),
                        ("path", Json::str(format!("/det/s{session}/d{}", i % 2))),
                    ])
                })
                .collect()
        };
        for round in 0..2 {
            // The older connection first: with both sessions' frames in,
            // a read pass dispatches its frames ahead of the other's.
            a.write_all(&ops(0, round)).unwrap();
            b.write_all(&ops(1, round)).unwrap();
            for conn in [&mut a, &mut b] {
                replies.extend((0..6).map(|_| raw_frame(conn)));
            }
            if round == 0 {
                admin
                    .write_all(&frame(vec![
                        ("type", Json::str("admin")),
                        ("verb", Json::str("policy-swap")),
                        ("policy", swap_bundle()),
                    ]))
                    .unwrap();
                replies.push(raw_frame(&mut admin));
            }
        }
        admin
            .write_all(&frame(vec![
                ("type", Json::str("admin")),
                ("verb", Json::str("shutdown")),
            ]))
            .unwrap();
        replies.push(raw_frame(&mut admin));
        let (ok, report) = daemon.finish();
        assert!(ok, "mantled exits cleanly");
        (replies, report)
    };
    let (replies, report) = run();
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    assert!(
        text(&replies[3 + 12]).contains("\"swapped\""),
        "{}",
        text(&replies[3 + 12])
    );
    let last = report.lines().last().expect("the report is printed");
    let parsed = mantle_daemon::json::parse(last).expect("the report is json");
    assert_eq!(parsed.get_u64("total_ops"), Some(24), "{last}");
    let again = run();
    for (i, (one, two)) in replies.iter().zip(&again.0).enumerate() {
        assert_eq!(text(one), text(two), "reply {i}");
    }
    assert_eq!(replies.len(), again.0.len());
    assert_eq!(report, again.1, "exit reports");
}

#[test]
fn a_swap_ack_wakes_the_reactor_by_itself() {
    // Tracing off and no op in flight: the ack is the only thing the
    // engine has to say, so nothing else can carry it to the socket.
    let daemon = Daemon::spawn(&["--clock=wall", "--trace=off"]);
    let mut admin = MantleClient::connect(&daemon.addr, "admin").expect("admin connects");
    let swapped = admin
        .admin("policy-swap", vec![("policy", swap_bundle())])
        .expect("the ack arrives");
    assert_eq!(swapped.get_str("type"), Some("swapped"), "swap: {swapped}");
    assert_eq!(swapped.get_u64("epoch"), Some(1));
    admin.admin("shutdown", vec![]).expect("shutdown");
    assert!(daemon.finish().0);
}

#[test]
fn stalled_and_surplus_peers_do_not_block_a_client() {
    use std::io::{Read as _, Write as _};
    let daemon = Daemon::spawn(&["--sessions=1", "--clock=wall"]);

    // Half a frame, then silence: a length prefix promising 64 bytes and
    // three of them.
    let mut stalled = std::net::TcpStream::connect(&daemon.addr).expect("connects");
    stalled.write_all(&[0, 0, 0, 64, b'{', b'"', b't']).unwrap();

    let mut client = MantleClient::connect(&daemon.addr, "client").expect("client connects");
    for _ in 0..4 {
        let reply = client.op("create", "/smoke/beside-a-stall").expect("op");
        assert_eq!(reply.get_str("status"), Some("ok"));
    }

    // The cap is sessions + 32 = 33 connections, and two are open.
    let crowd: Vec<_> = (0..31)
        .map(|i| {
            MantleClient::connect(&daemon.addr, "admin").unwrap_or_else(|e| panic!("#{i}: {e}"))
        })
        .collect();
    let refused = match MantleClient::connect(&daemon.addr, "admin") {
        Ok(_) => panic!("the 34th connection must be refused"),
        Err(e) => e.to_string(),
    };
    assert!(refused.contains("too-many-connections"), "{refused}");
    let reply = client.op("stat", "/smoke/beside-a-stall").expect("op");
    assert_eq!(reply.get_str("status"), Some("ok"), "served at the cap");

    // A closed connection frees its place.
    drop(crowd);
    let mut admin = loop {
        match MantleClient::connect(&daemon.addr, "admin") {
            Ok(admin) => break admin,
            Err(e) if e.to_string().contains("too-many-connections") => {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            Err(e) => panic!("{e}"),
        }
    };
    admin.admin("shutdown", vec![]).expect("shutdown");
    assert!(daemon.finish().0);
    // The stalled peer was never answered, only hung up on at exit.
    let mut rest = Vec::new();
    let _ = stalled.read_to_end(&mut rest);
    assert!(rest.is_empty(), "{rest:?}");
}

#[test]
fn a_peer_that_floods_and_never_reads_is_pushed_back_not_buffered() {
    let daemon = Daemon::spawn(&["--sessions=2", "--clock=sim"]);
    let mut admin = MantleClient::connect(&daemon.addr, "admin").expect("admin connects");
    let mut other = MantleClient::connect(&daemon.addr, "client").expect("client connects");
    let mut flood = MantleClient::connect(&daemon.addr, "client").expect("flooder connects");
    // (submitted, completed); only the flooder submits until it is held.
    let counts = |admin: &mut MantleClient| {
        let st = admin.admin("status", vec![]).expect("status answers");
        let get = |k| st.get_u64(k).expect("status carries the counter");
        (get("ops_submitted"), get("ops_completed"))
    };

    // Pipeline ops in small batches and never read a reply. After each
    // batch, wait until the daemon has taken all of it — or has gone idle
    // without taking it, which is the push-back: the bytes sit in the
    // socket and the daemon holds at most its cap for this peer.
    const BATCH: u64 = 500;
    const FAR_PAST_THE_CAP: u64 = 200_000; // ≈ 20 MB of replies
    let mut sent = 0;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    'flood: loop {
        assert!(
            sent < FAR_PAST_THE_CAP,
            "the daemon took {sent} ops from a peer that never read a reply"
        );
        for _ in 0..BATCH {
            sent += 1;
            flood
                .send(&Json::obj(vec![
                    ("type", Json::str("op")),
                    ("id", Json::num(sent as f64)),
                    ("op", Json::str("stat")),
                    ("path", Json::str("/smoke/flood")),
                ]))
                .expect("a batch fits the socket buffers");
        }
        let mut last = None;
        loop {
            assert!(std::time::Instant::now() < deadline, "flood timed out");
            let now = counts(&mut admin);
            if now.0 == sent {
                continue 'flood;
            }
            if now.0 == now.1 && last == Some(now) {
                break 'flood;
            }
            last = Some(now);
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }

    // The other session and the admin connection are served meanwhile.
    let reply = other.op("create", "/smoke/beside-a-flood").expect("op");
    assert_eq!(reply.get_str("status"), Some("ok"));
    let (submitted, _) = counts(&mut admin);
    assert!(
        submitted - 1 < sent,
        "still held back: {submitted} - 1 of {sent}"
    );

    // Once the flooder reads, it gets every reply, in order: nothing was
    // dropped to stay under the cap, and the held-back ops were taken.
    for want in 1..=sent {
        let reply = flood.recv_required().expect("reply");
        assert_eq!(reply.get_u64("id"), Some(want));
        assert_eq!(reply.get_str("status"), Some("ok"));
    }
    assert_eq!(counts(&mut admin), (sent + 1, sent + 1));

    admin.admin("shutdown", vec![]).expect("shutdown");
    assert!(daemon.finish().0);
}

/// Clients create directories over the wire whenever they like; one made
/// under a subtree that has just migrated — still frozen, its prefix
/// still cold — is in no export's region and is served like any other.
#[test]
fn a_directory_made_under_a_just_migrated_parent_is_served() {
    let daemon = Daemon::spawn(&["--sessions=1", "--mds=3", "--clock=sim"]);
    let mut client = MantleClient::connect(&daemon.addr, "client").expect("client connects");
    // Creates over four directories, pipelined in batches, until a reply
    // names an importer: simulated time has crossed the first balancer
    // tick (10 s, about ten thousand ops) and that directory has moved.
    const DIRS: usize = 4;
    const BATCH: u64 = 256;
    let mut sent = 0u64;
    let migrated = 'hunt: loop {
        assert!(sent < 60_000, "no migration after {sent} creates");
        let path = |id: u64| format!("/smoke/hot{}", id as usize % DIRS);
        for _ in 0..BATCH {
            sent += 1;
            client
                .send(&Json::obj(vec![
                    ("type", Json::str("op")),
                    ("id", Json::num(sent as f64)),
                    ("op", Json::str("create")),
                    ("path", Json::str(path(sent))),
                ]))
                .expect("a batch fits the socket buffers");
        }
        let mut moved = None;
        for id in sent - BATCH + 1..=sent {
            let reply = client.recv_required().expect("reply");
            assert_eq!(reply.get_u64("id"), Some(id));
            assert_eq!(reply.get_str("status"), Some("ok"), "reply: {reply}");
            if reply.get_u64("mds").is_some_and(|mds| mds != 0) {
                moved = Some(path(id));
            }
        }
        if let Some(path) = moved {
            break 'hunt path;
        }
    };
    let made = format!("{migrated}/made-after");
    for op in ["mkdir", "stat", "create"] {
        let reply = client.op(op, &made).expect("op round-trips");
        assert_eq!(reply.get_str("status"), Some("ok"), "{op}: {reply}");
    }
    let mut admin = MantleClient::connect(&daemon.addr, "admin").expect("admin connects");
    admin.admin("shutdown", vec![]).expect("shutdown");
    assert!(daemon.finish().0);
}

#[test]
fn hostile_nesting_is_refused_not_fatal() {
    use std::io::Write as _;
    let daemon = Daemon::spawn(&["--sessions=1", "--mds=2", "--clock=wall"]);

    // An admin hello and, right behind it, a frame of 200 000 `[`: well
    // inside an admin connection's 16 MiB frame cap (the hello's role
    // sets the cap for the bytes after it), and enough to overflow the
    // reactor's stack in a parser that recurses once per bracket. The
    // peer gets an error frame and is hung up on.
    let mut hostile = std::net::TcpStream::connect(&daemon.addr).expect("connects");
    let hello = Json::obj(vec![
        ("type", Json::str("hello")),
        ("role", Json::str("admin")),
        ("proto", Json::num(1.0)),
    ]);
    let payload = vec![b'['; 200_000];
    hostile
        .write_all(&mantle_daemon::wire::encode_frame(&hello))
        .and_then(|()| hostile.write_all(&(payload.len() as u32).to_be_bytes()))
        .and_then(|()| hostile.write_all(&payload))
        .expect("frames sent");
    let welcome = mantle_daemon::wire::read_frame(&mut hostile).expect("welcome");
    assert_eq!(welcome.unwrap().get_str("type"), Some("welcome"));
    let error = mantle_daemon::wire::read_frame(&mut hostile)
        .expect("the daemon is still there to answer")
        .expect("with an error frame");
    assert_eq!(error.get_str("code"), Some("bad-frame"), "reply: {error}");
    assert!(
        error
            .get_str("detail")
            .is_some_and(|d| d.contains("nesting too deep")),
        "reply: {error}"
    );
    assert!(
        matches!(mantle_daemon::wire::read_frame(&mut hostile), Ok(None)),
        "then the connection is closed"
    );

    // A policy whose `metaload` is 200 000 `(`: a shallow, valid frame,
    // parsed on the reactor thread by the policy compiler. Rejected like
    // any other bad policy; the admin connection stays usable.
    let mut admin = MantleClient::connect(&daemon.addr, "admin").expect("admin connects");
    let mut deep = swap_bundle();
    if let Json::Obj(members) = &mut deep {
        members.retain(|(k, _)| k != "metaload");
        members.push(("metaload".into(), Json::str("(".repeat(200_000))));
    }
    let rejected = admin
        .admin("policy-swap", vec![("policy", deep)])
        .expect("rejection round-trips");
    assert_eq!(rejected.get_str("code"), Some("policy-rejected"));
    assert!(
        rejected
            .get_str("detail")
            .is_some_and(|d| d.contains("nesting too deep")),
        "reply: {rejected}"
    );
    let shown = admin.admin("policy-show", vec![]).expect("policy-show");
    assert_eq!(shown.get_u64("epoch"), Some(0), "nothing was published");

    // And on another connection, business as usual.
    let mut client = MantleClient::connect(&daemon.addr, "client").expect("client connects");
    let reply = client.op("create", "/smoke/after-the-storm").expect("op");
    assert_eq!(reply.get_str("status"), Some("ok"));

    admin.admin("shutdown", vec![]).expect("shutdown");
    assert!(daemon.finish().0, "mantled exits cleanly");
}

/// Before its `hello`, and for good on a `client` or `trace` connection, a
/// peer may send frames of at most 64 KiB: one that announces more is
/// refused on sight rather than buffered while it trickles in. An `admin`
/// connection still takes a policy bundle well past that.
#[test]
fn frame_caps_follow_the_role() {
    use std::io::Write as _;
    let daemon = Daemon::spawn(&["--sessions=1", "--mds=2", "--clock=wall"]);

    // A 1 MiB length prefix and the first bytes of a payload, then
    // nothing: answered now, not after a megabyte that never comes.
    let mut early = std::net::TcpStream::connect(&daemon.addr).expect("connects");
    early
        .set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .unwrap();
    early.write_all(&(1u32 << 20).to_be_bytes()).unwrap();
    early.write_all(br#"{"type":"hello","#).unwrap();
    let error = mantle_daemon::wire::read_frame(&mut early)
        .expect("answered without the rest of the frame")
        .expect("with an error frame");
    assert_eq!(error.get_str("code"), Some("bad-frame"), "reply: {error}");
    assert!(
        error
            .get_str("detail")
            .is_some_and(|d| d.contains("exceeds 65536")),
        "reply: {error}"
    );
    assert!(
        matches!(mantle_daemon::wire::read_frame(&mut early), Ok(None)),
        "then the connection is closed"
    );

    // A 200 KiB bundle — its `where` hook carries a long comment — on an
    // admin connection is installed like any other.
    let mut admin = MantleClient::connect(&daemon.addr, "admin").expect("admin connects");
    let mut big = swap_bundle();
    let hook = big.get_str("where").expect("`where` hook").to_string();
    if let Json::Obj(members) = &mut big {
        members.retain(|(k, _)| k != "where");
        let comment = "x".repeat(200 << 10);
        members.push(("where".into(), Json::str(format!("-- {comment}\n{hook}"))));
    }
    let swapped = admin
        .admin("policy-swap", vec![("policy", big)])
        .expect("the swap round-trips");
    assert_eq!(swapped.get_str("type"), Some("swapped"), "swap: {swapped}");
    assert_eq!(swapped.get_u64("epoch"), Some(1));

    admin.admin("shutdown", vec![]).expect("shutdown");
    assert!(daemon.finish().0, "mantled exits cleanly");
}

/// A malformed frame is answered in its turn: the reply to the request
/// ahead of it comes first, then `bad-frame`, then the close.
#[test]
fn a_bad_frame_is_answered_after_the_requests_ahead_of_it() {
    use std::io::Write as _;
    let daemon = Daemon::spawn(&["--sessions=1", "--mds=2", "--clock=sim"]);
    let mut admin = std::net::TcpStream::connect(&daemon.addr).expect("connects");
    admin
        .set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .unwrap();
    let frame = |members| mantle_daemon::wire::encode_frame(&Json::obj(members));
    admin
        .write_all(&frame(vec![
            ("type", Json::str("hello")),
            ("role", Json::str("admin")),
            ("proto", Json::num(1.0)),
        ]))
        .unwrap();
    let welcome = mantle_daemon::wire::read_frame(&mut admin).expect("welcome");
    assert_eq!(welcome.unwrap().get_str("type"), Some("welcome"));

    // One write: a `status` request, then a two-byte frame that is not
    // JSON.
    let mut bytes = frame(vec![
        ("type", Json::str("admin")),
        ("id", Json::num(7.0)),
        ("verb", Json::str("status")),
    ]);
    bytes.extend_from_slice(&[0, 0, 0, 2, b'}', b'{']);
    admin.write_all(&bytes).unwrap();
    let status = mantle_daemon::wire::read_frame(&mut admin)
        .expect("a reply")
        .expect("not the close");
    assert_eq!(status.get_str("type"), Some("status"), "first: {status}");
    assert_eq!(status.get_u64("id"), Some(7));
    let error = mantle_daemon::wire::read_frame(&mut admin)
        .expect("a reply")
        .expect("not the close");
    assert_eq!(error.get_str("code"), Some("bad-frame"), "second: {error}");
    assert!(
        matches!(mantle_daemon::wire::read_frame(&mut admin), Ok(None)),
        "then the connection is closed"
    );

    let mut admin = MantleClient::connect(&daemon.addr, "admin").expect("admin connects");
    admin.admin("shutdown", vec![]).expect("shutdown");
    assert!(daemon.finish().0, "mantled exits cleanly");
}

/// The engine completes a slot's ops in order even after the connection
/// that submitted them has gone. A client that binds the slot while some
/// are outstanding gets its own replies only, with its own ids, in order.
#[test]
fn a_slot_rebound_while_ops_are_in_flight_answers_only_its_new_client() {
    let daemon = Daemon::spawn(&["--sessions=1", "--clock=wall"]);
    let mut admin = MantleClient::connect(&daemon.addr, "admin").expect("admin connects");
    let counts = |admin: &mut MantleClient| {
        let st = admin.admin("status", vec![]).expect("status answers");
        let get = |k| st.get_u64(k).expect("status carries the counter");
        (get("ops_submitted"), get("ops_completed"))
    };
    let create = |id: u64| {
        Json::obj(vec![
            ("type", Json::str("op")),
            ("id", Json::num(id as f64)),
            ("op", Json::str("create")),
            ("path", Json::str("/smoke/rebound")),
        ])
    };
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);

    // 500 pipelined creates; once the daemon has taken them all, hang up.
    const FIRST: u64 = 500;
    let mut first = MantleClient::connect(&daemon.addr, "client").expect("client connects");
    for id in 1..=FIRST {
        first
            .send(&create(id))
            .expect("a batch fits the socket buffers");
    }
    while counts(&mut admin).0 < FIRST {
        assert!(std::time::Instant::now() < deadline, "ops never taken");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    drop(first);

    // The slot frees once the daemon sees the hang-up.
    let mut second = loop {
        assert!(std::time::Instant::now() < deadline, "slot never freed");
        match MantleClient::connect(&daemon.addr, "client") {
            Ok(client) => break client,
            Err(e) if e.to_string().contains("no-slot") => {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            Err(e) => panic!("{e}"),
        }
    };
    assert_eq!(second.slot(), Some(0));
    let (submitted, completed) = counts(&mut admin);
    assert!(
        completed < submitted,
        "the slot was rebound with ops in flight: {completed} of {submitted} done"
    );

    for id in 1..=5 {
        second.send(&create(id)).expect("sent");
    }
    for id in 1..=5 {
        let reply = second.recv_required().expect("reply");
        assert_eq!(reply.get_u64("id"), Some(id), "reply: {reply}");
        assert_eq!(reply.get_str("status"), Some("ok"), "reply: {reply}");
    }
    assert_eq!(counts(&mut admin), (FIRST + 5, FIRST + 5));

    admin.admin("shutdown", vec![]).expect("shutdown");
    assert!(daemon.finish().0, "mantled exits cleanly");
}

/// A peer that says hello and hangs up before the daemon has answered
/// leaves its slot free for the next client.
#[test]
fn a_client_that_hangs_up_after_its_hello_frees_the_slot() {
    use std::io::Write as _;
    let daemon = Daemon::spawn(&["--sessions=1", "--clock=sim"]);
    let hello = mantle_daemon::wire::encode_frame(&Json::obj(vec![
        ("type", Json::str("hello")),
        ("role", Json::str("client")),
        ("proto", Json::num(1.0)),
    ]));
    for _ in 0..20 {
        let mut peer = std::net::TcpStream::connect(&daemon.addr).expect("connects");
        peer.write_all(&hello).expect("hello sent");
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    let mut client = loop {
        match MantleClient::connect(&daemon.addr, "client") {
            Ok(client) => break client,
            Err(e) if e.to_string().contains("no-slot") => {
                assert!(std::time::Instant::now() < deadline, "the slot leaked");
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            Err(e) => panic!("{e}"),
        }
    };
    let reply = client
        .op("create", "/smoke/after-the-hang-ups")
        .expect("op");
    assert_eq!(reply.get_str("status"), Some("ok"));
    let mut admin = MantleClient::connect(&daemon.addr, "admin").expect("admin connects");
    admin.admin("shutdown", vec![]).expect("shutdown");
    assert!(daemon.finish().0, "mantled exits cleanly");
}
