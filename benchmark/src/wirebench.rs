//! The two wire workloads, end to end and traced: spawn the real
//! `mantled`, drive it with [`crate::wire`]'s generators, check what
//! came back, and read what the daemon exports about itself (the
//! `status` verb, its final report, `/proc/<pid>`).

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use mantle_core::policies;
use mantle_daemon::json::{parse, Json};
use mantle_daemon::wire::report_json;
use mantle_daemon::{DaemonConfig, Engine};
use mantle_mds::{ClusterConfig, ServiceEvent};
use mantle_namespace::{NodeId, OpKind};

use crate::layers::{self, per_call};
use crate::opmix::{path_of, OpDraw, DIRS};
use crate::outcome::{Layers, Outcome};
use crate::proc;
use crate::spans::Spans;
use crate::stats::{highest_tail, median, percentile, sorted, tail_if_supported, P99, P99_9};
use crate::wire::{
    closed_loop, op_msg, open_loop, phase_start, phases, swap_loop, Conn, Daemon, Generated, Phase,
    PhaseSamples, Swapped, DAEMON_MDS, OPEN_RATE, REPLY_TIMEOUT, SWAPS,
};

/// Daemons an end-to-end run spawns to time set-up (spawn → first
/// `welcome`); the last one serves the workload. One spawn takes 1.5–4 ms
/// on this host, so the median needs this many to hold still. A traced
/// run reports no set-up time and spawns one.
const SETUPS: usize = 51;
/// Sessions a default-flag daemon offers (its queue-depth ceiling).
const DAEMON_SESSIONS: usize = 16;

/// `/proc` totals of the daemon at one instant.
struct ProcSnapshot {
    at: Instant,
    cpu_ns: u64,
    reactor_sleeps: u64,
    engine_sleeps: u64,
}

fn snapshot(pid: u32) -> ProcSnapshot {
    let tasks = proc::tasks(pid);
    let sleeps = |engine: bool| {
        tasks
            .iter()
            .filter(|t| (t.name == "mantled-engine") == engine)
            .map(|t| t.voluntary_switches)
            .sum()
    };
    ProcSnapshot {
        at: Instant::now(),
        cpu_ns: tasks.iter().map(|t| t.cpu_ns).sum(),
        reactor_sleeps: sleeps(false),
        engine_sleeps: sleeps(true),
    }
}

/// Spawn a daemon and complete an admin handshake; returns both and the
/// set-up time, spawn → first `welcome`.
fn boot(seed: u64) -> io::Result<(Daemon, Conn, f64)> {
    let daemon = Daemon::spawn(seed)?;
    let (admin, _, _) = Conn::connect(&daemon.addr, "admin")?;
    let setup_s = daemon.spawned.elapsed().as_secs_f64();
    Ok((daemon, admin, setup_s))
}

/// Shut a daemon down and wait for it; returns its report, how long the
/// drain took, and whether it exited 0 with a report.
fn drain(daemon: Daemon, admin: &mut Conn, out: &mut Outcome) -> io::Result<(Option<Json>, f64)> {
    let t = Instant::now();
    let ack = admin.admin("shutdown", vec![])?;
    out.check(
        ack.as_ref()
            .is_some_and(|(m, _)| m.get_str("type") == Some("ok")),
        || "shutdown was not acknowledged".into(),
    );
    let (status, report) = daemon.wait_report()?;
    let drain_ms = t.elapsed().as_secs_f64() * 1e3;
    out.check(status.success(), || format!("mantled exited with {status}"));
    out.check(report.is_some(), || {
        "mantled printed no report on exit".into()
    });
    Ok((report, drain_ms))
}

/// What the generators of one run brought back, folded together.
struct Folded {
    phases: Vec<PhaseSamples>,
    sent: u64,
    bytes: u64,
    spans: Spans,
    /// Swap acknowledgement times, ms (`wire-open-swap`).
    ack_ms: Vec<f64>,
}

fn fold(
    parts: Vec<Generated>,
    swaps: Option<Swapped>,
    start: Instant,
    out: &mut Outcome,
) -> Folded {
    let mut folded = Folded {
        phases: Vec::new(),
        sent: 0,
        bytes: 0,
        spans: Spans::new(start),
        ack_ms: Vec::new(),
    };
    for part in parts {
        folded.sent += part.sent;
        folded.bytes += part.bytes;
        folded.spans.absorb(part.spans);
        out.problems.extend(part.problems);
        if folded.phases.is_empty() {
            folded.phases = part.phases;
        } else {
            for (mine, theirs) in folded.phases.iter_mut().zip(part.phases) {
                mine.merge(theirs);
            }
        }
    }
    if let Some(swapped) = swaps {
        out.problems.extend(swapped.problems);
        folded.spans.absorb(swapped.spans);
        folded.ack_ms = swapped.ack_ms;
    }
    folded
}

/// RTT minus simulated service time, per op: everything that is not the
/// model.
fn overheads(s: &PhaseSamples) -> Vec<f64> {
    s.latency_ms
        .iter()
        .zip(&s.sim_ms)
        .map(|(rtt, sim)| rtt - sim)
        .collect()
}

/// Run a wire workload. With `trace` off the measured stretch is
/// `seconds` long and the outcome carries the end-to-end metrics; with
/// it on, an untraced and a traced half, and the per-layer metrics.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans_path: &Path,
) -> io::Result<Outcome> {
    let open = workload == "wire-open-swap";
    let mut out = Outcome::default();
    let mut layers = Layers::default();

    // -- set-up: spawn -> first welcome, several times -----------------
    let spawns = if trace { 1 } else { SETUPS };
    let mut setups = Vec::with_capacity(spawns);
    for _ in 1..spawns {
        let (daemon, mut admin, setup_s) = boot(seed)?;
        setups.push(setup_s);
        drain(daemon, &mut admin, &mut out)?;
    }
    let (daemon, mut admin, setup_s) = boot(seed)?;
    setups.push(setup_s);

    // -- the load -------------------------------------------------------
    let plan: Vec<Phase> = phases(seconds as f64, trace);
    let warm = Duration::from_secs_f64(plan[0].secs);
    let start = Instant::now();
    let (addr, plan_ref, admin_ref) = (daemon.addr.as_str(), plan.as_slice(), &mut admin);
    let (before, parts, swaps) = std::thread::scope(|scope| -> io::Result<_> {
        let first = scope.spawn(move || {
            if open {
                open_loop(addr, seed, OPEN_RATE, plan_ref, start, REPLY_TIMEOUT)
            } else {
                closed_loop(addr, seed, 0, 2, plan_ref, start, REPLY_TIMEOUT)
            }
        });
        let second = scope.spawn(
            move || -> io::Result<(Option<Generated>, Option<Swapped>)> {
                if open {
                    Ok((None, Some(swap_loop(admin_ref, SWAPS, plan_ref, start)?)))
                } else {
                    let gen = closed_loop(addr, seed, 1, 2, plan_ref, start, REPLY_TIMEOUT)?;
                    Ok((Some(gen), None))
                }
            },
        );
        std::thread::sleep((start + warm).saturating_duration_since(Instant::now()));
        let before = snapshot(daemon.pid());
        let mut parts = vec![first.join().expect("generator thread panicked")?];
        let (gen, swaps) = second.join().expect("generator thread panicked")?;
        parts.extend(gen);
        Ok((before, parts, swaps))
    })?;
    let after = snapshot(daemon.pid());
    let mut folded = fold(parts, swaps, start, &mut out);

    // -- what the daemon says about itself ------------------------------
    let mut status_ms = Vec::new();
    let mut status = None;
    for _ in 0..5 {
        if let Some((msg, steps)) = admin.admin("status", vec![])? {
            status_ms.push(steps.decoded.duration_since(steps.start).as_secs_f64() * 1e3);
            status = Some(msg);
        }
    }
    let completed = status.as_ref().and_then(|s| s.get_u64("ops_completed"));
    out.check(completed == Some(folded.sent), || {
        format!(
            "status.ops_completed is {completed:?}, the generators sent {}",
            folded.sent
        )
    });
    let mut connect_ms = Vec::new();
    for _ in 0..3 {
        let (_, _, took) = Conn::connect(&daemon.addr, "admin")?;
        connect_ms.push(took.as_secs_f64() * 1e3);
    }
    // One more op on a fresh session, to hold a real request and reply.
    let (mut probe, _, _) = Conn::connect(&daemon.addr, "client")?;
    let probe_request = op_msg(OpDraw::new(seed, 0).next());
    let probe_reply = probe
        .request(probe_request.clone(), REPLY_TIMEOUT)?
        .map(|(reply, _)| reply);
    drop(probe);
    let peak_rss = proc::peak_rss_mib(Some(daemon.pid())).unwrap_or(0.0);
    let (report, drain_ms) = drain(daemon, &mut admin, &mut out)?;
    let reported_ops = report.as_ref().and_then(|r| r.get_u64("total_ops"));
    out.check(reported_ops == Some(folded.sent + 1), || {
        format!(
            "the final report counts {reported_ops:?} ops, {} were sent",
            folded.sent + 1
        )
    });

    // -- totals ---------------------------------------------------------
    let measured: Vec<(&Phase, &PhaseSamples, f64)> = plan
        .iter()
        .zip(&folded.phases)
        .enumerate()
        .filter(|(_, (p, _))| p.measured)
        .map(|(i, (p, s))| (p, s, s.rate(phase_start(&plan, start, i))))
        .collect();
    for (_, s, _) in &measured {
        out.attempted += s.attempted;
        out.failed += s.failed;
    }
    let (failed, attempted) = (out.failed, out.attempted);
    out.check(failed == 0, || {
        format!("{failed} of {attempted} ops did not complete ok")
    });
    let ack_ms = std::mem::take(&mut folded.ack_ms);

    if !trace {
        let (_, s, rate) = measured[0];
        let rtt = sorted(s.latency_ms.clone());
        out.check(!rtt.is_empty(), || "no op completed".into());
        if let Some(tail) = highest_tail(&rtt) {
            println!(
                "{workload}: latency over n = {} ops: p50 {:.3} ms, 1 in {} beyond {:.3} ms, max {:.3} ms",
                tail.n,
                median(&rtt),
                tail.one_in,
                tail.value,
                rtt[rtt.len() - 1]
            );
        }
        out.metrics = vec![
            ("setup_s", median(&setups)),
            ("ops_per_s", rate),
            ("peak_rss_mb", peak_rss),
            ("latency_p50_ms", median(&rtt)),
        ];
        out.detail = vec![
            (
                "failed_share",
                out.failed as f64 / out.attempted.max(1) as f64,
            ),
            ("overhead_p50_ms", median(&overheads(s))),
        ];
        if open {
            out.detail.push(("swap_ack_p50_ms", median(&ack_ms)));
        } else {
            out.detail
                .push(("rtt_p99_ms", tail_if_supported(&rtt, P99)));
        }
        return Ok(out);
    }

    // -- traced pass: untraced slices, traced slices, the layers --------
    let side = |traced: bool| {
        let mut all = PhaseSamples::default();
        let mut rates = Vec::new();
        for (_, s, rate) in measured.iter().filter(|(p, _, _)| p.traced == traced) {
            rates.push(*rate);
            all.merge((*s).clone());
        }
        (all, median(&rates))
    };
    let (plain, plain_rate) = side(false);
    let (traced, traced_rate) = side(true);
    let (plain, traced) = (&plain, &traced);
    layers.set(
        "trace_overhead_pct",
        100.0 * (1.0 - traced_rate / plain_rate),
    );
    let rtt = sorted(plain.latency_ms.clone());
    let rtt_p50 = median(&rtt);
    layers.set("wire.rtt_p50_ms", rtt_p50);
    layers.set("wire.rtt_p99_9_ms", tail_if_supported(&rtt, P99_9));
    layers.set("wire.overhead_p50_ms", median(&overheads(plain)));
    if open {
        layers.set("wire.open.rtt_p99_ms", tail_if_supported(&rtt, P99));
        layers.set(
            "wire.open.generator_late_p99_ms",
            tail_if_supported(&sorted(plain.late_ms.clone()), P99),
        );
        layers.set("wire.open.max_outstanding", plain.max_outstanding as f64);
    } else {
        layers.set("wire.rtt_p99_ms", tail_if_supported(&rtt, P99));
    }

    // harness spans: self time of each client-side step, per traced op
    let own = folded.spans.self_secs_by_name();
    let traced_ops = traced.ok().max(1) as f64;
    for (span, metric) in [
        ("encode", "harness.encode_us_per_op"),
        ("write", "harness.write_us_per_op"),
        ("wait", "harness.wait_us_per_op"),
        ("decode", "harness.decode_us_per_op"),
    ] {
        layers.set(
            metric,
            own.get(span).copied().unwrap_or(0.0) * 1e6 / traced_ops,
        );
    }

    // daemon.server / daemon.engine: the outside view over the measured stretch
    let window_s = after.at.duration_since(before.at).as_secs_f64();
    let ops_in_window = (plain.ok() + traced.ok()).max(1) as f64;
    layers.set(
        "daemon.server.cpu_ms_per_s",
        (after.cpu_ns - before.cpu_ns) as f64 / 1e6 / window_s,
    );
    layers.set(
        "daemon.server.reactor_wakeups_per_op",
        (after.reactor_sleeps - before.reactor_sleeps) as f64 / ops_in_window,
    );
    layers.set(
        "daemon.engine.wakeups_per_op",
        (after.engine_sleeps - before.engine_sleeps) as f64 / ops_in_window,
    );
    layers.set("daemon.server.connect_hello_ms", median(&connect_ms));
    layers.set("daemon.server.status_rtt_ms", median(&status_ms));
    layers.set("daemon.server.drain_ms", drain_ms);
    layers.set(
        "daemon.wire.bytes_per_op",
        folded.bytes as f64 / folded.sent.max(1) as f64,
    );

    // daemon.json on the workload's real request and reply frames
    let frames: Vec<Json> = std::iter::once(probe_request).chain(probe_reply).collect();
    let texts: Vec<String> = frames.iter().map(Json::to_string).collect();
    let mut i = 0;
    layers.set(
        "daemon.json.parse_ns_per_frame",
        1e9 * per_call(200_000, || {
            i = (i + 1) % texts.len();
            std::hint::black_box(parse(&texts[i]).expect("own frames parse"));
        }),
    );
    layers.set(
        "daemon.json.encode_ns_per_frame",
        1e9 * per_call(200_000, || {
            i = (i + 1) % frames.len();
            std::hint::black_box(frames[i].to_string());
        }),
    );

    // mds.cluster counts and model outputs the daemon's report carries
    if let Some(r) = &report {
        layers.set(
            "model.ops_per_sim_s",
            r.get_num("mean_throughput").unwrap_or(0.0),
        );
        layers.set(
            "model.latency_p99_ms",
            r.get_num("latency_ms_p99").unwrap_or(0.0),
        );
        let total = |key: &str| {
            r.get_arr("mds_reports")
                .map(|ms| ms.iter().filter_map(|m| m.get_num(key)).sum::<f64>())
                .unwrap_or(0.0)
        };
        layers.set(
            "mds.cluster.forwards",
            r.get_num("total_forwards").unwrap_or(0.0),
        );
        layers.set(
            "mds.cluster.migrations",
            r.get_num("total_migrations").unwrap_or(0.0),
        );
        layers.set("mds.cluster.inodes_exported", total("inodes_exported"));
        layers.set(
            "mds.cluster.sessions_flushed",
            r.get_num("sessions_flushed").unwrap_or(0.0),
        );
        layers.set("mds.cluster.splits", total("splits"));
    }

    // mds.service: the same engine in this process, no socket
    let mut spans = folded.spans;
    let root = spans.open("layers", None, None);
    let (service, _) = spans.time("replay.mds.service", Some(root), || in_process(seed));
    let service = service?;
    layers.set("mds.service.inproc_rtt_p50_ms", service.rtt_p50_ms);
    layers.set("mds.service.sim_latency_p50_ms", service.sim_p50_ms);
    layers.set("mds.service.sim_lag_ms", service.lag_p50_ms);
    layers.set("daemon.wire.report_json_us", service.report_json_us);
    layers.set(
        "daemon.server.reactor_added_p50_ms",
        rtt_p50 - service.rtt_p50_ms,
    );

    // the shared replays at the daemon's shape: 4 MDSs, 16 sessions, 512 dirs
    let cfg = ClusterConfig::default();
    let paths: Vec<String> = (0..DIRS).map(path_of).collect();
    let (mut ns, _, ranked) = layers::namespace_setup(layers::ns_config(&cfg), |ns| {
        for p in &paths {
            ns.mkdir_p(p);
        }
    });
    let mut draws = OpDraw::new(seed, 0);
    let ops: Vec<(NodeId, OpKind)> = (0..200_000)
        .map(|_| {
            let d = draws.next();
            (ranked[d.dir], d.kind)
        })
        .collect();
    let migrations = layers.get("mds.cluster.migrations") as usize;
    layers::shared_replays(
        &mut layers,
        &mut spans,
        root,
        &mut ns,
        &ranked,
        &paths,
        &ops,
        // a default-flag daemon boots greedy-spill on 4 MDSs
        &policies::greedy_spill().expect("preset policy compiles"),
        DAEMON_MDS as usize,
        DAEMON_SESSIONS + DAEMON_MDS as usize,
        1_000_000,
        migrations,
    );

    // daemon.engine: the swap path
    if open {
        let acks = sorted(ack_ms);
        out.check(acks.len() == SWAPS, || {
            format!("{} of {SWAPS} swaps were acknowledged", acks.len())
        });
        if !acks.is_empty() {
            let p50 = median(&acks);
            layers.set("daemon.engine.swap_ack_p50_ms", p50);
            layers.set("daemon.engine.swap_ack_p80_ms", percentile(&acks, 0.8));
            layers.set(
                "daemon.engine.swap_wait_share",
                1.0 - layers.get("policy.prepare_us") / 1e3 / p50,
            );
        }
    }
    spans.close(root);
    if let Err(e) = spans.write_jsonl(spans_path) {
        out.problem(format!("writing {}: {e}", spans_path.display()));
    }
    out.metrics = layers.into_metrics();
    Ok(out)
}

/// What the in-process engine measured.
struct InProcess {
    rtt_p50_ms: f64,
    sim_p50_ms: f64,
    lag_p50_ms: f64,
    report_json_us: f64,
}

/// Drive the daemon's engine in this process — `Engine::start`,
/// `submit_op`, completions off the event channel — on the wall clock
/// with default flags and no socket: the round trip that remains when
/// the reactor and the codec are taken away.
fn in_process(seed: u64) -> io::Result<InProcess> {
    let cfg = DaemonConfig {
        seed,
        ..DaemonConfig::default()
    };
    let booted = Instant::now();
    let engine = Engine::start(&cfg).map_err(io::Error::other)?;
    let mut draws = OpDraw::new(seed, 0);
    let (mut rtt, mut sim, mut lag) = (Vec::new(), Vec::new(), Vec::new());
    let until = booted + Duration::from_secs(3);
    let mut n = 0u64;
    while Instant::now() < until {
        let draw = if (n as usize) < DIRS {
            crate::opmix::Draw {
                dir: n as usize,
                kind: OpKind::Create,
            }
        } else {
            draws.next()
        };
        n += 1;
        let sent = Instant::now();
        engine.handle.submit_op(0, path_of(draw.dir), draw.kind);
        let done = loop {
            match engine.handle.events.recv_timeout(REPLY_TIMEOUT) {
                Ok(ServiceEvent::Completions(batch)) if !batch.is_empty() => break batch[0],
                Ok(_) => continue,
                Err(e) => return Err(io::Error::other(format!("in-process engine: {e}"))),
            }
        };
        let now = Instant::now();
        if n as usize > DIRS {
            rtt.push(now.duration_since(sent).as_secs_f64() * 1e3);
            sim.push(done.latency_ms);
            lag.push(
                now.duration_since(booted).as_secs_f64() * 1e3 - done.at.as_micros() as f64 / 1e3,
            );
        }
    }
    engine.handle.shutdown();
    let report = engine
        .finish()
        .ok_or_else(|| io::Error::other("in-process engine delivered no report"))?;
    let report_json_us = 1e6
        * per_call(200, || {
            std::hint::black_box(report_json(&report).to_string());
        });
    Ok(InProcess {
        rtt_p50_ms: median(&rtt),
        sim_p50_ms: median(&sim),
        lag_p50_ms: median(&lag),
        report_json_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::fake::{serve, Faults};

    /// A daemon that loses one reply must not pass: the op counts as
    /// failed and the output check fails.
    #[test]
    fn a_dropped_reply_fails_the_run() {
        let (addr, server) = serve(
            1,
            Faults {
                drop_id: Some(20),
                ..Faults::default()
            },
        );
        let plan = [Phase {
            secs: 0.4,
            measured: true,
            traced: false,
        }];
        let start = Instant::now();
        let got = closed_loop(&addr, 7, 0, 1, &plan, start, Duration::from_millis(150))
            .expect("the generator runs");
        server.join().expect("the fake exits cleanly");
        let mut out = Outcome::default();
        let folded = fold(vec![got], None, start, &mut out);
        let s = &folded.phases[0];
        assert_eq!(s.failed, 1, "{:?}", out.problems);
        assert!(s.attempted > 20 && s.ok() == s.attempted - 1);
        assert!(
            s.failed as f64 / s.attempted as f64 > 0.0,
            "failed_share > 0"
        );
        assert!(!out.correct(), "the output check must fail");
        assert!(
            out.problems.iter().any(|p| p.contains("op 20")),
            "{:?}",
            out.problems
        );
    }
}
