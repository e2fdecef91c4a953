//! The engine side of the daemon: boots the cluster on its own thread
//! behind a [`LiveService`], remembers which policy it last handed that
//! thread, and runs the hot-swap pipeline (parse → validate → epoch →
//! install).
//!
//! The engine thread never touches a socket and the reactor never blocks
//! on a channel, so the one thing that crosses between them besides the
//! channels is a *wake stream*: one byte written to a nonblocking
//! `UnixStream` after every message the engine makes available (an event
//! batch, a swap ack, the final report), which the reactor's `poll` set
//! includes ([`Engine::wake_stream`]).

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::mpsc::{channel, Receiver, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;

use mantle_core::policies;
use mantle_mds::service::LiveService;
use mantle_mds::{Cluster, ClusterConfig, MantleBalancer, RunReport, ServiceHandle};
use mantle_policy::env::PolicySet;
use mantle_policy::install::{prepare, DecisionSource, PolicySource};
use mantle_sim::SimTime;

use crate::config::DaemonConfig;
use crate::json::Json;

/// Balancer presets accepted by `--policy` and reported by `status`.
pub const PRESET_NAMES: &[&str] = &[
    "greedy-spill",
    "greedy-spill-even",
    "fill-and-spill",
    "adaptable",
    "adaptable-conservative",
    "cephfs-original",
];

/// Resolve a preset name to its compiled policy.
pub fn preset(name: &str) -> Option<PolicySet> {
    let set = match name {
        "greedy-spill" => policies::greedy_spill(),
        "greedy-spill-even" => policies::greedy_spill_even(),
        "fill-and-spill" => policies::fill_and_spill(0.10),
        "adaptable" => policies::adaptable(),
        "adaptable-conservative" => policies::adaptable_conservative(),
        "cephfs-original" => policies::cephfs_original(),
        _ => return None,
    };
    Some(set.expect("preset policies compile"))
}

/// Hard stop for live service: generous enough for any realistic daemon
/// session, small enough that a wedged engine cannot spin forever. The
/// batch default (60 simulated minutes) would cap a wall-paced daemon at
/// one real hour, so serve mode raises it.
const SERVE_MAX_DURATION: SimTime = SimTime::from_mins(24 * 60);

/// The write end of the wake stream. A full stream already holds a wake
/// nobody has read yet, so a failed write loses nothing.
struct Waker(UnixStream);

impl Waker {
    fn wake(&self) {
        let _ = (&self.0).write(&[1]);
    }
}

impl Drop for Waker {
    /// The engine thread's last act, on a normal exit and on a panic
    /// alike: by now its report is sent (or its sender dropped), so the
    /// reactor woken here finds [`Engine::finished`] true.
    fn drop(&mut self) {
        self.wake();
    }
}

/// A running cluster engine: the daemon-facing half of
/// [`Cluster::serve`], plus the name and epoch of the current policy.
pub struct Engine {
    /// Live command/event handle into the engine thread.
    pub handle: ServiceHandle,
    /// The policy last handed to the engine thread, and how many swaps
    /// led to it (epoch 0 is the boot preset).
    policy_name: String,
    policy_epoch: u64,
    wake_rx: UnixStream,
    report_rx: Receiver<RunReport>,
    /// The report, once received: `finished` holds it for `finish`.
    report: Option<RunReport>,
    thread: Option<JoinHandle<()>>,
}

impl Engine {
    /// Boot the cluster on a dedicated thread. The engine runs until
    /// [`ServiceHandle::shutdown`] closes the live queues (or the
    /// safety-net duration elapses), then delivers its final
    /// [`RunReport`] to [`Engine::finish`].
    pub fn start(cfg: &DaemonConfig) -> Result<Engine, String> {
        let set = preset(&cfg.policy).ok_or_else(|| {
            format!(
                "unknown policy preset `{}` (try: {PRESET_NAMES:?})",
                cfg.policy
            )
        })?;
        let (wake_rx, wake_tx) = UnixStream::pair()
            .and_then(|(rx, tx)| {
                rx.set_nonblocking(true)?;
                tx.set_nonblocking(true)?;
                Ok((rx, tx))
            })
            .map_err(|e| format!("creating the wake stream: {e}"))?;
        let waker = Arc::new(Waker(wake_tx));
        let (mut svc, handle) = LiveService::new(cfg.clock);
        let workload = svc.workload(cfg.sessions);
        svc.notify_with({
            let waker = Arc::clone(&waker);
            move || waker.wake()
        });
        let name = cfg.policy.clone();
        let mut ccfg = ClusterConfig::default()
            .with_mds(cfg.mds)
            .with_seed(cfg.seed);
        ccfg.max_duration = SERVE_MAX_DURATION;
        let trace = cfg.trace;
        let (tx, report_rx) = channel();
        // Balancers hold non-`Send` interpreter state, so the whole
        // cluster is built inside its thread; only `Send` inputs cross.
        let thread = std::thread::Builder::new()
            .name("mantled-engine".into())
            .spawn(move || {
                // Declared before `tx` so it drops after it: the last
                // wake follows the report (or, on a panic, the hang-up).
                let _last_wake = waker;
                let tx = tx;
                let cluster = Cluster::new(ccfg, workload, |_| {
                    Box::new(
                        MantleBalancer::new_unvalidated(name.clone(), set.clone())
                            .expect("preset policy was validated"),
                    )
                });
                let (report, _timeline) = cluster.serve(svc, trace);
                let _ = tx.send(report);
            })
            .map_err(|e| format!("spawning engine thread: {e}"))?;
        Ok(Engine {
            handle,
            policy_name: cfg.policy.clone(),
            policy_epoch: 0,
            wake_rx,
            report_rx,
            report: None,
            thread: Some(thread),
        })
    }

    /// Name and epoch of the current policy: the boot preset at epoch 0,
    /// then whatever the last accepted [`Engine::swap`] submitted.
    pub fn policy(&self) -> (&str, u64) {
        (&self.policy_name, self.policy_epoch)
    }

    /// Run the full hot-swap pipeline for a policy submitted over the
    /// admin socket: compile + validate (`prepare`), assign the next
    /// epoch, and hand the set to the engine, which installs it on every
    /// MDS in the coordinator's next exclusive step. Returns the assigned
    /// epoch and the engine's ack channel; a rejected policy returns
    /// `Err` and leaves name and epoch as they were.
    pub fn swap(
        &mut self,
        src: &PolicySource,
    ) -> Result<(u64, Receiver<Result<SimTime, String>>), String> {
        let set = prepare(src).map_err(|e| e.to_string())?;
        self.policy_epoch += 1;
        self.policy_name.clone_from(&src.name);
        let ack = self
            .handle
            .install_policy(&src.name, self.policy_epoch, set);
        Ok((self.policy_epoch, ack))
    }

    /// The read end of the wake stream, for a `poll` set: readable
    /// whenever the engine made something available since the last
    /// [`Engine::drain_wakes`].
    pub fn wake_stream(&self) -> &UnixStream {
        &self.wake_rx
    }

    /// Empty the wake stream. Call *before* reading the channels: a wake
    /// written after this returns stays in the stream, so the message
    /// behind it is either read now or announced at the next `poll`.
    pub fn drain_wakes(&mut self) {
        let mut sink = [0u8; 64];
        while matches!(self.wake_rx.read(&mut sink), Ok(n) if n > 0) {}
    }

    /// Whether the run has ended: the engine thread delivered its report
    /// (held here for [`Engine::finish`]) or died without one. True as
    /// soon as the thread's last wake can be observed — the report is
    /// sent before that wake, whereas the thread itself is still
    /// unwinding when the wake arrives.
    pub fn finished(&mut self) -> bool {
        match self.report_rx.try_recv() {
            Ok(report) => {
                self.report = Some(report);
                true
            }
            Err(TryRecvError::Empty) => self.report.is_some(),
            Err(TryRecvError::Disconnected) => true,
        }
    }

    /// Join the engine thread and return its final report. Call after
    /// [`ServiceHandle::shutdown`]; returns `None` only if the engine
    /// thread panicked.
    pub fn finish(mut self) -> Option<RunReport> {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.report
            .take()
            .or_else(|| self.report_rx.try_recv().ok())
    }
}

/// Parse the `policy` object of a `policy-swap` admin request into a
/// [`PolicySource`]. Schema (see `PROTOCOL.md`): `name`, `metaload`,
/// `mdsload` strings; either `decision` or both `when` and `where`;
/// optional `howmuch` string array (default `["half"]`) and `howmany`
/// string.
pub fn policy_source_from_json(v: &Json) -> Result<PolicySource, String> {
    let field = |key: &str| {
        v.get_str(key)
            .map(str::to_string)
            .ok_or_else(|| format!("policy object is missing string field `{key}`"))
    };
    let decision = match v.get_str("decision") {
        Some(body) => {
            if v.get("when").is_some() || v.get("where").is_some() {
                return Err("give either `decision` or `when`+`where`, not both".into());
            }
            DecisionSource::Combined(body.to_string())
        }
        None => DecisionSource::Hooks {
            when: field("when")?,
            where_: field("where")?,
        },
    };
    let selectors = match v.get("howmuch") {
        None => vec!["half".to_string()],
        Some(Json::Arr(items)) => {
            let mut sels = Vec::new();
            for item in items {
                match item {
                    Json::Str(s) => sels.push(s.clone()),
                    _ => return Err("`howmuch` must be an array of strings".into()),
                }
            }
            if sels.is_empty() {
                return Err("`howmuch` must not be empty".into());
            }
            sels
        }
        Some(_) => return Err("`howmuch` must be an array of strings".into()),
    };
    let howmany = match v.get("howmany") {
        None | Some(Json::Null) => None,
        Some(Json::Str(s)) => Some(s.clone()),
        Some(_) => return Err("`howmany` must be a string".into()),
    };
    Ok(PolicySource {
        name: field("name")?,
        metaload: field("metaload")?,
        mdsload: field("mdsload")?,
        decision,
        selectors,
        howmany,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn presets_resolve() {
        for name in PRESET_NAMES {
            assert!(preset(name).is_some(), "{name} missing");
        }
        assert!(preset("nope").is_none());
    }

    #[test]
    fn policy_json_parses_both_decision_forms() {
        let hooks = parse(
            r#"{"name":"g","metaload":"IWR","mdsload":"MDSs[i][\"all\"]",
                "when":"result = true","where":"targets[1] = 1",
                "howmuch":["half"],"howmany":"result = #MDSs"}"#,
        )
        .unwrap();
        let src = policy_source_from_json(&hooks).unwrap();
        assert!(matches!(src.decision, DecisionSource::Hooks { .. }));
        assert_eq!(src.howmany.as_deref(), Some("result = #MDSs"));

        let combined = parse(
            r#"{"name":"g","metaload":"IWR","mdsload":"MDSs[i][\"all\"]",
                "decision":"targets[1] = 0"}"#,
        )
        .unwrap();
        let src = policy_source_from_json(&combined).unwrap();
        assert!(matches!(src.decision, DecisionSource::Combined(_)));
        assert_eq!(src.selectors, vec!["half".to_string()]);
    }

    #[test]
    fn policy_json_rejects_bad_shapes() {
        for bad in [
            r#"{"metaload":"IWR","mdsload":"x","decision":"y"}"#,
            r#"{"name":"g","metaload":"IWR","mdsload":"x"}"#,
            r#"{"name":"g","metaload":"IWR","mdsload":"x","decision":"y","when":"z","where":"w"}"#,
            r#"{"name":"g","metaload":"IWR","mdsload":"x","decision":"y","howmuch":[]}"#,
            r#"{"name":"g","metaload":"IWR","mdsload":"x","decision":"y","howmuch":"half"}"#,
            r#"{"name":"g","metaload":"IWR","mdsload":"x","decision":"y","howmany":3}"#,
        ] {
            let v = parse(bad).unwrap();
            assert!(policy_source_from_json(&v).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn engine_boots_swaps_and_drains() {
        let cfg = DaemonConfig {
            clock: mantle_sim::ClockMode::Sim,
            sessions: 2,
            mds: 3,
            ..DaemonConfig::default()
        };
        let mut engine = Engine::start(&cfg).expect("engine boots");
        engine
            .handle
            .submit_op(0, "/live/a", mantle_namespace::OpKind::Create);
        let src = PolicySource {
            name: "swapped".into(),
            metaload: "IWR + IRD".into(),
            mdsload: "MDSs[i][\"all\"]".into(),
            decision: DecisionSource::Hooks {
                when: "result = MDSs[whoami][\"load\"] > total/#MDSs".into(),
                where_: "targets[1] = MDSs[whoami][\"load\"] - total/#MDSs".into(),
            },
            selectors: vec!["half".into()],
            howmany: None,
        };
        let (epoch, ack) = engine.swap(&src).expect("valid policy swaps");
        assert_eq!(epoch, 1);
        let at = ack
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("engine acks")
            .expect("install succeeds");
        assert!(at >= SimTime::ZERO);
        assert_eq!(engine.policy(), ("swapped", 1));
        engine.handle.shutdown();
        let report = engine.finish().expect("engine delivers a report");
        assert_eq!(report.balancer, "swapped", "report names the live policy");
        assert!(report.total_ops() >= 1.0);
    }

    #[test]
    fn swap_rejects_invalid_policy_without_publishing() {
        let cfg = DaemonConfig {
            clock: mantle_sim::ClockMode::Sim,
            sessions: 1,
            mds: 2,
            ..DaemonConfig::default()
        };
        let mut engine = Engine::start(&cfg).expect("engine boots");
        let bad = PolicySource {
            name: "bad".into(),
            metaload: "IWR +".into(),
            mdsload: "MDSs[i][\"all\"]".into(),
            decision: DecisionSource::Combined("targets[1] = 0".into()),
            selectors: vec!["half".into()],
            howmany: None,
        };
        assert!(engine.swap(&bad).is_err());
        assert_eq!(
            engine.policy(),
            ("greedy-spill", 0),
            "rejected policy must not publish"
        );
        engine.handle.shutdown();
        engine.finish();
    }
}
