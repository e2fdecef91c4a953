//! The engine side of the daemon: boots the cluster on its own thread
//! behind a [`LiveService`], remembers which policy it last handed that
//! thread, and runs the hot-swap pipeline (parse → validate → epoch →
//! install).
//!
//! Everything the engine thread says — install results, trace batches,
//! completions, and at the very end its report — arrives on one ordered
//! stream, [`ServiceHandle::events`]. The engine thread never touches a
//! socket and the reactor never blocks on a channel, so the one other
//! thing that crosses between them is a *wake stream*: one byte written
//! to a nonblocking `UnixStream` behind each batch of events, and once
//! more after the stream has closed, which the reactor's `poll` set
//! includes ([`Engine::wake_stream`]).

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::thread::JoinHandle;

use mantle_core::policies;
use mantle_mds::service::LiveService;
use mantle_mds::{Cluster, ClusterConfig, MantleBalancer, RunReport, ServiceEvent, ServiceHandle};
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
    thread: Option<JoinHandle<()>>,
}

impl Engine {
    /// Boot the cluster on a dedicated thread. The engine runs until
    /// [`ServiceHandle::shutdown`] closes the live queues (or the
    /// safety-net duration elapses), then ends its event stream with
    /// [`ServiceEvent::Finished`].
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
        let (mut svc, handle) = LiveService::new(cfg.clock);
        let workload = svc.workload(cfg.sessions);
        // A full stream already holds a wake nobody has read yet, so a
        // failed write loses nothing.
        svc.notify_with(move || {
            let _ = (&wake_tx).write(&[1]);
        });
        let name = cfg.policy.clone();
        let mut ccfg = ClusterConfig::default()
            .with_mds(cfg.mds)
            .with_seed(cfg.seed);
        ccfg.max_duration = SERVE_MAX_DURATION;
        let trace = cfg.trace;
        // A compiled policy is not `Send`, so the preset is compiled — once,
        // then forked per MDS — and the whole cluster built inside the
        // engine thread; only `Send` inputs cross.
        let thread = std::thread::Builder::new()
            .name("mantled-engine".into())
            .spawn(move || {
                let first = MantleBalancer::new_unvalidated(name, set)
                    .expect("preset policy was validated");
                let cluster = Cluster::new(ccfg, workload, |_| Box::new(first.fork()));
                cluster.serve(svc, trace);
            })
            .map_err(|e| format!("spawning engine thread: {e}"))?;
        Ok(Engine {
            handle,
            policy_name: cfg.policy.clone(),
            policy_epoch: 0,
            wake_rx,
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
    /// MDS in the coordinator's next global step and answers with a
    /// [`ServiceEvent::Swapped`] carrying the epoch returned here. A
    /// rejected policy returns `Err` and leaves name and epoch as they
    /// were.
    pub fn swap(&mut self, src: &PolicySource) -> Result<u64, String> {
        let set = prepare(src).map_err(|e| e.to_string())?;
        self.policy_epoch += 1;
        self.policy_name.clone_from(&src.name);
        self.handle
            .install_policy(&src.name, self.policy_epoch, set);
        Ok(self.policy_epoch)
    }

    /// The read end of the wake stream, for a `poll` set: readable
    /// whenever the engine sent an event — or closed the stream — since
    /// the last [`Engine::drain_wakes`].
    pub fn wake_stream(&self) -> &UnixStream {
        &self.wake_rx
    }

    /// Empty the wake stream. Call *before* reading the event stream: a
    /// wake written after this returns stays in the stream, so the event
    /// behind it is either read now or announced at the next `poll`.
    pub fn drain_wakes(&mut self) {
        let mut sink = [0u8; 64];
        while matches!(self.wake_rx.read(&mut sink), Ok(n) if n > 0) {}
    }

    /// Join the engine thread and return its final report, wherever on
    /// the event stream the caller stopped reading. Call after
    /// [`ServiceHandle::shutdown`]; returns `None` if the caller already
    /// took the [`ServiceEvent::Finished`] off the stream itself, or if
    /// the engine thread panicked.
    pub fn finish(mut self) -> Option<RunReport> {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.handle.events.try_iter().find_map(|ev| match ev {
            ServiceEvent::Finished(report) => Some(*report),
            _ => None,
        })
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
        let epoch = engine.swap(&src).expect("valid policy swaps");
        assert_eq!(epoch, 1);
        let at = loop {
            match engine
                .handle
                .events
                .recv_timeout(std::time::Duration::from_secs(30))
                .expect("engine acks")
            {
                ServiceEvent::Swapped { epoch: 1, result } => break result,
                ServiceEvent::Finished(_) => panic!("stream ended before the ack"),
                _ => {}
            }
        }
        .expect("install succeeds");
        assert!(at >= SimTime::ZERO);
        assert_eq!(engine.policy(), ("swapped", 1));
        engine.handle.shutdown();
        let report = engine.finish().expect("engine delivers a report");
        assert_eq!(report.balancer, "swapped", "report names the live policy");
        assert!(report.total_ops() >= 1.0);
    }

    #[test]
    fn finish_returns_the_report_to_a_caller_that_never_read_the_stream() {
        let cfg = DaemonConfig {
            clock: mantle_sim::ClockMode::Sim,
            sessions: 2,
            mds: 2,
            trace: Some(mantle_mds::TraceLevel::Decisions),
            ..DaemonConfig::default()
        };
        let engine = Engine::start(&cfg).expect("engine boots");
        for path in ["/live/a", "/live/b", "/live/a"] {
            engine
                .handle
                .submit_op(0, path, mantle_namespace::OpKind::Create);
        }
        engine.handle.shutdown();
        // Trace batches and completions are all still queued ahead of it.
        let report = engine.finish().expect("the report is on the stream");
        assert_eq!(report.total_ops(), 3.0);
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
