//! The engine side of the daemon: boots the cluster behind a
//! [`LiveService`], remembers which policy it last handed the engine,
//! and runs the hot-swap pipeline (parse → validate → epoch → install).
//!
//! There is one thread. The engine is stepped in line by whoever started
//! it — the reactor, in `mantled` — which submits ops and installs,
//! runs what is due ([`Engine::run_due`]), takes what the engine said
//! ([`Engine::next_event`]: install results, trace batches, completions,
//! and at the very end its report), and sleeps no longer than
//! [`Engine::deadline`].

use std::cell::{RefCell, RefMut};
use std::io;
use std::time::{Duration, Instant};

use mantle_core::policies;
use mantle_mds::{
    Cluster, ClusterConfig, LiveService, LiveWorkload, MantleBalancer, RunReport, ServiceEvent,
};
use mantle_namespace::OpKind;
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

/// A running cluster engine: a served [`Cluster`], plus the name and
/// epoch of the current policy.
pub struct Engine {
    /// The served cluster, behind the harness pin at the bottom of this
    /// file.
    pub handle: ServiceHandle,
    /// The policy last handed to the engine, and how many swaps led to
    /// it (epoch 0 is the boot preset).
    policy_name: String,
    policy_epoch: u64,
}

impl Engine {
    /// Build the cluster and serve it. The engine runs as its caller
    /// steps it, until [`ServiceHandle::shutdown`] closes the live queues
    /// (or the safety-net duration elapses) and the clients drain; its
    /// last event is [`ServiceEvent::Finished`].
    ///
    /// The thread that starts an engine is the one that steps it, and
    /// its timed waits are the engine's deadlines: this tightens that
    /// thread's timer slack, so that a wait of a few hundred microseconds
    /// does not overshoot by the kernel's default 50. A refusal costs
    /// only that precision, so it is ignored.
    pub fn start(cfg: &DaemonConfig) -> Result<Engine, String> {
        let set = preset(&cfg.policy).ok_or_else(|| {
            format!(
                "unknown policy preset `{}` (try: {PRESET_NAMES:?})",
                cfg.policy
            )
        })?;
        let _ = crate::sys::tighten_timer_slack();
        let mut ccfg = ClusterConfig::default()
            .with_mds(cfg.mds)
            .with_seed(cfg.seed);
        ccfg.max_duration = SERVE_MAX_DURATION;
        // The preset is compiled once, then forked per MDS.
        let first = MantleBalancer::new_unvalidated(cfg.policy.clone(), set)
            .expect("preset policy was validated");
        let workload = Box::new(LiveWorkload::new(cfg.sessions));
        let cluster = Cluster::new(ccfg, workload, |_| Box::new(first.fork()));
        let svc = cluster.serve(cfg.clock, cfg.trace);
        Ok(Engine {
            handle: ServiceHandle {
                events: Events(RefCell::new(svc)),
            },
            policy_name: cfg.policy.clone(),
            policy_epoch: 0,
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
            .service()
            .install_policy(&src.name, self.policy_epoch, set);
        Ok(self.policy_epoch)
    }

    /// Run every event that is due ([`LiveService::run_due`]).
    pub fn run_due(&self) {
        self.handle.service().run_due();
    }

    /// How long until the engine has something to run; `None` while it
    /// waits for a command, and once it has ended
    /// ([`LiveService::deadline`]).
    pub fn deadline(&self) -> Option<Duration> {
        self.handle.service().deadline()
    }

    /// The oldest event the engine has produced and nobody has taken.
    pub fn next_event(&self) -> Option<ServiceEvent> {
        self.handle.service().next_event()
    }

    /// Shut the engine down, run it to its end and return its report,
    /// wherever among its events the caller stopped taking them. Returns
    /// `None` if the caller already took the [`ServiceEvent::Finished`]
    /// itself.
    pub fn finish(self) -> Option<RunReport> {
        self.handle.shutdown();
        loop {
            match self.handle.events.recv_until(None) {
                Ok(ServiceEvent::Finished(report)) => return Some(*report),
                Ok(_) => {}
                Err(_) => return None,
            }
        }
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

// -- Harness pin ----------------------------------------------------------
//
// The pinned benchmark harness (`benchmark/src/wirebench.rs::in_process`)
// drives an engine through a non-`mut` binding, as
// `engine.handle.submit_op`, `engine.handle.events.recv_timeout` and
// `engine.handle.shutdown`. `ServiceHandle` and `Events` exist for that
// path alone: they hold the one served cluster in a `RefCell` so that a
// shared borrow can step it. They leave with the harness un-pin (ROADMAP
// item 1), and `Engine` then owns its `LiveService` and has these
// methods itself.

/// The served cluster, reached through `&self` (see the harness pin).
pub struct ServiceHandle {
    /// The engine's events, taken one at a time.
    pub events: Events,
}

impl ServiceHandle {
    fn service(&self) -> RefMut<'_, LiveService> {
        self.events.0.borrow_mut()
    }

    /// Queue one op for `client`; see [`LiveService::submit_op`].
    pub fn submit_op(&self, client: usize, path: impl AsRef<str>, kind: OpKind) {
        self.service().submit_op(client, path.as_ref(), kind);
    }

    /// Close the live queues; see [`LiveService::shutdown`].
    pub fn shutdown(&self) {
        self.service().shutdown();
    }
}

/// The engine's events (see the harness pin).
pub struct Events(RefCell<LiveService>);

impl Events {
    /// The engine's next event: run what is due and, while there is
    /// none, sleep until the next deadline, for at most `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> io::Result<ServiceEvent> {
        self.recv_until(Some(Instant::now() + timeout))
    }

    /// [`Events::recv_timeout`] up to `until`, or without a limit. An
    /// engine that waits for a command, or has ended, will say nothing
    /// more, which is an error at once.
    fn recv_until(&self, until: Option<Instant>) -> io::Result<ServiceEvent> {
        loop {
            let mut svc = self.0.borrow_mut();
            svc.run_due();
            if let Some(event) = svc.next_event() {
                return Ok(event);
            }
            let Some(due) = svc.deadline() else {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "the engine waits for a command or has ended",
                ));
            };
            drop(svc);
            let left = until.map(|t| t.saturating_duration_since(Instant::now()));
            if left == Some(Duration::ZERO) {
                return Err(io::ErrorKind::TimedOut.into());
            }
            crate::sys::poll(&mut [], Some(left.map_or(due, |left| due.min(left))))?;
        }
    }
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
