//! The engine side of the daemon: boots the cluster on its own thread
//! behind a [`LiveService`], owns the published-policy slot, and runs
//! the hot-swap pipeline (parse → validate → epoch → install).

use std::sync::mpsc::{channel, Receiver};
use std::thread::JoinHandle;

use mantle_core::policies;
use mantle_core::service::LIVE_POLL;
use mantle_mds::service::LiveService;
use mantle_mds::{Cluster, ClusterConfig, MantleBalancer, RunReport, ServiceHandle};
use mantle_policy::env::PolicySet;
use mantle_policy::install::{prepare, DecisionSource, PolicyCell, PolicySource};
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
/// [`Cluster::serve`], plus the epoch-tagged policy slot.
pub struct Engine {
    /// Live command/event handle into the engine thread.
    pub handle: ServiceHandle,
    /// The currently-published policy (epoch 0 is the boot preset).
    pub cell: PolicyCell,
    report_rx: Receiver<RunReport>,
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
        let (mut svc, handle) = LiveService::new(cfg.clock);
        let workload = svc.workload(cfg.sessions, LIVE_POLL);
        let name = cfg.policy.clone();
        let cell = PolicyCell::new(&name, set.clone());
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
            cell,
            report_rx,
            thread: Some(thread),
        })
    }

    /// Run the full hot-swap pipeline for a policy submitted over the
    /// admin socket: compile + validate (`prepare`), publish to the cell
    /// (assigning the next epoch), and hand the set to the engine, which
    /// installs it on every MDS in the coordinator's next exclusive
    /// step. Returns the assigned epoch and the engine's ack channel; a
    /// rejected policy returns `Err` and publishes nothing.
    pub fn swap(
        &self,
        src: &PolicySource,
    ) -> Result<(u64, Receiver<Result<SimTime, String>>), String> {
        let set = prepare(src).map_err(|e| e.to_string())?;
        let epoch = self.cell.install(&src.name, set.clone());
        let ack = self.handle.install_policy(&src.name, epoch, set);
        Ok((epoch, ack))
    }

    /// Whether the engine thread has already delivered its report (i.e.
    /// the run ended), without consuming it.
    pub fn finished(&self) -> bool {
        self.thread.as_ref().is_none_or(|t| t.is_finished())
    }

    /// Join the engine thread and return its final report. Call after
    /// [`ServiceHandle::shutdown`]; returns `None` only if the engine
    /// thread panicked.
    pub fn finish(mut self) -> Option<RunReport> {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.report_rx.try_recv().ok()
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
        let engine = Engine::start(&cfg).expect("engine boots");
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
        assert_eq!(engine.cell.current().name, "swapped");
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
        let engine = Engine::start(&cfg).expect("engine boots");
        let bad = PolicySource {
            name: "bad".into(),
            metaload: "IWR +".into(),
            mdsload: "MDSs[i][\"all\"]".into(),
            decision: DecisionSource::Combined("targets[1] = 0".into()),
            selectors: vec!["half".into()],
            howmany: None,
        };
        assert!(engine.swap(&bad).is_err());
        assert_eq!(engine.cell.epoch(), 0, "rejected policy must not publish");
        engine.handle.shutdown();
        engine.finish();
    }
}
