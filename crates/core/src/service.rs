//! The daemon's scenario harness: named, fixed experiments that
//! `mantled` can run on demand, plus the service-path runner that drives
//! them through [`Cluster::serve`](mantle_mds::Cluster::serve) instead of
//! the batch entry point.
//!
//! Two callers share this module:
//!
//! * `mantled --scenario <name>` and the `scenario` admin verb both call
//!   [`self_check`], which looks the name up with [`scenario`] and runs it
//!   via [`run_service`], so a daemon deployment can sanity-check its
//!   engine against known workloads without any live clients;
//! * `tests/daemon_equivalence.rs` runs the same [`Experiment`] through
//!   both [`run_service`] and [`crate::run_experiment`] and asserts the
//!   [`RunReport`]s are byte-identical — the service must observe
//!   without perturbing.
//!
//! Neither caller attaches a live workload, so on the simulated clock
//! the service is never idle here: a scenario has no sessions to park,
//! and one [`LiveService::run_due`](mantle_mds::LiveService::run_due)
//! runs it to its end at batch speed. Live sessions — parked until an op
//! arrives, woken by the service — are `mantled`'s serve mode; see
//! [`mantle_mds::service`].

use mantle_mds::service::ServiceEvent;
use mantle_mds::{RunReport, TraceLevel, TraceRecord};
use mantle_sim::ClockMode;

use crate::experiment::{build_cluster, BalancerSpec, Experiment, WorkloadSpec};
use crate::policies;

/// Names accepted by [`scenario`], in presentation order.
pub const SCENARIO_NAMES: &[&str] = &[
    "greedyspill-shared",
    "adaptable-compile",
    "cephfs-separate",
    "static-spread",
];

/// Look up a named scenario: a small, fixed-seed experiment suitable for
/// a daemon self-check. Returns `None` for unknown names (the daemon
/// reports the valid set from [`SCENARIO_NAMES`]).
pub fn scenario(name: &str) -> Option<Experiment> {
    let spec = match name {
        // The paper's headline case: clients hammering one shared
        // directory, Greedy Spill shedding halves down the chain.
        "greedyspill-shared" => Experiment::new(
            mantle_mds::ClusterConfig::default()
                .with_mds(4)
                .with_seed(42),
            WorkloadSpec::CreateShared {
                clients: 12,
                files: 220,
            },
            BalancerSpec::mantle(
                "greedy-spill",
                policies::greedy_spill().expect("preset policy compiles"),
            ),
        ),
        // The phased compile job under the adaptable policy.
        "adaptable-compile" => Experiment::new(
            mantle_mds::ClusterConfig::default()
                .with_mds(3)
                .with_seed(42),
            WorkloadSpec::Compile {
                clients: 8,
                scale: 0.35,
            },
            BalancerSpec::mantle(
                "adaptable",
                policies::adaptable().expect("preset policy compiles"),
            ),
        ),
        // The built-in CephFS balancer over per-client directories.
        "cephfs-separate" => Experiment::new(
            mantle_mds::ClusterConfig::default()
                .with_mds(3)
                .with_seed(42),
            WorkloadSpec::CreateSeparate {
                clients: 9,
                files: 260,
            },
            BalancerSpec::Cephfs,
        ),
        // No balancer, clients pre-spread by a static partition.
        "static-spread" => {
            let mut e = Experiment::new(
                mantle_mds::ClusterConfig::default()
                    .with_mds(4)
                    .with_seed(42),
                WorkloadSpec::CreateSeparate {
                    clients: 8,
                    files: 200,
                },
                BalancerSpec::None,
            );
            for c in 0..8usize {
                e = e.assign(&format!("/client{c}"), c % 4);
            }
            e
        }
        _ => return None,
    };
    Some(spec)
}

/// Run the named scenario through the service path, as `mantled
/// --scenario` and the `scenario` admin verb do. An unknown name is an
/// `Err` listing the valid ones (`try one of [...]`).
pub fn self_check(name: &str) -> Result<RunReport, String> {
    let spec = scenario(name).ok_or_else(|| format!("try one of {SCENARIO_NAMES:?}"))?;
    Ok(run_service(&spec, None).0)
}

/// Run an experiment through the **service** engine path: the cluster is
/// served ([`mantle_mds::Cluster::serve`]) on the simulated clock and
/// stepped to its `Finished` event with no command, exactly as a `mantled`
/// scenario run is. Returns the report plus every trace record the service
/// handed out (empty when `trace` is `None`).
///
/// With no commands and [`ClockMode::Sim`], the service never perturbs
/// the scheduler, so the report is byte-identical to
/// [`crate::run_experiment`] on the same spec — pinned by
/// `tests/daemon_equivalence.rs`.
pub fn run_service(spec: &Experiment, trace: Option<TraceLevel>) -> (RunReport, Vec<TraceRecord>) {
    let mut svc = build_cluster(spec).serve(ClockMode::Sim, trace);
    svc.run_due();
    let mut records = Vec::new();
    while let Some(ev) = svc.next_event() {
        match ev {
            ServiceEvent::Trace(batch) => records.extend(batch),
            ServiceEvent::Finished(report) => return (*report, records),
            _ => {}
        }
    }
    unreachable!("with no live sessions, the simulated clock runs the cluster to its end")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_name_resolves_and_runs() {
        for name in SCENARIO_NAMES {
            let spec = scenario(name).expect("listed scenario resolves");
            let (report, records) = run_service(&spec, Some(TraceLevel::Decisions));
            assert!(report.total_ops() > 0.0, "{name} did no work");
            assert!(
                records
                    .iter()
                    .any(|r| matches!(r.event, mantle_mds::TraceEvent::RunEnd { .. })),
                "{name} stream lost its trailer"
            );
        }
        assert!(scenario("no-such-scenario").is_none());
    }

    #[test]
    fn service_path_matches_batch_path() {
        let spec = scenario("greedyspill-shared").unwrap();
        let batch = crate::run_experiment(&spec);
        let (service, _) = run_service(&spec, None);
        assert_eq!(format!("{batch:?}"), format!("{service:?}"));
    }
}
