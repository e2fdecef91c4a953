//! Degraded-cluster scenarios: the fault-injection counterpart to
//! [`crate::repro`].
//!
//! Each scenario runs the same base experiment — several clients creating
//! files in their own directories on a 3-MDS cluster under a Mantle
//! greedy-spill policy — with a different [`FaultPlan`]:
//!
//! * **healthy** — no faults; the baseline every other row is judged
//!   against (and a live check that an inert plan changes nothing);
//! * **crash+restart** — one MDS dies mid-run and comes back later; its
//!   subtrees fail over to MDS 0, in-flight requests time out at the
//!   clients and retry with exponential backoff;
//! * **slow-mds** — one MDS serves 4× slower over a window (a sick disk);
//! * **stale-heartbeats** — one MDS's heartbeats are dropped and
//!   another's delayed, so balancers decide on stale snapshots (§2.2.2
//!   taken to the limit);
//! * **poisoned-balancer** — one MDS's policy hooks start erroring
//!   mid-run until the §3.4 fallback swaps in the built-in CephFS
//!   balancer.
//!
//! Every scenario must complete the full workload: degradation shows up
//! in the makespan and the `timeouts`/`retries`/`failovers`/
//! `balancer_fallbacks` counters, never as lost ops.

use crate::experiment::{run_experiment, BalancerSpec, Experiment, WorkloadSpec};
use crate::policies;
use crate::repro::ReproOpts;
use crate::table::TextTable;
use mantle_mds::{ClusterConfig, FaultPlan, RunReport};
use mantle_sim::SimTime;

/// Balancer cadence for the degraded runs. Quicker than the repro
/// figures' cadence so every fault window spans several ticks even in
/// quick mode.
fn heartbeat(opts: ReproOpts) -> SimTime {
    if opts.quick {
        SimTime::from_millis(400)
    } else {
        SimTime::from_secs(2)
    }
}

/// `k` heartbeat intervals, as a point in virtual time.
fn ticks(hb: SimTime, k: f64) -> SimTime {
    SimTime::from_micros_f64(hb.as_micros() as f64 * k)
}

/// Reaction knobs scaled to the cadence: the client timeout spans a
/// couple of balancer ticks, the base backoff a fraction of one.
fn reactions(hb: SimTime) -> FaultPlan {
    FaultPlan {
        request_timeout: ticks(hb, 2.0),
        retry_backoff: ticks(hb, 0.25),
        ..FaultPlan::default()
    }
}

/// The base experiment every scenario perturbs. Public so the invariant
/// suite can trace the exact setup with other balancers swapped in.
pub fn base_experiment(opts: ReproOpts, seed: u64) -> Experiment {
    let config = ClusterConfig {
        num_mds: 3,
        seed,
        heartbeat_interval: heartbeat(opts),
        frag_split_threshold: 300,
        ..Default::default()
    };
    Experiment::new(
        config,
        WorkloadSpec::CreateSeparate {
            clients: 4,
            files: opts.n(16_000),
        },
        BalancerSpec::mantle(
            "greedy-spill-even",
            policies::greedy_spill_even().expect("preset policy parses"),
        ),
    )
}

/// The named fault plans, in table order. `healthy` is the inert plan.
pub fn scenario_plans(opts: ReproOpts) -> Vec<(&'static str, FaultPlan)> {
    let hb = heartbeat(opts);
    vec![
        ("healthy", FaultPlan::default()),
        (
            "crash+restart",
            reactions(hb)
                .crash(ticks(hb, 4.5), 1)
                .restart(ticks(hb, 9.5), 1),
        ),
        (
            "slow-mds",
            reactions(hb).slowdown(ticks(hb, 2.0), 1, 4.0, ticks(hb, 8.0)),
        ),
        (
            "stale-heartbeats",
            reactions(hb)
                .drop_heartbeats(ticks(hb, 2.0), 1, ticks(hb, 6.0))
                .delay_heartbeats(ticks(hb, 2.0), 2, ticks(hb, 6.0)),
        ),
        (
            "poisoned-balancer",
            reactions(hb).poison_balancer(ticks(hb, 2.0), 0),
        ),
    ]
}

/// The base experiment under one named fault plan ("healthy",
/// "crash+restart", …); `None` for an unknown name.
fn scenario_experiment(opts: ReproOpts, name: &str, seed: u64) -> Option<Experiment> {
    let plan = scenario_plans(opts)
        .into_iter()
        .find(|(n, _)| *n == name)?
        .1;
    let mut spec = base_experiment(opts, seed);
    spec.config.faults = plan;
    Some(spec)
}

/// Run one scenario by name.
pub fn run_scenario(opts: ReproOpts, name: &str, seed: u64) -> Option<RunReport> {
    scenario_experiment(opts, name, seed).map(|spec| run_experiment(&spec))
}

/// Like [`run_scenario`], but with a trace sink attached at `level`.
pub fn run_scenario_traced(
    opts: ReproOpts,
    name: &str,
    seed: u64,
    level: mantle_mds::TraceLevel,
) -> Option<(RunReport, mantle_mds::TraceBuffer)> {
    scenario_experiment(opts, name, seed)
        .map(|spec| crate::experiment::run_experiment_traced(&spec, level))
}

/// Run every scenario and render the degradation table.
pub fn degraded_table(opts: ReproOpts) -> String {
    let seed = 42;
    let mut table = TextTable::new([
        "scenario",
        "makespan s",
        "ops",
        "dropped",
        "timeouts",
        "retries",
        "failovers",
        "fallbacks",
        "migrations",
    ]);
    let mut healthy_makespan = None;
    for (name, plan) in scenario_plans(opts) {
        let mut spec = base_experiment(opts, seed);
        spec.config.faults = plan;
        let r = run_experiment(&spec);
        if name == "healthy" {
            healthy_makespan = Some(r.makespan);
        }
        let slowdown = healthy_makespan
            .map(|h| r.makespan.as_secs_f64() / h.as_secs_f64().max(f64::MIN_POSITIVE))
            .unwrap_or(1.0);
        table.row([
            format!("{name} ({slowdown:.2}x)"),
            format!("{:.2}", r.makespan.as_secs_f64()),
            format!("{:.0}", r.total_ops()),
            r.total_dropped().to_string(),
            r.timeouts.to_string(),
            r.retries.to_string(),
            r.failovers.to_string(),
            r.balancer_fallbacks.to_string(),
            r.total_migrations().to_string(),
        ]);
    }
    format!(
        "Degraded cluster (3 MDS, greedy-spill-even)\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_lookup_matches_table_order() {
        let names: Vec<&str> = scenario_plans(ReproOpts::QUICK)
            .iter()
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(
            names,
            [
                "healthy",
                "crash+restart",
                "slow-mds",
                "stale-heartbeats",
                "poisoned-balancer"
            ]
        );
        assert!(run_scenario(ReproOpts::QUICK, "no-such-scenario", 1).is_none());
    }

    #[test]
    fn healthy_plan_is_inert() {
        let (_, plan) = scenario_plans(ReproOpts::QUICK).swap_remove(0);
        assert!(!plan.is_active());
    }
}
