//! The diurnal elasticity scenario: the `howmany` hook's target workload.
//!
//! Metadata load follows the working day — a large client population
//! bursts through its budget inside the day window of each period while
//! a skeleton crew paces itself around the clock. A fixed-size cluster
//! faces an impossible choice on that shape: provision for the daytime
//! peak and burn idle MDS-hours all night, or provision for the night
//! and let the day's work spill across period after period. An elastic
//! cluster running the [`policies::elastic_scaler`] policy set grows to
//! the pool cap for the day, drains back to one member after dark, and
//! pays only for the members it keeps.
//!
//! The score is **ops per provisioned MDS-hour**
//! ([`RunReport::ops_per_mds_hour`]): completed work divided by the
//! integral of the member count over the run. [`elastic_table`] prints
//! elastic against every fixed size in the pool; the gate (the
//! `elastic_beats_every_fixed_size` test) requires the elastic run to
//! *strictly* beat the best fixed size.

use crate::experiment::{run_experiment, BalancerSpec, Experiment, WorkloadSpec};
use crate::policies;
use crate::repro::ReproOpts;
use crate::table::TextTable;
use mantle_mds::{ClusterConfig, ElasticConfig, RunReport};
use mantle_sim::SimTime;

/// MDS pool size: the elastic ceiling and the largest fixed cluster.
pub const POOL: usize = 4;

/// Per-member load above which the scaler adds a member. Calibrated to
/// the diurnal sizes below: with a ~500 ms popularity half-life a
/// saturated member's load sits well above this, so a backlogged
/// cluster keeps growing until the day-burst demand (≈3.5× one MDS's
/// service rate) is spread across the whole pool.
pub const GROW_THRESHOLD: f64 = 1_800.0;

/// Per-member load below which the scaler removes a member. High enough
/// that the decaying post-burst load crosses it quickly after the day
/// window closes (every member-second spent draining late is pure
/// waste), low enough that the mid-day per-member load (≈2× this) never
/// grazes it; `SHRINK × k/(k-1) < GROW` keeps the load a leave
/// re-concentrates from re-triggering a join.
pub const SHRINK_THRESHOLD: f64 = 1_150.0;

/// Workload shape per mode: `(clients, night_clients, days, ops_per_day,
/// period)`. Quick keeps CI fast; full matches EXPERIMENTS.md.
fn sizes(opts: ReproOpts) -> (usize, usize, u64, u64, SimTime) {
    if opts.quick {
        (14, 2, 2, 3_000, SimTime::from_secs(8))
    } else {
        // Same demand regime as quick (day bursts fill ~84% of the full
        // pool's window capacity — elastic territory, not a flat-out
        // backlog where the biggest cluster trivially wins), with more
        // clients, more days, and longer windows.
        (26, 2, 3, 6_000, SimTime::from_secs(32))
    }
}

/// Fraction of each period that is the day window. Long nights are the
/// point of the scenario: they are where a day-sized fixed cluster
/// burns idle MDS-hours and a night-sized one parks a growing backlog.
pub const DAY_FRACTION: f64 = 0.25;

/// The cluster configuration shared by every row: only `num_mds`, the
/// elastic block, and the static partition differ between fixed and
/// elastic runs, so the score isolates provisioning. The short
/// heartbeat gives the scaler ~10 decision points per day window; the
/// short popularity half-life lets the load signal fall off fast enough
/// after dark to drain promptly.
fn base_config(num_mds: usize, seed: u64) -> ClusterConfig {
    // Membership moves are planned handoffs (rendezvous re-homes on
    // join, full drains on leave), not mid-storm balancer reactions: the
    // importer replicates ancestor prefixes eagerly as part of the
    // transition, so the post-import warmup is short. The default 2 s
    // warmup would tax every re-homed dir for an entire morning window.
    let costs = mantle_mds::CostModel {
        prefix_warmup_us: 250_000.0,
        ..Default::default()
    };
    ClusterConfig {
        num_mds,
        seed,
        heartbeat_interval: SimTime::from_millis(200),
        decay_half_life: SimTime::from_millis(500),
        frag_split_threshold: 500,
        costs,
        ..Default::default()
    }
}

/// The balancer every row runs: the auto-scaling `howmany` hook over a
/// hold-everything `where` policy, so every subtree move comes from the
/// membership machinery (consistent-hash re-homing on join, drains on
/// leave). Fixed-size rows carry the hook too — with
/// `elastic.enabled == false` it is never evaluated — so every row runs
/// the same policy set.
fn scaler_balancer() -> BalancerSpec {
    BalancerSpec::mantle(
        "elastic-scaler",
        policies::elastic_scaler_membership_only(GROW_THRESHOLD, SHRINK_THRESHOLD)
            .expect("preset policy parses"),
    )
}

/// The diurnal experiment on a pool of `num_mds` MDSs, with every
/// client's private directory statically bound round-robin across the
/// initial members. Fixed rows spread over all their members — the best
/// static partition a fixed cluster could ask for — while the elastic
/// row starts everything on MDS 0 and lets joins re-home it.
pub fn diurnal_experiment(
    opts: ReproOpts,
    num_mds: usize,
    elastic: ElasticConfig,
    seed: u64,
) -> Experiment {
    let (clients, night_clients, days, ops_per_day, period) = sizes(opts);
    let spread_over = elastic.initial(num_mds);
    let mut exp = Experiment::new(
        base_config(num_mds, seed).with_elastic(elastic),
        WorkloadSpec::Diurnal {
            clients,
            night_clients,
            days,
            ops_per_day,
            period,
            day_fraction: DAY_FRACTION,
        },
        scaler_balancer(),
    );
    // Bind each private dir explicitly (the same paths Diurnal::setup
    // creates). Besides placement, this makes every dir its own subtree
    // bound — the unit set that consistent-hash re-homing works over.
    for c in 0..clients {
        exp = exp.assign(
            &format!("/diurnal/g{}/c{}", c / 16, c % 16),
            c % spread_over,
        );
    }
    exp
}

/// Run the diurnal cycle on a fixed cluster of `n` members.
fn run_fixed(opts: ReproOpts, n: usize, seed: u64) -> RunReport {
    run_experiment(&diurnal_experiment(opts, n, ElasticConfig::default(), seed))
}

/// Run the diurnal cycle on the elastic pool: `POOL` MDSs provisioned,
/// one member at t = 0, the `howmany` hook in charge of the rest.
pub fn run_elastic(opts: ReproOpts, seed: u64) -> RunReport {
    run_experiment(&diurnal_experiment(opts, POOL, ElasticConfig::on(), seed))
}

/// Run elastic against every fixed size in the pool and render the table.
pub fn elastic_table(opts: ReproOpts) -> String {
    let seed = 42;
    let mut table = TextTable::new([
        "cluster",
        "makespan s",
        "mds-hours",
        "ops/mds-h",
        "joins",
        "leaves",
        "vs best fixed",
    ]);
    let fixed: Vec<RunReport> = (1..=POOL).map(|n| run_fixed(opts, n, seed)).collect();
    let elastic = run_elastic(opts, seed);
    let best_fixed = fixed
        .iter()
        .map(RunReport::ops_per_mds_hour)
        .fold(f64::MIN_POSITIVE, f64::max);
    for (n, r) in fixed.iter().enumerate() {
        table.row([
            format!("fixed-{}", n + 1),
            format!("{:.1}", r.makespan.as_secs_f64()),
            format!("{:.4}", r.mds_hours()),
            format!("{:.0}", r.ops_per_mds_hour()),
            "-".into(),
            "-".into(),
            format!("{:.2}x", r.ops_per_mds_hour() / best_fixed),
        ]);
    }
    table.row([
        format!("elastic-1..{POOL}"),
        format!("{:.1}", elastic.makespan.as_secs_f64()),
        format!("{:.4}", elastic.mds_hours()),
        format!("{:.0}", elastic.ops_per_mds_hour()),
        elastic.joins.to_string(),
        elastic.leaves.to_string(),
        format!("{:.2}x", elastic.ops_per_mds_hour() / best_fixed),
    ]);
    format!(
        "Diurnal cycle, elastic vs fixed provisioning (pool of {POOL})\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::run_experiment_traced;

    #[test]
    #[ignore = "diagnostic"]
    fn debug_elastic_timeline() {
        let spec = diurnal_experiment(ReproOpts::QUICK, POOL, ElasticConfig::on(), 42);
        let (r, buf) = run_experiment_traced(&spec, mantle_mds::TraceLevel::Decisions);
        for rec in buf.records() {
            use mantle_mds::TraceEvent as E;
            match &rec.event {
                E::MdsJoinStart { mds, .. } => {
                    println!("{:>8.2}s JOIN  mds{mds}", rec.at.as_secs_f64())
                }
                E::MdsJoinComplete { mds, rehomed, .. } => {
                    println!(
                        "{:>8.2}s JOIN+ mds{mds} rehomed={rehomed}",
                        rec.at.as_secs_f64()
                    )
                }
                E::MdsDrainStart { mds, .. } => {
                    println!("{:>8.2}s DRAIN mds{mds}", rec.at.as_secs_f64())
                }
                E::MdsDrainComplete { mds, drained, .. } => {
                    println!(
                        "{:>8.2}s DRAIN+ mds{mds} drained={drained}",
                        rec.at.as_secs_f64()
                    )
                }
                E::MigrationCommit {
                    from, to, inodes, ..
                } => {
                    println!(
                        "{:>8.2}s mig {from}->{to} inodes={inodes}",
                        rec.at.as_secs_f64()
                    )
                }
                _ => {}
            }
        }
        for (i, m) in r.mds.iter().enumerate() {
            println!(
                "mds{i}: ops={:.0} migrations_out={} sessions_flushed={}",
                m.total_ops, m.migrations_out, m.sessions_flushed
            );
        }
        println!(
            "makespan={:.1}s mds_seconds={:.1} joins={} leaves={} score={:.0}",
            r.makespan.as_secs_f64(),
            r.mds_seconds,
            r.joins,
            r.leaves,
            r.ops_per_mds_hour()
        );
    }

    #[test]
    fn elastic_beats_every_fixed_size() {
        // The acceptance bound, at quick size: the elastic cluster must
        // strictly beat EVERY fixed size in the pool — including the
        // night-sized floor (1 MDS, which stretches the day's work
        // across extra periods) and the day-sized ceiling (POOL MDSs,
        // which idle all night) — on ops per provisioned MDS-hour,
        // while completing the same client work.
        let seed = 42;
        let elastic = run_elastic(ReproOpts::QUICK, seed);

        assert!(elastic.joins >= 1, "the cluster grew for the day");
        assert!(elastic.leaves >= 1, "the cluster drained after dark");
        assert_eq!(
            elastic.membership_epoch,
            elastic.joins + elastic.leaves,
            "every transition bumped the epoch once"
        );
        for n in 1..=POOL {
            let fixed = run_fixed(ReproOpts::QUICK, n, seed);
            assert_eq!(elastic.client_ops(), fixed.client_ops(), "same work");
            assert!(
                elastic.ops_per_mds_hour() > fixed.ops_per_mds_hour(),
                "elastic {:.0} <= fixed-{n} {:.0} ops/mds-h",
                elastic.ops_per_mds_hour(),
                fixed.ops_per_mds_hour()
            );
        }
    }

    #[test]
    fn fixed_runs_accrue_num_mds_times_makespan() {
        let r = run_fixed(ReproOpts::QUICK, 2, 7);
        assert_eq!(r.joins + r.leaves, 0);
        assert_eq!(r.membership_epoch, 0);
        let expect = 2.0 * r.makespan.as_secs_f64();
        assert!(
            (r.mds_seconds - expect).abs() < 1e-6,
            "mds_seconds {} vs {}",
            r.mds_seconds,
            expect
        );
    }
}
