//! Scale-mode scenarios: clusters far past the paper's 10-node testbed.
//!
//! The paper evaluates on up to 10 MDSs; the ROADMAP north star is a
//! system that "serves millions of users", and related work (λFS, MIDAS)
//! expects metadata services to scale to hundreds of serving units. These
//! scenarios stress the *simulator* at that scale — ≥64 MDSs, ≥100k
//! directories, multi-million-request Zipf workloads — where a balancer
//! tick over 128 MDSs, not the event queue, is where host time goes
//! (EXPERIMENTS.md "Scale mode").
//!
//! `repro scale --full` prints the wall-clock table recorded in
//! EXPERIMENTS.md; quick `repro scale` is one CI-sized row. `benchmark/`'s
//! two batch workloads are these shapes, timed properly.

use std::time::Instant;

use crate::experiment::{build_cluster, BalancerSpec, Experiment, WorkloadSpec};
use crate::policies;
use crate::repro::ReproOpts;
use crate::table::TextTable;
use mantle_mds::{ClusterConfig, SchedulerKind};
use mantle_sim::SimTime;

/// One scale-mode cluster shape.
#[derive(Debug, Clone, Copy)]
pub struct ScaleSpec {
    /// Row label.
    pub name: &'static str,
    /// MDS count.
    pub num_mds: usize,
    /// Client count.
    pub clients: usize,
    /// Zipf directory population.
    pub dirs: usize,
    /// Ops per client (total requests = `clients × ops_per_client`).
    pub ops_per_client: u64,
}

impl ScaleSpec {
    /// Total requests the row issues.
    pub fn total_ops(&self) -> u64 {
        self.clients as u64 * self.ops_per_client
    }
}

/// The scale rows, smallest first. Quick mode swaps in a CI-sized single
/// row that exercises the same code paths in a few seconds.
fn scale_specs(opts: ReproOpts) -> Vec<ScaleSpec> {
    if opts.quick {
        return vec![ScaleSpec {
            name: "smoke",
            num_mds: 8,
            clients: 8,
            dirs: 2_000,
            ops_per_client: 2_000,
        }];
    }
    vec![
        ScaleSpec {
            name: "paper-scale",
            num_mds: 10,
            clients: 64,
            dirs: 100_000,
            ops_per_client: 40_000,
        },
        ScaleSpec {
            name: "rack-scale",
            num_mds: 64,
            clients: 128,
            ops_per_client: 20_000,
            dirs: 100_000,
        },
        ScaleSpec {
            name: "row-scale",
            num_mds: 128,
            clients: 128,
            ops_per_client: 20_000,
            dirs: 131_072,
        },
    ]
}

/// The experiment a scale row describes.
///
/// The middle argument is ignored: the pinned benchmark harness
/// (`benchmark/src/batch.rs`) passes a [`SchedulerKind`] there, and it
/// leaves with the harness un-pin (ROADMAP item 1).
pub fn scale_experiment(spec: &ScaleSpec, _: SchedulerKind, seed: u64) -> Experiment {
    let config = ClusterConfig {
        num_mds: spec.num_mds,
        seed,
        // The CephFS default cadence; at these op counts a run still spans
        // many ticks.
        heartbeat_interval: SimTime::from_secs(2),
        frag_split_threshold: 1_000,
        ..Default::default()
    };
    Experiment::new(
        config,
        WorkloadSpec::ZipfMix {
            clients: spec.clients,
            dirs: spec.dirs,
            ops_per_client: spec.ops_per_client,
            exponent: 1.1,
            write_fraction: 0.5,
        },
        BalancerSpec::mantle(
            "greedy-spill-even",
            policies::greedy_spill_even().expect("preset policy parses"),
        ),
    )
}

/// Run every row once, timing set-up (`build_cluster`: namespace
/// population and engine construction) and the run separately, and render
/// the wall-clock table.
pub fn scale_table(opts: ReproOpts) -> String {
    let seed = 42;
    let mut table = TextTable::new([
        "scenario",
        "mds",
        "clients",
        "dirs",
        "ops",
        "setup s",
        "wall s",
        "migrations",
    ]);
    for spec in scale_specs(opts) {
        let exp = scale_experiment(&spec, SchedulerKind::default(), seed);
        let start = Instant::now();
        let cluster = build_cluster(&exp);
        let setup_secs = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let report = cluster.run();
        let wall_secs = start.elapsed().as_secs_f64();
        table.row([
            spec.name.to_string(),
            spec.num_mds.to_string(),
            spec.clients.to_string(),
            spec.dirs.to_string(),
            format!("{:.0}", report.total_ops()),
            format!("{setup_secs:.2}"),
            format!("{wall_secs:.2}"),
            report.total_migrations().to_string(),
        ]);
    }
    format!(
        "Scale mode (zipf-mix, greedy-spill-even)\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_row_is_ci_sized() {
        let rows = scale_specs(ReproOpts::QUICK);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].total_ops() <= 50_000);
    }

    #[test]
    fn full_rows_hit_the_scale_floor() {
        let rows = scale_specs(ReproOpts::FULL);
        assert!(rows.iter().any(|r| r.num_mds >= 64), "≥64 MDSs");
        assert!(rows.iter().any(|r| r.num_mds >= 128), "≥128 MDSs");
        assert!(rows.iter().all(|r| r.dirs >= 100_000), "≥100k dirs");
        assert!(
            rows.iter().map(ScaleSpec::total_ops).sum::<u64>() >= 4_000_000,
            "multi-million requests"
        );
    }
}
