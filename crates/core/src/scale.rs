//! Scale-mode scenarios: clusters far past the paper's 10-node testbed.
//!
//! The paper evaluates on up to 10 MDSs; the ROADMAP north star is a
//! system that "serves millions of users", and related work (λFS, MIDAS)
//! expects metadata services to scale to hundreds of serving units. These
//! scenarios stress the *simulator* at that scale — ≥64 MDSs, ≥100k
//! directories, multi-million-request Zipf workloads — which is exactly
//! the regime where the heap-backed event queue's O(log n) pops become the
//! hot path and the timing wheel ([`mantle_sim::SchedulerKind::Wheel`])
//! earns its keep.
//!
//! Every row runs twice, once per scheduler backend, and the two
//! [`RunReport`]s must be **byte-identical**: the wheel is a pure
//! performance substitution, never a behavioral one. The `scale` bin
//! prints the wall-clock comparison table recorded in EXPERIMENTS.md;
//! `scale --smoke` is the CI-sized variant of the same check.

use std::time::Instant;

use crate::experiment::{build_cluster, BalancerSpec, Experiment, WorkloadSpec};
use crate::policies;
use crate::table::TextTable;
use mantle_mds::{ClusterConfig, RunReport, SchedulerKind};
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

/// The scale rows, smallest first. `smoke` swaps in a CI-sized single row
/// that exercises the same code paths in a few seconds.
pub fn scale_specs(smoke: bool) -> Vec<ScaleSpec> {
    if smoke {
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

/// The experiment a scale row describes, on the chosen scheduler backend.
pub fn scale_experiment(spec: &ScaleSpec, scheduler: SchedulerKind, seed: u64) -> Experiment {
    let config = ClusterConfig {
        num_mds: spec.num_mds,
        seed,
        // The CephFS default cadence; at these op counts a run still spans
        // many ticks.
        heartbeat_interval: SimTime::from_secs(2),
        frag_split_threshold: 1_000,
        ..Default::default()
    }
    .with_scheduler(scheduler);
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
            policies::greedy_spill_even().expect("preset policy validates"),
        ),
    )
}

/// Wall-clock result of one row on one backend.
#[derive(Debug, Clone)]
pub struct ScaleRun {
    /// The report (identical across backends for a fixed seed).
    pub report: RunReport,
    /// Host wall-clock `build_cluster` took: namespace population and
    /// engine construction, the same on every backend and in every mode.
    pub setup_secs: f64,
    /// Host wall-clock the run took, set-up excluded.
    pub wall_secs: f64,
}

/// Run one row on one backend, timing set-up and run separately.
pub fn run_scale(spec: &ScaleSpec, scheduler: SchedulerKind, seed: u64) -> ScaleRun {
    let exp = scale_experiment(spec, scheduler, seed);
    let start = Instant::now();
    let cluster = build_cluster(&exp);
    let setup_secs = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let report = cluster.run();
    let wall_secs = start.elapsed().as_secs_f64();
    ScaleRun {
        report,
        setup_secs,
        wall_secs,
    }
}

/// Run every row on both backends, assert report equality, and render the
/// heap-vs-wheel wall-clock table.
pub fn scale_table(smoke: bool) -> String {
    let seed = 42;
    let mut table = TextTable::new([
        "scenario",
        "mds",
        "clients",
        "dirs",
        "ops",
        "setup s",
        "heap s",
        "wheel s",
        "speedup",
        "migrations",
    ]);
    for spec in scale_specs(smoke) {
        let heap = run_scale(&spec, SchedulerKind::Heap, seed);
        let wheel = run_scale(&spec, SchedulerKind::Wheel, seed);
        assert_eq!(
            format!("{:?}", heap.report),
            format!("{:?}", wheel.report),
            "{}: scheduler backends must be bit-identical",
            spec.name
        );
        table.row([
            spec.name.to_string(),
            spec.num_mds.to_string(),
            spec.clients.to_string(),
            spec.dirs.to_string(),
            format!("{:.0}", heap.report.total_ops()),
            format!("{:.2}", heap.setup_secs),
            format!("{:.2}", heap.wall_secs),
            format!("{:.2}", wheel.wall_secs),
            format!("{:.2}x", heap.wall_secs / wheel.wall_secs.max(1e-9)),
            heap.report.total_migrations().to_string(),
        ]);
    }
    format!(
        "Scale mode (zipf-mix, greedy-spill-even; heap vs wheel scheduler)\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_row_is_ci_sized() {
        let rows = scale_specs(true);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].total_ops() <= 50_000);
    }

    #[test]
    fn full_rows_hit_the_scale_floor() {
        let rows = scale_specs(false);
        assert!(rows.iter().any(|r| r.num_mds >= 64), "≥64 MDSs");
        assert!(rows.iter().any(|r| r.num_mds >= 128), "≥128 MDSs");
        assert!(rows.iter().all(|r| r.dirs >= 100_000), "≥100k dirs");
        assert!(
            rows.iter().map(ScaleSpec::total_ops).sum::<u64>() >= 4_000_000,
            "multi-million requests"
        );
    }

    #[test]
    fn smoke_backends_agree() {
        let spec = scale_specs(true).remove(0);
        let heap = run_scale(&spec, SchedulerKind::Heap, 7);
        let wheel = run_scale(&spec, SchedulerKind::Wheel, 7);
        assert_eq!(format!("{:?}", heap.report), format!("{:?}", wheel.report));
        assert_eq!(heap.report.total_ops(), spec.total_ops() as f64);
    }
}
