//! Ablations: sweep the design knobs DESIGN.md calls out and print the
//! domain metric of each variant — the table behind EXPERIMENTS.md
//! §Ablations. Every run is a fixed-seed simulation, so the numbers are
//! reproducible to the digit; there is nothing to time here (wall-clock
//! cost is `benchmark/`'s business).
//!
//! ```text
//! cargo run --release --example ablations
//! ```

use mantle::mds::{select_best, DirfragSelector};
use mantle::prelude::*;
use mantle::sim::SimRng;

fn base_cfg() -> ClusterConfig {
    ClusterConfig {
        num_mds: 4,
        seed: 7,
        heartbeat_interval: SimTime::from_secs(2),
        ..Default::default()
    }
}

/// The shared-directory create storm under `balancer`.
fn storm(cfg: ClusterConfig, balancer: BalancerSpec) -> RunReport {
    let workload = WorkloadSpec::CreateShared {
        clients: 4,
        files: 12_000,
    };
    run_experiment(&Experiment::new(cfg, workload, balancer))
}

fn greedy() -> BalancerSpec {
    BalancerSpec::mantle("greedy", policies::greedy_spill().unwrap())
}

fn main() {
    // Decay half-life of the popularity counters (Fig. 1 smoothing): too
    // short and the balancer chases noise; too long and it reacts late.
    for secs in [1u64, 10, 60] {
        let cfg = ClusterConfig {
            decay_half_life: SimTime::from_secs(secs),
            ..base_cfg()
        };
        let r = storm(cfg, greedy());
        println!(
            "decay {secs:>3} s: makespan {:.2} min, {} migrations",
            r.makespan.as_mins_f64(),
            r.total_migrations()
        );
    }

    // Migration freeze cost: when does moving metadata stop paying?
    for (label, fixed_us) in [
        ("cheap 5 ms", 5_000.0),
        ("default 50 ms", 50_000.0),
        ("costly 500 ms", 500_000.0),
    ] {
        let mut cfg = base_cfg();
        cfg.costs.migrate_fixed_us = fixed_us;
        let r = storm(cfg, greedy());
        println!(
            "freeze {label}: makespan {:.2} min, sessions {}",
            r.makespan.as_mins_f64(),
            r.sessions_flushed
        );
    }

    // Dirfrag split threshold (the GIGA+ fan-out knob).
    for threshold in [500u64, 2_000, 8_000] {
        let cfg = ClusterConfig {
            frag_split_threshold: threshold,
            ..base_cfg()
        };
        let r = storm(cfg, greedy());
        let splits: u64 = r.mds.iter().map(|m| m.splits).sum();
        println!(
            "split@{threshold}: makespan {:.2} min, {splits} splits, {} migrations",
            r.makespan.as_mins_f64(),
            r.total_migrations()
        );
    }

    // Heartbeat cadence: fresher state vs more balancer churn (§2.2.2).
    for ms in [1_000u64, 2_000, 10_000] {
        let cfg = ClusterConfig {
            heartbeat_interval: SimTime::from_millis(ms),
            ..base_cfg()
        };
        let r = storm(cfg, BalancerSpec::Cephfs);
        println!(
            "heartbeat {ms:>5} ms: makespan {:.2} min, {} migrations, {} forwards",
            r.makespan.as_mins_f64(),
            r.total_migrations(),
            r.total_forwards()
        );
    }

    // Selector accuracy on random dirfrag load sets (§2.2.3 / §3.2): how
    // far from the target does each strategy land?
    let mut rng = SimRng::new(99);
    let cases: Vec<(Vec<f64>, f64)> = (0..200)
        .map(|_| {
            let n = 4 + rng.below(12) as usize;
            let loads: Vec<f64> = (0..n).map(|_| 5.0 + rng.f64() * 20.0).collect();
            let total: f64 = loads.iter().sum();
            (loads, total / 2.0)
        })
        .collect();
    let mean_distance = |shipped: &dyn Fn(&[f64], f64) -> f64| {
        let sum: f64 = cases
            .iter()
            .map(|(loads, target)| (shipped(loads, *target) - target).abs() / target)
            .sum();
        sum / cases.len() as f64
    };
    let all = DirfragSelector::all();
    for sel in &all {
        let d = mean_distance(&|loads, target| {
            sel.select(loads, target).iter().map(|&i| loads[i]).sum()
        });
        println!("selector {sel:<12} mean relative distance {d:.4}");
    }
    let d = mean_distance(&|loads, target| select_best(&all, loads, target).2);
    println!("selector best-of-all  mean relative distance {d:.4}");
}
