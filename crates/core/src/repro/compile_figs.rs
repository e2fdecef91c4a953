//! Regenerators for the compile-workload figures (Figs. 1, 3, 9, 10).

use std::sync::Arc;

use mantle_mds::cluster::NoopBalancer;
use mantle_mds::Cluster;
use mantle_sim::SimTime;
use mantle_workloads::Compile;
use std::sync::Mutex;

use crate::experiment::{run_experiment, BalancerSpec, Experiment, WorkloadSpec};
use crate::policies;
use crate::repro::ReproOpts;
use crate::table::{f, pct, sparkline, TextTable};

/// Calibrated compile scale: the job lasts a few minutes of virtual time,
/// so the 10 s balancer cadence gets many ticks.
const COMPILE_SCALE: f64 = 24.0;

/// Figure 1: per-directory metadata heat (decayed counters) over time while
/// one client compiles — the hotspots move from "everywhere" (untar) into
/// `arch`/`kernel`/`fs`/`mm` (compile).
pub fn fig1_heatmap(opts: ReproOpts) -> String {
    let scale = opts.s(COMPILE_SCALE);
    let config = opts.cfg(1, 5);
    let workload = Compile::new(1, scale, 99);
    let expected_ops = workload.ops_per_client() as f64;
    let mut cluster = Cluster::new(config, Box::new(workload), |_| Box::new(NoopBalancer));
    type HeatRow = (SimTime, Vec<(String, f64)>);
    let sink: Arc<Mutex<Vec<HeatRow>>> = Arc::new(Mutex::new(Vec::new()));
    // Sample the decayed subtree heat of each top-level source directory
    // on a fixed cadence; samples scheduled past the job's end never fire.
    let approx_duration_s = (expected_ops / 1_200.0).max(30.0);
    let step_s = (approx_duration_s / 12.0).max(5.0) as u64;
    for k in 1..=14u64 {
        let at = SimTime::from_secs(k * step_s);
        let sink2 = Arc::clone(&sink);
        cluster.schedule_admin(at, move |ns| {
            let mut row = Vec::new();
            let Some(c0) = ns.lookup_child(ns.root(), "client0") else {
                return;
            };
            let Some(linux) = ns.lookup_child(c0, "linux") else {
                return;
            };
            let children = ns.children(linux).to_vec();
            for ch in children {
                let name = ns.name(ch).to_string();
                let heat = ns.subtree_heat(ch, at).cephfs_metaload();
                row.push((name, heat));
            }
            sink2
                .lock()
                .expect("sink lock never poisoned")
                .push((at, row));
        });
    }
    let report = cluster.run();
    let samples = sink.lock().expect("sink lock never poisoned");
    let mut out = String::new();
    out.push_str(&format!(
        "decayed per-directory heat while 1 client compiles (makespan {} min, {} ops):\n\n",
        f(report.makespan.as_mins_f64(), 2),
        report.total_ops() as u64
    ));
    if samples.is_empty() {
        out.push_str("(job finished before the first sample)\n");
        return out;
    }
    // Rows = directories; columns = time; cell = heat sparkline per dir.
    let dir_names: Vec<String> = samples[0].1.iter().map(|(n, _)| n.clone()).collect();
    let mut t = TextTable::new(["directory", "heat over time", "peak heat"]);
    for (di, name) in dir_names.iter().enumerate() {
        let series: Vec<f64> = samples
            .iter()
            .map(|(_, row)| row.get(di).map(|(_, h)| *h).unwrap_or(0.0))
            .collect();
        let peak = series.iter().cloned().fold(0.0_f64, f64::max);
        t.row([name.clone(), sparkline(&series), f(peak, 0)]);
    }
    out.push_str(&t.render());
    // The compile-phase hotspots from the paper.
    let hot_peak: f64 = ["arch", "kernel", "fs", "mm"]
        .iter()
        .filter_map(|h| {
            let di = dir_names.iter().position(|n| n == h)?;
            let s: Vec<f64> = samples
                .iter()
                .map(|(_, row)| row.get(di).map(|(_, x)| *x).unwrap_or(0.0))
                .collect();
            Some(s.iter().cloned().fold(0.0_f64, f64::max))
        })
        .sum();
    let all_peak: f64 = dir_names
        .iter()
        .enumerate()
        .map(|(di, _)| {
            samples
                .iter()
                .map(|(_, row)| row.get(di).map(|(_, x)| *x).unwrap_or(0.0))
                .fold(0.0_f64, f64::max)
        })
        .sum();
    out.push_str(&format!(
        "\nhotspot concentration: arch+kernel+fs+mm hold {} of the summed peak heat \
         (paper: compiling has hotspots in exactly these directories)\n",
        f(hot_peak / all_peak * 100.0, 0) + "%"
    ));
    out
}

/// Figure 3: locality vs distribution for the compile job. Three setups:
/// all metadata on one MDS ("high locality"), hot directories handed off
/// cleanly at the compile phase ("spread evenly"), and dynamic
/// distribution during the create-heavy untar ("spread unevenly").
pub fn fig3_locality(opts: ReproOpts) -> String {
    let scale = opts.s(COMPILE_SCALE);
    // Untar is the first ~19.5% of ops; estimate its end from the client
    // rate to place the clean handoff.
    let probe = Compile::new(1, scale, 99);
    let untar_end_s = (probe.ops_per_client() as f64 * 0.195 / 1_300.0).max(5.0) as u64;

    let mk = |label: &str, spec: Experiment| {
        let r = run_experiment(&spec);
        (
            label.to_string(),
            r.makespan.as_mins_f64(),
            r.total_requests(),
            r.total_hits(),
            r.total_remote_traversals(),
        )
    };
    let high = mk(
        "high locality (1 MDS)",
        Experiment::new(
            opts.cfg(1, 3),
            WorkloadSpec::Compile { clients: 1, scale },
            BalancerSpec::None,
        ),
    );
    let even = mk(
        "spread evenly (untar@1, compile@3)",
        Experiment::new(
            opts.cfg(3, 3),
            WorkloadSpec::Compile { clients: 1, scale },
            BalancerSpec::None,
        )
        .repartition_at(
            SimTime::from_secs(untar_end_s),
            vec![
                ("/client0/linux/arch".to_string(), 1),
                ("/client0/linux/kernel".to_string(), 2),
                ("/client0/linux/fs".to_string(), 1),
                ("/client0/linux/mm".to_string(), 2),
            ],
        ),
    );
    let uneven = mk(
        "spread unevenly (untar+compile@3)",
        Experiment::new(
            opts.cfg(3, 3),
            WorkloadSpec::Compile { clients: 1, scale },
            BalancerSpec::Cephfs,
        ),
    );

    let mut out = String::new();
    out.push_str("compile job under three distribution regimes:\n\n");
    let mut t = TextTable::new([
        "setup",
        "job time (min)",
        "total requests",
        "hits",
        "forwards",
    ]);
    for (label, mins, reqs, hits, fwds) in [&high, &even, &uneven] {
        t.row([
            label.clone(),
            f(*mins, 2),
            (*reqs as u64).to_string(),
            hits.to_string(),
            fwds.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nspeedup of high locality over spread-unevenly: {} \
         (paper: 18–19%); forwards grow as metadata spreads: {} → {} → {}\n",
        pct(uneven.1 / high.1),
        high.4,
        even.4,
        uneven.4
    ));
    out
}

/// Figure 9: compile speedups — 3 clients don't saturate one MDS, so
/// distribution only hurts; with 5 clients, ≥3 MDSs pay off.
pub fn fig9_compile_speedup(opts: ReproOpts) -> String {
    let scale = opts.s(COMPILE_SCALE);
    let mut out = String::new();
    out.push_str("adaptable balancer on the compile job (speedup vs 1 MDS):\n\n");
    let mut t = TextTable::new(["clients", "MDS", "makespan (min)", "speedup", "migrations"]);
    for clients in [3usize, 5] {
        let base = run_experiment(&Experiment::new(
            opts.cfg(1, 13),
            WorkloadSpec::Compile { clients, scale },
            BalancerSpec::None,
        ));
        let base_mins = base.mean_client_makespan_mins();
        t.row([
            clients.to_string(),
            "1".to_string(),
            f(base_mins, 2),
            "+0.0%".to_string(),
            "0".to_string(),
        ]);
        for n in [2usize, 3, 4, 5] {
            let r = run_experiment(&Experiment::new(
                opts.cfg(n, 13),
                WorkloadSpec::Compile { clients, scale },
                BalancerSpec::mantle("adaptable", policies::adaptable().expect("preset")),
            ));
            let mins = r.mean_client_makespan_mins();
            t.row([
                clients.to_string(),
                n.to_string(),
                f(mins, 2),
                pct(base_mins / mins),
                r.total_migrations().to_string(),
            ]);
        }
    }
    out.push_str(&t.render());
    out
}

/// Figure 10: how aggressive the adaptable balancer is changes everything —
/// conservative (wait for the flash crowd), aggressive (distribute early),
/// too aggressive (chase perfect balance and thrash).
pub fn fig10_aggressiveness(opts: ReproOpts) -> String {
    let scale = opts.s(COMPILE_SCALE);
    let clients = 5;
    let base = run_experiment(&Experiment::new(
        opts.cfg(1, 17),
        WorkloadSpec::Compile { clients, scale },
        BalancerSpec::None,
    ));

    let variants: Vec<(&str, BalancerSpec)> = vec![
        (
            "conservative",
            BalancerSpec::mantle(
                "adaptable-conservative",
                policies::adaptable_conservative().expect("preset"),
            ),
        ),
        (
            "aggressive",
            BalancerSpec::mantle("adaptable", policies::adaptable().expect("preset")),
        ),
        (
            "too aggressive",
            BalancerSpec::mantle(
                "adaptable-too-aggressive",
                policies::adaptable_too_aggressive().expect("preset"),
            ),
        ),
    ];

    let mut out = String::new();
    out.push_str(&format!(
        "5 clients compiling in separate directories, 5 MDS nodes \
         (1-MDS baseline: {} min, {} forwards):\n\n",
        f(base.makespan.as_mins_f64(), 2),
        base.total_forwards()
    ));
    let mut t = TextTable::new([
        "balancer",
        "makespan (min)",
        "stddev (min)",
        "migrations",
        "forwards",
    ]);
    let mut timelines = String::new();
    let mut aggressive_forwards = 0u64;
    let mut rows = Vec::new();
    for (label, bal) in variants {
        let r = run_experiment(&Experiment::new(
            opts.cfg(5, 17),
            WorkloadSpec::Compile { clients, scale },
            bal,
        ));
        if label == "aggressive" {
            aggressive_forwards = r.total_forwards().max(1);
        }
        timelines.push_str(&format!("{label} per-MDS throughput:\n"));
        for (i, m) in r.mds.iter().enumerate() {
            timelines.push_str(&format!(
                "  MDS{i} [{:>8} ops] {}\n",
                m.total_ops as u64,
                sparkline(m.throughput.coarsen(10).values())
            ));
        }
        rows.push((label.to_string(), r));
    }
    for (label, r) in &rows {
        t.row([
            label.clone(),
            f(r.makespan.as_mins_f64(), 2),
            f(r.client_makespan_stddev_mins(), 3),
            r.total_migrations().to_string(),
            r.total_forwards().to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    out.push_str(&timelines);
    if let Some((_, too)) = rows.iter().find(|(l, _)| l == "too aggressive") {
        out.push_str(&format!(
            "\nforward amplification of too-aggressive vs aggressive: {}× \
             (paper: 60×)\n",
            f(too.total_forwards() as f64 / aggressive_forwards as f64, 1)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_quick_smoke() {
        let s = fig1_heatmap(ReproOpts { quick: true });
        assert!(s.contains("arch"), "{s}");
        assert!(s.contains("hotspot concentration"));
    }

    #[test]
    fn stddev_summary_sane() {
        // Guard the helper the figures rely on.
        let s = mantle_sim::Summary::of(&[1.0, 1.0, 1.0]);
        assert_eq!(s.stddev, 0.0);
    }
}
