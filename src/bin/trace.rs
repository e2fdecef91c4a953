//! Trace a degraded-cluster scenario and dump the typed event stream as
//! JSONL, optionally replaying it through the invariant checker. Each
//! `heartbeat_tick` record carries the per-MDS gauges of its tick: load,
//! queue depth and the ops completed in the window it closes.
//!
//! ```text
//! cargo run --release --bin trace -- [--scenario NAME] [--seed N]
//!     [--level decisions|full] [--out PREFIX] [--check] [--full]
//! ```
//!
//! * `--scenario` — one of the `degraded` scenarios (`healthy`,
//!   `crash+restart`, `slow-mds`, `stale-heartbeats`,
//!   `poisoned-balancer`); default `healthy`;
//! * `--seed` — RNG seed, default 42;
//! * `--level` — `full` records the data plane (per-request events),
//!   `decisions` only the control plane; default `full`;
//! * `--out PREFIX` — write `PREFIX.trace.jsonl`, one record per line;
//! * `--check` — replay the stream through the invariant checker and
//!   exit non-zero if any invariant is violated;
//! * `--full` — run the full-size workload instead of the quick one.

#![forbid(unsafe_code)]

use mantle::core::degraded::{run_scenario_traced, scenario_plans};
use mantle::core::repro::ReproOpts;
use mantle::mds::check_trace;
use mantle::prelude::*;

fn usage() -> ! {
    eprintln!(
        "usage: trace [--scenario NAME] [--seed N] [--level decisions|full] \
         [--out PREFIX] [--check] [--full]"
    );
    std::process::exit(2);
}

fn main() {
    let mut scenario = "healthy".to_string();
    let mut seed = 42u64;
    let mut level = TraceLevel::Full;
    let mut out: Option<String> = None;
    let mut check = false;
    let mut opts = ReproOpts::QUICK;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scenario" => scenario = args.next().unwrap_or_else(|| usage()),
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--level" => {
                level = args
                    .next()
                    .and_then(|s| TraceLevel::parse(&s))
                    .unwrap_or_else(|| usage())
            }
            "--out" => out = Some(args.next().unwrap_or_else(|| usage())),
            "--check" => check = true,
            "--full" => opts = ReproOpts::FULL,
            _ => usage(),
        }
    }

    let Some((report, trace)) = run_scenario_traced(opts, &scenario, seed, level) else {
        let known: Vec<&str> = scenario_plans(opts).iter().map(|(n, _)| *n).collect();
        eprintln!("unknown scenario {scenario:?}; known: {known:?}");
        std::process::exit(2);
    };

    println!(
        "{scenario} (seed {seed}, {} level): {} records, {:.0} ops, makespan {:.2} s, \
         {} migrations, {} fallbacks",
        level.name(),
        trace.records().len(),
        report.total_ops(),
        report.makespan.as_secs_f64(),
        report.total_migrations(),
        report.balancer_fallbacks,
    );

    if let Some(prefix) = out {
        let events = format!("{prefix}.trace.jsonl");
        std::fs::write(&events, trace.to_jsonl()).expect("write event stream");
        println!("wrote {events}");
    }

    if check {
        let violations = check_trace(trace.records());
        if violations.is_empty() {
            println!("invariants ok ({} records replayed)", trace.records().len());
        } else {
            eprintln!("{} invariant violation(s):", violations.len());
            for v in violations.iter().take(20) {
                eprintln!("  {v}");
            }
            std::process::exit(1);
        }
    }
}
