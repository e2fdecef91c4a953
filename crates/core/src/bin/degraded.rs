//! Run the degraded-cluster scenarios and print the degradation table.
//!
//! ```text
//! cargo run --release -p mantle-core --bin degraded           # quick
//! cargo run --release -p mantle-core --bin degraded -- --full # calibrated sizes
//! ```

#![forbid(unsafe_code)]

use mantle_core::degraded::degraded_table;
use mantle_core::repro::ReproOpts;

const USAGE: &str = "\
usage: degraded [--full]

Runs the fault-injection scenarios (crash+restart, slow MDS, stale
heartbeats, poisoned balancer) against a healthy baseline and prints the
degradation table. Default is quick mode; --full runs the calibrated
workload sizes used by EXPERIMENTS.md.";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    if let Some(other) = args.iter().find(|a| *a != "--full") {
        eprintln!("unknown argument '{other}'\n{USAGE}");
        std::process::exit(2);
    }
    let full = args.iter().any(|a| a == "--full");
    let opts = if full {
        ReproOpts::FULL
    } else {
        ReproOpts::QUICK
    };
    println!("{}", degraded_table(opts));
}
