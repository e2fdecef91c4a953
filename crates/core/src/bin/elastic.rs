//! Run the diurnal elasticity scenario and print the table.
//!
//! ```text
//! cargo run --release -p mantle-core --bin elastic            # quick
//! cargo run --release -p mantle-core --bin elastic -- --full  # calibrated sizes
//! cargo run --release -p mantle-core --bin elastic -- --smoke # CI gate
//! ```

#![forbid(unsafe_code)]

use mantle_core::elastic::{client_ops, elastic_table, run_elastic, run_fixed, score, POOL};
use mantle_core::repro::ReproOpts;

const USAGE: &str = "\
usage: elastic [--full | --smoke]

Runs the diurnal day/night cycle on an elastic cluster (howmany hook,
1..POOL members) and on every fixed size in the pool, and prints ops per
provisioned MDS-hour. Default is quick mode; --full runs the calibrated
sizes used by EXPERIMENTS.md; --smoke runs at quick size and fails
unless elastic strictly beats every fixed size in the pool (the CI
gate).";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    if let Some(other) = args.iter().find(|a| *a != "--full" && *a != "--smoke") {
        eprintln!("unknown argument '{other}'\n{USAGE}");
        std::process::exit(2);
    }
    if args.iter().any(|a| a == "--smoke") {
        let seed = 42;
        let elastic = run_elastic(ReproOpts::QUICK, seed);
        assert!(
            elastic.joins >= 1 && elastic.leaves >= 1,
            "the elastic cluster never scaled"
        );
        let mut best = (0, f64::MIN);
        for n in 1..=POOL {
            let fixed = run_fixed(ReproOpts::QUICK, n, seed);
            assert_eq!(client_ops(&elastic), client_ops(&fixed), "ops lost");
            if score(&fixed) > best.1 {
                best = (n, score(&fixed));
            }
        }
        println!(
            "elastic smoke: elastic {:.0} ops/mds-h ({} joins, {} leaves), \
             best fixed-{} {:.0}",
            score(&elastic),
            elastic.joins,
            elastic.leaves,
            best.0,
            best.1,
        );
        assert!(
            score(&elastic) > best.1,
            "elastic {:.0} ops/mds-h does not beat fixed-{} at {:.0}",
            score(&elastic),
            best.0,
            best.1
        );
        println!("elastic smoke: OK");
        return;
    }
    let opts = if args.iter().any(|a| a == "--full") {
        ReproOpts::FULL
    } else {
        ReproOpts::QUICK
    };
    println!("{}", elastic_table(opts));
}
