//! Run the flash-crowd storm cache-off/cache-on and print the table.
//!
//! ```text
//! cargo run --release -p mantle-core --bin flashcrowd            # quick
//! cargo run --release -p mantle-core --bin flashcrowd -- --full  # calibrated sizes
//! cargo run --release -p mantle-core --bin flashcrowd -- --smoke # CI gate
//! ```

#![forbid(unsafe_code)]

use mantle_core::experiment::BalancerSpec;
use mantle_core::flashcrowd::{client_ops, flashcrowd_table, ops_per_sec, run_pair};
use mantle_core::repro::ReproOpts;

const USAGE: &str = "\
usage: flashcrowd [--full | --smoke]

Runs the flash-crowd readdir storm with the proxy cache off and on under
each built-in balancer and prints ops/s, hit rate, and speedup. Default
is quick mode; --full runs the calibrated sizes used by EXPERIMENTS.md;
--smoke runs only the no-balancer pair and fails unless cache-on is at
least 2x cache-off ops/s (the CI gate).";

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
        let (off, on) = run_pair(ReproOpts::QUICK, BalancerSpec::None, 42);
        let (off_rate, on_rate) = (ops_per_sec(&off), ops_per_sec(&on));
        let ratio = on_rate / off_rate.max(f64::MIN_POSITIVE);
        println!(
            "flashcrowd smoke: cache off {off_rate:.0} ops/s, on {on_rate:.0} ops/s \
             ({ratio:.2}x, hit rate {:.3})",
            on.cache_hit_rate()
        );
        assert_eq!(client_ops(&off), client_ops(&on), "ops lost");
        assert!(ratio >= 2.0, "cache speedup {ratio:.2}x below the 2x gate");
        println!("flashcrowd smoke: OK");
        return;
    }
    let opts = if args.iter().any(|a| a == "--full") {
        ReproOpts::FULL
    } else {
        ReproOpts::QUICK
    };
    println!("{}", flashcrowd_table(opts));
}
