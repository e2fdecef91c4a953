//! Run the scale-mode scenarios and print the heap-vs-wheel table, or —
//! with `--threads N` — the single-vs-sharded comparison with a
//! per-shard breakdown.
//!
//! ```text
//! cargo run --release -p mantle-core --bin scale               # full rows
//! cargo run --release -p mantle-core --bin scale -- --smoke    # CI-sized
//! cargo run --release -p mantle-core --bin scale -- --threads 4
//! ```

#![forbid(unsafe_code)]

use mantle_core::scale::{parallel_scale_table, scale_table};

const USAGE: &str = "\
usage: scale [--smoke] [--threads N]

Runs the scale-mode scenarios (zipf-mix workloads at 10/64/128 MDSs) on
both event-queue backends, asserts the RunReports are byte-identical, and
prints the heap-vs-wheel wall-clock table recorded in EXPERIMENTS.md.
--smoke runs a single CI-sized row instead of the full (multi-minute)
sweep. --threads N (N > 1) instead compares the single-threaded engine
against the sharded engine on N worker threads — asserting byte-identical
reports — and prints a per-shard breakdown (events drained, cross-shard
messages, barrier stalls); --threads 1 is identical to omitting the flag.";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let mut smoke = false;
    let mut threads = 1usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--threads" => {
                let Some(n) = it.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--threads needs a positive integer\n{USAGE}");
                    std::process::exit(2);
                };
                if n == 0 {
                    eprintln!("--threads needs a positive integer\n{USAGE}");
                    std::process::exit(2);
                }
                threads = n;
            }
            other => {
                eprintln!("unknown argument '{other}'\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    if threads > 1 {
        println!("{}", parallel_scale_table(smoke, threads));
    } else {
        println!("{}", scale_table(smoke));
    }
}
