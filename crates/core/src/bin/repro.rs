//! Regenerate the paper's tables and figures on the simulated cluster.
//!
//! ```text
//! cargo run --release -p mantle-core --bin repro -- all          # everything, quick
//! cargo run --release -p mantle-core --bin repro -- fig8 --full  # one figure, full size
//! ```

#![forbid(unsafe_code)]

use mantle_core::repro::{self, ReproOpts};

const USAGE: &str = "\
usage: repro [fig1|fig3|fig4|fig5|fig7|fig8|fig9|fig10|sessions|table1|all] [--full]

Regenerates the corresponding table/figure of the Mantle paper (SC '15) on
the simulated MDS cluster. Default is quick mode; --full runs the
calibrated workload sizes used by EXPERIMENTS.md.";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let opts = if full {
        ReproOpts::FULL
    } else {
        ReproOpts::QUICK
    };
    let target = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");
    let out = match target {
        "fig1" => repro::fig1_heatmap(opts),
        "fig3" => repro::fig3_locality(opts),
        "fig4" => repro::fig4_unpredictable(opts),
        "fig5" => repro::fig5_saturation(opts),
        "fig7" => repro::fig7_spill_timelines(opts),
        "fig8" => repro::fig8_speedups(opts),
        "fig9" => repro::fig9_compile_speedup(opts),
        "fig10" => repro::fig10_aggressiveness(opts),
        "sessions" => repro::sessions_table(opts),
        "table1" => repro::table1_policies(),
        "all" => repro::run_all(opts),
        other => {
            eprintln!("unknown target '{other}'\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!("{out}");
}
