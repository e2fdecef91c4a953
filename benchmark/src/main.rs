//! The repository's benchmark. Two ways in:
//!
//! * one workload, one run — the form the acceptance driver calls:
//!   `--workload <name> --seed <n> --seconds <s> --trace <0|1>`; the last
//!   line of standard output is one JSON object with `correct`,
//!   `attempted`, `failed` and `metrics`;
//! * the suite — `run`, `trace`, `compare` — which runs every workload
//!   (each in its own process, by re-invoking this executable in the
//!   first form), prints every metric by name and unit, and keeps the
//!   perf trajectory. See `benchmark/README.md`.

mod batch;
mod layers;
mod opmix;
mod outcome;
mod proc;
mod spans;
mod spec;
mod stats;
mod suite;
mod wire;
mod wirebench;

use std::path::PathBuf;
use std::process::ExitCode;

use mantle_daemon::json::Json;

use crate::outcome::{metrics_json, Outcome};
use crate::spec::{Kind, GATED, PER_LAYER, WHERE_DEFINED};

const USAGE: &str = "\
usage: mantle-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
       mantle-benchmark run [--seed <n>] [--seconds <s>] [--sets <k>]
       mantle-benchmark trace [--seed <n>] [--seconds <s>]
       mantle-benchmark compare <A.json> <B.json>

workloads: batch-steady, batch-rebalance, wire-closed, wire-open-swap";

/// The benchmark's own directory (`benchmark/`): `run.sh` names it;
/// otherwise where the crate was built from.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("MANTLE_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// The value following `flag` in `args`.
pub fn flag<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// One run of one workload, as the acceptance driver asks for it.
fn one_run(args: &[String]) -> Result<ExitCode, String> {
    let name = flag(args, "--workload").ok_or("--workload is required")?;
    let workload = spec::workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let number = |f: &str| -> Result<u64, String> {
        flag(args, f)
            .ok_or_else(|| format!("{f} is required"))?
            .parse()
            .map_err(|_| format!("{f} needs a whole number"))
    };
    let (seed, seconds) = (number("--seed")?, number("--seconds")?);
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace is 0 or 1".into()),
    };
    if seconds == 0 {
        return Err("--seconds is at least 1".into());
    }
    let spans_path = bench_dir()
        .join("results")
        .join(format!("spans-{name}.jsonl"));
    let outcome: Outcome = match (workload.kind, trace) {
        (Kind::Batch, false) => batch::run_end_to_end(name, seed, seconds),
        (Kind::Batch, true) => batch::run_traced(name, seed, &spans_path),
        (Kind::Wire, _) => wirebench::run(name, seed, seconds, trace, &spans_path)
            .map_err(|e| format!("{name}: {e}"))?,
    };
    for problem in &outcome.problems {
        eprintln!("check failed: {problem}");
    }
    if !outcome.detail.is_empty() {
        // Metrics that exist on this workload only; the suite reads them.
        println!(
            "{} {}",
            suite::DETAIL_PREFIX,
            metrics_json(&outcome.detail, &WHERE_DEFINED)
        );
    }
    let table = if trace { &PER_LAYER[..] } else { &GATED[..] };
    println!(
        "{}",
        Json::obj(vec![
            ("correct", Json::Bool(outcome.correct())),
            ("attempted", Json::num(outcome.attempted.max(1) as f64)),
            ("failed", Json::num(outcome.failed as f64)),
            ("metrics", metrics_json(&outcome.metrics, table)),
        ])
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => suite::run(&args[1..], true),
        Some("trace") => suite::run(&args[1..], false),
        Some("compare") => suite::compare(&args[1..]),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        None => suite::run(&[], true),
        Some(_) => one_run(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("mantle-benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
