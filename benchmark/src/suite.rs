//! The suite: every workload in its own process (so each has its own
//! peak RSS), every metric printed by name and unit, output checks
//! enforced, the perf trajectory appended, and two result files — or two
//! sets of one run — compared against the bounds.

use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::{SystemTime, UNIX_EPOCH};

use mantle_daemon::json::{parse, Json};

use crate::spec::{end_to_end, Better, Bound, Metric, PER_LAYER, WORKLOADS};
use crate::{bench_dir, flag, proc};

/// Prefix of the line a single run prints its workload-only end-to-end
/// metrics on (the line before its result line).
pub const DETAIL_PREFIX: &str = "detail";

/// Seconds one run measures unless `--seconds` says otherwise
/// (`BENCHMARK.json`'s `run_seconds`).
const DEFAULT_SECONDS: u64 = 25;

// ---------------------------------------------------------------------
// running
// ---------------------------------------------------------------------

/// Run one workload in a child process; returns its result object with
/// the detail metrics folded into `metrics`.
fn child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload}: run exited with {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let mut lines = text.lines().rev();
    let mut result = lines
        .next()
        .and_then(|l| parse(l).ok())
        .ok_or_else(|| format!("{workload}: no result line"))?;
    let detail = lines
        .next()
        .and_then(|l| l.strip_prefix(DETAIL_PREFIX))
        .and_then(|l| parse(l.trim()).ok());
    if let (Json::Obj(members), Some(Json::Obj(extra))) = (&mut result, detail) {
        for (key, value) in members.iter_mut() {
            if let ("metrics", Json::Obj(metrics)) = (key.as_str(), value) {
                metrics.extend(extra.iter().cloned());
            }
        }
    }
    Ok(result)
}

fn print_result(workload: &str, result: &Json) {
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        return;
    };
    for (name, m) in metrics {
        println!(
            "  {workload:<16} {name:<40} {:>16.6} {}",
            m.get_num("value").unwrap_or(f64::NAN),
            m.get_str("unit").unwrap_or("")
        );
    }
}

fn is_correct(result: &Json) -> bool {
    matches!(result.get("correct"), Some(Json::Bool(true)))
}

/// `run` (untraced sets, then the traced pass, then the record) or, with
/// `record` off, `trace` (the traced pass only, nothing recorded).
pub fn run(args: &[String], record: bool) -> Result<ExitCode, String> {
    let number = |f: &str, default: u64| -> Result<u64, String> {
        flag(args, f).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("{f} needs a whole number"))
        })
    };
    let seed = number("--seed", 42)?;
    let seconds = number("--seconds", DEFAULT_SECONDS)?;
    let sets = if record {
        number("--sets", 1)?.max(1)
    } else {
        0
    };
    let mut all_correct = true;

    let mut set_results: Vec<Json> = Vec::new();
    for set in 1..=sets {
        println!("== end to end, tracing off (seed {seed}, {seconds} s, set {set} of {sets})");
        let mut members = Vec::new();
        for w in WORKLOADS {
            let result = child(w.name, seed, seconds, false)?;
            print_result(w.name, &result);
            if !is_correct(&result) {
                all_correct = false;
                println!("  {:<16} OUTPUT CHECK FAILED", w.name);
            }
            members.push((w.name, result));
        }
        set_results.push(Json::obj(members));
    }

    let mut layer_results = Vec::new();
    println!("== per layer, traced pass (seed {seed})");
    for w in WORKLOADS {
        let result = child(w.name, seed, seconds, true)?;
        print_result(w.name, &result);
        if !is_correct(&result) {
            all_correct = false;
            println!("  {:<16} OUTPUT CHECK FAILED", w.name);
        }
        layer_results.push((w.name, result));
    }

    let mut agree = true;
    if record {
        let doc = Json::obj(vec![
            ("commit", Json::str(commit())),
            ("date", Json::str(utc_now())),
            ("host_cores", Json::num(proc::host_cores() as f64)),
            ("seed", Json::num(seed as f64)),
            ("seconds", Json::num(seconds as f64)),
            ("sets", Json::Arr(set_results)),
            ("layers", Json::obj(layer_results)),
        ]);
        if let Some(Json::Arr(all)) = doc.get("sets").filter(|_| sets >= 2) {
            println!("== set 1 against set 2");
            let only = |i: usize| Json::obj(vec![("sets", Json::Arr(vec![all[i].clone()]))]);
            // Two runs of one commit must agree both ways round.
            agree = print_comparison(&only(0), &only(1), true)
                & print_comparison(&only(1), &only(0), false);
        }
        write_record(&doc)?;
    }
    Ok(if all_correct && agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn write_record(doc: &Json) -> Result<(), String> {
    let dir = bench_dir();
    let results = dir.join("results");
    std::fs::create_dir_all(&results).map_err(|e| e.to_string())?;
    std::fs::write(results.join("latest.json"), format!("{doc}\n")).map_err(|e| e.to_string())?;
    let mut history = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("history.jsonl"))
        .map_err(|e| e.to_string())?;
    writeln!(history, "{doc}").map_err(|e| e.to_string())?;
    println!(
        "recorded: {} (latest), {} (appended)",
        results.join("latest.json").display(),
        dir.join("history.jsonl").display()
    );
    Ok(())
}

/// The commit the working tree is at, as plain git reports it.
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(bench_dir())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Now, as an ISO-8601 UTC timestamp (no date crate in the workspace).
fn utc_now() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (days, rem) = (secs / 86_400, secs % 86_400);
    // Civil-from-days (Howard Hinnant's algorithm), days since 1970-01-01.
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3_600,
        rem % 3_600 / 60,
        rem % 60
    )
}

// ---------------------------------------------------------------------
// comparing
// ---------------------------------------------------------------------

/// How one (workload, metric) pair compares between two result files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the base by more than the bound.
    Ok,
    /// Worse than the base by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound, and not every
    /// value of the change beats every value of the base.
    Unresolved,
    /// The metric has no bound (per-layer).
    Unbounded,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Unbounded => "-",
        }
    }
}

fn median_of(xs: &[f64]) -> f64 {
    crate::stats::median(xs)
}

/// Judge the change's values `b` against the base's values `a`.
pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let Some(bound) = metric.bound else {
        return Verdict::Unbounded;
    };
    let (ma, mb) = (median_of(a), median_of(b));
    let allowed = match bound {
        Bound::Share(s) => s * ma.abs(),
        Bound::Absolute(x) => x,
    };
    let range = |xs: &[f64]| {
        xs.iter().cloned().fold(f64::MIN, f64::max) - xs.iter().cloned().fold(f64::MAX, f64::min)
    };
    let wide = (a.len() >= 2 && range(a) > allowed) || (b.len() >= 2 && range(b) > allowed);
    let better = |x: f64, y: f64| match metric.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    if wide {
        let clear_win = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
        return if clear_win {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = match metric.better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    if worse_by > allowed {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Every value of (workload, metric) in a result file: one per untraced
/// set, or the traced pass's one.
fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    let of = |result: &Json| {
        result
            .get("metrics")
            .and_then(|m| m.get(metric))
            .and_then(|m| m.get_num("value"))
    };
    let from_sets: Vec<f64> = doc
        .get_arr("sets")
        .unwrap_or(&[])
        .iter()
        .filter_map(|set| set.get(workload).and_then(of))
        .collect();
    if !from_sets.is_empty() {
        return from_sets;
    }
    doc.get("layers")
        .and_then(|l| l.get(workload))
        .and_then(of)
        .into_iter()
        .collect()
}

/// Metric names a result file holds for a workload, sets first.
fn names(doc: &Json, workload: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let sets = doc.get_arr("sets").unwrap_or(&[]).iter();
    let layers = doc.get("layers").into_iter();
    for holder in sets.chain(layers) {
        if let Some(Json::Obj(metrics)) = holder.get(workload).and_then(|r| r.get("metrics")) {
            for (name, _) in metrics {
                if !out.contains(name) {
                    out.push(name.clone());
                }
            }
        }
    }
    out
}

/// Print one row per (workload, metric) the two files share; returns
/// whether no bounded pair is `worse`.
fn print_comparison(a: &Json, b: &Json, header: bool) -> bool {
    if header {
        println!(
            "  {:<16} {:<40} {:>16} {:>16} {:>22}  verdict",
            "workload", "metric", "A (base)", "B", "ratio B/A (base A)"
        );
    }
    let mut all_ok = true;
    for w in WORKLOADS {
        for name in names(a, w.name) {
            let (va, vb) = (values(a, w.name, &name), values(b, w.name, &name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let metric =
                end_to_end(&name).or_else(|| PER_LAYER.iter().copied().find(|m| m.name == name));
            let Some(metric) = metric else { continue };
            let verdict = judge(&metric, &va, &vb);
            all_ok &= verdict != Verdict::Worse;
            let (ma, mb) = (median_of(&va), median_of(&vb));
            let ratio = if ma == 0.0 {
                "n/a (base is 0)".to_string()
            } else {
                format!("{:.4} of {:.6}", mb / ma, ma)
            };
            println!(
                "  {:<16} {:<40} {:>16.6} {:>16.6} {:>22}  {}",
                w.name,
                name,
                ma,
                mb,
                ratio,
                verdict.word()
            );
        }
    }
    all_ok
}

/// `compare A.json B.json`: B against the base A.
pub fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two result files".into());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        // A history file holds one record per line; take the last.
        let last = text.lines().rev().find(|l| !l.trim().is_empty());
        parse(last.unwrap_or("")).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a)?, load(b)?);
    for (label, doc) in [("A", &a), ("B", &b)] {
        println!(
            "{label}: commit {} on {} ({} cores), seed {}",
            doc.get_str("commit").unwrap_or("?"),
            doc.get_str("date").unwrap_or("?"),
            doc.get_u64("host_cores").unwrap_or(0),
            doc.get_u64("seed").unwrap_or(0)
        );
    }
    Ok(if print_comparison(&a, &b, true) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GATED;

    fn metric(name: &str) -> Metric {
        end_to_end(name).expect("listed")
    }

    #[test]
    fn verdicts_follow_the_bounds() {
        let rate = metric("ops_per_s"); // higher is better
        let bound = match rate.bound {
            Some(Bound::Share(s)) => s,
            _ => unreachable!(),
        };
        assert_eq!(
            judge(&rate, &[1000.0], &[1000.0 * (1.0 - bound / 2.0)]),
            Verdict::Ok
        );
        assert_eq!(
            judge(&rate, &[1000.0], &[1000.0 * (1.0 - bound * 1.5)]),
            Verdict::Worse
        );
        assert_eq!(
            judge(&rate, &[1000.0], &[5000.0]),
            Verdict::Ok,
            "gains pass"
        );
        // failed_share: an absolute bound over a base of 0.
        let failed = metric("failed_share");
        assert_eq!(judge(&failed, &[0.0], &[0.0005]), Verdict::Ok);
        assert_eq!(judge(&failed, &[0.0], &[0.002]), Verdict::Worse);
        // a spread wider than the bound hides a small loss ...
        let lat = metric("rtt_p99_ms"); // lower is better, 25 %
        assert_eq!(judge(&lat, &[3.0, 4.0], &[3.6, 3.7]), Verdict::Unresolved);
        // ... unless every run of the change beats every run of the base
        assert_eq!(judge(&lat, &[3.0, 4.0], &[2.0, 2.9]), Verdict::Ok);
        assert_eq!(judge(&PER_LAYER[0], &[1.0], &[9.0]), Verdict::Unbounded);
        assert!(GATED.iter().all(|m| m.bound.is_some()));
    }

    #[test]
    fn values_come_from_sets_then_layers() {
        let doc = parse(
            r#"{"sets":[{"w":{"metrics":{"m":{"value":1,"unit":"s"}}}},
                        {"w":{"metrics":{"m":{"value":3,"unit":"s"}}}}],
                "layers":{"w":{"metrics":{"l":{"value":7,"unit":"ns"}}}}}"#,
        )
        .unwrap();
        assert_eq!(values(&doc, "w", "m"), vec![1.0, 3.0]);
        assert_eq!(values(&doc, "w", "l"), vec![7.0]);
        assert_eq!(names(&doc, "w"), vec!["m".to_string(), "l".to_string()]);
        assert!(values(&doc, "w", "absent").is_empty());
    }

    #[test]
    fn timestamps_are_civil_dates() {
        let now = utc_now();
        assert_eq!(now.len(), 20);
        assert!(now.starts_with("20") && now.ends_with('Z'));
    }
}
