//! Regenerators for every table and figure in the paper's evaluation.
//!
//! Each function runs the corresponding experiment(s) on the simulated
//! cluster and renders the same rows/series the paper reports. Absolute
//! numbers differ (our substrate is a simulator, not the authors' 10-node
//! testbed); the *shapes* — who wins, by what factor, where crossovers
//! fall — are the reproduction target. EXPERIMENTS.md records paper-vs-
//! measured for each.
//!
//! [`TARGETS`] names every table `mantle-core` can print — the paper's
//! figures plus the later experiments — and [`parse_args`] is the `repro`
//! binary's whole command line.

pub mod compile_figs;
pub mod create_figs;

pub use compile_figs::{fig10_aggressiveness, fig1_heatmap, fig3_locality, fig9_compile_speedup};
pub use create_figs::{
    fig4_unpredictable, fig5_saturation, fig7_spill_timelines, fig8_speedups, sessions_table,
};

use crate::table::TextTable;

/// Run options: `quick` shrinks workloads so a full pass stays in CI-sized
/// time budgets; `full` uses the calibrated defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReproOpts {
    /// Shrink workloads by ~4×.
    pub quick: bool,
}

impl ReproOpts {
    /// Quick mode.
    pub const QUICK: ReproOpts = ReproOpts { quick: true };
    /// Full calibrated mode.
    pub const FULL: ReproOpts = ReproOpts { quick: false };

    /// Scale an op count.
    pub fn n(&self, full: u64) -> u64 {
        if self.quick {
            (full / 4).max(200)
        } else {
            full
        }
    }

    /// Scale a float workload scale.
    pub fn s(&self, full: f64) -> f64 {
        if self.quick {
            (full / 4.0).max(0.05)
        } else {
            full
        }
    }

    /// Heartbeat/balancer cadence. Full mode uses CephFS's 10 s; quick
    /// mode shrinks it together with the workloads so runs still span many
    /// balancer ticks.
    pub fn heartbeat(&self) -> mantle_sim::SimTime {
        if self.quick {
            mantle_sim::SimTime::from_secs(2)
        } else {
            mantle_sim::SimTime::from_secs(10)
        }
    }

    /// A cluster config with this mode's cadence.
    pub fn cfg(&self, num_mds: usize, seed: u64) -> mantle_mds::ClusterConfig {
        mantle_mds::ClusterConfig {
            num_mds,
            seed,
            heartbeat_interval: self.heartbeat(),
            ..Default::default()
        }
    }
}

/// One `repro` target: its name and the table it prints.
pub type Target = (&'static str, fn(ReproOpts) -> String);

/// Every `repro` target, in usage order.
pub const TARGETS: &[Target] = &[
    ("fig1", fig1_heatmap),
    ("fig3", fig3_locality),
    ("fig4", fig4_unpredictable),
    ("fig5", fig5_saturation),
    ("fig7", fig7_spill_timelines),
    ("fig8", fig8_speedups),
    ("fig9", fig9_compile_speedup),
    ("fig10", fig10_aggressiveness),
    ("sessions", sessions_table),
    ("table1", table1_policies),
    ("all", run_all),
    ("degraded", crate::degraded::degraded_table),
    ("elastic", crate::elastic::elastic_table),
    ("flashcrowd", crate::flashcrowd::flashcrowd_table),
    ("scale", crate::scale::scale_table),
    ("search", crate::search::search_table),
];

/// The `repro` usage text, listing [`TARGETS`].
fn usage() -> String {
    let names: Vec<&str> = TARGETS.iter().map(|(name, _)| *name).collect();
    format!(
        "usage: repro [TARGET] [--full]\n\n\
         targets: {}\n\n\
         Prints the target's table: a table or figure of the Mantle paper\n\
         (SC '15), or one of the later experiments, run on the simulated MDS\n\
         cluster. The default target is `all` (the paper's evaluation). Default\n\
         is quick mode; --full runs the calibrated sizes used by EXPERIMENTS.md.",
        names.join(" ")
    )
}

/// Parse `repro`'s arguments (without the program name) into a target and
/// its size. At most one target, default `all`; the one flag is `--full`.
/// An unknown flag or target, a second target, and `-h`/`--help` all
/// answer with an error message that carries the usage text and the
/// target list.
pub fn parse_args(args: &[String]) -> Result<(&'static Target, ReproOpts), String> {
    let mut opts = ReproOpts::QUICK;
    let mut name = None;
    for arg in args {
        match arg.as_str() {
            "--full" => opts = ReproOpts::FULL,
            "-h" | "--help" => return Err(usage()),
            flag if flag.starts_with('-') => {
                return Err(format!("unknown option '{flag}'\n{}", usage()))
            }
            target if name.is_none() => name = Some(target),
            extra => return Err(format!("unexpected argument '{extra}'\n{}", usage())),
        }
    }
    let name = name.unwrap_or("all");
    let target = TARGETS
        .iter()
        .find(|(n, _)| *n == name)
        .ok_or_else(|| format!("unknown target '{name}'\n{}", usage()))?;
    Ok((target, opts))
}

/// Table 1: the CephFS policies, plus a live check that the hard-coded
/// balancer and its Mantle-script transliteration make identical decisions
/// on a grid of cluster states. The grid is fixed, so both sizes print the
/// same table.
fn table1_policies(_: ReproOpts) -> String {
    use mantle_mds::balancer::{BalanceContext, Balancer, CephfsBalancer, MantleBalancer};
    use mantle_mds::metrics::Heartbeat;
    use mantle_sim::SimTime;

    let mut out = String::new();
    out.push_str("Table 1: the hard-coded CephFS policies (and their Mantle scripts)\n\n");
    let mut t = TextTable::new(["policy", "implementation"]);
    t.row(["metaload", crate::policies::CEPHFS_METALOAD]);
    t.row(["MDSload", crate::policies::CEPHFS_MDSLOAD]);
    t.row(["when", crate::policies::CEPHFS_WHEN]);
    t.row([
        "where",
        "top under-average MDSs up to avg ×0.8 (cephfs_where.lua)",
    ]);
    t.row([
        "how-much",
        "export largest dirfrag until target (big_first)",
    ]);
    out.push_str(&t.render());

    // Equivalence grid: hard-coded vs injected script.
    let mut hard = CephfsBalancer;
    let mut scripted = MantleBalancer::new_unvalidated(
        "cephfs-as-script",
        crate::policies::cephfs_original().expect("preset compiles"),
    )
    .expect("preset builds");
    let mut agree = 0;
    let mut total = 0;
    let mut max_target_diff = 0.0_f64;
    for n in [2usize, 3, 5] {
        for hot in 0..n {
            for spread in [1.0_f64, 3.0, 10.0] {
                let heartbeats: std::sync::Arc<[Heartbeat]> = (0..n)
                    .map(|i| {
                        let load = if i == hot { 50.0 * spread } else { 10.0 };
                        Heartbeat {
                            auth_metaload: load,
                            all_metaload: load * 1.2,
                            cpu: 30.0,
                            mem: 20.0,
                            queue_len: (load / 25.0).floor(),
                            req_rate: load * 2.0,
                            cache_hits: 0.0,
                            cache_misses: 0.0,
                            taken_at: SimTime::ZERO,
                        }
                    })
                    .collect();
                for whoami in 0..n {
                    let ctx = BalanceContext {
                        whoami,
                        heartbeats: heartbeats.clone(),
                    };
                    let a = hard.decide(&ctx).expect("hard-coded never errors");
                    let b = scripted.decide(&ctx).expect("script never errors");
                    total += 1;
                    match (&a, &b) {
                        (None, None) => agree += 1,
                        (Some(pa), Some(pb)) => {
                            agree += 1;
                            for (x, y) in pa.targets.iter().zip(&pb.targets) {
                                max_target_diff = max_target_diff.max((x - y).abs());
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
    }
    out.push_str(&format!(
        "\nequivalence: hard-coded vs injected script agreed on {agree}/{total} decisions \
         (max per-target load difference {max_target_diff:.6})\n"
    ));
    out
}

/// Run everything (the order of the paper's evaluation).
fn run_all(opts: ReproOpts) -> String {
    let mut out = String::new();
    for (name, text) in [
        ("Figure 1", fig1_heatmap(opts)),
        ("Figure 3", fig3_locality(opts)),
        ("Figure 4", fig4_unpredictable(opts)),
        ("Figure 5", fig5_saturation(opts)),
        ("Table 1", table1_policies(opts)),
        ("Figure 7", fig7_spill_timelines(opts)),
        ("Figure 8", fig8_speedups(opts)),
        ("Sessions (§4.1)", sessions_table(opts)),
        ("Figure 9", fig9_compile_speedup(opts)),
        ("Figure 10", fig10_aggressiveness(opts)),
    ] {
        out.push_str(&format!("\n================ {name} ================\n"));
        out.push_str(&text);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_equivalence_holds() {
        let s = table1_policies(ReproOpts::QUICK);
        // The grid is 3 sizes × hot positions × spreads × whoami; all of
        // them must agree.
        assert!(s.contains("agreed on"), "{s}");
        let frac = s
            .split("agreed on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .expect("summary line present");
        let (a, b) = frac.split_once('/').expect("a/b");
        assert_eq!(a, b, "hard-coded and scripted balancers diverged: {s}");
    }

    fn parse(args: &[&str]) -> Result<(&'static str, ReproOpts), String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&args).map(|((name, _), opts)| (*name, opts))
    }

    #[test]
    fn every_target_parses_by_name() {
        for (name, _) in TARGETS {
            assert_eq!(parse(&[name]), Ok((*name, ReproOpts::QUICK)));
            assert_eq!(parse(&["--full", name]), Ok((*name, ReproOpts::FULL)));
        }
        let names: std::collections::HashSet<_> = TARGETS.iter().map(|(n, _)| n).collect();
        assert_eq!(names.len(), TARGETS.len(), "duplicate target name");
    }

    #[test]
    fn no_target_means_all_quick() {
        assert_eq!(parse(&[]), Ok(("all", ReproOpts::QUICK)));
        assert_eq!(parse(&["--full"]), Ok(("all", ReproOpts::FULL)));
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let err = parse(&["fig8", "--fulll"]).unwrap_err();
        assert!(err.starts_with("unknown option '--fulll'"), "{err}");
        assert!(parse(&["-x"]).is_err());
    }

    #[test]
    fn second_target_is_rejected() {
        let err = parse(&["fig8", "fig9"]).unwrap_err();
        assert!(err.starts_with("unexpected argument 'fig9'"), "{err}");
    }

    #[test]
    fn unknown_target_is_rejected() {
        let err = parse(&["fig2"]).unwrap_err();
        assert!(err.starts_with("unknown target 'fig2'"), "{err}");
    }

    #[test]
    fn help_lists_every_target() {
        for flag in ["-h", "--help"] {
            let text = parse(&["fig8", flag]).unwrap_err();
            assert!(text.starts_with("usage: repro"), "{text}");
            for (name, _) in TARGETS {
                assert!(text.contains(&format!(" {name}")), "{name} missing: {text}");
            }
        }
    }

    #[test]
    fn opts_scaling() {
        assert_eq!(ReproOpts::QUICK.n(4_000), 1_000);
        assert_eq!(ReproOpts::FULL.n(4_000), 4_000);
        assert!(ReproOpts::QUICK.s(1.0) < 1.0);
    }
}
