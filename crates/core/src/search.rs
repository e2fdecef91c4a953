//! Policy-parameter grid search: the "what should the knobs be?" tool the
//! Mantle paper's §4.2 does by hand (spill 10% vs 25%, CPU threshold from
//! Fig. 5) — mechanized.
//!
//! Every candidate is a point in a small design space around Listing 3
//! (Fill & Spill), the paper's most knob-rich balancer:
//!
//! * **spill fraction** — the slice of load shed per trigger (§4.2
//!   compares 0.10 and 0.25; the grid brackets both);
//! * **CPU threshold** — percent busy above which the MDS counts as
//!   overloaded (the paper derives 48% on its testbed, ≈80 here);
//! * **patience** — how many consecutive overloaded ticks the balancer
//!   waits out after a spill before acting again (the `WRstate` decay
//!   counter: 0 reacts every tick, larger values absorb stale
//!   heartbeats, §2.2.2);
//! * **selector** — the dirfrag-picking strategy from Listing 4's
//!   candidate set (`half`, `small_first`, `big_first`, `big_small`);
//! * **capacity term** — the `mds_load` expression: subtree load only,
//!   or subtree load plus a queue-depth surcharge (Table 1's `10·q`).
//!
//! Each candidate runs the same hotspot experiment (clients hammering one
//! shared directory on a 3-MDS cluster) across the full fault catalogue
//! of [`crate::degraded::scenario_plans`] — healthy, crash+restart,
//! slow-mds, stale-heartbeats, poisoned-balancer — and is ranked by
//! mean throughput with the paper's secondary costs (migrations,
//! timeouts, fallbacks) alongside. The hook engine is the default
//! bytecode VM; since both engines are pinned bit-identical by the
//! differential suites, the ranking is engine-independent.

use crate::degraded::scenario_plans;
use crate::experiment::{par_map, run_experiment, BalancerSpec, Experiment, WorkloadSpec};
use crate::policies::MIXED_METALOAD;
use crate::repro::ReproOpts;
use crate::table::{f, TextTable};
use mantle_mds::ClusterConfig;
use mantle_policy::env::PolicySet;
use mantle_policy::PolicyResult;
use mantle_sim::SimTime;

/// Listing 3 generalized: `CPU_THRESHOLD`, `SPILL_DIVISOR`, and
/// `PATIENCE` are substituted per candidate. With divisor 4 and patience
/// 2 this is exactly `policies/fill_and_spill.lua`.
const TEMPLATE: &str = "\
wait = RDstate()
go = 0
if MDSs[whoami][\"cpu\"] > CPU_THRESHOLD then
  if wait > 0 then WRstate(wait-1)
  else WRstate(PATIENCE) go = 1 end
else WRstate(PATIENCE) end
if go == 1 and whoami < #MDSs then
  targets[whoami+1] = MDSs[whoami][\"load\"]/SPILL_DIVISOR
end
";

/// The two `mds_load` capacity terms in the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacityTerm {
    /// Subtree metadata load only (Listing 1's `MDSs[i]["all"]`).
    All,
    /// Subtree load plus Table 1's queue-depth surcharge (`10·q`).
    AllPlusQueue,
}

impl CapacityTerm {
    /// The policy-language expression for this term.
    pub fn expr(self) -> &'static str {
        match self {
            CapacityTerm::All => "MDSs[i][\"all\"]",
            CapacityTerm::AllPlusQueue => "MDSs[i][\"all\"] + 10*MDSs[i][\"q\"]",
        }
    }

    /// Short label for the ranked table.
    fn label(self) -> &'static str {
        match self {
            CapacityTerm::All => "all",
            CapacityTerm::AllPlusQueue => "all+10q",
        }
    }
}

/// One point in the policy-parameter grid.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Fraction of this MDS's load shed per spill, in (0, 1).
    pub spill_fraction: f64,
    /// CPU percent-busy above which the MDS counts as overloaded.
    pub cpu_threshold: f64,
    /// Overloaded ticks to wait out after a spill before re-arming.
    pub patience: u32,
    /// Dirfrag selector (`half`, `small_first`, `big_first`, `big_small`).
    pub selector: &'static str,
    /// The `mds_load` capacity term.
    pub capacity: CapacityTerm,
}

impl Candidate {
    /// Compact display label, e.g. `spill25 cpu75 pat2`.
    fn label(&self) -> String {
        format!(
            "spill{:02.0} cpu{:02.0} pat{}",
            self.spill_fraction * 100.0,
            self.cpu_threshold,
            self.patience
        )
    }

    /// Instantiate the candidate as a validated-shape policy set.
    pub fn policy(&self) -> PolicyResult<PolicySet> {
        assert!(
            self.spill_fraction > 0.0 && self.spill_fraction < 1.0,
            "spill fraction must be in (0,1)"
        );
        let divisor = 1.0 / self.spill_fraction;
        let script = TEMPLATE
            .replace("CPU_THRESHOLD", &format!("{}", self.cpu_threshold))
            .replace("SPILL_DIVISOR", &format!("{divisor}"))
            .replace("PATIENCE", &format!("{}", self.patience));
        PolicySet::from_combined(
            MIXED_METALOAD,
            self.capacity.expr(),
            &script,
            &[self.selector],
        )
    }
}

/// The candidate grid. Quick mode shrinks it to a CI-sized corner; the
/// full grid has 216 points (3 fractions × 3 thresholds × 3 patience
/// values × 4 selectors × 2 capacity terms).
pub fn candidates(opts: ReproOpts) -> Vec<Candidate> {
    let quick = opts.quick;
    let fractions: &[f64] = if quick {
        &[0.25, 0.5]
    } else {
        &[0.10, 0.25, 0.50]
    };
    let thresholds: &[f64] = if quick { &[70.0] } else { &[60.0, 75.0, 90.0] };
    let patiences: &[u32] = if quick { &[0, 2] } else { &[0, 2, 4] };
    let selectors: &[&'static str] = if quick {
        &["half", "small_first"]
    } else {
        &["half", "small_first", "big_first", "big_small"]
    };
    let capacities: &[CapacityTerm] = if quick {
        &[CapacityTerm::All]
    } else {
        &[CapacityTerm::All, CapacityTerm::AllPlusQueue]
    };
    let mut out = Vec::new();
    for &spill_fraction in fractions {
        for &cpu_threshold in thresholds {
            for &patience in patiences {
                for &selector in selectors {
                    for &capacity in capacities {
                        out.push(Candidate {
                            spill_fraction,
                            cpu_threshold,
                            patience,
                            selector,
                            capacity,
                        });
                    }
                }
            }
        }
    }
    out
}

/// One candidate's aggregate across the fault catalogue.
#[derive(Debug, Clone)]
pub struct Ranked {
    /// The grid point.
    pub candidate: Candidate,
    /// Mean throughput across scenarios, ops/s.
    pub ops_per_sec: f64,
    /// Total migrations across scenarios.
    pub migrations: u64,
    /// Total client timeouts across scenarios.
    pub timeouts: u64,
    /// Total §3.4 balancer fallbacks across scenarios.
    pub fallbacks: u64,
    /// Scenarios run (all of them — degradation never drops ops).
    pub scenarios: usize,
}

/// The hotspot experiment a candidate is judged on: clients hammering one
/// shared directory so the spill knobs actually gate behaviour.
fn search_experiment(opts: ReproOpts, policy: PolicySet, label: String) -> Experiment {
    let config = ClusterConfig {
        num_mds: 3,
        seed: 42,
        heartbeat_interval: SimTime::from_millis(400),
        frag_split_threshold: 300,
        ..Default::default()
    };
    Experiment::new(
        config,
        // Sized so the run spans ~9 balancer ticks (and the fault windows
        // of every scenario): short enough for a 216-point grid, long
        // enough that the spill knobs actually gate behaviour.
        WorkloadSpec::CreateShared {
            clients: 4,
            files: if opts.quick { 2_000 } else { 4_000 },
        },
        BalancerSpec::mantle(label, policy),
    )
}

/// Run one candidate across every fault scenario and aggregate.
fn evaluate(opts: ReproOpts, cand: &Candidate) -> Ranked {
    let policy = cand.policy().expect("grid candidates are valid policies");
    let mut ops = 0.0;
    let mut migrations = 0;
    let mut timeouts = 0;
    let mut fallbacks = 0;
    let plans = scenario_plans(ReproOpts::QUICK);
    let scenarios = plans.len();
    for (_, plan) in plans {
        let mut spec = search_experiment(opts, policy.clone(), cand.label());
        spec.config.faults = plan;
        let r = run_experiment(&spec);
        ops += r.mean_throughput();
        migrations += r.total_migrations();
        timeouts += r.timeouts;
        fallbacks += r.balancer_fallbacks;
    }
    Ranked {
        candidate: cand.clone(),
        ops_per_sec: ops / scenarios as f64,
        migrations,
        timeouts,
        fallbacks,
        scenarios,
    }
}

/// Evaluate the whole grid (in parallel across OS threads, the same pool
/// as [`crate::experiment::run_seeds`]) and rank by mean ops/s, best
/// first.
fn run_search(opts: ReproOpts) -> Vec<Ranked> {
    let mut ranked = par_map(&candidates(opts), |cand| evaluate(opts, cand));
    ranked.sort_by(|a, b| {
        b.ops_per_sec
            .partial_cmp(&a.ops_per_sec)
            .expect("throughputs are finite")
    });
    ranked
}

/// Run the grid and render the ranked table. Asserts the result is
/// non-vacuous: every candidate ran every scenario and did real work.
pub fn search_table(opts: ReproOpts) -> String {
    let ranked = run_search(opts);
    assert!(!ranked.is_empty(), "grid must not be empty");
    let expected = candidates(opts).len();
    assert_eq!(ranked.len(), expected, "every candidate must be ranked");
    for r in &ranked {
        assert!(
            r.ops_per_sec > 0.0,
            "{}: candidates must complete the workload",
            r.candidate.label()
        );
        assert_eq!(r.scenarios, 5, "full fault catalogue per candidate");
    }
    let mut table = TextTable::new([
        "rank",
        "policy",
        "selector",
        "mds_load",
        "ops/s",
        "migr",
        "timeouts",
        "fallbacks",
    ]);
    for (i, r) in ranked.iter().enumerate() {
        table.row([
            (i + 1).to_string(),
            r.candidate.label(),
            r.candidate.selector.to_string(),
            r.candidate.capacity.label().to_string(),
            f(r.ops_per_sec, 0),
            r.migrations.to_string(),
            r.timeouts.to_string(),
            r.fallbacks.to_string(),
        ]);
    }
    format!(
        "Fill & Spill parameter search ({} candidates × {} fault scenarios)\n{}",
        ranked.len(),
        5,
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grid_has_at_least_200_candidates() {
        let grid = candidates(ReproOpts::FULL);
        assert!(grid.len() >= 200, "got {}", grid.len());
        // No duplicate points.
        let labels: std::collections::HashSet<String> = grid
            .iter()
            .map(|c| format!("{} {} {}", c.label(), c.selector, c.capacity.label()))
            .collect();
        assert_eq!(labels.len(), grid.len());
    }

    #[test]
    fn every_candidate_policy_validates() {
        let v = mantle_policy::PolicyValidator::new();
        for c in candidates(ReproOpts::FULL) {
            let p = c.policy().expect("policy compiles");
            v.validate(&p)
                .unwrap_or_else(|e| panic!("{} failed validation: {e}", c.label()));
        }
    }

    #[test]
    fn default_point_matches_fill_and_spill_preset() {
        // Divisor 4, patience 2 is exactly policies/fill_and_spill.lua:
        // the template and the preset script must agree code-line for
        // code-line (comments and blank lines aside — they shift the
        // compiled line numbers but not behaviour).
        let code_lines = |src: &str| -> Vec<String> {
            src.lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with("--"))
                .map(String::from)
                .collect()
        };
        let ours = code_lines(
            &TEMPLATE
                .replace("CPU_THRESHOLD", "80")
                .replace("SPILL_DIVISOR", "4")
                .replace("PATIENCE", "2"),
        );
        let preset = code_lines(
            &crate::policies::FILL_AND_SPILL_LUA
                .replace("CPU_THRESHOLD", "80")
                .replace("SPILL_DIVISOR", "4"),
        );
        assert_eq!(ours, preset);
    }

    #[test]
    fn smoke_search_ranks_and_is_sorted() {
        let ranked = run_search(ReproOpts::QUICK);
        assert_eq!(ranked.len(), candidates(ReproOpts::QUICK).len());
        assert!(ranked
            .windows(2)
            .all(|w| w[0].ops_per_sec >= w[1].ops_per_sec));
        let rendered = search_table(ReproOpts::QUICK);
        assert!(rendered.contains("ops/s"));
        assert!(rendered.lines().count() > ranked.len());
    }
}
