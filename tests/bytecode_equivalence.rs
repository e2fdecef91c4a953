//! The bytecode hook engine is pinned byte-identical at the *report*
//! level: for a fixed seed, a full cluster run under the default
//! bytecode engine must produce exactly the same [`RunReport`] — every
//! float, every time series, every fault counter — as the tree-walking
//! interpreter, while the fault catalogue is firing.
//!
//! This is the top layer of the differential stack: the
//! statement/expression layer lives in `crates/policy/src/bytecode.rs`
//! and `tests/properties.rs`, the hook layer in `crates/policy/src/env.rs`
//! and `tests/docs_examples.rs`, and this file closes the loop end to
//! end through the simulator.

use mantle::core::degraded::{base_experiment, scenario_plans};
use mantle::core::policies;
use mantle::core::repro::ReproOpts;
use mantle::core::{run_experiment, BalancerSpec, Experiment};
use mantle::mds::HookEngine;
use mantle::policy::env::PolicySet;

mod support;
use support::fnv1a;

/// Report hashes of the two greedy-spill-even cells — the degraded
/// scenarios themselves, under the cell's label — recorded before the
/// per-MDS run totals moved into the report the data plane fills. They
/// hold the fault counters (`dropped`, `timeouts`, `retries`,
/// `failovers`, `balancer_fallbacks`) to a recorded value, not only
/// engine to engine.
const PINNED: [(&str, u64); 2] = [
    (
        "greedy-spill-even/crash+restart",
        14_291_785_941_739_148_598,
    ),
    (
        "greedy-spill-even/poisoned-balancer",
        4_964_950_997_083_866_975,
    ),
];

/// One (policy, fault plan) cell: the bytecode engine against the
/// tree-walking reference. The two reports must be identical; returns
/// the report's `Debug` text.
fn assert_reports_identical(label: &str, spec: &Experiment, policy: &PolicySet) -> String {
    // Debug formatting of f64 is shortest-roundtrip: any numeric
    // divergence, however small, shows up in the string.
    let [bytecode, tree] = [HookEngine::Bytecode, HookEngine::Tree].map(|engine| {
        let mut spec = spec.clone();
        spec.balancer = BalancerSpec::mantle_with_engine(label, policy.clone(), engine);
        format!("{:?}", run_experiment(&spec))
    });
    assert_eq!(bytecode, tree, "{label}: tree diverged from bytecode");
    bytecode
}

/// The most hook-intensive built-in balancer (Listing 4 runs a loop over
/// the whole cluster every tick) across the full fault catalogue.
#[test]
fn adaptable_reports_identical_across_engines_under_all_faults() {
    let policy = policies::adaptable().unwrap();
    for (scenario, plan) in scenario_plans(ReproOpts::QUICK) {
        let mut spec = base_experiment(ReproOpts::QUICK, 42);
        spec.config.faults = plan;
        assert_reports_identical(&format!("adaptable/{scenario}"), &spec, &policy);
    }
}

/// The remaining built-in balancers on the two scenarios that stress
/// hook evaluation hardest: a crash mid-run (stale state, failovers) and
/// a poisoned balancer (policy errors driving the §3.4 fallback).
#[test]
fn other_builtin_balancers_report_identical_across_engines() {
    let plans: Vec<_> = scenario_plans(ReproOpts::QUICK)
        .into_iter()
        .filter(|(n, _)| matches!(*n, "crash+restart" | "poisoned-balancer"))
        .collect();
    assert_eq!(plans.len(), 2);
    for (name, policy) in [
        ("greedy-spill-even", policies::greedy_spill_even().unwrap()),
        ("fill-and-spill", policies::fill_and_spill(0.25).unwrap()),
    ] {
        for (scenario, plan) in &plans {
            let mut spec = base_experiment(ReproOpts::QUICK, 42);
            spec.config.faults = plan.clone();
            let label = format!("{name}/{scenario}");
            let report = assert_reports_identical(&label, &spec, &policy);
            if let Some((_, pin)) = PINNED.iter().find(|(l, _)| *l == label) {
                assert_eq!(fnv1a(&report), *pin, "{label}: the report changed");
            }
        }
    }
}
