//! Differential pinning for elastic cluster membership.
//!
//! Membership transitions (the `howmany` hook, consistent-hash re-homing
//! on join, drains on leave) ride the coordinator's exclusive heartbeat
//! steps, so they must be *behaviorally invisible* to everything that is
//! supposed to be deterministic: for a fixed seed, an elastic diurnal
//! run must produce a byte-identical [`RunReport`] under every hook
//! engine (tree-walking interpreter, bytecode VM).
//!
//! The inert direction is pinned too: with `elastic.enabled == false`
//! (the default) a policy set that *carries* a `howmany` hook must
//! produce exactly the report of the same policy set without the hook —
//! the hook is dead weight unless the config turns membership on. The
//! pre-PR behavior of every existing scenario is held byte-identical by
//! the committed golden trace (`tests/golden_trace.rs`) and the
//! equivalence suites next to this file, which all run with the inert
//! default.

use mantle::core::elastic::{diurnal_experiment, GROW_THRESHOLD, POOL, SHRINK_THRESHOLD};
use mantle::core::policies;
use mantle::core::repro::ReproOpts;
use mantle::core::BalancerSpec;
use mantle::mds::HookEngine;
use mantle::policy::env::PolicySet;
use mantle::prelude::*;

mod support;
use support::fnv1a;

const SEED: u64 = 42;

/// The hash of the bytecode run's report — `elastic::run_elastic(QUICK,
/// 42)`, which runs the same spec under the default engine — recorded
/// before membership's epoch stopped being stored apart from its joins
/// and leaves. It holds `joins`, `leaves`, `membership_epoch` and
/// `mds_seconds` to a recorded value.
const PINNED: u64 = 4_310_397_458_946_349_676;

/// The quick diurnal elastic spec with an explicit hook engine. The spec
/// is the same one `elastic_beats_every_fixed_size` scores, so the
/// matrix below exercises real joins, re-homes, and drains — not a
/// cluster that happens to stay put.
fn elastic_spec(engine: HookEngine) -> Experiment {
    let mut spec = diurnal_experiment(ReproOpts::QUICK, POOL, ElasticConfig::on(), SEED);
    spec.balancer = BalancerSpec::mantle_with_engine(
        "elastic-scaler",
        policies::elastic_scaler_membership_only(GROW_THRESHOLD, SHRINK_THRESHOLD).unwrap(),
        engine,
    );
    spec
}

#[test]
fn elastic_reports_identical_across_engines() {
    let oracle = run_experiment(&elastic_spec(HookEngine::Tree));
    assert!(
        oracle.joins >= 1 && oracle.leaves >= 1,
        "vacuous matrix: the oracle run never scaled ({} joins, {} leaves)",
        oracle.joins,
        oracle.leaves
    );
    let report = run_experiment(&elastic_spec(HookEngine::Bytecode));
    assert_eq!(
        format!("{oracle:?}"),
        format!("{report:?}"),
        "the bytecode engine diverged from the tree oracle"
    );
    assert_eq!(
        fnv1a(&format!("{report:?}")),
        PINNED,
        "the elastic report changed"
    );
}

#[test]
fn inert_default_matches_a_hookless_policy_byte_for_byte() {
    // Same cluster, same seed, same `where` script; the only difference
    // is whether the policy set carries a `howmany` hook. With the
    // default (disabled) elastic config the hook must never run, so the
    // reports must be byte-identical.
    let hookless = PolicySet::from_combined(
        policies::MIXED_METALOAD,
        policies::ALL_MDSLOAD,
        policies::HOLD_LUA,
        &["half"],
    )
    .unwrap();
    let with_hook = diurnal_experiment(ReproOpts::QUICK, 2, ElasticConfig::default(), SEED);
    let mut without_hook = with_hook.clone();
    // Same display name so the only possible report difference is
    // behavioral, not the label.
    without_hook.balancer = BalancerSpec::mantle("elastic-scaler", hookless);

    let a = run_experiment(&with_hook);
    let b = run_experiment(&without_hook);
    assert_eq!(a.joins + a.leaves, 0, "inert config must never scale");
    assert_eq!(a.membership_epoch, 0);
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "a dormant howmany hook changed the report"
    );
}
