//! The paper's balancers (Listings 1–4 and the Table 1 original) as
//! ready-to-inject policy sets.
//!
//! Scripts live in `crates/core/policies/*.lua` and are embedded at build
//! time; each constructor documents the (small) adaptations made where the
//! printed listings are pseudo-code (edge guards, the `max` shadowing bug
//! in Listing 4, integral cluster-partition arithmetic in Listing 2).

use mantle_policy::env::PolicySet;
use mantle_policy::PolicyResult;

/// Listing 1: Greedy Spill (GIGA+-style).
pub const GREEDY_SPILL_LUA: &str = include_str!("../policies/greedy_spill.lua");
/// Listing 2: Greedy Spill Evenly.
pub const GREEDY_SPILL_EVEN_LUA: &str = include_str!("../policies/greedy_spill_even.lua");
/// Listing 3: Fill & Spill (LARD variation). Contains the
/// `CPU_THRESHOLD`, `SPILL_DIVISOR` and `PATIENCE` placeholders
/// substituted by [`fill_and_spill_script`].
pub const FILL_AND_SPILL_LUA: &str = include_str!("../policies/fill_and_spill.lua");
/// Listing 4: the Adaptable balancer.
pub const ADAPTABLE_LUA: &str = include_str!("../policies/adaptable.lua");
/// Fig. 10 top: conservative variant (min-offload + 3-tick patience).
pub const ADAPTABLE_CONSERVATIVE_LUA: &str = include_str!("../policies/adaptable_conservative.lua");
/// Fig. 10 bottom: too-aggressive variant (perfect-balance chasing).
pub const ADAPTABLE_TOO_AGGRESSIVE_LUA: &str =
    include_str!("../policies/adaptable_too_aggressive.lua");
/// Table 1's "where" policy in the Mantle API.
pub const CEPHFS_WHERE_LUA: &str = include_str!("../policies/cephfs_where.lua");
/// The elastic `howmany` auto-scaling hook. Contains the
/// `GROW_THRESHOLD`/`SHRINK_THRESHOLD` placeholders substituted by
/// [`elastic_scaler`].
pub const ELASTIC_SCALER_LUA: &str = include_str!("../policies/elastic_scaler.lua");

/// Table 1 metaload: `IRD + 2·IWR + READDIR + 2·FETCH + 4·STORE`.
pub const CEPHFS_METALOAD: &str = "IRD + 2*IWR + READDIR + 2*FETCH + 4*STORE";
/// Table 1 MDS load: `0.8·auth + 0.2·all + req + 10·q`.
pub const CEPHFS_MDSLOAD: &str =
    "0.8*MDSs[i][\"auth\"] + 0.2*MDSs[i][\"all\"] + MDSs[i][\"req\"] + 10*MDSs[i][\"q\"]";
/// Table 1 when: migrate when above the cluster average.
pub const CEPHFS_WHEN: &str = "if MDSs[whoami][\"load\"] > total/#MDSs then";

/// Create-workload metaload (§4.1: "we focus on create-intensive
/// workloads, so inode reads are not considered").
pub const CREATE_METALOAD: &str = "IWR";
/// Compile-workload metaload (Listing 4 header: reads + writes).
pub const MIXED_METALOAD: &str = "IWR + IRD";
/// MDS load from the all-subtree metadata load (Listing 1).
pub const ALL_MDSLOAD: &str = "MDSs[i][\"all\"]";

/// Listing 1: Greedy Spill.
pub fn greedy_spill() -> PolicyResult<PolicySet> {
    PolicySet::from_combined(CREATE_METALOAD, ALL_MDSLOAD, GREEDY_SPILL_LUA, &["half"])
}

/// Listing 2: Greedy Spill Evenly.
pub fn greedy_spill_even() -> PolicyResult<PolicySet> {
    PolicySet::from_combined(
        CREATE_METALOAD,
        ALL_MDSLOAD,
        GREEDY_SPILL_EVEN_LUA,
        &["half"],
    )
}

/// The CPU threshold for [`fill_and_spill`] on this simulator, derived
/// with the paper's methodology (Fig. 5 CPU at 3 clients — 48% on their
/// testbed, ≈80% here).
pub const FILL_SPILL_CPU_THRESHOLD: f64 = 80.0;

/// Listing 3: Fill & Spill with the calibrated CPU threshold.
/// `spill_fraction` is the slice of load shed per trigger (0.25 in the
/// best-performing configuration; 0.10 underperforms, §4.2).
pub fn fill_and_spill(spill_fraction: f64) -> PolicyResult<PolicySet> {
    fill_and_spill_with(spill_fraction, FILL_SPILL_CPU_THRESHOLD)
}

/// Listing 3 with an explicit CPU threshold (percent busy above which the
/// MDS counts as overloaded).
pub fn fill_and_spill_with(spill_fraction: f64, cpu_threshold: f64) -> PolicyResult<PolicySet> {
    let script = fill_and_spill_script(spill_fraction, cpu_threshold, 2);
    PolicySet::from_combined(MIXED_METALOAD, ALL_MDSLOAD, &script, &["small_first"])
}

/// Listing 3's decision script with its three knobs filled in: shed
/// `spill_fraction` of the load per trigger, count as overloaded above
/// `cpu_threshold` percent busy, and after a spill sit out `patience`
/// overloaded ticks (the listing's is 2).
pub fn fill_and_spill_script(spill_fraction: f64, cpu_threshold: f64, patience: u32) -> String {
    assert!(
        spill_fraction > 0.0 && spill_fraction < 1.0,
        "spill fraction must be in (0,1)"
    );
    assert!(
        (0.0..=100.0).contains(&cpu_threshold),
        "cpu threshold is a percentage"
    );
    let divisor = 1.0 / spill_fraction;
    FILL_AND_SPILL_LUA
        .replace("SPILL_DIVISOR", &format!("{divisor}"))
        .replace("CPU_THRESHOLD", &format!("{cpu_threshold}"))
        .replace("PATIENCE", &format!("{patience}"))
}

/// Listing 4: the Adaptable balancer (the "aggressive" middle panel of
/// Fig. 10).
pub fn adaptable() -> PolicyResult<PolicySet> {
    PolicySet::from_combined(
        MIXED_METALOAD,
        ALL_MDSLOAD,
        ADAPTABLE_LUA,
        &["half", "small_first", "big_first", "big_small"],
    )
}

/// Fig. 10 top: conservative adaptable balancer.
pub fn adaptable_conservative() -> PolicyResult<PolicySet> {
    PolicySet::from_combined(
        MIXED_METALOAD,
        ALL_MDSLOAD,
        ADAPTABLE_CONSERVATIVE_LUA,
        &["half", "small_first", "big_first", "big_small"],
    )
}

/// Fig. 10 bottom: too-aggressive adaptable balancer.
pub fn adaptable_too_aggressive() -> PolicyResult<PolicySet> {
    PolicySet::from_combined(
        MIXED_METALOAD,
        ALL_MDSLOAD,
        ADAPTABLE_TOO_AGGRESSIVE_LUA,
        &["half", "small_first", "big_first", "big_small"],
    )
}

/// A `where` policy that never migrates: balancing is left entirely to
/// other machinery (static partitions, or the elastic membership moves —
/// consistent-hash re-homing on join, drains on leave).
pub const HOLD_LUA: &str = "if 0 > 1 then\n  targets[whoami] = 0\nend\n";

fn scaler_hook(grow: f64, shrink: f64) -> String {
    assert!(grow > shrink, "hysteresis needs grow > shrink");
    assert!(shrink > 0.0, "thresholds are positive loads");
    ELASTIC_SCALER_LUA
        .replace("GROW_THRESHOLD", &format!("{grow}"))
        .replace("SHRINK_THRESHOLD", &format!("{shrink}"))
}

/// An elastic policy set: Listing 2's spreading (when/where) over the
/// member set, plus a `howmany` hook that grows the cluster while the
/// per-member load sits above `grow` and shrinks it once the load falls
/// below `shrink`. `grow > shrink` is required: the gap is the
/// hysteresis band that keeps heartbeat sampling noise from flapping
/// membership (and `shrink × k/(k-1) < grow` keeps the load a leave
/// re-concentrates from immediately re-triggering a join).
pub fn elastic_scaler(grow: f64, shrink: f64) -> PolicyResult<PolicySet> {
    PolicySet::from_combined(
        MIXED_METALOAD,
        ALL_MDSLOAD,
        GREEDY_SPILL_EVEN_LUA,
        &["half"],
    )?
    .with_howmany(&scaler_hook(grow, shrink))
}

/// [`elastic_scaler`]'s hook over [`HOLD_LUA`]: the balancer itself
/// never migrates, so every subtree move in the run comes from the
/// membership machinery. The diurnal scenario runs this to score the
/// `howmany` hook in isolation.
pub fn elastic_scaler_membership_only(grow: f64, shrink: f64) -> PolicyResult<PolicySet> {
    PolicySet::from_combined(MIXED_METALOAD, ALL_MDSLOAD, HOLD_LUA, &["half"])?
        .with_howmany(&scaler_hook(grow, shrink))
}

/// The original CephFS balancer expressed through the Mantle API — used by
/// the Table 1 equivalence test against the hard-coded implementation.
pub fn cephfs_original() -> PolicyResult<PolicySet> {
    PolicySet::from_hooks(
        CEPHFS_METALOAD,
        CEPHFS_MDSLOAD,
        CEPHFS_WHEN,
        CEPHFS_WHERE_LUA,
        &["big_first"],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mantle_mds::MantleBalancer;
    use mantle_policy::PolicyValidator;

    #[test]
    fn all_presets_compile_and_validate() {
        let v = PolicyValidator::new();
        for (name, policy) in [
            ("greedy_spill", greedy_spill().unwrap()),
            ("greedy_spill_even", greedy_spill_even().unwrap()),
            ("fill_and_spill", fill_and_spill(0.25).unwrap()),
            ("adaptable", adaptable().unwrap()),
            ("adaptable_conservative", adaptable_conservative().unwrap()),
            (
                "adaptable_too_aggressive",
                adaptable_too_aggressive().unwrap(),
            ),
            ("cephfs_original", cephfs_original().unwrap()),
            ("elastic_scaler", elastic_scaler(4_000.0, 800.0).unwrap()),
            (
                "elastic_scaler_membership_only",
                elastic_scaler_membership_only(4_000.0, 800.0).unwrap(),
            ),
        ] {
            v.validate(&policy)
                .unwrap_or_else(|e| panic!("{name} failed validation: {e}"));
        }
    }

    #[test]
    fn fill_and_spill_substitutes_divisor() {
        let p = fill_and_spill(0.10).unwrap();
        // The placeholder must be gone (the validator would reject the
        // unknown global anyway, but check explicitly).
        let s = format!("{:?}", p.decision);
        assert!(!s.contains("SPILL_DIVISOR"));
    }

    #[test]
    #[should_panic(expected = "spill fraction")]
    fn fill_and_spill_rejects_bad_fraction() {
        let _ = fill_and_spill(1.5);
    }

    #[test]
    fn elastic_scaler_carries_a_substituted_howmany_hook() {
        let p = elastic_scaler(4_000.0, 800.0).unwrap();
        assert!(p.howmany.is_some(), "the hook is the point of the preset");
        let s = format!("{:?}", p.howmany);
        assert!(!s.contains("GROW_THRESHOLD") && !s.contains("SHRINK_THRESHOLD"));
    }

    #[test]
    #[should_panic(expected = "grow > shrink")]
    fn elastic_scaler_rejects_inverted_band() {
        let _ = elastic_scaler(100.0, 200.0);
    }

    #[test]
    fn presets_build_balancers() {
        assert!(MantleBalancer::new("greedy", greedy_spill().unwrap()).is_ok());
        assert!(MantleBalancer::new("adaptable", adaptable().unwrap()).is_ok());
    }
}
