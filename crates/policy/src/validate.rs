//! Policy validation — the §4.4 "simulator that checks the logic before
//! injecting policies in the running cluster".
//!
//! The policy is compiled once ([`CompiledPolicy::compile`]) and that one
//! compilation goes through two stages:
//!
//! 1. **static**: a script may only read globals its environment binds —
//!    Table 2 and the host functions for a hook, `loads`/`target`/`total`
//!    and the stdlib for a custom selector — or that it assigns itself; a
//!    typo like `MDSS` is caught here rather than producing `nil` at
//!    2 a.m. on a production MDS;
//! 2. **dynamic**: every hook is dry-run under a small step budget against
//!    a family of synthetic clusters (idle, hot-self, hot-other, single
//!    MDS), each on a fresh per-MDS runtime off the shared compilation,
//!    and every custom selector against a few load vectors under the
//!    budget it runs with in production; all must complete without
//!    errors, and a selector must answer with distinct in-range indices.

use std::rc::Rc;

use crate::env::{
    BalancerInputs, Bind, CompiledHook, CompiledPolicy, FragMetrics, MantleRuntime, MdsMetrics,
    PolicySet,
};
use crate::error::{PolicyError, PolicyResult};
use crate::interp::StepBudget;

/// Validates policy sets before they are injected.
#[derive(Debug, Clone)]
pub struct PolicyValidator {
    budget: StepBudget,
}

impl Default for PolicyValidator {
    fn default() -> Self {
        PolicyValidator {
            // Dry runs get a tighter budget than production: a validator
            // tick must be quick.
            budget: StepBudget(200_000),
        }
    }
}

impl PolicyValidator {
    /// Validator with the default dry-run budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the dry-run step budget.
    pub fn with_budget(mut self, budget: StepBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Validate a policy set; `Ok(())` means safe to inject.
    pub fn validate(&self, policy: &PolicySet) -> PolicyResult<()> {
        let compiled = CompiledPolicy::compile(policy.clone());
        check_globals(&compiled)?;
        self.dry_run(&compiled)
    }

    fn dry_run(&self, policy: &Rc<CompiledPolicy>) -> PolicyResult<()> {
        for (label, inputs) in &synthetic_clusters() {
            let rt = MantleRuntime::from_compiled(Rc::clone(policy)).with_budget(self.budget);
            rt.eval_metaload(
                inputs.whoami,
                &FragMetrics {
                    ird: 3.0,
                    iwr: 7.0,
                    readdir: 1.0,
                    fetch: 0.5,
                    store: 0.25,
                },
            )
            .map_err(|e| reject(label, "metaload", e))?;
            // Run the decision twice so WRstate/RDstate interplay is
            // exercised (first tick cold, second tick warm).
            rt.decide(inputs)
                .map_err(|e| reject(label, "decision", e))?;
            rt.decide(inputs)
                .map_err(|e| reject(label, "decision", e))?;
            // Same warm/cold discipline for the auto-scaling hook, across
            // the full membership range it can be asked about.
            let n = inputs.mds.len();
            rt.eval_howmany(inputs, n, 1, n)
                .map_err(|e| reject(label, "howmany", e))?;
            rt.eval_howmany(inputs, 1, 1, n)
                .map_err(|e| reject(label, "howmany", e))?;
        }
        for selector in policy.selectors() {
            for (label, loads) in SELECTOR_LOADS {
                let target = loads.iter().sum::<f64>() / 2.0;
                selector
                    .select(loads, target)
                    .map_err(|e| reject(label, &format!("selector '{}'", selector.name()), e))?;
            }
        }
        Ok(())
    }
}

/// Static stage: every global a script reads and never assigns must be
/// one its environment binds — a [`Bind`] name of that environment, or a
/// host name present in the script's own base frame. Which names are
/// globals is the compiler's answer: a `local` is visible only inside its
/// block.
fn check_globals(policy: &CompiledPolicy) -> PolicyResult<()> {
    let unknown_in = |hook: &CompiledHook, env: &[&str]| {
        let mut reads = hook.unassigned_reads().into_iter();
        reads
            .find(|name| !env.contains(name) && !hook.host_binds(name))
            .map(String::from)
    };
    for hook in policy.hooks() {
        if let Some(name) = unknown_in(hook, Bind::hook_env()) {
            return Err(PolicyError::Rejected {
                reason: format!(
                    "script reads global '{name}' which is not part of the Mantle \
                     environment (Table 2) and is never assigned"
                ),
            });
        }
    }
    for selector in policy.selectors() {
        if let Some(name) = unknown_in(selector.hook(), &Bind::selector_env()) {
            return Err(PolicyError::Rejected {
                reason: format!(
                    "selector '{}' reads global '{name}' which is not part of the selector \
                     environment (loads, target, total) and is never assigned",
                    selector.name()
                ),
            });
        }
    }
    Ok(())
}

fn reject(scenario: &str, hook: &str, err: PolicyError) -> PolicyError {
    PolicyError::Rejected {
        reason: format!("dry run '{scenario}' failed in {hook}: {err}"),
    }
}

/// The load vectors every custom selector must survive: nothing to choose
/// from, no choice, and the paper's §3.2 worked example.
const SELECTOR_LOADS: [(&str, &[f64]); 3] = [
    ("no-units", &[]),
    ("one-unit", &[40.0]),
    (
        "paper-loads",
        &[12.7, 13.3, 13.3, 14.6, 15.7, 13.5, 13.7, 14.6],
    ),
];

/// The synthetic clusters every policy must survive.
fn synthetic_clusters() -> Vec<(&'static str, BalancerInputs)> {
    let mk = |loads: &[f64], cpus: &[f64], whoami: usize| {
        let mds = loads
            .iter()
            .zip(cpus)
            .map(|(&l, &c)| MdsMetrics {
                auth: l,
                all: l * 1.2,
                cpu: c,
                mem: 20.0,
                q: (l / 10.0).floor(),
                req: l * 5.0,
                cache_hits: l * 2.0,
                cache_misses: l,
            })
            .collect();
        BalancerInputs {
            whoami,
            mds,
            auth_metaload: loads[whoami],
            all_metaload: loads[whoami] * 1.2,
        }
    };
    vec![
        ("single-mds", mk(&[40.0], &[50.0], 0)),
        ("idle-cluster", mk(&[0.0, 0.0, 0.0], &[1.0, 1.0, 1.0], 0)),
        ("hot-self", mk(&[95.0, 2.0, 3.0], &[92.0, 5.0, 5.0], 0)),
        ("hot-other", mk(&[2.0, 95.0, 3.0], &[5.0, 92.0, 5.0], 0)),
        ("last-mds", mk(&[10.0, 10.0, 80.0], &[20.0, 20.0, 85.0], 2)),
        ("even-cluster", mk(&[25.0, 25.0, 25.0, 25.0], &[50.0; 4], 1)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn greedy() -> PolicySet {
        PolicySet::from_combined(
            "IWR",
            "MDSs[i][\"all\"]",
            r#"
if MDSs[whoami]["load"]>.01 and whoami < #MDSs and MDSs[whoami+1]["load"]<.01 then
  targets[whoami+1]=allmetaload/2
end
"#,
            &["half"],
        )
        .unwrap()
    }

    #[test]
    fn valid_policy_passes() {
        PolicyValidator::new().validate(&greedy()).unwrap();
    }

    #[test]
    fn dry_runs_leave_nothing_behind_in_the_compilation() {
        // The dry-run scenarios decide on the compilation's shared `MDSs`
        // image — here with a script that also writes to it. A runtime off
        // the same compilation afterwards must decide as one off a fresh
        // compilation does, including on inputs equal to the last scenario's.
        let p = PolicySet::from_combined(
            "IWR",
            "MDSs[i][\"all\"]",
            r#"
if MDSs[1].seen == nil then targets[1] = #MDSs + MDSs[1]["load"] end
MDSs[1].seen = 1
MDSs[#MDSs + 1] = {}
"#,
            &["half"],
        )
        .unwrap();
        let compiled = CompiledPolicy::compile(p.clone());
        PolicyValidator::new().dry_run(&compiled).unwrap();
        assert!(compiled.image_fills() > 0, "the scenarios used the image");
        for (label, inputs) in synthetic_clusters().iter().rev() {
            let after = MantleRuntime::from_compiled(Rc::clone(&compiled));
            let fresh = MantleRuntime::new(p.clone());
            assert_eq!(
                after.decide(inputs).unwrap(),
                fresh.decide(inputs).unwrap(),
                "{label}"
            );
        }
    }

    #[test]
    fn typo_in_global_is_rejected_statically() {
        let p = PolicySet::from_combined(
            "IWR",
            "MDSs[i][\"all\"]",
            // `MDSS` (typo) is not in the environment.
            "if MDSS[whoami] then targets[1] = 1 end",
            &["half"],
        )
        .unwrap();
        let err = PolicyValidator::new().validate(&p).unwrap_err();
        assert!(err.to_string().contains("MDSS"), "{err}");
    }

    #[test]
    fn infinite_loop_is_rejected_dynamically() {
        let p =
            PolicySet::from_combined("IWR", "MDSs[i][\"all\"]", "while 1 do x = 1 end", &["half"])
                .unwrap();
        let err = PolicyValidator::new().validate(&p).unwrap_err();
        assert!(err.to_string().contains("step budget"), "{err}");
    }

    #[test]
    fn out_of_range_neighbour_is_caught_by_dry_run() {
        // Indexes MDSs[whoami+1] unconditionally: fine on 3-MDS clusters
        // when whoami=0, but the "last-mds"/"single-mds" scenarios blow up.
        let p = PolicySet::from_combined(
            "IWR",
            "MDSs[i][\"all\"]",
            "if MDSs[whoami+1][\"load\"]<.01 then targets[whoami+1]=1 end",
            &["half"],
        )
        .unwrap();
        let err = PolicyValidator::new().validate(&p).unwrap_err();
        assert!(matches!(err, PolicyError::Rejected { .. }));
    }

    #[test]
    fn assigned_globals_are_not_unknown() {
        let p = PolicySet::from_combined(
            "IWR",
            "MDSs[i][\"all\"]",
            "myload = MDSs[whoami][\"load\"] if myload > 1 then targets[1] = myload end",
            &["half"],
        )
        .unwrap();
        PolicyValidator::new().validate(&p).unwrap();
    }

    #[test]
    fn howmany_globals_are_known_and_typos_rejected() {
        let good = greedy()
            .with_howmany("max(min_mds, min(max_mds, total / 25))")
            .unwrap();
        PolicyValidator::new().validate(&good).unwrap();

        let bad = greedy().with_howmany("actve + 1").unwrap();
        let err = PolicyValidator::new().validate(&bad).unwrap_err();
        assert!(err.to_string().contains("actve"), "{err}");
    }

    #[test]
    fn diverging_howmany_is_rejected_dynamically() {
        let p = greedy()
            .with_howmany("while 1 do x = 1 end return active")
            .unwrap();
        let err = PolicyValidator::new().validate(&p).unwrap_err();
        assert!(err.to_string().contains("howmany"), "{err}");
    }

    #[test]
    fn state_functions_are_known() {
        let p = PolicySet::from_combined(
            "IWR",
            "MDSs[i][\"all\"]",
            "w = RDstate() WRstate(w + 1)",
            &["half"],
        )
        .unwrap();
        PolicyValidator::new().validate(&p).unwrap();
    }

    use crate::selector::EVERY_OTHER;

    fn with_selector(src: &str) -> PolicySet {
        greedy().with_custom_selector("mine", src).unwrap()
    }

    #[test]
    fn custom_selectors_are_validated_too() {
        let v = PolicyValidator::new();
        v.validate(&with_selector(EVERY_OTHER)).unwrap();
        v.validate(&with_selector("return {}")).unwrap();
        // (source, what the rejection must mention)
        for (src, why) in [
            ("while true do end", "step budget of 200000"),
            ("return laods", "global 'laods'"),
            // Table 2 is the hooks' environment, not a selector's.
            ("return {whoami}", "global 'whoami'"),
            ("WRstate(1) return {}", "global 'WRstate'"),
            ("if #loads == 1 then return {2} end return {}", "one-unit"),
            ("return 3", "must return a table"),
            ("return {#loads + 1}", "out of range"),
            ("if #loads > 1 then return {1, 1} end return {}", "twice"),
            // Fine on most inputs; the empty directory trips it.
            ("return {#loads}", "no-units"),
        ] {
            let err = v.validate(&with_selector(src)).unwrap_err();
            assert!(matches!(err, PolicyError::Rejected { .. }), "{src}: {err}");
            assert!(err.to_string().contains(why), "{src}: {err}");
            assert!(err.to_string().contains("selector 'mine'"), "{src}: {err}");
        }
    }

    #[test]
    fn selector_budget_is_the_production_one() {
        // A tight validator budget squeezes hooks, not selectors: those
        // run under the fixed budget they get in a balancer tick.
        let busy = "n = 0 for i = 1, 1000 do n = n + i end return {}";
        let tight = PolicyValidator::new().with_budget(StepBudget(500));
        tight.validate(&with_selector(busy)).unwrap();
        let as_hook = PolicySet::from_combined("IWR", "MDSs[i][\"all\"]", busy, &["half"]).unwrap();
        assert!(tight.validate(&as_hook).is_err());
    }

    #[test]
    fn writing_to_the_stdlib_is_rejected() {
        let p = PolicySet::from_combined(
            "IWR",
            "MDSs[i][\"all\"]",
            "math.k = (math.k or 0) + 1",
            &["half"],
        )
        .unwrap();
        let err = PolicyValidator::new().validate(&p).unwrap_err();
        assert!(err.to_string().contains("read-only table"), "{err}");
    }

    #[test]
    fn for_loop_variable_is_local_to_loop() {
        let script = crate::parser::parse_script("for j=1,3 do x = j end y = j").unwrap();
        let hook = CompiledHook::compile(script, &[]);
        assert_eq!(hook.unassigned_reads(), ["j"], "j leaks outside the loop");
    }

    #[test]
    fn block_local_is_local_to_block() {
        // No synthetic cluster takes the branch, so only the static stage
        // can see that `tgt` is an unbound global there.
        let p = PolicySet::from_combined(
            "IWR",
            "MDSs[i][\"all\"]",
            "do local tgt = 0 end if whoami > 99 then targets[1] = tgt end",
            &["half"],
        )
        .unwrap();
        let err = PolicyValidator::new().validate(&p).unwrap_err();
        assert!(err.to_string().contains("global 'tgt'"), "{err}");
    }
}
