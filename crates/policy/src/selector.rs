//! Script-defined dirfrag selectors — the §3.2 "external Lua file with a
//! list of strategies", generalized so a policy can ship its own `howmuch`
//! strategies next to the built-ins.
//!
//! A selector is compiled once ([`ScriptedSelector::compile`], or as part
//! of its policy by
//! [`CompiledPolicy::compile`](crate::env::CompiledPolicy::compile)) and
//! runs on the bytecode VM under a fixed step budget. It lives in this
//! crate, not beside the built-in selectors in `mantle-mds`, because the
//! [validator](crate::validate) dry-runs it like any other hook.

use std::collections::HashSet;
use std::fmt;

use crate::ast::Script;
use crate::env::{Bind, CompiledHook};
use crate::error::{PolicyError, PolicyResult};
use crate::interp::StepBudget;
use crate::parser::parse_script;
use crate::stdlib;
use crate::value::{Table, Value};

/// Steps one selector run may take: selection happens inside a balancer
/// tick, once per directory level considered for export.
const BUDGET: StepBudget = StepBudget(200_000);

/// A dirfrag selector written in the policy language.
///
/// The script sees `loads` (a 1-based array of unit loads), `target` and
/// `total` (the sum of `loads`), and returns a table of the 1-based
/// indices to ship, e.g.
///
/// ```lua
/// -- every other unit until the target is reached
/// chosen = {}
/// sent = 0
/// for i = 1, #loads, 2 do
///   if sent >= target then break end
///   chosen[#chosen + 1] = i
///   sent = sent + loads[i]
/// end
/// return chosen
/// ```
///
/// Assigning the global `chosen` instead of returning also works.
pub struct ScriptedSelector {
    name: String,
    hook: CompiledHook,
}

impl fmt::Debug for ScriptedSelector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScriptedSelector")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl ScriptedSelector {
    /// Compile a scripted selector from source.
    pub fn compile(name: impl Into<String>, src: &str) -> PolicyResult<ScriptedSelector> {
        Ok(Self::from_script(
            name.into(),
            parse_script(src)?,
            &stdlib::globals(),
        ))
    }

    /// Compile a parsed selector against the host's stdlib instance. (A
    /// selector gets the stdlib and nothing else: no `WRstate`/`RDstate`.)
    pub(crate) fn from_script(
        name: String,
        script: Script,
        stdlib: &[(&'static str, Value)],
    ) -> ScriptedSelector {
        ScriptedSelector {
            name,
            hook: CompiledHook::compile(script, stdlib),
        }
    }

    /// Display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The compiled script, for static checks.
    pub(crate) fn hook(&self) -> &CompiledHook {
        &self.hook
    }

    /// Run against a load set; returns the 0-based units to ship. A result
    /// that is not a table of distinct in-range indices is rejected.
    pub fn select(&self, loads: &[f64], target: f64) -> PolicyResult<Vec<usize>> {
        let mut vm = self.hook.vm(BUDGET);
        let env = [
            (
                Bind::Loads,
                Value::table(Table::from_array(loads.iter().map(|&l| Value::Number(l)))),
            ),
            (Bind::Target, Value::Number(target)),
            (Bind::Total, Value::Number(loads.iter().sum())),
        ];
        let result = match self.hook.run(&mut vm, &env)? {
            Value::Nil => self.hook.global(&vm, Bind::Chosen),
            returned => returned,
        };
        chosen_units(&self.name, &result, loads.len())
    }
}

/// The 0-based units a selector's `result` names, out of `n`.
fn chosen_units(name: &str, result: &Value, n: usize) -> PolicyResult<Vec<usize>> {
    let reject = |reason: String| Err(PolicyError::Rejected { reason });
    let Value::Table(t) = result else {
        return reject(format!(
            "selector '{name}' must return a table of indices, got {}",
            result.type_name()
        ));
    };
    let t = t.borrow();
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    for i in 1..=t.len() {
        let idx = t.get_int(i).as_number(0)? as i64;
        if idx < 1 || idx as usize > n {
            return reject(format!("selector '{name}' chose index {idx} out of range"));
        }
        if !seen.insert(idx) {
            return reject(format!("selector '{name}' chose index {idx} twice"));
        }
        out.push(idx as usize - 1);
    }
    Ok(out)
}

/// The documented example (POLICY.md §9), for this crate's tests.
#[cfg(test)]
pub(crate) const EVERY_OTHER: &str = r#"
chosen = {}
sent = 0
for i = 1, #loads, 2 do
  if sent >= target then break end
  chosen[#chosen + 1] = i
  sent = sent + loads[i]
end
return chosen
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interpreter;

    /// The reference: the same selector contract on a fresh tree-walking
    /// interpreter with a fresh stdlib — how selectors ran before they
    /// were compiled.
    fn select_on_tree(
        name: &str,
        src: &str,
        loads: &[f64],
        target: f64,
    ) -> PolicyResult<Vec<usize>> {
        let script = parse_script(src)?;
        let mut interp = Interpreter::new().with_budget(BUDGET);
        stdlib::install(&mut interp);
        interp.set_global(
            "loads",
            Value::table(Table::from_array(loads.iter().map(|&l| Value::Number(l)))),
        );
        interp.set_global("target", Value::Number(target));
        interp.set_global("total", Value::Number(loads.iter().sum()));
        let result = match interp.run(&script)? {
            Value::Nil => interp.get_global("chosen"),
            returned => returned,
        };
        chosen_units(name, &result, loads.len())
    }

    #[test]
    fn vm_and_tree_agree_on_indices_and_errors() {
        let loads = [10.0, 20.0, 30.0, 40.0, 50.0];
        // (script, what both engines must answer for target 35)
        let table: [(&str, Result<Vec<usize>, &str>); 12] = [
            // Result via `return`; early `break` once the target is met.
            (EVERY_OTHER, Ok(vec![0, 2])),
            // Result via the global `chosen`.
            ("chosen = {} chosen[1] = 1", Ok(vec![0])),
            ("chosen = {2, 5}", Ok(vec![1, 4])),
            // `return` wins over `chosen`.
            ("chosen = {1} return {3}", Ok(vec![2])),
            ("return {}", Ok(vec![])),
            ("return {#loads, math.floor(total / 75)}", Ok(vec![4, 1])),
            ("return {7}", Err("index 7 out of range")),
            ("return {0}", Err("index 0 out of range")),
            ("return {1, 1}", Err("index 1 twice")),
            ("return 3", Err("got number")),
            ("x = 1", Err("got nil")),
            // The stdlib is all a selector gets.
            ("return {RDstate()}", Err("call a nil value")),
        ];
        for (src, want) in table {
            let vm = ScriptedSelector::compile("sel", src)
                .unwrap()
                .select(&loads, 35.0);
            let tree = select_on_tree("sel", src, &loads, 35.0);
            assert_eq!(vm, tree, "{src}");
            match (vm, want) {
                (Ok(got), Ok(want)) => assert_eq!(got, want, "{src}"),
                (Err(e), Err(want)) => assert!(e.to_string().contains(want), "{src}: {e}"),
                (got, want) => panic!("{src}: got {got:?}, want {want:?}"),
            }
        }
    }

    #[test]
    fn runaway_selectors_exhaust_the_same_budget_on_both_engines() {
        for src in [
            "while true do end",
            "n = 0 while true do n = n + 1 end return {n}",
            "for i = 1, 1e9 do x = i end return {1}",
        ] {
            let vm = ScriptedSelector::compile("evil", src)
                .unwrap()
                .select(&[1.0], 1.0);
            assert_eq!(
                vm,
                Err(PolicyError::BudgetExhausted { budget: 200_000 }),
                "{src}"
            );
            assert_eq!(vm, select_on_tree("evil", src, &[1.0], 1.0), "{src}");
        }
    }

    #[test]
    fn runs_share_nothing() {
        // A selector that tries to remember: globals are re-imaged per run
        // and `math` refuses writes, so the second run sees what the first
        // one saw.
        let sel =
            ScriptedSelector::compile("sticky", "seen = (seen or 0) + 1 return {seen}").unwrap();
        assert_eq!(sel.select(&[1.0, 2.0], 1.0).unwrap(), vec![0]);
        assert_eq!(sel.select(&[1.0, 2.0], 1.0).unwrap(), vec![0]);
        let sel = ScriptedSelector::compile("scribbler", "math.seen = 1 return {1}").unwrap();
        let err = sel.select(&[1.0], 1.0).unwrap_err();
        assert!(err.to_string().contains("read-only"), "{err}");
    }
}
