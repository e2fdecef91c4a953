//! The hot-reload install lifecycle: raw Lua sources arrive from
//! outside (an admin socket, a config file) and are compiled and
//! validated here before anything that runs balancers sees them.
//!
//! The pipeline is deliberately staged so a bad policy can never reach a
//! running balancer:
//!
//! 1. **Parse/compile** — [`PolicySource::compile`] builds a
//!    [`PolicySet`] from the raw hook sources; syntax errors stop here.
//! 2. **Validate** — [`prepare`] runs the full [`PolicyValidator`]
//!    gauntlet: the static check for unbound globals, then dry runs of
//!    `metaload` and the decision (`mdsload` included) on six fixed
//!    synthetic clusters, one of them a single MDS, so a policy that
//!    divides by `#MDSs - 1` is caught before installation. Only a
//!    `howmany` hook also runs at `active = 1` and `active = n` on each.
//! 3. **Hand over** — the caller passes the validated [`PolicySet`] by
//!    value to whatever owns the balancers (the daemon sends it to its
//!    engine thread, which installs it on every MDS in one exclusive
//!    step, so a decision never straddles two policies).

use crate::env::PolicySet;
use crate::error::PolicyResult;
use crate::validate::PolicyValidator;

/// Raw Lua sources for a complete policy, as received over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicySource {
    /// Human-facing policy name (reports, trace records).
    pub name: String,
    /// The `metaload` hook body.
    pub metaload: String,
    /// The `mdsload` hook body.
    pub mdsload: String,
    /// The decision logic: one combined body, or split when/where hooks.
    pub decision: DecisionSource,
    /// `howmuch` selector names, in preference order.
    pub selectors: Vec<String>,
    /// Optional `howmany` hook body (elastic sizing).
    pub howmany: Option<String>,
}

/// How the decision logic is expressed in the source form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecisionSource {
    /// A single body that both decides and fills `targets`.
    Combined(String),
    /// Separate `when` / `where` hooks, as in the paper's Table 3.
    Hooks {
        /// The `when` hook body (boolean result).
        when: String,
        /// The `where` hook body (fills `targets`).
        where_: String,
    },
}

impl PolicySource {
    /// Compile the raw sources into a [`PolicySet`]. Syntax and
    /// structural errors surface here; semantic validation is
    /// [`prepare`]'s job.
    pub fn compile(&self) -> PolicyResult<PolicySet> {
        let sels: Vec<&str> = self.selectors.iter().map(String::as_str).collect();
        let set = match &self.decision {
            DecisionSource::Combined(body) => {
                PolicySet::from_combined(&self.metaload, &self.mdsload, body, &sels)?
            }
            DecisionSource::Hooks { when, where_ } => {
                PolicySet::from_hooks(&self.metaload, &self.mdsload, when, where_, &sels)?
            }
        };
        match &self.howmany {
            Some(src) => set.with_howmany(src),
            None => Ok(set),
        }
    }
}

/// Compile **and** validate a source bundle — the full pre-install
/// gauntlet. On success the returned [`PolicySet`] is safe to hand to a
/// balancer constructor that skips re-validation.
pub fn prepare(source: &PolicySource) -> PolicyResult<PolicySet> {
    let set = source.compile()?;
    PolicyValidator::new().validate(&set)?;
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn greedy() -> PolicySource {
        PolicySource {
            name: "greedy".into(),
            metaload: "IWR + IRD".into(),
            mdsload: "MDSs[i][\"all\"]".into(),
            decision: DecisionSource::Hooks {
                when: "result = MDSs[whoami][\"load\"] > total/#MDSs".into(),
                where_: "targets[1] = MDSs[whoami][\"load\"] - total/#MDSs".into(),
            },
            selectors: vec!["half".into()],
            howmany: None,
        }
    }

    #[test]
    fn prepare_accepts_a_sane_policy() {
        prepare(&greedy()).expect("greedy spill validates");
    }

    #[test]
    fn prepare_rejects_syntax_and_semantics() {
        let mut bad = greedy();
        bad.metaload = "IWR +".into();
        assert!(prepare(&bad).is_err(), "syntax error must fail compile");

        let mut unknown = greedy();
        unknown.decision = DecisionSource::Combined("x = unknowng".into());
        assert!(prepare(&unknown).is_err(), "unknown global must fail");
    }
}
