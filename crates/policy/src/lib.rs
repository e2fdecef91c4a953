//! The Mantle policy language: a from-scratch interpreter for the Lua
//! subset the paper's balancers are written in (Listings 1–4).
//!
//! The real Mantle embeds LuaJIT inside `ceph-mds`. This crate plays that
//! role here: balancer policies are plain-text scripts, injected at run
//! time, executed in a sandboxed environment that exposes exactly the
//! metrics and functions of the paper's Table 2 (`whoami`, `MDSs[i][...]`,
//! `total`, `IRD`/`IWR`/`READDIR`/`FETCH`/`STORE`, `WRstate`/`RDstate`,
//! `max`/`min`) plus a `targets[]` output array.
//!
//! Supported language (a strict Lua 5.1 subset — the paper's listings run
//! verbatim):
//!
//! * values: `nil`, booleans, f64 numbers, strings, tables (1-based arrays
//!   + string keys), host functions;
//! * statements: assignment, `local`, `if/elseif/else/end`, `while`,
//!   numeric `for`, `do/end`, `break`, `return`, call statements,
//!   `--` comments;
//! * expressions: arithmetic (`+ - * / % ^`), comparison
//!   (`== ~= < <= > >=`), logical (`and or not`, short-circuiting,
//!   value-returning), concatenation (`..`), length (`#`), indexing
//!   (`t.k` / `t[e]`), calls, table constructors.
//!
//! Scripts run under a *step budget* so an injected `while 1 do end` cannot
//! take an MDS down — the safety point of the paper's §4.4 — and a
//! [`validate::PolicyValidator`] dry-runs scripts against a synthetic
//! environment before they are accepted, the "simulator that checks the
//! logic before injecting policies in the running cluster".
//!
//! A balancer does not drive the interpreter itself: it parses its hooks
//! into an [`env::PolicySet`], compiles that once into a
//! [`CompiledPolicy`] (bytecode per hook, shared by every MDS) and runs it
//! through one [`env::MantleRuntime`] per MDS. The tree-walking
//! [`Interpreter`] below is the reference implementation the compiled
//! path is held bit-identical to ([`HookEngine::Tree`]):
//!
//! ```
//! use mantle_policy::{compile, Interpreter, Value};
//!
//! let script = compile("total = 0 for i = 1, #loads do total = total + loads[i] end")?;
//! let mut interp = Interpreter::new();
//! interp.set_global(
//!     "loads",
//!     Value::table(mantle_policy::Table::from_array(
//!         [12.7, 13.3, 15.7].map(Value::Number),
//!     )),
//! );
//! interp.run(&script)?;
//! assert!((interp.get_global("total").as_number(0)? - 41.7).abs() < 1e-9);
//! # Ok::<(), mantle_policy::PolicyError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod bytecode;
pub mod env;
pub mod error;
pub mod install;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod scalar;
pub mod selector;
pub mod stdlib;
pub mod token;
pub mod validate;
pub mod value;

pub use bytecode::{BytecodeProgram, BytecodeVm};
pub use env::{BalancerInputs, BalancerOutcome, CompiledPolicy, HookEngine, MdsMetrics};
pub use error::{PolicyError, PolicyResult};
pub use install::{prepare, DecisionSource, PolicySource};
pub use interp::{Interpreter, StepBudget};
pub use parser::parse_script;
pub use scalar::{Leaf, LinearForm};
pub use selector::ScriptedSelector;
pub use validate::PolicyValidator;
pub use value::{HostState, Table, Value};

/// Compile source text into an executable script (lex + parse).
pub fn compile(src: &str) -> PolicyResult<ast::Script> {
    parser::parse_script(src)
}

/// Convenience: compile a source string that is either a bare expression or
/// a full script; used for `metaload`/`mdsload` hooks which the paper
/// writes as expressions.
pub fn compile_expr(src: &str) -> PolicyResult<ast::Script> {
    parser::parse_expression_script(src)
}

#[cfg(test)]
mod test_rng;
