//! Scalar fast paths for the two per-item load hooks.
//!
//! `metaload` runs once per dirfrag per balancer tick and `mdsload` once
//! per MDS; in the paper's Table 1 and every shipped policy both are a
//! linear combination of a fixed set of numbers — the five popularity
//! counters, or the current row's metric fields. Hooks of that shape are
//! recognised on the AST and compiled to a coefficient term list
//! ([`ScalarMetaload`], [`ScalarMdsload`]) evaluated as a handful of
//! multiply-adds: no `Value` boxing, no step counting, no table lookups.
//!
//! The result is still bit-identical to running the script: the term list
//! keeps the source's association order, so the same IEEE-754 operations
//! happen in the same order. Anything that is not such an expression (a
//! call, a comparison, another row, an unknown name) is refused by
//! `extract` and runs on the compiled hook instead, so error behaviour is
//! preserved exactly. The tests below pin both fast paths against the
//! tree-walking [`Interpreter`](crate::Interpreter).

use crate::ast::{BinOp, Expr, Script, Stmt, UnOp};

// ---------------------------------------------------------------------------
// Scalar metaload fast path
// ---------------------------------------------------------------------------

/// Position of each counter in the 5-vector handed to
/// [`ScalarMetaload::eval`]: `IRD`, `IWR`, `READDIR`, `FETCH`, `STORE`.
pub const COUNTER_NAMES: [&str; 5] = ["IRD", "IWR", "READDIR", "FETCH", "STORE"];

fn counter_index(name: &str) -> Option<usize> {
    COUNTER_NAMES.iter().position(|&n| n == name)
}

/// One term of a linear `metaload` expression.
#[derive(Debug, Clone, PartialEq)]
enum ScalarTerm {
    /// A bare counter, e.g. `IWR`.
    Counter(usize),
    /// `c * COUNTER` (coefficient written first, as in Table 1).
    CoeffCounter(f64, usize),
    /// `COUNTER * c`.
    CounterCoeff(usize, f64),
    /// A numeric literal.
    Const(f64),
    /// Arithmetic negation of a term.
    Neg(Box<ScalarTerm>),
}

impl ScalarTerm {
    fn eval(&self, counters: &[f64; 5]) -> f64 {
        match self {
            ScalarTerm::Counter(i) => counters[*i],
            ScalarTerm::CoeffCounter(c, i) => c * counters[*i],
            ScalarTerm::CounterCoeff(i, c) => counters[*i] * c,
            ScalarTerm::Const(c) => *c,
            ScalarTerm::Neg(t) => -t.eval(counters),
        }
    }

    fn is_homogeneous(&self) -> bool {
        match self {
            ScalarTerm::Const(_) => false,
            ScalarTerm::Neg(t) => t.is_homogeneous(),
            _ => true,
        }
    }
}

/// A `metaload` hook compiled to a coefficient term list — the fast path
/// for hooks that are pure arithmetic over the five counters, which covers
/// Table 1 and every shipped policy.
///
/// Terms are kept in source order and evaluated as the interpreter's
/// left-associative `+`/`-` chain would be, so the result is bit-identical
/// to running the script (same IEEE-754 operations in the same order). For
/// the common `a*IRD + b*IWR + ...` shape this is exactly a dot product
/// against the counter vector.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarMetaload {
    first: ScalarTerm,
    /// `(is_subtraction, term)`, applied left to right.
    rest: Vec<(bool, ScalarTerm)>,
}

impl ScalarMetaload {
    /// Try to compile `script` to scalar form. Returns `None` when the hook
    /// is anything but a single-expression linear combination of the five
    /// counters (callers fall back to running the compiled hook).
    pub fn extract(script: &Script) -> Option<ScalarMetaload> {
        let [Stmt::Return {
            value: Some(expr), ..
        }] = script.block.stmts.as_slice()
        else {
            return None;
        };
        let mut terms = Vec::new();
        flatten_chain(expr, &mut terms)?;
        let mut it = terms.into_iter();
        let (_, first) = it.next()?;
        Some(ScalarMetaload {
            first,
            rest: it.collect(),
        })
    }

    /// Evaluate against `[ird, iwr, readdir, fetch, store]`.
    pub fn eval(&self, counters: &[f64; 5]) -> f64 {
        let mut acc = self.first.eval(counters);
        for (sub, term) in &self.rest {
            let v = term.eval(counters);
            acc = if *sub { acc - v } else { acc + v };
        }
        acc
    }

    /// True when the expression has no constant term, i.e. it is a linear
    /// map with `metaload(0) = 0`. Only such hooks distribute over sums of
    /// counter vectors, which is what lets the cluster evaluate them once
    /// per MDS on aggregated heat instead of once per dirfrag.
    pub fn is_homogeneous(&self) -> bool {
        self.first.is_homogeneous() && self.rest.iter().all(|(_, t)| t.is_homogeneous())
    }
}

/// Flatten a left-associative `+`/`-` chain into `(is_sub, term)` pairs.
fn flatten_chain(e: &Expr, out: &mut Vec<(bool, ScalarTerm)>) -> Option<()> {
    if let Expr::Binary {
        op: op @ (BinOp::Add | BinOp::Sub),
        lhs,
        rhs,
        ..
    } = e
    {
        flatten_chain(lhs, out)?;
        out.push((*op == BinOp::Sub, term_of(rhs)?));
        Some(())
    } else {
        out.push((false, term_of(e)?));
        Some(())
    }
}

fn term_of(e: &Expr) -> Option<ScalarTerm> {
    match e {
        Expr::Number(n) => Some(ScalarTerm::Const(*n)),
        Expr::Name(name, _) => Some(ScalarTerm::Counter(counter_index(name)?)),
        Expr::Unary {
            op: UnOp::Neg,
            operand,
            ..
        } => Some(ScalarTerm::Neg(Box::new(term_of(operand)?))),
        Expr::Binary {
            op: BinOp::Mul,
            lhs,
            rhs,
            ..
        } => match (&**lhs, &**rhs) {
            (Expr::Number(c), Expr::Name(n, _)) => {
                Some(ScalarTerm::CoeffCounter(*c, counter_index(n)?))
            }
            (Expr::Name(n, _), Expr::Number(c)) => {
                Some(ScalarTerm::CounterCoeff(counter_index(n)?, *c))
            }
            _ => None,
        },
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Scalar mdsload
// ---------------------------------------------------------------------------

/// Position of each per-MDS metric in the 8-vector handed to
/// [`ScalarMdsload::eval`]: `auth`, `all`, `cpu`, `mem`, `q`, `req`,
/// `cache_hits`, `cache_misses`.
pub const MDS_FIELD_NAMES: [&str; 8] = [
    "auth",
    "all",
    "cpu",
    "mem",
    "q",
    "req",
    "cache_hits",
    "cache_misses",
];

fn mds_field_index(name: &str) -> Option<usize> {
    MDS_FIELD_NAMES.iter().position(|&n| n == name)
}

/// One term of a linear `mdsload` expression, over `MDSs[i]["<field>"]`
/// reads instead of bare counters.
#[derive(Debug, Clone, PartialEq)]
enum MdsTerm {
    /// `MDSs[i]["<field>"]`.
    Field(usize),
    /// `c * MDSs[i]["<field>"]` (coefficient first, as in Table 1).
    CoeffField(f64, usize),
    /// `MDSs[i]["<field>"] * c`.
    FieldCoeff(usize, f64),
    /// A numeric literal.
    Const(f64),
    /// Arithmetic negation of a term.
    Neg(Box<MdsTerm>),
}

impl MdsTerm {
    fn eval(&self, fields: &[f64; 8]) -> f64 {
        match self {
            MdsTerm::Field(i) => fields[*i],
            MdsTerm::CoeffField(c, i) => c * fields[*i],
            MdsTerm::FieldCoeff(i, c) => fields[*i] * c,
            MdsTerm::Const(c) => *c,
            MdsTerm::Neg(t) => -t.eval(fields),
        }
    }
}

/// An `mdsload` hook compiled to a coefficient term list — the counterpart
/// of [`ScalarMetaload`] for the per-MDS pass. It covers hooks that are
/// pure arithmetic over the current row's metric fields (`MDSs[i][…]`),
/// which is Table 1's weighted sum and every shipped policy.
///
/// Same bit-identity argument as [`ScalarMetaload`]: terms stay in source
/// order and are folded with the interpreter's left-associative `+`/`-`
/// chain, and each `MDSs[i]["<field>"]` read yields exactly the `f64` the
/// environment builder would have stored in the table — so the fast path
/// performs the identical IEEE-754 operations in the identical order,
/// without building any table or running any VM.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarMdsload {
    first: MdsTerm,
    /// `(is_subtraction, term)`, applied left to right.
    rest: Vec<(bool, MdsTerm)>,
}

impl ScalarMdsload {
    /// Try to compile `script` to scalar form. Returns `None` when the hook
    /// is anything but a single-expression linear combination of the
    /// current row's metric fields — callers fall back to running the
    /// compiled hook against the real `MDSs` table. Reads of other rows
    /// (`MDSs[1][…]`), of the pass-2-only `"load"` field, and any call or
    /// comparison all bail, so error behaviour is preserved exactly.
    pub fn extract(script: &Script) -> Option<ScalarMdsload> {
        let [Stmt::Return {
            value: Some(expr), ..
        }] = script.block.stmts.as_slice()
        else {
            return None;
        };
        let mut terms = Vec::new();
        flatten_mds_chain(expr, &mut terms)?;
        let mut it = terms.into_iter();
        let (_, first) = it.next()?;
        Some(ScalarMdsload {
            first,
            rest: it.collect(),
        })
    }

    /// Evaluate against `[auth, all, cpu, mem, q, req, cache_hits,
    /// cache_misses]`.
    pub fn eval(&self, fields: &[f64; 8]) -> f64 {
        let mut acc = self.first.eval(fields);
        for (sub, term) in &self.rest {
            let v = term.eval(fields);
            acc = if *sub { acc - v } else { acc + v };
        }
        acc
    }
}

/// Flatten a left-associative `+`/`-` chain of mdsload terms.
fn flatten_mds_chain(e: &Expr, out: &mut Vec<(bool, MdsTerm)>) -> Option<()> {
    if let Expr::Binary {
        op: op @ (BinOp::Add | BinOp::Sub),
        lhs,
        rhs,
        ..
    } = e
    {
        flatten_mds_chain(lhs, out)?;
        out.push((*op == BinOp::Sub, mds_term_of(rhs)?));
        Some(())
    } else {
        out.push((false, mds_term_of(e)?));
        Some(())
    }
}

/// Match exactly `MDSs[i]["<field>"]` for one of the pass-1 metric fields.
fn current_row_field(e: &Expr) -> Option<usize> {
    let Expr::Index { object, key, .. } = e else {
        return None;
    };
    let Expr::Str(field) = &**key else {
        return None;
    };
    let Expr::Index {
        object: table,
        key: row,
        ..
    } = &**object
    else {
        return None;
    };
    match (&**table, &**row) {
        (Expr::Name(t, _), Expr::Name(r, _)) if t == "MDSs" && r == "i" => mds_field_index(field),
        _ => None,
    }
}

fn mds_term_of(e: &Expr) -> Option<MdsTerm> {
    if let Some(f) = current_row_field(e) {
        return Some(MdsTerm::Field(f));
    }
    match e {
        Expr::Number(n) => Some(MdsTerm::Const(*n)),
        Expr::Unary {
            op: UnOp::Neg,
            operand,
            ..
        } => Some(MdsTerm::Neg(Box::new(mds_term_of(operand)?))),
        Expr::Binary {
            op: BinOp::Mul,
            lhs,
            rhs,
            ..
        } => match (&**lhs, &**rhs) {
            (Expr::Number(c), field) => Some(MdsTerm::CoeffField(*c, current_row_field(field)?)),
            (field, Expr::Number(c)) => Some(MdsTerm::FieldCoeff(current_row_field(field)?, *c)),
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interpreter;
    use crate::parser::parse_expression_script;
    use crate::value::{Table, Value};

    // ---- scalar fast path ----

    fn scalar_of(src: &str) -> Option<ScalarMetaload> {
        ScalarMetaload::extract(&parse_expression_script(src).unwrap())
    }

    fn interp_metaload(src: &str, c: &[f64; 5]) -> f64 {
        let script = parse_expression_script(src).unwrap();
        let mut interp = Interpreter::new();
        for (i, name) in COUNTER_NAMES.iter().enumerate() {
            interp.set_global(name, Value::Number(c[i]));
        }
        interp.run(&script).unwrap().as_number(0).unwrap()
    }

    #[test]
    fn table1_compiles_to_scalar() {
        let s = scalar_of("IRD + 2*IWR + READDIR + 2*FETCH + 4*STORE").unwrap();
        assert!(s.is_homogeneous());
        let c = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(s.eval(&c), 36.0);
    }

    #[test]
    fn shipped_policy_metaloads_compile_to_scalar() {
        for src in [
            "IWR",
            "IWR + IRD",
            "IRD + 2*IWR + READDIR + 2*FETCH + 4*STORE",
        ] {
            let s = scalar_of(src).unwrap_or_else(|| panic!("{src} must be scalar"));
            assert!(s.is_homogeneous(), "{src} must be homogeneous");
        }
    }

    #[test]
    fn scalar_is_bit_identical_to_interpreter() {
        let cases = [
            "IWR",
            "IWR + IRD",
            "IRD + 2*IWR + READDIR + 2*FETCH + 4*STORE",
            "0.1*IRD + 0.3*IWR - 0.7*STORE",
            "IWR*2.5 - -FETCH + 1e-3",
            "3 + IWR - READDIR",
            "-IRD + IWR",
        ];
        let counters = [
            [0.1, 0.2, 0.3, 0.4, 0.5],
            [1e9, 1e-9, 3.3333, 7.77, 0.0],
            [5.5, 2.25, 0.125, 9.0, 1.0 / 3.0],
        ];
        for src in cases {
            let s = scalar_of(src).unwrap_or_else(|| panic!("{src} must be scalar"));
            for c in &counters {
                let fast = s.eval(c);
                let slow = interp_metaload(src, c);
                assert_eq!(
                    fast.to_bits(),
                    slow.to_bits(),
                    "{src} diverged on {c:?}: {fast} vs {slow}"
                );
            }
        }
    }

    #[test]
    fn non_scalar_hooks_fall_back() {
        for src in [
            "IRD * IWR",             // nonlinear
            "max(IRD, IWR)",         // call
            "IRD + unknown",         // unknown name
            "x = IWR return x",      // multi-statement
            "IRD + 2*(IWR + FETCH)", // non-term rhs
            "(IRD + IWR) * 2",       // chain under a multiply
        ] {
            assert!(scalar_of(src).is_none(), "{src} must not compile to scalar");
        }
    }

    #[test]
    fn constant_terms_are_not_homogeneous() {
        assert!(!scalar_of("IWR + 1").unwrap().is_homogeneous());
        assert!(!scalar_of("IWR - -3").unwrap().is_homogeneous());
        assert!(scalar_of("IWR - -FETCH").unwrap().is_homogeneous());
    }

    // ---- scalar mdsload ----

    use std::cell::RefCell;
    use std::rc::Rc;

    fn mds_scalar_of(src: &str) -> Option<ScalarMdsload> {
        ScalarMdsload::extract(&parse_expression_script(src).unwrap())
    }

    #[test]
    fn shipped_mdsload_hooks_compile_to_scalar() {
        // Listing 1 (and every listing balancer), Table 1's weighted sum,
        // and the grid search's queue-aware capacity term.
        for src in [
            "MDSs[i][\"all\"]",
            "0.8*MDSs[i][\"auth\"] + 0.2*MDSs[i][\"all\"] + MDSs[i][\"req\"] + 10*MDSs[i][\"q\"]",
            "MDSs[i][\"all\"] + 10*MDSs[i][\"q\"]",
        ] {
            assert!(mds_scalar_of(src).is_some(), "{src} must be scalar");
        }
    }

    #[test]
    fn scalar_mdsload_is_bit_identical_to_interpreter() {
        let cases = [
            "MDSs[i][\"all\"]",
            "0.8*MDSs[i][\"auth\"] + 0.2*MDSs[i][\"all\"] + MDSs[i][\"req\"] + 10*MDSs[i][\"q\"]",
            "MDSs[i][\"all\"] + 10*MDSs[i][\"q\"]",
            "MDSs[i][\"cpu\"]*0.5 - -MDSs[i][\"mem\"] + 1e-3",
            "-MDSs[i][\"q\"] + 3",
        ];
        let rows = [
            [90.0, 95.0, 85.0, 40.0, 12.0, 700.0, 250.0, 31.0],
            [1e9, 1e-9, 3.3333, 7.77, 0.0, 1.0 / 3.0, 0.0, 1e6],
        ];
        for src in cases {
            let s = mds_scalar_of(src).unwrap_or_else(|| panic!("{src} must be scalar"));
            for fields in &rows {
                // Oracle: run the expression against a real MDSs table.
                let script = parse_expression_script(src).unwrap();
                let row = Table::from_fields(
                    MDS_FIELD_NAMES
                        .iter()
                        .zip(fields)
                        .map(|(k, v)| (*k, Value::Number(*v))),
                );
                let mut mdss = Table::new();
                mdss.set_int(1, Value::Table(Rc::new(RefCell::new(row))));
                let mut interp = Interpreter::new();
                interp.set_global("MDSs", Value::Table(Rc::new(RefCell::new(mdss))));
                interp.set_global("i", Value::Number(1.0));
                let slow = interp.run(&script).unwrap().as_number(0).unwrap();
                let fast = s.eval(fields);
                assert_eq!(
                    fast.to_bits(),
                    slow.to_bits(),
                    "{src} diverged on {fields:?}: {fast} vs {slow}"
                );
            }
        }
    }

    #[test]
    fn non_scalar_mdsload_hooks_fall_back() {
        for src in [
            "MDSs[i][\"load\"]",                 // pass-2-only field (reads nil in pass 1)
            "MDSs[1][\"all\"]",                  // other row
            "MDSs[whoami][\"all\"]",             // not the loop index
            "max(MDSs[i][\"all\"], 1)",          // call
            "MDSs[i][\"all\"] / 2",              // division
            "MDSs[i][\"all\"] * MDSs[i][\"q\"]", // nonlinear
            "allmetaload",                       // plain global
            "x = MDSs[i][\"all\"] return x",     // multi-statement
        ] {
            assert!(
                mds_scalar_of(src).is_none(),
                "{src} must not compile to scalar"
            );
        }
    }
}
