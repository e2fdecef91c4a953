//! Linear forms: the shortcut for the two per-item load hooks.
//!
//! `metaload` runs once per dirfrag per balancer tick and `mdsload` once
//! per MDS; in the paper's Table 1 and every shipped policy both are a
//! linear combination of a fixed set of numbers — the five popularity
//! counters, or the current row's metric fields. A hook of that shape is
//! recognised on the AST and compiled to a [`LinearForm`], a coefficient
//! term list evaluated as a handful of multiply-adds: no `Value` boxing,
//! no step counting, no table lookups. The two hooks differ only in what
//! counts as a variable, so there is one extractor and one evaluator, and
//! a [`Leaf`] says which vocabulary the expression is written in.
//!
//! The result is still bit-identical to running the script: the term list
//! keeps the source's association order, so the same IEEE-754 operations
//! happen in the same order on exactly the `f64`s the environment would
//! have held. Anything that is not such an expression (a call, a
//! comparison, another row, an unknown name) is refused by
//! [`LinearForm::extract`] and runs as a compiled hook instead, so error
//! behaviour is preserved exactly. The tests below pin both vocabularies
//! against the tree-walking [`Interpreter`](crate::Interpreter).

use crate::ast::{BinOp, Expr, Script, Stmt, UnOp};

/// Position of each counter in the vector a [`Leaf::Counter`] form is
/// evaluated against: `IRD`, `IWR`, `READDIR`, `FETCH`, `STORE`.
pub const COUNTER_NAMES: [&str; 5] = ["IRD", "IWR", "READDIR", "FETCH", "STORE"];

/// Position of each per-MDS metric in the vector a [`Leaf::MdsField`] form
/// is evaluated against: `auth`, `all`, `cpu`, `mem`, `q`, `req`,
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

/// What counts as a variable of a linear form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leaf {
    /// A bare popularity counter (`IWR`) — the `metaload` vocabulary,
    /// indexed as [`COUNTER_NAMES`].
    Counter,
    /// A metric of the row under evaluation (`MDSs[i]["q"]`) — the
    /// `mdsload` vocabulary, indexed as [`MDS_FIELD_NAMES`]. Reads of other
    /// rows (`MDSs[1][…]`, `MDSs[whoami][…]`) and of the pass-2-only
    /// `"load"` field are not variables.
    MdsField,
}

impl Leaf {
    /// The variable `e` reads, if it is exactly one.
    fn var(self, e: &Expr) -> Option<usize> {
        match (self, e) {
            (Leaf::Counter, Expr::Name(name, _)) => COUNTER_NAMES.iter().position(|n| n == name),
            (Leaf::MdsField, e) => current_row_field(e),
            _ => None,
        }
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
        (Expr::Name(t, _), Expr::Name(r, _)) if t == "MDSs" && r == "i" => {
            MDS_FIELD_NAMES.iter().position(|n| n == field)
        }
        _ => None,
    }
}

/// One term of a linear expression.
#[derive(Debug, Clone, PartialEq)]
enum Term {
    /// A bare variable, e.g. `IWR`.
    Var(usize),
    /// `c * x` (coefficient written first, as in Table 1).
    CoeffVar(f64, usize),
    /// `x * c`.
    VarCoeff(usize, f64),
    /// A numeric literal.
    Const(f64),
    /// Arithmetic negation of a term.
    Neg(Box<Term>),
}

impl Term {
    fn of(e: &Expr, leaf: Leaf) -> Option<Term> {
        if let Some(x) = leaf.var(e) {
            return Some(Term::Var(x));
        }
        match e {
            Expr::Number(n) => Some(Term::Const(*n)),
            Expr::Unary {
                op: UnOp::Neg,
                operand,
                ..
            } => Some(Term::Neg(Box::new(Term::of(operand, leaf)?))),
            Expr::Binary {
                op: BinOp::Mul,
                lhs,
                rhs,
                ..
            } => match (&**lhs, &**rhs) {
                (Expr::Number(c), x) => Some(Term::CoeffVar(*c, leaf.var(x)?)),
                (x, Expr::Number(c)) => Some(Term::VarCoeff(leaf.var(x)?, *c)),
                _ => None,
            },
            _ => None,
        }
    }

    fn eval(&self, vars: &[f64]) -> f64 {
        match self {
            Term::Var(i) => vars[*i],
            Term::CoeffVar(c, i) => c * vars[*i],
            Term::VarCoeff(i, c) => vars[*i] * c,
            Term::Const(c) => *c,
            Term::Neg(t) => -t.eval(vars),
        }
    }

    fn is_homogeneous(&self) -> bool {
        match self {
            Term::Const(_) => false,
            Term::Neg(t) => t.is_homogeneous(),
            _ => true,
        }
    }
}

/// A load hook compiled to a coefficient term list — the shortcut for
/// hooks that are pure arithmetic over their [`Leaf`] vocabulary, which
/// covers Table 1 and every shipped policy.
///
/// Terms are kept in source order and evaluated as the interpreter's
/// left-associative `+`/`-` chain would be, so the result is bit-identical
/// to running the script (same IEEE-754 operations in the same order). For
/// the common `a*IRD + b*IWR + ...` shape this is exactly a dot product
/// against the variable vector.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearForm {
    first: Term,
    /// `(is_subtraction, term)`, applied left to right.
    rest: Vec<(bool, Term)>,
}

impl LinearForm {
    /// Try to compile `script` to linear form. Returns `None` when the hook
    /// is anything but a single-expression linear combination of `leaf`
    /// variables (callers fall back to running the compiled hook).
    pub fn extract(script: &Script, leaf: Leaf) -> Option<LinearForm> {
        let [Stmt::Return {
            value: Some(expr), ..
        }] = script.block.stmts.as_slice()
        else {
            return None;
        };
        let mut terms = Vec::new();
        flatten(expr, leaf, &mut terms)?;
        let mut it = terms.into_iter();
        let (_, first) = it.next()?;
        Some(LinearForm {
            first,
            rest: it.collect(),
        })
    }

    /// Evaluate against the variable vector of the form's [`Leaf`]
    /// (`[ird, iwr, readdir, fetch, store]`, or `[auth, all, cpu, mem, q,
    /// req, cache_hits, cache_misses]`).
    pub fn eval(&self, vars: &[f64]) -> f64 {
        let mut acc = self.first.eval(vars);
        for (sub, term) in &self.rest {
            let v = term.eval(vars);
            acc = if *sub { acc - v } else { acc + v };
        }
        acc
    }

    /// True when the expression has no constant term, i.e. it is a linear
    /// map sending the zero vector to 0. Only such hooks distribute over
    /// sums of variable vectors, which is what lets the cluster evaluate
    /// `metaload` once per MDS on aggregated heat instead of once per
    /// dirfrag.
    pub fn is_homogeneous(&self) -> bool {
        self.first.is_homogeneous() && self.rest.iter().all(|(_, t)| t.is_homogeneous())
    }
}

/// Flatten a left-associative `+`/`-` chain into `(is_sub, term)` pairs.
fn flatten(e: &Expr, leaf: Leaf, out: &mut Vec<(bool, Term)>) -> Option<()> {
    if let Expr::Binary {
        op: op @ (BinOp::Add | BinOp::Sub),
        lhs,
        rhs,
        ..
    } = e
    {
        flatten(lhs, leaf, out)?;
        out.push((*op == BinOp::Sub, Term::of(rhs, leaf)?));
    } else {
        out.push((false, Term::of(e, leaf)?));
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interpreter;
    use crate::parser::parse_expression_script;
    use crate::test_rng::Rng;
    use crate::value::{Table, Value};

    fn form_of(src: &str, leaf: Leaf) -> Option<LinearForm> {
        LinearForm::extract(&parse_expression_script(src).unwrap(), leaf)
    }

    /// The reference: run `src` on the tree interpreter with `vars` bound
    /// the way the real environment binds them for `leaf`.
    fn interp_eval(src: &str, leaf: Leaf, vars: &[f64]) -> f64 {
        let script = parse_expression_script(src).unwrap();
        let mut interp = Interpreter::new();
        match leaf {
            Leaf::Counter => {
                for (name, v) in COUNTER_NAMES.iter().zip(vars) {
                    interp.set_global(name, Value::Number(*v));
                }
            }
            Leaf::MdsField => {
                let row = Table::from_fields(
                    MDS_FIELD_NAMES
                        .iter()
                        .zip(vars)
                        .map(|(k, v)| (*k, Value::Number(*v))),
                );
                interp.set_global("MDSs", Value::table(Table::from_array([Value::table(row)])));
                interp.set_global("i", Value::Number(1.0));
            }
        }
        interp.run(&script).unwrap().as_number(0).unwrap()
    }

    fn assert_bit_identical(src: &str, leaf: Leaf, vars: &[f64]) {
        let form = form_of(src, leaf).unwrap_or_else(|| panic!("{src} must be linear"));
        let (fast, slow) = (form.eval(vars), interp_eval(src, leaf, vars));
        assert_eq!(
            fast.to_bits(),
            slow.to_bits(),
            "{src} diverged on {vars:?}: {fast} vs {slow}"
        );
    }

    // ---- counter vocabulary (metaload) ----

    #[test]
    fn table1_compiles_to_scalar() {
        let s = form_of("IRD + 2*IWR + READDIR + 2*FETCH + 4*STORE", Leaf::Counter).unwrap();
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
            let s = form_of(src, Leaf::Counter).unwrap_or_else(|| panic!("{src} must be linear"));
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
            for c in &counters {
                assert_bit_identical(src, Leaf::Counter, c);
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
            "MDSs[i][\"all\"]",      // the other vocabulary
        ] {
            assert!(
                form_of(src, Leaf::Counter).is_none(),
                "{src} must not compile to a linear form"
            );
        }
    }

    #[test]
    fn constant_terms_are_not_homogeneous() {
        assert!(!form_of("IWR + 1", Leaf::Counter).unwrap().is_homogeneous());
        assert!(!form_of("IWR - -3", Leaf::Counter).unwrap().is_homogeneous());
        assert!(form_of("IWR - -FETCH", Leaf::Counter)
            .unwrap()
            .is_homogeneous());
    }

    // ---- row-field vocabulary (mdsload) ----

    #[test]
    fn shipped_mdsload_hooks_compile_to_scalar() {
        // Listing 1 (and every listing balancer), Table 1's weighted sum,
        // and the grid search's queue-aware capacity term.
        for src in [
            "MDSs[i][\"all\"]",
            "0.8*MDSs[i][\"auth\"] + 0.2*MDSs[i][\"all\"] + MDSs[i][\"req\"] + 10*MDSs[i][\"q\"]",
            "MDSs[i][\"all\"] + 10*MDSs[i][\"q\"]",
        ] {
            assert!(
                form_of(src, Leaf::MdsField).is_some(),
                "{src} must be linear"
            );
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
            for fields in &rows {
                assert_bit_identical(src, Leaf::MdsField, fields);
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
            "IWR",                               // the other vocabulary
        ] {
            assert!(
                form_of(src, Leaf::MdsField).is_none(),
                "{src} must not compile to a linear form"
            );
        }
    }

    // ---- both vocabularies, random chains ----

    fn leaf_source(leaf: Leaf, rng: &mut Rng) -> String {
        match leaf {
            Leaf::Counter => COUNTER_NAMES[rng.below(5) as usize].to_string(),
            Leaf::MdsField => format!("MDSs[i][\"{}\"]", MDS_FIELD_NAMES[rng.below(8) as usize]),
        }
    }

    fn random_term(leaf: Leaf, rng: &mut Rng) -> String {
        let x = leaf_source(leaf, rng);
        match rng.below(5) {
            0 => x,
            1 => format!("{:?}*{x}", rng.f64()),
            2 => format!("{x}*{:?}", rng.f64()),
            3 => format!("{:?}", rng.f64()),
            // Unary minus binds tighter than `*`, so only variables,
            // literals and other negations can sit under one and stay a
            // term. The space keeps `- -x` from lexing as a `--` comment.
            _ => loop {
                let t = random_term(leaf, rng);
                if !t.contains('*') {
                    break format!("- {t}");
                }
            },
        }
    }

    #[test]
    fn random_chains_match_the_interpreter_and_everything_else_is_refused() {
        let mut rng = Rng(0x6c69_6e65_6172);
        for leaf in [Leaf::Counter, Leaf::MdsField] {
            for _ in 0..300 {
                let mut src = random_term(leaf, &mut rng);
                for _ in 0..rng.below(6) {
                    let op = if rng.below(2) == 0 { "+" } else { "-" };
                    src = format!("{src} {op} {}", random_term(leaf, &mut rng));
                }
                let vars: Vec<f64> = (0..8).map(|_| rng.f64()).collect();
                assert_bit_identical(&src, leaf, &vars);

                // One step outside the grammar — any operator but `+`/`-`
                // joining two terms, a product of variables, a call, a
                // parenthesised sum under a product — and the whole hook is
                // refused, whatever else it contains.
                let x = leaf_source(leaf, &mut rng);
                let alien = match rng.below(5) {
                    0 => format!("{x} / 2"),
                    1 => format!("{x} * {x}"),
                    2 => format!("max({x}, 1)"),
                    3 => format!("2 * ({x} + 1)"),
                    _ => format!("{x} ^ 2"),
                };
                for bad in [format!("{src} + {alien}"), format!("{alien} - {src}")] {
                    assert!(form_of(&bad, leaf).is_none(), "{bad} must be refused");
                }
            }
        }
    }
}
