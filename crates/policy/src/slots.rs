//! Slot resolution for policy hooks: the resolve pass that feeds the
//! bytecode engine, plus the scalar fast paths.
//!
//! The tree-walking [`Interpreter`](crate::Interpreter) resolves every
//! variable read and write by hashing its name against a stack of
//! `HashMap<String, Value>` scopes. For the `metaload` hook — which runs
//! once per dirfrag per balancer tick — that hash traffic (plus building a
//! fresh interpreter and re-`set_global`ing the environment per call)
//! dominates the tick cost.
//!
//! This module is the front end of the compiled pipeline: after parsing, a
//! **resolve pass** ([`SlotProgram::compile`]) walks the AST once, mapping
//! every name to an integer slot:
//!
//! * names in lexical scope of a `local` declaration (or a `for` loop
//!   variable) become *local slots* — indices into one flat frame;
//! * everything else becomes a *global slot* — an index into a per-program
//!   global vector whose layout is fixed at compile time.
//!
//! Static resolution is valid because the language subset has no closures,
//! no `goto`, and no `function` definitions: a block's statements execute
//! in source order, so a name read lexically after a `local` declaration
//! in the same (or an enclosing) block is that local, and a read before it
//! is whatever the enclosing scope says — exactly what the dynamic scope
//! stack would have found.
//!
//! The slotted AST is not executed directly: [`crate::bytecode`] lowers it
//! to a flat instruction stream and runs that, **bit-identical** to the
//! tree-walking interpreter (same results, same error messages, same step
//! accounting). The differential tests below, in `bytecode.rs` and in
//! `tests/properties.rs` pin the resolve pass and the VM together against
//! the tree walker.
//!
//! Finally, [`ScalarMetaload`] covers the common case from the paper's
//! Table 1 and every shipped policy: a `metaload` hook that is a linear
//! combination of the five counters. Such hooks compile to a coefficient
//! term list evaluated as a handful of fused multiply-adds — no `Value`
//! boxing, no step counting, no table lookups — while still reproducing
//! the interpreter's result bit for bit (the term list preserves the
//! source's association order).

use std::collections::HashMap;
use std::rc::Rc;

use crate::ast::{BinOp, Block, Expr, LValue, Script, Stmt, UnOp};
use crate::value::{Key, Value};

// ---------------------------------------------------------------------------
// Slotted AST
// ---------------------------------------------------------------------------

/// A statement with all names resolved to slots.
///
/// `pub(crate)` so the bytecode lowering pass (`crate::bytecode`) can
/// consume the slotted AST directly.
#[derive(Debug, Clone)]
pub(crate) enum SStmt {
    Assign {
        target: SLValue,
        value: SExpr,
        line: u32,
    },
    /// `local` declaration: assigns its slot when executed.
    LocalDecl {
        slot: u32,
        value: Option<SExpr>,
    },
    If {
        arms: Vec<(SExpr, Vec<SStmt>)>,
        else_block: Option<Vec<SStmt>>,
    },
    While {
        cond: SExpr,
        body: Vec<SStmt>,
    },
    NumericFor {
        slot: u32,
        start: SExpr,
        stop: SExpr,
        step: Option<SExpr>,
        body: Vec<SStmt>,
        line: u32,
    },
    ExprStmt {
        expr: SExpr,
    },
    Do {
        body: Vec<SStmt>,
    },
    Return {
        value: Option<SExpr>,
    },
    Break,
}

/// An assignable location, resolved.
#[derive(Debug, Clone)]
pub(crate) enum SLValue {
    Local(u32),
    Global(u32),
    Index { object: SExpr, key: SKey },
}

/// An expression with resolved names and pre-interned constant keys.
#[derive(Debug, Clone)]
pub(crate) enum SExpr {
    Nil,
    Bool(bool),
    /// String literals are pre-built `Value::Str`s: evaluating one is an
    /// `Rc` clone, where the tree walker allocates a fresh `Rc<str>`.
    Str(Value),
    Number(f64),
    Local {
        slot: u32,
    },
    Global {
        slot: u32,
    },
    Index {
        object: Box<SExpr>,
        key: SKey,
        line: u32,
    },
    Call {
        callee: Box<SExpr>,
        args: Vec<SExpr>,
        line: u32,
    },
    Unary {
        op: UnOp,
        operand: Box<SExpr>,
        line: u32,
    },
    Binary {
        op: BinOp,
        lhs: Box<SExpr>,
        rhs: Box<SExpr>,
        line: u32,
    },
    TableCtor {
        items: Vec<SExpr>,
        pairs: Vec<(SExpr, SExpr)>,
        line: u32,
    },
}

/// A table key: pre-interned when the source wrote a literal string
/// (`t.auth` / `t["auth"]`), so the hot `MDSs[i]["load"]` lookups never
/// allocate.
#[derive(Debug, Clone)]
pub(crate) enum SKey {
    Const {
        key: Key,
        /// The literal text, shared with `key`, for error messages.
        text: Rc<str>,
    },
    Expr(Box<SExpr>),
}

// ---------------------------------------------------------------------------
// Resolve pass
// ---------------------------------------------------------------------------

/// A script compiled to slot form: the product of the resolve pass.
///
/// Compile once, lower to a [`BytecodeProgram`](crate::BytecodeProgram),
/// then run any number of times, writing the environment into integer
/// slots instead of re-binding names (see the example there).
#[derive(Debug, Clone)]
pub struct SlotProgram {
    body: Vec<SStmt>,
    n_locals: u32,
    globals: Vec<Rc<str>>,
}

impl SlotProgram {
    /// Resolve every name in `script` to a slot.
    pub fn compile(script: &Script) -> SlotProgram {
        let mut r = Resolver {
            globals: Vec::new(),
            by_name: HashMap::new(),
            scopes: vec![HashMap::new()],
            n_locals: 0,
        };
        let body = r.block(&script.block);
        SlotProgram {
            body,
            n_locals: r.n_locals,
            globals: r.globals,
        }
    }

    /// The global slot a name resolved to, if the script mentions it.
    pub fn global_slot(&self, name: &str) -> Option<usize> {
        self.globals.iter().position(|g| &**g == name)
    }

    /// Names of all global slots, in slot order.
    pub fn global_names(&self) -> &[Rc<str>] {
        &self.globals
    }

    /// Number of global slots.
    pub fn n_globals(&self) -> usize {
        self.globals.len()
    }

    /// Size of the local frame.
    pub fn n_locals(&self) -> usize {
        self.n_locals as usize
    }

    /// The slotted statement list, for the bytecode lowering pass.
    pub(crate) fn stmts(&self) -> &[SStmt] {
        &self.body
    }
}

struct Resolver {
    globals: Vec<Rc<str>>,
    by_name: HashMap<String, u32>,
    scopes: Vec<HashMap<String, u32>>,
    n_locals: u32,
}

impl Resolver {
    fn global(&mut self, name: &str) -> u32 {
        if let Some(&slot) = self.by_name.get(name) {
            return slot;
        }
        let slot = self.globals.len() as u32;
        self.globals.push(Rc::from(name));
        self.by_name.insert(name.to_string(), slot);
        slot
    }

    fn lookup_local(&self, name: &str) -> Option<u32> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }

    fn declare_local(&mut self, name: &str) -> u32 {
        let slot = self.n_locals;
        self.n_locals += 1;
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .insert(name.to_string(), slot);
        slot
    }

    fn scoped<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        self.scopes.push(HashMap::new());
        let out = f(self);
        self.scopes.pop();
        out
    }

    fn block(&mut self, b: &Block) -> Vec<SStmt> {
        b.stmts.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, s: &Stmt) -> SStmt {
        match s {
            Stmt::Assign {
                target,
                value,
                line,
            } => SStmt::Assign {
                target: self.lvalue(target),
                value: self.expr(value),
                line: *line,
            },
            Stmt::Local { name, value, .. } => {
                // Initializer resolves before the name is in scope, so
                // `local x = x` reads the outer binding — as at run time.
                let value = value.as_ref().map(|e| self.expr(e));
                let slot = self.declare_local(name);
                SStmt::LocalDecl { slot, value }
            }
            Stmt::If {
                arms, else_block, ..
            } => SStmt::If {
                arms: arms
                    .iter()
                    .map(|(c, b)| {
                        let c = self.expr(c);
                        let b = self.scoped(|r| r.block(b));
                        (c, b)
                    })
                    .collect(),
                else_block: else_block.as_ref().map(|b| self.scoped(|r| r.block(b))),
            },
            Stmt::While { cond, body, .. } => SStmt::While {
                cond: self.expr(cond),
                body: self.scoped(|r| r.block(body)),
            },
            Stmt::NumericFor {
                var,
                start,
                stop,
                step,
                body,
                line,
            } => {
                // Bounds evaluate outside the loop scope.
                let start = self.expr(start);
                let stop = self.expr(stop);
                let step = step.as_ref().map(|e| self.expr(e));
                let (slot, body) = self.scoped(|r| {
                    let slot = r.declare_local(var);
                    (slot, r.block(body))
                });
                SStmt::NumericFor {
                    slot,
                    start,
                    stop,
                    step,
                    body,
                    line: *line,
                }
            }
            Stmt::ExprStmt { expr, .. } => SStmt::ExprStmt {
                expr: self.expr(expr),
            },
            Stmt::Do { body } => SStmt::Do {
                body: self.scoped(|r| r.block(body)),
            },
            Stmt::Return { value, .. } => SStmt::Return {
                value: value.as_ref().map(|e| self.expr(e)),
            },
            Stmt::Break { .. } => SStmt::Break,
        }
    }

    fn lvalue(&mut self, lv: &LValue) -> SLValue {
        match lv {
            LValue::Name(name) => match self.lookup_local(name) {
                Some(slot) => SLValue::Local(slot),
                None => SLValue::Global(self.global(name)),
            },
            LValue::Index { object, key } => SLValue::Index {
                object: self.expr(object),
                key: self.key(key),
            },
        }
    }

    fn key(&mut self, key: &Expr) -> SKey {
        match key {
            Expr::Str(s) => {
                let text: Rc<str> = Rc::from(s.as_str());
                SKey::Const {
                    key: Key::Str(Rc::clone(&text)),
                    text,
                }
            }
            other => SKey::Expr(Box::new(self.expr(other))),
        }
    }

    fn expr(&mut self, e: &Expr) -> SExpr {
        match e {
            Expr::Nil => SExpr::Nil,
            Expr::Bool(b) => SExpr::Bool(*b),
            Expr::Number(n) => SExpr::Number(*n),
            Expr::Str(s) => SExpr::Str(Value::str(s)),
            Expr::Name(name, _) => match self.lookup_local(name) {
                Some(slot) => SExpr::Local { slot },
                None => SExpr::Global {
                    slot: self.global(name),
                },
            },
            Expr::Index { object, key, line } => SExpr::Index {
                object: Box::new(self.expr(object)),
                key: self.key(key),
                line: *line,
            },
            Expr::Call { callee, args, line } => SExpr::Call {
                callee: Box::new(self.expr(callee)),
                args: args.iter().map(|a| self.expr(a)).collect(),
                line: *line,
            },
            Expr::Unary { op, operand, line } => SExpr::Unary {
                op: *op,
                operand: Box::new(self.expr(operand)),
                line: *line,
            },
            Expr::Binary { op, lhs, rhs, line } => SExpr::Binary {
                op: *op,
                lhs: Box::new(self.expr(lhs)),
                rhs: Box::new(self.expr(rhs)),
                line: *line,
            },
            Expr::TableCtor { items, pairs, line } => SExpr::TableCtor {
                items: items.iter().map(|i| self.expr(i)).collect(),
                pairs: pairs
                    .iter()
                    .map(|(k, v)| (self.expr(k), self.expr(v)))
                    .collect(),
                line: *line,
            },
        }
    }
}

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
    use crate::bytecode::tests::differential;
    use crate::interp::Interpreter;
    use crate::parser::parse_expression_script;
    use crate::value::Table;

    // ---- resolve pass: tree walker vs resolve -> bytecode ----
    //
    // The slotted AST has no evaluator of its own, so the resolve pass is
    // checked through the engine it feeds. Budget errors on the same step,
    // VM reuse and the Listing-4 shape are pinned by the same-named tests
    // in `bytecode.rs`.

    #[test]
    fn arithmetic_and_logic_agree() {
        differential("return 1 + 2 * 3 - 4 / 8", &[]);
        differential("return 2 ^ 3 ^ 2", &[]);
        differential("return -7 % 3", &[]);
        differential("return (x > 2) and x or -x", &[("x", 5.0)]);
        differential("return \"n=\" .. 3 .. \"!\"", &[]);
    }

    #[test]
    fn locals_and_scoping_agree() {
        differential("x = 1 local y = 2 x = x + y return x", &[]);
        differential("local x = 1 do local x = 2 end return x", &[]);
        differential("local x = x return x", &[("x", 9.0)]);
        // Read before the `local` in the same block sees the global.
        differential("g = 10 y = g local g = 1 return y + g", &[]);
    }

    #[test]
    fn loops_agree() {
        differential("s = 0 for i = 1, 10 do s = s + i end return s", &[]);
        differential("s = 0 for i = 10, 1, -2 do s = s + i end return s", &[]);
        differential(
            "i = 0 while true do i = i + 1 if i >= 5 then break end end return i",
            &[],
        );
        // Loop-carried local shadowing: iteration 2 must re-resolve like
        // the dynamic scope stack (fresh scope per iteration).
        differential(
            "y = 0 for i = 1, 3 do y = y + v local v = i end return y",
            &[("v", 100.0)],
        );
    }

    #[test]
    fn tables_agree() {
        differential(
            "t = {10, 20, 30} t[4] = 40 t[\"name\"] = 7 return #t + t[2] + t.name",
            &[],
        );
        differential("m = {a = {1, 2}, b = {x = 9}} return m.a[2] + m.b.x", &[]);
    }

    #[test]
    fn natives_agree() {
        differential("return max(3, min(x, 10)) + math.floor(2.7)", &[("x", 7.0)]);
    }

    #[test]
    fn errors_agree() {
        differential("return nothere[\"load\"]", &[]);
        differential("return RDstate()", &[]);
        differential("for i=1,10,0 do end", &[]);
        differential("return 1 < \"2\"", &[]);
        differential("return #x", &[("x", 1.0)]);
    }

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
