//! Flat register bytecode for policy hooks: a one-pass compiler + a
//! dispatch-loop VM.
//!
//! The tree-walking [`Interpreter`](crate::Interpreter) resolves every
//! variable read and write by hashing its name against a stack of
//! `HashMap<String, Value>` scopes and executes a recursive `match` per
//! statement and expression node. For
//! hooks that run once per dirfrag or per MDS per balancer tick, that hash
//! traffic and the call/return per node per loop iteration dominate the
//! tick. Compiled hooks therefore take two stages, parse → lower:
//! [`BytecodeProgram::compile`] walks the parsed [`Script`] once and emits a
//! linear instruction stream (control flow becomes pre-patched jumps,
//! operands are register/slot indices), and [`BytecodeVm`] executes it in a
//! single non-recursive dispatch loop.
//!
//! # Name resolution
//!
//! Names are resolved to integer slots at the moment the node that
//! mentions them is lowered:
//!
//! * names in lexical scope of a `local` declaration (or a `for` loop
//!   variable) become *local slots* — indices into one flat frame;
//! * everything else becomes a *global slot* — an index into a per-program
//!   global vector whose layout is fixed at compile time and which the
//!   host addresses through [`BytecodeProgram::global_slot`].
//!
//! Static resolution is valid because the language subset has no closures,
//! no `goto`, and no `function` definitions: a block's statements execute
//! in source order, so a name read lexically after a `local` declaration
//! in the same (or an enclosing) block is that local, and a read before it
//! is whatever the enclosing scope says — exactly what the dynamic scope
//! stack would have found.
//!
//! # Bit-identity with the tree interpreter
//!
//! The VM is pinned bit-identical to the tree interpreter: same `f64`
//! results (`to_bits`-equal), same [`steps_used`] after a run, same errors
//! on the same source lines — including
//! [`BudgetExhausted`](crate::PolicyError::BudgetExhausted) firing on the
//! same script step. Differential tests below, in `tests/properties.rs`,
//! and in `tests/docs_examples.rs` hold the two engines together.
//!
//! # Step accounting
//!
//! The tree walker charges one step at the *entry* of every statement
//! (except `do` blocks) and every expression node, pre-order, plus one step
//! per loop-iteration check and one for each constant-key index (where it
//! evaluates the literal key expression). A post-order instruction stream
//! executes an operation *after* its operands, so charging at the operation
//! would reorder charges against runtime errors and change which error a
//! tight budget surfaces. Instead, every instruction carries a `charge`
//! field and the lowering pass folds each AST node's entry charge onto the
//! **first instruction emitted for that node's code** — which is the first
//! instruction of its leftmost descendant. Between a node's entry charge
//! and its leftmost descendant's entry charge the tree walker executes
//! nothing fallible, so consecutive charges collapse into one instruction's
//! `charge` without reordering anything observable; when a batched charge
//! crosses the budget, `steps` is clamped to `budget + 1`, exactly where
//! the one-at-a-time walker stops. Charges that are *not* consecutive with
//! an entry chain (per-iteration loop checks, constant-key steps) stay on
//! their own instruction (the `ForLoop` op, the `Index`/`SetIndex` const
//! forms, the re-charged loop-head of `while`).
//!
//! [`steps_used`]: BytecodeVm::steps_used

use std::collections::HashMap;
use std::rc::Rc;

use crate::ast::{BinOp, Block, Expr, LValue, Script, Stmt, UnOp};
use crate::error::{PolicyError, PolicyResult};
use crate::interp::{compare, concat_operand, StepBudget};
use crate::value::{HostState, Key, Table, Value};

// ---------------------------------------------------------------------------
// Instruction set
// ---------------------------------------------------------------------------

/// One decoded instruction: a step charge applied at entry, then an
/// operation.
#[derive(Debug, Clone)]
struct Instr {
    /// Steps to charge before executing `op` (0 for most interior ops; the
    /// folded entry charges of the AST nodes whose code begins here).
    charge: u32,
    op: Op,
}

/// Operations. Registers (`dst`/`src`/`obj`/...) index the VM's register
/// file; `slot` fields index the VM's local and global frames.
#[derive(Debug, Clone)]
enum Op {
    LoadNil {
        dst: u32,
    },
    LoadBool {
        dst: u32,
        v: bool,
    },
    LoadNum {
        dst: u32,
        v: f64,
    },
    /// Pre-built `Value::Str`: evaluating is an `Rc` clone.
    LoadStr {
        dst: u32,
        v: Value,
    },
    LoadLocal {
        dst: u32,
        slot: u32,
    },
    LoadGlobal {
        dst: u32,
        slot: u32,
    },
    StoreLocal {
        slot: u32,
        src: u32,
    },
    StoreLocalNil {
        slot: u32,
    },
    StoreGlobal {
        slot: u32,
        src: u32,
    },
    /// `dst = obj[key]` with an interned constant key. `charge` includes
    /// the constant-key step the tree walker pays evaluating the literal.
    IndexConst {
        dst: u32,
        obj: u32,
        key: Key,
        text: Rc<str>,
        line: u32,
    },
    /// `dst = obj[key]` with a computed key.
    IndexExpr {
        dst: u32,
        obj: u32,
        key: u32,
        line: u32,
    },
    /// `obj[key] = src` with an interned constant key (charge as above).
    SetIndexConst {
        obj: u32,
        key: Key,
        src: u32,
        line: u32,
    },
    /// `obj[key] = src` with a computed key.
    SetIndexExpr {
        obj: u32,
        key: u32,
        src: u32,
        line: u32,
    },
    /// `dst = callee(regs[base..base+n_args])`.
    Call {
        dst: u32,
        callee: u32,
        base: u32,
        n_args: u32,
        line: u32,
    },
    Neg {
        dst: u32,
        src: u32,
        line: u32,
    },
    Not {
        dst: u32,
        src: u32,
    },
    Len {
        dst: u32,
        src: u32,
        line: u32,
    },
    /// Add/Sub/Mul/Div/Mod/Pow.
    Arith {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
        line: u32,
    },
    Concat {
        dst: u32,
        lhs: u32,
        rhs: u32,
        line: u32,
    },
    /// `==` / `~=` (negate).
    Eq {
        dst: u32,
        lhs: u32,
        rhs: u32,
        negate: bool,
    },
    /// Lt/Le/Gt/Ge.
    Cmp {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
        line: u32,
    },
    Jump {
        target: u32,
    },
    /// Jump when `src` is falsy, leaving the operand in place (`and`
    /// short-circuit, `if`/`while` exits).
    JumpIfFalse {
        src: u32,
        target: u32,
    },
    /// Jump when `src` is truthy (`or` short-circuit).
    JumpIfTrue {
        src: u32,
        target: u32,
    },
    NewTable {
        dst: u32,
    },
    /// Positional constructor item: `table[idx] = src`.
    TableAppend {
        table: u32,
        idx: i64,
        src: u32,
    },
    /// `[k] = v` constructor pair.
    TableSetPair {
        table: u32,
        key: u32,
        val: u32,
        line: u32,
    },
    /// `frame.i = tonumber(src)` — numeric-for start bound.
    ForNumStart {
        frame: u32,
        src: u32,
        line: u32,
    },
    /// `frame.stop = tonumber(src)`.
    ForNumStop {
        frame: u32,
        src: u32,
        line: u32,
    },
    /// `frame.step = tonumber(src)`.
    ForNumStep {
        frame: u32,
        src: u32,
        line: u32,
    },
    /// Zero-step check; installs the default step of 1.0 when the source
    /// omitted one.
    ForPrep {
        frame: u32,
        default_step: bool,
        line: u32,
    },
    /// Per-iteration check: charges one step (like the walker's loop-top
    /// `step()`), then either writes the loop variable and falls through or
    /// jumps to `end`.
    ForLoop {
        frame: u32,
        slot: u32,
        end: u32,
    },
    /// `frame.i += frame.step`, jump back to the `ForLoop` at `back`.
    ForNext {
        frame: u32,
        back: u32,
    },
    Return {
        src: u32,
    },
    ReturnNil,
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

/// A hook script compiled to flat bytecode.
///
/// Compile once, then run any number of times, writing the environment
/// into integer slots instead of re-binding names:
///
/// ```
/// use mantle_policy::{compile, BytecodeProgram, BytecodeVm, StepBudget, Value};
///
/// let script = compile("score = 0 for i = 1, n do score = score + i end return score")?;
/// let bc = BytecodeProgram::compile(&script);
/// let n_slot = bc.global_slot("n").expect("script reads `n`");
///
/// let mut vm = BytecodeVm::new(&bc, StepBudget::default());
/// let base: Vec<Value> = bc.global_names().iter().map(|_| Value::Nil).collect();
/// for (n, expected) in [(3.0, 6.0), (10.0, 55.0)] {
///     vm.reset_globals(&base);
///     vm.set_global(n_slot, Value::Number(n));
///     assert_eq!(vm.run(&bc)?.as_number(0)?, expected);
/// }
/// # Ok::<(), mantle_policy::PolicyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BytecodeProgram {
    code: Vec<Instr>,
    n_regs: u32,
    n_frames: u32,
    n_locals: u32,
    /// Global slot names, in slot order.
    globals: Vec<Rc<str>>,
}

impl BytecodeProgram {
    /// Compile a parsed script: resolve every name to a slot and lower the
    /// AST to bytecode, in one walk.
    pub fn compile(script: &Script) -> BytecodeProgram {
        let mut l = Lower {
            code: Vec::new(),
            pending: 0,
            n_regs: 0,
            n_frames: 0,
            loops: Vec::new(),
            top_breaks: Vec::new(),
            globals: Vec::new(),
            by_name: HashMap::new(),
            scopes: vec![HashMap::new()],
            n_locals: 0,
        };
        l.block(&script.block);
        let end = l.code.len() as u32;
        for pc in l.top_breaks.clone() {
            l.patch(pc, end);
        }
        debug_assert_eq!(l.pending, 0, "unconsumed step charge after lowering");
        BytecodeProgram {
            code: l.code,
            n_regs: l.n_regs,
            n_frames: l.n_frames,
            n_locals: l.n_locals,
            globals: l.globals,
        }
    }

    /// Number of instructions in the stream.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// True when the source script was empty.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// The global slot a name resolved to, if the script mentions it.
    pub fn global_slot(&self, name: &str) -> Option<usize> {
        self.globals.iter().position(|g| &**g == name)
    }

    /// Names of all global slots, in slot order.
    pub fn global_names(&self) -> &[Rc<str>] {
        &self.globals
    }

    /// Names of the global slots some instruction reads and none writes,
    /// sorted: the names the environment has to supply.
    pub(crate) fn unassigned_reads(&self) -> Vec<&str> {
        let mut read = vec![false; self.globals.len()];
        let mut written = vec![false; self.globals.len()];
        for instr in &self.code {
            match instr.op {
                Op::LoadGlobal { slot, .. } => read[slot as usize] = true,
                Op::StoreGlobal { slot, .. } => written[slot as usize] = true,
                _ => {}
            }
        }
        let mut names: Vec<&str> = self
            .globals
            .iter()
            .enumerate()
            .filter(|&(slot, _)| read[slot] && !written[slot])
            .map(|(_, name)| &**name)
            .collect();
        names.sort_unstable();
        names
    }

    /// The global frame a run starts from: every host binding the script
    /// mentions at its slot, `Nil` everywhere else.
    pub fn base_frame(&self, host: &[(&'static str, Value)]) -> Vec<Value> {
        let bound = |name: &str| host.iter().find(|(n, _)| *n == name);
        self.globals
            .iter()
            .map(|name| bound(name).map_or(Value::Nil, |(_, v)| v.clone()))
            .collect()
    }
}

struct Lower<'a> {
    code: Vec<Instr>,
    /// Entry charges accumulated since the last emitted instruction; folded
    /// onto the next `emit`.
    pending: u32,
    n_regs: u32,
    n_frames: u32,
    /// Break-jump patch lists, one per enclosing loop.
    loops: Vec<Vec<usize>>,
    /// Breaks with no enclosing loop: the walker unwinds to the end of the
    /// program (yielding `Nil`), so these jump past the last instruction.
    top_breaks: Vec<usize>,
    /// Global slot names in slot order, and the reverse map.
    globals: Vec<Rc<str>>,
    by_name: HashMap<&'a str, u32>,
    /// Lexical scopes of `local` names currently visible, innermost last.
    scopes: Vec<HashMap<&'a str, u32>>,
    n_locals: u32,
}

impl<'a> Lower<'a> {
    fn emit(&mut self, op: Op) -> usize {
        self.emit_extra(0, op)
    }

    /// Emit with `extra` non-entry charges (const-key steps, per-iteration
    /// loop steps) on top of any pending entry charges.
    fn emit_extra(&mut self, extra: u32, op: Op) -> usize {
        let charge = std::mem::take(&mut self.pending) + extra;
        self.code.push(Instr { charge, op });
        self.code.len() - 1
    }

    fn patch(&mut self, pc: usize, target: u32) {
        match &mut self.code[pc].op {
            Op::Jump { target: t }
            | Op::JumpIfFalse { target: t, .. }
            | Op::JumpIfTrue { target: t, .. }
            | Op::ForLoop { end: t, .. } => *t = target,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    /// The global slot for `name`, allocated on first mention.
    fn global(&mut self, name: &'a str) -> u32 {
        if let Some(&slot) = self.by_name.get(name) {
            return slot;
        }
        let slot = self.globals.len() as u32;
        self.globals.push(Rc::from(name));
        self.by_name.insert(name, slot);
        slot
    }

    fn lookup_local(&self, name: &str) -> Option<u32> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }

    fn declare_local(&mut self, name: &'a str) -> u32 {
        let slot = self.n_locals;
        self.n_locals += 1;
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .insert(name, slot);
        slot
    }

    /// Allocate global slots for the free names of `e`, in source order,
    /// without emitting code.
    fn reserve_globals(&mut self, e: &'a Expr) {
        match e {
            Expr::Nil | Expr::Bool(_) | Expr::Number(_) | Expr::Str(_) => {}
            Expr::Name(name, _) => {
                if self.lookup_local(name).is_none() {
                    self.global(name);
                }
            }
            Expr::Index { object, key, .. } => {
                self.reserve_globals(object);
                self.reserve_globals(key);
            }
            Expr::Call { callee, args, .. } => {
                self.reserve_globals(callee);
                args.iter().for_each(|a| self.reserve_globals(a));
            }
            Expr::Unary { operand, .. } => self.reserve_globals(operand),
            Expr::Binary { lhs, rhs, .. } => {
                self.reserve_globals(lhs);
                self.reserve_globals(rhs);
            }
            Expr::TableCtor { items, pairs, .. } => {
                items.iter().for_each(|i| self.reserve_globals(i));
                for (k, v) in pairs {
                    self.reserve_globals(k);
                    self.reserve_globals(v);
                }
            }
        }
    }

    fn block(&mut self, b: &'a Block) {
        for s in &b.stmts {
            self.stmt(s);
        }
    }

    /// Lower a block in a scope of its own: `local`s declared inside are
    /// invisible once it ends.
    fn scoped_block(&mut self, b: &'a Block) {
        self.scopes.push(HashMap::new());
        self.block(b);
        self.scopes.pop();
    }

    fn stmt(&mut self, s: &'a Stmt) {
        match s {
            Stmt::Assign {
                target,
                value,
                line,
            } => {
                self.pending += 1;
                match target {
                    LValue::Name(name) => {
                        // The target resolves before the value is lowered,
                        // so a first-mentioned global is numbered in source
                        // order.
                        let store = match self.lookup_local(name) {
                            Some(slot) => Op::StoreLocal { slot, src: 0 },
                            None => Op::StoreGlobal {
                                slot: self.global(name),
                                src: 0,
                            },
                        };
                        self.expr(value, 0);
                        self.emit(store);
                    }
                    LValue::Index { object, key } => {
                        // Globals are numbered in source order (target
                        // first); code runs in walker order: value, then
                        // object, then key.
                        self.reserve_globals(object);
                        self.reserve_globals(key);
                        self.expr(value, 0);
                        self.expr(object, 1);
                        match key {
                            Expr::Str(s) => {
                                self.emit_extra(
                                    1,
                                    Op::SetIndexConst {
                                        obj: 1,
                                        key: Key::Str(Rc::from(s.as_str())),
                                        src: 0,
                                        line: *line,
                                    },
                                );
                            }
                            k => {
                                self.expr(k, 2);
                                self.emit(Op::SetIndexExpr {
                                    obj: 1,
                                    key: 2,
                                    src: 0,
                                    line: *line,
                                });
                            }
                        }
                    }
                }
            }
            Stmt::Local { name, value, .. } => {
                self.pending += 1;
                // The initializer is lowered before the name is in scope,
                // so `local x = x` reads the outer binding — as at run time.
                if let Some(e) = value {
                    self.expr(e, 0);
                }
                let slot = self.declare_local(name);
                self.emit(match value {
                    Some(_) => Op::StoreLocal { slot, src: 0 },
                    None => Op::StoreLocalNil { slot },
                });
            }
            Stmt::If {
                arms, else_block, ..
            } => {
                // One entry charge for the whole statement, folded into the
                // first arm's condition; later arms charge only their own
                // condition entries (evaluated only when reached).
                self.pending += 1;
                let mut end_jumps = Vec::new();
                let n = arms.len();
                for (i, (cond, body)) in arms.iter().enumerate() {
                    self.expr(cond, 0);
                    let skip = self.emit(Op::JumpIfFalse { src: 0, target: 0 });
                    self.scoped_block(body);
                    let last_arm = i + 1 == n && else_block.is_none();
                    if !last_arm {
                        end_jumps.push(self.emit(Op::Jump { target: 0 }));
                    }
                    let here = self.here();
                    self.patch(skip, here);
                }
                if let Some(body) = else_block {
                    self.scoped_block(body);
                }
                let end = self.here();
                for j in end_jumps {
                    self.patch(j, end);
                }
            }
            Stmt::While { cond, body, .. } => {
                // The statement's step is charged once per iteration check
                // in the walker; the back-jump re-enters the condition's
                // first instruction, which carries it.
                self.pending += 1;
                let head = self.here();
                self.expr(cond, 0);
                let exit = self.emit(Op::JumpIfFalse { src: 0, target: 0 });
                self.loops.push(Vec::new());
                self.scoped_block(body);
                self.emit(Op::Jump { target: head });
                let end = self.here();
                self.patch(exit, end);
                for b in self.loops.pop().expect("loop stack") {
                    self.patch(b, end);
                }
            }
            Stmt::NumericFor {
                var,
                start,
                stop,
                step,
                body,
                line,
            } => {
                self.pending += 1;
                let frame = self.n_frames;
                self.n_frames += 1;
                // Bounds are lowered outside the loop scope.
                self.expr(start, 0);
                self.emit(Op::ForNumStart {
                    frame,
                    src: 0,
                    line: *line,
                });
                self.expr(stop, 0);
                self.emit(Op::ForNumStop {
                    frame,
                    src: 0,
                    line: *line,
                });
                if let Some(e) = step {
                    self.expr(e, 0);
                    self.emit(Op::ForNumStep {
                        frame,
                        src: 0,
                        line: *line,
                    });
                }
                self.emit(Op::ForPrep {
                    frame,
                    default_step: step.is_none(),
                    line: *line,
                });
                // The loop variable lives in the body's scope.
                self.scopes.push(HashMap::new());
                let slot = self.declare_local(var);
                let head = self.here();
                let loop_pc = self.emit_extra(
                    1,
                    Op::ForLoop {
                        frame,
                        slot,
                        end: 0,
                    },
                );
                self.loops.push(Vec::new());
                self.block(body);
                self.scopes.pop();
                self.emit(Op::ForNext { frame, back: head });
                let end = self.here();
                self.patch(loop_pc, end);
                for b in self.loops.pop().expect("loop stack") {
                    self.patch(b, end);
                }
            }
            Stmt::ExprStmt { expr, .. } => {
                self.pending += 1;
                self.expr(expr, 0);
            }
            Stmt::Do { body } => self.scoped_block(body),
            Stmt::Return { value, .. } => {
                self.pending += 1;
                match value {
                    Some(e) => {
                        self.expr(e, 0);
                        self.emit(Op::Return { src: 0 });
                    }
                    None => {
                        self.emit(Op::ReturnNil);
                    }
                }
            }
            Stmt::Break { .. } => {
                self.pending += 1;
                let j = self.emit(Op::Jump { target: 0 });
                match self.loops.last_mut() {
                    Some(l) => l.push(j),
                    None => self.top_breaks.push(j),
                }
            }
        }
    }

    /// Lower an expression into `dst`, using registers `dst..` as scratch.
    fn expr(&mut self, e: &'a Expr, dst: u32) {
        self.pending += 1;
        self.n_regs = self.n_regs.max(dst + 1);
        match e {
            Expr::Nil => {
                self.emit(Op::LoadNil { dst });
            }
            Expr::Bool(b) => {
                self.emit(Op::LoadBool { dst, v: *b });
            }
            Expr::Number(n) => {
                self.emit(Op::LoadNum { dst, v: *n });
            }
            Expr::Str(s) => {
                self.emit(Op::LoadStr {
                    dst,
                    v: Value::str(s),
                });
            }
            Expr::Name(name, _) => {
                let load = match self.lookup_local(name) {
                    Some(slot) => Op::LoadLocal { dst, slot },
                    None => Op::LoadGlobal {
                        dst,
                        slot: self.global(name),
                    },
                };
                self.emit(load);
            }
            Expr::Index { object, key, line } => {
                self.expr(object, dst);
                match &**key {
                    // A literal string key (`t.auth` / `t["auth"]`) is
                    // interned here, so the hot `MDSs[i]["load"]` lookups
                    // never allocate; `text` shares it for error messages.
                    Expr::Str(s) => {
                        let text: Rc<str> = Rc::from(s.as_str());
                        self.emit_extra(
                            1,
                            Op::IndexConst {
                                dst,
                                obj: dst,
                                key: Key::Str(Rc::clone(&text)),
                                text,
                                line: *line,
                            },
                        );
                    }
                    k => {
                        self.expr(k, dst + 1);
                        self.emit(Op::IndexExpr {
                            dst,
                            obj: dst,
                            key: dst + 1,
                            line: *line,
                        });
                    }
                }
            }
            Expr::Call { callee, args, line } => {
                self.expr(callee, dst);
                for (i, a) in args.iter().enumerate() {
                    self.expr(a, dst + 1 + i as u32);
                }
                self.emit(Op::Call {
                    dst,
                    callee: dst,
                    base: dst + 1,
                    n_args: args.len() as u32,
                    line: *line,
                });
            }
            Expr::Unary { op, operand, line } => {
                self.expr(operand, dst);
                match op {
                    UnOp::Neg => {
                        self.emit(Op::Neg {
                            dst,
                            src: dst,
                            line: *line,
                        });
                    }
                    UnOp::Not => {
                        self.emit(Op::Not { dst, src: dst });
                    }
                    UnOp::Len => {
                        self.emit(Op::Len {
                            dst,
                            src: dst,
                            line: *line,
                        });
                    }
                }
            }
            Expr::Binary { op, lhs, rhs, line } => match op {
                BinOp::And => {
                    self.expr(lhs, dst);
                    let j = self.emit(Op::JumpIfFalse {
                        src: dst,
                        target: 0,
                    });
                    self.expr(rhs, dst);
                    let here = self.here();
                    self.patch(j, here);
                }
                BinOp::Or => {
                    self.expr(lhs, dst);
                    let j = self.emit(Op::JumpIfTrue {
                        src: dst,
                        target: 0,
                    });
                    self.expr(rhs, dst);
                    let here = self.here();
                    self.patch(j, here);
                }
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod | BinOp::Pow => {
                    self.expr(lhs, dst);
                    self.expr(rhs, dst + 1);
                    self.emit(Op::Arith {
                        op: *op,
                        dst,
                        lhs: dst,
                        rhs: dst + 1,
                        line: *line,
                    });
                }
                BinOp::Concat => {
                    self.expr(lhs, dst);
                    self.expr(rhs, dst + 1);
                    self.emit(Op::Concat {
                        dst,
                        lhs: dst,
                        rhs: dst + 1,
                        line: *line,
                    });
                }
                BinOp::Eq | BinOp::Ne => {
                    self.expr(lhs, dst);
                    self.expr(rhs, dst + 1);
                    self.emit(Op::Eq {
                        dst,
                        lhs: dst,
                        rhs: dst + 1,
                        negate: *op == BinOp::Ne,
                    });
                }
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    self.expr(lhs, dst);
                    self.expr(rhs, dst + 1);
                    self.emit(Op::Cmp {
                        op: *op,
                        dst,
                        lhs: dst,
                        rhs: dst + 1,
                        line: *line,
                    });
                }
            },
            Expr::TableCtor { items, pairs, line } => {
                // NewTable runs before the item/pair code, carrying the
                // constructor's entry charge — the same position the walker
                // charges it.
                self.emit(Op::NewTable { dst });
                for (i, item) in items.iter().enumerate() {
                    self.expr(item, dst + 1);
                    self.emit(Op::TableAppend {
                        table: dst,
                        idx: i as i64 + 1,
                        src: dst + 1,
                    });
                }
                for (k, v) in pairs {
                    self.expr(k, dst + 1);
                    self.expr(v, dst + 2);
                    self.emit(Op::TableSetPair {
                        table: dst,
                        key: dst + 1,
                        val: dst + 2,
                        line: *line,
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// VM
// ---------------------------------------------------------------------------

/// Loop state for one `for` statement (statically allocated: the subset has
/// no recursion, so each `NumericFor` needs exactly one frame).
#[derive(Debug, Clone, Copy, Default)]
struct ForFrame {
    i: f64,
    stop: f64,
    step: f64,
}

/// Executes [`BytecodeProgram`]s against reusable flat frames.
///
/// One VM serves every program its owner runs — the frames resize to the
/// program at hand — and is reused across runs: resetting the environment
/// between runs is a clone of the program's base global frame
/// (reference-count bumps, no heap allocation) instead of re-building an
/// interpreter and re-hashing every `set_global`.
pub struct BytecodeVm {
    globals: Vec<Value>,
    locals: Vec<Value>,
    regs: Vec<Value>,
    frames: Vec<ForFrame>,
    steps: u64,
    budget: StepBudget,
    host: HostState,
}

impl BytecodeVm {
    /// A fresh VM sized for `prog`.
    pub fn new(prog: &BytecodeProgram, budget: StepBudget) -> BytecodeVm {
        BytecodeVm {
            globals: vec![Value::Nil; prog.globals.len()],
            locals: vec![Value::Nil; prog.n_locals as usize],
            regs: vec![Value::Nil; prog.n_regs as usize],
            frames: vec![ForFrame::default(); prog.n_frames as usize],
            steps: 0,
            budget,
            host: HostState::default(),
        }
    }

    /// Overwrite the whole global frame from a base image. `base` must have
    /// one entry per global slot of the program about to run.
    pub fn reset_globals(&mut self, base: &[Value]) {
        base.clone_into(&mut self.globals);
    }

    /// Write one global slot (slot indices come from
    /// [`BytecodeProgram::global_slot`]).
    pub fn set_global(&mut self, slot: usize, value: Value) {
        self.globals[slot] = value;
    }

    /// Read one global slot.
    pub fn get_global(&self, slot: usize) -> &Value {
        &self.globals[slot]
    }

    /// Steps consumed by the last run.
    pub fn steps_used(&self) -> u64 {
        self.steps
    }

    /// The step budget every run is held to.
    pub fn budget(&self) -> StepBudget {
        self.budget
    }

    /// The host state native functions are handed (survives across runs).
    pub fn host_mut(&mut self) -> &mut HostState {
        &mut self.host
    }

    #[inline]
    fn charge(&mut self, n: u32) -> PolicyResult<()> {
        let next = self.steps + n as u64;
        if next > self.budget.0 {
            // The one-at-a-time walker stops on the increment that crosses
            // the budget, leaving `steps == budget + 1`.
            self.steps = self.budget.0 + 1;
            return Err(PolicyError::BudgetExhausted {
                budget: self.budget.0,
            });
        }
        self.steps = next;
        Ok(())
    }

    /// Execute a program; returns its `return` value (or `Nil`).
    ///
    /// Register, local, and for-frame state is sized to the program but
    /// needs no reset between runs — not even after a different program's:
    /// every read is dominated by a write in the instruction stream.
    pub fn run(&mut self, prog: &BytecodeProgram) -> PolicyResult<Value> {
        debug_assert_eq!(self.globals.len(), prog.globals.len());
        self.locals.resize(prog.n_locals as usize, Value::Nil);
        self.regs.resize(prog.n_regs as usize, Value::Nil);
        self.frames
            .resize(prog.n_frames as usize, ForFrame::default());
        self.steps = 0;
        let code = &prog.code;
        let mut pc = 0usize;
        while let Some(inst) = code.get(pc) {
            if inst.charge != 0 {
                self.charge(inst.charge)?;
            }
            pc += 1;
            match &inst.op {
                Op::LoadNil { dst } => self.regs[*dst as usize] = Value::Nil,
                Op::LoadBool { dst, v } => self.regs[*dst as usize] = Value::Bool(*v),
                Op::LoadNum { dst, v } => self.regs[*dst as usize] = Value::Number(*v),
                Op::LoadStr { dst, v } => self.regs[*dst as usize] = v.clone(),
                Op::LoadLocal { dst, slot } => {
                    self.regs[*dst as usize] = self.locals[*slot as usize].clone();
                }
                Op::LoadGlobal { dst, slot } => {
                    self.regs[*dst as usize] = self.globals[*slot as usize].clone();
                }
                Op::StoreLocal { slot, src } => {
                    self.locals[*slot as usize] = self.regs[*src as usize].clone();
                }
                Op::StoreLocalNil { slot } => self.locals[*slot as usize] = Value::Nil,
                Op::StoreGlobal { slot, src } => {
                    self.globals[*slot as usize] = self.regs[*src as usize].clone();
                }
                Op::IndexConst {
                    dst,
                    obj,
                    key,
                    text,
                    line,
                } => {
                    let v = match &self.regs[*obj as usize] {
                        Value::Table(t) => t.borrow().get(key),
                        Value::Nil => {
                            return Err(PolicyError::runtime(
                                *line,
                                format!("attempt to index a nil value (key '{text}')"),
                            ))
                        }
                        other => {
                            return Err(PolicyError::runtime(
                                *line,
                                format!("cannot index a {} value", other.type_name()),
                            ))
                        }
                    };
                    self.regs[*dst as usize] = v;
                }
                Op::IndexExpr {
                    dst,
                    obj,
                    key,
                    line,
                } => {
                    let v = match &self.regs[*obj as usize] {
                        Value::Table(t) => {
                            let k = Key::from_value(&self.regs[*key as usize], *line)?;
                            t.borrow().get(&k)
                        }
                        Value::Nil => {
                            return Err(PolicyError::runtime(
                                *line,
                                format!(
                                    "attempt to index a nil value (key '{}')",
                                    self.regs[*key as usize].display_string()
                                ),
                            ))
                        }
                        other => {
                            return Err(PolicyError::runtime(
                                *line,
                                format!("cannot index a {} value", other.type_name()),
                            ))
                        }
                    };
                    self.regs[*dst as usize] = v;
                }
                Op::SetIndexConst {
                    obj,
                    key,
                    src,
                    line,
                } => match &self.regs[*obj as usize] {
                    Value::Table(t) => {
                        let v = self.regs[*src as usize].clone();
                        t.borrow_mut().assign(key.clone(), v, *line)?;
                    }
                    other => {
                        return Err(PolicyError::runtime(
                            *line,
                            format!("cannot index a {} value", other.type_name()),
                        ))
                    }
                },
                Op::SetIndexExpr {
                    obj,
                    key,
                    src,
                    line,
                } => match &self.regs[*obj as usize] {
                    Value::Table(t) => {
                        let k = Key::from_value(&self.regs[*key as usize], *line)?;
                        let v = self.regs[*src as usize].clone();
                        t.borrow_mut().assign(k, v, *line)?;
                    }
                    other => {
                        return Err(PolicyError::runtime(
                            *line,
                            format!("cannot index a {} value", other.type_name()),
                        ))
                    }
                },
                Op::Call {
                    dst,
                    callee,
                    base,
                    n_args,
                    line,
                } => {
                    let v = match &self.regs[*callee as usize] {
                        Value::Native(_, func) => {
                            let func = Rc::clone(func);
                            let b = *base as usize;
                            func(&mut self.host, &self.regs[b..b + *n_args as usize])?
                        }
                        Value::Nil => {
                            return Err(PolicyError::runtime(
                                *line,
                                "attempt to call a nil value (is the function defined in the \
                                 Mantle environment?)",
                            ))
                        }
                        other => {
                            return Err(PolicyError::runtime(
                                *line,
                                format!("attempt to call a {} value", other.type_name()),
                            ))
                        }
                    };
                    self.regs[*dst as usize] = v;
                }
                Op::Neg { dst, src, line } => {
                    let n = self.regs[*src as usize].as_number(*line)?;
                    self.regs[*dst as usize] = Value::Number(-n);
                }
                Op::Not { dst, src } => {
                    let b = !self.regs[*src as usize].truthy();
                    self.regs[*dst as usize] = Value::Bool(b);
                }
                Op::Len { dst, src, line } => {
                    let v = match &self.regs[*src as usize] {
                        Value::Table(t) => Value::Number(t.borrow().len() as f64),
                        Value::Str(s) => Value::Number(s.len() as f64),
                        other => {
                            return Err(PolicyError::runtime(
                                *line,
                                format!("attempt to get length of a {} value", other.type_name()),
                            ))
                        }
                    };
                    self.regs[*dst as usize] = v;
                }
                Op::Arith {
                    op,
                    dst,
                    lhs,
                    rhs,
                    line,
                } => {
                    let a = self.regs[*lhs as usize].as_number(*line)?;
                    let b = self.regs[*rhs as usize].as_number(*line)?;
                    let n = match op {
                        BinOp::Add => a + b,
                        BinOp::Sub => a - b,
                        BinOp::Mul => a * b,
                        BinOp::Div => a / b,
                        BinOp::Mod => a - (a / b).floor() * b,
                        BinOp::Pow => a.powf(b),
                        _ => unreachable!("non-arithmetic op in Arith"),
                    };
                    self.regs[*dst as usize] = Value::Number(n);
                }
                Op::Concat {
                    dst,
                    lhs,
                    rhs,
                    line,
                } => {
                    let ls = concat_operand(&self.regs[*lhs as usize], *line)?;
                    let rs = concat_operand(&self.regs[*rhs as usize], *line)?;
                    self.regs[*dst as usize] = Value::str(format!("{ls}{rs}"));
                }
                Op::Eq {
                    dst,
                    lhs,
                    rhs,
                    negate,
                } => {
                    let eq = self.regs[*lhs as usize].lua_eq(&self.regs[*rhs as usize]);
                    self.regs[*dst as usize] = Value::Bool(eq != *negate);
                }
                Op::Cmp {
                    op,
                    dst,
                    lhs,
                    rhs,
                    line,
                } => {
                    let ord = compare(&self.regs[*lhs as usize], &self.regs[*rhs as usize], *line)?;
                    let b = match op {
                        BinOp::Lt => ord == std::cmp::Ordering::Less,
                        BinOp::Le => ord != std::cmp::Ordering::Greater,
                        BinOp::Gt => ord == std::cmp::Ordering::Greater,
                        BinOp::Ge => ord != std::cmp::Ordering::Less,
                        _ => unreachable!("non-comparison op in Cmp"),
                    };
                    self.regs[*dst as usize] = Value::Bool(b);
                }
                Op::Jump { target } => pc = *target as usize,
                Op::JumpIfFalse { src, target } => {
                    if !self.regs[*src as usize].truthy() {
                        pc = *target as usize;
                    }
                }
                Op::JumpIfTrue { src, target } => {
                    if self.regs[*src as usize].truthy() {
                        pc = *target as usize;
                    }
                }
                Op::NewTable { dst } => {
                    self.regs[*dst as usize] = Value::table(Table::new());
                }
                Op::TableAppend { table, idx, src } => {
                    let v = self.regs[*src as usize].clone();
                    match &self.regs[*table as usize] {
                        Value::Table(t) => t.borrow_mut().set_int(*idx, v),
                        _ => unreachable!("TableAppend on non-table"),
                    }
                }
                Op::TableSetPair {
                    table,
                    key,
                    val,
                    line,
                } => {
                    let k = Key::from_value(&self.regs[*key as usize], *line)?;
                    let v = self.regs[*val as usize].clone();
                    match &self.regs[*table as usize] {
                        Value::Table(t) => t.borrow_mut().set(k, v),
                        _ => unreachable!("TableSetPair on non-table"),
                    }
                }
                Op::ForNumStart { frame, src, line } => {
                    self.frames[*frame as usize].i = self.regs[*src as usize].as_number(*line)?;
                }
                Op::ForNumStop { frame, src, line } => {
                    self.frames[*frame as usize].stop =
                        self.regs[*src as usize].as_number(*line)?;
                }
                Op::ForNumStep { frame, src, line } => {
                    self.frames[*frame as usize].step =
                        self.regs[*src as usize].as_number(*line)?;
                }
                Op::ForPrep {
                    frame,
                    default_step,
                    line,
                } => {
                    let f = &mut self.frames[*frame as usize];
                    if *default_step {
                        f.step = 1.0;
                    }
                    if f.step == 0.0 {
                        return Err(PolicyError::runtime(*line, "'for' step is zero"));
                    }
                }
                Op::ForLoop { frame, slot, end } => {
                    let f = self.frames[*frame as usize];
                    let cont = if f.step > 0.0 {
                        f.i <= f.stop
                    } else {
                        f.i >= f.stop
                    };
                    if cont {
                        self.locals[*slot as usize] = Value::Number(f.i);
                    } else {
                        pc = *end as usize;
                    }
                }
                Op::ForNext { frame, back } => {
                    let f = &mut self.frames[*frame as usize];
                    f.i += f.step;
                    pc = *back as usize;
                }
                Op::Return { src } => return Ok(self.regs[*src as usize].clone()),
                Op::ReturnNil => return Ok(Value::Nil),
            }
        }
        Ok(Value::Nil)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interpreter;
    use crate::parser::parse_script;
    use crate::stdlib;

    fn values_identical(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Number(x), Value::Number(y)) => x.to_bits() == y.to_bits(),
            _ => a.lua_eq(b) || (matches!(a, Value::Nil) && matches!(b, Value::Nil)),
        }
    }

    /// Run a script on the tree walker and on the bytecode VM with the
    /// given numeric globals and assert results, step counts, and errors
    /// agree exactly.
    fn differential(src: &str, globals: &[(&str, f64)]) {
        let script = parse_script(src).unwrap();

        let mut interp = Interpreter::new();
        stdlib::install(&mut interp);
        for (name, v) in globals {
            interp.set_global(name, Value::Number(*v));
        }
        let tree = interp.run(&script);

        let bc = BytecodeProgram::compile(&script);
        let mut base = bc.base_frame(&stdlib::globals());
        for (name, v) in globals {
            if let Some(slot) = bc.global_slot(name) {
                base[slot] = Value::Number(*v);
            }
        }

        let mut bvm = BytecodeVm::new(&bc, StepBudget::default());
        bvm.reset_globals(&base);
        let byte = bvm.run(&bc);

        match (&tree, &byte) {
            (Ok(a), Ok(b)) => {
                assert!(
                    values_identical(a, b),
                    "mismatch on {src:?}: tree={a:?} bytecode={b:?}"
                );
                assert_eq!(
                    interp.steps_used(),
                    bvm.steps_used(),
                    "step divergence on {src:?}"
                );
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "error mismatch on {src:?}"),
            (a, b) => panic!("outcome mismatch on {src:?}: tree={a:?} bytecode={b:?}"),
        }
    }

    #[test]
    fn arithmetic_and_logic_agree() {
        differential("return 1 + 2 * 3 - 4 / 8", &[]);
        differential("return 2 ^ 3 ^ 2", &[]);
        differential("return -7 % 3", &[]);
        differential("return (x > 2) and x or -x", &[("x", 5.0)]);
        differential("return (x > 2) and x or -x", &[("x", 1.0)]);
        differential("return \"n=\" .. 3 .. \"!\"", &[]);
        differential("return not nil and 1 ~= 2", &[]);
    }

    #[test]
    fn locals_and_scoping_agree() {
        differential("x = 1 local y = 2 x = x + y return x", &[]);
        differential("local x = 1 do local x = 2 end return x", &[]);
        differential("local x = x return x", &[("x", 9.0)]);
        // Read before the `local` in the same block sees the global.
        differential("g = 10 y = g local g = 1 return y + g", &[]);
        differential("local a return a", &[]);
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
        differential(
            "s = 0 for i = 1, 3 do for j = 1, 3 do if j > i then break end s = s + 1 end end \
             return s",
            &[],
        );
        differential("for i = 1, 5 do if i == 3 then return i * 10 end end", &[]);
        differential("while false do end return 1", &[]);
    }

    #[test]
    fn tables_agree() {
        differential(
            "t = {10, 20, 30} t[4] = 40 t[\"name\"] = 7 return #t + t[2] + t.name",
            &[],
        );
        differential("m = {a = {1, 2}, b = {x = 9}} return m.a[2] + m.b.x", &[]);
        differential("t = {} t[1] = 5 t[1] = nil return #t", &[]);
        differential("t = {[2] = 7, [1 + 1 + 1] = 9} return t[2] + t[3]", &[]);
    }

    #[test]
    fn border_with_holes_is_the_dense_prefix_on_both_engines() {
        // POLICY.md §3's example, digits packed into one number.
        let src = r#"
t = {}
t[1] = 1  t[2] = 2  t[4] = 4  t[5] = 5
a = #t
t[3] = 3
b = #t
t[2] = nil
c = #t
return a*1000 + b*100 + c*10 + t[4]
"#;
        differential(src, &[]);
        let got = Interpreter::new().run(&parse_script(src).unwrap()).unwrap();
        assert_eq!(got.as_number(0).unwrap(), 2514.0);
        differential("t = {1, 2, nil, 4} return #t", &[]);
        differential("t = {} t[0] = 1 t[-1] = 1 t[2] = 1 return #t", &[]);
    }

    #[test]
    fn natives_agree() {
        differential("return max(3, min(x, 10)) + math.floor(2.7)", &[("x", 7.0)]);
        differential("return tostring(4) .. tonumber(\"2\")", &[]);
    }

    #[test]
    fn errors_agree() {
        differential("return nothere[\"load\"]", &[]);
        differential("return nothere[x]", &[("x", 2.0)]);
        differential("return RDstate()", &[]);
        differential("for i=1,10,0 do end", &[]);
        differential("return 1 < \"2\"", &[]);
        differential("return #x", &[("x", 1.0)]);
        differential("x[1] = 2", &[]);
        differential("x[1] = 2", &[("x", 3.0)]);
        differential("t = {} t[nil] = 1", &[]);
        differential("t = {} t[1.5] = 1", &[]);
        differential("return x .. {}", &[("x", 1.0)]);
        differential("return x(1)", &[("x", 1.0)]);
        differential("return -{}", &[]);
    }

    #[test]
    fn top_level_break_unwinds_to_nil() {
        differential("break x = 1 return 2", &[]);
        differential("if true then break end return 3", &[]);
    }

    #[test]
    fn budget_errors_agree_on_step() {
        for src in [
            "while 1 do end",
            "s = 0 for i = 1, 1000000 do s = s + i end return s",
            "return nothere[\"load\"]",
        ] {
            let script = parse_script(src).unwrap();
            for budget in [1u64, 2, 3, 4, 5, 7, 10, 100, 10_000] {
                let mut interp = Interpreter::new().with_budget(StepBudget(budget));
                let tree = interp.run(&script);
                let bc = BytecodeProgram::compile(&script);
                let mut bvm = BytecodeVm::new(&bc, StepBudget(budget));
                let byte = bvm.run(&bc);
                // Every case here errors at some budget-independent step or
                // exhausts the budget first; the two engines must agree on
                // which.
                assert_eq!(
                    tree.unwrap_err(),
                    byte.unwrap_err(),
                    "{src:?} at budget {budget}"
                );
            }
        }
    }

    #[test]
    fn vm_reuse_resets_environment() {
        let script = parse_script("seen = seen + 1 return seen").unwrap();
        let bc = BytecodeProgram::compile(&script);
        let mut vm = BytecodeVm::new(&bc, StepBudget::default());
        let base = vec![Value::Number(0.0); bc.global_names().len()];
        for _ in 0..3 {
            vm.reset_globals(&base);
            let v = vm.run(&bc).unwrap();
            assert_eq!(v.as_number(0).unwrap(), 1.0);
        }
    }

    #[test]
    fn listing_4_differential() {
        let src = r#"
mymax = 0
for i=1,#MDSs do
  if MDSs[i]["load"] > mymax then mymax = MDSs[i]["load"] end
end
return mymax
"#;
        let script = parse_script(src).unwrap();
        let mk = |load: f64| Value::table(Table::from_fields([("load", Value::Number(load))]));
        let mdss = || Value::table(Table::from_array([mk(90.0), mk(5.0), mk(35.0)]));

        let mut interp = Interpreter::new();
        interp.set_global("MDSs", mdss());
        let tree = interp.run(&script).unwrap();

        let bc = BytecodeProgram::compile(&script);
        let mut vm = BytecodeVm::new(&bc, StepBudget::default());
        vm.set_global(bc.global_slot("MDSs").unwrap(), mdss());
        let byte = vm.run(&bc).unwrap();
        assert!(values_identical(&tree, &byte));
        assert_eq!(interp.steps_used(), vm.steps_used());
    }

    #[test]
    fn names_resolve_to_the_documented_slots() {
        let compile = |src: &str| BytecodeProgram::compile(&parse_script(src).unwrap());

        // Only ever `local` (a declaration, a `for` variable): no global.
        let bc = compile("local a = 1 for i = 1, 3 do a = a + i end return a");
        assert_eq!(bc.global_slot("a"), None);
        assert_eq!(bc.global_slot("i"), None);
        assert!(bc.global_names().is_empty());

        // Read before its `local` in the same block: that read is global.
        let bc = compile("y = g local g = 1 return y + g");
        assert!(bc.global_slot("g").is_some());

        // Assigned, never read (`targets`-style outputs): still a slot the
        // host can read back.
        let bc = compile("targets = 1");
        assert_eq!(bc.global_slot("targets"), Some(0));

        // A `local` in an `if` arm shadows there only; the `else` arm and
        // the code after the statement see the global.
        let bc = compile("if c then local x = 1 r = x else r = x end return x");
        let x = bc.global_slot("x").expect("else arm reads global x") as u32;
        let loads_of_x = bc
            .code
            .iter()
            .filter(|i| matches!(i.op, Op::LoadGlobal { slot, .. } if slot == x))
            .count();
        assert_eq!(loads_of_x, 2, "else arm + trailing return");

        // Slot numbers and names are inverse maps.
        let bc = compile("t = {} t[k] = v for i = 1, #MDSs do t[i] = MDSs[i].load end");
        assert_eq!(bc.global_names().len(), 4);
        for (slot, name) in bc.global_names().iter().enumerate() {
            assert_eq!(bc.global_slot(name), Some(slot));
        }
    }

    #[test]
    fn empty_program_returns_nil() {
        let script = parse_script("").unwrap();
        let bc = BytecodeProgram::compile(&script);
        assert!(bc.is_empty());
        let mut vm = BytecodeVm::new(&bc, StepBudget::default());
        assert!(matches!(vm.run(&bc).unwrap(), Value::Nil));
        assert_eq!(vm.steps_used(), 0);
    }
}
