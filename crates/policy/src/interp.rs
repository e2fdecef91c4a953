//! Tree-walking interpreter with a step budget.

use std::collections::HashMap;

use crate::ast::{BinOp, Block, Expr, LValue, Script, Stmt, UnOp};
use crate::error::{PolicyError, PolicyResult};
use crate::value::{fmt_number, HostState, Key, Table, Value};

/// Execution budget: the maximum number of AST steps a single run may take.
///
/// This is Mantle's §4.4 safety net — an injected `while 1 do end` hits the
/// budget and returns an error instead of hanging the MDS balancer tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepBudget(pub u64);

impl Default for StepBudget {
    fn default() -> Self {
        // Generous for real balancers (the paper's listings take < 1k steps
        // on a 64-MDS cluster) while still bounding runaway scripts.
        StepBudget(1_000_000)
    }
}

/// Control flow signal threaded through block execution.
enum Flow {
    Normal,
    Break,
    Return(Value),
}

/// The interpreter: a global scope (the Mantle environment), a stack of
/// lexical scopes for `local`s and loop variables, and a step counter.
pub struct Interpreter {
    globals: HashMap<String, Value>,
    scopes: Vec<HashMap<String, Value>>,
    steps: u64,
    budget: StepBudget,
    host: HostState,
}

impl Default for Interpreter {
    fn default() -> Self {
        Self::new()
    }
}

impl Interpreter {
    /// New interpreter with the default budget and empty globals.
    pub fn new() -> Self {
        Interpreter {
            globals: HashMap::new(),
            scopes: Vec::new(),
            steps: 0,
            budget: StepBudget::default(),
            host: HostState::default(),
        }
    }

    /// Override the step budget.
    pub fn with_budget(mut self, budget: StepBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Define (or overwrite) a global.
    pub fn set_global(&mut self, name: &str, value: Value) {
        self.globals.insert(name.to_string(), value);
    }

    /// Read a global (nil when undefined).
    pub fn get_global(&self, name: &str) -> Value {
        self.globals.get(name).cloned().unwrap_or(Value::Nil)
    }

    /// Steps consumed by the last run (diagnostics / tests).
    pub fn steps_used(&self) -> u64 {
        self.steps
    }

    /// The host state native functions are handed (survives across runs).
    pub fn host_mut(&mut self) -> &mut HostState {
        &mut self.host
    }

    /// Execute a script; returns its `return` value (or `Nil`).
    ///
    /// The step counter resets per run, so one interpreter can evaluate
    /// many hooks against the same environment.
    pub fn run(&mut self, script: &Script) -> PolicyResult<Value> {
        self.steps = 0;
        self.scopes.clear();
        self.scopes.push(HashMap::new());
        let flow = self.exec_block(&script.block)?;
        self.scopes.pop();
        Ok(match flow {
            Flow::Return(v) => v,
            _ => Value::Nil,
        })
    }

    fn step(&mut self, line: u32) -> PolicyResult<()> {
        self.steps += 1;
        if self.steps > self.budget.0 {
            let _ = line;
            Err(PolicyError::BudgetExhausted {
                budget: self.budget.0,
            })
        } else {
            Ok(())
        }
    }

    fn exec_block(&mut self, block: &Block) -> PolicyResult<Flow> {
        for stmt in &block.stmts {
            match self.exec_stmt(stmt)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt) -> PolicyResult<Flow> {
        match stmt {
            Stmt::Assign {
                target,
                value,
                line,
            } => {
                self.step(*line)?;
                let v = self.eval(value)?;
                self.assign(target, v, *line)?;
                Ok(Flow::Normal)
            }
            Stmt::Local { name, value, line } => {
                self.step(*line)?;
                let v = match value {
                    Some(e) => self.eval(e)?,
                    None => Value::Nil,
                };
                self.scopes
                    .last_mut()
                    .expect("scope stack never empty")
                    .insert(name.clone(), v);
                Ok(Flow::Normal)
            }
            Stmt::If {
                arms,
                else_block,
                line,
            } => {
                self.step(*line)?;
                for (cond, body) in arms {
                    if self.eval(cond)?.truthy() {
                        return self.scoped(|me| me.exec_block(body));
                    }
                }
                if let Some(body) = else_block {
                    return self.scoped(|me| me.exec_block(body));
                }
                Ok(Flow::Normal)
            }
            Stmt::While { cond, body, line } => {
                loop {
                    self.step(*line)?;
                    if !self.eval(cond)?.truthy() {
                        break;
                    }
                    match self.scoped(|me| me.exec_block(body))? {
                        Flow::Normal => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::NumericFor {
                var,
                start,
                stop,
                step,
                body,
                line,
            } => {
                self.step(*line)?;
                let start = self.eval(start)?.as_number(*line)?;
                let stop = self.eval(stop)?.as_number(*line)?;
                let step_v = match step {
                    Some(e) => self.eval(e)?.as_number(*line)?,
                    None => 1.0,
                };
                if step_v == 0.0 {
                    return Err(PolicyError::runtime(*line, "'for' step is zero"));
                }
                let mut i = start;
                loop {
                    self.step(*line)?;
                    let cont = if step_v > 0.0 { i <= stop } else { i >= stop };
                    if !cont {
                        break;
                    }
                    let flow = self.scoped(|me| {
                        me.scopes
                            .last_mut()
                            .expect("scope stack never empty")
                            .insert(var.clone(), Value::Number(i));
                        me.exec_block(body)
                    })?;
                    match flow {
                        Flow::Normal => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                    i += step_v;
                }
                Ok(Flow::Normal)
            }
            Stmt::ExprStmt { expr, line } => {
                self.step(*line)?;
                self.eval(expr)?;
                Ok(Flow::Normal)
            }
            Stmt::Do { body } => self.scoped(|me| me.exec_block(body)),
            Stmt::Return { value, line } => {
                self.step(*line)?;
                let v = match value {
                    Some(e) => self.eval(e)?,
                    None => Value::Nil,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break { line } => {
                self.step(*line)?;
                Ok(Flow::Break)
            }
        }
    }

    fn scoped<F>(&mut self, f: F) -> PolicyResult<Flow>
    where
        F: FnOnce(&mut Self) -> PolicyResult<Flow>,
    {
        self.scopes.push(HashMap::new());
        let r = f(self);
        self.scopes.pop();
        r
    }

    fn assign(&mut self, target: &LValue, value: Value, line: u32) -> PolicyResult<()> {
        match target {
            LValue::Name(name) => {
                // Lua scoping: assignment to a declared local updates it,
                // otherwise it creates/updates a global.
                for scope in self.scopes.iter_mut().rev() {
                    if let Some(slot) = scope.get_mut(name) {
                        *slot = value;
                        return Ok(());
                    }
                }
                self.globals.insert(name.clone(), value);
                Ok(())
            }
            LValue::Index { object, key } => {
                let obj = self.eval(object)?;
                let key_v = self.eval(key)?;
                match obj {
                    Value::Table(t) => {
                        let k = Key::from_value(&key_v, line)?;
                        t.borrow_mut().assign(k, value, line)
                    }
                    other => Err(PolicyError::runtime(
                        line,
                        format!("cannot index a {} value", other.type_name()),
                    )),
                }
            }
        }
    }

    /// Evaluate an expression.
    pub fn eval(&mut self, expr: &Expr) -> PolicyResult<Value> {
        self.step(expr.line())?;
        match expr {
            Expr::Nil => Ok(Value::Nil),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Number(n) => Ok(Value::Number(*n)),
            Expr::Str(s) => Ok(Value::str(s)),
            Expr::Name(name, _) => {
                for scope in self.scopes.iter().rev() {
                    if let Some(v) = scope.get(name) {
                        return Ok(v.clone());
                    }
                }
                Ok(self.get_global(name))
            }
            Expr::Index { object, key, line } => {
                let obj = self.eval(object)?;
                let key_v = self.eval(key)?;
                match obj {
                    Value::Table(t) => {
                        let k = Key::from_value(&key_v, *line)?;
                        Ok(t.borrow().get(&k))
                    }
                    Value::Nil => Err(PolicyError::runtime(
                        *line,
                        format!(
                            "attempt to index a nil value (key '{}')",
                            key_v.display_string()
                        ),
                    )),
                    other => Err(PolicyError::runtime(
                        *line,
                        format!("cannot index a {} value", other.type_name()),
                    )),
                }
            }
            Expr::Call { callee, args, line } => {
                let f = self.eval(callee)?;
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval(a)?);
                }
                match f {
                    Value::Native(_, func) => func(&mut self.host, &argv),
                    Value::Nil => Err(PolicyError::runtime(
                        *line,
                        "attempt to call a nil value (is the function defined in the Mantle \
                         environment?)",
                    )),
                    other => Err(PolicyError::runtime(
                        *line,
                        format!("attempt to call a {} value", other.type_name()),
                    )),
                }
            }
            Expr::Unary { op, operand, line } => {
                let v = self.eval(operand)?;
                match op {
                    UnOp::Neg => Ok(Value::Number(-v.as_number(*line)?)),
                    UnOp::Not => Ok(Value::Bool(!v.truthy())),
                    UnOp::Len => match v {
                        Value::Table(t) => Ok(Value::Number(t.borrow().len() as f64)),
                        Value::Str(s) => Ok(Value::Number(s.len() as f64)),
                        other => Err(PolicyError::runtime(
                            *line,
                            format!("attempt to get length of a {} value", other.type_name()),
                        )),
                    },
                }
            }
            Expr::Binary { op, lhs, rhs, line } => self.eval_binary(*op, lhs, rhs, *line),
            Expr::TableCtor { items, pairs, line } => {
                let mut t = Table::new();
                for (i, item) in items.iter().enumerate() {
                    let v = self.eval(item)?;
                    t.set_int(i as i64 + 1, v);
                }
                for (k, v) in pairs {
                    let key_v = self.eval(k)?;
                    let val = self.eval(v)?;
                    t.set(Key::from_value(&key_v, *line)?, val);
                }
                Ok(Value::table(t))
            }
        }
    }

    fn eval_binary(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr, line: u32) -> PolicyResult<Value> {
        // Short-circuit forms first: they return operand values, not bools.
        match op {
            BinOp::And => {
                let l = self.eval(lhs)?;
                return if l.truthy() { self.eval(rhs) } else { Ok(l) };
            }
            BinOp::Or => {
                let l = self.eval(lhs)?;
                return if l.truthy() { Ok(l) } else { self.eval(rhs) };
            }
            _ => {}
        }
        let l = self.eval(lhs)?;
        let r = self.eval(rhs)?;
        match op {
            BinOp::Add => Ok(Value::Number(l.as_number(line)? + r.as_number(line)?)),
            BinOp::Sub => Ok(Value::Number(l.as_number(line)? - r.as_number(line)?)),
            BinOp::Mul => Ok(Value::Number(l.as_number(line)? * r.as_number(line)?)),
            BinOp::Div => Ok(Value::Number(l.as_number(line)? / r.as_number(line)?)),
            BinOp::Mod => {
                let (a, b) = (l.as_number(line)?, r.as_number(line)?);
                // Lua's % is floored modulo.
                Ok(Value::Number(a - (a / b).floor() * b))
            }
            BinOp::Pow => Ok(Value::Number(l.as_number(line)?.powf(r.as_number(line)?))),
            BinOp::Concat => {
                let ls = concat_operand(&l, line)?;
                let rs = concat_operand(&r, line)?;
                Ok(Value::str(format!("{ls}{rs}")))
            }
            BinOp::Eq => Ok(Value::Bool(l.lua_eq(&r))),
            BinOp::Ne => Ok(Value::Bool(!l.lua_eq(&r))),
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let ord = compare(&l, &r, line)?;
                Ok(Value::Bool(match op {
                    BinOp::Lt => ord == std::cmp::Ordering::Less,
                    BinOp::Le => ord != std::cmp::Ordering::Greater,
                    BinOp::Gt => ord == std::cmp::Ordering::Greater,
                    BinOp::Ge => ord != std::cmp::Ordering::Less,
                    _ => unreachable!(),
                }))
            }
            BinOp::And | BinOp::Or => unreachable!("handled above"),
        }
    }
}

pub(crate) fn concat_operand(v: &Value, line: u32) -> PolicyResult<String> {
    match v {
        Value::Str(s) => Ok(s.to_string()),
        Value::Number(n) => Ok(fmt_number(*n)),
        other => Err(PolicyError::runtime(
            line,
            format!("attempt to concatenate a {} value", other.type_name()),
        )),
    }
}

pub(crate) fn compare(l: &Value, r: &Value, line: u32) -> PolicyResult<std::cmp::Ordering> {
    match (l, r) {
        (Value::Number(a), Value::Number(b)) => a
            .partial_cmp(b)
            .ok_or_else(|| PolicyError::runtime(line, "comparison with NaN has no defined order")),
        (Value::Str(a), Value::Str(b)) => Ok(a.cmp(b)),
        (a, b) => Err(PolicyError::runtime(
            line,
            format!(
                "attempt to compare {} with {}",
                a.type_name(),
                b.type_name()
            ),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expression_script, parse_script};
    use std::rc::Rc;

    fn eval_str(src: &str) -> Value {
        let script = parse_expression_script(src).unwrap();
        Interpreter::new().run(&script).unwrap()
    }

    fn eval_num(src: &str) -> f64 {
        eval_str(src).as_number(0).unwrap()
    }

    fn run_script(src: &str) -> Interpreter {
        let script = parse_script(src).unwrap();
        let mut interp = Interpreter::new();
        interp.run(&script).unwrap();
        interp
    }

    #[test]
    fn arithmetic() {
        assert_eq!(eval_num("1 + 2 * 3"), 7.0);
        assert_eq!(eval_num("(1 + 2) * 3"), 9.0);
        assert_eq!(eval_num("2 ^ 10"), 1024.0);
        assert_eq!(eval_num("2 ^ 3 ^ 2"), 512.0, "pow is right-assoc");
        assert_eq!(eval_num("7 % 3"), 1.0);
        assert_eq!(eval_num("-7 % 3"), 2.0, "Lua floored modulo");
        assert_eq!(eval_num("10 / 4"), 2.5);
    }

    #[test]
    fn comparisons_and_logic() {
        assert!(matches!(eval_str("1 < 2"), Value::Bool(true)));
        assert!(matches!(eval_str("1 ~= 2"), Value::Bool(true)));
        assert!(matches!(eval_str("\"a\" < \"b\""), Value::Bool(true)));
        // and/or return operands.
        assert_eq!(eval_num("false or 5"), 5.0);
        assert_eq!(eval_num("nil and 3 or 4"), 4.0);
        assert_eq!(eval_num("2 and 3"), 3.0);
    }

    #[test]
    fn short_circuit_skips_rhs() {
        // rhs would error (call nil), but lhs short-circuits.
        assert!(matches!(
            eval_str("false and undefined_fn()"),
            Value::Bool(false)
        ));
        assert_eq!(eval_num("1 or undefined_fn()"), 1.0);
    }

    #[test]
    fn concat() {
        let v = eval_str("\"load=\" .. 2.5 .. \"!\"");
        assert_eq!(v.display_string(), "load=2.5!");
        let v2 = eval_str("\"n=\" .. 3");
        assert_eq!(v2.display_string(), "n=3", "integral floats print as ints");
    }

    #[test]
    fn globals_and_locals() {
        let interp = run_script("x = 1 local y = 2 x = x + y");
        assert_eq!(interp.get_global("x").as_number(0).unwrap(), 3.0);
        // locals don't leak to globals
        assert!(matches!(interp.get_global("y"), Value::Nil));
    }

    #[test]
    fn block_scoping() {
        let interp =
            run_script("x = 0\nif true then local x2 = 5 x = x2 end\ndo local z = 9 end\nw = 1");
        assert_eq!(interp.get_global("x").as_number(0).unwrap(), 5.0);
        assert!(matches!(interp.get_global("z"), Value::Nil));
    }

    #[test]
    fn while_loop_and_break() {
        let interp = run_script("i = 0 while true do i = i + 1 if i >= 5 then break end end");
        assert_eq!(interp.get_global("i").as_number(0).unwrap(), 5.0);
    }

    #[test]
    fn numeric_for() {
        let interp = run_script("s = 0 for i=1,10 do s = s + i end");
        assert_eq!(interp.get_global("s").as_number(0).unwrap(), 55.0);
        let interp2 = run_script("s = 0 for i=10,1,-2 do s = s + i end");
        assert_eq!(interp2.get_global("s").as_number(0).unwrap(), 30.0);
        // loop var is scoped
        assert!(matches!(interp.get_global("i"), Value::Nil));
    }

    #[test]
    fn for_zero_step_errors() {
        let script = parse_script("for i=1,10,0 do end").unwrap();
        assert!(matches!(
            Interpreter::new().run(&script),
            Err(PolicyError::Runtime { .. })
        ));
    }

    #[test]
    fn tables() {
        let interp = run_script(
            "t = {10, 20, 30}\nt[4] = 40\nt[\"name\"] = \"frag\"\nn = #t\nv = t[2]\ns = t.name",
        );
        assert_eq!(interp.get_global("n").as_number(0).unwrap(), 4.0);
        assert_eq!(interp.get_global("v").as_number(0).unwrap(), 20.0);
        assert_eq!(interp.get_global("s").display_string(), "frag");
    }

    #[test]
    fn nested_tables() {
        let interp = run_script("m = {a = {1, 2}, b = {x = 9}}\nv = m.a[2] + m.b.x");
        assert_eq!(interp.get_global("v").as_number(0).unwrap(), 11.0);
    }

    #[test]
    fn indexing_nil_errors_helpfully() {
        let script = parse_script("x = nothere[\"load\"]").unwrap();
        let err = Interpreter::new().run(&script).unwrap_err();
        assert!(err.to_string().contains("index a nil value"), "{err}");
    }

    #[test]
    fn calling_nil_errors_helpfully() {
        let script = parse_script("x = RDstate()").unwrap();
        let err = Interpreter::new().run(&script).unwrap_err();
        assert!(err.to_string().contains("call a nil value"), "{err}");
    }

    #[test]
    fn native_functions() {
        let script = parse_script("m = double(21)").unwrap();
        let mut interp = Interpreter::new();
        interp.set_global(
            "double",
            Value::Native(
                "double",
                Rc::new(|_, args| Ok(Value::Number(args[0].as_number(0)? * 2.0))),
            ),
        );
        interp.run(&script).unwrap();
        assert_eq!(interp.get_global("m").as_number(0).unwrap(), 42.0);
    }

    #[test]
    fn return_value() {
        let script = parse_script("if 3 > 2 then return 7 end return 8").unwrap();
        let v = Interpreter::new().run(&script).unwrap();
        assert_eq!(v.as_number(0).unwrap(), 7.0);
    }

    #[test]
    fn budget_stops_infinite_loop() {
        let script = parse_script("while 1 do end").unwrap();
        let mut interp = Interpreter::new().with_budget(StepBudget(10_000));
        assert!(matches!(
            interp.run(&script),
            Err(PolicyError::BudgetExhausted { budget: 10_000 })
        ));
    }

    #[test]
    fn budget_resets_between_runs() {
        let script = parse_script("x = 1").unwrap();
        let mut interp = Interpreter::new().with_budget(StepBudget(50));
        for _ in 0..100 {
            interp.run(&script).unwrap();
        }
    }

    #[test]
    fn length_operator() {
        assert_eq!(eval_num("#\"hello\""), 5.0);
        let interp = run_script("t = {1,2,3} n = #t");
        assert_eq!(interp.get_global("n").as_number(0).unwrap(), 3.0);
    }

    #[test]
    fn comparing_mixed_types_errors() {
        let script = parse_script("x = 1 < \"2\"").unwrap();
        assert!(Interpreter::new().run(&script).is_err());
    }

    #[test]
    fn listing_4_semantics() {
        // The Adaptable Balancer (Listing 4), with the environment stubbed
        // in directly as globals.
        let src = r#"
mymax = 0
for i=1,#MDSs do
  if MDSs[i]["load"] > mymax then mymax = MDSs[i]["load"] end
end
myLoad = MDSs[whoami]["load"]
if myLoad>total/2 and myLoad>=mymax then
  targetLoad=total/#MDSs
  for i=1,#MDSs do
    if MDSs[i]["load"]<targetLoad then
      targets[i]=targetLoad-MDSs[i]["load"]
    end
  end
end
"#;
        let script = parse_script(src).unwrap();
        let mut interp = Interpreter::new();
        let mk = |load: f64| Value::table(Table::from_fields([("load", Value::Number(load))]));
        let mdss = Table::from_array([mk(90.0), mk(5.0), mk(5.0)]);
        interp.set_global("MDSs", Value::table(mdss));
        interp.set_global("whoami", Value::Number(1.0));
        interp.set_global("total", Value::Number(100.0));
        let targets = Table::new();
        interp.set_global("targets", Value::table(targets));
        interp.run(&script).unwrap();
        let Value::Table(t) = interp.get_global("targets") else {
            panic!()
        };
        let t = t.borrow();
        // targetLoad = 33.33; MDS2 and MDS3 get 28.33 each; MDS1 none.
        assert!(matches!(t.get_int(1), Value::Nil));
        let t2 = t.get_int(2).as_number(0).unwrap();
        assert!((t2 - (100.0 / 3.0 - 5.0)).abs() < 1e-9);
    }
}
