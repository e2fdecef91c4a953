//! Built-in functions available to every policy: `max`, `min` (Table 2),
//! plus a small `math` table (`math.max`, `math.min`, `math.abs`,
//! `math.floor`, `math.ceil`, `math.sqrt`, `math.huge`) and `tonumber` /
//! `tostring`. Everything is pure: policies stay sandboxed and
//! deterministic. The `math` table is read-only to scripts (`math.k = 1` is
//! a runtime error): the host shares one stdlib instance between every
//! hook run of every MDS, so nothing written to it may survive a run.

use std::rc::Rc;

use crate::error::{PolicyError, PolicyResult};
use crate::interp::Interpreter;
use crate::value::{NativeFn, Table, Value};

/// Fold for `max`/`min`. NaN arguments raise a runtime error rather than
/// being silently dropped: `f64::max`/`f64::min` return the *other* operand
/// when one side is NaN, so a policy that computed `0/0` would get a
/// confident-looking load out of `max(...)` and the CephFS fallback (which
/// triggers on policy *errors*) would never engage. Erroring matches the
/// strictness of `as_number` elsewhere in the language — garbage in the
/// load calculation is a policy bug, not a value.
fn numeric_fold(
    name: &'static str,
    args: &[Value],
    f: impl Fn(f64, f64) -> f64,
) -> PolicyResult<Value> {
    if args.is_empty() {
        return Err(PolicyError::runtime(
            0,
            format!("{name} expects at least one argument"),
        ));
    }
    let nan_check = |v: f64| {
        if v.is_nan() {
            Err(PolicyError::runtime(
                0,
                format!("{name} got a NaN argument"),
            ))
        } else {
            Ok(v)
        }
    };
    let mut acc = nan_check(args[0].as_number(0)?)?;
    for a in &args[1..] {
        acc = f(acc, nan_check(a.as_number(0)?)?);
    }
    Ok(Value::Number(acc))
}

fn unary(name: &'static str, args: &[Value], f: impl Fn(f64) -> f64) -> PolicyResult<Value> {
    if args.len() != 1 {
        return Err(PolicyError::runtime(
            0,
            format!("{name} expects exactly one argument"),
        ));
    }
    Ok(Value::Number(f(args[0].as_number(0)?)))
}

fn fold(name: &'static str, f: fn(f64, f64) -> f64) -> Value {
    Value::Native(name, Rc::new(move |_, args| numeric_fold(name, args, f)))
}

fn map(name: &'static str, f: fn(f64) -> f64) -> Value {
    Value::Native(name, Rc::new(move |_, args| unary(name, args, f)))
}

/// The standard library as `(global name, value)` bindings. One instance
/// can back any number of runs: the functions hold no state and `math` is
/// read-only to scripts.
pub fn globals() -> Vec<(&'static str, Value)> {
    let math = Table::from_fields([
        ("max", fold("math.max", f64::max)),
        ("min", fold("math.min", f64::min)),
        ("abs", map("math.abs", f64::abs)),
        ("floor", map("math.floor", f64::floor)),
        ("ceil", map("math.ceil", f64::ceil)),
        ("sqrt", map("math.sqrt", f64::sqrt)),
        ("huge", Value::Number(f64::INFINITY)),
    ]);
    let tonumber: NativeFn = Rc::new(|_, args| {
        Ok(args
            .first()
            .and_then(|v| v.as_number(0).ok())
            .map_or(Value::Nil, Value::Number))
    });
    let tostring: NativeFn = Rc::new(|_, args| {
        Ok(Value::str(
            args.first().map(Value::display_string).unwrap_or_default(),
        ))
    });
    vec![
        ("max", fold("max", f64::max)),
        ("min", fold("min", f64::min)),
        ("tonumber", Value::Native("tonumber", tonumber)),
        ("tostring", Value::Native("tostring", tostring)),
        ("math", Value::table(math.read_only())),
    ]
}

/// Install the standard library into an interpreter's globals.
pub fn install(interp: &mut Interpreter) {
    for (name, value) in globals() {
        interp.set_global(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_script;

    fn run(src: &str) -> Interpreter {
        let script = parse_script(src).unwrap();
        let mut interp = Interpreter::new();
        install(&mut interp);
        interp.run(&script).unwrap();
        interp
    }

    #[test]
    fn max_min() {
        let i = run("a = max(1, 5, 3) b = min(2, -1)");
        assert_eq!(i.get_global("a").as_number(0).unwrap(), 5.0);
        assert_eq!(i.get_global("b").as_number(0).unwrap(), -1.0);
    }

    #[test]
    fn math_table() {
        let i = run("a = math.floor(2.7) b = math.ceil(2.1) c = math.abs(-3) d = math.sqrt(16)");
        assert_eq!(i.get_global("a").as_number(0).unwrap(), 2.0);
        assert_eq!(i.get_global("b").as_number(0).unwrap(), 3.0);
        assert_eq!(i.get_global("c").as_number(0).unwrap(), 3.0);
        assert_eq!(i.get_global("d").as_number(0).unwrap(), 4.0);
    }

    #[test]
    fn math_huge() {
        let i = run("h = math.huge x = min(h, 5)");
        assert_eq!(i.get_global("x").as_number(0).unwrap(), 5.0);
    }

    #[test]
    fn tostring_tonumber() {
        let i = run("s = tostring(42) n = tonumber(\"2.5\") bad = tonumber(\"zz\")");
        assert_eq!(i.get_global("s").display_string(), "42");
        assert_eq!(i.get_global("n").as_number(0).unwrap(), 2.5);
        assert!(matches!(i.get_global("bad"), Value::Nil));
    }

    #[test]
    fn max_with_no_args_errors() {
        let script = parse_script("x = max()").unwrap();
        let mut interp = Interpreter::new();
        install(&mut interp);
        assert!(interp.run(&script).is_err());
    }

    #[test]
    fn nan_arguments_error_instead_of_vanishing() {
        // `f64::max(NaN, x)` returns `x` — with the raw fold, 0/0 inside a
        // policy would silently pick the other argument. Pinned: it errors.
        for src in [
            "x = max(0/0, 5)",
            "x = max(5, 0/0)",
            "x = min(0/0, 5)",
            "x = math.max(1, 2, 0/0)",
            "x = math.min(0/0)",
        ] {
            let script = parse_script(src).unwrap();
            let mut interp = Interpreter::new();
            install(&mut interp);
            let err = interp.run(&script).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("NaN argument"), "{src}: {msg}");
        }
        // Infinities are fine — math.huge stays usable.
        let i = run("x = max(math.huge, 5) y = min(-math.huge, 5)");
        assert_eq!(i.get_global("x").as_number(0).unwrap(), f64::INFINITY);
        assert_eq!(i.get_global("y").as_number(0).unwrap(), f64::NEG_INFINITY);
    }
}
