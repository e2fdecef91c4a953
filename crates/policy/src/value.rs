//! Runtime values: Lua-style dynamic values with 1-based tables.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use crate::error::{PolicyError, PolicyResult};

/// What a host function can reach besides its arguments: the state of the
/// MDS whose hook is running. Whichever engine runs a script owns one and
/// hands it to every native it calls.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostState {
    /// The one number `WRstate` saves and `RDstate` reads back (0 before
    /// the first write — the listings compare it numerically on first run).
    pub saved: f64,
}

/// A host (native) function callable from scripts.
pub type NativeFn = Rc<dyn Fn(&mut HostState, &[Value]) -> PolicyResult<Value>>;

/// A runtime value.
#[derive(Clone)]
pub enum Value {
    /// `nil`
    Nil,
    /// Boolean.
    Bool(bool),
    /// Number (f64, as in Lua 5.1).
    Number(f64),
    /// Immutable string.
    Str(Rc<str>),
    /// Mutable shared table.
    Table(Rc<RefCell<Table>>),
    /// Host function.
    Native(&'static str, NativeFn),
}

impl Value {
    /// Make a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Rc::from(s.as_ref()))
    }

    /// Make a number value.
    pub fn num(n: f64) -> Value {
        Value::Number(n)
    }

    /// Wrap a table.
    pub fn table(t: Table) -> Value {
        Value::Table(Rc::new(RefCell::new(t)))
    }

    /// Lua truthiness: only `nil` and `false` are false.
    pub fn truthy(&self) -> bool {
        !matches!(self, Value::Nil | Value::Bool(false))
    }

    /// The value's type name (for error messages).
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Nil => "nil",
            Value::Bool(_) => "boolean",
            Value::Number(_) => "number",
            Value::Str(_) => "string",
            Value::Table(_) => "table",
            Value::Native(..) => "function",
        }
    }

    /// Numeric view, with Lua's string→number coercion.
    pub fn as_number(&self, line: u32) -> PolicyResult<f64> {
        match self {
            Value::Number(n) => Ok(*n),
            Value::Str(s) => s.trim().parse::<f64>().map_err(|_| {
                PolicyError::runtime(line, format!("cannot convert string '{s}' to number"))
            }),
            other => Err(PolicyError::runtime(
                line,
                format!("expected a number, got {}", other.type_name()),
            )),
        }
    }

    /// String view for messages / keys (numbers format like Lua).
    pub fn display_string(&self) -> String {
        match self {
            Value::Nil => "nil".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Number(n) => fmt_number(*n),
            Value::Str(s) => s.to_string(),
            Value::Table(_) => "table".to_string(),
            Value::Native(name, _) => format!("function: {name}"),
        }
    }

    /// Lua `==` semantics (no coercion across types).
    pub fn lua_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Nil, Value::Nil) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Number(a), Value::Number(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Table(a), Value::Table(b)) => Rc::ptr_eq(a, b),
            (Value::Native(_, a), Value::Native(_, b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// Format a number the way Lua prints it: integers without a decimal point.
pub fn fmt_number(n: f64) -> String {
    if n.is_finite() && n == n.trunc() && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Table(t) => write!(f, "Table({:p})", Rc::as_ptr(t)),
            Value::Native(name, _) => write!(f, "Native({name})"),
            other => write!(f, "{}", other.display_string()),
        }
    }
}

/// A table key: integers and strings (floats with integral values are
/// normalized to integers, as Lua effectively does for array usage).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Key {
    /// Integer key (array part when ≥ 1).
    Int(i64),
    /// String key.
    Str(Rc<str>),
}

impl Key {
    /// Convert a value to a key. Floats must be integral; nil is invalid.
    pub fn from_value(v: &Value, line: u32) -> PolicyResult<Key> {
        match v {
            Value::Number(n) => {
                if n.fract() == 0.0 && n.is_finite() {
                    Ok(Key::Int(*n as i64))
                } else {
                    Err(PolicyError::runtime(
                        line,
                        format!("table index must be an integer, got {n}"),
                    ))
                }
            }
            Value::Str(s) => Ok(Key::Str(s.clone())),
            Value::Nil => Err(PolicyError::runtime(line, "table index is nil")),
            other => Err(PolicyError::runtime(
                line,
                format!("invalid table key type: {}", other.type_name()),
            )),
        }
    }
}

/// A Lua-style table: hybrid array (1-based dense prefix) + hash map.
#[derive(Default, Clone)]
pub struct Table {
    map: HashMap<Key, Value>,
    /// Scripts may read but not assign (see [`Table::assign`]).
    read_only: bool,
}

impl Table {
    /// Empty table.
    pub fn new() -> Table {
        Table::default()
    }

    /// Build from an iterator of string-keyed fields.
    pub fn from_fields<I, S>(fields: I) -> Table
    where
        I: IntoIterator<Item = (S, Value)>,
        S: AsRef<str>,
    {
        let mut t = Table::new();
        for (k, v) in fields {
            t.set(Key::Str(Rc::from(k.as_ref())), v);
        }
        t
    }

    /// Build an array table from values (1-based).
    pub fn from_array<I>(items: I) -> Table
    where
        I: IntoIterator<Item = Value>,
    {
        let mut t = Table::new();
        for (i, v) in items.into_iter().enumerate() {
            t.set(Key::Int(i as i64 + 1), v);
        }
        t
    }

    /// Get by key; absent keys are `nil`.
    pub fn get(&self, key: &Key) -> Value {
        self.map.get(key).cloned().unwrap_or(Value::Nil)
    }

    /// Get a string-keyed field.
    pub fn get_str(&self, key: &str) -> Value {
        self.map
            .get(&Key::Str(Rc::from(key)))
            .cloned()
            .unwrap_or(Value::Nil)
    }

    /// Get an integer-keyed element.
    pub fn get_int(&self, i: i64) -> Value {
        self.map.get(&Key::Int(i)).cloned().unwrap_or(Value::Nil)
    }

    /// Set; assigning `nil` deletes the key (Lua semantics).
    pub fn set(&mut self, key: Key, value: Value) {
        match value {
            Value::Nil => {
                self.map.remove(&key);
            }
            v => {
                self.map.insert(key, v);
            }
        }
    }

    /// Assignment *by a script* (`t[k] = v` at `line`): [`Table::set`],
    /// refused on a read-only table. Both engines assign through here, so
    /// the refusal is the same error on the same line.
    pub fn assign(&mut self, key: Key, value: Value, line: u32) -> PolicyResult<()> {
        if self.read_only {
            return Err(PolicyError::runtime(
                line,
                "attempt to modify a read-only table",
            ));
        }
        self.set(key, value);
        Ok(())
    }

    /// Make the table read-only to scripts. The host shares one instance of
    /// such a table (the stdlib's `math`) between every hook run of every
    /// MDS, so nothing a script could write to it may stick.
    pub fn read_only(mut self) -> Table {
        self.read_only = true;
        self
    }

    /// Set a string-keyed field.
    pub fn set_str(&mut self, key: &str, value: Value) {
        self.set(Key::Str(Rc::from(key)), value);
    }

    /// Set an integer-keyed element.
    pub fn set_int(&mut self, i: i64, value: Value) {
        self.set(Key::Int(i), value);
    }

    /// Remove every entry, keeping the allocated capacity. Lets callers
    /// reuse one table across runs instead of reallocating — observationally
    /// identical to a fresh table since keys are compared by content.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// The `#` border: length of the dense 1-based integer prefix.
    pub fn len(&self) -> i64 {
        let mut n = 0;
        while self.map.contains_key(&Key::Int(n + 1)) {
            n += 1;
        }
        n
    }

    /// True when the table has no entries at all.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate all `(key, value)` pairs (unordered).
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &Value)> {
        self.map.iter()
    }

    /// Collect the dense array part (indices 1..=len) as a Vec.
    pub fn to_vec(&self) -> Vec<Value> {
        (1..=self.len()).map(|i| self.get_int(i)).collect()
    }
}

impl fmt::Debug for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Table[{} entries]", self.map.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!Value::Nil.truthy());
        assert!(!Value::Bool(false).truthy());
        assert!(Value::Bool(true).truthy());
        assert!(Value::Number(0.0).truthy(), "0 is truthy in Lua");
        assert!(Value::str("").truthy(), "empty string is truthy in Lua");
    }

    #[test]
    fn number_coercion() {
        assert_eq!(Value::str(" 42 ").as_number(1).unwrap(), 42.0);
        assert!(Value::str("xyz").as_number(1).is_err());
        assert!(Value::Nil.as_number(1).is_err());
    }

    #[test]
    fn lua_equality() {
        assert!(Value::num(2.0).lua_eq(&Value::num(2.0)));
        assert!(
            !Value::num(2.0).lua_eq(&Value::str("2")),
            "no cross-type eq"
        );
        let t1 = Value::table(Table::new());
        let t2 = t1.clone();
        assert!(t1.lua_eq(&t2), "tables compare by identity");
        assert!(!t1.lua_eq(&Value::table(Table::new())));
    }

    #[test]
    fn table_len_is_dense_prefix() {
        let mut t = Table::new();
        t.set_int(1, Value::num(10.0));
        t.set_int(2, Value::num(20.0));
        t.set_int(4, Value::num(40.0));
        assert_eq!(t.len(), 2, "gap at 3 stops the border");
        t.set_int(3, Value::num(30.0));
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn nil_assignment_deletes() {
        let mut t = Table::new();
        t.set_str("x", Value::num(1.0));
        t.set_str("x", Value::Nil);
        assert!(matches!(t.get_str("x"), Value::Nil));
        assert!(t.is_empty());
    }

    #[test]
    fn read_only_tables_refuse_script_assignment_only() {
        let mut t = Table::from_fields([("pi", Value::num(3.0))]).read_only();
        let err = t.assign(Key::Int(1), Value::num(1.0), 7).unwrap_err();
        assert_eq!(
            err.to_string(),
            "runtime error (line 7): attempt to modify a read-only table"
        );
        assert!(t.assign(Key::Str("pi".into()), Value::Nil, 7).is_err());
        assert_eq!(t.get_str("pi").as_number(0).unwrap(), 3.0);
        // The host is not a script.
        t.set_int(1, Value::num(1.0));
        assert_eq!(t.len(), 1);
        // An ordinary table takes assignments as `set` does.
        let mut u = Table::new();
        u.assign(Key::Int(1), Value::num(5.0), 1).unwrap();
        u.assign(Key::Int(1), Value::Nil, 1).unwrap();
        assert!(u.is_empty());
    }

    #[test]
    fn float_keys_normalize() {
        let k = Key::from_value(&Value::num(3.0), 1).unwrap();
        assert_eq!(k, Key::Int(3));
        assert!(Key::from_value(&Value::num(3.5), 1).is_err());
        assert!(Key::from_value(&Value::Nil, 1).is_err());
    }

    #[test]
    fn from_array_and_to_vec() {
        let t = Table::from_array([Value::num(1.0), Value::num(2.0)]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.to_vec().len(), 2);
        assert_eq!(t.get_int(1).as_number(0).unwrap(), 1.0);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(fmt_number(3.0), "3");
        assert_eq!(fmt_number(3.5), "3.5");
        assert_eq!(fmt_number(-0.25), "-0.25");
    }
}
