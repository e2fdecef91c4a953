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

/// A Lua-style table in two parts.
///
/// * The **array part** is a `Vec` holding the values of keys `1..=n`,
///   where `n` is the table's border: the longest run of non-`nil` values
///   starting at key 1. It is always *exactly* that run, never a guess — a
///   write at `n + 1` pushes and then adopts any successors that were
///   waiting in the hash part, a `nil` written inside it truncates and
///   spills the tail. So `#t` ([`Table::len`]) is the `Vec`'s length, and
///   integer reads and writes inside the run touch no hasher.
/// * The **hash part** holds everything else: string keys, key 0, negative
///   keys, and integer keys beyond a hole. It never holds an integer key in
///   `1..=n + 1`.
///
/// Two flags ride along. `read_only` makes [`Table::assign`] refuse. The
/// *script-written* flag ([`Table::script_written`]) records that
/// [`Table::assign`] — the one entry both engines use for `t[k] = v` in a
/// script — has changed the table since it was created or last
/// [cleared](Table::clear). The host shares some tables between every MDS
/// of a cluster (the `MDSs` image of `env.rs`) and uses the flag to learn
/// that a script scribbled on one and it must be rebuilt. Host writes
/// ([`Table::set`], [`Table::set_int`]) do not raise it: the host knows
/// what it wrote, and filling a shared table must not make it look dirty.
#[derive(Default, Clone)]
pub struct Table {
    /// Values of keys `1..=array.len()`; none is `Nil`.
    array: Vec<Value>,
    /// Every other key; values are never `Nil`.
    map: HashMap<Key, Value>,
    /// Scripts may read but not assign (see [`Table::assign`]).
    read_only: bool,
    script_written: bool,
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

    /// Build an array table from values (1-based). A `nil` among them
    /// leaves a hole, as assigning the items one by one would.
    pub fn from_array<I>(items: I) -> Table
    where
        I: IntoIterator<Item = Value>,
    {
        let mut t = Table::new();
        for (i, v) in items.into_iter().enumerate() {
            t.set_int(i as i64 + 1, v);
        }
        t
    }

    /// Position of integer key `i` in the array part, if it is inside it.
    #[inline]
    fn array_index(&self, i: i64) -> Option<usize> {
        let idx = (i as u64).wrapping_sub(1);
        (idx < self.array.len() as u64).then_some(idx as usize)
    }

    /// Get by key; absent keys are `nil`.
    pub fn get(&self, key: &Key) -> Value {
        match key {
            Key::Int(i) => self.get_int(*i),
            Key::Str(_) => self.map.get(key).cloned().unwrap_or(Value::Nil),
        }
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
        match self.array_index(i) {
            Some(idx) => self.array[idx].clone(),
            None => self.map.get(&Key::Int(i)).cloned().unwrap_or(Value::Nil),
        }
    }

    /// Set; assigning `nil` deletes the key (Lua semantics).
    pub fn set(&mut self, key: Key, value: Value) {
        match key {
            Key::Int(i) => self.set_int(i, value),
            key => match value {
                Value::Nil => {
                    self.map.remove(&key);
                }
                v => {
                    self.map.insert(key, v);
                }
            },
        }
    }

    /// Assignment *by a script* (`t[k] = v` at `line`): [`Table::set`],
    /// refused on a read-only table, and remembered in the script-written
    /// flag. Both engines assign through here, so the refusal is the same
    /// error on the same line and no script write goes unflagged.
    pub fn assign(&mut self, key: Key, value: Value, line: u32) -> PolicyResult<()> {
        if self.read_only {
            return Err(PolicyError::runtime(
                line,
                "attempt to modify a read-only table",
            ));
        }
        self.script_written = true;
        self.set(key, value);
        Ok(())
    }

    /// Whether a script has assigned into this table since it was created
    /// or last [cleared](Table::clear).
    pub fn script_written(&self) -> bool {
        self.script_written
    }

    /// Make the table read-only to scripts. The host shares one instance of
    /// such a table (the stdlib's `math`) between every hook run of every
    /// MDS, so nothing a script could write to it may stick.
    pub fn read_only(mut self) -> Table {
        self.read_only = true;
        self
    }

    /// Set an integer-keyed element, keeping the array part exactly the
    /// dense prefix (see the type's docs).
    pub fn set_int(&mut self, i: i64, value: Value) {
        let n = self.array.len();
        match (self.array_index(i), value) {
            (Some(idx), Value::Nil) => {
                // A hole at `idx + 1`: the border drops to `idx` and what
                // was above the hole is now beyond it.
                for (offset, v) in self.array.drain(idx..).enumerate().skip(1) {
                    self.map.insert(Key::Int((idx + offset) as i64 + 1), v);
                }
            }
            (Some(idx), v) => self.array[idx] = v,
            (None, Value::Nil) => {
                self.map.remove(&Key::Int(i));
            }
            (None, v) if i as u64 == n as u64 + 1 => {
                self.array.push(v);
                // The border moved up; keys that sat beyond the old hole
                // may now be part of the run. (Appending to a pure array —
                // the common case — probes nothing.)
                while !self.map.is_empty() {
                    let next = Key::Int(self.array.len() as i64 + 1);
                    match self.map.remove(&next) {
                        Some(v) => self.array.push(v),
                        None => break,
                    }
                }
            }
            (None, v) => {
                self.map.insert(Key::Int(i), v);
            }
        }
    }

    /// Remove every entry and lower the script-written flag, keeping the
    /// allocated capacity of both parts (and the read-only flag, which is a
    /// property of the table, not of its contents). Lets the host reuse one
    /// table across runs instead of reallocating: a cleared table answers
    /// every read, `#`, and write exactly as a fresh one does.
    pub fn clear(&mut self) {
        self.array.clear();
        self.map.clear();
        self.script_written = false;
    }

    /// The `#` border: how many keys `1, 2, 3, …` hold a value before the
    /// first that does not. O(1) — it is the array part's length.
    pub fn len(&self) -> i64 {
        self.array.len() as i64
    }

    /// True when the table has no entries at all.
    pub fn is_empty(&self) -> bool {
        self.array.is_empty() && self.map.is_empty()
    }

    /// The array part (keys `1..=len`), cloned.
    pub fn to_vec(&self) -> Vec<Value> {
        self.array.clone()
    }

    /// Every integer-keyed entry, each key once: the array part's keys
    /// `1..=len` in order, then the hash part's in no set order.
    pub(crate) fn int_entries(&self) -> impl Iterator<Item = (i64, &Value)> {
        let array = (1..).zip(&self.array);
        let map = self.map.iter().filter_map(|(k, v)| match k {
            Key::Int(i) => Some((*i, v)),
            Key::Str(_) => None,
        });
        array.chain(map)
    }
}

impl fmt::Debug for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Table[{} entries]", self.array.len() + self.map.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_rng::Rng;

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
        t.set(Key::Str("x".into()), Value::num(1.0));
        t.set(Key::Str("x".into()), Value::Nil);
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

    /// The representation invariant the type's docs state.
    fn assert_parts(t: &Table) {
        assert!(t.array.iter().all(|v| !matches!(v, Value::Nil)));
        assert!(t.map.values().all(|v| !matches!(v, Value::Nil)));
        let n = t.array.len() as i64;
        for key in t.map.keys() {
            if let Key::Int(i) = key {
                assert!(!(1..=n + 1).contains(i), "key {i} hashed, border {n}");
            }
        }
    }

    #[test]
    fn array_part_adopts_successors_and_spills_its_tail() {
        // The two examples POLICY.md §3 gives.
        let mut t = Table::new();
        for i in [1, 2, 4, 5] {
            t.set_int(i, Value::num(i as f64));
        }
        assert_eq!((t.len(), t.map.len()), (2, 2), "4 and 5 wait past the hole");
        t.set_int(3, Value::num(3.0));
        assert_eq!(
            (t.len(), t.map.len()),
            (5, 0),
            "filling the hole adopts them"
        );
        t.set_int(2, Value::Nil);
        assert_eq!((t.len(), t.map.len()), (1, 3), "a hole at 2 spills 3, 4, 5");
        assert_eq!(t.get_int(4).as_number(0).unwrap(), 4.0);
        assert!(matches!(t.get_int(2), Value::Nil));
        assert_parts(&t);
        // Key 0 and negative keys are ordinary hash keys.
        t.set_int(0, Value::num(9.0));
        t.set_int(-1, Value::num(8.0));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get_int(0).as_number(0).unwrap(), 9.0);
        assert_parts(&t);
        assert_eq!(t.to_vec().len(), 1);
    }

    #[test]
    fn only_script_assignment_raises_the_written_flag() {
        let mut t = Table::new();
        t.set_int(1, Value::num(1.0));
        t.set(Key::Str("x".into()), Value::num(2.0));
        t.set(Key::Int(2), Value::Nil);
        assert!(!t.script_written(), "host writes are not script writes");
        t.assign(Key::Str("x".into()), Value::num(2.0), 1).unwrap();
        assert!(
            t.script_written(),
            "even a write of the value already there"
        );
        t.clear();
        assert!(!t.script_written() && t.is_empty());
        t.assign(Key::Int(7), Value::Nil, 1).unwrap();
        assert!(t.script_written(), "even a delete of an absent key");
        // A refused write changed nothing, so it flags nothing.
        let mut ro = Table::new().read_only();
        assert!(ro.assign(Key::Int(1), Value::num(1.0), 1).is_err());
        assert!(!ro.script_written());
        ro.clear();
        assert!(ro.assign(Key::Int(1), Value::num(1.0), 1).is_err());
    }

    /// The table before it had an array part: one map, `len` by probing.
    #[derive(Default)]
    struct Model(HashMap<Key, f64>);

    impl Model {
        fn set(&mut self, key: Key, value: Option<f64>) {
            match value {
                Some(v) => self.0.insert(key, v),
                None => self.0.remove(&key),
            };
        }
        fn len(&self) -> i64 {
            let mut n = 0;
            while self.0.contains_key(&Key::Int(n + 1)) {
                n += 1;
            }
            n
        }
    }

    #[test]
    fn table_matches_a_single_map_model_under_random_writes() {
        let mut rng = Rng(0x7ab1e);
        let random_key = |rng: &mut Rng| match rng.below(8) {
            0 => Key::Str(["a", "b", "load"][rng.below(3) as usize].into()),
            _ => Key::Int(rng.below(15) as i64 - 2),
        };
        let (mut table, mut model) = (Table::new(), Model::default());
        let mut longest = 0;
        for step in 0..20_000 {
            match rng.below(40) {
                0 => {
                    table.clear();
                    model.0.clear();
                }
                1..=19 => {
                    let key = random_key(&mut rng);
                    // Holes open about as often as they close.
                    let value = (rng.below(5) < 3).then_some(step as f64);
                    let v = value.map_or(Value::Nil, Value::Number);
                    match rng.below(3) {
                        0 => table.assign(key.clone(), v, 1).unwrap(),
                        1 => table.set(key.clone(), v),
                        _ => match &key {
                            Key::Int(i) => table.set_int(*i, v),
                            Key::Str(_) => table.set(key.clone(), v),
                        },
                    }
                    model.set(key, value);
                }
                _ => {}
            }
            assert_parts(&table);
            assert_eq!(table.len(), model.len(), "step {step}");
            assert_eq!(table.is_empty(), model.0.is_empty(), "step {step}");
            assert_eq!(table.to_vec().len() as i64, model.len(), "step {step}");
            longest = longest.max(table.len());
            for key in (-2..=13)
                .map(Key::Int)
                .chain(["a", "b", "load", "absent"].map(|s| Key::Str(s.into())))
            {
                let got = match table.get(&key) {
                    Value::Nil => None,
                    v => Some(v.as_number(0).unwrap()),
                };
                assert_eq!(got, model.0.get(&key).copied(), "step {step} key {key:?}");
                let direct = match &key {
                    Key::Int(i) => table.get_int(*i),
                    Key::Str(s) => table.get_str(s),
                };
                assert!(direct.lua_eq(&table.get(&key)), "step {step} key {key:?}");
            }
        }
        assert!(longest >= 8, "the walk reached long runs: {longest}");
    }

    #[test]
    fn number_formatting() {
        assert_eq!(fmt_number(3.0), "3");
        assert_eq!(fmt_number(3.5), "3.5");
        assert_eq!(fmt_number(-0.25), "-0.25");
    }
}
