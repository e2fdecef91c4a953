//! The workspace's one JSON codec: a minimal value model, a parser, an
//! encoder, and the two scalar writers every emitter shares.
//!
//! The workspace is dependency-free by design. The daemon's wire
//! protocol builds [`Json`] values; the trace subsystem streams its JSONL
//! field by field and borrows only [`write_str`] and [`write_f64`] — so
//! there is one string escaper and one number format, and [`parse`]
//! reads back whatever either wrote. It supports exactly standard JSON
//! (RFC 8259): objects, arrays, strings with `\uXXXX` escapes, numbers as
//! `f64`, booleans, `null`. Object member order is preserved (a `Vec`,
//! not a map), so encode∘parse is stable for PROTOCOL.md's round-trip
//! fence checks.
//!
//! [`parse`] sits on the network edge (behind the daemon's 16 MiB frame
//! cap), so nesting is bounded by [`MAX_DEPTH`]: a frame of 200 000 `[`
//! is an ordinary [`JsonError`], not a stack overflow.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON does not distinguish int/float).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, member order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member by key (first match), if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String member by key.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Json::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// Numeric member by key.
    pub fn get_num(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(Json::Num(n)) => Some(*n),
            _ => None,
        }
    }

    /// Numeric member by key, as `u64` (floor).
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        self.get_num(key).map(|n| n as u64)
    }

    /// Array member by key.
    pub fn get_arr(&self, key: &str) -> Option<&[Json]> {
        match self.get(key) {
            Some(Json::Arr(items)) => Some(items),
            _ => None,
        }
    }

    /// Build an object from `(key, value)` pairs.
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A number value.
    pub fn num(n: f64) -> Json {
        Json::Num(n)
    }
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Deepest nesting of arrays and objects [`parse`] accepts. Protocol
/// frames nest three or four levels; the parser recurses once per level.
pub const MAX_DEPTH: usize = 128;

/// Parse one JSON document; trailing non-whitespace is an error, and so
/// is nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(format!("nesting too deep (limit {MAX_DEPTH})")));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by `\uXXXX` with a low surrogate.
                            let ch = if (0xd800..0xdc00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err(self.err("bad low surrogate"));
                                    }
                                    let c = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                                    char::from_u32(c)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xdc00..0xe000).contains(&cp) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(ch.ok_or_else(|| self.err("bad code point"))?);
                            // `hex4` leaves `pos` on the char after the
                            // last digit; skip the outer `pos += 1`.
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is valid UTF-8 by
                    // construction: we parse `&str`).
                    let s = &self.bytes[self.pos..];
                    let len = utf8_len(s[0]);
                    let chunk =
                        std::str::from_utf8(&s[..len]).map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(chunk);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let s = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(s).map_err(|_| self.err("bad \\u escape"))?;
        let cp = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ascii");
        // `1e999` parses to infinity, which the encoder cannot write back.
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(self.err("bad number")),
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

impl fmt::Display for Json {
    /// Compact canonical encoding: no whitespace, members in stored
    /// order, integers without a fractional part, other numbers in
    /// shortest-round-trip form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => write_f64(f, *n),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_str(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Write `s` as a JSON string: quoted, with `"`, `\` and control
/// characters escaped.
pub fn write_str(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// Write `v` as a JSON number: integers without a fractional part, other
/// values in shortest-round-trip form. JSON has no non-finite numbers;
/// one of those is written as `null`, which keeps the document valid.
pub fn write_f64(out: &mut impl fmt::Write, v: f64) -> fmt::Result {
    if !v.is_finite() {
        out.write_str("null")
    } else if v.fract() == 0.0 && v.abs() < 9.0e15 {
        write!(out, "{}", v as i64)
    } else {
        write!(out, "{v}")
    }
}

/// Test support, shared with the daemon's byte-level suite: an arbitrary
/// value — strings over an alphabet heavy in what needs escaping, numbers
/// including the non-finite, `depth` levels of nesting.
#[doc(hidden)]
pub fn arbitrary(rng: &mut crate::SimRng, depth: u32) -> Json {
    const CHARS: [char; 14] = [
        '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{1f}', '\u{7f}', 'a', 'é',
        '\u{2028}', '😀',
    ];
    const NUMS: [f64; 10] = [
        0.0,
        -1.0,
        0.1,
        1e300,
        -2.5e-9,
        9.0e15,
        1e16,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    let string = |rng: &mut crate::SimRng| -> String {
        (0..rng.below(12))
            .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize])
            .collect()
    };
    match rng.below(if depth == 0 { 5 } else { 7 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 0),
        2 => Json::Num(NUMS[rng.below(NUMS.len() as u64) as usize]),
        3 => Json::Num((rng.f64() - 0.5) * 1e6),
        4 => Json::Str(string(rng)),
        5 => Json::Arr(
            (0..rng.below(4))
                .map(|_| arbitrary(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.below(4))
                .map(|_| (string(rng), arbitrary(rng, depth - 1)))
                .collect(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_values() {
        for src in [
            r#"{"type":"op","id":1,"op":"create","path":"/a/b"}"#,
            r#"[1,2.5,-3,1e3,true,false,null,"x"]"#,
            r#"{"nested":{"deep":[{"k":"v"}]},"empty":{},"none":[]}"#,
            r#""esc \" \\ \n \t \u00e9 \ud83d\ude00""#,
        ] {
            let v = parse(src).unwrap_or_else(|e| panic!("{src}: {e}"));
            let enc = v.to_string();
            assert_eq!(parse(&enc).unwrap(), v, "{src} changed across encode");
        }
    }

    #[test]
    fn rejects_malformed() {
        for src in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1}x",
            "\"\\ud800\"",
            "1e999",
        ] {
            assert!(parse(src).is_err(), "{src:?} should fail");
        }
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"s":"x","n":3,"a":[1],"o":{"k":1}}"#).unwrap();
        assert_eq!(v.get_str("s"), Some("x"));
        assert_eq!(v.get_num("n"), Some(3.0));
        assert_eq!(v.get_u64("n"), Some(3));
        assert_eq!(v.get_arr("a").map(<[Json]>::len), Some(1));
        assert!(v.get("o").unwrap().get("k").is_some());
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn nesting_is_bounded() {
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let nested = |depth: usize| format!("{}1{}", open.repeat(depth), close.repeat(depth));
            assert!(parse(&nested(MAX_DEPTH)).is_ok(), "{open} at the limit");
            let e = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
            assert!(e.msg.contains("nesting too deep"), "{open}: {e}");
        }
        // Siblings are not depth: a long flat array is fine.
        assert!(parse(&format!("[{}1]", "[],".repeat(10_000))).is_ok());
        // Depth an attacker can afford under the 16 MiB frame cap.
        assert!(parse(&"[".repeat(200_000)).is_err());
    }

    /// What `v` reads back as: itself, except that JSON has no non-finite
    /// numbers and the encoder writes `null` for them.
    fn as_read_back(v: &Json) -> Json {
        match v {
            Json::Num(n) if !n.is_finite() => Json::Null,
            Json::Arr(items) => Json::Arr(items.iter().map(as_read_back).collect()),
            Json::Obj(members) => Json::Obj(
                members
                    .iter()
                    .map(|(k, v)| (k.clone(), as_read_back(v)))
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    #[test]
    fn whatever_is_encoded_parses_back_to_itself() {
        let mut rng = crate::SimRng::new(0x15017).stream("json-round-trip");
        for case in 0..2_000 {
            let v = arbitrary(&mut rng, 3);
            let enc = v.to_string();
            assert!(
                !enc.bytes().any(|b| b < 0x20),
                "case {case}: raw control byte in {enc:?}"
            );
            let back = parse(&enc).unwrap_or_else(|e| panic!("case {case}: {enc:?}: {e}"));
            assert_eq!(back, as_read_back(&v), "case {case}: {enc:?}");
        }
        // The scalar writers on their own — what the trace encoder uses.
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\u{1}").unwrap();
        out.push(',');
        write_f64(&mut out, f64::NAN).unwrap();
        out.push(',');
        write_f64(&mut out, 1.5).unwrap();
        out.push(',');
        write_f64(&mut out, 400_000.0).unwrap();
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\",null,1.5,400000");
    }
}
