//! A minimal JSON value, encoder and parser.
//!
//! There is no serializer crate in the tree (the build is offline), so
//! the exporters carry their own codec. It covers exactly what
//! observability records and benchmark reports need: objects, arrays,
//! strings, integers, floats, bools and null, with `\uXXXX`-escaped
//! strings. Round-tripping is exact for the value shapes this
//! workspace emits and is property-tested below.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value. Objects use a `BTreeMap` so rendering is
/// deterministic (stable key order) — important for fingerprintable
/// benchmark reports and reproducible JSONL traces.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer (kept separate from floats so `u64` ids survive).
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with deterministically ordered keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The value at `key`, if this is an object holding one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// This value as an `i64` (integers only).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// This value as a `u64` (non-negative integers only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// This value as an `f64` (accepts both numeric forms).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render to a compact single-line JSON string.
    pub fn render(&self) -> String {
        self.to_string()
    }

    /// Parse a JSON document. Returns `None` on any syntax error or
    /// trailing garbage — observability parsing is best-effort and
    /// never panics.
    pub fn parse(text: &str) -> Option<Json> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos == bytes.len() {
            Some(value)
        } else {
            None
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        // Ids above i64::MAX would lose fidelity as Int; render via
        // string is overkill for this workspace (counters and ids stay
        // far below), so saturate defensively.
        Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::from(v as u64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Float(x) => {
                if x.is_finite() {
                    // Always keep a decimal point so the parser can
                    // restore the Int/Float distinction.
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        write!(f, "{x:.1}")
                    } else {
                        write!(f, "{x}")
                    }
                } else {
                    // JSON has no Inf/NaN; null is the standard fallback.
                    write!(f, "null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(map) => {
                write!(f, "{{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn eat(bytes: &[u8], pos: &mut usize, expected: u8) -> Option<()> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&expected) {
        *pos += 1;
        Some(())
    } else {
        None
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Option<Json> {
    skip_ws(bytes, pos);
    match bytes.get(*pos)? {
        b'n' => parse_keyword(bytes, pos, "null", Json::Null),
        b't' => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        b'f' => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        b'"' => parse_string(bytes, pos).map(Json::Str),
        b'[' => parse_array(bytes, pos),
        b'{' => parse_object(bytes, pos),
        _ => parse_number(bytes, pos),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Option<Json> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Some(value)
    } else {
        None
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Option<String> {
    if bytes.get(*pos) != Some(&b'"') {
        return None;
    }
    *pos += 1;
    let mut out = String::new();
    // Collect raw bytes, decoding escapes; input is valid UTF-8 by
    // construction (`&str`), so unescaped runs are copied by char.
    let text = std::str::from_utf8(&bytes[*pos..]).ok()?;
    let mut chars = text.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => {
                *pos += i + 1;
                return Some(out);
            }
            '\\' => {
                let (_, esc) = chars.next()?;
                match esc {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let (_, h) = chars.next()?;
                            code = code * 16 + h.to_digit(16)?;
                        }
                        out.push(char::from_u32(code)?);
                    }
                    _ => return None,
                }
            }
            c => out.push(c),
        }
    }
    None
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Option<Json> {
    let start = *pos;
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' | b'-' | b'+' => *pos += 1,
            b'.' | b'e' | b'E' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).ok()?;
    if text.is_empty() {
        return None;
    }
    if is_float {
        text.parse::<f64>().ok().map(Json::Float)
    } else {
        text.parse::<i64>().ok().map(Json::Int)
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Option<Json> {
    eat(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Some(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b',' => *pos += 1,
            b']' => {
                *pos += 1;
                return Some(Json::Arr(items));
            }
            _ => return None,
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Option<Json> {
    eat(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Some(Json::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        eat(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b',' => *pos += 1,
            b'}' => {
                *pos += 1;
                return Some(Json::Obj(map));
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scalars_round_trip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Int(-42),
            Json::Int(0),
            Json::Float(1.5),
            Json::Str("hello \"world\"\nline".into()),
        ] {
            assert_eq!(Json::parse(&v.render()), Some(v));
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Json::obj([
            ("name", Json::from("serve.request")),
            ("trace", Json::from(7u64)),
            ("tags", Json::Arr(vec![Json::from("a"), Json::from("b")])),
            ("nested", Json::obj([("x", Json::Float(2.0))])),
        ]);
        let text = v.render();
        assert_eq!(Json::parse(&text), Some(v));
        // Deterministic key order.
        assert!(text.find("\"name\"").unwrap() < text.find("\"nested\"").unwrap());
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1.2.3", "{}x"] {
            assert_eq!(Json::parse(bad), None, "{bad:?} should not parse");
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(
            Json::parse("\"\\u0041\\u00e9\""),
            Some(Json::Str("Aé".into()))
        );
    }

    proptest! {
        #[test]
        fn arbitrary_strings_round_trip(bytes in proptest::collection::vec(0u8..=255, 0..64)) {
            let v = Json::Str(String::from_utf8_lossy(&bytes).into_owned());
            prop_assert_eq!(Json::parse(&v.render()), Some(v));
        }

        #[test]
        // The rand shim cannot sample a full-width i64 range (the
        // span overflows u64), so probe one bit position at a time.
        fn arbitrary_ints_round_trip(shift in 0u32..63, neg in 0u8..2) {
            let magnitude = 1i64 << shift;
            let i = if neg == 1 { -magnitude } else { magnitude };
            let v = Json::Int(i);
            prop_assert_eq!(Json::parse(&v.render()), Some(v));
        }
    }

    #[test]
    fn extreme_ints_round_trip() {
        for i in [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX] {
            let v = Json::Int(i);
            assert_eq!(Json::parse(&v.render()), Some(v));
        }
    }
}
