//! Offline stand-in for `serde_json` 1.x: the untyped [`Value`] tree, a
//! strict parser ([`from_str`]) and the two printers. There is no typed
//! (derive-driven) serialisation: the `serde` stand-in's traits are markers.
//!
//! Objects are `BTreeMap`s, as in the published crate without its
//! `preserve_order` feature, so keys print sorted.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON object.
pub type Map<K, V> = BTreeMap<K, V>;

/// A JSON number: an integer when it was written as one, else a float.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Number {
    /// A non-negative integer.
    PosInt(u64),
    /// A negative integer.
    NegInt(i64),
    /// Anything with a fraction or exponent.
    Float(f64),
}

impl Number {
    /// The value as `f64` (always available).
    pub fn as_f64(&self) -> Option<f64> {
        Some(match *self {
            Number::PosInt(n) => n as f64,
            Number::NegInt(n) => n as f64,
            Number::Float(f) => f,
        })
    }

    /// The value as `u64`, when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::PosInt(n) => Some(n),
            _ => None,
        }
    }

    /// The value as `i64`, when it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::PosInt(n) => i64::try_from(n).ok(),
            Number::NegInt(n) => Some(n),
            Number::Float(_) => None,
        }
    }

    /// A float number; `None` for NaN and the infinities, which JSON lacks.
    pub fn from_f64(f: f64) -> Option<Number> {
        f.is_finite().then_some(Number::Float(f))
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Number::PosInt(n) => write!(f, "{n}"),
            Number::NegInt(n) => write!(f, "{n}"),
            // `{:?}` keeps a trailing `.0` and round-trips every f64.
            Number::Float(x) => write!(f, "{x:?}"),
        }
    }
}

/// Any JSON value.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum Value {
    /// `null`
    #[default]
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map<String, Value>),
}

impl Value {
    /// Member `key` of an object; `None` for other values or a missing key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    /// The number as `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The number as `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The string's contents.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array's items.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The object's members.
    pub fn as_object(&self) -> Option<&Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    /// NaN and the infinities become `null`, as in the published crate.
    fn from(f: f64) -> Self {
        Number::from_f64(f).map_or(Value::Null, Value::Number)
    }
}

macro_rules! from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Self {
                Value::Number(Number::PosInt(n as u64))
            }
        }
    )*};
}
from_unsigned!(u8, u16, u32, u64, usize);

macro_rules! from_signed {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Self {
                if n >= 0 {
                    Value::Number(Number::PosInt(n as u64))
                } else {
                    Value::Number(Number::NegInt(n as i64))
                }
            }
        }
    )*};
}
from_signed!(i8, i16, i32, i64, isize);

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl From<Map<String, Value>> for Value {
    fn from(m: Map<String, Value>) -> Self {
        Value::Object(m)
    }
}

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    msg: String,
    offset: usize,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

impl std::error::Error for Error {}

/// This crate's result type.
pub type Result<T> = std::result::Result<T, Error>;

/// What [`from_str`] can produce here: only [`Value`].
pub trait FromJson: Sized {
    /// Build from a parsed tree.
    fn from_value(v: Value) -> Self;
}

impl FromJson for Value {
    fn from_value(v: Value) -> Self {
        v
    }
}

/// Parse one JSON document; anything but whitespace after it is an error.
pub fn from_str<T: FromJson>(s: &str) -> Result<T> {
    let mut p = Parser {
        src: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(T::from_value(v))
}

/// Nesting beyond this is refused instead of overflowing the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> Error {
        Error {
            msg: msg.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.src.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Result<()> {
        if self.src[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err("expected a JSON value"))
        }
    }

    fn value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.src.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.eat("null").map(|_| Value::Null),
            Some(b't') => self.eat("true").map(|_| Value::Bool(true)),
            Some(b'f') => self.eat("false").map(|_| Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("expected a JSON value")),
        }
    }

    fn nested(&mut self, body: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        self.pos += 1;
        let v = body(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value> {
        let mut items = Vec::new();
        self.skip_ws();
        if self.src.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.src.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        let mut members = Map::new();
        self.skip_ws();
        if self.src.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            if self.src.get(self.pos) != Some(&b'"') {
                return Err(self.err("expected a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.src.get(self.pos) != Some(&b':') {
                return Err(self.err("expected `:`"));
            }
            self.pos += 1;
            let v = self.value()?;
            members.insert(key, v);
            self.skip_ws();
            match self.src.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let digits = self
            .src
            .get(self.pos..self.pos + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let v = u32::from_str_radix(digits, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn string(&mut self) -> Result<String> {
        self.pos += 1; // opening quote
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.src.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let Some(&e) = self.src.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    let ch = match e {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                if self.src.get(self.pos..self.pos + 2) != Some(b"\\u") {
                                    return Err(self.err("lone surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("bad surrogate pair"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            char::from_u32(code).ok_or_else(|| self.err("bad code point"))?
                        }
                        _ => return Err(self.err("unknown escape")),
                    };
                    out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
                }
                0..=0x1F => return Err(self.err("control character in string")),
                _ => out.push(b),
            }
        }
        // The input was a `&str` and only whole escapes were replaced.
        String::from_utf8(out).map_err(|_| self.err("invalid UTF-8 in string"))
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        let digits = |p: &mut Self| {
            let from = p.pos;
            while matches!(p.src.get(p.pos), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos - from
        };
        if self.src.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        let int_digits = digits(self);
        if int_digits == 0 || (int_digits > 1 && self.src[int_start] == b'0') {
            return Err(self.err("bad number"));
        }
        let mut integral = true;
        if self.src.get(self.pos) == Some(&b'.') {
            integral = false;
            self.pos += 1;
            if digits(self) == 0 {
                return Err(self.err("bad number"));
            }
        }
        if matches!(self.src.get(self.pos), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.src.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if digits(self) == 0 {
                return Err(self.err("bad number"));
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ASCII digits");
        if integral {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Number(Number::PosInt(n)));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Number(Number::NegInt(n)));
            }
        }
        text.parse::<f64>()
            .ok()
            .and_then(Number::from_f64)
            .map(Value::Number)
            .ok_or_else(|| self.err("number out of range"))
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `indent = None` prints compactly, `Some(level)` two spaces per level.
fn write_value(out: &mut String, v: &Value, indent: Option<usize>) {
    let newline = |out: &mut String, level: usize| {
        out.push('\n');
        out.push_str(&"  ".repeat(level));
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => out.push_str(&n.to_string()),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(level) = indent {
                    newline(out, level + 1);
                }
                write_value(out, item, indent.map(|l| l + 1));
            }
            if let (Some(level), false) = (indent, items.is_empty()) {
                newline(out, level);
            }
            out.push(']');
        }
        Value::Object(members) => {
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(level) = indent {
                    newline(out, level + 1);
                }
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent.map(|l| l + 1));
            }
            if let (Some(level), false) = (indent, members.is_empty()) {
                newline(out, level);
            }
            out.push('}');
        }
    }
}

/// Print compactly, on one line.
pub fn to_string(v: &Value) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, v, None);
    Ok(out)
}

/// Print with two-space indentation.
pub fn to_string_pretty(v: &Value) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, v, Some(0));
    Ok(out)
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_value(&mut out, self, None);
        f.write_str(&out)
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    /// Member `key`, or `null` when absent or not an object.
    fn index(&self, key: &str) -> &Value {
        static NULL: Value = Value::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    /// Item `i`, or `null` when absent or not an array.
    fn index(&self, i: usize) -> &Value {
        static NULL: Value = Value::Null;
        match self {
            Value::Array(a) => a.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_kind_of_value() {
        let text = r#"{"a":[1,-2,3.5,1e-7,true,null],"s":"q\"\\\n\u00e9\ud83d\ude00","o":{}}"#;
        let v: Value = from_str(text).expect("parses");
        assert_eq!(v.get("a").and_then(|a| a.as_array()).map(Vec::len), Some(6));
        assert_eq!(v["a"][0].as_u64(), Some(1));
        assert_eq!(v["a"][1].as_i64(), Some(-2));
        assert_eq!(v["a"][2].as_f64(), Some(3.5));
        assert_eq!(v["a"][3].as_f64(), Some(1e-7));
        assert_eq!(v["s"].as_str(), Some("q\"\\\né😀"));
        for printed in [
            to_string(&v).expect("prints"),
            to_string_pretty(&v).expect("prints"),
        ] {
            assert_eq!(from_str::<Value>(&printed).expect("re-parses"), v);
        }
        assert_eq!(to_string(&Value::from(1.0)).expect("prints"), "1.0");
        assert_eq!(Value::from(f64::NAN), Value::Null);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "01",
            "1.",
            "\"abc",
            "nul",
            "[1] 2",
            "{\"a\" 1}",
            "\"\\ud800\"",
            "-",
            "\"\u{1}\"",
        ] {
            assert!(from_str::<Value>(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(MAX_DEPTH + 1);
        assert!(from_str::<Value>(&deep).is_err());
    }
}
