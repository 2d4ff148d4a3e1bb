//! # urcl-json
//!
//! A minimal, dependency-free JSON module: a [`Value`] tree, a compact and
//! a pretty writer, and a recursive-descent parser. It replaces `serde` /
//! `serde_json` across the workspace so the whole repository builds with no
//! network access: checkpoints (`urcl-core::persist`), experiment results
//! (`urcl-bench`) and the kernel bench report (`BENCH_tensor_ops.json`) all
//! go through this crate.
//!
//! The scope is deliberately small — exactly what the workspace needs:
//! objects preserve insertion order (stable diffs for results files),
//! numbers are `f64`, and non-finite floats serialize as `null` (matching
//! `serde_json`'s strictness without erroring).

use std::fmt::Write as _;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// An empty object.
    pub fn object() -> Self {
        Value::Object(Vec::new())
    }

    /// Inserts (or replaces) a field on an object; panics on non-objects.
    pub fn set(&mut self, key: &str, value: impl Into<Value>) -> &mut Self {
        let Value::Object(fields) = self else {
            panic!("set() on non-object JSON value");
        };
        if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value.into();
        } else {
            fields.push((key.to_string(), value.into()));
        }
        self
    }

    /// Builder-style [`Self::set`].
    pub fn with(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.set(key, value);
        self
    }

    /// Field lookup on objects; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as `u64` (truncating), if this is a non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    // -------------------------------------------------------------- writer

    /// Compact serialization (no whitespace).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(n) => write_number(out, *n),
            Value::Str(s) => write_string(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Value::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    // -------------------------------------------------------------- parser

    /// Parses a JSON document. Trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON document"));
        }
        Ok(v)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 1e15 && !(n == 0.0 && n.is_sign_negative()) {
        // Integers print without an exponent or trailing ".0". Negative
        // zero is excluded: `n as i64` would print "0" and lose the sign
        // bit, breaking bitwise checkpoint round-trips.
        let _ = write!(out, "{}", n as i64);
    } else {
        // `{}` on f64 is the shortest representation that round-trips.
        let _ = write!(out, "{n}");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure with a byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
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
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("invalid escape character")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so any
                    // multi-byte sequence is valid).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().unwrap();
                    if (c as u32) < 0x20 {
                        return Err(self.err("unescaped control character in string"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let chunk = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(chunk, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

// ----------------------------------------------------------- conversions

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Num(v)
    }
}

impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::Num(v as f64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Num(v as f64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Num(v as f64)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Num(v as f64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Num(v as f64)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

/// Types that can render themselves as a JSON [`Value`]. The workspace's
/// replacement for `#[derive(Serialize)]`.
pub trait ToJson {
    /// Builds the JSON tree for this value.
    fn to_json(&self) -> Value;
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for &T {
    fn to_json(&self) -> Value {
        (*self).to_json()
    }
}

/// Converts a slice of `f32` to a JSON array (checkpoint payloads).
pub fn f32_array(xs: &[f32]) -> Value {
    Value::Array(xs.iter().map(|&x| Value::Num(x as f64)).collect())
}

/// Converts a slice of `usize` to a JSON array (shapes).
pub fn usize_array(xs: &[usize]) -> Value {
    Value::Array(xs.iter().map(|&x| Value::Num(x as f64)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "0", "-1", "3.5", "1e3"] {
            let v = Value::parse(text).unwrap();
            let back = Value::parse(&v.to_string_compact()).unwrap();
            assert_eq!(v, back, "{text}");
        }
    }

    #[test]
    fn roundtrip_nested() {
        let v = Value::object()
            .with("name", "enc.w")
            .with("shape", vec![2usize, 3])
            .with("ok", true)
            .with(
                "values",
                f32_array(&[1.0, -0.5, 3.25e-8, f32::MAX, f32::MIN_POSITIVE]),
            );
        for text in [v.to_string_compact(), v.to_string_pretty()] {
            let back = Value::parse(&text).unwrap();
            assert_eq!(back.get("name").unwrap().as_str(), Some("enc.w"));
            let vals = back.get("values").unwrap().as_array().unwrap();
            assert_eq!(vals[0].as_f64(), Some(1.0));
            // f32 -> decimal -> f64 -> f32 is exact for shortest repr.
            assert_eq!(vals[2].as_f64().unwrap() as f32, 3.25e-8);
            assert_eq!(vals[3].as_f64().unwrap() as f32, f32::MAX);
            assert_eq!(vals[4].as_f64().unwrap() as f32, f32::MIN_POSITIVE);
        }
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "a\"b\\c\nd\te\u{08}\u{0c}\u{1f}π🦀";
        let v = Value::Str(s.to_string());
        let back = Value::parse(&v.to_string_compact()).unwrap();
        assert_eq!(back.as_str(), Some(s));
    }

    #[test]
    fn parses_unicode_escapes_and_surrogates() {
        let v = Value::parse(r#""\u00e9\ud83e\udd80""#).unwrap();
        assert_eq!(v.as_str(), Some("é🦀"));
    }

    #[test]
    fn non_finite_serializes_as_null() {
        assert_eq!(Value::Num(f64::NAN).to_string_compact(), "null");
        assert_eq!(Value::Num(f64::INFINITY).to_string_compact(), "null");
    }

    #[test]
    fn negative_zero_keeps_its_sign() {
        let text = Value::Num(-0.0).to_string_compact();
        assert_eq!(text, "-0");
        let back = Value::parse(&text).unwrap().as_f64().unwrap();
        assert!(back == 0.0 && back.is_sign_negative(), "{back}");
        // And positive zero still prints as a plain integer.
        assert_eq!(Value::Num(0.0).to_string_compact(), "0");
    }

    #[test]
    fn rejects_malformed() {
        for text in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"\\x\"",
            "{\"a\" 1}",
        ] {
            assert!(Value::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn object_set_replaces_and_preserves_order() {
        let mut v = Value::object().with("b", 1usize).with("a", 2usize);
        v.set("b", 9usize);
        let Value::Object(fields) = &v else { panic!() };
        assert_eq!(fields[0].0, "b");
        assert_eq!(fields[0].1.as_u64(), Some(9));
        assert_eq!(fields[1].0, "a");
    }

    #[test]
    fn pretty_output_is_indented() {
        let v = Value::object().with("a", vec![1usize, 2]);
        let text = v.to_string_pretty();
        assert!(text.contains("\n  \"a\": [\n    1,\n    2\n  ]"), "{text}");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Value::object().to_string_pretty(), "{}");
        assert_eq!(Value::Array(vec![]).to_string_pretty(), "[]");
        assert_eq!(Value::parse("[ ]").unwrap(), Value::Array(vec![]));
        assert_eq!(Value::parse("{ }").unwrap(), Value::object());
    }
}
