//! A minimal JSON document model, writer, and parser.
//!
//! The obs layer must stay dependency-free (it is compiled into every crate
//! of the workspace and must build with the registry unreachable), so it
//! carries its own ~150-line JSON emitter instead of `serde_json`. Output
//! is strict RFC 8259: strings are escaped, non-finite floats serialize as
//! `null` (JSON has no NaN/Infinity).
//!
//! The matching [`Value::parse`] reader exists for the diagnostics layer:
//! the link doctor and the `obs-diff` regression gate both consume
//! previously written `results/<experiment>.json` run reports, and CI
//! re-parses emitted `trace.json` files to validate them. Numbers parse to
//! `f64` (the only numeric type the model has), so a write→parse round trip
//! is lossless for every document this crate can produce.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any finite number (integers are emitted without a fraction part).
    Number(f64),
    /// A string.
    String(String),
    /// An ordered array.
    Array(Vec<Value>),
    /// An object. Keys are kept sorted (BTreeMap) so report files diff
    /// cleanly between runs.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Build an object from `(key, value)` pairs.
    pub fn object<K: Into<String>, I: IntoIterator<Item = (K, Value)>>(pairs: I) -> Value {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Insert into an object value; panics if `self` is not an object.
    pub fn insert<K: Into<String>>(&mut self, key: K, value: Value) {
        match self {
            Value::Object(map) => {
                map.insert(key.into(), value);
            }
            _ => panic!("Value::insert on a non-object"),
        }
    }

    /// Serialize compactly (no whitespace).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0)
            .expect("writing to String cannot fail");
        out
    }

    /// Serialize with 2-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0)
            .expect("writing to String cannot fail");
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) -> fmt::Result {
        match self {
            Value::Null => out.write_str("null"),
            Value::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            Value::Number(n) => write_number(out, *n),
            Value::String(s) => write_escaped(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    return out.write_str("[]");
                }
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    newline_indent(out, indent, depth + 1)?;
                    item.write(out, indent, depth + 1)?;
                }
                newline_indent(out, indent, depth)?;
                out.write_char(']')
            }
            Value::Object(map) => {
                if map.is_empty() {
                    return out.write_str("{}");
                }
                out.write_char('{')?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    newline_indent(out, indent, depth + 1)?;
                    write_escaped(out, k)?;
                    out.write_str(if indent.is_some() { ": " } else { ":" })?;
                    v.write(out, indent, depth + 1)?;
                }
                newline_indent(out, indent, depth)?;
                out.write_char('}')
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) -> fmt::Result {
    if let Some(width) = indent {
        out.write_char('\n')?;
        for _ in 0..width * depth {
            out.write_char(' ')?;
        }
    }
    Ok(())
}

fn write_number(out: &mut String, n: f64) -> fmt::Result {
    if !n.is_finite() {
        // JSON cannot represent NaN/Infinity; null is the conventional
        // lossless-enough stand-in for "not a measurable number".
        return out.write_str("null");
    }
    if n == n.trunc() && n.abs() < 9e15 {
        write!(out, "{}", n as i64)
    } else {
        write!(out, "{n}")
    }
}

fn write_escaped(out: &mut String, s: &str) -> fmt::Result {
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

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Number(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Number(v as f64)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Number(v as f64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Number(v as f64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::Number(v as f64)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        match v {
            Some(inner) => inner.into(),
            None => Value::Null,
        }
    }
}

// --- Accessors -----------------------------------------------------------

impl Value {
    /// Member lookup on an object (`None` on non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as a non-negative integer (counters), if this is a
    /// number with an exact u64 representation.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.trunc() == *n && *n < 1.85e19 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The member map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(map) => Some(map),
            _ => None,
        }
    }
}

// --- Parser --------------------------------------------------------------

/// Why a JSON document failed to parse, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Nesting depth bound: reports and traces are shallow; a pathological
/// input must not overflow the stack.
const MAX_DEPTH: usize = 128;

impl Value {
    /// Parse one JSON document (RFC 8259). Trailing whitespace is allowed,
    /// trailing content is an error. Numbers become `f64`.
    pub fn parse(input: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing content after document"));
        }
        Ok(value)
    }
}

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

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
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

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a following \uXXXX low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(cp)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("unpaired surrogate"));
                                }
                            } else {
                                // Only a lone low surrogate is not a char.
                                char::from_u32(hi).ok_or_else(|| self.err("unpaired surrogate"))?
                            };
                            out.push(c);
                            // hex4 leaves pos one past the last digit.
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so bytes are
                    // valid UTF-8; find the char at this byte offset).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().expect("non-empty by peek");
                    if (c as u32) < 0x20 {
                        return Err(self.err("unescaped control character"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Four ASCII hex digits; advances past them and returns the code
    /// unit. Anything else, a sign included, is an invalid escape.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut v = 0;
        for &b in digits {
            let digit = char::from(b)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            v = v * 16 + digit;
        }
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_serialize() {
        assert_eq!(Value::Null.to_compact(), "null");
        assert_eq!(Value::Bool(true).to_compact(), "true");
        assert_eq!(Value::from(42u64).to_compact(), "42");
        assert_eq!(Value::from(1.5).to_compact(), "1.5");
        assert_eq!(Value::from(-3i64).to_compact(), "-3");
        assert_eq!(Value::from("hi").to_compact(), "\"hi\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Value::from(f64::NAN).to_compact(), "null");
        assert_eq!(Value::from(f64::INFINITY).to_compact(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            Value::from("a\"b\\c\nd\te\u{1}").to_compact(),
            "\"a\\\"b\\\\c\\nd\\te\\u0001\""
        );
    }

    #[test]
    fn objects_sort_keys_and_nest() {
        let v = Value::object([
            ("zeta", Value::from(1u64)),
            ("alpha", Value::Array(vec![Value::from("x"), Value::Null])),
        ]);
        assert_eq!(v.to_compact(), "{\"alpha\":[\"x\",null],\"zeta\":1}");
    }

    #[test]
    fn pretty_output_is_indented_and_reparsable_shape() {
        let v = Value::object([("a", Value::Array(vec![Value::from(1u64)]))]);
        let pretty = v.to_pretty();
        assert!(pretty.contains("\n  \"a\": [\n    1\n  ]\n"));
    }

    #[test]
    fn empty_containers_are_compact() {
        assert_eq!(Value::Array(vec![]).to_pretty(), "[]");
        assert_eq!(Value::object::<&str, _>([]).to_pretty(), "{}");
    }

    #[test]
    fn insert_extends_objects() {
        let mut v = Value::object::<&str, _>([]);
        v.insert("k", Value::from(2u64));
        assert_eq!(v.to_compact(), "{\"k\":2}");
    }

    #[test]
    fn large_integers_keep_integer_form() {
        assert_eq!(Value::from(1_000_000_000u64).to_compact(), "1000000000");
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse("false").unwrap(), Value::Bool(false));
        assert_eq!(Value::parse("42").unwrap(), Value::from(42u64));
        assert_eq!(Value::parse("-1.5e3").unwrap(), Value::from(-1500.0));
        assert_eq!(Value::parse("\"hi\"").unwrap(), Value::from("hi"));
    }

    #[test]
    fn parse_containers_and_nesting() {
        let v = Value::parse("{\"a\": [1, {\"b\": null}], \"c\": \"x\"}").unwrap();
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x"));
        let a = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].get("b"), Some(&Value::Null));
        assert_eq!(Value::parse("[]").unwrap(), Value::Array(vec![]));
        assert_eq!(Value::parse("{}").unwrap(), Value::object::<&str, _>([]));
    }

    #[test]
    fn parse_string_escapes() {
        let v = Value::parse(r#""a\"b\\c\ndA😀""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA\u{1F600}"));
    }

    #[test]
    fn parse_unicode_escapes() {
        assert_eq!(Value::parse(r#""\u0041""#).unwrap(), Value::from("A"));
        assert_eq!(
            Value::parse(r#""\ud83d\ude00""#).unwrap(),
            Value::from("\u{1F600}")
        );
        let err = |offset: usize, message: &str| ParseError {
            offset,
            message: message.to_string(),
        };
        for (bad, want) in [
            (r#""\u+041""#, err(3, "invalid \\u escape")),
            (r#""\u12""#, err(3, "truncated \\u escape")),
            (r#"["\u12", 1]"#, err(4, "invalid \\u escape")),
            (r#""\ud800""#, err(7, "unpaired surrogate")),
            (r#""\ud800\u0041""#, err(13, "invalid low surrogate")),
            (r#""\udc00""#, err(7, "unpaired surrogate")),
        ] {
            assert_eq!(Value::parse(bad), Err(want), "{bad}");
        }
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "[1] trailing",
            "{'single': 1}",
            "\"bad \u{1} ctrl\"",
        ] {
            assert!(Value::parse(bad).is_err(), "should reject {bad:?}");
        }
        let err = Value::parse("[1, fal]").unwrap_err();
        assert!(err.to_string().contains("byte"), "{err}");
    }

    #[test]
    fn parse_depth_is_bounded() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(
            Value::parse(&deep).is_err(),
            "pathological nesting rejected"
        );
    }

    #[test]
    fn write_parse_round_trip() {
        let original = Value::object([
            ("name", Value::from("rx.process_frame")),
            ("count", Value::from(1234u64)),
            ("mean_ns", Value::from(56.789)),
            ("tags", Value::Array(vec![Value::from("a b"), Value::Null])),
            ("nested", Value::object([("ok", Value::Bool(true))])),
        ]);
        for doc in [original.to_compact(), original.to_pretty()] {
            assert_eq!(Value::parse(&doc).unwrap(), original);
        }
    }

    #[test]
    fn accessors_reject_wrong_shapes() {
        assert_eq!(Value::Null.get("k"), None);
        assert_eq!(Value::from("s").as_f64(), None);
        assert_eq!(Value::from(-1i64).as_u64(), None);
        assert_eq!(Value::from(1.5).as_u64(), None);
        assert_eq!(Value::from(3u64).as_str(), None);
        assert!(Value::object::<&str, _>([]).as_object().unwrap().is_empty());
    }
}
