//! Offline stand-in for the subset of the `serde_json` API the star-serve
//! wire protocol uses.
//!
//! The workspace builds in environments without access to crates.io, so the
//! real `serde_json` cannot be vendored.  The serving layer
//! (`crates/serve`) speaks line-delimited JSON over TCP, which needs exactly
//! one runtime surface: a [`Value`] tree, [`from_str`] to decode a line and
//! [`to_string`] / [`Value`]'s `Display` to encode one.  This crate
//! implements that surface — and nothing more — API-compatible with the
//! real `serde_json` so the swap documented in the workspace manifest stays
//! a one-line change (the sibling `serde` shim covers the derive macros the
//! same way).
//!
//! Three deliberate deviations from the real crate, all in the direction the
//! wire protocol needs:
//!
//! * **Objects preserve insertion order** (the real crate sorts keys unless
//!   its `preserve_order` feature is on).  The serving protocol's
//!   byte-identity contract — the same query must produce the same response
//!   bytes — needs field order to be a pure function of the encoder, not of
//!   key collation.
//! * **Numbers are `f64`** (the real crate has a lossless `Number`).  Every
//!   numeric field on the wire — rates, latencies, counters — fits: `u64`
//!   counters stay exact below 2^53 and f64 round-trips are bit-exact
//!   (encoding uses Rust's shortest-round-trip formatting, decoding is
//!   `str::parse::<f64>`).
//! * **A borrowing field walk** (the real crate borrows through serde's
//!   `Deserialize<'de>` derives, which the offline `serde` shim does not
//!   implement).  [`for_each_field`] hands a document's top-level fields to
//!   a closure as [`ValueRef`]s that borrow the input, so a request line
//!   decodes without building a tree; [`push_number`] and [`push_string`]
//!   are the matching encoders, appending to one `String` with the bytes
//!   [`to_string`] would write.  [`from_str`] runs on the same walk, so both
//!   report every malformed document with the same message and byte offset.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::borrow::Cow;
use std::error::Error as StdError;
use std::fmt;

/// A parsed JSON value.  Objects preserve insertion order (see the crate
/// docs for why).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64` (exact for integers below 2^53).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, as insertion-ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

/// The number as an exact unsigned integer, if it is one (integral,
/// non-negative, below 2^53 so the `f64` carries it losslessly).
fn exact_u64(n: f64) -> Option<u64> {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    (n >= 0.0 && n.fract() == 0.0 && n < 9_007_199_254_740_992.0).then_some(n as u64)
}

impl Value {
    /// The value of an object field, if this is an object that has it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an exact unsigned integer, if it is one (integral,
    /// non-negative, below 2^53 so the `f64` carries it losslessly).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(exact_u64)
    }

    /// The string, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The fields in insertion order, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Whether this is `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// This value as [`for_each_field`] would hand it over: scalars
    /// borrowed, containers as bare markers.
    #[must_use]
    pub fn as_value_ref(&self) -> ValueRef<'_> {
        match self {
            Value::Null => ValueRef::Null,
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Number(n) => ValueRef::Number(*n),
            Value::String(s) => ValueRef::String(Cow::Borrowed(s)),
            Value::Array(_) => ValueRef::Array,
            Value::Object(_) => ValueRef::Object,
        }
    }
}

/// A JSON value as [`for_each_field`] hands it over: a scalar borrowed from
/// the input (a string is copied only when it holds an escape), or a bare
/// marker for a container, whose contents were checked and skipped without
/// building anything.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueRef<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Number(f64),
    /// A string, borrowed unless it held an escape.
    String(Cow<'a, str>),
    /// An array (contents skipped).
    Array,
    /// An object (contents skipped).
    Object,
}

impl ValueRef<'_> {
    /// The number, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ValueRef::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an exact unsigned integer, as [`Value::as_u64`].
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(exact_u64)
    }

    /// The string, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ValueRef::String(s) => Some(s),
            _ => None,
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<f64> for Value {
    /// Non-finite values encode as `null` (JSON has no spelling for them),
    /// matching the real crate's lossy f64 serialization.
    fn from(v: f64) -> Self {
        if v.is_finite() {
            Value::Number(v)
        } else {
            Value::Null
        }
    }
}

impl From<u64> for Value {
    #[allow(clippy::cast_precision_loss)]
    fn from(v: u64) -> Self {
        Value::Number(v as f64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::from(v as u64)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::String(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::String(v)
    }
}

/// Writes the JSON escaping of `s` (quotes included), each run of
/// characters that need no escape in one piece.
fn write_escaped<W: fmt::Write + ?Sized>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    for (at, byte) in s.bytes().enumerate() {
        // every byte that needs an escape is ASCII, so `at` is a char boundary
        let escape = match byte {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0x08 => Some("\\b"),
            0x0C => Some("\\f"),
            0..=0x1F => None,
            _ => continue,
        };
        out.write_str(&s[run..at])?;
        match escape {
            Some(escape) => out.write_str(escape)?,
            None => write!(out, "\\u{byte:04x}")?,
        }
        run = at + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

/// Writes the canonical number spelling: `null` when not finite, integers
/// without a fractional part (exact below 2^53), everything else in Rust's
/// shortest round-trip form, so encode → decode reproduces the exact bits.
fn write_number<W: fmt::Write + ?Sized>(out: &mut W, n: f64) -> fmt::Result {
    #[allow(clippy::cast_possible_truncation)]
    if !n.is_finite() {
        out.write_str("null")
    } else if n == 0.0 {
        out.write_char('0')
    } else if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 {
        write!(out, "{}", n as i64)
    } else {
        write!(out, "{n}")
    }
}

fn write_value<W: fmt::Write + ?Sized>(out: &mut W, value: &Value) -> fmt::Result {
    match value {
        Value::Null => out.write_str("null"),
        Value::Bool(true) => out.write_str("true"),
        Value::Bool(false) => out.write_str("false"),
        Value::Number(n) => write_number(out, *n),
        Value::String(s) => write_escaped(out, s),
        Value::Array(items) => {
            out.write_char('[')?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                write_value(out, item)?;
            }
            out.write_char(']')
        }
        Value::Object(fields) => {
            out.write_char('{')?;
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                write_escaped(out, key)?;
                out.write_char(':')?;
                write_value(out, item)?;
            }
            out.write_char('}')
        }
    }
}

impl fmt::Display for Value {
    /// Compact (no-whitespace) JSON, object fields in insertion order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_value(f, self)
    }
}

/// Encodes a value as compact JSON (the `Display` form).
#[must_use]
pub fn to_string(value: &Value) -> String {
    value.to_string()
}

/// Appends a number to `out` exactly as [`to_string`] spells
/// `Value::from(n)`: `null` when not finite, integral values without a
/// fraction, the rest in shortest round-trip form.
pub fn push_number(out: &mut String, n: f64) {
    write_number(out, n).expect("writing to a String cannot fail");
}

/// Appends `s` to `out` as a JSON string, quotes included, exactly as
/// [`to_string`] spells `Value::from(s)`.
pub fn push_string(out: &mut String, s: &str) {
    write_escaped(out, s).expect("writing to a String cannot fail");
}

/// Why a JSON document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// What was wrong.
    message: String,
    /// Byte offset into the input where the problem was noticed.
    offset: usize,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl StdError for Error {}

/// Parses one JSON document (surrounding whitespace tolerated, trailing
/// garbage rejected).
///
/// # Errors
/// Returns an [`Error`] naming the first offending byte offset.
pub fn from_str(input: &str) -> Result<Value, Error> {
    document(input, |parser| parser.parse_value(0))
}

/// Walks one JSON document without building it, handing each top-level
/// object field to `visit` in input order (duplicates included).  Nested
/// containers are checked and skipped; a document that is not an object
/// visits nothing.  Nothing is allocated unless a string holds an escape.
///
/// ```
/// let mut rate = None;
/// serde_json::for_each_field(r#"{"id":1,"rate":0.004,"x":[true]}"#, |key, value| {
///     if key == "rate" {
///         rate = value.as_f64();
///     }
/// })
/// .unwrap();
/// assert_eq!(rate, Some(0.004));
/// ```
///
/// # Errors
/// Exactly the [`Error`] — message and byte offset — that [`from_str`]
/// returns for the same input.
pub fn for_each_field<'a>(
    input: &'a str,
    mut visit: impl FnMut(Cow<'a, str>, ValueRef<'a>),
) -> Result<(), Error> {
    document(input, |parser| {
        parser
            .value(0, |parser, key| {
                let value = parser.skip_value(1)?;
                if let Some(key) = key {
                    visit(key, value);
                }
                Ok(())
            })
            .map(drop)
    })
}

/// Runs `body` on the one value of `input`, between optional whitespace and
/// the end of the input.
fn document<'a, T>(
    input: &'a str,
    body: impl FnOnce(&mut Parser<'a>) -> Result<T, Error>,
) -> Result<T, Error> {
    let mut parser = Parser { input, bytes: input.as_bytes(), pos: 0 };
    parser.skip_whitespace();
    let value = body(&mut parser)?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters after the document"));
    }
    Ok(value)
}

/// Nesting depth cap: a wire line nests two or three levels; 128 keeps any
/// hostile input from exhausting the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> Error {
        Error { message: message.to_string(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", char::from(byte))))
        }
    }

    fn parse_literal(&mut self, literal: &str, value: ValueRef<'a>) -> Result<ValueRef<'a>, Error> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected {literal:?}")))
        }
    }

    /// Parses the value at `depth`.  A scalar comes back borrowed; a
    /// container comes back as its marker once `element` has consumed each
    /// of its elements, called at the element's first byte with the field's
    /// key, or `None` inside an array.
    fn value(
        &mut self,
        depth: usize,
        mut element: impl FnMut(&mut Self, Option<Cow<'a, str>>) -> Result<(), Error>,
    ) -> Result<ValueRef<'a>, Error> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.parse_literal("null", ValueRef::Null),
            Some(b't') => self.parse_literal("true", ValueRef::Bool(true)),
            Some(b'f') => self.parse_literal("false", ValueRef::Bool(false)),
            Some(b'"') => Ok(ValueRef::String(self.parse_string()?)),
            Some(b'[') => {
                self.walk(b']', |parser| element(parser, None))?;
                Ok(ValueRef::Array)
            }
            Some(b'{') => {
                self.walk(b'}', |parser| {
                    let key = parser.parse_string()?;
                    parser.skip_whitespace();
                    parser.expect(b':')?;
                    parser.skip_whitespace();
                    element(parser, Some(key))
                })?;
                Ok(ValueRef::Object)
            }
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(_) => Err(self.error("expected a JSON value")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// The items of the array or object that opens at the current byte,
    /// each consumed by `item` at its first byte, up to the `close` byte.
    fn walk(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.pos += 1;
        self.skip_whitespace();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_whitespace();
            item(self)?;
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(byte) if byte == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ if close == b']' => return Err(self.error("expected ',' or ']'")),
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    /// The value at `depth`, built.
    fn parse_value(&mut self, depth: usize) -> Result<Value, Error> {
        let (mut items, mut fields) = (Vec::new(), Vec::new());
        let value = self.value(depth, |parser, key| {
            let item = parser.parse_value(depth + 1)?;
            match key {
                Some(key) => fields.push((key.into_owned(), item)),
                None => items.push(item),
            }
            Ok(())
        })?;
        Ok(match value {
            ValueRef::Null => Value::Null,
            ValueRef::Bool(b) => Value::Bool(b),
            ValueRef::Number(n) => Value::Number(n),
            ValueRef::String(s) => Value::String(s.into_owned()),
            ValueRef::Array => Value::Array(items),
            ValueRef::Object => Value::Object(fields),
        })
    }

    /// The value at `depth`, checked; containers are skipped.
    fn skip_value(&mut self, depth: usize) -> Result<ValueRef<'a>, Error> {
        self.value(depth, |parser, _| parser.skip_value(depth + 1).map(drop))
    }

    fn parse_number(&mut self) -> Result<ValueRef<'a>, Error> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
            self.pos += 1;
        }
        match self.input[start..self.pos].parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(ValueRef::Number(n)),
            _ => {
                self.pos = start;
                Err(self.error("malformed number"))
            }
        }
    }

    /// A string, scanned in runs of bytes that need no decoding: borrowed
    /// from the input unless it holds an escape.
    fn parse_string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.expect(b'"')?;
        let mut decoded: Option<String> = None;
        let mut run = self.pos;
        loop {
            // every byte that ends a run is ASCII, so each run is whole
            // UTF-8 characters
            self.pos += self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.bytes.len() - self.pos);
            let text = &self.input[run..self.pos];
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match decoded {
                        None => Cow::Borrowed(text),
                        Some(mut out) => {
                            out.push_str(text);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = decoded.get_or_insert_with(String::new);
                    out.push_str(text);
                    self.pos += 1;
                    out.push(self.parse_escape()?);
                    run = self.pos;
                }
                Some(_) => return Err(self.error("unescaped control character")),
            }
        }
    }

    /// The character an escape spells, from the byte after its backslash.
    fn parse_escape(&mut self) -> Result<char, Error> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{08}',
            Some(b'f') => '\u{0C}',
            Some(b'u') => {
                self.pos += 1;
                let first = self.parse_hex4()?;
                let scalar = if (0xD800..0xDC00).contains(&first) {
                    // surrogate pair: the low half must follow
                    if self.bytes[self.pos..].starts_with(b"\\u") {
                        self.pos += 2;
                        let second = self.parse_hex4()?;
                        if !(0xDC00..0xE000).contains(&second) {
                            return Err(self.error("unpaired surrogate"));
                        }
                        0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                    } else {
                        return Err(self.error("unpaired surrogate"));
                    }
                } else {
                    first
                };
                // parse_hex4 advanced past the digits already
                return char::from_u32(scalar).ok_or_else(|| self.error("invalid \\u escape"));
            }
            _ => return Err(self.error("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let scalar = u32::from_str_radix(digits, 16)
            .map_err(|_| self.error("non-hex digits in \\u escape"))?;
        self.pos += 4;
        Ok(scalar)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(json: &str) -> String {
        to_string(&from_str(json).unwrap())
    }

    #[test]
    fn parses_the_wire_shapes() {
        let line = r#"{"op":"query","id":1,"topology":"star","size":5,"rate":0.004}"#;
        let v = from_str(line).unwrap();
        assert_eq!(v.get("op").and_then(Value::as_str), Some("query"));
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("rate").and_then(Value::as_f64), Some(0.004));
        assert_eq!(v.get("missing"), None);
        // encode preserves field insertion order → the exact input bytes
        assert_eq!(to_string(&v), line);
        assert_eq!(format!("{v}"), line);
    }

    #[test]
    fn scalars_and_containers_round_trip() {
        for json in [
            "null",
            "true",
            "false",
            "0",
            "-7",
            "0.004",
            "\"hi\"",
            "[]",
            "[1,2,[3]]",
            "{}",
            r#"{"b":1,"a":[true,null]}"#,
        ] {
            assert_eq!(roundtrip(json), json, "{json}");
        }
        // whitespace is tolerated on decode, dropped on encode
        assert_eq!(roundtrip(" { \"a\" : [ 1 , 2 ] } "), r#"{"a":[1,2]}"#);
        // exponent spellings parse; encoding is positional (Rust's `{}`),
        // which still reproduces the exact bits on re-parse
        assert_eq!(from_str("1e3").unwrap(), Value::Number(1000.0));
        assert_eq!(roundtrip("1e3"), "1000");
    }

    #[test]
    fn f64_bits_survive_the_wire() {
        for bits in [0.004f64, 1.0 / 3.0, 74.330_213_477_6, f64::MIN_POSITIVE, 9e15 + 1.0, 1e-300] {
            let encoded = to_string(&Value::from(bits));
            let back = from_str(&encoded).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), bits.to_bits(), "{bits} -> {encoded}");
        }
    }

    #[test]
    fn integers_encode_without_fraction() {
        assert_eq!(to_string(&Value::from(42u64)), "42");
        assert_eq!(to_string(&Value::Number(2.0)), "2");
        assert_eq!(to_string(&Value::Number(-0.0)), "0");
        assert_eq!(from_str("42").unwrap().as_u64(), Some(42));
        assert_eq!(from_str("2.5").unwrap().as_u64(), None);
        assert_eq!(from_str("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn non_finite_numbers_encode_as_null() {
        assert_eq!(to_string(&Value::from(f64::INFINITY)), "null");
        assert_eq!(to_string(&Value::Number(f64::NAN)), "null");
        assert!(Value::from(f64::NAN).is_null());
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Value::from("a\"b\\c\nd\te\u{08}\u{0C}\u{1}é😀");
        let encoded = to_string(&v);
        assert_eq!(from_str(&encoded).unwrap(), v);
        // the \u escape and surrogate-pair decode path
        assert_eq!(from_str(r#""\u00e9\ud83d\ude00\/""#).unwrap(), Value::from("é😀/"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "nul",
            "1 2",
            "{\"a\"}",
            "{\"a\":}",
            "\"unterminated",
            "\"bad\\qescape\"",
            "\"\\ud800alone\"",
            "01a",
            "--3",
            "[1]]",
            "{\"a\":1,}",
        ] {
            assert!(from_str(bad).is_err(), "{bad:?} must not parse");
        }
        let err = from_str("[true, oops]").unwrap_err();
        assert!(err.to_string().contains("byte 7"), "{err}");
    }

    #[test]
    fn accessors_answer_only_their_own_shape() {
        let v = from_str(r#"{"a":[1],"s":"x","b":true}"#).unwrap();
        assert!(v.as_array().is_none());
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.as_object().unwrap().len(), 3);
        assert!(v.get("a").unwrap().get("nested").is_none());
        assert!(!v.is_null());
        assert!(from_str("null").unwrap().is_null());
    }

    #[test]
    fn the_field_walk_borrows_and_fails_exactly_as_from_str() {
        let line = r#" {"op":"query","k\u0065y":"a\"b","n":[1,{"x":null}],"op":2} "#;
        let mut seen = Vec::new();
        for_each_field(line, |key, value| seen.push((key, value))).unwrap();
        assert_eq!(seen.len(), 4, "duplicates are visited in order");
        assert!(matches!(&seen[0].0, Cow::Borrowed("op")));
        assert!(matches!(&seen[0].1, ValueRef::String(Cow::Borrowed("query"))));
        assert_eq!(seen[1].0, "key");
        assert!(matches!(&seen[1].1, ValueRef::String(Cow::Owned(s)) if s == "a\"b"));
        assert_eq!(seen[2].1, ValueRef::Array);
        assert_eq!(seen[3].1.as_u64(), Some(2));
        // a document that is not an object has no fields
        for_each_field("[1,2]", |_, _| panic!("no fields")).unwrap();
        // every malformed document fails with from_str's message and offset
        for bad in [
            "",
            "{",
            "{\"a\":[1,",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "{\"a\":1} x",
            "{1:2}",
            "{\"a\":\"\\q\"}",
            "{\"a\":\"\\ud800\"}",
            "{\"a\":\"\u{1}\"}",
            "{\"a\":-}",
        ] {
            let walked = for_each_field(bad, |_, _| {}).unwrap_err();
            assert_eq!(walked, from_str(bad).unwrap_err(), "{bad:?}");
        }
        let deep = format!("{{\"a\":{}{}}}", "[".repeat(200), "]".repeat(200));
        assert_eq!(for_each_field(&deep, |_, _| {}).unwrap_err(), from_str(&deep).unwrap_err());
    }

    #[test]
    fn scalar_writers_spell_what_to_string_spells() {
        for n in
            [0.0, -0.0, 42.0, -7.0, 0.004, 1.0 / 3.0, 9e15 + 1.0, 1e300, f64::NAN, f64::INFINITY]
        {
            let mut out = String::new();
            push_number(&mut out, n);
            assert_eq!(out, to_string(&Value::from(n)), "{n}");
        }
        for s in ["", "plain", "a\"b\\c\nd\te\u{08}\u{0C}\u{1}\u{1f}é😀"] {
            let mut out = String::new();
            push_string(&mut out, s);
            assert_eq!(out, to_string(&Value::from(s)), "{s:?}");
        }
        assert_eq!(to_string(&Value::from("\u{1}")), "\"\\u0001\"");
    }
}
