//! JSON documents: one value type, one strict parser and one writer
//! behind every JSON document the workspace reads or writes (bench
//! records, health reports, drift baselines, the admin plane's `/slo`
//! and `/healthz`, the access log and the JSON-lines trace).
//!
//! * [`Value`] holds a document: null, booleans, integers, floats,
//!   strings, arrays, and objects whose members keep their order.
//! * [`parse`] reads RFC 8259 JSON strictly. Every problem is a typed
//!   [`Error`] carrying the byte offset where it sits and the path of
//!   keys and indices to the value it sits in: trailing content,
//!   duplicate keys, non-JSON numbers (`NaN`, `Infinity`, `+1`, `01`,
//!   `1.`), numbers beyond the range of `f64`, lone surrogates, raw
//!   control characters in strings and nesting deeper than
//!   [`MAX_DEPTH`]. No input panics.
//! * [`Value::to_document`] writes a document and [`Value::to_line`]
//!   one JSON-lines record; the caller picks the form by what it
//!   writes.
//!
//! # Layout
//!
//! A document writes its root container and every container directly
//! inside the root one member per line, indented two spaces per level.
//! Deeper containers are written on one line, and so is everything in
//! a JSON-lines record. On a line, members read `"key": value` and are
//! separated by `, `. Empty containers are `{}` and `[]`. A document
//! ends in a newline; a record does not.
//!
//! # Numbers
//!
//! [`Value::Int`] is written as an integer. [`Value::Float`] is written
//! in the shortest form that reads back to the same `f64` (`1.0`,
//! `0.1`, `1e-7`), and a non-finite float as `null`, because JSON has
//! no NaN or infinity. The parser reads a literal without fraction or
//! exponent as an integer when it lies in `i64::MIN..=u64::MAX`, and
//! every other literal as a float.
//!
//! ```
//! use ropuf_telemetry::json::{self, Value};
//!
//! let doc = Value::object([
//!     ("version", Value::from(1u32)),
//!     ("gauges", Value::object([("uniqueness", Value::from(0.5))])),
//! ]);
//! let text = doc.to_document();
//! assert_eq!(text, "{\n  \"version\": 1,\n  \"gauges\": {\n    \"uniqueness\": 0.5\n  }\n}\n");
//! assert_eq!(json::parse(&text), Ok(doc));
//! assert!(json::parse("{\"a\": 1, \"a\": 2}").is_err());
//! ```

use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt::{self, Write};

/// Deepest nesting of arrays and objects [`parse`] accepts. Deeper
/// input is an [`ErrorKind::TooDeep`] error, so the recursive descent
/// never exhausts the stack.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Strings and keys are copy-on-write so writers can
/// build documents from static names without allocating them.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// An integer. The parser produces it for every literal without
    /// fraction or exponent in `i64::MIN..=u64::MAX`.
    Int(i128),
    /// A float, written in its shortest round-trip form; non-finite
    /// values are written as `null`.
    Float(f64),
    /// A string.
    String(Cow<'static, str>),
    /// An array.
    Array(Vec<Value>),
    /// An object, its members in document order. The parser refuses
    /// duplicate keys, so a parsed object holds each key once.
    Object(Vec<(Cow<'static, str>, Value)>),
}

impl Value {
    /// An object with `members` in the order given.
    pub fn object<K: Into<Cow<'static, str>>>(
        members: impl IntoIterator<Item = (K, Value)>,
    ) -> Value {
        Value::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The member `key` of an object; `None` when absent or when this
    /// is not an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number this value holds, integer or float.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(n) => Some(n as f64),
            Value::Float(x) => Some(x),
            _ => None,
        }
    }

    /// The integer this value holds, when it fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Int(n) => u64::try_from(n).ok(),
            _ => None,
        }
    }

    /// The boolean this value holds.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The string this value holds.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements of an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Writes the value as a JSON document (see the module docs for
    /// the layout), ending in a newline.
    pub fn to_document(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Writes the value as one JSON-lines record: everything on one
    /// line, no trailing newline.
    pub fn to_line(&self) -> String {
        let mut out = String::with_capacity(128);
        self.write(&mut out, None);
        out
    }

    /// `level` is the nesting level of this value in a document, or
    /// `None` when it is written on one line.
    fn write(&self, out: &mut String, level: Option<usize>) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(n) => write_integer(out, *n),
            // `{:?}` is the shortest form that reads back to the same
            // f64, and always carries a `.` or an exponent.
            Value::Float(x) if x.is_finite() => write!(out, "{x:?}").expect("write to String"),
            Value::Float(_) => out.push_str("null"),
            Value::String(s) => write_string(out, s),
            Value::Array(items) => {
                write_container(out, level, ['[', ']'], items.iter().map(|v| (None, v)))
            }
            Value::Object(members) => write_container(
                out,
                level,
                ['{', '}'],
                members.iter().map(|(k, v)| (Some(k.as_ref()), v)),
            ),
        }
    }
}

/// Writes an array's elements or an object's members: one per line at
/// document levels 0 and 1, on one line otherwise.
fn write_container<'a>(
    out: &mut String,
    level: Option<usize>,
    [open, close]: [char; 2],
    members: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Value)>,
) {
    let expanded = level.filter(|&l| l <= 1 && members.len() > 0);
    out.push(open);
    for (i, (key, value)) in members.enumerate() {
        if i > 0 {
            out.push(',');
        }
        match expanded {
            Some(l) => push_indent(out, l + 1),
            None if i > 0 => out.push(' '),
            None => {}
        }
        if let Some(key) = key {
            write_string(out, key);
            out.push_str(": ");
        }
        value.write(out, expanded.map(|l| l + 1));
    }
    if let Some(l) = expanded {
        push_indent(out, l);
    }
    out.push(close);
}

fn push_indent(out: &mut String, level: usize) {
    out.push('\n');
    out.extend(std::iter::repeat_n(' ', 2 * level));
}

/// Writes `n` in decimal. Integers are mostly counts and times in a
/// trace line, so magnitudes that fit a `u64` take a digit loop instead
/// of the formatting machinery.
fn write_integer(out: &mut String, n: i128) {
    let Ok(mut magnitude) = u64::try_from(n.unsigned_abs()) else {
        write!(out, "{n}").expect("write to String");
        return;
    };
    if n < 0 {
        out.push('-');
    }
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (magnitude % 10) as u8;
        magnitude /= 10;
        if magnitude == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// Writes `s` as a JSON string literal: quotes, backslashes and control
/// characters escaped, everything else verbatim.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[start..i]);
        if escape.is_empty() {
            write!(out, "\\u{b:04x}").expect("write to String");
        } else {
            out.push_str(escape);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

macro_rules! from_integer {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Self {
                Value::Int(n as i128)
            }
        }
    )*};
}
from_integer!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}

impl From<&'static str> for Value {
    fn from(s: &'static str) -> Self {
        Value::String(Cow::Borrowed(s))
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(Cow::Owned(s))
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

/// Why [`parse`] refused its input, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// Byte offset of the problem in the input.
    pub offset: usize,
    /// What is wrong there.
    pub kind: ErrorKind,
    /// The member keys and array indices leading from the root to the
    /// value the problem sits in, such as
    /// `attack.attacker_advantage_guarded` or `speedup_curve[2].secs`;
    /// empty at the root.
    pub path: String,
}

impl Error {
    fn new(offset: usize, kind: ErrorKind) -> Self {
        Self {
            offset,
            kind,
            path: String::new(),
        }
    }

    /// This error, found inside the member or element `segment` (a key
    /// or `[index]`) of an enclosing container.
    fn inside(mut self, segment: &str) -> Self {
        if !(self.path.is_empty() || self.path.starts_with('[')) {
            self.path.insert(0, '.');
        }
        self.path.insert_str(0, segment);
        self
    }
}

/// The kinds of [`Error`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorKind {
    /// The input ended inside a value.
    UnexpectedEnd,
    /// A character that cannot start or continue a value here.
    UnexpectedChar(char),
    /// Content after the top-level value.
    TrailingContent,
    /// An object key repeating an earlier key of the same object.
    DuplicateKey(String),
    /// A number off the JSON grammar, such as `-`, `1.` or `1e`.
    InvalidNumber,
    /// A number whose magnitude overflows `f64`.
    NumberOutOfRange,
    /// A backslash escape JSON does not define, or a malformed `\u`.
    InvalidEscape,
    /// A `\u` escape of one half of a UTF-16 surrogate pair alone.
    LoneSurrogate,
    /// A raw control character (below U+0020) inside a string.
    ControlCharacter,
    /// Arrays and objects nested deeper than [`MAX_DEPTH`].
    TooDeep,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ErrorKind::UnexpectedEnd => f.write_str("unexpected end of input"),
            ErrorKind::UnexpectedChar(c) => write!(f, "unexpected character {c:?}"),
            ErrorKind::TrailingContent => f.write_str("trailing content after the value"),
            ErrorKind::DuplicateKey(key) => write!(f, "duplicate key {key:?}"),
            ErrorKind::InvalidNumber => f.write_str("malformed number"),
            ErrorKind::NumberOutOfRange => f.write_str("number out of range"),
            ErrorKind::InvalidEscape => f.write_str("invalid escape"),
            ErrorKind::LoneSurrogate => f.write_str("lone UTF-16 surrogate escape"),
            ErrorKind::ControlCharacter => f.write_str("raw control character in string"),
            ErrorKind::TooDeep => write!(f, "nesting deeper than {MAX_DEPTH}"),
        }?;
        write!(f, " at byte {}", self.offset)?;
        if !self.path.is_empty() {
            write!(f, " in {}", self.path)?;
        }
        Ok(())
    }
}

impl std::error::Error for Error {}

/// Parses `text` as one JSON value, surrounded by optional whitespace.
///
/// # Errors
///
/// Returns the first problem found, with its byte offset (see the
/// module docs for what is refused).
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut parser = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    parser.skip_whitespace();
    let value = parser.value(0)?;
    parser.skip_whitespace();
    if parser.pos < parser.bytes.len() {
        return Err(parser.error(ErrorKind::TrailingContent));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    /// Always on a character boundary: the parser steps over ASCII
    /// bytes one at a time and over string contents by slices that end
    /// at ASCII bytes.
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, kind: ErrorKind) -> Error {
        Error::new(self.pos, kind)
    }

    /// The error for the byte at the cursor, which cannot go here.
    fn unexpected(&self) -> Error {
        match self
            .text
            .get(self.pos..)
            .and_then(|rest| rest.chars().next())
        {
            Some(c) => self.error(ErrorKind::UnexpectedChar(c)),
            None => self.error(ErrorKind::UnexpectedEnd),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let found = self.peek() == Some(byte);
        self.pos += usize::from(found);
        found
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// One value at the cursor; `depth` containers enclose it.
    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        match self.peek() {
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(Value::String(Cow::Owned(self.string()?))),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.unexpected()),
        }
    }

    /// Steps into the container opening at the cursor.
    fn open(&mut self, depth: usize) -> Result<(), Error> {
        if depth > MAX_DEPTH {
            return Err(self.error(ErrorKind::TooDeep));
        }
        self.pos += 1;
        self.skip_whitespace();
        Ok(())
    }

    /// After an element: `true` at a `,`, `false` at `close`.
    fn next_element(&mut self, close: u8) -> Result<bool, Error> {
        self.skip_whitespace();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                self.skip_whitespace();
                Ok(true)
            }
            Some(b) if b == close => {
                self.pos += 1;
                Ok(false)
            }
            _ => Err(self.unexpected()),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, Error> {
        self.open(depth)?;
        let mut items = Vec::new();
        if self.eat(b']') {
            return Ok(Value::Array(items));
        }
        loop {
            let item = self
                .value(depth)
                .map_err(|e| e.inside(&format!("[{}]", items.len())))?;
            items.push(item);
            if !self.next_element(b']')? {
                return Ok(Value::Array(items));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, Error> {
        self.open(depth)?;
        let mut members: Vec<(Cow<'static, str>, Value)> = Vec::new();
        let mut key_offsets = Vec::new();
        if !self.eat(b'}') {
            loop {
                if self.peek() != Some(b'"') {
                    return Err(self.unexpected());
                }
                key_offsets.push(self.pos);
                let key = self.string()?;
                self.skip_whitespace();
                if !self.eat(b':') {
                    return Err(self.unexpected());
                }
                self.skip_whitespace();
                let value = self.value(depth).map_err(|e| e.inside(&key))?;
                members.push((Cow::Owned(key), value));
                if !self.next_element(b'}')? {
                    break;
                }
            }
        }
        let mut seen = HashSet::with_capacity(members.len());
        for ((key, _), &offset) in members.iter().zip(&key_offsets) {
            if !seen.insert(key.as_ref()) {
                return Err(Error::new(offset, ErrorKind::DuplicateKey(key.to_string())));
            }
        }
        Ok(Value::Object(members))
    }

    /// `word` at the cursor, which starts with its first byte.
    fn literal(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        for &b in word.as_bytes() {
            if self.peek() != Some(b) {
                return Err(self.unexpected());
            }
            self.pos += 1;
        }
        Ok(value)
    }

    /// Steps over a run of ASCII digits; `false` when there is none.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let malformed = Error::new(start, ErrorKind::InvalidNumber);
        self.eat(b'-');
        // No leading zeros: after a `0` the integer part is over.
        if !self.eat(b'0') && !self.digits() {
            return Err(malformed);
        }
        let mut integral = true;
        if self.eat(b'.') {
            integral = false;
            if !self.digits() {
                return Err(malformed);
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.digits() {
                return Err(malformed);
            }
        }
        let literal = &self.text[start..self.pos];
        if integral {
            if let Ok(n) = literal.parse::<i128>() {
                if (i128::from(i64::MIN)..=i128::from(u64::MAX)).contains(&n) {
                    return Ok(Value::Int(n));
                }
            }
        }
        match literal.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Float(x)),
            _ => Err(Error::new(start, ErrorKind::NumberOutOfRange)),
        }
    }

    /// The string literal opening at the cursor, unescaped.
    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(self.error(ErrorKind::UnexpectedEnd)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => out.push(self.escape()?),
                Some(_) => return Err(self.error(ErrorKind::ControlCharacter)),
            }
        }
    }

    /// The escape sequence at the cursor (its backslash), decoded.
    fn escape(&mut self) -> Result<char, Error> {
        let at = self.pos;
        let invalid = |kind| Error::new(at, kind);
        self.pos += 1;
        let simple = match self.peek() {
            None => return Err(self.error(ErrorKind::UnexpectedEnd)),
            Some(b'u') => None,
            Some(b'"') => Some('"'),
            Some(b'\\') => Some('\\'),
            Some(b'/') => Some('/'),
            Some(b'b') => Some('\u{8}'),
            Some(b'f') => Some('\u{c}'),
            Some(b'n') => Some('\n'),
            Some(b'r') => Some('\r'),
            Some(b't') => Some('\t'),
            Some(_) => return Err(invalid(ErrorKind::InvalidEscape)),
        };
        self.pos += 1;
        if let Some(c) = simple {
            return Ok(c);
        }
        let unit = self.hex4(at)?;
        let scalar = match unit {
            0xD800..=0xDBFF => {
                if !(self.eat(b'\\') && self.eat(b'u')) {
                    return Err(invalid(ErrorKind::LoneSurrogate));
                }
                let low = self.hex4(at)?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return Err(invalid(ErrorKind::LoneSurrogate));
                }
                0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
            }
            _ => unit,
        };
        char::from_u32(scalar).ok_or(invalid(ErrorKind::LoneSurrogate))
    }

    /// Four hex digits at the cursor, for the escape starting at `at`.
    fn hex4(&mut self, at: usize) -> Result<u32, Error> {
        let mut unit = 0;
        for _ in 0..4 {
            let digit = match self.peek() {
                None => return Err(self.error(ErrorKind::UnexpectedEnd)),
                Some(b) => char::from(b)
                    .to_digit(16)
                    .ok_or(Error::new(at, ErrorKind::InvalidEscape))?,
            };
            unit = unit * 16 + digit;
            self.pos += 1;
        }
        Ok(unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kind(text: &str) -> ErrorKind {
        parse(text).expect_err(text).kind
    }

    #[test]
    fn documents_expand_two_levels_and_inline_the_rest() {
        let doc = Value::object([
            ("version", Value::from(1u32)),
            ("empty", Value::Array(Vec::new())),
            (
                "gauges",
                Value::Array(vec![
                    Value::object([("name", Value::from("a")), ("value", Value::from(0.0))]),
                    Value::object([("nested", Value::Array(vec![Value::from(true)]))]),
                ]),
            ),
        ]);
        assert_eq!(
            doc.to_document(),
            "{\n  \"version\": 1,\n  \"empty\": [],\n  \"gauges\": [\n    \
             {\"name\": \"a\", \"value\": 0.0},\n    {\"nested\": [true]}\n  ]\n}\n"
        );
        assert_eq!(
            doc.to_line(),
            "{\"version\": 1, \"empty\": [], \"gauges\": [{\"name\": \"a\", \"value\": 0.0}, \
             {\"nested\": [true]}]}"
        );
        assert_eq!(Value::from(7u8).to_document(), "7\n");
    }

    #[test]
    fn numbers_write_as_integers_shortest_floats_or_null() {
        let line = |v: Value| v.to_line();
        assert_eq!(line(Value::from(u64::MAX)), "18446744073709551615");
        assert_eq!(line(Value::from(i64::MIN)), "-9223372036854775808");
        assert_eq!(line(Value::from(1.0)), "1.0");
        assert_eq!(line(Value::from(0.1)), "0.1");
        assert_eq!(line(Value::from(1e-7)), "1e-7");
        assert_eq!(line(Value::from(-0.0)), "-0.0");
        assert_eq!(line(Value::from(f64::NAN)), "null");
        assert_eq!(line(Value::from(f64::NEG_INFINITY)), "null");
        assert_eq!(line(Value::from(None::<u64>)), "null");
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        let s = Value::from("a\"b\\c\nd\te\r\u{1}\u{7f}é😀");
        assert_eq!(s.to_line(), "\"a\\\"b\\\\c\\nd\\te\\r\\u0001\u{7f}é😀\"");
        assert_eq!(parse(&s.to_line()), Ok(s));
    }

    #[test]
    fn parser_reads_numbers_by_their_literal() {
        assert_eq!(parse("0"), Ok(Value::Int(0)));
        assert_eq!(parse("-0"), Ok(Value::Int(0)));
        assert_eq!(parse("18446744073709551615"), Ok(Value::from(u64::MAX)));
        assert_eq!(
            parse("18446744073709551616"),
            Ok(Value::Float(18446744073709551616.0))
        );
        assert_eq!(
            parse("-9223372036854775809"),
            Ok(Value::Float(-9223372036854775809.0))
        );
        assert_eq!(parse("1.0"), Ok(Value::Float(1.0)));
        assert_eq!(parse("2E-3"), Ok(Value::Float(0.002)));
        assert_eq!(parse("5e-324"), Ok(Value::Float(5e-324)));
        assert_eq!(kind("1e309"), ErrorKind::NumberOutOfRange);
        for bad in ["-", "1.", ".5", "1e", "1e+", "-.5"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
        assert_eq!(kind("01"), ErrorKind::TrailingContent);
        assert_eq!(kind("+1"), ErrorKind::UnexpectedChar('+'));
        assert_eq!(kind("NaN"), ErrorKind::UnexpectedChar('N'));
        assert_eq!(kind("[Infinity]"), ErrorKind::UnexpectedChar('I'));
    }

    #[test]
    fn parser_decodes_escapes_and_refuses_lone_surrogates() {
        assert_eq!(
            parse(r#""\"\\\/\b\f\n\r\té😀""#),
            Ok(Value::from("\"\\/\u{8}\u{c}\n\r\té😀"))
        );
        assert_eq!(kind(r#""\ud83d""#), ErrorKind::LoneSurrogate);
        assert_eq!(kind(r#""\ud83dx""#), ErrorKind::LoneSurrogate);
        assert_eq!(kind(r#""\ud83dA""#), ErrorKind::LoneSurrogate);
        assert_eq!(kind(r#""\ude00""#), ErrorKind::LoneSurrogate);
        assert_eq!(kind(r#""\x""#), ErrorKind::InvalidEscape);
        assert_eq!(kind(r#""\u12g4""#), ErrorKind::InvalidEscape);
        assert_eq!(kind("\"a\nb\""), ErrorKind::ControlCharacter);
        assert_eq!(kind("\"abc"), ErrorKind::UnexpectedEnd);
    }

    #[test]
    fn structural_errors_carry_their_offset() {
        let err = parse("{\"a\": 1, \"a\": 2}").unwrap_err();
        assert_eq!(err.kind, ErrorKind::DuplicateKey("a".into()));
        assert_eq!(err.offset, 9);
        assert_eq!(err.to_string(), "duplicate key \"a\" at byte 9");
        assert_eq!(parse("{\"a\": 1} x").unwrap_err().offset, 9);
        assert_eq!(kind("{\"a\": 1} x"), ErrorKind::TrailingContent);
        assert_eq!(kind("{\"a\" 1}"), ErrorKind::UnexpectedChar('1'));
        assert_eq!(kind("{\"a\": 1,}"), ErrorKind::UnexpectedChar('}'));
        assert_eq!(kind("[1, 2"), ErrorKind::UnexpectedEnd);
        assert_eq!(kind("[1 2]"), ErrorKind::UnexpectedChar('2'));
        assert_eq!(kind("tru"), ErrorKind::UnexpectedEnd);
        assert_eq!(kind(""), ErrorKind::UnexpectedEnd);
        assert_eq!(kind("{'a': 1}"), ErrorKind::UnexpectedChar('\''));
        // The path names the value the problem sits in.
        let err = parse("{\"a\": [1, {\"b\": NaN}]}").unwrap_err();
        assert_eq!(err.path, "a[1].b");
        assert_eq!(
            err.to_string(),
            "unexpected character 'N' at byte 16 in a[1].b"
        );
        assert_eq!(parse("[[0, -]]").unwrap_err().path, "[0][1]");
        assert_eq!(parse("{\"a\": 1 x}").unwrap_err().path, "");
        // Same key in different objects is fine.
        assert!(parse("{\"a\": {\"a\": 1}, \"b\": [{\"a\": 2}]}").is_ok());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        let err = parse(&deep).unwrap_err();
        assert_eq!(err.kind, ErrorKind::TooDeep);
        assert_eq!(err.offset, MAX_DEPTH);
        let fits = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&fits).is_ok());
        let deep_objects = "{\"a\":".repeat(100_000);
        assert_eq!(kind(&deep_objects), ErrorKind::TooDeep);
    }

    #[test]
    fn lookups_read_members_and_numbers() {
        let doc = parse("{\"n\": 3, \"x\": 0.5, \"s\": \"t\", \"b\": false, \"neg\": -1}").unwrap();
        assert_eq!(doc.get("n").and_then(Value::as_u64), Some(3));
        assert_eq!(doc.get("n").and_then(Value::as_f64), Some(3.0));
        assert_eq!(doc.get("x").and_then(Value::as_u64), None);
        assert_eq!(doc.get("neg").and_then(Value::as_u64), None);
        assert_eq!(doc.get("s").and_then(Value::as_str), Some("t"));
        assert_eq!(doc.get("b").and_then(Value::as_bool), Some(false));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Value::Null.get("n"), None);
    }
}
