//! A minimal, self-contained JSON document model.
//!
//! The build environment has no registry access (see `vendor/README.md`),
//! so the workspace carries no serialization dependency. The observability
//! subsystem needs *real* machine-readable artifacts — `metrics.json`,
//! Chrome traces, `BENCH_repro.json` — so this module provides a small
//! JSON value type with an emitter, a parser and typed field accessors.
//! Object key order is preserved (insertion order), which keeps emitted
//! artifacts stable and diffable across runs.
//!
//! Numbers are kept as either `i64` or `f64`: cycle counts routinely exceed
//! `f64`'s 2^53 integer range in long simulations, so integers round-trip
//! exactly through the `Display` text and [`Json::parse`].

use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so hostile input (`[[[[...`) must hit a typed
/// error long before it can exhaust the stack; real artifacts nest less
/// than ten levels.
pub(crate) const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (emitted without a decimal point).
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an integer, if it is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a float (integers convert losslessly up to 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a non-negative integer; `what` names it in the error.
    ///
    /// # Errors
    ///
    /// This and every `try_*`/`*_field` accessor below return a shape
    /// [`JsonError`] (offset 0) naming the offending value or field.
    pub fn try_u64(&self, what: &str) -> Result<u64, JsonError> {
        self.as_int()
            .and_then(|v| u64::try_from(v).ok())
            .ok_or_else(|| JsonError::shape(format!("{what} must be a non-negative integer")))
    }

    /// The value as a `u32`.
    pub(crate) fn try_u32(&self, what: &str) -> Result<u32, JsonError> {
        u32::try_from(self.try_u64(what)?)
            .map_err(|_| JsonError::shape(format!("{what} exceeds u32")))
    }

    /// The value as a finite number.
    pub fn try_f64(&self, what: &str) -> Result<f64, JsonError> {
        self.as_f64()
            .filter(|v| v.is_finite())
            .ok_or_else(|| JsonError::shape(format!("{what} must be a finite number")))
    }

    /// The value as a string slice.
    pub fn try_str(&self, what: &str) -> Result<&str, JsonError> {
        self.as_str()
            .ok_or_else(|| JsonError::shape(format!("{what} must be a string")))
    }

    /// The value as an array slice.
    pub(crate) fn try_arr(&self, what: &str) -> Result<&[Json], JsonError> {
        self.as_arr()
            .ok_or_else(|| JsonError::shape(format!("{what} must be an array")))
    }

    /// The member `key` of an object.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::shape(format!("missing field `{key}`")))
    }

    /// The member `key` as a non-negative integer.
    pub fn u64_field(&self, key: &str) -> Result<u64, JsonError> {
        self.field(key)?.try_u64(key)
    }

    /// The member `key` as a `u32`.
    pub fn u32_field(&self, key: &str) -> Result<u32, JsonError> {
        self.field(key)?.try_u32(key)
    }

    /// The member `key` as a string slice.
    pub fn str_field(&self, key: &str) -> Result<&str, JsonError> {
        self.field(key)?.try_str(key)
    }

    /// The member `key` as an array slice.
    pub fn arr_field(&self, key: &str) -> Result<&[Json], JsonError> {
        self.field(key)?.try_arr(key)
    }

    /// Serializes with two-space indentation and a trailing newline —
    /// the format every artifact file uses.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&"  ".repeat(indent + 1));
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
            _ => out.push_str(&self.to_string()),
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first syntax error, or the
    /// first array/object nested deeper than `MAX_DEPTH`.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    /// Compact (single-line) serialization.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(v) => write!(f, "{v}"),
            Json::Float(v) => {
                if v.is_finite() {
                    // Guarantee a distinguishing decimal point or exponent
                    // so the value re-parses as a float.
                    let s = format!("{v}");
                    if s.contains(['.', 'e', 'E']) {
                        f.write_str(&s)
                    } else {
                        write!(f, "{s}.0")
                    }
                } else {
                    // JSON has no Inf/NaN; null is the conventional fallback.
                    f.write_str("null")
                }
            }
            Json::Str(s) => {
                let mut out = String::new();
                write_escaped(&mut out, s);
                f.write_str(&out)
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut key = String::new();
                    write_escaped(&mut key, k);
                    write!(f, "{key}:{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
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

/// A JSON syntax error with a byte offset, or a shape error (a missing or
/// mistyped field of a parsed document) at offset 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl JsonError {
    /// A shape error: the document parsed but does not look as expected.
    pub fn shape(message: impl Into<String>) -> Self {
        JsonError {
            offset: 0,
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(open @ (b'[' | b'{')) => {
                self.depth += 1;
                let value = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
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

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8 in string"))?,
            );
            match self.peek() {
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates are not paired — artifacts never emit them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ascii");
        if float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("invalid number"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| self.err("integer out of range"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_scalars() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-7",
            "9007199254740993",
            "1.5",
        ] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string(), text);
        }
    }

    #[test]
    fn large_integers_are_exact() {
        let v = Json::parse("9223372036854775807").unwrap();
        assert_eq!(v, Json::Int(i64::MAX));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#" { "a": [1, 2.5, "x\n"], "b": {"c": null} } "#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Null));
    }

    #[test]
    fn display_then_parse_is_identity() {
        let v = Json::obj([
            ("name", Json::str("q\"uo\\te")),
            ("values", Json::Arr(vec![Json::Int(1), Json::Float(0.25)])),
            ("nested", Json::obj([("empty", Json::Arr(vec![]))])),
        ]);
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        assert_eq!(Json::parse(&v.to_pretty()).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        for text in ["", "{", "[1,", "\"abc", "01x", "{\"a\" 1}", "[1] tail"] {
            assert!(Json::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn nesting_is_bounded_by_a_typed_error() {
        // A 256 KiB stack — a quarter of the smallest default a server
        // thread gets — so unbounded recursion aborts instead of passing
        // by luck.
        let checks = || {
            let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
            assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
            let objects = "{\"a\":".repeat(MAX_DEPTH) + "1" + &"}".repeat(MAX_DEPTH);
            assert!(Json::parse(&objects).is_ok());
            let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
            assert_eq!(err.offset, MAX_DEPTH);
            assert!(err.message.contains("nesting deeper than"), "{err}");
            assert!(Json::parse(&"[".repeat(200_000)).is_err());
            assert!(Json::parse(&"{\"a\":".repeat(200_000)).is_err());
            // Siblings do not accumulate depth.
            let wide = format!("[{}]", vec![nested(MAX_DEPTH - 1); 64].join(","));
            assert!(Json::parse(&wide).is_ok());
        };
        let thread = std::thread::Builder::new().stack_size(256 * 1024);
        thread.spawn(checks).unwrap().join().unwrap();
    }

    #[test]
    fn typed_accessors_name_the_offending_field() {
        let doc =
            Json::parse(r#"{"n": 7, "neg": -1, "big": 4294967296, "x": 1.5, "a": [1]}"#).unwrap();
        assert_eq!(doc.u32_field("n"), Ok(7));
        let message = |e: JsonError| e.message;
        for (err, needle) in [
            (
                doc.u64_field("gone").map_err(message),
                "missing field `gone`",
            ),
            (
                doc.u64_field("neg").map_err(message),
                "neg must be a non-negative integer",
            ),
            (
                doc.u64_field("x").map_err(message),
                "x must be a non-negative integer",
            ),
            (
                doc.u32_field("big").map(u64::from).map_err(message),
                "big exceeds u32",
            ),
        ] {
            assert_eq!(err, Err(needle.to_string()));
        }
        let nan = Json::Float(f64::NAN).try_f64("rate").unwrap_err();
        assert_eq!(
            (nan.offset, nan.message.as_str()),
            (0, "rate must be a finite number")
        );
        assert!(doc.str_field("n").is_err());
        assert!(doc.arr_field("n").is_err() && Json::Int(1).field("k").is_err());
    }

    #[test]
    fn float_display_keeps_a_decimal_marker() {
        assert_eq!(Json::Float(2.0).to_string(), "2.0");
        assert_eq!(Json::parse("2.0").unwrap(), Json::Float(2.0));
    }
}
