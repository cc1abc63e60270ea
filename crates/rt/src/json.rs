//! Minimal JSON value type, parser and emitter.
//!
//! Covers the record shapes the suite actually serializes: perf
//! baselines (`afsb-perf`), AF3 job documents (`afsb-seq::input`),
//! Chrome traces and ad-hoc report payloads. Two properties matter more
//! here than general serde compatibility:
//!
//! - **Determinism** — objects preserve insertion order and numbers are
//!   formatted by a fixed rule (integers without a fraction, everything
//!   else via Rust's shortest round-trip float formatting), so the same
//!   data always emits byte-identical text.
//! - **Zero dependencies** — types implement [`ToJson`]/[`FromJson`] by
//!   hand instead of deriving; the shapes involved are small and flat.
//!
//! The emitter's pretty format matches the conventional two-space style
//! (`"key": value`, one element per line).

use std::fmt;

/// A parsed or constructed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`; integers below 2^53 are exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving insertion order.
    Obj(Vec<(String, Json)>),
}

/// Error from parsing or converting JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the problem (0 for conversion errors).
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl JsonError {
    /// A conversion (non-positional) error.
    pub fn msg(message: impl Into<String>) -> JsonError {
        JsonError {
            offset: 0,
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.offset > 0 {
            write!(f, "{} (at byte {})", self.message, self.offset)
        } else {
            f.write_str(&self.message)
        }
    }
}

impl std::error::Error for JsonError {}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
/// The parser recurses once per level, so a bound keeps crafted input
/// from overflowing the stack: 256 levels fit a 2 MiB thread stack with
/// room to spare, and no document the suite reads nests past 10.
pub const MAX_DEPTH: usize = 256;

/// Serialize a value into [`Json`].
pub trait ToJson {
    /// Build the JSON representation.
    fn to_json(&self) -> Json;
}

/// Deserialize a value from [`Json`].
pub trait FromJson: Sized {
    /// Parse from a JSON value.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first shape mismatch.
    fn from_json(value: &Json) -> Result<Self, JsonError>;
}

impl Json {
    /// Parse JSON text.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first problem,
    /// including arrays and objects nested deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }

    /// Member lookup on an object (`None` for missing keys or non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Non-negative integer payload, if exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// `usize` payload, if exactly representable.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|v| v as usize)
    }

    /// Boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array payload, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object fields, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Required-field lookup with a descriptive error.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the missing key.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::msg(format!("missing field {key:?}")))
    }

    /// Compact single-line text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty two-space-indented text.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, depth + 1);
            }),
            Json::Obj(fields) => write_seq(out, indent, depth, '{', '}', fields.len(), |out, i| {
                let (k, v) = &fields[i];
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                v.write(out, indent, depth + 1);
            }),
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
    out.push(close);
}

/// Fixed number-formatting rule: exact integers print without a fraction;
/// everything else uses Rust's shortest round-trip float text. Non-finite
/// values (which valid JSON cannot carry) emit `null`.
fn write_number(out: &mut String, n: f64) {
    use fmt::Write;
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
        write!(out, "{}", n as i64).expect("string write");
    } else {
        write!(out, "{n}").expect("string write");
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
                use fmt::Write;
                write!(out, "\\u{:04x}", c as u32).expect("string write");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Num(f64::from(v))
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    /// `None` maps to `null` — the JSON-representable stand-in for
    /// absent measurements (JSON has no NaN literal).
    fn from(v: Option<T>) -> Json {
        match v {
            Some(v) => v.into(),
            None => Json::Null,
        }
    }
}

/// Ordered-field object builder: `obj().field("a", 1u64).build()`.
#[derive(Debug, Default)]
pub struct ObjBuilder {
    fields: Vec<(String, Json)>,
}

/// Start building an object.
pub fn obj() -> ObjBuilder {
    ObjBuilder::default()
}

impl ObjBuilder {
    /// Append a field (insertion order is emission order).
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> ObjBuilder {
        self.fields.push((key.to_owned(), value.into()));
        self
    }

    /// Finish into a [`Json::Obj`].
    pub fn build(self) -> Json {
        Json::Obj(self.fields)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_owned(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!(
                        "arrays and objects nested deeper than {MAX_DEPTH} levels"
                    )));
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
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
                            let cp = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair.
                                self.eat(b'\\', "expected low surrogate")?;
                                self.eat(b'u', "expected low surrogate")?;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected exponent digits"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        // `str::parse` saturates an overflowing literal (`1e400`) to
        // infinity instead of failing, and the emitter would write it
        // back as `null`: reject it so every parsed number round-trips.
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            _ => Err(self.err("number out of range")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-1.5e3").unwrap(), Json::Num(-1500.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn nesting_is_capped_before_the_stack_overflows() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let mixed = r#"{"a":"#.repeat(MAX_DEPTH - 1) + "[]" + &"}".repeat(MAX_DEPTH - 1);
        assert!(Json::parse(&mixed).is_ok());
        // The first open bracket past the cap is at byte 256 of the
        // brackets and at byte 768 of 128 `{"a":[` pairs.
        for (text, offset) in [
            (nested(MAX_DEPTH + 1), MAX_DEPTH),
            ("[".repeat(100_000), MAX_DEPTH),
            (r#"{"a":["#.repeat(50_000), 768),
        ] {
            let err = Json::parse(&text).unwrap_err();
            assert!(
                err.message.contains("nested deeper than 256 levels"),
                "{err}"
            );
            assert_eq!(err.offset, offset);
        }
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{ "a": [1, 2, {"b": null}], "c": "x" }"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        let a = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(a.len(), 3);
        assert!(a[2].get("b").unwrap().is_null());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "line1\nline2\t\"quoted\" \\ slash \u{1F600} \u{8}";
        let emitted = Json::Str(original.into()).to_text();
        let back = Json::parse(&emitted).unwrap();
        assert_eq!(back.as_str(), Some(original));
        // Escaped-source form parses to the same thing.
        let v = Json::parse(r#""aA😀""#).unwrap();
        assert_eq!(v.as_str(), Some("aA\u{1F600}"));
    }

    #[test]
    fn emission_is_deterministic_and_ordered() {
        let v = obj()
            .field("zeta", 1u64)
            .field("alpha", 2u64)
            .field("mid", obj().field("x", 0.5).build())
            .build();
        let a = v.pretty();
        let b = v.pretty();
        assert_eq!(a, b);
        // Insertion order preserved, not sorted.
        let zi = a.find("zeta").unwrap();
        let ai = a.find("alpha").unwrap();
        assert!(zi < ai);
    }

    #[test]
    fn pretty_format_matches_convention() {
        let v = obj().field("sample", "7RCE").field("threads", 2u64).build();
        assert_eq!(
            v.pretty(),
            "{\n  \"sample\": \"7RCE\",\n  \"threads\": 2\n}"
        );
        assert_eq!(v.to_text(), r#"{"sample":"7RCE","threads":2}"#);
    }

    #[test]
    fn numbers_roundtrip_exactly() {
        for n in [0.0, -0.0, 1.0, -17.0, 0.1, 1e-12, 123456789.25, 9e15] {
            let text = Json::Num(n).to_text();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back, n, "{n} via {text}");
        }
        assert_eq!(Json::Num(3.0).to_text(), "3");
        assert_eq!(Json::Num(0.25).to_text(), "0.25");
    }

    #[test]
    fn overflowing_numbers_are_rejected() {
        for text in ["1e400", "-1e400", "[1, 2e999]", "{\"v\": 1.5E+309}"] {
            let err = Json::parse(text).expect_err(text);
            assert!(
                err.to_string().contains("number out of range"),
                "{text}: {err}"
            );
        }
        // The largest finite literal still parses, and underflow rounds
        // to zero: both round-trip.
        let max = Json::parse("1.7976931348623157e308").unwrap();
        assert_eq!(max, Json::Num(f64::MAX));
        assert_eq!(Json::parse(&max.to_text()).unwrap(), max);
        assert_eq!(Json::parse("1e-400").unwrap(), Json::Num(0.0));
    }

    #[test]
    fn u64_accessor_guards_precision() {
        assert_eq!(
            Json::Num(89.0 * (1u64 << 30) as f64).as_u64(),
            Some(89 << 30)
        );
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(0.5).as_u64(), None);
    }

    #[test]
    fn errors_carry_offsets() {
        let e = Json::parse("{ not json").unwrap_err();
        assert!(e.offset >= 2, "offset {}", e.offset);
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(Json::parse("{}").unwrap(), Json::Obj(vec![]));
        assert_eq!(Json::Arr(vec![]).pretty(), "[]");
        assert_eq!(Json::Obj(vec![]).pretty(), "{}");
    }
}
