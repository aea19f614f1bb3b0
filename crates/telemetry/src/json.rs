//! The workspace's one hand-rolled JSON emitter and reader.
//!
//! The bench binaries and the trace exporters all write JSON by hand
//! (the workspace builds offline with std alone — no serde). This
//! module is the single shared implementation: a [`JsonWriter`] that
//! tracks nesting and commas so call sites cannot emit structurally
//! invalid documents, and [`parse`], a std-only recursive-descent
//! parser into a plain [`Json`] tree — strict enough for the writer's
//! output (UTF-8, finite numbers, `\uXXXX` escapes), with a depth limit
//! so a malformed file cannot blow the stack. Manifests, the study
//! protocol and the dashboard read JSON back through it; [`validate`]
//! is a parse that discards the tree. `bench_harness::json` re-exports
//! the writer and [`validate`] for the harness binaries.

use std::collections::BTreeMap;
use std::fmt;

/// Escape `s` as JSON string *contents* (no surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Streaming JSON writer with automatic comma/nesting management.
///
/// ```
/// use telemetry::json::JsonWriter;
/// let mut w = JsonWriter::new();
/// w.begin_object();
/// w.key("name").string("triad");
/// w.key("gbps").number(1352.5);
/// w.key("tags").begin_array();
/// w.string("gpu").string("stream");
/// w.end_array();
/// w.end_object();
/// assert_eq!(
///     w.finish(),
///     r#"{"name": "triad", "gbps": 1352.5, "tags": ["gpu", "stream"]}"#
/// );
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// One flag per open container: does the next element need a comma?
    needs_comma: Vec<bool>,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    fn pre_value(&mut self) {
        if let Some(nc) = self.needs_comma.last_mut() {
            if *nc {
                self.out.push_str(", ");
            }
            *nc = true;
        }
    }

    /// Open `{`.
    pub fn begin_object(&mut self) -> &mut Self {
        self.pre_value();
        self.out.push('{');
        self.needs_comma.push(false);
        self
    }

    /// Close `}`.
    pub fn end_object(&mut self) -> &mut Self {
        self.needs_comma.pop();
        self.out.push('}');
        self
    }

    /// Open `[`.
    pub fn begin_array(&mut self) -> &mut Self {
        self.pre_value();
        self.out.push('[');
        self.needs_comma.push(false);
        self
    }

    /// Close `]`.
    pub fn end_array(&mut self) -> &mut Self {
        self.needs_comma.pop();
        self.out.push(']');
        self
    }

    /// Emit `"name": ` for the next value in an object.
    pub fn key(&mut self, name: &str) -> &mut Self {
        self.pre_value();
        self.out.push('"');
        self.out.push_str(&escape(name));
        self.out.push_str("\": ");
        // The value that follows must not add its own comma.
        if let Some(nc) = self.needs_comma.last_mut() {
            *nc = false;
        }
        self
    }

    /// A string value.
    pub fn string(&mut self, v: &str) -> &mut Self {
        self.pre_value();
        self.out.push('"');
        self.out.push_str(&escape(v));
        self.out.push('"');
        self
    }

    /// A float value (non-finite values become `null`, which JSON
    /// requires).
    pub fn number(&mut self, v: f64) -> &mut Self {
        self.pre_value();
        if v.is_finite() {
            // Shortest round-trippable form Rust prints; always contains
            // a digit, never `inf`/`NaN` here.
            let s = format!("{v}");
            self.out.push_str(&s);
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// An integer value.
    pub fn int(&mut self, v: u64) -> &mut Self {
        self.pre_value();
        self.out.push_str(&v.to_string());
        self
    }

    /// A boolean value.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.pre_value();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// The document text (call once, after the root value is closed).
    pub fn finish(self) -> String {
        debug_assert!(self.needs_comma.is_empty(), "unclosed JSON container");
        self.out
    }
}

/// Maximum nesting depth accepted by the parser.
const MAX_DEPTH: usize = 96;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Object, key-sorted (BTreeMap) so traversal is deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member of an object, if this is an object and the key exists.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Number as a non-negative integer (rejects fractional values).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Element slice, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Convenience: `self.get(key)?.as_f64()`.
    pub fn f64_of(&self, key: &str) -> Option<f64> {
        self.get(key)?.as_f64()
    }

    /// Convenience: `self.get(key)?.as_u64()`.
    pub fn u64_of(&self, key: &str) -> Option<u64> {
        self.get(key)?.as_u64()
    }

    /// Convenience: `self.get(key)?.as_str()`.
    pub fn str_of(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }
}

/// Parse failure: a message plus the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub msg: String,
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            msg: msg.to_owned(),
            at: self.pos,
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

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            m.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            self.skip_ws();
            v.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("non-ascii in \\u escape"))?;
        let n = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(n)
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
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("unpaired surrogate"));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(self.err("unpaired surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("unpaired surrogate"));
                            } else {
                                hi
                            };
                            out.push(char::from_u32(cp).ok_or_else(|| self.err("bad code point"))?);
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar.
                    let rest = &self.bytes[self.pos..];
                    // SAFETY: `bytes` comes from a `&str`, and `pos` only
                    // ever advances past ASCII bytes or whole scalars, so
                    // it sits on a char boundary and `rest` is UTF-8.
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let ch = s.chars().next().expect("peek saw a byte here");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("a number is ASCII");
        let n: f64 = text.parse().map_err(|_| self.err("bad number"))?;
        if !n.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(Json::Num(n))
    }
}

/// Check that `s` is one valid JSON document (a [`parse`] that
/// discards the tree).
pub fn validate(s: &str) -> Result<(), ParseError> {
    parse(s).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_handles_nesting_and_commas() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("a").int(1);
        w.key("b").begin_array();
        w.begin_object();
        w.key("x").bool(true);
        w.end_object();
        w.number(2.5);
        w.string("s");
        w.end_array();
        w.key("c").string("q\"uote");
        w.end_object();
        let doc = w.finish();
        assert_eq!(
            doc,
            r#"{"a": 1, "b": [{"x": true}, 2.5, "s"], "c": "q\"uote"}"#
        );
        validate(&doc).unwrap();
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.number(f64::NAN).number(f64::INFINITY).number(1.0);
        w.end_array();
        let doc = w.finish();
        assert_eq!(doc, "[null, null, 1]");
        validate(&doc).unwrap();
    }

    #[test]
    fn validator_accepts_valid_documents() {
        for doc in [
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            r#"{"k": [1, 2, {"x": "yé"}], "e": false}"#,
            "  { \"a\" : [ ] }\n",
        ] {
            validate(doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
        }
    }

    #[test]
    fn escape_covers_control_characters() {
        assert_eq!(escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("-1.5e3").unwrap(), Json::Num(-1500.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures_with_accessors() {
        let doc = parse(r#"{"a": [1, 2, {"b": "x"}], "n": 7, "t": 0.25}"#).unwrap();
        assert_eq!(doc.u64_of("n"), Some(7));
        assert_eq!(doc.f64_of("t"), Some(0.25));
        let arr = doc.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].str_of("b"), Some("x"));
        assert_eq!(doc.str_of("missing"), None);
        assert_eq!(doc.get("n").unwrap().as_str(), None);
    }

    #[test]
    fn decodes_escapes_and_surrogate_pairs() {
        let doc = parse(r#""a\n\t\"\\\u0041\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(doc.as_str().unwrap(), "a\n\t\"\\Aé😀");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1, ]",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "tru",
            "nul",
            "\"unterminated",
            "01a",
            "{} trailing",
            "[1 2]",
            "1 2",
            "\"\\ud800\"",
            "\"\x01\"",
            "nan",
            "1e999",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
            assert!(validate(bad).is_err(), "validated malformed {bad:?}");
        }
    }

    #[test]
    fn depth_limit_protects_the_stack() {
        let deep = "[".repeat(2000) + &"]".repeat(2000);
        let err = parse(&deep).unwrap_err();
        assert!(err.msg.contains("deep"));
        // Within the limit is fine.
        let ok = "[".repeat(90) + &"]".repeat(90);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn fractional_u64_is_rejected() {
        let doc = parse("{\"x\": 1.5}").unwrap();
        assert_eq!(doc.u64_of("x"), None);
        assert_eq!(doc.f64_of("x"), Some(1.5));
        let neg = parse("{\"x\": -2}").unwrap();
        assert_eq!(neg.u64_of("x"), None);
    }

    #[test]
    fn round_trips_writer_output() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("name");
        w.string("tri\tad \"q\"");
        w.key("vals");
        w.begin_array();
        for v in [1.0, 2.5, 3.25e-9] {
            w.number(v);
        }
        w.end_array();
        w.key("n");
        w.int(3);
        w.end_object();
        let doc = parse(&w.finish()).unwrap();
        assert_eq!(doc.str_of("name"), Some("tri\tad \"q\""));
        assert_eq!(doc.u64_of("n"), Some(3));
        let vals = doc.get("vals").unwrap().as_arr().unwrap();
        assert_eq!(vals[2].as_f64(), Some(3.25e-9));
    }
}
