//! A minimal dependency-free JSON reader, and the string escaper.
//!
//! The workspace emits all of its JSON by hand (telemetry exporters, bench
//! artifacts, profile summaries, the daemon's control plane), every string
//! through [`escape_json`], and deliberately avoids a serialization
//! stack; this module is the matching *reader* so the profile differ can
//! load archived `pccheck.profile.v1` artifacts and the test suite can
//! validate exporter output for well-formedness — the role `serde_json`
//! would play in a dependency-heavy workspace.
//!
//! The parser is a strict recursive-descent implementation of RFC 8259:
//! objects, arrays, strings (with `\uXXXX` escapes and surrogate pairs),
//! numbers (held as `f64`), booleans, `null`. Object keys keep insertion
//! order. Nesting depth is bounded so adversarial inputs cannot blow the
//! stack.
//!
//! ```
//! use pccheck_util::json::JsonValue;
//!
//! let v = JsonValue::parse(r#"{"phase":"persist","nanos":1500,"ok":true}"#).unwrap();
//! assert_eq!(v.get("phase").and_then(|p| p.as_str()), Some("persist"));
//! assert_eq!(v.get("nanos").and_then(|n| n.as_u64()), Some(1500));
//! ```

use std::fmt;
use std::fmt::Write as _;

/// Maximum object/array nesting the parser accepts.
const MAX_DEPTH: usize = 128;

/// A parsed JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers are exact up to 2^53).
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; members keep source order and may repeat keys (lookup
    /// returns the first).
    Object(Vec<(String, JsonValue)>),
}

/// Parse failure: a message plus the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Parses one complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first problem.
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after document"));
        }
        Ok(value)
    }

    /// Object member lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }
}

/// Escapes `s` as JSON string *contents* (no surrounding quotes): `"`,
/// `\\` and every control character, so that [`JsonValue::parse`] reads
/// `s` back. The one escaper for every hand-written JSON document.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
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
            Err(self.error(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected {text:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let mut v: u16 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => c - b'0',
                Some(c @ b'a'..=b'f') => c - b'a' + 10,
                Some(c @ b'A'..=b'F') => c - b'A' + 10,
                _ => return Err(self.error("invalid \\u escape")),
            };
            v = (v << 4) | u16::from(d);
            self.pos += 1;
        }
        Ok(v)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.error("invalid low surrogate"));
                                    }
                                    let cp = 0x10000
                                        + ((u32::from(hi) - 0xD800) << 10)
                                        + (u32::from(lo) - 0xDC00);
                                    char::from_u32(cp)
                                        .ok_or_else(|| self.error("invalid surrogate pair"))?
                                } else {
                                    return Err(self.error("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.error("lone low surrogate"));
                            } else {
                                char::from_u32(u32::from(hi))
                                    .ok_or_else(|| self.error("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.error("unescaped control character in string"));
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (input is a &str, so boundaries
                    // are valid by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.error("invalid UTF-8"))?;
                    let ch = s.chars().next().expect("peek saw a byte");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.error("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("digit required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("digit required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        // `parse` rounds a literal past `f64::MAX` (`1e999`) to infinity
        // rather than failing: only a finite value is a JSON number.
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(JsonValue::Number(n)),
            _ => Err(self.error("number out of range")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_json_round_trips_every_ascii_character() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        let all: String = (0u8..0x80)
            .map(char::from)
            .chain(['\u{e9}', '\u{1F600}'])
            .collect();
        let doc = format!("\"{}\"", escape_json(&all));
        assert_eq!(JsonValue::parse(&doc).unwrap().as_str(), Some(all.as_str()));
    }

    #[test]
    fn scalars_parse() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(JsonValue::parse("42").unwrap(), JsonValue::Number(42.0));
        assert_eq!(
            JsonValue::parse("-1.5e3").unwrap(),
            JsonValue::Number(-1500.0)
        );
        assert_eq!(
            JsonValue::parse("\"hi\"").unwrap(),
            JsonValue::String("hi".into())
        );
    }

    #[test]
    fn containers_parse_and_navigate() {
        let v = JsonValue::parse(r#"{"a":[1,2,{"b":"c"}],"d":{"e":null}}"#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[2].get("b").and_then(|b| b.as_str()), Some("c"));
        assert_eq!(v.get("d").unwrap().get("e"), Some(&JsonValue::Null));
        assert!(v.get("missing").is_none());
        assert_eq!(v.as_object().unwrap().len(), 2);
    }

    #[test]
    fn escapes_and_unicode() {
        let v = JsonValue::parse(r#""a\"b\\c\n\t\u0041\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\n\tA\u{e9}"));
        // Surrogate pair: U+1F600.
        let v = JsonValue::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1f600}"));
        // Raw multibyte passthrough.
        let v = JsonValue::parse("\"héllo → wörld\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo → wörld"));
    }

    #[test]
    fn numbers_convert() {
        assert_eq!(JsonValue::parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(JsonValue::parse("7.5").unwrap().as_u64(), None);
        assert_eq!(JsonValue::parse("-7").unwrap().as_u64(), None);
        assert_eq!(JsonValue::parse("7.5").unwrap().as_f64(), Some(7.5));
        assert_eq!(JsonValue::parse("0").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[",
            "{\"a\"}",
            "{\"a\":}",
            "[1,]",
            "{\"a\":1,}",
            "nul",
            "01",
            "1.",
            "1e",
            "\"\\q\"",
            "\"unterminated",
            "[1] trailing",
            "\"\u{1}\"",
            "{'a':1}",
            "+1",
            "--1",
            "[1 2]",
            "\"\\ud800\"",
            "\"\\ud800\\u0041\"",
            "1e999",
            "-1e999",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should be rejected");
        }
        let err = JsonValue::parse("[1,,2]").unwrap_err();
        assert!(err.offset > 0 && err.to_string().contains("byte"));
    }

    /// Every number a parsed document holds is finite.
    fn numbers_are_finite(v: &JsonValue) -> bool {
        match v {
            JsonValue::Number(n) => n.is_finite(),
            JsonValue::Array(items) => items.iter().all(numbers_are_finite),
            JsonValue::Object(members) => members.iter().all(|(_, v)| numbers_are_finite(v)),
            _ => true,
        }
    }

    #[test]
    fn mutated_documents_never_panic_and_hold_only_finite_numbers() {
        use crate::rng::{check, DEFAULT_CASES};
        // Numbers near both ends of the `f64` range, so one more exponent
        // digit overflows; escapes, nesting and every literal.
        const DOC: &str = r#"{"schema":"pccheck.v1","max":1.7976931348623157e308,
            "tiny":-4.9e-324,"rows":[0,-0.5,12e3,{"k":"a\"b\u00e9\n"}],
            "ok":true,"no":false,"none":null,"nested":[[[]],{}]}"#;
        const ALPHABET: &[u8] = b"0123456789eE+-.\"\\{}[],: tfnu";
        assert!(JsonValue::parse(DOC).is_ok());
        check(DEFAULT_CASES, |r| {
            let mut doc = DOC.as_bytes().to_vec();
            for _ in 0..r.range(1..4) {
                let at = r.range(0..doc.len() as u64 + 1) as usize;
                match r.range(0..3) {
                    0 if at < doc.len() => doc[at] ^= 1 << r.range(0..8),
                    1 => doc.truncate(at),
                    _ => doc.insert(at, ALPHABET[r.range(0..ALPHABET.len() as u64) as usize]),
                }
            }
            let text = String::from_utf8_lossy(&doc);
            if let Ok(v) = JsonValue::parse(&text) {
                assert!(numbers_are_finite(&v), "{text:?} parsed to {v:?}");
            }
        });
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(JsonValue::parse(&deep).is_err());
        let ok = "[".repeat(64) + &"]".repeat(64);
        assert!(JsonValue::parse(&ok).is_ok());
    }

    #[test]
    fn duplicate_keys_return_first() {
        let v = JsonValue::parse(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(v.get("k").and_then(|k| k.as_u64()), Some(1));
    }

    #[test]
    fn whitespace_everywhere() {
        let v = JsonValue::parse(" { \"a\" : [ 1 , 2 ] } \n").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
    }
}
