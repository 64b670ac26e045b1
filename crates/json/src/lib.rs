#![warn(missing_docs)]

//! # rrs-json — deterministic JSON for campaign results
//!
//! The campaign engine persists per-cell [`SimResult`]s as JSON and proves
//! a byte-identity invariant (serial vs. parallel runs produce identical
//! files), so the serializer must be *deterministic*: object keys keep
//! insertion order, numbers are emitted from fixed formatting rules, and
//! round-trips preserve bytes. The build environment has no crates.io
//! access, so this is a small hand-rolled implementation rather than serde.
//!
//! Numbers are stored as their lexeme ([`Json::Num`] holds the literal
//! text). This keeps full `u64`/`u128` precision (cycle counters exceed
//! 2^53) and makes parse→write byte-exact.
//!
//! [`SimResult`]: https://docs.rs/rrs-sim

use std::fmt;

/// A JSON value. Objects preserve insertion order (determinism).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, stored as its literal text.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// A parse or conversion error with a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

impl Json {
    /// An unsigned-integer number.
    pub fn u64(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// A `u128` number (JSON has no precision limit; parsers here keep the
    /// lexeme, so nothing is lost).
    pub fn u128(v: u128) -> Json {
        Json::Num(v.to_string())
    }

    /// A `usize` number.
    pub fn usize(v: usize) -> Json {
        Json::Num(v.to_string())
    }

    /// A float number. Uses Rust's shortest round-trip formatting; non-
    /// finite values (which JSON cannot express) become `null`.
    pub fn f64(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v:?}"))
        } else {
            Json::Null
        }
    }

    /// A string value.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// Looks up a key of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required object field, as an error otherwise.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError(format!("missing field {key:?}")))
    }

    /// The value as `u64`, if it is an integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as `u128`.
    pub fn as_u128(&self) -> Option<u128> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as `f64` (also accepts `null` for non-finite).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace) — the deterministic canonical
    /// form used for byte-identity comparisons.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation (the on-disk format; still
    /// deterministic).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(s) => out.push_str(s),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document with a recursive-descent parser.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
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
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => err(format!("unexpected byte at {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError("non-utf8 number".into()))?;
        // Validate via the float grammar; keep the lexeme.
        if text.parse::<f64>().is_err() {
            return err(format!("invalid number {text:?}"));
        }
        Ok(Json::Num(text.to_string()))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return err("unterminated string"),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return err("truncated \\u escape");
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| JsonError("bad \\u escape".into()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError("bad \\u escape".into()))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| JsonError("non-utf8 string".into()))?;
                    let c = rest.chars().next().expect("nonempty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
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
                _ => return err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
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
                _ => return err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// Conversion of a Rust value into [`Json`].
pub trait ToJson {
    /// Converts `self` to a JSON value.
    fn to_json(&self) -> Json;
}

/// Conversion of a [`Json`] value back into a Rust value.
pub trait FromJson: Sized {
    /// Parses `self` from a JSON value.
    fn from_json(json: &Json) -> Result<Self, JsonError>;
}

macro_rules! impl_num {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(self.to_string())
            }
        }
        impl FromJson for $t {
            fn from_json(json: &Json) -> Result<Self, JsonError> {
                match json {
                    Json::Num(s) => s
                        .parse()
                        .map_err(|_| JsonError(format!("bad {}: {s:?}", stringify!($t)))),
                    _ => err(concat!("expected ", stringify!($t))),
                }
            }
        }
    )*};
}

impl_num!(u8, u16, u32, u64, u128, usize, i64);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::f64(*self)
    }
}

impl FromJson for f64 {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_f64()
            .ok_or_else(|| JsonError("expected f64".into()))
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_bool()
            .ok_or_else(|| JsonError("expected bool".into()))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError("expected string".into()))
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_array()
            .ok_or_else(|| JsonError("expected array".into()))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Json {
        Json::Obj(vec![
            ("name".into(), Json::str("gcc")),
            ("ipc".into(), Json::f64(2.125)),
            ("cycles".into(), Json::u64(u64::MAX)),
            ("sum".into(), Json::u128(u128::MAX)),
            (
                "flags".into(),
                Json::Arr(vec![Json::Bool(true), Json::Null]),
            ),
            ("nested".into(), Json::Obj(vec![("k".into(), Json::u64(7))])),
        ])
    }

    #[test]
    fn round_trip_is_byte_exact() {
        let text = doc().to_string_pretty();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.to_string_pretty(), text);
        let compact = doc().to_string_compact();
        assert_eq!(Json::parse(&compact).unwrap().to_string_compact(), compact);
        // Flat event lines, delimiters inside strings, escapes, nesting,
        // arrays and bare scalars all re-serialize to their compact input.
        for text in [
            r#"{}"#,
            r#"{"at":12345,"kind":"act","bank":3,"row":81920}"#,
            r#"{"at":77,"kind":"swap_start","row_a":5,"row_b":1024,"ok":true,"x":null}"#,
            r#"{"ipc":2.125,"ok":true,"skip":false,"note":null}"#,
            r#"{"neg":-1.5e-3,"big":18446744073709551615}"#,
            r#"{"s":"with, comma and } brace"}"#,
            r#"{"esc":"a\nb"}"#,
            r#"{"nested":{"k":1}}"#,
            r#"{"arr":[1,2]}"#,
            r#"[1,2,3]"#,
            r#"3.25"#,
        ] {
            let parsed = Json::parse(text).unwrap();
            assert_eq!(parsed.to_string_compact(), text, "{text:?}");
        }
        // Surrounding and interior whitespace is insignificant.
        assert_eq!(Json::parse("  {\"a\":1}\n"), Json::parse(r#"{"a":1}"#));
        assert_eq!(Json::parse(r#"{ "a": 1 }"#), Json::parse(r#"{"a":1}"#));
    }

    #[test]
    fn u64_and_u128_keep_full_precision() {
        let text = doc().to_string_compact();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.get("cycles").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(parsed.get("sum").unwrap().as_u128(), Some(u128::MAX));
    }

    #[test]
    fn floats_round_trip_exactly() {
        for v in [0.1f64, 1e-12, 1234.5678, 3.0, f64::MIN_POSITIVE] {
            let j = Json::f64(v).to_string_compact();
            let back = Json::parse(&j).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} -> {j}");
        }
        assert_eq!(Json::f64(f64::NAN), Json::Null);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "a\"b\\c\nd\te\u{1}é";
        let j = Json::str(s).to_string_compact();
        assert_eq!(Json::parse(&j).unwrap().as_str(), Some(s));
    }

    #[test]
    fn object_order_is_preserved() {
        let text = r#"{"b":1,"a":2}"#;
        assert_eq!(Json::parse(text).unwrap().to_string_compact(), text);
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "{\"a\"}",
            "1 2",
            "\"\\q\"",
            "{\"a\":}",
            r#"{"a":1"#,
            r#"{"a":1,}"#,
            r#"{"a":01e}"#,
            "{\"a\":1}}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn derived_impls_round_trip() {
        let v: Vec<u64> = vec![1, 2, 3];
        assert_eq!(Vec::<u64>::from_json(&v.to_json()).unwrap(), v);
        let o: Option<String> = None;
        assert_eq!(Option::<String>::from_json(&o.to_json()).unwrap(), o);
        let f: f64 = 0.25;
        assert_eq!(f64::from_json(&f.to_json()).unwrap(), f);
    }
}
