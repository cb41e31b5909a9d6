//! Offline stand-in for `serde_json`: JSON text on top of the serde shim.
//!
//! Covers the surface the workspace uses: `from_str`, `from_value`,
//! `to_string`, `to_string_pretty`, `to_writer`, and `Value`. Writing is the
//! shim's direct `Serialize::write_json`; reading parses into a [`Value`]
//! tree that `Deserialize` consumes. The pretty printer emits 2-space
//! indentation with `"key": value` separators (same shape as real
//! serde_json), which some tests rely on for textual substitution. It
//! serves cold paths only (manifests, reports, snapshots), so it reparses
//! the compact text and indents the resulting tree, leaving one encoder.

pub use serde::Value;
use serde::{Deserialize, Serialize};

/// JSON encoding/decoding failure.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.to_string())
    }
}

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Parses a value from a JSON string.
///
/// # Errors
///
/// Returns an error on malformed JSON, trailing garbage, or a shape mismatch
/// with `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let value = parse_value(s)?;
    Ok(T::from_value(&value)?)
}

/// Serializes a value to a compact JSON string.
///
/// # Errors
///
/// Infallible; the `Result` mirrors serde_json's API.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.write_json(&mut out);
    Ok(out)
}

/// Serializes a value to a pretty-printed JSON string (2-space indent).
///
/// # Errors
///
/// Returns an error only if the compact encoding does not reparse, e.g. a
/// value nested deeper than the parser's recursion limit.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let tree = parse_value(&to_string(value)?)?;
    let mut out = String::new();
    write_pretty(&mut out, &tree, 0);
    Ok(out)
}

/// Serializes a value as compact JSON into an `io::Write`.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn to_writer<W: std::io::Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<()> {
    let s = to_string(value)?;
    writer
        .write_all(s.as_bytes())
        .map_err(|e| Error::new(format!("write failed: {e}")))
}

/// Reconstructs a typed value from a [`Value`] tree.
///
/// # Errors
///
/// Returns an error when the tree's shape does not match `T`.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T> {
    Ok(T::from_value(value)?)
}

// ---------------------------------------------------------------- pretty

fn write_pretty(out: &mut String, v: &Value, depth: usize) {
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, depth + 1);
                write_pretty(out, item, depth + 1);
            }
            newline_indent(out, depth);
            out.push(']');
        }
        Value::Object(entries) if !entries.is_empty() => {
            out.push('{');
            for (i, (key, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, depth + 1);
                key.write_json(out);
                out.push_str(": ");
                write_pretty(out, val, depth + 1);
            }
            newline_indent(out, depth);
            out.push('}');
        }
        // Scalars and empty containers print the same either way.
        compact => compact.write_json(out),
    }
}

fn newline_indent(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth * 2 {
        out.push(' ');
    }
}

// ---------------------------------------------------------------- parser

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

const MAX_DEPTH: usize = 128;

fn parse_value(s: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at offset {}",
            p.pos
        )));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
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

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value> {
        if depth > MAX_DEPTH {
            return Err(Error::new("recursion depth exceeded"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(Error::new(format!(
                "unexpected character at offset {}",
                self.pos
            ))),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` at offset {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value> {
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
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` at offset {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path over the unescaped run.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::new("invalid utf-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error::new("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if !(self.eat_literal("\\u")) {
                                    return Err(Error::new("unpaired surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(Error::new("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("invalid unicode escape"))?,
                            );
                        }
                        other => {
                            return Err(Error::new(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => return Err(Error::new("unterminated string")),
            }
        }
    }

    /// Reads exactly four hex digits; a sign such as the `+` in `\u+041`
    /// is rejected (`u32::from_str_radix` would accept it).
    fn hex4(&mut self) -> Result<u32> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::new("truncated \\u escape"))?;
        let mut code = 0;
        for &b in digits {
            let digit = char::from(b)
                .to_digit(16)
                .ok_or_else(|| Error::new("invalid \\u escape"))?;
            code = code * 16 + digit;
        }
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_prints_compact() {
        let v: Value = from_str(r#"{"a": 1, "b": [true, null, -2, 0.5], "c": "x\ny"}"#).unwrap();
        let s = to_string(&v).unwrap();
        assert_eq!(s, r#"{"a":1,"b":[true,null,-2,0.5],"c":"x\ny"}"#);
    }

    #[test]
    fn pretty_uses_colon_space() {
        let v = Value::Object(vec![
            ("partitions".into(), Value::U64(10)),
            ("sf".into(), Value::F64(1.0)),
        ]);
        let s = to_string_pretty(&v).unwrap();
        assert!(s.contains("\"partitions\": 10"), "got: {s}");
        assert!(s.contains("\"sf\": 1.0"), "got: {s}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<Value>("not json").is_err());
        assert!(from_str::<Value>("{\"a\": 1} trailing").is_err());
        assert!(from_str::<Value>("{\"a\" 1}").is_err());
    }

    #[test]
    fn round_trips_floats_and_escapes() {
        let v: Value = from_str("[0.3, 2.0, 1e3, \"\\u0041\\u00e9\"]").unwrap();
        let s = to_string(&v).unwrap();
        let v2: Value = from_str(&s).unwrap();
        assert_eq!(v, v2);
        assert_eq!(v.as_array().unwrap()[3].as_str(), Some("Aé"));
    }

    #[test]
    fn typed_round_trip() {
        let pairs: Vec<(usize, u64)> = vec![(1, 2), (3, 4)];
        let s = to_string(&pairs).unwrap();
        let back: Vec<(usize, u64)> = from_str(&s).unwrap();
        assert_eq!(back, pairs);
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(from_str::<String>(r#""\u0041\u00E9""#).unwrap(), "Aé");
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u004""#, r#""\u 041""#] {
            assert!(from_str::<String>(bad).is_err(), "accepted {bad}");
        }
    }

    #[derive(serde::Serialize)]
    struct Empty {}

    #[derive(serde::Serialize)]
    struct Wrapper(u32);

    #[derive(serde::Serialize)]
    enum Shape {
        Unit,
        New(i64),
        Fields { a: Option<u8>, b: Vec<f64> },
        Nothing {},
    }

    #[derive(serde::Serialize)]
    struct Sample {
        text: String,
        floats: Vec<f64>,
        none: Option<u32>,
        some: Option<u32>,
        empty: Vec<u32>,
        unit: Empty,
        wrapped: Wrapper,
        shapes: Vec<Shape>,
        ints: (u64, i64, i8, usize),
        letter: char,
        by_name: std::collections::BTreeMap<String, u32>,
        by_id: std::collections::BTreeMap<u64, bool>,
        single: f32,
    }

    /// Every shape the writer handles, including the edge cases: escapes
    /// (control characters as `\u00XX`, non-ASCII passed through), floats
    /// that are integral, at or above 1e15, negative zero or not finite,
    /// `None`, empty containers, every enum variant kind and map keys.
    fn sample() -> Sample {
        Sample {
            text: "q\"b\\s/\n\r\t\u{1}\u{8}\u{c}\u{1f}\u{7f}é✓😀".into(),
            floats: vec![
                2.0,
                0.5,
                -1.25,
                0.1 + 0.2,
                1e-7,
                999_999_999_999_999.0,
                1e15,
                1.5e20,
                -3e16,
                -0.0,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ],
            none: None,
            some: Some(7),
            empty: Vec::new(),
            unit: Empty {},
            wrapped: Wrapper(42),
            shapes: vec![
                Shape::Unit,
                Shape::New(-9),
                Shape::Fields { a: None, b: vec![] },
                Shape::Fields {
                    a: Some(255),
                    b: vec![1.0, 2.5],
                },
                Shape::Nothing {},
            ],
            ints: (u64::MAX, i64::MIN, -5, 0),
            letter: '"',
            by_name: [("b\n".to_string(), 2), ("a".to_string(), 1)].into(),
            by_id: [(10, true), (2, false)].into(),
            single: 0.1,
        }
    }

    // The expected texts below are pinned byte for byte: traces, reports
    // and manifests written by earlier builds must read the same.

    #[test]
    fn compact_text_is_pinned() {
        assert_eq!(
            to_string(&sample()).unwrap(),
            "{\"text\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u0008\\u000c\\u001f\u{7f}é✓😀\",\"floats\":[2.0,0.5,-1.25,0.30000000000000004,0.0000001,999999999999999.0,1000000000000000,150000000000000000000,-30000000000000000,-0.0,null,null,null],\"none\":null,\"some\":7,\"empty\":[],\"unit\":{},\"wrapped\":42,\"shapes\":[\"Unit\",{\"New\":-9},{\"Fields\":{\"a\":null,\"b\":[]}},{\"Fields\":{\"a\":255,\"b\":[1.0,2.5]}},{\"Nothing\":{}}],\"ints\":[18446744073709551615,-9223372036854775808,-5,0],\"letter\":\"\\\"\",\"by_name\":{\"a\":1,\"b\\n\":2},\"by_id\":{\"2\":false,\"10\":true},\"single\":0.10000000149011612}"
        );
        assert_eq!(to_string(&Empty {}).unwrap(), "{}");
        let mut buf = Vec::new();
        to_writer(&mut buf, &sample()).unwrap();
        assert_eq!(buf, to_string(&sample()).unwrap().into_bytes());
    }

    #[test]
    fn pretty_text_is_pinned() {
        assert_eq!(
            to_string_pretty(&sample()).unwrap(),
            "{\n  \"text\": \"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u0008\\u000c\\u001f\u{7f}é✓😀\",\n  \"floats\": [\n    2.0,\n    0.5,\n    -1.25,\n    0.30000000000000004,\n    0.0000001,\n    999999999999999.0,\n    1000000000000000,\n    150000000000000000000,\n    -30000000000000000,\n    -0.0,\n    null,\n    null,\n    null\n  ],\n  \"none\": null,\n  \"some\": 7,\n  \"empty\": [],\n  \"unit\": {},\n  \"wrapped\": 42,\n  \"shapes\": [\n    \"Unit\",\n    {\n      \"New\": -9\n    },\n    {\n      \"Fields\": {\n        \"a\": null,\n        \"b\": []\n      }\n    },\n    {\n      \"Fields\": {\n        \"a\": 255,\n        \"b\": [\n          1.0,\n          2.5\n        ]\n      }\n    },\n    {\n      \"Nothing\": {}\n    }\n  ],\n  \"ints\": [\n    18446744073709551615,\n    -9223372036854775808,\n    -5,\n    0\n  ],\n  \"letter\": \"\\\"\",\n  \"by_name\": {\n    \"a\": 1,\n    \"b\\n\": 2\n  },\n  \"by_id\": {\n    \"2\": false,\n    \"10\": true\n  },\n  \"single\": 0.10000000149011612\n}"
        );
    }

    #[test]
    fn value_trees_are_pinned() {
        let v = Value::Object(vec![
            ("n".into(), Value::Null),
            ("b".into(), Value::Bool(false)),
            ("u".into(), Value::U64(18)),
            ("i".into(), Value::I64(-18)),
            ("f".into(), Value::F64(3.0)),
            ("s".into(), Value::Str("x\"y".into())),
            (
                "a".into(),
                Value::Array(vec![Value::Array(vec![]), Value::Object(vec![])]),
            ),
            (
                "k\tey".into(),
                Value::Object(vec![("z".into(), Value::U64(0))]),
            ),
        ]);
        assert_eq!(
            to_string(&v).unwrap(),
            r#"{"n":null,"b":false,"u":18,"i":-18,"f":3.0,"s":"x\"y","a":[[],{}],"k\tey":{"z":0}}"#
        );
        assert_eq!(
            to_string_pretty(&v).unwrap(),
            "{\n  \"n\": null,\n  \"b\": false,\n  \"u\": 18,\n  \"i\": -18,\n  \"f\": 3.0,\n  \"s\": \"x\\\"y\",\n  \"a\": [\n    [],\n    {}\n  ],\n  \"k\\tey\": {\n    \"z\": 0\n  }\n}"
        );
        assert_eq!(from_str::<Value>(&to_string(&v).unwrap()).unwrap(), v);
    }
}
