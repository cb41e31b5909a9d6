//! Offline stand-in for the `serde` crate.
//!
//! The build environment has no access to crates.io, so this workspace ships
//! a small, self-contained replacement that covers exactly the surface the
//! repo uses: `#[derive(Serialize, Deserialize)]` on structs and enums, the
//! externally-tagged JSON data model, and `#[serde(default)]`.
//!
//! Instead of serde's visitor architecture the two directions are
//! asymmetric. `Serialize` appends compact JSON text straight onto a
//! `String`, with no intermediate tree; the derive turns field keys and
//! variant tags into string literals, and the impls below are the one place
//! that escapes strings and formats numbers. `Deserialize` reads back from
//! a JSON-shaped [`Value`] tree, which `serde_json` (also shimmed) parses.

use std::fmt::Write as _;

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-shaped value tree — the data model `Deserialize` reads from.
///
/// Objects preserve insertion order so emitted JSON is stable and matches
/// field declaration order, like serde's derive.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Non-negative integer.
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Floating-point number.
    F64(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object as ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Borrows the object entries, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Borrows the array elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Borrows the string, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(n) => Some(n),
            Value::I64(n) if n >= 0 => Some(n as u64),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer in range.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::I64(n) => Some(n),
            Value::U64(n) => i64::try_from(n).ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is any number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::F64(f) => Some(f),
            Value::U64(n) => Some(n as f64),
            Value::I64(n) => Some(n as f64),
            _ => None,
        }
    }

    /// The value as a `bool`, if it is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Whether this is `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Looks up `key` in an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// Serialization/deserialization failure.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    /// Creates an error with the given message.
    #[must_use]
    pub fn custom(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Encodes `self` as compact JSON text.
pub trait Serialize {
    /// Appends the compact JSON encoding of `self` (no whitespace) to `out`.
    fn write_json(&self, out: &mut String);
}

/// Reconstructs `Self` from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Parses from a [`Value`].
    ///
    /// # Errors
    ///
    /// Returns an error when the value's shape does not match `Self`.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

// ------------------------------------------------------ text encoding

/// Appends `n` in decimal.
fn write_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("decimal digits are ASCII"));
}

/// Appends `n` in decimal, with a leading `-` when negative.
fn write_i64(out: &mut String, n: i64) {
    if n < 0 {
        out.push('-');
    }
    write_u64(out, n.unsigned_abs());
}

/// Appends `f` as a JSON number.
fn write_f64(out: &mut String, f: f64) {
    if !f.is_finite() {
        // serde_json refuses non-finite floats; emitting null keeps the
        // document valid without panicking deep inside an exporter.
        out.push_str("null");
    } else if f == f.trunc() && f.abs() < 1e15 {
        // Keep a fractional part so the value reparses as a float.
        let _ = write!(out, "{f:.1}");
    } else {
        let _ = write!(out, "{f}");
    }
}

/// Appends `s` as a quoted JSON string. Quotes, backslashes and control
/// characters are escaped; everything else, non-ASCII included, is copied
/// through in unescaped runs.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // `b` is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Appends `'['`, the elements separated by commas, and `']'`.
fn write_seq<'a, T: Serialize + 'a>(out: &mut String, items: impl IntoIterator<Item = &'a T>) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
}

/// Appends an object of the given entries, in iteration order.
fn write_map<'a, K: MapKey + 'a, V: Serialize + 'a>(
    out: &mut String,
    entries: impl IntoIterator<Item = (&'a K, &'a V)>,
) {
    out.push('{');
    for (i, (key, value)) in entries.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        key.write_key(out);
        out.push(':');
        value.write_json(out);
    }
    out.push('}');
}

// ------------------------------------------------------ impls

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                write_u64(out, *self as u64);
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = v
                    .as_u64()
                    .ok_or_else(|| Error::custom(concat!("expected ", stringify!($t))))?;
                <$t>::try_from(n)
                    .map_err(|_| Error::custom(concat!("out of range for ", stringify!($t))))
            }
        }
    )*};
}

impl_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                write_i64(out, *self as i64);
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = v
                    .as_i64()
                    .ok_or_else(|| Error::custom(concat!("expected ", stringify!($t))))?;
                <$t>::try_from(n)
                    .map_err(|_| Error::custom(concat!("out of range for ", stringify!($t))))
            }
        }
    )*};
}

impl_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn write_json(&self, out: &mut String) {
        write_f64(out, *self);
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64().ok_or_else(|| Error::custom("expected number"))
    }
}

impl Serialize for f32 {
    fn write_json(&self, out: &mut String) {
        write_f64(out, f64::from(*self));
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.as_f64().ok_or_else(|| Error::custom("expected number"))? as f32)
    }
}

impl Serialize for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_bool().ok_or_else(|| Error::custom("expected bool"))
    }
}

impl Serialize for String {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| Error::custom("expected string"))
    }
}

impl Serialize for str {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl Serialize for char {
    fn write_json(&self, out: &mut String) {
        write_str(out, self.encode_utf8(&mut [0; 4]));
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(x) => x.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        if v.is_null() {
            Ok(None)
        } else {
            Ok(Some(T::from_value(v)?))
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, out: &mut String) {
        write_seq(out, self);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::custom("expected array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, out: &mut String) {
        write_seq(out, self);
    }
}

macro_rules! impl_tuple {
    ($(($n0:tt $t0:ident $(, $n:tt $t:ident)*))*) => {$(
        impl<$t0: Serialize $(, $t: Serialize)*> Serialize for ($t0, $($t,)*) {
            fn write_json(&self, out: &mut String) {
                out.push('[');
                self.$n0.write_json(out);
                $(
                    out.push(',');
                    self.$n.write_json(out);
                )*
                out.push(']');
            }
        }
        impl<$t0: Deserialize $(, $t: Deserialize)*> Deserialize for ($t0, $($t,)*) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let a = v.as_array().ok_or_else(|| Error::custom("expected tuple array"))?;
                let mut it = a.iter();
                let mut next = || it.next().ok_or_else(|| Error::custom("tuple too short"));
                Ok(($t0::from_value(next()?)?, $($t::from_value(next()?)?,)*))
            }
        }
    )*};
}

impl_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

/// Types usable as JSON object keys (serde stringifies non-string keys).
pub trait MapKey: Sized {
    /// Appends the key as a quoted JSON object key.
    fn write_key(&self, out: &mut String);
    /// Parses the key back from a JSON object key.
    ///
    /// # Errors
    ///
    /// Returns an error when `s` does not parse as `Self`.
    fn from_key(s: &str) -> Result<Self, Error>;
}

impl MapKey for String {
    fn write_key(&self, out: &mut String) {
        write_str(out, self);
    }

    fn from_key(s: &str) -> Result<Self, Error> {
        Ok(s.to_owned())
    }
}

macro_rules! impl_map_key_int {
    ($($t:ty),*) => {$(
        impl MapKey for $t {
            fn write_key(&self, out: &mut String) {
                out.push('"');
                self.write_json(out);
                out.push('"');
            }

            fn from_key(s: &str) -> Result<Self, Error> {
                s.parse()
                    .map_err(|_| Error::custom(concat!("invalid map key for ", stringify!($t))))
            }
        }
    )*};
}

impl_map_key_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<K, V, S> Serialize for std::collections::HashMap<K, V, S>
where
    K: MapKey,
    V: Serialize,
{
    fn write_json(&self, out: &mut String) {
        write_map(out, self);
    }
}

impl<K, V> Deserialize for std::collections::HashMap<K, V>
where
    K: MapKey + Eq + std::hash::Hash,
    V: Deserialize,
{
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_object()
            .ok_or_else(|| Error::custom("expected object for map"))?
            .iter()
            .map(|(k, val)| Ok((K::from_key(k)?, V::from_value(val)?)))
            .collect()
    }
}

impl<K, V> Serialize for std::collections::BTreeMap<K, V>
where
    K: MapKey,
    V: Serialize,
{
    fn write_json(&self, out: &mut String) {
        write_map(out, self);
    }
}

impl<K, V> Deserialize for std::collections::BTreeMap<K, V>
where
    K: MapKey + Ord,
    V: Deserialize,
{
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_object()
            .ok_or_else(|| Error::custom("expected object for map"))?
            .iter()
            .map(|(k, val)| Ok((K::from_key(k)?, V::from_value(val)?)))
            .collect()
    }
}

impl Serialize for Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.write_json(out),
            Value::U64(n) => write_u64(out, *n),
            Value::I64(n) => write_i64(out, *n),
            Value::F64(f) => write_f64(out, *f),
            Value::Str(s) => write_str(out, s),
            Value::Array(items) => write_seq(out, items),
            Value::Object(entries) => write_map(out, entries.iter().map(|(k, v)| (k, v))),
        }
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json<T: Serialize + ?Sized>(value: &T) -> String {
        let mut out = String::new();
        value.write_json(&mut out);
        out
    }

    #[test]
    fn primitives_encode() {
        assert_eq!(json(&42u64), "42");
        assert_eq!(json(&0u8), "0");
        assert_eq!(json(&u64::MAX), "18446744073709551615");
        assert_eq!(json(&-3i64), "-3");
        assert_eq!(json(&i64::MIN), "-9223372036854775808");
        assert_eq!(json(&true), "true");
        assert_eq!(json(&0.25f64), "0.25");
        assert_eq!(json("hi"), "\"hi\"");
        assert_eq!(json(&'\n'), "\"\\n\"");
    }

    #[test]
    fn containers_encode() {
        assert_eq!(json(&vec![(1usize, 2u64), (3, 4)]), "[[1,2],[3,4]]");
        assert_eq!(json(&None::<u32>), "null");
        assert_eq!(json(&Some(5u32)), "5");
        assert_eq!(json(&Vec::<u8>::new()), "[]");
        let map: std::collections::BTreeMap<u32, &str> = [(10, "x"), (2, "y")].into();
        assert_eq!(json(&map), r#"{"2":"y","10":"x"}"#);
        assert_eq!(Option::<u32>::from_value(&Value::Null).unwrap(), None);
    }

    #[test]
    fn numeric_cross_decoding() {
        // integers written as JSON numbers decode into f64 fields
        assert_eq!(f64::from_value(&Value::U64(3)).unwrap(), 3.0);
        assert_eq!(u64::from_value(&Value::I64(5)).unwrap(), 5);
        assert!(u64::from_value(&Value::I64(-5)).is_err());
    }

    #[test]
    fn tuples_decode_and_reject_short_arrays() {
        let v = Value::Array(vec![Value::U64(1), Value::Str("a".into())]);
        assert_eq!(<(u8, String)>::from_value(&v).unwrap(), (1, "a".into()));
        assert!(<(u8, String, bool)>::from_value(&v).is_err());
    }

    #[test]
    fn object_get() {
        let v = Value::Object(vec![("a".into(), Value::U64(1))]);
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(1));
        assert!(v.get("b").is_none());
    }
}
