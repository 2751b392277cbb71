//! Minimal JSON serialization layer replacing the `serde` derives.
//!
//! The seed workspace derived `serde::{Serialize, Deserialize}` on every
//! model type but never linked a serializer (`serde_json` was not a
//! dependency), so the derives were pure registry weight. This module
//! provides the functionality those derives promised:
//!
//! * [`JsonValue`] — an owned JSON document tree with distinct unsigned /
//!   signed / float number variants so `u64` fields (base addresses, record
//!   numbers) round-trip without precision loss,
//! * [`ToJson`] / [`FromJson`] — the serialize/deserialize trait pair,
//!   implemented for the primitives, `String`, `Vec<T>`, `Option<T>`,
//!   `BTreeMap<K, V>` and tuples,
//! * a strict, non-recursive-descent-bomb parser ([`JsonValue::parse`],
//!   depth-capped) and a writer ([`JsonValue::render`] /
//!   [`JsonValue::render_pretty`]),
//! * the [`impl_json!`](crate::impl_json) macro — the `#[derive]` replacement invoked next to
//!   each model type in `nt-core`, `ntfs`, `hive`, `kernel`, `winapi`, and
//!   `core`.
//!
//! Encoding conventions (fixed, matching what `serde_json` would have done
//! with the default derive attributes):
//!
//! * named-field struct → object with one member per field,
//! * newtype struct → the inner value, transparently,
//! * unit enum variant → the variant name as a string,
//! * data-carrying enum variant → `{"VariantName": <inner>}`,
//! * `Option::None` → `null`, `Some(x)` → `x`.

use std::collections::BTreeMap;
use std::fmt;

/// Maximum nesting depth the parser accepts before bailing out.
const MAX_DEPTH: usize = 128;

/// An owned JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (canonical for all unsigned model fields).
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// A non-integral number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, JsonValue)>),
}

/// Error produced by parsing or by [`FromJson`] conversions.
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

impl JsonValue {
    /// Looks up a member of an object by key.
    pub fn field(&self, name: &str) -> Result<&JsonValue, JsonError> {
        match self {
            JsonValue::Obj(members) => members
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| JsonError(format!("missing field `{name}`"))),
            other => err(format!(
                "expected object with `{name}`, got {}",
                other.kind()
            )),
        }
    }

    /// A short description of the value's type, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "bool",
            JsonValue::UInt(_) | JsonValue::Int(_) => "integer",
            JsonValue::Float(_) => "number",
            JsonValue::Str(_) => "string",
            JsonValue::Arr(_) => "array",
            JsonValue::Obj(_) => "object",
        }
    }

    /// The value as a `u64`, accepting any non-negative integer form.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            JsonValue::UInt(n) => Ok(*n),
            JsonValue::Int(n) if *n >= 0 => Ok(*n as u64),
            other => err(format!("expected unsigned integer, got {}", other.kind())),
        }
    }

    /// The value as an `i64`.
    fn as_i64(&self) -> Result<i64, JsonError> {
        match self {
            JsonValue::Int(n) => Ok(*n),
            JsonValue::UInt(n) if *n <= i64::MAX as u64 => Ok(*n as i64),
            other => err(format!("expected integer, got {}", other.kind())),
        }
    }

    /// The value as an `f64`; integers widen losslessly where possible.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            JsonValue::Float(x) => Ok(*x),
            JsonValue::UInt(n) => Ok(*n as f64),
            JsonValue::Int(n) => Ok(*n as f64),
            other => err(format!("expected number, got {}", other.kind())),
        }
    }

    /// The value as a `bool`.
    fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            JsonValue::Bool(b) => Ok(*b),
            other => err(format!("expected bool, got {}", other.kind())),
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            JsonValue::Str(s) => Ok(s),
            other => err(format!("expected string, got {}", other.kind())),
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Result<&[JsonValue], JsonError> {
        match self {
            JsonValue::Arr(items) => Ok(items),
            other => err(format!("expected array, got {}", other.kind())),
        }
    }

    /// The value as object members.
    pub fn as_obj(&self) -> Result<&[(String, JsonValue)], JsonError> {
        match self {
            JsonValue::Obj(members) => Ok(members),
            other => err(format!("expected object, got {}", other.kind())),
        }
    }

    // -----------------------------------------------------------------
    // Writer
    // -----------------------------------------------------------------

    /// Renders the document compactly.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders the document with `indent`-space indentation.
    pub fn render_pretty(&self, indent: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(indent), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(width) => (
                "\n",
                " ".repeat(width * level),
                " ".repeat(width * (level + 1)),
            ),
            None => ("", String::new(), String::new()),
        };
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::UInt(n) => out.push_str(&n.to_string()),
            JsonValue::Int(n) => out.push_str(&n.to_string()),
            JsonValue::Float(x) => {
                if x.is_finite() {
                    // Keep a trailing `.0` so the value re-parses as a float.
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        out.push_str(&format!("{x:.1}"));
                    } else {
                        out.push_str(&format!("{x}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Arr(items) => {
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
                    item.write(out, indent, level + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            JsonValue::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, level + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    // -----------------------------------------------------------------
    // Parser
    // -----------------------------------------------------------------

    /// Parses a JSON document, rejecting trailing garbage.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_ws();
        let value = parser.value(0)?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return err(format!("trailing data at byte {}", parser.pos));
        }
        Ok(value)
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

    fn eat(&mut self, expected: u8) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!(
                "expected `{}` at byte {}",
                expected as char, self.pos
            ))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return err("document nests too deeply");
        }
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(JsonValue::Arr(items));
                        }
                        _ => return err(format!("expected `,` or `]` at byte {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    self.skip_ws();
                    let value = self.value(depth + 1)?;
                    members.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(JsonValue::Obj(members));
                        }
                        _ => return err(format!("expected `,` or `}}` at byte {}", self.pos)),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => err(format!("unexpected byte `{}` at {}", b as char, self.pos)),
            None => err("unexpected end of document"),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes in one go.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| JsonError("invalid utf-8 in string".into()))?,
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let unit = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                if self.peek() != Some(b'\\') {
                                    return err("unpaired surrogate");
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return err("unpaired surrogate");
                                }
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return err("invalid low surrogate");
                                }
                                let combined = 0x10000
                                    + (((unit - 0xD800) as u32) << 10)
                                    + (low - 0xDC00) as u32;
                                char::from_u32(combined)
                                    .ok_or(JsonError("invalid surrogate pair".into()))?
                            } else if (0xDC00..0xE000).contains(&unit) {
                                return err("unpaired low surrogate");
                            } else {
                                char::from_u32(unit as u32)
                                    .ok_or(JsonError("invalid \\u escape".into()))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return err(format!("invalid escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => return err("control character in string"),
                None => return err("unterminated string"),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        // Called with `pos` on the `u`; consumes it plus four hex digits.
        self.pos += 1;
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or(JsonError("truncated \\u escape".into()))?;
        let s = std::str::from_utf8(digits).map_err(|_| JsonError("invalid \\u escape".into()))?;
        let unit =
            u16::from_str_radix(s, 16).map_err(|_| JsonError("invalid \\u escape".into()))?;
        self.pos += 4;
        Ok(unit)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(JsonValue::Int(n));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| JsonError(format!("invalid number `{text}`")))
    }
}

// ---------------------------------------------------------------------
// ToJson / FromJson
// ---------------------------------------------------------------------

/// Serialize into a [`JsonValue`]. The replacement for `serde::Serialize`.
pub trait ToJson {
    /// Builds the JSON representation of `self`.
    fn to_json(&self) -> JsonValue;
}

/// Deserialize from a [`JsonValue`]. The replacement for
/// `serde::Deserialize`.
pub trait FromJson: Sized {
    /// Reconstructs a value from its JSON representation.
    fn from_json(value: &JsonValue) -> Result<Self, JsonError>;
}

macro_rules! impl_json_uint {
    ($($ty:ty),+) => {
        $(
            impl ToJson for $ty {
                fn to_json(&self) -> JsonValue {
                    JsonValue::UInt(*self as u64)
                }
            }
            impl FromJson for $ty {
                fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
                    let wide = value.as_u64()?;
                    <$ty>::try_from(wide)
                        .map_err(|_| JsonError(format!("{wide} out of range for {}", stringify!($ty))))
                }
            }
        )+
    };
}

impl_json_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_json_int {
    ($($ty:ty),+) => {
        $(
            impl ToJson for $ty {
                fn to_json(&self) -> JsonValue {
                    let wide = *self as i64;
                    if wide >= 0 {
                        JsonValue::UInt(wide as u64)
                    } else {
                        JsonValue::Int(wide)
                    }
                }
            }
            impl FromJson for $ty {
                fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
                    let wide = value.as_i64()?;
                    <$ty>::try_from(wide)
                        .map_err(|_| JsonError(format!("{wide} out of range for {}", stringify!($ty))))
                }
            }
        )+
    };
}

impl_json_int!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> JsonValue {
        JsonValue::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        value.as_f64()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        value.as_bool()
    }
}

impl ToJson for String {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        value.as_str().map(str::to_string)
    }
}

impl ToJson for str {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> JsonValue {
        JsonValue::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        value.as_arr()?.iter().map(T::from_json).collect()
    }
}

impl<T: ToJson> ToJson for std::collections::VecDeque<T> {
    fn to_json(&self) -> JsonValue {
        JsonValue::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for std::collections::VecDeque<T> {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        value.as_arr()?.iter().map(T::from_json).collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> JsonValue {
        match self {
            None => JsonValue::Null,
            Some(inner) => inner.to_json(),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        match value {
            JsonValue::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> JsonValue {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Box<T> {
    fn to_json(&self) -> JsonValue {
        (**self).to_json()
    }
}

impl<T: FromJson> FromJson for Box<T> {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        T::from_json(value).map(Box::new)
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> JsonValue {
        JsonValue::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        match value.as_arr()? {
            [a, b] => Ok((A::from_json(a)?, B::from_json(b)?)),
            items => err(format!("expected 2-element array, got {}", items.len())),
        }
    }
}

/// Types usable as JSON object keys (maps encode as objects).
pub trait JsonKey: Sized + Ord {
    /// Renders the key.
    fn to_key(&self) -> String;
    /// Parses the key back.
    fn from_key(key: &str) -> Result<Self, JsonError>;
}

impl JsonKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(key: &str) -> Result<Self, JsonError> {
        Ok(key.to_string())
    }
}

macro_rules! impl_json_key_num {
    ($($ty:ty),+) => {
        $(
            impl JsonKey for $ty {
                fn to_key(&self) -> String {
                    self.to_string()
                }
                fn from_key(key: &str) -> Result<Self, JsonError> {
                    key.parse()
                        .map_err(|_| JsonError(format!("invalid {} key `{key}`", stringify!($ty))))
                }
            }
        )+
    };
}

impl_json_key_num!(u16, u32, u64, usize, i32, i64);

impl<K: JsonKey, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> JsonValue {
        JsonValue::Obj(
            self.iter()
                .map(|(k, v)| (k.to_key(), v.to_json()))
                .collect(),
        )
    }
}

impl<K: JsonKey, V: FromJson> FromJson for BTreeMap<K, V> {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        value
            .as_obj()?
            .iter()
            .map(|(k, v)| Ok((K::from_key(k)?, V::from_json(v)?)))
            .collect()
    }
}

/// The `#[derive(Serialize, Deserialize)]` replacement.
///
/// Invoke next to the type definition (inside its module, so private fields
/// are reachable):
///
/// ```
/// use strider_support::impl_json;
/// use strider_support::json::{FromJson, JsonValue, ToJson};
///
/// #[derive(Debug, Clone, PartialEq)]
/// struct Point { x: u32, y: u32 }
/// impl_json!(struct Point { x, y });
///
/// #[derive(Debug, Clone, PartialEq)]
/// struct Id(u64);
/// impl_json!(newtype Id);
///
/// #[derive(Debug, Clone, PartialEq)]
/// enum Mode { Fast, Careful(String) }
/// impl_json!(enum Mode { Fast, Careful(String) });
///
/// let p = Point { x: 1, y: 2 };
/// let round = Point::from_json(&JsonValue::parse(&p.to_json().render()).unwrap()).unwrap();
/// assert_eq!(round, p);
/// ```
///
/// Supported shapes: named-field structs, single-field tuple structs
/// (`newtype`), and enums whose variants are unit or single-field tuples.
/// Generic types (e.g. `Snapshot<T>`) write their impls by hand.
#[macro_export]
macro_rules! impl_json {
    (struct $ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::JsonValue {
                $crate::json::JsonValue::Obj(vec![
                    $((
                        stringify!($field).to_string(),
                        $crate::json::ToJson::to_json(&self.$field),
                    )),+
                ])
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(
                value: &$crate::json::JsonValue,
            ) -> Result<Self, $crate::json::JsonError> {
                Ok(Self {
                    $($field: $crate::json::FromJson::from_json(
                        value.field(stringify!($field))?,
                    )?),+
                })
            }
        }
    };
    (newtype $ty:ident) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::JsonValue {
                $crate::json::ToJson::to_json(&self.0)
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(
                value: &$crate::json::JsonValue,
            ) -> Result<Self, $crate::json::JsonError> {
                Ok($ty($crate::json::FromJson::from_json(value)?))
            }
        }
    };
    (enum $ty:ident { $($variant:ident $(($inner:ty))?),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::JsonValue {
                $($crate::impl_json!(@to_arm self, $ty, $variant $(($inner))?);)+
                unreachable!("impl_json!: variant list out of sync with enum")
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(
                value: &$crate::json::JsonValue,
            ) -> Result<Self, $crate::json::JsonError> {
                $($crate::impl_json!(@from_arm value, $ty, $variant $(($inner))?);)+
                Err($crate::json::JsonError(format!(
                    "no variant of {} matches {}",
                    stringify!($ty),
                    value.kind(),
                )))
            }
        }
    };
    (@to_arm $self:ident, $ty:ident, $variant:ident) => {
        if let $ty::$variant = $self {
            return $crate::json::JsonValue::Str(stringify!($variant).to_string());
        }
    };
    (@to_arm $self:ident, $ty:ident, $variant:ident($inner:ty)) => {
        if let $ty::$variant(data) = $self {
            return $crate::json::JsonValue::Obj(vec![(
                stringify!($variant).to_string(),
                $crate::json::ToJson::to_json(data),
            )]);
        }
    };
    (@from_arm $value:ident, $ty:ident, $variant:ident) => {
        if let $crate::json::JsonValue::Str(name) = $value {
            if name == stringify!($variant) {
                return Ok($ty::$variant);
            }
        }
    };
    (@from_arm $value:ident, $ty:ident, $variant:ident($inner:ty)) => {
        if let Ok(data) = $value.field(stringify!($variant)) {
            return Ok($ty::$variant(
                <$inner as $crate::json::FromJson>::from_json(data)?,
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Sample {
        id: u64,
        label: String,
        flags: Vec<bool>,
        note: Option<String>,
    }
    impl_json!(struct Sample { id, label, flags, note });

    #[derive(Debug, Clone, PartialEq)]
    struct Wrapper(u32);
    impl_json!(newtype Wrapper);

    #[derive(Debug, Clone, PartialEq)]
    enum Status {
        Ok,
        Corrupt(String),
        Count(u64),
    }
    impl_json!(
        enum Status {
            Ok,
            Corrupt(String),
            Count(u64),
        }
    );

    fn roundtrip<T: ToJson + FromJson + PartialEq + std::fmt::Debug>(value: T) {
        let compact = value.to_json().render();
        let reparsed = JsonValue::parse(&compact).unwrap();
        assert_eq!(T::from_json(&reparsed).unwrap(), value, "via {compact}");
        let pretty = value.to_json().render_pretty(2);
        let reparsed = JsonValue::parse(&pretty).unwrap();
        assert_eq!(T::from_json(&reparsed).unwrap(), value);
    }

    #[test]
    fn struct_roundtrip_with_option_and_escapes() {
        roundtrip(Sample {
            id: u64::MAX,
            label: "quote \" backslash \\ newline \n tab \t unicode ✓".into(),
            flags: vec![true, false],
            note: None,
        });
        roundtrip(Sample {
            id: 0,
            label: String::new(),
            flags: vec![],
            note: Some("present".into()),
        });
    }

    #[test]
    fn newtype_is_transparent() {
        assert_eq!(Wrapper(7).to_json().render(), "7");
        roundtrip(Wrapper(u32::MAX));
    }

    #[test]
    fn enum_unit_and_data_variants() {
        assert_eq!(Status::Ok.to_json().render(), "\"Ok\"");
        assert_eq!(
            Status::Corrupt("bad cell".into()).to_json().render(),
            "{\"Corrupt\":\"bad cell\"}"
        );
        roundtrip(Status::Ok);
        roundtrip(Status::Corrupt("x".into()));
        roundtrip(Status::Count(42));
    }

    #[test]
    fn map_keys_roundtrip() {
        let mut map = BTreeMap::new();
        map.insert(4u32, "four".to_string());
        map.insert(7u32, "seven".to_string());
        roundtrip(map);
    }

    #[test]
    fn u64_precision_is_preserved() {
        let big = u64::MAX - 1;
        let parsed = JsonValue::parse(&big.to_json().render()).unwrap();
        assert_eq!(u64::from_json(&parsed).unwrap(), big);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"unterminated",
            "{\"a\" 1}",
            "01x",
            "nul",
            "[1] trailing",
            "{\"a\":}",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn parser_handles_escapes_and_numbers() {
        let v = JsonValue::parse(r#"{"s":"aA\n","n":-3,"f":1.5,"arr":[null,true]}"#).unwrap();
        assert_eq!(v.field("s").unwrap().as_str().unwrap(), "aA\n");
        assert_eq!(v.field("n").unwrap().as_i64().unwrap(), -3);
        assert_eq!(v.field("f").unwrap().as_f64().unwrap(), 1.5);
        assert_eq!(v.field("arr").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn parser_depth_is_capped() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(JsonValue::parse(&deep).is_err());
    }

    #[test]
    fn surrogate_pairs_parse() {
        // Raw UTF-8 passes straight through.
        let v = JsonValue::parse(r#""😀 and é""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "😀 and é");
        // An escaped surrogate pair decodes to the astral-plane character.
        let v = JsonValue::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "😀");
        // Unpaired surrogates are rejected.
        assert!(JsonValue::parse(r#""\ud83d""#).is_err());
        assert!(JsonValue::parse(r#""\ude00""#).is_err());
    }
}
