//! Offline stand-in for `serde`.
//!
//! The build environment has no crate registry, so the workspace vendors
//! a minimal serialisation framework with the same *spelling* as serde —
//! `#[derive(Serialize, Deserialize)]`, `use serde::{Serialize,
//! Deserialize}` — over a much simpler data model: every value serialises
//! to a JSON-shaped [`Value`] tree, and deserialises from one. The
//! companion `serde_json` shim renders and parses the tree as real JSON.
//!
//! Differences from real serde, none of which this workspace relies on:
//! no zero-copy deserialisation, no serializer polymorphism, no
//! `#[serde(...)]` attributes, enums always externally tagged.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::BTreeMap;
use std::fmt;

/// A JSON-shaped value tree: the single data model of this shim.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Signed integers (also produced by the JSON parser for any integer
    /// literal that fits).
    I64(i64),
    /// Unsigned integers above `i64::MAX`.
    U64(u64),
    F64(f64),
    Str(String),
    Array(Vec<Value>),
    /// Insertion-ordered object (derive emits declaration order).
    Object(Vec<(String, Value)>),
}

/// A static `Null` to hand out references to absent fields.
pub static NULL: Value = Value::Null;

impl Value {
    /// Member of an object, or `Null` when absent / not an object —
    /// letting `Option` fields treat "missing" as `None`.
    pub fn field(&self, name: &str) -> &Value {
        match self {
            Value::Object(entries) => {
                entries.iter().find(|(k, _)| k == name).map(|(_, v)| v).unwrap_or(&NULL)
            }
            _ => &NULL,
        }
    }

    /// Split an externally-tagged enum value into `(tag, inner)`.
    /// A bare string is a unit variant: `("Tag", Null)`.
    pub fn enum_parts(&self) -> Result<(&str, &Value), DeError> {
        match self {
            Value::Str(s) => Ok((s, &NULL)),
            Value::Object(entries) if entries.len() == 1 => Ok((entries[0].0.as_str(), &entries[0].1)),
            other => Err(DeError::new(format!("expected enum, got {}", other.kind()))),
        }
    }

    /// Human name of the value's JSON type, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::I64(_) | Value::U64(_) => "integer",
            Value::F64(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Deserialisation error: a message plus nothing else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    pub fn new(msg: impl Into<String>) -> DeError {
        DeError(msg.into())
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// A value that can render itself into the [`Value`] data model.
pub trait Serialize {
    fn to_value(&self) -> Value;
}

/// A value that can rebuild itself from the [`Value`] data model.
pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

// ---------------------------------------------------------------- scalars

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<bool, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::new(format!("expected bool, got {}", other.kind()))),
        }
    }
}

macro_rules! impl_serde_uint {
    ($($t:ty),+ $(,)?) => {
        $(
            impl Serialize for $t {
                fn to_value(&self) -> Value {
                    let v = *self as u64;
                    if v <= i64::MAX as u64 { Value::I64(v as i64) } else { Value::U64(v) }
                }
            }

            impl Deserialize for $t {
                fn from_value(v: &Value) -> Result<$t, DeError> {
                    let raw: u64 = match v {
                        Value::I64(i) if *i >= 0 => *i as u64,
                        Value::U64(u) => *u,
                        Value::F64(f) if *f >= 0.0 && f.fract() == 0.0 && *f <= u64::MAX as f64 => *f as u64,
                        other => return Err(DeError::new(format!(
                            "expected unsigned integer, got {}", other.kind()))),
                    };
                    <$t>::try_from(raw).map_err(|_| DeError::new(
                        format!("integer {raw} out of range for {}", stringify!($t))))
                }
            }
        )+
    };
}

impl_serde_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serde_sint {
    ($($t:ty),+ $(,)?) => {
        $(
            impl Serialize for $t {
                fn to_value(&self) -> Value {
                    Value::I64(*self as i64)
                }
            }

            impl Deserialize for $t {
                fn from_value(v: &Value) -> Result<$t, DeError> {
                    let raw: i64 = match v {
                        Value::I64(i) => *i,
                        Value::U64(u) if *u <= i64::MAX as u64 => *u as i64,
                        Value::F64(f) if f.fract() == 0.0 && f.abs() <= i64::MAX as f64 => *f as i64,
                        other => return Err(DeError::new(format!(
                            "expected integer, got {}", other.kind()))),
                    };
                    <$t>::try_from(raw).map_err(|_| DeError::new(
                        format!("integer {raw} out of range for {}", stringify!($t))))
                }
            }
        )+
    };
}

impl_serde_sint!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<f64, DeError> {
        match v {
            Value::F64(f) => Ok(*f),
            Value::I64(i) => Ok(*i as f64),
            Value::U64(u) => Ok(*u as f64),
            // JSON cannot express non-finite floats; we encode them as null.
            Value::Null => Ok(f64::NAN),
            other => Err(DeError::new(format!("expected number, got {}", other.kind()))),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<f32, DeError> {
        f64::from_value(v).map(|f| f as f32)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<String, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::new(format!("expected string, got {}", other.kind()))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

/// Real serde borrows `&str` from the deserializer input; this shim's
/// `Value` model has no lifetime to borrow from, so `&'static str` fields
/// (used by workload model names) deserialise by leaking. Interning keeps
/// the leak bounded by the number of *distinct* strings seen.
impl Deserialize for &'static str {
    fn from_value(v: &Value) -> Result<&'static str, DeError> {
        use std::collections::BTreeSet;
        use std::sync::Mutex;
        static INTERNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());

        let s = String::from_value(v)?;
        let mut set = INTERNED.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(existing) = set.get(s.as_str()) {
            return Ok(existing);
        }
        let leaked: &'static str = Box::leak(s.into_boxed_str());
        set.insert(leaked);
        Ok(leaked)
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<char, DeError> {
        let s = String::from_value(v)?;
        let mut it = s.chars();
        match (it.next(), it.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(DeError::new("expected single-character string")),
        }
    }
}

// ------------------------------------------------------------- containers

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Option<T>, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Vec<T>, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::new(format!("expected array, got {}", other.kind()))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

macro_rules! impl_serde_tuple {
    ($(($($n:tt $t:ident),+)),+ $(,)?) => {
        $(
            impl<$($t: Serialize),+> Serialize for ($($t,)+) {
                fn to_value(&self) -> Value {
                    Value::Array(vec![$(self.$n.to_value()),+])
                }
            }

            impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
                fn from_value(v: &Value) -> Result<Self, DeError> {
                    match v {
                        Value::Array(items) => {
                            const LEN: usize = 0 $(+ {let _ = $n; 1})+;
                            if items.len() != LEN {
                                return Err(DeError::new(format!(
                                    "expected {LEN}-tuple, got array of {}", items.len())));
                            }
                            Ok(($($t::from_value(&items[$n])?,)+))
                        }
                        other => Err(DeError::new(format!("expected array, got {}", other.kind()))),
                    }
                }
            }
        )+
    };
}

impl_serde_tuple!((0 A), (0 A, 1 B), (0 A, 1 B, 2 C), (0 A, 1 B, 2 C, 3 D));

/// Map keys must render as JSON object keys (strings).
pub trait JsonKey: Sized {
    fn to_key(&self) -> String;
    fn from_key(s: &str) -> Result<Self, DeError>;
}

impl JsonKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }

    fn from_key(s: &str) -> Result<String, DeError> {
        Ok(s.to_string())
    }
}

macro_rules! impl_json_key_int {
    ($($t:ty),+ $(,)?) => {
        $(impl JsonKey for $t {
            fn to_key(&self) -> String {
                self.to_string()
            }

            fn from_key(s: &str) -> Result<$t, DeError> {
                s.parse().map_err(|_| DeError::new(format!(
                    "invalid {} object key: {s:?}", stringify!($t))))
            }
        })+
    };
}

impl_json_key_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<K: JsonKey + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(self.iter().map(|(k, v)| (k.to_key(), v.to_value())).collect())
    }
}

impl<K: JsonKey + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<BTreeMap<K, V>, DeError> {
        match v {
            Value::Object(entries) => {
                entries.iter().map(|(k, v)| Ok((K::from_key(k)?, V::from_value(v)?))).collect()
            }
            other => Err(DeError::new(format!("expected object, got {}", other.kind()))),
        }
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Value, DeError> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        assert_eq!(u64::from_value(&(42u64.to_value())).unwrap(), 42);
        assert_eq!(i32::from_value(&((-7i32).to_value())).unwrap(), -7);
        assert_eq!(f64::from_value(&(0.5f64.to_value())).unwrap(), 0.5);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(String::from_value(&"hi".to_string().to_value()).unwrap(), "hi");
    }

    #[test]
    fn big_u64_round_trips() {
        let v = u64::MAX.to_value();
        assert_eq!(v, Value::U64(u64::MAX));
        assert_eq!(u64::from_value(&v).unwrap(), u64::MAX);
    }

    #[test]
    fn containers_round_trip() {
        let xs = vec![(1.0f64, 2.0f64), (3.0, 4.0)];
        assert_eq!(Vec::<(f64, f64)>::from_value(&xs.to_value()).unwrap(), xs);
        let mut m = BTreeMap::new();
        m.insert(3u32, vec![1u64, 2]);
        assert_eq!(BTreeMap::<u32, Vec<u64>>::from_value(&m.to_value()).unwrap(), m);
        let opt: Option<u8> = None;
        assert_eq!(Option::<u8>::from_value(&opt.to_value()).unwrap(), None);
    }

    #[test]
    fn missing_field_reads_as_null() {
        let obj = Value::Object(vec![("a".into(), Value::I64(1))]);
        assert_eq!(obj.field("a"), &Value::I64(1));
        assert_eq!(obj.field("b"), &Value::Null);
        assert_eq!(Option::<u8>::from_value(obj.field("b")).unwrap(), None);
        assert!(u8::from_value(obj.field("b")).is_err());
    }

    #[test]
    fn enum_parts_shapes() {
        assert_eq!(Value::Str("Map".into()).enum_parts().unwrap(), ("Map", &Value::Null));
        let tagged = Value::Object(vec![("Kill".into(), Value::I64(3))]);
        let (tag, inner) = tagged.enum_parts().unwrap();
        assert_eq!((tag, inner), ("Kill", &Value::I64(3)));
        assert!(Value::I64(1).enum_parts().is_err());
    }
}
