//! Offline stand-in for `serde`.
//!
//! The build environment has no crate registry, so the workspace vendors
//! a minimal serialisation framework with the same *spelling* as serde —
//! `#[derive(Serialize)]`, `use serde::Serialize` — over a much simpler
//! data model: every value serialises to a JSON-shaped [`Value`] tree,
//! which the companion `serde_json` shim renders as real JSON.
//!
//! Serialisation is output-only: no trait rebuilds a typed value from a
//! [`Value`]. The one typed reader in the workspace (the ALG log record)
//! parses JSON into a [`Value`] with `serde_json::parse_value_complete`
//! and reads its fields by name with [`Value::field`].
//!
//! Differences from real serde, none of which this workspace relies on:
//! no serializer polymorphism, no `#[serde(...)]` attributes, enums always
//! externally tagged.

pub use serde_derive::Serialize;

use std::collections::BTreeMap;

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
    /// Member of an object, or `Null` when absent / not an object.
    pub fn field(&self, name: &str) -> &Value {
        match self {
            Value::Object(entries) => {
                entries.iter().find(|(k, _)| k == name).map(|(_, v)| v).unwrap_or(&NULL)
            }
            _ => &NULL,
        }
    }
}

/// A value that can render itself into the [`Value`] data model.
pub trait Serialize {
    fn to_value(&self) -> Value;
}

// ---------------------------------------------------------------- scalars

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

macro_rules! impl_serialize_uint {
    ($($t:ty),+ $(,)?) => {
        $(impl Serialize for $t {
            fn to_value(&self) -> Value {
                let v = *self as u64;
                if v <= i64::MAX as u64 { Value::I64(v as i64) } else { Value::U64(v) }
            }
        })+
    };
}

impl_serialize_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serialize_sint {
    ($($t:ty),+ $(,)?) => {
        $(impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::I64(*self as i64)
            }
        })+
    };
}

impl_serialize_sint!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
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

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
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

macro_rules! impl_serialize_tuple {
    ($(($($n:tt $t:ident),+)),+ $(,)?) => {
        $(impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$n.to_value()),+])
            }
        })+
    };
}

impl_serialize_tuple!((0 A), (0 A, 1 B), (0 A, 1 B, 2 C), (0 A, 1 B, 2 C, 3 D));

/// Map keys must render as JSON object keys (strings).
pub trait JsonKey {
    fn to_key(&self) -> String;
}

impl JsonKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
}

macro_rules! impl_json_key_int {
    ($($t:ty),+ $(,)?) => {
        $(impl JsonKey for $t {
            fn to_key(&self) -> String {
                self.to_string()
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

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_serialise() {
        assert_eq!(42u64.to_value(), Value::I64(42));
        assert_eq!((-7i32).to_value(), Value::I64(-7));
        assert_eq!(0.5f64.to_value(), Value::F64(0.5));
        assert_eq!(true.to_value(), Value::Bool(true));
        assert_eq!("hi".to_value(), Value::Str("hi".into()));
        // Above i64::MAX an unsigned integer keeps its own variant.
        assert_eq!(u64::MAX.to_value(), Value::U64(u64::MAX));
    }

    #[test]
    fn containers_serialise() {
        let xs = vec![(1.0f64, 2.0f64)];
        assert_eq!(xs.to_value(), Value::Array(vec![Value::Array(vec![Value::F64(1.0), Value::F64(2.0)])]));
        let mut m = BTreeMap::new();
        m.insert(3u32, vec![1u64]);
        assert_eq!(m.to_value(), Value::Object(vec![("3".into(), Value::Array(vec![Value::I64(1)]))]));
        assert_eq!(None::<u8>.to_value(), Value::Null);
    }

    #[test]
    fn missing_field_reads_as_null() {
        let obj = Value::Object(vec![("a".into(), Value::I64(1))]);
        assert_eq!(obj.field("a"), &Value::I64(1));
        assert_eq!(obj.field("b"), &Value::Null);
        assert_eq!(Value::I64(1).field("a"), &Value::Null);
    }
}
