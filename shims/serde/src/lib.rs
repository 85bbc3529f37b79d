//! In-tree shim for `serde`, serialize only: [`Serialize`] renders a type
//! into the one JSON tree, [`Value`], instead of driving a visitor-based
//! serializer.
//!
//! `serde_json` (the shim) re-exports [`Value`], writes it as JSON text and
//! parses JSON text back into it; the `serde_derive` shim generates
//! `Value`-producing impls for structs and enums. Only the data shapes used
//! by this workspace are supported (named-field structs, unit enums,
//! struct-variant enums, primitives, strings, tuples, arrays, `Vec`,
//! `Option`, string-keyed maps).

use std::collections::BTreeMap;

/// An untyped JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integer in `i64` range.
    I64(i64),
    /// Integer above `i64::MAX`.
    U64(u64),
    /// Floating point.
    F64(f64),
    /// String.
    String(String),
    /// Array.
    Array(Vec<Value>),
    /// Object (insertion order preserved).
    Object(Vec<(String, Value)>),
}

static NULL: Value = Value::Null;

impl Value {
    /// The elements if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The string if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `u64` if integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::I64(v) => u64::try_from(*v).ok(),
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `i64` if integral and in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            Value::U64(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as `f64` if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::I64(v) => Some(*v as f64),
            Value::U64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, index: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(index).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        matches!(self, Value::String(s) if s == other)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        matches!(self, Value::String(s) if s == other)
    }
}

impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        matches!(self, Value::String(s) if s == other)
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        matches!(self, Value::Bool(b) if b == other)
    }
}

impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        matches!(self, Value::F64(v) if v == other)
    }
}

macro_rules! eq_int {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                match self {
                    Value::I64(v) => i128::from(*v) == i128::from(*other),
                    Value::U64(v) => i128::from(*v) == i128::from(*other),
                    _ => false,
                }
            }
        }
    )*};
}
eq_int!(i8, i16, i32, i64, u8, u16, u32, u64);

impl PartialEq<usize> for Value {
    fn eq(&self, other: &usize) -> bool {
        match self {
            Value::I64(v) => i128::from(*v) == *other as i128,
            Value::U64(v) => i128::from(*v) == *other as i128,
            _ => false,
        }
    }
}

/// A type that can render itself as a JSON [`Value`].
pub trait Serialize {
    /// Convert to the JSON tree.
    fn to_value(&self) -> Value;
}

#[cfg(feature = "derive")]
pub use serde_derive::Serialize;

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

macro_rules! ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::I64(*self as i64) }
        }
    )*};
}
ser_int!(i8, i16, i32, i64, isize);

macro_rules! ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let v = *self as u64;
                if v <= i64::MAX as u64 { Value::I64(v as i64) } else { Value::U64(v) }
            }
        }
    )*};
}
ser_uint!(u8, u16, u32, u64, usize);

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_owned())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

macro_rules! ser_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
    };
}
ser_tuple!(A: 0);
ser_tuple!(A: 0, B: 1);
ser_tuple!(A: 0, B: 1, C: 2);
ser_tuple!(A: 0, B: 1, C: 2, D: 3);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_impl_renders_its_value() {
        assert_eq!(u64::MAX.to_value(), Value::U64(u64::MAX));
        assert_eq!((i64::MAX as u64).to_value(), Value::I64(i64::MAX));
        assert_eq!((-3i32).to_value(), Value::I64(-3));
        assert_eq!(7usize.to_value(), Value::I64(7));
        assert_eq!(2.5f32.to_value(), Value::F64(2.5));
        assert_eq!(true.to_value(), Value::Bool(true));
        assert_eq!('x'.to_value(), Value::String("x".into()));
        assert_eq!("hi".to_value(), Value::String("hi".into()));
        assert_eq!(None::<u32>.to_value(), Value::Null);
        assert_eq!(Some(5u8).to_value(), Value::I64(5));
        assert_eq!(
            (1u32, "a", 0.5f64).to_value(),
            Value::Array(vec![
                Value::I64(1),
                Value::String("a".into()),
                Value::F64(0.5)
            ])
        );
        assert_eq!(
            [1u8, 2].to_value(),
            Value::Array(vec![Value::I64(1), Value::I64(2)])
        );
        assert_eq!(
            vec![[1u8, 2]].to_value(),
            Value::Array(vec![[1u8, 2].to_value()])
        );
        let map: BTreeMap<String, u32> = [("b".into(), 2), ("a".into(), 1)].into();
        assert_eq!(
            map.to_value(),
            Value::Object(vec![
                ("a".into(), Value::I64(1)),
                ("b".into(), Value::I64(2))
            ])
        );
        assert_eq!(map.to_value().to_value(), map.to_value());
    }
}
