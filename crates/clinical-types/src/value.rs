//! Dynamically typed cell values and their declared types.

use crate::date::Date;
use std::cmp::Ordering;
use std::fmt;

/// Declared type of a schema field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float (clinical measures: FBG, BMI, blood pressure…).
    Float,
    /// UTF-8 text (categorical attributes, discretised band labels).
    Text,
    /// Boolean flag (e.g. "family history of diabetes").
    Bool,
    /// Calendar date (attendance date, diagnosis date).
    Date,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "Int",
            DataType::Float => "Float",
            DataType::Text => "Text",
            DataType::Bool => "Bool",
            DataType::Date => "Date",
        };
        f.write_str(s)
    }
}

/// A single cell value.
///
/// `Null` models a missing clinical measurement — pervasive in
/// screening data — and is accepted by any nullable field regardless
/// of its declared type.
#[derive(Debug, Clone)]
pub enum Value {
    /// Missing measurement.
    Null,
    /// Integer value.
    Int(i64),
    /// Floating point value.
    Float(f64),
    /// Text value.
    Text(String),
    /// Boolean value.
    Bool(bool),
    /// Date value.
    Date(Date),
}

impl Value {
    /// Declared type this value conforms to, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    /// True if the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view: `Int` and `Float` yield `f64`, `Bool` yields 0/1.
    /// Used by aggregation and discretisation, which treat any numeric
    /// clinical measure uniformly.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Integer view (exact only).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Text view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Date view.
    pub fn as_date(&self) -> Option<Date> {
        match self {
            Value::Date(d) => Some(*d),
            _ => None,
        }
    }

    /// Whether this value conforms to `dtype` (numeric widening from
    /// `Int` to `Float` is permitted; `Null` conforms to nothing —
    /// nullability is checked separately at the schema level).
    pub fn conforms_to(&self, dtype: DataType) -> bool {
        matches!(
            (self, dtype),
            (Value::Int(_), DataType::Int)
                | (Value::Int(_), DataType::Float)
                | (Value::Float(_), DataType::Float)
                | (Value::Text(_), DataType::Text)
                | (Value::Bool(_), DataType::Bool)
                | (Value::Date(_), DataType::Date)
        )
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b || (a.is_nan() && b.is_nan()),
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => *a as f64 == *b,
            (Value::Text(a), Value::Text(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Date(a), Value::Date(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

/// Largest magnitude below which every integer is exactly
/// representable as an `f64` (2⁵³) — the boundary for the canonical
/// numeric hash below.
const EXACT_F64_INT_BOUND: i64 = 1 << 53;

impl std::hash::Hash for Value {
    /// Consistent with the cross-type numeric `Eq`: `Int(5)` and
    /// `Float(5.0)` are equal, so they must hash alike. Both hash
    /// under one numeric tag through a canonical form — an `i64` when
    /// the value is integral and within the exactly-representable
    /// range, the `f64` bit pattern otherwise (NaNs all hash alike).
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Int(i) => {
                1u8.hash(state);
                if (-EXACT_F64_INT_BOUND..EXACT_F64_INT_BOUND).contains(i) {
                    i.hash(state);
                } else {
                    // Equality against floats goes through `as f64`,
                    // so huge integers hash through it too.
                    (*i as f64).to_bits().hash(state);
                }
            }
            Value::Float(f) => {
                1u8.hash(state);
                if f.is_nan() {
                    f64::NAN.to_bits().hash(state);
                } else if f.fract() == 0.0 && f.abs() < EXACT_F64_INT_BOUND as f64 {
                    (*f as i64).hash(state);
                } else {
                    f.to_bits().hash(state);
                }
            }
            Value::Text(s) => {
                2u8.hash(state);
                s.hash(state);
            }
            Value::Bool(b) => {
                3u8.hash(state);
                b.hash(state);
            }
            Value::Date(d) => {
                4u8.hash(state);
                d.hash(state);
            }
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Total order used for sorting and group-by keys: `Null` sorts first,
/// then by type tag, then by value. Cross-numeric (`Int` vs `Float`)
/// comparisons compare numerically.
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        fn tag(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Int(_) | Value::Float(_) => 1,
                Value::Text(_) => 2,
                Value::Bool(_) => 3,
                Value::Date(_) => 4,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => total_f64(*a, *b),
            (Value::Int(a), Value::Float(b)) => total_f64(*a as f64, *b),
            (Value::Float(a), Value::Int(b)) => total_f64(*a, *b as f64),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Date(a), Value::Date(b)) => a.cmp(b),
            (a, b) => tag(a).cmp(&tag(b)),
        }
    }
}

fn total_f64(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or_else(|| {
        // NaNs sort last among floats.
        match (a.is_nan(), b.is_nan()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => unreachable!("partial_cmp failed on non-NaN floats"),
        }
    })
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(s) => f.write_str(s),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Date(d) => write!(f, "{d}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(i64::from(v))
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<Date> for Value {
    fn from(v: Date) -> Self {
        Value::Date(v)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert_eq!(Value::Int(7), Value::Float(7.0));
        assert_ne!(Value::Int(7), Value::Float(7.5));
    }

    #[test]
    fn null_is_only_equal_to_null() {
        assert_eq!(Value::Null, Value::Null);
        assert_ne!(Value::Null, Value::Int(0));
        assert_ne!(Value::Null, Value::Text(String::new()));
    }

    #[test]
    fn nan_equals_nan_and_hashes_alike() {
        let a = Value::Float(f64::NAN);
        let b = Value::Float(f64::NAN);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn cross_type_equal_numerics_hash_alike() {
        // Int(n) == Float(n as f64) must imply equal hashes, or
        // group-by keys could split across buckets.
        for n in [-923i64, 0, 7, 1 << 30, (1 << 53) - 1, 1 << 53, i64::MAX] {
            let a = Value::Int(n);
            let b = Value::Float(n as f64);
            if a == b {
                assert_eq!(hash_of(&a), hash_of(&b), "hash split for {n}");
            }
        }
        // Negative zero equals positive zero and Int(0).
        assert_eq!(hash_of(&Value::Float(-0.0)), hash_of(&Value::Float(0.0)));
        assert_eq!(hash_of(&Value::Float(-0.0)), hash_of(&Value::Int(0)));
        // Infinities are hashable and unequal to everything finite.
        assert_ne!(
            hash_of(&Value::Float(f64::INFINITY)),
            hash_of(&Value::Float(f64::NEG_INFINITY))
        );
    }

    #[test]
    fn ordering_null_first_then_numeric() {
        let mut vals = vec![
            Value::Text("b".into()),
            Value::Int(3),
            Value::Null,
            Value::Float(2.5),
            Value::Text("a".into()),
        ];
        vals.sort();
        assert_eq!(
            vals,
            vec![
                Value::Null,
                Value::Float(2.5),
                Value::Int(3),
                Value::Text("a".into()),
                Value::Text("b".into()),
            ]
        );
    }

    #[test]
    fn conforms_allows_int_widening() {
        assert!(Value::Int(1).conforms_to(DataType::Float));
        assert!(!Value::Float(1.0).conforms_to(DataType::Int));
        assert!(!Value::Null.conforms_to(DataType::Int));
    }

    #[test]
    fn as_f64_views() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::Text("x".into()).as_f64(), None);
        assert_eq!(Value::Null.as_f64(), None);
    }

    #[test]
    fn from_option_maps_none_to_null() {
        let v: Value = Option::<i64>::None.into();
        assert!(v.is_null());
        let v: Value = Some(4i64).into();
        assert_eq!(v, Value::Int(4));
    }

    #[test]
    fn display_renders_clinical_values() {
        assert_eq!(Value::Float(5.5).to_string(), "5.5");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Text("preDiabetic".into()).to_string(), "preDiabetic");
    }

    proptest! {
        #[test]
        fn eq_implies_hash_eq(a in -1000i64..1000, b in -1000i64..1000) {
            let (va, vb) = (Value::Int(a), Value::Float(b as f64));
            if va == vb {
                prop_assert_eq!(hash_of(&va), hash_of(&vb));
            }
        }

        #[test]
        fn ord_is_total_and_antisymmetric(a in any::<f64>(), b in any::<f64>()) {
            let (va, vb) = (Value::Float(a), Value::Float(b));
            let fwd = va.cmp(&vb);
            let rev = vb.cmp(&va);
            prop_assert_eq!(fwd, rev.reverse());
        }
    }
}
