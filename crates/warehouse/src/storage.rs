//! Columnar star-schema storage.
//!
//! Dimensions are dictionary-encoded: each distinct attribute tuple is
//! stored once in a [`DimensionTable`] and referenced from the fact by
//! a dense [`SurrogateKey`]. The [`FactTable`] stores one key column
//! per dimension plus null-aware numeric measure columns and inline
//! degenerate columns.

use clinical_types::{Error, Result, Value};
use std::collections::HashMap;

/// Dense surrogate key into a dimension table.
pub type SurrogateKey = u32;

/// A dictionary-encoded dimension table: one row per distinct
/// attribute tuple observed during load.
#[derive(Debug, Clone)]
pub struct DimensionTable {
    /// Dimension name.
    pub name: String,
    /// Attribute names, fixing tuple order.
    pub attributes: Vec<String>,
    tuples: Vec<Vec<Value>>,
    intern: HashMap<Vec<Value>, SurrogateKey>,
    /// One per attribute, grown only where `tuples` grows.
    members: Vec<AttributeMembers>,
}

/// The distinct values ("members") one attribute takes across the
/// tuples, and which of them each tuple holds. Append-only: a code
/// never changes once assigned, so clones, replicas and later epochs
/// of a table agree on every code they share.
#[derive(Debug, Clone, Default)]
struct AttributeMembers {
    /// Distinct values in first-seen order; a member's code is its
    /// position here.
    values: Vec<Value>,
    index: HashMap<Value, u32>,
    /// Surrogate key → member code.
    codes: Vec<u32>,
}

impl DimensionTable {
    /// Empty dimension table.
    pub fn new(name: impl Into<String>, attributes: Vec<String>) -> Self {
        DimensionTable {
            name: name.into(),
            members: vec![AttributeMembers::default(); attributes.len()],
            attributes,
            tuples: Vec::new(),
            intern: HashMap::new(),
        }
    }

    /// Intern a tuple, returning its (possibly pre-existing) key.
    pub fn intern(&mut self, tuple: Vec<Value>) -> Result<SurrogateKey> {
        if tuple.len() != self.attributes.len() {
            return Err(Error::invalid(format!(
                "dimension `{}` expects {}-tuples, got {}",
                self.name,
                self.attributes.len(),
                tuple.len()
            )));
        }
        if let Some(k) = self.intern.get(&tuple) {
            return Ok(*k);
        }
        let key = self.tuples.len() as SurrogateKey;
        for (attribute, value) in self.members.iter_mut().zip(&tuple) {
            let code = match attribute.index.get(value) {
                Some(code) => *code,
                None => {
                    let code = attribute.values.len() as u32;
                    attribute.index.insert(value.clone(), code);
                    attribute.values.push(value.clone());
                    code
                }
            };
            attribute.codes.push(code);
        }
        self.intern.insert(tuple.clone(), key);
        self.tuples.push(tuple);
        Ok(key)
    }

    /// Tuple by key.
    pub fn tuple(&self, key: SurrogateKey) -> Option<&[Value]> {
        self.tuples.get(key as usize).map(Vec::as_slice)
    }

    /// The distinct values of attribute `attribute` (a tuple
    /// position), in first-seen order. Grouping on an attribute groups
    /// on positions in this list, not on surrogate keys.
    pub fn members(&self, attribute: usize) -> Option<&[Value]> {
        self.members.get(attribute).map(|m| m.values.as_slice())
    }

    /// Surrogate key → member code of attribute `attribute`:
    /// `members(a)[codes(a)[key]]` is `tuple(key)[a]`, for every key.
    pub fn codes(&self, attribute: usize) -> Option<&[u32]> {
        self.members.get(attribute).map(|m| m.codes.as_slice())
    }

    /// Position of an attribute within tuples.
    pub fn attribute_index(&self, attribute: &str) -> Option<usize> {
        self.attributes.iter().position(|a| a == attribute)
    }

    /// Number of distinct tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when no tuple has been interned.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }
}

/// A null-aware numeric measure column.
#[derive(Debug, Clone, Default)]
pub struct MeasureColumn {
    /// Measure name.
    pub name: String,
    /// Values; meaningless where `valid` is false.
    pub values: Vec<f64>,
    /// Validity mask (false = the measurement was missing).
    pub valid: Vec<bool>,
}

impl MeasureColumn {
    /// Empty column.
    pub fn new(name: impl Into<String>) -> Self {
        MeasureColumn {
            name: name.into(),
            values: Vec::new(),
            valid: Vec::new(),
        }
    }

    /// Append one (possibly missing) measurement.
    pub fn push(&mut self, value: Option<f64>) {
        match value {
            Some(x) => {
                self.values.push(x);
                self.valid.push(true);
            }
            None => {
                self.values.push(0.0);
                self.valid.push(false);
            }
        }
    }

    /// The value at `row`, if present.
    pub fn get(&self, row: usize) -> Option<f64> {
        if *self.valid.get(row)? {
            self.values.get(row).copied()
        } else {
            None
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no measurement has been appended.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Count of non-missing measurements.
    pub fn count_valid(&self) -> usize {
        self.valid.iter().filter(|v| **v).count()
    }
}

/// The central fact table: dimension-key columns (column-major),
/// measure columns and degenerate columns.
#[derive(Debug, Clone, Default)]
pub struct FactTable {
    /// Dimension names, fixing the order of `dim_keys`.
    pub dim_names: Vec<String>,
    /// One key column per dimension; all the same length.
    pub dim_keys: Vec<Vec<SurrogateKey>>,
    /// Measure columns; all the same length as the key columns.
    pub measures: Vec<MeasureColumn>,
    /// Degenerate columns `(name, values)` stored inline on the fact.
    pub degenerate: Vec<(String, Vec<Value>)>,
}

impl FactTable {
    /// Empty fact table for the given dimension / measure / degenerate
    /// column names.
    pub fn new(
        dim_names: Vec<String>,
        measure_names: Vec<String>,
        degenerate: Vec<String>,
    ) -> Self {
        FactTable {
            dim_keys: vec![Vec::new(); dim_names.len()],
            dim_names,
            measures: measure_names.into_iter().map(MeasureColumn::new).collect(),
            degenerate: degenerate.into_iter().map(|n| (n, Vec::new())).collect(),
        }
    }

    /// Number of fact rows.
    pub fn len(&self) -> usize {
        self.dim_keys.first().map_or_else(
            || self.measures.first().map_or(0, MeasureColumn::len),
            Vec::len,
        )
    }

    /// True when the fact table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Index of a dimension by name.
    pub fn dim_index(&self, name: &str) -> Result<usize> {
        self.dim_names
            .iter()
            .position(|d| d == name)
            .ok_or_else(|| Error::invalid(format!("fact table has no dimension `{name}`")))
    }

    /// Key column for a dimension.
    pub fn keys_of(&self, dimension: &str) -> Result<&[SurrogateKey]> {
        let di = self.dim_index(dimension)?;
        self.dim_keys.get(di).map(Vec::as_slice).ok_or_else(|| {
            Error::invalid(format!("fact table has no key column for `{dimension}`"))
        })
    }

    /// Measure column by name.
    pub fn measure(&self, name: &str) -> Result<&MeasureColumn> {
        self.measures
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| Error::invalid(format!("fact table has no measure `{name}`")))
    }

    /// Degenerate column by name.
    pub fn degenerate_column(&self, name: &str) -> Result<&[Value]> {
        self.degenerate
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_slice())
            .ok_or_else(|| Error::invalid(format!("fact table has no degenerate column `{name}`")))
    }

    /// Internal consistency check: every column has the same length.
    pub fn validate(&self) -> Result<()> {
        let n = self.len();
        for (d, keys) in self.dim_names.iter().zip(&self.dim_keys) {
            if keys.len() != n {
                return Err(Error::invalid(format!(
                    "dimension key column `{d}` has {} rows, expected {n}",
                    keys.len()
                )));
            }
        }
        for m in &self.measures {
            if m.len() != n || m.valid.len() != n {
                return Err(Error::invalid(format!(
                    "measure column `{}` has {} rows, expected {n}",
                    m.name,
                    m.len()
                )));
            }
        }
        for (name, col) in &self.degenerate {
            if col.len() != n {
                return Err(Error::invalid(format!(
                    "degenerate column `{name}` has {} rows, expected {n}",
                    col.len()
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// After any intern sequence `members(a)[codes(a)[k]]` is
        /// `tuple(k)[a]` for every key and attribute, no member is
        /// listed twice, and what an earlier batch was assigned is
        /// unchanged by a later one. Small pools, so tuples and
        /// members repeat; `Int(2)` and `Float(2.0)` are one member.
        #[test]
        fn member_codes_resolve_and_never_change(
            batches in proptest::collection::vec(
                proptest::collection::vec((0..5i64, 0..4i64, 0..2u8), 0..30),
                2,
            ),
        ) {
            let mut d = DimensionTable::new("D", vec!["A".into(), "B".into()]);
            let mut earlier: Option<DimensionTable> = None;
            for batch in batches {
                for (a, b, float) in batch {
                    let a = if float == 0 { Value::Int(a) } else { Value::Float(a as f64) };
                    d.intern(vec![a, Value::from(format!("b{b}"))]).unwrap();
                }
                for a in 0..2 {
                    let (members, codes) = (d.members(a).unwrap(), d.codes(a).unwrap());
                    prop_assert_eq!(codes.len(), d.len());
                    for (k, &code) in codes.iter().enumerate() {
                        prop_assert_eq!(&members[code as usize], &d.tuple(k as u32).unwrap()[a]);
                    }
                    let distinct: std::collections::HashSet<&Value> = members.iter().collect();
                    prop_assert_eq!(distinct.len(), members.len());
                    if let Some(old) = &earlier {
                        let (m0, c0) = (old.members(a).unwrap(), old.codes(a).unwrap());
                        prop_assert_eq!(&members[..m0.len()], m0);
                        prop_assert_eq!(&codes[..c0.len()], c0);
                    }
                }
                earlier = Some(d.clone());
            }
            prop_assert!(d.members(2).is_none() && d.codes(2).is_none());
        }
    }

    #[test]
    fn intern_deduplicates_tuples() {
        let mut d = DimensionTable::new("Personal", vec!["Gender".into(), "Age_Band".into()]);
        let a = d.intern(vec!["F".into(), "60-80".into()]).unwrap();
        let b = d.intern(vec!["M".into(), "60-80".into()]).unwrap();
        let c = d.intern(vec!["F".into(), "60-80".into()]).unwrap();
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn intern_checks_arity() {
        let mut d = DimensionTable::new("Personal", vec!["Gender".into()]);
        assert!(d.intern(vec!["F".into(), "x".into()]).is_err());
    }

    #[test]
    fn null_tuples_are_internable() {
        let mut d = DimensionTable::new("X", vec!["A".into()]);
        let k1 = d.intern(vec![Value::Null]).unwrap();
        let k2 = d.intern(vec![Value::Null]).unwrap();
        assert_eq!(k1, k2);
    }

    #[test]
    fn measure_column_tracks_validity() {
        let mut m = MeasureColumn::new("FBG");
        m.push(Some(5.5));
        m.push(None);
        m.push(Some(7.0));
        assert_eq!(m.len(), 3);
        assert_eq!(m.count_valid(), 2);
        assert_eq!(m.get(0), Some(5.5));
        assert_eq!(m.get(1), None);
        assert_eq!(m.get(5), None);
    }

    #[test]
    fn fact_table_accessors_and_validation() {
        let mut f = FactTable::new(
            vec!["Personal".into()],
            vec!["FBG".into()],
            vec!["PatientId".into()],
        );
        f.dim_keys[0].push(0);
        f.measures[0].push(Some(5.0));
        f.degenerate[0].1.push(Value::Int(1));
        assert_eq!(f.len(), 1);
        f.validate().unwrap();
        assert_eq!(f.keys_of("Personal").unwrap(), &[0]);
        assert!(f.keys_of("Nope").is_err());
        assert_eq!(f.measure("FBG").unwrap().get(0), Some(5.0));
        assert!(f.measure("Nope").is_err());
        assert_eq!(f.degenerate_column("PatientId").unwrap().len(), 1);

        // Desynchronise a column: validation must fail.
        f.measures[0].push(Some(9.0));
        assert!(f.validate().is_err());
    }
}
