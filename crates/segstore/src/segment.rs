//! Immutable columnar segments.
//!
//! A [`Segment`] is a sealed, column-major copy of a contiguous batch
//! of fact rows: one surrogate-key column per dimension, null-aware
//! measure columns and inline degenerate columns. Its [`SegmentMeta`]
//! carries the per-column zone maps, so planners prune on metadata
//! alone and only fetch (and, for the disk backend, decode) the
//! segments and columns a query actually touches.

use crate::zone::{KeyZone, MeasureZone};
use clinical_types::{Error, Result, Value};
use std::collections::BTreeSet;

/// Metadata of one sealed segment: identity, row count and zone maps.
/// Small enough to keep resident for every segment; pruning never
/// touches the backend.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentMeta {
    /// Backend-unique segment id.
    pub id: u64,
    /// Number of rows sealed in the segment.
    pub rows: u64,
    /// One zone per dimension-key column, in column order.
    pub key_zones: Vec<KeyZone>,
    /// One zone per measure column, in column order.
    pub measure_zones: Vec<MeasureZone>,
    /// Names of the degenerate columns (no zones: arbitrary values).
    pub degenerate_columns: Vec<String>,
}

impl SegmentMeta {
    /// Zone of a dimension-key column.
    pub fn key_zone(&self, column: &str) -> Option<&KeyZone> {
        self.key_zones.iter().find(|z| z.column == column)
    }

    /// Zone of a measure column.
    pub fn measure_zone(&self, column: &str) -> Option<&MeasureZone> {
        self.measure_zones.iter().find(|z| z.column == column)
    }

    /// True when the segment carries a degenerate column `name`.
    pub fn has_degenerate(&self, name: &str) -> bool {
        self.degenerate_columns.iter().any(|c| c == name)
    }
}

/// A sealed columnar segment: metadata plus column data. Depending on
/// the [`crate::ColumnSet`] used at fetch time, only a subset of the
/// columns may be materialised — the meta always lists the full
/// schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Identity, row count and zone maps.
    pub meta: SegmentMeta,
    /// `(dimension name, surrogate keys)` columns.
    pub keys: Vec<(String, Vec<u32>)>,
    /// `(measure name, values, validity)` columns.
    pub measures: Vec<(String, Vec<f64>, Vec<bool>)>,
    /// `(name, values)` degenerate columns.
    pub degenerates: Vec<(String, Vec<Value>)>,
}

impl Segment {
    /// Seal a batch of columns into a segment, validating column
    /// lengths and computing the zone maps.
    pub fn assemble(
        id: u64,
        keys: Vec<(String, Vec<u32>)>,
        measures: Vec<(String, Vec<f64>, Vec<bool>)>,
        degenerates: Vec<(String, Vec<Value>)>,
    ) -> Result<Segment> {
        let rows = keys
            .first()
            .map(|(_, c)| c.len())
            .or_else(|| measures.first().map(|(_, v, _)| v.len()))
            .or_else(|| degenerates.first().map(|(_, v)| v.len()))
            .unwrap_or(0);
        for (name, col) in &keys {
            if col.len() != rows {
                return Err(column_length_error(name, col.len(), rows));
            }
        }
        for (name, values, valid) in &measures {
            if values.len() != rows || valid.len() != rows {
                return Err(column_length_error(name, values.len(), rows));
            }
        }
        for (name, col) in &degenerates {
            if col.len() != rows {
                return Err(column_length_error(name, col.len(), rows));
            }
        }
        let meta = SegmentMeta {
            id,
            rows: rows as u64,
            key_zones: keys
                .iter()
                .map(|(name, col)| KeyZone::from_keys(name.clone(), col))
                .collect(),
            measure_zones: measures
                .iter()
                .map(|(name, values, valid)| MeasureZone::from_values(name.clone(), values, valid))
                .collect(),
            degenerate_columns: degenerates.iter().map(|(n, _)| n.clone()).collect(),
        };
        Ok(Segment {
            meta,
            keys,
            measures,
            degenerates,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.meta.rows as usize
    }

    /// Materialised key column by dimension name.
    pub fn key_column(&self, name: &str) -> Option<&[u32]> {
        self.keys
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c.as_slice())
    }

    /// Materialised measure column `(values, validity)` by name.
    pub fn measure_column(&self, name: &str) -> Option<(&[f64], &[bool])> {
        self.measures
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, ok)| (v.as_slice(), ok.as_slice()))
    }

    /// Materialised degenerate column by name.
    pub fn degenerate_column(&self, name: &str) -> Option<&[Value]> {
        self.degenerates
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c.as_slice())
    }
}

fn column_length_error(name: &str, got: usize, want: usize) -> Error {
    Error::invalid(format!(
        "segment column `{name}` has {got} rows, expected {want}"
    ))
}

/// The set of columns a fetch must materialise. Backends may return a
/// superset (the in-memory backend always returns whole segments for
/// free); the disk backend decodes only what is requested, which is
/// how a cube scan's column pruning — exactly the key, measure and
/// degenerate columns its spec reads — reaches storage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColumnSet {
    everything: bool,
    keys: BTreeSet<String>,
    measures: BTreeSet<String>,
    degenerates: BTreeSet<String>,
}

impl ColumnSet {
    /// Every column in the segment.
    pub fn all() -> Self {
        ColumnSet {
            everything: true,
            ..ColumnSet::default()
        }
    }

    /// No data columns (metadata only).
    pub fn empty() -> Self {
        ColumnSet::default()
    }

    /// Request a dimension-key column.
    pub fn with_key(mut self, name: impl Into<String>) -> Self {
        self.keys.insert(name.into());
        self
    }

    /// Request a measure column.
    pub fn with_measure(mut self, name: impl Into<String>) -> Self {
        self.measures.insert(name.into());
        self
    }

    /// Request a degenerate column.
    pub fn with_degenerate(mut self, name: impl Into<String>) -> Self {
        self.degenerates.insert(name.into());
        self
    }

    /// True for [`ColumnSet::all`].
    pub fn wants_everything(&self) -> bool {
        self.everything
    }

    /// Is key column `name` requested?
    pub fn wants_key(&self, name: &str) -> bool {
        self.everything || self.keys.contains(name)
    }

    /// Is measure column `name` requested?
    pub fn wants_measure(&self, name: &str) -> bool {
        self.everything || self.measures.contains(name)
    }

    /// Is degenerate column `name` requested?
    pub fn wants_degenerate(&self, name: &str) -> bool {
        self.everything || self.degenerates.contains(name)
    }

    /// Requested key-column names (empty when `everything`).
    pub fn key_names(&self) -> impl Iterator<Item = &str> {
        self.keys.iter().map(String::as_str)
    }

    /// Requested measure-column names (empty when `everything`).
    pub fn measure_names(&self) -> impl Iterator<Item = &str> {
        self.measures.iter().map(String::as_str)
    }

    /// Requested degenerate-column names (empty when `everything`).
    pub fn degenerate_names(&self) -> impl Iterator<Item = &str> {
        self.degenerates.iter().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub fn sample_segment(id: u64) -> Segment {
        Segment::assemble(
            id,
            vec![
                ("Visit".into(), vec![0, 0, 1, 1]),
                ("Personal".into(), vec![3, 4, 3, 5]),
            ],
            vec![(
                "FBG".into(),
                vec![5.5, 0.0, 7.25, 6.0],
                vec![true, false, true, true],
            )],
            vec![(
                "PatientId".into(),
                vec![
                    Value::Int(1),
                    Value::Int(2),
                    Value::Int(1),
                    Value::Text("x".into()),
                ],
            )],
        )
        .unwrap()
    }

    #[test]
    fn assemble_computes_zones() {
        let seg = sample_segment(7);
        assert_eq!(seg.meta.id, 7);
        assert_eq!(seg.rows(), 4);
        let visit = seg.meta.key_zone("Visit").unwrap();
        assert_eq!((visit.min, visit.max), (0, 1));
        let fbg = seg.meta.measure_zone("FBG").unwrap();
        assert_eq!(fbg.range, Some((5.5, 7.25)));
        assert_eq!(fbg.null_count, 1);
        assert!(seg.meta.has_degenerate("PatientId"));
        assert!(!seg.meta.has_degenerate("Nope"));
    }

    #[test]
    fn assemble_rejects_ragged_columns() {
        let err = Segment::assemble(
            0,
            vec![("A".into(), vec![1, 2]), ("B".into(), vec![1])],
            vec![],
            vec![],
        )
        .unwrap_err();
        assert!(err.to_string().contains("`B`"));
    }

    #[test]
    fn column_lookup_by_name() {
        let seg = sample_segment(0);
        assert_eq!(seg.key_column("Personal").unwrap(), &[3, 4, 3, 5]);
        assert!(seg.key_column("Nope").is_none());
        let (values, valid) = seg.measure_column("FBG").unwrap();
        assert_eq!(values.len(), 4);
        assert!(!valid[1]);
        assert_eq!(seg.degenerate_column("PatientId").unwrap().len(), 4);
    }

    #[test]
    fn column_set_membership() {
        let all = ColumnSet::all();
        assert!(all.wants_key("anything") && all.wants_measure("x") && all.wants_degenerate("y"));
        let some = ColumnSet::empty().with_key("Visit").with_measure("FBG");
        assert!(some.wants_key("Visit"));
        assert!(!some.wants_key("Personal"));
        assert!(some.wants_measure("FBG"));
        assert!(!some.wants_degenerate("PatientId"));
    }
}
