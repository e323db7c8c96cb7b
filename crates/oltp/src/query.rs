//! Predicate selection, projection and flat group-by.
//!
//! This is the DG-SQL-style access path of the original DGMS: queries
//! run directly against transactional rows, with at most single-column
//! index acceleration. Multivariate aggregation here costs a full
//! hash group-by per query — exactly the cost the paper's warehouse
//! layer amortises.

use crate::index::{BTreeIndex, HashIndex};
use crate::store::{RowId, RowStore};
use clinical_types::{Error, Record, Result, Value};
use std::collections::HashMap;

/// A row predicate over named columns.
///
/// SQL-style null semantics: any comparison against a NULL cell is
/// false; only [`Predicate::IsNull`] matches missing measurements.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Matches every row.
    True,
    /// `column = value`
    Eq(String, Value),
    /// `column <> value` (false for NULL cells).
    Ne(String, Value),
    /// `column < value`
    Lt(String, Value),
    /// `column >= value`
    Ge(String, Value),
    /// `lo <= column < hi`
    Between(String, Value, Value),
    /// `column IS NULL`
    IsNull(String),
    /// `column IS NOT NULL`
    NotNull(String),
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation (NULL comparisons stay false, as in SQL `NOT`
    /// over three-valued logic collapsed to two values).
    Not(Box<Predicate>),
}

impl Predicate {
    /// Convenience: equality on a column.
    pub fn eq(column: impl Into<String>, value: impl Into<Value>) -> Self {
        Predicate::Eq(column.into(), value.into())
    }

    /// Convenience: conjunction.
    pub fn and(self, other: Predicate) -> Self {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Convenience: disjunction.
    pub fn or(self, other: Predicate) -> Self {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Evaluate against a record described by `schema`.
    pub fn eval(&self, schema: &clinical_types::Schema, record: &Record) -> Result<bool> {
        let cell = |name: &str| -> Result<&Value> { Ok(&record.values()[schema.index_of(name)?]) };
        Ok(match self {
            Predicate::True => true,
            Predicate::Eq(c, v) => {
                let x = cell(c)?;
                !x.is_null() && x == v
            }
            Predicate::Ne(c, v) => {
                let x = cell(c)?;
                !x.is_null() && x != v
            }
            Predicate::Lt(c, v) => {
                let x = cell(c)?;
                !x.is_null() && x < v
            }
            Predicate::Ge(c, v) => {
                let x = cell(c)?;
                !x.is_null() && x >= v
            }
            Predicate::Between(c, lo, hi) => {
                let x = cell(c)?;
                !x.is_null() && x >= lo && x < hi
            }
            Predicate::IsNull(c) => cell(c)?.is_null(),
            Predicate::NotNull(c) => !cell(c)?.is_null(),
            Predicate::And(a, b) => a.eval(schema, record)? && b.eval(schema, record)?,
            Predicate::Or(a, b) => a.eval(schema, record)? || b.eval(schema, record)?,
            Predicate::Not(p) => !p.eval(schema, record)?,
        })
    }
}

/// Aggregate functions for flat group-by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    /// Row count (NULLs in the measure column still count rows).
    Count,
    /// Sum of the measure column, skipping NULLs.
    Sum,
    /// Mean of the measure column, skipping NULLs.
    Avg,
    /// Minimum, skipping NULLs.
    Min,
    /// Maximum, skipping NULLs.
    Max,
}

/// Result of a flat group-by: one row per distinct key combination.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupByResult {
    /// Grouping column names, in request order.
    pub group_columns: Vec<String>,
    /// `(key values, aggregate)` — unordered.
    pub rows: Vec<(Vec<Value>, f64)>,
}

impl GroupByResult {
    /// Aggregate value for an exact key combination.
    pub fn get(&self, key: &[Value]) -> Option<f64> {
        self.rows.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

/// Query engine over a [`RowStore`] with registered secondary indexes.
pub struct QueryEngine {
    store: RowStore,
    hash_indexes: HashMap<String, HashIndex>,
    btree_indexes: HashMap<String, BTreeIndex>,
}

impl QueryEngine {
    /// Engine over `store` with no indexes.
    pub fn new(store: RowStore) -> Self {
        QueryEngine {
            store,
            hash_indexes: HashMap::new(),
            btree_indexes: HashMap::new(),
        }
    }

    /// Underlying store.
    pub fn store(&self) -> &RowStore {
        &self.store
    }

    /// Build (or rebuild) a hash index over `column` from current rows.
    pub fn create_hash_index(&mut self, column: &str) -> Result<()> {
        let idx_pos = self.store.schema().index_of(column)?;
        let index = HashIndex::new();
        self.store.for_each(|id, rec| {
            let v = &rec.values()[idx_pos];
            if !v.is_null() {
                index.insert(v.clone(), id);
            }
        })?;
        self.hash_indexes.insert(column.to_string(), index);
        Ok(())
    }

    /// Build (or rebuild) a B-tree index over `column`.
    pub fn create_btree_index(&mut self, column: &str) -> Result<()> {
        let idx_pos = self.store.schema().index_of(column)?;
        let index = BTreeIndex::new();
        self.store.for_each(|id, rec| {
            let v = &rec.values()[idx_pos];
            if !v.is_null() {
                index.insert(v.clone(), id);
            }
        })?;
        self.btree_indexes.insert(column.to_string(), index);
        Ok(())
    }

    /// Insert through the engine, maintaining indexes.
    pub fn insert(&self, record: Record) -> Result<RowId> {
        let id = self.store.insert(record.clone())?;
        self.index_row(&record, id, true)?;
        Ok(id)
    }

    /// Delete through the engine, maintaining indexes.
    pub fn delete(&self, id: RowId) -> Result<Record> {
        let old = self.store.delete(id)?;
        self.index_row(&old, id, false)?;
        Ok(old)
    }

    fn index_row(&self, record: &Record, id: RowId, add: bool) -> Result<()> {
        let schema = self.store.schema();
        for (col, idx) in &self.hash_indexes {
            let v = &record.values()[schema.index_of(col)?];
            if !v.is_null() {
                if add {
                    idx.insert(v.clone(), id);
                } else {
                    idx.remove(v, id);
                }
            }
        }
        for (col, idx) in &self.btree_indexes {
            let v = &record.values()[schema.index_of(col)?];
            if !v.is_null() {
                if add {
                    idx.insert(v.clone(), id);
                } else {
                    idx.remove(v, id);
                }
            }
        }
        Ok(())
    }

    /// Candidate row ids from an index for a predicate, if any part of
    /// it is indexable. Returned candidates are a superset of matches
    /// restricted by that part; the caller re-verifies the full
    /// predicate.
    fn index_candidates(&self, predicate: &Predicate) -> Option<Vec<RowId>> {
        match predicate {
            Predicate::Eq(c, v) => {
                if let Some(idx) = self.hash_indexes.get(c) {
                    return Some(idx.lookup(v));
                }
                self.btree_indexes.get(c).map(|idx| idx.lookup(v))
            }
            Predicate::Lt(c, v) => self
                .btree_indexes
                .get(c)
                .map(|idx| idx.range(None, Some(v))),
            Predicate::Ge(c, v) => self
                .btree_indexes
                .get(c)
                .map(|idx| idx.range(Some(v), None)),
            Predicate::Between(c, lo, hi) => self
                .btree_indexes
                .get(c)
                .map(|idx| idx.range(Some(lo), Some(hi))),
            // For a conjunction the first indexable side prunes; the
            // full predicate is re-checked on the candidates anyway.
            Predicate::And(a, b) => self
                .index_candidates(a)
                .or_else(|| self.index_candidates(b)),
            _ => None,
        }
    }

    /// Select all rows matching `predicate`.
    pub fn select(&self, predicate: &Predicate) -> Result<Vec<(RowId, Record)>> {
        let schema = self.store.schema();
        if let Some(candidates) = self.index_candidates(predicate) {
            let mut out = Vec::with_capacity(candidates.len());
            for id in candidates {
                if let Some(rec) = self.store.get(id)? {
                    if predicate.eval(schema, &rec)? {
                        out.push((id, rec));
                    }
                }
            }
            out.sort_by_key(|(id, _)| *id);
            return Ok(out);
        }
        let mut out = Vec::new();
        // Full scan fallback.
        let rows = self.store.scan()?;
        for (id, rec) in rows {
            if predicate.eval(schema, &rec)? {
                out.push((id, rec));
            }
        }
        Ok(out)
    }

    /// Count rows matching `predicate`.
    pub fn count(&self, predicate: &Predicate) -> Result<usize> {
        Ok(self.select(predicate)?.len())
    }

    /// Project matching rows onto `columns`.
    pub fn project(&self, predicate: &Predicate, columns: &[&str]) -> Result<Vec<Vec<Value>>> {
        let schema = self.store.schema();
        let idxs: Vec<usize> = columns
            .iter()
            .map(|c| schema.index_of(c))
            .collect::<Result<_>>()?;
        Ok(self
            .select(predicate)?
            .into_iter()
            .map(|(_, rec)| idxs.iter().map(|&i| rec.values()[i].clone()).collect())
            .collect())
    }

    /// Flat hash group-by over the matching rows: group by
    /// `group_columns`, aggregate `measure` with `agg`. `measure` may
    /// be `None` only for [`AggFn::Count`]. Rows with a NULL grouping
    /// cell go to a `NULL` key group.
    pub fn group_by(
        &self,
        predicate: &Predicate,
        group_columns: &[&str],
        agg: AggFn,
        measure: Option<&str>,
    ) -> Result<GroupByResult> {
        let schema = self.store.schema();
        let group_idx: Vec<usize> = group_columns
            .iter()
            .map(|c| schema.index_of(c))
            .collect::<Result<_>>()?;
        let measure_idx = match (agg, measure) {
            (AggFn::Count, None) => None,
            (AggFn::Count, Some(m)) => Some(schema.index_of(m)?),
            (_, Some(m)) => Some(schema.index_of(m)?),
            (_, None) => return Err(Error::invalid(format!("{agg:?} requires a measure column"))),
        };

        #[derive(Default)]
        struct Acc {
            count: usize,
            sum: f64,
            min: f64,
            max: f64,
            seen: bool,
        }
        let mut groups: HashMap<Vec<Value>, Acc> = HashMap::new();
        for (_, rec) in self.select(predicate)? {
            let key: Vec<Value> = group_idx.iter().map(|&i| rec.values()[i].clone()).collect();
            let acc = groups.entry(key).or_default();
            match measure_idx {
                None => acc.count += 1,
                Some(mi) => {
                    let v = rec.values()[mi].as_f64();
                    match (agg, v) {
                        (AggFn::Count, _) => acc.count += 1,
                        (_, None) => {} // NULL measure skipped
                        (_, Some(x)) => {
                            acc.count += 1;
                            acc.sum += x;
                            if !acc.seen || x < acc.min {
                                acc.min = x;
                            }
                            if !acc.seen || x > acc.max {
                                acc.max = x;
                            }
                            acc.seen = true;
                        }
                    }
                }
            }
        }

        let rows = groups
            .into_iter()
            .map(|(key, acc)| {
                let value = match agg {
                    AggFn::Count => acc.count as f64,
                    AggFn::Sum => acc.sum,
                    AggFn::Avg => {
                        if acc.count == 0 {
                            f64::NAN
                        } else {
                            acc.sum / acc.count as f64
                        }
                    }
                    AggFn::Min => {
                        if acc.seen {
                            acc.min
                        } else {
                            f64::NAN
                        }
                    }
                    AggFn::Max => {
                        if acc.seen {
                            acc.max
                        } else {
                            f64::NAN
                        }
                    }
                };
                (key, value)
            })
            .collect();
        Ok(GroupByResult {
            group_columns: group_columns.iter().map(|s| s.to_string()).collect(),
            rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clinical_types::{DataType, FieldDef, Schema};

    fn engine() -> QueryEngine {
        let schema = Schema::new(vec![
            FieldDef::required("Id", DataType::Int),
            FieldDef::nullable("Gender", DataType::Text),
            FieldDef::nullable("Age", DataType::Int),
            FieldDef::nullable("FBG", DataType::Float),
        ])
        .unwrap();
        let store = RowStore::new(schema);
        let engine = QueryEngine::new(store);
        type DemoRow = (i64, Option<&'static str>, Option<i64>, Option<f64>);
        let rows: Vec<DemoRow> = vec![
            (1, Some("F"), Some(72), Some(5.2)),
            (2, Some("M"), Some(74), Some(7.4)),
            (3, Some("F"), Some(76), Some(6.5)),
            (4, Some("M"), Some(81), None),
            (5, None, Some(68), Some(5.9)),
            (6, Some("F"), None, Some(8.0)),
        ];
        for (id, g, a, f) in rows {
            engine
                .insert(Record::new(vec![
                    Value::Int(id),
                    g.map(Value::from).unwrap_or(Value::Null),
                    a.map(Value::Int).unwrap_or(Value::Null),
                    f.map(Value::Float).unwrap_or(Value::Null),
                ]))
                .unwrap();
        }
        engine
    }

    #[test]
    fn eq_predicate_selects_matching_rows() {
        let e = engine();
        let rows = e.select(&Predicate::eq("Gender", "F")).unwrap();
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn null_cells_never_match_comparisons() {
        let e = engine();
        // Row 5 has NULL gender: neither Eq nor Ne matches it.
        assert_eq!(e.count(&Predicate::eq("Gender", "F")).unwrap(), 3);
        assert_eq!(
            e.count(&Predicate::Ne("Gender".into(), "F".into()))
                .unwrap(),
            2
        );
        assert_eq!(e.count(&Predicate::IsNull("Gender".into())).unwrap(), 1);
        assert_eq!(e.count(&Predicate::NotNull("Gender".into())).unwrap(), 5);
    }

    #[test]
    fn between_is_half_open() {
        let e = engine();
        let p = Predicate::Between("Age".into(), Value::Int(72), Value::Int(76));
        // Ages 72, 74 — not 76 (exclusive hi) and not NULL.
        assert_eq!(e.count(&p).unwrap(), 2);
    }

    #[test]
    fn and_or_not_combinators() {
        let e = engine();
        let female_over_73 =
            Predicate::eq("Gender", "F").and(Predicate::Ge("Age".into(), Value::Int(73)));
        assert_eq!(e.count(&female_over_73).unwrap(), 1);
        let either = Predicate::eq("Gender", "M").or(Predicate::eq("Gender", "F"));
        assert_eq!(e.count(&either).unwrap(), 5);
        let not_f = Predicate::Not(Box::new(Predicate::eq("Gender", "F")));
        // NOT collapses: NULL gender row matches NOT(Eq) here.
        assert_eq!(e.count(&not_f).unwrap(), 3);
    }

    #[test]
    fn unknown_column_is_an_error() {
        let e = engine();
        assert!(e.select(&Predicate::eq("Nope", 1)).is_err());
    }

    #[test]
    fn hash_index_accelerated_select_agrees_with_scan() {
        let mut e = engine();
        let scan = e.select(&Predicate::eq("Gender", "M")).unwrap();
        e.create_hash_index("Gender").unwrap();
        let indexed = e.select(&Predicate::eq("Gender", "M")).unwrap();
        assert_eq!(scan, indexed);
    }

    #[test]
    fn btree_index_accelerated_range_agrees_with_scan() {
        let mut e = engine();
        let p = Predicate::Between("Age".into(), Value::Int(70), Value::Int(80));
        let scan = e.select(&p).unwrap();
        e.create_btree_index("Age").unwrap();
        let indexed = e.select(&p).unwrap();
        assert_eq!(scan, indexed);
        // And the conjunctive case re-verifies the residual predicate.
        let conj = p.and(Predicate::eq("Gender", "F"));
        assert_eq!(e.count(&conj).unwrap(), 2);
    }

    #[test]
    fn indexes_track_inserts_and_deletes() {
        let mut e = engine();
        e.create_hash_index("Gender").unwrap();
        let id = e
            .insert(Record::new(vec![
                Value::Int(7),
                Value::from("F"),
                Value::Int(50),
                Value::Null,
            ]))
            .unwrap();
        assert_eq!(e.count(&Predicate::eq("Gender", "F")).unwrap(), 4);
        e.delete(id).unwrap();
        assert_eq!(e.count(&Predicate::eq("Gender", "F")).unwrap(), 3);
    }

    #[test]
    fn projection_returns_requested_columns() {
        let e = engine();
        let rows = e
            .project(&Predicate::eq("Gender", "M"), &["Id", "Age"])
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].len(), 2);
    }

    #[test]
    fn group_by_count() {
        let e = engine();
        let g = e
            .group_by(&Predicate::True, &["Gender"], AggFn::Count, None)
            .unwrap();
        assert_eq!(g.get(&[Value::from("F")]), Some(3.0));
        assert_eq!(g.get(&[Value::from("M")]), Some(2.0));
        assert_eq!(g.get(&[Value::Null]), Some(1.0));
    }

    #[test]
    fn group_by_avg_skips_null_measures() {
        let e = engine();
        let g = e
            .group_by(&Predicate::True, &["Gender"], AggFn::Avg, Some("FBG"))
            .unwrap();
        // Males: 7.4 and NULL → avg 7.4.
        assert_eq!(g.get(&[Value::from("M")]), Some(7.4));
        // Females: 5.2, 6.5, 8.0.
        let f = g.get(&[Value::from("F")]).unwrap();
        assert!((f - (5.2 + 6.5 + 8.0) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn group_by_min_max_sum() {
        let e = engine();
        let min = e
            .group_by(&Predicate::True, &[], AggFn::Min, Some("FBG"))
            .unwrap();
        assert_eq!(min.get(&[]), Some(5.2));
        let max = e
            .group_by(&Predicate::True, &[], AggFn::Max, Some("FBG"))
            .unwrap();
        assert_eq!(max.get(&[]), Some(8.0));
        let sum = e
            .group_by(&Predicate::True, &[], AggFn::Sum, Some("FBG"))
            .unwrap();
        assert!((sum.get(&[]).unwrap() - 33.0).abs() < 1e-9);
    }

    #[test]
    fn non_count_aggregate_requires_measure() {
        let e = engine();
        assert!(e.group_by(&Predicate::True, &[], AggFn::Avg, None).is_err());
    }

    #[test]
    fn multi_column_group_keys() {
        let e = engine();
        let g = e
            .group_by(&Predicate::True, &["Gender", "Age"], AggFn::Count, None)
            .unwrap();
        assert_eq!(g.get(&[Value::from("F"), Value::Int(72)]), Some(1.0));
        assert_eq!(g.rows.len(), 6); // every row is its own key here
    }
}
