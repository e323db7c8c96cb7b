//! Records (rows) and in-memory tables.

use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// One row of values, positionally aligned with a [`Schema`].
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    values: Vec<Value>,
}

impl Record {
    /// Wrap a vector of values (unchecked; validation happens when the
    /// record enters a [`Table`]).
    pub fn new(values: Vec<Value>) -> Self {
        Record { values }
    }

    /// Values in schema order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Mutable values (used by ETL in-place transforms).
    pub fn values_mut(&mut self) -> &mut [Value] {
        &mut self.values
    }

    /// Value at a position.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True for the empty record.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Consume into the value vector.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }
}

impl From<Vec<Value>> for Record {
    fn from(values: Vec<Value>) -> Self {
        Record::new(values)
    }
}

impl std::ops::Index<usize> for Record {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        &self.values[idx]
    }
}

/// A schema-validated, in-memory table of records.
///
/// This is the interchange format between pipeline stages: the DiScRi
/// generator emits a `Table`, ETL transforms it, the warehouse loader
/// consumes it. The schema is shared via `Arc` so projections and
/// derived tables stay cheap.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Arc<Schema>,
    rows: Vec<Record>,
}

impl Table {
    /// New empty table over `schema`.
    pub fn new(schema: Schema) -> Self {
        Table {
            schema: Arc::new(schema),
            rows: Vec::new(),
        }
    }

    /// New empty table sharing an existing schema handle.
    pub fn with_schema(schema: Arc<Schema>) -> Self {
        Table {
            schema,
            rows: Vec::new(),
        }
    }

    /// Build from pre-validated parts; each row is checked.
    pub fn from_rows(schema: Schema, rows: Vec<Record>) -> Result<Self> {
        let mut t = Table::new(schema);
        for r in rows {
            t.push(r)?;
        }
        Ok(t)
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Shared schema handle.
    pub fn schema_arc(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    /// Append a record after validating it against the schema.
    pub fn push(&mut self, record: Record) -> Result<()> {
        self.schema.check_row(record.values())?;
        self.rows.push(record);
        Ok(())
    }

    /// Append without validation. For trusted internal producers on
    /// hot paths (the synthetic generator, the warehouse loader);
    /// callers must guarantee schema conformance.
    pub fn push_unchecked(&mut self, record: Record) {
        debug_assert!(self.schema.check_row(record.values()).is_ok());
        self.rows.push(record);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Rows in insertion order.
    pub fn rows(&self) -> &[Record] {
        &self.rows
    }

    /// Mutable rows (ETL in-place transforms).
    pub fn rows_mut(&mut self) -> &mut [Record] {
        &mut self.rows
    }

    /// Value at (`row`, field `name`).
    pub fn value(&self, row: usize, name: &str) -> Result<&Value> {
        let idx = self.schema.index_of(name)?;
        self.rows
            .get(row)
            .map(|r| &r[idx])
            .ok_or_else(|| Error::invalid(format!("row index {row} out of range")))
    }

    /// Iterator over one column by name.
    pub fn column<'a>(&'a self, name: &str) -> Result<impl Iterator<Item = &'a Value> + 'a> {
        let idx = self.schema.index_of(name)?;
        Ok(self.rows.iter().map(move |r| &r[idx]))
    }

    /// Materialised numeric column (nulls and non-numeric skipped),
    /// as used by discretisation and statistics.
    pub fn numeric_column(&self, name: &str) -> Result<Vec<f64>> {
        Ok(self.column(name)?.filter_map(Value::as_f64).collect())
    }

    /// Project onto named columns, producing a new table.
    pub fn project(&self, names: &[&str]) -> Result<Table> {
        let schema = self.schema.project(names)?;
        let idxs: Vec<usize> = names
            .iter()
            .map(|n| self.schema.index_of(n))
            .collect::<Result<_>>()?;
        let rows = self
            .rows
            .iter()
            .map(|r| Record::new(idxs.iter().map(|&i| r[i].clone()).collect()))
            .collect();
        Ok(Table {
            schema: Arc::new(schema),
            rows,
        })
    }

    /// Filter rows by predicate, producing a new table with the same
    /// schema.
    pub fn filter(&self, mut pred: impl FnMut(&Record) -> bool) -> Table {
        Table {
            schema: Arc::clone(&self.schema),
            rows: self.rows.iter().filter(|r| pred(r)).cloned().collect(),
        }
    }

    /// Sort rows by a named column using the total [`Value`] order.
    pub fn sort_by_column(&mut self, name: &str) -> Result<()> {
        let idx = self.schema.index_of(name)?;
        self.rows.sort_by(|a, b| a[idx].cmp(&b[idx]));
        Ok(())
    }

    /// Consume into rows.
    pub fn into_rows(self) -> Vec<Record> {
        self.rows
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self
            .schema
            .fields()
            .iter()
            .map(|x| x.name.as_str())
            .collect();
        writeln!(f, "{}", names.join(" | "))?;
        for r in self.rows.iter().take(20) {
            let cells: Vec<String> = r.values().iter().map(|v| v.to_string()).collect();
            writeln!(f, "{}", cells.join(" | "))?;
        }
        if self.rows.len() > 20 {
            writeln!(f, "… ({} rows total)", self.rows.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::FieldDef;
    use crate::value::DataType;

    fn demo() -> Table {
        let schema = Schema::new(vec![
            FieldDef::required("Id", DataType::Int),
            FieldDef::nullable("FBG", DataType::Float),
            FieldDef::nullable("Gender", DataType::Text),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        t.push(Record::new(vec![1.into(), 5.2.into(), "F".into()]))
            .unwrap();
        t.push(Record::new(vec![2.into(), Value::Null, "M".into()]))
            .unwrap();
        t.push(Record::new(vec![3.into(), 7.1.into(), "F".into()]))
            .unwrap();
        t
    }

    #[test]
    fn push_validates_against_schema() {
        let mut t = demo();
        let bad = Record::new(vec![Value::Null, Value::Null, Value::Null]);
        assert!(t.push(bad).is_err());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn column_iteration_and_numeric_extraction() {
        let t = demo();
        let genders: Vec<String> = t.column("Gender").unwrap().map(|v| v.to_string()).collect();
        assert_eq!(genders, vec!["F", "M", "F"]);
        // The NULL FBG is skipped.
        assert_eq!(t.numeric_column("FBG").unwrap(), vec![5.2, 7.1]);
    }

    #[test]
    fn projection_reorders_columns() {
        let t = demo();
        let p = t.project(&["Gender", "Id"]).unwrap();
        assert_eq!(p.schema().fields()[0].name, "Gender");
        assert_eq!(p.rows()[1].values()[1], Value::Int(2));
    }

    #[test]
    fn filter_keeps_schema() {
        let t = demo();
        let f = t.filter(|r| r[2] == Value::Text("F".into()));
        assert_eq!(f.len(), 2);
        assert_eq!(f.schema().len(), 3);
    }

    #[test]
    fn sort_by_column_orders_values() {
        let mut t = demo();
        t.sort_by_column("FBG").unwrap();
        // NULL sorts first in the total order.
        assert!(t.rows()[0].values()[1].is_null());
        assert_eq!(t.rows()[1].values()[1], Value::Float(5.2));
    }

    #[test]
    fn value_accessor_reports_bad_row() {
        let t = demo();
        assert!(t.value(99, "Id").is_err());
        assert!(t.value(0, "Nope").is_err());
        assert_eq!(t.value(0, "Id").unwrap(), &Value::Int(1));
    }

    #[test]
    fn display_lists_header_and_rows() {
        let t = demo();
        let s = t.to_string();
        assert!(s.starts_with("Id | FBG | Gender"));
        assert!(s.contains("NULL"));
    }
}
