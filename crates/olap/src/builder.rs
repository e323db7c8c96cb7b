//! Programmatic query construction — the Fig. 4 interaction model.
//!
//! Microsoft BI Studio's drag-and-drop interface (paper Fig. 4) maps
//! one-to-one onto this builder: dragging an attribute into the query
//! area is [`QueryBuilder::on_rows`] / [`QueryBuilder::on_columns`],
//! removing it is [`QueryBuilder::remove`], and the drill-down /
//! roll-up arrows walk the dimension hierarchies declared in the star
//! schema ([`QueryBuilder::drill_down`] / [`QueryBuilder::roll_up`]).

use crate::aggregate::{Aggregate, MeasureRef};
use crate::cube::{Cube, CubeFilter, CubeSpec};
use crate::pivot::PivotTable;
use clinical_types::{Error, Result, Value};
use warehouse::Warehouse;

/// A composable OLAP query bound to a warehouse.
#[derive(Clone)]
pub struct QueryBuilder<'w> {
    warehouse: &'w Warehouse,
    rows: Vec<String>,
    cols: Vec<String>,
    filter: CubeFilter,
    agg: Aggregate,
    measure: MeasureRef,
}

impl<'w> QueryBuilder<'w> {
    /// New query over `warehouse`; defaults to a row count.
    pub fn new(warehouse: &'w Warehouse) -> Self {
        QueryBuilder {
            warehouse,
            rows: Vec::new(),
            cols: Vec::new(),
            filter: CubeFilter::all(),
            agg: Aggregate::Count,
            measure: MeasureRef::RowCount,
        }
    }

    /// Drag an attribute onto the row axis.
    pub fn on_rows(mut self, attribute: impl Into<String>) -> Self {
        self.rows.push(attribute.into());
        self
    }

    /// Drag an attribute onto the column axis.
    pub fn on_columns(mut self, attribute: impl Into<String>) -> Self {
        self.cols.push(attribute.into());
        self
    }

    /// Remove an attribute from whichever axis holds it.
    pub fn remove(mut self, attribute: &str) -> Self {
        self.rows.retain(|a| a != attribute);
        self.cols.retain(|a| a != attribute);
        self
    }

    /// Keep only rows where `attribute = value` (slicer).
    pub fn where_equals(mut self, attribute: impl Into<String>, value: impl Into<Value>) -> Self {
        self.filter = self.filter.equals(attribute, value);
        self
    }

    /// Keep only rows where the measure is in `[lo, hi)`.
    pub fn where_measure_between(mut self, measure: impl Into<String>, lo: f64, hi: f64) -> Self {
        self.filter = self.filter.measure_between(measure, lo, hi);
        self
    }

    /// Aggregate a numeric measure.
    pub fn aggregate(mut self, agg: Aggregate, measure: impl Into<String>) -> Self {
        self.agg = agg;
        self.measure = MeasureRef::Measure(measure.into());
        self
    }

    /// Count fact rows (the default).
    pub fn count(mut self) -> Self {
        self.agg = Aggregate::Count;
        self.measure = MeasureRef::RowCount;
        self
    }

    /// Count distinct values of a degenerate column (e.g. distinct
    /// patients instead of attendances).
    pub fn count_distinct(mut self, degenerate: impl Into<String>) -> Self {
        self.agg = Aggregate::Count;
        self.measure = MeasureRef::DistinctDegenerate(degenerate.into());
        self
    }

    /// Replace `attribute` on its axis with the next finer hierarchy
    /// level (Fig. 5: Age_Band → Age_SubGroup).
    pub fn drill_down(mut self, attribute: &str) -> Result<Self> {
        let finer = self.hierarchy_step(attribute, true)?;
        self.replace(attribute, finer);
        Ok(self)
    }

    /// Replace `attribute` with the next coarser hierarchy level.
    pub fn roll_up(mut self, attribute: &str) -> Result<Self> {
        let coarser = self.hierarchy_step(attribute, false)?;
        self.replace(attribute, coarser);
        Ok(self)
    }

    fn hierarchy_step(&self, attribute: &str, down: bool) -> Result<String> {
        let dim = self
            .warehouse
            .star()
            .dimension_of_attribute(attribute)
            .ok_or_else(|| Error::invalid(format!("no dimension owns `{attribute}`")))?;
        for h in &dim.hierarchies {
            let next = if down {
                h.drill_down_from(attribute)
            } else {
                h.roll_up_from(attribute)
            };
            if let Some(level) = next {
                return Ok(level.to_string());
            }
        }
        Err(Error::invalid(format!(
            "attribute `{attribute}` has no {} level in any hierarchy of `{}`",
            if down { "finer" } else { "coarser" },
            dim.name
        )))
    }

    fn replace(&mut self, from: &str, to: String) {
        for axis in self.rows.iter_mut().chain(self.cols.iter_mut()) {
            if axis == from {
                *axis = to.clone();
            }
        }
    }

    /// Build the underlying cube (axes = rows then columns).
    pub fn build_cube(&self) -> Result<Cube> {
        let axes: Vec<&str> = self
            .rows
            .iter()
            .chain(&self.cols)
            .map(String::as_str)
            .collect();
        if axes.is_empty() {
            return Err(Error::invalid("drag at least one attribute into the query"));
        }
        let spec = CubeSpec {
            axes: axes.into_iter().map(String::from).collect(),
            measure: self.measure.clone(),
            agg: self.agg,
            filter: self.filter.clone(),
        };
        Cube::build(self.warehouse, &spec)
    }

    /// Execute into a pivot table. Multiple attributes on one axis are
    /// combined into composite `a / b` headers.
    pub fn execute(&self) -> Result<PivotTable> {
        let cube = self.build_cube()?;
        if self.rows.is_empty() {
            return Err(Error::invalid("the row axis is empty"));
        }
        if self.cols.is_empty() {
            if self.rows.len() == 1 {
                return PivotTable::from_cube_1d(&cube, &self.rows[0]);
            }
            return composite_pivot(&cube, &self.rows, &[]);
        }
        if self.rows.len() == 1 && self.cols.len() == 1 {
            return PivotTable::from_cube(&cube, &self.rows[0], &self.cols[0]);
        }
        composite_pivot(&cube, &self.rows, &self.cols)
    }
}

/// Pivot with composite headers for multi-attribute axes.
fn composite_pivot(cube: &Cube, rows: &[String], cols: &[String]) -> Result<PivotTable> {
    let row_idx: Vec<usize> = rows
        .iter()
        .map(|a| cube.axis_index(a))
        .collect::<Result<_>>()?;
    let col_idx: Vec<usize> = cols
        .iter()
        .map(|a| cube.axis_index(a))
        .collect::<Result<_>>()?;

    let composite = |coords: &[Value], idx: &[usize]| -> Value {
        if idx.is_empty() {
            Value::from("all")
        } else if idx.len() == 1 {
            coords[idx[0]].clone()
        } else {
            Value::Text(
                idx.iter()
                    .map(|&i| coords[i].to_string())
                    .collect::<Vec<_>>()
                    .join(" / "),
            )
        }
    };

    let mut row_headers: Vec<Value> = Vec::new();
    let mut col_headers: Vec<Value> = Vec::new();
    let mut entries: Vec<(Value, Value, f64)> = Vec::new();
    for (coords, value) in cube.iter() {
        let r = composite(coords, &row_idx);
        let c = composite(coords, &col_idx);
        if !row_headers.contains(&r) {
            row_headers.push(r.clone());
        }
        if !col_headers.contains(&c) {
            col_headers.push(c.clone());
        }
        entries.push((r, c, value));
    }
    row_headers.sort();
    col_headers.sort();
    let mut cells = vec![vec![None; col_headers.len()]; row_headers.len()];
    for (r, c, v) in entries {
        let ri = row_headers.iter().position(|h| *h == r).expect("header");
        let ci = col_headers.iter().position(|h| *h == c).expect("header");
        cells[ri][ci] = Some(v);
    }
    Ok(PivotTable {
        row_axis: rows.join(" / "),
        col_axis: cols.join(" / "),
        row_headers,
        col_headers,
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use discri::{generate, CohortConfig};
    use etl::TransformPipeline;
    use std::sync::OnceLock;
    use warehouse::LoadPlan;

    fn wh() -> &'static Warehouse {
        static WH: OnceLock<Warehouse> = OnceLock::new();
        WH.get_or_init(|| {
            let cohort = generate(&CohortConfig::small(41));
            let (table, _) = TransformPipeline::discri_default()
                .run(&cohort.attendances)
                .unwrap();
            Warehouse::load(&LoadPlan::discri_default(), &table).unwrap()
        })
    }

    #[test]
    fn fig4_style_query_family_history_by_age_and_gender() {
        let pivot = QueryBuilder::new(wh())
            .on_rows("Age_Band")
            .on_columns("Gender")
            .where_equals("FamilyHistoryDiabetes", true)
            .count()
            .execute()
            .unwrap();
        assert_eq!(pivot.col_headers.len(), 2); // F, M
        assert!(pivot.row_headers.len() >= 2);
        let total: f64 = pivot.row_totals().iter().sum();
        assert!(total > 0.0);
    }

    #[test]
    fn drill_down_follows_age_hierarchy() {
        let q = QueryBuilder::new(wh())
            .on_rows("Age_Band")
            .on_columns("Gender");
        let fine = q.clone().drill_down("Age_Band").unwrap();
        let coarse_pivot = q.execute().unwrap();
        let fine_pivot = fine.execute().unwrap();
        assert!(fine_pivot.row_headers.len() > coarse_pivot.row_headers.len());
        // Totals are preserved across granularity.
        let coarse_total: f64 = coarse_pivot.row_totals().iter().sum();
        let fine_total: f64 = fine_pivot.row_totals().iter().sum();
        assert!((coarse_total - fine_total).abs() < 1e-9);
    }

    #[test]
    fn roll_up_inverts_drill_down() {
        let q = QueryBuilder::new(wh()).on_rows("Age_SubGroup");
        let rolled = q.roll_up("Age_SubGroup").unwrap();
        let pivot = rolled.execute().unwrap();
        // Age_Band has at most 4 coarse groups.
        assert!(pivot.row_headers.len() <= 4);
    }

    #[test]
    fn drill_down_without_hierarchy_fails() {
        let err = QueryBuilder::new(wh())
            .on_rows("Gender")
            .drill_down("Gender")
            .err()
            .expect("drill-down without a hierarchy must fail");
        assert!(err.to_string().contains("no finer"));
    }

    #[test]
    fn remove_attribute_like_dragging_out() {
        let pivot = QueryBuilder::new(wh())
            .on_rows("Age_Band")
            .on_columns("Gender")
            .remove("Gender")
            .execute()
            .unwrap();
        assert_eq!(pivot.col_headers, vec![Value::from("all")]);
    }

    #[test]
    fn distinct_patient_counts_are_leq_attendance_counts() {
        let attendances = QueryBuilder::new(wh())
            .on_rows("DiabetesStatus")
            .count()
            .execute()
            .unwrap();
        let patients = QueryBuilder::new(wh())
            .on_rows("DiabetesStatus")
            .count_distinct("PatientId")
            .execute()
            .unwrap();
        for h in &attendances.row_headers {
            let a = attendances.get(h, &"all".into()).unwrap();
            let p = patients.get(h, &"all".into()).unwrap();
            assert!(p <= a, "{h}: {p} patients > {a} attendances");
        }
    }

    #[test]
    fn measure_aggregation_through_builder() {
        let pivot = QueryBuilder::new(wh())
            .on_rows("DiabetesStatus")
            .aggregate(Aggregate::Avg, "FBG")
            .execute()
            .unwrap();
        let yes = pivot.get(&"yes".into(), &"all".into()).unwrap();
        let no = pivot.get(&"no".into(), &"all".into()).unwrap();
        assert!(
            yes > no,
            "diabetic mean FBG {yes} must exceed non-diabetic {no}"
        );
    }

    #[test]
    fn composite_axes_render() {
        let pivot = QueryBuilder::new(wh())
            .on_rows("Age_Band")
            .on_rows("Gender")
            .on_columns("DiabetesStatus")
            .execute()
            .unwrap();
        assert!(pivot.row_axis.contains('/'));
        assert!(pivot
            .row_headers
            .iter()
            .any(|h| h.to_string().contains(" / ")));
    }

    #[test]
    fn empty_query_is_an_error() {
        assert!(QueryBuilder::new(wh()).execute().is_err());
    }
}
