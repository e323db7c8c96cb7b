//! Replacement of missing values.
//!
//! §V.A opens with *"Data transformation initiated with the
//! replacement of missing values, erroneous values and records."*
//! [`crate::clean`] handles erroneous values and records; this module
//! handles the replacement of missing measurements. Four strategies
//! cover the clinical cases:
//!
//! * [`ImputeStrategy::Mean`] / [`ImputeStrategy::Median`] — numeric
//!   population statistics (robust default for labs and vitals).
//! * [`ImputeStrategy::Mode`] — most frequent category for
//!   categorical attributes.
//! * [`ImputeStrategy::CarryForward`] — per-patient last observation
//!   carried forward in visit order: the standard longitudinal rule
//!   ("the patient's height did not change because the nurse skipped
//!   the measurement").
//! * [`ImputeStrategy::Constant`] — an explicit clinical default.
//!
//! Imputation is deliberately *not* part of the default pipeline:
//! warehouse measures carry a null mask and every aggregate skips
//! missing values, which is the statistically safer default. The
//! imputer exists for consumers that need complete vectors (k-means,
//! external exports).

use clinical_types::{Error, Record, Result, Table, Value};
use std::collections::HashMap;

/// How to fill missing cells of one column.
#[derive(Debug, Clone, PartialEq)]
pub enum ImputeStrategy {
    /// Column mean (numeric columns only).
    Mean,
    /// Column median (numeric columns only).
    Median,
    /// Most frequent non-null value (ties break to the first seen).
    Mode,
    /// Per-patient last observation carried forward, ordered by a
    /// date column; leading missing values stay missing.
    CarryForward {
        /// Patient identifier column.
        patient_column: String,
        /// Visit date column defining the order.
        date_column: String,
    },
    /// A fixed replacement value.
    Constant(Value),
}

/// Per-column imputation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ImputeReport {
    /// Column name.
    pub column: String,
    /// Missing cells before imputation.
    pub missing_before: usize,
    /// Missing cells after (carry-forward can leave leading gaps).
    pub missing_after: usize,
}

/// An imputation plan: strategy per column.
#[derive(Debug, Clone, Default)]
pub struct Imputer {
    plans: Vec<(String, ImputeStrategy)>,
}

impl Imputer {
    /// Empty imputer.
    pub fn new() -> Self {
        Imputer::default()
    }

    /// Add a column plan.
    pub fn column(mut self, name: impl Into<String>, strategy: ImputeStrategy) -> Self {
        self.plans.push((name.into(), strategy));
        self
    }

    /// Apply all plans, returning the completed table and per-column
    /// reports (in plan order).
    pub fn apply(&self, table: &Table) -> Result<(Table, Vec<ImputeReport>)> {
        let mut rows: Vec<Record> = table.rows().to_vec();
        let schema = table.schema().clone();
        let mut reports = Vec::with_capacity(self.plans.len());
        for (column, strategy) in &self.plans {
            let idx = schema.index_of(column)?;
            let missing_before = rows.iter().filter(|r| r[idx].is_null()).count();
            match strategy {
                ImputeStrategy::Mean => {
                    let fill = numeric_stat(&rows, idx, column, Stat::Mean)?;
                    fill_nulls(&mut rows, idx, &Value::Float(fill));
                }
                ImputeStrategy::Median => {
                    let fill = numeric_stat(&rows, idx, column, Stat::Median)?;
                    fill_nulls(&mut rows, idx, &Value::Float(fill));
                }
                ImputeStrategy::Mode => {
                    let fill = mode_of(&rows, idx).ok_or_else(|| {
                        Error::invalid(format!("column `{column}` has no non-null values"))
                    })?;
                    fill_nulls(&mut rows, idx, &fill);
                }
                ImputeStrategy::Constant(v) => {
                    // The constant must type-check against the schema.
                    schema
                        .field(column)?
                        .check(v)
                        .map_err(|e| Error::invalid(format!("bad constant for `{column}`: {e}")))?;
                    fill_nulls(&mut rows, idx, v);
                }
                ImputeStrategy::CarryForward {
                    patient_column,
                    date_column,
                } => {
                    carry_forward(&mut rows, &schema, idx, patient_column, date_column)?;
                }
            }
            let missing_after = rows.iter().filter(|r| r[idx].is_null()).count();
            reports.push(ImputeReport {
                column: column.clone(),
                missing_before,
                missing_after,
            });
        }
        let table = Table::from_rows(schema, rows)?;
        Ok((table, reports))
    }
}

enum Stat {
    Mean,
    Median,
}

fn numeric_stat(rows: &[Record], idx: usize, column: &str, stat: Stat) -> Result<f64> {
    let mut values: Vec<f64> = rows.iter().filter_map(|r| r[idx].as_f64()).collect();
    if values.is_empty() {
        return Err(Error::invalid(format!(
            "column `{column}` has no numeric values to impute from"
        )));
    }
    Ok(match stat {
        Stat::Mean => values.iter().sum::<f64>() / values.len() as f64,
        Stat::Median => {
            values.sort_by(|a, b| a.total_cmp(b));
            let mid = values.len() / 2;
            if values.len() % 2 == 1 {
                values[mid]
            } else {
                (values[mid - 1] + values[mid]) / 2.0
            }
        }
    })
}

fn mode_of(rows: &[Record], idx: usize) -> Option<Value> {
    let mut counts: Vec<(Value, usize)> = Vec::new();
    for r in rows {
        let v = &r[idx];
        if v.is_null() {
            continue;
        }
        match counts.iter_mut().find(|(k, _)| k == v) {
            Some((_, c)) => *c += 1,
            None => counts.push((v.clone(), 1)),
        }
    }
    // First-seen wins on ties, deterministically.
    let mut best: Option<(Value, usize)> = None;
    for (v, c) in counts {
        if best.as_ref().is_none_or(|(_, bc)| c > *bc) {
            best = Some((v, c));
        }
    }
    best.map(|(v, _)| v)
}

fn fill_nulls(rows: &mut [Record], idx: usize, fill: &Value) {
    for r in rows {
        if r[idx].is_null() {
            r.values_mut()[idx] = fill.clone();
        }
    }
}

fn carry_forward(
    rows: &mut [Record],
    schema: &clinical_types::Schema,
    idx: usize,
    patient_column: &str,
    date_column: &str,
) -> Result<()> {
    let pid_idx = schema.index_of(patient_column)?;
    let date_idx = schema.index_of(date_column)?;
    let mut per_patient: HashMap<i64, Vec<usize>> = HashMap::new();
    for (i, r) in rows.iter().enumerate() {
        let pid = r[pid_idx]
            .as_i64()
            .ok_or_else(|| Error::invalid(format!("non-integer `{patient_column}` in row {i}")))?;
        per_patient.entry(pid).or_default().push(i);
    }
    for visit_rows in per_patient.values_mut() {
        visit_rows.sort_by_key(|&i| rows[i][date_idx].as_date());
        let mut last: Option<Value> = None;
        for &i in visit_rows.iter() {
            if rows[i][idx].is_null() {
                if let Some(v) = &last {
                    rows[i].values_mut()[idx] = v.clone();
                }
            } else {
                last = Some(rows[i][idx].clone());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use clinical_types::{DataType, Date, FieldDef, Schema};

    fn table() -> Table {
        let schema = Schema::new(vec![
            FieldDef::required("PatientId", DataType::Int),
            FieldDef::required("TestDate", DataType::Date),
            FieldDef::nullable("FBG", DataType::Float),
            FieldDef::nullable("Gender", DataType::Text),
        ])
        .unwrap();
        let mk = |p: i64, y: i32, fbg: Option<f64>, g: Option<&str>| {
            Record::new(vec![
                Value::Int(p),
                Value::Date(Date::new(y, 6, 1).unwrap()),
                fbg.map(Value::Float).unwrap_or(Value::Null),
                g.map(Value::from).unwrap_or(Value::Null),
            ])
        };
        Table::from_rows(
            schema,
            vec![
                mk(1, 2005, Some(5.0), Some("F")),
                mk(1, 2006, None, Some("F")),
                mk(1, 2007, Some(7.0), None),
                mk(2, 2005, None, Some("M")),
                mk(2, 2006, Some(6.0), Some("M")),
            ],
        )
        .unwrap()
    }

    #[test]
    fn mean_imputation_fills_with_column_mean() {
        let (out, reports) = Imputer::new()
            .column("FBG", ImputeStrategy::Mean)
            .apply(&table())
            .unwrap();
        assert_eq!(reports[0].missing_before, 2);
        assert_eq!(reports[0].missing_after, 0);
        let mean = (5.0 + 7.0 + 6.0) / 3.0;
        assert_eq!(out.value(1, "FBG").unwrap().as_f64(), Some(mean));
        assert_eq!(out.value(3, "FBG").unwrap().as_f64(), Some(mean));
        // Non-missing cells untouched.
        assert_eq!(out.value(0, "FBG").unwrap().as_f64(), Some(5.0));
    }

    #[test]
    fn median_imputation_is_robust_to_outliers() {
        let mut t = table();
        t.push(Record::new(vec![
            Value::Int(3),
            Value::Date(Date::new(2005, 1, 1).unwrap()),
            Value::Float(100.0), // an absurd but "clean" outlier
            Value::Null,
        ]))
        .unwrap();
        let (out, _) = Imputer::new()
            .column("FBG", ImputeStrategy::Median)
            .apply(&t)
            .unwrap();
        // Median of {5, 7, 6, 100} = 6.5 — the mean would be 29.5.
        assert_eq!(out.value(1, "FBG").unwrap().as_f64(), Some(6.5));
    }

    #[test]
    fn mode_imputation_for_categorical() {
        let (out, _) = Imputer::new()
            .column("Gender", ImputeStrategy::Mode)
            .apply(&table())
            .unwrap();
        // F appears 2×, M 2× — first seen wins deterministically.
        assert_eq!(out.value(2, "Gender").unwrap().as_str(), Some("F"));
    }

    #[test]
    fn carry_forward_respects_patient_and_date_order() {
        let (out, reports) = Imputer::new()
            .column(
                "FBG",
                ImputeStrategy::CarryForward {
                    patient_column: "PatientId".into(),
                    date_column: "TestDate".into(),
                },
            )
            .apply(&table())
            .unwrap();
        // Patient 1's 2006 gap takes the 2005 value.
        assert_eq!(out.value(1, "FBG").unwrap().as_f64(), Some(5.0));
        // Patient 2's 2005 gap is a leading gap — stays missing.
        assert!(out.value(3, "FBG").unwrap().is_null());
        assert_eq!(reports[0].missing_before, 2);
        assert_eq!(reports[0].missing_after, 1);
    }

    #[test]
    fn constant_imputation_type_checks() {
        let (out, _) = Imputer::new()
            .column("Gender", ImputeStrategy::Constant(Value::from("unknown")))
            .apply(&table())
            .unwrap();
        assert_eq!(out.value(2, "Gender").unwrap().as_str(), Some("unknown"));
        // Wrong type rejected.
        assert!(Imputer::new()
            .column("Gender", ImputeStrategy::Constant(Value::Int(1)))
            .apply(&table())
            .is_err());
    }

    #[test]
    fn chained_plans_apply_in_order() {
        let (out, reports) = Imputer::new()
            .column("FBG", ImputeStrategy::Mean)
            .column("Gender", ImputeStrategy::Mode)
            .apply(&table())
            .unwrap();
        assert_eq!(reports.len(), 2);
        assert!(!out.rows().iter().any(|r| r[2].is_null() || r[3].is_null()));
    }

    #[test]
    fn empty_column_errors() {
        let schema = Schema::new(vec![FieldDef::nullable("X", DataType::Float)]).unwrap();
        let t = Table::from_rows(schema, vec![Record::new(vec![Value::Null])]).unwrap();
        assert!(Imputer::new()
            .column("X", ImputeStrategy::Mean)
            .apply(&t)
            .is_err());
        assert!(Imputer::new()
            .column("X", ImputeStrategy::Mode)
            .apply(&t)
            .is_err());
    }

    #[test]
    fn unknown_column_errors() {
        assert!(Imputer::new()
            .column("Nope", ImputeStrategy::Mean)
            .apply(&table())
            .is_err());
    }
}
