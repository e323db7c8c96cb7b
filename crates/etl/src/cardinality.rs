//! Cardinality abstraction: distinguishing repeat attendances.
//!
//! §IV.3 of the paper: cardinality is "temporal abstraction applied to
//! a group of variables that have a contextual association" — in the
//! DiScRi trial, identifying *which attendance of which patient* a
//! block of measurements belongs to. The warehouse models this as a
//! dedicated Cardinality dimension (Fig. 3); this module derives it:
//! it re-derives visit sequence numbers from `(patient, date)` order
//! (never trusting upstream numbering), counts attendances per
//! patient, and labels first vs. return visits.

use clinical_types::{Error, Result, Table};

/// Summary of the per-patient attendance structure.
#[derive(Debug, Clone, PartialEq)]
pub struct CardinalityProfile {
    /// Number of distinct patients.
    pub n_patients: usize,
    /// Number of attendances.
    pub n_visits: usize,
    /// Largest attendance count of any patient.
    pub max_visits: usize,
    /// Mean attendances per patient.
    pub mean_visits: f64,
}

/// Every row's place in its patient's attendance history: row indices
/// grouped by patient and ordered by date within each patient. One
/// order serves the cardinality columns and every trend column.
#[derive(Debug)]
pub(crate) struct VisitOrder {
    /// Row indices, patient by patient, each patient's by date.
    rows: Vec<usize>,
    /// Patient `k` owns `rows[bounds[k]..bounds[k + 1]]`.
    bounds: Vec<usize>,
}

impl VisitOrder {
    /// Order `table`'s rows by `(patient_col, date_col)`; rows of one
    /// patient that share a date keep their table order.
    ///
    /// Errors on a non-integer patient id, and when a patient with more
    /// than one attendance has two on the same date or one without a
    /// date: the cardinality of the group of variables would be
    /// ambiguous — the conflict situation §IV warns about.
    pub(crate) fn new(table: &Table, patient_col: &str, date_col: &str) -> Result<Self> {
        let pid_idx = table.schema().index_of(patient_col)?;
        let date_idx = table.schema().index_of(date_col)?;
        let mut keys = Vec::with_capacity(table.len());
        for (i, row) in table.rows().iter().enumerate() {
            let pid = row[pid_idx]
                .as_i64()
                .ok_or_else(|| Error::invalid(format!("non-integer {patient_col} in row {i}")))?;
            keys.push((pid, row[date_idx].as_date(), i));
        }
        keys.sort_unstable();

        let mut bounds = vec![0];
        for k in 1..=keys.len() {
            if k == keys.len() || keys[k].0 != keys[k - 1].0 {
                bounds.push(k);
            }
        }
        for w in keys.windows(2).filter(|w| w[0].0 == w[1].0) {
            let pid = w[0].0;
            match (w[0].1, w[1].1) {
                (Some(a), Some(b)) if a == b => {
                    return Err(Error::invalid(format!(
                        "patient {pid} has two attendances dated {a}: cardinality ambiguous"
                    )));
                }
                (None, _) | (_, None) => {
                    return Err(Error::invalid(format!(
                        "patient {pid} has an attendance without a {date_col}"
                    )));
                }
                _ => {}
            }
        }
        Ok(VisitOrder {
            rows: keys.into_iter().map(|(_, _, i)| i).collect(),
            bounds,
        })
    }

    /// Each patient's row indices, in visit order.
    pub(crate) fn patients(&self) -> impl Iterator<Item = &[usize]> {
        self.bounds.windows(2).map(|b| &self.rows[b[0]..b[1]])
    }

    /// The per-row cardinality columns: `DerivedVisitNo`, the 1-based
    /// rank of the row among its patient's attendances, and
    /// `PatientVisitCount`, the patient's attendance count. A row is a
    /// `"first"` visit exactly when its `DerivedVisitNo` is 1.
    pub(crate) fn visit_numbers(&self) -> (Vec<i64>, Vec<i64>) {
        let mut visit_no = vec![0i64; self.rows.len()];
        let mut visit_count = vec![0i64; self.rows.len()];
        for rows in self.patients() {
            for (rank, &i) in rows.iter().enumerate() {
                visit_no[i] = rank as i64 + 1;
                visit_count[i] = rows.len() as i64;
            }
        }
        (visit_no, visit_count)
    }

    /// The attendance summary.
    pub(crate) fn profile(&self) -> CardinalityProfile {
        let n_patients = self.bounds.len() - 1;
        let n_visits = self.rows.len();
        CardinalityProfile {
            n_patients,
            n_visits,
            max_visits: self.patients().map(<[usize]>::len).max().unwrap_or(0),
            mean_visits: if n_patients == 0 {
                0.0
            } else {
                n_visits as f64 / n_patients as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clinical_types::{DataType, Date, FieldDef, Record, Schema, Value};

    fn visits(rows: Vec<(i64, (i32, u32, u32))>) -> Table {
        let schema = Schema::new(vec![
            FieldDef::required("PatientId", DataType::Int),
            FieldDef::required("TestDate", DataType::Date),
        ])
        .unwrap();
        let records = rows
            .into_iter()
            .map(|(pid, (y, m, d))| {
                Record::new(vec![
                    Value::Int(pid),
                    Value::Date(Date::new(y, m, d).unwrap()),
                ])
            })
            .collect();
        Table::from_rows(schema, records).unwrap()
    }

    fn order(t: &Table) -> Result<VisitOrder> {
        VisitOrder::new(t, "PatientId", "TestDate")
    }

    #[test]
    fn ranks_follow_date_order_not_row_order() {
        // Patient 1's visits arrive out of chronological order.
        let t = visits(vec![
            (1, (2008, 5, 1)),
            (2, (2006, 1, 1)),
            (1, (2005, 3, 1)),
            (1, (2006, 9, 1)),
        ]);
        let visits = order(&t).unwrap();
        let (visit_no, visit_count) = visits.visit_numbers();
        assert_eq!(visit_no, vec![3, 1, 1, 2]);
        assert_eq!(visit_count, vec![3, 1, 3, 3]);
        let profile = visits.profile();
        assert_eq!(profile.n_patients, 2);
        assert_eq!(profile.n_visits, 4);
        assert_eq!(profile.max_visits, 3);
        assert!((profile.mean_visits - 2.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_dates_for_one_patient_conflict() {
        let t = visits(vec![(1, (2005, 1, 1)), (1, (2005, 1, 1))]);
        assert!(order(&t).is_err());
    }

    #[test]
    fn same_date_for_different_patients_is_fine() {
        let t = visits(vec![(1, (2005, 1, 1)), (2, (2005, 1, 1))]);
        assert!(order(&t).is_ok());
    }

    #[test]
    fn empty_table_yields_empty_profile() {
        let t = visits(vec![]);
        let visits = order(&t).unwrap();
        assert_eq!(visits.patients().count(), 0);
        let profile = visits.profile();
        assert_eq!(profile.n_patients, 0);
        assert_eq!(profile.mean_visits, 0.0);
    }

    #[test]
    fn matches_generator_visit_numbers_on_discri_data() {
        // The generator's own VisitNo must agree with the re-derived one.
        let cohort = discri::generate(&discri::CohortConfig::small(13));
        let visits = order(&cohort.attendances).unwrap();
        let (derived, _) = visits.visit_numbers();
        let orig: Vec<Option<i64>> = cohort
            .attendances
            .column("VisitNo")
            .unwrap()
            .map(Value::as_i64)
            .collect();
        assert!(orig.iter().zip(&derived).all(|(o, d)| *o == Some(*d)));
        assert!(visits.profile().mean_visits > 1.0);
    }
}
