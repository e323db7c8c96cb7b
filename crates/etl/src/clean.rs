//! Cleaning of erroneous and missing values.
//!
//! §V.A: "Data transformation initiated with the replacement of
//! missing values, erroneous values and records." Clinical cleaning is
//! plausibility-driven: every numeric attribute has a physiologic
//! range outside which a recorded value must be an instrument or
//! transcription error (a negative fasting glucose, a 600 mmHg blood
//! pressure). Such cells are nulled (treated as missing); rows whose
//! identity keys are broken are dropped.

use clinical_types::{Record, Result, Table, Value};
use std::collections::HashMap;

/// Per-attribute plausibility ranges plus row-level key requirements.
#[derive(Debug, Clone, Default)]
pub struct CleaningRules {
    /// Inclusive plausible range per numeric attribute.
    ranges: HashMap<String, (f64, f64)>,
    /// Fields that must be non-null for a row to be kept at all.
    required: Vec<String>,
}

impl CleaningRules {
    /// Empty rule set (keeps everything).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a plausible range for a numeric attribute.
    pub fn range(mut self, attribute: impl Into<String>, lo: f64, hi: f64) -> Self {
        self.ranges.insert(attribute.into(), (lo, hi));
        self
    }

    /// Mark a field as row-critical: rows with it missing are dropped.
    pub fn require(mut self, attribute: impl Into<String>) -> Self {
        self.required.push(attribute.into());
        self
    }

    /// Plausible range for an attribute, if one is registered.
    pub fn range_of(&self, attribute: &str) -> Option<(f64, f64)> {
        self.ranges.get(attribute).copied()
    }

    /// The clinician-supplied rule set for the DiScRi screening data:
    /// physiologic plausibility ranges for the explicitly modelled
    /// measures, with identity keys required. Panel biomarkers get a
    /// generic non-negativity rule applied by [`Cleaner::clean`].
    pub fn discri_default() -> Self {
        CleaningRules::new()
            .require("PatientId")
            .require("VisitNo")
            .require("TestDate")
            .range("Age", 0.0, 120.0)
            .range("FBG", 1.5, 35.0)
            .range("HbA1c", 3.0, 20.0)
            .range("TotalCholesterol", 1.0, 15.0)
            .range("HDL", 0.2, 5.0)
            .range("LDL", 0.2, 12.0)
            .range("Triglycerides", 0.1, 12.0)
            .range("Creatinine", 20.0, 1500.0)
            .range("EGFR", 1.0, 150.0)
            .range("Urea", 0.5, 60.0)
            .range("UricAcid", 0.05, 1.2)
            .range("CRP", 0.0, 350.0)
            .range("MonofilamentScore", 0.0, 10.0)
            .range("VibrationPerception", 0.0, 60.0)
            .range("AnkleBrachialIndex", 0.2, 2.0)
            .range("ExerciseSessionsPerWeek", 0.0, 21.0)
            .range("ExerciseMinutesPerWeek", 0.0, 2000.0)
            .range("SedentaryHoursPerDay", 0.0, 24.0)
            .range("LyingSBPAverage", 60.0, 260.0)
            .range("LyingDBPAverage", 30.0, 160.0)
            .range("StandingSBP", 50.0, 260.0)
            .range("StandingDBP", 25.0, 160.0)
            .range("RestingHeartRate", 25.0, 220.0)
            .range("OrthostaticSBPDrop", -40.0, 120.0)
            .range("QRSDuration", 40.0, 250.0)
            .range("QTInterval", 200.0, 700.0)
            .range("QTc", 250.0, 700.0)
            .range("PRInterval", 60.0, 400.0)
            .range("SDNN", 0.0, 300.0)
            .range("EwingHRRatio3015", 0.5, 2.5)
            .range("EwingValsalvaRatio", 0.5, 3.5)
            .range("EwingHandGrip", 0.0, 60.0)
            .range("EwingDeepBreathingHRV", 0.0, 80.0)
            .range("BMI", 10.0, 70.0)
            .range("WeightKg", 25.0, 260.0)
            .range("HeightCm", 120.0, 220.0)
            .range("WaistCm", 40.0, 200.0)
            .range("HipCm", 40.0, 210.0)
            .range("WaistHipRatio", 0.4, 1.6)
            .range("EducationYears", 0.0, 30.0)
            .range("MedicationCount", 0.0, 40.0)
            .range("DiabetesDurationYears", 0.0, 80.0)
            .range("DiagnosticHTYears", 0.0, 80.0)
    }
}

/// Outcome counters of one cleaning pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CleaningReport {
    /// Rows inspected.
    pub rows_in: usize,
    /// Rows kept.
    pub rows_out: usize,
    /// Rows dropped because a required key was missing.
    pub rows_dropped: usize,
    /// Cells nulled because the value fell outside its plausible range
    /// or was not finite (NaN, ±infinity).
    pub cells_nulled: usize,
    /// Cells nulled by the generic negativity rule (numeric panel
    /// attributes without an explicit range).
    pub cells_nulled_generic: usize,
}

/// Applies [`CleaningRules`] to tables.
#[derive(Debug, Clone)]
pub struct Cleaner {
    rules: CleaningRules,
    /// Apply `value >= 0` to numeric attributes without explicit
    /// ranges (clinical panels are concentrations — never negative).
    pub generic_nonnegative: bool,
}

impl Cleaner {
    /// Cleaner over a rule set; the generic non-negativity rule is on.
    pub fn new(rules: CleaningRules) -> Self {
        Cleaner {
            rules,
            generic_nonnegative: true,
        }
    }

    /// Clean a table, producing the cleaned copy and a report.
    pub fn clean(&self, table: &Table) -> Result<(Table, CleaningReport)> {
        self.clean_with_spare(table, 0)
    }

    /// [`Cleaner::clean`], leaving room in every cleaned record for
    /// `spare` more values, so a caller that appends derived cells
    /// does not reallocate the row.
    pub(crate) fn clean_with_spare(
        &self,
        table: &Table,
        spare: usize,
    ) -> Result<(Table, CleaningReport)> {
        let schema = table.schema().clone();
        // Precompute per-column handling.
        enum Check {
            Range(f64, f64),
            Generic,
            None,
        }
        let checks: Vec<Check> = schema
            .fields()
            .iter()
            .map(|f| match self.rules.range_of(&f.name) {
                Some((lo, hi)) => Check::Range(lo, hi),
                None if self.generic_nonnegative
                    && matches!(
                        f.dtype,
                        clinical_types::DataType::Float | clinical_types::DataType::Int
                    ) =>
                {
                    Check::Generic
                }
                None => Check::None,
            })
            .collect();
        let required_idx: Vec<usize> = self
            .rules
            .required
            .iter()
            .map(|n| schema.index_of(n))
            .collect::<Result<_>>()?;

        let mut out = Table::new(schema);
        let mut report = CleaningReport {
            rows_in: table.len(),
            ..Default::default()
        };
        for row in table.rows() {
            if required_idx.iter().any(|&i| row[i].is_null()) {
                report.rows_dropped += 1;
                continue;
            }
            let mut values = Vec::with_capacity(row.len() + spare);
            values.extend_from_slice(row.values());
            for (i, v) in values.iter_mut().enumerate() {
                let Some(x) = v.as_f64() else { continue };
                // A NaN or infinity passes every range comparison; no
                // measurement is one.
                if !x.is_finite() {
                    *v = Value::Null;
                    report.cells_nulled += 1;
                    continue;
                }
                match checks[i] {
                    Check::Range(lo, hi) => {
                        if x < lo || x > hi {
                            *v = Value::Null;
                            report.cells_nulled += 1;
                        }
                    }
                    Check::Generic => {
                        if x < 0.0 {
                            *v = Value::Null;
                            report.cells_nulled_generic += 1;
                        }
                    }
                    Check::None => {}
                }
            }
            out.push_unchecked(Record::new(values));
            report.rows_out += 1;
        }
        Ok((out, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clinical_types::{DataType, FieldDef, Schema};

    fn table_with(rows: Vec<Vec<Value>>) -> Table {
        let schema = Schema::new(vec![
            FieldDef::nullable("PatientId", DataType::Int),
            FieldDef::nullable("FBG", DataType::Float),
            FieldDef::nullable("Marker", DataType::Float),
            FieldDef::nullable("Label", DataType::Text),
        ])
        .unwrap();
        Table::from_rows(schema, rows.into_iter().map(Record::new).collect()).unwrap()
    }

    fn rules() -> CleaningRules {
        CleaningRules::new()
            .require("PatientId")
            .range("FBG", 1.5, 35.0)
    }

    #[test]
    fn out_of_range_values_are_nulled() {
        let t = table_with(vec![
            vec![1.into(), Value::Float(-5.5), Value::Float(2.0), "a".into()],
            vec![2.into(), Value::Float(550.0), Value::Float(2.0), "b".into()],
            vec![3.into(), Value::Float(5.5), Value::Float(2.0), "c".into()],
        ]);
        let (clean, report) = Cleaner::new(rules()).clean(&t).unwrap();
        assert_eq!(report.cells_nulled, 2);
        assert!(clean.value(0, "FBG").unwrap().is_null());
        assert!(clean.value(1, "FBG").unwrap().is_null());
        assert_eq!(clean.value(2, "FBG").unwrap().as_f64(), Some(5.5));
    }

    #[test]
    fn non_finite_values_are_nulled_whatever_the_rule() {
        let t = table_with(vec![vec![
            1.into(),
            Value::Float(f64::NAN),
            Value::Float(f64::NEG_INFINITY),
            "a".into(),
        ]]);
        let mut cleaner = Cleaner::new(rules());
        cleaner.generic_nonnegative = false;
        let (clean, report) = cleaner.clean(&t).unwrap();
        assert_eq!(report.cells_nulled, 2);
        assert!(clean.value(0, "FBG").unwrap().is_null());
        assert!(clean.value(0, "Marker").unwrap().is_null());
    }

    #[test]
    fn rows_missing_required_keys_are_dropped() {
        let t = table_with(vec![
            vec![
                Value::Null,
                Value::Float(5.0),
                Value::Float(1.0),
                "a".into(),
            ],
            vec![1.into(), Value::Float(5.0), Value::Float(1.0), "b".into()],
        ]);
        let (clean, report) = Cleaner::new(rules()).clean(&t).unwrap();
        assert_eq!(report.rows_dropped, 1);
        assert_eq!(report.rows_out, 1);
        assert_eq!(clean.len(), 1);
    }

    #[test]
    fn generic_rule_nulls_negative_panel_values() {
        let t = table_with(vec![vec![
            1.into(),
            Value::Float(5.0),
            Value::Float(-3.0),
            "a".into(),
        ]]);
        let (clean, report) = Cleaner::new(rules()).clean(&t).unwrap();
        assert_eq!(report.cells_nulled_generic, 1);
        assert!(clean.value(0, "Marker").unwrap().is_null());
    }

    #[test]
    fn generic_rule_can_be_disabled() {
        let t = table_with(vec![vec![
            1.into(),
            Value::Float(5.0),
            Value::Float(-3.0),
            "a".into(),
        ]]);
        let mut cleaner = Cleaner::new(rules());
        cleaner.generic_nonnegative = false;
        let (clean, report) = cleaner.clean(&t).unwrap();
        assert_eq!(report.cells_nulled_generic, 0);
        assert_eq!(clean.value(0, "Marker").unwrap().as_f64(), Some(-3.0));
    }

    #[test]
    fn text_and_null_cells_pass_through() {
        let t = table_with(vec![vec![
            1.into(),
            Value::Null,
            Value::Null,
            "keep".into(),
        ]]);
        let (clean, report) = Cleaner::new(rules()).clean(&t).unwrap();
        assert_eq!(report.cells_nulled, 0);
        assert_eq!(clean.value(0, "Label").unwrap().as_str(), Some("keep"));
    }

    #[test]
    fn discri_rules_cover_table1_attributes() {
        let r = CleaningRules::discri_default();
        for attr in ["Age", "DiagnosticHTYears", "FBG", "LyingDBPAverage"] {
            assert!(r.range_of(attr).is_some(), "no range for {attr}");
        }
    }

    #[test]
    fn cleaning_discri_cohort_removes_all_negative_fbg() {
        let cohort = discri_cohort();
        let (clean, report) = Cleaner::new(CleaningRules::discri_default())
            .clean(&cohort)
            .unwrap();
        assert!(report.cells_nulled > 0, "expected some corrupted cells");
        let negatives = clean
            .column("FBG")
            .unwrap()
            .filter_map(Value::as_f64)
            .filter(|f| *f < 0.0)
            .count();
        assert_eq!(negatives, 0);
    }

    fn discri_cohort() -> Table {
        discri::generate(&discri::CohortConfig::small(11)).attendances
    }
}
