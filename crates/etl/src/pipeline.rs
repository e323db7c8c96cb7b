//! The composed DiScRi transformation pipeline.
//!
//! Mirrors §V.A of the paper: clean → cardinality → discretise
//! (clinical schemes first, algorithmic fall-back) → temporal trend
//! abstraction. The output table carries both the original continuous
//! attributes and the derived band/trend/cardinality columns, ready
//! for the warehouse loader.
//!
//! The table is materialised once. Cleaning makes the one copy of the
//! raw rows; every derived column is then computed whole, as a vector
//! read from the cleaned rows (a band as `Bins::assign` codes into its
//! scheme's labels). The cardinality columns and every trend column
//! walk one shared `(PatientId, TestDate)` visit order. The output is
//! built at the end by moving each cleaned record and appending its
//! derived cells in place. A stage names its source through the schema
//! grown so far, so it sees the columns earlier stages derived exactly
//! as if they were already appended.

use crate::cardinality::{CardinalityProfile, VisitOrder};
use crate::clean::{Cleaner, CleaningReport, CleaningRules};
use crate::discretise::clinical::{age_subgroup_scheme, table1_schemes, ClinicalScheme};
use crate::discretise::equal_frequency::EqualFrequency;
use crate::discretise::mdlp::Mdlp;
use crate::discretise::{Bins, Discretiser};
use crate::temporal::step_labels;
use clinical_types::{DataType, FieldDef, Record, Result, Schema, Table, Value};
use std::borrow::Cow;
use std::collections::HashMap;

/// How a derived band column was produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BandSource {
    /// Clinician-supplied scheme (Table I precedence).
    Clinical,
    /// Supervised MDLP fall-back.
    Mdlp,
    /// Unsupervised equal-frequency fall-back (no class labels).
    EqualFrequency,
}

/// Report of one pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Cleaning counters.
    pub cleaning: CleaningReport,
    /// Attendance structure.
    pub cardinality: CardinalityProfile,
    /// Derived band columns: `(new column, source attribute, method)`.
    pub bands: Vec<(String, String, BandSource)>,
    /// Derived trend columns: `(new column, source attribute)`.
    pub trends: Vec<(String, String)>,
}

/// The configured transformation pipeline.
#[derive(Debug, Clone)]
pub struct TransformPipeline {
    rules: CleaningRules,
    schemes: Vec<ClinicalScheme>,
    /// Attributes without clinical schemes to discretise algorithmically.
    algorithmic: Vec<String>,
    /// Class column supervising MDLP (usually `DiabetesStatus`).
    class_column: Option<String>,
    /// Attributes to derive per-visit trend labels for.
    trend_attributes: Vec<String>,
    /// Absolute change treated as noise by the trend abstraction.
    trend_tolerance: f64,
}

impl TransformPipeline {
    /// The pipeline used by the DiScRi trial: default cleaning rules,
    /// the Table I schemes plus the five-year age drill-down, MDLP on
    /// BMI and HbA1c supervised by `DiabetesStatus`, and FBG/BMI
    /// trend abstraction.
    pub fn discri_default() -> Self {
        TransformPipeline {
            rules: CleaningRules::discri_default(),
            schemes: table1_schemes(),
            algorithmic: vec!["BMI".into(), "HbA1c".into(), "QTc".into(), "SDNN".into()],
            class_column: Some("DiabetesStatus".into()),
            trend_attributes: vec!["FBG".into(), "BMI".into()],
            trend_tolerance: 0.3,
        }
    }

    /// A pipeline with custom parts.
    pub fn new(rules: CleaningRules, schemes: Vec<ClinicalScheme>) -> Self {
        TransformPipeline {
            rules,
            schemes,
            algorithmic: Vec::new(),
            class_column: None,
            trend_attributes: Vec::new(),
            trend_tolerance: 0.3,
        }
    }

    /// Add an attribute for algorithmic discretisation.
    pub fn discretise_algorithmic(mut self, attribute: impl Into<String>) -> Self {
        self.algorithmic.push(attribute.into());
        self
    }

    /// Set the supervising class column for MDLP.
    pub fn supervise_with(mut self, class_column: impl Into<String>) -> Self {
        self.class_column = Some(class_column.into());
        self
    }

    /// Add an attribute for trend abstraction.
    pub fn derive_trend(mut self, attribute: impl Into<String>) -> Self {
        self.trend_attributes.push(attribute.into());
        self
    }

    /// Run the full pipeline.
    pub fn run(&self, raw: &Table) -> Result<(Table, PipelineReport)> {
        let mut run_span = obs::span("etl.pipeline");
        run_span.record("rows_in", raw.len());

        // 1. Clean: the one copy of the raw rows, with room for every
        //    column a later stage may append — three cardinality
        //    columns, `Age_SubGroup`, one per configured band or trend.
        let (cleaned, cleaning) = {
            let _stage = obs::span("etl.clean");
            let spare =
                4 + self.schemes.len() + self.algorithmic.len() + self.trend_attributes.len();
            Cleaner::new(self.rules.clone()).clean_with_spare(raw, spare)?
        };
        // `Staged::finish` moves these records; nothing else copies one.
        run_span.record("rows_copied", cleaned.len());
        let mut table = Staged::new(cleaned);

        // 2. Cardinality, over the visit order the trends reuse.
        let (visits, cardinality) = {
            let _stage = obs::span("etl.cardinality");
            let visits = VisitOrder::new(&table.cleaned, "PatientId", "TestDate")?;
            let (visit_no, visit_count) = visits.visit_numbers();
            let kind = visit_no
                .iter()
                .map(|&n| if n == 1 { "first" } else { "return" })
                .collect();
            table.push(
                FieldDef::required("DerivedVisitNo", DataType::Int),
                Column::Int(visit_no),
            )?;
            table.push(
                FieldDef::required("PatientVisitCount", DataType::Int),
                Column::Int(visit_count),
            )?;
            table.push(
                FieldDef::required("VisitKind", DataType::Text),
                Column::Text(kind),
            )?;
            let profile = visits.profile();
            (visits, profile)
        };

        // 3. Clinical schemes (Table I precedence), plus the age
        //    drill-down level when Age is present.
        let mut bands = Vec::new();
        {
            let _stage = obs::span("etl.clinical_bands");
            for scheme in &self.schemes {
                if !table.schema.contains(&scheme.attribute) {
                    continue;
                }
                let col = format!("{}_Band", scheme.attribute);
                table.push_band(&scheme.attribute, &col, scheme.bins.clone())?;
                bands.push((col, scheme.attribute.clone(), BandSource::Clinical));
            }
            if table.schema.contains("Age") && !table.schema.contains("Age_SubGroup") {
                table.push_band("Age", "Age_SubGroup", age_subgroup_scheme().bins)?;
                bands.push(("Age_SubGroup".into(), "Age".into(), BandSource::Clinical));
            }
        }

        // 4. Algorithmic discretisation for the remaining attributes.
        {
            let _stage = obs::span("etl.algorithmic_bands");
            let classes = self.class_labels(&table)?;
            for attr in &self.algorithmic {
                if !table.schema.contains(attr) {
                    continue;
                }
                let col = format!("{attr}_Band");
                if table.schema.contains(&col) {
                    continue; // clinical scheme already produced it
                }
                let (values, value_classes) = numeric_with_classes(&table, attr, &classes)?;
                if values.is_empty() {
                    continue;
                }
                let (bins, source) = match &value_classes {
                    Some(cls) => (Mdlp::new().fit(&values, Some(cls))?, BandSource::Mdlp),
                    None => (
                        EqualFrequency::new(4).fit(&values, None)?,
                        BandSource::EqualFrequency,
                    ),
                };
                table.push_band(attr, &col, bins)?;
                bands.push((col, attr.clone(), source));
            }
        }

        // 5. Per-visit trend abstraction.
        let mut trends = Vec::new();
        {
            let _stage = obs::span("etl.trends");
            for attr in &self.trend_attributes {
                if !table.schema.contains(attr) {
                    continue;
                }
                let values: Vec<Option<f64>> = table.column(attr)?.map(|v| v.as_f64()).collect();
                let mut labels = vec!["unknown"; values.len()];
                for rows in visits.patients() {
                    let series: Vec<Option<f64>> = rows.iter().map(|&i| values[i]).collect();
                    for (&i, label) in rows.iter().zip(step_labels(&series, self.trend_tolerance)) {
                        labels[i] = label;
                    }
                }
                let col = format!("{attr}_Trend");
                table.push(
                    FieldDef::nullable(&col, DataType::Text),
                    Column::Text(labels),
                )?;
                trends.push((col, attr.clone()));
            }
        }

        let table = table.finish();
        run_span.record("rows_out", table.len());
        run_span.record("bands", bands.len());
        Ok((
            table,
            PipelineReport {
                cleaning,
                cardinality,
                bands,
                trends,
            },
        ))
    }

    /// Class labels per row from the class column, if configured and
    /// present. Text categories are interned to dense indices.
    fn class_labels(&self, table: &Staged) -> Result<Option<Vec<Option<usize>>>> {
        let Some(name) = &self.class_column else {
            return Ok(None);
        };
        if !table.schema.contains(name) {
            return Ok(None);
        }
        let mut intern: HashMap<String, usize> = HashMap::new();
        let mut out = Vec::with_capacity(table.cleaned.len());
        for v in table.column(name)? {
            out.push(match &*v {
                Value::Null => None,
                other => {
                    let key = other.to_string();
                    let next = intern.len();
                    Some(*intern.entry(key).or_insert(next))
                }
            });
        }
        Ok(Some(out))
    }
}

/// Extract the non-null numeric values of `attr` and, when class
/// labels exist, the aligned class vector (rows missing either the
/// value or the class are skipped).
fn numeric_with_classes(
    table: &Staged,
    attr: &str,
    classes: &Option<Vec<Option<usize>>>,
) -> Result<(Vec<f64>, Option<Vec<usize>>)> {
    let column = table.column(attr)?;
    match classes {
        Some(cls) => {
            let mut values = Vec::new();
            let mut labels = Vec::new();
            for (v, c) in column.zip(cls) {
                if let (Some(x), Some(c)) = (v.as_f64(), c) {
                    values.push(x);
                    labels.push(*c);
                }
            }
            Ok((values, Some(labels)))
        }
        None => Ok((column.filter_map(|v| v.as_f64()).collect(), None)),
    }
}

/// A derived column, computed whole before the output is built.
enum Column {
    Int(Vec<i64>),
    Text(Vec<&'static str>),
    /// `Bins::assign` codes into `bins`' labels; `None` is a null cell
    /// (a missing or non-numeric source value).
    Band {
        codes: Vec<Option<usize>>,
        bins: Bins,
    },
}

impl Column {
    fn value(&self, row: usize) -> Value {
        match self {
            Column::Int(v) => Value::Int(v[row]),
            Column::Text(v) => Value::Text(v[row].to_string()),
            Column::Band { codes, bins } => match codes[row] {
                Some(code) => Value::Text(bins.labels()[code].clone()),
                None => Value::Null,
            },
        }
    }
}

/// The output table before it is built: the cleaned rows, the columns
/// derived from them so far, and the schema that names both.
struct Staged {
    cleaned: Table,
    /// The cleaned schema followed by one field per derived column.
    schema: Schema,
    derived: Vec<Column>,
}

impl Staged {
    fn new(cleaned: Table) -> Self {
        Staged {
            schema: cleaned.schema().clone(),
            cleaned,
            derived: Vec::new(),
        }
    }

    /// Append a derived column; errors if its name is taken.
    fn push(&mut self, field: FieldDef, column: Column) -> Result<()> {
        self.schema.push(field)?;
        self.derived.push(column);
        Ok(())
    }

    /// Append `name`, the `bins` band of numeric column `src`: the
    /// "duplicate the attribute" pattern of §V.A, which keeps the
    /// continuous column.
    fn push_band(&mut self, src: &str, name: &str, bins: Bins) -> Result<()> {
        let codes = self
            .column(src)?
            .map(|v| v.as_f64().map(|x| bins.assign(x)))
            .collect();
        self.push(
            FieldDef::nullable(name, DataType::Text),
            Column::Band { codes, bins },
        )
    }

    /// The cells of column `name` in row order, cleaned or derived.
    fn column(&self, name: &str) -> Result<impl Iterator<Item = Cow<'_, Value>>> {
        let idx = self.schema.index_of(name)?;
        let rows = self.cleaned.rows();
        let derived = idx
            .checked_sub(self.cleaned.schema().len())
            .map(|d| &self.derived[d]);
        Ok((0..rows.len()).map(move |i| match derived {
            None => Cow::Borrowed(&rows[i][idx]),
            Some(column) => Cow::Owned(column.value(i)),
        }))
    }

    /// Build the output: each cleaned record is moved, not copied, and
    /// its derived cells are appended in place.
    fn finish(self) -> Table {
        let mut out = Table::new(self.schema);
        for (i, record) in self.cleaned.into_rows().into_iter().enumerate() {
            let mut values = record.into_values();
            values.extend(self.derived.iter().map(|column| column.value(i)));
            out.push_unchecked(Record::new(values));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_small() -> (Table, PipelineReport) {
        let cohort = discri::generate(&discri::CohortConfig::small(21));
        TransformPipeline::discri_default()
            .run(&cohort.attendances)
            .unwrap()
    }

    #[test]
    fn pipeline_adds_expected_columns() {
        let (table, report) = run_small();
        let schema = table.schema();
        for col in [
            "Age_Band",
            "Age_SubGroup",
            "FBG_Band",
            "LyingDBPAverage_Band",
            "DiagnosticHTYears_Band",
            "BMI_Band",
            "HbA1c_Band",
            "FBG_Trend",
            "BMI_Trend",
            "DerivedVisitNo",
            "PatientVisitCount",
            "VisitKind",
        ] {
            assert!(schema.contains(col), "missing derived column {col}");
        }
        assert_eq!(report.bands.len(), 9);
        assert_eq!(report.trends.len(), 2);
        // Continuous originals survive (the §V.A duplication rule).
        assert!(schema.contains("FBG"));
        assert!(schema.contains("Age"));
    }

    #[test]
    fn clinical_schemes_take_precedence_over_algorithms() {
        let (_, report) = run_small();
        let fbg = report
            .bands
            .iter()
            .find(|(c, _, _)| c == "FBG_Band")
            .unwrap();
        assert_eq!(fbg.2, BandSource::Clinical);
        let bmi = report
            .bands
            .iter()
            .find(|(c, _, _)| c == "BMI_Band")
            .unwrap();
        assert_eq!(bmi.2, BandSource::Mdlp);
    }

    #[test]
    fn band_values_agree_with_schemes() {
        let (table, _) = run_small();
        let schema = table.schema();
        let fbg = schema.index_of("FBG").unwrap();
        let band = schema.index_of("FBG_Band").unwrap();
        let scheme = &table1_schemes()[2];
        for row in table.rows() {
            match row[fbg].as_f64() {
                Some(x) => assert_eq!(
                    row[band].as_str(),
                    Some(scheme.bins.label_of(x)),
                    "band mismatch for FBG {x}"
                ),
                None => assert!(row[band].is_null()),
            }
        }
    }

    #[test]
    fn first_visits_have_first_trend() {
        let (table, _) = run_small();
        let schema = table.schema();
        let vno = schema.index_of("DerivedVisitNo").unwrap();
        let trend = schema.index_of("FBG_Trend").unwrap();
        for row in table.rows() {
            if row[vno].as_i64() == Some(1) {
                let t = row[trend].as_str().unwrap();
                assert!(t == "first" || t == "unknown", "first visit has trend {t}");
            }
        }
    }

    #[test]
    fn cleaning_report_is_propagated() {
        let (_, report) = run_small();
        assert!(report.cleaning.rows_in > 0);
        assert_eq!(report.cleaning.rows_out, report.cardinality.n_visits);
    }

    #[test]
    fn no_out_of_range_values_survive() {
        let (table, _) = run_small();
        for v in table.column("FBG").unwrap() {
            if let Some(x) = v.as_f64() {
                assert!((1.5..=35.0).contains(&x), "FBG {x} survived cleaning");
            }
        }
        for v in table.column("LyingDBPAverage").unwrap() {
            if let Some(x) = v.as_f64() {
                assert!((30.0..=160.0).contains(&x));
            }
        }
    }
}
