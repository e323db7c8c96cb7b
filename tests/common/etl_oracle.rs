//! The naive Data Transformation oracle: §V.A's stages one after the
//! other, each copying the whole table to append one column, built only
//! from public primitives (`Cleaner`, `Bins::label_of`, the fitted
//! discretisers, `step_labels`) and a per-patient sort of its own. It
//! shares no code with `TransformPipeline::run` past those primitives,
//! so whatever the pipeline does to avoid copies, this is what it must
//! have produced.

// Compiled into each test crate that includes it; none uses all of it.
#![allow(dead_code)]

use clinical_types::{DataType, Error, FieldDef, Record, Result, Table, Value};
use etl::discretise::clinical::age_subgroup_scheme;
use etl::pipeline::BandSource;
use etl::temporal::step_labels;
use etl::{
    table1_schemes, CardinalityProfile, Cleaner, CleaningRules, ClinicalScheme, Discretiser,
    EqualFrequency, Mdlp, PipelineReport, TransformPipeline,
};
use std::collections::{BTreeMap, HashMap};

/// Tolerance `TransformPipeline` gives every trend column.
const TREND_TOLERANCE: f64 = 0.3;

/// One pipeline configuration, buildable both as the real pipeline and
/// as this oracle.
#[derive(Debug, Clone)]
pub struct Spec {
    pub rules: CleaningRules,
    pub schemes: Vec<ClinicalScheme>,
    pub algorithmic: Vec<String>,
    pub class_column: Option<String>,
    pub trends: Vec<String>,
}

impl Spec {
    /// The configuration of `TransformPipeline::discri_default()`.
    pub fn discri_default() -> Self {
        Spec {
            rules: CleaningRules::discri_default(),
            schemes: table1_schemes(),
            algorithmic: ["BMI", "HbA1c", "QTc", "SDNN"].map(String::from).to_vec(),
            class_column: Some("DiabetesStatus".into()),
            trends: vec!["FBG".into(), "BMI".into()],
        }
    }

    /// The real pipeline, configured through its public methods.
    pub fn pipeline(&self) -> TransformPipeline {
        let mut p = TransformPipeline::new(self.rules.clone(), self.schemes.clone());
        for attr in &self.algorithmic {
            p = p.discretise_algorithmic(attr.as_str());
        }
        if let Some(class) = &self.class_column {
            p = p.supervise_with(class.as_str());
        }
        for attr in &self.trends {
            p = p.derive_trend(attr.as_str());
        }
        p
    }

    /// The oracle's answer.
    pub fn run(&self, raw: &Table) -> Result<(Table, PipelineReport)> {
        let (table, cleaning) = Cleaner::new(self.rules.clone()).clean(raw)?;
        let (mut table, cardinality) = cardinality(&table)?;

        let mut bands = Vec::new();
        for scheme in &self.schemes {
            if table.schema().contains(&scheme.attribute) {
                let col = format!("{}_Band", scheme.attribute);
                table = band(&table, &scheme.attribute, &col, &scheme.bins)?;
                bands.push((col, scheme.attribute.clone(), BandSource::Clinical));
            }
        }
        if table.schema().contains("Age") && !table.schema().contains("Age_SubGroup") {
            table = band(&table, "Age", "Age_SubGroup", &age_subgroup_scheme().bins)?;
            bands.push(("Age_SubGroup".into(), "Age".into(), BandSource::Clinical));
        }

        let classes = self.class_column.as_ref().and_then(|name| {
            let col = table.column(name).ok()?;
            let mut intern: HashMap<String, usize> = HashMap::new();
            Some(
                col.map(|v| match v {
                    Value::Null => None,
                    other => {
                        let next = intern.len();
                        Some(*intern.entry(other.to_string()).or_insert(next))
                    }
                })
                .collect::<Vec<_>>(),
            )
        });
        for attr in &self.algorithmic {
            let col = format!("{attr}_Band");
            if !table.schema().contains(attr) || table.schema().contains(&col) {
                continue;
            }
            let cells: Vec<&Value> = table.column(attr)?.collect();
            let fitted = match &classes {
                Some(cls) => {
                    let (values, labels): (Vec<f64>, Vec<usize>) = cells
                        .iter()
                        .zip(cls)
                        .filter_map(|(v, c)| Some((v.as_f64()?, (*c)?)))
                        .unzip();
                    (!values.is_empty())
                        .then(|| Ok((Mdlp::new().fit(&values, Some(&labels))?, BandSource::Mdlp)))
                }
                None => {
                    let values: Vec<f64> = cells.iter().filter_map(|v| v.as_f64()).collect();
                    (!values.is_empty()).then(|| {
                        Ok((
                            EqualFrequency::new(4).fit(&values, None)?,
                            BandSource::EqualFrequency,
                        ))
                    })
                }
            };
            if let Some(fitted) = fitted {
                let (bins, source) = fitted?;
                table = band(&table, attr, &col, &bins)?;
                bands.push((col, attr.clone(), source));
            }
        }

        let mut trends = Vec::new();
        for attr in &self.trends {
            if table.schema().contains(attr) {
                let col = format!("{attr}_Trend");
                table = trend(&table, attr, &col)?;
                trends.push((col, attr.clone()));
            }
        }

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
}

/// A copy of `table` with one more column, validated row by row.
fn append(table: &Table, field: FieldDef, cells: Vec<Value>) -> Result<Table> {
    let mut schema = table.schema().clone();
    schema.push(field)?;
    let rows = table
        .rows()
        .iter()
        .zip(cells)
        .map(|(row, cell)| {
            let mut values = row.values().to_vec();
            values.push(cell);
            Record::new(values)
        })
        .collect();
    Table::from_rows(schema, rows)
}

fn band(table: &Table, src: &str, col: &str, bins: &etl::Bins) -> Result<Table> {
    let cells = table
        .column(src)?
        .map(|v| match v.as_f64() {
            Some(x) => Value::Text(bins.label_of(x).to_string()),
            None => Value::Null,
        })
        .collect();
    append(table, FieldDef::nullable(col, DataType::Text), cells)
}

/// Each patient's row indices, in date order (table order among equal
/// dates), patients by ascending id.
fn per_patient(table: &Table) -> Result<BTreeMap<i64, Vec<usize>>> {
    let pid = table.schema().index_of("PatientId")?;
    let date = table.schema().index_of("TestDate")?;
    let mut patients: BTreeMap<i64, Vec<usize>> = BTreeMap::new();
    for (i, row) in table.rows().iter().enumerate() {
        let id = row[pid]
            .as_i64()
            .ok_or_else(|| Error::invalid(format!("non-integer PatientId in row {i}")))?;
        patients.entry(id).or_default().push(i);
    }
    for rows in patients.values_mut() {
        rows.sort_by_key(|&i| table.rows()[i][date].as_date());
    }
    Ok(patients)
}

fn cardinality(table: &Table) -> Result<(Table, CardinalityProfile)> {
    let date = table.schema().index_of("TestDate")?;
    let patients = per_patient(table)?;
    let mut visit_no = vec![0i64; table.len()];
    let mut visit_count = vec![0i64; table.len()];
    for (pid, rows) in &patients {
        for w in rows.windows(2) {
            match (
                table.rows()[w[0]][date].as_date(),
                table.rows()[w[1]][date].as_date(),
            ) {
                (Some(a), Some(b)) if a == b => {
                    return Err(Error::invalid(format!(
                        "patient {pid} has two attendances dated {a}: cardinality ambiguous"
                    )));
                }
                (None, _) | (_, None) => {
                    return Err(Error::invalid(format!(
                        "patient {pid} has an attendance without a TestDate"
                    )));
                }
                _ => {}
            }
        }
        for (rank, &i) in rows.iter().enumerate() {
            visit_no[i] = rank as i64 + 1;
            visit_count[i] = rows.len() as i64;
        }
    }
    let kinds = visit_no
        .iter()
        .map(|&n| Value::Text(if n == 1 { "first" } else { "return" }.into()))
        .collect();
    let mut out = append(
        table,
        FieldDef::required("DerivedVisitNo", DataType::Int),
        visit_no.into_iter().map(Value::Int).collect(),
    )?;
    out = append(
        &out,
        FieldDef::required("PatientVisitCount", DataType::Int),
        visit_count.into_iter().map(Value::Int).collect(),
    )?;
    out = append(&out, FieldDef::required("VisitKind", DataType::Text), kinds)?;

    let n_patients = patients.len();
    let profile = CardinalityProfile {
        n_patients,
        n_visits: table.len(),
        max_visits: patients.values().map(Vec::len).max().unwrap_or(0),
        mean_visits: if n_patients == 0 {
            0.0
        } else {
            table.len() as f64 / n_patients as f64
        },
    };
    Ok((out, profile))
}

fn trend(table: &Table, attr: &str, col: &str) -> Result<Table> {
    let src = table.schema().index_of(attr)?;
    let mut labels = vec!["unknown"; table.len()];
    for rows in per_patient(table)?.values() {
        let series: Vec<Option<f64>> = rows
            .iter()
            .map(|&i| table.rows()[i][src].as_f64())
            .collect();
        for (&i, label) in rows.iter().zip(step_labels(&series, TREND_TOLERANCE)) {
            labels[i] = label;
        }
    }
    let cells = labels.into_iter().map(|l| Value::Text(l.into())).collect();
    append(table, FieldDef::nullable(col, DataType::Text), cells)
}
