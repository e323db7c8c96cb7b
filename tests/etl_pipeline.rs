//! `TransformPipeline::run` against the naive stage-by-stage oracle in
//! `common/etl_oracle.rs`: the same schema (names, types, order), the
//! same rows cell for cell, the same `PipelineReport`, and the same
//! error where the oracle fails. Every run also reads back the
//! `rows_copied` its `etl.pipeline` span recorded: the pipeline copies
//! each cleaned row once and moves it into the output.

#[path = "common/etl_oracle.rs"]
mod etl_oracle;

use clinical_types::{table_from_csv, table_to_csv, Date, Result, Table, Value};
use clinical_types::{DataType, FieldDef, Record, Schema};
use etl::{table1_schemes, CleaningRules, PipelineReport, TransformPipeline};
use etl_oracle::Spec;
use obs::test_support::{rooted_trace, tracing_lock};
use obs::RingCollector;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use std::mem::discriminant;
use std::sync::Arc;

type Output = Result<(Table, PipelineReport)>;

/// Run `pipeline` inside a trace of its own; also returns the
/// `rows_copied` its `etl.pipeline` span recorded.
fn traced_run(pipeline: &TransformPipeline, raw: &Table) -> (Output, Option<usize>) {
    let _guard = tracing_lock();
    let collector = Arc::new(RingCollector::new(256));
    obs::install(collector.clone());
    let (root, trace) = rooted_trace().expect("a subscriber is installed");
    let out = pipeline.run(raw);
    drop(root);
    obs::uninstall();
    let copied = collector
        .spans_in(trace)
        .iter()
        .find(|s| s.name == "etl.pipeline")
        .and_then(|s| s.field("rows_copied")?.parse().ok());
    (out, copied)
}

/// Run `pipeline` and the oracle of `spec`, its configuration, and
/// require the same answer; a successful run must have copied exactly
/// the rows it kept.
fn check(pipeline: &TransformPipeline, spec: &Spec, raw: &Table) -> Output {
    let (got, copied) = traced_run(pipeline, raw);
    let want = spec.run(raw);
    match (&got, &want) {
        (Ok((table, report)), Ok((want_table, want_report))) => {
            assert_eq!(table.schema().fields(), want_table.schema().fields());
            assert_eq!(table.len(), want_table.len());
            for (i, (row, want_row)) in table.rows().iter().zip(want_table.rows()).enumerate() {
                assert_eq!(row, want_row, "row {i}");
                // `Value ==` equates `Int(1)` with `Float(1.0)`; the
                // variants must agree as well.
                let same_types = row
                    .values()
                    .iter()
                    .zip(want_row.values())
                    .all(|(a, b)| discriminant(a) == discriminant(b));
                assert!(same_types, "row {i}: {row:?} vs {want_row:?}");
            }
            assert_eq!(report, want_report);
            assert_eq!(copied, Some(report.cleaning.rows_out), "one copy per row");
        }
        (Err(e), Err(want_e)) => assert_eq!(e.to_string(), want_e.to_string()),
        _ => panic!(
            "pipeline and oracle disagree: {:?} vs {:?}",
            got.as_ref().err(),
            want.as_ref().err()
        ),
    }
    got
}

/// [`check`] on the pipeline the trial and the benchmark run.
fn check_default(raw: &Table) -> Output {
    check(
        &TransformPipeline::discri_default(),
        &Spec::discri_default(),
        raw,
    )
}

fn small_cohort(seed: u64) -> Table {
    discri::generate(&discri::CohortConfig::small(seed)).attendances
}

/// A copy of `table` with one more column, every cell `cell(row)`.
fn with_column(table: &Table, field: FieldDef, cell: impl Fn(usize) -> Value) -> Table {
    let mut schema = table.schema().clone();
    schema.push(field).unwrap();
    let rows = table
        .rows()
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut values = r.values().to_vec();
            values.push(cell(i));
            Record::new(values)
        })
        .collect();
    Table::from_rows(schema, rows).unwrap()
}

#[test]
fn benchmark_sized_cohorts_match_the_oracle() {
    // The four ×1 cohorts of the paper's trial (≈2.2 K attendances).
    for seed in 4..8 {
        let raw = discri::generate(&discri::CohortConfig::scaled_to_visits(seed, 2520)).attendances;
        let (table, report) = check_default(&raw).unwrap();
        assert_eq!(report.bands.len(), 9, "seed {seed}");
        assert_eq!(table.len(), report.cleaning.rows_out);
    }
}

#[test]
fn duplicate_visit_dates_fail_on_both_sides() {
    let raw = small_cohort(5);
    let pid = raw.schema().index_of("PatientId").unwrap();
    let date = raw.schema().index_of("TestDate").unwrap();
    // Give a patient's second attendance the date of their first.
    let rows = raw.rows();
    let (first, second) = (0..rows.len())
        .flat_map(|a| (a + 1..rows.len()).map(move |b| (a, b)))
        .find(|&(a, b)| rows[a][pid] == rows[b][pid])
        .expect("some patient returns");
    let mut records = rows.to_vec();
    records[second].values_mut()[date] = rows[first][date].clone();
    let raw = Table::from_rows(raw.schema().clone(), records).unwrap();
    let err = check_default(&raw).unwrap_err();
    assert!(err.to_string().contains("cardinality ambiguous"), "{err}");
}

#[test]
fn derived_columns_are_sources_for_later_stages() {
    let mut spec = Spec::discri_default();
    spec.trends.push("DerivedVisitNo".into());
    spec.algorithmic.push("PatientVisitCount".into());
    let (table, report) = check(&spec.pipeline(), &spec, &small_cohort(9)).unwrap();
    assert!(report
        .trends
        .contains(&("DerivedVisitNo_Trend".into(), "DerivedVisitNo".into())));
    // A visit number only ever rises.
    let trend: Vec<&str> = table
        .column("DerivedVisitNo_Trend")
        .unwrap()
        .map(|v| v.as_str().unwrap())
        .collect();
    assert!(trend.iter().all(|t| *t == "first" || *t == "increasing"));
    assert!(trend.contains(&"increasing"));
    assert!(table.schema().contains("PatientVisitCount_Band"));
}

#[test]
fn a_raw_band_column_is_the_same_error_on_both_sides() {
    let raw = with_column(
        &small_cohort(3),
        FieldDef::nullable("FBG_Band", DataType::Text),
        |_| Value::Null,
    );
    let err = check_default(&raw).unwrap_err();
    assert!(err.to_string().contains("FBG_Band"), "{err}");
}

#[test]
fn non_finite_readings_from_csv_are_nulled_not_banded() {
    let cohort = small_cohort(13);
    let fbg = cohort.schema().index_of("FBG").unwrap();
    let bmi = cohort.schema().index_of("BMI").unwrap();
    let plausible =
        |v: &Value, lo: f64, hi: f64| v.as_f64().is_some_and(|x| (lo..=hi).contains(&x));
    let row = cohort
        .rows()
        .iter()
        .position(|r| plausible(&r[fbg], 1.5, 35.0) && plausible(&r[bmi], 10.0, 70.0))
        .expect("a row with a plausible FBG and BMI");
    let mut records = cohort.rows().to_vec();
    records[row].values_mut()[fbg] = Value::Float(f64::NAN);
    records[row].values_mut()[bmi] = Value::Float(f64::INFINITY);
    let poisoned = Table::from_rows(cohort.schema().clone(), records).unwrap();

    // The CSV reader turns `NaN` and `inf` back into floats.
    let csv = table_to_csv(&poisoned);
    let raw = table_from_csv(&csv, cohort.schema()).unwrap();
    assert!(matches!(raw.value(row, "FBG").unwrap(), Value::Float(x) if x.is_nan()));
    assert_eq!(raw.value(row, "BMI").unwrap(), &Value::Float(f64::INFINITY));

    let (table, report) = check_default(&raw).unwrap();
    let (_, clean_report) = check_default(&cohort).unwrap();
    assert_eq!(
        report.cleaning.cells_nulled,
        clean_report.cleaning.cells_nulled + 2
    );
    for col in ["FBG", "FBG_Band", "BMI", "BMI_Band"] {
        assert!(table.value(row, col).unwrap().is_null(), "{col}");
    }
}

/// A small raw table: 1–9 patients with 1–6 visits each on distinct
/// dates, random nulls (keys included), implausible readings and a
/// shuffled row order.
fn random_table(seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = Schema::new(vec![
        FieldDef::nullable("PatientId", DataType::Int),
        FieldDef::nullable("VisitNo", DataType::Int),
        FieldDef::nullable("TestDate", DataType::Date),
        FieldDef::nullable("Age", DataType::Float),
        FieldDef::nullable("FBG", DataType::Float),
        FieldDef::nullable("BMI", DataType::Float),
        FieldDef::nullable("LyingDBPAverage", DataType::Float),
        FieldDef::nullable("Marker", DataType::Float),
        FieldDef::nullable("DiabetesStatus", DataType::Text),
    ])
    .unwrap();
    let mut rows = Vec::new();
    let start = Date::new(2005, 1, 1).unwrap();
    for p in 0..rng.random_range(1..10usize) {
        let mut day = rng.random_range(0..400i64);
        for v in 0..rng.random_range(1..=6usize) {
            day += rng.random_range(1..500i64);
            let mut values = vec![
                Value::Int(1000 + 7 * p as i64),
                Value::Int(v as i64 + 1),
                Value::Date(start.plus_days(day)),
                reading(&mut rng, 30.0, 95.0),
                reading(&mut rng, 4.0, 9.0),
                reading(&mut rng, 18.0, 40.0),
                reading(&mut rng, 50.0, 100.0),
                reading(&mut rng, 0.0, 3.0),
                Value::Text(["yes", "no"][rng.random_range(0..2usize)].into()),
            ];
            if rng.random_bool(0.05) {
                let key = rng.random_range(0..3usize);
                values[key] = Value::Null;
            }
            if rng.random_bool(0.1) {
                values[8] = Value::Null;
            }
            rows.push(Record::new(values));
        }
    }
    rows.shuffle(&mut rng);
    Table::from_rows(schema, rows).unwrap()
}

/// Mostly a plausible reading in `lo..hi`; sometimes missing, negative
/// or far too large.
fn reading(rng: &mut StdRng, lo: f64, hi: f64) -> Value {
    match rng.random_range(0..10u32) {
        0 => Value::Null,
        1 => Value::Float(-hi),
        2 => Value::Float(hi * 10.0),
        _ => Value::Float(lo + (hi - lo) * rng.random::<f64>()),
    }
}

/// A pipeline configuration over `random_table`'s columns, drawn from
/// `mask`'s bits.
fn random_spec(mask: u32) -> Spec {
    let bit = |i: u32| mask & (1 << i) != 0;
    let schemes = table1_schemes()
        .into_iter()
        .enumerate()
        .filter(|&(i, _)| bit(i as u32))
        .map(|(_, s)| s)
        .collect();
    let pick = |names: &[&str], shift: u32| -> Vec<String> {
        let picked = names
            .iter()
            .enumerate()
            .filter(|&(i, _)| bit(shift + i as u32));
        picked.map(|(_, n)| n.to_string()).collect()
    };
    Spec {
        rules: CleaningRules::discri_default(),
        schemes,
        algorithmic: pick(&["BMI", "FBG", "Marker", "DerivedVisitNo"], 4),
        class_column: [None, Some("DiabetesStatus"), Some("VisitKind")][(mask >> 8) as usize % 3]
            .map(String::from),
        trends: pick(&["FBG", "BMI", "Marker", "DerivedVisitNo"], 10),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_tables_and_specs_match_the_oracle(seed in 0u64..u64::MAX, mask in 0u32..(1 << 14)) {
        let raw = random_table(seed);
        let spec = random_spec(mask);
        let _ = check(&spec.pipeline(), &spec, &raw);
    }
}
