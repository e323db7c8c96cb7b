//! Failure-injection tests: every layer must reject bad input with a
//! descriptive error (never a panic) and recover where the design says
//! it recovers.

use clinical_types::{table_from_csv, table_to_csv, DataType, FieldDef, Schema, Table, Value};
use dd_dgms::DdDgms;
use discri::{generate, CohortConfig};
use std::sync::OnceLock;
use warehouse::{LoadPlan, Warehouse};

fn system() -> &'static DdDgms {
    static SYSTEM: OnceLock<DdDgms> = OnceLock::new();
    SYSTEM.get_or_init(|| {
        let cohort = generate(&CohortConfig::small(131));
        DdDgms::from_raw_attendances(&cohort.attendances).expect("system builds")
    })
}

#[test]
fn malformed_mdx_reports_parse_errors() {
    for bad in [
        "",
        "SELECT",
        "SELECT [A].MEMBERS ON SIDEWAYS, [B].MEMBERS ON ROWS FROM [X]",
        "SELECT [A].MEMBERS ON COLUMNS, [B].MEMBERS ON ROWS FROM [X] MEASURE AVG()",
        "SELECT [A].MEMBERS ON COLUMNS, [B].MEMBERS ON ROWS FROM [X] WHERE [Y] = 5",
    ] {
        let err = system().mdx(bad).err();
        assert!(err.is_some(), "accepted malformed MDX: {bad}");
    }
}

#[test]
fn mdx_against_wrong_cube_or_attribute_fails_cleanly() {
    let err = system()
        .mdx(
            "SELECT [Gender].MEMBERS ON COLUMNS, [Age_Band].MEMBERS ON ROWS \
              FROM [Wrong Cube] MEASURE COUNT(*)",
        )
        .expect_err("wrong cube must fail");
    assert!(err.to_string().contains("Wrong Cube"));

    let err = system()
        .mdx(
            "SELECT [Gender].MEMBERS ON COLUMNS, [NoSuchThing].MEMBERS ON ROWS \
              FROM [Medical Measures] MEASURE COUNT(*)",
        )
        .expect_err("unknown attribute must fail");
    assert!(err.to_string().contains("NoSuchThing"));
}

#[test]
fn warehouse_load_rejects_incompatible_tables() {
    let schema = Schema::new(vec![FieldDef::required("JustOneColumn", DataType::Int)]).unwrap();
    let table = Table::new(schema);
    let err = Warehouse::load(&LoadPlan::discri_default(), &table)
        .expect_err("incomplete schema must be rejected");
    // The message enumerates what is missing.
    assert!(err.to_string().contains("Gender"));
}

#[test]
fn csv_round_trip_of_the_whole_cohort() {
    // The full 273-column attendance table must survive CSV export →
    // import byte-exactly (dates, bools, floats, NULLs, quoting).
    let cohort = generate(&CohortConfig::small(17));
    let table = &cohort.attendances;
    let csv = table_to_csv(table);
    let back = table_from_csv(&csv, table.schema()).unwrap();
    assert_eq!(back.len(), table.len());
    for (a, b) in back.rows().iter().zip(table.rows()) {
        assert_eq!(a, b);
    }
}

#[test]
fn feedback_dimension_abuse_is_rejected() {
    let cohort = generate(&CohortConfig::small(19));
    let (table, _) = etl::TransformPipeline::discri_default()
        .run(&cohort.attendances)
        .unwrap();
    let mut wh = Warehouse::load(&LoadPlan::discri_default(), &table).unwrap();
    // Wrong label count.
    assert!(wh
        .add_feedback_dimension("F", "Flag", vec![Value::Bool(true)])
        .is_err());
    // Clashing attribute name.
    let labels = vec![Value::Bool(true); wh.n_facts()];
    assert!(wh
        .add_feedback_dimension("F", "Gender", labels.clone())
        .is_err());
    // A valid add still works after the failed attempts (no partial
    // state corruption).
    wh.add_feedback_dimension("F", "Flag", labels).unwrap();
    assert!(wh.attribute_column("Flag").is_ok());
}

#[test]
fn acquisition_rejects_unknown_columns() {
    let err = dd_dgms::attribute_gaps(system().transformed(), &["NoSuchColumn"], "DiabetesStatus")
        .expect_err("unknown column must fail");
    assert!(err.to_string().contains("NoSuchColumn"));
}

#[test]
fn kb_import_rejects_corruption_but_keeps_good_exports() {
    let kb = kb::KnowledgeBase::new(1);
    kb.add_evidence("solid finding", kb::Source::Analytics, 0.9, &["tag"])
        .unwrap();
    let good = kb.export_text();
    assert!(kb::KnowledgeBase::import_text(&good, 1).is_ok());
    let corrupted = good.replace("analytics", "not-a-source");
    assert!(kb::KnowledgeBase::import_text(&corrupted, 1).is_err());
}
