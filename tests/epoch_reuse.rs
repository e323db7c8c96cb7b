//! Cross-epoch result reuse and incremental cube maintenance.
//!
//! The serving layer no longer discards cached results when the
//! warehouse epoch advances. These tests pin the three revalidation
//! outcomes end to end:
//!
//! 1. a mutation *outside* a query's dimension footprint leaves its
//!    cached result byte-identical and provably reusable,
//! 2. appended fact rows are folded into a retained cube, producing
//!    cells bit-identical to a from-scratch rebuild, and
//! 3. shapes that cannot be patched (DISTINCT aggregates) fall back
//!    to re-execution — correctness is never traded for reuse.

use clinical_types::{DataType, FieldDef, Record, Schema, Table, Value};
use obs::test_support::{rooted_trace, tracing_lock};
use obs::RingCollector;
use olap::{Aggregate, CubeSpec};
use serve::{QueryRequest, QueryService, ReportSpec, ServeConfig, ServedSource};
use std::sync::Arc;
use warehouse::{DimensionDef, FactDef, LoadPlan, StarSchema, Warehouse};

fn schema() -> Schema {
    Schema::new(vec![
        FieldDef::nullable("FBG", DataType::Float),
        FieldDef::nullable("FBG_Band", DataType::Text),
        FieldDef::nullable("Gender", DataType::Text),
    ])
    .unwrap()
}

fn rows_table(rows: Vec<Vec<Value>>) -> Table {
    Table::from_rows(schema(), rows.into_iter().map(Record::new).collect()).unwrap()
}

fn small_warehouse() -> Warehouse {
    let star = StarSchema::new(
        FactDef::new("Facts", vec!["FBG"], vec![]),
        vec![DimensionDef::new("Bloods", vec!["FBG_Band", "Gender"])],
    )
    .unwrap();
    let table = rows_table(vec![
        vec![5.0.into(), "very good".into(), "F".into()],
        vec![6.5.into(), "preDiabetic".into(), "M".into()],
        vec![8.0.into(), "Diabetic".into(), "F".into()],
        vec![7.2.into(), "Diabetic".into(), "M".into()],
    ]);
    Warehouse::load(&LoadPlan::from_star(star), &table).unwrap()
}

fn feedback_labels(svc: &QueryService) -> Vec<Value> {
    let n = svc.with_warehouse(|wh| wh.n_facts());
    vec![Value::from("unreviewed"); n]
}

#[test]
fn out_of_footprint_mutation_serves_identical_bytes_at_the_new_epoch() {
    let _guard = tracing_lock();
    let collector = Arc::new(RingCollector::new(1024));
    obs::install(collector.clone());
    let (root, trace) = rooted_trace().unwrap();

    let svc = QueryService::new(small_warehouse(), ServeConfig::default()).unwrap();
    let request = QueryRequest::Report(ReportSpec::new().on_rows("FBG_Band").count());
    let before = svc.execute(&request).unwrap();
    assert_eq!(before.source, ServedSource::Executed);

    // The feedback dimension "Review" is not read by the query: the
    // delta log proves the cached result still holds.
    svc.add_feedback_dimension("Review", "Flag", feedback_labels(&svc))
        .unwrap();
    let after = svc.execute(&request).unwrap();
    drop(root);
    obs::uninstall();

    assert_eq!(after.source, ServedSource::Cache);
    assert!(
        Arc::ptr_eq(&before.value, &after.value),
        "reuse must serve the identical allocation, not a re-execution"
    );
    assert!(after.epoch > before.epoch, "served at the *new* epoch");
    let m = svc.metrics();
    assert_eq!(m.reused_cross_epoch, 1, "reuse is counted: {m}");
    assert_eq!(m.executed, 1, "nothing re-executed: {m}");

    // The decision is observable: a cache.revalidate span recorded the
    // epoch gap and its outcome.
    let revalidations: Vec<_> = collector
        .spans_in(trace)
        .into_iter()
        .filter(|s| s.name == "cache.revalidate")
        .collect();
    assert_eq!(revalidations.len(), 1, "one revalidation span");
    assert_eq!(revalidations[0].field("outcome"), Some("reused"));
}

#[test]
fn appended_rows_patch_retained_cubes_identically_to_a_rebuild() {
    let appended = vec![
        vec![9.9.into(), "Diabetic".into(), "F".into()],
        vec![4.1.into(), "very good".into(), "M".into()],
    ];
    let specs = vec![
        CubeSpec::count(vec!["FBG_Band"]),
        CubeSpec::measure(vec!["FBG_Band", "Gender"], Aggregate::Sum, "FBG"),
        CubeSpec::measure(vec!["Gender"], Aggregate::Avg, "FBG"),
    ];
    for spec in specs {
        let svc = QueryService::new(small_warehouse(), ServeConfig::default()).unwrap();
        let cold = svc.cube(spec.clone()).unwrap();
        assert_eq!(cold.source, ServedSource::Executed);

        svc.append(&rows_table(appended.clone())).unwrap();
        let patched = svc.cube(spec.clone()).unwrap();
        assert_eq!(
            patched.source,
            ServedSource::Cache,
            "append must patch, not rebuild: {spec:?}"
        );
        assert_eq!(svc.metrics().patched_incremental, 1);

        // Ground truth: clear the cache and execute from scratch over
        // the full (appended) warehouse.
        svc.clear_cache();
        let rebuilt = svc.cube(spec.clone()).unwrap();
        assert_eq!(rebuilt.source, ServedSource::Executed);
        assert_eq!(
            patched.value.as_cube().unwrap(),
            rebuilt.value.as_cube().unwrap(),
            "patched cells must be bit-identical to a rebuild: {spec:?}"
        );
    }
}

#[test]
fn aged_out_delta_log_is_counted_and_traced() {
    let _guard = tracing_lock();
    let collector = Arc::new(RingCollector::new(4096));
    obs::install(collector.clone());
    let (root, trace) = rooted_trace().unwrap();

    let svc = QueryService::new(small_warehouse(), ServeConfig::default()).unwrap();
    let request = QueryRequest::Report(ReportSpec::new().on_rows("FBG_Band").count());
    let before = svc.execute(&request).unwrap();
    assert_eq!(before.source, ServedSource::Executed);

    // Push the cached entry's epoch past the bounded delta log: one
    // more append than the log retains, so revalidation can prove
    // nothing about the gap.
    for _ in 0..warehouse::DELTA_LOG_CAPACITY + 1 {
        svc.append(&rows_table(vec![vec![
            5.1.into(),
            "very good".into(),
            "F".into(),
        ]]))
        .unwrap();
    }
    let after = svc.execute(&request).unwrap();
    drop(root);
    obs::uninstall();

    assert_eq!(
        after.source,
        ServedSource::Executed,
        "an unprovable entry must re-execute"
    );
    let m = svc.metrics();
    assert_eq!(m.delta_log_aged_out, 1, "aged-out drop is counted: {m}");
    assert_eq!(m.reused_cross_epoch, 0);
    assert_eq!(m.patched_incremental, 0);

    // The drop is observable: the cache.revalidate span records the
    // unknown-epoch outcome and a companion event carries the gap.
    let revalidations: Vec<_> = collector
        .spans_in(trace)
        .into_iter()
        .filter(|s| s.name == "cache.revalidate")
        .collect();
    assert_eq!(revalidations.len(), 1);
    assert_eq!(revalidations[0].field("outcome"), Some("unknown_epoch"));
    assert!(
        collector
            .events_in(trace)
            .iter()
            .any(|e| e.name == "serve.delta_log_aged_out"),
        "aged-out drops emit a trace event"
    );
}

#[test]
fn distinct_aggregates_rebuild_instead_of_patching() {
    let star = StarSchema::new(
        FactDef::new("Facts", vec!["FBG"], vec!["PatientId"]),
        vec![DimensionDef::new("Bloods", vec!["FBG_Band"])],
    )
    .unwrap();
    let schema = Schema::new(vec![
        FieldDef::nullable("FBG", DataType::Float),
        FieldDef::nullable("FBG_Band", DataType::Text),
        FieldDef::nullable("PatientId", DataType::Text),
    ])
    .unwrap();
    let rows = |rows: Vec<Vec<Value>>| {
        Table::from_rows(schema.clone(), rows.into_iter().map(Record::new).collect()).unwrap()
    };
    let wh = Warehouse::load(
        &LoadPlan::from_star(star),
        &rows(vec![
            vec![5.0.into(), "very good".into(), "p1".into()],
            vec![5.5.into(), "very good".into(), "p1".into()],
            vec![8.0.into(), "Diabetic".into(), "p2".into()],
        ]),
    )
    .unwrap();
    let svc = QueryService::new(wh, ServeConfig::default()).unwrap();

    let spec = CubeSpec::distinct(vec!["FBG_Band"], "PatientId");
    assert_eq!(
        svc.cube(spec.clone()).unwrap().source,
        ServedSource::Executed
    );

    // p1 reappearing must not double-count; only a rebuild can know.
    svc.append(&rows(vec![vec![
        6.0.into(),
        "Diabetic".into(),
        "p1".into(),
    ]]))
    .unwrap();
    let after = svc.cube(spec).unwrap();
    assert_eq!(
        after.source,
        ServedSource::Executed,
        "DISTINCT must rebuild"
    );
    assert_eq!(svc.metrics().patched_incremental, 0);
    assert_eq!(svc.metrics().reused_cross_epoch, 0);
    let cube = after.value.as_cube().unwrap();
    assert_eq!(cube.value(&["Diabetic".into()]), Some(2.0));
    assert_eq!(cube.value(&["very good".into()]), Some(1.0));
}
