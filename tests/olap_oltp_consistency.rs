//! Differential test: the OLAP cube and the flat OLTP group-by are two
//! independent implementations of the same aggregation semantics. On
//! identical data they must produce identical numbers — this is the
//! correctness backbone behind the `olap_vs_oltp` performance claim
//! (a fast warehouse that disagrees with the transactional truth would
//! be worthless).

use clinical_types::Value;
use discri::{generate, CohortConfig};
use etl::TransformPipeline;
use olap::{Aggregate, Cube, CubeSpec};
use oltp::{AggFn, Predicate, QueryEngine, RowStore};
use warehouse::{LoadPlan, Warehouse};

struct Fixture {
    warehouse: Warehouse,
    engine: QueryEngine,
}

fn fixture() -> Fixture {
    let cohort = generate(&CohortConfig::small(101));
    let (table, _) = TransformPipeline::discri_default()
        .run(&cohort.attendances)
        .unwrap();
    let warehouse = Warehouse::load(&LoadPlan::discri_default(), &table).unwrap();
    let store = RowStore::new(table.schema().clone());
    store.load_table(&table).unwrap();
    Fixture {
        warehouse,
        engine: QueryEngine::new(store),
    }
}

#[test]
fn counts_agree_across_engines() {
    let f = fixture();
    let cube = Cube::build(&f.warehouse, &CubeSpec::count(vec!["Gender", "Age_Band"])).unwrap();
    let flat = f
        .engine
        .group_by(
            &Predicate::True,
            &["Gender", "Age_Band"],
            AggFn::Count,
            None,
        )
        .unwrap();
    assert_eq!(cube.n_cells(), flat.rows.len());
    for (key, value) in &flat.rows {
        let cube_value = cube.value(key);
        assert_eq!(
            cube_value,
            Some(*value),
            "count mismatch at {key:?}: cube {cube_value:?} vs flat {value}"
        );
    }
}

#[test]
fn filtered_counts_agree() {
    let f = fixture();
    let spec = CubeSpec::count(vec!["Age_Band"])
        .with_filter(olap::CubeFilter::all().equals("DiabetesStatus", "yes"));
    let cube = Cube::build(&f.warehouse, &spec).unwrap();
    let flat = f
        .engine
        .group_by(
            &Predicate::eq("DiabetesStatus", "yes"),
            &["Age_Band"],
            AggFn::Count,
            None,
        )
        .unwrap();
    for (key, value) in &flat.rows {
        assert_eq!(cube.value(key), Some(*value), "mismatch at {key:?}");
    }
}

#[test]
fn averages_agree_with_null_skipping() {
    let f = fixture();
    let cube = Cube::build(
        &f.warehouse,
        &CubeSpec::measure(vec!["DiabetesStatus"], Aggregate::Avg, "FBG"),
    )
    .unwrap();
    let flat = f
        .engine
        .group_by(
            &Predicate::True,
            &["DiabetesStatus"],
            AggFn::Avg,
            Some("FBG"),
        )
        .unwrap();
    for (key, value) in &flat.rows {
        if value.is_nan() {
            assert_eq!(cube.value(key), None);
            continue;
        }
        let cube_value = cube.value(key).expect("cube has the group");
        assert!(
            (cube_value - value).abs() < 1e-9,
            "avg mismatch at {key:?}: {cube_value} vs {value}"
        );
    }
}

#[test]
fn min_max_sum_agree() {
    let f = fixture();
    for (olap_agg, oltp_agg) in [
        (Aggregate::Min, AggFn::Min),
        (Aggregate::Max, AggFn::Max),
        (Aggregate::Sum, AggFn::Sum),
    ] {
        let cube = Cube::build(
            &f.warehouse,
            &CubeSpec::measure(vec!["Gender"], olap_agg, "BMI"),
        )
        .unwrap();
        let flat = f
            .engine
            .group_by(&Predicate::True, &["Gender"], oltp_agg, Some("BMI"))
            .unwrap();
        for (key, value) in &flat.rows {
            if value.is_nan() {
                assert_eq!(cube.value(key), None);
                continue;
            }
            let cube_value = cube.value(key).expect("group present");
            assert!(
                (cube_value - value).abs() < 1e-6,
                "{olap_agg:?} mismatch at {key:?}: {cube_value} vs {value}"
            );
        }
    }
}

#[test]
fn slice_equals_flat_predicate() {
    let f = fixture();
    let cube = Cube::build(&f.warehouse, &CubeSpec::count(vec!["Gender", "VisitKind"])).unwrap();
    let sliced = cube.slice("VisitKind", &Value::from("first")).unwrap();
    let flat = f
        .engine
        .group_by(
            &Predicate::eq("VisitKind", "first"),
            &["Gender"],
            AggFn::Count,
            None,
        )
        .unwrap();
    for (key, value) in &flat.rows {
        assert_eq!(sliced.value(key), Some(*value));
    }
}
