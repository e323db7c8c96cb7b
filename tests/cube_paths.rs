//! Which columns answered — and that every state answers the same.
//!
//! `Cube::build_with_stats` takes no options and runs one loop: filter
//! bitmap → member-code slots → aggregate lanes, morsel by morsel. The
//! warehouse's sealed state and the spec decide only which columns the
//! morsels read, and [`ScanStats`] says which:
//!
//! * **fact columns** alone (`segments_total == 0`) — nothing is
//!   sealed, the sealed rows cannot be proven current, or the spec
//!   reads a dimension the sealed segments do not carry;
//! * **segments** (`segments_total > 0`) — the zone-map survivors,
//!   then the fact rows behind the sealed prefix as morsels of their
//!   own, which `morsels_executed` and `rows_scanned` count.
//!
//! This suite runs the eight query shapes of the benchmark's scan deck
//! over a small DiScRi warehouse in four states, checks every answer
//! cell for cell against the naive oracle, and pins the columns and
//! the morsel count of each state. A randomised deck over all thirty
//! star attributes and three warehouse states then checks the loop
//! against the same oracle, and one fixed case checks `Cube::slice`.

#[path = "common/oracle.rs"]
mod oracle;

use clinical_types::{DataType, FieldDef, Record, Table, Value};
use olap::kernels::DEFAULT_MORSEL_ROWS;
use olap::{Aggregate, Cube, CubeFilter, CubeSpec, PivotTable, ScanStats};
use oracle::{Agg, Cells, Query};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};
use std::sync::OnceLock;
use warehouse::{CompactionConfig, LoadPlan, Warehouse};

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Path {
    FactColumns,
    Segments,
}

/// The columns the morsels read, told by the statistics alone.
fn path_of(stats: &ScanStats) -> Path {
    if stats.segments_total == 0 {
        Path::FactColumns
    } else {
        Path::Segments
    }
}

/// Morsels a scan of `rows` fact-table rows runs.
fn fact_morsels(rows: u64) -> u64 {
    rows.div_ceil(DEFAULT_MORSEL_ROWS as u64)
}

/// Morsels a scan of segments and `tail` fact rows runs: the segments
/// hold 128 rows each, so one morsel per surviving segment.
fn morsels_over_segments(stats: &ScanStats, tail: u64) -> u64 {
    stats.segments_total - stats.segments_pruned + fact_morsels(tail)
}

/// ~1 300 transformed attendances: enough distinct patients that the
/// personal × medical-condition *key* domain (563 × 132) would
/// overflow the dense cap, which the member-code domain never nears.
fn table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| {
        let cohort = discri::generate(&discri::CohortConfig::scaled_to_visits(7, 1500));
        etl::TransformPipeline::discri_default()
            .run(&cohort.attendances)
            .unwrap()
            .0
    })
}

fn rows_of(table: &Table, rows: std::ops::Range<usize>) -> Table {
    Table::from_rows(table.schema().clone(), table.rows()[rows].to_vec()).unwrap()
}

fn load(table: &Table) -> Warehouse {
    Warehouse::load(&LoadPlan::discri_default(), table).unwrap()
}

/// `table` with `value` in `column` of every row in `rows`.
fn with_value(table: &Table, rows: std::ops::Range<usize>, column: &str, value: &str) -> Table {
    let c = table.schema().index_of(column).unwrap();
    let records = table.rows().iter().enumerate().map(|(i, row)| {
        let mut values = row.values().to_vec();
        if rows.contains(&i) {
            values[c] = value.into();
        }
        Record::new(values)
    });
    Table::from_rows(table.schema().clone(), records.collect()).unwrap()
}

/// The first `len - 200` rows sealed, the rest appended behind them.
fn sealed_with_tail(table: &Table) -> Warehouse {
    let cut = table.len() - 200;
    let mut wh = load(&rows_of(table, 0..cut));
    seal(&mut wh);
    wh.append(&rows_of(table, cut..table.len())).unwrap();
    assert_eq!(wh.segments().watermark(), cut);
    wh
}

fn seal(wh: &mut Warehouse) {
    wh.compact_with(&CompactionConfig {
        target_rows_per_segment: 128,
    })
    .unwrap();
}

struct Shape {
    name: &'static str,
    query: Query<'static>,
    /// Sent as MDX text; the others go in as a `CubeSpec`.
    mdx: Option<&'static str>,
}

fn shape(name: &'static str, axes: [&'static str; 2], agg: Agg<'static>) -> Shape {
    Shape {
        name,
        query: Query {
            axes: axes.to_vec(),
            equals: vec![],
            between: vec![],
            agg,
        },
        mdx: None,
    }
}

impl Shape {
    fn equals(mut self, attribute: &'static str, value: &str) -> Shape {
        self.query.equals.push((attribute, value.into()));
        self
    }
}

/// The scan deck of `ddbench`, shape for shape.
fn deck() -> Vec<Shape> {
    let mut cube_range = shape("cube_range", ["Gender", "Age_Band"], Agg::Avg("FBG"));
    cube_range.query.between.push(("BMI", 25.0, 30.0));
    let mut drill =
        shape("drill_children", ["Age_SubGroup", "Gender"], Agg::Count).equals("Age_Band", "60-80");
    drill.mdx = Some(
        "SELECT [Gender].MEMBERS ON COLUMNS, [Age_Band].[60-80].CHILDREN ON ROWS \
         FROM [Medical Measures] MEASURE COUNT(*)",
    );
    vec![
        shape(
            "fig5_distinct",
            ["Age_SubGroup", "Gender"],
            Agg::Distinct("PatientId"),
        )
        .equals("DiabetesStatus", "yes"),
        shape(
            "fig6_htyears",
            ["DiagnosticHTYears_Band", "Age_Band"],
            Agg::Count,
        ),
        shape("sum_by_band", ["Age_Band", "Gender"], Agg::Sum("FBG")),
        shape("avg_filtered", ["FBG_Band", "Gender"], Agg::Avg("HbA1c")).equals("Gender", "F"),
        shape("count_wide", ["Age_SubGroup", "FBG_Band"], Agg::Count),
        shape("selective", ["Age_Band", "Gender"], Agg::Count).equals("Age_SubGroup", "<40"),
        drill,
        cube_range,
    ]
}

fn spec_of(query: &Query<'_>) -> CubeSpec {
    let axes = query.axes.clone();
    let spec = match query.agg {
        Agg::Count => CubeSpec::count(axes),
        Agg::Distinct(column) => CubeSpec::distinct(axes, column),
        Agg::Sum(m) => CubeSpec::measure(axes, Aggregate::Sum, m),
        Agg::Avg(m) => CubeSpec::measure(axes, Aggregate::Avg, m),
        Agg::Min(m) => CubeSpec::measure(axes, Aggregate::Min, m),
        Agg::Max(m) => CubeSpec::measure(axes, Aggregate::Max, m),
    };
    let mut filter = CubeFilter::all();
    for (attribute, value) in &query.equals {
        filter = filter.equals(*attribute, value.clone());
    }
    for (measure, lo, hi) in &query.between {
        filter = filter.measure_between(*measure, *lo, *hi);
    }
    spec.with_filter(filter)
}

fn cube_cells(cube: &Cube) -> Cells {
    cube.iter().map(|(k, v)| (k.clone(), v)).collect()
}

fn pivot_cells(pivot: &PivotTable) -> Cells {
    let mut cells = Cells::new();
    for (r, row) in pivot.cells.iter().enumerate() {
        for (c, cell) in row.iter().enumerate() {
            if let Some(v) = cell {
                let key = vec![pivot.row_headers[r].clone(), pivot.col_headers[c].clone()];
                cells.insert(key, *v);
            }
        }
    }
    cells
}

/// Run one shape, check its answer against the oracle over `table`
/// (the rows `wh` holds), and hand back the statistics of the build.
fn run(wh: &Warehouse, table: &Table, shape: &Shape, state: &str) -> ScanStats {
    let what = format!("{} on the {state} warehouse", shape.name);
    let want = oracle::answer(table, &shape.query);
    assert!(!want.is_empty(), "{what} selects nothing");
    let (cube, stats) = Cube::build_with_stats(wh, &spec_of(&shape.query)).unwrap();
    oracle::assert_same_cells(&cube_cells(&cube), &want, &what);
    if let Some(text) = shape.mdx {
        // The MDX route resolves the drill to this same spec.
        let pivot = olap::execute_mdx(wh, text).unwrap();
        oracle::assert_same_cells(&pivot_cells(&pivot), &want, &what);
    }
    stats
}

fn run_deck(wh: &Warehouse, table: &Table, state: &str) -> HashMap<&'static str, ScanStats> {
    deck()
        .iter()
        .map(|shape| (shape.name, run(wh, table, shape, state)))
        .collect()
}

#[test]
fn every_path_answers_like_the_oracle_and_scanstats_names_it() {
    let table = table();
    let n = table.len() as u64;
    let mut seen = BTreeSet::new();

    // Nothing sealed: morsels over the fact columns answer everything.
    let unsealed = run_deck(&load(table), table, "unsealed");
    for (name, stats) in &unsealed {
        assert_eq!(path_of(stats), Path::FactColumns, "{name}: {stats:?}");
        assert_eq!(stats.rows_scanned, n, "{name} reads the whole table");
        assert_eq!(stats.segments_pruned, 0);
        assert_eq!(stats.morsels_executed, fact_morsels(n), "{name}: {stats:?}");
    }
    seen.extend(unsealed.values().map(path_of));

    // Everything sealed: the segments answer every shape, and zone
    // maps prune.
    let mut wh = load(table);
    seal(&mut wh);
    let segments = wh.segments().len() as u64;
    let sealed = run_deck(&wh, table, "sealed");
    for (name, stats) in &sealed {
        assert_eq!(path_of(stats), Path::Segments, "{name}: {stats:?}");
        let morsels = morsels_over_segments(stats, 0);
        assert_eq!(stats.morsels_executed, morsels, "{name}: {stats:?}");
        assert_eq!(stats.segments_total, segments);
        if *name == "selective" {
            assert!(stats.segments_pruned > 0, "zone maps prune: {stats:?}");
            assert!(stats.rows_scanned < n);
        } else {
            assert_eq!(stats.rows_scanned, n, "{name}: {stats:?}");
        }
    }
    seen.extend(sealed.values().map(path_of));

    // A feedback dimension added after sealing: specs that do not read
    // it scan exactly as before; a spec that does is beyond the sealed
    // schema, and its morsels read the fact columns alone.
    let labels: Vec<Value> = (0..table.len())
        .map(|i| ["reviewed", "unreviewed", "flagged"][i % 3].into())
        .collect();
    wh.add_feedback_dimension("Review", "Flag", labels.clone())
        .unwrap();
    assert_eq!(run_deck(&wh, table, "sealed + feedback"), sealed);
    let mut schema = table.schema().clone();
    schema
        .push(FieldDef::nullable("Flag", DataType::Text))
        .unwrap();
    let flagged_rows = table.rows().iter().zip(labels).map(|(row, label)| {
        let mut values = row.values().to_vec();
        values.push(label);
        Record::new(values)
    });
    let flagged = Table::from_rows(schema, flagged_rows.collect()).unwrap();
    let by_flag = shape("by_flag", ["Flag", "Gender"], Agg::Avg("FBG"));
    let stats = run(&wh, &flagged, &by_flag, "sealed + feedback");
    assert_eq!(path_of(&stats), Path::FactColumns, "{stats:?}");
    assert_eq!(stats.rows_scanned, n);
    assert_eq!(stats.morsels_executed, fact_morsels(n), "{stats:?}");

    // A sealed prefix and an appended tail: morsels over the segments,
    // then one over the tail's 200 fact rows.
    let wh = sealed_with_tail(table);
    let tailed = run_deck(&wh, table, "sealed + tail");
    for (name, stats) in &tailed {
        assert_eq!(path_of(stats), Path::Segments, "{name}: {stats:?}");
        let morsels = morsels_over_segments(stats, 200);
        assert_eq!(stats.morsels_executed, morsels, "{name}: {stats:?}");
        assert_eq!(stats.segments_total, wh.segments().len() as u64);
        if *name == "selective" {
            assert!(stats.segments_pruned > 0, "the tail does not stop pruning");
            assert!((200..n).contains(&stats.rows_scanned), "{stats:?}");
        } else {
            assert_eq!(stats.rows_scanned, n, "{name} reads segments + tail");
        }
    }
    seen.extend(tailed.values().map(path_of));

    // A member no sealed row has: every tail row's activity is one the
    // sealed rows never saw, so those rows intern new tuples and a new
    // member. Grouped on, the sealed part still runs morsels and the
    // new member's cells come from the tail morsel; filtered on, the
    // zone maps prune every segment and the tail morsel alone answers.
    let n_rows = table.len();
    let novel = with_value(table, n_rows - 200..n_rows, "ActivityType", "curling");
    let wh = sealed_with_tail(&novel);
    let state = "sealed + novel tail";
    let by_activity = shape("by_activity", ["ActivityType", "Gender"], Agg::Count);
    let stats = run(&wh, &novel, &by_activity, state);
    assert_eq!(path_of(&stats), Path::Segments, "{stats:?}");
    let morsels = morsels_over_segments(&stats, 200);
    assert_eq!(stats.morsels_executed, morsels, "{stats:?}");
    assert_eq!(stats.rows_scanned, n);
    let only_tail = shape("only_tail", ["Age_Band", "Gender"], Agg::Avg("FBG"))
        .equals("ActivityType", "curling");
    let stats = run(&wh, &novel, &only_tail, state);
    assert_eq!(path_of(&stats), Path::Segments, "{stats:?}");
    assert_eq!(stats.segments_pruned, stats.segments_total, "{stats:?}");
    assert_eq!(
        stats.morsels_executed, 1,
        "nothing sealed survives: the tail morsel only"
    );
    assert_eq!(stats.rows_scanned, 200, "the tail only");

    assert_eq!(
        seen,
        BTreeSet::from([Path::FactColumns, Path::Segments]),
        "the matrix must read both kinds of columns"
    );
}

/// A slice of a built cube answers like the flat filter on the sliced
/// attribute: `Cube::slice` merges cells after the scan, so the
/// randomised deck below, which only builds, never reaches it.
#[test]
fn slice_answers_like_the_filter_it_stands_for() {
    let table = table();
    let query = Query {
        axes: vec!["Gender"],
        equals: vec![("VisitKind", "first".into())],
        between: vec![],
        agg: Agg::Count,
    };
    let want = oracle::answer(table, &query);
    assert!(!want.is_empty());
    let cube = Cube::build(&load(table), &CubeSpec::count(vec!["Gender", "VisitKind"])).unwrap();
    let sliced = cube.slice("VisitKind", &"first".into()).unwrap();
    oracle::assert_same_cells(&cube_cells(&sliced), &want, "slice VisitKind = first");
}

/// Numeric columns the randomised deck aggregates and filters on.
const MEASURES: [&str; 4] = ["FBG", "HbA1c", "BMI", "Age"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random specs on a random warehouse state — unsealed, sealed +
    /// tail, or rewritten since its compaction (so its segments cannot
    /// be used): one to three axes drawn with replacement from every
    /// attribute of the star (so same-dimension pairs and repeated
    /// axes occur), an optional `equals` on a value some row really
    /// has, an optional measure range, any aggregate — cell for cell
    /// against the oracle, always on the kernels.
    #[test]
    fn random_specs_run_on_the_kernels_and_match_the_oracle(
        state in 0..3usize,
        axes in proptest::collection::vec(0..30usize, 1..4),
        equals in proptest::option::of((0..30usize, 0..1_000_000usize)),
        between in proptest::option::of((0..4usize, 0.0..1.0f64, 0.0..1.0f64)),
        agg in (0..6usize, 0..4usize),
    ) {
        static WAREHOUSES: OnceLock<[Warehouse; 3]> = OnceLock::new();
        let table = table();
        let warehouses = WAREHOUSES.get_or_init(|| {
            let mut rewritten = sealed_with_tail(table);
            rewritten.bump_epoch();
            [load(table), sealed_with_tail(table), rewritten]
        });
        let wh = &warehouses[state];
        let attributes: Vec<&str> = (wh.star().dimensions.iter())
            .flat_map(|d| d.attributes.iter().map(String::as_str))
            .collect();
        prop_assert_eq!(attributes.len(), 30);
        let column = |name: &str| table.schema().index_of(name).unwrap();

        let mut query = Query {
            axes: axes.iter().map(|&a| attributes[a]).collect(),
            equals: vec![],
            between: vec![],
            agg: match agg {
                (0, _) => Agg::Count,
                (1, _) => Agg::Distinct("PatientId"),
                (2, m) => Agg::Sum(MEASURES[m]),
                (3, m) => Agg::Avg(MEASURES[m]),
                (4, m) => Agg::Min(MEASURES[m]),
                (_, m) => Agg::Max(MEASURES[m]),
            },
        };
        if let Some((a, row)) = equals {
            let row = &table.rows()[row % table.len()];
            query.equals.push((attributes[a], row.values()[column(attributes[a])].clone()));
        }
        if let Some((m, x, y)) = between {
            // A sub-range of the measure's observed span.
            let values = table.rows().iter().filter_map(|r| r.values()[column(MEASURES[m])].as_f64());
            let (min, max) = values.fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)));
            let at = |t: f64| min + t * (max - min);
            query.between.push((MEASURES[m], at(x.min(y)), at(x.max(y))));
        }

        let what = format!("{query:?}");
        let (cube, stats) = Cube::build_with_stats(wh, &spec_of(&query)).unwrap();
        oracle::assert_same_cells(&cube_cells(&cube), &oracle::answer(table, &query), &what);
        let path = if state == 1 { Path::Segments } else { Path::FactColumns };
        prop_assert_eq!(path_of(&stats), path, "{}: {:?}", what, stats);
        prop_assert!(stats.morsels_executed > 0, "{}: {:?}", what, stats);
    }
}
