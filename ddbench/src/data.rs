//! Inputs: the seeded cohort, its transformed table, the tiling that
//! scales it, and the naive row loop every answer is checked against.

use crate::decks::{Measure, Query};
use clinical_types::{Record, Table, Value};
use olap::Aggregate;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;

/// Visits asked of the generator for the base cohort: about four times
/// the paper's trial.
pub const BASE_VISITS: usize = 8800;
/// The paper's own scale (§V: "over 2500" attendances).
pub const TRIAL_VISITS: usize = 2520;

/// Tile `t` shifts every `PatientId` by `t` times this, so distinct
/// counts scale with the data.
const PATIENT_STRIDE: i64 = 1_000_000;

/// The star has no calendar attribute, so each tile — one more
/// screening round of the same size — is labelled in this attribute.
/// It makes one deck query selective in a way zone maps can see.
pub const ROUND_ATTRIBUTE: &str = "ActivityType";

pub fn round_label(tile: usize) -> String {
    format!("round-{tile:02}")
}

pub fn generate_raw(seed: u64, visits: usize) -> Table {
    discri::generate(&discri::CohortConfig::scaled_to_visits(seed, visits)).attendances
}

pub fn transform(raw: &Table) -> Table {
    etl::TransformPipeline::discri_default()
        .run(raw)
        .expect("the generated cohort transforms")
        .0
}

type MeasureColumn = Rc<Vec<Option<f64>>>;

/// A transformed table seen as an endless sequence of tiles. Virtual
/// row `v` is base row `v % len` of tile `v / len`.
pub struct Tiled<'a> {
    base: &'a Table,
    patient_idx: usize,
    round_idx: usize,
    /// Columns the naive loop has read so far, rendered once.
    label_cache: RefCell<HashMap<String, Rc<Vec<String>>>>,
    measure_cache: RefCell<HashMap<String, MeasureColumn>>,
}

impl<'a> Tiled<'a> {
    pub fn new(base: &'a Table) -> Tiled<'a> {
        let index = |name: &str| {
            base.schema()
                .index_of(name)
                .unwrap_or_else(|_| panic!("transformed table lacks {name}"))
        };
        Tiled {
            base,
            patient_idx: index("PatientId"),
            round_idx: index(ROUND_ATTRIBUTE),
            label_cache: RefCell::default(),
            measure_cache: RefCell::default(),
        }
    }

    pub fn base_rows(&self) -> usize {
        self.base.len()
    }

    fn patient(&self, tile: usize, row: usize) -> i64 {
        let id = self.base.rows()[row].values()[self.patient_idx]
            .as_i64()
            .expect("PatientId is an integer");
        id + PATIENT_STRIDE * tile as i64
    }

    /// Virtual rows `start..end` as a table the warehouse can load or
    /// append.
    pub fn rows(&self, start: usize, end: usize) -> Table {
        let n = self.base_rows();
        let mut out = Table::with_schema(self.base.schema_arc());
        for v in start..end {
            let (tile, row) = (v / n, v % n);
            let mut values = self.base.rows()[row].values().to_vec();
            values[self.patient_idx] = Value::Int(self.patient(tile, row));
            values[self.round_idx] = Value::Text(round_label(tile));
            out.push_unchecked(Record::new(values));
        }
        out
    }

    pub fn tile(&self, tile: usize) -> Table {
        let n = self.base_rows();
        self.rows(tile * n, (tile + 1) * n)
    }

    fn column(&self, name: &str) -> usize {
        self.base
            .schema()
            .index_of(name)
            .unwrap_or_else(|_| panic!("transformed table lacks {name}"))
    }

    /// Labels of one attribute over the base rows (`None` for the
    /// round attribute, which depends on the tile).
    fn labels(&self, attribute: &str) -> Option<Rc<Vec<String>>> {
        if attribute == ROUND_ATTRIBUTE {
            return None;
        }
        let mut cache = self.label_cache.borrow_mut();
        let col = cache.entry(attribute.to_string()).or_insert_with(|| {
            let idx = self.column(attribute);
            let rows = self.base.rows().iter();
            Rc::new(rows.map(|r| r.values()[idx].to_string()).collect())
        });
        Some(Rc::clone(col))
    }

    fn measure(&self, name: &str) -> MeasureColumn {
        let mut cache = self.measure_cache.borrow_mut();
        let col = cache.entry(name.to_string()).or_insert_with(|| {
            let idx = self.column(name);
            let rows = self.base.rows().iter();
            Rc::new(rows.map(|r| r.values()[idx].as_f64()).collect())
        });
        Rc::clone(col)
    }
}

/// Cells of an answer: coordinates in axis order, rendered as the
/// labels the program prints.
pub type Cells = BTreeMap<Vec<String>, f64>;

#[derive(Default)]
struct Acc {
    rows: u64,
    valid: u64,
    sum: f64,
    min: f64,
    max: f64,
    patients: HashSet<i64>,
}

/// The reference answer to `query` over the first `n_rows` virtual
/// rows: one pass, one accumulator per cell, no pruning, no encoding.
/// A measure filter keeps rows whose value lies in `[lo, hi)`, as the
/// program documents it.
pub fn naive_answer(data: &Tiled<'_>, query: &Query, n_rows: usize) -> Cells {
    let n = data.base_rows();
    let rounds: Vec<String> = (0..n_rows.div_ceil(n)).map(round_label).collect();
    let mut label_cols: HashMap<&str, Option<Rc<Vec<String>>>> = HashMap::new();
    let filters: Vec<(&str, &str)> = query.filters().collect();
    for attr in query
        .axes
        .iter()
        .map(String::as_str)
        .chain(filters.iter().map(|(a, _)| *a))
    {
        label_cols.entry(attr).or_insert_with(|| data.labels(attr));
    }
    let label = |attr: &str, tile: usize, row: usize| -> &str {
        match &label_cols[attr] {
            Some(col) => &col[row],
            None => &rounds[tile],
        }
    };
    let between: Vec<(MeasureColumn, f64, f64)> = query
        .between
        .iter()
        .map(|(m, lo, hi)| (data.measure(m), *lo, *hi))
        .collect();
    let aggregated = match &query.measure {
        Measure::Agg(_, m) => Some(data.measure(m)),
        Measure::Count | Measure::DistinctPatients => None,
    };

    let mut cells: BTreeMap<Vec<String>, Acc> = BTreeMap::new();
    'rows: for v in 0..n_rows {
        let (tile, row) = (v / n, v % n);
        for (attr, wanted) in &filters {
            if label(attr, tile, row) != *wanted {
                continue 'rows;
            }
        }
        for (col, lo, hi) in &between {
            match col[row] {
                Some(x) if x >= *lo && x < *hi => {}
                _ => continue 'rows,
            }
        }
        let key: Vec<String> = query
            .axes
            .iter()
            .map(|a| label(a, tile, row).to_string())
            .collect();
        let acc = cells.entry(key).or_default();
        acc.rows += 1;
        if let Some(x) = aggregated.as_ref().and_then(|col| col[row]) {
            if acc.valid == 0 || x < acc.min {
                acc.min = x;
            }
            if acc.valid == 0 || x > acc.max {
                acc.max = x;
            }
            acc.valid += 1;
            acc.sum += x;
        }
        if query.measure == Measure::DistinctPatients {
            acc.patients.insert(data.patient(tile, row));
        }
    }
    cells
        .into_iter()
        .filter_map(|(key, acc)| {
            let value = match &query.measure {
                Measure::Count => Some(acc.rows as f64),
                Measure::DistinctPatients => Some(acc.patients.len() as f64),
                Measure::Agg(Aggregate::Count, _) => Some(acc.valid as f64),
                // The other aggregates have no value without a reading.
                Measure::Agg(_, _) if acc.valid == 0 => None,
                Measure::Agg(Aggregate::Sum, _) => Some(acc.sum),
                Measure::Agg(Aggregate::Avg, _) => Some(acc.sum / acc.valid as f64),
                Measure::Agg(Aggregate::Min, _) => Some(acc.min),
                Measure::Agg(Aggregate::Max, _) => Some(acc.max),
            };
            value.map(|v| (key, v))
        })
        .collect()
}

/// What a later result of the same query is checked by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    pub cells: usize,
    pub total: f64,
}

pub fn shape(cells: &Cells) -> Shape {
    Shape {
        cells: cells.len(),
        total: cells.values().sum(),
    }
}

/// Sums are accumulated in a different order by the program's
/// parallel and segmented scans, so values are compared to a relative
/// tolerance far below anything a wrong row would cause.
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

pub fn same_cells(got: &Cells, want: &Cells) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|((gk, gv), (wk, wv))| gk == wk && close(*gv, *wv))
}

pub fn same_shape(got: Shape, want: Shape) -> bool {
    got.cells == want.cells && close(got.total, want.total)
}

/// The populated cells of a pivot, keyed `[row label, column label]`.
pub fn pivot_cells(pivot: &olap::PivotTable) -> Cells {
    let mut cells = Cells::new();
    for (r, row) in pivot.cells.iter().enumerate() {
        for (c, cell) in row.iter().enumerate() {
            if let Some(v) = cell {
                cells.insert(
                    vec![
                        pivot.row_headers[r].to_string(),
                        pivot.col_headers[c].to_string(),
                    ],
                    *v,
                );
            }
        }
    }
    cells
}

pub fn pivot_shape(pivot: &olap::PivotTable) -> Shape {
    let mut shape = Shape {
        cells: 0,
        total: 0.0,
    };
    for v in pivot.cells.iter().flatten().flatten() {
        shape.cells += 1;
        shape.total += v;
    }
    shape
}

pub fn cube_cells<'c>(cells: impl Iterator<Item = (&'c Vec<Value>, f64)>) -> Cells {
    cells
        .map(|(coords, v)| (coords.iter().map(Value::to_string).collect(), v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decks;

    fn small_base() -> Table {
        transform(&discri::generate(&discri::CohortConfig::small(11)).attendances)
    }

    #[test]
    fn tiles_shift_patients_and_label_the_round() {
        let base = small_base();
        let data = Tiled::new(&base);
        let n = data.base_rows();
        let two = data.rows(n - 1, n + 1);
        assert_eq!(two.len(), 2);
        let pid = base.schema().index_of("PatientId").unwrap();
        let round = base.schema().index_of(ROUND_ATTRIBUTE).unwrap();
        assert_eq!(
            two.rows()[0].values()[round],
            Value::Text("round-00".into())
        );
        assert_eq!(
            two.rows()[1].values()[round],
            Value::Text("round-01".into())
        );
        assert_eq!(
            two.rows()[1].values()[pid].as_i64().unwrap(),
            base.rows()[0].values()[pid].as_i64().unwrap() + PATIENT_STRIDE
        );
        assert_eq!(data.tile(2).len(), n);
    }

    /// The naive loop against the program on a small tiled warehouse:
    /// every deck query of the scan workload, cell for cell.
    #[test]
    fn naive_answers_match_the_program() {
        let base = small_base();
        let data = Tiled::new(&base);
        let tiles = 3;
        let mut wh =
            warehouse::Warehouse::load(&warehouse::LoadPlan::discri_default(), &data.tile(0))
                .unwrap();
        for t in 1..tiles {
            wh.append(&data.tile(t)).unwrap();
        }
        let n_rows = tiles * data.base_rows();
        for entry in decks::scan_deck(1) {
            let want = naive_answer(&data, &entry.query, n_rows);
            assert!(!want.is_empty(), "{} selects nothing", entry.name);
            let got = if entry.as_cube {
                let (cube, _) = olap::Cube::build_with_stats(&wh, &entry.query.to_spec()).unwrap();
                cube_cells(cube.iter())
            } else {
                pivot_cells(&olap::execute_mdx(&wh, &entry.query.to_mdx()).unwrap())
            };
            assert!(
                same_cells(&got, &want),
                "{}: {got:?} != {want:?}",
                entry.name
            );
            assert!(same_shape(shape(&got), shape(&want)));
        }
    }
}
