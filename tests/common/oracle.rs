//! The naive oracle: one pass over the rows of the *transformed
//! table* the warehouse was loaded from, one accumulator per cell. It
//! knows nothing of dimensions, surrogate keys, segments, zone maps or
//! kernels — and imports nothing from `olap` — so whatever path the
//! engine takes, this is what it must have computed.

// Compiled into each test crate that includes it; none uses all of it.
#![allow(dead_code)]

use clinical_types::{Table, Value};
use std::collections::{HashMap, HashSet};

/// What each cell holds.
#[derive(Debug, Clone, Copy)]
pub enum Agg<'a> {
    /// Rows in the cell.
    Count,
    /// Distinct values of a column over the cell's rows.
    Distinct(&'a str),
    /// Over the cell's non-missing values of a numeric column; a cell
    /// with none has no answer.
    Sum(&'a str),
    Avg(&'a str),
    Min(&'a str),
    Max(&'a str),
}

/// Filter → group by axis values → aggregate.
#[derive(Debug, Clone)]
pub struct Query<'a> {
    pub axes: Vec<&'a str>,
    /// `column = value`, all of which must hold.
    pub equals: Vec<(&'a str, Value)>,
    /// `lo <= column < hi` on a non-missing numeric value.
    pub between: Vec<(&'a str, f64, f64)>,
    pub agg: Agg<'a>,
}

pub type Cells = HashMap<Vec<Value>, f64>;

pub fn answer(table: &Table, query: &Query<'_>) -> Cells {
    let col = |name: &str| table.schema().index_of(name).unwrap();
    let axes: Vec<usize> = query.axes.iter().map(|a| col(a)).collect();
    let equals: Vec<(usize, &Value)> = query.equals.iter().map(|(a, v)| (col(a), v)).collect();
    let between: Vec<(usize, f64, f64)> = query
        .between
        .iter()
        .map(|(m, lo, hi)| (col(m), *lo, *hi))
        .collect();
    let input = match query.agg {
        Agg::Count => None,
        Agg::Distinct(c) | Agg::Sum(c) | Agg::Avg(c) | Agg::Min(c) | Agg::Max(c) => Some(col(c)),
    };

    // Per cell: how many rows, and their values of the input column.
    let mut groups: HashMap<Vec<Value>, (usize, Vec<&Value>)> = HashMap::new();
    for row in table.rows().iter().map(|r| r.values()) {
        let passes = equals.iter().all(|(c, v)| &row[*c] == *v)
            && between
                .iter()
                .all(|(c, lo, hi)| row[*c].as_f64().is_some_and(|x| x >= *lo && x < *hi));
        if passes {
            let key = axes.iter().map(|&c| row[c].clone()).collect();
            let (rows, values) = groups.entry(key).or_default();
            *rows += 1;
            values.extend(input.map(|c| &row[c]));
        }
    }
    groups
        .into_iter()
        .filter_map(|(key, (rows, values))| {
            let xs: Vec<f64> = values.iter().filter_map(|v| v.as_f64()).collect();
            let value = match query.agg {
                Agg::Count => Some(rows as f64),
                Agg::Distinct(_) => Some(values.iter().collect::<HashSet<_>>().len() as f64),
                _ if xs.is_empty() => None,
                Agg::Sum(_) => Some(xs.iter().sum()),
                Agg::Avg(_) => Some(xs.iter().sum::<f64>() / xs.len() as f64),
                Agg::Min(_) => xs.iter().copied().reduce(f64::min),
                Agg::Max(_) => xs.iter().copied().reduce(f64::max),
            };
            value.map(|v| (key, v))
        })
        .collect()
}

/// Cell-for-cell agreement: the same coordinates, and values equal up
/// to the rounding a different summation order can introduce (sealed
/// rows are sorted, so the engine adds a cell's values in another
/// order than the table lists them). Counts, minima and maxima are
/// exact either way.
pub fn assert_same_cells(got: &Cells, want: &Cells, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: {got:?} != {want:?}");
    for (key, w) in want {
        let g = got
            .get(key)
            .unwrap_or_else(|| panic!("{what}: no cell {key:?}"));
        assert!(
            (g - w).abs() <= 1e-9 * w.abs().max(1.0),
            "{what}: cell {key:?} is {g}, the oracle says {w}"
        );
    }
}
