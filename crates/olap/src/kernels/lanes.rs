//! Fixed-width aggregate lanes.
//!
//! Instead of a `HashMap<Vec<u32>, CellStats>` probed per row, the
//! vectorized path keeps one flat array ("lane") per statistic,
//! indexed by the slot from
//! [`GroupLayout`](crate::kernels::GroupLayout). Accumulation is then
//! `lane[slot] op= value` in a tight loop; only at finalisation do
//! occupied slots materialise into the [`CellStats`] accumulators
//! the rest of the engine understands — bit-for-bit equal to what
//! sequential [`CellStats::push`] calls would have produced, also on
//! top of a cell a slot was [seeded](AggLanes::seed) with.

use crate::aggregate::CellStats;
use clinical_types::Value;
use std::collections::HashSet;

/// Which lanes a build needs, mirroring
/// [`MeasureRef`](crate::MeasureRef).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneKind {
    /// Row counting only (`MeasureRef::RowCount`).
    Rows,
    /// Numeric measure lanes: valid / sum / min / max
    /// (`MeasureRef::Measure`).
    Measure,
    /// Distinct-value sets over a degenerate column
    /// (`MeasureRef::DistinctDegenerate`).
    Distinct,
}

/// Per-slot accumulator lanes for one build or patch.
///
/// ```
/// use olap::kernels::{AggLanes, LaneKind};
///
/// let mut lanes = AggLanes::new(LaneKind::Measure, 2);
/// let gids = [0u32, 1, 0];
/// let sel = [0u32, 1, 2];
/// let values = [5.0, 2.0, 7.0];
/// let valid = [true, true, false];
/// lanes.accumulate_measure(&gids, &sel, &values, &valid);
///
/// let cells = lanes.into_cells();
/// assert_eq!(cells.len(), 2);
/// let (gid0, stats0) = &cells[0];
/// assert_eq!(*gid0, 0);
/// assert_eq!(stats0.rows, 2);   // both rows routed to group 0
/// assert_eq!(stats0.valid, 1);  // but only one carried a value
/// assert_eq!(stats0.sum, 5.0);
/// ```
#[derive(Debug)]
pub struct AggLanes {
    kind: LaneKind,
    rows: Vec<u64>,
    valid: Vec<u64>,
    sum: Vec<f64>,
    min: Vec<f64>,
    max: Vec<f64>,
    distinct: Vec<HashSet<Value>>,
}

impl AggLanes {
    /// Allocate lanes for `slots` slots. Only the lanes `kind` needs
    /// are sized; the rest stay empty.
    pub fn new(kind: LaneKind, slots: usize) -> Self {
        let mut lanes = AggLanes {
            kind,
            rows: Vec::new(),
            valid: Vec::new(),
            sum: Vec::new(),
            min: Vec::new(),
            max: Vec::new(),
            distinct: Vec::new(),
        };
        lanes.grow(slots);
        lanes
    }

    /// Extend the lanes with empty slots up to `slots` (a no-op when
    /// they already reach that far).
    pub fn grow(&mut self, slots: usize) {
        if slots <= self.rows.len() {
            return;
        }
        self.rows.resize(slots, 0);
        if self.kind == LaneKind::Measure {
            self.valid.resize(slots, 0);
            self.sum.resize(slots, 0.0);
            self.min.resize(slots, 0.0);
            self.max.resize(slots, 0.0);
        }
        if self.kind == LaneKind::Distinct {
            self.distinct.resize_with(slots, HashSet::new);
        }
    }

    /// Start `slot` from an existing accumulator: rows folded in later
    /// continue it exactly as [`CellStats::push`] would, where merging a
    /// fresh accumulator into it would re-associate the sum.
    pub fn seed(&mut self, slot: u32, cell: &CellStats) {
        let g = slot as usize;
        if g >= self.rows.len() {
            return;
        }
        self.rows[g] = cell.rows;
        if self.kind == LaneKind::Measure {
            self.valid[g] = cell.valid;
            self.sum[g] = cell.sum;
            self.min[g] = cell.min;
            self.max[g] = cell.max;
        }
        if let (LaneKind::Distinct, Some(set)) = (self.kind, &cell.distinct) {
            self.distinct[g] = set.clone();
        }
    }

    /// Count one row per slot (the `RowCount` kernel).
    pub fn accumulate_rows(&mut self, gids: &[u32]) {
        for &g in gids {
            if let Some(r) = self.rows.get_mut(g as usize) {
                *r += 1;
            }
        }
    }

    /// Fold measure values in: `gids[i]` is the slot of selected row
    /// `sel[i]`, whose value is `values[sel[i]]` when
    /// `valid[sel[i]]`. Rows with missing values still count toward
    /// the group's row total, exactly like
    /// [`CellStats::push`]`(None, _)`.
    pub fn accumulate_measure(
        &mut self,
        gids: &[u32],
        sel: &[u32],
        values: &[f64],
        valid: &[bool],
    ) {
        debug_assert_eq!(self.kind, LaneKind::Measure);
        for (&g, &row) in gids.iter().zip(sel.iter()) {
            let (g, row) = (g as usize, row as usize);
            if g >= self.rows.len() || row >= values.len() {
                continue;
            }
            self.rows[g] += 1;
            if valid.get(row).copied().unwrap_or(false) {
                let x = values[row];
                if self.valid[g] == 0 {
                    self.min[g] = x;
                    self.max[g] = x;
                } else {
                    if x < self.min[g] {
                        self.min[g] = x;
                    }
                    if x > self.max[g] {
                        self.max[g] = x;
                    }
                }
                self.valid[g] += 1;
                self.sum[g] += x;
            }
        }
    }

    /// Fold degenerate values into per-slot distinct sets; every
    /// selected row also counts toward its slot's row total.
    pub fn accumulate_distinct(&mut self, gids: &[u32], sel: &[u32], values: &[Value]) {
        debug_assert_eq!(self.kind, LaneKind::Distinct);
        for (&g, &row) in gids.iter().zip(sel.iter()) {
            let (g, row) = (g as usize, row as usize);
            if g >= self.rows.len() {
                continue;
            }
            self.rows[g] += 1;
            if let Some(v) = values.get(row) {
                self.distinct[g].insert(v.clone());
            }
        }
    }

    /// Materialise occupied slots (row count > 0) into
    /// [`CellStats`], in ascending slot order.
    pub fn into_cells(self) -> Vec<(u32, CellStats)> {
        let AggLanes {
            kind,
            rows,
            valid,
            sum,
            min,
            max,
            mut distinct,
        } = self;
        let mut out = Vec::new();
        for (g, &r) in rows.iter().enumerate() {
            if r == 0 {
                continue;
            }
            let mut stats = CellStats::new(kind == LaneKind::Distinct);
            stats.rows = r;
            if kind == LaneKind::Measure {
                stats.valid = valid[g];
                stats.sum = sum[g];
                stats.min = min[g];
                stats.max = max[g];
            }
            if kind == LaneKind::Distinct {
                stats.distinct = Some(std::mem::take(&mut distinct[g]));
            }
            out.push((g as u32, stats));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push_reference(pushes: &[(u32, Option<f64>)], groups: usize) -> Vec<(u32, CellStats)> {
        let mut cells: Vec<CellStats> = vec![CellStats::new(false); groups];
        let mut touched = vec![false; groups];
        for &(g, v) in pushes {
            cells[g as usize].push(v, None);
            touched[g as usize] = true;
        }
        cells
            .into_iter()
            .enumerate()
            .filter(|(g, _)| touched[*g])
            .map(|(g, c)| (g as u32, c))
            .collect()
    }

    #[test]
    fn measure_lanes_match_cellstats_push() {
        let pushes = [
            (0u32, Some(5.0)),
            (1, None),
            (0, Some(-2.5)),
            (2, Some(0.0)),
            (0, None),
            (2, Some(f64::NAN)),
        ];
        let mut lanes = AggLanes::new(LaneKind::Measure, 4);
        let sel: Vec<u32> = (0..pushes.len() as u32).collect();
        let gids: Vec<u32> = pushes.iter().map(|p| p.0).collect();
        let values: Vec<f64> = pushes.iter().map(|p| p.1.unwrap_or(0.0)).collect();
        let valid: Vec<bool> = pushes.iter().map(|p| p.1.is_some()).collect();
        lanes.accumulate_measure(&gids, &sel, &values, &valid);

        let got = lanes.into_cells();
        let want = push_reference(&pushes, 4);
        assert_eq!(got.len(), want.len());
        for ((gg, gc), (wg, wc)) in got.iter().zip(want.iter()) {
            assert_eq!(gg, wg);
            assert_eq!(gc.rows, wc.rows);
            assert_eq!(gc.valid, wc.valid);
            assert_eq!(gc.sum.to_bits(), wc.sum.to_bits());
            assert_eq!(gc.min.to_bits(), wc.min.to_bits());
            assert_eq!(gc.max.to_bits(), wc.max.to_bits());
        }
    }

    #[test]
    fn nan_first_value_pins_min_max_like_push() {
        let mut lanes = AggLanes::new(LaneKind::Measure, 1);
        lanes.accumulate_measure(&[0, 0], &[0, 1], &[f64::NAN, 3.0], &[true, true]);
        let mut reference = CellStats::new(false);
        reference.push(Some(f64::NAN), None);
        reference.push(Some(3.0), None);
        let (_, got) = lanes.into_cells().remove(0);
        assert_eq!(got.min.to_bits(), reference.min.to_bits());
        assert_eq!(got.max.to_bits(), reference.max.to_bits());
    }

    #[test]
    fn distinct_lanes_collect_unique_values() {
        let mut lanes = AggLanes::new(LaneKind::Distinct, 2);
        let values = [Value::Int(1), Value::Int(2), Value::Int(1)];
        lanes.accumulate_distinct(&[0, 0, 1], &[0, 1, 2], &values);
        let cells = lanes.into_cells();
        assert_eq!(cells[0].1.rows, 2);
        assert_eq!(cells[0].1.distinct.as_ref().map(HashSet::len), Some(2));
        assert_eq!(cells[1].1.distinct.as_ref().map(HashSet::len), Some(1));
    }

    #[test]
    fn rows_lanes_count_per_group() {
        let mut lanes = AggLanes::new(LaneKind::Rows, 3);
        lanes.accumulate_rows(&[0, 2, 2, 0, 2]);
        let cells = lanes.into_cells();
        assert_eq!(cells, {
            let mut a = CellStats::new(false);
            a.rows = 2;
            let mut b = CellStats::new(false);
            b.rows = 3;
            vec![(0, a), (2, b)]
        });
    }

    #[test]
    fn a_seeded_slot_continues_its_cell_like_push() {
        let mut cell = CellStats::new(false);
        for x in [0.1, 0.2, 0.3] {
            cell.push(Some(x), None);
        }
        let mut lanes = AggLanes::new(LaneKind::Measure, 0);
        lanes.grow(2);
        lanes.seed(1, &cell);
        let (gids, sel, valid) = ([1, 1, 0], [0, 1, 2], [true, false, true]);
        lanes.accumulate_measure(&gids, &sel, &[0.4, 0.5, 9.0], &valid);
        cell.push(Some(0.4), None);
        cell.push(None, None);
        let cells = lanes.into_cells();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[1], (1, cell));
        assert_eq!(cells[0].1.sum, 9.0);
    }

    #[test]
    fn empty_lanes_yield_no_cells() {
        let lanes = AggLanes::new(LaneKind::Measure, 8);
        assert!(lanes.into_cells().is_empty());
    }
}
