//! Morsel iteration.
//!
//! Surviving segments are cut into fixed-size row ranges ("morsels")
//! and run through the kernels one after another on the calling
//! thread. A morsel never crosses a segment boundary, so each one is
//! a slice of a single decoded segment, and its size bounds the
//! working set of the selection and group-id scratch vectors.

use std::ops::Range;

/// Morsel size in rows: small enough that one morsel's columns and
/// scratch vectors stay cache-resident, large enough that per-morsel
/// overhead (slice, span) amortises to noise.
pub const DEFAULT_MORSEL_ROWS: usize = 64 * 1024;

/// A unit of scan work: a row range within one segment.
///
/// `segment` indexes the *caller's* survivor list (segments remaining
/// after zone-map pruning), not the global segment id space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Morsel {
    /// Index of the segment in the caller's survivor list.
    pub segment: usize,
    /// Row range within that segment.
    pub rows: Range<usize>,
}

/// Cut each segment's row count into morsels of at most `morsel_rows`
/// rows (clamped to ≥ 1), in segment order. Empty segments contribute
/// no morsels.
///
/// ```
/// use olap::kernels::morsels;
///
/// // Two segments of 100k and 30k rows, 64k-row morsels.
/// let cut: Vec<_> = morsels(&[100_000, 30_000], 64 * 1024)
///     .map(|m| (m.segment, m.rows))
///     .collect();
/// assert_eq!(cut, [(0, 0..65_536), (0, 65_536..100_000), (1, 0..30_000)]);
/// ```
pub fn morsels(segment_rows: &[usize], morsel_rows: usize) -> impl Iterator<Item = Morsel> + '_ {
    let step = morsel_rows.max(1);
    segment_rows
        .iter()
        .enumerate()
        .flat_map(move |(segment, &rows)| {
            (0..rows).step_by(step).map(move |start| Morsel {
                segment,
                rows: start..start.saturating_add(step).min(rows),
            })
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morsels_cover_every_row_exactly_once() {
        let mut seen = [vec![false; 10], vec![], vec![false; 25], vec![false; 7]];
        for m in morsels(&[10, 0, 25, 7], 8) {
            assert!(m.rows.end - m.rows.start <= 8);
            for r in m.rows {
                assert!(!seen[m.segment][r], "row visited twice");
                seen[m.segment][r] = true;
            }
        }
        assert!(seen.iter().flatten().all(|&b| b));
    }

    #[test]
    fn zero_morsel_rows_is_clamped() {
        assert_eq!(morsels(&[3], 0).count(), 3);
    }

    #[test]
    fn morsel_size_controls_granularity() {
        // 3 segments × 8 rows.
        let fine: Vec<_> = morsels(&[8, 8, 8], 4).map(|m| m.segment).collect();
        assert_eq!(fine, [0, 0, 1, 1, 2, 2], "8-row segments split into two");
        let coarse: Vec<_> = morsels(&[8, 8, 8], 1 << 20).collect();
        assert_eq!(coarse.len(), 3, "one morsel per segment");
        assert!(coarse.iter().all(|m| m.rows == (0..8)));
    }

    #[test]
    fn nothing_to_scan_yields_no_morsels() {
        assert_eq!(morsels(&[], DEFAULT_MORSEL_ROWS).count(), 0);
    }
}
