//! Selection-bitmap filter kernels.
//!
//! Predicates over a column slice are evaluated 64 rows at a time into
//! a packed bitmap, then conjoined word-wise (`AND`). Only after every
//! predicate has folded in is the bitmap expanded to a selection
//! vector of surviving row indices, so rows rejected by the first
//! filter never reach the second — without a single per-row branch in
//! the loop body.

/// Packed membership table over a dictionary-coded key domain.
///
/// A `KeyLut` answers "is surrogate key `k` in the filter set?" with a
/// single shift-and-mask where a row-at-a-time scan would probe a
/// `BTreeSet`. Keys at or beyond the domain are never members.
///
/// ```
/// use olap::kernels::KeyLut;
///
/// let lut = KeyLut::new(10, [2u32, 5, 9]);
/// assert!(lut.contains(5));
/// assert!(!lut.contains(3));
/// assert!(!lut.contains(64)); // outside the domain
/// ```
#[derive(Debug, Clone)]
pub struct KeyLut {
    bits: Vec<u64>,
    domain: u32,
}

impl KeyLut {
    /// Build a table over keys `0..domain`, setting membership for
    /// every key yielded by `allowed` (out-of-domain keys are ignored).
    pub fn new(domain: u32, allowed: impl IntoIterator<Item = u32>) -> Self {
        let words = (domain as usize).div_ceil(64);
        let mut bits = vec![0u64; words];
        for key in allowed {
            if key < domain {
                bits[key as usize / 64] |= 1u64 << (key % 64);
            }
        }
        KeyLut { bits, domain }
    }

    /// Membership probe: one shift, one mask, no search.
    #[inline]
    pub fn contains(&self, key: u32) -> bool {
        key < self.domain && (self.bits[key as usize / 64] >> (key % 64)) & 1 == 1
    }
}

/// One bit per row of a morsel: set means the row survives every
/// predicate folded in so far.
///
/// Bitmaps start with all rows selected ([`SelectionBitmap::all`])
/// and narrow monotonically as predicates are `AND`ed in. The final
/// step converts set bits to a selection vector of row indices for
/// the grouping kernel.
///
/// ```
/// use olap::kernels::{KeyLut, SelectionBitmap};
///
/// let keys = [0u32, 1, 0, 2, 1, 0];
/// let mut sel = SelectionBitmap::all(keys.len());
/// sel.and_key_in(&keys, &KeyLut::new(3, [0u32, 2]));
/// assert_eq!(sel.count(), 4);
///
/// let mut rows = Vec::new();
/// sel.collect_into(&mut rows);
/// assert_eq!(rows, vec![0, 2, 3, 5]);
/// ```
#[derive(Debug, Clone)]
pub struct SelectionBitmap {
    words: Vec<u64>,
    len: usize,
}

impl SelectionBitmap {
    /// Bitmap of `len` rows, all selected. Trailing bits of the last
    /// word stay clear so popcounts and expansion need no epilogue.
    pub fn all(len: usize) -> Self {
        let n_words = len.div_ceil(64);
        let mut words = vec![u64::MAX; n_words];
        let tail = len % 64;
        if tail != 0 {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << tail) - 1;
            }
        }
        SelectionBitmap { words, len }
    }

    /// Number of rows the bitmap covers.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap covers zero rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Surviving-row count (popcount over the words).
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether row `i` is still selected.
    #[inline]
    pub fn is_set(&self, i: usize) -> bool {
        i < self.len && (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// `AND` in a dictionary-membership predicate: row `i` survives
    /// only if `lut.contains(keys[i])`. `keys` must cover every row
    /// (`keys.len() >= self.len()`); extra entries are ignored.
    pub fn and_key_in(&mut self, keys: &[u32], lut: &KeyLut) {
        let n = self.len.min(keys.len());
        for (w, chunk) in self.words.iter_mut().zip(keys[..n].chunks(64)) {
            let mut mask = 0u64;
            for (bit, &k) in chunk.iter().enumerate() {
                mask |= (lut.contains(k) as u64) << bit;
            }
            *w &= mask;
        }
    }

    /// `AND` in a measure-range predicate: row `i` survives only if
    /// the value is valid (non-missing) and in the half-open range
    /// `lo <= values[i] < hi` (the [`CubeFilter::measure_between`]
    /// convention). Comparisons are computed unconditionally and
    /// folded into the mask, so the loop body carries no
    /// data-dependent branch.
    ///
    /// [`CubeFilter::measure_between`]: crate::CubeFilter::measure_between
    pub fn and_measure_between(&mut self, values: &[f64], valid: &[bool], lo: f64, hi: f64) {
        let n = self.len.min(values.len()).min(valid.len());
        for ((w, vals), oks) in self
            .words
            .iter_mut()
            .zip(values[..n].chunks(64))
            .zip(valid[..n].chunks(64))
        {
            let mut mask = 0u64;
            for (bit, (&x, &ok)) in vals.iter().zip(oks.iter()).enumerate() {
                let hit = ok & (x >= lo) & (x < hi);
                mask |= (hit as u64) << bit;
            }
            *w &= mask;
        }
    }

    /// Expand set bits into row indices, appending to `out` in
    /// ascending order. `out` is not cleared first, so a caller can
    /// reuse one scratch vector across morsels.
    pub fn collect_into(&self, out: &mut Vec<u32>) {
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros();
                out.push((wi * 64) as u32 + bit);
                w &= w - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_masks_trailing_bits() {
        let sel = SelectionBitmap::all(70);
        assert_eq!(sel.count(), 70);
        assert!(sel.is_set(69));
        assert!(!sel.is_set(70));

        let exact = SelectionBitmap::all(64);
        assert_eq!(exact.count(), 64);

        let empty = SelectionBitmap::all(0);
        assert_eq!(empty.count(), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn key_filter_matches_scalar_probe() {
        let keys: Vec<u32> = (0..200).map(|i| (i * 7) % 11).collect();
        let allowed = [1u32, 4, 9];
        let lut = KeyLut::new(11, allowed.iter().copied());
        let mut sel = SelectionBitmap::all(keys.len());
        sel.and_key_in(&keys, &lut);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(sel.is_set(i), allowed.contains(&k), "row {i}");
        }
    }

    #[test]
    fn measure_filter_requires_validity_and_range() {
        let values = [1.0, 5.0, 3.0, f64::NAN, 2.5];
        let valid = [true, true, false, true, true];
        let mut sel = SelectionBitmap::all(values.len());
        sel.and_measure_between(&values, &valid, 2.0, 5.0);
        // row 0: below the range; row 1: at the (exclusive) upper
        // bound; row 2: invalid; row 3: NaN fails both comparisons;
        // only row 4 survives.
        let mut rows = Vec::new();
        sel.collect_into(&mut rows);
        assert_eq!(rows, vec![4]);
    }

    #[test]
    fn predicates_conjoin() {
        let keys = [0u32, 1, 0, 1, 0, 1];
        let values = [1.0, 1.0, 9.0, 9.0, 1.0, 9.0];
        let valid = [true; 6];
        let mut sel = SelectionBitmap::all(6);
        sel.and_key_in(&keys, &KeyLut::new(2, [1u32]));
        sel.and_measure_between(&values, &valid, 0.0, 5.0);
        let mut rows = Vec::new();
        sel.collect_into(&mut rows);
        assert_eq!(rows, vec![1]);
    }

    #[test]
    fn collect_appends_without_clearing() {
        let sel = SelectionBitmap::all(3);
        let mut rows = vec![99u32];
        sel.collect_into(&mut rows);
        assert_eq!(rows, vec![99, 0, 1, 2]);
    }

    #[test]
    fn lut_handles_empty_domain() {
        let lut = KeyLut::new(0, std::iter::empty());
        assert!(!lut.contains(0));
    }
}
