//! Member-coded group-key composition.
//!
//! A cube axis is an attribute of a dictionary-coded dimension: every
//! fact row carries the dimension's surrogate key, and the dimension
//! table maps each key to the attribute's *member code* — the position
//! of the tuple's value among the attribute's distinct values. A group
//! key is therefore a small code tuple `(c₀, c₁, …)` whose domain is
//! the product of the axis attributes' member counts (a handful each),
//! however many keys the dimensions hold. The tuple collapses to one
//! dense integer by mixed-radix arithmetic —
//! `gid = c₀ + n₀·c₁ + n₀·n₁·c₂ + …` with `cᵢ = lutᵢ[keyᵢ]` — and
//! grouping becomes two array gathers instead of hashing per row.

/// Upper bound on the dense group domain (product of per-axis
/// member counts). Beyond this the flat accumulator lanes would waste
/// more memory than a hash map costs, so callers group some other way.
pub const MAX_DENSE_GROUPS: usize = 1 << 16;

/// Mixed-radix layout mapping member-code tuples to dense group ids.
///
/// ```
/// use olap::kernels::GroupLayout;
///
/// // Two axes: Gender (2 members) and Age_Band (3 members), both
/// // attributes of one four-tuple dimension, so both read its keys.
/// let layout = GroupLayout::try_new(&[2, 3]).unwrap();
/// assert_eq!(layout.groups(), 6);
///
/// let keys = [0u32, 3, 1];
/// let gender_of_key = [0u32, 1, 0, 1];
/// let age_of_key = [2u32, 1, 0, 0];
/// let sel = [0u32, 1, 2]; // all three rows selected
/// let mut gids = Vec::new();
/// layout.compose(&[(&keys, &gender_of_key), (&keys, &age_of_key)], &sel, &mut gids);
/// assert_eq!(gids, vec![4, 1, 3]); // gid = gender + 2 * age
///
/// assert_eq!(layout.decode(4), vec![0, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct GroupLayout {
    cardinalities: Vec<u32>,
    strides: Vec<u32>,
    groups: usize,
}

impl GroupLayout {
    /// Build a layout from per-axis member counts (each axis's codes
    /// must lie in `0..cardinality`). Returns `None` when any axis is
    /// empty or the dense domain would exceed [`MAX_DENSE_GROUPS`].
    pub fn try_new(cardinalities: &[u32]) -> Option<Self> {
        let mut strides = Vec::with_capacity(cardinalities.len());
        let mut groups: usize = 1;
        for &card in cardinalities {
            if card == 0 {
                return None;
            }
            strides.push(groups as u32);
            groups = groups.checked_mul(card as usize)?;
            if groups > MAX_DENSE_GROUPS {
                return None;
            }
        }
        Some(GroupLayout {
            cardinalities: cardinalities.to_vec(),
            strides,
            groups,
        })
    }

    /// Size of the dense group domain.
    #[inline]
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Compose dense group ids for the selected rows.
    ///
    /// `axes` holds per axis (same order as the cardinalities given to
    /// [`GroupLayout::try_new`]) the full-morsel key slice and the
    /// key → member code table, whose codes must all be below that
    /// axis's cardinality; `sel` is the selection vector of surviving
    /// row indices. One `gid` is appended to `out` per selected row,
    /// in selection order. A row whose key has no entry in the table
    /// gets `u32::MAX` — outside every domain, so the lanes drop it
    /// rather than count it in some other cell; a caller that must not
    /// lose rows checks its key range against the table first.
    pub fn compose(&self, axes: &[(&[u32], &[u32])], sel: &[u32], out: &mut Vec<u32>) {
        let start = out.len();
        out.resize(start + sel.len(), 0);
        for (&(keys, lut), &stride) in axes.iter().zip(&self.strides) {
            for (gid, &row) in out[start..].iter_mut().zip(sel) {
                let code = keys.get(row as usize).and_then(|&k| lut.get(k as usize));
                let term = code.map_or(u32::MAX, |&c| stride.saturating_mul(c));
                *gid = gid.saturating_add(term);
            }
        }
    }

    /// Recover the per-axis member codes of a dense group id (used
    /// once per *group* at finalisation, never per row).
    pub fn decode(&self, gid: u32) -> Vec<u32> {
        let mut codes = Vec::with_capacity(self.cardinalities.len());
        let mut rest = gid as usize;
        for &card in &self.cardinalities {
            codes.push((rest % card as usize) as u32);
            rest /= card as usize;
        }
        codes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Identity table: member code = key.
    fn identity(n: u32) -> Vec<u32> {
        (0..n).collect()
    }

    #[test]
    fn compose_and_decode_round_trip() {
        let layout = GroupLayout::try_new(&[3, 4, 5]).unwrap();
        assert_eq!(layout.groups(), 60);
        let lut = identity(5);
        for gid in 0..60u32 {
            let codes = layout.decode(gid);
            let axes: Vec<(&[u32], &[u32])> = codes
                .iter()
                .map(|c| (std::slice::from_ref(c), lut.as_slice()))
                .collect();
            let mut out = Vec::new();
            layout.compose(&axes, &[0], &mut out);
            assert_eq!(out, vec![gid]);
        }
    }

    #[test]
    fn zero_axes_is_a_single_group() {
        let layout = GroupLayout::try_new(&[]).unwrap();
        assert_eq!(layout.groups(), 1);
        let mut out = Vec::new();
        layout.compose(&[], &[0, 1, 2], &mut out);
        assert_eq!(out, vec![0, 0, 0]);
        assert_eq!(layout.decode(0), Vec::<u32>::new());
    }

    #[test]
    fn oversized_domain_is_rejected() {
        assert!(GroupLayout::try_new(&[1 << 10, 1 << 10]).is_none());
        assert!(GroupLayout::try_new(&[u32::MAX, u32::MAX]).is_none());
        assert!(GroupLayout::try_new(&[4, 0]).is_none());
        assert!(GroupLayout::try_new(&[1 << 16]).is_some());
    }

    #[test]
    fn compose_follows_selection_order_and_appends() {
        let layout = GroupLayout::try_new(&[4]).unwrap();
        let keys = [3u32, 1, 2, 0];
        let mut out = vec![9];
        layout.compose(&[(&keys, &identity(4))], &[3, 0, 1], &mut out);
        assert_eq!(out, vec![9, 0, 3, 1]);
    }

    #[test]
    fn keys_without_a_code_fall_outside_every_domain() {
        let layout = GroupLayout::try_new(&[2, 2]).unwrap();
        let (a, b) = ([1u32, 7, 0], [0u32, 1, 1]);
        let lut = identity(2);
        let mut out = Vec::new();
        // Row 1's first key is past the table; row 5 is past the keys.
        layout.compose(&[(&a, &lut), (&b, &lut)], &[0, 1, 2, 5], &mut out);
        assert_eq!(out, vec![1, u32::MAX, 2, u32::MAX]);
    }

    proptest! {
        /// Against the definition, row by row: two key columns, three
        /// axes of which two read the *same* column through different
        /// tables, a random selection.
        #[test]
        fn compose_with_luts_matches_the_naive_sum(
            rows in proptest::collection::vec((0..40u32, 0..9u32), 1..200),
            lut_a in proptest::collection::vec(0..5u32, 40),
            lut_b in proptest::collection::vec(0..3u32, 40),
            lut_c in proptest::collection::vec(0..7u32, 9),
            picks in proptest::collection::vec(0..200u32, 0..64),
        ) {
            let (k0, k1): (Vec<u32>, Vec<u32>) = rows.into_iter().unzip();
            let sel: Vec<u32> = picks.into_iter().filter(|&r| (r as usize) < k0.len()).collect();
            let layout = GroupLayout::try_new(&[5, 3, 7]).unwrap();
            let mut got = Vec::new();
            layout.compose(&[(&k0, &lut_a), (&k0, &lut_b), (&k1, &lut_c)], &sel, &mut got);
            for (&row, &gid) in sel.iter().zip(&got) {
                let (x, y) = (k0[row as usize] as usize, k1[row as usize] as usize);
                prop_assert_eq!(gid, lut_a[x] + 5 * lut_b[x] + 15 * lut_c[y]);
                prop_assert_eq!(layout.decode(gid), vec![lut_a[x], lut_b[x], lut_c[y]]);
            }
            prop_assert_eq!(got.len(), sel.len());
        }
    }
}
