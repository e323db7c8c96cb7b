//! Member-coded group-key composition.
//!
//! A cube axis is an attribute of a dictionary-coded dimension: every
//! fact row carries the dimension's surrogate key, and the dimension
//! table maps each key to the attribute's *member code* — the position
//! of the tuple's value among the attribute's distinct values. A group
//! key is therefore a small code tuple `(c₀, c₁, …)` whose domain is
//! the product of the axis attributes' member counts (a handful each),
//! however many keys the dimensions hold. The tuple collapses to one
//! integer by mixed-radix arithmetic —
//! `gid = c₀ + n₀·c₁ + n₀·n₁·c₂ + …` with `cᵢ = lutᵢ[keyᵢ]` — and
//! grouping becomes two array gathers instead of hashing per row.
//!
//! Lanes are indexed by *slot*: slot = gid on a dense layout; a sparse
//! one hands out slots to the ids it meets, in first-seen order.

use std::collections::HashMap;

/// Upper bound on a dense group domain (product of per-axis member
/// counts); beyond it lanes over the whole domain would cost more than
/// a hash map.
pub const MAX_DENSE_GROUPS: usize = 1 << 16;

/// Mixed-radix layout mapping member-code tuples to lane slots.
///
/// ```
/// use olap::kernels::GroupLayout;
///
/// // Two axes: Gender (2 members) and Age_Band (3 members), both
/// // attributes of one four-tuple dimension, so both read its keys.
/// let mut layout = GroupLayout::new(&[2, 3]).unwrap();
/// assert_eq!(layout.slots(), 6);
///
/// let keys = [0u32, 3, 1];
/// let gender_of_key = [0u32, 1, 0, 1];
/// let age_of_key = [2u32, 1, 0, 0];
/// let sel = [0u32, 1, 2]; // all three rows selected
/// let mut slots = Vec::new();
/// layout.compose(&[(&keys, &gender_of_key), (&keys, &age_of_key)], &sel, &mut slots);
/// assert_eq!(slots, vec![4, 1, 3]); // dense: slot = gender + 2 * age
/// assert_eq!(layout.decode(4), vec![0, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct GroupLayout {
    cardinalities: Vec<u32>,
    strides: Vec<u64>,
    /// Sparse layouts only: group id → slot, for the ids met so far.
    slot_of: Option<HashMap<u64, u32>>,
    /// Sparse layouts only: slot → group id.
    gids: Vec<u64>,
}

impl GroupLayout {
    /// Layout over per-axis member counts (each axis's codes must lie
    /// in `0..cardinality`): dense when the domain fits
    /// [`MAX_DENSE_GROUPS`], sparse otherwise. `None` only when the
    /// domain overflows `u64`.
    pub fn new(cardinalities: &[u32]) -> Option<Self> {
        let mut layout = GroupLayout::sparse(cardinalities)?;
        if layout.domain() <= MAX_DENSE_GROUPS as u64 {
            layout.slot_of = None;
        }
        Some(layout)
    }

    /// A layout that hands out slots on first sight whatever the
    /// domain size — for folding a few rows, where lanes over the
    /// whole domain would cost more than the rows.
    pub fn sparse(cardinalities: &[u32]) -> Option<Self> {
        let mut strides = Vec::with_capacity(cardinalities.len());
        let mut domain: u64 = 1;
        // An attribute without members has no key either, so no row
        // reaches its axis; a radix of 1 keeps the arithmetic total.
        let cardinalities: Vec<u32> = cardinalities.iter().map(|&c| c.max(1)).collect();
        for &card in &cardinalities {
            strides.push(domain);
            domain = domain.checked_mul(u64::from(card))?;
        }
        Some(GroupLayout {
            cardinalities,
            strides,
            slot_of: Some(HashMap::new()),
            gids: Vec::new(),
        })
    }

    /// Size of the group-id domain.
    fn domain(&self) -> u64 {
        self.cardinalities.iter().map(|&c| u64::from(c)).product()
    }

    /// Slots a lane needs: the whole domain when dense, the group ids
    /// met so far when sparse.
    #[inline]
    pub fn slots(&self) -> usize {
        match self.slot_of {
            None => self.domain() as usize,
            Some(_) => self.gids.len(),
        }
    }

    /// Compose the slots of the selected rows.
    ///
    /// `axes` holds per axis (same order as the cardinalities given to
    /// [`GroupLayout::new`]) the full-morsel key slice and the
    /// key → member code table, whose codes must all be below that
    /// axis's cardinality; `sel` is the selection vector of surviving
    /// row indices. One slot is appended to `out` per selected row,
    /// in selection order. A row whose key has no entry in the table
    /// gets `u32::MAX` — outside every lane, so the lanes drop it
    /// rather than count it in some other cell; a caller that must not
    /// lose rows checks its key range against the table first.
    pub fn compose(&mut self, axes: &[(&[u32], &[u32])], sel: &[u32], out: &mut Vec<u32>) {
        let start = out.len();
        out.resize(start + sel.len(), 0);
        let out = &mut out[start..];
        let code = |&(keys, lut): &(&[u32], &[u32]), row: u32| {
            keys.get(row as usize)
                .and_then(|&k| lut.get(k as usize).copied())
        };
        let Some(slot_of) = &mut self.slot_of else {
            // Dense: the domain fits `u32`, so the ids are the slots.
            for (axis, &stride) in axes.iter().zip(&self.strides) {
                for (gid, &row) in out.iter_mut().zip(sel) {
                    let term =
                        code(axis, row).map_or(u32::MAX, |c| (stride as u32).saturating_mul(c));
                    *gid = gid.saturating_add(term);
                }
            }
            return;
        };
        for (slot, &row) in out.iter_mut().zip(sel) {
            let mut gid = Some(0u64);
            for (axis, &stride) in axes.iter().zip(&self.strides) {
                gid = gid
                    .zip(code(axis, row))
                    .map(|(g, c)| g + stride * u64::from(c));
            }
            *slot = gid.map_or(u32::MAX, |gid| {
                *slot_of.entry(gid).or_insert_with(|| {
                    self.gids.push(gid);
                    (self.gids.len() - 1) as u32
                })
            });
        }
    }

    /// Recover the per-axis member codes of a slot (used once per
    /// *group* at finalisation, never per row).
    pub fn decode(&self, slot: u32) -> Vec<u32> {
        let mut rest = match self.slot_of {
            None => u64::from(slot),
            Some(_) => self.gids.get(slot as usize).copied().unwrap_or(0),
        };
        let mut codes = Vec::with_capacity(self.cardinalities.len());
        for &card in &self.cardinalities {
            codes.push((rest % u64::from(card)) as u32);
            rest /= u64::from(card);
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
        let mut layout = GroupLayout::new(&[3, 4, 5]).unwrap();
        assert_eq!(layout.slots(), 60);
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
        let mut layout = GroupLayout::new(&[]).unwrap();
        assert_eq!(layout.slots(), 1);
        let mut out = Vec::new();
        layout.compose(&[], &[0, 1, 2], &mut out);
        assert_eq!(out, vec![0, 0, 0]);
        assert_eq!(layout.decode(0), Vec::<u32>::new());
    }

    #[test]
    fn oversized_domain_is_rejected() {
        // Only a domain past `u64` is refused; past the dense cap the
        // layout turns sparse and starts with no slot.
        assert!(GroupLayout::new(&[u32::MAX, u32::MAX, u32::MAX]).is_none());
        assert_eq!(GroupLayout::new(&[1 << 16]).unwrap().slots(), 1 << 16);
        assert_eq!(GroupLayout::new(&[1 << 10, 1 << 10]).unwrap().slots(), 0);
        assert_eq!(GroupLayout::new(&[4, 0]).unwrap().slots(), 4);
    }

    #[test]
    fn sparse_slots_follow_first_sight_and_persist_across_calls() {
        let mut layout = GroupLayout::new(&[1000, 1000]).unwrap();
        let (a, b) = ([7u32, 999, 7, 3], [500u32, 0, 500, 999]);
        let lut = identity(1000);
        let mut out = Vec::new();
        layout.compose(&[(&a, &lut), (&b, &lut)], &[0, 1, 2], &mut out);
        assert_eq!(out, vec![0, 1, 0]);
        layout.compose(&[(&a, &lut), (&b, &lut)], &[3, 0], &mut out);
        assert_eq!(out, vec![0, 1, 0, 2, 0]);
        assert_eq!(layout.slots(), 3);
        assert_eq!(layout.decode(0), vec![7, 500]);
        assert_eq!(layout.decode(2), vec![3, 999]);
    }

    #[test]
    fn compose_follows_selection_order_and_appends() {
        let mut layout = GroupLayout::new(&[4]).unwrap();
        let keys = [3u32, 1, 2, 0];
        let mut out = vec![9];
        layout.compose(&[(&keys, &identity(4))], &[3, 0, 1], &mut out);
        assert_eq!(out, vec![9, 0, 3, 1]);
    }

    #[test]
    fn keys_without_a_code_fall_outside_every_domain() {
        let (a, b) = ([1u32, 7, 0], [0u32, 1, 1]);
        let lut = identity(2);
        for mut layout in
            [GroupLayout::new(&[2, 2]), GroupLayout::sparse(&[2, 2])].map(Option::unwrap)
        {
            let mut out = Vec::new();
            // Row 1's first key is past the table; row 5 is past the keys.
            layout.compose(&[(&a, &lut), (&b, &lut)], &[0, 1, 2, 5], &mut out);
            assert_eq!(out[1], u32::MAX);
            assert_eq!(out[3], u32::MAX);
            assert_eq!(layout.decode(out[0]), vec![1, 0]);
            assert_eq!(layout.decode(out[2]), vec![0, 1]);
        }
    }

    proptest! {
        /// Against the definition, row by row: two key columns, three
        /// axes of which two read the *same* column through different
        /// tables, a random selection — on the dense layout and on the
        /// sparse one.
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
            let axes = [(&k0[..], &lut_a[..]), (&k0[..], &lut_b[..]), (&k1[..], &lut_c[..])];
            let mut dense = GroupLayout::new(&[5, 3, 7]).unwrap();
            let mut sparse = GroupLayout::sparse(&[5, 3, 7]).unwrap();
            let (mut got, mut slots) = (Vec::new(), Vec::new());
            dense.compose(&axes, &sel, &mut got);
            sparse.compose(&axes, &sel, &mut slots);
            for ((&row, &gid), &slot) in sel.iter().zip(&got).zip(&slots) {
                let (x, y) = (k0[row as usize] as usize, k1[row as usize] as usize);
                prop_assert_eq!(gid, lut_a[x] + 5 * lut_b[x] + 15 * lut_c[y]);
                prop_assert_eq!(dense.decode(gid), vec![lut_a[x], lut_b[x], lut_c[y]]);
                prop_assert_eq!(sparse.decode(slot), vec![lut_a[x], lut_b[x], lut_c[y]]);
            }
            prop_assert_eq!(got.len(), sel.len());
            prop_assert_eq!(slots.len(), sel.len());
        }
    }
}
