//! Vectorized execution kernels: the branch-light columnar engine
//! behind every cube build and delta patch.
//!
//! A row-at-a-time scan pays, per row, a set probe for every attribute
//! filter, a group-key allocation and a hash into a cell map. Over
//! sealed segments and fact-table columns alike these kernels replace
//! that loop with three passes
//! over dense column slices, each a tight loop over flat fixed-width
//! arrays the optimiser can unroll and auto-vectorize:
//!
//! 1. **Filter** ([`filter`]) — every predicate folds into a
//!    [`SelectionBitmap`] (one bit per row): dictionary filters
//!    become a [`KeyLut`] probe, measure ranges a branchless
//!    compare-and-mask. The bitmap then yields a selection vector of
//!    surviving row indices.
//! 2. **Group** ([`group`]) — surviving rows are assigned lane slots
//!    by a [`GroupLayout`]: each axis maps the row's surrogate key to
//!    its attribute's member code through a small table, and the codes
//!    compose by mixed-radix arithmetic (`gid = c₀ + n₀·c₁ + …`), so
//!    grouping is two gathers and integer math. A domain (the product
//!    of the axis attributes' member counts) that fits
//!    [`group::MAX_DENSE_GROUPS`] uses the id as the slot; a larger one
//!    hashes ids to slots on first sight.
//! 3. **Aggregate** ([`lanes`]) — one flat accumulator lane per
//!    statistic (row count, valid count, sum, min, max, distinct
//!    set), indexed by slot. Lanes finalize into the exact
//!    [`crate::CellStats`] accumulators sequential pushes would
//!    produce, so every downstream operator (roll-up, slice,
//!    incremental delta patching) is untouched.
//!
//! The passes run one **morsel** at a time ([`morsel`]): segments are
//! cut into ~64k-row ranges by [`morsels`], so the scratch vectors
//! between the passes stay cache-resident however large a segment is.
//!
//! The kernels are deliberately freestanding — they know nothing about
//! warehouses or specs, only about slices, code tables and group
//! domains — which is what makes them unit-testable and reusable for
//! future workloads (the treatment-regimen batch jobs will group and
//! aggregate the same way).

pub mod filter;
pub mod group;
pub mod lanes;
pub mod morsel;

pub use filter::{KeyLut, SelectionBitmap};
pub use group::{GroupLayout, MAX_DENSE_GROUPS};
pub use lanes::{AggLanes, LaneKind};
pub use morsel::{morsels, Morsel, DEFAULT_MORSEL_ROWS};
