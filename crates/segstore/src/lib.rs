//! Segmented columnar storage engine.
//!
//! The warehouse's fact table gains a second physical representation:
//! immutable, sorted columnar **segments** with per-segment per-column
//! zone maps, sitting behind the pluggable [`SegmentBackend`] trait.
//! A background compactor (in `warehouse`) folds the delta log into
//! fresh segments; the cube engine (in `olap`) scans segments morsel
//! by morsel, consulting zone maps to skip whole segments and fetching
//! only the columns a query reads.
//!
//! Layering, bottom-up:
//!
//! * [`zone`] — [`KeyZone`] / [`MeasureZone`] pruning summaries.
//! * [`segment`] — [`Segment`] / [`SegmentMeta`] / [`ColumnSet`].
//! * [`encode`] — the segment file format: column records inside the
//!   shared [`clinical_types::wire`] frame.
//! * [`backend`] — the [`SegmentBackend`] trait plus
//!   [`MemoryBackend`] and [`DiskBackend`].
//! * [`conformance`] — the shared suite every backend must pass.

#![warn(missing_docs)]

pub mod backend;
pub mod conformance;
pub mod encode;
pub mod segment;
pub mod zone;

pub use backend::{DiskBackend, MemoryBackend, SegmentBackend};
pub use encode::{decode_segment, decode_segment_meta, encode_segment, SEGMENT_HEADER};
pub use segment::{ColumnSet, Segment, SegmentMeta};
pub use zone::{KeyZone, MeasureZone, DISTINCT_KEY_CAP};
