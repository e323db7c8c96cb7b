#![deny(missing_docs)]

//! OLAP over the clinical data warehouse — the analytical half of the
//! paper's Reporting component (§IV), plus the Prediction-supporting
//! cube isolation used by Data Analytics.
//!
//! * [`aggregate`] — aggregate specifications and mergeable cell
//!   accumulators (count, distinct-count, sum, avg, min, max).
//! * [`cube`] — data cubes over the warehouse: grouped aggregation
//!   along any set of dimension attributes, with slice, dice and
//!   roll-up operators; one build entry point that scans sealed
//!   segments where it can and fact rows where it must.
//! * [`pivot`] — two-axis pivot views of a cube (the tabular outcome
//!   Fig. 4 shows in the BI Studio query area).
//! * [`builder`] — [`builder::QueryBuilder`]: the programmatic
//!   equivalent of Fig. 4's drag-and-drop query construction, with
//!   hierarchy-aware drill-down / roll-up.
//! * [`mdx`] — the MDX-like query language (§IV: "Multidimensional
//!   expressions (MDX), the query language for OLAP, can also be used
//!   for reporting"): lexer, parser and executor.
//! * [`report`] — owned, declarative [`report::ReportSpec`] requests
//!   that can queue and travel between threads.
//! * [`semantic`] — the semantic analyzer: validates MDX, cube and
//!   report requests against the `analyze` catalog before execution,
//!   and resolves each query shape's dimension footprint for
//!   cross-epoch result reuse.
//! * [`kernels`] — vectorized execution kernels: selection-bitmap
//!   filters, dictionary-coded group-id composition and fixed-width
//!   aggregate lanes, run morsel by morsel behind segmented cube
//!   builds.
//!
//! Cubes are *incrementally maintainable*: [`Cube::apply_delta`] folds
//! a warehouse [`warehouse::DeltaSummary`]'s appended fact rows into
//! the existing accumulators instead of rebuilding, exact for
//! count/sum/mean (and min/max under append-only deltas); distinct
//! counting and rewrites fall back to a full rebuild.

pub mod aggregate;
pub mod builder;
pub mod cube;
pub mod kernels;
pub mod mdx;
pub mod pivot;
pub mod report;
pub mod semantic;

pub use aggregate::{Aggregate, CellStats, MeasureRef};
pub use builder::QueryBuilder;
pub use cube::{Cube, CubeFilter, CubeSpec, ScanStats};
pub use mdx::{execute_mdx, parse_mdx};
pub use pivot::PivotTable;
pub use report::{ReportMeasure, ReportSpec};
pub use semantic::{
    analyze_cube, analyze_mdx, analyze_mdx_str, analyze_report, footprint_cube, footprint_mdx,
    footprint_report,
};
