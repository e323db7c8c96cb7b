#![warn(missing_docs)]

//! Static analysis for the DD-DGMS reproduction.
//!
//! Three prongs, one crate:
//!
//! 1. **Query semantic analysis.** The building blocks every query
//!    front end shares: a [`Catalog`] view of the star schema (column
//!    kinds, hierarchy edges, cardinality membership, additivity,
//!    observed value domains), typed span-carrying [`Diagnostic`]s
//!    with stable `A0xx`/`A1xx`/`A2xx` codes, did-you-mean
//!    suggestions via [`edit_distance`], and the [`explain`] facility
//!    behind `cargo run -p analyze --bin explain`. The AST-walking
//!    passes themselves live in `olap::semantic` (they need the MDX
//!    AST, which lives above this crate); `serve` runs them
//!    pre-admission so invalid queries never consume a worker slot.
//!
//! 2. **Incident forensics.** [`render_black_box`] and the
//!    `black-box` binary turn a flight-recorder JSONL dump into an
//!    operator-facing report: the triggering trace's span tree, the
//!    per-thread state table, the ranked-lock timeline, failpoint
//!    evaluations and metric movement.
//!
//! 3. **Repo lint.** [`lint_workspace`] and the `repo-lint` binary
//!    enforce source rules the compiler can't: no panicking calls in
//!    hot-path modules outside tests, no `todo!`/`dbg!` anywhere, and
//!    `Display` on every public error enum — with an audited
//!    `lint:allow(<rule>)` escape hatch. `scripts/check.sh` runs it
//!    as a failing gate.

pub mod blackbox;
pub mod catalog;
pub mod diag;
pub mod distance;
pub mod footprint;
pub mod lint;
pub mod locks;

pub use blackbox::render_black_box;
pub use catalog::{Catalog, ColumnKind, CARDINALITY_DIMENSION};
pub use diag::{explain, Code, Diagnostic, Diagnostics, Severity, ALL_CODES};
pub use distance::{closest, edit_distance};
pub use footprint::QueryFootprint;
pub use lint::{check_source, lint_workspace, LintReport, Violation};
pub use locks::{audit_sources, audit_workspace, LockAudit, LockDecl, LockFinding};
