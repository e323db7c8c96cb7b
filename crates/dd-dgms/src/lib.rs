#![warn(missing_docs)]

//! The DD-DGMS facade: the paper's Fig. 2 architecture as one object.
//!
//! A Decision Guidance Management System operates in *"iterative
//! loop-back phases"* (§IV): learn from the data space, predict and
//! simulate, optimise decisions, then acquire new data/feedback to
//! reduce ambiguity. The DD-DGMS variant routes every phase through
//! the clinical data warehouse. [`DdDgms`] wires the crates of this
//! workspace into that loop:
//!
//! ```text
//! raw attendances ──etl──▶ warehouse ──┬─▶ reporting (append/OLAP/MDX)
//!                                      ├─▶ prediction (time course)
//!                                      ├─▶ visualisation
//!                                      ├─▶ decision optimisation
//!                                      └─▶ data analytics ──▶ knowledge base
//!                         ▲                                        │
//!                         └───── feedback dimensions ◀─────────────┘
//! ```
//!
//! [`roles`] exposes the two user groups of §IV: operational users
//! (short-term outcomes) and strategic users (long-term planning).
//!
//! # Example
//!
//! ```
//! use dd_dgms::DdDgms;
//! use discri::{generate, CohortConfig};
//!
//! // A small synthetic screening cohort stands in for DiScRi.
//! let cohort = generate(&CohortConfig::small(1));
//! let system = DdDgms::from_raw_attendances(&cohort.attendances)?;
//!
//! // Fig. 4-style reporting…
//! let pivot = system
//!     .query()
//!     .on_rows("FBG_Band")
//!     .on_columns("Gender")
//!     .count()
//!     .execute()?;
//! assert!(!pivot.row_headers.is_empty());
//!
//! // …or the same through MDX.
//! let mdx = system.mdx(
//!     "SELECT [Gender].MEMBERS ON COLUMNS, [FBG_Band].MEMBERS ON ROWS \
//!      FROM [Medical Measures] MEASURE COUNT(*)",
//! )?;
//! assert_eq!(mdx.row_headers, pivot.row_headers);
//! # Ok::<(), clinical_types::Error>(())
//! ```

pub mod acquisition;
pub mod roles;
pub mod system;

pub use acquisition::{acquisition_queries, attribute_gaps, AcquisitionQuery, AttributeGap};
pub use roles::{OperationalView, StrategicView};
pub use system::{DdDgms, GuidanceCycleReport};
