#![deny(missing_docs)]

//! Shared value model for the DD-DGMS reproduction.
//!
//! Every subsystem in the workspace — ETL, OLTP store, warehouse, OLAP
//! engine, miners and predictors — exchanges data through the types in
//! this crate: dynamically typed [`Value`]s, [`Schema`]-described
//! [`Record`]s, and in-memory [`Table`]s.
//!
//! The model is deliberately small. Clinical screening data (the
//! paper's DiScRi cohort) is tabular: one row per patient attendance,
//! a few hundred typed attributes per row. A dynamic `Value` enum with
//! a checked [`Schema`] captures that without pulling a full SQL type
//! system into every crate.
//!
//! [`wire`] is the one byte-level codec behind everything the workspace
//! persists: warehouse segments and the replication oplog.

pub mod csv;
pub mod date;
pub mod error;
pub mod record;
pub mod schema;
pub mod span;
pub mod value;
pub mod wire;

pub use csv::{table_from_csv, table_to_csv};
pub use date::Date;
pub use error::{Error, Result};
pub use record::{Record, Table};
pub use schema::{FieldDef, Schema};
pub use span::{render_snippet, Span};
pub use value::{DataType, Value};
