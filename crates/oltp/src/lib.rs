#![warn(missing_docs)]

//! Transactional row store — the OLTP half of the paper's Reporting
//! component, and the flat-table baseline the DD-DGMS warehouse is
//! compared against.
//!
//! The original DGMS [4] mediated between data stores and the
//! decision-guidance features with DG-SQL over transactional data;
//! the paper's contribution is replacing that with a warehouse. To
//! benchmark that claim we need the thing being replaced, so this
//! crate implements a small but real row store:
//!
//! * [`encoding`] — compact binary row encoding (tag + payload).
//! * [`store`] — append-style heap of encoded rows with tombstone
//!   deletes, guarded by a reader–writer lock.
//! * [`index`] — hash (point) and B-tree (range) secondary indexes,
//!   maintained on every mutation.
//! * [`txn`] — atomic multi-operation transactions with an undo log.
//! * [`wal`] — write-ahead-log durability with crash recovery.
//! * [`query`] — predicate selection (index-accelerated), projection
//!   and flat hash group-by with the standard aggregates. This is the
//!   baseline OLAP cubes are checked against in
//!   `tests/olap_oltp_consistency.rs`.

pub mod encoding;
pub mod index;
pub mod query;
pub mod store;
pub mod txn;
pub mod wal;

pub use encoding::{decode_row, encode_row};
pub use index::{BTreeIndex, HashIndex};
pub use query::{AggFn, GroupByResult, Predicate, QueryEngine};
pub use store::{RowId, RowStore};
pub use txn::Transaction;
pub use wal::{parse_log, DurableStore, WalOp};
