#![warn(missing_docs)]

//! The durable operation log behind warehouse replication.
//!
//! The warehouse's delta log ([`warehouse::DeltaLog`]) describes *what
//! region* each mutation touched, which is enough for caches to
//! revalidate but not enough to rebuild state elsewhere. This crate
//! re-derives that delta stream as a **durable change feed**: every
//! primary-side mutation is captured as a self-contained
//! [`warehouse::WarehouseChange`], framed with the same CRC-32 frame
//! the OLTP write-ahead log uses ([`clinical_types::wire`]), stamped
//! with a monotone [`LogPos`] `(epoch, seq)`, and appended to an
//! [`Oplog`] that read replicas tail.
//!
//! * [`record`] — the `(epoch, seq)` position and the record body
//!   codec, built on the shared row codec.
//! * [`log`] — the [`Oplog`] itself: in-memory or file-backed,
//!   torn-tail recovery on open, age-out via
//!   [`Oplog::truncate_before`], and the [`Oplog::tail_from`] cursor
//!   API replicas poll.
//! * [`replica`] — a [`Replica`]: a follower warehouse plus a cursor,
//!   with retry-wrapped [`Replica::catch_up`] and snapshot
//!   [`Replica::reseed`] for followers that fall behind the
//!   truncation horizon.
//!
//! The replication invariant ("a replica never serves an epoch it has
//! not fully applied") is inherited from
//! [`warehouse::Warehouse::apply_change`]: one log record is one
//! epoch, applied atomically, so a follower's epoch is always the
//! epoch of the last *fully* applied record.

pub mod log;
pub mod record;
pub mod replica;

pub use crate::log::{Oplog, OplogError};
pub use crate::record::{LogPos, LogRecord};
pub use crate::replica::Replica;
