#![deny(missing_docs)]

//! Concurrent query serving for the DD-DGMS warehouse.
//!
//! The paper's warehouse is a shared resource: DiScRi's data is
//! *"generated by different medical instruments and data entry
//! operators"* and consumed by clinicians, researchers and students
//! simultaneously (§IV). This crate supplies the serving discipline
//! that a multi-user deployment of the reproduction needs:
//!
//! - **[`QueryService`]** — executes [`QueryRequest`]s (MDX strings,
//!   cube specs, declarative [`ReportSpec`] reports) against the
//!   warehouse on the caller's thread, with per-request deadlines.
//!   The callers bring the concurrency; the service runs no pool.
//! - **Result cache with delta revalidation** — sharded LRU keyed by
//!   the query's *canonical fingerprint*; the data epoch the result
//!   was computed under travels inside the entry. When the warehouse
//!   mutates, stale entries are not evicted: the next lookup consults
//!   the warehouse delta log and the query's dimension footprint to
//!   either serve the identical result at the new epoch (counted as
//!   `reused_cross_epoch`), fold appended fact rows into a retained
//!   cube (`patched_incremental`), or fall back to re-execution.
//!   Rewrite-style mutations and aged-out delta history invalidate
//!   conservatively.
//! - **Single-flight dedup** — N identical concurrent queries cost
//!   one execution; the rest park and share the leader's result
//!   ([`ServedSource::Coalesced`]).
//! - **Admission control** — executions in flight are bounded by
//!   `workers + queue_depth`; past that, callers get a typed
//!   [`ServeError::Overloaded`] immediately instead of piling up.
//! - **Semantic admission gate** — every request runs through the
//!   `analyze` semantic analyzer against a per-epoch catalog before it
//!   can reach the cache or admission; invalid requests come back as
//!   [`ServeError::Invalid`] with stable diagnostic codes and
//!   did-you-mean suggestions, counted separately from load shedding.
//! - **Metrics** — hit/miss/coalesced/rejected counters and a latency
//!   histogram, snapshotted by [`QueryService::metrics`] and on
//!   [`QueryService::shutdown`].
//! - **Graceful degradation** — a panicking execution is contained on
//!   its caller's thread (typed [`ServeError::Internal`] carrying the
//!   trace id, followers woken with the same error); transient faults retry with
//!   deterministic jittered backoff ([`RetryPolicy`]); repeated
//!   execution failures trip a [`CircuitBreaker`] that serves
//!   stale-but-marked cache entries (`QueryOutcome::degraded`) until
//!   half-open probes confirm recovery.
//! - **Per-user quotas** — [`AdmissionQuotas`] token-buckets each
//!   session key ahead of admission ([`QueryService::execute_for`]),
//!   so one chatty session is rejected with a typed
//!   [`ServeError::QuotaExceeded`] instead of converting its excess
//!   into [`ServeError::Overloaded`] for everyone else.
//! - **Replication** — [`ReplicaRouter`] runs a primary write head
//!   that publishes every mutation to a durable `oplog` change feed,
//!   plus epoch-aware read replicas that tail it. Queries route only
//!   to replicas that have fully applied the primary's current epoch
//!   (power-of-two-choices on executions in flight, transparent failover);
//!   when no fresh replica exists the result is explicitly
//!   stale-marked, and a replica behind the log's truncation horizon
//!   re-seeds from a primary snapshot instead of replaying a gap.
//!
//! # Example
//!
//! ```
//! use serve::{QueryService, ReportSpec, ServeConfig, ServedSource};
//! use warehouse::{DimensionDef, FactDef, LoadPlan, StarSchema, Warehouse};
//! use clinical_types::{DataType, FieldDef, Record, Schema, Table};
//!
//! let star = StarSchema::new(
//!     FactDef::new("Facts", vec!["FBG"], vec![]),
//!     vec![DimensionDef::new("Bloods", vec!["FBG_Band"])],
//! )?;
//! let schema = Schema::new(vec![
//!     FieldDef::nullable("FBG", DataType::Float),
//!     FieldDef::nullable("FBG_Band", DataType::Text),
//! ])?;
//! let rows = vec![
//!     Record::new(vec![5.0.into(), "very good".into()]),
//!     Record::new(vec![8.0.into(), "Diabetic".into()]),
//! ];
//! let table = Table::from_rows(schema, rows)?;
//! let wh = Warehouse::load(&LoadPlan::from_star(star), &table)?;
//!
//! let service = QueryService::new(wh, ServeConfig::default()).expect("service starts");
//! let spec = ReportSpec::new().on_rows("FBG_Band").count();
//! let cold = service.report(spec.clone()).unwrap();
//! let warm = service.report(spec).unwrap();
//! assert_eq!(cold.source, ServedSource::Executed);
//! assert_eq!(warm.source, ServedSource::Cache);
//! assert_eq!(cold.value, warm.value);
//! # Ok::<(), clinical_types::Error>(())
//! ```

pub mod breaker;
pub mod cache;
pub mod error;
pub mod flight;
pub mod metrics;
pub mod quota;
pub mod request;
pub mod router;
pub mod service;

pub use breaker::{Admission, BreakerState, CircuitBreaker};
pub use cache::{CacheKey, CachedEntry, ResultCache};
pub use error::{ServeError, ServeResult};
pub use fault::RetryPolicy;
pub use flight::{Flight, FlightRole, FlightTable};
pub use metrics::{MetricsSnapshot, ServeMetrics};
pub use quota::{AdmissionQuotas, QuotaConfig};
pub use request::{
    CubeResult, OutcomePayload, QueryOutcome, QueryRequest, ReportMeasure, ReportSpec,
};
pub use router::{ReplicaRouter, ReplicaStatus, RouterConfig, RouterSnapshot};
pub use service::{QueryService, ServeConfig, Served, ServedSource};
