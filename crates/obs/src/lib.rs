//! Observability for the DD-DGMS stack: structured tracing, a unified
//! metrics registry, and per-query execution profiles.
//!
//! Four concerns, one crate, zero dependencies:
//!
//! * [`trace`] — spans and events with trace ids, parented through a
//!   per-thread span stack. The disabled path is a single
//!   relaxed atomic load, so instrumentation stays compiled into hot
//!   paths unconditionally.
//! * [`metrics`] — named counters, gauges and histograms in a
//!   process-wide or per-subsystem [`MetricsRegistry`], with
//!   Prometheus-style text exposition and snapshot diffing.
//! * [`profile`] — [`QueryProfile`] phase breakdowns (parse → analyze
//!   → cache lookup → queue → execute → aggregate) attached to query
//!   outcomes, the stack's `EXPLAIN ANALYZE`.
//! * [`lockrank`] — the global [`LockRank`] hierarchy plus
//!   [`RankedMutex`]/[`RankedRwLock`] wrappers that assert ascending
//!   acquisition order in debug builds (the one lock-order check;
//!   `repo-lint --locks` adds per-function guard-scope checks).
//! * [`mod@recorder`] — the always-on flight recorder: a thread-sharded
//!   ring of recent spans, events, failpoint hits, lock acquisitions
//!   and metric deltas that snapshots into a JSONL [`BlackBox`] when
//!   an incident trigger fires.
//! * [`watchdog`] — the shared active-task table (span path + held
//!   lock ranks + heartbeat per worker), a sampling thread that folds
//!   paths into a flamegraph-style profile, and stall detection that
//!   fires `obs.stall` events and recorder dumps.
//! * [`slo`] — declarative latency/error-rate objectives evaluated
//!   from [`MetricsRegistry`] snapshots with multi-window (5 m / 1 h)
//!   burn-rate alerting.
//!
//! Records serialise to JSONL through the crate's own minimal
//! [`json::Json`] codec, so exports round-trip without external
//! dependencies.
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! let _guard = obs::test_support::tracing_lock();
//! let collector = Arc::new(obs::RingCollector::new(1024));
//! obs::install(collector.clone());
//! {
//!     let mut root = obs::span("serve.request");
//!     root.record("kind", "mdx");
//!     obs::event("cache.miss");
//! }
//! obs::uninstall();
//! assert_eq!(collector.spans().len(), 1);
//! assert_eq!(collector.events().len(), 1);
//! ```

#![deny(missing_docs)]

pub mod collect;
pub mod json;
pub mod lockrank;
pub mod metrics;
pub mod profile;
pub mod recorder;
pub mod slo;
pub mod trace;
pub mod watchdog;

pub use collect::{
    children_of, parse_jsonl, render_trace, JsonlExporter, Record, RingCollector, WriterSubscriber,
};
pub use json::Json;
pub use lockrank::{
    held_ranks, rank_checks_enabled, set_rank_checks, LockRank, RankedMutex, RankedMutexGuard,
    RankedReadGuard, RankedRwLock, RankedWriteGuard, ALL_RANKS,
};
pub use metrics::{
    percentile_from_buckets, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry,
    RegistryDelta, RegistrySnapshot,
};
pub use profile::{Phase, ProfileBuilder, QueryProfile};
pub use recorder::{
    install_recorder, recorder, recording, trigger_dump, uninstall_recorder, BlackBox,
    FlightRecord, FlightRecorder, RecorderConfig,
};
pub use slo::{render_status, SloEngine, SloKind, SloSpec, SloStatus, SloWindows};
pub use trace::{
    current_context, enabled, event, event_with, install, monotonic_us, promote_trace, set_enabled,
    span, uninstall, EventRecord, SpanContext, SpanGuard, SpanId, SpanRecord, Subscriber, TraceId,
};
pub use watchdog::{
    heartbeat, register_worker, task_scope, thread_states, ThreadState, Watchdog, WatchdogConfig,
    WorkerGuard,
};

/// Helpers for tests that exercise the process-global subscriber.
pub mod test_support {
    use crate::{SpanGuard, TraceId};
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Serialises tests (and doctests/examples) that install a global
    /// subscriber: hold the returned guard for the duration of the
    /// test so concurrent tests cannot swap subscribers mid-flight.
    pub fn tracing_lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Root a trace on the calling thread: everything the thread does
    /// while the guard lives joins the returned trace.
    /// [`tracing_lock`] keeps subscribers from being swapped, but the
    /// installed one still hears concurrent threads that trace without
    /// the lock; a test that counts spans reads its own trace back
    /// with [`RingCollector::spans_in`](crate::RingCollector::spans_in).
    /// `None` when no subscriber (or recorder) is live.
    pub fn rooted_trace() -> Option<(SpanGuard, TraceId)> {
        let root = crate::span("test.root");
        let trace = root.context()?.trace;
        Some((root, trace))
    }
}
