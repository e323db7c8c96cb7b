//! Typed failures of the serving layer.
//!
//! Failures raised on a request path carry the [`TraceId`] of the
//! request's `serve.request` span (when tracing captured one), so an
//! operator can jump from an error report straight to the trace that
//! produced it.

use analyze::Diagnostics;
use obs::TraceId;
use std::fmt;
use std::time::Duration;

/// `Result` specialised to [`ServeError`].
pub type ServeResult<T> = std::result::Result<T, ServeError>;

/// Why a request was not served.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Admission control rejected the request: `workers + queue_depth`
    /// executions were already in flight. The caller should back off
    /// and retry; nothing was executed on its behalf.
    Overloaded {
        /// Configured queue depth (executions admitted beyond `workers`).
        queue_depth: usize,
        /// Trace of the rejected request, when one was recorded.
        trace: Option<TraceId>,
    },
    /// The request was admitted but its result did not arrive within
    /// the deadline. The underlying execution may still complete and
    /// populate the cache for later callers.
    DeadlineExceeded {
        /// The deadline that elapsed.
        deadline: Duration,
        /// Trace of the abandoned request, when one was recorded.
        trace: Option<TraceId>,
    },
    /// The per-user admission quota rejected the request: this
    /// session's token bucket is empty. Other sessions are unaffected
    /// (distinct from [`ServeError::Overloaded`], which is aggregate
    /// back-pressure). Nothing was executed; the caller should pace
    /// itself and retry.
    QuotaExceeded {
        /// The session key whose bucket ran dry.
        session: String,
        /// Trace of the rejected request, when one was recorded.
        trace: Option<TraceId>,
    },
    /// The service is draining and no longer accepts work.
    ShuttingDown,
    /// The semantic analyzer rejected the request at admission:
    /// unknown names, type mismatches or illegal aggregations. Nothing
    /// was admitted or executed; the diagnostics carry stable codes
    /// (`A0xx`/`A1xx`/`A2xx`) and did-you-mean suggestions.
    Invalid {
        /// The analyzer's findings.
        diagnostics: Diagnostics,
        /// Trace of the rejected request, when one was recorded.
        trace: Option<TraceId>,
    },
    /// The query itself failed (parse error, unknown attribute, …).
    Query(clinical_types::Error),
    /// The serving layer itself failed: the execution panicked (the
    /// panic is contained on the caller's thread), an injected fault
    /// exhausted its retries, or the circuit breaker deflected the
    /// request with no cached result to degrade to. The request may be
    /// retried; the service survives (breakers recover via probes).
    Internal {
        /// Human-readable cause (panic payload, fault point, …).
        detail: String,
        /// Trace of the failed request, when one was recorded.
        trace: Option<TraceId>,
    },
}

impl ServeError {
    /// The trace id of the request that raised this error, when the
    /// failing path recorded one. `ShuttingDown` and `Query` failures
    /// carry none (the former precedes span creation, the latter is
    /// raised below the serving layer).
    pub fn trace(&self) -> Option<TraceId> {
        match self {
            ServeError::Overloaded { trace, .. }
            | ServeError::DeadlineExceeded { trace, .. }
            | ServeError::QuotaExceeded { trace, .. }
            | ServeError::Invalid { trace, .. }
            | ServeError::Internal { trace, .. } => *trace,
            ServeError::ShuttingDown | ServeError::Query(_) => None,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let trace_suffix = |t: &Option<TraceId>| match t {
            Some(id) => format!(" [trace {}]", id.0),
            None => String::new(),
        };
        match self {
            ServeError::Overloaded { queue_depth, trace } => {
                write!(
                    f,
                    "overloaded: executions at capacity (queue depth {queue_depth}){}",
                    trace_suffix(trace)
                )
            }
            ServeError::DeadlineExceeded { deadline, trace } => {
                write!(
                    f,
                    "deadline of {deadline:?} exceeded{}",
                    trace_suffix(trace)
                )
            }
            ServeError::QuotaExceeded { session, trace } => {
                write!(
                    f,
                    "per-user quota exceeded for session `{session}`{}",
                    trace_suffix(trace)
                )
            }
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::Invalid { diagnostics, trace } => {
                write!(
                    f,
                    "invalid query rejected at admission{}:\n{diagnostics}",
                    trace_suffix(trace)
                )
            }
            ServeError::Query(e) => write!(f, "query failed: {e}"),
            ServeError::Internal { detail, trace } => {
                write!(
                    f,
                    "internal serving failure: {detail}{}",
                    trace_suffix(trace)
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<clinical_types::Error> for ServeError {
    fn from(e: clinical_types::Error) -> Self {
        ServeError::Query(e)
    }
}
