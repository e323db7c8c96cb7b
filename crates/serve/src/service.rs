//! The query service: admission control, the cache / single-flight
//! fast paths, and execution on the caller's thread.
//!
//! Request lifecycle:
//!
//! ```text
//! execute(request)
//!   ├─ fingerprint → cache key; read current data epoch
//!   ├─ semantic analysis fails? → Invalid (nothing executed or cached)
//!   ├─ cache entry, current epoch? ───────────────▶ Served (Cache)
//!   ├─ cache entry, older epoch? revalidate via the delta log:
//!   │    ├─ deltas outside the query's footprint → promote entry
//!   │    │                                       ▶ Served (Cache, reused)
//!   │    ├─ appended rows + retained cube → patch ▶ Served (Cache, patched)
//!   │    └─ otherwise fall through to execute
//!   ├─ under the flight-table lock:
//!   │    ├─ identical query in flight? → park on it ▶ Served (Coalesced)
//!   │    ├─ published since the lookup? ───────────▶ Served (Cache)
//!   │    └─ otherwise lead a new flight
//!   └─ as the leader, on this thread:
//!        ├─ workers + queue_depth in flight? → Overloaded (nothing ran)
//!        └─ execute under a read snapshot, publish to the cache,
//!           retire the flight, wake all waiters ───▶ Served (Executed)
//! ```
//!
//! The concurrency comes from the callers — clinicians, researchers and
//! students querying one warehouse at once (§IV) — so the service runs
//! no thread pool of its own: admission is a count of executions in
//! flight, and a panicking execution is contained on its caller.
//!
//! Mutations (`append`, feedback dimensions) take the write lock and
//! bump the warehouse epoch; in-flight reads finish against the
//! snapshot they started with. Cached results are *not* purged: the
//! warehouse delta log lets the next lookup decide per query whether
//! a stale entry is provably still valid (`reused_cross_epoch`),
//! incrementally patchable (`patched_incremental`) or dead.

use crate::breaker::{Admission, BreakerState, CircuitBreaker};
use crate::cache::{CacheKey, ResultCache};
use crate::error::{ServeError, ServeResult};
use crate::flight::{Flight, FlightRole, FlightTable};
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::quota::{AdmissionQuotas, QuotaConfig};
use crate::request::{CubeResult, OutcomePayload, QueryOutcome, QueryRequest, ReportSpec};
use analyze::Catalog;
use clinical_types::{Table, Value};
use fault::RetryPolicy;
use obs::{
    LockRank, Phase, ProfileBuilder, RankedRwLock, SloEngine, SloSpec, SloStatus, SpanGuard,
    TraceId, Watchdog, WatchdogConfig,
};
use olap::{Cube, CubeSpec};
use oplog::Oplog;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use warehouse::{ChangeSet, CompactionConfig, DeltaSummary, Warehouse, WarehouseChange};

/// Tuning knobs for [`QueryService`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The concurrency limit: executions expected to run at once, each
    /// on its caller's thread.
    pub workers: usize,
    /// Executions admitted beyond `workers`. A leader arriving with
    /// `workers + queue_depth` executions already in flight is rejected
    /// with [`ServeError::Overloaded`] instead of blocking.
    pub queue_depth: usize,
    /// Total results held by the cache.
    pub cache_capacity: usize,
    /// Consecutive execution failures that trip the circuit breaker
    /// into degraded mode.
    pub breaker_threshold: u32,
    /// How long the breaker stays open before letting a half-open
    /// probe through.
    pub breaker_cooldown: Duration,
    /// Retry schedule for transient faults on the revalidation and
    /// warehouse-read paths.
    pub retry: RetryPolicy,
    /// Run the stall watchdog sampling thread. It folds executing span
    /// paths into a flamegraph-style profile (surfaced by
    /// [`QueryService::metrics_text`]) and fires a flight recorder dump
    /// when an execution exceeds its stall budget.
    pub watchdog: bool,
    /// Sampling cadence of the watchdog thread.
    pub watchdog_interval: Duration,
    /// Per-execution stall budget: an execution whose heartbeat is older
    /// than this is declared stalled (one `obs.stall` event + one
    /// `watchdog.stall` black-box dump per episode). Zero disables stall
    /// detection.
    pub worker_stall_budget: Duration,
    /// Per-user admission quota enforced by
    /// [`QueryService::execute_for`] ahead of admission; `None`
    /// disables per-session limiting (the aggregate in-flight bound
    /// still applies).
    pub quota: Option<QuotaConfig>,
    /// Failure-domain label for this service instance, attributed on
    /// breaker-trip events and flight-recorder dumps. The write head
    /// is conventionally `"primary"`; the replica router labels each
    /// follower `"replica-N"`.
    pub domain: String,
}

/// Cache shard count (lock-contention bound).
const CACHE_SHARDS: usize = 8;

/// Deadline applied by [`QueryService::execute`].
const DEFAULT_DEADLINE: Duration = Duration::from_secs(5);

/// The service-level objectives evaluated from the serve metrics
/// registry on every [`QueryService::metrics_text`] /
/// [`QueryService::slo_status`] call (scrape-driven, like Prometheus
/// recording rules): 99% of requests under 100 ms, and a 99.9%
/// execution success rate. Both use the default 5 m / 1 h burn-rate
/// windows.
fn slos() -> Vec<SloSpec> {
    vec![
        SloSpec::latency("serve_latency", "serve_latency_us", 100_000, 0.99),
        SloSpec::error_rate(
            "serve_errors",
            &["serve_failed_total"],
            &["serve_executed_total", "serve_failed_total"],
            0.999,
        ),
    ]
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_depth: 64,
            cache_capacity: 256,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(250),
            retry: RetryPolicy::default(),
            watchdog: true,
            watchdog_interval: Duration::from_millis(25),
            worker_stall_budget: Duration::from_secs(10),
            quota: None,
            domain: "primary".to_string(),
        }
    }
}

/// How a cache lookup was satisfied.
enum CacheHit {
    /// The entry was produced at the current epoch.
    Fresh,
    /// The entry predates the current epoch but the delta chain never
    /// intersects the query's footprint — served as-is and promoted.
    Reused,
    /// The entry's retained cube absorbed the delta chain's appended
    /// rows; the patched result was published at the current epoch.
    Patched,
}

/// How a [`Served`] answer was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedSource {
    /// This request led the execution, on its own thread.
    Executed,
    /// Answered straight from the result cache.
    Cache,
    /// Coalesced onto another caller's identical in-flight execution.
    Coalesced,
}

/// A successfully served request.
#[derive(Debug, Clone)]
pub struct Served {
    /// The query result (shared — cache hits alias the same allocation).
    pub value: Arc<QueryOutcome>,
    /// The data epoch the request was admitted under.
    pub epoch: u64,
    /// How the answer was produced.
    pub source: ServedSource,
    /// End-to-end latency observed by this caller.
    pub latency: Duration,
}

struct Shared {
    warehouse: RankedRwLock<Warehouse>,
    /// Semantic catalog for the admission gate, keyed by the epoch it
    /// was built at. Mutations (appends, feedback dimensions) bump the
    /// epoch, so the first admission under a new epoch rebuilds it.
    /// Ranked *after* the warehouse: `catalog_for` runs under the
    /// warehouse read lock.
    catalog: RankedRwLock<(u64, Arc<Catalog>)>,
    cache: ResultCache,
    flights: FlightTable,
    metrics: ServeMetrics,
    accepting: AtomicBool,
    /// Executions running now, each on its leader's thread: the
    /// admission count and the router's load signal. It guards no
    /// other data, so every access is `Relaxed`.
    in_flight: AtomicUsize,
    /// Execution-failure breaker; open = degraded mode.
    breaker: CircuitBreaker,
    /// Transient-fault retry schedule for request paths.
    retry: RetryPolicy,
    /// Burn-rate engine over this service's metrics registry.
    slo: SloEngine,
    /// Stall budget of each execution's watchdog task scope.
    stall_budget: Duration,
    /// Per-session token buckets, when the config asked for them.
    /// Checked by `execute_for` before any other shared state.
    quotas: Option<AdmissionQuotas>,
    /// Failure-domain label attributed on breaker-trip telemetry.
    domain: String,
    /// Durable change feed this service publishes mutations to, when
    /// it is the write head of a replica set.
    oplog: Option<Arc<Oplog>>,
}

impl Shared {
    /// The catalog for `epoch`, rebuilding from `wh` on epoch change.
    fn catalog_for(&self, epoch: u64, wh: &Warehouse) -> Arc<Catalog> {
        {
            let cached = self.catalog.read();
            if cached.0 == epoch {
                return Arc::clone(&cached.1);
            }
        }
        let fresh = Arc::new(Catalog::from_warehouse(wh));
        *self.catalog.write() = (epoch, Arc::clone(&fresh));
        fresh
    }
}

/// A concurrent query front-end over one warehouse.
///
/// Multi-user serving is intrinsic to the paper's setting — DiScRi's
/// warehouse is queried by clinicians, researchers and students at
/// once (§IV) — and this type provides the serving discipline:
/// execution on the caller's thread under a bounded in-flight count, an
/// epoch-keyed result cache, single-flight deduplication and typed
/// overload rejection.
pub struct QueryService {
    shared: Arc<Shared>,
    /// Executions admitted at once: `workers + queue_depth`.
    max_in_flight: usize,
    queue_depth: usize,
    /// The sampling thread, when `ServeConfig::watchdog` asked for
    /// one; joined on drain so shutdown leaves no thread behind.
    watchdog: Option<Watchdog>,
}

impl QueryService {
    /// Start a service over `warehouse` with `config`.
    ///
    /// Requests execute on their callers' threads, so construction
    /// starts no serving thread. Only the optional stall watchdog
    /// spawns one, and a failed watchdog spawn degrades to no stall
    /// detection instead of an error.
    pub fn new(warehouse: Warehouse, config: ServeConfig) -> ServeResult<QueryService> {
        Self::build(warehouse, config, None)
    }

    /// Start a service that additionally publishes every mutation to
    /// `log` as a replicated change feed — the write head of a replica
    /// set. Followers tail the log (see [`crate::ReplicaRouter::tick`])
    /// and re-derive the same warehouse state at the same epochs.
    /// Failure behaviour is that of [`Self::new`].
    pub fn new_with_oplog(
        warehouse: Warehouse,
        config: ServeConfig,
        log: Arc<Oplog>,
    ) -> ServeResult<QueryService> {
        Self::build(warehouse, config, Some(log))
    }

    fn build(
        warehouse: Warehouse,
        config: ServeConfig,
        oplog: Option<Arc<Oplog>>,
    ) -> ServeResult<QueryService> {
        let catalog = (
            warehouse.epoch(),
            Arc::new(Catalog::from_warehouse(&warehouse)),
        );
        let shared = Arc::new(Shared {
            warehouse: RankedRwLock::new(LockRank::Warehouse, "serve.warehouse", warehouse),
            catalog: RankedRwLock::new(LockRank::Catalog, "serve.catalog", catalog),
            cache: ResultCache::new(config.cache_capacity, CACHE_SHARDS),
            flights: FlightTable::default(),
            metrics: ServeMetrics::default(),
            accepting: AtomicBool::new(true),
            in_flight: AtomicUsize::new(0),
            breaker: CircuitBreaker::new(config.breaker_threshold, config.breaker_cooldown),
            retry: config.retry,
            slo: SloEngine::new(slos()),
            stall_budget: config.worker_stall_budget,
            quotas: config.quota.clone().map(AdmissionQuotas::new),
            domain: config.domain.clone(),
            oplog,
        });
        // Feed this service's counters into the global flight recorder
        // (if one is installed): the watchdog polls the source and the
        // ring accumulates metric deltas alongside spans and events.
        // The Weak keeps the recorder from pinning a shut-down service;
        // a dead source is pruned on the next poll.
        if let Some(recorder) = obs::recorder() {
            let weak = Arc::downgrade(&shared);
            recorder.attach_metrics(
                "serve",
                Box::new(move || weak.upgrade().map(|s| s.metrics.registry().snapshot())),
            );
        }
        // The watchdog is observability, not serving: a failed spawn
        // degrades to no stall detection instead of failing the service.
        let watchdog = if config.watchdog {
            Watchdog::start(WatchdogConfig {
                interval: config.watchdog_interval,
                ..WatchdogConfig::default()
            })
            .map_err(|e| {
                obs::event_with(
                    "serve.watchdog_spawn_failed",
                    &[("error", &e.to_string().as_str())],
                );
            })
            .ok()
        } else {
            None
        };
        let queue_depth = config.queue_depth.max(1);
        Ok(QueryService {
            shared,
            max_in_flight: config.workers.max(1) + queue_depth,
            queue_depth,
            watchdog,
        })
    }

    /// Serve `request` under the default five-second deadline.
    ///
    /// ```
    /// use serve::{QueryRequest, QueryService, ReportSpec, ServeConfig, ServedSource};
    /// use warehouse::{DimensionDef, FactDef, LoadPlan, StarSchema, Warehouse};
    /// use clinical_types::{DataType, FieldDef, Record, Schema, Table};
    ///
    /// let star = StarSchema::new(
    ///     FactDef::new("Facts", vec!["FBG"], vec![]),
    ///     vec![DimensionDef::new("Bloods", vec!["FBG_Band"])],
    /// )?;
    /// let schema = Schema::new(vec![
    ///     FieldDef::nullable("FBG", DataType::Float),
    ///     FieldDef::nullable("FBG_Band", DataType::Text),
    /// ])?;
    /// let rows = vec![Record::new(vec![5.0.into(), "very good".into()])];
    /// let wh = Warehouse::load(&LoadPlan::from_star(star), &Table::from_rows(schema, rows)?)?;
    ///
    /// let service = QueryService::new(wh, ServeConfig::default()).expect("service starts");
    /// let request = QueryRequest::Report(ReportSpec::new().on_rows("FBG_Band").count());
    /// let served = service.execute(&request).unwrap();
    /// assert_eq!(served.source, ServedSource::Executed);
    /// // The same request again is a cache hit sharing the allocation.
    /// assert_eq!(service.execute(&request).unwrap().source, ServedSource::Cache);
    /// # Ok::<(), clinical_types::Error>(())
    /// ```
    pub fn execute(&self, request: &QueryRequest) -> ServeResult<Served> {
        self.execute_with_deadline(request, DEFAULT_DEADLINE)
    }

    /// Serve `request` on behalf of `session`, spending one token from
    /// the session's admission quota first. An empty bucket rejects
    /// with [`ServeError::QuotaExceeded`] before the request touches
    /// the cache, the single-flight table or admission — one chatty
    /// session cannot convert its excess into [`ServeError::Overloaded`]
    /// for everyone else. Without a configured quota this is exactly
    /// [`Self::execute`].
    pub fn execute_for(&self, session: &str, request: &QueryRequest) -> ServeResult<Served> {
        if let Some(quotas) = &self.shared.quotas {
            if !quotas.try_admit(session) {
                self.shared.metrics.record_quota_rejected();
                obs::event_with("serve.quota_rejected", &[("session", &session)]);
                return Err(ServeError::QuotaExceeded {
                    session: session.to_string(),
                    trace: None,
                });
            }
        }
        self.execute(request)
    }

    /// Serve `request` within `deadline`, or fail with
    /// [`ServeError::DeadlineExceeded`]. A follower stops waiting once
    /// the deadline elapses. A leader has no cooperative cancellation:
    /// it runs its execution to the end on this thread, publishes the
    /// result to the cache for later callers, and then reports the
    /// overrun.
    pub fn execute_with_deadline(
        &self,
        request: &QueryRequest,
        deadline: Duration,
    ) -> ServeResult<Served> {
        let start = Instant::now(); // lint:allow(no-raw-timing, "deadline arithmetic needs a local monotonic clock, not a traced span")
        let mut span = obs::span("serve.request");
        let trace = span.context().map(|c| c.trace);
        let mut profile = ProfileBuilder::start();
        if !self.shared.accepting.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        let fingerprint = profile
            .time(Phase::Parse, || request.fingerprint())
            .map_err(|e| {
                self.shared.metrics.record_failed();
                ServeError::Query(e)
            })?;
        let (epoch, catalog) = {
            let wh = self.shared.warehouse.read();
            let epoch = wh.epoch();
            (epoch, self.shared.catalog_for(epoch, &wh))
        };
        span.record("epoch", epoch);

        // Semantic admission gate: an invalid request never reaches
        // the cache, the single-flight table or admission.
        let diags = profile.time(Phase::Analyze, || request.analyze(&catalog));
        if diags.has_errors() {
            self.shared.metrics.record_rejected_invalid();
            span.record("outcome", "rejected_invalid");
            obs::event("serve.rejected_invalid");
            return Err(ServeError::Invalid {
                diagnostics: diags,
                trace,
            });
        }

        if let Some((value, hit, valid_epoch)) = profile.time(Phase::CacheLookup, || {
            self.lookup_or_revalidate(&fingerprint, request)
        }) {
            self.shared.metrics.record_hit();
            match hit {
                CacheHit::Fresh => {}
                CacheHit::Reused => self.shared.metrics.record_reused_cross_epoch(),
                CacheHit::Patched => self.shared.metrics.record_patched_incremental(),
            }
            let latency = start.elapsed();
            self.shared.metrics.record_latency(latency);
            span.record("source", "cache");
            obs::event_with("serve.cache_hit", &[("epoch", &valid_epoch)]);
            return Ok(Served {
                value,
                epoch: valid_epoch,
                source: ServedSource::Cache,
                latency,
            });
        }

        // Circuit breaker: an open breaker deflects execution and
        // serves whatever the cache still holds, explicitly marked
        // degraded. Fresh cache hits above never reach this point —
        // degraded mode only gates work that would hit the failing
        // execution path.
        match self.shared.breaker.admit() {
            Admission::Allow => {}
            Admission::Probe => {
                span.record("breaker", "probe");
                obs::event("serve.breaker_probe");
            }
            Admission::Deflect => {
                self.shared.metrics.record_breaker_open();
                if let Some(entry) = self.shared.cache.get(&fingerprint) {
                    let mut degrade_span = obs::span("serve.degrade");
                    degrade_span.record("epoch", entry.epoch);
                    let mut outcome = (*entry.value).clone();
                    outcome.degraded = true;
                    let value = Arc::new(outcome);
                    self.shared.metrics.record_hit();
                    self.shared.metrics.record_served_stale();
                    let latency = start.elapsed();
                    self.shared.metrics.record_latency(latency);
                    span.record("source", "degraded");
                    obs::event_with("serve.served_stale", &[("epoch", &entry.epoch)]);
                    return Ok(Served {
                        value,
                        epoch: entry.epoch,
                        source: ServedSource::Cache,
                        latency,
                    });
                }
                span.record("outcome", "breaker_deflected");
                obs::event("serve.breaker_deflected");
                return Err(ServeError::Internal {
                    detail: "circuit breaker open; no cached result to degrade to".into(),
                    trace,
                });
            }
        }

        self.serve_miss(
            request,
            (fingerprint, epoch),
            &mut span,
            profile,
            start,
            deadline,
        )
    }

    /// The miss path: coalesce onto an identical in-flight execution,
    /// take a result published since the cache lookup, or lead the
    /// execution on this thread.
    fn serve_miss(
        &self,
        request: &QueryRequest,
        key: CacheKey,
        span: &mut SpanGuard,
        profile: ProfileBuilder,
        start: Instant,
        deadline: Duration,
    ) -> ServeResult<Served> {
        let shared = &*self.shared;
        let trace = span.context().map(|c| c.trace);
        // The cache is re-checked under the flight-table lock: a leader
        // that published and retired after this caller's lookup missed
        // is served from the cache, not executed a second time.
        let role = shared.flights.join(&key, span.context(), || {
            shared
                .cache
                .get(&key.0)
                .filter(|entry| entry.epoch >= key.1)
                .map(|entry| entry.value)
        });
        let (outcome, source) = match role {
            FlightRole::Published(value) => {
                shared.metrics.record_hit();
                span.record("source", "cache");
                obs::event_with("serve.cache_hit", &[("epoch", &key.1)]);
                (Ok(value), ServedSource::Cache)
            }
            FlightRole::Follower(flight) => {
                shared.metrics.record_coalesced();
                span.record("source", "coalesced");
                // Link this request's trace to the leader's execution.
                if let Some(leader) = flight.leader_context() {
                    span.record("link_trace", leader.trace.0);
                    span.record("link_span", leader.span.0);
                }
                obs::event("serve.coalesced");
                let remaining = deadline.saturating_sub(start.elapsed());
                (flight.wait(remaining), ServedSource::Coalesced)
            }
            FlightRole::Leader(flight) => {
                shared.metrics.record_miss();
                span.record("source", "executed");
                let outcome = self.lead(request, &key, &flight, trace, profile);
                // No cooperative cancellation: the deadline is checked
                // once the execution (and its publication) is done.
                let outcome = match outcome {
                    Ok(_) if start.elapsed() > deadline => Err(ServeError::DeadlineExceeded {
                        deadline,
                        trace: None,
                    }),
                    other => other,
                };
                (outcome, ServedSource::Executed)
            }
        };
        let value = outcome.map_err(|e| {
            if matches!(e, ServeError::DeadlineExceeded { .. }) {
                shared.metrics.record_deadline_exceeded();
                // A blown deadline is an incident: promote the trace
                // past the recorder's head sampling and capture what
                // every execution was doing when this caller gave up.
                obs::promote_trace();
                obs::trigger_dump("serve.deadline_exceeded", trace);
                // Report the caller's full deadline, not the residue
                // the flight waited on.
                ServeError::DeadlineExceeded { deadline, trace }
            } else {
                e
            }
        })?;
        let latency = start.elapsed();
        shared.metrics.record_latency(latency);
        Ok(Served {
            value,
            epoch: key.1,
            source,
            latency,
        })
    }

    /// Lead `flight`: admit against the in-flight bound, execute on
    /// this thread with any panic contained, then retire the flight and
    /// complete it. A successful execution has already published to the
    /// cache, so a caller arriving after the retire finds the result
    /// there and never joins a completed flight.
    fn lead(
        &self,
        request: &QueryRequest,
        key: &CacheKey,
        flight: &Flight,
        trace: Option<TraceId>,
        profile: ProfileBuilder,
    ) -> ServeResult<Arc<QueryOutcome>> {
        let shared = &*self.shared;
        let admitted_us = obs::monotonic_us();
        let outcome = if shared.in_flight.fetch_add(1, Ordering::Relaxed) >= self.max_in_flight {
            shared.metrics.record_rejected();
            obs::event("serve.rejected_overload");
            Err(ServeError::Overloaded {
                queue_depth: self.queue_depth,
                trace,
            })
        } else {
            catch_unwind(AssertUnwindSafe(|| {
                execute_leader(shared, request, key, trace, profile, admitted_us)
            }))
            .unwrap_or_else(|payload| Err(contain_panic(shared, payload.as_ref(), trace)))
        };
        shared.in_flight.fetch_sub(1, Ordering::Relaxed);
        shared.flights.retire(key);
        flight.complete(outcome.clone());
        outcome
    }

    /// Look up `fingerprint`, revalidating a stale entry against the
    /// warehouse delta log. Returns the value, how the hit was
    /// produced, and the epoch the value is valid at; `None` means the
    /// caller must execute (any unrecoverable entry has been removed).
    ///
    /// Runs under the warehouse read lock so the delta chain and the
    /// patched rows come from one consistent snapshot. Lock order is
    /// warehouse → cache shard, the same as every other path.
    fn lookup_or_revalidate(
        &self,
        fingerprint: &str,
        request: &QueryRequest,
    ) -> Option<(Arc<QueryOutcome>, CacheHit, u64)> {
        let entry = self.shared.cache.get(fingerprint)?;
        // Transient revalidation faults are retried with backoff;
        // exhausted retries fall back to execution, leaving the entry
        // cached so an open breaker can still serve it stale.
        let (revalidate, retries) = self.shared.retry.run(|| fault::point("serve.revalidate"));
        if retries > 0 {
            self.shared.metrics.record_retries(u64::from(retries));
        }
        if revalidate.is_err() {
            obs::event("serve.revalidate_failed");
            return None;
        }
        let wh = self.shared.warehouse.read();
        let current = wh.epoch();
        if entry.epoch >= current {
            return Some((entry.value, CacheHit::Fresh, current));
        }
        let mut span = obs::span("cache.revalidate");
        span.record("from_epoch", entry.epoch);
        span.record("to_epoch", current);
        let deltas = match wh.deltas_since(entry.epoch) {
            Some(d) => d,
            None => {
                // Foreign or aged-out epoch: nothing provable, drop it.
                span.record("outcome", "unknown_epoch");
                self.shared.metrics.record_delta_log_aged_out();
                obs::event_with(
                    "serve.delta_log_aged_out",
                    &[("from_epoch", &entry.epoch), ("to_epoch", &current)],
                );
                self.shared.cache.remove(fingerprint);
                return None;
            }
        };
        let change = ChangeSet::fold(&deltas);
        if change.rewrote_existing {
            span.record("outcome", "rewritten");
            self.shared.cache.remove(fingerprint);
            return None;
        }
        let catalog = self.shared.catalog_for(current, &wh);
        let footprint = request.footprint(&catalog);
        if footprint.touches_any(&change.structural_dimensions) {
            // The stale entry stays: the re-execution below publishes
            // over it at the current epoch.
            span.record("outcome", "footprint_touched");
            return None;
        }
        if change.appended.is_empty() {
            // Every intervening mutation is outside the query's
            // footprint: the stale bytes are the current answer.
            self.shared.cache.promote(fingerprint, current);
            span.record("outcome", "reused");
            obs::event_with(
                "serve.cache_reused_cross_epoch",
                &[("from_epoch", &entry.epoch), ("to_epoch", &current)],
            );
            return Some((entry.value, CacheHit::Reused, current));
        }
        if let (QueryRequest::Cube(spec), Some(cube)) = (request, entry.cube.as_ref()) {
            if let Some((outcome, patched)) = patch_cube(&wh, spec, cube, &deltas) {
                let value = Arc::new(outcome);
                self.shared.cache.insert(
                    fingerprint.to_string(),
                    current,
                    Arc::clone(&value),
                    Some(Arc::new(patched)),
                );
                span.record("outcome", "patched");
                obs::event_with(
                    "serve.cache_patched_incremental",
                    &[("from_epoch", &entry.epoch), ("to_epoch", &current)],
                );
                return Some((value, CacheHit::Patched, current));
            }
        }
        span.record("outcome", "rebuild");
        None
    }

    /// Serve an MDX statement.
    pub fn mdx(&self, text: &str) -> ServeResult<Served> {
        self.execute(&QueryRequest::Mdx(text.to_string()))
    }

    /// Serve a cube materialisation.
    pub fn cube(&self, spec: CubeSpec) -> ServeResult<Served> {
        self.execute(&QueryRequest::Cube(spec))
    }

    /// Serve a declarative report.
    pub fn report(&self, spec: ReportSpec) -> ServeResult<Served> {
        self.execute(&QueryRequest::Report(spec))
    }

    /// Append transformed attendance rows, advancing the data epoch.
    /// Cached results are left in place: the delta log lets later
    /// lookups patch or reuse them instead of re-executing.
    pub fn append(&self, table: &Table) -> ServeResult<usize> {
        let mut wh = self.shared.warehouse.write();
        let appended = wh.append(table)?;
        publish_change(
            &self.shared,
            &WarehouseChange::Append(table.clone()),
            wh.epoch(),
        );
        Ok(appended)
    }

    /// Add a clinician-feedback dimension (§IV), advancing the data
    /// epoch. Cached results are left in place: queries that never
    /// read the new dimension revalidate against the delta log and
    /// keep hitting.
    pub fn add_feedback_dimension(
        &self,
        dimension: &str,
        attribute: &str,
        labels: Vec<Value>,
    ) -> ServeResult<()> {
        let mut wh = self.shared.warehouse.write();
        wh.add_feedback_dimension(dimension, attribute, labels.clone())?;
        publish_change(
            &self.shared,
            &WarehouseChange::Feedback {
                dimension: dimension.to_string(),
                attribute: attribute.to_string(),
                labels,
            },
            wh.epoch(),
        );
        Ok(())
    }

    /// Conservatively invalidate every cached result and advance the
    /// epoch — the escape hatch for out-of-band mutations the delta
    /// log cannot describe more precisely.
    pub fn invalidate_all(&self) {
        let mut wh = self.shared.warehouse.write();
        wh.bump_epoch();
        let epoch = wh.epoch();
        publish_change(&self.shared, &WarehouseChange::Rewrite, epoch);
        drop(wh);
        self.shared.cache.purge_older_than(epoch);
    }

    /// Fold rows appended since the last compaction into fresh sealed
    /// segments using the default [`CompactionConfig`].
    ///
    /// See [`Self::compact_now_with`] for the locking contract.
    pub fn compact_now(&self) -> ServeResult<bool> {
        self.compact_now_with(&CompactionConfig::default())
    }

    /// Fold rows appended since the last compaction into fresh sealed
    /// segments, then vacuum replaced ones from the backend.
    ///
    /// The expensive build runs under the warehouse **read** lock, so
    /// concurrent queries keep executing against the previous segment
    /// view while segments are encoded and written. Only the install —
    /// an in-memory pointer swap — takes the write lock, which is the
    /// same lock queries execute under: a query sees either the old
    /// segment set or the new one, never a mixture. Returns `false`
    /// when there was nothing to compact, or when the warehouse moved
    /// between plan and install (the stale plan is discarded and its
    /// orphaned segments vacuumed; callers may simply retry).
    pub fn compact_now_with(&self, config: &CompactionConfig) -> ServeResult<bool> {
        // Compaction registers as a bounded watchdog task: its span
        // path shows up in the folded profile and a wedged build (or
        // an install stuck behind the write lock) trips the stall
        // detector like any execution.
        let _watchdog_scope = obs::task_scope("warehouse.compact", Duration::from_secs(60));
        let mut span = obs::span("warehouse.compact");
        let plan = {
            let wh = self.shared.warehouse.read();
            wh.plan_compaction(config)?
        };
        let Some(plan) = plan else {
            span.record("outcome", "nothing_to_compact");
            return Ok(false);
        };
        let mut wh = self.shared.warehouse.write();
        let installed = wh.install_compaction(plan)?;
        wh.vacuum_segments()?;
        if installed {
            // A compaction preserves logical content, so followers may
            // replay it as a bare epoch bump (`Rewrite`) over their own
            // row store — same rows, same epoch, same answers.
            publish_change(&self.shared, &WarehouseChange::Rewrite, wh.epoch());
        }
        span.record(
            "outcome",
            if installed { "installed" } else { "stale_plan" },
        );
        Ok(installed)
    }

    /// Apply a replicated change tailed from the oplog, advancing this
    /// follower's epoch to exactly `to_epoch`. The follower-side half
    /// of replication: the router's pump applies records in log order,
    /// and the warehouse rejects stale or out-of-order epochs, so a
    /// replica can never expose an epoch it has not fully applied.
    pub fn apply_change(&self, change: &WarehouseChange, to_epoch: u64) -> ServeResult<()> {
        let mut wh = self.shared.warehouse.write();
        wh.apply_change(change, to_epoch)?;
        Ok(())
    }

    /// Replace this follower's warehouse with `snapshot` (a clone of
    /// the primary) after falling behind the oplog truncation horizon.
    /// Cached results older than the snapshot's epoch are purged:
    /// nothing provable connects them to the re-seeded state.
    pub fn reseed(&self, snapshot: Warehouse) {
        let epoch = snapshot.epoch();
        {
            let mut wh = self.shared.warehouse.write();
            *wh = snapshot;
        }
        self.shared.cache.purge_older_than(epoch);
        obs::event_with("serve.reseeded", &[("epoch", &epoch)]);
    }

    /// Executions in flight right now, each on its leader's thread —
    /// the router's load signal for power-of-two-choices replica
    /// placement.
    pub fn queue_len(&self) -> usize {
        self.shared.in_flight.load(Ordering::Relaxed)
    }

    /// Run `f` against the live warehouse under the read lock.
    pub fn with_warehouse<R>(&self, f: impl FnOnce(&Warehouse) -> R) -> R {
        f(&self.shared.warehouse.read())
    }

    /// The current data epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.warehouse.read().epoch()
    }

    /// A point-in-time copy of the service counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Every service instrument in Prometheus text exposition format,
    /// followed by the watchdog's folded span-path profile (when one
    /// is running) and the SLO burn-rate gauges and alert lines. Each
    /// call feeds a fresh registry snapshot to the SLO engine, so
    /// scraping this endpoint *is* the SLO evaluation cadence.
    pub fn metrics_text(&self) -> String {
        let mut out = self.shared.metrics.render_prometheus();
        if let Some(watchdog) = &self.watchdog {
            out.push_str(&watchdog.metrics_text());
        }
        out.push_str(&obs::render_status(&self.evaluate_slos()));
        out
    }

    /// Evaluate the configured SLOs against the current counters and
    /// return per-objective burn-rate status. A newly-firing objective
    /// emits one `slo.burn_alert` event and a flight-recorder dump.
    pub fn slo_status(&self) -> Vec<SloStatus> {
        self.evaluate_slos()
    }

    fn evaluate_slos(&self) -> Vec<SloStatus> {
        self.shared.slo.observe_and_evaluate(
            obs::monotonic_us(),
            self.shared.metrics.registry().snapshot(),
        )
    }

    /// Force a flight-recorder dump (operator escape hatch: "grab the
    /// black box now"). `None` when no global recorder is installed.
    pub fn flight_dump(&self, reason: &str) -> Option<obs::BlackBox> {
        obs::trigger_dump(reason, None)
    }

    /// Number of cached results.
    pub fn cache_len(&self) -> usize {
        self.shared.cache.len()
    }

    /// The circuit breaker's current state.
    pub fn breaker_state(&self) -> BreakerState {
        self.shared.breaker.state()
    }

    /// Drop every cached result (benchmarking aid — cold-path timing).
    pub fn clear_cache(&self) {
        self.shared.cache.clear();
    }

    /// Stop accepting work, stop the watchdog and return the final
    /// counters. Executions already running on their callers' threads
    /// finish normally.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.drain();
        self.shared.metrics.snapshot()
    }

    fn drain(&mut self) {
        self.shared.accepting.store(false, Ordering::Release);
        if let Some(watchdog) = self.watchdog.take() {
            watchdog.shutdown();
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.drain();
    }
}

/// The leader's execution, on the caller's thread. `Phase::Queue` runs
/// from admission to the start of the scan, so it covers the
/// warehouse-read retries and the `serve.execute` failpoint; the scan
/// then runs under a read snapshot, and a success is published to the
/// cache before this returns.
fn execute_leader(
    shared: &Shared,
    request: &QueryRequest,
    key: &CacheKey,
    trace: Option<TraceId>,
    mut profile: ProfileBuilder,
    admitted_us: u64,
) -> ServeResult<Arc<QueryOutcome>> {
    // A bounded watchdog task: the sampler folds this execution's span
    // path into its profile and declares it stalled past the budget.
    let _watchdog_scope = obs::task_scope("serve.execute", shared.stall_budget);
    let mut exec_span = obs::span("serve.execute");
    // Transient warehouse-read faults retry with backoff before the
    // request fails (and counts against the breaker).
    let (read_ok, read_retries) = shared.retry.run(|| fault::point("serve.warehouse_read"));
    if read_retries > 0 {
        shared.metrics.record_retries(u64::from(read_retries));
    }
    // An error-mode execution fault fails this request; panic mode
    // exercises the containment in `QueryService::lead`.
    let ready = read_ok.and_then(|()| fault::point("serve.execute"));
    profile.record_us(
        Phase::Queue,
        obs::monotonic_us().saturating_sub(admitted_us),
    );
    if let Err(e) = ready {
        return Err(fail_internal(shared, &mut exec_span, trace, e.to_string()));
    }
    let wh = shared.warehouse.read();
    // A mutation may have landed since admission: execute against
    // (and publish under) the epoch actually visible now.
    let exec_epoch = wh.epoch();
    exec_span.record("epoch", exec_epoch);
    let outcome = request.execute_profiled_retaining(&wh, &mut profile);
    drop(wh);
    match outcome {
        Ok((payload, retained_cube)) => {
            let profile = profile.finish();
            exec_span.record("rows_scanned", profile.rows_scanned);
            exec_span.record("cells_emitted", profile.cells_emitted);
            exec_span.record("morsels", profile.morsels_executed);
            shared.metrics.record_rows_scanned(profile.rows_scanned);
            shared
                .metrics
                .record_segments_pruned(profile.segments_pruned);
            shared
                .metrics
                .record_morsels_executed(profile.morsels_executed);
            let value = Arc::new(QueryOutcome {
                payload,
                profile,
                degraded: false,
            });
            shared.metrics.record_executed();
            shared.cache.insert(
                key.0.clone(),
                exec_epoch,
                Arc::clone(&value),
                retained_cube.map(Arc::new),
            );
            shared.breaker.record_success();
            Ok(value)
        }
        Err(e) => {
            // A query-level failure is the query's own problem, not a
            // failure of the serving backend: it does not count
            // against the breaker — but it is still worth keeping in
            // the flight ring.
            obs::promote_trace();
            shared.metrics.record_failed();
            exec_span.record("outcome", "failed");
            Err(ServeError::Query(e))
        }
    }
}

/// Turn a panic that escaped a leader's execution into a typed
/// `Internal` error carrying the trace id, counted as a panic and
/// against the breaker. The caller's thread lives on.
fn contain_panic(
    shared: &Shared,
    payload: &(dyn Any + Send),
    trace: Option<TraceId>,
) -> ServeError {
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned());
    let detail = match message {
        Some(message) => format!("execution panicked: {message}"),
        None => "execution panicked".to_string(),
    };
    shared.metrics.record_worker_panic();
    obs::event_with("serve.execution_panicked", &[("detail", &detail.as_str())]);
    record_breaker_failure(shared, trace);
    ServeError::Internal { detail, trace }
}

/// Count one execution failure against the breaker; on the trip edge
/// (this failure opened it) fire the breaker-opened event and snapshot
/// the flight recorder with the triggering request's trace front and
/// center.
fn record_breaker_failure(shared: &Shared, trace: Option<TraceId>) {
    if shared.breaker.record_failure() {
        // Attribute the trip to this failure domain at the epoch it
        // had applied when it tripped: the event lands in the ring
        // just before the dump is cut, so the black box answers
        // "which replica, how far behind" on its own.
        let applied_epoch = shared.warehouse.read().epoch();
        obs::event_with(
            "serve.breaker_opened",
            &[
                ("replica", &shared.domain.as_str()),
                ("applied_epoch", &applied_epoch),
            ],
        );
        obs::trigger_dump("serve.breaker_open", trace);
    }
}

/// Publish a replicated change to the oplog at `epoch` — the epoch the
/// primary just minted for it, while still holding the warehouse write
/// lock so log order equals epoch order. Transient append faults are
/// retried; exhausted retries record the epoch as a *gap* instead: the
/// log's horizon advances past it, so followers observe `Truncated`
/// and re-seed from a primary snapshot rather than silently diverging.
fn publish_change(shared: &Shared, change: &WarehouseChange, epoch: u64) {
    let Some(log) = shared.oplog.as_ref() else {
        return;
    };
    let (appended, retries) = shared.retry.run(|| log.append(change, epoch));
    if retries > 0 {
        shared.metrics.record_retries(u64::from(retries));
    }
    if let Err(e) = appended {
        obs::event_with(
            "serve.oplog_publish_failed",
            &[("epoch", &epoch), ("error", &e.to_string().as_str())],
        );
        if let Err(gap) = log.mark_gap(epoch) {
            obs::event_with(
                "serve.oplog_gap_failed",
                &[("epoch", &epoch), ("error", &gap.to_string().as_str())],
            );
        }
    }
}

/// Fail the leader's execution with a typed internal error, counted
/// against the circuit breaker before the flight completes.
fn fail_internal(
    shared: &Shared,
    exec_span: &mut SpanGuard,
    trace: Option<TraceId>,
    detail: String,
) -> ServeError {
    // Promote before anything else so the execution span, the failure
    // event, and any breaker-trip dump all carry this trace.
    obs::promote_trace();
    shared.metrics.record_failed();
    exec_span.record("outcome", "internal_failure");
    obs::event_with("serve.internal_failure", &[("detail", &detail.as_str())]);
    record_breaker_failure(shared, trace);
    ServeError::Internal { detail, trace }
}

/// Clone `cube` and fold the delta chain's appended rows into it,
/// producing a fresh outcome (with its own patch profile) and the
/// patched cube to retain. `None` when any delta refuses incremental
/// application — the caller falls back to a full execution.
fn patch_cube(
    wh: &Warehouse,
    spec: &CubeSpec,
    cube: &Cube,
    deltas: &[DeltaSummary],
) -> Option<(QueryOutcome, Cube)> {
    let mut patched = cube.clone();
    let mut profile = ProfileBuilder::start();
    let applied = profile.time(Phase::Execute, || -> clinical_types::Result<bool> {
        for delta in deltas {
            if !patched.apply_delta(wh, spec, delta)? {
                return Ok(false);
            }
        }
        Ok(true)
    });
    if !matches!(applied, Ok(true)) {
        return None;
    }
    profile.rows_scanned(deltas.iter().map(|d| d.appended.len() as u64).sum());
    let result = profile.time(Phase::Aggregate, || CubeResult::from_cube(&patched));
    profile.cells_emitted(result.cells.len() as u64);
    Some((
        QueryOutcome {
            payload: OutcomePayload::Cube(result),
            profile: profile.finish(),
            degraded: false,
        },
        patched,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clinical_types::{DataType, FieldDef, Record, Schema};
    use warehouse::LoadPlan;

    fn small_warehouse() -> Warehouse {
        let star = warehouse::StarSchema::new(
            warehouse::FactDef::new("Facts", vec!["FBG"], vec![]),
            vec![warehouse::DimensionDef::new(
                "Bloods",
                vec!["FBG_Band", "Gender"],
            )],
        )
        .unwrap();
        let schema = Schema::new(vec![
            FieldDef::nullable("FBG", DataType::Float),
            FieldDef::nullable("FBG_Band", DataType::Text),
            FieldDef::nullable("Gender", DataType::Text),
        ])
        .unwrap();
        let rows = vec![
            vec![5.0.into(), "very good".into(), "F".into()],
            vec![6.5.into(), "preDiabetic".into(), "M".into()],
            vec![8.0.into(), "Diabetic".into(), "F".into()],
        ];
        let table = Table::from_rows(schema, rows.into_iter().map(Record::new).collect()).unwrap();
        Warehouse::load(&LoadPlan::from_star(star), &table).unwrap()
    }

    fn fbg_by_band() -> QueryRequest {
        QueryRequest::Report(ReportSpec::new().on_rows("FBG_Band").count())
    }

    #[test]
    fn executes_then_serves_from_cache() {
        let svc = QueryService::new(small_warehouse(), ServeConfig::default()).unwrap();
        let first = svc.execute(&fbg_by_band()).unwrap();
        assert_eq!(first.source, ServedSource::Executed);
        let second = svc.execute(&fbg_by_band()).unwrap();
        assert_eq!(second.source, ServedSource::Cache);
        // The cached answer is the same allocation, hence identical.
        assert!(Arc::ptr_eq(&first.value, &second.value));
        let m = svc.shutdown();
        assert_eq!((m.hits, m.misses, m.executed), (1, 1, 1));
    }

    #[test]
    fn a_result_published_after_the_lookup_is_served_not_re_executed() {
        // The race: a caller's cache lookup misses, then a leader
        // publishes and retires before the caller reaches the flight
        // table. Replay it from the miss path, with the entry already
        // published and no flight left open.
        let svc = QueryService::new(small_warehouse(), ServeConfig::default()).unwrap();
        let request = fbg_by_band();
        let key: CacheKey = (request.fingerprint().unwrap(), svc.epoch());
        let published = Arc::new(QueryOutcome::pivot(olap::PivotTable {
            row_axis: "FBG_Band".into(),
            col_axis: String::new(),
            row_headers: vec![],
            col_headers: vec![],
            cells: vec![],
        }));
        svc.shared
            .cache
            .insert(key.0.clone(), key.1, Arc::clone(&published), None);
        assert_eq!(svc.shared.flights.in_flight(), 0);

        let mut span = obs::span("test.miss");
        let late = svc
            .serve_miss(
                &request,
                key,
                &mut span,
                ProfileBuilder::start(),
                Instant::now(),
                Duration::from_secs(5),
            )
            .unwrap();
        assert_eq!(late.source, ServedSource::Cache);
        assert!(Arc::ptr_eq(&late.value, &published));
        let m = svc.metrics();
        assert_eq!((m.executed, m.misses, m.hits), (0, 0, 1));
    }

    #[test]
    fn out_of_footprint_mutation_reuses_across_epochs() {
        let svc = QueryService::new(small_warehouse(), ServeConfig::default()).unwrap();
        let before = svc.execute(&fbg_by_band()).unwrap();
        // The feedback dimension is outside the query's footprint:
        // delta revalidation serves the identical bytes at the new
        // epoch instead of re-executing.
        svc.add_feedback_dimension("Review", "Flag", vec!["a".into(), "b".into(), "c".into()])
            .unwrap();
        let after = svc.execute(&fbg_by_band()).unwrap();
        assert_eq!(after.source, ServedSource::Cache, "delta reuse must apply");
        assert!(Arc::ptr_eq(&before.value, &after.value));
        assert!(after.epoch > before.epoch);
        let m = svc.metrics();
        assert_eq!((m.misses, m.hits, m.reused_cross_epoch), (1, 1, 1));
        // A query that *reads* the new dimension executes fresh.
        let reads_it = QueryRequest::Report(ReportSpec::new().on_rows("Flag").count());
        assert_eq!(
            svc.execute(&reads_it).unwrap().source,
            ServedSource::Executed
        );
    }

    #[test]
    fn conservative_invalidation_forces_re_execution() {
        let svc = QueryService::new(small_warehouse(), ServeConfig::default()).unwrap();
        let before = svc.execute(&fbg_by_band()).unwrap();
        svc.invalidate_all();
        let after = svc.execute(&fbg_by_band()).unwrap();
        assert_eq!(after.source, ServedSource::Executed, "cache must not apply");
        assert!(after.epoch > before.epoch);
        assert_eq!(svc.metrics().misses, 2);
        assert_eq!(svc.metrics().reused_cross_epoch, 0);
    }

    #[test]
    fn append_patches_retained_cubes_in_place() {
        let svc = QueryService::new(small_warehouse(), ServeConfig::default()).unwrap();
        let spec = CubeSpec::count(vec!["FBG_Band"]);
        let cold = svc.cube(spec.clone()).unwrap();
        assert_eq!(cold.source, ServedSource::Executed);

        let schema = Schema::new(vec![
            FieldDef::nullable("FBG", DataType::Float),
            FieldDef::nullable("FBG_Band", DataType::Text),
            FieldDef::nullable("Gender", DataType::Text),
        ])
        .unwrap();
        let rows = vec![vec![9.0.into(), "Diabetic".into(), "M".into()]];
        let table = Table::from_rows(schema, rows.into_iter().map(Record::new).collect()).unwrap();
        svc.append(&table).unwrap();

        let warm = svc.cube(spec.clone()).unwrap();
        assert_eq!(warm.source, ServedSource::Cache, "patched, not rebuilt");
        assert!(warm.epoch > cold.epoch);
        assert_eq!(svc.metrics().patched_incremental, 1);
        // The patched cell list matches a from-scratch execution.
        svc.clear_cache();
        let rebuilt = svc.cube(spec).unwrap();
        assert_eq!(rebuilt.source, ServedSource::Executed);
        assert_eq!(
            warm.value.as_cube().unwrap(),
            rebuilt.value.as_cube().unwrap()
        );
    }

    #[test]
    fn invalid_queries_are_rejected_at_admission() {
        let svc = QueryService::new(small_warehouse(), ServeConfig::default()).unwrap();
        let err = svc
            .execute(&QueryRequest::Report(
                ReportSpec::new().on_rows("NoSuchAttr").count(),
            ))
            .unwrap_err();
        match err {
            ServeError::Invalid { diagnostics, .. } => {
                assert_eq!(diagnostics.codes(), vec!["A002"]);
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
        // Nothing was admitted, executed or cached; the service still
        // works afterwards.
        assert!(svc.execute(&fbg_by_band()).is_ok());
        let m = svc.metrics();
        assert_eq!(m.rejected_invalid, 1);
        assert_eq!(m.failed, 0);
        assert_eq!(m.executed, 1);
    }

    #[test]
    fn per_user_quota_rejects_with_typed_error() {
        let svc = QueryService::new(
            small_warehouse(),
            ServeConfig {
                quota: Some(QuotaConfig {
                    capacity: 1.0,
                    refill_per_sec: 0.0,
                }),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        assert!(svc.execute_for("alice", &fbg_by_band()).is_ok());
        let err = svc.execute_for("alice", &fbg_by_band()).unwrap_err();
        match err {
            ServeError::QuotaExceeded { session, .. } => assert_eq!(session, "alice"),
            other => panic!("expected QuotaExceeded, got {other:?}"),
        }
        // Only alice is throttled; the rejection is counted.
        assert!(svc.execute_for("bob", &fbg_by_band()).is_ok());
        assert_eq!(svc.metrics().quota_rejected, 1);
    }

    #[test]
    fn primary_publishes_every_mutation_kind_to_the_oplog() {
        let log = Arc::new(Oplog::in_memory());
        let svc = QueryService::new_with_oplog(
            small_warehouse(),
            ServeConfig::default(),
            Arc::clone(&log),
        )
        .unwrap();
        let schema = Schema::new(vec![
            FieldDef::nullable("FBG", DataType::Float),
            FieldDef::nullable("FBG_Band", DataType::Text),
            FieldDef::nullable("Gender", DataType::Text),
        ])
        .unwrap();
        let rows = vec![vec![7.0.into(), "preDiabetic".into(), "F".into()]];
        let table = Table::from_rows(schema, rows.into_iter().map(Record::new).collect()).unwrap();
        svc.append(&table).unwrap();
        svc.add_feedback_dimension(
            "Review",
            "Flag",
            vec!["a".into(), "b".into(), "c".into(), "d".into()],
        )
        .unwrap();
        svc.invalidate_all();
        assert_eq!(log.len(), 3);
        let tail = log.tail_from(oplog::LogPos::start()).unwrap();
        assert_eq!(
            tail.iter()
                .map(|r| r.change.kind_name())
                .collect::<Vec<_>>(),
            vec!["append", "feedback", "rewrite"]
        );
        // Log order is epoch order, ending at the primary's epoch.
        assert_eq!(tail.last().unwrap().pos.epoch, svc.epoch());
    }

    #[test]
    fn shutdown_rejects_new_work() {
        let svc = QueryService::new(small_warehouse(), ServeConfig::default()).unwrap();
        svc.execute(&fbg_by_band()).unwrap();
        let m = svc.shutdown();
        assert_eq!(m.executed, 1);
    }

    #[test]
    fn all_request_kinds_serve() {
        let svc = QueryService::new(small_warehouse(), ServeConfig::default()).unwrap();
        let mdx = svc
            .mdx(
                "SELECT [Gender].MEMBERS ON COLUMNS, [FBG_Band].MEMBERS ON ROWS \
                 FROM [Facts] MEASURE COUNT(*)",
            )
            .unwrap();
        assert!(mdx.value.as_pivot().is_some());
        let cube = svc
            .cube(CubeSpec::count(vec!["FBG_Band", "Gender"]))
            .unwrap();
        let cube = cube.value.as_cube().unwrap();
        assert_eq!(cube.cells.iter().map(|(_, v)| *v).sum::<f64>(), 3.0);
        let report = svc
            .report(
                ReportSpec::new()
                    .on_rows("FBG_Band")
                    .on_columns("Gender")
                    .count(),
            )
            .unwrap();
        assert!(report.value.as_pivot().is_some());
    }
}
