//! The query service: worker pool, admission control, and the
//! cache / single-flight fast paths.
//!
//! Request lifecycle:
//!
//! ```text
//! execute(request)
//!   ├─ fingerprint → cache key; read current data epoch
//!   ├─ semantic analysis fails? → Invalid (nothing queued or cached)
//!   ├─ cache entry, current epoch? ───────────────▶ Served (Cache)
//!   ├─ cache entry, older epoch? revalidate via the delta log:
//!   │    ├─ deltas outside the query's footprint → promote entry
//!   │    │                                       ▶ Served (Cache, reused)
//!   │    ├─ appended rows + retained cube → patch ▶ Served (Cache, patched)
//!   │    └─ otherwise fall through to execute
//!   ├─ identical query in flight? → park on it ───▶ Served (Coalesced)
//!   └─ lead a new flight
//!        ├─ queue full? → Overloaded (nothing ran)
//!        └─ worker executes under a read snapshot,
//!           publishes to cache, wakes all waiters ▶ Served (Executed)
//! ```
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
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use fault::RetryPolicy;
use obs::{
    LockRank, Phase, ProfileBuilder, RankedMutex, RankedRwLock, SloEngine, SloSpec, SloStatus,
    SpanContext, Watchdog, WatchdogConfig,
};
use olap::{Cube, CubeSpec};
use oplog::Oplog;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};
use warehouse::{ChangeSet, CompactionConfig, DeltaSummary, Warehouse, WarehouseChange};

/// Tuning knobs for [`QueryService`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing queries.
    pub workers: usize,
    /// Bounded depth of the admission queue; a full queue rejects with
    /// [`ServeError::Overloaded`] instead of blocking callers.
    pub queue_depth: usize,
    /// Total results held by the cache.
    pub cache_capacity: usize,
    /// Cache shard count (lock-contention bound).
    pub cache_shards: usize,
    /// Deadline applied by [`QueryService::execute`].
    pub default_deadline: Duration,
    /// Artificial per-execution delay, applied by workers before
    /// running the query. A deterministic aid for tests that need
    /// executions to overlap; `None` in production.
    pub execution_delay: Option<Duration>,
    /// Consecutive execution failures that trip the circuit breaker
    /// into degraded mode.
    pub breaker_threshold: u32,
    /// How long the breaker stays open before letting a half-open
    /// probe through.
    pub breaker_cooldown: Duration,
    /// Retry schedule for transient faults on the revalidation and
    /// warehouse-read paths.
    pub retry: RetryPolicy,
    /// Run the stall watchdog sampling thread alongside the pool. It
    /// folds worker span paths into a flamegraph-style profile
    /// (surfaced by [`QueryService::metrics_text`]) and fires a flight
    /// recorder dump when a worker exceeds its stall budget.
    pub watchdog: bool,
    /// Sampling cadence of the watchdog thread.
    pub watchdog_interval: Duration,
    /// Per-worker stall budget: a worker with a query in flight whose
    /// heartbeat is older than this is declared stalled (one `obs.stall`
    /// event + one `watchdog.stall` black-box dump per episode). Zero
    /// disables stall detection.
    pub worker_stall_budget: Duration,
    /// Service-level objectives evaluated from the serve metrics
    /// registry on every [`QueryService::metrics_text`] /
    /// [`QueryService::slo_status`] call (scrape-driven, like
    /// Prometheus recording rules).
    pub slos: Vec<SloSpec>,
    /// Per-user admission quota enforced by
    /// [`QueryService::execute_for`] ahead of the bounded queue;
    /// `None` disables per-session limiting (the aggregate queue bound
    /// still applies).
    pub quota: Option<QuotaConfig>,
    /// Failure-domain label for this service instance, attributed on
    /// breaker-trip events and flight-recorder dumps. The write head
    /// is conventionally `"primary"`; the replica router labels each
    /// follower `"replica-N"`.
    pub domain: String,
}

/// The stock objectives: 99% of requests under 100 ms, and a 99.9%
/// execution success rate. Both use the default 5 m / 1 h burn-rate
/// windows.
pub fn default_slos() -> Vec<SloSpec> {
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
            cache_shards: 8,
            default_deadline: Duration::from_secs(5),
            execution_delay: None,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(250),
            retry: RetryPolicy::default(),
            watchdog: true,
            watchdog_interval: Duration::from_millis(25),
            worker_stall_budget: Duration::from_secs(10),
            slos: default_slos(),
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
    /// This request led the execution on a worker.
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

struct Job {
    request: QueryRequest,
    key: CacheKey,
    flight: Arc<Flight>,
    /// The admitting request's span, so the worker's execution span
    /// joins the caller's trace across the thread boundary.
    ctx: Option<SpanContext>,
    /// Caller-side phases (parse / analyze / cache lookup) already
    /// recorded; the worker adds queue + execution phases and attaches
    /// the finished profile to the outcome.
    profile: ProfileBuilder,
    /// Monotonic enqueue timestamp (µs) for the queue-wait phase.
    queued_us: u64,
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
    execution_delay: Option<Duration>,
    /// The job queue's consume side, held here so a dying worker's
    /// replacement can subscribe to the same queue.
    receiver: Receiver<Job>,
    /// Execution-failure breaker; open = degraded mode.
    breaker: CircuitBreaker,
    /// Transient-fault retry schedule for request paths.
    retry: RetryPolicy,
    /// Join handles of every live worker, including respawns. Workers
    /// register their replacements here; `drain` joins until empty.
    worker_handles: RankedMutex<Vec<JoinHandle<()>>>,
    /// Live worker count (kept alongside the metrics gauge so tests
    /// can spin-wait on pool recovery without a snapshot).
    workers_alive: AtomicUsize,
    /// Monotonic worker-name counter across spawns and respawns.
    worker_seq: AtomicUsize,
    /// Burn-rate engine over this service's metrics registry.
    slo: SloEngine,
    /// Stall budget handed to each worker's watchdog registration.
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
/// once (§IV) — and this type provides the serving discipline: a
/// bounded worker pool, an epoch-keyed result cache, single-flight
/// deduplication and typed overload rejection.
pub struct QueryService {
    shared: Arc<Shared>,
    sender: Option<Sender<Job>>,
    queue_depth: usize,
    default_deadline: Duration,
    /// The sampling thread, when `ServeConfig::watchdog` asked for
    /// one; joined on drain so shutdown leaves no thread behind.
    watchdog: Option<Watchdog>,
}

impl QueryService {
    /// Start a service over `warehouse` with `config`.
    ///
    /// Fails with [`ServeError::Internal`] when a worker thread cannot
    /// be spawned (OS resource exhaustion); any workers already started
    /// are joined before returning, so a failed construction leaks
    /// nothing.
    pub fn new(warehouse: Warehouse, config: ServeConfig) -> ServeResult<QueryService> {
        Self::build(warehouse, config, None)
    }

    /// Start a service that additionally publishes every mutation to
    /// `log` as a replicated change feed — the write head of a replica
    /// set. Followers tail the log (see `oplog::Replica` and the
    /// replica router) and re-derive the same warehouse state at the
    /// same epochs. Failure behaviour is that of [`Self::new`].
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
        let (sender, receiver) = bounded::<Job>(config.queue_depth.max(1));
        let shared = Arc::new(Shared {
            warehouse: RankedRwLock::new(LockRank::Warehouse, "serve.warehouse", warehouse),
            catalog: RankedRwLock::new(LockRank::Catalog, "serve.catalog", catalog),
            cache: ResultCache::new(config.cache_capacity, config.cache_shards),
            flights: FlightTable::default(),
            metrics: ServeMetrics::default(),
            accepting: AtomicBool::new(true),
            execution_delay: config.execution_delay,
            receiver,
            breaker: CircuitBreaker::new(config.breaker_threshold, config.breaker_cooldown),
            retry: config.retry,
            worker_handles: RankedMutex::new(LockRank::Pool, "serve.worker_handles", Vec::new()),
            workers_alive: AtomicUsize::new(0),
            worker_seq: AtomicUsize::new(0),
            slo: SloEngine::new(config.slos.clone()),
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
        for _ in 0..config.workers.max(1) {
            match spawn_worker(&shared) {
                Ok(handle) => shared.worker_handles.lock().push(handle),
                Err(e) => {
                    // Unwind cleanly: no accepting flag, no sender, no
                    // threads left behind.
                    shared.accepting.store(false, Ordering::Release);
                    drop(sender);
                    join_workers(&shared);
                    return Err(ServeError::Internal {
                        detail: format!("failed to spawn worker thread: {e}"),
                        trace: None,
                    });
                }
            }
        }
        // The watchdog is observability, not serving: a failed spawn
        // degrades to no stall detection instead of failing the pool.
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
        Ok(QueryService {
            shared,
            sender: Some(sender),
            queue_depth: config.queue_depth.max(1),
            default_deadline: config.default_deadline,
            watchdog,
        })
    }

    /// Serve `request` under the configured default deadline.
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
    /// let service = QueryService::new(wh, ServeConfig::default()).expect("workers spawn");
    /// let request = QueryRequest::Report(ReportSpec::new().on_rows("FBG_Band").count());
    /// let served = service.execute(&request).unwrap();
    /// assert_eq!(served.source, ServedSource::Executed);
    /// // The same request again is a cache hit sharing the allocation.
    /// assert_eq!(service.execute(&request).unwrap().source, ServedSource::Cache);
    /// # Ok::<(), clinical_types::Error>(())
    /// ```
    pub fn execute(&self, request: &QueryRequest) -> ServeResult<Served> {
        self.execute_with_deadline(request, self.default_deadline)
    }

    /// Serve `request` on behalf of `session`, spending one token from
    /// the session's admission quota first. An empty bucket rejects
    /// with [`ServeError::QuotaExceeded`] before the request touches
    /// the cache, the single-flight table or the queue — one chatty
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

    /// Serve `request`, giving up (with
    /// [`ServeError::DeadlineExceeded`]) once `deadline` elapses. An
    /// abandoned execution still completes on its worker and populates
    /// the cache for later callers.
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
        // the cache, the single-flight table or the worker queue.
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

        let key: CacheKey = (fingerprint, epoch);

        let (flight, source) = match self.shared.flights.join(&key, span.context()) {
            FlightRole::Follower(flight) => {
                self.shared.metrics.record_coalesced();
                span.record("source", "coalesced");
                // Link this request's trace to the leader's execution.
                if let Some(leader) = flight.leader_context() {
                    span.record("link_trace", leader.trace.0);
                    span.record("link_span", leader.span.0);
                }
                obs::event("serve.coalesced");
                (flight, ServedSource::Coalesced)
            }
            FlightRole::Leader(flight) => {
                self.shared.metrics.record_miss();
                span.record("source", "executed");
                let job = Job {
                    request: request.clone(),
                    key: key.clone(),
                    flight: Arc::clone(&flight),
                    ctx: span.context(),
                    profile,
                    queued_us: obs::monotonic_us(),
                };
                let sender = self.sender.as_ref().ok_or(ServeError::ShuttingDown)?;
                // A faulted hand-off behaves exactly like a full
                // queue: typed rejection, nothing executed.
                let sent = match fault::point("serve.enqueue") {
                    Ok(()) => sender.try_send(job),
                    Err(_) => Err(TrySendError::Full(job)),
                };
                if let Err(e) = sent {
                    let error = match e {
                        TrySendError::Full(_) => {
                            self.shared.metrics.record_rejected();
                            obs::event("serve.rejected_overload");
                            ServeError::Overloaded {
                                queue_depth: self.queue_depth,
                                trace,
                            }
                        }
                        TrySendError::Disconnected(_) => ServeError::ShuttingDown,
                    };
                    // Wake anyone who joined between insert and now,
                    // then retire so the next caller starts fresh.
                    flight.complete(Err(error.clone()));
                    self.shared.flights.retire(&key);
                    return Err(error);
                }
                (flight, ServedSource::Executed)
            }
        };

        let remaining = deadline.saturating_sub(start.elapsed());
        let value = flight.wait(remaining).map_err(|e| {
            if matches!(e, ServeError::DeadlineExceeded { .. }) {
                self.shared.metrics.record_deadline_exceeded();
                // A blown deadline is an incident: promote the trace
                // past the recorder's head sampling and capture what
                // every worker was doing when this caller gave up.
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
        self.shared.metrics.record_latency(latency);
        Ok(Served {
            value,
            epoch,
            source,
            latency,
        })
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
    /// See [`Service::compact_now_with`] for the locking contract.
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
        // detector like any worker.
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

    /// Jobs currently waiting in the admission queue — the router's
    /// load signal for power-of-two-choices replica placement.
    pub fn queue_len(&self) -> usize {
        self.shared.receiver.len()
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

    /// Worker threads currently alive. The pool respawns lost workers,
    /// so after a contained panic this returns to the configured size.
    pub fn workers_alive(&self) -> usize {
        self.shared.workers_alive.load(Ordering::Acquire)
    }

    /// The circuit breaker's current state.
    pub fn breaker_state(&self) -> BreakerState {
        self.shared.breaker.state()
    }

    /// Drop every cached result (benchmarking aid — cold-path timing).
    pub fn clear_cache(&self) {
        self.shared.cache.clear();
    }

    /// Stop accepting work, drain the queue, join the workers and
    /// return the final counters.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.drain();
        self.shared.metrics.snapshot()
    }

    fn drain(&mut self) {
        self.shared.accepting.store(false, Ordering::Release);
        // Dropping the sender disconnects the channel; workers finish
        // the queued jobs, then exit on the disconnect.
        self.sender = None;
        join_workers(&self.shared);
        // Stop the sampler last so worker wind-down is still observed.
        if let Some(watchdog) = self.watchdog.take() {
            watchdog.shutdown();
        }
    }
}

/// Join every registered worker, including replacements registered
/// while joining (a dying worker pushes its replacement's handle
/// before exiting, so the loop always converges).
fn join_workers(shared: &Arc<Shared>) {
    loop {
        let handle = shared.worker_handles.lock().pop();
        match handle {
            Some(handle) => {
                let _ = handle.join();
            }
            None => break,
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Spawn one pool worker (fallibly — the `serve.spawn` failpoint
/// stands in for OS thread exhaustion in tests).
fn spawn_worker(shared: &Arc<Shared>) -> std::io::Result<JoinHandle<()>> {
    fault::point("serve.spawn").map_err(|e| std::io::Error::other(e.to_string()))?;
    let index = shared.worker_seq.fetch_add(1, Ordering::Relaxed);
    let shared = Arc::clone(shared);
    thread::Builder::new()
        .name(format!("serve-worker-{index}"))
        .spawn(move || run_worker(&shared))
}

/// Worker thread body: run the job loop, contain any panic that
/// escapes it, and self-heal by spawning a replacement. The pool
/// only shrinks when a respawn itself fails — and even then the
/// service degrades instead of aborting.
fn run_worker(shared: &Arc<Shared>) {
    shared.workers_alive.fetch_add(1, Ordering::AcqRel);
    shared.metrics.add_workers_alive(1);
    // Publish this worker into the watchdog's active-task table for
    // the thread's lifetime: span opens/closes and ranked-lock traffic
    // update the slot passively from here on.
    let worker_name = thread::current()
        .name()
        .map(str::to_string)
        .unwrap_or_else(|| "serve-worker".to_string());
    let _watchdog_slot = obs::register_worker(&worker_name, shared.stall_budget);
    let outcome = catch_unwind(AssertUnwindSafe(|| worker_loop(shared)));
    if outcome.is_err() {
        shared.metrics.record_worker_panic();
        obs::event("serve.worker_panicked");
        // A thread-level panic (not job containment) is an incident:
        // snapshot the ring before the respawn muddies the water.
        obs::trigger_dump("serve.worker_panic", None);
        if shared.accepting.load(Ordering::Acquire) {
            match spawn_worker(shared) {
                Ok(handle) => {
                    shared.metrics.record_worker_respawned();
                    obs::event("serve.worker_respawned");
                    shared.worker_handles.lock().push(handle);
                }
                Err(e) => {
                    shared.metrics.record_worker_respawn_failed();
                    obs::event_with(
                        "serve.worker_respawn_failed",
                        &[("error", &e.to_string().as_str())],
                    );
                }
            }
        }
    }
    shared.workers_alive.fetch_sub(1, Ordering::AcqRel);
    shared.metrics.add_workers_alive(-1);
}

fn worker_loop(shared: &Shared) {
    loop {
        // Thread-death drill: a panic-mode `serve.worker` fault kills
        // the thread *between* jobs, so the queued job survives in the
        // channel and the respawned worker picks it up — the caller is
        // still served. (Error mode is meaningless here; ignore it.)
        let _ = fault::point("serve.worker");
        let Ok(job) = shared.receiver.recv() else {
            break;
        };
        // Queue waits between spans count as liveness, not a stall.
        obs::heartbeat();
        // A panic inside one job is contained to that job: the caller
        // gets a typed Internal error carrying the trace id, the
        // worker thread lives on. The flight handle is cloned out
        // first — the job itself is consumed by the unwound closure.
        let key = job.key.clone();
        let flight = Arc::clone(&job.flight);
        let trace = job.ctx.map(|c| c.trace);
        let done = catch_unwind(AssertUnwindSafe(move || process_job(shared, job)));
        if let Err(payload) = done {
            let detail = panic_detail(payload.as_ref());
            shared.metrics.record_worker_panic();
            obs::event_with("serve.job_panicked", &[("detail", &detail.as_str())]);
            record_breaker_failure(shared, trace);
            shared.flights.retire(&key);
            flight.complete(Err(ServeError::Internal { detail, trace }));
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("worker panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("worker panicked: {s}")
    } else {
        "worker panicked".to_string()
    }
}

fn process_job(shared: &Shared, mut job: Job) {
    // The execution span is a child of the admitting request's
    // span: the trace id crosses the worker-thread boundary.
    let mut exec_span = obs::span_child_of("serve.execute", job.ctx);
    if let Some(delay) = shared.execution_delay {
        thread::sleep(delay);
    }
    // Queue wait is measured after any artificial delay so that
    // deliberate stalls are attributed to queueing, not execution.
    job.profile.record_us(
        Phase::Queue,
        obs::monotonic_us().saturating_sub(job.queued_us),
    );
    // Transient warehouse-read faults retry with backoff before the
    // request fails (and counts against the breaker).
    let (read_ok, read_retries) = shared.retry.run(|| fault::point("serve.warehouse_read"));
    if read_retries > 0 {
        shared.metrics.record_retries(u64::from(read_retries));
    }
    if let Err(e) = read_ok {
        fail_job_internal(shared, &job, &mut exec_span, e.to_string());
        return;
    }
    // An error-mode execution fault fails this request; panic mode
    // exercises the per-job containment in `worker_loop`.
    if let Err(e) = fault::point("serve.execute") {
        fail_job_internal(shared, &job, &mut exec_span, e.to_string());
        return;
    }
    let wh = shared.warehouse.read();
    // A mutation may have landed since admission: execute against
    // (and publish under) the epoch actually visible now.
    let exec_epoch = wh.epoch();
    exec_span.record("epoch", exec_epoch);
    let outcome = job
        .request
        .execute_profiled_retaining(&wh, &mut job.profile);
    drop(wh);
    // Publish to the cache, then retire the flight, then wake the
    // waiters — in that order. New arrivals after the retire must
    // find the result in the cache (or lead a fresh flight); they
    // must never join a flight that has already completed.
    match outcome {
        Ok((payload, retained_cube)) => {
            let profile = job.profile.finish();
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
                job.key.0.clone(),
                exec_epoch,
                Arc::clone(&value),
                retained_cube.map(Arc::new),
            );
            shared.breaker.record_success();
            shared.flights.retire(&job.key);
            job.flight.complete(Ok(value));
        }
        Err(e) => {
            // A query-level failure is the query's own problem, not a
            // failure of the serving backend: it does not count
            // against the breaker — but it is still worth keeping in
            // the flight ring.
            obs::promote_trace();
            shared.metrics.record_failed();
            exec_span.record("outcome", "failed");
            shared.flights.retire(&job.key);
            job.flight.complete(Err(ServeError::Query(e)));
        }
    }
}

/// Count one execution failure against the breaker; on the trip edge
/// (this failure opened it) fire the breaker-opened event and snapshot
/// the flight recorder with the triggering request's trace front and
/// center.
fn record_breaker_failure(shared: &Shared, trace: Option<obs::TraceId>) {
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

/// Fail `job` with a typed internal error and count the failure
/// against the circuit breaker.
fn fail_job_internal(shared: &Shared, job: &Job, exec_span: &mut obs::SpanGuard, detail: String) {
    // Promote before anything else so the execution span, the failure
    // event, and any breaker-trip dump all carry this trace.
    obs::promote_trace();
    shared.metrics.record_failed();
    exec_span.record("outcome", "internal_failure");
    obs::event_with("serve.internal_failure", &[("detail", &detail.as_str())]);
    // Breaker first, completion last: a caller woken by `complete`
    // must observe the failure it was just handed already counted.
    record_breaker_failure(shared, job.ctx.map(|c| c.trace));
    shared.flights.retire(&job.key);
    job.flight.complete(Err(ServeError::Internal {
        detail,
        trace: job.ctx.map(|c| c.trace),
    }));
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
        // Nothing was queued, executed or cached; the service still
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
