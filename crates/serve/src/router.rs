//! Epoch-aware routing across read replicas.
//!
//! The replicated serve tier: one primary [`QueryService`] owns the
//! writes and publishes every mutation to a shared [`Oplog`]; a fan
//! of follower services tails the log and re-derives the same
//! warehouse state at the same epochs. The router in between upholds
//! one invariant — **a replica never serves an epoch it has not fully
//! applied**:
//!
//! ```text
//! execute(request)
//!   ├─ required epoch ← primary's current epoch
//!   ├─ fresh replicas = alive ∧ applied_epoch ≥ required
//!   ├─ pick by power-of-two-choices on load, dispatch
//!   │    ├─ served ──────────────────────────────▶ Served
//!   │    ├─ request's own fault (Invalid/Query) ──▶ returned as-is
//!   │    └─ replica failure → failover to the next fresh replica
//!   ├─ no fresh replica? most-caught-up live one, result marked
//!   │  degraded (stale is explicit, never silent)
//!   └─ no live replica at all ───────────────────▶ Internal
//! ```
//!
//! Catch-up is pull-based: [`ReplicaRouter::tick`] (or the background
//! pump when [`RouterConfig::pump_interval`] is set) tails the log per
//! replica and applies records in order, advancing each cursor only
//! after its record is fully applied. A replica whose cursor falls
//! behind the log's truncation horizon observes a typed `Truncated`
//! error and re-seeds from a primary snapshot — it never replays
//! across a gap, so it can never serve a partially-applied epoch.
//!
//! Each replica keeps its own circuit breaker (inherited from
//! [`QueryService`]); the router adds placement, failover and the
//! optional router-level per-user quota.

use crate::error::{ServeError, ServeResult};
use crate::quota::{AdmissionQuotas, QuotaConfig};
use crate::request::QueryRequest;
use crate::service::{QueryService, ServeConfig, Served};
use clinical_types::{Table, Value};
use obs::{Counter, Gauge, LockRank, MetricsRegistry, RankedMutex, RankedRwLock};
use oplog::{LogPos, Oplog, OplogError};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;
use warehouse::Warehouse;

/// Tuning knobs for [`ReplicaRouter`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Read replicas to run (at least one).
    pub replicas: usize,
    /// Per-service configuration applied to the primary and every
    /// replica (domains and quotas are overridden per instance).
    pub serve: ServeConfig,
    /// Router-level per-user quota, checked once at routing time so a
    /// session cannot dodge its budget by landing on different
    /// replicas. `None` disables it.
    pub quota: Option<QuotaConfig>,
    /// Back the oplog with a durable file at this path; `None` keeps
    /// the feed in memory (single-process serving, tests).
    pub oplog_path: Option<PathBuf>,
    /// Run a background pump thread calling [`ReplicaRouter::tick`] at
    /// this cadence. `None` leaves catch-up to explicit ticks
    /// (deterministic tests and drills).
    pub pump_interval: Option<Duration>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            replicas: 2,
            serve: ServeConfig {
                // One watchdog per process is plenty; routers run many
                // services.
                watchdog: false,
                ..ServeConfig::default()
            },
            quota: None,
            oplog_path: None,
            pump_interval: None,
        }
    }
}

/// One follower service plus its replication cursor.
struct ReplicaHandle {
    id: usize,
    service: QueryService,
    /// Position of the last log record fully applied. Advanced only
    /// after `apply_change` succeeds, so the routing freshness check
    /// (`service.epoch() >= required`) can never observe a
    /// half-applied epoch.
    cursor: RankedMutex<LogPos>,
    /// Cleared by [`ReplicaRouter::fail_replica`] (chaos drills) and
    /// by dispatch-time routing faults.
    alive: AtomicBool,
    epoch_gauge: Gauge,
    lag_gauge: Gauge,
}

/// Router counters, one registry per router.
struct RouterMetrics {
    registry: MetricsRegistry,
    routed: Counter,
    failover: Counter,
    degraded: Counter,
    quota_rejected: Counter,
    reseeds: Counter,
    applied: Counter,
}

impl RouterMetrics {
    fn new() -> RouterMetrics {
        let registry = MetricsRegistry::new();
        RouterMetrics {
            routed: registry.counter("router_routed_total"),
            failover: registry.counter("router_failover_total"),
            degraded: registry.counter("router_degraded_total"),
            quota_rejected: registry.counter("router_quota_rejected_total"),
            reseeds: registry.counter("router_reseeds_total"),
            applied: registry.counter("router_applied_records_total"),
            registry,
        }
    }
}

/// Point-in-time router counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterSnapshot {
    /// Requests served through a replica (fresh or degraded).
    pub routed: u64,
    /// Dispatches that failed over to another fresh replica.
    pub failover: u64,
    /// Requests served stale-marked because no fresh replica existed.
    pub degraded: u64,
    /// Requests rejected by the router-level per-user quota.
    pub quota_rejected: u64,
    /// Replica re-seeds from a primary snapshot (behind the horizon).
    pub reseeds: u64,
    /// Log records applied to replicas.
    pub applied: u64,
}

/// Health and progress of one replica, as seen by the router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// Replica index (`replica-{id}` failure domain).
    pub id: usize,
    /// Whether the router considers it routable.
    pub alive: bool,
    /// The epoch it has fully applied.
    pub applied_epoch: u64,
    /// Executions in flight on it.
    pub queued: usize,
}

struct RouterShared {
    log: Arc<Oplog>,
    primary: QueryService,
    /// Rank `Router`: taken briefly to snapshot the handle list; the
    /// replication cursor (`Replication`) and every service lock rank
    /// strictly above it.
    replicas: RankedRwLock<Vec<Arc<ReplicaHandle>>>,
    quotas: Option<AdmissionQuotas>,
    metrics: RouterMetrics,
    /// splitmix64 state for power-of-two-choices placement —
    /// deterministic from a fixed seed, like every other jitter source
    /// in the repo.
    rng: AtomicU64,
}

/// A replicated query front-end: primary write head, oplog change
/// feed, and epoch-aware read replicas with failover.
pub struct ReplicaRouter {
    shared: Arc<RouterShared>,
    pump: Option<(Arc<AtomicBool>, JoinHandle<()>)>,
}

impl ReplicaRouter {
    /// Start a primary over `warehouse`, seed `config.replicas`
    /// followers from it, and wire them all to one oplog.
    pub fn new(warehouse: Warehouse, config: RouterConfig) -> ServeResult<ReplicaRouter> {
        let log = Arc::new(match &config.oplog_path {
            Some(path) => {
                Oplog::open(path)
                    .map_err(|e| ServeError::Internal {
                        detail: format!("failed to open oplog: {e}"),
                        trace: None,
                    })?
                    .0
            }
            None => Oplog::in_memory(),
        });
        let primary = QueryService::new_with_oplog(
            warehouse,
            ServeConfig {
                domain: "primary".to_string(),
                quota: None,
                ..config.serve.clone()
            },
            Arc::clone(&log),
        )?;
        let metrics = RouterMetrics::new();
        let mut handles = Vec::new();
        for id in 0..config.replicas.max(1) {
            let snapshot = primary.with_warehouse(|wh| wh.clone());
            let cursor = log
                .cursor_at(snapshot.epoch())
                .map_err(|e| ServeError::Internal {
                    detail: format!("seeding replica {id}: {e}"),
                    trace: None,
                })?;
            let service = QueryService::new(
                snapshot,
                ServeConfig {
                    domain: format!("replica-{id}"),
                    quota: None,
                    watchdog: false,
                    ..config.serve.clone()
                },
            )?;
            let epoch_gauge = metrics
                .registry
                .gauge(&format!("router_replica_{id}_epoch"));
            let lag_gauge = metrics.registry.gauge(&format!("router_replica_{id}_lag"));
            epoch_gauge.set(service.epoch() as i64);
            handles.push(Arc::new(ReplicaHandle {
                id,
                service,
                cursor: RankedMutex::new(LockRank::Replication, "serve.router.cursor", cursor),
                alive: AtomicBool::new(true),
                epoch_gauge,
                lag_gauge,
            }));
        }
        let shared = Arc::new(RouterShared {
            log,
            primary,
            replicas: RankedRwLock::new(LockRank::Router, "serve.router.replicas", handles),
            quotas: config.quota.map(AdmissionQuotas::new),
            metrics,
            rng: AtomicU64::new(0x9E37_79B9_7F4A_7C15),
        });
        // The pump is replication plumbing, not serving: a failed
        // spawn degrades to explicit ticks instead of failing the
        // router (mirroring the watchdog's spawn policy).
        let pump = config.pump_interval.and_then(|interval| {
            let stop = Arc::new(AtomicBool::new(false));
            let stop_flag = Arc::clone(&stop);
            let pump_shared = Arc::clone(&shared);
            match thread::Builder::new()
                .name("serve-replication-pump".to_string())
                .spawn(move || {
                    while !stop_flag.load(Ordering::Acquire) {
                        pump_shared.tick();
                        thread::sleep(interval);
                    }
                }) {
                Ok(handle) => Some((stop, handle)),
                Err(e) => {
                    obs::event_with(
                        "router.pump_spawn_failed",
                        &[("error", &e.to_string().as_str())],
                    );
                    None
                }
            }
        });
        Ok(ReplicaRouter { shared, pump })
    }

    /// Route `request` to a fresh replica (see the module doc for the
    /// full decision tree).
    pub fn execute(&self, request: &QueryRequest) -> ServeResult<Served> {
        self.shared.execute(request)
    }

    /// [`Self::execute`] behind the router-level per-user quota.
    pub fn execute_for(&self, session: &str, request: &QueryRequest) -> ServeResult<Served> {
        if let Some(quotas) = &self.shared.quotas {
            if !quotas.try_admit(session) {
                self.shared.metrics.quota_rejected.inc();
                obs::event_with("router.quota_rejected", &[("session", &session)]);
                return Err(ServeError::QuotaExceeded {
                    session: session.to_string(),
                    trace: None,
                });
            }
        }
        self.shared.execute(request)
    }

    /// Append rows through the primary; the mutation lands in the
    /// oplog for replicas to replay.
    pub fn append(&self, table: &Table) -> ServeResult<usize> {
        self.shared.primary.append(table)
    }

    /// Add a feedback dimension through the primary.
    pub fn add_feedback_dimension(
        &self,
        dimension: &str,
        attribute: &str,
        labels: Vec<Value>,
    ) -> ServeResult<()> {
        self.shared
            .primary
            .add_feedback_dimension(dimension, attribute, labels)
    }

    /// Tail the oplog on behalf of every live replica, applying
    /// records in order. Returns the number of records applied across
    /// the fleet. Idempotent and safe to call concurrently with
    /// routing (each replica's cursor serialises its own catch-up).
    pub fn tick(&self) -> usize {
        self.shared.tick()
    }

    /// The primary (write head) service.
    pub fn primary(&self) -> &QueryService {
        &self.shared.primary
    }

    /// The shared change feed.
    pub fn oplog(&self) -> &Arc<Oplog> {
        &self.shared.log
    }

    /// The primary's current epoch — the epoch a query routed now is
    /// required to be served at (or above).
    pub fn epoch(&self) -> u64 {
        self.shared.primary.epoch()
    }

    /// Health and applied epoch of every replica.
    pub fn replica_status(&self) -> Vec<ReplicaStatus> {
        self.shared
            .replicas
            .read()
            .iter()
            .map(|h| ReplicaStatus {
                id: h.id,
                alive: h.alive.load(Ordering::Acquire),
                applied_epoch: h.service.epoch(),
                queued: h.service.queue_len(),
            })
            .collect()
    }

    /// Kill replica `id` (chaos drills): it stops receiving queries
    /// and catch-up until revived. Returns whether the id exists.
    pub fn fail_replica(&self, id: usize) -> bool {
        self.set_alive(id, false)
    }

    /// Revive a previously failed replica; the next tick catches it
    /// up (or re-seeds it past a truncation horizon).
    pub fn revive_replica(&self, id: usize) -> bool {
        self.set_alive(id, true)
    }

    fn set_alive(&self, id: usize, alive: bool) -> bool {
        let found = self
            .shared
            .replicas
            .read()
            .iter()
            .find(|h| h.id == id)
            .map(|h| h.alive.store(alive, Ordering::Release))
            .is_some();
        if found {
            obs::event_with(
                "router.replica_alive",
                &[("replica", &id), ("alive", &alive)],
            );
        }
        found
    }

    /// Point-in-time router counters.
    pub fn metrics(&self) -> RouterSnapshot {
        let m = &self.shared.metrics;
        RouterSnapshot {
            routed: m.routed.get(),
            failover: m.failover.get(),
            degraded: m.degraded.get(),
            quota_rejected: m.quota_rejected.get(),
            reseeds: m.reseeds.get(),
            applied: m.applied.get(),
        }
    }

    /// Router instruments in Prometheus text exposition format
    /// (replica epoch/lag gauges included).
    pub fn metrics_text(&self) -> String {
        self.shared.metrics.registry.render_prometheus()
    }
}

impl Drop for ReplicaRouter {
    fn drop(&mut self) {
        if let Some((stop, handle)) = self.pump.take() {
            stop.store(true, Ordering::Release);
            let _ = handle.join();
        }
    }
}

impl RouterShared {
    /// splitmix64 step — placement jitter with no global RNG.
    fn next_rand(&self) -> u64 {
        let mut z = self
            .rng
            .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Power-of-two-choices: sample two distinct candidates, keep the
    /// one with fewer executions in flight.
    fn pick_p2c(&self, candidates: &[Arc<ReplicaHandle>]) -> usize {
        if candidates.len() == 1 {
            return 0;
        }
        let a = (self.next_rand() as usize) % candidates.len();
        let mut b = (self.next_rand() as usize) % (candidates.len() - 1);
        if b >= a {
            b += 1;
        }
        if candidates[b].service.queue_len() < candidates[a].service.queue_len() {
            b
        } else {
            a
        }
    }

    fn execute(&self, request: &QueryRequest) -> ServeResult<Served> {
        let required = self.primary.epoch();
        let handles: Vec<Arc<ReplicaHandle>> = self.replicas.read().clone();
        let live: Vec<Arc<ReplicaHandle>> = handles
            .iter()
            .filter(|h| h.alive.load(Ordering::Acquire))
            .cloned()
            .collect();
        let mut fresh: Vec<Arc<ReplicaHandle>> = live
            .iter()
            .filter(|h| h.service.epoch() >= required)
            .cloned()
            .collect();

        // Fresh replicas first, failing over on replica faults.
        let mut last_failure: Option<ServeError> = None;
        while !fresh.is_empty() {
            let at = self.pick_p2c(&fresh);
            let handle = fresh.swap_remove(at);
            match self.dispatch(&handle, request, required, false) {
                Dispatch::Served(served) => return Ok(served),
                Dispatch::RequestFault(err) => return Err(err),
                Dispatch::ReplicaFault(err) => {
                    self.metrics.failover.inc();
                    obs::event_with(
                        "router.failover",
                        &[
                            ("replica", &handle.id),
                            ("error", &err.to_string().as_str()),
                        ],
                    );
                    last_failure = Some(err);
                }
            }
        }

        // No fresh replica left: serve from the most-caught-up live
        // one, explicitly stale-marked. Staleness is visible, never
        // silent — and a lagging replica still only answers with the
        // epochs it has fully applied.
        let mut stale: Vec<Arc<ReplicaHandle>> = live;
        stale.sort_by_key(|h| std::cmp::Reverse(h.service.epoch()));
        for handle in stale {
            match self.dispatch(&handle, request, required, true) {
                Dispatch::Served(served) => {
                    self.metrics.degraded.inc();
                    obs::event_with(
                        "router.degraded",
                        &[
                            ("replica", &handle.id),
                            ("required_epoch", &required),
                            ("applied_epoch", &served.epoch),
                        ],
                    );
                    return Ok(served);
                }
                Dispatch::RequestFault(err) => return Err(err),
                Dispatch::ReplicaFault(err) => {
                    self.metrics.failover.inc();
                    obs::event_with(
                        "router.failover",
                        &[
                            ("replica", &handle.id),
                            ("error", &err.to_string().as_str()),
                        ],
                    );
                    last_failure = Some(err);
                }
            }
        }

        Err(last_failure.unwrap_or(ServeError::Internal {
            detail: "no live replica to route to".into(),
            trace: None,
        }))
    }

    /// One dispatch attempt against one replica, classified for the
    /// failover loop.
    fn dispatch(
        &self,
        handle: &ReplicaHandle,
        request: &QueryRequest,
        required: u64,
        degrade: bool,
    ) -> Dispatch {
        if let Err(e) = fault::point("router.route") {
            return Dispatch::ReplicaFault(ServeError::Internal {
                detail: e.to_string(),
                trace: None,
            });
        }
        match handle.service.execute(request) {
            Ok(mut served) => {
                self.metrics.routed.inc();
                if degrade && served.epoch < required {
                    let mut outcome = (*served.value).clone();
                    outcome.degraded = true;
                    served.value = Arc::new(outcome);
                }
                Dispatch::Served(served)
            }
            // The request's own fault follows it to any replica:
            // failing over would just fail N times.
            Err(err @ (ServeError::Invalid { .. } | ServeError::Query(_))) => {
                Dispatch::RequestFault(err)
            }
            Err(err) => Dispatch::ReplicaFault(err),
        }
    }

    fn tick(&self) -> usize {
        let handles: Vec<Arc<ReplicaHandle>> = self.replicas.read().clone();
        let last_seq = self.log.last_pos().map(|p| p.seq).unwrap_or(0);
        let mut applied_total = 0usize;
        for handle in handles {
            if !handle.alive.load(Ordering::Acquire) {
                continue;
            }
            let mut cursor = handle.cursor.lock();
            match self.log.tail_from(*cursor) {
                Ok(records) => {
                    for record in records {
                        // The drill failpoint kills catch-up *between*
                        // records: the cursor stays on the last fully
                        // applied one, so a crashed-and-resumed pump
                        // replays from a record boundary, never inside
                        // an epoch.
                        let crashed = fault::point("replica.apply").is_err(); // lint:allow(A301, "the cursor lock must cover the fault check: a drill-injected crash leaves the cursor on the last fully applied record")
                        if crashed {
                            break;
                        }
                        match handle
                            .service
                            .apply_change(&record.change, record.pos.epoch)
                        {
                            Ok(()) => {
                                *cursor = record.pos;
                                applied_total += 1;
                                self.metrics.applied.inc();
                            }
                            Err(e) => {
                                obs::event_with(
                                    "router.apply_failed",
                                    &[
                                        ("replica", &handle.id),
                                        ("pos", &record.pos),
                                        ("error", &e.to_string().as_str()),
                                    ],
                                );
                                break;
                            }
                        }
                    }
                }
                Err(OplogError::Truncated { .. }) => {
                    // Behind the horizon: replay cannot reach the
                    // present. Re-seed from a primary snapshot and
                    // resume tailing from the snapshot's position.
                    let snapshot = self.primary.with_warehouse(|wh| wh.clone());
                    match self.log.cursor_at(snapshot.epoch()) {
                        Ok(pos) => {
                            handle.service.reseed(snapshot);
                            *cursor = pos;
                            self.metrics.reseeds.inc();
                            obs::event_with(
                                "router.reseed",
                                &[("replica", &handle.id), ("epoch", &pos.epoch)],
                            );
                        }
                        // The log moved again mid-reseed; the next
                        // tick retries with a fresher snapshot.
                        Err(_) => continue,
                    }
                }
                Err(e) => {
                    obs::event_with(
                        "router.tail_failed",
                        &[("replica", &handle.id), ("error", &e.to_string().as_str())],
                    );
                }
            }
            handle.epoch_gauge.set(handle.service.epoch() as i64);
            handle
                .lag_gauge
                .set(last_seq.saturating_sub(cursor.seq) as i64);
        }
        applied_total
    }
}

/// Outcome classification for one routing attempt.
enum Dispatch {
    Served(Served),
    /// The request itself is at fault — same answer everywhere.
    RequestFault(ServeError),
    /// The replica failed the request — try another.
    ReplicaFault(ServeError),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ReportSpec;
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

    fn one_more_row() -> Table {
        let schema = Schema::new(vec![
            FieldDef::nullable("FBG", DataType::Float),
            FieldDef::nullable("FBG_Band", DataType::Text),
            FieldDef::nullable("Gender", DataType::Text),
        ])
        .unwrap();
        Table::from_rows(
            schema,
            vec![Record::new(vec![9.0.into(), "Diabetic".into(), "M".into()])],
        )
        .unwrap()
    }

    fn fbg_by_band() -> QueryRequest {
        QueryRequest::Report(ReportSpec::new().on_rows("FBG_Band").count())
    }

    #[test]
    fn routes_to_replicas_and_replays_mutations() {
        let router = ReplicaRouter::new(small_warehouse(), RouterConfig::default()).unwrap();
        let before = router.execute(&fbg_by_band()).unwrap();
        assert!(!before.value.degraded);

        router.append(&one_more_row()).unwrap();
        assert_eq!(router.oplog().len(), 1);
        // Replicas are now behind: the only fresh source of the new
        // epoch is catch-up, and until it runs results are degraded.
        let stale = router.execute(&fbg_by_band()).unwrap();
        assert!(stale.value.degraded, "stale service must be marked");
        assert!(stale.epoch < router.epoch());

        assert_eq!(router.tick(), 2, "one record applied per replica");
        let fresh = router.execute(&fbg_by_band()).unwrap();
        assert!(!fresh.value.degraded);
        assert_eq!(fresh.epoch, router.epoch());
        for status in router.replica_status() {
            assert_eq!(status.applied_epoch, router.epoch());
        }
        assert!(router.metrics().degraded >= 1);
    }

    #[test]
    fn killing_one_replica_fails_over_transparently() {
        let router = ReplicaRouter::new(small_warehouse(), RouterConfig::default()).unwrap();
        assert!(router.fail_replica(0));
        for _ in 0..8 {
            let served = router.execute(&fbg_by_band()).unwrap();
            assert!(!served.value.degraded);
        }
        assert!(!router.fail_replica(99), "unknown replica id");
        // The dead replica never applies while down, then catches up.
        router.append(&one_more_row()).unwrap();
        assert_eq!(router.tick(), 1, "only the live replica applies");
        assert!(router.revive_replica(0));
        assert_eq!(router.tick(), 1, "the revived one catches up");
    }

    #[test]
    fn request_faults_do_not_fail_over() {
        let router = ReplicaRouter::new(small_warehouse(), RouterConfig::default()).unwrap();
        let err = router
            .execute(&QueryRequest::Report(
                ReportSpec::new().on_rows("NoSuchAttr").count(),
            ))
            .unwrap_err();
        assert!(matches!(err, ServeError::Invalid { .. }));
        assert_eq!(router.metrics().failover, 0);
    }

    #[test]
    fn router_quota_rejects_across_replicas() {
        let router = ReplicaRouter::new(
            small_warehouse(),
            RouterConfig {
                quota: Some(QuotaConfig {
                    capacity: 2.0,
                    refill_per_sec: 0.0,
                }),
                ..RouterConfig::default()
            },
        )
        .unwrap();
        assert!(router.execute_for("alice", &fbg_by_band()).is_ok());
        assert!(router.execute_for("alice", &fbg_by_band()).is_ok());
        let err = router.execute_for("alice", &fbg_by_band()).unwrap_err();
        assert!(matches!(err, ServeError::QuotaExceeded { .. }));
        assert_eq!(router.metrics().quota_rejected, 1);
        assert!(router.execute_for("bob", &fbg_by_band()).is_ok());
    }

    #[test]
    fn truncated_log_forces_reseed() {
        let router = ReplicaRouter::new(small_warehouse(), RouterConfig::default()).unwrap();
        router.append(&one_more_row()).unwrap();
        router.append(&one_more_row()).unwrap();
        // Age the whole feed out before any replica caught up.
        router.oplog().truncate_before(u64::MAX).unwrap();
        router.tick();
        assert_eq!(router.metrics().reseeds, 2);
        for status in router.replica_status() {
            assert_eq!(status.applied_epoch, router.epoch());
        }
        let served = router.execute(&fbg_by_band()).unwrap();
        assert!(!served.value.degraded);
    }

    #[test]
    fn background_pump_catches_replicas_up() {
        let router = ReplicaRouter::new(
            small_warehouse(),
            RouterConfig {
                pump_interval: Some(Duration::from_millis(5)),
                ..RouterConfig::default()
            },
        )
        .unwrap();
        router.append(&one_more_row()).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5); // lint:allow(no-raw-timing, "test deadline polling, not a traced measurement")
        loop {
            let all_fresh = router
                .replica_status()
                .iter()
                .all(|s| s.applied_epoch == router.epoch());
            if all_fresh {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline, // lint:allow(no-raw-timing, "test deadline polling, not a traced measurement")
                "pump never caught replicas up"
            );
            thread::sleep(Duration::from_millis(2));
        }
    }
}
