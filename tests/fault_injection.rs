//! The fault matrix: deterministic chaos drills against the warehouse
//! loader, the compactor and the serving layer.
//!
//! Every test here injects a failure — an I/O error mid-append, a
//! crashed compaction, a panicking execution — and asserts the
//! *graceful* outcome the design promises: the previous epoch stays
//! queryable, sealed segments survive the crash, a panic comes back to
//! its callers as a typed error and hands back its admission slot, and the
//! circuit breaker degrades to stale-but-marked answers instead of
//! erroring, then closes again once probes succeed. No drill may abort
//! the process.
//!
//! Failpoint state is process-global, so every test that arms a
//! failpoint serialises on `fault::test_support::fault_lock()`.

use clinical_types::{DataType, FieldDef, Record, Schema, Table, Value};
use fault::{FaultKind, Trigger};
use serve::{
    BreakerState, QueryRequest, QueryService, ReportSpec, RetryPolicy, ServeConfig, ServeError,
    ServeResult, Served, ServedSource,
};
use std::sync::atomic::Ordering;
use std::sync::Barrier;
use std::thread;
use std::time::Duration;
use warehouse::{DimensionDef, FactDef, LoadPlan, StarSchema, Warehouse};

// ---------------------------------------------------------------- helpers

fn serve_schema() -> Schema {
    Schema::new(vec![
        FieldDef::nullable("FBG", DataType::Float),
        FieldDef::nullable("FBG_Band", DataType::Text),
        FieldDef::nullable("Gender", DataType::Text),
    ])
    .unwrap()
}

fn rows_table(rows: Vec<Vec<Value>>) -> Table {
    Table::from_rows(serve_schema(), rows.into_iter().map(Record::new).collect()).unwrap()
}

fn small_warehouse() -> Warehouse {
    let star = StarSchema::new(
        FactDef::new("Facts", vec!["FBG"], vec![]),
        vec![DimensionDef::new("Bloods", vec!["FBG_Band", "Gender"])],
    )
    .unwrap();
    let table = rows_table(vec![
        vec![5.0.into(), "very good".into(), "F".into()],
        vec![6.5.into(), "preDiabetic".into(), "M".into()],
        vec![8.0.into(), "Diabetic".into(), "F".into()],
        vec![7.2.into(), "Diabetic".into(), "M".into()],
    ]);
    Warehouse::load(&LoadPlan::from_star(star), &table).unwrap()
}

fn count_by_band() -> QueryRequest {
    QueryRequest::Report(ReportSpec::new().on_rows("FBG_Band").count())
}

fn service(config: ServeConfig) -> QueryService {
    QueryService::new(small_warehouse(), config).unwrap()
}

/// A report whose fingerprint differs for every `i`, so concurrent
/// callers each need an execution of their own.
fn distinct(i: usize) -> QueryRequest {
    QueryRequest::Report(
        ReportSpec::new()
            .on_rows("FBG_Band")
            .where_measure_between("FBG", 0.0, 100.0 + i as f64)
            .count(),
    )
}

/// Fire `requests` from one thread each, released together.
fn concurrently(svc: &QueryService, requests: &[QueryRequest]) -> Vec<ServeResult<Served>> {
    let barrier = Barrier::new(requests.len());
    thread::scope(|s| {
        let handles: Vec<_> = requests
            .iter()
            .map(|request| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    svc.execute(request)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

fn assert_panicked(result: &ServeResult<Served>) {
    match result {
        Err(ServeError::Internal { detail, .. }) => {
            assert!(detail.contains("panicked"), "unexpected detail: {detail}");
        }
        other => panic!("expected a contained panic, got {other:?}"),
    }
}

// ------------------------------------- warehouse: mid-load fault isolation

#[test]
fn append_fault_leaves_previous_epoch_queryable() {
    let _lock = fault::test_support::fault_lock();
    let svc = service(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let primed = svc.execute(&count_by_band()).unwrap();
    assert_eq!(primed.source, ServedSource::Executed);
    let epoch_before = svc.epoch();
    let facts_before = svc.with_warehouse(|wh| wh.n_facts());

    let more = rows_table(vec![
        vec![9.1.into(), "Diabetic".into(), "F".into()],
        vec![4.9.into(), "very good".into(), "M".into()],
    ]);
    {
        let _fault = fault::arm("warehouse.append", Trigger::Always, FaultKind::Error);
        let err = svc.append(&more).expect_err("armed append must fail");
        assert!(
            err.to_string()
                .contains("injected fault at warehouse.append"),
            "unexpected error: {err}"
        );
    }

    // The failed load mutated nothing: same epoch, same fact count,
    // and the cached result still serves fresh.
    assert_eq!(svc.epoch(), epoch_before);
    assert_eq!(svc.with_warehouse(|wh| wh.n_facts()), facts_before);
    let after = svc.execute(&count_by_band()).unwrap();
    assert_eq!(after.source, ServedSource::Cache);
    assert!(!after.value.degraded);
    assert_eq!(after.value, primed.value);

    // With the fault disarmed the same append goes through.
    assert_eq!(svc.append(&more).unwrap(), 2);
    assert!(svc.epoch() > epoch_before);
    svc.shutdown();
}

// ------------------------------------ serve: panics contained on the caller

/// Executions run on their callers' threads, so there is no worker
/// thread to lose: a panic unwinds to the leader's `catch_unwind` and
/// the service is back at full capacity for the next request.
#[test]
fn worker_thread_death_heals_back_to_full_pool_size() {
    let _lock = fault::test_support::fault_lock();
    let svc = service(ServeConfig {
        workers: 1,
        queue_depth: 1,
        breaker_threshold: 100, // isolate panic containment from the breaker
        ..ServeConfig::default()
    });
    {
        let _fault = fault::arm("serve.execute", Trigger::Always, FaultKind::Panic);
        // More panics than the service has admission slots: a slot
        // leaked by a panic would turn a later one into `Overloaded`.
        for _ in 0..3 {
            assert_panicked(&svc.execute(&count_by_band()));
        }
    }
    assert_eq!(svc.queue_len(), 0, "every admission slot came back");
    let served = svc.execute(&count_by_band()).unwrap();
    assert_eq!(served.source, ServedSource::Executed);
    let m = svc.shutdown();
    assert!(m.worker_panics >= 3, "{m}");
    assert_eq!(m.rejected, 0);
}

#[test]
fn job_panic_is_contained_to_a_typed_error() {
    let _lock = fault::test_support::fault_lock();
    let svc = service(ServeConfig {
        workers: 2,
        breaker_threshold: 100, // isolate panic containment from the breaker
        ..ServeConfig::default()
    });

    {
        let _fault = fault::arm("serve.execute", Trigger::Always, FaultKind::Panic);
        let err = svc
            .execute(&count_by_band())
            .expect_err("panicking execution must surface as an error");
        assert!(
            err.to_string().contains("panicked"),
            "unexpected error: {err}"
        );
        assert!(matches!(err, ServeError::Internal { .. }), "{err:?}");
    }

    let served = svc.execute(&count_by_band()).unwrap();
    assert_eq!(served.source, ServedSource::Executed);
    let m = svc.shutdown();
    assert!(m.worker_panics >= 1);
}

/// Construction starts no serving thread, so it has nothing to fail on:
/// with the execution path broken, `new` still succeeds and the failure
/// surfaces as a typed error on the first request instead.
#[test]
fn spawn_failure_at_construction_is_a_typed_error() {
    let _lock = fault::test_support::fault_lock();
    let _fault = fault::arm("serve.execute", Trigger::Always, FaultKind::Error);
    let svc = QueryService::new(small_warehouse(), ServeConfig::default())
        .expect("construction spawns no serving thread");
    let err = svc
        .execute(&count_by_band())
        .expect_err("the broken execution path must fail the request");
    assert!(
        err.to_string().contains("internal serving failure"),
        "unexpected error: {err}"
    );
}

/// Panics never shrink the service: after every admission slot has
/// hosted a panicking execution at once, all of them can still run at
/// once.
#[test]
fn respawn_failure_degrades_to_a_smaller_pool_that_still_serves() {
    const WORKERS: usize = 2;
    const QUEUE_DEPTH: usize = 2;
    let _lock = fault::test_support::fault_lock();
    let svc = service(ServeConfig {
        workers: WORKERS,
        queue_depth: QUEUE_DEPTH,
        breaker_threshold: 100,
        ..ServeConfig::default()
    });
    let requests: Vec<QueryRequest> = (0..WORKERS + QUEUE_DEPTH).map(distinct).collect();
    // The delay holds every execution open until all are in flight.
    let _slow = fault::arm(
        "serve.warehouse_read",
        Trigger::Always,
        FaultKind::Delay(Duration::from_millis(50)),
    );
    {
        let _fault = fault::arm("serve.execute", Trigger::Always, FaultKind::Panic);
        for result in concurrently(&svc, &requests) {
            assert_panicked(&result);
        }
    }
    for result in concurrently(&svc, &requests) {
        assert_eq!(result.unwrap().source, ServedSource::Executed);
    }
    let m = svc.shutdown();
    assert_eq!(m.worker_panics, (WORKERS + QUEUE_DEPTH) as u64);
    assert_eq!(m.rejected, 0, "no admission slot was lost to a panic");
}

/// A panicking leader completes its flight with the error, so every
/// caller coalesced onto it gets `Internal` at once — not a deadline —
/// and the breaker counts one failure, not one per caller.
#[test]
fn followers_of_a_panicking_leader_all_get_internal() {
    const CALLERS: usize = 4;
    let _lock = fault::test_support::fault_lock();
    let svc = service(ServeConfig {
        workers: 2,
        breaker_threshold: 2,
        retry: RetryPolicy::none(),
        ..ServeConfig::default()
    });
    {
        // The delay keeps the leader's flight open until every caller
        // has joined it; then the execution panics.
        let _slow = fault::arm(
            "serve.warehouse_read",
            Trigger::Always,
            FaultKind::Delay(Duration::from_millis(200)),
        );
        let _fault = fault::arm("serve.execute", Trigger::Always, FaultKind::Panic);
        let requests = vec![count_by_band(); CALLERS];
        for result in concurrently(&svc, &requests) {
            assert_panicked(&result);
        }
    }
    let m = svc.metrics();
    assert_eq!(m.worker_panics, 1, "one leader executed: {m}");
    assert_eq!(m.coalesced as usize, CALLERS - 1, "{m}");
    assert_eq!(m.deadline_exceeded, 0);
    assert_eq!(
        svc.breaker_state(),
        BreakerState::Closed,
        "one failure against a threshold of two"
    );
    let served = svc.execute(&count_by_band()).unwrap();
    assert_eq!(served.source, ServedSource::Executed);
    svc.shutdown();
}

// ------------------------------------ breaker: degrade, probe, recover

#[test]
fn breaker_serves_stale_marked_results_then_closes_after_recovery() {
    let _lock = fault::test_support::fault_lock();
    let cooldown = Duration::from_millis(100);
    let svc = service(ServeConfig {
        workers: 2,
        breaker_threshold: 2,
        breaker_cooldown: cooldown,
        retry: RetryPolicy::none(),
        ..ServeConfig::default()
    });
    let query = count_by_band();

    // Prime the cache at the healthy epoch, then advance the epoch so
    // the entry is stale (the feedback dimension is outside the
    // query's footprint, so only revalidation keeps it servable).
    let primed = svc.execute(&query).unwrap();
    assert_eq!(primed.source, ServedSource::Executed);
    let stale_epoch = primed.epoch;
    let labels = vec![Value::from("unreviewed"); svc.with_warehouse(|wh| wh.n_facts())];
    svc.add_feedback_dimension("Review", "Flag", labels)
        .unwrap();
    assert!(svc.epoch() > stale_epoch);

    // Break both paths: revalidation and execution. Every request now
    // fails internally, counting toward the breaker.
    let revalidate = fault::arm("serve.revalidate", Trigger::Always, FaultKind::Error);
    let execute = fault::arm("serve.execute", Trigger::Always, FaultKind::Error);
    for attempt in 0..2 {
        let err = svc.execute(&query).expect_err("broken execution");
        assert!(
            err.to_string().contains("injected fault"),
            "attempt {attempt}: {err}"
        );
    }
    assert_eq!(svc.breaker_state(), BreakerState::Open);

    // Open breaker + stale cache entry → degraded serving: the stale
    // result comes back marked, at its original epoch, with no error.
    let degraded = svc.execute(&query).unwrap();
    assert_eq!(degraded.source, ServedSource::Cache);
    assert!(degraded.value.degraded, "stale serve must be marked");
    assert_eq!(
        degraded.epoch, stale_epoch,
        "serves the epoch it was computed at"
    );
    assert_eq!(degraded.value, primed.value);
    let m = svc.metrics();
    assert!(m.served_stale >= 1, "served_stale must move: {m}");
    assert!(m.breaker_open >= 1, "breaker_open must move: {m}");

    // Heal the fault, wait out the cooldown, and force a real
    // execution: the half-open probe succeeds and the breaker closes.
    drop(revalidate);
    drop(execute);
    std::thread::sleep(cooldown + Duration::from_millis(50));
    svc.clear_cache();
    let probed = svc.execute(&query).unwrap();
    assert_eq!(probed.source, ServedSource::Executed);
    assert!(!probed.value.degraded);
    assert_eq!(probed.value, primed.value);
    assert_eq!(svc.breaker_state(), BreakerState::Closed);

    // Steady state restored: the fresh entry hits without degradation.
    let warm = svc.execute(&query).unwrap();
    assert_eq!(warm.source, ServedSource::Cache);
    assert!(!warm.value.degraded);
    svc.shutdown();
}

// --------------------------------------- compactor: crash-surviving seals

/// Every compactor failpoint × fault kind, drilled through the serving
/// layer: a compaction that errors *or panics* mid-build or mid-install
/// must leave the previously sealed segments live, keep every row
/// queryable (sealed + tail), and a retry after the fault clears must
/// seal the backlog cleanly.
#[test]
fn compactor_crashes_never_lose_sealed_segments() {
    let _lock = fault::test_support::fault_lock();
    for point in ["warehouse.compact_build", "warehouse.compact_install"] {
        for kind in [FaultKind::Error, FaultKind::Panic] {
            let svc = service(ServeConfig::default());
            assert!(svc.compact_now().unwrap(), "initial seal");
            let sealed = svc.with_warehouse(|wh| (wh.segments().len(), wh.segments().watermark()));
            assert_eq!(sealed.1, 4, "all seed rows sealed");

            // Grow a tail, then crash its compaction.
            svc.append(&rows_table(vec![vec![
                9.9.into(),
                "Diabetic".into(),
                "F".into(),
            ]]))
            .unwrap();
            {
                let _fp = fault::arm(point, Trigger::Once, kind);
                let crashed =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| svc.compact_now()));
                match crashed {
                    Ok(result) => assert!(
                        result.is_err(),
                        "{point}/Error must surface as a typed error"
                    ),
                    Err(_) => assert_eq!(kind, FaultKind::Panic, "only panic drills may unwind"),
                }
            }

            // The sealed view is exactly what it was before the crash.
            let after = svc.with_warehouse(|wh| (wh.segments().len(), wh.segments().watermark()));
            assert_eq!(after, sealed, "{point}/{kind:?} tore the sealed view");

            // Every row — sealed and tail — still serves.
            svc.clear_cache();
            let served = svc.execute(&count_by_band()).unwrap();
            let total: f64 = served
                .value
                .as_pivot()
                .unwrap()
                .cells
                .iter()
                .flatten()
                .filter_map(|c| *c)
                .sum();
            assert_eq!(total, 5.0, "{point}/{kind:?} lost rows");

            // Fault cleared: the retry seals the backlog (including any
            // orphans the crashed install left behind).
            assert!(svc.compact_now().unwrap(), "{point}/{kind:?} retry");
            assert_eq!(svc.with_warehouse(|wh| wh.segments().watermark()), 5);
            svc.shutdown();
        }
    }
}

/// The compactor's two-phase locking (plan under the read lock, swap
/// under the write lock) means a query racing a compaction sees either
/// the old segment set or the new one — never a mixture. Hammer
/// queries against concurrent append + compact + vacuum cycles: per
/// querying thread the observed row totals must be monotone (a torn
/// view double-counts or drops rows, breaking monotonicity).
#[test]
fn concurrent_queries_never_see_a_torn_segment_view() {
    use olap::CubeSpec;
    // Arms nothing itself, but failpoints are process-global: without
    // the lock a sibling's armed `serve.execute` or one-shot
    // `warehouse.compact_*` fault fires in here instead of there.
    let _lock = fault::test_support::fault_lock();
    let svc = std::sync::Arc::new(service(ServeConfig::default()));
    assert!(svc.compact_now().unwrap());
    let stop = std::sync::atomic::AtomicBool::new(false);
    let rounds = 24usize;

    std::thread::scope(|s| {
        let observers: Vec<_> = (0..2)
            .map(|_| {
                let svc = std::sync::Arc::clone(&svc);
                let stop = &stop;
                s.spawn(move || {
                    let mut totals = Vec::new();
                    while !stop.load(Ordering::Acquire) {
                        svc.clear_cache();
                        let served = svc.cube(CubeSpec::count(vec!["FBG_Band"])).unwrap();
                        let total: f64 = served
                            .value
                            .as_cube()
                            .unwrap()
                            .cells
                            .iter()
                            .map(|(_, v)| v)
                            .sum();
                        totals.push(total);
                    }
                    totals
                })
            })
            .collect();

        for _ in 0..rounds {
            svc.append(&rows_table(vec![vec![
                6.0.into(),
                "preDiabetic".into(),
                "M".into(),
            ]]))
            .unwrap();
            svc.compact_now().unwrap();
        }
        stop.store(true, Ordering::Release);

        for handle in observers {
            let totals = handle.join().unwrap();
            for window in totals.windows(2) {
                assert!(
                    window[1] >= window[0],
                    "row totals went backwards: {window:?} — torn segment view"
                );
            }
            for t in &totals {
                assert!(
                    (4.0..=(4 + rounds) as f64).contains(t),
                    "impossible row total {t}"
                );
            }
        }
    });

    // Quiesced: everything sealed, the final count is exact.
    svc.clear_cache();
    let served = svc.cube(CubeSpec::count(vec!["FBG_Band"])).unwrap();
    let total: f64 = served
        .value
        .as_cube()
        .unwrap()
        .cells
        .iter()
        .map(|(_, v)| v)
        .sum();
    assert_eq!(total, (4 + rounds) as f64);
    assert_eq!(
        svc.with_warehouse(|wh| wh.segments().watermark()),
        4 + rounds
    );
}
