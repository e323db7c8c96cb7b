//! Concurrency behaviour of the serving subsystem: single-flight
//! coalescing, epoch-driven cache invalidation, and admission-control
//! backpressure. All tests drive a real `QueryService` from many caller
//! threads; a `Delay` fault at `serve.execute` makes executions overlap
//! deterministically without relying on query cost. Failpoints are
//! process-global, so every test holds `fault::test_support::fault_lock()`.

use clinical_types::{DataType, FieldDef, Record, Schema, Table};
use fault::{FaultKind, Trigger};
use serve::{QueryRequest, QueryService, ReportSpec, ServeConfig, ServeError, ServedSource};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};
use warehouse::{DimensionDef, FactDef, LoadPlan, StarSchema, Warehouse};

fn schema() -> Schema {
    Schema::new(vec![
        FieldDef::nullable("FBG", DataType::Float),
        FieldDef::nullable("FBG_Band", DataType::Text),
        FieldDef::nullable("Gender", DataType::Text),
    ])
    .unwrap()
}

fn rows_table(rows: Vec<Vec<clinical_types::Value>>) -> Table {
    Table::from_rows(schema(), rows.into_iter().map(Record::new).collect()).unwrap()
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

/// A report whose fingerprint differs for every `i`: no coalescing, so
/// every caller needs an execution of its own.
fn distinct(i: usize) -> QueryRequest {
    QueryRequest::Report(
        ReportSpec::new()
            .on_rows("FBG_Band")
            .where_measure_between("FBG", 0.0, 100.0 + i as f64)
            .count(),
    )
}

/// Every execution sleeps `ms` before its scan until the guard drops.
fn delay_executions(ms: u64) -> fault::FaultGuard {
    fault::arm(
        "serve.execute",
        Trigger::Always,
        FaultKind::Delay(Duration::from_millis(ms)),
    )
}

#[test]
fn identical_concurrent_queries_coalesce_into_one_execution() {
    const CALLERS: usize = 8;
    let _lock = fault::test_support::fault_lock();
    let _slow = delay_executions(80);
    let svc = QueryService::new(
        small_warehouse(),
        ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    let barrier = Arc::new(Barrier::new(CALLERS));
    let sources = thread::scope(|s| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|_| {
                let svc = &svc;
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    barrier.wait();
                    svc.execute(&count_by_band()).unwrap().source
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    });

    // Exactly one caller led; everyone else coalesced onto its flight
    // (the 80ms execution delay keeps the flight open until all eight
    // callers have arrived).
    let executed = sources
        .iter()
        .filter(|s| **s == ServedSource::Executed)
        .count();
    let coalesced = sources
        .iter()
        .filter(|s| **s == ServedSource::Coalesced)
        .count();
    assert_eq!(executed, 1, "sources: {sources:?}");
    assert_eq!(coalesced, CALLERS - 1, "sources: {sources:?}");

    let m = svc.shutdown();
    assert_eq!(m.executed, 1, "one execution for {CALLERS} callers");
    assert_eq!(m.coalesced as usize, CALLERS - 1);
    assert_eq!(m.misses, 1);
}

#[test]
fn warm_hit_is_identical_to_fresh_execution() {
    let _lock = fault::test_support::fault_lock();
    let svc = QueryService::new(small_warehouse(), ServeConfig::default()).unwrap();
    let cold = svc.execute(&count_by_band()).unwrap();
    let warm = svc.execute(&count_by_band()).unwrap();
    assert_eq!(cold.source, ServedSource::Executed);
    assert_eq!(warm.source, ServedSource::Cache);
    // Same allocation, therefore byte-identical content.
    assert!(Arc::ptr_eq(&cold.value, &warm.value));
    assert_eq!(cold.value, warm.value);

    // And a forced re-execution (cache cleared) reproduces the same
    // result value, so the cache never changes an answer.
    svc.clear_cache();
    let fresh = svc.execute(&count_by_band()).unwrap();
    assert_eq!(fresh.source, ServedSource::Executed);
    assert_eq!(fresh.value, warm.value);
}

#[test]
fn append_bumps_epoch_and_invalidates_cached_results() {
    let _lock = fault::test_support::fault_lock();
    let svc = QueryService::new(small_warehouse(), ServeConfig::default()).unwrap();
    let before = svc.execute(&count_by_band()).unwrap();
    let diabetic_before = before
        .value
        .as_pivot()
        .unwrap()
        .get(&"Diabetic".into(), &"all".into())
        .unwrap();

    // New attendances arrive: the epoch advances and the cached pivot
    // must not be served again.
    svc.append(&rows_table(vec![vec![
        9.1.into(),
        "Diabetic".into(),
        "F".into(),
    ]]))
    .unwrap();

    let after = svc.execute(&count_by_band()).unwrap();
    assert!(after.epoch > before.epoch);
    assert_eq!(after.source, ServedSource::Executed);
    let diabetic_after = after
        .value
        .as_pivot()
        .unwrap()
        .get(&"Diabetic".into(), &"all".into())
        .unwrap();
    assert_eq!(diabetic_after, diabetic_before + 1.0);

    // The stale entry was purged, not merely shadowed.
    assert_eq!(svc.cache_len(), 1);
}

#[test]
fn full_queue_rejects_with_overloaded_and_never_blocks() {
    const CALLERS: usize = 12;
    // Two executions admitted at once (one worker + a queue depth of
    // one), each stuck 200ms: most callers must be turned away
    // immediately.
    let _lock = fault::test_support::fault_lock();
    let _slow = delay_executions(200);
    let svc = QueryService::new(
        small_warehouse(),
        ServeConfig {
            workers: 1,
            queue_depth: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    let barrier = Arc::new(Barrier::new(CALLERS));
    let started = Instant::now();
    let results = thread::scope(|s| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|i| {
                let svc = &svc;
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    barrier.wait();
                    svc.execute(&distinct(i))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    });

    let rejected = results
        .iter()
        .filter(|r| matches!(r, Err(ServeError::Overloaded { queue_depth: 1, .. })))
        .count();
    let served = results.iter().filter(|r| r.is_ok()).count();
    assert!(rejected > 0, "no caller was rejected: {results:?}");
    assert!(served > 0, "no caller was served: {results:?}");
    assert_eq!(rejected + served, CALLERS, "unexpected error: {results:?}");
    // Rejection is immediate: even with a 200ms execution, all calls
    // return well before CALLERS × 200ms of serialised work.
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "admission control blocked: {:?}",
        started.elapsed()
    );

    let m = svc.shutdown();
    assert_eq!(m.rejected as usize, rejected);
    assert_eq!(m.executed as usize, served);
}

#[test]
fn deadline_expires_but_execution_still_warms_the_cache() {
    let _lock = fault::test_support::fault_lock();
    let _slow = delay_executions(150);
    let svc = QueryService::new(
        small_warehouse(),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let err = svc
        .execute_with_deadline(&count_by_band(), Duration::from_millis(20))
        .unwrap_err();
    assert!(matches!(err, ServeError::DeadlineExceeded { .. }));

    // The leader ran its execution to the end and published it before
    // reporting the overrun, so later callers hit the cached result.
    let served = svc.execute(&count_by_band()).unwrap();
    assert_ne!(served.source, ServedSource::Executed);
    let m = svc.shutdown();
    assert_eq!(m.deadline_exceeded, 1);
    assert_eq!(m.executed, 1);
}

#[test]
fn invalid_queries_are_rejected_before_admission() {
    let _lock = fault::test_support::fault_lock();
    let svc = QueryService::new(small_warehouse(), ServeConfig::default()).unwrap();

    // One invalid request of every kind, with the code the analyzer
    // must assign. None of them may reach admission, the cache or an
    // execution.
    let corpus: Vec<(QueryRequest, &str)> = vec![
        (
            QueryRequest::Mdx(
                "SELECT [Gendr].MEMBERS ON COLUMNS, [FBG_Band].MEMBERS ON ROWS \
                 FROM [Facts] MEASURE COUNT(*)"
                    .into(),
            ),
            "A002",
        ),
        (
            QueryRequest::Mdx(
                "SELECT [Gender].MEMBERS ON COLUMNS, [FBG_Band].MEMBERS ON ROWS \
                 FROM [Wrong Cube] MEASURE COUNT(*)"
                    .into(),
            ),
            "A001",
        ),
        (
            QueryRequest::Mdx(
                "SELECT [Gender].MEMBERS ON COLUMNS, [FBG_Band].MEMBERS ON ROWS \
                 FROM [Facts] WHERE [FBG] = 'high' MEASURE COUNT(*)"
                    .into(),
            ),
            "A100",
        ),
        (
            QueryRequest::Cube(olap::CubeSpec::count(vec!["FBG_Band", "NoSuchAttr"])),
            "A002",
        ),
        (
            QueryRequest::Report(
                ReportSpec::new()
                    .on_rows("FBG_Band")
                    .where_measure_between("Gender", 0.0, 1.0)
                    .count(),
            ),
            "A101",
        ),
        (
            QueryRequest::Report(ReportSpec::new().on_rows("FBG_Band").count_distinct("FBG")),
            "A201",
        ),
    ];
    let n = corpus.len();

    for (request, code) in corpus {
        match svc.execute(&request).unwrap_err() {
            ServeError::Invalid { diagnostics, .. } => {
                assert!(
                    diagnostics.codes().contains(&code),
                    "expected {code} for {request:?}, got {:?}",
                    diagnostics.codes()
                );
            }
            other => panic!("expected Invalid for {request:?}, got {other:?}"),
        }
    }

    // A rejected request is free: no execution, no cache entry, no
    // miss recorded — and rejections are counted apart from load
    // shedding.
    let m = svc.metrics();
    assert_eq!(m.rejected_invalid as usize, n);
    assert_eq!(m.rejected, 0);
    assert_eq!(m.executed, 0);
    assert_eq!(m.misses, 0);
    assert_eq!(svc.cache_len(), 0);

    // Valid work still flows afterwards.
    let served = svc.execute(&count_by_band()).unwrap();
    assert_eq!(served.source, ServedSource::Executed);
    let m = svc.shutdown();
    assert_eq!(m.executed, 1);
    assert_eq!(m.rejected_invalid as usize, n);
}

#[test]
fn mixed_request_kinds_hammered_from_many_threads() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 20;
    let _lock = fault::test_support::fault_lock();
    let svc = QueryService::new(small_warehouse(), ServeConfig::default()).unwrap();

    let requests = [
        QueryRequest::Mdx(
            "SELECT [Gender].MEMBERS ON COLUMNS, [FBG_Band].MEMBERS ON ROWS \
             FROM [Facts] MEASURE COUNT(*)"
                .into(),
        ),
        QueryRequest::Cube(olap::CubeSpec::count(vec!["FBG_Band", "Gender"])),
        QueryRequest::Report(ReportSpec::new().on_rows("Gender").count()),
    ];

    thread::scope(|s| {
        for t in 0..THREADS {
            let svc = &svc;
            let requests = &requests;
            s.spawn(move || {
                for r in 0..ROUNDS {
                    let request = &requests[(t + r) % requests.len()];
                    let served = svc.execute(request).unwrap();
                    match request {
                        QueryRequest::Cube(_) => assert!(served.value.as_cube().is_some()),
                        _ => assert!(served.value.as_pivot().is_some()),
                    }
                }
            });
        }
    });

    let m = svc.shutdown();
    assert_eq!(m.served() as usize, THREADS * ROUNDS);
    assert_eq!(m.rejected, 0);
    assert_eq!(m.failed, 0);
    // Three distinct fingerprints → at most three executions per
    // epoch; everything else came from the cache or a shared flight.
    assert!(
        m.executed <= 3,
        "executed {} of 3 distinct queries",
        m.executed
    );
    assert!(m.hits + m.coalesced >= (THREADS * ROUNDS - 3) as u64);
}

#[test]
fn admission_admits_workers_plus_queue_depth_executions_then_rejects() {
    const WORKERS: usize = 1;
    const QUEUE_DEPTH: usize = 2;
    const ADMITTED: usize = WORKERS + QUEUE_DEPTH;
    let _lock = fault::test_support::fault_lock();
    let _slow = delay_executions(300);
    let svc = QueryService::new(
        small_warehouse(),
        ServeConfig {
            workers: WORKERS,
            queue_depth: QUEUE_DEPTH,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    thread::scope(|s| {
        let handles: Vec<_> = (0..ADMITTED)
            .map(|i| {
                let svc = &svc;
                s.spawn(move || svc.execute(&distinct(i)))
            })
            .collect();
        // Once every admitted execution is in flight, one more distinct
        // request is turned away at once.
        let waiting = Instant::now();
        while svc.queue_len() < ADMITTED {
            assert!(
                waiting.elapsed() < Duration::from_secs(5),
                "only {} executions in flight",
                svc.queue_len()
            );
            thread::sleep(Duration::from_millis(1));
        }
        let extra = svc.execute(&distinct(ADMITTED));
        assert!(
            matches!(
                extra,
                Err(ServeError::Overloaded {
                    queue_depth: QUEUE_DEPTH,
                    ..
                })
            ),
            "{extra:?}"
        );
        for handle in handles {
            assert_eq!(
                handle.join().unwrap().unwrap().source,
                ServedSource::Executed
            );
        }
    });

    assert_eq!(svc.queue_len(), 0, "every admission slot is handed back");
    let m = svc.shutdown();
    assert_eq!((m.executed, m.rejected), (ADMITTED as u64, 1));
}
