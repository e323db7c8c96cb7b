//! The fault matrix: deterministic chaos drills against the durable
//! store, the warehouse loader, and the serving layer.
//!
//! Every test here injects a failure — a torn WAL tail, an I/O error
//! mid-append, a worker panic, a thread that cannot be spawned — and
//! asserts the *graceful* outcome the design promises: recovery keeps
//! every record before the tear, the previous epoch stays queryable,
//! the pool heals back to full size, and the circuit breaker degrades
//! to stale-but-marked answers instead of erroring, then closes again
//! once probes succeed. No drill may abort the process.
//!
//! Failpoint state is process-global, so every test that arms a
//! failpoint serialises on `fault::test_support::fault_lock()`.

use clinical_types::{DataType, FieldDef, Record, Schema, Table, Value};
use fault::{FaultKind, Trigger};
use oltp::DurableStore;
use proptest::prelude::*;
use serve::{
    BreakerState, QueryRequest, QueryService, ReportSpec, RetryPolicy, ServeConfig, ServedSource,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
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

/// Poll `cond` every 5ms until it holds or `deadline` passes.
fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

fn wal_path(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join("dd_dgms_fault_matrix");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{tag}_{}_{}.wal",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

// ------------------------------------------------- WAL torn-tail recovery

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncating the log at *any* byte offset — mid-header, mid-record,
    /// or on a clean boundary — must leave recovery with an intact,
    /// contiguous prefix of the original rows, and the post-recovery
    /// rewrite must parse clean on a second recovery.
    #[test]
    fn torn_tail_at_any_offset_preserves_the_prefix(
        n in 1usize..40,
        cut_permille in 0u32..=1000,
    ) {
        let schema = Schema::new(vec![
            FieldDef::required("Id", DataType::Int),
            FieldDef::nullable("X", DataType::Float),
        ])
        .unwrap();
        let path = wal_path("torn");
        {
            let store = DurableStore::create(schema.clone(), &path).unwrap();
            for i in 0..n as i64 {
                store
                    .insert(Record::new(vec![Value::Int(i), Value::Float(i as f64)]))
                    .unwrap();
            }
            store.sync().unwrap();
        }
        let raw = std::fs::read(&path).unwrap();
        let cut = raw.len() * cut_permille as usize / 1000;
        std::fs::write(&path, &raw[..cut.min(raw.len())]).unwrap();

        let (store, torn) = DurableStore::recover(schema.clone(), &path).unwrap();
        let len = store.store().len();
        prop_assert!(len <= n, "recovered more rows than were written");
        if cut >= raw.len() {
            prop_assert!(!torn, "untruncated log reported torn");
            prop_assert_eq!(len, n);
        }
        // Every surviving row is intact and ids are contiguous from 0.
        for id in 0..len as u64 {
            let rec = store.store().get(id).unwrap().expect("row present");
            prop_assert_eq!(&rec.values()[0], &Value::Int(id as i64));
            prop_assert_eq!(&rec.values()[1], &Value::Float(id as f64));
        }
        store.sync().unwrap();
        drop(store);

        // The recovery rewrite is itself durable: a second recovery
        // sees a clean log with the same prefix.
        let (again, torn2) = DurableStore::recover(schema, &path).unwrap();
        prop_assert!(!torn2, "post-recovery log still torn");
        prop_assert_eq!(again.store().len(), len);
        std::fs::remove_file(&path).ok();
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

// --------------------------------------------- serve: worker self-healing

#[test]
fn worker_thread_death_heals_back_to_full_pool_size() {
    let _lock = fault::test_support::fault_lock();
    let svc = service(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    // Spawned threads increment the live count as they start.
    assert!(wait_until(Duration::from_secs(5), || svc.workers_alive() == 2));

    // `serve.worker` sits at the top of the worker loop: the worker
    // that finishes this job dies on its next iteration, after the
    // caller already has its answer.
    let _fault = fault::arm("serve.worker", Trigger::Once, FaultKind::Panic);
    let served = svc.execute(&count_by_band()).unwrap();
    assert_eq!(served.source, ServedSource::Executed);

    assert!(
        wait_until(Duration::from_secs(5), || {
            let m = svc.metrics();
            m.worker_panics >= 1 && m.worker_respawned >= 1 && svc.workers_alive() == 2
        }),
        "pool did not heal: {} alive, metrics {}",
        svc.workers_alive(),
        svc.metrics()
    );

    // The healed pool still serves.
    svc.clear_cache();
    let again = svc.execute(&count_by_band()).unwrap();
    assert_eq!(again.source, ServedSource::Executed);
    let m = svc.shutdown();
    assert_eq!(m.worker_respawn_failed, 0);
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
        // Per-job containment: the worker that caught the panic is
        // still in its loop, not dead and respawned.
        assert!(wait_until(Duration::from_secs(5), || svc.workers_alive() == 2));
    }

    let served = svc.execute(&count_by_band()).unwrap();
    assert_eq!(served.source, ServedSource::Executed);
    let m = svc.shutdown();
    assert!(m.worker_panics >= 1);
    assert_eq!(m.worker_respawned, 0, "job panics must not kill threads");
}

#[test]
fn spawn_failure_at_construction_is_a_typed_error() {
    let _lock = fault::test_support::fault_lock();
    let _fault = fault::arm("serve.spawn", Trigger::Always, FaultKind::Error);
    let err = QueryService::new(small_warehouse(), ServeConfig::default())
        .err()
        .expect("construction must fail when no worker can spawn");
    assert!(
        err.to_string().contains("internal serving failure"),
        "unexpected error: {err}"
    );
}

#[test]
fn respawn_failure_degrades_to_a_smaller_pool_that_still_serves() {
    let _lock = fault::test_support::fault_lock();
    let svc = service(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });

    // One worker dies; the replacement spawn fails. The pool must shrink
    // to 1, count the failure, and keep serving — never abort.
    let _die = fault::arm("serve.worker", Trigger::Once, FaultKind::Panic);
    let _no_spawn = fault::arm("serve.spawn", Trigger::Always, FaultKind::Error);
    svc.execute(&count_by_band()).unwrap();

    assert!(
        wait_until(Duration::from_secs(5), || {
            svc.metrics().worker_respawn_failed >= 1 && svc.workers_alive() == 1
        }),
        "respawn failure not recorded: {} alive, metrics {}",
        svc.workers_alive(),
        svc.metrics()
    );

    svc.clear_cache();
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
