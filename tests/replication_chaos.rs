//! Chaos drills for the replicated serve tier: replica death under
//! live load, the epoch-routing invariant, truncation-driven
//! re-seeding (and its interaction with delta-log age-out), and a
//! property test that a replica's answers after arbitrary crash/replay
//! interleavings of `ReplicaRouter::tick` are indistinguishable from
//! the primary's.
//!
//! Tests that arm failpoints serialise on
//! `fault::test_support::fault_lock()`.

use clinical_types::{DataType, FieldDef, Record, Schema, Table, Value};
use oplog::Oplog;
use proptest::prelude::*;
use serve::{QueryRequest, ReplicaRouter, ReportSpec, RouterConfig, ServeConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use warehouse::{
    DimensionDef, FactDef, LoadPlan, StarSchema, Warehouse, WarehouseChange, DELTA_LOG_CAPACITY,
};

fn schema() -> Schema {
    Schema::new(vec![
        FieldDef::nullable("FBG", DataType::Float),
        FieldDef::nullable("FBG_Band", DataType::Text),
        FieldDef::nullable("Gender", DataType::Text),
    ])
    .unwrap()
}

fn rows_table(rows: Vec<Vec<Value>>) -> Table {
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

fn one_row(fbg: f64) -> Table {
    rows_table(vec![vec![fbg.into(), "Diabetic".into(), "M".into()]])
}

fn count_by_band() -> QueryRequest {
    QueryRequest::Report(ReportSpec::new().on_rows("FBG_Band").count())
}

/// The MDX corpus both sides must answer identically. Band members,
/// cross-tabs, filters and distinct counts — the shapes the paper's
/// Fig. 4–6 queries exercise.
const MDX_CORPUS: &[&str] = &[
    "SELECT [Gender].MEMBERS ON COLUMNS, [FBG_Band].MEMBERS ON ROWS \
     FROM [Facts] MEASURE COUNT(*)",
    "SELECT [FBG_Band].MEMBERS ON COLUMNS, [Gender].MEMBERS ON ROWS \
     FROM [Facts] MEASURE AVG([FBG])",
    "SELECT [Gender].MEMBERS ON COLUMNS, [FBG_Band].MEMBERS ON ROWS \
     FROM [Facts] WHERE [FBG] BETWEEN 5 AND 9 MEASURE COUNT(*)",
    "SELECT [Gender].MEMBERS ON COLUMNS, [FBG_Band].MEMBERS ON ROWS \
     FROM [Facts] MEASURE MAX([FBG])",
];

/// Drill 1 — kill a replica mid-load. Every *accepted* query must
/// come back served (failed over or explicitly degraded); zero are
/// lost to the death.
#[test]
fn killing_a_replica_mid_load_loses_no_accepted_queries() {
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 64;
    let router = Arc::new(
        ReplicaRouter::new(
            small_warehouse(),
            RouterConfig {
                replicas: 3,
                serve: ServeConfig {
                    workers: 2,
                    watchdog: false,
                    ..ServeConfig::default()
                },
                ..RouterConfig::default()
            },
        )
        .unwrap(),
    );

    let accepted = AtomicU64::new(0);
    let barrier = Barrier::new(CLIENTS + 1);
    thread::scope(|s| {
        for _ in 0..CLIENTS {
            let router = Arc::clone(&router);
            let accepted = &accepted;
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for _ in 0..ROUNDS {
                    let served = router
                        .execute(&count_by_band())
                        .expect("an accepted query must be served despite the kill");
                    assert!(!served.value.degraded, "all fresh replicas are live");
                    accepted.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // The killer: let the load start, then take replica 0 down
        // mid-flight and leave it down.
        let killer_router = Arc::clone(&router);
        let killer_accepted = &accepted;
        let killer_barrier = &barrier;
        s.spawn(move || {
            killer_barrier.wait();
            while killer_accepted.load(Ordering::Relaxed) < (CLIENTS * ROUNDS / 4) as u64 {
                thread::yield_now();
            }
            assert!(killer_router.fail_replica(0));
        });
    });

    assert_eq!(accepted.load(Ordering::Relaxed), (CLIENTS * ROUNDS) as u64);
    let m = router.metrics();
    assert_eq!(m.routed, (CLIENTS * ROUNDS) as u64);
    assert_eq!(m.degraded, 0, "two fresh replicas remained throughout");
}

/// Drill 2 — the routing invariant: a lagging replica never serves an
/// epoch it has not fully applied. While catch-up is wedged, every
/// answer is explicitly degraded and carries the replica's *applied*
/// epoch, never the primary's future one.
#[test]
fn lagging_replica_never_serves_future_epochs() {
    let _lock = fault::test_support::fault_lock();
    let router = ReplicaRouter::new(small_warehouse(), RouterConfig::default()).unwrap();
    let seeded_epoch = router.epoch();
    // Prime so a (stale) answer exists, then advance the primary.
    router.execute(&count_by_band()).unwrap();
    router.append(&one_row(9.1)).unwrap();
    router.append(&one_row(9.2)).unwrap();
    let future = router.epoch();
    assert!(future > seeded_epoch);

    // Catch-up is wedged: ticks must apply nothing.
    let wedge = fault::arm(
        "replica.apply",
        fault::Trigger::Always,
        fault::FaultKind::Error,
    );
    assert_eq!(router.tick(), 0);
    for _ in 0..8 {
        let served = router.execute(&count_by_band()).unwrap();
        assert!(served.value.degraded, "stale service must be marked");
        assert!(
            served.epoch <= seeded_epoch,
            "replica served epoch {} it cannot have applied (applied {})",
            served.epoch,
            seeded_epoch
        );
    }
    for status in router.replica_status() {
        assert_eq!(status.applied_epoch, seeded_epoch);
    }

    // Unwedge: replicas catch up and the same query serves fresh.
    drop(wedge);
    assert_eq!(router.tick(), 4, "two records × two replicas");
    let served = router.execute(&count_by_band()).unwrap();
    assert!(!served.value.degraded);
    assert_eq!(served.epoch, future);
}

/// Drill 3 — a crash mid-batch halts catch-up on a record boundary:
/// the replica exposes the last *fully applied* epoch, then resumes
/// to the exact primary state.
#[test]
fn partial_catch_up_stops_on_a_record_boundary() {
    let _lock = fault::test_support::fault_lock();
    let router = ReplicaRouter::new(
        small_warehouse(),
        RouterConfig {
            replicas: 1,
            ..RouterConfig::default()
        },
    )
    .unwrap();
    router.append(&one_row(9.1)).unwrap();
    let mid_epoch = router.epoch();
    router.append(&one_row(9.2)).unwrap();
    router.append(&one_row(9.3)).unwrap();

    // The pump crashes after one applied record.
    let crash = fault::arm(
        "replica.apply",
        fault::Trigger::AfterK(1),
        fault::FaultKind::Error,
    );
    assert_eq!(router.tick(), 1);
    let status = &router.replica_status()[0];
    assert_eq!(
        status.applied_epoch, mid_epoch,
        "cursor must sit on the record boundary"
    );
    let served = router.execute(&count_by_band()).unwrap();
    assert!(served.value.degraded);
    assert_eq!(served.epoch, mid_epoch);

    // Resume: the remaining two records replay and the replica's
    // answers are bit-identical to the primary's.
    drop(crash);
    assert_eq!(router.tick(), 2);
    assert_eq!(router.replica_status()[0].applied_epoch, router.epoch());
    assert!(!router.execute(&count_by_band()).unwrap().value.degraded);
}

/// Drill 4 — truncation/age-out: a replica stranded behind the oplog
/// horizon re-seeds from a primary snapshot (never replaying a gap),
/// and a replica whose *warehouse delta log* aged out revalidates
/// cached entries conservatively (`delta_log_aged_out`) instead of
/// serving unprovable bytes.
#[test]
fn truncation_and_age_out_force_reseed_and_conservative_revalidation() {
    let router = ReplicaRouter::new(
        small_warehouse(),
        RouterConfig {
            replicas: 1,
            ..RouterConfig::default()
        },
    )
    .unwrap();
    // Warm the replica's cache at the seed epoch.
    router.execute(&count_by_band()).unwrap();

    // Age the warehouse delta log out on both sides: more mutations
    // than the bounded delta log retains, all replayed by the replica.
    for i in 0..(DELTA_LOG_CAPACITY + 2) {
        router
            .append(&one_row(5.0 + (i % 40) as f64 / 10.0))
            .unwrap();
        router.tick();
    }
    assert_eq!(router.replica_status()[0].applied_epoch, router.epoch());
    // The warmed entry's epoch predates the replica's retained delta
    // history: revalidation must fall back to re-execution and count
    // the age-out — stale bytes are never served unprovably.
    let refreshed = router.execute(&count_by_band()).unwrap();
    assert!(!refreshed.value.degraded);
    assert_eq!(refreshed.epoch, router.epoch());

    // Now strand the replica behind the *oplog* horizon: new records
    // plus full truncation while catch-up is down.
    router.fail_replica(0);
    router.append(&one_row(9.9)).unwrap();
    router.append(&one_row(9.8)).unwrap();
    router.oplog().truncate_before(u64::MAX).unwrap();
    router.revive_replica(0);
    router.tick();
    let m = router.metrics();
    assert_eq!(m.reseeds, 1, "behind the horizon → snapshot re-seed");
    assert_eq!(router.replica_status()[0].applied_epoch, router.epoch());
    let served = router.execute(&count_by_band()).unwrap();
    assert!(!served.value.degraded, "re-seeded replica is fresh");
}

/// A re-seed swaps the snapshot in and purges the replica's cache
/// while the replica's cursor lock is held. No query runs first, so
/// the purge is the first cache acquisition: an inverted
/// `Replication`/`Cache` rank fails here, naming the cursor.
#[test]
fn reseed_purges_the_cache_under_the_cursor_lock() {
    let _lock = fault::test_support::fault_lock();
    let router = ReplicaRouter::new(
        small_warehouse(),
        RouterConfig {
            replicas: 1,
            ..RouterConfig::default()
        },
    )
    .unwrap();
    router.fail_replica(0);
    router.append(&one_row(9.9)).unwrap();
    router.oplog().truncate_before(u64::MAX).unwrap();
    router.revive_replica(0);
    router.tick();
    assert_eq!(router.metrics().reseeds, 1);
    assert_eq!(router.replica_status()[0].applied_epoch, router.epoch());
}

/// The per-user quota drills at router level: one abusive session is
/// rejected with a typed error; bystanders and the rejection counter
/// are unaffected.
#[test]
fn router_quota_isolates_sessions_under_load() {
    let router = ReplicaRouter::new(
        small_warehouse(),
        RouterConfig {
            quota: Some(serve::QuotaConfig {
                capacity: 4.0,
                refill_per_sec: 0.0,
            }),
            ..RouterConfig::default()
        },
    )
    .unwrap();
    let mut rejected = 0;
    for _ in 0..16 {
        match router.execute_for("chatty", &count_by_band()) {
            Ok(_) => {}
            Err(serve::ServeError::QuotaExceeded { session, .. }) => {
                assert_eq!(session, "chatty");
                rejected += 1;
            }
            Err(other) => panic!("unexpected error {other}"),
        }
    }
    assert_eq!(rejected, 12, "burst of 4, then typed rejections");
    assert_eq!(router.metrics().quota_rejected, 12);
    assert!(router.execute_for("bystander", &count_by_band()).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property — whatever interleaving of mutations, crashed catch-up
    /// ticks, truncations and re-seeds the router's one replica lives
    /// through, once it fully catches up its epoch equals the
    /// primary's and every MDX corpus query it serves is fresh and
    /// bit-identical to the primary's own answer.
    ///
    /// Steps are `(kind, arg)` pairs: 0 = append `1+arg%3` one-row
    /// batches, 1 = feedback dimension, 2 = rewrite marker, 3 = crash
    /// the replica's catch-up after `arg%3` applied records then
    /// replay, 4 = age the whole log out under the replica's feet.
    #[test]
    fn replica_converges_to_primary_under_arbitrary_interleavings(
        steps in proptest::collection::vec((0u8..5, 0u8..3), 1..12),
    ) {
        let _lock = fault::test_support::fault_lock();
        let router = ReplicaRouter::new(
            small_warehouse(),
            RouterConfig {
                replicas: 1,
                ..RouterConfig::default()
            },
        )
        .unwrap();

        // Feedback steps widen the star schema, so later appends must
        // carry the accumulated attribute columns too.
        let mut feedback_attrs: Vec<String> = Vec::new();
        let append_row = |attrs: &[String], fbg: f64| -> Table {
            let mut fields = vec![
                FieldDef::nullable("FBG", DataType::Float),
                FieldDef::nullable("FBG_Band", DataType::Text),
                FieldDef::nullable("Gender", DataType::Text),
            ];
            let mut row: Vec<Value> = vec![fbg.into(), "Diabetic".into(), "M".into()];
            for attr in attrs {
                fields.push(FieldDef::nullable(attr, DataType::Text));
                row.push("x".into());
            }
            Table::from_rows(Schema::new(fields).unwrap(), vec![Record::new(row)]).unwrap()
        };

        for (i, &(kind, arg)) in steps.iter().enumerate() {
            match kind {
                0 => {
                    for r in 0..=(arg % 3) {
                        let fbg = 4.0 + (i as f64) + f64::from(r) / 10.0;
                        router.append(&append_row(&feedback_attrs, fbg)).unwrap();
                    }
                }
                1 => {
                    let n = router.primary().with_warehouse(|wh| wh.n_facts());
                    router
                        .add_feedback_dimension(
                            &format!("Dim{i}"),
                            &format!("Attr{i}"),
                            vec![Value::from("x"); n],
                        )
                        .unwrap();
                    feedback_attrs.push(format!("Attr{i}"));
                }
                2 => router.primary().invalidate_all(),
                3 => {
                    let crash = fault::arm(
                        "replica.apply",
                        fault::Trigger::AfterK(u64::from(arg % 3)),
                        fault::FaultKind::Error,
                    );
                    router.tick();
                    drop(crash);
                    router.tick();
                }
                _ => {
                    router.oplog().truncate_before(router.epoch() + 1).unwrap();
                    router.tick();
                }
            }
            // Invariant at every step: the replica never runs ahead,
            // and never exposes a partially applied epoch.
            prop_assert!(router.replica_status()[0].applied_epoch <= router.epoch());
        }

        // Final convergence: one more tick replays the tail (or
        // re-seeds if the last step stranded the replica), then every
        // corpus query must come back fresh and identical.
        router.tick();
        prop_assert_eq!(router.replica_status()[0].applied_epoch, router.epoch());
        for mdx in MDX_CORPUS {
            let served = router
                .execute(&QueryRequest::Mdx(mdx.to_string()))
                .expect("replica serves corpus");
            prop_assert!(!served.value.degraded, "stale answer to {}", mdx);
            let primary = router
                .primary()
                .with_warehouse(|wh| olap::execute_mdx(wh, mdx))
                .expect("primary serves corpus");
            prop_assert_eq!(
                served.value.as_pivot(),
                Some(&primary),
                "corpus divergence on {}",
                mdx
            );
        }
    }
}

/// The durable half of the proptest's claim, pinned deterministically:
/// a follower replaying a *file-backed* log across a torn-tail recovery
/// converges to the primary's state at the last intact record.
#[test]
fn durable_log_with_torn_tail_still_converges() {
    // Failpoint state is process-global and siblings arm it.
    let _lock = fault::test_support::fault_lock();
    let path = std::env::temp_dir().join(format!("ddgms-chaos-{}-torn.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let seed_state = small_warehouse();
    let mut primary = seed_state.clone();
    {
        let (log, torn) = Oplog::open(&path).unwrap();
        assert!(!torn);
        for i in 0..3 {
            let table = one_row(6.0 + f64::from(i));
            primary.append(&table).unwrap();
            log.append(&WarehouseChange::Append(table), primary.epoch())
                .unwrap();
        }
    }
    // Tear the last frame: the third append is lost from the feed.
    let mut raw = std::fs::read(&path).unwrap();
    let cut = raw.len() - 9;
    raw.truncate(cut);
    std::fs::write(&path, &raw).unwrap();

    let (log, torn) = Oplog::open(&path).unwrap();
    assert!(torn, "the torn tail must be detected");
    assert_eq!(log.len(), 2, "only the intact appends survive recovery");
    // A follower seeded from the pre-append state replays exactly the
    // intact prefix — never a half-recovered record.
    let mut follower = seed_state.clone();
    let cursor = log.cursor_at(seed_state.epoch()).unwrap();
    for record in log.tail_from(cursor).unwrap() {
        follower
            .apply_change(&record.change, record.pos.epoch)
            .unwrap();
    }
    assert_eq!(
        follower.epoch(),
        log.last_pos().unwrap().epoch,
        "follower applied exactly the intact prefix"
    );
    assert_eq!(follower.n_facts(), seed_state.n_facts() + 2);
    let _ = std::fs::remove_file(&path);
}
