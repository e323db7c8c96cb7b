//! Incident-observability drills: the flight recorder's black box,
//! the stall watchdog, and the SLO surface, exercised end-to-end
//! through the serving layer.
//!
//! The acceptance drill of record: trip the circuit breaker with
//! injected execution faults and assert the recorder produced a
//! self-contained black-box dump carrying the triggering query's
//! trace id, every executing request's span path, and the failpoint evaluations
//! that caused the trip — then render it with `analyze`'s reader.
//!
//! Recorder and subscriber state is process-global, so every test
//! holds `obs::test_support::tracing_lock()` (and the fault lock when
//! failpoints are armed, in that order).

use clinical_types::{DataType, FieldDef, Record, Schema, Table};
use fault::{FaultKind, Trigger};
use obs::{FlightRecord, FlightRecorder, LockRank, RankedMutex, RecorderConfig};
use serve::{QueryRequest, QueryService, ReportSpec, RetryPolicy, ServeConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};
use warehouse::{DimensionDef, FactDef, LoadPlan, StarSchema, Warehouse};

// ---------------------------------------------------------------- helpers

fn small_warehouse() -> Warehouse {
    let star = StarSchema::new(
        FactDef::new("Facts", vec!["FBG"], vec![]),
        vec![DimensionDef::new("Bloods", vec!["FBG_Band", "Gender"])],
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

fn count_by_band() -> QueryRequest {
    QueryRequest::Report(ReportSpec::new().on_rows("FBG_Band").count())
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

/// Install a recorder with the stock (head-sampled) config — drills
/// using this one prove that failure promotion, not luck, gets the
/// incident trace into the ring.
fn install_fresh_recorder() -> Arc<FlightRecorder> {
    let recorder = Arc::new(FlightRecorder::new(RecorderConfig::default()));
    obs::install_recorder(Arc::clone(&recorder));
    recorder
}

/// Install a capture-everything recorder (sampling off) for drills
/// about dump mechanics rather than sampling policy.
fn install_capture_all_recorder() -> Arc<FlightRecorder> {
    let recorder = Arc::new(FlightRecorder::new(RecorderConfig {
        span_sample_every: 1,
        ..RecorderConfig::default()
    }));
    obs::install_recorder(Arc::clone(&recorder));
    recorder
}

// ------------------------------------------- breaker-open black box drill

/// The acceptance criterion: a breaker trip in the degraded-mode drill
/// produces a black box whose header carries the triggering query's
/// trace id, whose thread table shows the executing request's span path,
/// and which `analyze::render_black_box` renders without error.
#[test]
fn breaker_open_dumps_a_black_box_with_the_triggering_trace() {
    let _tracing = obs::test_support::tracing_lock();
    let _faults = fault::test_support::fault_lock();
    let recorder = install_fresh_recorder();

    let svc = QueryService::new(
        small_warehouse(),
        ServeConfig {
            workers: 2,
            breaker_threshold: 2,
            retry: RetryPolicy::none(),
            ..ServeConfig::default()
        },
    )
    .unwrap();

    // Every execution now fails internally, counting toward the
    // breaker; the second failure trips it open.
    let _execute = fault::arm("serve.execute", Trigger::Always, FaultKind::Error);
    for _ in 0..2 {
        svc.execute(&count_by_band()).expect_err("broken execution");
    }
    assert_eq!(svc.breaker_state(), serve::BreakerState::Open);

    let dump = recorder.last_dump().expect("breaker trip dumped");
    assert_eq!(dump.trigger, "serve.breaker_open");
    let trace = dump.trace.expect("dump carries the triggering trace id");

    // Each execution runs on its caller's thread inside a
    // `serve.execute` watchdog task scope, visible in the thread table.
    assert!(
        dump.threads.iter().any(|t| t.worker == "serve.execute"),
        "threads: {:?}",
        dump.threads
    );
    // The failpoint evaluations that caused the trip are in the ring.
    assert!(
        dump.records.iter().any(|r| matches!(
            r,
            FlightRecord::Failpoint { name, fired: true, .. } if name == "serve.execute"
        )),
        "failpoint hits must be captured"
    );
    // The triggering request is still in flight when the trip dumps,
    // so its spans are open — the trace shows up as its task scope's
    // published state, not as closed span records.
    assert!(
        dump.threads
            .iter()
            .any(|t| t.trace == Some(trace) && t.path.contains("serve.execute")),
        "the triggering trace must be executing: {:?}",
        dump.threads
    );
    // Earlier (completed) failing requests left closed spans behind:
    // their traces were promoted past head sampling at failure time.
    assert!(
        dump.spans().iter().any(|s| s.name == "serve.execute"),
        "the first failed request's promoted execution span must be in \
         the window: {:?}",
        dump.spans()
    );

    // Round-trip through JSONL and render with the analyze reader.
    let jsonl = dump.to_jsonl();
    let reparsed = obs::BlackBox::parse(&jsonl).expect("black box reparses");
    assert_eq!(reparsed.trigger, dump.trigger);
    assert_eq!(reparsed.trace, dump.trace);
    let report = analyze::render_black_box(&jsonl).expect("renders without error");
    assert!(report.contains("trigger : serve.breaker_open"));
    assert!(report.contains(&format!("trace   : {}", trace.0)));
    assert!(
        report.contains(&format!("  {:<20} serve.execute", "serve.execute")),
        "the thread table must show the execution's task scope:\n{report}"
    );
    assert!(report.contains("serve.execute: FIRED"));

    svc.shutdown();
    obs::uninstall_recorder();
}

// ----------------------------------------------- held ranks in the dump

/// A dump taken while a ranked lock is held shows the holder's rank in
/// the thread table and the acquisition in the lock timeline.
#[test]
fn manual_dump_captures_held_lock_ranks() {
    let _tracing = obs::test_support::tracing_lock();
    let _recorder = install_fresh_recorder();
    obs::set_rank_checks(true);

    let _worker = obs::register_worker("bb-manual-worker", Duration::ZERO);
    let lock = RankedMutex::new(LockRank::Cache, "bb.test_cache", ());
    {
        let _guard = lock.lock();
        let dump = obs::trigger_dump("manual", None).expect("recorder installed");
        let me = dump
            .threads
            .iter()
            .find(|t| t.worker == "bb-manual-worker")
            .expect("registered worker in dump");
        assert_eq!(me.held, vec!["Cache".to_string()]);
        assert!(
            dump.records.iter().any(|r| matches!(
                r,
                FlightRecord::Lock { name, acquired: true, .. } if name == "bb.test_cache"
            )),
            "lock acquisition must be in the ring"
        );
        let report = analyze::render_black_box(&dump.to_jsonl()).expect("renders");
        assert!(report.contains("holds [Cache]"));
        assert!(report.contains("acquire bb.test_cache [Cache]"));
    }

    obs::set_rank_checks(false);
    obs::uninstall_recorder();
}

// ------------------------------------------------- watchdog stall drill

/// An execution sleeping past its stall budget is caught by the
/// sampling watchdog: one `obs.stall` event and one `watchdog.stall`
/// black box per episode.
#[test]
fn stalled_worker_trips_the_watchdog_and_dumps() {
    let _tracing = obs::test_support::tracing_lock();
    let _faults = fault::test_support::fault_lock();
    let recorder = install_fresh_recorder();

    // The delay stalls execution well past the (deliberately tiny)
    // budget while the watchdog samples.
    let _slow = fault::arm(
        "serve.execute",
        Trigger::Always,
        FaultKind::Delay(Duration::from_millis(120)),
    );
    let svc = QueryService::new(
        small_warehouse(),
        ServeConfig {
            workers: 1,
            worker_stall_budget: Duration::from_millis(10),
            watchdog_interval: Duration::from_millis(5),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    svc.execute(&count_by_band()).unwrap();

    assert!(
        wait_until(Duration::from_secs(5), || {
            recorder
                .dumps()
                .iter()
                .any(|d| d.trigger == "watchdog.stall")
        }),
        "watchdog never dumped a stall black box"
    );
    let dump = recorder
        .dumps()
        .into_iter()
        .find(|d| d.trigger == "watchdog.stall")
        .unwrap();
    assert!(
        dump.records
            .iter()
            .any(|r| matches!(r, FlightRecord::Event(e) if e.name == "obs.stall")),
        "the stall event itself must be in the ring"
    );

    // The scrape surface shows the stall and the folded profile.
    let text = svc.metrics_text();
    assert!(text.contains("obs_watchdog_samples_total"));
    assert!(text.contains("obs_watchdog_stalls_total"));

    svc.shutdown();
    obs::uninstall_recorder();
}

// ------------------------------------------------------- SLO + surfaces

/// The service's metrics text carries the SLO burn-rate gauges, and a
/// hard-failing service pages (fast and slow windows both burning).
#[test]
fn slo_surface_reports_burn_and_pages_on_sustained_errors() {
    let _tracing = obs::test_support::tracing_lock();
    let _faults = fault::test_support::fault_lock();
    let recorder = install_fresh_recorder();

    let svc = QueryService::new(
        small_warehouse(),
        ServeConfig {
            workers: 2,
            breaker_threshold: 1_000_000, // keep the breaker out of the way
            retry: RetryPolicy::none(),
            ..ServeConfig::default()
        },
    )
    .unwrap();

    // Healthy first evaluation: nothing firing.
    svc.execute(&count_by_band()).unwrap();
    let healthy = svc.slo_status();
    assert!(healthy.iter().all(|s| !s.firing), "healthy must not page");

    // Sustained execution failures: the error-rate objective burns in
    // both windows (all history still fits inside them) and fires.
    let _execute = fault::arm("serve.execute", Trigger::Always, FaultKind::Error);
    for _ in 0..8 {
        svc.clear_cache();
        svc.execute(&count_by_band()).expect_err("broken execution");
    }
    let burning = svc.slo_status();
    let errors = burning
        .iter()
        .find(|s| s.name == "serve_errors")
        .expect("stock error SLO present");
    assert!(errors.firing, "sustained failures must page: {errors:?}");

    let text = svc.metrics_text();
    assert!(text.contains("slo_burn_rate{slo=\"serve_errors\",window=\"fast\"}"));
    assert!(text.contains("slo_firing{slo=\"serve_errors\"} 1"));
    assert!(text.contains("ALERTS{alertname=\"SloBurn_serve_errors\""));

    // The newly-firing objective also left a black box behind.
    assert!(
        recorder
            .dumps()
            .iter()
            .any(|d| d.trigger == "slo.serve_errors"),
        "SLO page must trigger a dump"
    );

    svc.shutdown();
    obs::uninstall_recorder();
}

// --------------------------------------------------- operator escape hatch

/// `flight_dump` works as the manual lever on both the service and the
/// system facade, and returns `None` with no recorder installed.
#[test]
fn manual_flight_dump_levers() {
    let _tracing = obs::test_support::tracing_lock();
    let svc = QueryService::new(small_warehouse(), ServeConfig::default()).unwrap();

    assert!(
        svc.flight_dump("operator.manual").is_none(),
        "no recorder installed yet"
    );

    let recorder = install_capture_all_recorder();
    svc.execute(&count_by_band()).unwrap();
    let dump = svc.flight_dump("operator.manual").expect("recorder live");
    assert_eq!(dump.trigger, "operator.manual");
    // The service's registry was attached at construction time only if
    // a recorder existed then; this one was installed after, so metric
    // sources may be empty — but records must flow regardless.
    assert!(
        !dump.records.is_empty(),
        "executed request must have left spans in the ring"
    );
    assert_eq!(recorder.last_dump().map(|d| d.seq), Some(dump.seq));

    svc.shutdown();
    obs::uninstall_recorder();
}
