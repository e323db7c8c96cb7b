//! End-to-end observability: span trees through the serving layer,
//! coalesced-request trace links, profile phase accounting and JSONL
//! export round-trips.
//!
//! Tests that install the process-global subscriber serialise on
//! `obs::test_support::tracing_lock()`. Every test also holds
//! `fault::test_support::fault_lock()` (after the tracing lock), since
//! some slow executions down with a process-global failpoint.

use clinical_types::{DataType, FieldDef, Record, Schema, Table};
use fault::{FaultKind, Trigger};
use obs::test_support::{rooted_trace, tracing_lock};
use obs::{parse_jsonl, render_trace, RingCollector, SpanRecord, TraceId};
use serve::{QueryRequest, QueryService, ReportSpec, ServeConfig, ServedSource};
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use warehouse::{DimensionDef, FactDef, LoadPlan, StarSchema, Warehouse};

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

fn fbg_by_band() -> QueryRequest {
    QueryRequest::Report(ReportSpec::new().on_rows("FBG_Band").count())
}

fn service(workers: usize) -> QueryService {
    QueryService::new(
        small_warehouse(),
        ServeConfig {
            workers,
            ..ServeConfig::default()
        },
    )
    .unwrap()
}

/// Every execution sleeps `delay_ms` at the `serve.execute` failpoint
/// until the guard drops, so concurrent identical requests overlap.
fn delay_executions(delay_ms: u64) -> fault::FaultGuard {
    fault::arm(
        "serve.execute",
        Trigger::Always,
        FaultKind::Delay(Duration::from_millis(delay_ms)),
    )
}

fn request_spans(spans: &[SpanRecord]) -> Vec<&SpanRecord> {
    spans.iter().filter(|s| s.name == "serve.request").collect()
}

#[test]
fn execution_span_joins_the_leaders_trace_across_threads() {
    let _guard = tracing_lock();
    let _faults = fault::test_support::fault_lock();
    let collector = Arc::new(RingCollector::new(1024));
    obs::install(collector.clone());

    // A deliberate execution delay: concurrent identical requests
    // deterministically coalesce onto one in-flight leader.
    let _slow = delay_executions(60);
    let svc = service(1);
    // Each caller runs on its own named thread and roots its own
    // trace, so what the collector hears from sibling tests (which
    // trace without the lock) can be told apart from what these four
    // requests emitted.
    let (sources, traces): (Vec<ServedSource>, Vec<TraceId>) = thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                thread::Builder::new()
                    .name(format!("caller-{i}"))
                    .spawn_scoped(s, || {
                        let (_root, trace) = rooted_trace().unwrap();
                        (svc.execute(&fbg_by_band()).unwrap().source, trace)
                    })
                    .unwrap()
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).unzip()
    });
    svc.shutdown();
    obs::uninstall();

    assert_eq!(
        sources
            .iter()
            .filter(|s| **s == ServedSource::Executed)
            .count(),
        1,
        "single-flight must elect exactly one leader: {sources:?}"
    );

    // What the service emitted under the four callers: their traces,
    // minus the callers' own root spans.
    let spans: Vec<SpanRecord> = traces
        .iter()
        .flat_map(|&t| collector.spans_in(t))
        .filter(|s| s.name != "test.root")
        .collect();
    let requests = request_spans(&spans);
    assert_eq!(requests.len(), 4, "every caller opens a request span");

    let leader = requests
        .iter()
        .find(|s| s.field("source") == Some("executed"))
        .expect("leader request span");
    let execs: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "serve.execute").collect();
    assert_eq!(execs.len(), 1, "one execution for four requests");
    let exec = execs[0];

    // The execution runs on the leader's own thread, as a child of
    // its request span in the leader's trace.
    assert_eq!(exec.trace, leader.trace);
    assert_eq!(exec.parent, Some(leader.id));
    assert!(leader.thread.starts_with("caller-"), "{}", leader.thread);
    assert_eq!(
        exec.thread, leader.thread,
        "execution must run on the leader's thread"
    );

    // Coalesced followers are distinct traces that link to the leader.
    let followers: Vec<&&SpanRecord> = requests
        .iter()
        .filter(|s| s.field("source") == Some("coalesced"))
        .collect();
    assert!(
        !followers.is_empty(),
        "with a 60ms execution delay at least one request coalesces"
    );
    for f in &followers {
        assert_ne!(f.trace, leader.trace, "followers are their own trace");
        assert_eq!(
            f.field("link_trace"),
            Some(leader.trace.0.to_string().as_str())
        );
        assert_eq!(f.field("link_span"), Some(leader.id.0.to_string().as_str()));
    }

    // The leader's trace renders as a connected two-level tree.
    let tree = render_trace(&spans, leader.trace);
    assert!(tree.contains("serve.request"), "{tree}");
    assert!(tree.contains("\n  serve.execute"), "{tree}");

    // The cube-build span inside execution also belongs to the trace.
    assert!(
        spans
            .iter()
            .filter(|s| s.trace == leader.trace)
            .any(|s| s.name == "olap.cube_build"),
        "cube build must join the request trace"
    );
}

#[test]
fn served_profiles_account_for_the_full_latency() {
    let _faults = fault::test_support::fault_lock();
    let _slow = delay_executions(40);
    let svc = service(2);
    let served = svc.execute(&fbg_by_band()).unwrap();
    svc.shutdown();

    let profile = &served.value.profile;
    assert!(!profile.is_empty());
    assert!(profile.rows_scanned > 0, "{profile}");
    assert!(profile.cells_emitted > 0, "{profile}");

    // The artificial 40ms stall sits between admission and the scan,
    // so it is attributed to queueing, not to the execution phases.
    assert!(
        profile.phase_us(obs::Phase::Queue) >= 35_000,
        "queue phase must absorb the execution delay: {profile}"
    );

    // Phase timings cover the end-to-end execution within 10%.
    let total = profile.total_us;
    let phases = profile.phases_total_us();
    assert!(phases <= total, "phases {phases}µs exceed total {total}µs");
    assert!(
        (total - phases) * 10 <= total,
        "unattributed time over 10%: phases {phases}µs of {total}µs\n{profile}"
    );
}

#[test]
fn traces_round_trip_through_jsonl() {
    let _guard = tracing_lock();
    let _faults = fault::test_support::fault_lock();
    let collector = Arc::new(RingCollector::new(1024));
    obs::install(collector.clone());

    let _slow = delay_executions(5);
    let svc = service(2);
    svc.execute(&fbg_by_band()).unwrap();
    svc.execute(&fbg_by_band()).unwrap(); // warm: fires serve.cache_hit
    svc.shutdown();
    obs::uninstall();

    let records = collector.records();
    assert!(!records.is_empty());
    let parsed = parse_jsonl(&collector.to_jsonl());
    assert_eq!(parsed, records, "JSONL export must round-trip losslessly");
    assert!(
        collector
            .events()
            .iter()
            .any(|e| e.name == "serve.cache_hit"),
        "warm request must fire a cache-hit event"
    );
}

#[test]
fn disabled_subscriber_records_zero_events() {
    let _guard = tracing_lock();
    let _faults = fault::test_support::fault_lock();
    obs::uninstall();

    // No subscriber: the service runs untraced.
    let collector = Arc::new(RingCollector::new(64));
    let svc = service(1);
    svc.execute(&fbg_by_band()).unwrap();
    svc.shutdown();
    assert!(!obs::enabled());
    assert!(obs::current_context().is_none());
    assert!(collector.is_empty());

    // Installed but paused: still nothing recorded.
    obs::install(collector.clone());
    obs::set_enabled(false);
    let svc = service(1);
    svc.execute(&fbg_by_band()).unwrap();
    svc.shutdown();
    obs::uninstall();
    assert!(
        collector.is_empty(),
        "paused tracing must record nothing, got {} records",
        collector.len()
    );
}
