//! Observability tour: structured tracing, per-query profiles and
//! Prometheus-style metrics over the serving subsystem.
//!
//! Installs an in-memory trace collector, serves a handful of
//! concurrent requests (with an artificial execution delay so
//! coalescing is visible), then prints:
//!
//! 1. the leader's span tree — admission and the execution span on the
//!    client's own thread, the cube build inside it;
//! 2. a coalesced follower's span with its `link_trace` back to the
//!    leader;
//! 3. the `EXPLAIN ANALYZE`-style query profile attached to the
//!    outcome;
//! 4. the unified metrics registry in Prometheus exposition format;
//! 5. the same trace as JSONL, ready for offline analysis.
//!
//! Run with: `cargo run --example serve_traced`
//!
//! Tracing is off by default (one relaxed atomic load per would-be
//! span); everything below starts with `obs::install`.

use dd_dgms::DdDgms;
use discri::{generate, CohortConfig};
use fault::{FaultKind, Trigger};
use obs::{render_trace, RingCollector};
use serve::{QueryRequest, ServeConfig, ServedSource};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const FIG5: &str = "SELECT [Gender].MEMBERS ON COLUMNS, [Age_SubGroup].MEMBERS ON ROWS \
                    FROM [Medical Measures] WHERE [DiabetesStatus] = 'yes' \
                    MEASURE COUNT(DISTINCT [PatientId])";

fn main() -> clinical_types::Result<()> {
    // 1. Install the subscriber. Until this line every span is inert.
    let collector = Arc::new(RingCollector::new(4096));
    obs::install(collector.clone());

    let cohort = generate(&CohortConfig::small(7));
    let system = DdDgms::from_raw_attendances(&cohort.attendances)?;
    // Slow executions down so concurrent identical queries visibly
    // coalesce onto one leader.
    let slow = fault::arm(
        "serve.execute",
        Trigger::Always,
        FaultKind::Delay(Duration::from_millis(25)),
    );
    let service = system
        .serve(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("service starts");

    // 2. Four clients fire the same query at once: one leads, the
    // rest coalesce onto its in-flight execution.
    let request = QueryRequest::Mdx(FIG5.into());
    thread::scope(|s| {
        for _ in 0..4 {
            let service = &service;
            let request = &request;
            s.spawn(move || service.execute(request).expect("serve"));
        }
    });

    drop(slow);

    // 3. A warm repeat: served from the epoch-keyed cache, carrying
    // the profile of the execution that produced it.
    let warm = service.execute(&request).expect("warm serve");
    assert_eq!(warm.source, ServedSource::Cache);

    let spans = collector.spans();
    let leader = spans
        .iter()
        .find(|s| s.name == "serve.request" && s.field("source") == Some("executed"))
        .expect("leader span");
    println!("=== leader trace (trace id {}) ===", leader.trace.0);
    print!("{}", render_trace(&spans, leader.trace));

    if let Some(follower) = spans
        .iter()
        .find(|s| s.name == "serve.request" && s.field("source") == Some("coalesced"))
    {
        println!(
            "\n=== coalesced follower (trace id {}) ===",
            follower.trace.0
        );
        print!("{}", render_trace(&spans, follower.trace));
        println!(
            "links to leader: link_trace={} link_span={}",
            follower.field("link_trace").unwrap_or("?"),
            follower.field("link_span").unwrap_or("?"),
        );
    }

    println!("\n=== query profile (attached to the cached outcome) ===");
    println!("{}", warm.value.profile);

    println!("=== metrics (Prometheus exposition, excerpt) ===");
    for line in service
        .metrics_text()
        .lines()
        .filter(|l| !l.starts_with('#'))
        .take(12)
    {
        println!("{line}");
    }

    println!("\n=== the same trace as JSONL (first 3 records) ===");
    for line in collector.to_jsonl().lines().take(3) {
        println!("{line}");
    }

    service.shutdown();
    obs::uninstall();
    Ok(())
}
