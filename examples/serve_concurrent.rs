//! Concurrent serving: many clinicians, one warehouse.
//!
//! DiScRi's warehouse serves clinicians, researchers and students at
//! once (§IV). This example stands up the serving subsystem over a
//! synthetic cohort and hammers it from eight client threads mixing
//! the paper's reporting queries, then mutates the warehouse (a
//! clinician feedback dimension) mid-stream to show epoch-driven
//! cache invalidation, and finally prints the service metrics.
//!
//! Run with: `cargo run --example serve_concurrent`

use dd_dgms::DdDgms;
use discri::{generate, CohortConfig};
use serve::{QueryRequest, ReportSpec, ServeConfig, ServedSource};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::thread;

fn main() -> clinical_types::Result<()> {
    let cohort = generate(&CohortConfig::small(7));
    let system = DdDgms::from_raw_attendances(&cohort.attendances)?;
    let service = system
        .serve(ServeConfig {
            workers: 4,
            queue_depth: 64,
            ..ServeConfig::default()
        })
        .expect("service starts");

    // The query mix: Fig. 5's distribution (MDX), a Fig. 4-style
    // report, and a cube materialisation.
    let requests = vec![
        QueryRequest::Mdx(
            "SELECT [Gender].MEMBERS ON COLUMNS, [Age_SubGroup].MEMBERS ON ROWS \
             FROM [Medical Measures] WHERE [DiabetesStatus] = 'yes' \
             MEASURE COUNT(DISTINCT [PatientId])"
                .into(),
        ),
        QueryRequest::Report(
            ReportSpec::new()
                .on_rows("FBG_Band")
                .on_columns("Gender")
                .count(),
        ),
        QueryRequest::Cube(olap::CubeSpec::count(vec!["Age_Band", "DiabetesStatus"])),
    ];

    const CLIENTS: usize = 8;
    const ROUNDS: usize = 24;
    let executed = AtomicU64::new(0);
    let from_cache = AtomicU64::new(0);
    let coalesced = AtomicU64::new(0);
    // Clients pause at the halfway barrier while the clinician's
    // mutation lands, then resume against the new data epoch.
    let halfway = Barrier::new(CLIENTS + 1);
    let resumed = Barrier::new(CLIENTS + 1);

    println!("serving {CLIENTS} clients × {ROUNDS} requests, each on its own thread…");
    thread::scope(|s| {
        for client in 0..CLIENTS {
            let service = &service;
            let requests = &requests;
            let (executed, from_cache, coalesced) = (&executed, &from_cache, &coalesced);
            let (halfway, resumed) = (&halfway, &resumed);
            s.spawn(move || {
                for round in 0..ROUNDS {
                    if round == ROUNDS / 2 {
                        halfway.wait();
                        resumed.wait();
                    }
                    let request = &requests[(client + round) % requests.len()];
                    match service.execute(request) {
                        Ok(served) => {
                            match served.source {
                                ServedSource::Executed => executed.fetch_add(1, Ordering::Relaxed),
                                ServedSource::Cache => from_cache.fetch_add(1, Ordering::Relaxed),
                                ServedSource::Coalesced => {
                                    coalesced.fetch_add(1, Ordering::Relaxed)
                                }
                            };
                        }
                        Err(e) => println!("client {client}: {e}"),
                    }
                }
            });
        }

        // Midway, a clinician reviews FBG bands and labels rows — the
        // mutation bumps the data epoch and invalidates every cached
        // result, forcing a second wave of executions.
        let service = &service;
        let (halfway, resumed) = (&halfway, &resumed);
        s.spawn(move || {
            halfway.wait();
            let labels = service.with_warehouse(|wh| {
                wh.attribute_column("FBG_Band")
                    .expect("FBG_Band column")
                    .into_iter()
                    .map(|band| clinical_types::Value::from(band.as_str() == Some("Diabetic")))
                    .collect::<Vec<_>>()
            });
            let before = service.epoch();
            service
                .add_feedback_dimension("Clinician Review", "NeedsFollowUp", labels)
                .expect("feedback dimension");
            println!(
                "mutation: feedback dimension added, epoch {} → {} (cache revalidates via delta log)",
                before,
                service.epoch()
            );
            resumed.wait();
        });
    });

    println!(
        "client view: {} executed | {} from cache | {} coalesced",
        executed.load(Ordering::Relaxed),
        from_cache.load(Ordering::Relaxed),
        coalesced.load(Ordering::Relaxed),
    );

    let metrics = service.shutdown();
    println!("\nservice metrics on shutdown:\n{metrics}");
    Ok(())
}
