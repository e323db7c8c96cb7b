//! Segment round-trips across both storage backends.
//!
//! The segmented store promises that sealing rows into segments is
//! lossless (encode → seal → reopen reproduces every column bit for
//! bit), that the two backends are interchangeable behind
//! [`SegmentBackend`], and that on-disk corruption is *detected* —
//! a flipped byte anywhere in a segment file fails the CRC check
//! instead of silently feeding garbage into aggregates.

#[path = "common/oracle.rs"]
mod oracle;

use clinical_types::{DataType, FieldDef, Record, Schema, Table, Value};
use olap::{Cube, CubeSpec};
use proptest::prelude::*;
use segstore::{ColumnSet, DiskBackend, MemoryBackend, SegmentBackend};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use warehouse::{CompactionConfig, DimensionDef, FactDef, LoadPlan, StarSchema, Warehouse};

static SEQ: AtomicUsize = AtomicUsize::new(0);

fn temp_dir() -> PathBuf {
    std::env::temp_dir().join(format!(
        "segstore_it_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

const BANDS: [&str; 3] = ["very good", "preDiabetic", "Diabetic"];

/// (band index, quarter-steps, valid flag 0/1, patient) → one row.
type RawRow = (usize, u8, u8, u8);

fn table_of(rows: &[RawRow]) -> Table {
    let schema = Schema::new(vec![
        FieldDef::nullable("FBG", DataType::Float),
        FieldDef::nullable("FBG_Band", DataType::Text),
        FieldDef::nullable("PatientId", DataType::Int),
    ])
    .unwrap();
    let records = rows
        .iter()
        .map(|(band, steps, valid, patient)| {
            Record::new(vec![
                if *valid == 1 {
                    // Dyadic rationals: exact under any summation order.
                    Value::Float(4.0 + *band as f64 + *steps as f64 * 0.25)
                } else {
                    Value::Null
                },
                BANDS[*band % BANDS.len()].into(),
                Value::Int(i64::from(*patient)),
            ])
        })
        .collect();
    Table::from_rows(schema, records).unwrap()
}

fn load_warehouse(rows: &[RawRow]) -> Warehouse {
    let star = StarSchema::new(
        FactDef::new("Facts", vec!["FBG"], vec!["PatientId"]),
        vec![DimensionDef::new("Bloods", vec!["FBG_Band"])],
    )
    .unwrap();
    Warehouse::load(&LoadPlan::from_star(star), &table_of(rows)).unwrap()
}

#[test]
fn both_backends_pass_the_shared_conformance_suite() {
    let mem = MemoryBackend::new();
    if let Err(clause) = segstore::conformance::run(&mem) {
        panic!("memory backend violates the contract: {clause}");
    }
    let dir = temp_dir();
    let disk = DiskBackend::create(&dir).unwrap();
    if let Err(clause) = segstore::conformance::run(&disk) {
        panic!("disk backend violates the contract: {clause}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// encode → seal → reopen: for arbitrary attendance data, sealing
    /// through either backend and reading back through a *fresh*
    /// handle reproduces the cube a naive loop over the loaded table
    /// computes — and after reopening the directory, the same bytes.
    #[test]
    fn seal_and_reopen_reproduces_every_row(
        rows in proptest::collection::vec((0usize..3, 0u8..8, 0u8..2, 0u8..16), 1..40),
        target in 1usize..16,
    ) {
        let spec = CubeSpec::measure(vec!["FBG_Band"], olap::Aggregate::Sum, "FBG");
        let want = oracle::answer(&table_of(&rows), &oracle::Query {
            axes: vec!["FBG_Band"],
            equals: vec![],
            between: vec![],
            agg: oracle::Agg::Sum("FBG"),
        });
        let config = CompactionConfig { target_rows_per_segment: target };

        let dir = temp_dir();
        let backends: [(&str, Arc<dyn SegmentBackend>); 2] = [
            ("memory", Arc::new(MemoryBackend::new())),
            ("disk", Arc::new(DiskBackend::create(&dir).unwrap())),
        ];
        for (kind, backend) in backends {
            let mut wh = load_warehouse(&rows);
            wh.set_segment_backend(backend).unwrap();
            wh.compact_with(&config).unwrap();
            prop_assert_eq!(wh.segments().watermark(), rows.len());

            let (segmented, stats) = Cube::build_with_stats(&wh, &spec).unwrap();
            let got: oracle::Cells = segmented.iter().map(|(k, v)| (k.clone(), v)).collect();
            oracle::assert_same_cells(&got, &want, kind);
            prop_assert_eq!(stats.rows_scanned as usize, rows.len());
            prop_assert_eq!(stats.segments_total as usize, rows.len().div_ceil(target));

            // Every sealed segment fetches identically through a
            // fresh handle on the same storage.
            if kind == "disk" {
                let reopened = DiskBackend::open(&dir).unwrap();
                for meta in wh.segments().metas() {
                    let live = wh.fetch_segment(meta.id, &ColumnSet::all()).unwrap();
                    let fresh = reopened.fetch(meta.id, &ColumnSet::all()).unwrap();
                    prop_assert_eq!(live.key_column("Bloods"), fresh.key_column("Bloods"));
                    prop_assert_eq!(live.measure_column("FBG"), fresh.measure_column("FBG"));
                    prop_assert_eq!(
                        live.degenerate_column("PatientId"),
                        fresh.degenerate_column("PatientId")
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Any single flipped byte in any sealed segment file is caught by
    /// the per-record CRC on the next fetch.
    #[test]
    fn on_disk_byte_flips_are_detected(
        rows in proptest::collection::vec((0usize..3, 0u8..8, 0u8..2, 0u8..16), 4..24),
        victim in 0usize..4096,
        bit in 0u8..8,
    ) {
        let dir = temp_dir();
        let mut wh = load_warehouse(&rows);
        wh.set_segment_backend(Arc::new(DiskBackend::create(&dir).unwrap())).unwrap();
        wh.compact_with(&CompactionConfig { target_rows_per_segment: 8 }).unwrap();

        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| Some(e.ok()?.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "seg"))
            .collect();
        files.sort();
        prop_assert!(!files.is_empty());
        let file = &files[victim % files.len()];
        let mut bytes = std::fs::read(file).unwrap();
        let at = victim % bytes.len();
        bytes[at] ^= 1 << bit;
        std::fs::write(file, &bytes).unwrap();

        let reopened = DiskBackend::open(&dir).unwrap();
        let hit = reopened
            .list()
            .unwrap()
            .into_iter()
            .any(|id| reopened.fetch(id, &ColumnSet::all()).is_err());
        prop_assert!(hit, "flipping byte {} bit {} went undetected", at, bit);
        std::fs::remove_dir_all(&dir).ok();
    }
}
