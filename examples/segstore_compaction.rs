//! The segmented storage lifecycle, end to end.
//!
//! Attendances load into the mutable fact table, a compaction pass
//! seals them into sorted immutable segments (here on the disk
//! backend: one CRC-framed file each), and selective queries then
//! prune whole segments on their zone maps. Appends land in the
//! mutable tail and stay queryable; the next compaction folds them in
//! and vacuums the superseded files.
//!
//! ```text
//! cargo run --release --example segstore_compaction
//! ```

use clinical_types::{DataType, FieldDef, Record, Schema, Table, Value};
use olap::{Cube, CubeFilter, CubeSpec};
use segstore::DiskBackend;
use std::sync::Arc;
use warehouse::{CompactionConfig, DimensionDef, FactDef, LoadPlan, StarSchema, Warehouse};

const YEARS: usize = 8;
const ROWS_PER_YEAR: usize = 512;

fn schema() -> Schema {
    Schema::new(vec![
        FieldDef::nullable("Year", DataType::Text),
        FieldDef::nullable("FBG_Band", DataType::Text),
        FieldDef::nullable("FBG", DataType::Float),
        FieldDef::required("PatientId", DataType::Int),
    ])
    .expect("schema")
}

/// Attendances arrive in visit order, so `Year` correlates with row
/// position — exactly the layout zone maps exploit.
fn attendances() -> Table {
    let bands = ["very good", "preDiabetic", "Diabetic"];
    let mut records = Vec::new();
    for y in 0..YEARS {
        for i in 0..ROWS_PER_YEAR {
            records.push(Record::new(vec![
                Value::from((2018 + y).to_string().as_str()),
                bands[i % bands.len()].into(),
                Value::Float(4.0 + (i % 20) as f64 * 0.25),
                Value::Int((y * ROWS_PER_YEAR + i) as i64),
            ]));
        }
    }
    Table::from_rows(schema(), records).expect("table")
}

fn seg_files(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| Some(e.ok()?.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "seg"))
                .count()
        })
        .unwrap_or(0)
}

/// Count attendances per band twice — for one year, then for all of
/// them — and print what each scan touched: same segments on offer,
/// but only the selective spec gives the zone maps something to prune.
fn selective_count(wh: &Warehouse, year: &str) -> clinical_types::Result<()> {
    let everything = CubeSpec::count(vec!["FBG_Band"]);
    let one_year = everything
        .clone()
        .with_filter(CubeFilter::all().equals("Year", year));
    for (label, spec) in [
        (format!("Year = {year}"), one_year),
        ("all years".into(), everything),
    ] {
        let (cube, stats) = Cube::build_with_stats(wh, &spec)?;
        let total: f64 = cube.iter().map(|(_, v)| v).sum();
        // The same numbers flow into every profiled query via
        // QueryProfile::segments_pruned / rows_scanned.
        println!(
            "  {label:<11}: {total:>6.0} attendances | segments {} of {} pruned, {} rows scanned",
            stats.segments_pruned, stats.segments_total, stats.rows_scanned
        );
    }
    Ok(())
}

fn main() -> clinical_types::Result<()> {
    let star = StarSchema::new(
        FactDef::new("Facts", vec!["FBG"], vec!["PatientId"]),
        vec![
            DimensionDef::new("Visit", vec!["Year"]),
            DimensionDef::new("Bloods", vec!["FBG_Band"]),
        ],
    )?;
    let mut wh = Warehouse::load(&LoadPlan::from_star(star), &attendances())?;

    let dir = std::env::temp_dir().join(format!("segstore_example_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    wh.set_segment_backend(Arc::new(DiskBackend::create(&dir)?))?;

    println!(
        "== 1. Seal {} loaded rows into disk segments ==========",
        wh.n_facts()
    );
    wh.compact_with(&CompactionConfig {
        target_rows_per_segment: ROWS_PER_YEAR,
    })?;
    println!(
        "  {} segments sealed ({} files in {}), watermark {}",
        wh.segments().len(),
        seg_files(&dir),
        dir.display(),
        wh.segments().watermark()
    );
    for meta in wh.segments().metas().iter().take(3) {
        let zone = meta.key_zone("Visit").expect("Visit zone");
        println!(
            "  segment {:>2}: {:>4} rows, Visit keys [{}..{}]",
            meta.id, meta.rows, zone.min, zone.max
        );
    }
    println!("  ...");

    println!("\n== 2. Selective queries prune on zone maps ============");
    selective_count(&wh, "2020")?;
    selective_count(&wh, "2024")?;

    println!("\n== 3. Appends land in the mutable tail ================");
    let late = Table::from_rows(
        schema(),
        (0..100)
            .map(|i| {
                Record::new(vec![
                    "2026".into(),
                    "Diabetic".into(),
                    Value::Float(8.5),
                    Value::Int((YEARS * ROWS_PER_YEAR + i) as i64),
                ])
            })
            .collect(),
    )
    .expect("late rows");
    wh.append(&late)?;
    println!(
        "  appended 100 rows; watermark {} < {} facts",
        wh.segments().watermark(),
        wh.n_facts()
    );
    selective_count(&wh, "2026")?;

    println!("\n== 4. Incremental recompaction seals the tail =========");
    let before = seg_files(&dir);
    wh.compact_with(&CompactionConfig {
        target_rows_per_segment: ROWS_PER_YEAR,
    })?;
    // Append-only deltas compact incrementally: the sealed prefix is
    // untouched, only the tail becomes a new segment. Vacuum reclaims
    // files whenever a rebuild superseded older segments.
    let reclaimed = wh.vacuum_segments()?;
    println!(
        "  {} -> {} segment files ({} superseded files vacuumed), watermark {}",
        before,
        seg_files(&dir),
        reclaimed,
        wh.segments().watermark()
    );
    selective_count(&wh, "2026")?;

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
