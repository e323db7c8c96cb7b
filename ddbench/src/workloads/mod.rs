//! The five workloads and the set-up steps they share.

pub mod olap_scan;
pub mod refresh_rw;
pub mod serve;
pub mod trial_guide;

use crate::data::{self, Tiled};
use crate::harness::Ctx;
use clinical_types::Table;
use segstore::DiskBackend;
use std::path::Path;
use std::sync::Arc;
use warehouse::{LoadPlan, Warehouse};

/// Timed ops for a run of `seconds`: fixed work, so a count and never a
/// deadline. `per_second` is the workload's nominal rate on the
/// machine the baseline was recorded on; no workload runs fewer than
/// 100 ops, so that ten samples lie beyond its p90.
pub fn op_count(per_second: f64, seconds: u64) -> usize {
    ((per_second * seconds as f64).round() as usize).max(100)
}

/// Generate the seeded cohort. Stands in for reading the clinic's
/// files, so it is outside `setup_s` and reported as a layer metric.
pub fn generate(ctx: &mut Ctx, seed: u64, visits: usize) -> Table {
    ctx.tracer.set_enabled(ctx.args.trace);
    let open = ctx.tracer.begin("discri.generate");
    let raw = data::generate_raw(seed, visits);
    ctx.tracer.end_with(open, raw.len() as u64);
    ctx.tracer.set_enabled(false);
    raw
}

pub fn etl(ctx: &mut Ctx, raw: &Table) -> Table {
    let open = ctx.tracer.begin("etl.run");
    let transformed = data::transform(raw);
    ctx.tracer.end_with(open, raw.len() as u64);
    transformed
}

/// Load tile 0, then append the rest, sealing to a disk backend in
/// `dir` after each of the first `sealed_tiles` so every tile gets its
/// own segments (and its own zone maps). Tiles past `sealed_tiles`
/// stay in the mutable tail.
pub fn sealed_warehouse(
    ctx: &mut Ctx,
    data: &Tiled<'_>,
    tiles: usize,
    sealed_tiles: usize,
    dir: &Path,
) -> Warehouse {
    let t = &mut ctx.tracer;
    let first = t.span("bench.tile_build", || data.tile(0));
    let open = t.begin("warehouse.load");
    let mut wh = Warehouse::load(&LoadPlan::discri_default(), &first).expect("load tile 0");
    t.end_with(open, first.len() as u64);
    drop(first);
    let backend = DiskBackend::create(dir).expect("create segment directory");
    wh.set_segment_backend(Arc::new(backend))
        .expect("point the warehouse at the disk backend");
    for tile in 0..tiles {
        if tile > 0 {
            let rows = t.span("bench.tile_build", || data.tile(tile));
            let open = t.begin("warehouse.append");
            wh.append(&rows).expect("append a tile");
            t.end_with(open, rows.len() as u64);
        }
        if tile < sealed_tiles {
            let open = t.begin("warehouse.compact");
            wh.compact().expect("seal a tile");
            t.end_with(open, data.base_rows() as u64);
        }
    }
    wh
}

/// Layer metrics every workload's set-up yields, from its spans.
pub fn setup_layers(ctx: &mut Ctx) {
    ctx.layer_rate_from_span("discri.generate_rows_per_s", "discri.generate");
    ctx.layer_rate_from_span("etl.run_rows_per_s", "etl.run");
    ctx.layer_from_span("etl.run_ms", "etl.run");
    ctx.layer_rate_from_span("warehouse.load_rows_per_s", "warehouse.load");
    ctx.layer_rate_from_span("warehouse.append_rows_per_s", "warehouse.append");
    ctx.layer_rate_from_span("warehouse.compact_rows_per_s", "warehouse.compact");
    ctx.layer_from_span("analyze.catalog_build_us", "analyze.catalog_build");
}

/// Space and count of the sealed segments in `dir`.
pub fn segment_layers(ctx: &mut Ctx, dir: &Path, sealed_rows: usize) {
    let segments = std::fs::read_dir(dir).map_or(0, |entries| entries.flatten().count());
    ctx.layers.set("segstore.segments_total", segments as f64);
    ctx.layers.set(
        "segstore.disk_bytes_per_row",
        dir_bytes(dir) as f64 / sealed_rows as f64,
    );
}

/// Bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_counts_are_fixed_by_the_arguments() {
        assert_eq!(op_count(2800.0, 12), 33_600);
        assert_eq!(op_count(2800.0, 12), op_count(2800.0, 12));
        // Never fewer than 100, however short the run.
        assert_eq!(op_count(6.0, 12), 100);
        assert_eq!(op_count(6.0, 1), 100);
    }
}
