//! The metric tables: one row per name `BENCHMARK.json` lists. The
//! manifest is printed from these tables (`ddbench manifest`) and a
//! test holds the two together.

use obs::Json;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen,
    /// and the run-to-run agreement `repeat` asks for.
    pub bound: f64,
}

use Better::{Higher, Lower};

/// The time bounds are as wide as the driver's contract allows, not the
/// 0.10 the issue asked for, because the machine's own noise floor is
/// above what 0.10 needs: on this shared 2-vCPU VM ten runs of one
/// binary on one seed spread 0.05-0.10 (interquartile range over
/// median) on every time metric of every workload, a process pinned to
/// one core spreads as much, and the same run differs by up to 0.20
/// between two quarters of an hour. The contract wants spreads under a
/// third of the bound. See the README's Baseline for the numbers.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

/// Times are per timed op of the workload unless the name says
/// otherwise; module names are the layers.
pub const PER_LAYER: [Layer; 66] = [
    // olap: the scan workload's session, query by query and in total.
    layer("olap.q.fig5_distinct_ms", "ms", Lower),
    layer("olap.q.fig6_htyears_ms", "ms", Lower),
    layer("olap.q.sum_by_band_ms", "ms", Lower),
    layer("olap.q.avg_filtered_ms", "ms", Lower),
    layer("olap.q.count_wide_ms", "ms", Lower),
    layer("olap.q.year_selective_ms", "ms", Lower),
    layer("olap.q.drill_children_ms", "ms", Lower),
    layer("olap.q.cube_range_ms", "ms", Lower),
    layer("olap.phase.execute_us", "us", Lower),
    layer("olap.phase.aggregate_us", "us", Lower),
    layer("olap.rows_scanned_per_s", "rows/s", Higher),
    layer("olap.rows_scanned_per_op", "rows", Lower),
    layer("olap.segments_pruned_share", "share", Higher),
    layer("olap.morsels_per_op", "count", Lower),
    // What a cache hit still pays: direct calls, per query.
    layer("olap.parse_us", "us", Lower),
    layer("olap.analyze_us", "us", Lower),
    layer("analyze.catalog_build_us", "us", Lower),
    // serve: the program's own QueryProfile of executed requests.
    layer("serve.phase.parse_us", "us", Lower),
    layer("serve.phase.analyze_us", "us", Lower),
    layer("serve.phase.cache_lookup_us", "us", Lower),
    layer("serve.phase.queue_us", "us", Lower),
    layer("serve.phase.execute_us", "us", Lower),
    layer("serve.phase.aggregate_us", "us", Lower),
    layer("serve.phase_sum_share", "share", Higher),
    layer("serve.caller_overhead_us", "us", Lower),
    layer("serve.op_p99_us", "us", Lower),
    layer("serve.source.cache_share", "share", Higher),
    layer("serve.source.executed_share", "share", Lower),
    layer("serve.source.coalesced_share", "share", Lower),
    layer("serve.rejected", "count", Lower),
    // serve::router and what it drives on a refresh.
    layer("serve.router.append_ms", "ms", Lower),
    layer("serve.router.tick_ms", "ms", Lower),
    layer("serve.router.read_patched_us", "us", Lower),
    layer("serve.router.read_rebuilt_us", "us", Lower),
    layer("serve.patched_share", "share", Higher),
    layer("serve.rebuilt_share", "share", Lower),
    layer("serve.router.degraded", "count", Lower),
    layer("serve.router.failover", "count", Lower),
    layer("olap.apply_delta_us", "us", Lower),
    layer("oplog.bytes_per_row", "B/row", Lower),
    // Set-up: etl, warehouse, segstore.
    layer("etl.run_rows_per_s", "rows/s", Higher),
    layer("etl.run_ms", "ms", Lower),
    layer("warehouse.load_rows_per_s", "rows/s", Higher),
    layer("warehouse.append_rows_per_s", "rows/s", Higher),
    layer("warehouse.compact_rows_per_s", "rows/s", Higher),
    layer("segstore.disk_bytes_per_row", "B/row", Lower),
    layer("segstore.segments_total", "count", Lower),
    layer("segstore.fetch_decode_ms", "ms", Lower),
    // The guidance cycle and its parts.
    layer("dd-dgms.from_raw_ms", "ms", Lower),
    layer("dd-dgms.cycle_ms", "ms", Lower),
    layer("dd-dgms.cycle_parts_share", "share", Higher),
    layer("mining.dataset_build_ms", "ms", Lower),
    layer("mining.awsum_ms", "ms", Lower),
    layer("mining.apriori_ms", "ms", Lower),
    layer("predict.trajectories_ms", "ms", Lower),
    layer("predict.evaluate_ms", "ms", Lower),
    layer("predict.markov_fit_ms", "ms", Lower),
    layer("optimize.validate_aggregate_ms", "ms", Lower),
    layer("optimize.regimen_ms", "ms", Lower),
    layer("kb.add_evidence_us", "us", Lower),
    layer("warehouse.feedback_dimension_ms", "ms", Lower),
    // Environment and harness honesty.
    layer("discri.generate_rows_per_s", "rows/s", Higher),
    layer("bench.trace_overhead_share", "share", Lower),
    layer("bench.probe_ms", "ms", Lower),
    layer("bench.probe_mem_ms", "ms", Lower),
    // Demoted from the end-to-end list: with a noisy neighbour the
    // tail is the neighbour's, and its run-to-run spread reached 0.46.
    layer("bench.op_p90_ms", "ms", Lower),
];

/// Layer values a workload measured, by name.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|l| l.name == name),
            "unknown layer metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Every listed layer metric. A layer the workload never enters
    /// reads 0 for a count, a share or a rate, and for a time the
    /// measured cost of one empty span (`floor_ns`, a few tens of
    /// nanoseconds): the least this harness can resolve, and a value
    /// that is measured rather than written down.
    pub fn complete(&self, floor_ns: f64) -> Vec<(&'static Layer, f64)> {
        PER_LAYER
            .iter()
            .map(|layer| {
                let value = self.get(layer.name).unwrap_or_else(|| match layer.unit {
                    "s" => floor_ns / 1e9,
                    "ms" => floor_ns / 1e6,
                    "us" => floor_ns / 1e3,
                    "ns" => floor_ns,
                    _ => 0.0,
                });
                (layer, value)
            })
            .collect()
    }
}

pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "olap_scan",
        "x100 sealed warehouse, direct olap calls: cube, kernels, segstore and segments do the work; serve, etl and mining do none",
    ),
    (
        "serve_miss",
        "1024 distinct queries cycled through a 256-entry cache: every request runs parse, analyze, lookup, queue, scan, pivot, insert",
    ),
    (
        "serve_hot",
        "64 queries that fit the cache, Zipf-drawn: all hits, so the scan is bypassed and per-request overhead in serve and obs shows",
    ),
    (
        "refresh_rw",
        "writes beside reads through the replica router: append, oplog, replica catch-up, then patched and re-executed reads",
    ),
    (
        "trial_guide",
        "the paper's trial end to end at x1: etl, load, seal, guidance cycle, briefing; serve and the big scan do none of it",
    ),
];

/// The contents of `BENCHMARK.json`.
pub fn manifest(run_seconds: u64) -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "ddbench/Cargo.toml",
                    "--",
                ]
                .into_iter()
                .map(Json::from)
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::from("ddbench")])),
        ("run_seconds", Json::from(run_seconds)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::from(*name)), ("why", Json::from(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::from(m.name)),
                            ("unit", Json::from(m.unit)),
                            ("better", Json::from(m.better.word())),
                            ("bound", Json::Float(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::from(m.name)),
                            ("unit", Json::from(m.unit)),
                            ("better", Json::from(m.better.word())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `value` indented two spaces a level, for files a person reads.
pub fn pretty(value: &Json) -> String {
    fn write(out: &mut String, value: &Json, depth: usize) {
        let pad = |out: &mut String, depth: usize| {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        };
        match value {
            Json::Arr(items) if !items.is_empty() => {
                for (i, item) in items.iter().enumerate() {
                    out.push(if i == 0 { '[' } else { ',' });
                    pad(out, depth + 1);
                    write(out, item, depth + 1);
                }
                pad(out, depth);
                out.push(']');
            }
            Json::Obj(map) if !map.is_empty() => {
                for (i, (key, item)) in map.iter().enumerate() {
                    out.push(if i == 0 { '{' } else { ',' });
                    pad(out, depth + 1);
                    out.push_str(&Json::from(key.as_str()).render());
                    out.push_str(": ");
                    write(out, item, depth + 1);
                }
                pad(out, depth);
                out.push('}');
            }
            leaf => out.push_str(&leaf.render()),
        }
    }
    let mut out = String::new();
    write(&mut out, value, 0);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_keep_to_the_contract() {
        let mut seen = HashSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|(n, _)| (*n, "count")));
        for (name, unit) in names {
            assert!(name_ok(name), "{name}");
            assert!(seen.insert(name), "{name} listed twice");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for (_, why) in &WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` is what `ddbench manifest` prints.
    #[test]
    fn manifest_file_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let on_disk = Json::parse(&text).expect("BENCHMARK.json is JSON");
        let run_seconds = on_disk.get("run_seconds").and_then(Json::as_u64).unwrap();
        assert_eq!(on_disk, manifest(run_seconds));
        assert_eq!(text, pretty(&on_disk));
    }

    #[test]
    fn unmeasured_layers_read_zero_or_the_span_floor() {
        let mut layers = Layers::default();
        layers.set("olap.parse_us", 12.5);
        let all = layers.complete(40.0);
        assert_eq!(all.len(), PER_LAYER.len());
        let value = |name: &str| all.iter().find(|(l, _)| l.name == name).unwrap().1;
        assert_eq!(value("olap.parse_us"), 12.5);
        assert_eq!(value("olap.analyze_us"), 0.04);
        assert_eq!(value("serve.rejected"), 0.0);
        assert_eq!(value("etl.run_rows_per_s"), 0.0);
    }
}
