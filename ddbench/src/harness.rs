//! What every workload shares: the run context, repeated set-up, the
//! fixed-work timed loop and the result it prints.

use crate::env::{self, Probe, Prober};
use crate::metrics::{Layers, END_TO_END};
use crate::stats;
use crate::trace::{Tracer, NO_OP};
use obs::Json;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Set-up runs this many times in a run and `setup_s` is the median,
/// so one slow page-fault storm or a neighbour's burst does not decide
/// it.
const SETUP_REPEATS: usize = 3;

/// A traced run alternates this many pairs of an untraced and a traced
/// block of ops. Even pairs lead with the untraced block and odd pairs
/// with the traced one (ABBA), so drift over the run, monotone or not,
/// falls on both sides alike when their speeds are compared.
const TRACE_BLOCK_PAIRS: usize = 10;

/// At most this many ops of a run are traced, so a workload with a
/// million ops keeps its spans (and `trace.<workload>.jsonl`) small.
const MAX_TRACED_OPS: usize = 100_000;

#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Checks {
    /// One output checked. `what` is only rendered on failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }
}

pub struct Ctx {
    pub args: Args,
    pub tracer: Tracer,
    pub layers: Layers,
    pub checks: Checks,
    /// Scale, op counts, thread counts: the workload's part of the
    /// environment stamp.
    pub notes: Vec<(&'static str, Json)>,
    prober: Prober,
    scratch: PathBuf,
    scratch_seq: usize,
    setup_s: Vec<f64>,
}

/// The ops of a workload's timed phase. `run` is what is timed; `check`
/// runs after the op's clock stops and decides whether the op failed.
pub trait Ops {
    type Out;
    /// Whether `prepare` does anything. A workload with a million ops
    /// leaves it `false` and the harness never reads the clocks for it.
    const PREPARES: bool = false;
    /// Harness work op `i` needs done first (building its input rows,
    /// replacing state the ops before it used up). Off the clock: it
    /// counts towards neither the timed wall nor the CPU time.
    fn prepare(&mut self, _i: usize) {}
    fn run(&mut self, i: usize, tracer: &mut Tracer) -> Self::Out;
    /// Returns `Err` with a description when the output is wrong.
    /// `traced` says whether this op ran inside a traced block, so
    /// counts are harvested from the same ops the spans describe.
    fn check(&mut self, i: usize, out: Self::Out, traced: bool) -> Result<(), String>;
}

pub struct Timed {
    /// Per-op latency in ms, in op order.
    pub latency_ms: Vec<f64>,
    pub wall_s: f64,
    pub cpu_ms: f64,
    /// Wall time `prepare` took, which `wall_s` leaves out.
    pub off_clock_s: f64,
    /// `1 - traced / untraced` ops per second, from the alternating
    /// blocks of a traced run.
    pub trace_overhead_share: Option<f64>,
    /// The quiet-machine probe just before and just after the loop.
    pub probe: [Probe; 2],
}

impl Ctx {
    pub fn new(args: Args) -> Ctx {
        let scratch =
            Ctx::target_dir()
                .join("tmp")
                .join(format!("{}-{}", args.workload, std::process::id()));
        Ctx {
            args,
            tracer: Tracer::new(),
            layers: Layers::default(),
            checks: Checks::default(),
            notes: Vec::new(),
            prober: Prober::new(),
            scratch,
            scratch_seq: 0,
            setup_s: Vec::new(),
        }
    }

    pub fn note(&mut self, key: &'static str, value: impl Into<Json>) {
        self.notes.push((key, value.into()));
    }

    /// A fresh directory under `ddbench/target/tmp/`, removed when the
    /// run ends.
    pub fn scratch_dir(&mut self, label: &str) -> PathBuf {
        self.scratch_seq += 1;
        let dir = self.scratch.join(format!("{label}-{}", self.scratch_seq));
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        dir
    }

    /// `ddbench/target/`: where traces, `repeat.json` and scratch go.
    pub fn target_dir() -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target");
        std::fs::create_dir_all(&dir).expect("create ddbench/target");
        dir
    }

    /// Run `build` [`SETUP_REPEATS`] times, timing each, and keep the
    /// last state. Earlier states are dropped before the next build so
    /// peak memory is that of one.
    pub fn setup<S>(&mut self, mut build: impl FnMut(&mut Ctx) -> S) -> S {
        self.tracer.set_enabled(self.args.trace);
        self.tracer.set_op(NO_OP);
        let mut state = None;
        for _ in 0..SETUP_REPEATS {
            drop(state.take());
            let start = Instant::now();
            state = Some(build(self));
            self.setup_s.push(start.elapsed().as_secs_f64());
        }
        self.tracer.set_enabled(false);
        state.expect("at least one set-up")
    }

    /// The timed phase: `n` ops in order, one client, each op started
    /// when the previous one's check is done.
    pub fn timed<O: Ops>(&mut self, ops: &mut O, n: usize) -> Timed {
        let blocks = blocks(n, self.args.trace);
        let mut latency_ms = Vec::with_capacity(n);
        // Wall time and ops of untraced ([0]) and traced ([1]) blocks.
        let mut class_wall = [0.0f64; 2];
        let mut class_ops = [0usize; 2];
        // Time `prepare` took, which neither total counts.
        let mut off_wall = 0.0f64;
        let mut off_cpu_ms = 0.0f64;
        let probe_before = self.prober.read();
        let cpu_before = env::process_cpu_ms();
        let start = Instant::now();
        for (first, end, traced) in blocks {
            self.tracer.set_enabled(traced);
            let block_start = Instant::now();
            let block_off = off_wall;
            for i in first..end {
                self.tracer.set_op(i as u32);
                if O::PREPARES {
                    let (wall, cpu) = (Instant::now(), env::process_cpu_ms());
                    ops.prepare(i);
                    off_wall += wall.elapsed().as_secs_f64();
                    off_cpu_ms += env::process_cpu_ms() - cpu;
                }
                let op_start = Instant::now();
                let span = self.tracer.begin("op");
                let out = ops.run(i, &mut self.tracer);
                self.tracer.end(span);
                latency_ms.push(op_start.elapsed().as_secs_f64() * 1e3);
                self.checks.attempted += 1;
                if let Err(what) = ops.check(i, out, traced) {
                    self.checks.fail(format!("op {i}: {what}"));
                }
            }
            class_wall[usize::from(traced)] +=
                block_start.elapsed().as_secs_f64() - (off_wall - block_off);
            class_ops[usize::from(traced)] += end - first;
        }
        let wall_s = start.elapsed().as_secs_f64() - off_wall;
        let cpu_ms = env::process_cpu_ms() - cpu_before - off_cpu_ms;
        let probe = [probe_before, self.prober.read()];
        self.tracer.set_enabled(false);
        self.tracer.set_op(NO_OP);
        let trace_overhead_share = (class_ops[1] > 0).then(|| {
            let untraced = class_ops[0] as f64 / class_wall[0];
            let traced = class_ops[1] as f64 / class_wall[1];
            1.0 - traced / untraced
        });
        Timed {
            latency_ms,
            wall_s,
            cpu_ms,
            off_clock_s: off_wall,
            trace_overhead_share,
            probe,
        }
    }

    /// Run a layer probe with the tracer on (after the timed phase of
    /// a traced run).
    pub fn probing(&mut self, f: impl FnOnce(&mut Ctx)) {
        self.tracer.set_enabled(true);
        f(self);
        self.tracer.set_enabled(false);
    }

    /// Median duration (ms) of the spans called `name`, if any ran.
    pub fn span_median_ms(&self, name: &str) -> Option<f64> {
        let durations = self.tracer.durations_ms(name);
        (!durations.is_empty()).then(|| stats::median(&durations))
    }

    /// Set a rate metric to the counts spans called `span` carried
    /// over the time they took.
    pub fn layer_rate_from_span(&mut self, metric: &'static str, span: &str) {
        let seconds: f64 = self.tracer.durations_ms(span).iter().sum::<f64>() / 1e3;
        if seconds > 0.0 {
            self.layers
                .set(metric, self.tracer.count_sum(span) as f64 / seconds);
        }
    }

    /// Set a layer metric to the median duration of a span, in the
    /// unit the metric's name ends with.
    pub fn layer_from_span(&mut self, metric: &'static str, span: &str) {
        if let Some(ms) = self.span_median_ms(span) {
            let scale = if metric.ends_with("_us") { 1e3 } else { 1.0 };
            self.layers.set(metric, ms * scale);
        }
    }

    /// The cost of one empty span: what an unentered layer's time
    /// reads as (see `Layers::complete`).
    fn span_floor_ns(&mut self) -> f64 {
        self.tracer.set_enabled(true);
        for _ in 0..1001 {
            let open = self.tracer.begin("bench.floor");
            self.tracer.end(open);
        }
        self.tracer.set_enabled(false);
        self.span_median_ms("bench.floor").unwrap_or(0.0) * 1e6
    }

    /// Assemble and print the result.
    pub fn finish(mut self, timed: &Timed) {
        let n = timed.latency_ms.len() as f64;
        let sorted = stats::sorted(&timed.latency_ms);
        let p90_ms = stats::percentile(&sorted, 90.0);
        let end_to_end: Vec<(&str, f64)> = vec![
            ("ops_per_s", n / timed.wall_s),
            ("op_p50_ms", stats::percentile(&sorted, 50.0)),
            ("cpu_ms_per_op", timed.cpu_ms / n),
            ("peak_rss_mb", env::peak_rss_mb()),
            ("setup_s", stats::median(&self.setup_s)),
        ];

        let metrics = if self.args.trace {
            if let Some(share) = timed.trace_overhead_share {
                self.layers.set("bench.trace_overhead_share", share);
            }
            let [before, after] = timed.probe;
            self.layers
                .set("bench.probe_ms", (before.alu_ms + after.alu_ms) / 2.0);
            self.layers
                .set("bench.probe_mem_ms", (before.mem_ms + after.mem_ms) / 2.0);
            self.layers.set("bench.op_p90_ms", p90_ms);
            let floor_ns = self.span_floor_ns();
            let path = Ctx::target_dir().join(format!("trace.{}.jsonl", self.args.workload));
            if let Err(e) = self.tracer.write_jsonl(&path) {
                eprintln!("ddbench: could not write {}: {e}", path.display());
            }
            Json::Obj(
                self.layers
                    .complete(floor_ns)
                    .into_iter()
                    .map(|(layer, value)| (layer.name.to_string(), metric(value, layer.unit)))
                    .collect(),
            )
        } else {
            Json::Obj(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let value = end_to_end
                            .iter()
                            .find(|(name, _)| *name == m.name)
                            .expect("every end-to-end metric is computed")
                            .1;
                        (m.name.to_string(), metric(value, m.unit))
                    })
                    .collect(),
            )
        };

        let failed_share = self.checks.failed as f64 / self.checks.attempted.max(1) as f64;
        let mut stamp = env::stamp();
        stamp.push(("workload", Json::from(self.args.workload.clone())));
        stamp.push(("seed", Json::from(self.args.seed)));
        stamp.push(("seconds", Json::from(self.args.seconds)));
        stamp.push(("traced", Json::Bool(self.args.trace)));
        stamp.append(&mut self.notes);
        let detail = Json::obj([
            ("environment", Json::obj(stamp)),
            ("failed_share", Json::Float(failed_share)),
            (
                "first_failure",
                self.checks
                    .first_failure
                    .as_deref()
                    .map_or(Json::Null, Json::from),
            ),
            (
                "op_latency_ms",
                Json::obj([
                    ("samples", Json::from(sorted.len())),
                    ("min", Json::Float(sorted[0])),
                    ("p50", Json::Float(stats::percentile(&sorted, 50.0))),
                    ("p90", Json::Float(p90_ms)),
                    ("p99", Json::Float(stats::percentile(&sorted, 99.0))),
                    ("max", Json::Float(sorted[sorted.len() - 1])),
                ]),
            ),
            ("timed_wall_s", Json::Float(timed.wall_s)),
            ("off_clock_s", Json::Float(timed.off_clock_s)),
            // Ops per second of op time in each tenth of the run: flat
            // when the machine was steady while it ran.
            (
                "tenths_ops_per_s",
                Json::Arr(
                    timed
                        .latency_ms
                        .chunks(timed.latency_ms.len().div_ceil(10))
                        .map(|c| Json::Float(c.len() as f64 / (c.iter().sum::<f64>() / 1e3)))
                        .collect(),
                ),
            ),
            (
                "setup_s_each",
                Json::Arr(self.setup_s.iter().map(|s| Json::Float(*s)).collect()),
            ),
            (
                "probe_ms",
                Json::obj([
                    ("alu_before", Json::Float(timed.probe[0].alu_ms)),
                    ("alu_after", Json::Float(timed.probe[1].alu_ms)),
                    ("mem_before", Json::Float(timed.probe[0].mem_ms)),
                    ("mem_after", Json::Float(timed.probe[1].mem_ms)),
                ]),
            ),
        ]);
        let _ = std::fs::remove_dir_all(&self.scratch);

        let correct = self.checks.failed == 0;
        let result = Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::from(self.checks.attempted)),
            ("failed", Json::from(self.checks.failed)),
            ("metrics", metrics),
        ]);
        println!("{}", detail.render());
        println!("{}", result.render());
    }
}

/// The timed phase as `(first op, end, traced)` blocks. An untraced run
/// is one block; a traced run alternates an untraced and a (possibly
/// shorter) traced block per pair, odd pairs leading with the traced
/// one.
fn blocks(n: usize, trace: bool) -> Vec<(usize, usize, bool)> {
    if !trace {
        return vec![(0, n, false)];
    }
    let pair = n.div_ceil(TRACE_BLOCK_PAIRS).max(2);
    let traced_len = (pair / 2).min(MAX_TRACED_OPS / TRACE_BLOCK_PAIRS);
    let mut blocks = Vec::new();
    for (k, first) in (0..n).step_by(pair).enumerate() {
        let end = (first + pair).min(n);
        let traced_len = traced_len.min(end - first);
        if k % 2 == 0 {
            blocks.push((first, end - traced_len, false));
            blocks.push((end - traced_len, end, true));
        } else {
            blocks.push((first, first + traced_len, true));
            blocks.push((first + traced_len, end, false));
        }
    }
    blocks
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Float(value)), ("unit", Json::from(unit))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_blocks_cover_the_run_and_take_turns_leading() {
        assert_eq!(blocks(500, false), vec![(0, 500, false)]);
        for n in [100, 360, 500, 20_000, 1_400_000] {
            let blocks = blocks(n, true);
            // Contiguous, in order, nothing left out.
            let mut next = 0;
            for &(first, end, _) in &blocks {
                assert_eq!(first, next);
                assert!(end >= first);
                next = end;
            }
            assert_eq!(next, n);
            let traced: usize = blocks.iter().filter(|b| b.2).map(|b| b.1 - b.0).sum();
            assert!(traced > 0 && traced <= MAX_TRACED_OPS && traced <= n / 2);
            // U T | T U | U T ...: each side leads as often as the other.
            let leads: Vec<bool> = blocks.iter().step_by(2).map(|b| b.2).collect();
            assert_eq!(leads.len(), TRACE_BLOCK_PAIRS);
            assert!(leads
                .iter()
                .enumerate()
                .all(|(k, &traced)| traced == (k % 2 == 1)));
        }
    }
}
