//! `refresh_rw`: new attendances arrive while the scientists' open
//! views are re-read, through the replicated serve tier.
//!
//! One op is one refresh: append a 16-row slice through the router's
//! primary, tick until both replicas have applied it, then read a
//! fixed deck of 16 requests once. Additive cubes are patched in the
//! replicas' caches; distinct cubes and MDX are re-executed.
//!
//! Appended rows stay in the unsealed tail, which re-executed reads
//! scan row by row, so a refresh gets dearer with every one before it.
//! To keep ops alike whatever `--seconds` is, a router serves
//! [`EPOCH_OPS`] refreshes and is then replaced, off the clock, by a
//! fresh one over the same sealed base: op cost is a shallow sawtooth
//! (a few percent from tooth to tip) instead of a ramp as long as the
//! run.
//!
//! Primary compaction stays off: replicas share the primary's segment
//! backend, and the vacuum after a rebuilding compaction deletes files
//! they still read (see `skipped` in the README and the ignored test
//! below).

use super::{dir_bytes, etl, generate, op_count, sealed_warehouse, segment_layers, setup_layers};
use crate::data::{self, Cells, Tiled, BASE_VISITS};
use crate::decks::{self, Measure, Query, ReadKind};
use crate::harness::{Ctx, Ops, Timed};
use crate::stats;
use crate::trace::Tracer;
use clinical_types::Table;
use olap::Cube;
use serve::{QueryRequest, ReplicaRouter, RouterConfig, ServeResult, Served, ServedSource};
use std::path::{Path, PathBuf};
use warehouse::{LoadPlan, Warehouse};

/// x4 times three tiles: about 23K fact rows before the first append.
const BASE_TILES: usize = 3;
const REPLICAS: usize = 2;
const SLICE_ROWS: usize = 16;
/// Refreshes one router serves before a fresh one replaces it: the
/// tail never holds more than 256 rows beside 23K sealed ones.
/// Starting a router and warming it up takes about 55 ms.
const EPOCH_OPS: usize = 16;
/// A refresh takes about 17 ms on the baseline machine.
const REFRESHES_PER_SECOND: f64 = 50.0;
/// Passes over the read deck before timing, enough for the router's
/// two-choice placement to have put every answer in both caches.
const WARMUP_PASSES: usize = 4;
const APPLY_DELTA_PROBES: usize = 32;

/// Rows the serving router's tail holds when op `i` starts.
pub fn tail_rows_before(i: usize) -> usize {
    (i % EPOCH_OPS) * SLICE_ROWS
}

struct State {
    base: Table,
    /// The sealed base, never appended to; every router starts from a
    /// clone of it (the sealed segments are shared, the tail is not).
    sealed: Warehouse,
    router: Option<ReplicaRouter>,
    segment_dir: PathBuf,
    oplog_dir: PathBuf,
    warmup: Vec<ServeResult<Served>>,
}

/// A router over a clone of `sealed` with its own oplog file, and the
/// answers to its warm-up passes over the read deck.
fn start_router(
    sealed: &Warehouse,
    oplog: PathBuf,
    requests: &[QueryRequest],
    tracer: &mut Tracer,
) -> (ReplicaRouter, Vec<ServeResult<Served>>) {
    let router = tracer.span("serve.start", || {
        ReplicaRouter::new(
            sealed.clone(),
            RouterConfig {
                replicas: REPLICAS,
                oplog_path: Some(oplog),
                pump_interval: None,
                ..RouterConfig::default()
            },
        )
        .expect("start the replica router")
    });
    let warmup = (0..WARMUP_PASSES)
        .flat_map(|_| requests.iter().map(|r| router.execute(r)))
        .collect();
    (router, warmup)
}

/// The first warm-up answer that differs from the naive one.
fn wrong_warmup(warmup: &[ServeResult<Served>], expected: &[Cells]) -> Option<usize> {
    warmup.iter().enumerate().position(|(which, served)| {
        !served
            .as_ref()
            .is_ok_and(|s| data::same_cells(&served_cells(s), &expected[which % expected.len()]))
    })
}

fn oplog_path(dir: &Path, epoch: usize) -> PathBuf {
    dir.join(format!("oplog-{epoch}.log"))
}

fn served_cells(served: &Served) -> Cells {
    match (served.value.as_pivot(), served.value.as_cube()) {
        (Some(pivot), _) => data::pivot_cells(pivot),
        (_, Some(cube)) => data::cube_cells(cube.cells.iter().map(|(k, v)| (k, *v))),
        _ => Cells::new(),
    }
}

/// An unfiltered row count: its cells must add up to the fact rows.
fn counts_every_row(query: &Query) -> bool {
    query.measure == Measure::Count
        && query.where_eq.is_empty()
        && query.between.is_empty()
        && query.drill.is_none()
}

struct Refreshes<'a> {
    sealed: &'a Warehouse,
    router: ReplicaRouter,
    oplog_dir: &'a Path,
    tiled: &'a Tiled<'a>,
    deck: &'a [(ReadKind, Query)],
    requests: &'a [QueryRequest],
    base_rows: usize,
    /// The slice the next op appends, built before its clock starts.
    slice: Option<Table>,
    /// Naive answers over the base, after a router's first refresh
    /// and after its last.
    expected_base: &'a [Cells],
    expected_first: &'a [Cells],
    expected_last: &'a [Cells],
    /// What was wrong with the newest router's warm-up, for the next
    /// `check` to report.
    bad_warmup: Option<String>,
    /// Degraded serves and failovers of the routers already replaced.
    retired: (u64, u64),
    /// Per traced read: was it answered from a patched cache entry,
    /// and the latency the serve tier reported (µs).
    reads: Vec<(bool, f64)>,
}

impl Refreshes<'_> {
    /// Degraded serves and failovers over every router so far.
    fn degraded_and_failover(&self) -> (u64, u64) {
        let now = self.router.metrics();
        (self.retired.0 + now.degraded, self.retired.1 + now.failover)
    }
}

impl Ops for Refreshes<'_> {
    type Out = (ServeResult<usize>, usize, Vec<ServeResult<Served>>);

    const PREPARES: bool = true;

    fn prepare(&mut self, i: usize) {
        if i > 0 && tail_rows_before(i) == 0 {
            self.retired = self.degraded_and_failover();
            let oplog = oplog_path(self.oplog_dir, i / EPOCH_OPS);
            let (router, warmup) =
                start_router(self.sealed, oplog, self.requests, &mut Tracer::new());
            self.router = router;
            self.bad_warmup = wrong_warmup(&warmup, self.expected_base)
                .map(|which| format!("warm-up read {which} of a fresh router is wrong"));
        }
        let start = self.base_rows + tail_rows_before(i);
        self.slice = Some(self.tiled.rows(start, start + SLICE_ROWS));
    }

    fn run(&mut self, _i: usize, tracer: &mut Tracer) -> Self::Out {
        let slice = self.slice.take().expect("prepare ran");
        let appended = tracer.span("serve.router.append", || self.router.append(&slice));
        let open = tracer.begin("serve.router.tick");
        let mut applied = 0;
        // One record per replica; a tick applies what it finds.
        for _ in 0..64 {
            applied += self.router.tick();
            if applied >= REPLICAS {
                break;
            }
        }
        tracer.end_with(open, applied as u64);
        let reads = self
            .requests
            .iter()
            .map(|r| tracer.span("serve.router.read", || self.router.execute(r)))
            .collect();
        (appended, applied, reads)
    }

    fn check(&mut self, i: usize, out: Self::Out, traced: bool) -> Result<(), String> {
        let (appended, applied, reads) = out;
        if let Some(what) = self.bad_warmup.take() {
            return Err(what);
        }
        match appended {
            Ok(SLICE_ROWS) => {}
            other => return Err(format!("append returned {other:?}")),
        }
        if applied != REPLICAS {
            return Err(format!("{applied} replica applies, expected {REPLICAS}"));
        }
        let epoch = self.router.epoch();
        let rows_now = (self.base_rows + tail_rows_before(i) + SLICE_ROWS) as f64;
        let cell_for_cell = match i % EPOCH_OPS {
            0 => Some(self.expected_first),
            k if k + 1 == EPOCH_OPS => Some(self.expected_last),
            _ => None,
        };
        for (which, (read, (_, query))) in reads.iter().zip(self.deck).enumerate() {
            let served = read
                .as_ref()
                .map_err(|e| format!("read {which} not served: {e}"))?;
            if served.epoch != epoch {
                return Err(format!(
                    "read {which} served at epoch {}, primary is at {epoch}",
                    served.epoch
                ));
            }
            if served.value.degraded {
                return Err(format!("read {which} served degraded"));
            }
            let cells = served_cells(served);
            if cells.is_empty() {
                return Err(format!("read {which} is empty"));
            }
            if counts_every_row(query) && !data::close(data::shape(&cells).total, rows_now) {
                return Err(format!(
                    "read {which} counts {} rows, the warehouse holds {rows_now}",
                    data::shape(&cells).total
                ));
            }
            if let Some(expected) = cell_for_cell {
                if !data::same_cells(&cells, &expected[which]) {
                    return Err(format!("read {which} differs from the naive answer"));
                }
            }
            if traced {
                // After an append a cached answer can only be served
                // by patching it; everything else is re-executed.
                self.reads.push((
                    served.source == ServedSource::Cache,
                    served.latency.as_secs_f64() * 1e6,
                ));
            }
        }
        Ok(())
    }
}

pub fn run(ctx: &mut Ctx) -> Timed {
    let seed = ctx.args.seed;
    let deck = decks::refresh_deck(seed);
    let requests: Vec<QueryRequest> = deck
        .iter()
        .map(|(kind, q)| match kind {
            ReadKind::Mdx => QueryRequest::Mdx(q.to_mdx()),
            ReadKind::AdditiveCube | ReadKind::DistinctCube => QueryRequest::Cube(q.to_spec()),
        })
        .collect();

    let raw = generate(ctx, seed, BASE_VISITS);
    let mut state = ctx.setup(|ctx| {
        let base = etl(ctx, &raw);
        let dir = ctx.scratch_dir("segments");
        let sealed = sealed_warehouse(ctx, &Tiled::new(&base), BASE_TILES, BASE_TILES, &dir);
        let oplog_dir = ctx.scratch_dir("oplog");
        let (router, warmup) = start_router(
            &sealed,
            oplog_path(&oplog_dir, 0),
            &requests,
            &mut ctx.tracer,
        );
        State {
            base,
            sealed,
            router: Some(router),
            segment_dir: dir,
            oplog_dir,
            warmup,
        }
    });
    drop(raw);

    let tiled = Tiled::new(&state.base);
    let base_rows = BASE_TILES * tiled.base_rows();
    let n_ops = op_count(REFRESHES_PER_SECOND, ctx.args.seconds);
    let answers = |n_rows: usize| -> Vec<Cells> {
        deck.iter()
            .map(|(_, q)| data::naive_answer(&tiled, q, n_rows))
            .collect()
    };
    let expected_base = answers(base_rows);
    let expected_first = answers(base_rows + SLICE_ROWS);
    let expected_last = answers(base_rows + EPOCH_OPS * SLICE_ROWS);
    ctx.checks.attempted += state.warmup.len() as u64;
    if let Some(which) = wrong_warmup(&state.warmup, &expected_base) {
        ctx.checks.fail(format!(
            "warm-up read {which} differs from the naive answer"
        ));
    }

    ctx.note("scale", "x12 (3 tiles of the x4 base)");
    ctx.note("sealed_fact_rows", base_rows);
    ctx.note("ops_per_router", EPOCH_OPS);
    ctx.note("tail_rows_at_most", EPOCH_OPS * SLICE_ROWS);
    ctx.note("timed_ops", n_ops);
    ctx.note("rows_per_append", SLICE_ROWS);
    ctx.note("reads_per_op", deck.len());
    ctx.note("warmup_ops", WARMUP_PASSES * deck.len());
    ctx.note("client_threads", 1usize);
    ctx.note("replicas", REPLICAS);
    ctx.note(
        "serve_workers",
        "crate default per service (RouterConfig::default)",
    );
    ctx.note("replication_pump", "off: the client ticks");
    ctx.note(
        "skipped",
        "primary compaction during the run: replicas share the primary's backend and fail with `unknown segment N` after its vacuum",
    );

    let mut ops = Refreshes {
        sealed: &state.sealed,
        router: state.router.take().expect("set-up started a router"),
        oplog_dir: &state.oplog_dir,
        tiled: &tiled,
        deck: &deck,
        requests: &requests,
        base_rows,
        slice: None,
        expected_base: &expected_base,
        expected_first: &expected_first,
        expected_last: &expected_last,
        bad_warmup: None,
        retired: (0, 0),
        reads: Vec::new(),
    };
    let timed = ctx.timed(&mut ops, n_ops);

    if ctx.args.trace {
        let reads = std::mem::take(&mut ops.reads);
        let (degraded, failover) = ops.degraded_and_failover();
        drop(ops);
        ctx.layers.set("serve.router.degraded", degraded as f64);
        ctx.layers.set("serve.router.failover", failover as f64);
        layers(ctx, &state, &tiled, &deck, &reads, n_ops);
    }
    timed
}

fn layers(
    ctx: &mut Ctx,
    state: &State,
    tiled: &Tiled<'_>,
    deck: &[(ReadKind, Query)],
    reads: &[(bool, f64)],
    n_ops: usize,
) {
    setup_layers(ctx);
    segment_layers(ctx, &state.segment_dir, BASE_TILES * state.base.len());
    ctx.layer_from_span("serve.router.append_ms", "serve.router.append");
    ctx.layer_from_span("serve.router.tick_ms", "serve.router.tick");
    let latencies = |patched: bool| -> Vec<f64> {
        reads
            .iter()
            .filter(|(p, _)| *p == patched)
            .map(|(_, us)| *us)
            .collect()
    };
    let (patched, rebuilt) = (latencies(true), latencies(false));
    if !patched.is_empty() {
        ctx.layers
            .set("serve.router.read_patched_us", stats::median(&patched));
    }
    if !rebuilt.is_empty() {
        ctx.layers
            .set("serve.router.read_rebuilt_us", stats::median(&rebuilt));
    }
    let all = (patched.len() + rebuilt.len()).max(1) as f64;
    ctx.layers
        .set("serve.patched_share", patched.len() as f64 / all);
    ctx.layers
        .set("serve.rebuilt_share", rebuilt.len() as f64 / all);
    // One oplog file per router, all still on disk.
    ctx.layers.set(
        "oplog.bytes_per_row",
        dir_bytes(&state.oplog_dir) as f64 / (n_ops * SLICE_ROWS) as f64,
    );

    // What one patch costs below the serve tier: fold a 16-row append
    // into an additive cube by calling `Cube::apply_delta` directly.
    let additive = deck
        .iter()
        .find(|(kind, _)| *kind == ReadKind::AdditiveCube)
        .map(|(_, q)| q.to_spec())
        .expect("the deck has additive cubes");
    ctx.probing(|ctx| {
        let n = tiled.base_rows();
        let mut wh = Warehouse::load(&LoadPlan::discri_default(), &tiled.tile(0))
            .expect("load the probe warehouse");
        let (mut cube, _) = Cube::build_with_stats(&wh, &additive).expect("build the probe cube");
        for k in 0..APPLY_DELTA_PROBES {
            let before = wh.epoch();
            wh.append(&tiled.rows(n + k * SLICE_ROWS, n + (k + 1) * SLICE_ROWS))
                .expect("append a probe slice");
            let deltas = wh.deltas_since(before).expect("the delta is retained");
            let open = ctx.tracer.begin("olap.apply_delta");
            for delta in &deltas {
                cube.apply_delta(&wh, &additive, delta)
                    .expect("patch the probe cube");
            }
            ctx.tracer.end(open);
        }
    });
    ctx.layer_from_span("olap.apply_delta_us", "olap.apply_delta");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_router_takes_more_rows_than_the_base_holds() {
        // The smallest base any seed gives is three tiles of well over
        // 5000 rows.
        let smallest_base = BASE_TILES * 5_000;
        for i in 0..5_000 {
            assert!(tail_rows_before(i) + SLICE_ROWS <= EPOCH_OPS * SLICE_ROWS);
        }
        assert!(EPOCH_OPS * SLICE_ROWS <= smallest_base);
        // A fresh router starts with an empty tail.
        assert_eq!(tail_rows_before(0), 0);
        assert_eq!(tail_rows_before(EPOCH_OPS), 0);
        assert_eq!(tail_rows_before(EPOCH_OPS + 1), SLICE_ROWS);
    }

    /// Why primary compaction is listed under `skipped`: a replica
    /// seeded from the primary keeps the primary's segment list and
    /// shares its backend. When the primary's compaction rebuilds
    /// (after a structural change, a rewrite, or more appends than the
    /// delta log holds) it vacuums the files it replaced, and until
    /// the replicas have applied the compaction's record a read routed
    /// to them asks for segments that are gone: `read segment N: No
    /// such file` on disk, `unknown segment N` in memory. Once they
    /// have applied it they answer again, but only by the unsegmented
    /// scan, for good. Run with `cargo test -- --ignored`; it fails
    /// until replicas own their segments (or vacuum waits for them).
    #[test]
    #[ignore = "reproduces a known failure: replicas break after primary compaction"]
    fn replicas_survive_primary_compaction() {
        let raw = discri::generate(&discri::CohortConfig::small(5)).attendances;
        let base = data::transform(&raw);
        let tiled = Tiled::new(&base);
        let dir = std::env::temp_dir().join(format!("ddbench-compaction-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut wh = Warehouse::load(&LoadPlan::discri_default(), &tiled.tile(0)).unwrap();
        wh.set_segment_backend(std::sync::Arc::new(
            segstore::DiskBackend::create(&dir).unwrap(),
        ))
        .unwrap();
        wh.compact().unwrap();
        let router = ReplicaRouter::new(
            wh,
            RouterConfig {
                replicas: 2,
                pump_interval: None,
                ..RouterConfig::default()
            },
        )
        .unwrap();

        // A clinician's feedback dimension is a structural change, so
        // the primary's next compaction rebuilds every segment from
        // row zero and vacuums the ones it replaced.
        let labels = vec![clinical_types::Value::from("reviewed"); tiled.base_rows()];
        router
            .add_feedback_dimension("Clinician Feedback", "Reviewed", labels)
            .unwrap();
        while router.tick() > 0 {}
        router.primary().compact_now().unwrap();

        let distinct = QueryRequest::Cube(olap::CubeSpec::distinct(
            vec!["Gender", "Age_Band"],
            "PatientId",
        ));
        let served = router.execute(&distinct);
        let _ = std::fs::remove_dir_all(&dir);
        let served = served.expect("a replica answers after the primary compacted");
        assert!(!served.value.degraded);
    }
}
