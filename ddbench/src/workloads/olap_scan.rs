//! `olap_scan`: a scientist's session against a warehouse a hundred
//! times the paper's, straight through the `olap` API.
//!
//! One op is one session: the eight queries of [`decks::scan_deck`] in
//! order. Sessions are identical work, so per-op latency has one mode
//! even though the queries inside a session differ by two orders of
//! magnitude.

use super::{etl, generate, op_count, sealed_warehouse, segment_layers, setup_layers};
use crate::data::{self, Cells, Shape, Tiled, BASE_VISITS};
use crate::decks::{self, DeckEntry};
use crate::harness::{Ctx, Ops, Timed};
use crate::stats;
use crate::trace::Tracer;
use analyze::Catalog;
use clinical_types::Table;
use obs::{Phase, ProfileBuilder, QueryProfile};
use olap::mdx::QuerySpans;
use olap::{Cube, PivotTable, ScanStats};
use segstore::{ColumnSet, DiskBackend};
use std::path::PathBuf;
use std::sync::Arc;
use warehouse::Warehouse;

/// Base cohort (x4 the paper's) times 28 is about x100: some 220K fact
/// rows, so the three columns a query touches (4-byte keys, 8-byte
/// measures) do not fit the 4 MiB L2 together.
const TILES: usize = 28;
/// All but the last tile are sealed; the last stays in the mutable
/// tail, as a warehouse between two compactions would have it.
const SEALED_TILES: usize = TILES - 1;
/// A session takes about 130 ms on the baseline machine.
const SESSIONS_PER_SECOND: f64 = 7.5;
const WARMUP_SESSIONS: usize = 2;

enum Answer {
    Pivot(PivotTable, QueryProfile, bool),
    Cube(Cube, ScanStats),
}

impl Answer {
    fn cells(&self) -> Cells {
        match self {
            Answer::Pivot(pivot, _, _) => data::pivot_cells(pivot),
            Answer::Cube(cube, _) => data::cube_cells(cube.iter()),
        }
    }

    fn shape(&self) -> Shape {
        match self {
            Answer::Pivot(pivot, _, _) => data::pivot_shape(pivot),
            Answer::Cube(cube, _) => data::shape(&data::cube_cells(cube.iter())),
        }
    }
}

struct State {
    base: Table,
    wh: Warehouse,
    catalog: Catalog,
    dir: PathBuf,
    warmup: Vec<Vec<Answer>>,
}

fn session(
    wh: &Warehouse,
    catalog: &Catalog,
    deck: &[DeckEntry],
    texts: &[String],
    tracer: &mut Tracer,
) -> Vec<Answer> {
    deck.iter()
        .zip(texts)
        .map(|(entry, text)| {
            let open = tracer.begin(entry.name);
            let answer = if entry.as_cube {
                let (cube, stats) =
                    Cube::build_with_stats(wh, &entry.query.to_spec()).expect("deck cube builds");
                Answer::Cube(cube, stats)
            } else {
                let parsed = tracer
                    .span("olap.parse", || olap::parse_mdx(text))
                    .expect("deck query parses");
                let clean = tracer
                    .span("olap.analyze", || {
                        olap::analyze_mdx(catalog, &parsed, &QuerySpans::default())
                    })
                    .is_empty();
                let mut profile = ProfileBuilder::start();
                let pivot = tracer
                    .span("olap.execute", || {
                        olap::mdx::execute_query_profiled(wh, &parsed, &mut profile)
                    })
                    .expect("deck query executes");
                Answer::Pivot(pivot, profile.finish(), clean)
            };
            tracer.end(open);
            answer
        })
        .collect()
}

/// What the program reported about one traced session, summed over
/// its queries.
#[derive(Default, Clone, Copy)]
struct SessionCounts {
    execute_us: f64,
    aggregate_us: f64,
    rows_scanned: f64,
    segments_pruned: f64,
    /// Sealed segments a query could have read; only the cube call
    /// reports it, and it is the same for every query.
    segments_total: f64,
    morsels: f64,
}

struct Sessions<'a> {
    state: &'a State,
    deck: &'a [DeckEntry],
    texts: Vec<String>,
    shapes: Vec<Shape>,
    harvested: Vec<SessionCounts>,
}

impl Ops for Sessions<'_> {
    type Out = Vec<Answer>;

    fn run(&mut self, _i: usize, tracer: &mut Tracer) -> Vec<Answer> {
        session(
            &self.state.wh,
            &self.state.catalog,
            self.deck,
            &self.texts,
            tracer,
        )
    }

    fn check(&mut self, _i: usize, out: Vec<Answer>, traced: bool) -> Result<(), String> {
        let mut counts = SessionCounts::default();
        for ((answer, entry), want) in out.iter().zip(self.deck).zip(&self.shapes) {
            let got = answer.shape();
            if !data::same_shape(got, *want) {
                return Err(format!("{}: {got:?}, expected {want:?}", entry.name));
            }
            let (rows, pruned, morsels) = match answer {
                Answer::Pivot(_, profile, clean) => {
                    if !clean {
                        return Err(format!("{}: analyzer diagnostics", entry.name));
                    }
                    counts.execute_us += profile.phase_us(Phase::Execute) as f64;
                    counts.aggregate_us += profile.phase_us(Phase::Aggregate) as f64;
                    (
                        profile.rows_scanned,
                        profile.segments_pruned,
                        profile.morsels_executed,
                    )
                }
                Answer::Cube(_, stats) => {
                    counts.segments_total = stats.segments_total as f64;
                    (
                        stats.rows_scanned,
                        stats.segments_pruned,
                        stats.morsels_executed,
                    )
                }
            };
            counts.rows_scanned += rows as f64;
            counts.segments_pruned += pruned as f64;
            counts.morsels += morsels as f64;
        }
        if traced {
            self.harvested.push(counts);
        }
        Ok(())
    }
}

pub fn run(ctx: &mut Ctx) -> Timed {
    let seed = ctx.args.seed;
    let n_ops = op_count(SESSIONS_PER_SECOND, ctx.args.seconds);
    // Any sealed tile will do; the seed picks which.
    let round = (seed % SEALED_TILES as u64) as usize;
    let deck = decks::scan_deck(round);
    let texts: Vec<String> = deck.iter().map(|e| e.query.to_mdx()).collect();

    let raw = generate(ctx, seed, BASE_VISITS);
    let state = ctx.setup(|ctx| {
        let base = etl(ctx, &raw);
        let dir = ctx.scratch_dir("segments");
        let wh = sealed_warehouse(ctx, &Tiled::new(&base), TILES, SEALED_TILES, &dir);
        let catalog = ctx
            .tracer
            .span("analyze.catalog_build", || Catalog::from_warehouse(&wh));
        let warmup = (0..WARMUP_SESSIONS)
            .map(|_| session(&wh, &catalog, &deck, &texts, &mut ctx.tracer))
            .collect();
        State {
            base,
            wh,
            catalog,
            dir,
            warmup,
        }
    });
    drop(raw);

    // Expected answers, then the warm-up sessions cell for cell.
    let tiled = Tiled::new(&state.base);
    let n_rows = TILES * tiled.base_rows();
    let expected: Vec<Cells> = deck
        .iter()
        .map(|e| data::naive_answer(&tiled, &e.query, n_rows))
        .collect();
    for answers in &state.warmup {
        ctx.checks.attempted += 1;
        let wrong = answers
            .iter()
            .zip(&expected)
            .zip(&deck)
            .find(|((got, want), _)| !data::same_cells(&got.cells(), want));
        if let Some((_, entry)) = wrong {
            ctx.checks.fail(format!(
                "warm-up session: {} differs from the naive answer",
                entry.name
            ));
        }
    }
    ctx.checks.check(state.wh.n_facts() == n_rows, || {
        format!(
            "warehouse holds {} facts, expected {n_rows}",
            state.wh.n_facts()
        )
    });

    ctx.note("scale", "x100 (28 tiles of the x4 base)");
    ctx.note("fact_rows", n_rows);
    ctx.note("tiles", TILES);
    ctx.note("sealed_tiles", SEALED_TILES);
    ctx.note("timed_ops", n_ops);
    ctx.note("queries_per_op", deck.len());
    ctx.note("warmup_ops", WARMUP_SESSIONS);
    ctx.note("client_threads", 1usize);
    ctx.note("selective_round", round);

    let mut ops = Sessions {
        state: &state,
        deck: &deck,
        texts,
        shapes: expected.iter().map(data::shape).collect(),
        harvested: Vec::new(),
    };
    let timed = ctx.timed(&mut ops, n_ops);

    if ctx.args.trace {
        let harvested = std::mem::take(&mut ops.harvested);
        layers(ctx, &state, deck.len(), &harvested);
    }
    timed
}

fn layers(ctx: &mut Ctx, state: &State, queries_per_op: usize, harvested: &[SessionCounts]) {
    setup_layers(ctx);
    ctx.layer_from_span("olap.q.fig5_distinct_ms", "fig5_distinct");
    ctx.layer_from_span("olap.q.fig6_htyears_ms", "fig6_htyears");
    ctx.layer_from_span("olap.q.sum_by_band_ms", "sum_by_band");
    ctx.layer_from_span("olap.q.avg_filtered_ms", "avg_filtered");
    ctx.layer_from_span("olap.q.count_wide_ms", "count_wide");
    ctx.layer_from_span("olap.q.year_selective_ms", "year_selective");
    ctx.layer_from_span("olap.q.drill_children_ms", "drill_children");
    ctx.layer_from_span("olap.q.cube_range_ms", "cube_range");
    ctx.layer_from_span("olap.parse_us", "olap.parse");
    ctx.layer_from_span("olap.analyze_us", "olap.analyze");

    let median = |field: fn(&SessionCounts) -> f64| {
        stats::median(&harvested.iter().map(field).collect::<Vec<_>>())
    };
    let rows_per_op = median(|c| c.rows_scanned);
    let segments_total = median(|c| c.segments_total);
    ctx.layers
        .set("olap.phase.execute_us", median(|c| c.execute_us));
    ctx.layers
        .set("olap.phase.aggregate_us", median(|c| c.aggregate_us));
    ctx.layers.set("olap.rows_scanned_per_op", rows_per_op);
    ctx.layers.set(
        "olap.segments_pruned_share",
        median(|c| c.segments_pruned) / (segments_total * queries_per_op as f64),
    );
    ctx.layers.set("olap.morsels_per_op", median(|c| c.morsels));
    if let Some(op_ms) = ctx.span_median_ms("op") {
        ctx.layers
            .set("olap.rows_scanned_per_s", rows_per_op / (op_ms / 1e3));
    }
    segment_layers(ctx, &state.dir, SEALED_TILES * state.base.len());

    // A cold fetch: reseal a copy of the warehouse into a fresh
    // directory, whose backend has decoded nothing yet, and fetch each
    // segment whole.
    ctx.probing(|ctx| {
        let dir = ctx.scratch_dir("cold-segments");
        let mut copy = state.wh.clone();
        copy.set_segment_backend(Arc::new(
            DiskBackend::create(&dir).expect("create segment directory"),
        ))
        .expect("point the copy at the fresh backend");
        copy.compact().expect("reseal the copy");
        let ids: Vec<u64> = copy.segments().metas().iter().map(|m| m.id).collect();
        for id in ids {
            let open = ctx.tracer.begin("segstore.fetch_decode");
            let segment = copy.fetch_segment(id, &ColumnSet::all());
            ctx.tracer
                .end_with(open, segment.map_or(0, |s| s.rows() as u64));
        }
    });
    ctx.layer_from_span("segstore.fetch_decode_ms", "segstore.fetch_decode");
}
