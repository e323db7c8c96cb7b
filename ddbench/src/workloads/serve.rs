//! `serve_miss` and `serve_hot`: the same x4 warehouse behind the same
//! `QueryService`, sent a deck that cannot fit its result cache and a
//! deck that does.
//!
//! One op is one query. `serve_miss` cycles all 1024 pool queries in a
//! fixed order through a 256-entry LRU cache, so every request misses
//! and runs the whole path. `serve_hot` draws from the first 64 with
//! Zipf(1) weights after one warm-up pass, so every request hits.

use super::{etl, generate, op_count, sealed_warehouse, segment_layers, setup_layers};
use crate::data::{self, Shape, Tiled, BASE_VISITS};
use crate::decks::{self, HOT_DECK, SERVE_POOL};
use crate::env;
use crate::harness::{Ctx, Ops, Timed};
use crate::stats;
use crate::trace::Tracer;
use analyze::Catalog;
use clinical_types::Table;
use obs::Phase;
use olap::mdx::QuerySpans;
use serve::{QueryRequest, QueryService, ServeConfig, ServeResult, Served, ServedSource};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const CACHE_CAPACITY: usize = 256;
/// A miss takes about 0.5 ms and a hit about 7 µs on the baseline
/// machine.
const MISSES_PER_SECOND: f64 = 2000.0;
const HITS_PER_SECOND: f64 = 140_000.0;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Miss,
    Hot,
}

struct State {
    base: Table,
    segment_dir: PathBuf,
    catalog: Catalog,
    service: Option<QueryService>,
    warmup: Vec<ServeResult<Served>>,
}

impl Drop for State {
    fn drop(&mut self) {
        if let Some(service) = self.service.take() {
            service.shutdown();
        }
    }
}

/// What a traced op leaves behind for the layer metrics.
struct Harvest {
    source: ServedSource,
    bench_us: f64,
    served_us: f64,
    /// Phase times of this request's own execution (parse, analyze,
    /// cache lookup, queue, execute, aggregate), when it led one.
    phases: Option<[f64; 6]>,
}

const PHASES: [(Phase, &str); 6] = [
    (Phase::Parse, "serve.phase.parse_us"),
    (Phase::Analyze, "serve.phase.analyze_us"),
    (Phase::CacheLookup, "serve.phase.cache_lookup_us"),
    (Phase::Queue, "serve.phase.queue_us"),
    (Phase::Execute, "serve.phase.execute_us"),
    (Phase::Aggregate, "serve.phase.aggregate_us"),
];

fn harvest(served: &Served, bench: Duration) -> Harvest {
    // A cache hit carries the profile of the execution that produced
    // the answer, not of this request.
    let phases = (served.source == ServedSource::Executed)
        .then(|| PHASES.map(|(phase, _)| served.value.profile.phase_us(phase) as f64));
    Harvest {
        source: served.source,
        bench_us: bench.as_secs_f64() * 1e6,
        served_us: served.latency.as_secs_f64() * 1e6,
        phases,
    }
}

struct Requests<'a> {
    service: &'a QueryService,
    requests: &'a [QueryRequest],
    /// Which request op `i` sends.
    order: &'a [u32],
    shapes: &'a [Shape],
    harvested: Vec<Harvest>,
    rejected: u64,
}

impl Ops for Requests<'_> {
    type Out = (ServeResult<Served>, Duration);

    /// The op is the one call, so the harness's `op` span is its span.
    fn run(&mut self, i: usize, _tracer: &mut Tracer) -> Self::Out {
        let request = &self.requests[self.order[i] as usize];
        let start = Instant::now();
        let served = self.service.execute(request);
        (served, start.elapsed())
    }

    fn check(&mut self, i: usize, out: Self::Out, traced: bool) -> Result<(), String> {
        let (served, bench) = out;
        let served = served.map_err(|e| {
            self.rejected += 1;
            format!("not served: {e}")
        })?;
        let which = self.order[i] as usize;
        let got = served
            .value
            .as_pivot()
            .map(data::pivot_shape)
            .ok_or("answer is not a pivot")?;
        if !data::same_shape(got, self.shapes[which]) {
            return Err(format!(
                "query {which}: {got:?}, expected {:?}",
                self.shapes[which]
            ));
        }
        if served.value.degraded {
            return Err(format!("query {which}: served degraded"));
        }
        if traced {
            self.harvested.push(harvest(&served, bench));
        }
        Ok(())
    }
}

pub fn run(ctx: &mut Ctx, mode: Mode) -> Timed {
    let seed = ctx.args.seed;
    // One, now that the process is pinned to one CPU.
    let workers = env::nproc().saturating_sub(1).max(1);
    let (n_ops, deck_len) = match mode {
        Mode::Miss => (op_count(MISSES_PER_SECOND, ctx.args.seconds), SERVE_POOL),
        Mode::Hot => (op_count(HITS_PER_SECOND, ctx.args.seconds), HOT_DECK),
    };
    let mut queries = decks::serve_pool(seed);
    queries.truncate(deck_len);
    let requests: Vec<QueryRequest> = queries
        .iter()
        .map(|q| QueryRequest::Mdx(q.to_mdx()))
        .collect();

    let raw = generate(ctx, seed, BASE_VISITS);
    let state = ctx.setup(|ctx| {
        let base = etl(ctx, &raw);
        let dir = ctx.scratch_dir("segments");
        let wh = sealed_warehouse(ctx, &Tiled::new(&base), 1, 1, &dir);
        let catalog = ctx
            .tracer
            .span("analyze.catalog_build", || Catalog::from_warehouse(&wh));
        let service = ctx.tracer.span("serve.start", || {
            QueryService::new(
                wh,
                ServeConfig {
                    workers,
                    cache_capacity: CACHE_CAPACITY,
                    ..ServeConfig::default()
                },
            )
            .expect("start the query service")
        });
        // One pass over the deck: for the hot deck it fills the cache,
        // for the pool it leaves the cache holding the last 256, none
        // of which the next 768 requests ask for.
        let warmup = requests.iter().map(|r| service.execute(r)).collect();
        State {
            base,
            segment_dir: dir,
            catalog,
            service: Some(service),
            warmup,
        }
    });
    drop(raw);
    let service = state.service.as_ref().expect("service is running");

    // Expected answers; the warm-up pass is every query's first
    // result, checked cell for cell.
    let tiled = Tiled::new(&state.base);
    let n_rows = tiled.base_rows();
    let mut shapes = Vec::with_capacity(deck_len);
    let mut warm_harvest = Vec::new();
    for (which, (query, served)) in queries.iter().zip(&state.warmup).enumerate() {
        let want = data::naive_answer(&tiled, query, n_rows);
        shapes.push(data::shape(&want));
        ctx.checks.attempted += 1;
        match served {
            Ok(served) => {
                let same = served
                    .value
                    .as_pivot()
                    .is_some_and(|p| data::same_cells(&data::pivot_cells(p), &want));
                ctx.checks.check(same, || {
                    format!("warm-up query {which} differs from the naive answer")
                });
                warm_harvest.push(harvest(served, served.latency));
            }
            Err(e) => ctx
                .checks
                .fail(format!("warm-up query {which} not served: {e}")),
        }
    }

    ctx.note("scale", "x4");
    ctx.note("fact_rows", n_rows);
    ctx.note("timed_ops", n_ops);
    ctx.note("warmup_ops", deck_len);
    ctx.note("deck_queries", deck_len);
    ctx.note("cache_capacity", CACHE_CAPACITY);
    ctx.note("client_threads", 1usize);
    ctx.note("serve_workers", workers);

    let order: Vec<u32> = match mode {
        Mode::Miss => (0..n_ops).map(|i| (i % SERVE_POOL) as u32).collect(),
        Mode::Hot => decks::hot_draws(seed, n_ops),
    };
    let mut ops = Requests {
        service,
        requests: &requests,
        order: &order,
        shapes: &shapes,
        harvested: Vec::new(),
        rejected: 0,
    };
    let timed = ctx.timed(&mut ops, n_ops);

    if ctx.args.trace {
        let rejected = ops.rejected;
        let harvested = std::mem::take(&mut ops.harvested);
        drop(ops);
        // The hot deck's answers were all produced during warm-up;
        // those executions are the ones its phase times describe.
        let executed = match mode {
            Mode::Miss => &harvested,
            Mode::Hot => &warm_harvest,
        };
        layers(ctx, &state, &requests, &harvested, executed, rejected);
    }
    timed
}

fn layers(
    ctx: &mut Ctx,
    state: &State,
    requests: &[QueryRequest],
    harvested: &[Harvest],
    executed: &[Harvest],
    rejected: u64,
) {
    setup_layers(ctx);
    segment_layers(ctx, &state.segment_dir, state.base.len());
    let median_of = |values: Vec<f64>| (!values.is_empty()).then(|| stats::median(&values));
    let with_phases: Vec<(&Harvest, &[f64; 6])> = executed
        .iter()
        .filter_map(|h| h.phases.as_ref().map(|p| (h, p)))
        .collect();
    for (k, (_, metric)) in PHASES.iter().enumerate() {
        if let Some(us) = median_of(with_phases.iter().map(|(_, p)| p[k]).collect()) {
            ctx.layers.set(metric, us);
        }
    }
    let sum_shares = with_phases
        .iter()
        .map(|(h, p)| p.iter().sum::<f64>() / h.served_us)
        .collect();
    if let Some(share) = median_of(sum_shares) {
        ctx.layers.set("serve.phase_sum_share", share);
    }
    let overhead = harvested.iter().map(|h| h.bench_us - h.served_us).collect();
    if let Some(us) = median_of(overhead) {
        ctx.layers.set("serve.caller_overhead_us", us);
    }
    let bench_us = stats::sorted(&harvested.iter().map(|h| h.bench_us).collect::<Vec<_>>());
    if !bench_us.is_empty() {
        ctx.layers
            .set("serve.op_p99_us", stats::percentile(&bench_us, 99.0));
    }
    let share = |source: ServedSource| {
        harvested.iter().filter(|h| h.source == source).count() as f64
            / harvested.len().max(1) as f64
    };
    ctx.layers
        .set("serve.source.cache_share", share(ServedSource::Cache));
    ctx.layers
        .set("serve.source.executed_share", share(ServedSource::Executed));
    ctx.layers.set(
        "serve.source.coalesced_share",
        share(ServedSource::Coalesced),
    );
    ctx.layers.set("serve.rejected", rejected as f64);

    // What every request pays before the cache can answer: the direct
    // cost of parsing and analyzing each deck query.
    ctx.probing(|ctx| {
        for request in requests {
            let QueryRequest::Mdx(text) = request else {
                continue;
            };
            let parsed = ctx
                .tracer
                .span("olap.parse", || olap::parse_mdx(text))
                .expect("deck query parses");
            ctx.tracer.span("olap.analyze", || {
                olap::analyze_mdx(&state.catalog, &parsed, &QuerySpans::default())
            });
        }
    });
    ctx.layer_from_span("olap.parse_us", "olap.parse");
    ctx.layer_from_span("olap.analyze_us", "olap.analyze");
}
