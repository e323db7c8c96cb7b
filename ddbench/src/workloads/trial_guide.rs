//! `trial_guide`: the paper's §V trial end to end, at the paper's
//! scale.
//!
//! One op takes a raw attendance table (about 2.5K visits, 273
//! attributes) to the briefing a clinical scientist reads: ETL and
//! load (`DdDgms::from_raw_attendances`), seal to disk, one guidance
//! cycle (learn, predict, optimise, acquire), render. Four cohorts
//! rotate so no op rides on the previous one's allocations.

use super::{dir_bytes, generate, op_count, setup_layers};
use crate::data::{self, TRIAL_VISITS};
use crate::harness::{Ctx, Ops, Timed};
use crate::trace::Tracer;
use clinical_types::{Table, Value};
use dd_dgms::DdDgms;
use kb::{KnowledgeBase, Source};
use mining::{Apriori, AwSum, DatasetBuilder};
use olap::CubeSpec;
use optimize::{validate_aggregate, RegimenOptimiser};
use predict::{evaluate_predictor, extract_trajectories, MarkovModel};
use segstore::DiskBackend;
use std::path::PathBuf;
use std::sync::Arc;
use warehouse::{LoadPlan, Warehouse};

const COHORTS: usize = 4;
/// An op takes about 130 ms on the baseline machine.
const OPS_PER_SECOND: f64 = 7.7;
const WARMUP_PER_COHORT: usize = 2;
const PART_PROBES_PER_COHORT: usize = 3;

/// What one op hands back to be checked.
struct Briefing {
    text: String,
    findings: usize,
    /// Interactions, rules, patients evaluated, perturbations run,
    /// attendances behind the regimen: one count per phase.
    phases: [usize; 5],
    fact_rows: usize,
    segment_dir: PathBuf,
}

fn trial(raw: &Table, segment_dir: PathBuf, tracer: &mut Tracer) -> Briefing {
    let open = tracer.begin("dd-dgms.from_raw");
    let mut system = DdDgms::from_raw_attendances(raw).expect("build the system");
    tracer.end_with(open, raw.len() as u64);

    let open = tracer.begin("warehouse.compact");
    let backend = DiskBackend::create(&segment_dir).expect("create segment directory");
    let wh = system.warehouse_mut();
    wh.set_segment_backend(Arc::new(backend))
        .expect("point the warehouse at the disk backend");
    wh.compact().expect("seal the warehouse");
    let fact_rows = wh.n_facts();
    tracer.end_with(open, fact_rows as u64);

    let report = tracer
        .span("dd-dgms.cycle", || system.run_guidance_cycle())
        .expect("run the guidance cycle");
    let text = tracer.span("dd-dgms.render", || report.render_markdown());
    Briefing {
        text,
        findings: report.findings_recorded,
        phases: [
            report.interactions.len(),
            report.rules.len(),
            report.prediction.n_evaluated,
            report.robustness.total_perturbations,
            report.regimen.support,
        ],
        fact_rows,
        segment_dir,
    }
}

struct Trials<'a> {
    raws: &'a [Table],
    scratch: PathBuf,
    /// The first briefing seen for each cohort.
    reference: Vec<String>,
    /// Bytes on disk per sealed row, from traced ops.
    bytes_per_row: Vec<f64>,
}

impl Trials<'_> {
    fn check_briefing(&self, cohort: usize, briefing: &Briefing) -> Result<(), String> {
        if briefing.findings < 5 {
            return Err(format!("only {} findings recorded", briefing.findings));
        }
        if let Some(empty) = briefing.phases.iter().position(|&n| n == 0) {
            return Err(format!("phase {empty} of the cycle produced nothing"));
        }
        if briefing.text != self.reference[cohort] {
            return Err(format!("cohort {cohort}: briefing differs from its first"));
        }
        Ok(())
    }
}

impl Ops for Trials<'_> {
    type Out = Briefing;

    fn run(&mut self, i: usize, tracer: &mut Tracer) -> Briefing {
        let dir = self.scratch.join(format!("trial-{i}"));
        trial(&self.raws[i % COHORTS], dir, tracer)
    }

    fn check(&mut self, i: usize, out: Briefing, traced: bool) -> Result<(), String> {
        if traced {
            self.bytes_per_row
                .push(dir_bytes(&out.segment_dir) as f64 / out.fact_rows as f64);
        }
        let _ = std::fs::remove_dir_all(&out.segment_dir);
        self.check_briefing(i % COHORTS, &out)
    }
}

pub fn run(ctx: &mut Ctx) -> Timed {
    let seed = ctx.args.seed;
    let n_ops = op_count(OPS_PER_SECOND, ctx.args.seconds);
    let raws: Vec<Table> = (0..COHORTS)
        .map(|c| generate(ctx, seed * COHORTS as u64 + c as u64, TRIAL_VISITS))
        .collect();
    let scratch = ctx.scratch_dir("trials");

    // Set-up is the warm-up: each cohort through the whole op twice.
    let warmup: Vec<Briefing> = ctx.setup(|ctx| {
        (0..WARMUP_PER_COHORT * COHORTS)
            .map(|w| {
                let dir = scratch.join(format!("warmup-{w}"));
                let briefing = trial(&raws[w % COHORTS], dir, &mut ctx.tracer);
                let _ = std::fs::remove_dir_all(&briefing.segment_dir);
                briefing
            })
            .collect()
    });

    let mut ops = Trials {
        raws: &raws,
        scratch,
        reference: warmup[..COHORTS].iter().map(|b| b.text.clone()).collect(),
        bytes_per_row: Vec::new(),
    };
    for (w, briefing) in warmup.iter().enumerate() {
        ctx.checks.attempted += 1;
        if let Err(what) = ops.check_briefing(w % COHORTS, briefing) {
            ctx.checks.fail(format!("warm-up op {w}: {what}"));
        }
    }

    ctx.note("scale", "x1");
    ctx.note("cohorts", COHORTS);
    ctx.note(
        "raw_rows_per_cohort",
        obs::Json::Arr(raws.iter().map(|r| r.len().into()).collect()),
    );
    ctx.note("timed_ops", n_ops);
    ctx.note("warmup_ops", WARMUP_PER_COHORT * COHORTS);
    ctx.note("client_threads", 1usize);

    let timed = ctx.timed(&mut ops, n_ops);

    if ctx.args.trace {
        let bytes_per_row = std::mem::take(&mut ops.bytes_per_row);
        drop(ops);
        layers(ctx, &raws, &bytes_per_row);
    }
    timed
}

fn layers(ctx: &mut Ctx, raws: &[Table], bytes_per_row: &[f64]) {
    // The cycle's parts, by calling what `run_guidance_cycle` calls, on
    // the same cohorts.
    ctx.probing(|ctx| {
        for round in 0..PART_PROBES_PER_COHORT {
            for (c, raw) in raws.iter().enumerate() {
                let dir = ctx.scratch_dir(&format!("parts-{round}-{c}"));
                cycle_parts(raw, &dir, &mut ctx.tracer);
            }
        }
    });
    setup_layers(ctx);
    ctx.layer_from_span("dd-dgms.from_raw_ms", "dd-dgms.from_raw");
    ctx.layer_from_span("dd-dgms.cycle_ms", "dd-dgms.cycle");
    const PARTS: [(&str, &str); 10] = [
        ("mining.dataset_build_ms", "mining.dataset_build"),
        ("mining.awsum_ms", "mining.awsum"),
        ("mining.apriori_ms", "mining.apriori"),
        ("predict.trajectories_ms", "predict.trajectories"),
        ("predict.evaluate_ms", "predict.evaluate"),
        ("predict.markov_fit_ms", "predict.markov_fit"),
        (
            "optimize.validate_aggregate_ms",
            "optimize.validate_aggregate",
        ),
        ("optimize.regimen_ms", "optimize.regimen"),
        ("kb.add_evidence_us", "kb.add_evidence"),
        (
            "warehouse.feedback_dimension_ms",
            "warehouse.feedback_dimension",
        ),
    ];
    let mut parts_ms = 0.0;
    for (metric, span) in PARTS {
        ctx.layer_from_span(metric, span);
        // Every part runs once per cycle except evidence recording,
        // which runs once per finding.
        let per_cycle = ctx.tracer.durations_ms(span).len() as f64
            / (PART_PROBES_PER_COHORT * raws.len()) as f64;
        parts_ms += ctx.span_median_ms(span).unwrap_or(0.0) * per_cycle;
    }
    if let Some(cycle_ms) = ctx.span_median_ms("dd-dgms.cycle") {
        ctx.layers
            .set("dd-dgms.cycle_parts_share", parts_ms / cycle_ms);
    }
    if !bytes_per_row.is_empty() {
        ctx.layers.set(
            "segstore.disk_bytes_per_row",
            crate::stats::median(bytes_per_row),
        );
    }
}

/// `DdDgms::run_guidance_cycle`, step for step, with a span around
/// each call into `mining`, `predict`, `optimize`, `kb` and
/// `warehouse`. Kept beside the real cycle only to apportion its time;
/// `dd-dgms.cycle_parts_share` says how well the copy still adds up.
fn cycle_parts(raw: &Table, segment_dir: &std::path::Path, t: &mut Tracer) {
    let open = t.begin("etl.run");
    let transformed = data::transform(raw);
    t.end_with(open, raw.len() as u64);
    let open = t.begin("warehouse.load");
    let mut wh = Warehouse::load(&LoadPlan::discri_default(), &transformed).expect("load");
    t.end_with(open, transformed.len() as u64);
    wh.set_segment_backend(Arc::new(
        DiskBackend::create(segment_dir).expect("create segment directory"),
    ))
    .expect("point the warehouse at the disk backend");
    wh.compact().expect("seal");

    // Learn.
    let features = vec![
        "KneeReflexRight",
        "KneeReflexLeft",
        "AnkleReflexRight",
        "AnkleReflexLeft",
        "FBG_Band",
        "Age_Band",
        "Gender",
    ];
    let rule_features = vec![
        "AnkleReflexRight",
        "KneeReflexRight",
        "FBG_Band",
        "DiabetesStatus",
    ];
    let (dataset, rule_data) = t.span("mining.dataset_build", || {
        (
            DatasetBuilder::new(features, "DiabetesStatus")
                .build(&transformed)
                .expect("build the dataset"),
            DatasetBuilder::new(rule_features, "DiabetesStatus")
                .build(&transformed)
                .expect("build the rule dataset"),
        )
    });
    let interactions = t.span("mining.awsum", || {
        let awsum = AwSum::fit(&dataset).expect("fit AWSum");
        let yes = dataset
            .class_labels
            .iter()
            .position(|c| c == "yes")
            .unwrap_or(0);
        awsum
            .top_interactions(&dataset, yes, 15, 5)
            .expect("rank interactions")
    });
    let rules: Vec<String> = t.span("mining.apriori", || {
        let status = rule_data
            .features
            .iter()
            .position(|f| f.name == "DiabetesStatus");
        Apriori::new(transformed.len() / 50 + 5, 0.6, 3)
            .rules(&rule_data, status)
            .expect("mine rules")
            .iter()
            .take(5)
            .map(|r| r.describe(&rule_data))
            .collect()
    });

    // Predict.
    let trajectories = t
        .span("predict.trajectories", || {
            extract_trajectories(&transformed, "PatientId", "TestDate", "FBG_Band")
        })
        .expect("extract trajectories");
    t.span("predict.evaluate", || evaluate_predictor(&trajectories, 3))
        .expect("evaluate the predictor");
    let markov = t
        .span("predict.markov_fit", || MarkovModel::fit(&trajectories))
        .expect("fit the Markov model");

    // Optimise.
    t.span("optimize.validate_aggregate", || {
        validate_aggregate(
            &wh,
            &CubeSpec::count(vec!["FBG_Band"]),
            &["Gender", "VisitKind"],
            2,
        )
    })
    .expect("validate the aggregate");
    t.span("optimize.regimen", || {
        RegimenOptimiser {
            min_support: (wh.n_facts() / 100).clamp(3, 20),
            ..RegimenOptimiser::default()
        }
        .optimise(&wh)
    })
    .expect("optimise the regimen");

    // Acquire: one finding per interaction and rule, three summaries.
    let kb = KnowledgeBase::new(2);
    let statements = interactions
        .iter()
        .map(|i| {
            format!(
                "{}={} with {}={}",
                i.feature_a, i.value_a, i.feature_b, i.value_b
            )
        })
        .chain(rules)
        .chain(["prediction", "robustness", "regimen"].map(String::from));
    for statement in statements {
        t.span("kb.add_evidence", || {
            kb.add_evidence(&statement, Source::Analytics, 0.9, &["probe"])
        })
        .expect("record evidence");
    }
    t.span("warehouse.feedback_dimension", || {
        let labels: Vec<Value> = wh
            .attribute_column("FBG_Band")
            .expect("FBG_Band is loaded")
            .iter()
            .map(|band| match band.as_str() {
                Some(b) => Value::Text(markov.predict_next(b)),
                None => Value::Null,
            })
            .collect();
        wh.add_feedback_dimension("Clinician Feedback", "PredictedNextFBGBand", labels)
    })
    .expect("add the feedback dimension");
}
