//! The integrated system and its guidance cycle.

use clinical_types::{Result, Table, Value};
use etl::{PipelineReport, TransformPipeline};
use kb::{FindingStatus, KnowledgeBase, Source};
use mining::{Apriori, AwSum, DatasetBuilder};
use olap::{execute_mdx, CubeSpec, PivotTable, QueryBuilder};
use optimize::{validate_aggregate, RegimenOptimiser, RegimenOutcome, RobustnessReport};
use predict::{evaluate_predictor, extract_trajectories, EvaluationReport, MarkovModel};
use warehouse::{LoadPlan, Warehouse};

/// The assembled DD-DGMS instance: transformed table, warehouse,
/// knowledge base.
pub struct DdDgms {
    transformed: Table,
    pipeline_report: PipelineReport,
    warehouse: Warehouse,
    knowledge_base: KnowledgeBase,
}

/// Outcome of one closed-loop guidance cycle.
#[derive(Debug)]
pub struct GuidanceCycleReport {
    /// Interactions surfaced by AWSum (the learn phase).
    pub interactions: Vec<mining::Interaction>,
    /// High-lift association rules toward `DiabetesStatus`.
    pub rules: Vec<String>,
    /// Time-course predictor evaluation (the predict phase).
    pub prediction: EvaluationReport,
    /// Robustness of the dominant FBG band (the optimise phase).
    pub robustness: RobustnessReport,
    /// The optimal treatment regimen under the default budget.
    pub regimen: RegimenOutcome,
    /// Findings recorded into the knowledge base this cycle.
    pub findings_recorded: usize,
}

impl GuidanceCycleReport {
    /// Render the cycle outcome as the markdown briefing a clinical
    /// scientist would read — one section per architecture component.
    pub fn render_markdown(&self) -> String {
        let mut out = String::from("# DD-DGMS guidance cycle\n\n");
        out.push_str("## Learn — data analytics\n\n");
        if self.interactions.is_empty() {
            out.push_str("No surprising value-pair interactions this cycle.\n");
        }
        for i in &self.interactions {
            out.push_str(&format!(
                "- **{}={} & {}={} → {}** (joint {:.2} vs best single {:.2}, n={})\n",
                i.feature_a,
                i.value_a,
                i.feature_b,
                i.value_b,
                i.class,
                i.joint_confidence,
                i.best_single_confidence,
                i.support
            ));
        }
        out.push_str("\nAssociation rules:\n\n");
        for r in &self.rules {
            out.push_str(&format!("- `{r}`\n"));
        }
        out.push_str(&format!(
            "\n## Predict — time course\n\nMarkov {:.1}% | similar-patient {:.1}% | baseline {:.1}% (n={}).\n",
            self.prediction.markov_accuracy * 100.0,
            self.prediction.similar_accuracy * 100.0,
            self.prediction.baseline_accuracy * 100.0,
            self.prediction.n_evaluated
        ));
        out.push_str(&format!(
            "\n## Optimise\n\nDominant aggregate {:?} ({} attendances) is {} — {:.0}% consistent over {} perturbations.\n",
            self.robustness.top_cell,
            self.robustness.top_value,
            if self.robustness.is_robust(0.8) {
                "**robust**"
            } else {
                "**fragile**"
            },
            self.robustness.consistency() * 100.0,
            self.robustness.total_perturbations
        ));
        out.push_str(&format!(
            "\nRecommended regimen within budget: **{}** (risk {:.2}, cost {}, n={}).\n",
            self.regimen.regimen.describe(),
            self.regimen.risk,
            self.regimen.annual_cost,
            self.regimen.support
        ));
        out.push_str(&format!(
            "\n## Acquire\n\n{} findings recorded into the knowledge base; the predicted next FBG band was written back as the `Clinician Feedback` dimension.\n",
            self.findings_recorded
        ));
        out
    }
}

impl DdDgms {
    /// Build the system from a raw attendance table: runs the DiScRi
    /// transformation pipeline and loads the Fig. 3 warehouse.
    pub fn from_raw_attendances(raw: &Table) -> Result<DdDgms> {
        let (transformed, pipeline_report) = TransformPipeline::discri_default().run(raw)?;
        let warehouse = Warehouse::load(&LoadPlan::discri_default(), &transformed)?;
        Ok(DdDgms {
            transformed,
            pipeline_report,
            warehouse,
            knowledge_base: KnowledgeBase::new(2),
        })
    }

    /// The transformed (cleaned, discretised, abstracted) table.
    pub fn transformed(&self) -> &Table {
        &self.transformed
    }

    /// The ETL report of the load.
    pub fn pipeline_report(&self) -> &PipelineReport {
        &self.pipeline_report
    }

    /// The warehouse.
    pub fn warehouse(&self) -> &Warehouse {
        &self.warehouse
    }

    /// Mutable warehouse access (feedback dimensions).
    pub fn warehouse_mut(&mut self) -> &mut Warehouse {
        &mut self.warehouse
    }

    /// The knowledge base handle.
    pub fn knowledge_base(&self) -> &KnowledgeBase {
        &self.knowledge_base
    }

    /// Start a Fig. 4-style drag-and-drop query.
    pub fn query(&self) -> QueryBuilder<'_> {
        QueryBuilder::new(&self.warehouse)
    }

    /// Execute an MDX query.
    pub fn mdx(&self, query: &str) -> Result<PivotTable> {
        execute_mdx(&self.warehouse, query)
    }

    /// Execute an MDX query and return the result together with its
    /// [`obs::QueryProfile`] — `EXPLAIN ANALYZE` for the facade: phase
    /// timings (parse / execute / aggregate), rows scanned and cells
    /// emitted. The profile is always populated; installing an `obs`
    /// subscriber additionally captures the span tree.
    pub fn profile_query(&self, query: &str) -> Result<(PivotTable, obs::QueryProfile)> {
        let mut profile = obs::ProfileBuilder::start();
        let parsed = profile.time(obs::Phase::Parse, || olap::parse_mdx(query))?;
        let pivot = olap::mdx::execute_query_profiled(&self.warehouse, &parsed, &mut profile)?;
        Ok((pivot, profile.finish()))
    }

    /// Run the semantic analyzer over an MDX query without executing
    /// it: parse, resolve every name against the warehouse catalog
    /// (with did-you-mean suggestions), type-check conditions and
    /// check aggregation legality. Parse failures are `Err`; semantic
    /// findings come back as [`analyze::Diagnostics`] with stable
    /// codes (`analyze::explain` expands them).
    pub fn analyze(&self, query: &str) -> Result<analyze::Diagnostics> {
        let catalog = analyze::Catalog::from_warehouse(&self.warehouse);
        olap::analyze_mdx_str(&catalog, query)
    }

    /// Expand a diagnostic code (e.g. `"A002"`) into its long
    /// explanation — the same text the `explain` binary prints.
    pub fn explain(code: &str) -> Option<&'static str> {
        analyze::explain(code)
    }

    /// Start a concurrent query service over a snapshot of the
    /// warehouse (§IV's multi-user setting: clinicians, researchers
    /// and students querying at once). The service owns its copy;
    /// feed later loads to [`serve::QueryService::append`] or keep
    /// mutating this system and start a fresh service. Requests run on
    /// their callers' threads, so starting spawns no serving thread.
    pub fn serve(&self, config: serve::ServeConfig) -> serve::ServeResult<serve::QueryService> {
        serve::QueryService::new(self.warehouse.clone(), config)
    }

    /// Start a *replicated* serve tier over a snapshot of the
    /// warehouse: a primary write head publishing every mutation to a
    /// durable oplog, plus epoch-aware read replicas behind a
    /// [`serve::ReplicaRouter`] with failover. Queries route only to
    /// replicas that have fully applied the primary's current epoch;
    /// when none has, the result is explicitly stale-marked.
    pub fn serve_replicated(
        &self,
        config: serve::RouterConfig,
    ) -> serve::ServeResult<serve::ReplicaRouter> {
        serve::ReplicaRouter::new(self.warehouse.clone(), config)
    }

    /// Force a flight-recorder dump through the globally installed
    /// recorder (the operator's "grab the black box now" lever on the
    /// whole system, not one service). `None` when no recorder is
    /// installed — see [`obs::install_recorder`].
    pub fn flight_dump(reason: &str) -> Option<obs::BlackBox> {
        obs::trigger_dump(reason, None)
    }

    /// Evaluate `service`'s configured SLOs right now and return the
    /// per-objective burn-rate status (a convenience passthrough to
    /// [`serve::QueryService::slo_status`], so system-level callers
    /// need not import the serve types).
    pub fn slo_status(service: &serve::QueryService) -> Vec<obs::SloStatus> {
        service.slo_status()
    }

    /// Run one full closed-loop guidance cycle: learn → predict →
    /// optimise → acquire. Every phase's headline outcome is recorded
    /// as evidence in the knowledge base.
    pub fn run_guidance_cycle(&mut self) -> Result<GuidanceCycleReport> {
        // ---- Phase 1: learn (data analytics over the warehouse). ----
        let features = vec![
            "KneeReflexRight",
            "KneeReflexLeft",
            "AnkleReflexRight",
            "AnkleReflexLeft",
            "FBG_Band",
            "Age_Band",
            "Gender",
        ];
        let dataset = DatasetBuilder::new(features, "DiabetesStatus").build(&self.transformed)?;
        let awsum = AwSum::fit(&dataset)?;
        let yes_class = dataset
            .class_labels
            .iter()
            .position(|c| c == "yes")
            .unwrap_or(0);
        let interactions = awsum.top_interactions(&dataset, yes_class, 15, 5)?;

        let apriori = Apriori::new(self.transformed.len() / 50 + 5, 0.6, 3);
        // Rules toward DiabetesStatus need it as a feature: build a
        // second dataset with the class inlined.
        let rule_features = vec![
            "AnkleReflexRight",
            "KneeReflexRight",
            "FBG_Band",
            "DiabetesStatus",
        ];
        let rule_data =
            DatasetBuilder::new(rule_features, "DiabetesStatus").build(&self.transformed)?;
        let status_idx = rule_data
            .features
            .iter()
            .position(|f| f.name == "DiabetesStatus")
            .expect("inlined class feature");
        let rules: Vec<String> = apriori
            .rules(&rule_data, Some(status_idx))?
            .iter()
            .take(5)
            .map(|r| r.describe(&rule_data))
            .collect();

        // ---- Phase 2: predict (time course). ----
        let trajectories =
            extract_trajectories(&self.transformed, "PatientId", "TestDate", "FBG_Band")?;
        let prediction = evaluate_predictor(&trajectories, 3)?;
        let markov = MarkovModel::fit(&trajectories)?;

        // ---- Phase 3: optimise. ----
        let robustness = validate_aggregate(
            &self.warehouse,
            &CubeSpec::count(vec!["FBG_Band"]),
            &["Gender", "VisitKind"],
            2,
        )?;
        let regimen = RegimenOptimiser {
            // Scale the evidence threshold with cohort size so small
            // pilots still produce a (weaker) recommendation.
            min_support: (self.warehouse.n_facts() / 100).clamp(3, 20),
            ..RegimenOptimiser::default()
        }
        .optimise(&self.warehouse)?;

        // ---- Phase 4: acquire (KB evidence + feedback dimension). ----
        let kb = &self.knowledge_base;
        let mut recorded = 0usize;
        for i in &interactions {
            kb.add_evidence(
                &format!(
                    "{}={} with {}={} predicts {} (joint {:.2} vs single {:.2})",
                    i.feature_a,
                    i.value_a,
                    i.feature_b,
                    i.value_b,
                    i.class,
                    i.joint_confidence,
                    i.best_single_confidence
                ),
                Source::Analytics,
                i.joint_confidence,
                &["diabetes", "interaction"],
            )?;
            recorded += 1;
        }
        for r in &rules {
            kb.add_evidence(r, Source::Analytics, 1.0, &["association"])?;
            recorded += 1;
        }
        kb.add_evidence(
            &format!(
                "Markov time-course model predicts next FBG band with {:.0}% accuracy (baseline {:.0}%)",
                prediction.markov_accuracy * 100.0,
                prediction.baseline_accuracy * 100.0
            ),
            Source::Prediction,
            prediction.markov_accuracy,
            &["time-course"],
        )?;
        recorded += 1;
        kb.add_evidence(
            &format!(
                "dominant FBG band {:?} is {} under dimension perturbation ({:.0}% consistent)",
                robustness.top_cell,
                if robustness.is_robust(0.8) {
                    "robust"
                } else {
                    "fragile"
                },
                robustness.consistency() * 100.0
            ),
            Source::Optimisation,
            robustness.consistency(),
            &["robustness"],
        )?;
        recorded += 1;
        kb.add_evidence(
            &format!(
                "optimal regimen within budget: {} (risk {:.2})",
                regimen.regimen.describe(),
                regimen.risk
            ),
            Source::Optimisation,
            1.0 - regimen.risk,
            &["regimen"],
        )?;
        recorded += 1;

        // Feedback dimension: the predicted next FBG band per
        // attendance becomes a queryable dimension (the paper's
        // "translated back to the warehouse as dimensions").
        if self
            .warehouse
            .star()
            .dimension("Clinician Feedback")
            .is_err()
        {
            let fbg_bands = self.warehouse.attribute_column("FBG_Band")?;
            let labels: Vec<Value> = fbg_bands
                .iter()
                .map(|band| match band.as_str() {
                    Some(b) => Value::Text(markov.predict_next(b)),
                    None => Value::Null,
                })
                .collect();
            self.warehouse.add_feedback_dimension(
                "Clinician Feedback",
                "PredictedNextFBGBand",
                labels,
            )?;
        }

        Ok(GuidanceCycleReport {
            interactions,
            rules,
            prediction,
            robustness,
            regimen,
            findings_recorded: recorded,
        })
    }

    /// Validated-or-better findings, for reports.
    pub fn mature_findings(&self) -> Vec<kb::Finding> {
        let mut out = self.knowledge_base.by_status(FindingStatus::Validated);
        out.extend(self.knowledge_base.by_status(FindingStatus::Promoted));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use discri::{generate, CohortConfig};

    fn system() -> DdDgms {
        let cohort = generate(&CohortConfig::small(81));
        DdDgms::from_raw_attendances(&cohort.attendances).unwrap()
    }

    #[test]
    fn construction_runs_etl_and_load() {
        let s = system();
        assert!(!s.transformed().is_empty());
        assert_eq!(s.warehouse().n_facts(), s.transformed().len());
        assert_eq!(
            s.pipeline_report().cardinality.n_visits,
            s.transformed().len()
        );
    }

    #[test]
    fn facade_queries_work() {
        let s = system();
        let pivot = s
            .query()
            .on_rows("Age_Band")
            .on_columns("Gender")
            .count()
            .execute()
            .unwrap();
        assert!(!pivot.row_headers.is_empty());
        let mdx = s
            .mdx(
                "SELECT [Gender].MEMBERS ON COLUMNS, [Age_Band].MEMBERS ON ROWS \
                  FROM [Medical Measures] MEASURE COUNT(*)",
            )
            .unwrap();
        assert_eq!(mdx.row_headers, pivot.row_headers);
    }

    #[test]
    fn facade_profiles_queries() {
        let s = system();
        let (pivot, profile) = s
            .profile_query(
                "SELECT [Gender].MEMBERS ON COLUMNS, [Age_Band].MEMBERS ON ROWS \
                 FROM [Medical Measures] MEASURE COUNT(*)",
            )
            .unwrap();
        assert!(!pivot.row_headers.is_empty());
        assert!(!profile.is_empty());
        assert!(profile
            .phases
            .iter()
            .any(|(p, _)| *p == obs::Phase::Execute));
        assert_eq!(profile.rows_scanned, s.warehouse().n_facts() as u64);
        assert!(profile.cells_emitted > 0);
        assert!(profile.total_us >= profile.phases_total_us());
        // Renders EXPLAIN ANALYZE-style output.
        assert!(profile.to_string().contains("execute"), "{profile}");
    }

    #[test]
    fn facade_analyzes_without_executing() {
        let s = system();
        let clean = s
            .analyze(
                "SELECT [Gender].MEMBERS ON COLUMNS, [Age_Band].MEMBERS ON ROWS \
                 FROM [Medical Measures] MEASURE COUNT(*)",
            )
            .unwrap();
        assert!(clean.is_empty(), "{clean}");
        let diags = s
            .analyze(
                "SELECT [Gendr].MEMBERS ON COLUMNS, [Age_Band].MEMBERS ON ROWS \
                 FROM [Medical Measures] MEASURE COUNT(*)",
            )
            .unwrap();
        assert_eq!(diags.codes(), vec!["A002"]);
        let explained = DdDgms::explain("A002").unwrap();
        assert!(explained.contains("axis"), "{explained}");
        // The rendered report points at the offending fragment.
        assert!(diags.to_string().contains('^'), "{diags}");
    }

    #[test]
    fn guidance_cycle_closes_the_loop() {
        let mut s = system();
        let dims_before = s.warehouse().dimensions().len();
        let report = s.run_guidance_cycle().unwrap();
        assert!(report.findings_recorded >= 3);
        assert!(report.prediction.n_evaluated > 0);
        assert!(report.regimen.annual_cost <= 800.0);
        // Feedback dimension appended.
        assert_eq!(s.warehouse().dimensions().len(), dims_before + 1);
        assert!(s
            .warehouse()
            .attribute_column("PredictedNextFBGBand")
            .is_ok());
        // The KB holds the evidence.
        assert!(!s.knowledge_base().is_empty());
    }

    #[test]
    fn cycle_report_renders_every_section() {
        let mut s = system();
        let report = s.run_guidance_cycle().unwrap();
        let md = report.render_markdown();
        for section in ["## Learn", "## Predict", "## Optimise", "## Acquire"] {
            assert!(md.contains(section), "missing section {section}");
        }
        assert!(md.contains("Recommended regimen"));
        assert!(md.contains('%'));
    }

    #[test]
    fn second_cycle_strengthens_instead_of_duplicating() {
        let mut s = system();
        s.run_guidance_cycle().unwrap();
        let after_first = s.knowledge_base().len();
        s.run_guidance_cycle().unwrap();
        // Statements dedupe: the count stays equal (all re-observed).
        assert_eq!(s.knowledge_base().len(), after_first);
        // And repeated observation validates findings.
        assert!(!s.mature_findings().is_empty());
    }
}
