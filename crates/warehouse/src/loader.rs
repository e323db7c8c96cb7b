//! Loading the transformed attendance table into the star schema.

use crate::delta::{DeltaKind, DeltaLog, DeltaSummary, DELTA_LOG_CAPACITY};
use crate::model::{discri_model, StarSchema};
use crate::storage::{DimensionTable, FactTable, MeasureColumn};
use clinical_types::{Error, Result, Table, Value};
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide data-epoch counter. Epochs are globally monotonic so a
/// cache keyed by `(fingerprint, epoch)` can never confuse the state of
/// one warehouse instance with another (e.g. after a reload swaps the
/// instance behind a service).
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

fn next_epoch() -> u64 {
    NEXT_EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// Tell the epoch allocator that `epoch` exists somewhere in the
/// process (e.g. replayed from a durable oplog written by an earlier
/// process), so freshly minted epochs stay strictly above it.
pub(crate) fn observe_epoch(epoch: u64) {
    NEXT_EPOCH.fetch_max(epoch.saturating_add(1), Ordering::Relaxed);
}

/// Injected faults surface as ordinary invalid-input errors so every
/// caller's existing error path exercises the failure.
pub(crate) fn map_fault(e: fault::FaultError) -> Error {
    Error::invalid(e.to_string())
}

/// Fetch a source-row value by resolved column index without panicking
/// on a short row (hot-path no-panic discipline: a malformed source
/// table must surface as an error, never an index panic).
fn value_at(values: &[Value], idx: usize) -> Result<&Value> {
    values
        .get(idx)
        .ok_or_else(|| Error::invalid(format!("source row lacks resolved column index {idx}")))
}

/// A load plan: the star schema to populate, with every referenced
/// column resolved against the source table at load time.
#[derive(Debug, Clone)]
pub struct LoadPlan {
    /// The target star schema.
    pub star: StarSchema,
}

impl LoadPlan {
    /// Plan for an arbitrary star schema.
    pub fn from_star(star: StarSchema) -> Self {
        LoadPlan { star }
    }

    /// The DiScRi trial's plan (the Fig. 3 model).
    pub fn discri_default() -> Self {
        LoadPlan {
            star: discri_model(),
        }
    }

    /// Check that every attribute, measure and degenerate column the
    /// star references exists in the source schema.
    pub fn validate_against(&self, schema: &clinical_types::Schema) -> Result<()> {
        let mut missing = Vec::new();
        for d in &self.star.dimensions {
            for a in &d.attributes {
                if !schema.contains(a) {
                    missing.push(a.clone());
                }
            }
        }
        for m in self
            .star
            .fact
            .measures
            .iter()
            .chain(&self.star.fact.degenerate)
        {
            if !schema.contains(m) {
                missing.push(m.clone());
            }
        }
        if missing.is_empty() {
            Ok(())
        } else {
            Err(Error::invalid(format!(
                "source table lacks columns required by the star schema: {}",
                missing.join(", ")
            )))
        }
    }
}

/// The loaded warehouse: dimension tables plus the fact table,
/// navigable by attribute or measure name.
#[derive(Debug, Clone)]
pub struct Warehouse {
    star: StarSchema,
    dims: Vec<DimensionTable>,
    fact: FactTable,
    /// Data epoch: advanced on every mutation (load, append, feedback
    /// dimension). Query results are only comparable within one epoch.
    epoch: u64,
    /// Bounded log of epoch transitions, one [`DeltaSummary`] per
    /// mutation, consumed by [`Warehouse::deltas_since`].
    deltas: DeltaLog,
    /// Sealed-segment view of the fact table (see [`crate::segments`]).
    /// Clones share the backend: compaction installed on one clone is
    /// invisible to the others, which keep their own segment lists.
    pub(crate) segments: crate::segments::SegmentSet,
}

impl Warehouse {
    /// Bulk-load `table` (the ETL pipeline's output) according to
    /// `plan`.
    pub fn load(plan: &LoadPlan, table: &Table) -> Result<Warehouse> {
        let mut span = obs::span("warehouse.load");
        span.record("rows", table.len());
        fault::point("warehouse.load").map_err(map_fault)?;
        let schema = table.schema();
        plan.validate_against(schema)?;
        let star = plan.star.clone();

        // Resolve source column indexes once.
        let dim_sources: Vec<Vec<usize>> = star
            .dimensions
            .iter()
            .map(|d| {
                d.attributes
                    .iter()
                    .map(|a| schema.index_of(a))
                    .collect::<Result<Vec<_>>>()
            })
            .collect::<Result<_>>()?;
        let measure_sources: Vec<usize> = star
            .fact
            .measures
            .iter()
            .map(|m| schema.index_of(m))
            .collect::<Result<_>>()?;
        let degenerate_sources: Vec<usize> = star
            .fact
            .degenerate
            .iter()
            .map(|m| schema.index_of(m))
            .collect::<Result<_>>()?;

        let mut dims: Vec<DimensionTable> = star
            .dimensions
            .iter()
            .map(|d| DimensionTable::new(d.name.clone(), d.attributes.clone()))
            .collect();
        let mut fact = FactTable::new(
            star.dimensions.iter().map(|d| d.name.clone()).collect(),
            star.fact.measures.clone(),
            star.fact.degenerate.clone(),
        );

        for row in table.rows() {
            let values = row.values();
            for ((dim, keys), sources) in dims
                .iter_mut()
                .zip(fact.dim_keys.iter_mut())
                .zip(&dim_sources)
            {
                let tuple: Vec<Value> = sources
                    .iter()
                    .map(|&i| value_at(values, i).cloned())
                    .collect::<Result<_>>()?;
                keys.push(dim.intern(tuple)?);
            }
            for (measure, &src) in fact.measures.iter_mut().zip(&measure_sources) {
                measure.push(value_at(values, src)?.as_f64());
            }
            for ((_, col), &src) in fact.degenerate.iter_mut().zip(&degenerate_sources) {
                col.push(value_at(values, src)?.clone());
            }
        }
        fact.validate()?;
        let epoch = next_epoch();
        span.record("epoch", epoch);
        Ok(Warehouse {
            star,
            dims,
            fact,
            epoch,
            deltas: DeltaLog::new(DELTA_LOG_CAPACITY),
            segments: crate::segments::SegmentSet::new(
                std::sync::Arc::new(segstore::MemoryBackend::new()),
                epoch,
                0,
            ),
        })
    }

    /// Incrementally append another transformed table (e.g. the next
    /// annual screening round). The table must carry every column the
    /// star references — including any feedback dimensions added since
    /// load (their labels must be supplied for the new rows too, or
    /// the append is rejected); new dimension tuples are interned,
    /// existing ones reuse their surrogate keys.
    pub fn append(&mut self, table: &Table) -> Result<usize> {
        let (grown, appended) = self.append_rows(table)?;
        self.record_mutation(DeltaKind::Append, grown, appended, false);
        obs::event_with(
            "warehouse.epoch_bump",
            &[
                ("cause", &"append"),
                ("epoch", &self.epoch),
                ("rows", &table.len()),
            ],
        );
        Ok(table.len())
    }

    /// The row-insertion half of [`Self::append`]: validate, intern
    /// and extend, but record no delta and advance no epoch. Returns
    /// the dimensions that grew and the appended fact-row range, which
    /// the caller folds into whichever delta record it is minting
    /// (a locally-numbered epoch for direct appends, a primary-minted
    /// one for oplog replay).
    pub(crate) fn append_rows(
        &mut self,
        table: &Table,
    ) -> Result<(BTreeSet<String>, Range<usize>)> {
        // The failpoint sits before the first mutation, so an injected
        // append failure leaves the previous epoch fully queryable.
        fault::point("warehouse.append").map_err(map_fault)?;
        let schema = table.schema();
        LoadPlan::from_star(self.star.clone()).validate_against(schema)?;
        let rows_before = self.fact.len();
        let dim_sizes_before: Vec<usize> = self.dims.iter().map(DimensionTable::len).collect();

        let dim_sources: Vec<Vec<usize>> = self
            .star
            .dimensions
            .iter()
            .map(|d| {
                d.attributes
                    .iter()
                    .map(|a| schema.index_of(a))
                    .collect::<Result<Vec<_>>>()
            })
            .collect::<Result<_>>()?;
        let measure_sources: Vec<usize> = self
            .star
            .fact
            .measures
            .iter()
            .map(|m| schema.index_of(m))
            .collect::<Result<_>>()?;
        let degenerate_sources: Vec<usize> = self
            .star
            .fact
            .degenerate
            .iter()
            .map(|m| schema.index_of(m))
            .collect::<Result<_>>()?;

        for row in table.rows() {
            let values = row.values();
            for ((dim, keys), sources) in self
                .dims
                .iter_mut()
                .zip(self.fact.dim_keys.iter_mut())
                .zip(&dim_sources)
            {
                let tuple: Vec<Value> = sources
                    .iter()
                    .map(|&i| value_at(values, i).cloned())
                    .collect::<Result<_>>()?;
                keys.push(dim.intern(tuple)?);
            }
            for (measure, &src) in self.fact.measures.iter_mut().zip(&measure_sources) {
                measure.push(value_at(values, src)?.as_f64());
            }
            for ((_, col), &src) in self.fact.degenerate.iter_mut().zip(&degenerate_sources) {
                col.push(value_at(values, src)?.clone());
            }
        }
        self.fact.validate()?;
        // Dimensions count as touched only when the batch interned new
        // tuples into them; folding the appended rows covers the rest.
        let grown: BTreeSet<String> = self
            .dims
            .iter()
            .zip(&dim_sizes_before)
            .filter(|(d, &before)| d.len() > before)
            .map(|(d, _)| d.name.clone())
            .collect();
        Ok((grown, rows_before..self.fact.len()))
    }

    /// The warehouse's data epoch. Strictly increases across mutations
    /// of this instance and is unique across instances in the process,
    /// so `(query fingerprint, epoch)` identifies a result.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The chain of [`DeltaSummary`]s from `epoch` to the current
    /// epoch, oldest first. `Some(vec![])` when `epoch` is current;
    /// `None` when `epoch` is unknown to this instance (another
    /// warehouse, or aged out of the bounded log) — callers must then
    /// assume everything changed.
    ///
    /// ```
    /// use warehouse::{LoadPlan, StarSchema, FactDef, DimensionDef, Warehouse};
    /// use clinical_types::{DataType, FieldDef, Record, Schema, Table};
    ///
    /// let star = StarSchema::new(
    ///     FactDef::new("Facts", vec!["FBG"], vec![]),
    ///     vec![DimensionDef::new("Bloods", vec!["FBG_Band"])],
    /// )?;
    /// let schema = Schema::new(vec![
    ///     FieldDef::nullable("FBG", DataType::Float),
    ///     FieldDef::nullable("FBG_Band", DataType::Text),
    /// ])?;
    /// let table = Table::from_rows(
    ///     schema,
    ///     vec![Record::new(vec![5.0.into(), "very good".into()])],
    /// )?;
    /// let mut wh = Warehouse::load(&LoadPlan::from_star(star), &table)?;
    /// let loaded = wh.epoch();
    /// wh.append(&table)?;
    /// let deltas = wh.deltas_since(loaded).expect("epoch is retained");
    /// assert_eq!(deltas.len(), 1);
    /// assert_eq!(deltas[0].appended, 1..2);
    /// assert!(deltas[0].is_append_only());
    /// # Ok::<(), clinical_types::Error>(())
    /// ```
    pub fn deltas_since(&self, epoch: u64) -> Option<Vec<DeltaSummary>> {
        self.deltas.since(epoch, self.epoch)
    }

    /// The star schema.
    pub fn star(&self) -> &StarSchema {
        &self.star
    }

    /// The fact table.
    pub fn fact(&self) -> &FactTable {
        &self.fact
    }

    /// Dimension table by name.
    pub fn dimension(&self, name: &str) -> Result<&DimensionTable> {
        self.dims
            .iter()
            .find(|d| d.name == name)
            .ok_or_else(|| Error::invalid(format!("unknown dimension `{name}`")))
    }

    /// All dimension tables.
    pub fn dimensions(&self) -> &[DimensionTable] {
        &self.dims
    }

    /// Number of fact rows.
    pub fn n_facts(&self) -> usize {
        self.fact.len()
    }

    /// Locate an attribute: `(dimension index, attribute index)`.
    pub fn find_attribute(&self, attribute: &str) -> Result<(usize, usize)> {
        for (di, d) in self.dims.iter().enumerate() {
            if let Some(ai) = d.attribute_index(attribute) {
                return Ok((di, ai));
            }
        }
        Err(Error::invalid(format!(
            "no dimension owns attribute `{attribute}`"
        )))
    }

    /// Materialise the per-fact values of a dimension attribute: the
    /// resolved (key → tuple) column, length [`Self::n_facts`].
    pub fn attribute_column(&self, attribute: &str) -> Result<Vec<&Value>> {
        let (di, ai) = self.find_attribute(attribute)?;
        let dim = self
            .dims
            .get(di)
            .ok_or_else(|| Error::invalid(format!("dangling dimension index {di}")))?;
        let dangling = |k| Error::invalid(format!("dangling key {k} in `{}`", dim.name));
        let value = |&k: &u32| {
            dim.tuple(k)
                .and_then(|t| t.get(ai))
                .ok_or_else(|| dangling(k))
        };
        self.fact.keys_of(&dim.name)?.iter().map(value).collect()
    }

    /// Measure column by name.
    pub fn measure(&self, name: &str) -> Result<&MeasureColumn> {
        self.fact.measure(name)
    }

    /// Degenerate column by name.
    pub fn degenerate_column(&self, name: &str) -> Result<&[Value]> {
        self.fact.degenerate_column(name)
    }

    /// Conservatively advance the data epoch, recording a
    /// [`DeltaKind::Rewrite`] delta that touches every dimension: no
    /// cached result derived from an earlier epoch can be reused or
    /// patched. Use when data changed through a path the delta log
    /// cannot describe precisely.
    pub fn bump_epoch(&mut self) {
        let all: BTreeSet<String> = self.dims.iter().map(|d| d.name.clone()).collect();
        self.record_mutation(
            DeltaKind::Rewrite,
            all,
            self.fact.len()..self.fact.len(),
            true,
        );
        obs::event_with(
            "warehouse.epoch_bump",
            &[("cause", &"manual"), ("epoch", &self.epoch)],
        );
    }

    /// Advance the epoch and log the transition (mutation paths).
    pub(crate) fn record_mutation(
        &mut self,
        kind: DeltaKind,
        dimensions: BTreeSet<String>,
        appended: Range<usize>,
        rewrote_existing: bool,
    ) {
        let to_epoch = next_epoch();
        self.record_mutation_at(kind, dimensions, appended, rewrote_existing, to_epoch);
    }

    /// [`Self::record_mutation`] with the target epoch supplied by the
    /// caller instead of minted locally — the replication path, where
    /// a follower must land on exactly the epoch the primary assigned
    /// to the change. The allocator is advanced past `to_epoch` so
    /// locally minted epochs never collide with replayed ones.
    pub(crate) fn record_mutation_at(
        &mut self,
        kind: DeltaKind,
        dimensions: BTreeSet<String>,
        appended: Range<usize>,
        rewrote_existing: bool,
        to_epoch: u64,
    ) {
        observe_epoch(to_epoch);
        let from_epoch = self.epoch;
        self.epoch = to_epoch;
        // Graceful degradation: when recording the precise delta is
        // made to fail, fall back to a conservative full-rewrite
        // summary. Caches then invalidate instead of patching —
        // slower, never wrong.
        let summary = match fault::point("warehouse.delta_append") {
            Ok(()) => DeltaSummary {
                from_epoch,
                to_epoch: self.epoch,
                kind,
                dimensions,
                appended,
                rewrote_existing,
            },
            Err(e) => {
                obs::event_with(
                    "warehouse.delta_degraded",
                    &[("fault", &e.to_string()), ("epoch", &self.epoch)],
                );
                DeltaSummary {
                    from_epoch,
                    to_epoch: self.epoch,
                    kind: DeltaKind::Rewrite,
                    dimensions: self.dims.iter().map(|d| d.name.clone()).collect(),
                    appended: 0..self.fact.len(),
                    rewrote_existing: true,
                }
            }
        };
        self.deltas.record(summary);
    }

    /// Mutable access for the feedback module.
    pub(crate) fn parts_mut(
        &mut self,
    ) -> (&mut StarSchema, &mut Vec<DimensionTable>, &mut FactTable) {
        (&mut self.star, &mut self.dims, &mut self.fact)
    }

    /// Total number of distinct dimension tuples across all dimensions
    /// (a compression indicator: facts × attrs vs this).
    pub fn total_dimension_tuples(&self) -> usize {
        self.dims.iter().map(DimensionTable::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{DimensionDef, FactDef};
    use clinical_types::{DataType, FieldDef, Record, Schema};

    fn mini_star() -> StarSchema {
        StarSchema::new(
            FactDef::new("Facts", vec!["FBG"], vec!["PatientId"]),
            vec![
                DimensionDef::new("Personal", vec!["Gender", "Age_Band"]),
                DimensionDef::new("Bloods", vec!["FBG_Band"]),
            ],
        )
        .unwrap()
    }

    fn mini_table() -> Table {
        let schema = Schema::new(vec![
            FieldDef::required("PatientId", DataType::Int),
            FieldDef::nullable("Gender", DataType::Text),
            FieldDef::nullable("Age_Band", DataType::Text),
            FieldDef::nullable("FBG", DataType::Float),
            FieldDef::nullable("FBG_Band", DataType::Text),
        ])
        .unwrap();
        let rows = vec![
            vec![
                1.into(),
                "F".into(),
                "60-80".into(),
                5.2.into(),
                "very good".into(),
            ],
            vec![
                2.into(),
                "M".into(),
                "60-80".into(),
                7.4.into(),
                "Diabetic".into(),
            ],
            vec![
                3.into(),
                "F".into(),
                "60-80".into(),
                Value::Null,
                Value::Null,
            ],
            vec![
                1.into(),
                "F".into(),
                "60-80".into(),
                6.5.into(),
                "preDiabetic".into(),
            ],
        ];
        Table::from_rows(schema, rows.into_iter().map(Record::new).collect()).unwrap()
    }

    #[test]
    fn load_builds_dictionary_encoded_dimensions() {
        let wh = Warehouse::load(&LoadPlan::from_star(mini_star()), &mini_table()).unwrap();
        assert_eq!(wh.n_facts(), 4);
        // Personal dimension: (F,60-80) and (M,60-80) → 2 tuples.
        assert_eq!(wh.dimension("Personal").unwrap().len(), 2);
        // Bloods: very good, Diabetic, NULL, preDiabetic → 4 tuples.
        assert_eq!(wh.dimension("Bloods").unwrap().len(), 4);
    }

    #[test]
    fn attribute_column_resolves_keys() {
        let wh = Warehouse::load(&LoadPlan::from_star(mini_star()), &mini_table()).unwrap();
        let genders: Vec<String> = wh
            .attribute_column("Gender")
            .unwrap()
            .iter()
            .map(|v| v.to_string())
            .collect();
        assert_eq!(genders, vec!["F", "M", "F", "F"]);
        assert!(wh.attribute_column("FBG").is_err()); // a measure, not an attribute
    }

    #[test]
    fn measures_keep_null_mask() {
        let wh = Warehouse::load(&LoadPlan::from_star(mini_star()), &mini_table()).unwrap();
        let fbg = wh.measure("FBG").unwrap();
        assert_eq!(fbg.len(), 4);
        assert_eq!(fbg.count_valid(), 3);
        assert_eq!(fbg.get(2), None);
    }

    #[test]
    fn degenerate_columns_survive() {
        let wh = Warehouse::load(&LoadPlan::from_star(mini_star()), &mini_table()).unwrap();
        let pids = wh.degenerate_column("PatientId").unwrap();
        assert_eq!(pids[3], Value::Int(1));
    }

    #[test]
    fn plan_validation_reports_missing_columns() {
        let schema = Schema::new(vec![FieldDef::required("PatientId", DataType::Int)]).unwrap();
        let err = LoadPlan::from_star(mini_star())
            .validate_against(&schema)
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("Gender"));
        assert!(msg.contains("FBG"));
    }

    #[test]
    fn append_reuses_surrogate_keys_and_extends_facts() {
        let plan = LoadPlan::from_star(mini_star());
        let table = mini_table();
        let mut wh = Warehouse::load(&plan, &table).unwrap();
        let personal_before = wh.dimension("Personal").unwrap().len();
        let appended = wh.append(&table).unwrap();
        assert_eq!(appended, 4);
        assert_eq!(wh.n_facts(), 8);
        // Identical tuples reuse keys: the dimension did not grow.
        assert_eq!(wh.dimension("Personal").unwrap().len(), personal_before);
        // Columns stay aligned.
        assert_eq!(wh.attribute_column("Gender").unwrap().len(), 8);
        assert_eq!(wh.measure("FBG").unwrap().len(), 8);
        assert_eq!(wh.degenerate_column("PatientId").unwrap().len(), 8);
    }

    #[test]
    fn append_rejects_missing_columns() {
        let mut wh = Warehouse::load(&LoadPlan::from_star(mini_star()), &mini_table()).unwrap();
        let partial = mini_table().project(&["PatientId", "Gender"]).unwrap();
        let before = wh.n_facts();
        assert!(wh.append(&partial).is_err());
        assert_eq!(wh.n_facts(), before, "failed append must not mutate");
    }

    #[test]
    fn epochs_are_unique_and_advance_on_mutation() {
        let plan = LoadPlan::from_star(mini_star());
        let table = mini_table();
        let mut wh = Warehouse::load(&plan, &table).unwrap();
        let loaded = wh.epoch();
        let other = Warehouse::load(&plan, &table).unwrap();
        assert_ne!(loaded, other.epoch(), "instances share an epoch");
        wh.append(&table).unwrap();
        assert!(wh.epoch() > loaded, "append must advance the epoch");
        assert!(
            wh.epoch() > other.epoch(),
            "epochs must stay globally monotonic"
        );
        // A failed append leaves the epoch alone.
        let before = wh.epoch();
        let partial = mini_table().project(&["PatientId", "Gender"]).unwrap();
        assert!(wh.append(&partial).is_err());
        assert_eq!(wh.epoch(), before);
    }

    #[test]
    fn append_records_an_append_only_delta() {
        let plan = LoadPlan::from_star(mini_star());
        let table = mini_table();
        let mut wh = Warehouse::load(&plan, &table).unwrap();
        let loaded = wh.epoch();
        assert_eq!(wh.deltas_since(loaded), Some(vec![]), "no mutations yet");

        wh.append(&table).unwrap();
        let deltas = wh.deltas_since(loaded).unwrap();
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].kind, crate::delta::DeltaKind::Append);
        assert_eq!(deltas[0].appended, 4..8);
        assert!(deltas[0].is_append_only());
        // Identical tuples reuse surrogate keys: no dimension grew.
        assert!(deltas[0].dimensions.is_empty());

        wh.add_feedback_dimension("Review", "Flag", (0..8).map(Value::Int).collect())
            .unwrap();
        let chain = wh.deltas_since(loaded).unwrap();
        assert_eq!(chain.len(), 2);
        let change = crate::delta::ChangeSet::fold(&chain);
        assert_eq!(change.appended, 4..8);
        assert_eq!(
            change.structural_dimensions.iter().collect::<Vec<_>>(),
            vec!["Review"]
        );
        assert!(!change.rewrote_existing);
    }

    #[test]
    fn bump_epoch_records_a_conservative_rewrite() {
        let mut wh = Warehouse::load(&LoadPlan::from_star(mini_star()), &mini_table()).unwrap();
        let before = wh.epoch();
        wh.bump_epoch();
        let deltas = wh.deltas_since(before).unwrap();
        assert_eq!(deltas.len(), 1);
        assert!(deltas[0].rewrote_existing);
        assert!(deltas[0].dimensions.contains("Personal"));
        assert!(deltas[0].dimensions.contains("Bloods"));
    }

    #[test]
    fn deltas_since_rejects_foreign_epochs() {
        let plan = LoadPlan::from_star(mini_star());
        let table = mini_table();
        let wh = Warehouse::load(&plan, &table).unwrap();
        let other = Warehouse::load(&plan, &table).unwrap();
        assert_eq!(wh.deltas_since(other.epoch()), None);
    }

    #[test]
    fn appended_rows_resolve_in_the_attribute_column_as_on_their_own() {
        let plan = LoadPlan::from_star(mini_star());
        let mut wh = Warehouse::load(&plan, &mini_table()).unwrap();
        wh.append(&mini_table()).unwrap();
        let alone = Warehouse::load(&plan, &mini_table()).unwrap();
        let full = wh.attribute_column("Gender").unwrap();
        assert_eq!(full.len(), 8);
        assert_eq!(full[4..], alone.attribute_column("Gender").unwrap()[..]);
    }

    #[test]
    fn discri_cohort_loads_through_pipeline() {
        let cohort = discri::generate(&discri::CohortConfig::small(31));
        let (table, _) = etl::TransformPipeline::discri_default()
            .run(&cohort.attendances)
            .unwrap();
        let wh = Warehouse::load(&LoadPlan::discri_default(), &table).unwrap();
        assert_eq!(wh.n_facts(), table.len());
        assert_eq!(wh.dimensions().len(), 8);
        // Dictionary encoding must compress: far fewer tuples than
        // facts × dimensions.
        assert!(wh.total_dimension_tuples() < wh.n_facts() * wh.dimensions().len());
        // Fig. 5 inputs are reachable.
        assert!(wh.attribute_column("Age_SubGroup").is_ok());
        assert!(wh.attribute_column("Gender").is_ok());
        assert!(wh.attribute_column("DiabetesStatus").is_ok());
        assert!(wh.measure("FBG").is_ok());
    }
}
