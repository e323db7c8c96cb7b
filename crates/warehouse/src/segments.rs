//! Segmented storage integration: the compactor.
//!
//! The fact table keeps a second physical representation in a
//! [`segstore`] backend: sealed, immutable, sorted columnar segments
//! mirroring the fact rows below a **watermark**, while rows at or
//! above the watermark (the *mutable tail*) are served from the
//! in-memory fact table. The cube engine scans sealed segments with
//! zone-map pruning and falls back to the tail for the rest.
//!
//! Compaction is a two-phase fold of the delta log into fresh
//! segments, designed so a concurrent reader holding a clone of the
//! warehouse (or the serve layer holding a read lock) never observes a
//! half-compacted state:
//!
//! 1. **Plan** ([`Warehouse::plan_compaction`], `&self`): decide the
//!    mode from [`Warehouse::deltas_since`] — append-only chains seal
//!    just the tail, anything structural (rewrites, feedback
//!    dimensions, an aged-out delta log) rebuilds from row zero — then
//!    sort, cut and seal the new segments into the backend. Sealed
//!    segments are invisible until installed.
//! 2. **Install** ([`Warehouse::install_compaction`], `&mut self`):
//!    atomically swap the live segment list to the plan's, or refuse
//!    (`Ok(false)`) when the warehouse mutated since planning — the
//!    orphaned segments are reclaimed by [`Warehouse::vacuum_segments`].
//!
//! Failpoints `warehouse.compact_build` and
//! `warehouse.compact_install` cover the two phases; a crash in either
//! leaves the previously sealed segments and the live warehouse
//! untouched.

use crate::delta::ChangeSet;
use crate::loader::{map_fault, Warehouse};
use clinical_types::{Error, Result, Value};
use segstore::{ColumnSet, Segment, SegmentBackend, SegmentMeta};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The live segmented view of one warehouse: which backend holds the
/// sealed segments, which of them are current, and how far the sealed
/// rows reach into the fact table.
#[derive(Debug, Clone)]
pub struct SegmentSet {
    backend: Arc<dyn SegmentBackend>,
    metas: Vec<Arc<SegmentMeta>>,
    watermark: usize,
    compacted_epoch: u64,
    next_id: u64,
}

impl SegmentSet {
    pub(crate) fn new(backend: Arc<dyn SegmentBackend>, epoch: u64, next_id: u64) -> SegmentSet {
        SegmentSet {
            backend,
            metas: Vec::new(),
            watermark: 0,
            compacted_epoch: epoch,
            next_id,
        }
    }

    /// The backend sealed segments live in.
    pub fn backend(&self) -> &Arc<dyn SegmentBackend> {
        &self.backend
    }

    /// Metadata of the live sealed segments, in seal order (ascending
    /// fact-row ranges).
    pub fn metas(&self) -> &[Arc<SegmentMeta>] {
        &self.metas
    }

    /// Fact rows `0..watermark` are mirrored by sealed segments; rows
    /// at or above the watermark form the mutable tail.
    pub fn watermark(&self) -> usize {
        self.watermark
    }

    /// The warehouse epoch the sealed segments reflect.
    pub fn compacted_epoch(&self) -> u64 {
        self.compacted_epoch
    }

    /// Number of live sealed segments.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// True when no segment is sealed.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }
}

/// Tuning knobs for one compaction run.
#[derive(Debug, Clone)]
pub struct CompactionConfig {
    /// Rows per sealed segment (the last segment of a run may be
    /// smaller).
    pub target_rows_per_segment: usize,
}

impl Default for CompactionConfig {
    fn default() -> Self {
        CompactionConfig {
            target_rows_per_segment: 4096,
        }
    }
}

/// The outcome of the build phase: the segment list to install. The
/// new segments are already sealed in the backend but not yet visible
/// to queries.
#[derive(Debug, Clone)]
pub struct CompactionPlan {
    epoch: u64,
    metas: Vec<Arc<SegmentMeta>>,
    watermark: usize,
    new_ids: Vec<u64>,
    next_id: u64,
}

impl CompactionPlan {
    /// The warehouse epoch the plan was built against; installation
    /// refuses if the warehouse has moved past it.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Ids of the segments this run sealed.
    pub fn new_ids(&self) -> &[u64] {
        &self.new_ids
    }

    /// The watermark installation will advance to.
    pub fn watermark(&self) -> usize {
        self.watermark
    }
}

impl Warehouse {
    /// The live segmented view.
    pub fn segments(&self) -> &SegmentSet {
        &self.segments
    }

    /// Point sealed-segment storage at `backend`, discarding the
    /// current segment list (the next compaction rebuilds from row
    /// zero). Ids already present in the backend are skipped over so
    /// new seals never collide with pre-existing files.
    pub fn set_segment_backend(&mut self, backend: Arc<dyn SegmentBackend>) -> Result<()> {
        let next_id = backend.list()?.last().map_or(0, |last| last + 1);
        self.segments = SegmentSet::new(backend, self.epoch(), next_id);
        Ok(())
    }

    /// Build-phase of compaction: fold the delta log since the last
    /// compaction into fresh sealed segments. Returns `Ok(None)` when
    /// the sealed view is already current. Read-only with respect to
    /// the warehouse — concurrent queries proceed untouched.
    pub fn plan_compaction(&self, config: &CompactionConfig) -> Result<Option<CompactionPlan>> {
        let mut span = obs::span("warehouse.compact_plan");
        let seg = &self.segments;
        let n = self.n_facts();
        // Decide incremental vs full rebuild from the delta chain.
        let (start, carried, mode) = match self.deltas_since(seg.compacted_epoch) {
            Some(chain) => {
                let change = ChangeSet::fold(&chain);
                if change.rewrote_existing || !change.structural_dimensions.is_empty() {
                    // Rewrites invalidate sealed rows; a feedback
                    // dimension adds a key column sealed segments lack.
                    (0, Vec::new(), "rebuild")
                } else {
                    (seg.watermark, seg.metas.clone(), "incremental")
                }
            }
            None => {
                // The compaction epoch aged out of the bounded delta
                // log: provenance of the sealed rows is unknowable, so
                // rebuild rather than trust the watermark.
                obs::event_with(
                    "warehouse.compact_aged_out",
                    &[
                        ("compacted_epoch", &seg.compacted_epoch),
                        ("epoch", &self.epoch()),
                    ],
                );
                (0, Vec::new(), "rebuild")
            }
        };
        span.record("mode", mode);
        span.record("rows", n - start);
        if start == n && seg.compacted_epoch != self.epoch() {
            // Structure-only mutations (e.g. an empty append) move the
            // epoch without adding rows; refresh the epoch stamp.
            return Ok(Some(CompactionPlan {
                epoch: self.epoch(),
                metas: carried,
                watermark: n,
                new_ids: Vec::new(),
                next_id: seg.next_id,
            }));
        }
        if start == n {
            return Ok(None); // already current
        }
        fault::point("warehouse.compact_build").map_err(map_fault)?;

        // Sort the rows to seal by their dimension-key tuple so each
        // segment covers a narrow key range (sharp zone maps), then cut
        // into fixed-size chunks.
        let fact = self.fact();
        let mut order: Vec<usize> = (start..n).collect();
        order.sort_by(|&a, &b| {
            fact.dim_keys
                .iter()
                .map(|col| col[a])
                .cmp(fact.dim_keys.iter().map(|col| col[b]))
        });
        let target = config.target_rows_per_segment.max(1);
        let mut metas = carried;
        let mut new_ids = Vec::new();
        // Start past anything already sealed in the backend — a plan
        // whose install failed leaves orphaned ids behind (reclaimed by
        // vacuum later); retries must never collide with them.
        let mut next_id = seg
            .next_id
            .max(seg.backend.list()?.last().map_or(0, |last| last + 1));
        for chunk in order.chunks(target) {
            let keys: Vec<(String, Vec<u32>)> = fact
                .dim_names
                .iter()
                .zip(&fact.dim_keys)
                .map(|(name, col)| (name.clone(), chunk.iter().map(|&r| col[r]).collect()))
                .collect();
            let measures: Vec<(String, Vec<f64>, Vec<bool>)> = fact
                .measures
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        chunk.iter().map(|&r| m.values[r]).collect(),
                        chunk.iter().map(|&r| m.valid[r]).collect(),
                    )
                })
                .collect();
            let degenerates: Vec<(String, Vec<Value>)> = fact
                .degenerate
                .iter()
                .map(|(name, col)| {
                    (
                        name.clone(),
                        chunk.iter().map(|&r| col[r].clone()).collect(),
                    )
                })
                .collect();
            let segment = Segment::assemble(next_id, keys, measures, degenerates)?;
            let meta = Arc::new(segment.meta.clone());
            seg.backend.put(segment)?;
            metas.push(meta);
            new_ids.push(next_id);
            next_id += 1;
        }
        span.record("sealed", new_ids.len());
        Ok(Some(CompactionPlan {
            epoch: self.epoch(),
            metas,
            watermark: n,
            new_ids,
            next_id,
        }))
    }

    /// Install-phase of compaction: atomically publish `plan`'s segment
    /// list. Returns `Ok(false)` — leaving the live view untouched —
    /// when the warehouse mutated after the plan was built; the plan's
    /// orphaned segments stay in the backend until
    /// [`Warehouse::vacuum_segments`].
    pub fn install_compaction(&mut self, plan: CompactionPlan) -> Result<bool> {
        fault::point("warehouse.compact_install").map_err(map_fault)?;
        if plan.epoch != self.epoch() {
            obs::event_with(
                "warehouse.compact_stale",
                &[("plan_epoch", &plan.epoch), ("epoch", &self.epoch())],
            );
            return Ok(false);
        }
        obs::event_with(
            "warehouse.compact_install",
            &[
                ("epoch", &plan.epoch),
                ("segments", &plan.metas.len()),
                ("sealed", &plan.new_ids.len()),
                ("watermark", &plan.watermark),
            ],
        );
        self.segments.metas = plan.metas;
        self.segments.watermark = plan.watermark;
        self.segments.compacted_epoch = plan.epoch;
        self.segments.next_id = plan.next_id;
        Ok(true)
    }

    /// Plan and install in one step with the default configuration.
    /// `Ok(true)` when the sealed view changed.
    pub fn compact(&mut self) -> Result<bool> {
        self.compact_with(&CompactionConfig::default())
    }

    /// Plan and install in one step. `Ok(true)` when the sealed view
    /// changed.
    pub fn compact_with(&mut self, config: &CompactionConfig) -> Result<bool> {
        match self.plan_compaction(config)? {
            Some(plan) => self.install_compaction(plan),
            None => Ok(false),
        }
    }

    /// Remove backend segments no longer referenced by the live view
    /// (replaced by compaction, or orphaned by a stale install).
    /// Returns how many were reclaimed.
    pub fn vacuum_segments(&self) -> Result<usize> {
        let live: BTreeSet<u64> = self.segments.metas.iter().map(|m| m.id).collect();
        let mut removed = 0;
        for id in self.segments.backend.list()? {
            if !live.contains(&id) {
                self.segments.backend.remove(id)?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Fetch a live sealed segment by id, materialising at least
    /// `columns` (scan path of the cube engine).
    pub fn fetch_segment(&self, id: u64, columns: &ColumnSet) -> Result<Arc<Segment>> {
        if !self.segments.metas.iter().any(|m| m.id == id) {
            return Err(Error::invalid(format!("segment {id} is not live")));
        }
        self.segments.backend.fetch(id, columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::LoadPlan;
    use crate::model::{DimensionDef, FactDef, StarSchema};
    use clinical_types::{DataType, FieldDef, Record, Schema, Table};
    use segstore::DiskBackend;

    fn mini_star() -> StarSchema {
        StarSchema::new(
            FactDef::new("Facts", vec!["FBG"], vec!["PatientId"]),
            vec![
                DimensionDef::new("Personal", vec!["Gender"]),
                DimensionDef::new("Bloods", vec!["FBG_Band"]),
            ],
        )
        .unwrap()
    }

    fn table(rows: &[(i64, &str, f64, &str)]) -> Table {
        let schema = Schema::new(vec![
            FieldDef::required("PatientId", DataType::Int),
            FieldDef::nullable("Gender", DataType::Text),
            FieldDef::nullable("FBG", DataType::Float),
            FieldDef::nullable("FBG_Band", DataType::Text),
        ])
        .unwrap();
        let records = rows
            .iter()
            .map(|(id, g, fbg, band)| {
                Record::new(vec![
                    (*id).into(),
                    (*g).into(),
                    (*fbg).into(),
                    (*band).into(),
                ])
            })
            .collect();
        Table::from_rows(schema, records).unwrap()
    }

    fn sample() -> Warehouse {
        Warehouse::load(
            &LoadPlan::from_star(mini_star()),
            &table(&[
                (1, "F", 5.25, "very good"),
                (2, "M", 7.5, "Diabetic"),
                (3, "F", 6.5, "preDiabetic"),
                (4, "M", 5.0, "very good"),
            ]),
        )
        .unwrap()
    }

    #[test]
    fn fresh_warehouse_has_an_empty_current_segment_view() {
        let wh = sample();
        assert!(wh.segments().is_empty());
        assert_eq!(wh.segments().watermark(), 0);
        assert_eq!(wh.segments().compacted_epoch(), wh.epoch());
    }

    #[test]
    fn compact_seals_everything_then_only_the_tail() {
        let mut wh = sample();
        assert!(wh.compact().unwrap());
        assert_eq!(wh.segments().watermark(), 4);
        assert_eq!(wh.segments().len(), 1);
        let first_id = wh.segments().metas()[0].id;
        assert!(!wh.compact().unwrap(), "already current");

        wh.append(&table(&[(5, "F", 8.0, "Diabetic")])).unwrap();
        assert!(wh.compact().unwrap());
        assert_eq!(wh.segments().watermark(), 5);
        assert_eq!(wh.segments().len(), 2, "incremental: old segment kept");
        assert_eq!(wh.segments().metas()[0].id, first_id);
        let total: u64 = wh.segments().metas().iter().map(|m| m.rows).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn sealed_segments_mirror_fact_rows_modulo_sort() {
        let mut wh = sample();
        wh.compact_with(&CompactionConfig {
            target_rows_per_segment: 2,
        })
        .unwrap();
        assert_eq!(wh.segments().len(), 2);
        let mut fbg: Vec<f64> = Vec::new();
        for meta in wh.segments().metas() {
            let seg = wh.fetch_segment(meta.id, &ColumnSet::all()).unwrap();
            let (values, valid) = seg.measure_column("FBG").unwrap();
            assert!(valid.iter().all(|&v| v));
            fbg.extend_from_slice(values);
        }
        fbg.sort_by(f64::total_cmp);
        assert_eq!(fbg, vec![5.0, 5.25, 6.5, 7.5]);
    }

    #[test]
    fn feedback_dimension_forces_a_rebuild() {
        let mut wh = sample();
        wh.compact().unwrap();
        let old_id = wh.segments().metas()[0].id;
        wh.add_feedback_dimension("Review", "Flag", (0..4).map(Value::Int).collect())
            .unwrap();
        assert!(wh.compact().unwrap());
        assert_eq!(wh.segments().len(), 1);
        let meta = &wh.segments().metas()[0];
        assert_ne!(meta.id, old_id);
        assert!(
            meta.key_zone("Review").is_some(),
            "rebuilt segments carry the feedback dimension"
        );
        // The replaced segment is reclaimable.
        assert_eq!(wh.vacuum_segments().unwrap(), 1);
        assert_eq!(wh.segments().backend().list().unwrap().len(), 1);
    }

    #[test]
    fn stale_plans_are_refused_and_vacuumable() {
        let mut wh = sample();
        let plan = wh
            .plan_compaction(&CompactionConfig::default())
            .unwrap()
            .unwrap();
        wh.append(&table(&[(9, "F", 4.75, "very good")])).unwrap();
        assert!(!wh.install_compaction(plan).unwrap());
        assert!(wh.segments().is_empty(), "live view untouched");
        assert_eq!(wh.vacuum_segments().unwrap(), 1, "orphan reclaimed");
    }

    #[test]
    fn bump_epoch_triggers_a_full_rebuild() {
        let mut wh = sample();
        wh.compact().unwrap();
        wh.bump_epoch();
        assert!(wh.compact().unwrap());
        assert_eq!(wh.segments().watermark(), 4);
        assert_eq!(wh.segments().len(), 1);
    }

    #[test]
    fn disk_backend_round_trips_through_compaction() {
        let dir = std::env::temp_dir().join(format!("wh_segments_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut wh = sample();
        wh.set_segment_backend(Arc::new(DiskBackend::create(&dir).unwrap()))
            .unwrap();
        wh.compact().unwrap();
        assert_eq!(wh.segments().backend().kind(), "disk");
        let meta = &wh.segments().metas()[0];
        let seg = wh
            .fetch_segment(meta.id, &ColumnSet::empty().with_measure("FBG"))
            .unwrap();
        let (values, _) = seg.measure_column("FBG").unwrap();
        assert_eq!(values.len(), 4);
        assert!(
            seg.key_column("Personal").is_none(),
            "column pruning reaches disk"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn build_failpoint_leaves_the_sealed_view_intact() {
        let _lock = fault::test_support::fault_lock();
        let mut wh = sample();
        wh.compact().unwrap();
        wh.append(&table(&[(6, "M", 9.0, "Diabetic")])).unwrap();
        {
            let _guard = fault::arm(
                "warehouse.compact_build",
                fault::Trigger::Always,
                fault::FaultKind::Error,
            );
            assert!(wh.compact().is_err());
        }
        assert_eq!(wh.segments().watermark(), 4, "old seal survives");
        assert_eq!(wh.segments().len(), 1);
        assert!(
            wh.compact().unwrap(),
            "retry succeeds after the fault clears"
        );
        assert_eq!(wh.segments().watermark(), 5);
    }
}
