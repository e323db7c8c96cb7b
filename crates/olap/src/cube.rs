//! Data cubes: grouped aggregation over the warehouse with the
//! classical OLAP operators.
//!
//! §IV "Reporting": *"data cubes can be formed by introducing multiple
//! dimensions to the query. Furthermore, slicing and dicing operations
//! can be performed on a cube to increase/decrease granularity of a
//! multivariate query."*
//!
//! A [`Cube`] holds one [`CellStats`] accumulator per observed axis
//! coordinate combination; because accumulators merge exactly,
//! roll-up is a pure cube-to-cube operation, while drill-down (finer
//! attribute) re-aggregates from the warehouse via the hierarchy-aware
//! [`crate::QueryBuilder`].

use crate::aggregate::{Aggregate, CellStats, MeasureRef};
use crate::kernels::{
    morsels, AggLanes, GroupLayout, KeyLut, LaneKind, SelectionBitmap, DEFAULT_MORSEL_ROWS,
};
use clinical_types::{Error, Result, Value};
use segstore::{ColumnSet, Segment, SegmentMeta};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;
use std::sync::Arc;
use warehouse::{ChangeSet, DeltaSummary, Warehouse};

/// Row filter applied while building a cube.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CubeFilter {
    /// Attribute must equal one of the listed values.
    attribute_in: Vec<(String, Vec<Value>)>,
    /// Measure must be valid and inside `[lo, hi)`.
    measure_between: Vec<(String, f64, f64)>,
}

impl CubeFilter {
    /// Empty filter (all rows pass).
    pub fn all() -> Self {
        CubeFilter::default()
    }

    /// Keep rows where `attribute = value`.
    pub fn equals(mut self, attribute: impl Into<String>, value: impl Into<Value>) -> Self {
        self.attribute_in
            .push((attribute.into(), vec![value.into()]));
        self
    }

    /// Keep rows where `attribute` is one of `values`.
    pub fn one_of(mut self, attribute: impl Into<String>, values: Vec<Value>) -> Self {
        self.attribute_in.push((attribute.into(), values));
        self
    }

    /// Keep rows where measure `name` is valid and in `[lo, hi)`.
    pub fn measure_between(mut self, name: impl Into<String>, lo: f64, hi: f64) -> Self {
        self.measure_between.push((name.into(), lo, hi));
        self
    }

    /// True when no condition is registered.
    pub fn is_empty(&self) -> bool {
        self.attribute_in.is_empty() && self.measure_between.is_empty()
    }

    /// Conditions on attributes.
    pub fn attribute_conditions(&self) -> &[(String, Vec<Value>)] {
        &self.attribute_in
    }

    /// Conditions on measures (`name`, `lo`, `hi`).
    pub fn measure_conditions(&self) -> &[(String, f64, f64)] {
        &self.measure_between
    }

    /// Canonical rendering for fingerprinting. The filter is a
    /// conjunction, so condition order is irrelevant; likewise the
    /// value list of a `one_of` is a set. Both are sorted so
    /// semantically equal filters render identically.
    pub fn canonical(&self) -> String {
        let mut parts: Vec<String> = self
            .attribute_in
            .iter()
            .map(|(attr, allowed)| {
                let mut vals: Vec<String> = allowed.iter().map(|v| format!("{v:?}")).collect();
                vals.sort();
                vals.dedup();
                format!("{attr} in {{{}}}", vals.join(","))
            })
            .collect();
        parts.extend(
            self.measure_between
                .iter()
                .map(|(m, lo, hi)| format!("{m} in [{lo:?},{hi:?})")),
        );
        parts.sort();
        parts.join(" && ")
    }

    /// Evaluate the filter over a contiguous fact-row range; entry `i`
    /// of the returned mask covers fact row `rows.start + i`.
    fn mask_range(&self, warehouse: &Warehouse, rows: Range<usize>) -> Result<Vec<bool>> {
        let mut mask = vec![true; rows.len()];
        for (attr, allowed) in &self.attribute_in {
            let col = warehouse.attribute_column_range(attr, rows.clone())?;
            for (m, v) in mask.iter_mut().zip(col) {
                if *m && !allowed.iter().any(|a| a == v) {
                    *m = false;
                }
            }
        }
        for (measure, lo, hi) in &self.measure_between {
            let col = warehouse.measure(measure)?;
            for (i, m) in mask.iter_mut().enumerate() {
                if *m {
                    match col.get(rows.start + i) {
                        Some(x) if x >= *lo && x < *hi => {}
                        _ => *m = false,
                    }
                }
            }
        }
        Ok(mask)
    }
}

/// Specification of a cube.
#[derive(Debug, Clone, PartialEq)]
pub struct CubeSpec {
    /// Dimension attributes forming the axes, in display order.
    pub axes: Vec<String>,
    /// What is aggregated in each cell.
    pub measure: MeasureRef,
    /// The aggregate function.
    pub agg: Aggregate,
    /// Row filter.
    pub filter: CubeFilter,
}

impl CubeSpec {
    /// Count of fact rows grouped by `axes`.
    pub fn count(axes: Vec<&str>) -> Self {
        CubeSpec {
            axes: axes.into_iter().map(String::from).collect(),
            measure: MeasureRef::RowCount,
            agg: Aggregate::Count,
            filter: CubeFilter::all(),
        }
    }

    /// Aggregate of a measure grouped by `axes`.
    pub fn measure(axes: Vec<&str>, agg: Aggregate, measure: impl Into<String>) -> Self {
        CubeSpec {
            axes: axes.into_iter().map(String::from).collect(),
            measure: MeasureRef::Measure(measure.into()),
            agg,
            filter: CubeFilter::all(),
        }
    }

    /// Distinct count of a degenerate column grouped by `axes`
    /// (e.g. distinct patients per cell).
    pub fn distinct(axes: Vec<&str>, degenerate: impl Into<String>) -> Self {
        CubeSpec {
            axes: axes.into_iter().map(String::from).collect(),
            measure: MeasureRef::DistinctDegenerate(degenerate.into()),
            agg: Aggregate::Count,
            filter: CubeFilter::all(),
        }
    }

    /// Replace the filter.
    pub fn with_filter(mut self, filter: CubeFilter) -> Self {
        self.filter = filter;
        self
    }

    /// Canonical fingerprint of the *result* this spec produces. Two
    /// specs with equal fingerprints build identical cubes: filter
    /// conjuncts are order-insensitive. Axis order stays significant
    /// (it fixes coordinate order).
    pub fn fingerprint(&self) -> String {
        format!(
            "cube|axes={}|measure={:?}|agg={:?}|filter={}",
            self.axes.join(","),
            self.measure,
            self.agg,
            self.filter.canonical()
        )
    }

    /// Every dimension attribute the spec reads: axes plus attribute
    /// filter conditions. Measures and degenerates are fact-resident
    /// and deliberately excluded — deltas cover them through the
    /// appended-row range, not the dimension set.
    pub fn dimension_attributes(&self) -> impl Iterator<Item = &str> {
        self.axes
            .iter()
            .map(String::as_str)
            .chain(self.filter.attribute_in.iter().map(|(a, _)| a.as_str()))
    }
}

/// A built cube.
#[derive(Debug, Clone, PartialEq)]
pub struct Cube {
    /// Axis attribute names, fixing coordinate order.
    pub axes: Vec<String>,
    /// The measure aggregated in the cells.
    pub measure: MeasureRef,
    /// The aggregate function.
    pub agg: Aggregate,
    cells: Cells,
}

/// Cell accumulators by axis-value coordinates.
type Cells = HashMap<Vec<Value>, CellStats>;

impl Cube {
    /// Build a cube over `warehouse` per `spec`.
    ///
    /// ```
    /// use clinical_types::{DataType, FieldDef, Record, Schema, Table, Value};
    /// use olap::{Cube, CubeSpec};
    /// use warehouse::{DimensionDef, FactDef, LoadPlan, StarSchema, Warehouse};
    ///
    /// let star = StarSchema::new(
    ///     FactDef::new("Facts", vec!["FBG"], vec![]),
    ///     vec![DimensionDef::new("Bloods", vec!["FBG_Band"])],
    /// )?;
    /// let schema = Schema::new(vec![
    ///     FieldDef::nullable("FBG", DataType::Float),
    ///     FieldDef::nullable("FBG_Band", DataType::Text),
    /// ])?;
    /// let rows = vec![
    ///     Record::new(vec![5.0.into(), "very good".into()]),
    ///     Record::new(vec![5.2.into(), "very good".into()]),
    ///     Record::new(vec![8.0.into(), "Diabetic".into()]),
    /// ];
    /// let wh = Warehouse::load(
    ///     &LoadPlan::from_star(star),
    ///     &Table::from_rows(schema, rows)?,
    /// )?;
    ///
    /// let cube = Cube::build(&wh, &CubeSpec::count(vec!["FBG_Band"]))?;
    /// assert_eq!(cube.value(&[Value::from("very good")]), Some(2.0));
    /// assert_eq!(cube.value(&[Value::from("Diabetic")]), Some(1.0));
    /// # Ok::<(), clinical_types::Error>(())
    /// ```
    pub fn build(warehouse: &Warehouse, spec: &CubeSpec) -> Result<Cube> {
        Ok(Cube::build_with_stats(warehouse, spec)?.0)
    }

    /// [`Cube::build`] returning the scan statistics alongside the
    /// cube — how many sealed segments the scan pruned and how many
    /// rows it actually visited (the numbers query profiles report).
    ///
    /// There is nothing to configure: which of the two paths runs
    /// (see [`ScanStats`]) follows from the warehouse's sealed state
    /// and the spec alone.
    pub fn build_with_stats(warehouse: &Warehouse, spec: &CubeSpec) -> Result<(Cube, ScanStats)> {
        let mut span = obs::span("olap.cube_build");
        let (cells, stats) = match SegmentedScan::plan(warehouse, spec)? {
            Some(scan) => scan.execute()?,
            None => {
                let n = warehouse.n_facts();
                let mut cells = Cells::new();
                fold_rows(warehouse, spec, 0..n, &mut cells)?;
                let stats = ScanStats {
                    rows_scanned: n as u64,
                    ..ScanStats::default()
                };
                (cells, stats)
            }
        };
        span.record("rows", stats.rows_scanned);
        span.record("segments_pruned", stats.segments_pruned);
        span.record("cells", cells.len());
        Ok((
            Cube {
                axes: spec.axes.clone(),
                measure: spec.measure.clone(),
                agg: spec.agg,
                cells,
            },
            stats,
        ))
    }

    /// Whether cubes built from `spec` can be patched in place by
    /// [`Cube::apply_delta`]. Count/sum/mean cells keep their raw
    /// accumulators (row count, valid count, sum), so folding appended
    /// rows is exact; min/max are monotone under append-only deltas.
    /// Distinct counting is excluded: its cells carry full value sets,
    /// so a retained cube would grow without bound — those rebuild.
    pub fn supports_incremental(spec: &CubeSpec) -> bool {
        !matches!(spec.measure, MeasureRef::DistinctDegenerate(_))
    }

    /// Fold one [`DeltaSummary`] into the cube, patching it from the
    /// epoch it was built at to the delta's target epoch.
    ///
    /// Returns `Ok(true)` when the cube now reflects the post-delta
    /// warehouse, `Ok(false)` when the delta cannot be applied
    /// incrementally (existing rows were rewritten, the spec reads a
    /// structurally-changed dimension, or the aggregate is not
    /// incrementally maintainable) and the caller must rebuild.
    /// `warehouse` must already be at (or past) the delta's target
    /// epoch, and `spec` must be the spec the cube was built from.
    pub fn apply_delta(
        &mut self,
        warehouse: &Warehouse,
        spec: &CubeSpec,
        delta: &DeltaSummary,
    ) -> Result<bool> {
        if self.axes != spec.axes || self.measure != spec.measure || self.agg != spec.agg {
            return Err(Error::invalid(
                "cube was not built from the spec it is being patched against",
            ));
        }
        if delta.rewrote_existing || !Cube::supports_incremental(spec) {
            return Ok(false);
        }
        // A structural mutation (e.g. a new feedback dimension) is a
        // no-op for the cube only if the spec provably never reads a
        // touched dimension; unresolvable attributes force a rebuild.
        // Appends are exempt: any dimension they grow shows up only in
        // the appended rows, which the fold below covers.
        if delta.kind != warehouse::DeltaKind::Append && !delta.dimensions.is_empty() {
            for attr in spec.dimension_attributes() {
                match warehouse.find_attribute(attr) {
                    Ok((di, _)) => {
                        if delta.dimensions.contains(&warehouse.dimensions()[di].name) {
                            return Ok(false);
                        }
                    }
                    Err(_) => return Ok(false),
                }
            }
        }
        let rows = delta.appended.clone();
        if rows.is_empty() {
            return Ok(true);
        }
        if rows.end > warehouse.n_facts() {
            return Err(Error::invalid(format!(
                "delta appends rows {}..{} but the warehouse has {} facts",
                rows.start,
                rows.end,
                warehouse.n_facts()
            )));
        }
        let mut span = obs::span("olap.cube_apply_delta");
        let folded = fold_rows(warehouse, spec, rows.clone(), &mut self.cells)?;
        span.record("appended", rows.len());
        span.record("folded", folded);
        span.record("cells", self.cells.len());
        Ok(true)
    }

    /// Number of populated cells.
    pub fn n_cells(&self) -> usize {
        self.cells.len()
    }

    /// Finalized value at exact coordinates (axis order).
    pub fn value(&self, coords: &[Value]) -> Option<f64> {
        self.cells
            .get(coords)
            .and_then(|c| c.finalize(self.agg, &self.measure))
    }

    /// Raw accumulator at coordinates.
    pub fn cell(&self, coords: &[Value]) -> Option<&CellStats> {
        self.cells.get(coords)
    }

    /// Iterate `(coords, finalized value)`; cells whose aggregate
    /// finalises to `None` are skipped.
    pub fn iter(&self) -> impl Iterator<Item = (&Vec<Value>, f64)> + '_ {
        self.cells
            .iter()
            .filter_map(|(k, c)| c.finalize(self.agg, &self.measure).map(|v| (k, v)))
    }

    /// Distinct coordinate values observed along one axis, sorted.
    pub fn axis_values(&self, axis: &str) -> Result<Vec<Value>> {
        let idx = self.axis_index(axis)?;
        let mut values: Vec<Value> = self
            .cells
            .keys()
            .map(|k| k[idx].clone())
            .collect::<std::collections::HashSet<_>>()
            .into_iter()
            .collect();
        values.sort();
        Ok(values)
    }

    /// Position of an axis.
    pub fn axis_index(&self, axis: &str) -> Result<usize> {
        self.axes
            .iter()
            .position(|a| a == axis)
            .ok_or_else(|| Error::invalid(format!("cube has no axis `{axis}`")))
    }

    /// Slice: fix `axis = value`, producing a cube without that axis.
    pub fn slice(&self, axis: &str, value: &Value) -> Result<Cube> {
        let idx = self.axis_index(axis)?;
        let mut cells: HashMap<Vec<Value>, CellStats> = HashMap::new();
        for (coords, stats) in &self.cells {
            if &coords[idx] != value {
                continue;
            }
            let mut rest = coords.clone();
            rest.remove(idx);
            cells
                .entry(rest)
                .or_insert_with(|| CellStats::new(stats.distinct.is_some()))
                .merge(stats);
        }
        let mut axes = self.axes.clone();
        axes.remove(idx);
        Ok(Cube {
            axes,
            measure: self.measure.clone(),
            agg: self.agg,
            cells,
        })
    }

    /// Dice: restrict `axis` to `values`, keeping the axis.
    pub fn dice(&self, axis: &str, values: &[Value]) -> Result<Cube> {
        let idx = self.axis_index(axis)?;
        let cells = self
            .cells
            .iter()
            .filter(|(coords, _)| values.contains(&coords[idx]))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        Ok(Cube {
            axes: self.axes.clone(),
            measure: self.measure.clone(),
            agg: self.agg,
            cells,
        })
    }

    /// Roll-up: remove `axis` entirely, merging cells across it.
    pub fn roll_up(&self, axis: &str) -> Result<Cube> {
        let idx = self.axis_index(axis)?;
        let mut cells: HashMap<Vec<Value>, CellStats> = HashMap::new();
        for (coords, stats) in &self.cells {
            let mut rest = coords.clone();
            rest.remove(idx);
            cells
                .entry(rest)
                .or_insert_with(|| CellStats::new(stats.distinct.is_some()))
                .merge(stats);
        }
        let mut axes = self.axes.clone();
        axes.remove(idx);
        Ok(Cube {
            axes,
            measure: self.measure.clone(),
            agg: self.agg,
            cells,
        })
    }

    /// The `k` largest cells by finalized value, descending (ties
    /// break by coordinate order, deterministically) — the "top
    /// aggregates" the Decision Optimisation component validates.
    pub fn top_k(&self, k: usize) -> Vec<(Vec<Value>, f64)> {
        let mut cells: Vec<(Vec<Value>, f64)> = self.iter().map(|(c, v)| (c.clone(), v)).collect();
        cells.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        cells.truncate(k);
        cells
    }

    /// Grand total: roll every axis up into a single cell.
    pub fn grand_total(&self) -> Option<f64> {
        let mut total = CellStats::new(matches!(self.measure, MeasureRef::DistinctDegenerate(_)));
        for stats in self.cells.values() {
            total.merge(stats);
        }
        total.finalize(self.agg, &self.measure)
    }
}

/// The row loop: fold every fact row of `rows` that passes the spec's
/// filter into `cells`, resolving attribute values through the
/// dimension tables row by row. Returns how many rows passed.
///
/// This is the path that answers any buildable spec in any warehouse
/// state, so it is what runs wherever sealed segments cannot: the
/// whole table when nothing is sealed or [`SegmentedScan::plan`]
/// declines, the mutable tail behind the sealed prefix otherwise, and
/// a delta's appended range in [`Cube::apply_delta`].
fn fold_rows(
    warehouse: &Warehouse,
    spec: &CubeSpec,
    rows: Range<usize>,
    cells: &mut Cells,
) -> Result<usize> {
    if spec.axes.is_empty() {
        return Err(Error::invalid("a cube needs at least one axis"));
    }
    // Entry `i` of an axis column and of the mask covers fact row
    // `rows.start + i`; measure and degenerate columns are whole.
    let axis_cols = spec
        .axes
        .iter()
        .map(|a| warehouse.attribute_column_range(a, rows.clone()))
        .collect::<Result<Vec<_>>>()?;
    let (measure_col, distinct_col) = match &spec.measure {
        MeasureRef::RowCount => (None, None),
        MeasureRef::Measure(name) => (Some(warehouse.measure(name)?), None),
        MeasureRef::DistinctDegenerate(name) => (None, Some(warehouse.degenerate_column(name)?)),
    };
    let mask = spec.filter.mask_range(warehouse, rows.clone())?;
    let mut folded = 0;
    for (i, row) in rows.enumerate() {
        if !mask[i] {
            continue;
        }
        let key: Vec<Value> = axis_cols.iter().map(|c| c[i].clone()).collect();
        let cell = cells
            .entry(key)
            .or_insert_with(|| CellStats::new(distinct_col.is_some()));
        // A missing measure value still counts the row, just not
        // toward the valid set; `push` handles both.
        cell.push(
            measure_col.and_then(|m| m.get(row)),
            distinct_col.map(|c| &c[row]),
        );
        folded += 1;
    }
    Ok(folded)
}

/// Volume statistics of one cube build: how much of the warehouse the
/// scan touched, and how much pruning avoided. Together the fields
/// also say which path answered:
///
/// | observed | path |
/// |---|---|
/// | `segments_total == 0` | row loop over the whole fact table |
/// | `segments_total > 0` | kernels over the zone-map survivors (+ row loop over the tail) |
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Sealed segments the build considered: 0 when the row loop
    /// answered the whole table, because nothing is sealed, the sealed
    /// rows could not be proven to mirror the fact table, or the
    /// spec's group domain is too large for dense lanes.
    pub segments_total: u64,
    /// Sealed segments skipped on zone-map evidence alone — never
    /// fetched, never decoded.
    pub segments_pruned: u64,
    /// Fact rows actually visited (surviving segments plus the
    /// mutable tail, or the whole fact table).
    pub rows_scanned: u64,
    /// Morsels the kernels ran (0 when the row loop answered, or when
    /// zone maps pruned every sealed segment).
    pub morsels_executed: u64,
}

/// A validated segmented scan: the spec's columns all exist in the
/// sealed schema, the sealed rows provably mirror fact rows
/// `0..watermark` and the group domain fits dense lanes, so the build
/// may run segments through the kernels (plus the tail through the row
/// loop) instead of whole fact-table columns.
struct SegmentedScan<'a> {
    warehouse: &'a Warehouse,
    spec: &'a CubeSpec,
    axes: Vec<MemberCodes<'a>>,
    /// Group ids over the axes' member codes: the domain is the
    /// product of the axis *attributes'* member counts, whatever the
    /// dimensions' key counts.
    layout: GroupLayout,
    /// Per filtered dimension: surrogate keys whose tuples satisfy
    /// every attribute condition on that dimension (intersection) —
    /// as a set for the zone maps, packed for the kernels.
    key_filters: Vec<(&'a str, BTreeSet<u32>, KeyLut)>,
    /// Every dimension whose key column the scan reads, with its key
    /// count: a sealed key at or past it is dangling.
    key_domains: Vec<(&'a str, usize)>,
    /// Columns a segment fetch must materialise.
    columns: ColumnSet,
    metas: Vec<Arc<SegmentMeta>>,
    watermark: usize,
}

/// One dimension attribute as the kernels see it.
struct MemberCodes<'a> {
    /// Dimension whose key column carries the attribute.
    dimension: &'a str,
    /// Surrogate key → member code.
    codes: &'a [u32],
    /// Member code → attribute value.
    members: &'a [Value],
}

/// The kernels' accumulation state: the aggregate lanes plus the
/// selection/group-id scratch vectors reused across morsels.
struct KernelState {
    lanes: AggLanes,
    sel: Vec<u32>,
    gids: Vec<u32>,
}

impl<'a> SegmentedScan<'a> {
    /// Decide whether `spec` can run as a segmented scan over
    /// `warehouse`, and resolve everything the scan needs if so.
    /// `Ok(None)` means "run the row loop over the whole table" —
    /// never an error, since the row loop answers every buildable
    /// spec.
    fn plan(warehouse: &'a Warehouse, spec: &'a CubeSpec) -> Result<Option<SegmentedScan<'a>>> {
        let seg = warehouse.segments();
        if spec.axes.is_empty() || seg.watermark() == 0 || seg.is_empty() {
            return Ok(None);
        }
        // Sealed rows mirror fact rows 0..watermark only while nothing
        // rewrote them since compaction; an aged-out delta log cannot
        // prove that, so fall back (the serve layer separately counts
        // those aged-out events).
        match warehouse.deltas_since(seg.compacted_epoch()) {
            Some(chain) if !ChangeSet::fold(&chain).rewrote_existing => {}
            _ => return Ok(None),
        }
        let metas = seg.metas().to_vec();
        let Some(schema) = metas.first().cloned() else {
            return Ok(None);
        };

        // Resolve every referenced column against the sealed schema;
        // anything missing (e.g. a feedback dimension added after the
        // last compaction) declines. These loops are also the column
        // pruning: a fetch materialises exactly what they name.
        let mut key_domains: Vec<(&str, usize)> = Vec::new();
        let mut resolve = |attr: &str| -> Result<Option<MemberCodes<'a>>> {
            let (di, ai) = warehouse.find_attribute(attr)?;
            let dim = warehouse.dimensions().get(di);
            let resolved = dim.and_then(|d| Some((d, d.members(ai)?, d.codes(ai)?)));
            let (dim, members, codes) = resolved
                .ok_or_else(|| Error::invalid(format!("dangling attribute index {di}.{ai}")))?;
            if schema.key_zone(&dim.name).is_none() {
                return Ok(None);
            }
            if !key_domains.iter().any(|(name, _)| *name == dim.name) {
                key_domains.push((&dim.name, dim.len()));
            }
            Ok(Some(MemberCodes {
                dimension: &dim.name,
                codes,
                members,
            }))
        };
        let mut axes = Vec::with_capacity(spec.axes.len());
        for attr in &spec.axes {
            match resolve(attr)? {
                Some(axis) => axes.push(axis),
                None => return Ok(None),
            }
        }
        // An attribute filter becomes the set of keys whose member is
        // allowed: the values are matched against the attribute's few
        // members once, then each key is an integer test.
        let mut allowed_by_dim: BTreeMap<&str, BTreeSet<u32>> = BTreeMap::new();
        for (attr, allowed) in spec.filter.attribute_conditions() {
            let Some(filtered) = resolve(attr)? else {
                return Ok(None);
            };
            let passes: Vec<bool> = (filtered.members.iter())
                .map(|member| allowed.contains(member))
                .collect();
            let keys = (0u32..)
                .zip(filtered.codes)
                .filter(|(_, &code)| passes.get(code as usize) == Some(&true))
                .map(|(key, _)| key);
            let keys: BTreeSet<u32> = match allowed_by_dim.get(filtered.dimension) {
                Some(earlier) => keys.filter(|key| earlier.contains(key)).collect(),
                None => keys.collect(),
            };
            allowed_by_dim.insert(filtered.dimension, keys);
        }
        let mut columns = key_domains
            .iter()
            .fold(ColumnSet::empty(), |set, (dim, _)| set.with_key(*dim));
        for (name, _, _) in spec.filter.measure_conditions() {
            if schema.measure_zone(name).is_none() {
                return Ok(None);
            }
            columns = columns.with_measure(name.clone());
        }
        match &spec.measure {
            MeasureRef::RowCount => {}
            MeasureRef::Measure(name) => {
                if schema.measure_zone(name).is_none() {
                    return Ok(None);
                }
                columns = columns.with_measure(name.clone());
            }
            MeasureRef::DistinctDegenerate(name) => {
                if !schema.has_degenerate(name) {
                    return Ok(None);
                }
                columns = columns.with_degenerate(name.clone());
            }
        }
        // Dense lanes need a bounded domain; a spec over attributes
        // with too many members goes to the row loop.
        let cards: Vec<u32> = axes.iter().map(|a| a.members.len() as u32).collect();
        let Some(layout) = GroupLayout::try_new(&cards) else {
            return Ok(None);
        };
        // Keys past the largest allowed key are non-members by
        // construction, so a LUT only needs to reach that far.
        let key_filters = allowed_by_dim
            .into_iter()
            .map(|(dim, allowed)| {
                let domain = allowed.last().map_or(0, |k| k + 1);
                let lut = KeyLut::new(domain, allowed.iter().copied());
                (dim, allowed, lut)
            })
            .collect();
        Ok(Some(SegmentedScan {
            warehouse,
            spec,
            axes,
            layout,
            key_filters,
            key_domains,
            columns,
            metas,
            watermark: seg.watermark(),
        }))
    }

    /// Could any row of the segment behind `meta` pass the filter?
    fn survives_zones(&self, meta: &SegmentMeta) -> bool {
        for (dim, allowed, _) in &self.key_filters {
            if let Some(zone) = meta.key_zone(dim) {
                if !zone.may_contain_any(allowed) {
                    return false;
                }
            }
        }
        for (name, lo, hi) in self.spec.filter.measure_conditions() {
            if let Some(zone) = meta.measure_zone(name) {
                if !zone.may_overlap(*lo, *hi) {
                    return false;
                }
            }
        }
        true
    }

    /// Fetch one surviving segment and prove, from its zone maps
    /// alone, that every key the scan will read resolves: a key past
    /// its dimension table is a typed error here, never a row counted
    /// in some other cell.
    fn fetch(&self, id: u64) -> Result<Arc<Segment>> {
        fault::point("olap.segment_scan").map_err(|e| Error::invalid(e.to_string()))?;
        let segment = self.warehouse.fetch_segment(id, &self.columns)?;
        for (dim, len) in &self.key_domains {
            match segment.meta.key_zone(dim) {
                Some(zone) if zone.min <= zone.max && zone.max as usize >= *len => {
                    let key = zone.max;
                    return Err(Error::invalid(format!(
                        "dangling key {key} in dimension `{dim}` (segment {id})"
                    )));
                }
                _ => {}
            }
        }
        Ok(segment)
    }

    /// Vectorized scan of one morsel: fold every predicate into a
    /// selection bitmap, compose dense group ids for the survivors,
    /// then stream them into the aggregate lanes. The scratch vectors
    /// in `state` are reused across morsels.
    fn scan_morsel(
        &self,
        segment: &Segment,
        rows: Range<usize>,
        state: &mut KernelState,
    ) -> Result<()> {
        let slice = segment.slice(rows)?;
        let missing = |what: &str| Error::invalid(format!("segment slice lacks column `{what}`"));
        let mut bitmap = SelectionBitmap::all(slice.len());
        for (dim, _, lut) in &self.key_filters {
            bitmap.and_key_in(slice.key_slice(dim).ok_or_else(|| missing(dim))?, lut);
        }
        for (name, lo, hi) in self.spec.filter.measure_conditions() {
            let m = slice.measure_slice(name).ok_or_else(|| missing(name))?;
            bitmap.and_measure_between(m.values, m.valid, *lo, *hi);
        }
        let KernelState { lanes, sel, gids } = state;
        sel.clear();
        bitmap.collect_into(sel);
        if sel.is_empty() {
            return Ok(());
        }
        let axes = self
            .axes
            .iter()
            .map(|a| match slice.key_slice(a.dimension) {
                Some(keys) => Ok((keys, a.codes)),
                None => Err(missing(a.dimension)),
            })
            .collect::<Result<Vec<_>>>()?;
        gids.clear();
        self.layout.compose(&axes, sel, gids);
        match &self.spec.measure {
            MeasureRef::RowCount => lanes.accumulate_rows(gids),
            MeasureRef::Measure(name) => {
                let m = slice.measure_slice(name).ok_or_else(|| missing(name))?;
                lanes.accumulate_measure(gids, sel, m.values, m.valid);
            }
            MeasureRef::DistinctDegenerate(name) => {
                let vals = slice.degenerate_slice(name).ok_or_else(|| missing(name))?;
                lanes.accumulate_distinct(gids, sel, vals);
            }
        }
        Ok(())
    }

    /// Run the scan: prune on zone maps, cut the survivors into
    /// morsels and run each through the kernels into one set of lanes,
    /// decode the occupied group ids straight to member values, then
    /// fold the mutable tail through the row loop.
    fn execute(&self) -> Result<(Cells, ScanStats)> {
        let survivors: Vec<&Arc<SegmentMeta>> = self
            .metas
            .iter()
            .filter(|m| self.survives_zones(m))
            .collect();
        let mut stats = ScanStats {
            segments_total: self.metas.len() as u64,
            segments_pruned: (self.metas.len() - survivors.len()) as u64,
            rows_scanned: survivors.iter().map(|m| m.rows).sum(),
            morsels_executed: 0,
        };
        let kind = match &self.spec.measure {
            MeasureRef::RowCount => LaneKind::Rows,
            MeasureRef::Measure(_) => LaneKind::Measure,
            MeasureRef::DistinctDegenerate(_) => LaneKind::Distinct,
        };
        let segment_rows: Vec<usize> = survivors.iter().map(|m| m.rows as usize).collect();
        let _watchdog = obs::task_scope("olap.morsel_scan", std::time::Duration::from_secs(60));
        let mut state = KernelState {
            lanes: AggLanes::new(kind, self.layout.groups()),
            sel: Vec::new(),
            gids: Vec::new(),
        };
        // Consecutive morsels of one segment share a single fetch,
        // even on cold backends.
        let mut cached: Option<(usize, Arc<Segment>)> = None;
        for m in morsels(&segment_rows, DEFAULT_MORSEL_ROWS) {
            let segment = match &cached {
                Some((s, seg)) if *s == m.segment => Arc::clone(seg),
                _ => {
                    let seg = self.fetch(survivors[m.segment].id)?;
                    cached = Some((m.segment, Arc::clone(&seg)));
                    seg
                }
            };
            let mut morsel_span = obs::span("olap.morsel");
            morsel_span.record("segment", survivors[m.segment].id);
            morsel_span.record("rows", m.rows.len());
            self.scan_morsel(&segment, m.rows, &mut state)?;
            stats.morsels_executed += 1;
        }
        // Members are distinct, so distinct group ids are distinct
        // coordinates: one cell each, nothing to merge.
        let mut cells = Cells::new();
        for (gid, cell) in state.lanes.into_cells() {
            let codes = self.layout.decode(gid);
            let coords = codes.iter().zip(&self.axes).map(|(&code, axis)| {
                axis.members.get(code as usize).cloned().ok_or_else(|| {
                    Error::invalid(format!("no member {code} in `{}`", axis.dimension))
                })
            });
            cells.insert(coords.collect::<Result<Vec<_>>>()?, cell);
        }

        // The mutable tail: rows appended since the last compaction.
        let tail = self.watermark..self.warehouse.n_facts();
        if !tail.is_empty() {
            stats.rows_scanned += tail.len() as u64;
            fold_rows(self.warehouse, self.spec, tail, &mut cells)?;
        }
        Ok((cells, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clinical_types::{DataType, FieldDef, Record, Schema, Table};
    use warehouse::{DimensionDef, FactDef, LoadPlan, StarSchema};

    #[test]
    fn fingerprint_ignores_conjunct_order() {
        let base = CubeSpec::count(vec!["A", "B"]).with_filter(
            CubeFilter::all()
                .equals("X", "yes")
                .measure_between("M", 1.0, 2.0),
        );
        let reordered = CubeSpec::count(vec!["A", "B"]).with_filter(
            CubeFilter::all()
                .measure_between("M", 1.0, 2.0)
                .equals("X", "yes"),
        );
        assert_eq!(base.fingerprint(), reordered.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_semantics() {
        let count = CubeSpec::count(vec!["A", "B"]);
        assert_ne!(
            count.fingerprint(),
            CubeSpec::count(vec!["B", "A"]).fingerprint()
        );
        assert_ne!(
            count.fingerprint(),
            CubeSpec::measure(vec!["A", "B"], Aggregate::Sum, "M").fingerprint()
        );
        assert_ne!(
            count.fingerprint(),
            count
                .clone()
                .with_filter(CubeFilter::all().equals("X", "yes"))
                .fingerprint()
        );
        // one_of value order is set-like.
        let ab = count
            .clone()
            .with_filter(CubeFilter::all().one_of("X", vec!["a".into(), "b".into()]));
        let ba = count
            .clone()
            .with_filter(CubeFilter::all().one_of("X", vec!["b".into(), "a".into()]));
        assert_eq!(ab.fingerprint(), ba.fingerprint());
    }

    fn demo_table(rows: Vec<(i64, &str, &str, &str, Option<f64>)>) -> Table {
        let schema = Schema::new(vec![
            FieldDef::required("PatientId", DataType::Int),
            FieldDef::nullable("Gender", DataType::Text),
            FieldDef::nullable("Age_Band", DataType::Text),
            FieldDef::nullable("DiabetesStatus", DataType::Text),
            FieldDef::nullable("FBG", DataType::Float),
        ])
        .unwrap();
        let records = rows
            .into_iter()
            .map(|(p, g, a, d, f)| {
                Record::new(vec![
                    Value::Int(p),
                    g.into(),
                    a.into(),
                    d.into(),
                    f.map(Value::Float).unwrap_or(Value::Null),
                ])
            })
            .collect();
        Table::from_rows(schema, records).unwrap()
    }

    fn demo_warehouse() -> Warehouse {
        let star = StarSchema::new(
            FactDef::new("Facts", vec!["FBG"], vec!["PatientId"]),
            vec![
                DimensionDef::new("Personal", vec!["Gender", "Age_Band"]),
                DimensionDef::new("Condition", vec!["DiabetesStatus"]),
            ],
        )
        .unwrap();
        // (pid, gender, age band, diabetes, fbg)
        let table = demo_table(vec![
            (1, "F", "60-80", "yes", Some(7.2)),
            (1, "F", "60-80", "yes", Some(7.8)),
            (2, "M", "60-80", "no", Some(5.1)),
            (3, "F", "40-60", "no", Some(5.4)),
            (4, "M", "60-80", "yes", None),
            (5, "F", "60-80", "no", Some(6.2)),
        ]);
        Warehouse::load(&LoadPlan::from_star(star), &table).unwrap()
    }

    fn k(parts: &[&str]) -> Vec<Value> {
        parts.iter().map(|s| Value::from(*s)).collect()
    }

    #[test]
    fn count_cube_by_two_axes() {
        let wh = demo_warehouse();
        let cube = Cube::build(&wh, &CubeSpec::count(vec!["Gender", "Age_Band"])).unwrap();
        assert_eq!(cube.value(&k(&["F", "60-80"])), Some(3.0));
        assert_eq!(cube.value(&k(&["M", "60-80"])), Some(2.0));
        assert_eq!(cube.value(&k(&["F", "40-60"])), Some(1.0));
        assert_eq!(cube.value(&k(&["M", "40-60"])), None);
        assert_eq!(cube.grand_total(), Some(6.0));
    }

    #[test]
    fn avg_cube_skips_missing_measures() {
        let wh = demo_warehouse();
        let cube = Cube::build(
            &wh,
            &CubeSpec::measure(vec!["DiabetesStatus"], Aggregate::Avg, "FBG"),
        )
        .unwrap();
        let yes = cube.value(&k(&["yes"])).unwrap();
        assert!((yes - 7.5).abs() < 1e-9); // (7.2+7.8)/2; NULL skipped
        let no = cube.value(&k(&["no"])).unwrap();
        assert!((no - (5.1 + 5.4 + 6.2) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn distinct_patients_cube() {
        let wh = demo_warehouse();
        let cube = Cube::build(
            &wh,
            &CubeSpec::distinct(vec!["DiabetesStatus"], "PatientId"),
        )
        .unwrap();
        // Diabetic attendances: patient 1 (twice) and 4 → 2 patients.
        assert_eq!(cube.value(&k(&["yes"])), Some(2.0));
        assert_eq!(cube.value(&k(&["no"])), Some(3.0));
    }

    #[test]
    fn filter_restricts_rows() {
        let wh = demo_warehouse();
        let spec = CubeSpec::count(vec!["Gender"])
            .with_filter(CubeFilter::all().equals("DiabetesStatus", "yes"));
        let cube = Cube::build(&wh, &spec).unwrap();
        assert_eq!(cube.value(&k(&["F"])), Some(2.0));
        assert_eq!(cube.value(&k(&["M"])), Some(1.0));
    }

    #[test]
    fn measure_range_filter() {
        let wh = demo_warehouse();
        let spec = CubeSpec::count(vec!["Gender"])
            .with_filter(CubeFilter::all().measure_between("FBG", 5.5, 7.5));
        let cube = Cube::build(&wh, &spec).unwrap();
        // FBG in [5.5,7.5): 7.2 (F), 6.2 (F) → F=2; M none (5.1 below).
        assert_eq!(cube.value(&k(&["F"])), Some(2.0));
        assert_eq!(cube.value(&k(&["M"])), None);
    }

    #[test]
    fn slice_removes_axis_and_filters() {
        let wh = demo_warehouse();
        let cube = Cube::build(&wh, &CubeSpec::count(vec!["Gender", "Age_Band"])).unwrap();
        let sliced = cube.slice("Age_Band", &Value::from("60-80")).unwrap();
        assert_eq!(sliced.axes, vec!["Gender"]);
        assert_eq!(sliced.value(&k(&["F"])), Some(3.0));
        assert_eq!(sliced.value(&k(&["M"])), Some(2.0));
    }

    #[test]
    fn dice_keeps_axis() {
        let wh = demo_warehouse();
        let cube = Cube::build(&wh, &CubeSpec::count(vec!["Gender", "Age_Band"])).unwrap();
        let diced = cube.dice("Age_Band", &[Value::from("40-60")]).unwrap();
        assert_eq!(diced.axes.len(), 2);
        assert_eq!(diced.value(&k(&["F", "40-60"])), Some(1.0));
        assert_eq!(diced.value(&k(&["F", "60-80"])), None);
    }

    #[test]
    fn roll_up_merges_exactly() {
        let wh = demo_warehouse();
        let fine = Cube::build(&wh, &CubeSpec::count(vec!["Gender", "Age_Band"])).unwrap();
        let coarse = fine.roll_up("Age_Band").unwrap();
        let direct = Cube::build(&wh, &CubeSpec::count(vec!["Gender"])).unwrap();
        for v in coarse.axis_values("Gender").unwrap() {
            assert_eq!(
                coarse.value(std::slice::from_ref(&v)),
                direct.value(std::slice::from_ref(&v))
            );
        }
    }

    #[test]
    fn roll_up_of_avg_is_exact() {
        let wh = demo_warehouse();
        let fine = Cube::build(
            &wh,
            &CubeSpec::measure(vec!["Gender", "Age_Band"], Aggregate::Avg, "FBG"),
        )
        .unwrap();
        let coarse = fine.roll_up("Age_Band").unwrap();
        let direct = Cube::build(
            &wh,
            &CubeSpec::measure(vec!["Gender"], Aggregate::Avg, "FBG"),
        )
        .unwrap();
        for v in direct.axis_values("Gender").unwrap() {
            let a = coarse.value(std::slice::from_ref(&v)).unwrap();
            let b = direct.value(&[v]).unwrap();
            assert!((a - b).abs() < 1e-12, "roll-up avg {a} != direct {b}");
        }
    }

    #[test]
    fn roll_up_of_distinct_is_exact() {
        let wh = demo_warehouse();
        let fine = Cube::build(
            &wh,
            &CubeSpec::distinct(vec!["Gender", "DiabetesStatus"], "PatientId"),
        )
        .unwrap();
        let coarse = fine.roll_up("Gender").unwrap();
        // Patient 1 appears twice under yes/F: distinct must still be 2
        // for yes overall (patients 1 and 4).
        assert_eq!(coarse.value(&k(&["yes"])), Some(2.0));
    }

    #[test]
    fn top_k_ranks_descending_with_stable_ties() {
        let wh = demo_warehouse();
        let cube = Cube::build(&wh, &CubeSpec::count(vec!["Gender", "Age_Band"])).unwrap();
        let top = cube.top_k(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0], (k(&["F", "60-80"]), 3.0));
        assert_eq!(top[1], (k(&["M", "60-80"]), 2.0));
        // k larger than the cube returns everything.
        assert_eq!(cube.top_k(100).len(), cube.n_cells());
        assert!(cube.top_k(0).is_empty());
    }

    #[test]
    fn apply_delta_matches_rebuild_for_additive_aggregates() {
        let specs = vec![
            CubeSpec::count(vec!["Gender", "Age_Band"]),
            CubeSpec::measure(vec!["Gender"], Aggregate::Sum, "FBG"),
            CubeSpec::measure(vec!["DiabetesStatus"], Aggregate::Avg, "FBG"),
            CubeSpec::measure(vec!["Gender"], Aggregate::Min, "FBG"),
            CubeSpec::measure(vec!["Gender"], Aggregate::Max, "FBG"),
            CubeSpec::count(vec!["Gender"])
                .with_filter(CubeFilter::all().equals("DiabetesStatus", "yes")),
            CubeSpec::count(vec!["Gender"])
                .with_filter(CubeFilter::all().measure_between("FBG", 5.5, 9.0)),
        ];
        for spec in specs {
            let mut wh = demo_warehouse();
            let epoch0 = wh.epoch();
            let mut patched = Cube::build(&wh, &spec).unwrap();
            // New max (9.9), new min (3.0), a NULL, and a fresh cell
            // coordinate ("M", "40-60") — every accumulator path.
            wh.append(&demo_table(vec![
                (6, "M", "40-60", "yes", Some(9.9)),
                (7, "F", "60-80", "no", Some(3.0)),
                (2, "M", "60-80", "yes", None),
            ]))
            .unwrap();
            for delta in wh.deltas_since(epoch0).unwrap() {
                assert!(
                    patched.apply_delta(&wh, &spec, &delta).unwrap(),
                    "{spec:?} should patch"
                );
            }
            let rebuilt = Cube::build(&wh, &spec).unwrap();
            assert_eq!(patched, rebuilt, "{spec:?}");
        }
    }

    #[test]
    fn apply_delta_rejects_distinct_and_rewrites() {
        let mut wh = demo_warehouse();
        let epoch0 = wh.epoch();

        let distinct = CubeSpec::distinct(vec!["Gender"], "PatientId");
        assert!(!Cube::supports_incremental(&distinct));
        let mut cube = Cube::build(&wh, &distinct).unwrap();
        wh.append(&demo_table(vec![(8, "F", "40-60", "no", Some(5.0))]))
            .unwrap();
        let deltas = wh.deltas_since(epoch0).unwrap();
        assert!(!cube.apply_delta(&wh, &distinct, &deltas[0]).unwrap());

        // A rewrite poisons even incrementally-maintainable specs.
        let count = CubeSpec::count(vec!["Gender"]);
        let mut cube = Cube::build(&wh, &count).unwrap();
        let before = wh.epoch();
        wh.bump_epoch();
        let deltas = wh.deltas_since(before).unwrap();
        assert!(deltas[0].rewrote_existing);
        assert!(!cube.apply_delta(&wh, &count, &deltas[0]).unwrap());
    }

    #[test]
    fn structural_delta_is_noop_unless_the_spec_reads_it() {
        let mut wh = demo_warehouse();
        let spec = CubeSpec::count(vec!["Gender"]);
        let mut cube = Cube::build(&wh, &spec).unwrap();
        let epoch0 = wh.epoch();
        let labels = vec![Value::from("a"); wh.n_facts()];
        wh.add_feedback_dimension("Review", "Flag", labels).unwrap();
        let deltas = wh.deltas_since(epoch0).unwrap();
        // The new dimension is outside the spec's footprint: provably
        // a no-op, and the patched cube still matches a rebuild.
        assert!(cube.apply_delta(&wh, &spec, &deltas[0]).unwrap());
        assert_eq!(cube, Cube::build(&wh, &spec).unwrap());

        // A structural delta naming a dimension the spec *does* read
        // forces a rebuild.
        let n = wh.n_facts();
        let touching = warehouse::DeltaSummary {
            from_epoch: wh.epoch(),
            to_epoch: wh.epoch() + 1,
            kind: warehouse::DeltaKind::Feedback,
            dimensions: ["Personal".to_string()].into_iter().collect(),
            appended: n..n,
            rewrote_existing: false,
        };
        assert!(!cube.apply_delta(&wh, &spec, &touching).unwrap());
    }

    #[test]
    fn apply_delta_rejects_a_foreign_spec() {
        let wh = demo_warehouse();
        let spec = CubeSpec::count(vec!["Gender"]);
        let mut cube = Cube::build(&wh, &spec).unwrap();
        let other = CubeSpec::count(vec!["Age_Band"]);
        let n = wh.n_facts();
        let delta = warehouse::DeltaSummary {
            from_epoch: wh.epoch(),
            to_epoch: wh.epoch() + 1,
            kind: warehouse::DeltaKind::Append,
            dimensions: Default::default(),
            appended: n..n,
            rewrote_existing: false,
        };
        assert!(cube.apply_delta(&wh, &other, &delta).is_err());
    }

    #[test]
    fn empty_axes_rejected() {
        let wh = demo_warehouse();
        assert!(Cube::build(&wh, &CubeSpec::count(vec![])).is_err());
    }

    #[test]
    fn axis_values_are_sorted() {
        let wh = demo_warehouse();
        let cube = Cube::build(&wh, &CubeSpec::count(vec!["Age_Band"])).unwrap();
        let values = cube.axis_values("Age_Band").unwrap();
        assert_eq!(values, vec![Value::from("40-60"), Value::from("60-80")]);
        assert!(cube.axis_values("Nope").is_err());
    }

    // ---- segmented scans -------------------------------------------------

    /// The row loop over the whole fact table, whatever is sealed: the
    /// oracle the segmented paths must agree with.
    fn row_loop(wh: &Warehouse, spec: &CubeSpec) -> Cube {
        let mut cells = Cells::new();
        fold_rows(wh, spec, 0..wh.n_facts(), &mut cells).unwrap();
        Cube {
            axes: spec.axes.clone(),
            measure: spec.measure.clone(),
            agg: spec.agg,
            cells,
        }
    }

    /// Warehouse with an append-order-correlated `Age_Band` (so zone
    /// maps discriminate between segments) and dyadic FBG values (so
    /// sums are order-insensitive). 8 rows per band, 3 bands.
    fn banded_warehouse() -> Warehouse {
        let star = StarSchema::new(
            FactDef::new("Facts", vec!["FBG"], vec!["PatientId"]),
            vec![
                DimensionDef::new("Personal", vec!["Gender", "Age_Band"]),
                DimensionDef::new("Condition", vec!["DiabetesStatus"]),
            ],
        )
        .unwrap();
        let mut rows = Vec::new();
        for (b, band) in ["20-40", "40-60", "60-80"].iter().enumerate() {
            for i in 0..8i64 {
                let gender = if i % 2 == 0 { "F" } else { "M" };
                let status = if i % 4 == 0 { "yes" } else { "no" };
                let fbg = 4.0 + b as f64 + i as f64 * 0.25;
                rows.push((b as i64 * 8 + i, gender, *band, status, Some(fbg)));
            }
        }
        Warehouse::load(&LoadPlan::from_star(star), &demo_table(rows)).unwrap()
    }

    fn compact_small(wh: &mut Warehouse) {
        wh.compact_with(&warehouse::CompactionConfig {
            target_rows_per_segment: 8,
        })
        .unwrap();
    }

    #[test]
    fn segmented_build_matches_the_row_loop_for_every_measure_kind() {
        let mut wh = banded_warehouse();
        compact_small(&mut wh);
        let specs = [
            CubeSpec::count(vec!["Gender", "Age_Band"]),
            CubeSpec::measure(vec!["Age_Band"], Aggregate::Sum, "FBG"),
            CubeSpec::measure(vec!["Gender"], Aggregate::Avg, "FBG"),
            CubeSpec::measure(vec!["Age_Band"], Aggregate::Min, "FBG"),
            CubeSpec::measure(vec!["Gender"], Aggregate::Max, "FBG"),
            CubeSpec::distinct(vec!["DiabetesStatus"], "PatientId"),
            CubeSpec::distinct(vec!["Gender"], "PatientId").with_filter(
                CubeFilter::all()
                    .equals("DiabetesStatus", "no")
                    .measure_between("FBG", 4.5, 6.5),
            ),
        ];
        for spec in specs {
            let (seg, stats) = Cube::build_with_stats(&wh, &spec).unwrap();
            assert_eq!(seg, row_loop(&wh, &spec), "spec {}", spec.fingerprint());
            assert_eq!(stats.segments_total, 3);
            assert!(stats.morsels_executed > 0, "kernel path must run");
            if spec.filter.is_empty() {
                assert_eq!(stats.segments_pruned, 0, "no filter, nothing to prune");
                assert_eq!(stats.rows_scanned, wh.n_facts() as u64);
            }
        }
    }

    #[test]
    fn zone_maps_prune_segments_on_attribute_filters() {
        let mut wh = banded_warehouse();
        compact_small(&mut wh);
        let spec = CubeSpec::count(vec!["Gender"])
            .with_filter(CubeFilter::all().equals("Age_Band", "40-60"));
        let (cube, stats) = Cube::build_with_stats(&wh, &spec).unwrap();
        assert_eq!(cube, row_loop(&wh, &spec));
        assert_eq!(stats.segments_total, 3);
        assert_eq!(stats.segments_pruned, 2, "only the 40-60 segment survives");
        assert_eq!(stats.rows_scanned, 8);
        assert_eq!(cube.value(&k(&["F"])), Some(4.0));
    }

    #[test]
    fn zone_maps_prune_segments_on_measure_filters() {
        let mut wh = banded_warehouse();
        compact_small(&mut wh);
        // FBG lives in [4.0, 5.75] / [5.0, 6.75] / [6.0, 7.75] per
        // band segment; [7.0, 9.0) overlaps only the last.
        let spec = CubeSpec::count(vec!["Age_Band"])
            .with_filter(CubeFilter::all().measure_between("FBG", 7.0, 9.0));
        let (cube, stats) = Cube::build_with_stats(&wh, &spec).unwrap();
        assert_eq!(cube, row_loop(&wh, &spec));
        assert_eq!(stats.segments_pruned, 2);
        assert_eq!(stats.rows_scanned, 8);
        assert_eq!(cube.grand_total(), Some(4.0)); // 7.0, 7.25, 7.5, 7.75
    }

    #[test]
    fn segmented_build_folds_the_mutable_tail() {
        let mut wh = banded_warehouse();
        compact_small(&mut wh);
        // Appended after compaction: lives in the tail, not a segment.
        // The last row brings a tuple and a member ("80+") no sealed
        // row has.
        let tail = demo_table(vec![
            (100, "F", "40-60", "yes", Some(5.5)),
            (101, "M", "40-60", "no", Some(5.25)),
            (102, "F", "80+", "yes", Some(6.0)),
        ]);
        wh.append(&tail).unwrap();
        let spec = CubeSpec::count(vec!["Gender"])
            .with_filter(CubeFilter::all().equals("Age_Band", "40-60"));
        let (cube, stats) = Cube::build_with_stats(&wh, &spec).unwrap();
        assert_eq!(cube, row_loop(&wh, &spec));
        assert_eq!(stats.segments_pruned, 2, "tail does not disable pruning");
        assert_eq!(stats.rows_scanned, 8 + 3);
        assert_eq!(cube.value(&k(&["F"])), Some(5.0));
        assert_eq!(cube.value(&k(&["M"])), Some(5.0));

        let by_band = CubeSpec::measure(vec!["Age_Band", "Gender"], Aggregate::Sum, "FBG");
        let (cube, stats) = Cube::build_with_stats(&wh, &by_band).unwrap();
        assert_eq!(cube, row_loop(&wh, &by_band));
        assert!(stats.morsels_executed > 0, "the sealed part: {stats:?}");
        assert_eq!(cube.value(&k(&["80+", "F"])), Some(6.0));
    }

    /// 300 rows over `A` (300 members), `B` (300) and `C` (5), sealed
    /// 100 rows to a segment.
    fn wide_warehouse(dimensions: Vec<DimensionDef>) -> Warehouse {
        let star = StarSchema::new(FactDef::new("Facts", vec!["M"], vec![]), dimensions).unwrap();
        let schema = Schema::new(vec![
            FieldDef::nullable("A", DataType::Text),
            FieldDef::nullable("B", DataType::Text),
            FieldDef::nullable("C", DataType::Text),
            FieldDef::nullable("M", DataType::Float),
        ])
        .unwrap();
        let rows: Vec<Record> = (0..300)
            .map(|i| {
                Record::new(vec![
                    format!("a{i}").into(),
                    format!("b{i}").into(),
                    format!("c{}", i % 5).into(),
                    (i as f64 * 0.25).into(),
                ])
            })
            .collect();
        let mut wh = Warehouse::load(
            &LoadPlan::from_star(star),
            &Table::from_rows(schema, rows).unwrap(),
        )
        .unwrap();
        wh.compact_with(&warehouse::CompactionConfig {
            target_rows_per_segment: 100,
        })
        .unwrap();
        wh
    }

    #[test]
    fn oversized_group_domain_falls_back_to_the_row_loop() {
        // Two 300-member attributes: the dense domain (300 × 300 =
        // 90 000) exceeds MAX_DENSE_GROUPS, so the plan declines and
        // the row loop answers the whole table.
        let wh = wide_warehouse(vec![
            DimensionDef::new("D1", vec!["A"]),
            DimensionDef::new("D2", vec!["B"]),
            DimensionDef::new("D3", vec!["C"]),
        ]);
        let wide = CubeSpec::measure(vec!["A", "B"], Aggregate::Sum, "M");
        let (cube, stats) = Cube::build_with_stats(&wh, &wide).unwrap();
        assert_eq!(cube, row_loop(&wh, &wide));
        assert_eq!(
            stats.morsels_executed, 0,
            "dense lanes must refuse 90k groups"
        );
        assert_eq!(stats.segments_total, 0, "the row loop answered");

        let narrow = CubeSpec::measure(vec!["B"], Aggregate::Sum, "M");
        let (cube2, stats2) = Cube::build_with_stats(&wh, &narrow).unwrap();
        assert_eq!(cube2, row_loop(&wh, &narrow));
        assert!(stats2.morsels_executed > 0, "300 groups fit dense lanes");
    }

    #[test]
    fn same_dimension_axes_compose_their_member_codes() {
        // All three attributes live in one 300-tuple dimension (the
        // paper model's shape: Gender and Age_Band share the personal
        // dimension). Each axis contributes its own member count, so
        // the kernels run while the member product fits (300 × 5) —
        // a repeated axis included — and 300 × 300 goes to the row
        // loop like any other oversized domain.
        let wh = wide_warehouse(vec![DimensionDef::new("D", vec!["A", "B", "C"])]);
        for axes in [vec!["A", "C"], vec!["C", "A", "C"]] {
            let spec = CubeSpec::measure(axes, Aggregate::Sum, "M");
            let (cube, stats) = Cube::build_with_stats(&wh, &spec).unwrap();
            assert_eq!(cube, row_loop(&wh, &spec));
            assert_eq!(cube.n_cells(), 300);
            assert!(stats.morsels_executed > 0, "{:?}: {stats:?}", spec.axes);
        }
        let square = CubeSpec::measure(vec!["A", "B"], Aggregate::Sum, "M");
        let (cube, stats) = Cube::build_with_stats(&wh, &square).unwrap();
        assert_eq!(cube, row_loop(&wh, &square));
        assert_eq!(stats.segments_total, 0, "{stats:?}");
    }

    #[test]
    fn planned_columns_are_exactly_what_the_spec_reads() {
        let mut wh = banded_warehouse();
        compact_small(&mut wh);
        let planned = |spec: CubeSpec| SegmentedScan::plan(&wh, &spec).unwrap().unwrap().columns;
        // Axis dimensions only: no measure, no other key column.
        assert_eq!(
            planned(CubeSpec::count(vec!["Gender", "Age_Band"])),
            ColumnSet::empty().with_key("Personal")
        );
        // Axis and filter dimensions, aggregated and filtered measure.
        let filter = CubeFilter::all()
            .equals("DiabetesStatus", "yes")
            .measure_between("FBG", 0.0, 9.0);
        assert_eq!(
            planned(CubeSpec::count(vec!["Gender"]).with_filter(filter)),
            ColumnSet::empty()
                .with_key("Personal")
                .with_key("Condition")
                .with_measure("FBG")
        );
        let avg = CubeSpec::measure(vec!["DiabetesStatus"], Aggregate::Avg, "FBG");
        let condition = ColumnSet::empty().with_key("Condition");
        assert_eq!(planned(avg), condition.with_measure("FBG"));
        // A degenerate column is fetched only for distinct counting.
        assert_eq!(
            planned(CubeSpec::distinct(vec!["Age_Band"], "PatientId")),
            ColumnSet::empty()
                .with_key("Personal")
                .with_degenerate("PatientId")
        );
    }

    /// A backend whose fetched segments carry keys past every
    /// dimension table (the zone maps, recomputed, say so).
    #[derive(Debug)]
    struct ShiftedKeys(segstore::MemoryBackend);

    impl segstore::SegmentBackend for ShiftedKeys {
        fn put(&self, segment: Segment) -> Result<()> {
            self.0.put(segment)
        }
        fn fetch(&self, id: u64, columns: &ColumnSet) -> Result<Arc<Segment>> {
            let sealed = self.0.fetch(id, columns)?;
            let mut keys = sealed.keys.clone();
            for key in keys.iter_mut().flat_map(|(_, column)| column.iter_mut()) {
                *key += 1000;
            }
            let (measures, degenerates) = (sealed.measures.clone(), sealed.degenerates.clone());
            Segment::assemble(id, keys, measures, degenerates).map(Arc::new)
        }
        fn metas(&self) -> Result<Vec<SegmentMeta>> {
            self.0.metas()
        }
        fn list(&self) -> Result<Vec<u64>> {
            self.0.list()
        }
        fn remove(&self, id: u64) -> Result<()> {
            self.0.remove(id)
        }
        fn kind(&self) -> &'static str {
            "shifted"
        }
    }

    #[test]
    fn a_dangling_sealed_key_is_a_typed_error_not_a_miscounted_row() {
        let mut wh = banded_warehouse();
        wh.set_segment_backend(Arc::new(ShiftedKeys(segstore::MemoryBackend::new())))
            .unwrap();
        compact_small(&mut wh);
        // Grouped, and merely filtered: both dimensions are checked.
        let grouped = CubeSpec::count(vec!["Gender"]);
        let filtered = CubeSpec::count(vec!["DiabetesStatus"])
            .with_filter(CubeFilter::all().equals("Age_Band", "40-60"));
        for (spec, dim) in [(grouped, "Personal"), (filtered, "Condition")] {
            let err = Cube::build_with_stats(&wh, &spec).unwrap_err().to_string();
            assert!(err.contains("dangling key"), "{err}");
            assert!(err.contains(dim), "{err}");
        }
    }

    #[test]
    fn feedback_dimension_after_compaction_falls_back_to_the_row_loop() {
        let mut wh = banded_warehouse();
        compact_small(&mut wh);
        let labels: Vec<Value> = (0..wh.n_facts() as i64).map(Value::Int).collect();
        wh.add_feedback_dimension("Review", "Flag", labels).unwrap();
        // The sealed schema lacks the Review key column, so a spec
        // reading it is answered by the row loop over the whole table;
        // a spec that doesn't read it keeps scanning segments.
        let spec = CubeSpec::count(vec!["Flag"]);
        let (cube, stats) = Cube::build_with_stats(&wh, &spec).unwrap();
        assert_eq!(stats.segments_total, 0, "no segment was considered");
        assert_eq!(stats.rows_scanned, wh.n_facts() as u64);
        assert_eq!(cube.grand_total(), Some(wh.n_facts() as f64));
        let unrelated = CubeSpec::count(vec!["Gender"]);
        let (cube2, stats2) = Cube::build_with_stats(&wh, &unrelated).unwrap();
        assert_eq!(cube2, row_loop(&wh, &unrelated));
        assert_eq!(stats2.segments_total, 3);
        assert_eq!(stats2.rows_scanned, wh.n_facts() as u64);
        // Re-compacting seals the new dimension and re-enables the
        // segmented path for it.
        compact_small(&mut wh);
        let (cube3, stats3) = Cube::build_with_stats(&wh, &spec).unwrap();
        assert_eq!(cube3, cube);
        assert_eq!(stats3.segments_total, 3);
    }

    #[test]
    fn segment_scan_faults_fail_the_build_cleanly() {
        let _guard = fault::test_support::fault_lock();
        let mut wh = banded_warehouse();
        compact_small(&mut wh);
        let spec = CubeSpec::count(vec!["Gender"]);
        {
            let _fp = fault::arm(
                "olap.segment_scan",
                fault::Trigger::Once,
                fault::FaultKind::Error,
            );
            assert!(Cube::build_with_stats(&wh, &spec).is_err());
        }
        // Faults exhausted: the same build now succeeds.
        assert!(Cube::build_with_stats(&wh, &spec).is_ok());
    }
}
