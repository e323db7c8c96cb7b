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
//!
//! Builds and delta patches run one loop — filter bitmap, member-code
//! slots, aggregate lanes ([`crate::kernels`]) — morsel by morsel over
//! sealed segments where they answer and fact-table columns elsewhere.

use crate::aggregate::{Aggregate, CellStats, MeasureRef};
use crate::kernels::{
    morsels, AggLanes, GroupLayout, KeyLut, LaneKind, SelectionBitmap, DEFAULT_MORSEL_ROWS,
};
use clinical_types::{Error, Result, Value};
use segstore::{ColumnSet, Segment, SegmentMeta};
use std::collections::{BTreeSet, HashMap};
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
    /// There is nothing to configure: whether the morsels read sealed
    /// segments (see [`ScanStats`]) follows from the warehouse's
    /// sealed state and the spec alone.
    pub fn build_with_stats(warehouse: &Warehouse, spec: &CubeSpec) -> Result<(Cube, ScanStats)> {
        let mut span = obs::span("olap.cube_build");
        let (cells, stats) = SegmentedScan::plan(warehouse, spec)?.execute()?;
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
            let touched = |attr: &str| match warehouse.find_attribute(attr) {
                Ok((di, _)) => delta.dimensions.contains(&warehouse.dimensions()[di].name),
                Err(_) => true,
            };
            if spec.dimension_attributes().any(touched) {
                return Ok(false);
            }
        }
        let rows = delta.appended.clone();
        if rows.is_empty() {
            return Ok(true);
        }
        let n = warehouse.n_facts();
        if rows.end > n {
            let what = format!("delta appends rows {rows:?} but the warehouse has {n} facts");
            return Err(Error::invalid(what));
        }
        let mut span = obs::span("olap.cube_apply_delta");
        // Each group the appended rows reach starts from its retained
        // cell and takes the rows on top, in row order — the float
        // additions a rebuild makes — and is written back.
        let scan = SegmentedScan::plan(warehouse, spec)?;
        let mut state = scan.state(Some(&self.cells))?;
        scan.fold_facts(rows.clone(), &mut state)?;
        let (lanes, mut coords) = (state.lanes, state.coords);
        for (slot, cell) in lanes.into_cells() {
            let at = std::mem::take(&mut coords[slot as usize]);
            self.cells.insert(at, cell);
        }
        span.record("appended", rows.len());
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

/// Volume statistics of one cube build: how much of the warehouse the
/// scan touched, and how much pruning avoided. Every build runs one
/// loop — filter bitmap, member-code slots, aggregate lanes — morsel
/// by morsel; the fields say which columns the morsels read:
///
/// | observed | morsels over |
/// |---|---|
/// | `segments_total == 0` | fact-table columns, every row |
/// | `segments_total > 0` | the zone-map survivors, then the fact rows behind the sealed prefix |
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Sealed segments the build considered: 0 when nothing is sealed
    /// or the sealed rows cannot answer the spec (a rewrite or an
    /// aged-out delta log since compaction, or a column the sealed
    /// schema lacks), so every row is read from the fact table.
    pub segments_total: u64,
    /// Sealed segments skipped on zone-map evidence alone — never
    /// fetched, never decoded.
    pub segments_pruned: u64,
    /// Fact rows actually visited (surviving segments plus the rows
    /// behind the sealed prefix, or the whole fact table).
    pub rows_scanned: u64,
    /// Morsels the kernels ran, sealed and fact-table ones alike (0
    /// only when no row was left to visit).
    pub morsels_executed: u64,
}

/// A spec resolved against one warehouse: builds and delta patches run
/// every morsel through [`SegmentedScan::scan_morsel`], over sealed
/// segments where [`SegmentedScan::sealed_part`] allows and fact-table
/// columns elsewhere.
struct SegmentedScan<'a> {
    warehouse: &'a Warehouse,
    spec: &'a CubeSpec,
    /// Every dimension whose key column the scan reads, with its key
    /// count: a sealed key at or past it is dangling.
    dims: Vec<(&'a str, usize)>,
    axes: Vec<MemberCodes<'a>>,
    /// Per filtered dimension (an index into `dims`): the keys whose
    /// tuples satisfy every attribute condition on that dimension.
    key_filters: Vec<(usize, KeyLut)>,
}

/// One dimension attribute as the kernels see it.
struct MemberCodes<'a> {
    /// Index into `SegmentedScan::dims` of the attribute's dimension.
    dim: usize,
    /// Surrogate key → member code.
    codes: &'a [u32],
    /// Member code → attribute value.
    members: &'a [Value],
}

/// Sealed segments that provably mirror fact rows `0..watermark` and
/// carry every column the spec reads.
struct Sealed {
    metas: Vec<Arc<SegmentMeta>>,
    watermark: usize,
    /// Columns a segment fetch must materialise.
    columns: ColumnSet,
    /// The keys of each key filter as a set, for the zone maps.
    zone_keys: Vec<BTreeSet<u32>>,
}

/// One morsel's columns, each resolved by name once, borrowed from a
/// sealed segment or the fact table alike.
struct MorselView<'v> {
    /// One key column per entry of `SegmentedScan::dims`, of which a
    /// scan has at least one (a cube has an axis): the morsel's length.
    keys: Vec<&'v [u32]>,
    /// Values and validity per measure-range filter, in filter order.
    ranges: Vec<(&'v [f64], &'v [bool])>,
    input: Input<'v>,
}

/// The column the lanes aggregate.
enum Input<'v> {
    Rows,
    Measure(&'v [f64], &'v [bool]),
    Distinct(&'v [Value]),
}

/// The lanes, the layout handing out their slots, and scratch vectors
/// reused across morsels.
struct KernelState<'c> {
    lanes: AggLanes,
    layout: GroupLayout,
    sel: Vec<u32>,
    gids: Vec<u32>,
    /// When patching: the retained cells a new slot starts from, and
    /// the coordinates of every slot handed out, for the write-back.
    seed: Option<&'c Cells>,
    coords: Vec<Vec<Value>>,
}

impl<'a> SegmentedScan<'a> {
    /// Resolve what every morsel needs, whichever columns it reads —
    /// the scan answers every buildable spec.
    fn plan(warehouse: &'a Warehouse, spec: &'a CubeSpec) -> Result<SegmentedScan<'a>> {
        if spec.axes.is_empty() {
            return Err(Error::invalid("a cube needs at least one axis"));
        }
        for (name, _, _) in spec.filter.measure_conditions() {
            warehouse.measure(name)?;
        }
        match &spec.measure {
            MeasureRef::RowCount => {}
            MeasureRef::Measure(name) => _ = warehouse.measure(name)?,
            MeasureRef::DistinctDegenerate(name) => _ = warehouse.degenerate_column(name)?,
        }
        let mut dims: Vec<(&str, usize)> = Vec::new();
        let mut resolve = |attr: &str| -> Result<MemberCodes<'a>> {
            let (di, ai) = warehouse.find_attribute(attr)?;
            let dim = warehouse.dimensions().get(di);
            let resolved = dim.and_then(|d| Some((d, d.members(ai)?, d.codes(ai)?)));
            let (dim, members, codes) = resolved
                .ok_or_else(|| Error::invalid(format!("dangling attribute index {di}.{ai}")))?;
            let index = dims.iter().position(|(name, _)| *name == dim.name);
            let index = index.unwrap_or_else(|| {
                dims.push((&dim.name, dim.len()));
                dims.len() - 1
            });
            Ok(MemberCodes {
                dim: index,
                codes,
                members,
            })
        };
        let axes = spec.axes.iter().map(|a| resolve(a));
        let axes = axes.collect::<Result<_>>()?;
        // An attribute filter becomes the set of keys whose member is
        // allowed: the values are matched against the attribute's few
        // members once, then each key is an integer test. Conditions
        // on one dimension intersect.
        let mut allowed: Vec<(usize, Vec<bool>)> = Vec::new();
        for (attr, values) in spec.filter.attribute_conditions() {
            let filtered = resolve(attr)?;
            let passes = filtered.members.iter().map(|m| values.contains(m));
            let passes: Vec<bool> = passes.collect();
            let keys = (filtered.codes.iter()).map(|&c| passes.get(c as usize) == Some(&true));
            match allowed.iter_mut().find(|(dim, _)| *dim == filtered.dim) {
                Some((_, earlier)) => earlier.iter_mut().zip(keys).for_each(|(e, k)| *e &= k),
                None => allowed.push((filtered.dim, keys.collect())),
            }
        }
        let key_filters = (allowed.into_iter())
            .map(|(dim, keys)| {
                let members = (0u32..).zip(&keys).filter(|(_, &ok)| ok);
                let members = members.map(|(key, _)| key);
                (dim, KeyLut::new(keys.len() as u32, members))
            })
            .collect();
        Ok(SegmentedScan {
            warehouse,
            spec,
            dims,
            axes,
            key_filters,
        })
    }

    /// The sealed segments, when they answer for fact rows
    /// `0..watermark`: nothing rewrote those rows since compaction (an
    /// aged-out delta log cannot prove that), and the sealed schema has
    /// every column the spec reads — exactly what a fetch materialises.
    fn sealed_part(&self) -> Option<Sealed> {
        let seg = self.warehouse.segments();
        if seg.watermark() == 0 || seg.is_empty() {
            return None;
        }
        match self.warehouse.deltas_since(seg.compacted_epoch()) {
            Some(chain) if !ChangeSet::fold(&chain).rewrote_existing => {}
            _ => return None,
        }
        let metas = seg.metas().to_vec();
        let schema = metas.first()?;
        let mut columns = ColumnSet::empty();
        for (dim, _) in &self.dims {
            schema.key_zone(dim)?;
            columns = columns.with_key(*dim);
        }
        let measures = (self.spec.filter.measure_conditions().iter()).map(|(m, _, _)| m);
        for name in measures.chain(match &self.spec.measure {
            MeasureRef::Measure(name) => Some(name),
            _ => None,
        }) {
            schema.measure_zone(name)?;
            columns = columns.with_measure(name.clone());
        }
        if let MeasureRef::DistinctDegenerate(name) = &self.spec.measure {
            schema.has_degenerate(name).then_some(())?;
            columns = columns.with_degenerate(name.clone());
        }
        let zone_keys = (self.key_filters.iter())
            .map(|(d, lut)| {
                (0..self.dims[*d].1 as u32)
                    .filter(|&k| lut.contains(k))
                    .collect()
            })
            .collect();
        Some(Sealed {
            watermark: seg.watermark(),
            metas,
            columns,
            zone_keys,
        })
    }

    /// Could any row of the segment behind `meta` pass the filter?
    fn survives_zones(&self, sealed: &Sealed, meta: &SegmentMeta) -> bool {
        let keys = self.key_filters.iter().zip(&sealed.zone_keys);
        let conditions = self.spec.filter.measure_conditions();
        keys.into_iter().all(|((dim, _), allowed)| {
            (meta.key_zone(self.dims[*dim].0)).is_none_or(|zone| zone.may_contain_any(allowed))
        }) && conditions.iter().all(|(name, lo, hi)| {
            (meta.measure_zone(name)).is_none_or(|zone| zone.may_overlap(*lo, *hi))
        })
    }

    /// Fetch one surviving segment and prove, from its zone maps
    /// alone, that every key the scan will read resolves: a key past
    /// its dimension table is a typed error here, never a row counted
    /// in some other cell. Fact-table keys were interned, so they need
    /// no such check.
    fn fetch(&self, sealed: &Sealed, id: u64) -> Result<Arc<Segment>> {
        fault::point("olap.segment_scan").map_err(|e| Error::invalid(e.to_string()))?;
        let segment = self.warehouse.fetch_segment(id, &sealed.columns)?;
        for (dim, len) in &self.dims {
            let zone = segment.meta.key_zone(dim);
            if let Some(zone) = zone.filter(|z| z.min <= z.max && z.max as usize >= *len) {
                let key = zone.max;
                return Err(Error::invalid(format!(
                    "dangling key {key} in dimension `{dim}` (segment {id})"
                )));
            }
        }
        Ok(segment)
    }

    /// Fresh lanes: dense wherever the group domain allows for a build
    /// (`seed: None`); sparse for a patch, so only the groups the rows
    /// reach get a slot, each seeded from its retained cell.
    fn state<'c>(&self, seed: Option<&'c Cells>) -> Result<KernelState<'c>> {
        let cards: Vec<u32> = self.axes.iter().map(|a| a.members.len() as u32).collect();
        let layout = match seed {
            None => GroupLayout::new(&cards),
            Some(_) => GroupLayout::sparse(&cards),
        };
        let layout = layout.ok_or_else(|| Error::invalid("the group domain overflows u64"))?;
        let kind = match &self.spec.measure {
            MeasureRef::RowCount => LaneKind::Rows,
            MeasureRef::Measure(_) => LaneKind::Measure,
            MeasureRef::DistinctDegenerate(_) => LaneKind::Distinct,
        };
        Ok(KernelState {
            lanes: AggLanes::new(kind, layout.slots()),
            layout,
            sel: Vec::new(),
            gids: Vec::new(),
            seed,
            coords: Vec::new(),
        })
    }

    /// Resolve every column a morsel reads, once: rows `rows` of the
    /// columns a sealed segment's or the fact table's lookups return.
    fn view<'v>(
        &self,
        rows: Range<usize>,
        keys: impl Fn(&str) -> Option<&'v [u32]>,
        measure: impl Fn(&str) -> Option<(&'v [f64], &'v [bool])>,
        degenerate: impl Fn(&str) -> Option<&'v [Value]>,
    ) -> Result<MorselView<'v>> {
        let missing = |what: &str| Error::invalid(format!("morsel lacks column `{what}`"));
        let keys = |dim: &str| keys(dim)?.get(rows.clone());
        let measure = |name: &str| {
            let (values, valid) = measure(name)?;
            Some((values.get(rows.clone())?, valid.get(rows.clone())?))
        };
        let keys = (self.dims.iter())
            .map(|(dim, _)| keys(dim).ok_or_else(|| missing(dim)))
            .collect::<Result<_>>()?;
        let ranges = (self.spec.filter.measure_conditions().iter())
            .map(|(name, _, _)| measure(name).ok_or_else(|| missing(name)))
            .collect::<Result<_>>()?;
        let input = match &self.spec.measure {
            MeasureRef::RowCount => Input::Rows,
            MeasureRef::Measure(name) => {
                let (values, valid) = measure(name).ok_or_else(|| missing(name))?;
                Input::Measure(values, valid)
            }
            MeasureRef::DistinctDegenerate(name) => {
                let values = degenerate(name).and_then(|col| col.get(rows.clone()));
                Input::Distinct(values.ok_or_else(|| missing(name))?)
            }
        };
        Ok(MorselView {
            keys,
            ranges,
            input,
        })
    }

    /// Vectorized scan of one morsel: fold every predicate into a
    /// selection bitmap, compose member-code slots for the survivors,
    /// then stream them into the aggregate lanes — a slot new to a
    /// patch first takes the retained cell at its coordinates.
    fn scan_morsel(&self, view: &MorselView<'_>, state: &mut KernelState<'_>) -> Result<()> {
        let mut bitmap = SelectionBitmap::all(view.keys.first().map_or(0, |k| k.len()));
        for (dim, lut) in &self.key_filters {
            bitmap.and_key_in(view.keys[*dim], lut);
        }
        let conditions = self.spec.filter.measure_conditions();
        for ((_, lo, hi), (values, valid)) in conditions.iter().zip(&view.ranges) {
            bitmap.and_measure_between(values, valid, *lo, *hi);
        }
        state.sel.clear();
        bitmap.collect_into(&mut state.sel);
        if state.sel.is_empty() {
            return Ok(());
        }
        let axes: Vec<_> = (self.axes.iter())
            .map(|a| (view.keys[a.dim], a.codes))
            .collect();
        state.gids.clear();
        let seen = state.layout.slots() as u32;
        state.layout.compose(&axes, &state.sel, &mut state.gids);
        state.lanes.grow(state.layout.slots());
        if let Some(cells) = state.seed {
            for slot in seen..state.layout.slots() as u32 {
                let at = self.coords(&state.layout.decode(slot))?;
                if let Some(cell) = cells.get(&at) {
                    state.lanes.seed(slot, cell);
                }
                state.coords.push(at);
            }
        }
        let (lanes, sel, gids) = (&mut state.lanes, &state.sel, &state.gids);
        match view.input {
            Input::Rows => lanes.accumulate_rows(gids),
            Input::Measure(values, valid) => lanes.accumulate_measure(gids, sel, values, valid),
            Input::Distinct(values) => lanes.accumulate_distinct(gids, sel, values),
        }
        Ok(())
    }

    /// Run fact rows `rows` through [`SegmentedScan::scan_morsel`] as
    /// morsels of fact-table columns; returns how many ran.
    fn fold_facts(&self, rows: Range<usize>, state: &mut KernelState<'_>) -> Result<u64> {
        let fact = self.warehouse.fact();
        let mut executed = 0;
        for m in morsels(&[rows.len()], DEFAULT_MORSEL_ROWS) {
            let r = rows.start + m.rows.start..rows.start + m.rows.end;
            let mut morsel_span = obs::span("olap.morsel");
            morsel_span.record("rows", r.len());
            let view = self.view(
                r,
                |dim| fact.keys_of(dim).ok(),
                |name| {
                    fact.measure(name)
                        .ok()
                        .map(|c| (&c.values[..], &c.valid[..]))
                },
                |name| fact.degenerate_column(name).ok(),
            )?;
            self.scan_morsel(&view, state)?;
            executed += 1;
        }
        Ok(executed)
    }

    /// Run the zone-map survivors, then the fact rows behind them (all
    /// of them when nothing sealed answers), morsel by morsel through
    /// the same loop into the same lanes.
    fn execute(&self) -> Result<(Cells, ScanStats)> {
        let _watchdog = obs::task_scope("olap.morsel_scan", std::time::Duration::from_secs(60));
        let mut state = self.state(None)?;
        let mut stats = ScanStats::default();
        let mut behind = 0;
        if let Some(sealed) = &self.sealed_part() {
            let survivors: Vec<&Arc<SegmentMeta>> = (sealed.metas.iter())
                .filter(|m| self.survives_zones(sealed, m))
                .collect();
            stats.segments_total = sealed.metas.len() as u64;
            stats.segments_pruned = (sealed.metas.len() - survivors.len()) as u64;
            stats.rows_scanned = survivors.iter().map(|m| m.rows).sum();
            let segment_rows: Vec<usize> = survivors.iter().map(|m| m.rows as usize).collect();
            // Consecutive morsels of one segment share a single fetch,
            // even on cold backends.
            let mut cached: Option<(usize, Arc<Segment>)> = None;
            for m in morsels(&segment_rows, DEFAULT_MORSEL_ROWS) {
                let segment = match &cached {
                    Some((s, seg)) if *s == m.segment => Arc::clone(seg),
                    _ => {
                        let seg = self.fetch(sealed, survivors[m.segment].id)?;
                        cached = Some((m.segment, Arc::clone(&seg)));
                        seg
                    }
                };
                let mut morsel_span = obs::span("olap.morsel");
                morsel_span.record("segment", survivors[m.segment].id);
                morsel_span.record("rows", m.rows.len());
                let view = self.view(
                    m.rows,
                    |dim| segment.key_column(dim),
                    |name| segment.measure_column(name),
                    |name| segment.degenerate_column(name),
                )?;
                self.scan_morsel(&view, &mut state)?;
                stats.morsels_executed += 1;
            }
            behind = sealed.watermark;
        }
        let rest = behind..self.warehouse.n_facts();
        stats.rows_scanned += rest.len() as u64;
        stats.morsels_executed += self.fold_facts(rest, &mut state)?;
        Ok((self.cells(state)?, stats))
    }

    /// The member values of one slot's codes, in axis order.
    fn coords(&self, codes: &[u32]) -> Result<Vec<Value>> {
        let member = |(&code, axis): (&u32, &MemberCodes)| axis.members.get(code as usize).cloned();
        let coords: Option<Vec<Value>> = codes.iter().zip(&self.axes).map(member).collect();
        coords.ok_or_else(|| Error::invalid(format!("no members for codes {codes:?}")))
    }

    /// One cell per occupied slot. Members are distinct, so distinct
    /// slots are distinct coordinates: nothing to merge.
    fn cells(&self, state: KernelState<'_>) -> Result<Cells> {
        let KernelState { lanes, layout, .. } = state;
        (lanes.into_cells().into_iter())
            .map(|(slot, cell)| Ok((self.coords(&layout.decode(slot))?, cell)))
            .collect()
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

        // Sealed segments and a tail, then appends whose values
        // re-associate (0.1 + 0.2 + … differs by grouping) in a band no
        // sealed row has: the patch must continue each retained cell
        // row by row, exactly as a rebuild adds the same rows — merging
        // a separately summed delta into the cells is not bit-identical.
        let tenths = |from: i64, n: i64| {
            let rows = (from..from + n).map(|i| (100 + i, "F", "80+", "no", Some(i as f64 / 10.0)));
            demo_table(rows.collect())
        };
        let specs = [
            CubeSpec::measure(vec!["Age_Band"], Aggregate::Sum, "FBG"),
            CubeSpec::measure(vec!["Age_Band", "Gender"], Aggregate::Avg, "FBG"),
            CubeSpec::measure(vec!["Gender"], Aggregate::Sum, "FBG")
                .with_filter(CubeFilter::all().equals("Age_Band", "80+")),
        ];
        for spec in specs {
            let mut wh = banded_warehouse();
            compact_small(&mut wh);
            wh.append(&tenths(1, 3)).unwrap();
            let epoch0 = wh.epoch();
            let mut patched = Cube::build(&wh, &spec).unwrap();
            wh.append(&tenths(4, 4)).unwrap();
            wh.append(&tenths(8, 5)).unwrap();
            for delta in wh.deltas_since(epoch0).unwrap() {
                assert!(patched.apply_delta(&wh, &spec, &delta).unwrap());
            }
            let (rebuilt, stats) = Cube::build_with_stats(&wh, &spec).unwrap();
            assert_eq!(stats.segments_total, 3, "{stats:?}");
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

    /// A row-at-a-time reference over the whole fact table, whatever
    /// is sealed: attribute values resolved row by row, one
    /// [`CellStats::push`] per passing row, in row order — nothing of
    /// the kernels, so the scan must agree with it.
    fn reference(wh: &Warehouse, spec: &CubeSpec) -> Cells {
        let column = |attr: &str| wh.attribute_column(attr).unwrap();
        let axes: Vec<Vec<&Value>> = spec.axes.iter().map(|a| column(a)).collect();
        let filters = spec.filter.attribute_conditions().iter();
        let filters: Vec<_> = filters
            .map(|(attr, allowed)| (column(attr), allowed))
            .collect();
        let ranges = spec.filter.measure_conditions().iter();
        let ranges: Vec<_> = ranges
            .map(|(m, lo, hi)| (wh.measure(m).unwrap(), *lo..*hi))
            .collect();
        let (measure, distinct) = match &spec.measure {
            MeasureRef::RowCount => (None, None),
            MeasureRef::Measure(m) => (Some(wh.measure(m).unwrap()), None),
            MeasureRef::DistinctDegenerate(d) => (None, Some(wh.degenerate_column(d).unwrap())),
        };
        let mut cells = Cells::new();
        for row in 0..wh.n_facts() {
            let admitted = filters
                .iter()
                .all(|(col, allowed)| allowed.contains(col[row]));
            let in_range = ranges
                .iter()
                .all(|(m, r)| m.get(row).is_some_and(|x| r.contains(&x)));
            if admitted && in_range {
                let key = axes.iter().map(|col| col[row].clone()).collect();
                let cell = cells
                    .entry(key)
                    .or_insert_with(|| CellStats::new(distinct.is_some()));
                cell.push(measure.and_then(|m| m.get(row)), distinct.map(|d| &d[row]));
            }
        }
        cells
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
            assert_eq!(
                seg.cells,
                reference(&wh, &spec),
                "spec {}",
                spec.fingerprint()
            );
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
        assert_eq!(cube.cells, reference(&wh, &spec));
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
        assert_eq!(cube.cells, reference(&wh, &spec));
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
        assert_eq!(cube.cells, reference(&wh, &spec));
        assert_eq!(stats.segments_pruned, 2, "tail does not disable pruning");
        assert_eq!(stats.rows_scanned, 8 + 3);
        assert_eq!(cube.value(&k(&["F"])), Some(5.0));
        assert_eq!(cube.value(&k(&["M"])), Some(5.0));

        let by_band = CubeSpec::measure(vec!["Age_Band", "Gender"], Aggregate::Sum, "FBG");
        let (cube, stats) = Cube::build_with_stats(&wh, &by_band).unwrap();
        assert_eq!(cube.cells, reference(&wh, &by_band));
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

    /// The name predates the one loop: an oversized domain no longer
    /// falls back anywhere, it runs on the kernels with sparse slots.
    #[test]
    fn oversized_group_domain_falls_back_to_the_row_loop() {
        // Two 300-member attributes: the domain (300 × 300 = 90 000)
        // exceeds MAX_DENSE_GROUPS, so the lanes hold a slot per group
        // that occurs (300) instead of one per group id.
        let wh = wide_warehouse(vec![
            DimensionDef::new("D1", vec!["A"]),
            DimensionDef::new("D2", vec!["B"]),
            DimensionDef::new("D3", vec!["C"]),
        ]);
        for axes in [vec!["A", "B"], vec!["B"]] {
            let spec = CubeSpec::measure(axes, Aggregate::Sum, "M");
            let (cube, stats) = Cube::build_with_stats(&wh, &spec).unwrap();
            assert_eq!(cube.cells, reference(&wh, &spec));
            assert_eq!(cube.n_cells(), 300);
            assert_eq!(stats.segments_total, 3, "{stats:?}");
            assert_eq!(stats.morsels_executed, 3, "one per segment: {stats:?}");
        }
    }

    #[test]
    fn same_dimension_axes_compose_their_member_codes() {
        // All three attributes live in one 300-tuple dimension (the
        // paper model's shape: Gender and Age_Band share the personal
        // dimension). Each axis contributes its own member count —
        // a repeated axis included — and 300 × 300 runs on sparse
        // slots like any other oversized domain.
        let wh = wide_warehouse(vec![DimensionDef::new("D", vec!["A", "B", "C"])]);
        for axes in [vec!["A", "C"], vec!["C", "A", "C"], vec!["A", "B"]] {
            let spec = CubeSpec::measure(axes, Aggregate::Sum, "M");
            let (cube, stats) = Cube::build_with_stats(&wh, &spec).unwrap();
            assert_eq!(cube.cells, reference(&wh, &spec));
            assert_eq!(cube.n_cells(), 300);
            assert!(stats.morsels_executed > 0, "{:?}: {stats:?}", spec.axes);
            assert_eq!(stats.segments_total, 3, "{stats:?}");
        }
    }

    #[test]
    fn planned_columns_are_exactly_what_the_spec_reads() {
        let mut wh = banded_warehouse();
        compact_small(&mut wh);
        let planned = |spec: CubeSpec| {
            SegmentedScan::plan(&wh, &spec)
                .unwrap()
                .sealed_part()
                .unwrap()
                .columns
        };
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
        // reading it runs its morsels over fact-table columns, every
        // row; a spec that doesn't read it keeps scanning segments.
        // (The name predates the one loop: nothing falls back.)
        let spec = CubeSpec::count(vec!["Flag"]);
        let (cube, stats) = Cube::build_with_stats(&wh, &spec).unwrap();
        assert_eq!(cube.cells, reference(&wh, &spec));
        assert_eq!(stats.segments_total, 0, "no segment was considered");
        assert_eq!(stats.morsels_executed, 1, "one fact-table morsel");
        assert_eq!(stats.rows_scanned, wh.n_facts() as u64);
        assert_eq!(cube.grand_total(), Some(wh.n_facts() as f64));
        let unrelated = CubeSpec::count(vec!["Gender"]);
        let (cube2, stats2) = Cube::build_with_stats(&wh, &unrelated).unwrap();
        assert_eq!(cube2.cells, reference(&wh, &unrelated));
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
