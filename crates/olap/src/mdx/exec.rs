//! MDX execution against a warehouse.
//!
//! [`execute_query`] runs the semantic analyzer first and fails with
//! rendered diagnostics before any cube is built; callers that have
//! already validated (the serving layer rejects invalid queries at
//! admission) use [`execute_query_unchecked`] as the fast path.

use super::parser::{
    parse_mdx_spanned, Axis, AxisSet, Condition, MdxQuery, MeasureClause, QuerySpans,
};
use crate::aggregate::{Aggregate, MeasureRef};
use crate::cube::{Cube, CubeFilter, CubeSpec, ScanStats};
use crate::pivot::PivotTable;
use crate::semantic::analyze_mdx;
use analyze::Catalog;
use clinical_types::{Error, Result, Value};
use warehouse::Warehouse;

/// The attribute an axis resolves to, plus any implied filter or dice.
struct ResolvedAxis {
    attribute: String,
    /// Equality filter implied by `.CHILDREN` (parent = member).
    implied_filter: Option<(String, String)>,
    /// Dice implied by an explicit member set.
    dice: Option<Vec<Value>>,
    non_empty: bool,
}

fn resolve_axis(warehouse: &Warehouse, axis: &Axis) -> Result<ResolvedAxis> {
    match &axis.set {
        AxisSet::Members(attr) => Ok(ResolvedAxis {
            attribute: attr.clone(),
            implied_filter: None,
            dice: None,
            non_empty: axis.non_empty,
        }),
        AxisSet::Explicit(attr, members) => Ok(ResolvedAxis {
            attribute: attr.clone(),
            implied_filter: None,
            dice: Some(members.iter().map(|m| Value::from(m.as_str())).collect()),
            non_empty: axis.non_empty,
        }),
        AxisSet::Children { parent, member } => {
            let dim = warehouse
                .star()
                .dimension_of_attribute(parent)
                .ok_or_else(|| Error::invalid(format!("no dimension owns `{parent}`")))?;
            let child = dim
                .hierarchies
                .iter()
                .find_map(|h| h.drill_down_from(parent))
                .ok_or_else(|| {
                    Error::invalid(format!(
                        "`[{parent}].[{member}].CHILDREN` needs a finer hierarchy level under `{parent}`"
                    ))
                })?;
            Ok(ResolvedAxis {
                attribute: child.to_string(),
                implied_filter: Some((parent.clone(), member.clone())),
                dice: None,
                non_empty: axis.non_empty,
            })
        }
    }
}

/// Execute a parsed query against `warehouse`, validating it first.
///
/// Semantic errors (unknown names, type mismatches, illegal
/// aggregations) come back as a single `Error` whose message is the
/// rendered diagnostic report. Callers that already ran the analyzer
/// should use [`execute_query_unchecked`] instead.
pub fn execute_query(warehouse: &Warehouse, query: &MdxQuery) -> Result<PivotTable> {
    let catalog = Catalog::from_star(warehouse.star());
    analyze_mdx(&catalog, query, &QuerySpans::default())
        .into_result()
        .map_err(|diags| Error::invalid(diags.to_string()))?;
    execute_query_unchecked(warehouse, query)
}

/// Execute a parsed query without the semantic pre-pass.
///
/// The serving layer rejects invalid queries at admission, so its
/// workers call this directly; unvalidated queries may fail with
/// lower-level (but still non-panicking) errors from the cube builder.
pub fn execute_query_unchecked(warehouse: &Warehouse, query: &MdxQuery) -> Result<PivotTable> {
    let mut discard = obs::ProfileBuilder::start();
    execute_query_profiled(warehouse, query, &mut discard)
}

/// Execute a parsed query, attributing its work to `profile`: the cube
/// scan lands in [`obs::Phase::Execute`], pivot assembly in
/// [`obs::Phase::Aggregate`], with rows-scanned / cells-emitted volume
/// counters. The serving layer's workers call this to build the
/// [`obs::QueryProfile`] attached to every executed outcome.
pub fn execute_query_profiled(
    warehouse: &Warehouse,
    query: &MdxQuery,
    profile: &mut obs::ProfileBuilder,
) -> Result<PivotTable> {
    // Register the execution as a bounded watchdog task so a wedged
    // scan shows up in the folded profile and trips stall detection
    // even when the caller is not a registered serve worker.
    let _watchdog_scope = obs::task_scope("olap.execute", std::time::Duration::from_secs(60));
    let mut span = obs::span("olap.mdx_execute");
    if query.cube != warehouse.star().fact.name {
        return Err(Error::invalid(format!(
            "unknown cube `[{}]` (the warehouse exposes `[{}]`)",
            query.cube,
            warehouse.star().fact.name
        )));
    }

    let rows = resolve_axis(warehouse, &query.rows)?;
    let cols = resolve_axis(warehouse, &query.columns)?;

    let mut filter = CubeFilter::all();
    for condition in &query.conditions {
        match condition {
            Condition::AttributeEquals(attr, value) => {
                filter = filter.equals(attr.clone(), value.as_str());
            }
            Condition::MeasureBetween(measure, lo, hi) => {
                filter = filter.measure_between(measure.clone(), *lo, *hi);
            }
        }
    }
    for axis in [&rows, &cols] {
        if let Some((parent, member)) = &axis.implied_filter {
            filter = filter.equals(parent.clone(), member.as_str());
        }
    }

    let (measure, agg) = match &query.measure {
        MeasureClause::CountRows => (MeasureRef::RowCount, Aggregate::Count),
        MeasureClause::CountDistinct(col) => (
            MeasureRef::DistinctDegenerate(col.clone()),
            Aggregate::Count,
        ),
        MeasureClause::Aggregate(agg, m) => (MeasureRef::Measure(m.clone()), *agg),
    };

    let spec = CubeSpec {
        axes: vec![rows.attribute.clone(), cols.attribute.clone()],
        measure,
        agg,
        filter,
    };
    let (cube, stats) = profile.time(obs::Phase::Execute, || -> Result<(Cube, ScanStats)> {
        let (mut cube, stats) = Cube::build_with_stats(warehouse, &spec)?;
        for axis in [&rows, &cols] {
            if let Some(values) = &axis.dice {
                cube = cube.dice(&axis.attribute, values)?;
            }
        }
        Ok((cube, stats))
    })?;
    profile.rows_scanned(stats.rows_scanned);
    profile.segments_pruned(stats.segments_pruned);
    profile.morsels(stats.morsels_executed, stats.rows_scanned);

    let pivot = profile.time(obs::Phase::Aggregate, || -> Result<PivotTable> {
        let mut pivot = PivotTable::from_cube(&cube, &rows.attribute, &cols.attribute)?;
        if rows.non_empty {
            pivot = pivot.drop_empty_rows();
        }
        if cols.non_empty {
            pivot = pivot.drop_empty_columns();
        }
        Ok(pivot)
    })?;
    let cells = pivot.cells.iter().flatten().filter(|c| c.is_some()).count() as u64;
    profile.cells_emitted(cells);
    span.record("cells", cells);
    Ok(pivot)
}

/// Parse, validate and execute an MDX string against `warehouse`.
///
/// Because the query text is at hand, semantic diagnostics carry
/// caret snippets pointing at the offending fragment.
pub fn execute_mdx(warehouse: &Warehouse, mdx: &str) -> Result<PivotTable> {
    let (query, spans) = parse_mdx_spanned(mdx)?;
    let catalog = Catalog::from_star(warehouse.star());
    let mut diags = analyze_mdx(&catalog, &query, &spans);
    diags.query = Some(mdx.to_string());
    diags
        .into_result()
        .map_err(|diags| Error::invalid(diags.to_string()))?;
    execute_query_unchecked(warehouse, &query)
}
