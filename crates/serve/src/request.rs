//! Owned query requests and their canonical fingerprints.
//!
//! A request must live independently of the warehouse it will run
//! against (it may outlive the snapshot it was admitted under, and a
//! cached result outlives it), so every variant is a self-contained description:
//! an MDX string, a [`CubeSpec`], or a declarative [`ReportSpec`] that
//! is translated into an `olap::QueryBuilder` chain at execution time.

use analyze::{Catalog, Diagnostics, QueryFootprint};
use clinical_types::{Result, Value};
use obs::{Phase, ProfileBuilder, QueryProfile};
use olap::mdx::{execute_query_profiled, parse_mdx_spanned};
use olap::{
    analyze_cube, analyze_mdx, analyze_report, footprint_cube, footprint_mdx, footprint_report,
    parse_mdx, Cube, CubeSpec, PivotTable,
};
use warehouse::Warehouse;

pub use olap::{ReportMeasure, ReportSpec};

/// A query accepted by the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryRequest {
    /// An MDX statement (§V "Reporting Services"), parsed on admission.
    Mdx(String),
    /// A cube materialisation request.
    Cube(CubeSpec),
    /// A declarative report — the owned equivalent of a
    /// `QueryBuilder` chain.
    Report(ReportSpec),
}

impl QueryRequest {
    /// Canonical fingerprint: semantically equivalent requests map to
    /// the same string, so the cache and single-flight table coalesce
    /// them. Parse failures surface here, before admission.
    pub fn fingerprint(&self) -> Result<String> {
        match self {
            QueryRequest::Mdx(text) => Ok(parse_mdx(text)?.canonical()),
            QueryRequest::Cube(spec) => Ok(spec.fingerprint()),
            QueryRequest::Report(spec) => Ok(spec.fingerprint()),
        }
    }

    /// Run the semantic analyzer against `catalog`.
    ///
    /// Used by the service at admission: an MDX request gets its query
    /// text attached so diagnostics render caret snippets. Unparseable
    /// MDX never reaches this point — [`QueryRequest::fingerprint`]
    /// fails first.
    pub fn analyze(&self, catalog: &Catalog) -> Diagnostics {
        match self {
            QueryRequest::Mdx(text) => match parse_mdx_spanned(text) {
                Ok((query, spans)) => {
                    let mut diags = analyze_mdx(catalog, &query, &spans);
                    diags.query = Some(text.clone());
                    diags
                }
                Err(_) => Diagnostics::default(),
            },
            QueryRequest::Cube(spec) => analyze_cube(catalog, spec),
            QueryRequest::Report(spec) => analyze_report(catalog, spec),
        }
    }

    /// Execute against a warehouse snapshot.
    ///
    /// Skips the semantic pre-pass: the service has already analyzed
    /// the request at admission, so execution starts straight away.
    /// The returned outcome carries the [`QueryProfile`] of this run.
    pub fn execute(&self, warehouse: &Warehouse) -> Result<QueryOutcome> {
        let mut profile = ProfileBuilder::start();
        let payload = self.execute_profiled(warehouse, &mut profile)?;
        Ok(QueryOutcome {
            payload,
            profile: profile.finish(),
            degraded: false,
        })
    }

    /// Execute against a warehouse snapshot, attributing the work to
    /// an ongoing `profile` (the service path: the builder already
    /// holds the parse/analyze/cache-lookup/queue phases).
    pub fn execute_profiled(
        &self,
        warehouse: &Warehouse,
        profile: &mut ProfileBuilder,
    ) -> Result<OutcomePayload> {
        self.execute_profiled_retaining(warehouse, profile)
            .map(|(payload, _)| payload)
    }

    /// Like [`QueryRequest::execute_profiled`], but also returns the
    /// live [`Cube`] for cube requests whose aggregates are
    /// incrementally maintainable — the cache retains it so a later
    /// epoch's appended rows can be folded in instead of rebuilding.
    pub(crate) fn execute_profiled_retaining(
        &self,
        warehouse: &Warehouse,
        profile: &mut ProfileBuilder,
    ) -> Result<(OutcomePayload, Option<Cube>)> {
        match self {
            QueryRequest::Mdx(text) => {
                let query = profile.time(Phase::Parse, || parse_mdx(text))?;
                Ok((
                    OutcomePayload::Pivot(execute_query_profiled(warehouse, &query, profile)?),
                    None,
                ))
            }
            QueryRequest::Cube(spec) => {
                let (cube, stats) =
                    profile.time(Phase::Execute, || Cube::build_with_stats(warehouse, spec))?;
                profile.rows_scanned(stats.rows_scanned);
                profile.segments_pruned(stats.segments_pruned);
                profile.morsels(stats.morsels_executed, stats.rows_scanned);
                let result = profile.time(Phase::Aggregate, || CubeResult::from_cube(&cube));
                profile.cells_emitted(result.cells.len() as u64);
                let retained = Cube::supports_incremental(spec).then_some(cube);
                Ok((OutcomePayload::Cube(result), retained))
            }
            QueryRequest::Report(spec) => {
                let pivot =
                    profile.time(Phase::Execute, || spec.to_builder(warehouse).execute())?;
                profile.rows_scanned(warehouse.n_facts() as u64);
                let cells = pivot.cells.iter().flatten().filter(|c| c.is_some()).count() as u64;
                profile.cells_emitted(cells);
                Ok((OutcomePayload::Pivot(pivot), None))
            }
        }
    }

    /// The set of dimension tables this request reads, resolved
    /// through `catalog` — the query side of cross-epoch cache
    /// revalidation. Unparseable MDX yields a conservative footprint
    /// (it would be rejected before caching anyway).
    pub fn footprint(&self, catalog: &Catalog) -> QueryFootprint {
        match self {
            QueryRequest::Mdx(text) => match parse_mdx(text) {
                Ok(query) => footprint_mdx(catalog, &query),
                Err(_) => QueryFootprint::conservative(),
            },
            QueryRequest::Cube(spec) => footprint_cube(catalog, spec),
            QueryRequest::Report(spec) => footprint_report(catalog, spec),
        }
    }
}

/// The result payload of a request.
#[derive(Debug, Clone, PartialEq)]
pub enum OutcomePayload {
    /// A two-axis pivot (MDX and report requests).
    Pivot(PivotTable),
    /// A materialised cube, flattened to a deterministic cell list.
    Cube(CubeResult),
}

/// What a request produced: the payload plus the execution profile of
/// the run that computed it.
///
/// Equality (and therefore cache-correctness assertions) considers the
/// payload only: a cache hit shares the *producing* execution's
/// profile, which legitimately differs from what a fresh run would
/// record.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The result payload.
    pub payload: OutcomePayload,
    /// Profile of the execution that produced the payload. Default
    /// (empty) when the outcome was constructed without profiling.
    pub profile: QueryProfile,
    /// True when the service answered from a stale cache entry while
    /// its circuit breaker deflected execution: the payload reflects
    /// an older epoch than the live warehouse. Fresh executions and
    /// revalidated cache hits are never degraded.
    pub degraded: bool,
}

impl PartialEq for QueryOutcome {
    fn eq(&self, other: &QueryOutcome) -> bool {
        self.payload == other.payload
    }
}

impl QueryOutcome {
    /// A pivot outcome with no profile (tests, ad-hoc construction).
    pub fn pivot(pivot: PivotTable) -> QueryOutcome {
        QueryOutcome {
            payload: OutcomePayload::Pivot(pivot),
            profile: QueryProfile::default(),
            degraded: false,
        }
    }

    /// A cube outcome with no profile (tests, ad-hoc construction).
    pub fn cube(result: CubeResult) -> QueryOutcome {
        QueryOutcome {
            payload: OutcomePayload::Cube(result),
            profile: QueryProfile::default(),
            degraded: false,
        }
    }

    /// The pivot table, if this outcome is one.
    pub fn as_pivot(&self) -> Option<&PivotTable> {
        match &self.payload {
            OutcomePayload::Pivot(p) => Some(p),
            OutcomePayload::Cube(_) => None,
        }
    }

    /// The cube cell list, if this outcome is one.
    pub fn as_cube(&self) -> Option<&CubeResult> {
        match &self.payload {
            OutcomePayload::Cube(c) => Some(c),
            OutcomePayload::Pivot(_) => None,
        }
    }
}

/// A cube flattened into sorted `(coords, value)` cells — a stable,
/// comparable shape for caching (the live `Cube` hash map has no
/// deterministic order).
#[derive(Debug, Clone, PartialEq)]
pub struct CubeResult {
    /// Axis attribute names, fixing coordinate order.
    pub axes: Vec<String>,
    /// Populated cells, sorted by coordinate.
    pub cells: Vec<(Vec<Value>, f64)>,
}

impl CubeResult {
    /// Flatten `cube`, sorting cells into a canonical order.
    pub fn from_cube(cube: &Cube) -> CubeResult {
        let mut cells: Vec<(Vec<Value>, f64)> = cube
            .iter()
            .map(|(coords, value)| (coords.clone(), value))
            .collect();
        cells.sort_by(|a, b| format!("{:?}", a.0).cmp(&format!("{:?}", b.0)));
        CubeResult {
            axes: cube.axes.clone(),
            cells,
        }
    }

    /// Value at `coords`, if populated.
    pub fn value(&self, coords: &[Value]) -> Option<f64> {
        self.cells
            .iter()
            .find(|(c, _)| c.as_slice() == coords)
            .map(|(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_fingerprint_ignores_filter_order() {
        let a = ReportSpec::new()
            .on_rows("FBG_Band")
            .where_equals("Gender", "F")
            .where_measure_between("FBG", 5.5, 7.0)
            .count();
        let b = ReportSpec::new()
            .on_rows("FBG_Band")
            .where_measure_between("FBG", 5.5, 7.0)
            .where_equals("Gender", "F")
            .count();
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn report_fingerprint_keeps_axes_significant() {
        let rows = ReportSpec::new().on_rows("FBG_Band").count();
        let cols = ReportSpec::new().on_columns("FBG_Band").count();
        assert_ne!(rows.fingerprint(), cols.fingerprint());
    }

    #[test]
    fn mdx_fingerprint_is_canonical() {
        let a = QueryRequest::Mdx(
            "SELECT [Gender].MEMBERS ON COLUMNS, [FBG_Band].MEMBERS ON ROWS \
             FROM [Medical Measures] WHERE [DiabetesStatus] = 'yes' \
             MEASURE COUNT(*)"
                .into(),
        );
        let b = QueryRequest::Mdx(
            "select [Gender].MEMBERS on columns, [FBG_Band].MEMBERS on rows \
             from [Medical Measures] where [DiabetesStatus] = 'yes' \
             measure count(*)"
                .into(),
        );
        assert_eq!(a.fingerprint().unwrap(), b.fingerprint().unwrap());
    }

    #[test]
    fn bad_mdx_fails_fingerprinting() {
        assert!(QueryRequest::Mdx("SELECT nonsense".into())
            .fingerprint()
            .is_err());
    }
}
