//! The query decks: what a scientist's session asks, what the serve
//! tier is sent, what a refresh re-reads. A [`Query`] is the one
//! description both the program (as MDX text or a `CubeSpec`) and the
//! naive loop in `data` are given.

use crate::data::{round_label, ROUND_ATTRIBUTE};
use crate::rng::{zipf_draws, Rng};
use olap::{Aggregate, CubeFilter, CubeSpec};

#[derive(Debug, Clone, PartialEq)]
pub enum Measure {
    /// `COUNT(*)`
    Count,
    /// `COUNT(DISTINCT [PatientId])`
    DistinctPatients,
    Agg(Aggregate, String),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Grouping attributes; MDX puts `axes[0]` on rows and `axes[1]`
    /// on columns.
    pub axes: Vec<String>,
    /// `[parent].[member].CHILDREN` on the row axis: `axes[0]` is the
    /// finer level and the parent member is an implied filter.
    pub drill: Option<(String, String)>,
    pub where_eq: Vec<(String, String)>,
    /// `(measure, lo, hi)`: keeps rows with `lo <= value < hi`.
    pub between: Vec<(String, f64, f64)>,
    pub measure: Measure,
}

impl Query {
    pub fn new(rows: &str, cols: &str, measure: Measure) -> Query {
        Query {
            axes: vec![rows.to_string(), cols.to_string()],
            drill: None,
            where_eq: Vec::new(),
            between: Vec::new(),
            measure,
        }
    }

    pub fn filter(mut self, attribute: &str, value: &str) -> Query {
        self.where_eq
            .push((attribute.to_string(), value.to_string()));
        self
    }

    pub fn range(mut self, measure: &str, lo: f64, hi: f64) -> Query {
        self.between.push((measure.to_string(), lo, hi));
        self
    }

    /// Every attribute equality a row must satisfy, the drill's
    /// implied one included.
    pub fn filters(&self) -> impl Iterator<Item = (&str, &str)> {
        self.where_eq
            .iter()
            .chain(self.drill.iter())
            .map(|(a, v)| (a.as_str(), v.as_str()))
    }

    pub fn to_mdx(&self) -> String {
        assert_eq!(self.axes.len(), 2, "MDX takes two axes");
        let rows = match &self.drill {
            Some((parent, member)) => format!("[{parent}].[{member}].CHILDREN"),
            None => format!("[{}].MEMBERS", self.axes[0]),
        };
        let mut text = format!(
            "SELECT [{}].MEMBERS ON COLUMNS, {rows} ON ROWS FROM [Medical Measures]",
            self.axes[1]
        );
        let conditions: Vec<String> = self
            .where_eq
            .iter()
            .map(|(a, v)| format!("[{a}] = '{v}'"))
            .chain(
                self.between
                    .iter()
                    .map(|(m, lo, hi)| format!("[{m}] BETWEEN {lo} AND {hi}")),
            )
            .collect();
        if !conditions.is_empty() {
            text.push_str(" WHERE ");
            text.push_str(&conditions.join(" AND "));
        }
        text.push_str(" MEASURE ");
        text.push_str(&match &self.measure {
            Measure::Count => "COUNT(*)".to_string(),
            Measure::DistinctPatients => "COUNT(DISTINCT [PatientId])".to_string(),
            Measure::Agg(agg, m) => {
                let word = match agg {
                    Aggregate::Count => "COUNT",
                    Aggregate::Sum => "SUM",
                    Aggregate::Avg => "AVG",
                    Aggregate::Min => "MIN",
                    Aggregate::Max => "MAX",
                };
                format!("{word}([{m}])")
            }
        });
        text
    }

    pub fn to_spec(&self) -> CubeSpec {
        let axes: Vec<&str> = self.axes.iter().map(String::as_str).collect();
        let spec = match &self.measure {
            Measure::Count => CubeSpec::count(axes),
            Measure::DistinctPatients => CubeSpec::distinct(axes, "PatientId"),
            Measure::Agg(agg, m) => CubeSpec::measure(axes, *agg, m.clone()),
        };
        let mut filter = CubeFilter::all();
        for (attribute, value) in self.filters() {
            filter = filter.equals(attribute, value);
        }
        for (m, lo, hi) in &self.between {
            filter = filter.measure_between(m.clone(), *lo, *hi);
        }
        spec.with_filter(filter)
    }
}

fn agg(aggregate: Aggregate, measure: &str) -> Measure {
    Measure::Agg(aggregate, measure.to_string())
}

pub struct DeckEntry {
    /// Also the span name and the `olap.q.<name>_ms` layer metric.
    pub name: &'static str,
    pub query: Query,
    /// Sent as a `CubeSpec` rather than as MDX text.
    pub as_cube: bool,
}

/// The scan workload's session: the drag, drill and slice sequence of
/// the paper's Figs. 4-6, then three aggregate shapes and one cube
/// call. `round` is the tile the selective query asks for.
pub fn scan_deck(round: usize) -> Vec<DeckEntry> {
    let mdx = |name, query| DeckEntry {
        name,
        query,
        as_cube: false,
    };
    vec![
        mdx(
            "fig5_distinct",
            Query::new("Age_SubGroup", "Gender", Measure::DistinctPatients)
                .filter("DiabetesStatus", "yes"),
        ),
        mdx(
            "fig6_htyears",
            Query::new("DiagnosticHTYears_Band", "Age_Band", Measure::Count),
        ),
        mdx(
            "sum_by_band",
            Query::new("Age_Band", "Gender", agg(Aggregate::Sum, "FBG")),
        ),
        mdx(
            "avg_filtered",
            Query::new("FBG_Band", "Gender", agg(Aggregate::Avg, "HbA1c")).filter("Gender", "F"),
        ),
        mdx(
            "count_wide",
            Query::new("Age_SubGroup", "FBG_Band", Measure::Count),
        ),
        mdx(
            "year_selective",
            Query::new("Age_Band", "Gender", Measure::Count)
                .filter(ROUND_ATTRIBUTE, &round_label(round)),
        ),
        // The issue sketched `[Gender].[F].CHILDREN`, but Gender has no
        // finer level; the star's one hierarchy is Age_Band over
        // Age_SubGroup, which is also the drill Fig. 5 shows.
        mdx(
            "drill_children",
            Query {
                drill: Some(("Age_Band".to_string(), "60-80".to_string())),
                ..Query::new("Age_SubGroup", "Gender", Measure::Count)
            },
        ),
        DeckEntry {
            name: "cube_range",
            query: Query::new("Gender", "Age_Band", agg(Aggregate::Avg, "FBG"))
                .range("BMI", 25.0, 30.0),
            as_cube: true,
        },
    ]
}

/// How many queries the serve pool holds: four times the 256-entry
/// result cache, so cycling it in a fixed order never hits.
pub const SERVE_POOL: usize = 1024;
/// The hot deck fits the cache four times over.
pub const HOT_DECK: usize = 64;

/// Axis pairs of the serve pool, `(rows, columns)`. Each pair groups
/// within one dimension or across two small ones, so every query of
/// the pool takes the same scan path and costs about the same.
const POOL_AXES: [(&str, &str); 16] = [
    ("Age_SubGroup", "Gender"),
    ("Age_Band", "Gender"),
    ("Gender", "Age_Band"),
    ("Age_SubGroup", "FamilyHistoryDiabetes"),
    ("Age_Band", "Smoker"),
    ("EducationYears", "Gender"),
    ("Age_SubGroup", "FamilyHistoryCVD"),
    ("Age_Band", "FamilyHistoryDiabetes"),
    ("DiabetesStatus", "HypertensionStatus"),
    ("DiagnosticHTYears_Band", "DiabetesStatus"),
    ("BMI_Band", "HypertensionStatus"),
    ("MedicationCount", "DiabetesStatus"),
    ("FBG_Band", "FBG_Trend"),
    ("HbA1c_Band", "FBG_Band"),
    ("KneeReflexRight", "AnkleReflexRight"),
    ("DerivedVisitNo", "VisitKind"),
];

/// Measure ranges of the serve pool: wide enough to keep most rows, so
/// selectivity does not split the pool into cheap and dear queries.
const POOL_RANGES: [Option<(&str, f64, f64)>; 8] = [
    None,
    Some(("Age", 30.0, 95.0)),
    Some(("BMI", 15.0, 45.0)),
    Some(("FBG", 3.0, 12.0)),
    Some(("HbA1c", 4.0, 11.0)),
    Some(("LyingSBPAverage", 90.0, 190.0)),
    Some(("TotalCholesterol", 2.0, 9.0)),
    Some(("RestingHeartRate", 40.0, 120.0)),
];

fn pool_measures() -> [Measure; 8] {
    [
        Measure::Count,
        agg(Aggregate::Avg, "FBG"),
        agg(Aggregate::Avg, "BMI"),
        agg(Aggregate::Max, "LyingSBPAverage"),
        agg(Aggregate::Min, "HbA1c"),
        agg(Aggregate::Sum, "ExerciseMinutesPerWeek"),
        agg(Aggregate::Avg, "QTc"),
        agg(Aggregate::Count, "HDL"),
    ]
}

/// The serve pool: every combination of axis pair, range and measure,
/// in an order the seed fixes. The same 1024 queries under every seed,
/// so the pool's cost does not depend on the seed; only the order (and
/// which 64 lead it, the hot deck) does.
pub fn serve_pool(seed: u64) -> Vec<Query> {
    let mut pool = Vec::with_capacity(SERVE_POOL);
    for (rows, cols) in POOL_AXES {
        for range in POOL_RANGES {
            for measure in pool_measures() {
                let mut query = Query::new(rows, cols, measure);
                if let Some((m, lo, hi)) = range {
                    query = query.range(m, lo, hi);
                }
                pool.push(query);
            }
        }
    }
    assert_eq!(pool.len(), SERVE_POOL);
    Rng::new(seed, 1).shuffle(&mut pool);
    pool
}

/// Which hot-deck query each timed op of `serve_hot` sends.
pub fn hot_draws(seed: u64, ops: usize) -> Vec<u32> {
    zipf_draws(&mut Rng::new(seed, 2), HOT_DECK, 1.0, ops)
}

/// How a refresh read is sent and what the serve tier can do with its
/// cached answer after an append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    /// A `CubeSpec` with an additive aggregate: patched in place.
    AdditiveCube,
    /// A distinct-count `CubeSpec`: cannot be patched, re-executed.
    DistinctCube,
    /// MDX text: re-executed.
    Mdx,
}

/// What one refresh re-reads: eight additive cubes, four distinct
/// cubes, four MDX statements. Only the order depends on the seed.
pub fn refresh_deck(seed: u64) -> Vec<(ReadKind, Query)> {
    let additive = [
        Query::new("Age_Band", "Gender", Measure::Count),
        Query::new("Age_SubGroup", "Gender", Measure::Count),
        Query::new("DiabetesStatus", "HypertensionStatus", Measure::Count),
        Query::new("FBG_Band", "FBG_Trend", Measure::Count),
        Query::new("Age_Band", "Gender", agg(Aggregate::Avg, "FBG")),
        Query::new(
            "DiabetesStatus",
            "BMI_Band",
            agg(Aggregate::Sum, "ExerciseMinutesPerWeek"),
        ),
        Query::new(
            "Age_SubGroup",
            "Smoker",
            agg(Aggregate::Max, "LyingSBPAverage"),
        ),
        Query::new("Gender", "Age_Band", agg(Aggregate::Avg, "BMI")).range("Age", 40.0, 80.0),
    ];
    let distinct = [
        Query::new("Age_SubGroup", "Gender", Measure::DistinctPatients)
            .filter("DiabetesStatus", "yes"),
        Query::new("Age_Band", "Gender", Measure::DistinctPatients),
        Query::new(
            "DiabetesStatus",
            "HypertensionStatus",
            Measure::DistinctPatients,
        ),
        Query::new("FBG_Band", "FBG_Trend", Measure::DistinctPatients),
    ];
    let mdx = [
        Query::new("Age_SubGroup", "Gender", Measure::Count).filter("DiabetesStatus", "yes"),
        Query::new("Age_Band", "Gender", agg(Aggregate::Avg, "HbA1c")),
        Query {
            drill: Some(("Age_Band".to_string(), "60-80".to_string())),
            ..Query::new("Age_SubGroup", "Gender", Measure::Count)
        },
        Query::new("HbA1c_Band", "FBG_Band", Measure::Count),
    ];
    let mut deck: Vec<(ReadKind, Query)> = additive
        .into_iter()
        .map(|q| (ReadKind::AdditiveCube, q))
        .chain(distinct.into_iter().map(|q| (ReadKind::DistinctCube, q)))
        .chain(mdx.into_iter().map(|q| (ReadKind::Mdx, q)))
        .collect();
    Rng::new(seed, 3).shuffle(&mut deck);
    deck
}

#[cfg(test)]
mod tests {
    use super::*;
    use serve::QueryRequest;
    use std::collections::HashSet;

    #[test]
    fn decks_repeat_for_a_seed_and_differ_across_seeds() {
        assert_eq!(serve_pool(5), serve_pool(5));
        assert_ne!(serve_pool(5), serve_pool(6));
        assert_eq!(hot_draws(5, 1000), hot_draws(5, 1000));
        assert_ne!(hot_draws(5, 1000), hot_draws(6, 1000));
        assert_eq!(refresh_deck(5), refresh_deck(5));
        assert_ne!(refresh_deck(5), refresh_deck(6));
    }

    #[test]
    fn pool_queries_are_distinct_to_the_cache() {
        let prints: HashSet<String> = serve_pool(1)
            .iter()
            .map(|q| QueryRequest::Mdx(q.to_mdx()).fingerprint().unwrap())
            .collect();
        assert_eq!(prints.len(), SERVE_POOL);
    }

    #[test]
    fn every_deck_query_is_analyzer_clean() {
        let raw = discri::generate(&discri::CohortConfig::small(3)).attendances;
        let base = crate::data::transform(&raw);
        let data = crate::data::Tiled::new(&base);
        let wh = warehouse::Warehouse::load(&warehouse::LoadPlan::discri_default(), &data.tile(0))
            .unwrap();
        let catalog = analyze::Catalog::from_warehouse(&wh);
        let scan = scan_deck(0).into_iter().map(|e| (e.as_cube, e.query));
        let pool = serve_pool(1).into_iter().map(|q| (false, q));
        let refresh = refresh_deck(1)
            .into_iter()
            .map(|(kind, q)| (kind != ReadKind::Mdx, q));
        for (as_cube, query) in scan.chain(pool).chain(refresh) {
            let request = if as_cube {
                QueryRequest::Cube(query.to_spec())
            } else {
                QueryRequest::Mdx(query.to_mdx())
            };
            request.fingerprint().unwrap();
            let diags = request.analyze(&catalog);
            assert!(diags.is_empty(), "{query:?}: {diags}");
        }
    }

    #[test]
    fn refresh_deck_has_the_stated_mix() {
        let deck = refresh_deck(9);
        let count = |kind| deck.iter().filter(|(k, _)| *k == kind).count();
        assert_eq!(count(ReadKind::AdditiveCube), 8);
        assert_eq!(count(ReadKind::DistinctCube), 4);
        assert_eq!(count(ReadKind::Mdx), 4);
    }
}
