//! Per-query execution profiles — the `EXPLAIN ANALYZE` of the stack.
//!
//! A [`QueryProfile`] breaks one query's life into the pipeline
//! phases of the paper's Fig. 2 (parse → analyze → cache lookup →
//! queue → execute → aggregate), with rows-scanned / cells-emitted
//! volume counters. Profiles are built with a [`ProfileBuilder`] and
//! travel with the result they describe: the serving layer attaches
//! the *producing* execution's profile to the cached outcome, so a
//! cache hit can still explain how its aggregate was computed.

use crate::json::Json;
use std::fmt;
use std::time::Instant;

/// A pipeline phase of one query execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Lexing + parsing the query text.
    Parse,
    /// Semantic analysis against the catalog.
    Analyze,
    /// Result-cache probe.
    CacheLookup,
    /// Admission: from the leader's in-flight check up to the start of
    /// its scan (failpoints and warehouse-read retries included).
    Queue,
    /// Scanning the warehouse and building the cube / cells.
    Execute,
    /// Assembling the output shape (pivot, sorted cell list).
    Aggregate,
}

impl Phase {
    /// Stable lowercase name (used in JSON and Display).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Analyze => "analyze",
            Phase::CacheLookup => "cache_lookup",
            Phase::Queue => "queue",
            Phase::Execute => "execute",
            Phase::Aggregate => "aggregate",
        }
    }

    fn from_name(name: &str) -> Option<Phase> {
        match name {
            "parse" => Some(Phase::Parse),
            "analyze" => Some(Phase::Analyze),
            "cache_lookup" => Some(Phase::CacheLookup),
            "queue" => Some(Phase::Queue),
            "execute" => Some(Phase::Execute),
            "aggregate" => Some(Phase::Aggregate),
            _ => None,
        }
    }
}

/// The completed profile of one query execution.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryProfile {
    /// `(phase, µs)` in execution order. A phase recorded twice (e.g.
    /// parse at admission and again at execution) appears twice.
    pub phases: Vec<(Phase, u64)>,
    /// Fact rows visited by the execute phase.
    pub rows_scanned: u64,
    /// Sealed segments the execute phase skipped on zone-map /
    /// footprint evidence alone (0 for unsegmented scans).
    pub segments_pruned: u64,
    /// Output cells produced by the aggregate phase.
    pub cells_emitted: u64,
    /// Morsels the scan kernels ran (0 when every row went through a
    /// scalar path).
    pub morsels_executed: u64,
    /// Mean rows per executed morsel (0 when no morsels ran) — the
    /// effective scan granularity after segment-boundary clipping.
    pub rows_per_morsel: u64,
    /// End-to-end duration from builder start to finish (µs).
    pub total_us: u64,
    /// The trace the execution ran under, when tracing was enabled.
    pub trace: Option<u64>,
}

impl QueryProfile {
    /// Total µs recorded for `phase` (summing repeats).
    pub fn phase_us(&self, phase: Phase) -> u64 {
        self.phases
            .iter()
            .filter(|(p, _)| *p == phase)
            .map(|(_, us)| us)
            .sum()
    }

    /// Sum of all phase durations (µs). Bounded above by
    /// [`QueryProfile::total_us`] up to clock granularity; the
    /// difference is unattributed overhead.
    pub fn phases_total_us(&self) -> u64 {
        self.phases.iter().map(|(_, us)| us).sum()
    }

    /// Whether any phase was recorded.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Encode as JSON (the shape documented in EXPERIMENTS.md).
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            (
                "phases",
                Json::Arr(
                    self.phases
                        .iter()
                        .map(|(p, us)| {
                            Json::obj([("phase", Json::from(p.name())), ("us", Json::from(*us))])
                        })
                        .collect(),
                ),
            ),
            ("rows_scanned", Json::from(self.rows_scanned)),
            ("segments_pruned", Json::from(self.segments_pruned)),
            ("cells_emitted", Json::from(self.cells_emitted)),
            ("morsels_executed", Json::from(self.morsels_executed)),
            ("rows_per_morsel", Json::from(self.rows_per_morsel)),
            ("total_us", Json::from(self.total_us)),
        ];
        if let Some(trace) = self.trace {
            obj.push(("trace", Json::from(trace)));
        }
        Json::obj(obj)
    }

    /// Decode the shape produced by [`QueryProfile::to_json`].
    pub fn from_json(value: &Json) -> Option<QueryProfile> {
        let phases = value
            .get("phases")?
            .as_arr()?
            .iter()
            .map(|p| {
                Some((
                    Phase::from_name(p.get("phase")?.as_str()?)?,
                    p.get("us")?.as_u64()?,
                ))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(QueryProfile {
            phases,
            rows_scanned: value.get("rows_scanned")?.as_u64()?,
            // Absent in profiles serialized before segmented scans
            // existed; read tolerantly.
            segments_pruned: value
                .get("segments_pruned")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            cells_emitted: value.get("cells_emitted")?.as_u64()?,
            // Absent before morsel-driven scans; read tolerantly.
            morsels_executed: value
                .get("morsels_executed")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            rows_per_morsel: value
                .get("rows_per_morsel")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            total_us: value.get("total_us")?.as_u64()?,
            trace: value.get("trace").and_then(Json::as_u64),
        })
    }
}

impl fmt::Display for QueryProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Query Profile  (total {}µs, {} rows scanned, {} segments pruned, {} morsels, {} cells emitted)",
            self.total_us,
            self.rows_scanned,
            self.segments_pruned,
            self.morsels_executed,
            self.cells_emitted
        )?;
        let total = self.total_us.max(1) as f64;
        for (phase, us) in &self.phases {
            writeln!(
                f,
                "  {:<12} {:>9}µs  {:>5.1}%",
                phase.name(),
                us,
                *us as f64 / total * 100.0
            )?;
        }
        let unattributed = self.total_us.saturating_sub(self.phases_total_us());
        write!(
            f,
            "  {:<12} {:>9}µs  {:>5.1}%",
            "(overhead)",
            unattributed,
            unattributed as f64 / total * 100.0
        )
    }
}

/// Accumulates phase timings into a [`QueryProfile`].
///
/// The builder is the sanctioned way to time query phases in crates
/// the `no-raw-timing` lint covers: it owns the `Instant` reads.
#[derive(Debug)]
pub struct ProfileBuilder {
    started: Instant,
    profile: QueryProfile,
}

impl ProfileBuilder {
    /// Start the end-to-end clock.
    pub fn start() -> ProfileBuilder {
        ProfileBuilder {
            started: Instant::now(),
            profile: QueryProfile {
                trace: crate::trace::current_context().map(|c| c.trace.0),
                ..QueryProfile::default()
            },
        }
    }

    /// Run `work`, recording its duration under `phase`.
    pub fn time<R>(&mut self, phase: Phase, work: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = work();
        self.record_us(phase, t0.elapsed().as_micros().min(u64::MAX as u128) as u64);
        out
    }

    /// Record an externally measured duration under `phase` (used for
    /// queue wait, where the interval spans two threads).
    pub fn record_us(&mut self, phase: Phase, us: u64) {
        self.profile.phases.push((phase, us));
    }

    /// Set the rows-scanned volume counter.
    pub fn rows_scanned(&mut self, rows: u64) {
        self.profile.rows_scanned = rows;
    }

    /// Set the segments-pruned volume counter.
    pub fn segments_pruned(&mut self, segments: u64) {
        self.profile.segments_pruned = segments;
    }

    /// Set the cells-emitted volume counter.
    pub fn cells_emitted(&mut self, cells: u64) {
        self.profile.cells_emitted = cells;
    }

    /// Set the morsel volume counters from a scan's morsel count and
    /// the rows it covered: `rows_per_morsel` is the mean morsel size
    /// after segment-boundary clipping (0 when no morsels ran).
    pub fn morsels(&mut self, executed: u64, rows_covered: u64) {
        self.profile.morsels_executed = executed;
        self.profile.rows_per_morsel = rows_covered.checked_div(executed).unwrap_or(0);
    }

    /// µs elapsed since [`ProfileBuilder::start`] — the sanctioned
    /// read for deadline-style checks inside profiled sections.
    pub fn elapsed_us(&self) -> u64 {
        self.started.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    /// Stop the end-to-end clock and freeze the profile.
    pub fn finish(mut self) -> QueryProfile {
        self.profile.total_us = self.elapsed_us();
        if self.profile.trace.is_none() {
            self.profile.trace = crate::trace::current_context().map(|c| c.trace.0);
        }
        self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    // Sleep granularity is unreliable under CI schedulers; spin on the
    // monotonic clock so elapsed time is what we asked for.
    fn busy_wait(d: Duration) {
        let t0 = Instant::now();
        while t0.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn phases_sum_close_to_total() {
        let mut pb = ProfileBuilder::start();
        pb.time(Phase::Parse, || busy_wait(Duration::from_millis(5)));
        pb.time(Phase::Execute, || busy_wait(Duration::from_millis(20)));
        pb.rows_scanned(100);
        pb.cells_emitted(7);
        let profile = pb.finish();
        assert_eq!(profile.phases.len(), 2);
        assert!(profile.phase_us(Phase::Execute) >= profile.phase_us(Phase::Parse));
        let sum = profile.phases_total_us();
        assert!(sum <= profile.total_us + 1000);
        assert!(
            (profile.total_us as f64 - sum as f64).abs() / profile.total_us as f64 <= 0.10,
            "phase sum {sum} vs total {}",
            profile.total_us
        );
    }

    #[test]
    fn display_lists_every_phase_with_shares() {
        let profile = QueryProfile {
            phases: vec![(Phase::Parse, 100), (Phase::Execute, 900)],
            rows_scanned: 2500,
            segments_pruned: 3,
            cells_emitted: 12,
            morsels_executed: 4,
            rows_per_morsel: 625,
            total_us: 1100,
            trace: Some(3),
        };
        let text = profile.to_string();
        assert!(text.contains("parse"));
        assert!(text.contains("execute"));
        assert!(text.contains("2500 rows scanned"));
        assert!(text.contains("4 morsels"));
        assert!(text.contains("(overhead)"));
        assert!(text.contains("90.0%") || text.contains("81.8%"), "{text}");
    }

    #[test]
    fn profile_round_trips_through_json() {
        let profile = QueryProfile {
            phases: vec![
                (Phase::Parse, 10),
                (Phase::Analyze, 20),
                (Phase::CacheLookup, 1),
                (Phase::Queue, 40),
                (Phase::Execute, 400),
                (Phase::Aggregate, 30),
            ],
            rows_scanned: 999,
            segments_pruned: 7,
            cells_emitted: 42,
            morsels_executed: 3,
            rows_per_morsel: 333,
            total_us: 510,
            trace: None,
        };
        let json = profile.to_json().render();
        assert_eq!(
            QueryProfile::from_json(&Json::parse(&json).unwrap()),
            Some(profile)
        );
    }

    #[test]
    fn morsel_setter_computes_mean_rows() {
        let mut pb = ProfileBuilder::start();
        pb.morsels(4, 1000);
        let profile = pb.finish();
        assert_eq!(profile.morsels_executed, 4);
        assert_eq!(profile.rows_per_morsel, 250);

        let mut none = ProfileBuilder::start();
        none.morsels(0, 0);
        let profile = none.finish();
        assert_eq!(profile.rows_per_morsel, 0);
    }

    #[test]
    fn profiles_without_morsel_fields_decode_to_zero() {
        // Serialized by a pre-morsel build: fields absent entirely.
        let json =
            Json::parse("{\"phases\":[],\"rows_scanned\":5,\"cells_emitted\":1,\"total_us\":9}")
                .unwrap();
        let profile = QueryProfile::from_json(&json).unwrap();
        assert_eq!(profile.morsels_executed, 0);
        assert_eq!(profile.rows_per_morsel, 0);
    }

    #[test]
    fn repeated_phases_accumulate() {
        let profile = QueryProfile {
            phases: vec![(Phase::Parse, 10), (Phase::Parse, 5)],
            ..QueryProfile::default()
        };
        assert_eq!(profile.phase_us(Phase::Parse), 15);
        assert_eq!(profile.phases_total_us(), 15);
    }
}
