//! Typed, span-carrying diagnostics with stable error codes.
//!
//! Every problem the semantic analyzer can report has a stable code:
//! `A0xx` for name-resolution failures, `A1xx` for type errors on
//! condition literals, `A2xx` for aggregation-legality violations,
//! `A3xx` for concurrency findings from the lock auditor
//! ([`crate::locks`]). Codes are part of the service contract —
//! clients match on them, so they never change meaning; [`explain`]
//! returns the long-form description behind each one.

use clinical_types::{render_snippet, Span};
use std::fmt;

/// Stable diagnostic codes.
///
/// The numeric bands group related failures: `A0xx` naming, `A1xx`
/// typing, `A2xx` aggregation legality, `A3xx` lock discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // the variants are documented by `explain`
pub enum Code {
    /// `A001` — the FROM clause names a cube that is not the fact.
    A001UnknownCube,
    /// `A002` — an axis names an attribute missing from the catalog.
    A002UnknownAxisAttribute,
    /// `A003` — the MEASURE clause names an unknown measure column.
    A003UnknownMeasure,
    /// `A004` — a WHERE condition references an unknown column.
    A004UnknownConditionColumn,
    /// `A005` — COUNT(DISTINCT x) references an unknown column.
    A005UnknownDistinctColumn,
    /// `A006` — an axis resolves to a fact column, not an attribute.
    A006AxisNotDimensionAttribute,
    /// `A100` — equality condition on a numeric measure column.
    A100EqualityOnMeasure,
    /// `A101` — BETWEEN range condition on a categorical attribute.
    A101RangeOnCategorical,
    /// `A102` — BETWEEN range whose lower bound exceeds its upper.
    A102EmptyRange,
    /// `A103` — equality literal outside the attribute's observed domain.
    A103LiteralOutsideDomain,
    /// `A104` — BETWEEN bound is NaN or infinite.
    A104NonFiniteBound,
    /// `A200` — SUM of a non-additive measure across the cardinality dimension.
    A200SumAcrossCardinality,
    /// `A201` — COUNT(DISTINCT x) on a non-degenerate column.
    A201DistinctOnNonDegenerate,
    /// `A202` — CHILDREN drill-down from a level with no finer level.
    A202NoFinerLevel,
    /// `A203` — the same attribute appears on more than one axis.
    A203DuplicateAxis,
    /// `A204` — SUM/AVG/MIN/MAX target is not a numeric measure.
    A204AggregateTargetNotMeasure,
    /// `A205` — the query projects no axes at all.
    A205NoAxes,
    /// `A300` — lock-order cycle in the interprocedural lock graph.
    A300LockOrderCycle,
    /// `A301` — lock guard held across a blocking operation.
    A301LockAcrossBlocking,
    /// `A302` — lock guard held across `catch_unwind`.
    A302LockAcrossCatchUnwind,
    /// `A303` — lock field with no rank in a ranked crate.
    A303UnrankedLock,
    /// `A304` — observed acquisition order contradicts the rank table.
    A304RankOrderContradiction,
}

/// Every code, in ascending order (drives `explain --list`).
pub const ALL_CODES: [Code; 22] = [
    Code::A001UnknownCube,
    Code::A002UnknownAxisAttribute,
    Code::A003UnknownMeasure,
    Code::A004UnknownConditionColumn,
    Code::A005UnknownDistinctColumn,
    Code::A006AxisNotDimensionAttribute,
    Code::A100EqualityOnMeasure,
    Code::A101RangeOnCategorical,
    Code::A102EmptyRange,
    Code::A103LiteralOutsideDomain,
    Code::A104NonFiniteBound,
    Code::A200SumAcrossCardinality,
    Code::A201DistinctOnNonDegenerate,
    Code::A202NoFinerLevel,
    Code::A203DuplicateAxis,
    Code::A204AggregateTargetNotMeasure,
    Code::A205NoAxes,
    Code::A300LockOrderCycle,
    Code::A301LockAcrossBlocking,
    Code::A302LockAcrossCatchUnwind,
    Code::A303UnrankedLock,
    Code::A304RankOrderContradiction,
];

impl Code {
    /// The stable code string (`"A001"`, `"A200"`, …).
    pub fn as_str(&self) -> &'static str {
        match self {
            Code::A001UnknownCube => "A001",
            Code::A002UnknownAxisAttribute => "A002",
            Code::A003UnknownMeasure => "A003",
            Code::A004UnknownConditionColumn => "A004",
            Code::A005UnknownDistinctColumn => "A005",
            Code::A006AxisNotDimensionAttribute => "A006",
            Code::A100EqualityOnMeasure => "A100",
            Code::A101RangeOnCategorical => "A101",
            Code::A102EmptyRange => "A102",
            Code::A103LiteralOutsideDomain => "A103",
            Code::A104NonFiniteBound => "A104",
            Code::A200SumAcrossCardinality => "A200",
            Code::A201DistinctOnNonDegenerate => "A201",
            Code::A202NoFinerLevel => "A202",
            Code::A203DuplicateAxis => "A203",
            Code::A204AggregateTargetNotMeasure => "A204",
            Code::A205NoAxes => "A205",
            Code::A300LockOrderCycle => "A300",
            Code::A301LockAcrossBlocking => "A301",
            Code::A302LockAcrossCatchUnwind => "A302",
            Code::A303UnrankedLock => "A303",
            Code::A304RankOrderContradiction => "A304",
        }
    }

    /// Parse a code string back into a [`Code`].
    pub fn parse(s: &str) -> Option<Code> {
        ALL_CODES
            .iter()
            .copied()
            .find(|c| c.as_str().eq_ignore_ascii_case(s))
    }

    /// One-line summary of what the code means.
    pub fn summary(&self) -> &'static str {
        match self {
            Code::A001UnknownCube => "query names a cube that is not the fact table",
            Code::A002UnknownAxisAttribute => "axis names an attribute the catalog does not know",
            Code::A003UnknownMeasure => "measure clause names an unknown measure column",
            Code::A004UnknownConditionColumn => "condition references an unknown column",
            Code::A005UnknownDistinctColumn => "COUNT(DISTINCT …) references an unknown column",
            Code::A006AxisNotDimensionAttribute => {
                "axis resolves to a fact column, not a dimension attribute"
            }
            Code::A100EqualityOnMeasure => "equality condition applied to a numeric measure",
            Code::A101RangeOnCategorical => "range condition applied to a categorical attribute",
            Code::A102EmptyRange => "range lower bound exceeds its upper bound",
            Code::A103LiteralOutsideDomain => {
                "equality literal never observed in the attribute's domain"
            }
            Code::A104NonFiniteBound => "range bound is NaN or infinite",
            Code::A200SumAcrossCardinality => {
                "SUM of a non-additive measure across the cardinality dimension"
            }
            Code::A201DistinctOnNonDegenerate => {
                "COUNT(DISTINCT …) target is not a degenerate fact column"
            }
            Code::A202NoFinerLevel => "drill-down from a level with no finer hierarchy level",
            Code::A203DuplicateAxis => "the same attribute appears on more than one axis",
            Code::A204AggregateTargetNotMeasure => "aggregate target is not a numeric measure",
            Code::A205NoAxes => "query projects no axes",
            Code::A300LockOrderCycle => {
                "lock-order cycle: two paths acquire locks in opposite order"
            }
            Code::A301LockAcrossBlocking => "lock guard held across a blocking operation",
            Code::A302LockAcrossCatchUnwind => "lock guard held across catch_unwind",
            Code::A303UnrankedLock => "lock field in a ranked crate carries no rank",
            Code::A304RankOrderContradiction => {
                "observed acquisition order contradicts the LockRank table"
            }
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Long-form explanation for a code string, or `None` for an unknown
/// code. This backs `cargo run -p analyze --bin explain A200` and the
/// `DdDgms::explain` facade.
pub fn explain(code: &str) -> Option<&'static str> {
    Some(match Code::parse(code)? {
        Code::A001UnknownCube => {
            "A001 unknown cube: the FROM clause must name the star schema's fact \
             table (e.g. `FROM [Medical Measures]`). The analyzer suggests the \
             fact name when the query names anything else."
        }
        Code::A002UnknownAxisAttribute => {
            "A002 unknown axis attribute: ON COLUMNS / ON ROWS must project \
             dimension attributes declared in the catalog. A close match is \
             suggested via edit distance when one exists (did-you-mean)."
        }
        Code::A003UnknownMeasure => {
            "A003 unknown measure: the MEASURE clause (SUM/AVG/MIN/MAX/COUNT \
             DISTINCT target) must name a fact measure or degenerate column \
             declared in the catalog."
        }
        Code::A004UnknownConditionColumn => {
            "A004 unknown condition column: a WHERE equality or BETWEEN \
             condition references a column that is neither a dimension \
             attribute, a measure, nor a degenerate fact column."
        }
        Code::A005UnknownDistinctColumn => {
            "A005 unknown distinct column: COUNT(DISTINCT x) references a \
             column the catalog does not know."
        }
        Code::A006AxisNotDimensionAttribute => {
            "A006 axis is not a dimension attribute: the name resolves to a \
             measure or degenerate fact column. Axes group facts, so they must \
             be categorical dimension attributes; use the banded form of the \
             measure (e.g. FBG_Band instead of FBG)."
        }
        Code::A100EqualityOnMeasure => {
            "A100 equality on a measure: `[X] = value` only makes sense for \
             categorical attributes. Numeric measures are filtered with a \
             BETWEEN range instead; the analyzer names the measure involved."
        }
        Code::A101RangeOnCategorical => {
            "A101 range on a categorical attribute: BETWEEN compares numbers, \
             but the referenced column is a categorical dimension attribute. \
             Use an equality condition on one of its values."
        }
        Code::A102EmptyRange => {
            "A102 empty range: the BETWEEN lower bound is greater than the \
             upper bound, so the condition can never match a fact row."
        }
        Code::A103LiteralOutsideDomain => {
            "A103 literal outside domain (warning): the equality literal was \
             never observed among the attribute's loaded values. The query is \
             legal but will match nothing at the current epoch."
        }
        Code::A104NonFiniteBound => {
            "A104 non-finite bound: a BETWEEN bound is NaN or infinite; \
             comparisons against it are ill-defined."
        }
        Code::A200SumAcrossCardinality => {
            "A200 sum across cardinality: the measure is non-additive (a \
             point-in-time clinical reading, ratio or average), so SUM-rolling \
             it while grouping on the Cardinality dimension double-counts \
             patients across visits. Use AVG, or group on a non-cardinality \
             dimension. Duration- and count-like measures (minutes, sessions, \
             years, counts) are treated as additive."
        }
        Code::A201DistinctOnNonDegenerate => {
            "A201 distinct on non-degenerate column: COUNT(DISTINCT x) is the \
             paper's patient-count device and only applies to degenerate fact \
             columns such as PatientId; distinct counts over dimension \
             attributes or measures are not supported."
        }
        Code::A202NoFinerLevel => {
            "A202 no finer level: `[parent].CHILDREN` drills down one \
             hierarchy level, but the named level is already the finest (or \
             belongs to no hierarchy), so there is no finer level to expand."
        }
        Code::A203DuplicateAxis => {
            "A203 duplicate axis: the same attribute appears on more than one \
             axis (or twice on one), which would cross the attribute with \
             itself."
        }
        Code::A204AggregateTargetNotMeasure => {
            "A204 aggregate target is not a measure: SUM/AVG/MIN/MAX need a \
             numeric fact measure; dimension attributes are categorical and \
             cannot be aggregated numerically."
        }
        Code::A205NoAxes => {
            "A205 no axes: the query projects nothing; at least one axis \
             attribute is required to shape the pivot."
        }
        Code::A300LockOrderCycle => {
            "A300 lock-order cycle: the interprocedural lock graph contains a \
             cycle — some execution path acquires lock B while holding lock A, \
             and another acquires A while holding B. Two threads interleaving \
             those paths deadlock. The diagnostic carries the full witness \
             path (function chain and acquisition sites for every edge of the \
             cycle). Fix by making every path acquire the locks in the \
             LockRank order, or by shrinking one guard's scope so the inner \
             acquisition happens after release."
        }
        Code::A301LockAcrossBlocking => {
            "A301 lock across blocking operation: a guard is live across a \
             call that can block indefinitely (channel recv, thread join, \
             sleep, condvar wait, disk I/O, or a fault-injection point that \
             may stall). Every other thread needing that lock stalls too, and \
             under fault injection this turns a slow disk into a frozen \
             process. Drop the guard first, or move the blocking call out of \
             the critical section. Deliberate pairings (a condvar wait's own \
             mutex, an oplog mutex whose entire job is serialising the write) \
             are escaped with lint:allow(A301, \"reason\")."
        }
        Code::A302LockAcrossCatchUnwind => {
            "A302 lock across catch_unwind: a guard is live across \
             std::panic::catch_unwind. If the closure panics, the unwinding \
             stops at the boundary while the guard's lock stays held by a \
             thread that now continues in a possibly-inconsistent state; with \
             std locks this also poisons the mutex for every waiter. Acquire \
             inside the closure, or drop the guard before the boundary."
        }
        Code::A303UnrankedLock => {
            "A303 unranked lock: a Mutex/RwLock field in a crate under rank \
             discipline (serve, segstore, oltp, warehouse) is neither a \
             RankedMutex/RankedRwLock nor annotated with a \
             `// lock:rank(Name)` comment. Unranked locks are invisible to \
             both the static order check and the runtime rank assertion, so \
             the deadlock-freedom argument no longer covers them."
        }
        Code::A304RankOrderContradiction => {
            "A304 rank-order contradiction: the static lock graph observed an \
             acquisition edge from a higher-ranked (or equal-ranked) lock to \
             a lower-ranked one, contradicting obs::LockRank. Either the code \
             is wrong (reorder the acquisitions or split the critical \
             section) or the rank table is — the two are kept honest against \
             each other by the lock_conformance test."
        }
    })
}

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// The query is rejected.
    Error,
    /// The query runs, but the analyzer flags a likely mistake.
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        })
    }
}

/// One analyzer finding: a coded message, optionally pinned to a span
/// of the query text and carrying a did-you-mean suggestion.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code (see [`Code`]).
    pub code: Code,
    /// Error or warning.
    pub severity: Severity,
    /// Human-readable message naming the offending item.
    pub message: String,
    /// Byte span into the original query text, when known.
    pub span: Option<Span>,
    /// Did-you-mean candidate, when edit distance found one.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// An error diagnostic with no span or suggestion.
    pub fn error(code: Code, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
            span: None,
            suggestion: None,
        }
    }

    /// A warning diagnostic with no span or suggestion.
    pub fn warning(code: Code, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(code, message)
        }
    }

    /// Attach a source span.
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = Some(span);
        self
    }

    /// Attach a did-you-mean suggestion.
    pub fn with_suggestion(mut self, suggestion: impl Into<String>) -> Self {
        self.suggestion = Some(suggestion.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if let Some(s) = &self.suggestion {
            write!(f, " (did you mean `{s}`?)")?;
        }
        Ok(())
    }
}

/// The analyzer's full report for one query: zero or more findings
/// plus (when the input was textual MDX) the query text used to render
/// caret snippets.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Diagnostics {
    /// Original query text, if the request carried one.
    pub query: Option<String>,
    /// Findings in source order.
    pub items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// An empty report for a textual query.
    pub fn for_query(query: impl Into<String>) -> Self {
        Diagnostics {
            query: Some(query.into()),
            items: Vec::new(),
        }
    }

    /// Add a finding.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.items.push(diagnostic);
    }

    /// Whether nothing at all was reported.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether any finding is an [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.items.iter().any(|d| d.severity == Severity::Error)
    }

    /// The stable code strings, in report order.
    pub fn codes(&self) -> Vec<&'static str> {
        self.items.iter().map(|d| d.code.as_str()).collect()
    }

    /// First finding with the given code, if any.
    pub fn find(&self, code: Code) -> Option<&Diagnostic> {
        self.items.iter().find(|d| d.code == code)
    }

    /// `Err(self)` when the report contains errors, `Ok(self)`
    /// otherwise (warnings alone do not reject a query).
    pub fn into_result(self) -> Result<Diagnostics, Diagnostics> {
        if self.has_errors() {
            Err(self)
        } else {
            Ok(self)
        }
    }
}

impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.items.is_empty() {
            return write!(f, "no diagnostics");
        }
        for (i, d) in self.items.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
            if let (Some(query), Some(span)) = (&self.query, d.span) {
                write!(
                    f,
                    "\n  {}",
                    render_snippet(query, span).replace('\n', "\n  ")
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_strings() {
        assert_eq!(Code::A001UnknownCube.as_str(), "A001");
        assert_eq!(Code::A200SumAcrossCardinality.as_str(), "A200");
        assert_eq!(Code::parse("a202"), Some(Code::A202NoFinerLevel));
        assert_eq!(Code::parse("Z999"), None);
        // Every code round-trips and has an explanation.
        for c in ALL_CODES {
            assert_eq!(Code::parse(c.as_str()), Some(c));
            assert!(explain(c.as_str()).is_some(), "no explain for {c}");
            assert!(!c.summary().is_empty());
        }
        assert!(explain("A999").is_none());
    }

    #[test]
    fn display_renders_code_suggestion_and_caret() {
        let mut diags = Diagnostics::for_query("SELECT [Gendr].MEMBERS ON ROWS");
        diags.push(
            Diagnostic::error(Code::A002UnknownAxisAttribute, "unknown attribute `Gendr`")
                .with_span(Span::new(7, 14))
                .with_suggestion("Gender"),
        );
        let text = diags.to_string();
        assert!(text.contains("error[A002]"), "{text}");
        assert!(text.contains("did you mean `Gender`?"), "{text}");
        assert!(text.contains("^^^^^^^"), "{text}");
        assert!(diags.has_errors());
        assert!(diags.clone().into_result().is_err());
    }

    #[test]
    fn warnings_alone_do_not_reject() {
        let mut diags = Diagnostics::default();
        diags.push(Diagnostic::warning(
            Code::A103LiteralOutsideDomain,
            "`Purple` never observed in `Gender`",
        ));
        assert!(!diags.has_errors());
        assert!(diags.clone().into_result().is_ok());
        assert_eq!(diags.codes(), vec!["A103"]);
    }
}
