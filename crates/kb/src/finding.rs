//! Findings: the unit of clinical knowledge.

use std::fmt;

/// Which DD-DGMS component produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Source {
    /// OLAP reporting (an aggregate observation, e.g. Fig. 5's gender
    /// crossover).
    Reporting,
    /// The prediction component (a time-course regularity).
    Prediction,
    /// Data analytics (a mined rule or interaction).
    Analytics,
    /// Decision optimisation (a validated robust aggregate or an
    /// optimal regimen).
    Optimisation,
    /// Direct clinician feedback.
    Clinician,
}

impl fmt::Display for Source {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Source::Reporting => "reporting",
            Source::Prediction => "prediction",
            Source::Analytics => "analytics",
            Source::Optimisation => "optimisation",
            Source::Clinician => "clinician",
        };
        f.write_str(s)
    }
}

impl Source {
    /// Parse the display form back (for the text persistence format).
    pub fn parse(s: &str) -> Option<Source> {
        match s {
            "reporting" => Some(Source::Reporting),
            "prediction" => Some(Source::Prediction),
            "analytics" => Some(Source::Analytics),
            "optimisation" => Some(Source::Optimisation),
            "clinician" => Some(Source::Clinician),
            _ => None,
        }
    }
}

/// Lifecycle status of a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FindingStatus {
    /// Observed, awaiting corroboration.
    Candidate,
    /// Enough independent evidence accumulated (the paper's
    /// "sufficient data-based evidence").
    Validated,
    /// Adopted into guidelines / training material.
    Promoted,
}

impl fmt::Display for FindingStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FindingStatus::Candidate => "candidate",
            FindingStatus::Validated => "validated",
            FindingStatus::Promoted => "promoted",
        };
        f.write_str(s)
    }
}

/// A unit of accumulated clinical knowledge.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Stable id assigned by the knowledge base.
    pub id: u64,
    /// The statement, e.g. `"absent ankle reflexes + mid-range FBG
    /// predicts diabetes"`. Statements are the dedup key.
    pub statement: String,
    /// Producing component.
    pub source: Source,
    /// Times the statement was independently re-observed.
    pub evidence_count: u32,
    /// Strength of the latest supporting evidence (component-specific:
    /// confidence, lift, consistency, accuracy …).
    pub strength: f64,
    /// Free-form tags (`"diabetes"`, `"neuropathy"` …).
    pub tags: Vec<String>,
    /// Lifecycle status.
    pub status: FindingStatus,
    /// Ids of related findings (the ontology-generation seed).
    pub related: Vec<u64>,
}

impl Finding {
    /// One-line rendering used by examples and reports.
    pub fn describe(&self) -> String {
        format!(
            "[#{} {} | {}×, strength {:.2}] {}",
            self.id, self.status, self.evidence_count, self.strength, self.statement
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_round_trips_through_display() {
        for s in [
            Source::Reporting,
            Source::Prediction,
            Source::Analytics,
            Source::Optimisation,
            Source::Clinician,
        ] {
            assert_eq!(Source::parse(&s.to_string()), Some(s));
        }
        assert_eq!(Source::parse("nonsense"), None);
    }

    #[test]
    fn status_orders_by_maturity() {
        assert!(FindingStatus::Candidate < FindingStatus::Validated);
        assert!(FindingStatus::Validated < FindingStatus::Promoted);
    }

    #[test]
    fn describe_contains_the_statement() {
        let f = Finding {
            id: 3,
            statement: "reflex+glucose predicts diabetes".into(),
            source: Source::Analytics,
            evidence_count: 4,
            strength: 0.91,
            tags: vec!["diabetes".into()],
            status: FindingStatus::Validated,
            related: vec![],
        };
        let text = f.describe();
        assert!(text.contains("#3"));
        assert!(text.contains("validated"));
        assert!(text.contains("reflex+glucose"));
    }
}
