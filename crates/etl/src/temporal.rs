//! Temporal abstraction of time-stamped clinical variables.
//!
//! §IV.2 of the paper, after Stacey & McGregor \[18\]: derive high-level
//! qualitative descriptions from low-level quantitative time-stamped
//! measurements. Two abstraction families are implemented:
//!
//! * **State abstraction** — map each measurement through a
//!   discretisation scheme and merge consecutive samples with the same
//!   qualitative state into [`StateEpisode`]s ("FBG was `preDiabetic`
//!   from 2006-03 to 2008-07").
//! * **Trend abstraction** — classify the movement between successive
//!   samples as increasing / steady / decreasing relative to a
//!   clinical tolerance.
//!
//! The paper stresses that abstractions over a multivariate space
//! "must not conflict with each other"; [`check_consistency`]
//! implements that check for episode sets.

use crate::discretise::Bins;
use clinical_types::{Date, Error, Result};

/// A maximal run of consecutive samples sharing one qualitative state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateEpisode {
    /// Qualitative state label (a bin label of the driving scheme).
    pub state: String,
    /// Date of the first sample in the episode.
    pub start: Date,
    /// Date of the last sample in the episode.
    pub end: Date,
    /// Number of samples merged into the episode.
    pub n_samples: usize,
}

/// State abstraction over one variable's time series.
#[derive(Debug, Clone)]
pub struct StateAbstraction {
    bins: Bins,
}

impl StateAbstraction {
    /// Abstraction driven by a discretisation scheme.
    pub fn new(bins: Bins) -> Self {
        StateAbstraction { bins }
    }

    /// Merge a chronologically sorted series into state episodes.
    /// Errors if the series is not sorted by date.
    pub fn episodes(&self, series: &[(Date, f64)]) -> Result<Vec<StateEpisode>> {
        ensure_sorted(series)?;
        let mut out: Vec<StateEpisode> = Vec::new();
        for &(date, value) in series {
            let state = self.bins.label_of(value);
            match out.last_mut() {
                Some(ep) if ep.state == state => {
                    ep.end = date;
                    ep.n_samples += 1;
                }
                _ => out.push(StateEpisode {
                    state: state.to_string(),
                    start: date,
                    end: date,
                    n_samples: 1,
                }),
            }
        }
        Ok(out)
    }
}

/// Direction of movement between successive samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trend {
    /// Value rose by more than the tolerance.
    Increasing,
    /// Value stayed within ±tolerance.
    Steady,
    /// Value fell by more than the tolerance.
    Decreasing,
}

impl Trend {
    /// Stable label used when trends become warehouse dimension values.
    pub fn label(&self) -> &'static str {
        match self {
            Trend::Increasing => "increasing",
            Trend::Steady => "steady",
            Trend::Decreasing => "decreasing",
        }
    }
}

/// A maximal run of samples moving in one direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrendAbstraction {
    /// The direction of this episode.
    pub trend: Trend,
    /// Date of the sample that starts the movement.
    pub start: Date,
    /// Date of the last sample in the movement.
    pub end: Date,
    /// Number of inter-sample steps merged (≥ 1).
    pub n_steps: usize,
}

/// Classify each step of a sorted series and merge runs with the same
/// direction. `tolerance` is the absolute change regarded as noise
/// (e.g. 0.3 mmol/L for FBG). A series with fewer than two samples has
/// no trends.
pub fn abstract_trends(series: &[(Date, f64)], tolerance: f64) -> Result<Vec<TrendAbstraction>> {
    ensure_sorted(series)?;
    if tolerance < 0.0 {
        return Err(Error::invalid("trend tolerance must be non-negative"));
    }
    let mut out: Vec<TrendAbstraction> = Vec::new();
    for w in series.windows(2) {
        let (d0, v0) = w[0];
        let (d1, v1) = w[1];
        let delta = v1 - v0;
        let trend = if delta > tolerance {
            Trend::Increasing
        } else if delta < -tolerance {
            Trend::Decreasing
        } else {
            Trend::Steady
        };
        match out.last_mut() {
            Some(ep) if ep.trend == trend => {
                ep.end = d1;
                ep.n_steps += 1;
            }
            _ => out.push(TrendAbstraction {
                trend,
                start: d0,
                end: d1,
                n_steps: 1,
            }),
        }
    }
    Ok(out)
}

/// Per-sample trend labels (the per-visit form used when loading a
/// trend column into the warehouse): the first visit is `"first"`,
/// every later visit is the direction relative to its predecessor.
/// Missing samples (`None`) yield `"unknown"` and do not update the
/// reference value.
pub fn step_labels(values: &[Option<f64>], tolerance: f64) -> Vec<&'static str> {
    let mut out = Vec::with_capacity(values.len());
    let mut prev: Option<f64> = None;
    for v in values {
        match (prev, v) {
            (_, None) => out.push("unknown"),
            (None, Some(x)) => {
                out.push("first");
                prev = Some(*x);
            }
            (Some(p), Some(x)) => {
                let delta = x - p;
                out.push(if delta > tolerance {
                    Trend::Increasing.label()
                } else if delta < -tolerance {
                    Trend::Decreasing.label()
                } else {
                    Trend::Steady.label()
                });
                prev = Some(*x);
            }
        }
    }
    out
}

/// Validate that a set of episodes is chronologically ordered and
/// non-overlapping — the paper's "abstractions must not conflict"
/// requirement. Episodes produced by [`StateAbstraction::episodes`]
/// always satisfy this; abstractions merged from multiple sources may
/// not.
pub fn check_consistency(episodes: &[StateEpisode]) -> Result<()> {
    for ep in episodes {
        if ep.start > ep.end {
            return Err(Error::invalid(format!(
                "episode `{}` ends before it starts ({} > {})",
                ep.state, ep.start, ep.end
            )));
        }
    }
    for w in episodes.windows(2) {
        if w[1].start <= w[0].end {
            return Err(Error::invalid(format!(
                "episodes `{}` and `{}` overlap at {}",
                w[0].state, w[1].state, w[1].start
            )));
        }
    }
    Ok(())
}

fn ensure_sorted(series: &[(Date, f64)]) -> Result<()> {
    if series.windows(2).any(|w| w[0].0 > w[1].0) {
        return Err(Error::invalid("time series must be sorted by date"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discretise::clinical::table1_schemes;

    fn d(y: i32, m: u32) -> Date {
        Date::new(y, m, 1).unwrap()
    }

    fn fbg_abstraction() -> StateAbstraction {
        StateAbstraction::new(table1_schemes()[2].bins.clone())
    }

    #[test]
    fn episodes_merge_consecutive_states() {
        let series = vec![
            (d(2005, 1), 5.0),
            (d(2006, 1), 5.2),
            (d(2007, 1), 6.5),
            (d(2008, 1), 6.3),
            (d(2009, 1), 7.4),
        ];
        let eps = fbg_abstraction().episodes(&series).unwrap();
        let states: Vec<&str> = eps.iter().map(|e| e.state.as_str()).collect();
        assert_eq!(states, vec!["very good", "preDiabetic", "Diabetic"]);
        assert_eq!(eps[0].n_samples, 2);
        assert_eq!(eps[0].start, d(2005, 1));
        assert_eq!(eps[0].end, d(2006, 1));
        assert_eq!(eps[1].n_samples, 2);
    }

    #[test]
    fn unsorted_series_rejected() {
        let series = vec![(d(2006, 1), 5.0), (d(2005, 1), 5.0)];
        assert!(fbg_abstraction().episodes(&series).is_err());
        assert!(abstract_trends(&series, 0.1).is_err());
    }

    #[test]
    fn empty_and_singleton_series() {
        assert!(fbg_abstraction().episodes(&[]).unwrap().is_empty());
        let one = vec![(d(2005, 1), 8.0)];
        let eps = fbg_abstraction().episodes(&one).unwrap();
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].state, "Diabetic");
        assert!(abstract_trends(&one, 0.1).unwrap().is_empty());
    }

    #[test]
    fn trends_respect_tolerance() {
        let series = vec![
            (d(2005, 1), 5.0),
            (d(2006, 1), 5.1), // +0.1 → steady at tol 0.3
            (d(2007, 1), 6.0), // +0.9 → increasing
            (d(2008, 1), 6.8), // +0.8 → increasing (merged)
            (d(2009, 1), 5.9), // −0.9 → decreasing
        ];
        let eps = abstract_trends(&series, 0.3).unwrap();
        let dirs: Vec<Trend> = eps.iter().map(|e| e.trend).collect();
        assert_eq!(
            dirs,
            vec![Trend::Steady, Trend::Increasing, Trend::Decreasing]
        );
        assert_eq!(eps[1].n_steps, 2);
    }

    #[test]
    fn negative_tolerance_rejected() {
        assert!(abstract_trends(&[(d(2005, 1), 1.0)], -0.1).is_err());
    }

    #[test]
    fn step_labels_handle_missing_and_first() {
        let labels = step_labels(
            &[None, Some(5.0), Some(5.05), None, Some(6.0), Some(5.0)],
            0.3,
        );
        assert_eq!(
            labels,
            vec![
                "unknown",
                "first",
                "steady",
                "unknown",
                "increasing",
                "decreasing"
            ]
        );
    }

    #[test]
    fn consistency_accepts_abstraction_output() {
        let series = vec![(d(2005, 1), 5.0), (d(2006, 1), 6.5), (d(2007, 1), 8.0)];
        let eps = fbg_abstraction().episodes(&series).unwrap();
        assert!(check_consistency(&eps).is_ok());
    }

    #[test]
    fn consistency_rejects_overlap_and_inversion() {
        let ep = |state: &str, s: Date, e: Date| StateEpisode {
            state: state.into(),
            start: s,
            end: e,
            n_samples: 1,
        };
        // Overlapping states conflict.
        let overlapping = vec![
            ep("normal", d(2005, 1), d(2006, 6)),
            ep("high", d(2006, 1), d(2007, 1)),
        ];
        assert!(check_consistency(&overlapping).is_err());
        // An episode that ends before it starts conflicts with itself.
        let inverted = vec![ep("x", d(2007, 1), d(2006, 1))];
        assert!(check_consistency(&inverted).is_err());
    }
}
