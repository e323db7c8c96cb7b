//! Leave-last-visit-out evaluation of time-course predictors.

use crate::markov::MarkovModel;
use crate::similar::SimilarPatientPredictor;
use crate::trajectory::Trajectory;
use clinical_types::{Error, Result};
use std::collections::HashMap;

/// Accuracy of a predictor against the majority baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationReport {
    /// Patients with at least two visits (the evaluable set).
    pub n_evaluated: usize,
    /// Markov-model accuracy on the held-out last visit.
    pub markov_accuracy: f64,
    /// Similar-patient predictor accuracy (unpredictable cases fall
    /// back to the majority state).
    pub similar_accuracy: f64,
    /// Majority-state baseline accuracy.
    pub baseline_accuracy: f64,
}

/// Hold out each patient's last state; predict it from their earlier
/// states using (a) a Markov model fitted on the truncated corpus,
/// (b) the similar-patient predictor with self-exclusion, and (c) the
/// global majority state.
pub fn evaluate_predictor(
    trajectories: &[Trajectory],
    max_context: usize,
) -> Result<EvaluationReport> {
    let evaluable: Vec<&Trajectory> = trajectories.iter().filter(|t| t.len() >= 2).collect();
    if evaluable.is_empty() {
        return Err(Error::invalid(
            "no patient has two or more visits to evaluate on",
        ));
    }

    // Training corpus: all trajectories with their last visit removed
    // (patients with a single visit keep it — nothing is tested there).
    let truncated: Vec<Trajectory> = trajectories
        .iter()
        .map(|t| {
            if t.len() >= 2 {
                Trajectory {
                    patient_id: t.patient_id,
                    states: t.states[..t.len() - 1].to_vec(),
                }
            } else {
                t.clone()
            }
        })
        .collect();

    let markov = MarkovModel::fit(&truncated)?;
    let similar = SimilarPatientPredictor::new(&truncated, max_context)?;

    // Majority over training states.
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for t in &truncated {
        for s in &t.states {
            *counts.entry(s.as_str()).or_insert(0) += 1;
        }
    }
    let mut ranked: Vec<(&str, usize)> = counts.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let majority = ranked
        .first()
        .map(|(s, _)| s.to_string())
        .ok_or_else(|| Error::invalid("empty training corpus"))?;

    let mut markov_hits = 0usize;
    let mut similar_hits = 0usize;
    let mut baseline_hits = 0usize;
    for t in &evaluable {
        let truth = t.states.last().expect("len >= 2");
        let history = &t.states[..t.len() - 1];
        let current = history.last().expect("len >= 1");
        if &markov.predict_next(current) == truth {
            markov_hits += 1;
        }
        let similar_pred = similar
            .predict_next(history, Some(t.patient_id))
            .unwrap_or_else(|| majority.clone());
        if &similar_pred == truth {
            similar_hits += 1;
        }
        if &majority == truth {
            baseline_hits += 1;
        }
    }
    let n = evaluable.len();
    Ok(EvaluationReport {
        n_evaluated: n,
        markov_accuracy: markov_hits as f64 / n as f64,
        similar_accuracy: similar_hits as f64 / n as f64,
        baseline_accuracy: baseline_hits as f64 / n as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traj(id: i64, states: &[&str]) -> Trajectory {
        Trajectory {
            patient_id: id,
            states: states.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn beats_baseline_on_structured_progression() {
        // Two cohorts oscillate in counter-phase (A,B,A,B vs
        // B,A,B,A): the held-out transition types are abundantly
        // observed in training, while the majority baseline can only
        // ever name one of the two states.
        let mut ts = Vec::new();
        for i in 0..30 {
            ts.push(traj(i, &["A", "B", "A", "B"]));
            ts.push(traj(100 + i, &["B", "A", "B", "A"]));
        }
        let report = evaluate_predictor(&ts, 2).unwrap();
        assert_eq!(report.n_evaluated, 60);
        assert!(
            report.markov_accuracy > report.baseline_accuracy,
            "markov {} <= baseline {}",
            report.markov_accuracy,
            report.baseline_accuracy
        );
        assert!(
            report.similar_accuracy > report.baseline_accuracy,
            "similar {} <= baseline {}",
            report.similar_accuracy,
            report.baseline_accuracy
        );
        assert!(report.markov_accuracy > 0.9);
    }

    #[test]
    fn single_visit_patients_are_skipped() {
        let ts = vec![traj(1, &["A"]), traj(2, &["A", "B"])];
        let report = evaluate_predictor(&ts, 2).unwrap();
        assert_eq!(report.n_evaluated, 1);
    }

    #[test]
    fn no_evaluable_patients_is_an_error() {
        let ts = vec![traj(1, &["A"])];
        assert!(evaluate_predictor(&ts, 2).is_err());
    }

    #[test]
    fn runs_on_discri_cohort_and_beats_chance() {
        let cohort = discri::generate(&discri::CohortConfig::small(61));
        let (table, _) = etl::TransformPipeline::discri_default()
            .run(&cohort.attendances)
            .unwrap();
        let ts =
            crate::trajectory::extract_trajectories(&table, "PatientId", "TestDate", "FBG_Band")
                .unwrap();
        let report = evaluate_predictor(&ts, 3).unwrap();
        assert!(report.n_evaluated > 20);
        // Phases are sticky year-to-year, so the Markov model must be
        // well above uniform chance over 4 bands.
        assert!(report.markov_accuracy > 0.3, "{report:?}");
    }
}
