//! Similar-patient prediction.
//!
//! The paper phrases Prediction as using *"past records of other
//! patients in similar circumstances"*. This predictor does exactly
//! that: given a query patient's recent state history, it finds every
//! position in every other patient's trajectory whose preceding
//! history matches (longest suffix match) and votes on the state that
//! followed.
//!
//! The votes are counted once, at construction: states are interned
//! to codes in label order, and one table maps every context of
//! 1..=`max_context` codes to the counts of the states that followed
//! it. A query reads the table and subtracts the excluded patient's
//! own contributions, recounted from that patient's trajectories.

use crate::trajectory::Trajectory;
use clinical_types::{Error, Result};
use std::collections::HashMap;

/// A history state no trajectory of the corpus holds.
const UNSEEN: u32 = u32::MAX;

/// `(next-state code, count)` pairs.
type Votes = Vec<(u32, usize)>;

/// Suffix-matching next-state predictor.
#[derive(Debug, Clone)]
pub struct SimilarPatientPredictor {
    /// State labels, sorted: a state's code is its index here, so code
    /// order is label order.
    labels: Vec<String>,
    /// Every trajectory's state codes, back to back.
    codes: Vec<u32>,
    /// `(patient id, start, end)` of each trajectory in `codes`, sorted
    /// by id: an excluded patient's trajectories are recounted from here.
    spans: Vec<(i64, usize, usize)>,
    /// Context (1..=`max_context` codes) → the states that followed it.
    table: HashMap<Vec<u32>, Votes>,
    /// Longest history suffix considered (order of the context).
    max_context: usize,
}

impl SimilarPatientPredictor {
    /// Build over a trajectory corpus.
    pub fn new(trajectories: &[Trajectory], max_context: usize) -> Result<Self> {
        if trajectories.is_empty() {
            return Err(Error::invalid("no trajectories supplied"));
        }
        if max_context == 0 {
            return Err(Error::invalid("max_context must be at least 1"));
        }
        if trajectories.iter().map(Trajectory::len).sum::<usize>() >= UNSEEN as usize {
            return Err(Error::invalid("too many visits to code as u32"));
        }
        // Intern in first-seen order, then renumber by label.
        let mut first_seen: HashMap<&str, u32> = HashMap::new();
        let mut codes = Vec::new();
        let mut spans = Vec::with_capacity(trajectories.len());
        for t in trajectories {
            let start = codes.len();
            codes.extend(t.states.iter().map(|s| {
                let next = first_seen.len() as u32;
                *first_seen.entry(s.as_str()).or_insert(next)
            }));
            spans.push((t.patient_id, start, codes.len()));
        }
        spans.sort_unstable();
        let mut by_label: Vec<(&str, u32)> = first_seen.into_iter().collect();
        by_label.sort_unstable();
        let mut renumber = vec![0u32; by_label.len()];
        for (code, &(_, seen)) in by_label.iter().enumerate() {
            renumber[seen as usize] = code as u32;
        }
        for code in &mut codes {
            *code = renumber[*code as usize];
        }
        let labels: Vec<String> = by_label.into_iter().map(|(l, _)| l.to_owned()).collect();

        let mut table: HashMap<Vec<u32>, Votes> = HashMap::new();
        for &(_, start, end) in &spans {
            let states = &codes[start..end];
            for ctx in 1..=max_context.min(states.len().saturating_sub(1)) {
                for window in states.windows(ctx + 1) {
                    let (context, next) = window.split_at(ctx);
                    match table.get_mut(context) {
                        Some(votes) => add_vote(votes, next[0]),
                        None => {
                            table.insert(context.to_vec(), vec![(next[0], 1)]);
                        }
                    }
                }
            }
        }
        Ok(SimilarPatientPredictor {
            labels,
            codes,
            spans,
            table,
            max_context,
        })
    }

    /// The excluded patient's own votes after `context`: recounted
    /// from every trajectory carrying their id.
    fn own_votes(&self, context: &[u32], exclude: Option<i64>) -> Votes {
        let mut own = Votes::new();
        let Some(id) = exclude else {
            return own;
        };
        let first = self.spans.partition_point(|s| s.0 < id);
        for &(_, start, end) in self.spans[first..].iter().take_while(|s| s.0 == id) {
            for window in self.codes[start..end].windows(context.len() + 1) {
                if window[..context.len()] == *context {
                    add_vote(&mut own, window[context.len()]);
                }
            }
        }
        own
    }

    /// Predict the next state after `history`, backing off from the
    /// longest context with any match down to context 1; `None` when
    /// no other patient ever exhibited any suffix of this history.
    /// Patient `exclude`'s trajectories do not vote, so self-matches
    /// cannot leak during evaluation.
    pub fn predict_next(&self, history: &[String], exclude: Option<i64>) -> Option<String> {
        let max_ctx = self.max_context.min(history.len());
        let codes: Vec<u32> = history[history.len() - max_ctx..]
            .iter()
            .map(|s| self.labels.binary_search(s).map_or(UNSEEN, |c| c as u32))
            .collect();
        for ctx in (1..=max_ctx).rev() {
            let context = &codes[max_ctx - ctx..];
            let Some(votes) = self.table.get(context) else {
                continue;
            };
            let own = self.own_votes(context, exclude);
            // Highest count, ties by label (code) order.
            let best = votes
                .iter()
                .map(|&(code, n)| (code, n - count_of(&own, code)))
                .filter(|&(_, n)| n > 0)
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)));
            if let Some((code, _)) = best {
                return Some(self.labels[code as usize].clone());
            }
        }
        None
    }
}

fn count_of(votes: &[(u32, usize)], code: u32) -> usize {
    votes.iter().find(|v| v.0 == code).map_or(0, |v| v.1)
}

fn add_vote(votes: &mut Votes, code: u32) {
    match votes.iter_mut().find(|v| v.0 == code) {
        Some(v) => v.1 += 1,
        None => votes.push((code, 1)),
    }
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

    fn corpus() -> Vec<Trajectory> {
        vec![
            traj(1, &["N", "P", "D", "D"]),
            traj(2, &["N", "P", "D"]),
            traj(3, &["N", "N", "N"]),
            traj(4, &["P", "D", "D"]),
        ]
    }

    #[test]
    fn longest_context_wins() {
        let p = SimilarPatientPredictor::new(&corpus(), 3).unwrap();
        // History [N, P]: matching 2-contexts are patients 1 and 2,
        // both followed by D.
        let hist = vec!["N".to_string(), "P".to_string()];
        assert_eq!(p.predict_next(&hist, None), Some("D".to_string()));
    }

    #[test]
    fn backs_off_to_shorter_context() {
        let p = SimilarPatientPredictor::new(&corpus(), 3).unwrap();
        // [X, P] has no 2-context match (no one went X then P), but
        // context 1 ("P") matches and votes D.
        let hist = vec!["X".to_string(), "P".to_string()];
        assert_eq!(p.predict_next(&hist, None), Some("D".to_string()));
    }

    #[test]
    fn exclusion_prevents_self_matching() {
        let single = vec![traj(1, &["A", "B", "A", "B"]), traj(2, &["C", "C"])];
        let p = SimilarPatientPredictor::new(&single, 2).unwrap();
        let hist = vec!["A".to_string()];
        // Only patient 1 has A-contexts; excluding them leaves nothing.
        assert_eq!(p.predict_next(&hist, Some(1)), None);
        assert_eq!(p.predict_next(&hist, None), Some("B".to_string()));
    }

    #[test]
    fn empty_history_and_unknown_states() {
        let p = SimilarPatientPredictor::new(&corpus(), 2).unwrap();
        assert_eq!(p.predict_next(&[], None), None);
        let hist = vec!["Z".to_string()];
        assert_eq!(p.predict_next(&hist, None), None);
    }

    #[test]
    fn deterministic_tie_break() {
        let c = vec![traj(1, &["A", "B"]), traj(2, &["A", "C"])];
        let p = SimilarPatientPredictor::new(&c, 1).unwrap();
        let hist = vec!["A".to_string()];
        // B and C tie at one vote each; label order wins.
        assert_eq!(p.predict_next(&hist, None), Some("B".to_string()));
    }

    #[test]
    fn invalid_construction() {
        assert!(SimilarPatientPredictor::new(&[], 2).is_err());
        assert!(SimilarPatientPredictor::new(&corpus(), 0).is_err());
    }
}
