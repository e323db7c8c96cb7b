//! The naive oracles for the counted miners: Apriori by a subset test
//! of every candidate against every transaction, and similar-patient
//! prediction by rescanning every trajectory for every query. They
//! share nothing with `mining::apriori` or `predict::similar` beyond
//! the public types, so whatever the miners count, this is what they
//! must have found.

// Compiled into each test crate that includes it; none uses all of it.
#![allow(dead_code)]

use clinical_types::{Error, Result};
use mining::apriori::Item;
use mining::{Apriori, AssociationRule, Dataset, ItemSet};
use predict::{EvaluationReport, MarkovModel, Trajectory};
use std::collections::{HashMap, HashSet};

/// Levelwise Apriori: hash-keyed candidate sets, per-transaction
/// subset tests.
pub fn frequent_itemsets(miner: &Apriori, data: &Dataset) -> Result<Vec<ItemSet>> {
    if miner.min_support == 0 {
        return Err(Error::invalid("min_support must be positive"));
    }
    if data.is_empty() {
        return Ok(Vec::new());
    }
    let transactions: Vec<Vec<Item>> = data
        .cells
        .iter()
        .map(|row| row.iter().enumerate().map(|(f, &v)| (f, v)).collect())
        .collect();

    let mut counts: HashMap<Vec<Item>, usize> = HashMap::new();
    for t in &transactions {
        for &item in t {
            *counts.entry(vec![item]).or_insert(0) += 1;
        }
    }
    let mut frequent: Vec<ItemSet> = Vec::new();
    let mut current: Vec<Vec<Item>> = counts
        .into_iter()
        .filter(|(_, c)| *c >= miner.min_support)
        .map(|(items, support)| {
            frequent.push(ItemSet {
                items: items.clone(),
                support,
            });
            items
        })
        .collect();
    current.sort();

    let mut k = 1;
    while !current.is_empty() && k < miner.max_len {
        let prev: HashSet<Vec<Item>> = current.iter().cloned().collect();
        let mut candidates: HashSet<Vec<Item>> = HashSet::new();
        for i in 0..current.len() {
            for j in i + 1..current.len() {
                let (a, b) = (&current[i], &current[j]);
                if a[..k - 1] != b[..k - 1] {
                    continue;
                }
                let mut cand = a.clone();
                cand.push(b[k - 1]);
                cand.sort();
                cand.dedup();
                if cand.len() != k + 1 {
                    continue;
                }
                let features: HashSet<usize> = cand.iter().map(|&(f, _)| f).collect();
                if features.len() != cand.len() {
                    continue;
                }
                let all_subsets_frequent = (0..cand.len()).all(|skip| {
                    let mut sub = cand.clone();
                    sub.remove(skip);
                    prev.contains(&sub)
                });
                if all_subsets_frequent {
                    candidates.insert(cand);
                }
            }
        }
        let mut counts: HashMap<&Vec<Item>, usize> = HashMap::new();
        for t in &transactions {
            let t_set: HashSet<Item> = t.iter().copied().collect();
            for cand in &candidates {
                if cand.iter().all(|item| t_set.contains(item)) {
                    *counts.entry(cand).or_insert(0) += 1;
                }
            }
        }
        let mut next: Vec<Vec<Item>> = Vec::new();
        for (cand, count) in counts {
            if count >= miner.min_support {
                frequent.push(ItemSet {
                    items: cand.clone(),
                    support: count,
                });
                next.push(cand.clone());
            }
        }
        next.sort();
        current = next;
        k += 1;
    }
    frequent.sort_by(|a, b| (a.items.len(), &a.items).cmp(&(b.items.len(), &b.items)));
    Ok(frequent)
}

/// Single-consequent rules over [`frequent_itemsets`], ranked by lift
/// with a stable sort.
pub fn rules(
    miner: &Apriori,
    data: &Dataset,
    consequent_feature: Option<usize>,
) -> Result<Vec<AssociationRule>> {
    let frequent = frequent_itemsets(miner, data)?;
    let support_of: HashMap<&Vec<Item>, usize> =
        frequent.iter().map(|s| (&s.items, s.support)).collect();
    let n = data.len() as f64;
    let mut rules = Vec::new();
    for set in frequent.iter().filter(|s| s.items.len() >= 2) {
        for (ci, &consequent) in set.items.iter().enumerate() {
            if let Some(cf) = consequent_feature {
                if consequent.0 != cf {
                    continue;
                }
            }
            let mut antecedent = set.items.clone();
            antecedent.remove(ci);
            let Some(&ante_support) = support_of.get(&antecedent) else {
                continue;
            };
            let confidence = set.support as f64 / ante_support as f64;
            if confidence < miner.min_confidence {
                continue;
            }
            let cons_support = support_of.get(&vec![consequent]).copied().unwrap_or(0) as f64;
            let lift = if cons_support > 0.0 {
                confidence / (cons_support / n)
            } else {
                f64::INFINITY
            };
            rules.push(AssociationRule {
                antecedent,
                consequent: vec![consequent],
                support: set.support,
                confidence,
                lift,
            });
        }
    }
    rules.sort_by(|a, b| b.lift.partial_cmp(&a.lift).expect("lift is finite or inf"));
    Ok(rules)
}

/// Votes for the state following `history`'s last `ctx` states, from
/// every trajectory not carrying the id `exclude`.
fn votes_at<'a>(
    trajectories: &'a [Trajectory],
    history: &[String],
    ctx: usize,
    exclude: Option<i64>,
) -> HashMap<&'a str, usize> {
    let suffix = &history[history.len() - ctx..];
    let mut votes: HashMap<&str, usize> = HashMap::new();
    for t in trajectories {
        if Some(t.patient_id) == exclude {
            continue;
        }
        if t.states.len() <= ctx {
            continue;
        }
        for start in 0..=(t.states.len() - ctx - 1) {
            if t.states[start..start + ctx] == *suffix {
                *votes.entry(t.states[start + ctx].as_str()).or_insert(0) += 1;
            }
        }
    }
    votes
}

/// Longest-suffix back-off: the most voted next state at the longest
/// context with any vote, ties by label.
pub fn predict_next(
    trajectories: &[Trajectory],
    max_context: usize,
    history: &[String],
    exclude: Option<i64>,
) -> Option<String> {
    if history.is_empty() {
        return None;
    }
    let max_ctx = max_context.min(history.len());
    for ctx in (1..=max_ctx).rev() {
        let votes = votes_at(trajectories, history, ctx, exclude);
        if votes.is_empty() {
            continue;
        }
        let mut entries: Vec<(&str, usize)> = votes.into_iter().collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        return Some(entries[0].0.to_string());
    }
    None
}

/// Leave-last-visit-out evaluation with [`predict_next`] as the
/// similar-patient predictor.
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
    if max_context == 0 {
        return Err(Error::invalid("max_context must be at least 1"));
    }
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
        let similar_pred = predict_next(&truncated, max_context, history, Some(t.patient_id))
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
