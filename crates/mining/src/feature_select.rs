//! Wrapper–filter hybrid feature selection.
//!
//! Paper reference \[21\] (Huda, Jelinek, Ray, Stranieri & Yearwood)
//! identifies cardiovascular autonomic neuropathy features with a
//! hybrid of filter ranking and wrapper search. We implement the same
//! shape: a mutual-information **filter** ranks all features cheaply,
//! then a greedy forward **wrapper** adds features (in filter order)
//! only when they improve held-out naive-Bayes accuracy.

use crate::dataset::Dataset;
use crate::metrics::accuracy;
use crate::naive_bayes::NaiveBayes;
use clinical_types::{Error, Result};

/// Mutual information I(feature; class) in bits for every feature,
/// returned as `(feature index, MI)` sorted descending.
pub fn mutual_information_ranking(data: &Dataset) -> Result<Vec<(usize, f64)>> {
    if data.is_empty() {
        return Err(Error::invalid("cannot rank features of an empty dataset"));
    }
    let n = data.len() as f64;
    let class_counts = data.class_counts();
    let mut ranking = Vec::with_capacity(data.n_features());
    for fi in 0..data.n_features() {
        let k = data.features[fi].cardinality();
        let mut joint = vec![vec![0usize; data.n_classes()]; k];
        let mut value_counts = vec![0usize; k];
        for (row, &class) in data.cells.iter().zip(&data.classes) {
            joint[row[fi]][class] += 1;
            value_counts[row[fi]] += 1;
        }
        let mut mi = 0.0;
        for v in 0..k {
            for c in 0..data.n_classes() {
                let pxy = joint[v][c] as f64 / n;
                if pxy == 0.0 {
                    continue;
                }
                let px = value_counts[v] as f64 / n;
                let py = class_counts[c] as f64 / n;
                mi += pxy * (pxy / (px * py)).log2();
            }
        }
        ranking.push((fi, mi));
    }
    ranking.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("MI is finite"));
    Ok(ranking)
}

/// Greedy forward wrapper over the filter ranking: walk features in
/// MI order, keep each one only if it improves validation accuracy.
/// Returns the selected feature indices (in selection order) and the
/// final validation accuracy.
pub fn forward_select(data: &Dataset, max_features: usize, seed: u64) -> Result<(Vec<usize>, f64)> {
    if max_features == 0 {
        return Err(Error::invalid("max_features must be positive"));
    }
    let (train, valid) = data.split(0.3, seed)?;
    if train.is_empty() || valid.is_empty() {
        return Err(Error::invalid("dataset too small for a wrapper split"));
    }
    let ranking = mutual_information_ranking(&train)?;

    let evaluate = |selected: &[usize]| -> Result<f64> {
        let t = train.select_features(selected)?;
        let v = valid.select_features(selected)?;
        let model = NaiveBayes::fit(&t)?;
        accuracy(&v.classes, &model.predict_all(&v)?)
    };

    let mut selected: Vec<usize> = Vec::new();
    let mut best_acc = 0.0;
    for &(fi, _) in &ranking {
        if selected.len() >= max_features {
            break;
        }
        let mut candidate = selected.clone();
        candidate.push(fi);
        let acc = evaluate(&candidate)?;
        if acc > best_acc {
            best_acc = acc;
            selected = candidate;
        }
    }
    if selected.is_empty() {
        // Even a single feature never beat 0.0 — degenerate, keep the
        // top-ranked feature so downstream models have something.
        let top = ranking.first().map(|&(fi, _)| fi).unwrap_or(0);
        selected.push(top);
        best_acc = evaluate(&selected)?;
    }
    Ok((selected, best_acc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Feature;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Feature 0 strongly predicts the class, feature 1 weakly,
    /// feature 2 is pure noise.
    fn graded() -> Dataset {
        let mut rng = StdRng::seed_from_u64(17);
        let mut cells = Vec::new();
        let mut classes = Vec::new();
        for _ in 0..400 {
            let class = usize::from(rng.random::<f64>() < 0.5);
            let strong = if rng.random::<f64>() < 0.95 {
                class
            } else {
                1 - class
            };
            let weak = if rng.random::<f64>() < 0.65 {
                class
            } else {
                1 - class
            };
            let noise = usize::from(rng.random::<f64>() < 0.5);
            cells.push(vec![strong, weak, noise]);
            classes.push(class);
        }
        Dataset {
            features: ["Strong", "Weak", "Noise"]
                .iter()
                .map(|n| Feature {
                    name: (*n).into(),
                    labels: vec!["0".into(), "1".into()],
                })
                .collect(),
            class_labels: vec!["no".into(), "yes".into()],
            cells,
            classes,
        }
    }

    #[test]
    fn mi_ranking_orders_by_informativeness() {
        let ranking = mutual_information_ranking(&graded()).unwrap();
        let order: Vec<usize> = ranking.iter().map(|&(f, _)| f).collect();
        assert_eq!(order[0], 0, "strong feature must rank first");
        assert_eq!(order[2], 2, "noise must rank last");
        assert!(ranking[0].1 > ranking[1].1);
        assert!(ranking[1].1 > ranking[2].1);
        // Noise MI near zero.
        assert!(ranking[2].1 < 0.05);
    }

    #[test]
    fn mi_of_perfect_predictor_is_class_entropy() {
        let mut ds = graded();
        // Make feature 0 a perfect copy of the class.
        for (row, &c) in ds.cells.iter_mut().zip(&ds.classes) {
            row[0] = c;
        }
        let ranking = mutual_information_ranking(&ds).unwrap();
        let (fi, mi) = ranking[0];
        assert_eq!(fi, 0);
        assert!(mi > 0.9, "MI {mi} should approach 1 bit");
    }

    #[test]
    fn forward_selection_keeps_signal_drops_noise() {
        let (selected, acc) = forward_select(&graded(), 3, 5).unwrap();
        assert!(selected.contains(&0), "strong feature must be selected");
        assert!(acc > 0.85, "validation accuracy {acc}");
        // Noise should rarely help; tolerate but verify the strong
        // feature is first.
        assert_eq!(selected[0], 0);
    }

    #[test]
    fn max_features_is_respected() {
        let (selected, _) = forward_select(&graded(), 1, 5).unwrap();
        assert_eq!(selected.len(), 1);
        assert!(forward_select(&graded(), 0, 5).is_err());
    }

    #[test]
    fn empty_dataset_errors() {
        let empty = Dataset {
            features: vec![],
            class_labels: vec![],
            cells: vec![],
            classes: vec![],
        };
        assert!(mutual_information_ranking(&empty).is_err());
    }
}
