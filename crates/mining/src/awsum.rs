//! AWSum — the classifier of Quinn, Stranieri, Yearwood, Hafen &
//! Jelinek, *"AWSum: Combining Classification with Knowledge
//! Acquisition"* (paper reference \[9\]).
//!
//! AWSum assigns every feature *value* an influence towards each class
//! (the conditional class distribution given that value) and
//! classifies by summing influences across features. Its accuracy is
//! ordinary; its purpose is *knowledge acquisition*: the influence
//! table is directly readable by clinicians, and comparing the joint
//! influence of value **pairs** against their individual influences
//! surfaces unexpected interactions. The paper's §II motivating
//! example — "absence of reflex in the knees and ankles together with
//! a mid-range glucose reading was unexpectedly highly predictive of
//! diabetes" — is exactly the output of [`AwSum::top_interactions`].

use crate::dataset::Dataset;
use clinical_types::{Error, Result};

/// A trained AWSum model.
#[derive(Debug, Clone)]
pub struct AwSum {
    /// `influence[f][category][class]` = P(class | feature f has category).
    influence: Vec<Vec<Vec<f64>>>,
    /// Class priors P(class) (used for values unseen at training).
    priors: Vec<f64>,
    feature_names: Vec<String>,
    value_labels: Vec<Vec<String>>,
    class_labels: Vec<String>,
}

/// A surprising feature-value pair: its joint class confidence exceeds
/// what either value achieves alone.
#[derive(Debug, Clone, PartialEq)]
pub struct Interaction {
    /// First feature name and value label.
    pub feature_a: String,
    /// Value of the first feature.
    pub value_a: String,
    /// Second feature name.
    pub feature_b: String,
    /// Value of the second feature.
    pub value_b: String,
    /// Target class label.
    pub class: String,
    /// Rows exhibiting both values.
    pub support: usize,
    /// P(class | value_a ∧ value_b).
    pub joint_confidence: f64,
    /// max(P(class | value_a), P(class | value_b)).
    pub best_single_confidence: f64,
}

impl Interaction {
    /// How much the pair beats its best single value.
    pub fn surprise(&self) -> f64 {
        self.joint_confidence - self.best_single_confidence
    }
}

impl AwSum {
    /// Fit the influence table.
    pub fn fit(data: &Dataset) -> Result<AwSum> {
        if data.is_empty() {
            return Err(Error::invalid("cannot fit AWSum to an empty dataset"));
        }
        let n_classes = data.n_classes();
        let class_counts = data.class_counts();
        let n = data.len() as f64;
        let priors: Vec<f64> = class_counts.iter().map(|&c| c as f64 / n).collect();

        let mut influence = Vec::with_capacity(data.n_features());
        for (fi, feature) in data.features.iter().enumerate() {
            let k = feature.cardinality();
            let mut counts = vec![vec![0usize; n_classes]; k];
            for (row, &class) in data.cells.iter().zip(&data.classes) {
                counts[row[fi]][class] += 1;
            }
            // Laplace-smoothed P(class | value).
            let table: Vec<Vec<f64>> = counts
                .iter()
                .map(|per_class| {
                    let total: usize = per_class.iter().sum();
                    per_class
                        .iter()
                        .map(|&c| (c as f64 + 1.0) / (total as f64 + n_classes as f64))
                        .collect()
                })
                .collect();
            influence.push(table);
        }
        Ok(AwSum {
            influence,
            priors,
            feature_names: data.features.iter().map(|f| f.name.clone()).collect(),
            value_labels: data.features.iter().map(|f| f.labels.clone()).collect(),
            class_labels: data.class_labels.clone(),
        })
    }

    /// Influence vector P(class | value) of one feature value.
    pub fn influence_of(&self, feature: usize, category: usize) -> Result<&[f64]> {
        self.influence
            .get(feature)
            .and_then(|f| f.get(category))
            .map(Vec::as_slice)
            .ok_or_else(|| {
                Error::invalid(format!(
                    "no influence for feature {feature} value {category}"
                ))
            })
    }

    /// Class scores: sum of influences across features.
    pub fn scores(&self, row: &[usize]) -> Result<Vec<f64>> {
        if row.len() != self.influence.len() {
            return Err(Error::invalid(format!(
                "row has {} features, model expects {}",
                row.len(),
                self.influence.len()
            )));
        }
        let mut scores = vec![0.0; self.priors.len()];
        for (fi, &cat) in row.iter().enumerate() {
            let contrib = self.influence[fi]
                .get(cat)
                .map(Vec::as_slice)
                .unwrap_or(&self.priors);
            for (s, c) in scores.iter_mut().zip(contrib) {
                *s += c;
            }
        }
        Ok(scores)
    }

    /// Predicted class for one row.
    pub fn predict(&self, row: &[usize]) -> Result<usize> {
        let scores = self.scores(row)?;
        Ok(scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("scores are finite"))
            .map(|(i, _)| i)
            .unwrap_or(0))
    }

    /// Predictions for every row of a dataset.
    pub fn predict_all(&self, data: &Dataset) -> Result<Vec<usize>> {
        data.cells.iter().map(|row| self.predict(row)).collect()
    }

    /// The `k` single values with the strongest influence toward
    /// `class`, as `(feature, value, P(class | value))`.
    pub fn top_influences(&self, class: usize, k: usize) -> Vec<(String, String, f64)> {
        let mut all: Vec<(String, String, f64)> = Vec::new();
        for (fi, table) in self.influence.iter().enumerate() {
            for (vi, per_class) in table.iter().enumerate() {
                if let Some(&p) = per_class.get(class) {
                    all.push((
                        self.feature_names[fi].clone(),
                        self.value_labels[fi]
                            .get(vi)
                            .cloned()
                            .unwrap_or_else(|| format!("#{vi}")),
                        p,
                    ));
                }
            }
        }
        all.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite"));
        all.truncate(k);
        all
    }

    /// Knowledge acquisition: scan all cross-feature value pairs and
    /// return those whose joint confidence toward some class exceeds
    /// the best single-value confidence, ranked by surprise. `data`
    /// must be the (or a compatible) dataset the model was fitted on.
    pub fn top_interactions(
        &self,
        data: &Dataset,
        class: usize,
        min_support: usize,
        k: usize,
    ) -> Result<Vec<Interaction>> {
        if class >= self.class_labels.len() {
            return Err(Error::invalid(format!("class {class} out of range")));
        }
        let n_features = data.n_features();
        let mut out: Vec<Interaction> = Vec::new();
        for fa in 0..n_features {
            for fb in fa + 1..n_features {
                let ka = data.features[fa].cardinality();
                let kb = data.features[fb].cardinality();
                // Joint counts: (value_a, value_b) → (class hits, rows).
                let mut hits = vec![vec![0usize; kb]; ka];
                let mut totals = vec![vec![0usize; kb]; ka];
                for (row, &c) in data.cells.iter().zip(&data.classes) {
                    totals[row[fa]][row[fb]] += 1;
                    if c == class {
                        hits[row[fa]][row[fb]] += 1;
                    }
                }
                for va in 0..ka {
                    for vb in 0..kb {
                        let support = totals[va][vb];
                        if support < min_support {
                            continue;
                        }
                        let joint = hits[va][vb] as f64 / support as f64;
                        let single_a = self.influence[fa][va][class];
                        let single_b = self.influence[fb][vb][class];
                        let best_single = single_a.max(single_b);
                        if joint > best_single {
                            out.push(Interaction {
                                feature_a: self.feature_names[fa].clone(),
                                value_a: data.features[fa].labels[va].clone(),
                                feature_b: self.feature_names[fb].clone(),
                                value_b: data.features[fb].labels[vb].clone(),
                                class: self.class_labels[class].clone(),
                                support,
                                joint_confidence: joint,
                                best_single_confidence: best_single,
                            });
                        }
                    }
                }
            }
        }
        out.sort_by(|a, b| b.surprise().partial_cmp(&a.surprise()).expect("finite"));
        out.truncate(k);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Feature;

    /// Neither feature alone predicts class 1 strongly, but the
    /// combination (a=1, b=1) does — an interaction.
    fn interaction_dataset() -> Dataset {
        let mut cells = Vec::new();
        let mut classes = Vec::new();
        // 25% of rows in each (a,b) quadrant; class 1 iff a=1 and b=1
        // (with slight leakage to keep singles uninformative but not
        // degenerate).
        for a in 0..2usize {
            for b in 0..2usize {
                for i in 0..50usize {
                    cells.push(vec![a, b]);
                    let class = if a == 1 && b == 1 {
                        usize::from(i < 45) // 90% class 1
                    } else {
                        usize::from(i < 10) // 20% class 1
                    };
                    classes.push(class);
                }
            }
        }
        Dataset {
            features: vec![
                Feature {
                    name: "Reflex".into(),
                    labels: vec!["present".into(), "absent".into()],
                },
                Feature {
                    name: "FBG_Band".into(),
                    labels: vec!["other".into(), "mid".into()],
                },
            ],
            class_labels: vec!["no".into(), "yes".into()],
            cells,
            classes,
        }
    }

    #[test]
    fn influence_is_conditional_class_distribution() {
        let ds = interaction_dataset();
        let model = AwSum::fit(&ds).unwrap();
        // P(yes | reflex absent) ≈ (45 + 10) / 100 = 0.55.
        let inf = model.influence_of(0, 1).unwrap();
        assert!((inf[1] - 0.55).abs() < 0.05, "influence {inf:?}");
        // Rows sum to ~1.
        assert!((inf[0] + inf[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn prediction_sums_influences() {
        let ds = interaction_dataset();
        let model = AwSum::fit(&ds).unwrap();
        assert_eq!(model.predict(&[1, 1]).unwrap(), 1);
        assert_eq!(model.predict(&[0, 0]).unwrap(), 0);
    }

    #[test]
    fn finds_the_reflex_glucose_style_interaction() {
        let ds = interaction_dataset();
        let model = AwSum::fit(&ds).unwrap();
        let interactions = model.top_interactions(&ds, 1, 20, 5).unwrap();
        assert!(!interactions.is_empty(), "no interaction surfaced");
        let top = &interactions[0];
        assert_eq!(top.value_a, "absent");
        assert_eq!(top.value_b, "mid");
        assert!(top.joint_confidence > 0.85);
        assert!(top.surprise() > 0.3, "surprise {}", top.surprise());
    }

    #[test]
    fn min_support_filters_rare_pairs() {
        let ds = interaction_dataset();
        let model = AwSum::fit(&ds).unwrap();
        let none = model.top_interactions(&ds, 1, 1000, 5).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn top_influences_ranked_descending() {
        let ds = interaction_dataset();
        let model = AwSum::fit(&ds).unwrap();
        let top = model.top_influences(1, 4);
        assert_eq!(top.len(), 4);
        for w in top.windows(2) {
            assert!(w[0].2 >= w[1].2);
        }
    }

    #[test]
    fn bad_inputs_error() {
        let ds = interaction_dataset();
        let model = AwSum::fit(&ds).unwrap();
        assert!(model.predict(&[0]).is_err());
        assert!(model.top_interactions(&ds, 9, 1, 5).is_err());
        assert!(model.influence_of(5, 0).is_err());
    }
}
