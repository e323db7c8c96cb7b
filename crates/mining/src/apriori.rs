//! Apriori frequent-itemset mining and association rules.
//!
//! Items are `(feature, category)` pairs over a categorical
//! [`Dataset`]; transactions are rows. Rules are ranked by lift.
//! This is the "association" member of the paper's Data Analytics
//! triad, and the second discovery channel (besides AWSum) for the
//! reflex + glucose insight: `{AnkleReflex=absent, FBG_Band=high}
//! → {DiabetesStatus=yes}`.

use crate::dataset::Dataset;
use clinical_types::{Error, Result};
use std::collections::HashMap;

/// An item: `(feature index, category index)`.
pub type Item = (usize, usize);

/// A frequent itemset with its support count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemSet {
    /// Sorted items.
    pub items: Vec<Item>,
    /// Number of transactions containing all items.
    pub support: usize,
}

/// An association rule `antecedent → consequent`.
#[derive(Debug, Clone, PartialEq)]
pub struct AssociationRule {
    /// Left-hand side items.
    pub antecedent: Vec<Item>,
    /// Right-hand side items.
    pub consequent: Vec<Item>,
    /// Transactions containing antecedent ∪ consequent.
    pub support: usize,
    /// support(A ∪ C) / support(A).
    pub confidence: f64,
    /// confidence / P(C) — > 1 means positive association.
    pub lift: f64,
}

impl AssociationRule {
    /// Render a rule with human-readable labels from `data`.
    pub fn describe(&self, data: &Dataset) -> String {
        let fmt = |items: &[Item]| {
            items
                .iter()
                .map(|&(f, v)| {
                    format!(
                        "{}={}",
                        data.features[f].name,
                        data.features[f]
                            .labels
                            .get(v)
                            .map(String::as_str)
                            .unwrap_or("?")
                    )
                })
                .collect::<Vec<_>>()
                .join(" & ")
        };
        format!(
            "{} => {} (support={}, confidence={:.2}, lift={:.2})",
            fmt(&self.antecedent),
            fmt(&self.consequent),
            self.support,
            self.confidence,
            self.lift
        )
    }
}

/// No frequent itemset: a row code for an infrequent value, or a row
/// that holds none of a subset's frequent itemsets.
const NONE: u32 = u32::MAX;

/// A frequent itemset of the level being extended.
struct Frequent {
    items: Vec<Item>,
    support: usize,
    /// Its feature subset, an index into the level's per-row holdings.
    subset: usize,
    /// Its index among that subset's frequent itemsets.
    index: u32,
}

impl Frequent {
    fn into_set(self) -> ItemSet {
        ItemSet {
            items: self.items,
            support: self.support,
        }
    }
}

/// The candidates over one feature subset: a frequent subset of the
/// level (`parent`) plus a later `feature`.
struct Group {
    parent: usize,
    feature: usize,
    /// `parent index · radix + code` → candidate.
    keys: HashMap<u64, u32>,
    candidates: Vec<Vec<Item>>,
}

/// Apriori miner configuration.
#[derive(Debug, Clone)]
pub struct Apriori {
    /// Minimum absolute support (transactions).
    pub min_support: usize,
    /// Minimum rule confidence.
    pub min_confidence: f64,
    /// Maximum itemset size explored.
    pub max_len: usize,
}

impl Apriori {
    /// Miner with the given thresholds.
    pub fn new(min_support: usize, min_confidence: f64, max_len: usize) -> Self {
        Apriori {
            min_support,
            min_confidence,
            max_len,
        }
    }

    /// Mine all frequent itemsets, ordered by `(len, items)`.
    ///
    /// Levelwise candidate generation with the Apriori pruning
    /// property; every row holds one item per feature, so an itemset
    /// is a (feature subset, value tuple) and its support is a cell of
    /// the COUNT over that subset. Each feature's frequent values get
    /// dense codes, and each row carries, per frequent subset, the
    /// index of the frequent itemset it holds there (or none). A
    /// candidate over `S ∪ {f}` is keyed `parent · radix_f + code_f`,
    /// where `parent` is its prefix itemset's index over `S`: both
    /// factors are below the row count, so the `u64` key cannot wrap.
    /// One pass over the rows counts every candidate of a subset.
    pub fn frequent_itemsets(&self, data: &Dataset) -> Result<Vec<ItemSet>> {
        if self.min_support == 0 {
            return Err(Error::invalid("min_support must be positive"));
        }
        if data.is_empty() {
            return Ok(Vec::new());
        }
        if data.len() >= NONE as usize {
            return Err(Error::invalid("too many rows to count"));
        }
        let width = data.cells.iter().map(Vec::len).max().unwrap_or(0);

        // L1: each feature's frequent values, ascending, and per row
        // the code (index) of its value among them.
        let mut values: Vec<Vec<usize>> = Vec::with_capacity(width);
        let mut codes: Vec<Vec<u32>> = Vec::with_capacity(width);
        let mut current: Vec<Frequent> = Vec::new();
        for f in 0..width {
            let mut column: Vec<usize> = data
                .cells
                .iter()
                .filter_map(|r| r.get(f).copied())
                .collect();
            column.sort_unstable();
            let mut frequent_values = Vec::new();
            for run in column.chunk_by(|a, b| a == b) {
                if run.len() >= self.min_support {
                    current.push(Frequent {
                        items: vec![(f, run[0])],
                        support: run.len(),
                        subset: f,
                        index: frequent_values.len() as u32,
                    });
                    frequent_values.push(run[0]);
                }
            }
            codes.push(
                data.cells
                    .iter()
                    .map(|r| {
                        r.get(f)
                            .and_then(|v| frequent_values.binary_search(v).ok())
                            .map_or(NONE, |c| c as u32)
                    })
                    .collect(),
            );
            values.push(frequent_values);
        }
        // Per subset of the current level, per row: the index of the
        // frequent itemset the row holds over that subset. Level 1's
        // subsets are the single features.
        let mut held: Vec<Vec<u32>> = codes.clone();
        current.sort_by(|a, b| a.items.cmp(&b.items));

        let mut out = Vec::new();
        let mut k = 1;
        while !current.is_empty() && k < self.max_len {
            // Join sets sharing a (k-1)-prefix (contiguous, as `current`
            // is sorted); the candidate's subset is the prefix set's
            // subset plus the new last feature.
            let mut groups: Vec<Group> = Vec::new();
            let mut group_of: HashMap<(usize, usize), usize> = HashMap::new();
            let mut sub: Vec<Item> = Vec::with_capacity(k);
            for (i, a) in current.iter().enumerate() {
                for b in &current[i + 1..] {
                    if a.items[..k - 1] != b.items[..k - 1] {
                        break;
                    }
                    let (f, v) = b.items[k - 1];
                    // An itemset cannot contain two values of one feature.
                    if f == a.items[k - 1].0 {
                        continue;
                    }
                    // Apriori property: every k-subset must be frequent
                    // (dropping the last item gives `a`, the one before
                    // it `b`).
                    let all_subsets_frequent = (0..k - 1).all(|skip| {
                        sub.clear();
                        sub.extend_from_slice(&a.items[..skip]);
                        sub.extend_from_slice(&a.items[skip + 1..]);
                        sub.push((f, v));
                        current
                            .binary_search_by(|c| c.items.as_slice().cmp(&sub))
                            .is_ok()
                    });
                    if !all_subsets_frequent {
                        continue;
                    }
                    let g = *group_of.entry((a.subset, f)).or_insert_with(|| {
                        groups.push(Group {
                            parent: a.subset,
                            feature: f,
                            keys: HashMap::new(),
                            candidates: Vec::new(),
                        });
                        groups.len() - 1
                    });
                    let group = &mut groups[g];
                    let code = values[f].binary_search(&v).expect("frequent value") as u64;
                    let radix = values[f].len() as u64;
                    group.keys.insert(
                        u64::from(a.index) * radix + code,
                        group.candidates.len() as u32,
                    );
                    let mut items = a.items.clone();
                    items.push((f, v));
                    group.candidates.push(items);
                }
            }

            // Count each subset's candidates in one pass over the rows.
            let mut next = Vec::new();
            let mut next_held = Vec::with_capacity(groups.len());
            for group in groups {
                let parent = &held[group.parent];
                let code = &codes[group.feature];
                let radix = values[group.feature].len() as u64;
                let mut counts = vec![0usize; group.candidates.len()];
                let mut row_held = vec![NONE; data.len()];
                for (row, slot) in row_held.iter_mut().enumerate() {
                    let (p, c) = (parent[row], code[row]);
                    if p == NONE || c == NONE {
                        continue;
                    }
                    if let Some(&cand) = group.keys.get(&(u64::from(p) * radix + u64::from(c))) {
                        counts[cand as usize] += 1;
                        *slot = cand;
                    }
                }
                // Keep the frequent candidates; renumber rows onto them.
                let subset = next_held.len();
                let mut index = vec![NONE; counts.len()];
                let mut kept = 0u32;
                for (cand, items) in group.candidates.into_iter().enumerate() {
                    if counts[cand] >= self.min_support {
                        index[cand] = kept;
                        next.push(Frequent {
                            items,
                            support: counts[cand],
                            subset,
                            index: kept,
                        });
                        kept += 1;
                    }
                }
                for slot in row_held.iter_mut().filter(|s| **s != NONE) {
                    *slot = index[*slot as usize];
                }
                next_held.push(row_held);
            }
            next.sort_by(|a, b| a.items.cmp(&b.items));
            out.extend(current.into_iter().map(Frequent::into_set));
            current = next;
            held = next_held;
            k += 1;
        }
        out.extend(current.into_iter().map(Frequent::into_set));
        out.sort_by(|a, b| (a.items.len(), &a.items).cmp(&(b.items.len(), &b.items)));
        Ok(out)
    }

    /// Derive association rules with single-item consequents,
    /// restricted to `consequent_feature` when given (e.g. only rules
    /// predicting `DiabetesStatus`). Ranked by lift descending.
    pub fn rules(
        &self,
        data: &Dataset,
        consequent_feature: Option<usize>,
    ) -> Result<Vec<AssociationRule>> {
        let frequent = self.frequent_itemsets(data)?;
        let support_of: HashMap<&[Item], usize> = frequent
            .iter()
            .map(|s| (s.items.as_slice(), s.support))
            .collect();
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
                let Some(&ante_support) = support_of.get(antecedent.as_slice()) else {
                    continue;
                };
                let confidence = set.support as f64 / ante_support as f64;
                if confidence < self.min_confidence {
                    continue;
                }
                let cons_support = support_of
                    .get(std::slice::from_ref(&consequent))
                    .copied()
                    .unwrap_or(0) as f64;
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
        rules.sort_by(|a, b| b.lift.total_cmp(&a.lift));
        Ok(rules)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Feature;
    use std::collections::HashSet;

    /// f0=1 and f1=1 co-occur and imply class=1 (feature 2).
    fn demo() -> Dataset {
        let mut cells = Vec::new();
        for _ in 0..40 {
            cells.push(vec![1, 1, 1]);
        }
        for _ in 0..40 {
            cells.push(vec![0, 0, 0]);
        }
        for _ in 0..10 {
            cells.push(vec![1, 0, 0]);
        }
        for _ in 0..10 {
            cells.push(vec![0, 1, 0]);
        }
        let classes = cells.iter().map(|r| r[2]).collect();
        Dataset {
            features: (0..3)
                .map(|i| Feature {
                    name: format!("f{i}"),
                    labels: vec!["0".into(), "1".into()],
                })
                .collect(),
            class_labels: vec!["0".into(), "1".into()],
            cells,
            classes,
        }
    }

    #[test]
    fn finds_frequent_itemsets_with_antimonotone_support() {
        let sets = Apriori::new(30, 0.5, 3).frequent_itemsets(&demo()).unwrap();
        assert!(!sets.is_empty());
        // Support is anti-monotone: any superset has ≤ support.
        let support_of = |items: &[Item]| sets.iter().find(|s| s.items == items).map(|s| s.support);
        let single = support_of(&[(0, 1)]).unwrap();
        let pair = support_of(&[(0, 1), (1, 1)]).unwrap();
        assert!(pair <= single);
        assert_eq!(pair, 40);
        assert_eq!(single, 50);
    }

    #[test]
    fn itemsets_never_mix_values_of_one_feature() {
        let sets = Apriori::new(5, 0.5, 3).frequent_itemsets(&demo()).unwrap();
        for s in &sets {
            let features: HashSet<usize> = s.items.iter().map(|&(f, _)| f).collect();
            assert_eq!(features.len(), s.items.len(), "mixed itemset {:?}", s.items);
        }
    }

    #[test]
    fn rule_confidence_and_lift() {
        let rules = Apriori::new(30, 0.8, 3).rules(&demo(), Some(2)).unwrap();
        let rule = rules
            .iter()
            .find(|r| r.antecedent == vec![(0, 1), (1, 1)] && r.consequent == vec![(2, 1)])
            .expect("the planted rule must be found");
        // {f0=1, f1=1} appears 40 times, always with f2=1.
        assert!((rule.confidence - 1.0).abs() < 1e-9);
        // P(f2=1) = 0.4 → lift = 2.5.
        assert!((rule.lift - 2.5).abs() < 1e-9);
    }

    #[test]
    fn consequent_feature_restriction() {
        let rules = Apriori::new(30, 0.5, 3).rules(&demo(), Some(2)).unwrap();
        for r in &rules {
            assert!(r.consequent.iter().all(|&(f, _)| f == 2));
        }
    }

    #[test]
    fn min_support_prunes() {
        let sets = Apriori::new(1000, 0.5, 3)
            .frequent_itemsets(&demo())
            .unwrap();
        assert!(sets.is_empty());
        assert!(Apriori::new(0, 0.5, 3).frequent_itemsets(&demo()).is_err());
    }

    #[test]
    fn max_len_caps_itemset_size() {
        let sets = Apriori::new(10, 0.5, 1).frequent_itemsets(&demo()).unwrap();
        assert!(sets.iter().all(|s| s.items.len() == 1));
    }

    #[test]
    fn describe_renders_labels() {
        let rules = Apriori::new(30, 0.8, 3).rules(&demo(), Some(2)).unwrap();
        let text = rules[0].describe(&demo());
        assert!(text.contains("=>"));
        assert!(text.contains("lift"));
    }

    #[test]
    fn empty_dataset_yields_no_sets() {
        let empty = Dataset {
            features: vec![],
            class_labels: vec![],
            cells: vec![],
            classes: vec![],
        };
        assert!(Apriori::new(1, 0.5, 2)
            .frequent_itemsets(&empty)
            .unwrap()
            .is_empty());
    }
}
