//! Supervised top-down discretisation: Fayyad–Irani entropy
//! partitioning with the MDL stopping criterion ("MDLP").
//!
//! The canonical top-down method from the survey the paper cites \[17\]:
//! recursively choose the cut point that minimises class-entropy of
//! the two sides, and stop when the information gain no longer pays
//! for the cost of encoding the cut (the Minimum Description Length
//! principle). Produces as many bins as the class structure supports —
//! no `k` parameter.

use super::{entropy, sorted_pairs, Bins, Discretiser};
use clinical_types::{Error, Result};
use std::collections::HashSet;

/// Fayyad–Irani MDLP discretiser (supervised).
#[derive(Debug, Clone, Default)]
pub struct Mdlp {
    /// Safety cap on recursion-produced cut points (0 = unlimited).
    pub max_cuts: usize,
}

impl Mdlp {
    /// MDLP with no cut cap.
    pub fn new() -> Self {
        Mdlp { max_cuts: 0 }
    }
}

impl Discretiser for Mdlp {
    fn method_name(&self) -> &'static str {
        "mdlp"
    }

    fn fit(&self, values: &[f64], classes: Option<&[usize]>) -> Result<Bins> {
        let classes =
            classes.ok_or_else(|| Error::invalid("MDLP is supervised: class labels required"))?;
        if values.is_empty() {
            return Err(Error::invalid("cannot fit bins to an empty column"));
        }
        let pairs = sorted_pairs(values, classes)?;
        let n_classes = pairs.iter().map(|p| p.1).max().unwrap_or(0) + 1;
        let mut cuts = Vec::new();
        partition(&pairs, n_classes, &mut cuts);
        cuts.sort_by(|a, b| a.total_cmp(b));
        cuts.dedup();
        if self.max_cuts > 0 && cuts.len() > self.max_cuts {
            cuts.truncate(self.max_cuts);
        }
        Bins::from_edges(cuts)
    }
}

/// Class-count vector over a slice of sorted pairs.
fn counts(pairs: &[(f64, usize)], n_classes: usize) -> Vec<usize> {
    let mut c = vec![0usize; n_classes];
    for &(_, cls) in pairs {
        c[cls] += 1;
    }
    c
}

/// Recursively partition `pairs` (sorted by value), appending accepted
/// cut points to `cuts`.
fn partition(pairs: &[(f64, usize)], n_classes: usize, cuts: &mut Vec<f64>) {
    let n = pairs.len();
    if n < 2 {
        return;
    }
    let parent_counts = counts(pairs, n_classes);
    let parent_entropy = entropy(&parent_counts);
    if parent_entropy == 0.0 {
        return; // already pure
    }

    // Scan boundary candidates: positions where the value changes.
    // Maintain left-side class counts incrementally — O(n · classes).
    let mut left = vec![0usize; n_classes];
    let mut best: Option<(usize, f64, f64)> = None; // (split index, cut value, weighted entropy)
    for i in 0..n - 1 {
        left[pairs[i].1] += 1;
        if pairs[i].0 == pairs[i + 1].0 {
            continue; // not a legal cut: same value on both sides
        }
        let right: Vec<usize> = parent_counts
            .iter()
            .zip(&left)
            .map(|(p, l)| p - l)
            .collect();
        let nl = (i + 1) as f64;
        let nr = (n - i - 1) as f64;
        let we = (nl * entropy(&left) + nr * entropy(&right)) / n as f64;
        if best.is_none_or(|(_, _, b)| we < b) {
            let cut = (pairs[i].0 + pairs[i + 1].0) / 2.0;
            best = Some((i, cut, we));
        }
    }
    let Some((split_idx, cut, weighted_entropy)) = best else {
        return; // all values identical: nothing to cut
    };

    // Fayyad–Irani MDL acceptance test.
    let gain = parent_entropy - weighted_entropy;
    let left_slice = &pairs[..=split_idx];
    let right_slice = &pairs[split_idx + 1..];
    let k = distinct_classes(pairs);
    let k1 = distinct_classes(left_slice);
    let k2 = distinct_classes(right_slice);
    let e = parent_entropy;
    let e1 = entropy(&counts(left_slice, n_classes));
    let e2 = entropy(&counts(right_slice, n_classes));
    let delta =
        ((3f64.powi(k as i32)) - 2.0).log2() - (k as f64 * e - k1 as f64 * e1 - k2 as f64 * e2);
    let threshold = ((n as f64 - 1.0).log2() + delta) / n as f64;
    if gain <= threshold {
        return;
    }

    cuts.push(cut);
    partition(left_slice, n_classes, cuts);
    partition(right_slice, n_classes, cuts);
}

fn distinct_classes(pairs: &[(f64, usize)]) -> usize {
    pairs.iter().map(|p| p.1).collect::<HashSet<_>>().len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requires_class_labels() {
        assert!(Mdlp::new().fit(&[1.0, 2.0], None).is_err());
    }

    #[test]
    fn finds_a_clean_class_boundary() {
        // Classes separate exactly at 5.0 with a wide margin.
        let values: Vec<f64> = (0..50)
            .map(|i| i as f64 / 10.0)
            .chain((0..50).map(|i| 6.0 + i as f64 / 10.0))
            .collect();
        let classes: Vec<usize> = std::iter::repeat_n(0, 50)
            .chain(std::iter::repeat_n(1, 50))
            .collect();
        let bins = Mdlp::new().fit(&values, Some(&classes)).unwrap();
        assert_eq!(bins.len(), 2, "expected exactly one accepted cut");
        let cut = bins.edges()[0];
        assert!((4.9..=6.0).contains(&cut), "cut {cut} not at the boundary");
    }

    #[test]
    fn pure_column_produces_single_bin() {
        let values: Vec<f64> = (0..40).map(f64::from).collect();
        let classes = vec![0usize; 40];
        let bins = Mdlp::new().fit(&values, Some(&classes)).unwrap();
        assert_eq!(bins.len(), 1);
    }

    #[test]
    fn random_labels_are_not_cut() {
        // Alternating classes over an ascending column carry no usable
        // split: MDL must reject every candidate.
        let values: Vec<f64> = (0..60).map(f64::from).collect();
        let classes: Vec<usize> = (0..60).map(|i| i % 2).collect();
        let bins = Mdlp::new().fit(&values, Some(&classes)).unwrap();
        assert_eq!(bins.len(), 1, "MDL should refuse to cut noise");
    }

    #[test]
    fn three_class_staircase_gets_two_cuts() {
        let mut values = Vec::new();
        let mut classes = Vec::new();
        for (c, base) in [(0usize, 0.0), (1, 10.0), (2, 20.0)] {
            for i in 0..40 {
                values.push(base + i as f64 * 0.1);
                classes.push(c);
            }
        }
        let bins = Mdlp::new().fit(&values, Some(&classes)).unwrap();
        assert_eq!(bins.len(), 3);
    }

    #[test]
    fn tied_values_never_become_cuts() {
        // All mass at two values; the only legal cut is between them.
        let values = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0];
        let classes = [0, 0, 0, 1, 1, 1];
        let bins = Mdlp::new().fit(&values, Some(&classes)).unwrap();
        if bins.len() == 2 {
            let cut = bins.edges()[0];
            assert!(cut > 1.0 && cut < 2.0);
        }
    }

    #[test]
    fn length_mismatch_is_an_error() {
        assert!(Mdlp::new().fit(&[1.0, 2.0], Some(&[0])).is_err());
    }

    #[test]
    fn max_cuts_caps_output() {
        let mut values = Vec::new();
        let mut classes = Vec::new();
        for (c, base) in [(0usize, 0.0), (1, 10.0), (2, 20.0), (0, 30.0)] {
            for i in 0..30 {
                values.push(base + i as f64 * 0.1);
                classes.push(c);
            }
        }
        let bins = Mdlp { max_cuts: 1 }.fit(&values, Some(&classes)).unwrap();
        assert!(bins.len() <= 2);
    }
}
