//! Discretisation of continuous clinical measures.
//!
//! §IV.1 of the paper: numeric clinical measures must be converted to
//! discrete ranges before aggregation and analysis. Where a clinician
//! supplies a scheme (the paper's Table I) it is used directly
//! ([`clinical`]); otherwise an algorithmic method is chosen — the
//! paper cites Kotsiantis & Kanellopoulos \[17\], from which we
//! implement two unsupervised top-down methods ([`equal_width`],
//! [`equal_frequency`]), one supervised top-down method
//! ([`mdlp`], Fayyad–Irani entropy partitioning) and one supervised
//! bottom-up method ([`chimerge`]).
//!
//! All methods produce the same artefact: a [`Bins`] object — sorted
//! interior cut points plus interval labels — which can then be
//! applied to a table column, mirroring §V.A where attributes without
//! clinical schemes "were duplicated with one having the original
//! continuous form and the other discretised".

pub mod chimerge;
pub mod clinical;
pub mod equal_frequency;
pub mod equal_width;
pub mod mdlp;

use clinical_types::{Error, Result};

/// A fitted discretisation: `edges.len() + 1` intervals.
///
/// Interval `i` covers `[edges[i-1], edges[i])` with the conventional
/// open ends: interval `0` is `(-inf, edges[0])` and the last interval
/// is `[edges.last(), +inf)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bins {
    /// Sorted, strictly increasing interior cut points.
    edges: Vec<f64>,
    /// One label per interval.
    labels: Vec<String>,
}

impl Bins {
    /// Build from cut points, generating `[lo, hi)`-style labels.
    pub fn from_edges(edges: Vec<f64>) -> Result<Self> {
        let labels = auto_labels(&edges);
        Bins::with_labels(edges, labels)
    }

    /// Build from cut points and explicit interval labels.
    pub fn with_labels(edges: Vec<f64>, labels: Vec<String>) -> Result<Self> {
        if labels.len() != edges.len() + 1 {
            return Err(Error::invalid(format!(
                "{} edges need {} labels, got {}",
                edges.len(),
                edges.len() + 1,
                labels.len()
            )));
        }
        if edges.windows(2).any(|w| w[0] >= w[1]) {
            return Err(Error::invalid("bin edges must be strictly increasing"));
        }
        if edges.iter().any(|e| !e.is_finite()) {
            return Err(Error::invalid("bin edges must be finite"));
        }
        Ok(Bins { edges, labels })
    }

    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Always at least one interval.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Interior cut points.
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Interval labels.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Index of the interval containing `value`.
    pub fn assign(&self, value: f64) -> usize {
        // partition_point returns the count of edges <= value, which is
        // exactly the interval index under the [lo, hi) convention.
        self.edges.partition_point(|e| *e <= value)
    }

    /// Label of the interval containing `value`.
    pub fn label_of(&self, value: f64) -> &str {
        &self.labels[self.assign(value)]
    }
}

fn auto_labels(edges: &[f64]) -> Vec<String> {
    if edges.is_empty() {
        return vec!["all".to_string()];
    }
    let mut labels = Vec::with_capacity(edges.len() + 1);
    labels.push(format!("<{}", fmt_num(edges[0])));
    for w in edges.windows(2) {
        labels.push(format!("{}-{}", fmt_num(w[0]), fmt_num(w[1])));
    }
    labels.push(format!(">={}", fmt_num(edges[edges.len() - 1])));
    labels
}

fn fmt_num(x: f64) -> String {
    if (x - x.round()).abs() < 1e-9 {
        format!("{}", x.round() as i64)
    } else {
        format!("{x}")
    }
}

/// A discretisation algorithm: fits [`Bins`] to observed values,
/// optionally supervised by class labels (one per value).
pub trait Discretiser {
    /// Human-readable method name (for reports and benches).
    fn method_name(&self) -> &'static str;

    /// Fit bins to `values`; supervised methods require `classes`
    /// (same length as `values`) and error without them.
    fn fit(&self, values: &[f64], classes: Option<&[usize]>) -> Result<Bins>;
}

/// Shared helper for the supervised methods: sorted `(value, class)`
/// pairs with NaNs rejected.
pub(crate) fn sorted_pairs(values: &[f64], classes: &[usize]) -> Result<Vec<(f64, usize)>> {
    if values.len() != classes.len() {
        return Err(Error::invalid(format!(
            "{} values but {} class labels",
            values.len(),
            classes.len()
        )));
    }
    if values.iter().any(|v| v.is_nan()) {
        return Err(Error::invalid("cannot discretise NaN values"));
    }
    let mut pairs: Vec<(f64, usize)> = values
        .iter()
        .copied()
        .zip(classes.iter().copied())
        .collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    Ok(pairs)
}

/// Shannon entropy (bits) of a class-count vector.
pub(crate) fn entropy(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let n = total as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn assign_respects_half_open_convention() {
        let bins = Bins::from_edges(vec![5.5, 6.1, 7.0]).unwrap();
        assert_eq!(bins.assign(5.4), 0);
        assert_eq!(bins.assign(5.5), 1); // lower edge belongs to upper bin
        assert_eq!(bins.assign(6.0), 1);
        assert_eq!(bins.assign(6.1), 2);
        assert_eq!(bins.assign(7.0), 3);
        assert_eq!(bins.assign(12.0), 3);
    }

    #[test]
    fn auto_labels_render_ranges() {
        let bins = Bins::from_edges(vec![40.0, 60.0, 80.0]).unwrap();
        assert_eq!(bins.labels(), &["<40", "40-60", "60-80", ">=80"]);
    }

    #[test]
    fn zero_edges_means_one_bin() {
        let bins = Bins::from_edges(vec![]).unwrap();
        assert_eq!(bins.len(), 1);
        assert_eq!(bins.assign(1e9), 0);
        assert_eq!(bins.assign(-1e9), 0);
    }

    #[test]
    fn rejects_unsorted_or_nonfinite_edges() {
        assert!(Bins::from_edges(vec![2.0, 1.0]).is_err());
        assert!(Bins::from_edges(vec![1.0, 1.0]).is_err());
        assert!(Bins::from_edges(vec![f64::NAN]).is_err());
        assert!(Bins::from_edges(vec![f64::INFINITY]).is_err());
    }

    #[test]
    fn label_count_must_match() {
        assert!(Bins::with_labels(vec![1.0], vec!["a".into()]).is_err());
        assert!(Bins::with_labels(vec![1.0], vec!["a".into(), "b".into()]).is_ok());
    }

    #[test]
    fn entropy_of_pure_and_uniform() {
        assert_eq!(entropy(&[10, 0]), 0.0);
        assert!((entropy(&[5, 5]) - 1.0).abs() < 1e-12);
        assert!((entropy(&[1, 1, 1, 1]) - 2.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn assign_is_monotone(mut edges in proptest::collection::vec(-100.0f64..100.0, 1..6), a in -200.0f64..200.0, b in -200.0f64..200.0) {
            edges.sort_by(|x, y| x.partial_cmp(y).unwrap());
            edges.dedup();
            let bins = Bins::from_edges(edges).unwrap();
            if a <= b {
                prop_assert!(bins.assign(a) <= bins.assign(b));
            }
        }

        #[test]
        fn every_value_gets_a_valid_bin(v in any::<f64>().prop_filter("finite", |x| x.is_finite())) {
            let bins = Bins::from_edges(vec![0.0, 10.0]).unwrap();
            prop_assert!(bins.assign(v) < bins.len());
        }
    }
}
