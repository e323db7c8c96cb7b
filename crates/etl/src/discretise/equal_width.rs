//! Unsupervised top-down discretisation: equal-width binning.

use super::{Bins, Discretiser};
use clinical_types::{Error, Result};

/// Splits the observed value range into `k` intervals of equal width.
/// The simplest of the top-down methods surveyed in \[17\]; fast, but
/// sensitive to outliers (one extreme value stretches every bin).
#[derive(Debug, Clone)]
pub struct EqualWidth {
    /// Number of intervals to produce.
    pub k: usize,
}

impl EqualWidth {
    /// Equal-width binning with `k` intervals (`k >= 1`).
    pub fn new(k: usize) -> Self {
        EqualWidth { k }
    }
}

impl Discretiser for EqualWidth {
    fn method_name(&self) -> &'static str {
        "equal-width"
    }

    fn fit(&self, values: &[f64], _classes: Option<&[usize]>) -> Result<Bins> {
        if self.k == 0 {
            return Err(Error::invalid("equal-width needs k >= 1"));
        }
        if values.is_empty() {
            return Err(Error::invalid("cannot fit bins to an empty column"));
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(Error::invalid("cannot discretise non-finite values"));
        }
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if lo == hi || self.k == 1 {
            // Degenerate column: a single bin covers everything.
            return Bins::from_edges(vec![]);
        }
        let width = (hi - lo) / self.k as f64;
        let mut edges: Vec<f64> = (1..self.k).map(|i| lo + width * i as f64).collect();
        edges.dedup();
        Bins::from_edges(edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn splits_range_evenly() {
        let bins = EqualWidth::new(4)
            .fit(&[0.0, 10.0, 20.0, 40.0], None)
            .unwrap();
        assert_eq!(bins.edges(), &[10.0, 20.0, 30.0]);
        assert_eq!(bins.len(), 4);
    }

    #[test]
    fn constant_column_collapses_to_one_bin() {
        let bins = EqualWidth::new(5).fit(&[3.3, 3.3, 3.3], None).unwrap();
        assert_eq!(bins.len(), 1);
    }

    #[test]
    fn rejects_empty_and_nonfinite() {
        assert!(EqualWidth::new(3).fit(&[], None).is_err());
        assert!(EqualWidth::new(3).fit(&[1.0, f64::NAN], None).is_err());
        assert!(EqualWidth::new(0).fit(&[1.0], None).is_err());
    }

    #[test]
    fn k_one_gives_single_bin() {
        let bins = EqualWidth::new(1).fit(&[1.0, 9.0], None).unwrap();
        assert_eq!(bins.len(), 1);
    }

    proptest! {
        #[test]
        fn every_observed_value_lands_in_a_bin(
            values in proptest::collection::vec(-1e6f64..1e6, 1..200),
            k in 1usize..12,
        ) {
            let bins = EqualWidth::new(k).fit(&values, None).unwrap();
            for v in &values {
                prop_assert!(bins.assign(*v) < bins.len());
            }
            prop_assert!(bins.len() <= k);
        }
    }
}
