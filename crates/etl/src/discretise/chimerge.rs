//! Supervised bottom-up discretisation: ChiMerge (Kerber, 1992).
//!
//! The canonical bottom-up method from the survey the paper cites
//! \[17\]: start with one interval per distinct value and repeatedly
//! merge the adjacent pair whose class distributions are most similar
//! (lowest chi-squared statistic), until every remaining adjacent pair
//! differs significantly or a bin budget is reached.

use super::{sorted_pairs, Bins, Discretiser};
use clinical_types::{Error, Result};

/// ChiMerge discretiser (supervised, bottom-up).
#[derive(Debug, Clone)]
pub struct ChiMerge {
    /// Significance level for the merge-stop test (0.90, 0.95 or 0.99).
    pub confidence: f64,
    /// Upper bound on the number of bins (merging continues past the
    /// significance threshold until satisfied). 0 = no bound.
    pub max_bins: usize,
    /// Lower bound on the number of bins — merging stops here even if
    /// adjacent pairs remain insignificant.
    pub min_bins: usize,
}

impl Default for ChiMerge {
    fn default() -> Self {
        ChiMerge {
            confidence: 0.95,
            max_bins: 8,
            min_bins: 2,
        }
    }
}

impl ChiMerge {
    /// ChiMerge at 95% confidence with a bin budget.
    pub fn new(max_bins: usize) -> Self {
        ChiMerge {
            max_bins,
            ..ChiMerge::default()
        }
    }
}

/// Critical chi-squared values, indexed by degrees of freedom 1..=10.
fn chi2_critical(confidence: f64, df: usize) -> f64 {
    const C90: [f64; 10] = [
        2.706, 4.605, 6.251, 7.779, 9.236, 10.645, 12.017, 13.362, 14.684, 15.987,
    ];
    const C95: [f64; 10] = [
        3.841, 5.991, 7.815, 9.488, 11.070, 12.592, 14.067, 15.507, 16.919, 18.307,
    ];
    const C99: [f64; 10] = [
        6.635, 9.210, 11.345, 13.277, 15.086, 16.812, 18.475, 20.090, 21.666, 23.209,
    ];
    let idx = df.clamp(1, 10) - 1;
    if confidence >= 0.99 {
        C99[idx]
    } else if confidence >= 0.95 {
        C95[idx]
    } else {
        C90[idx]
    }
}

/// One working interval: value bounds (inclusive of the contained
/// samples) plus class counts.
#[derive(Debug, Clone)]
struct Interval {
    /// Smallest sample value inside this interval.
    lo: f64,
    /// Largest sample value inside this interval.
    hi: f64,
    counts: Vec<usize>,
}

fn chi2(a: &Interval, b: &Interval) -> f64 {
    let n_classes = a.counts.len();
    let total_a: usize = a.counts.iter().sum();
    let total_b: usize = b.counts.iter().sum();
    let total = (total_a + total_b) as f64;
    let mut stat = 0.0;
    for k in 0..n_classes {
        let col = (a.counts[k] + b.counts[k]) as f64;
        if col == 0.0 {
            continue;
        }
        for (row_total, observed) in [(total_a, a.counts[k]), (total_b, b.counts[k])] {
            let expected = row_total as f64 * col / total;
            if expected > 0.0 {
                let d = observed as f64 - expected;
                stat += d * d / expected;
            }
        }
    }
    stat
}

impl Discretiser for ChiMerge {
    fn method_name(&self) -> &'static str {
        "chimerge"
    }

    fn fit(&self, values: &[f64], classes: Option<&[usize]>) -> Result<Bins> {
        let classes = classes
            .ok_or_else(|| Error::invalid("ChiMerge is supervised: class labels required"))?;
        if values.is_empty() {
            return Err(Error::invalid("cannot fit bins to an empty column"));
        }
        let pairs = sorted_pairs(values, classes)?;
        let n_classes = pairs.iter().map(|p| p.1).max().unwrap_or(0) + 1;
        let df = n_classes.saturating_sub(1).max(1);
        let threshold = chi2_critical(self.confidence, df);

        // Initial intervals: one per distinct value.
        let mut intervals: Vec<Interval> = Vec::new();
        for &(v, c) in &pairs {
            match intervals.last_mut() {
                Some(last) if last.hi == v => last.counts[c] += 1,
                _ => {
                    let mut counts = vec![0usize; n_classes];
                    counts[c] += 1;
                    intervals.push(Interval {
                        lo: v,
                        hi: v,
                        counts,
                    });
                }
            }
        }

        let min_bins = self.min_bins.max(1);
        loop {
            if intervals.len() <= min_bins {
                break;
            }
            // Find the adjacent pair with the lowest chi-squared.
            let Some((best_i, best_chi)) = intervals
                .windows(2)
                .enumerate()
                .map(|(i, w)| (i, chi2(&w[0], &w[1])))
                .min_by(|a, b| a.1.total_cmp(&b.1))
            else {
                break; // fewer than two intervals: nothing to merge
            };
            let over_budget = self.max_bins > 0 && intervals.len() > self.max_bins;
            if best_chi >= threshold && !over_budget {
                break; // every adjacent pair is significantly different
            }
            // Merge interval best_i+1 into best_i.
            let removed = intervals.remove(best_i + 1);
            let keep = &mut intervals[best_i];
            keep.hi = removed.hi;
            for (k, c) in removed.counts.iter().enumerate() {
                keep.counts[k] += c;
            }
        }

        // Cut points: midpoint of the gap between adjacent intervals.
        let mut edges = Vec::with_capacity(intervals.len().saturating_sub(1));
        for w in intervals.windows(2) {
            edges.push((w[0].hi + w[1].lo) / 2.0);
        }
        edges.dedup();
        Bins::from_edges(edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requires_class_labels() {
        assert!(ChiMerge::default().fit(&[1.0], None).is_err());
    }

    #[test]
    fn merges_noise_down_to_min_bins() {
        // Every distinct value carries one sample of each class, so
        // every adjacent pair has an identical class distribution
        // (chi² = 0) at every stage: ChiMerge must merge to min_bins.
        let values: Vec<f64> = (0..80).map(|i| f64::from(i / 2)).collect();
        let classes: Vec<usize> = (0..80).map(|i| i % 2).collect();
        let cm = ChiMerge {
            confidence: 0.95,
            max_bins: 0,
            min_bins: 2,
        };
        let bins = cm.fit(&values, Some(&classes)).unwrap();
        assert_eq!(bins.len(), 2);
    }

    #[test]
    fn preserves_a_strong_boundary() {
        let values: Vec<f64> = (0..60).map(f64::from).collect();
        let classes: Vec<usize> = (0..60).map(|i| usize::from(i >= 30)).collect();
        let bins = ChiMerge::new(6).fit(&values, Some(&classes)).unwrap();
        // The class boundary at 29/30 must survive merging.
        let b29 = bins.assign(29.0);
        let b30 = bins.assign(30.0);
        assert_ne!(b29, b30, "boundary merged away: bins {:?}", bins.edges());
    }

    #[test]
    fn max_bins_budget_is_enforced() {
        let values: Vec<f64> = (0..200).map(|i| f64::from(i % 50)).collect();
        let classes: Vec<usize> = (0..200).map(|i| (i % 3) as usize).collect();
        let bins = ChiMerge::new(4).fit(&values, Some(&classes)).unwrap();
        assert!(bins.len() <= 4, "got {} bins", bins.len());
    }

    #[test]
    fn constant_column_single_bin() {
        let bins = ChiMerge::default().fit(&[5.0; 20], Some(&[0; 20])).unwrap();
        assert_eq!(bins.len(), 1);
    }

    #[test]
    fn chi2_zero_for_identical_distributions() {
        let a = Interval {
            lo: 0.0,
            hi: 1.0,
            counts: vec![5, 5],
        };
        let b = Interval {
            lo: 1.5,
            hi: 2.0,
            counts: vec![10, 10],
        };
        assert!(chi2(&a, &b) < 1e-9);
    }

    #[test]
    fn chi2_large_for_disjoint_distributions() {
        let a = Interval {
            lo: 0.0,
            hi: 1.0,
            counts: vec![20, 0],
        };
        let b = Interval {
            lo: 1.5,
            hi: 2.0,
            counts: vec![0, 20],
        };
        assert!(chi2(&a, &b) > chi2_critical(0.99, 1));
    }

    #[test]
    fn critical_values_increase_with_confidence_and_df() {
        assert!(chi2_critical(0.95, 1) > chi2_critical(0.90, 1));
        assert!(chi2_critical(0.99, 1) > chi2_critical(0.95, 1));
        assert!(chi2_critical(0.95, 5) > chi2_critical(0.95, 1));
    }
}
