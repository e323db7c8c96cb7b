#![warn(missing_docs)]

//! Data analytics over isolated warehouse cubes — the paper's §IV
//! "Data Analytics" component.
//!
//! *"Cubes of data that are of interest to the clinical scientist can
//! be isolated using OLAP and further analysed using data mining
//! algorithms. There are a variety of data mining algorithms to
//! address different requirements such as classification, association
//! and clustering."*
//!
//! * [`dataset`] — categorical datasets extracted from tables, with
//!   seeded train/test splitting.
//! * [`metrics`] — accuracy, confusion matrices, precision/recall/F1.
//! * [`naive_bayes`] — categorical naive Bayes with Laplace smoothing.
//! * [`decision_tree`] — information-gain decision tree induction.
//! * [`awsum`] — the AWSum classifier of Quinn, Stranieri, Yearwood,
//!   Hafen & Jelinek \[9\]: interpretable per-value influence weights
//!   plus the feature-*pair* interaction mining that surfaced the
//!   paper's "absent reflexes + mid-range glucose → diabetes" insight.
//! * [`knn`] — k-nearest-neighbour over categorical features.
//! * [`apriori`] — frequent itemsets and association rules
//!   (support / confidence / lift).
//! * [`kmeans`] — k-means clustering of numeric measure vectors.
//! * [`feature_select`] — the wrapper–filter hybrid of Huda et al.
//!   \[21\]: mutual-information filter ranking followed by greedy
//!   forward wrapper selection.

pub mod apriori;
pub mod awsum;
pub mod cross_validation;
pub mod dataset;
pub mod decision_tree;
pub mod feature_select;
pub mod kmeans;
pub mod knn;
pub mod metrics;
pub mod naive_bayes;

pub use apriori::{Apriori, AssociationRule, ItemSet};
pub use awsum::{AwSum, Interaction};
pub use cross_validation::{cross_validate, CvReport};
pub use dataset::{Dataset, DatasetBuilder};
pub use decision_tree::DecisionTree;
pub use feature_select::{forward_select, mutual_information_ranking};
pub use kmeans::{KMeans, KMeansResult};
pub use knn::Knn;
pub use metrics::{accuracy, confusion_matrix, f1_scores, ClassMetrics};
pub use naive_bayes::NaiveBayes;
