//! The counted miners against their naive oracles: Apriori's counts
//! per feature subset must find exactly the itemsets and rules that a
//! subset test of every candidate against every row finds, and the
//! similar-patient back-off table must predict exactly what a rescan
//! of every trajectory predicts.

#[path = "common/mining_oracle.rs"]
mod oracle;

use mining::dataset::Feature;
use mining::{Apriori, Dataset};
use predict::{evaluate_predictor, SimilarPatientPredictor, Trajectory};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A random categorical dataset: 0–6 features, each drawing from a
/// palette of small, sparse and near-`usize::MAX` values (labels are
/// deliberately too short to name them), and now and then a short row.
fn random_dataset(rng: &mut StdRng) -> Dataset {
    let width = rng.random_range(0..=6usize);
    let n = rng.random_range(0..=60usize);
    let palettes: Vec<Vec<usize>> = (0..width)
        .map(|_| {
            (0..rng.random_range(1..=6usize))
                .map(|_| match rng.random_range(0..3u8) {
                    0 => rng.random_range(0..4usize),
                    1 => rng.random_range(0..1_000usize) * 1_000_003,
                    _ => usize::MAX - rng.random_range(0..3usize),
                })
                .collect()
        })
        .collect();
    let cells: Vec<Vec<usize>> = (0..n)
        .map(|_| {
            let len = if rng.random_bool(0.1) {
                rng.random_range(0..=width)
            } else {
                width
            };
            palettes[..len]
                .iter()
                .map(|p| p[rng.random_range(0..p.len())])
                .collect()
        })
        .collect();
    Dataset {
        features: (0..width)
            .map(|f| Feature {
                name: format!("f{f}"),
                labels: vec!["a".into(), "b".into()],
            })
            .collect(),
        class_labels: vec!["c".into()],
        classes: vec![0; n],
        cells,
    }
}

/// A random corpus: duplicate patient ids, single-visit patients and
/// labels whose byte order differs from their first-seen order.
fn random_corpus(rng: &mut StdRng, alphabet: &[&str]) -> Vec<Trajectory> {
    (0..rng.random_range(1..=12usize))
        .map(|_| Trajectory {
            patient_id: rng.random_range(0..6i64),
            states: (0..rng.random_range(1..=7usize))
                .map(|_| alphabet[rng.random_range(0..alphabet.len())].to_string())
                .collect(),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn apriori_counts_match_the_subset_test_oracle(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = random_dataset(&mut rng);
        let miner = Apriori::new(
            rng.random_range(1..=data.len().max(1)),
            rng.random::<f64>(),
            rng.random_range(0..=7usize),
        );
        let consequent = match rng.random_range(0..3u8) {
            0 => None,
            _ => Some(rng.random_range(0..=data.n_features())),
        };
        prop_assert_eq!(
            miner.frequent_itemsets(&data).unwrap(),
            oracle::frequent_itemsets(&miner, &data).unwrap(),
            "seed {}", seed
        );
        prop_assert_eq!(
            miner.rules(&data, consequent).unwrap(),
            oracle::rules(&miner, &data, consequent).unwrap(),
            "seed {}", seed
        );
    }

    #[test]
    fn back_off_table_matches_the_rescan_oracle(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let alphabet = ["b", "B", "?", "a", "very good", "high"];
        let alphabet = &alphabet[..rng.random_range(1..=alphabet.len())];
        let corpus = random_corpus(&mut rng, alphabet);
        let max_context = rng.random_range(1..=5usize);
        let predictor = SimilarPatientPredictor::new(&corpus, max_context).unwrap();

        // Every prefix of every trajectory, plus histories holding
        // states no trajectory has.
        let mut histories: Vec<(Vec<String>, i64)> = corpus
            .iter()
            .flat_map(|t| (0..=t.len()).map(|i| (t.states[..i].to_vec(), t.patient_id)))
            .collect();
        for _ in 0..4 {
            let mut history = corpus[rng.random_range(0..corpus.len())].states.clone();
            let at = rng.random_range(0..history.len());
            history[at] = "unseen".to_string();
            histories.push((history, rng.random_range(0..8i64)));
        }
        for (history, id) in &histories {
            for exclude in [None, Some(*id)] {
                prop_assert_eq!(
                    predictor.predict_next(history, exclude),
                    oracle::predict_next(&corpus, max_context, history, exclude),
                    "seed {} history {:?} exclude {:?}", seed, history, exclude
                );
            }
        }
        match (
            evaluate_predictor(&corpus, max_context),
            oracle::evaluate_predictor(&corpus, max_context),
        ) {
            (Ok(counted), Ok(rescanned)) => prop_assert_eq!(counted, rescanned, "seed {}", seed),
            (Err(_), Err(_)) => {}
            (counted, rescanned) => {
                panic!("seed {seed}: {counted:?} but the oracle gives {rescanned:?}")
            }
        }
    }
}
