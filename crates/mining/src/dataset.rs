//! Categorical datasets for the mining algorithms.
//!
//! The miners run over *discretised* clinical attributes (the ETL
//! stage's band/trend columns), so a dataset is a dense matrix of
//! small category indices plus interned label vocabularies. Missing
//! measurements become an explicit `"?"` category — in screening data
//! missingness itself is informative (the hand-grip test is missing
//! *because* the patient is elderly).

use clinical_types::{Error, Result, Table, Value};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::borrow::Cow;

/// Category vocabulary of one feature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Feature {
    /// Feature (column) name.
    pub name: String,
    /// Category labels; a cell value of `k` means `labels[k]`.
    pub labels: Vec<String>,
}

impl Feature {
    /// Number of categories.
    pub fn cardinality(&self) -> usize {
        self.labels.len()
    }

    /// Index of a label.
    pub fn index_of(&self, label: &str) -> Option<usize> {
        self.labels.iter().position(|l| l == label)
    }
}

/// A dense categorical dataset: `cells[row][feature]` is a category
/// index into the feature's vocabulary; `classes[row]` indexes
/// `class_labels`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Feature vocabularies, fixing column order.
    pub features: Vec<Feature>,
    /// Class vocabulary.
    pub class_labels: Vec<String>,
    /// Feature matrix.
    pub cells: Vec<Vec<usize>>,
    /// Class vector.
    pub classes: Vec<usize>,
}

impl Dataset {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.features.len()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.class_labels.len()
    }

    /// Deterministic shuffled split into (train, test) with `test_fraction`
    /// of rows in the test set.
    pub fn split(&self, test_fraction: f64, seed: u64) -> Result<(Dataset, Dataset)> {
        if !(0.0..1.0).contains(&test_fraction) {
            return Err(Error::invalid("test fraction must be in [0, 1)"));
        }
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed));
        let n_test = (self.len() as f64 * test_fraction).round() as usize;
        let take = |rows: &[usize]| Dataset {
            features: self.features.clone(),
            class_labels: self.class_labels.clone(),
            cells: rows.iter().map(|&r| self.cells[r].clone()).collect(),
            classes: rows.iter().map(|&r| self.classes[r]).collect(),
        };
        Ok((take(&order[n_test..]), take(&order[..n_test])))
    }

    /// Restrict to a subset of feature columns (by index).
    pub fn select_features(&self, keep: &[usize]) -> Result<Dataset> {
        for &k in keep {
            if k >= self.n_features() {
                return Err(Error::invalid(format!("feature index {k} out of range")));
            }
        }
        Ok(Dataset {
            features: keep.iter().map(|&k| self.features[k].clone()).collect(),
            class_labels: self.class_labels.clone(),
            cells: self
                .cells
                .iter()
                .map(|row| keep.iter().map(|&k| row[k]).collect())
                .collect(),
            classes: self.classes.clone(),
        })
    }

    /// Class frequency vector.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes()];
        for &c in &self.classes {
            counts[c] += 1;
        }
        counts
    }

    /// Index of the majority class (ties break toward the smaller
    /// class index, deterministically).
    pub fn majority_class(&self) -> usize {
        first_max(&self.class_counts())
    }
}

/// Index of the first maximum in a count vector — the shared
/// deterministic tie-break for majority votes across the miners.
pub fn first_max(counts: &[usize]) -> usize {
    let mut best = 0usize;
    for (i, &c) in counts.iter().enumerate() {
        if c > counts[best] {
            best = i;
        }
    }
    best
}

/// Builds a [`Dataset`] from a [`Table`] by interning the listed
/// categorical columns.
#[derive(Debug, Clone)]
pub struct DatasetBuilder {
    feature_columns: Vec<String>,
    class_column: String,
    /// Label used for missing cells (default `"?"`).
    pub missing_label: String,
    /// Drop rows whose class is missing (default true — a row with no
    /// diagnosis cannot supervise anything).
    pub drop_unlabelled: bool,
}

impl DatasetBuilder {
    /// Builder over the given feature columns and class column.
    pub fn new(feature_columns: Vec<&str>, class_column: &str) -> Self {
        DatasetBuilder {
            feature_columns: feature_columns.into_iter().map(String::from).collect(),
            class_column: class_column.to_string(),
            missing_label: "?".to_string(),
            drop_unlabelled: true,
        }
    }

    /// Extract the dataset.
    pub fn build(&self, table: &Table) -> Result<Dataset> {
        let schema = table.schema();
        let feature_idx: Vec<usize> = self
            .feature_columns
            .iter()
            .map(|c| schema.index_of(c))
            .collect::<Result<_>>()?;
        let class_idx = schema.index_of(&self.class_column)?;

        let mut features: Vec<Feature> = self
            .feature_columns
            .iter()
            .map(|name| Feature {
                name: name.clone(),
                labels: Vec::new(),
            })
            .collect();
        let mut class_labels: Vec<String> = Vec::new();
        let mut cells = Vec::with_capacity(table.len());
        let mut classes = Vec::with_capacity(table.len());

        // A label is allocated only when first seen.
        let intern = |labels: &mut Vec<String>, text: &str| -> usize {
            match labels.iter().position(|l| l == text) {
                Some(i) => i,
                None => {
                    labels.push(text.to_owned());
                    labels.len() - 1
                }
            }
        };

        for row in table.rows() {
            let class_value = &row[class_idx];
            if class_value.is_null() {
                if self.drop_unlabelled {
                    continue;
                }
                return Err(Error::invalid(format!(
                    "NULL class in `{}` with drop_unlabelled = false",
                    self.class_column
                )));
            }
            let class = intern(&mut class_labels, &label(class_value, &self.missing_label));
            let mut row_cells = Vec::with_capacity(feature_idx.len());
            for (fi, &idx) in feature_idx.iter().enumerate() {
                let text = label(&row[idx], &self.missing_label);
                row_cells.push(intern(&mut features[fi].labels, &text));
            }
            cells.push(row_cells);
            classes.push(class);
        }
        Ok(Dataset {
            features,
            class_labels,
            cells,
            classes,
        })
    }
}

/// A cell's category label: text borrowed as is, `missing` for NULL,
/// any other value rendered.
fn label<'a>(value: &'a Value, missing: &'a str) -> Cow<'a, str> {
    match value {
        Value::Null => Cow::Borrowed(missing),
        Value::Text(text) => Cow::Borrowed(text),
        other => Cow::Owned(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clinical_types::{DataType, FieldDef, Record, Schema};

    fn table() -> Table {
        let schema = Schema::new(vec![
            FieldDef::nullable("Reflex", DataType::Text),
            FieldDef::nullable("FBG_Band", DataType::Text),
            FieldDef::nullable("DiabetesStatus", DataType::Text),
        ])
        .unwrap();
        let rows: Vec<Vec<Value>> = vec![
            vec!["absent".into(), "high".into(), "yes".into()],
            vec!["present".into(), "very good".into(), "no".into()],
            vec![Value::Null, "high".into(), "no".into()],
            vec!["absent".into(), "Diabetic".into(), "yes".into()],
            vec!["present".into(), "very good".into(), Value::Null],
        ];
        Table::from_rows(schema, rows.into_iter().map(Record::new).collect()).unwrap()
    }

    #[test]
    fn builds_interned_matrix() {
        let ds = DatasetBuilder::new(vec!["Reflex", "FBG_Band"], "DiabetesStatus")
            .build(&table())
            .unwrap();
        assert_eq!(ds.len(), 4); // the unlabelled row is dropped
        assert_eq!(ds.n_features(), 2);
        assert_eq!(ds.class_labels, vec!["yes", "no"]);
        // Missing reflex becomes the "?" category.
        assert!(ds.features[0].labels.contains(&"?".to_string()));
    }

    #[test]
    fn class_counts_and_majority() {
        let ds = DatasetBuilder::new(vec!["Reflex"], "DiabetesStatus")
            .build(&table())
            .unwrap();
        assert_eq!(ds.class_counts(), vec![2, 2]);
        // Tie → first max wins deterministically.
        assert_eq!(ds.majority_class(), 0);
    }

    #[test]
    fn split_partitions_rows() {
        let ds = DatasetBuilder::new(vec!["Reflex", "FBG_Band"], "DiabetesStatus")
            .build(&table())
            .unwrap();
        let (train, test) = ds.split(0.25, 7).unwrap();
        assert_eq!(train.len() + test.len(), ds.len());
        assert_eq!(test.len(), 1);
        // Deterministic in the seed.
        let (train2, test2) = ds.split(0.25, 7).unwrap();
        assert_eq!(train, train2);
        assert_eq!(test, test2);
        assert!(ds.split(1.0, 7).is_err());
    }

    #[test]
    fn select_features_projects_columns() {
        let ds = DatasetBuilder::new(vec!["Reflex", "FBG_Band"], "DiabetesStatus")
            .build(&table())
            .unwrap();
        let sub = ds.select_features(&[1]).unwrap();
        assert_eq!(sub.n_features(), 1);
        assert_eq!(sub.features[0].name, "FBG_Band");
        assert_eq!(sub.classes, ds.classes);
        assert!(ds.select_features(&[5]).is_err());
    }

    #[test]
    fn non_text_cells_are_rendered_in_first_seen_order() {
        let schema = Schema::new(vec![
            FieldDef::nullable("Visits", DataType::Int),
            FieldDef::nullable("Status", DataType::Text),
        ])
        .unwrap();
        let rows: Vec<Vec<Value>> = vec![
            vec![Value::Int(3), "yes".into()],
            vec![Value::Null, "no".into()],
            vec![Value::Int(1), "yes".into()],
            vec![Value::Int(3), "no".into()],
        ];
        let table = Table::from_rows(schema, rows.into_iter().map(Record::new).collect()).unwrap();
        let ds = DatasetBuilder::new(vec!["Visits"], "Status")
            .build(&table)
            .unwrap();
        assert_eq!(ds.features[0].labels, vec!["3", "?", "1"]);
        assert_eq!(ds.cells, vec![vec![0], vec![1], vec![2], vec![0]]);
        assert_eq!(ds.class_labels, vec!["yes", "no"]);
    }

    #[test]
    fn unknown_columns_error() {
        assert!(DatasetBuilder::new(vec!["Nope"], "DiabetesStatus")
            .build(&table())
            .is_err());
        assert!(DatasetBuilder::new(vec!["Reflex"], "Nope")
            .build(&table())
            .is_err());
    }
}
