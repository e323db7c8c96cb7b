//! Cross-crate property-based tests: random tables pushed through the
//! warehouse/OLAP path must preserve the data and the aggregation
//! invariants regardless of content.

use clinical_types::wire::{decode_row, encode_row};
use clinical_types::{DataType, FieldDef, Record, Schema, Table, Value};
use olap::{Cube, CubeSpec};
use proptest::prelude::*;
use warehouse::{DimensionDef, FactDef, LoadPlan, StarSchema, Warehouse};

/// Strategy: a random small categorical table with a numeric measure.
fn random_rows() -> impl Strategy<Value = Vec<(u8, u8, Option<f64>)>> {
    proptest::collection::vec(
        (0u8..4, 0u8..3, proptest::option::of(-100.0f64..100.0)),
        1..120,
    )
}

fn build_table(rows: &[(u8, u8, Option<f64>)]) -> Table {
    let schema = Schema::new(vec![
        FieldDef::nullable("A", DataType::Text),
        FieldDef::nullable("B", DataType::Text),
        FieldDef::nullable("M", DataType::Float),
    ])
    .unwrap();
    let records = rows
        .iter()
        .map(|(a, b, m)| {
            Record::new(vec![
                Value::Text(format!("a{a}")),
                Value::Text(format!("b{b}")),
                m.map(Value::Float).unwrap_or(Value::Null),
            ])
        })
        .collect();
    Table::from_rows(schema, records).unwrap()
}

fn load(table: &Table) -> Warehouse {
    let star = StarSchema::new(
        FactDef::new("F", vec!["M"], vec![]),
        vec![
            DimensionDef::new("DA", vec!["A"]),
            DimensionDef::new("DB", vec!["B"]),
        ],
    )
    .unwrap();
    Warehouse::load(&LoadPlan::from_star(star), table).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Loading a table into the star schema and resolving attribute
    /// columns must reproduce the original column values row for row.
    #[test]
    fn warehouse_load_is_lossless(rows in random_rows()) {
        let table = build_table(&rows);
        let wh = load(&table);
        prop_assert_eq!(wh.n_facts(), table.len());
        let col_a = wh.attribute_column("A").unwrap();
        for (resolved, row) in col_a.iter().zip(table.rows()) {
            prop_assert_eq!(*resolved, &row.values()[0]);
        }
        let measure = wh.measure("M").unwrap();
        for (i, row) in table.rows().iter().enumerate() {
            prop_assert_eq!(measure.get(i), row.values()[2].as_f64());
        }
    }

    /// Cube cell counts must sum to the number of fact rows, and
    /// rolling up any axis must preserve the grand total.
    #[test]
    fn cube_counts_partition_the_facts(rows in random_rows()) {
        let table = build_table(&rows);
        let wh = load(&table);
        let cube = Cube::build(&wh, &CubeSpec::count(vec!["A", "B"])).unwrap();
        let total: f64 = cube.iter().map(|(_, v)| v).sum();
        prop_assert_eq!(total as usize, table.len());
        let rolled = cube.roll_up("B").unwrap();
        prop_assert_eq!(rolled.grand_total(), Some(table.len() as f64));
    }

    /// Slicing on every member of an axis partitions the cube: slice
    /// totals sum to the unsliced total.
    #[test]
    fn slices_partition_the_cube(rows in random_rows()) {
        let table = build_table(&rows);
        let wh = load(&table);
        let cube = Cube::build(&wh, &CubeSpec::count(vec!["A", "B"])).unwrap();
        let mut sliced_total = 0.0;
        for member in cube.axis_values("A").unwrap() {
            let slice = cube.slice("A", &member).unwrap();
            sliced_total += slice.grand_total().unwrap_or(0.0);
        }
        prop_assert_eq!(sliced_total as usize, table.len());
    }

    /// Sum cubes distribute over roll-up: rolling up an axis is
    /// exactly the sum of the fine cells.
    #[test]
    fn rollup_of_sum_is_exact(rows in random_rows()) {
        let table = build_table(&rows);
        let wh = load(&table);
        let fine = Cube::build(
            &wh,
            &CubeSpec::measure(vec!["A", "B"], olap::Aggregate::Sum, "M"),
        ).unwrap();
        let coarse = fine.roll_up("B").unwrap();
        let direct = Cube::build(
            &wh,
            &CubeSpec::measure(vec!["A"], olap::Aggregate::Sum, "M"),
        ).unwrap();
        for member in direct.axis_values("A").unwrap() {
            let a = coarse.value(std::slice::from_ref(&member));
            let b = direct.value(std::slice::from_ref(&member));
            match (a, b) {
                (Some(x), Some(y)) => prop_assert!((x - y).abs() < 1e-6),
                (a, b) => prop_assert_eq!(a, b),
            }
        }
    }

    /// Row encoding round-trips arbitrary table rows.
    #[test]
    fn row_encoding_round_trips(rows in random_rows()) {
        let table = build_table(&rows);
        for row in table.rows() {
            let decoded = decode_row(&encode_row(row)).unwrap();
            prop_assert_eq!(&decoded, row);
        }
    }

    /// CSV export/import round-trips arbitrary generated tables.
    #[test]
    fn csv_round_trips_random_tables(rows in random_rows()) {
        let table = build_table(&rows);
        let csv = clinical_types::table_to_csv(&table);
        let back = clinical_types::table_from_csv(&csv, table.schema()).unwrap();
        prop_assert_eq!(back.len(), table.len());
        for (a, b) in back.rows().iter().zip(table.rows()) {
            prop_assert_eq!(a, b);
        }
    }

    /// Apriori support is anti-monotone on arbitrary datasets: every
    /// frequent itemset's support is bounded by each of its items'
    /// singleton supports.
    #[test]
    fn apriori_support_is_antimonotone(rows in random_rows()) {
        let dataset = mining::DatasetBuilder::new(vec!["A", "B"], "B")
            .build(&build_table(&rows))
            .unwrap();
        let sets = mining::Apriori::new(2, 0.5, 2)
            .frequent_itemsets(&dataset)
            .unwrap();
        let singleton = |item: (usize, usize)| {
            sets.iter()
                .find(|s| s.items == vec![item])
                .map(|s| s.support)
        };
        for set in sets.iter().filter(|s| s.items.len() == 2) {
            for &item in &set.items {
                let single = singleton(item)
                    .expect("Apriori property: subsets of frequent sets are frequent");
                prop_assert!(set.support <= single);
            }
        }
    }

    /// Markov transition rows are probability distributions for any
    /// trajectory corpus.
    #[test]
    fn markov_rows_are_stochastic(
        seqs in proptest::collection::vec(
            proptest::collection::vec(0u8..4, 1..8),
            1..20,
        )
    ) {
        let trajectories: Vec<predict::Trajectory> = seqs
            .iter()
            .enumerate()
            .map(|(i, states)| predict::Trajectory {
                patient_id: i as i64,
                states: states.iter().map(|s| format!("s{s}")).collect(),
            })
            .collect();
        let model = predict::MarkovModel::fit(&trajectories).unwrap();
        for from in model.states() {
            let total: f64 = model
                .states()
                .iter()
                .map(|to| model.transition_probability(from, to).unwrap())
                .sum();
            prop_assert!((total - 1.0).abs() < 1e-9, "row {} sums to {}", from, total);
        }
        // predict_next always returns a known state.
        for from in model.states() {
            let next = model.predict_next(from);
            prop_assert!(model.states().contains(&next));
        }
    }

    /// Cleaning never increases row count and never leaves a value
    /// outside its declared plausible range.
    #[test]
    fn cleaning_enforces_ranges(rows in random_rows()) {
        let table = build_table(&rows);
        let rules = etl::CleaningRules::new().range("M", -10.0, 10.0);
        let (clean, report) = etl::Cleaner::new(rules).clean(&table).unwrap();
        prop_assert_eq!(clean.len(), table.len());
        prop_assert_eq!(report.rows_in, table.len());
        for v in clean.column("M").unwrap() {
            if let Some(x) = v.as_f64() {
                prop_assert!((-10.0..=10.0).contains(&x));
            }
        }
    }
}
