//! One hostile-bytes suite for everything the workspace persists.
//!
//! `clinical_types::wire` is the only byte-level code in the tree;
//! sealed segments (`segstore::decode_segment`) and the replication
//! oplog (`Oplog::open`, `decode_change`) are bodies inside its frame.
//! For each of them, and for `wire::frames` and `decode_row`
//! themselves:
//!
//! * (a) arbitrary bytes never panic — raw, behind a valid file header,
//!   and behind a valid header *and* a valid CRC, so the body decoders
//!   see the noise too;
//! * (b) every single-bit flip of a valid file is detected;
//! * (c) truncation at every offset: the oplog returns exactly the
//!   records whose frames end before the cut, a segment is an error;
//! * (d) encode → decode round-trips.

use clinical_types::wire::{self, decode_row, encode_row, Put};
use clinical_types::{DataType, Date, FieldDef, Record, Schema, Table, Value};
use oplog::record::{decode_change, encode_change};
use oplog::{LogPos, Oplog};
use proptest::prelude::*;
use segstore::{decode_segment, encode_segment, ColumnSet, Segment};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use warehouse::WarehouseChange;

fn temp_path(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ddgms-hostile-{}-{tag}-{n}", std::process::id()))
}

fn schema() -> Schema {
    Schema::new(vec![
        FieldDef::required("Id", DataType::Int),
        FieldDef::nullable("FBG_Band", DataType::Text),
    ])
    .unwrap()
}

fn rec(id: i64, band: &str) -> Record {
    Record::new(vec![Value::Int(id), band.into()])
}

fn changes() -> Vec<WarehouseChange> {
    vec![
        WarehouseChange::Append(Table::from_rows(schema(), vec![rec(7, "µ — naïve")]).unwrap()),
        WarehouseChange::Feedback {
            dimension: "Review".into(),
            attribute: "Flag".into(),
            labels: vec!["low".into(), Value::Null],
        },
        WarehouseChange::Rewrite,
    ]
}

/// A valid oplog file holding [`changes`] at epochs 1, 2, 3.
fn oplog_file() -> Vec<u8> {
    let path = temp_path("oplog");
    let (log, _) = Oplog::open(&path).unwrap();
    for (i, change) in changes().iter().enumerate() {
        log.append(change, i as u64 + 1).unwrap();
    }
    let raw = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    raw
}

/// What `Oplog::open` makes of a file with these bytes: the number of
/// records it recovered and whether it reported a torn tail.
fn open_oplog(bytes: &[u8]) -> Result<(usize, bool), oplog::OplogError> {
    let path = temp_path("open");
    std::fs::write(&path, bytes).unwrap();
    let opened = Oplog::open(&path).map(|(log, torn)| (log.len(), torn));
    std::fs::remove_file(&path).ok();
    opened
}

fn segment() -> Segment {
    Segment::assemble(
        42,
        vec![
            ("Visit".into(), vec![0, 0, 1, 2]),
            ("Personal".into(), vec![9, 9, 8, 7]),
        ],
        vec![(
            "FBG".into(),
            vec![5.5, 0.0, 7.25, 6.0],
            vec![true, false, true, true],
        )],
        vec![(
            "PatientId".into(),
            vec![
                Value::Int(1),
                Value::Null,
                "µ — naïve".into(),
                Value::Bool(true),
            ],
        )],
    )
    .unwrap()
}

/// Offsets (from the start of `file`) at which each frame after the
/// `skip`-byte prefix ends.
fn frame_ends(file: &[u8], skip: usize) -> Vec<usize> {
    let mut frames = wire::frames(&file[skip..]);
    let mut ends = Vec::new();
    while frames.next().is_some() {
        ends.push(skip + frames.offset());
    }
    assert!(!frames.torn(), "the fixture is intact");
    ends
}

fn same_change(a: &WarehouseChange, b: &WarehouseChange) -> bool {
    match (a, b) {
        (WarehouseChange::Append(x), WarehouseChange::Append(y)) => {
            x.schema().fields() == y.schema().fields() && x.rows() == y.rows()
        }
        (
            WarehouseChange::Feedback {
                dimension: d1,
                attribute: a1,
                labels: l1,
            },
            WarehouseChange::Feedback {
                dimension: d2,
                attribute: a2,
                labels: l2,
            },
        ) => (d1, a1, l1) == (d2, a2, l2),
        (WarehouseChange::Rewrite, WarehouseChange::Rewrite) => true,
        _ => false,
    }
}

// (a) ------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_bytes_never_panic(noise in proptest::collection::vec(0u8..=255, 0..200)) {
        let _ = wire::frames(&noise).count();
        let _ = decode_row(&noise);
        let _ = decode_change(&noise);

        let mut framed = Vec::new();
        wire::put_frame(&mut framed, |body| body.put(&noise));
        let oplog = oplog_file();
        // The oplog's prefix is its header plus the horizon frame.
        let oplog_head = frame_ends(&oplog, 4)[0];
        for tail in [&noise, &framed] {
            let _ = open_oplog(tail);
            let _ = open_oplog(&[&oplog[..4], tail].concat());
            let _ = open_oplog(&[&oplog[..oplog_head], tail].concat());
            for columns in [ColumnSet::all(), ColumnSet::empty()] {
                let _ = decode_segment(tail, &columns);
                let _ = decode_segment(&[&segstore::SEGMENT_HEADER[..], tail].concat(), &columns);
            }
        }
    }
}

// (b) ------------------------------------------------------------------

fn for_each_bit_flip(clean: &[u8], mut check: impl FnMut(&[u8], String)) {
    for byte in 0..clean.len() {
        for bit in 0..8 {
            let mut bad = clean.to_vec();
            bad[byte] ^= 1 << bit;
            check(&bad, format!("flip of byte {byte} bit {bit}"));
        }
    }
}

#[test]
fn every_bit_flip_of_a_segment_is_detected_whatever_the_column_set() {
    let clean = encode_segment(&segment());
    for_each_bit_flip(&clean, |bad, what| {
        for columns in [ColumnSet::all(), ColumnSet::empty()] {
            assert!(
                decode_segment(bad, &columns).is_err(),
                "{what} went undetected"
            );
        }
    });
}

#[test]
fn every_bit_flip_of_an_oplog_is_detected() {
    let clean = oplog_file();
    assert_eq!(open_oplog(&clean).unwrap(), (3, false));
    for_each_bit_flip(&clean, |bad, what| {
        // Header and horizon flips are hard errors, record flips torn.
        assert!(
            open_oplog(bad).map_or(true, |(_, torn)| torn),
            "{what} went undetected"
        );
    });
}

#[test]
fn bit_flips_in_unframed_codecs_never_panic() {
    // A bare row or change carries no checksum (its frame does), so a
    // flip may decode to a different value; it must not panic.
    let row = encode_row(&rec(1, "very good"));
    for_each_bit_flip(&row, |bad, _| drop(decode_row(bad)));
    for change in changes() {
        for_each_bit_flip(&encode_change(&change), |bad, _| drop(decode_change(bad)));
    }
}

// (c) ------------------------------------------------------------------

#[test]
fn a_truncated_oplog_returns_exactly_the_records_before_the_cut() {
    let clean = oplog_file();
    let ends = frame_ends(&clean, 4);
    let (head, ends) = (ends[0], &ends[1..]);
    assert_eq!(
        open_oplog(&[]).unwrap(),
        (0, false),
        "an empty file is a fresh log"
    );
    for cut in 1..=clean.len() {
        let opened = open_oplog(&clean[..cut]);
        if cut < head {
            assert!(opened.is_err(), "cut at {cut}: no horizon, no log");
            continue;
        }
        let intact = ends.iter().filter(|&&end| end <= cut).count();
        let clean_cut = cut == head || ends.contains(&cut);
        assert_eq!(opened.unwrap(), (intact, !clean_cut), "cut at {cut}");
    }
}

#[test]
fn a_truncated_segment_is_an_error() {
    let clean = encode_segment(&segment());
    for cut in 0..clean.len() {
        // Cuts on a frame boundary included: the meta record names
        // every column, so a missing one is detected even when unwanted.
        for columns in [ColumnSet::all(), ColumnSet::empty()] {
            assert!(
                decode_segment(&clean[..cut], &columns).is_err(),
                "cut at {cut} accepted"
            );
        }
    }
}

// (d) ------------------------------------------------------------------

#[test]
fn files_round_trip() {
    let seg = segment();
    let bytes = encode_segment(&seg);
    assert_eq!(decode_segment(&bytes, &ColumnSet::all()).unwrap(), seg);
    assert_eq!(
        decode_segment(&bytes, &ColumnSet::empty()).unwrap().meta,
        seg.meta
    );

    let path = temp_path("roundtrip");
    std::fs::write(&path, oplog_file()).unwrap();
    let (log, torn) = Oplog::open(&path).unwrap();
    assert!(!torn);
    let tail = log.tail_from(LogPos::start()).unwrap();
    assert_eq!(tail.len(), 3);
    for (i, (record, change)) in tail.iter().zip(changes()).enumerate() {
        assert_eq!(
            record.pos,
            LogPos {
                epoch: i as u64 + 1,
                seq: i as u64 + 1
            }
        );
        assert!(same_change(&record.change, &change));
        assert!(same_change(
            &decode_change(&encode_change(&change)).unwrap(),
            &change
        ));
    }
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_rows_round_trip_bare_and_framed(
        cells in proptest::collection::vec(
            (0u8..7, any::<i64>(), any::<f64>().prop_filter("NaN != NaN", |f| !f.is_nan()), ".*"),
            0..12,
        ),
    ) {
        let values = cells
            .into_iter()
            .map(|(kind, i, f, s)| match kind {
                0 => Value::Null,
                1 => Value::Int(i),
                2 => Value::Float(f),
                3 => Value::Text(s),
                4 => Value::Bool(i % 2 == 0),
                5 => Value::Date(Date::from_days_since_epoch(i)),
                _ => Value::Text(String::new()),
            })
            .collect();
        let record = Record::new(values);
        prop_assert_eq!(&decode_row(&encode_row(&record)).unwrap(), &record);

        let mut framed = Vec::new();
        wire::put_frame(&mut framed, |body| wire::put_row(body, record.values()));
        wire::put_frame(&mut framed, |_| {});
        let bodies: Vec<&[u8]> = wire::frames(&framed).collect();
        prop_assert_eq!(bodies.len(), 2);
        prop_assert_eq!(&decode_row(bodies[0]).unwrap(), &record);
        prop_assert!(bodies[1].is_empty());
    }
}
