//! Oplog positions and the record codec.
//!
//! On disk (DESIGN.md, "On-disk formats") a record is one [`wire`]
//! frame whose body is
//!
//! ```text
//! [epoch u64][seq u64][change: kind u8, then per kind]
//!   0 append   [field count]([name str][dtype u8][nullable u8])* [row count][row]*
//!   1 feedback [dimension str][attribute str][labels as one row]
//!   2 rewrite  —
//! ```
//!
//! with rows in the self-describing row codec of [`wire`].

use clinical_types::wire::{self, Put, Reader};
use clinical_types::{DataType, Error, FieldDef, Result, Schema, Table};
use warehouse::WarehouseChange;

/// A position in the oplog: the epoch a record lands the warehouse on
/// and its log sequence number. Both components are strictly monotone
/// over the life of a log, so ordering by `(epoch, seq)` is total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LogPos {
    /// Warehouse epoch after this record is applied.
    pub epoch: u64,
    /// 1-based log sequence number.
    pub seq: u64,
}

impl LogPos {
    /// The cursor of a replica that has applied nothing yet.
    pub fn start() -> LogPos {
        LogPos { epoch: 0, seq: 0 }
    }
}

impl std::fmt::Display for LogPos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}s{}", self.epoch, self.seq)
    }
}

/// One sequenced change: the position it lands on and the mutation.
#[derive(Debug, Clone)]
pub struct LogRecord {
    /// Where in the log (and on which epoch) this record sits.
    pub pos: LogPos,
    /// The replayable mutation.
    pub change: WarehouseChange,
}

const KIND_APPEND: u8 = 0;
const KIND_FEEDBACK: u8 = 1;
const KIND_REWRITE: u8 = 2;

fn dtype_tag(dtype: DataType) -> u8 {
    match dtype {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Text => 2,
        DataType::Bool => 3,
        DataType::Date => 4,
    }
}

fn tag_dtype(tag: u8) -> Result<DataType> {
    Ok(match tag {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Text,
        3 => DataType::Bool,
        4 => DataType::Date,
        other => return Err(Error::invalid(format!("unknown dtype tag {other}"))),
    })
}

fn put_change(buf: &mut Vec<u8>, change: &WarehouseChange) {
    match change {
        WarehouseChange::Append(table) => {
            buf.put_u8(KIND_APPEND);
            let fields = table.schema().fields();
            buf.put_u32(fields.len() as u32);
            for field in fields {
                buf.put_str(&field.name);
                buf.put_u8(dtype_tag(field.dtype));
                buf.put_u8(u8::from(field.nullable));
            }
            buf.put_u32(table.len() as u32);
            for row in table.rows() {
                wire::put_row(buf, row.values());
            }
        }
        WarehouseChange::Feedback {
            dimension,
            attribute,
            labels,
        } => {
            buf.put_u8(KIND_FEEDBACK);
            buf.put_str(dimension);
            buf.put_str(attribute);
            wire::put_row(buf, labels);
        }
        WarehouseChange::Rewrite => buf.put_u8(KIND_REWRITE),
    }
}

/// Encode a change into its oplog payload (kind tag + body).
pub fn encode_change(change: &WarehouseChange) -> Vec<u8> {
    let mut buf = Vec::new();
    put_change(&mut buf, change);
    buf
}

fn read_change(buf: &mut Reader<'_>) -> Result<WarehouseChange> {
    Ok(match buf.u8()? {
        KIND_APPEND => {
            // A field is at least name length + dtype + nullable, a
            // row at least its value count.
            let nfields = buf.count(6)?;
            let mut fields = Vec::with_capacity(nfields);
            for _ in 0..nfields {
                let name = buf.str()?;
                let dtype = tag_dtype(buf.u8()?)?;
                fields.push(if buf.u8()? != 0 {
                    FieldDef::nullable(name, dtype)
                } else {
                    FieldDef::required(name, dtype)
                });
            }
            let schema = Schema::new(fields)?;
            let nrows = buf.count(4)?;
            let mut rows = Vec::with_capacity(nrows);
            for _ in 0..nrows {
                rows.push(buf.row()?);
            }
            WarehouseChange::Append(Table::from_rows(schema, rows)?)
        }
        KIND_FEEDBACK => WarehouseChange::Feedback {
            dimension: buf.str()?.to_string(),
            attribute: buf.str()?.to_string(),
            labels: buf.row()?.into_values(),
        },
        KIND_REWRITE => WarehouseChange::Rewrite,
        other => return Err(Error::invalid(format!("unknown change kind {other}"))),
    })
}

/// Decode an oplog payload back into the change it captured.
pub fn decode_change(payload: &[u8]) -> Result<WarehouseChange> {
    let mut buf = Reader::new(payload);
    let change = read_change(&mut buf)?;
    buf.finish()?;
    Ok(change)
}

/// Append `record` to `out` as one frame.
pub fn put_record(out: &mut Vec<u8>, record: &LogRecord) {
    wire::put_frame(out, |body| {
        body.put_u64(record.pos.epoch);
        body.put_u64(record.pos.seq);
        put_change(body, &record.change);
    });
}

/// Decode the body of one verified frame.
pub fn decode_record(body: &[u8]) -> Result<LogRecord> {
    let mut buf = Reader::new(body);
    let pos = LogPos {
        epoch: buf.u64()?,
        seq: buf.u64()?,
    };
    let change = read_change(&mut buf)?;
    buf.finish()?;
    Ok(LogRecord { pos, change })
}

#[cfg(test)]
mod tests {
    use super::*;
    use clinical_types::{Record, Value};
    use proptest::prelude::*;

    fn encode_frame(record: &LogRecord) -> Vec<u8> {
        let mut out = Vec::new();
        put_record(&mut out, record);
        out
    }

    /// The record in the first frame of `buf` and the offset one past
    /// it, or `None` when that frame is torn, corrupt or undecodable.
    fn decode_frame(buf: &[u8]) -> Option<(LogRecord, usize)> {
        let mut frames = wire::frames(buf);
        let record = decode_record(frames.next()?).ok()?;
        Some((record, frames.offset()))
    }

    fn sample_table() -> Table {
        let schema = Schema::new(vec![
            FieldDef::required("FBG", DataType::Float),
            FieldDef::nullable("FBG_Band", DataType::Text),
            FieldDef::nullable("Recheck", DataType::Bool),
        ])
        .unwrap();
        Table::from_rows(
            schema,
            vec![
                Record::new(vec![5.0.into(), "very good".into(), Value::Bool(false)]),
                Record::new(vec![8.1.into(), "Diabetic".into(), Value::Null]),
            ],
        )
        .unwrap()
    }

    fn assert_same_change(a: &WarehouseChange, b: &WarehouseChange) {
        match (a, b) {
            (WarehouseChange::Append(x), WarehouseChange::Append(y)) => {
                assert_eq!(x.schema().fields(), y.schema().fields());
                assert_eq!(x.rows(), y.rows());
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
            ) => {
                assert_eq!((d1, a1, l1), (d2, a2, l2));
            }
            (WarehouseChange::Rewrite, WarehouseChange::Rewrite) => {}
            (a, b) => panic!("kind mismatch: {} vs {}", a.kind_name(), b.kind_name()),
        }
    }

    #[test]
    fn append_round_trips() {
        let change = WarehouseChange::Append(sample_table());
        let decoded = decode_change(&encode_change(&change)).unwrap();
        assert_same_change(&change, &decoded);
    }

    #[test]
    fn feedback_and_rewrite_round_trip() {
        let change = WarehouseChange::Feedback {
            dimension: "Clinician Review".into(),
            attribute: "RiskFlag".into(),
            labels: vec!["low".into(), Value::Null, "act".into()],
        };
        assert_same_change(&change, &decode_change(&encode_change(&change)).unwrap());
        assert_same_change(
            &WarehouseChange::Rewrite,
            &decode_change(&encode_change(&WarehouseChange::Rewrite)).unwrap(),
        );
    }

    #[test]
    fn frame_round_trips_and_reports_end() {
        let record = LogRecord {
            pos: LogPos { epoch: 7, seq: 3 },
            change: WarehouseChange::Append(sample_table()),
        };
        let frame = encode_frame(&record);
        let (decoded, end) = decode_frame(&frame).unwrap();
        assert_eq!(decoded.pos, record.pos);
        assert_eq!(end, frame.len());
        assert_same_change(&decoded.change, &record.change);
    }

    #[test]
    fn torn_and_corrupt_frames_are_rejected() {
        let record = LogRecord {
            pos: LogPos { epoch: 1, seq: 1 },
            change: WarehouseChange::Rewrite,
        };
        let frame = encode_frame(&record);
        for cut in 0..frame.len() {
            assert!(decode_frame(&frame[..cut]).is_none(), "cut {cut}");
        }
        for flip in 0..frame.len() {
            let mut bad = frame.clone();
            bad[flip] ^= 0x40;
            assert!(decode_frame(&bad).is_none(), "flip {flip} accepted");
        }
    }

    #[test]
    fn absurd_counts_with_valid_framing_are_typed_errors() {
        // 4 G rows / fields / label values claimed by a 9-byte payload.
        let mut rows = vec![KIND_APPEND];
        rows.put_u32(0);
        rows.put_u32(u32::MAX);
        let mut fields = vec![KIND_APPEND];
        fields.put_u32(u32::MAX);
        fields.put_u32(0);
        let mut labels = vec![KIND_FEEDBACK];
        labels.put_str("d");
        labels.put_str("a");
        labels.put_u32(u32::MAX);
        for payload in [rows, fields, labels] {
            assert!(decode_change(&payload).is_err());
            let mut framed = Vec::new();
            wire::put_frame(&mut framed, |body| {
                body.put_u64(1);
                body.put_u64(1);
                body.put(&payload);
            });
            let body = wire::frames(&framed).next().expect("the CRC is valid");
            assert!(decode_record(body).is_err());
        }
    }

    #[test]
    fn positions_order_by_epoch_then_seq() {
        let a = LogPos { epoch: 3, seq: 10 };
        let b = LogPos { epoch: 4, seq: 11 };
        assert!(a < b);
        assert!(LogPos::start() < a);
    }

    proptest! {
        #[test]
        fn arbitrary_feedback_labels_round_trip(
            labels in proptest::collection::vec(".*", 0..6),
            dim in ".{1,12}",
            attr in ".{1,12}",
        ) {
            let change = WarehouseChange::Feedback {
                dimension: dim,
                attribute: attr,
                labels: labels.into_iter().map(Value::Text).collect(),
            };
            let decoded = decode_change(&encode_change(&change)).unwrap();
            assert_same_change(&change, &decoded);
        }
    }
}
