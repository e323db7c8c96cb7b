//! Binary row encoding.
//!
//! Rows are stored as compact, self-describing byte strings (the tag
//! carries the type), so decoding does not need the schema — which
//! keeps tombstoned/legacy rows readable after schema evolution. The
//! codec itself is [`clinical_types::wire`]; this module re-exports it
//! under the names the row store has always used.

pub use clinical_types::wire::{crc32, decode_row, encode_row};

#[cfg(test)]
mod tests {
    use super::*;
    use clinical_types::{Date, Record, Value};
    use proptest::prelude::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn crc32_detects_compensating_byte_pairs() {
        // The +1/-31 pair that fooled the WAL v1 positional sum.
        let clean = [10u8, 200, 130, 40];
        let mut tampered = clean;
        tampered[1] += 1;
        tampered[2] -= 31;
        assert_ne!(crc32(&clean), crc32(&tampered));
    }

    fn sample_record() -> Record {
        Record::new(vec![
            Value::Int(42),
            Value::Null,
            Value::Float(5.5),
            Value::Text("preDiabetic".into()),
            Value::Bool(true),
            Value::Bool(false),
            Value::Date(Date::new(2013, 4, 9).unwrap()),
        ])
    }

    #[test]
    fn round_trip_preserves_values() {
        let rec = sample_record();
        let decoded = decode_row(&encode_row(&rec)).unwrap();
        assert_eq!(decoded, rec);
    }

    #[test]
    fn empty_record_round_trips() {
        let rec = Record::new(vec![]);
        assert_eq!(decode_row(&encode_row(&rec)).unwrap(), rec);
    }

    #[test]
    fn truncated_rows_are_rejected() {
        let bytes = encode_row(&sample_record());
        for cut in [0, 1, 3, bytes.len() - 1] {
            assert!(decode_row(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut raw = encode_row(&sample_record());
        raw.push(0xFF);
        assert!(decode_row(&raw).is_err());
    }

    #[test]
    fn unknown_tag_is_rejected() {
        // Header says 1 value, then a bogus tag.
        assert!(decode_row(&[1, 0, 0, 0, 99]).is_err());
    }

    #[test]
    fn unicode_text_round_trips() {
        let rec = Record::new(vec![Value::Text("µmol/L — naïve".into())]);
        assert_eq!(decode_row(&encode_row(&rec)).unwrap(), rec);
    }

    proptest! {
        #[test]
        fn arbitrary_rows_round_trip(
            ints in proptest::collection::vec(any::<i64>(), 0..5),
            floats in proptest::collection::vec(any::<f64>().prop_filter("no NaN", |f| !f.is_nan()), 0..5),
            texts in proptest::collection::vec(".*", 0..4),
        ) {
            let mut values: Vec<Value> = Vec::new();
            values.extend(ints.into_iter().map(Value::Int));
            values.extend(floats.into_iter().map(Value::Float));
            values.extend(texts.into_iter().map(Value::Text));
            values.push(Value::Null);
            let rec = Record::new(values);
            let decoded = decode_row(&encode_row(&rec)).unwrap();
            prop_assert_eq!(decoded, rec);
        }
    }
}
