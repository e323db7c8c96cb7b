//! Segment file encoding.
//!
//! On disk (DESIGN.md, "On-disk formats"): the [`wire`] header
//! `0xD5 'S' 'G' 2`, then one [`wire`] frame per record whose body is
//!
//! ```text
//! [kind u8][name str][payload — the rest of the body]
//! ```
//!
//! Record kinds: `0` meta (id, rows, zone maps, degenerate names;
//! always first), `1` key column (`rows` × `u32`), `2` measure column
//! (validity bitmap, then `rows` × `f64`), `3` degenerate column (one
//! row-codec row of `rows` values).
//!
//! Tail policy: a segment is sealed atomically, so *any* header, frame
//! or payload defect makes the whole file unreadable, surfacing as a
//! typed error. Readers skip decoding records for columns outside the
//! requested [`ColumnSet`] — the frame walk still checksums them —
//! which is what makes footprint-driven column pruning a CPU saving on
//! the disk backend.

use crate::segment::{ColumnSet, Segment, SegmentMeta};
use crate::zone::{KeyZone, MeasureZone};
use clinical_types::wire::{self, Put, Reader};
use clinical_types::{Error, Result, Value};

/// File header: three magic bytes, then the segment-format version.
pub const SEGMENT_HEADER: [u8; 4] = [0xD5, b'S', b'G', 2];

const KIND_META: u8 = 0;
const KIND_KEY: u8 = 1;
const KIND_MEASURE: u8 = 2;
const KIND_DEGENERATE: u8 = 3;

fn corrupt(what: impl std::fmt::Display) -> Error {
    Error::invalid(format!("corrupt segment: {what}"))
}

fn put_record(out: &mut Vec<u8>, kind: u8, name: &str, payload: impl FnOnce(&mut Vec<u8>)) {
    wire::put_frame(out, |body| {
        body.put_u8(kind);
        body.put_str(name);
        payload(body);
    });
}

fn put_meta(buf: &mut Vec<u8>, meta: &SegmentMeta) {
    buf.put_u64(meta.id);
    buf.put_u64(meta.rows);
    buf.put_u32(meta.key_zones.len() as u32);
    for z in &meta.key_zones {
        buf.put_str(&z.column);
        buf.put_u32(z.min);
        buf.put_u32(z.max);
        match &z.distinct {
            Some(d) => {
                buf.put_u8(1);
                buf.put_u32(d.len() as u32);
                for k in d {
                    buf.put_u32(*k);
                }
            }
            None => buf.put_u8(0),
        }
    }
    buf.put_u32(meta.measure_zones.len() as u32);
    for z in &meta.measure_zones {
        buf.put_str(&z.column);
        match z.range {
            Some((mn, mx)) => {
                buf.put_u8(1);
                buf.put_f64(mn);
                buf.put_f64(mx);
            }
            None => buf.put_u8(0),
        }
        buf.put_u64(z.null_count);
    }
    buf.put_u32(meta.degenerate_columns.len() as u32);
    for name in &meta.degenerate_columns {
        buf.put_str(name);
    }
}

/// Encode a segment into its framed byte representation.
pub fn encode_segment(segment: &Segment) -> Vec<u8> {
    let mut out = SEGMENT_HEADER.to_vec();
    put_record(&mut out, KIND_META, "", |p| put_meta(p, &segment.meta));
    for (name, keys) in &segment.keys {
        put_record(&mut out, KIND_KEY, name, |p| {
            for k in keys {
                p.put_u32(*k);
            }
        });
    }
    for (name, values, valid) in &segment.measures {
        put_record(&mut out, KIND_MEASURE, name, |p| {
            let mut bitmap = vec![0u8; valid.len().div_ceil(8)];
            for (i, ok) in valid.iter().enumerate() {
                if *ok {
                    bitmap[i / 8] |= 1 << (i % 8);
                }
            }
            p.put(&bitmap);
            for v in values {
                p.put_f64(*v);
            }
        });
    }
    for (name, values) in &segment.degenerates {
        put_record(&mut out, KIND_DEGENERATE, name, |p| {
            wire::put_row(p, values)
        });
    }
    out
}

fn decode_meta(mut buf: Reader<'_>) -> Result<SegmentMeta> {
    let id = buf.u64()?;
    let rows = buf.u64()?;
    // Minimum encoded sizes: a key zone is name + min + max + flag, a
    // measure zone name + flag + null count, a name its length prefix.
    let n_keys = buf.count(13)?;
    let mut key_zones = Vec::with_capacity(n_keys);
    for _ in 0..n_keys {
        let column = buf.str()?.to_string();
        let min = buf.u32()?;
        let max = buf.u32()?;
        let distinct = match buf.u8()? {
            0 => None,
            1 => {
                let n = buf.count(4)?;
                Some(buf.u32s(n)?)
            }
            other => return Err(Error::invalid(format!("bad distinct flag {other}"))),
        };
        key_zones.push(KeyZone {
            column,
            min,
            max,
            distinct,
        });
    }
    let n_measures = buf.count(13)?;
    let mut measure_zones = Vec::with_capacity(n_measures);
    for _ in 0..n_measures {
        let column = buf.str()?.to_string();
        let range = match buf.u8()? {
            0 => None,
            1 => Some((buf.f64()?, buf.f64()?)),
            other => return Err(Error::invalid(format!("bad range flag {other}"))),
        };
        let null_count = buf.u64()?;
        measure_zones.push(MeasureZone {
            column,
            range,
            null_count,
        });
    }
    let n_deg = buf.count(4)?;
    let mut degenerate_columns = Vec::with_capacity(n_deg);
    for _ in 0..n_deg {
        degenerate_columns.push(buf.str()?.to_string());
    }
    buf.finish()?;
    Ok(SegmentMeta {
        id,
        rows,
        key_zones,
        measure_zones,
        degenerate_columns,
    })
}

fn decode_keys(mut buf: Reader<'_>, rows: usize) -> Result<Vec<u32>> {
    let keys = buf.u32s(rows)?;
    buf.finish()?;
    Ok(keys)
}

fn decode_measure(mut buf: Reader<'_>, rows: usize) -> Result<(Vec<f64>, Vec<bool>)> {
    let bitmap = buf.bytes(rows.div_ceil(8))?;
    let values = buf.f64s(rows)?;
    buf.finish()?;
    let valid = (0..rows)
        .map(|i| bitmap[i / 8] & (1 << (i % 8)) != 0)
        .collect();
    Ok((values, valid))
}

fn decode_degenerate(mut buf: Reader<'_>, rows: usize) -> Result<Vec<Value>> {
    let values = buf.row()?.into_values();
    buf.finish()?;
    if values.len() != rows {
        return Err(Error::invalid("row count mismatch"));
    }
    Ok(values)
}

/// Decode a framed segment, materialising (at least) the columns in
/// `columns`. Every record — wanted or not — is CRC-verified, so a
/// single flipped bit anywhere in the file is detected regardless of
/// which columns the caller asked for.
pub fn decode_segment(bytes: &[u8], columns: &ColumnSet) -> Result<Segment> {
    let records = wire::check_header(bytes, &SEGMENT_HEADER)
        .map_err(corrupt)?
        .ok_or_else(|| corrupt("truncated header"))?;

    let mut meta: Option<SegmentMeta> = None;
    let mut keys: Vec<(String, Vec<u32>)> = Vec::new();
    let mut measures: Vec<(String, Vec<f64>, Vec<bool>)> = Vec::new();
    let mut degenerates: Vec<(String, Vec<Value>)> = Vec::new();

    let mut seen: Vec<(u8, String)> = Vec::new();

    let mut frames = wire::frames(records);
    for body in frames.by_ref() {
        let mut buf = Reader::new(body);
        let kind = buf.u8().map_err(corrupt)?;
        let name = buf.str().map_err(corrupt)?.to_string();
        let in_record = |e: Error| corrupt(format!("record `{name}`: {e}"));
        if kind == KIND_META {
            if meta.is_some() {
                return Err(corrupt("duplicate meta record"));
            }
            meta = Some(decode_meta(buf).map_err(in_record)?);
            continue;
        }
        let rows = match &meta {
            Some(m) => m.rows as usize,
            None => return Err(corrupt("column record before meta")),
        };
        seen.push((kind, name.clone()));
        match kind {
            KIND_KEY if columns.wants_key(&name) => {
                let column = decode_keys(buf, rows).map_err(in_record)?;
                keys.push((name, column));
            }
            KIND_MEASURE if columns.wants_measure(&name) => {
                let (values, valid) = decode_measure(buf, rows).map_err(in_record)?;
                measures.push((name, values, valid));
            }
            KIND_DEGENERATE if columns.wants_degenerate(&name) => {
                let column = decode_degenerate(buf, rows).map_err(in_record)?;
                degenerates.push((name, column));
            }
            KIND_KEY | KIND_MEASURE | KIND_DEGENERATE => {} // checksummed by the walk, not decoded
            other => return Err(corrupt(format!("unknown record kind {other}"))),
        }
    }
    if frames.torn() {
        return Err(corrupt(format!(
            "torn or checksum-failing record at byte {}",
            SEGMENT_HEADER.len() + frames.offset()
        )));
    }

    // Every column the meta record lists must be in the file, wanted
    // or not: a file cut on a frame boundary has no torn frame to find.
    let meta = meta.ok_or_else(|| corrupt("no meta record"))?;
    let listed = (meta.key_zones.iter().map(|z| (KIND_KEY, &z.column)))
        .chain(meta.measure_zones.iter().map(|z| (KIND_MEASURE, &z.column)))
        .chain(meta.degenerate_columns.iter().map(|c| (KIND_DEGENERATE, c)));
    for (kind, column) in listed {
        if !seen.iter().any(|(k, name)| *k == kind && name == column) {
            return Err(corrupt(format!("column `{column}` missing from file")));
        }
    }
    Ok(Segment {
        meta,
        keys,
        measures,
        degenerates,
    })
}

/// Decode only the metadata of a framed segment (still verifying
/// every record's checksum).
pub fn decode_segment_meta(bytes: &[u8]) -> Result<SegmentMeta> {
    decode_segment(bytes, &ColumnSet::empty()).map(|s| s.meta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Segment {
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
                    Value::Text("µ — naïve".into()),
                    Value::Bool(true),
                ],
            )],
        )
        .unwrap()
    }

    #[test]
    fn full_round_trip() {
        let seg = sample();
        let bytes = encode_segment(&seg);
        let back = decode_segment(&bytes, &ColumnSet::all()).unwrap();
        assert_eq!(back, seg);
    }

    #[test]
    fn meta_only_round_trip() {
        let seg = sample();
        let meta = decode_segment_meta(&encode_segment(&seg)).unwrap();
        assert_eq!(meta, seg.meta);
    }

    #[test]
    fn partial_fetch_materialises_only_requested_columns() {
        let seg = sample();
        let bytes = encode_segment(&seg);
        let cols = ColumnSet::empty().with_key("Visit").with_measure("FBG");
        let partial = decode_segment(&bytes, &cols).unwrap();
        assert_eq!(partial.meta, seg.meta);
        assert!(partial.key_column("Visit").is_some());
        assert!(partial.key_column("Personal").is_none());
        assert!(partial.measure_column("FBG").is_some());
        assert!(partial.degenerate_column("PatientId").is_none());
    }

    #[test]
    fn requesting_a_column_the_segment_lacks_is_tolerated() {
        // The meta doesn't list it, so "missing" is not corruption —
        // the caller sees an absent column, mirroring the in-memory
        // backend's behaviour.
        let seg = sample();
        let bytes = encode_segment(&seg);
        let cols = ColumnSet::empty().with_key("NotThere");
        let out = decode_segment(&bytes, &cols).unwrap();
        assert!(out.key_column("NotThere").is_none());
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode_segment(&sample());
        for cut in [0, 2, 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_segment(&bytes[..cut], &ColumnSet::all()).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn absurd_counts_with_valid_crcs_are_typed_errors() {
        // A meta record claiming 2^40 … 2^64-1 rows, then a 16-byte
        // column: every frame checksums, no decoder may size a buffer
        // from (or multiply) the claim.
        for rows in [1 << 40, 1 << 61, u64::MAX] {
            let mut meta = sample().meta;
            meta.rows = rows;
            for kind in [KIND_KEY, KIND_MEASURE, KIND_DEGENERATE] {
                let mut file = SEGMENT_HEADER.to_vec();
                put_record(&mut file, KIND_META, "", |p| put_meta(p, &meta));
                put_record(&mut file, kind, "Visit", |p| p.put(&[0xFF; 16]));
                let err = decode_segment(&file, &ColumnSet::all()).unwrap_err();
                assert!(err.to_string().contains("record `Visit`"), "{err}");
            }
        }
        // The same for a zone-map count inside the meta record itself.
        let mut file = SEGMENT_HEADER.to_vec();
        put_record(&mut file, KIND_META, "", |p| {
            p.put_u64(1);
            p.put_u64(4);
            p.put_u32(u32::MAX);
        });
        assert!(decode_segment_meta(&file).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn any_single_byte_flip_is_detected(offset in 0usize..4096, bit in 0u8..8) {
            let bytes = encode_segment(&sample());
            let offset = offset % bytes.len();
            let mut tampered = bytes.clone();
            tampered[offset] ^= 1 << bit;
            let decoded = decode_segment(&tampered, &ColumnSet::all());
            prop_assert!(
                decoded.is_err(),
                "flip at byte {} bit {} went undetected",
                offset,
                bit
            );
        }
    }
}
