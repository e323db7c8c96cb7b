//! The one wire codec: every byte this workspace persists goes through
//! here (DESIGN.md, "On-disk formats").
//!
//! * [`Put`] / [`Reader`] — little-endian scalars, `u32`-length strings
//!   and counts. Every [`Reader`] accessor returns `Result`, so a short
//!   or hostile buffer is a typed error by construction, and a count is
//!   bounded by the bytes left before anything is allocated from it.
//! * [`put_row`] / [`decode_row`] — the self-describing row codec.
//! * [`check_header`] — the 4-byte `magic‖version` file header.
//! * [`put_frame`] / [`frames`] — `[len u32][body][crc32(len‖body)]`;
//!   the walk stops at the first torn or corrupt offset, and what to do
//!   about a stop is the caller's policy.

use crate::{Date, Error, Record, Result, Value};

/// IEEE CRC-32 (polynomial `0xEDB88320`), table-driven: detects every
/// error burst up to 32 bits, so any one- or two-adjacent-byte error.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
            *slot = crc;
        }
        table
    });
    let mut crc = u32::MAX;
    for &b in bytes {
        crc = (crc >> 8) ^ table[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// A checked cursor over borrowed bytes.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

/// The scalar vocabulary, written by [`Put`] and read by [`Reader`].
macro_rules! le_scalars {
    ($($ty:ident $put:ident),*) => {
        /// Little-endian appends to a byte buffer, [`Reader`]'s write half.
        pub trait Put {
            /// Append raw bytes.
            fn put(&mut self, bytes: &[u8]);
            /// Append a `u32` length and the string's UTF-8 bytes.
            fn put_str(&mut self, s: &str) {
                self.put_u32(s.len() as u32);
                self.put(s.as_bytes());
            }
            $(
                #[doc = concat!("Append a little-endian `", stringify!($ty), "`.")]
                fn $put(&mut self, v: $ty) {
                    self.put(&v.to_le_bytes());
                }
            )*
        }

        impl Reader<'_> {
            $(
                #[doc = concat!("Read a little-endian `", stringify!($ty), "`.")]
                pub fn $ty(&mut self) -> Result<$ty> {
                    self.array().map($ty::from_le_bytes)
                }
            )*
        }
    };
}
le_scalars!(u8 put_u8, u32 put_u32, u64 put_u64, i64 put_i64, f64 put_f64);

impl Put for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

impl<'a> Reader<'a> {
    /// Read `buf` from its start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// The next `n` elements of `size` bytes each, undecoded.
    fn take(&mut self, n: usize, size: usize) -> Result<&'a [u8]> {
        let split = |need| self.buf.split_at_checked(need);
        let Some((head, tail)) = n.checked_mul(size).and_then(split) else {
            let left = self.buf.len();
            return Err(Error::invalid(format!(
                "need {n} × {size} bytes, {left} left"
            )));
        };
        self.buf = tail;
        Ok(head)
    }

    /// The next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n, 1)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    fn arrays<const N: usize, T>(&mut self, n: usize, f: fn([u8; N]) -> T) -> Result<Vec<T>> {
        let (chunks, _) = self.take(n, N)?.as_chunks::<N>();
        Ok(chunks.iter().map(|chunk| f(*chunk)).collect())
    }

    /// `n` little-endian `u32`s.
    pub fn u32s(&mut self, n: usize) -> Result<Vec<u32>> {
        self.arrays(n, u32::from_le_bytes)
    }

    /// `n` little-endian `f64`s.
    pub fn f64s(&mut self, n: usize) -> Result<Vec<f64>> {
        self.arrays(n, f64::from_le_bytes)
    }

    /// A `u32` element count, rejected unless that many elements of at
    /// least `min_size` bytes each can still follow — so a count read
    /// from a file is safe to allocate from.
    pub fn count(&mut self, min_size: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        self.clone().take(n, min_size)?; // a look ahead: nothing is consumed
        Ok(n)
    }

    /// A `u32`-length UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str> {
        let len = self.count(1)?;
        std::str::from_utf8(self.bytes(len)?).map_err(|_| Error::invalid("invalid UTF-8"))
    }

    /// One row of the self-describing row codec (see [`put_row`]).
    pub fn row(&mut self) -> Result<Record> {
        let n = self.count(1)?;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(match self.u8()? {
                TAG_NULL => Value::Null,
                TAG_INT => Value::Int(self.i64()?),
                TAG_FLOAT => Value::Float(self.f64()?),
                TAG_TEXT => Value::Text(self.str()?.to_string()),
                TAG_BOOL_FALSE => Value::Bool(false),
                TAG_BOOL_TRUE => Value::Bool(true),
                TAG_DATE => Value::Date(Date::from_days_since_epoch(self.i64()?)),
                other => return Err(Error::invalid(format!("unknown value tag {other}"))),
            });
        }
        Ok(Record::new(values))
    }

    /// Succeeds only when every byte has been read.
    pub fn finish(self) -> Result<()> {
        match self.buf.len() {
            0 => Ok(()),
            n => Err(Error::invalid(format!("{n} trailing bytes"))),
        }
    }
}

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_TEXT: u8 = 3;
const TAG_BOOL_FALSE: u8 = 4;
const TAG_BOOL_TRUE: u8 = 5;
const TAG_DATE: u8 = 6;

/// Append `values` as one row: `[count u32]` then per value a tag byte
/// and a fixed-width or length-prefixed payload.
pub fn put_row(out: &mut Vec<u8>, values: &[Value]) {
    out.put_u32(values.len() as u32);
    for v in values {
        out.put_u8(match v {
            Value::Null => TAG_NULL,
            Value::Int(_) => TAG_INT,
            Value::Float(_) => TAG_FLOAT,
            Value::Text(_) => TAG_TEXT,
            Value::Bool(false) => TAG_BOOL_FALSE,
            Value::Bool(true) => TAG_BOOL_TRUE,
            Value::Date(_) => TAG_DATE,
        });
        match v {
            Value::Int(i) => out.put_i64(*i),
            Value::Float(f) => out.put_f64(*f),
            Value::Text(s) => out.put_str(s),
            Value::Date(d) => out.put_i64(d.days_since_epoch()),
            Value::Null | Value::Bool(_) => {}
        }
    }
}

/// Encode a record as a standalone row.
pub fn encode_row(record: &Record) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + record.len() * 9);
    put_row(&mut out, record.values());
    out
}

/// Decode a standalone row; trailing bytes are an error.
pub fn decode_row(bytes: &[u8]) -> Result<Record> {
    let mut reader = Reader::new(bytes);
    let record = reader.row()?;
    reader.finish()?;
    Ok(record)
}

/// Check a file's 4-byte `magic‖version` header. `Ok(Some(rest))` when
/// it matches; `Ok(None)` when `buf` is a proper prefix of it (a crash
/// while the file was being created); `Err` when four bytes are there
/// and they are somebody else's — such a file must be left alone.
pub fn check_header<'a>(buf: &'a [u8], header: &[u8; 4]) -> Result<Option<&'a [u8]>> {
    match buf.get(..4) {
        Some(head) if head == header => Ok(Some(&buf[4..])),
        None if header.starts_with(buf) => Ok(None),
        Some(head) if head[..3] == header[..3] => Err(Error::invalid(format!(
            "unsupported format version {} (this build reads {})",
            head[3], header[3]
        ))),
        _ => Err(Error::invalid("bad magic")),
    }
}

/// Append one frame whose body is whatever `fill` appends.
pub fn put_frame(out: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.put_u32(0);
    fill(out);
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out.put_u32(crc32(&out[start..]));
}

/// Walk the frames at the start of `buf`.
pub fn frames(buf: &[u8]) -> Frames<'_> {
    Frames { buf, at: 0 }
}

/// Iterator over verified frame bodies; see [`frames`].
#[derive(Debug, Clone)]
pub struct Frames<'a> {
    buf: &'a [u8],
    at: usize,
}

impl Frames<'_> {
    /// Offset one past the last intact frame yielded so far.
    pub fn offset(&self) -> usize {
        self.at
    }

    /// After the walk: whether a torn or corrupt frame stopped it early.
    pub fn torn(&self) -> bool {
        self.at < self.buf.len()
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let mut reader = Reader::new(&self.buf[self.at..]);
        let len = reader.count(1).ok()?;
        let body = reader.bytes(len).ok()?;
        let stored = reader.u32().ok()?;
        let end = self.at + 4 + len;
        if crc32(&self.buf[self.at..end]) != stored {
            return None;
        }
        self.at = end + 4;
        Some(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn crc32_detects_compensating_byte_pairs() {
        // The +1/-31 pair that fools a positional byte sum.
        let clean = [10u8, 200, 130, 40];
        let mut tampered = clean;
        tampered[1] += 1;
        tampered[2] -= 31;
        assert_ne!(crc32(&clean), crc32(&tampered));
    }

    #[test]
    fn malformed_rows_are_rejected() {
        let empty = Record::new(vec![]);
        assert_eq!(decode_row(&encode_row(&empty)).unwrap(), empty);

        let bytes = encode_row(&Record::new(vec![Value::Int(42), Value::Text("µ".into())]));
        for cut in [0, 1, 3, bytes.len() - 1] {
            assert!(decode_row(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
        let mut trailing = bytes;
        trailing.push(0xFF);
        assert!(decode_row(&trailing).is_err(), "trailing garbage accepted");
        // Header says 1 value, then a bogus tag.
        assert!(decode_row(&[1, 0, 0, 0, 99]).is_err());
    }

    #[test]
    fn short_buffers_and_absurd_counts_are_typed_errors() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert!(r.u32().is_err() && r.u64().is_err() && r.f64().is_err());
        assert!(r.bytes(4).is_err() && r.clone().finish().is_err());
        assert_eq!(r.u8().unwrap(), 1, "a failed read consumes nothing");
        assert_eq!(r.bytes(2).unwrap(), [2, 3]);
        assert!(r.finish().is_ok());

        // Counts are bounded by the bytes left.
        let mut buf = Vec::new();
        buf.put_u32(u32::MAX);
        buf.put(&[0; 8]);
        assert!(Reader::new(&buf).count(1).is_err());
        assert!(Reader::new(&buf).str().is_err());
        assert!(decode_row(&buf).is_err(), "no 4 G-value allocation");
        let zeros = Reader::new(&buf[4..]);
        assert!(zeros.clone().f64s(usize::MAX).is_err(), "n × 8 overflows");
        assert!(zeros.clone().u32s(3).is_err());
        assert_eq!(zeros.clone().u32s(2).unwrap(), [0, 0]);
    }

    #[test]
    fn header_is_ok_torn_or_foreign() {
        let header = *b"\xD5XY\x02";
        let rest = check_header(b"\xD5XY\x02rest", &header).unwrap();
        assert_eq!(rest, Some(&b"rest"[..]));
        for cut in 0..4 {
            assert_eq!(check_header(&header[..cut], &header).unwrap(), None);
        }
        // An older version, another format's magic, a short foreign file.
        for foreign in [&b"\xD5XY\x01"[..], b"\xD5XZ\x02", b"\xD5Q"] {
            assert!(check_header(foreign, &header).is_err(), "{foreign:?}");
        }
    }

    #[test]
    fn frames_yield_the_longest_intact_prefix() {
        let mut buf = Vec::new();
        put_frame(&mut buf, |b| b.put(b"first"));
        let first_end = buf.len();
        put_frame(&mut buf, |_| {});
        put_frame(&mut buf, |b| b.put_str("third"));
        let mut walk = frames(&buf);
        assert_eq!(walk.by_ref().count(), 3);
        assert!(!walk.torn() && walk.offset() == buf.len());

        for cut in 0..buf.len() {
            let mut walk = frames(&buf[..cut]);
            let whole = walk.by_ref().count();
            assert!(walk.torn() || cut == walk.offset());
            assert_eq!(whole >= 1, cut >= first_end, "cut {cut}");
        }
        for bit in 0..buf.len() * 8 {
            let mut bad = buf.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let mut walk = frames(&bad);
            walk.by_ref().for_each(drop);
            assert!(walk.torn(), "flip of bit {bit} went undetected");
        }
    }
}
