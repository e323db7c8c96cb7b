//! Write-ahead log persistence for the row store.
//!
//! The paper positions the warehouse on top of existing operational
//! stores; a credible operational store must survive a process crash.
//! [`DurableStore`] wraps a [`RowStore`] and appends every mutation to
//! an append-only log before applying it; [`DurableStore::recover`]
//! rebuilds the store by replaying the log.
//!
//! On disk (DESIGN.md, "On-disk formats"): the [`wire`] header
//! `0xD5 'W' 'L' 3`, then one [`wire`] frame per mutation whose body is
//!
//! ```text
//! [op: u8][row_id: u64][row — absent for a delete]
//! ```
//!
//! Tail policy: replay stops at the first torn or corrupt frame (a
//! crash mid-append) and recovery rewrites the log to the intact
//! prefix. A file whose header is somebody else's — foreign magic, or
//! a version this build does not read — is a typed error and is left
//! untouched.
//!
//! Fault injection: the `wal.append`, `wal.flush` and `wal.recover`
//! failpoints sit exactly where the underlying file I/O can fail, so
//! chaos tests can exercise the same error paths a full disk or a
//! crash would.

use crate::store::{RowId, RowStore};
use clinical_types::wire::{self, Put, Reader};
use clinical_types::{Error, Record, Result, Schema};
use obs::{LockRank, RankedMutex};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

const OP_INSERT: u8 = 1;
const OP_UPDATE: u8 = 2;
const OP_DELETE: u8 = 3;

/// File header: three magic bytes, then the log-format version.
const WAL_HEADER: [u8; 4] = [0xD5, b'W', b'L', 3];

fn map_fault(e: fault::FaultError) -> Error {
    Error::invalid(e.to_string())
}

/// One logged operation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// Row inserted at the given id.
    Insert(RowId, Record),
    /// Row replaced at the given id.
    Update(RowId, Record),
    /// Row deleted at the given id.
    Delete(RowId),
}

fn put_op(out: &mut Vec<u8>, op: &WalOp) {
    let (tag, id, row) = match op {
        WalOp::Insert(id, rec) => (OP_INSERT, *id, Some(rec)),
        WalOp::Update(id, rec) => (OP_UPDATE, *id, Some(rec)),
        WalOp::Delete(id) => (OP_DELETE, *id, None),
    };
    wire::put_frame(out, |body| {
        body.put_u8(tag);
        body.put_u64(id);
        if let Some(rec) = row {
            wire::put_row(body, rec.values());
        }
    });
}

fn decode_op(body: &[u8]) -> Result<WalOp> {
    let mut reader = Reader::new(body);
    let tag = reader.u8()?;
    let id = reader.u64()?;
    let op = match tag {
        OP_INSERT => WalOp::Insert(id, reader.row()?),
        OP_UPDATE => WalOp::Update(id, reader.row()?),
        OP_DELETE => WalOp::Delete(id),
        other => return Err(Error::invalid(format!("unknown WAL op {other}"))),
    };
    reader.finish()?;
    Ok(op)
}

/// The ops in the frames at the start of `buf`, and whether the walk
/// stopped on a torn, corrupt or undecodable frame.
fn parse_records(buf: &[u8]) -> (Vec<WalOp>, bool) {
    let mut frames = wire::frames(buf);
    let mut ops = Vec::new();
    for body in frames.by_ref() {
        match decode_op(body) {
            Ok(op) => ops.push(op),
            Err(_) => return (ops, true),
        }
    }
    (ops, frames.torn())
}

/// Parse the ops in a log buffer, stopping at the first torn or
/// corrupt record. Returns the ops plus whether a tail (or a header cut
/// short by a crash during create) was dropped; a complete header that
/// is not this format's is an error.
pub fn parse_log(buf: &[u8]) -> Result<(Vec<WalOp>, bool)> {
    match wire::check_header(buf, &WAL_HEADER)? {
        Some(records) => Ok(parse_records(records)),
        None => Ok((Vec::new(), !buf.is_empty())),
    }
}

/// A [`RowStore`] whose mutations are logged before they apply.
pub struct DurableStore {
    store: RowStore,
    log: RankedMutex<BufWriter<File>>,
    path: PathBuf,
}

/// The WAL writer lock — the innermost rank in the hierarchy, since
/// an append must serialise the buffered file write it protects.
fn wal_lock(log: BufWriter<File>) -> RankedMutex<BufWriter<File>> {
    RankedMutex::new(LockRank::Wal, "oltp.wal.log", log)
}

impl DurableStore {
    /// Create (or truncate) a store logging to `path`; the log starts
    /// with the file header.
    pub fn create(schema: Schema, path: &Path) -> Result<DurableStore> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)
            .map_err(|e| Error::invalid(format!("cannot create WAL {path:?}: {e}")))?;
        let mut log = BufWriter::new(file);
        log.write_all(&WAL_HEADER)
            .map_err(|e| Error::invalid(format!("cannot write WAL header {path:?}: {e}")))?;
        Ok(DurableStore {
            store: RowStore::new(schema),
            log: wal_lock(log),
            path: path.to_path_buf(),
        })
    }

    /// Recover a store from an existing log, replaying every intact
    /// record and reopening the log for appending. A torn log is
    /// rewritten to its intact prefix. Returns the store and whether a
    /// torn tail was discarded; a log with a foreign header is an
    /// error and keeps its bytes.
    pub fn recover(schema: Schema, path: &Path) -> Result<(DurableStore, bool)> {
        fault::point("wal.recover").map_err(map_fault)?;
        let mut raw = Vec::new();
        File::open(path)
            .map_err(|e| Error::invalid(format!("cannot open WAL {path:?}: {e}")))?
            .read_to_end(&mut raw)
            .map_err(|e| Error::invalid(format!("cannot read WAL {path:?}: {e}")))?;
        let (ops, torn) = parse_log(&raw)
            .map_err(|e| Error::invalid(format!("cannot replay WAL {path:?}: {e}")))?;

        let store = RowStore::new(schema);
        for op in &ops {
            match op {
                WalOp::Insert(expected_id, rec) => {
                    let id = store.insert(rec.clone())?;
                    if id != *expected_id {
                        return Err(Error::invalid(format!(
                            "WAL replay drift: log says row {expected_id}, store allocated {id}"
                        )));
                    }
                }
                WalOp::Update(id, rec) => {
                    store.update(*id, rec.clone())?;
                }
                WalOp::Delete(id) => {
                    store.delete(*id)?;
                }
            }
        }

        // Rewrite the log to just the intact prefix (drops the torn
        // tail; stamps the header on an empty file), then reopen for
        // append.
        if torn || raw.is_empty() {
            let mut intact = WAL_HEADER.to_vec();
            for op in &ops {
                put_op(&mut intact, op);
            }
            std::fs::write(path, intact)
                .map_err(|e| Error::invalid(format!("cannot rewrite WAL {path:?}: {e}")))?;
        }
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| Error::invalid(format!("cannot reopen WAL {path:?}: {e}")))?;
        Ok((
            DurableStore {
                store,
                log: wal_lock(BufWriter::new(file)),
                path: path.to_path_buf(),
            },
            torn,
        ))
    }

    /// The in-memory store (reads go straight through).
    pub fn store(&self) -> &RowStore {
        &self.store
    }

    /// Log file location.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn append(&self, op: &WalOp) -> Result<()> {
        fault::point("wal.append").map_err(map_fault)?;
        let mut frame = Vec::new();
        put_op(&mut frame, op);
        let mut log = self.log.lock();
        log.write_all(&frame) // lint:allow(A301, "the WAL lock exists to serialise this buffered file write; it is the innermost rank and nothing is acquired under it")
            .map_err(|e| Error::invalid(format!("WAL append failed: {e}")))?;
        Ok(())
    }

    /// Flush buffered log records to the OS.
    pub fn sync(&self) -> Result<()> {
        fault::point("wal.flush").map_err(map_fault)?;
        self.log
            .lock()
            .flush() // lint:allow(A301, "flushing the buffered writer is the WAL lock's whole job; innermost rank, nothing acquired under it")
            .map_err(|e| Error::invalid(format!("WAL flush failed: {e}")))
    }

    /// Logged insert. When the log append fails the allocated row is
    /// rolled back, so an I/O fault never leaves the in-memory store
    /// ahead of what recovery can replay.
    pub fn insert(&self, record: Record) -> Result<RowId> {
        // Validate (and allocate) first so the log never records a
        // mutation the store rejected.
        let id = self.store.insert(record.clone())?;
        if let Err(e) = self.append(&WalOp::Insert(id, record)) {
            let _ = self.store.rollback_insert(id);
            return Err(e);
        }
        Ok(id)
    }

    /// Logged update. A failed log append restores the previous
    /// record (see [`DurableStore::insert`]).
    pub fn update(&self, id: RowId, record: Record) -> Result<Record> {
        let old = self.store.update(id, record.clone())?;
        if let Err(e) = self.append(&WalOp::Update(id, record)) {
            let _ = self.store.update(id, old);
            return Err(e);
        }
        Ok(old)
    }

    /// Logged delete. A failed log append restores the tombstoned row
    /// (see [`DurableStore::insert`]).
    pub fn delete(&self, id: RowId) -> Result<Record> {
        let old = self.store.delete(id)?;
        if let Err(e) = self.append(&WalOp::Delete(id)) {
            let _ = self.store.undelete(id, old);
            return Err(e);
        }
        Ok(old)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clinical_types::{DataType, FieldDef, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            FieldDef::required("Id", DataType::Int),
            FieldDef::nullable("X", DataType::Float),
        ])
        .unwrap()
    }

    fn rec(id: i64, x: f64) -> Record {
        Record::new(vec![Value::Int(id), Value::Float(x)])
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("dd_dgms_wal_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}_{}.wal", std::process::id()))
    }

    #[test]
    fn mutations_survive_recovery() {
        let path = temp_path("basic");
        {
            let store = DurableStore::create(schema(), &path).unwrap();
            let a = store.insert(rec(1, 1.0)).unwrap();
            let b = store.insert(rec(2, 2.0)).unwrap();
            store.update(a, rec(1, 9.0)).unwrap();
            store.delete(b).unwrap();
            store.sync().unwrap();
        }
        let (recovered, torn) = DurableStore::recover(schema(), &path).unwrap();
        assert!(!torn);
        assert_eq!(recovered.store().len(), 1);
        assert_eq!(recovered.store().get(0).unwrap().unwrap(), rec(1, 9.0));
        assert_eq!(recovered.store().get(1).unwrap(), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recovery_continues_accepting_writes() {
        let path = temp_path("continue");
        {
            let store = DurableStore::create(schema(), &path).unwrap();
            store.insert(rec(1, 1.0)).unwrap();
            store.sync().unwrap();
        }
        {
            let (recovered, _) = DurableStore::recover(schema(), &path).unwrap();
            recovered.insert(rec(2, 2.0)).unwrap();
            recovered.sync().unwrap();
        }
        let (again, torn) = DurableStore::recover(schema(), &path).unwrap();
        assert!(!torn);
        assert_eq!(again.store().len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_discarded_not_fatal() {
        let path = temp_path("torn");
        {
            let store = DurableStore::create(schema(), &path).unwrap();
            store.insert(rec(1, 1.0)).unwrap();
            store.insert(rec(2, 2.0)).unwrap();
            store.sync().unwrap();
        }
        // Simulate a crash mid-append: chop off the last 5 bytes.
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 5]).unwrap();

        let (recovered, torn) = DurableStore::recover(schema(), &path).unwrap();
        assert!(torn);
        assert_eq!(recovered.store().len(), 1);
        // After recovery the log is clean again.
        let (again, torn2) = DurableStore::recover(schema(), &path).unwrap();
        assert!(!torn2);
        assert_eq!(again.store().len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_checksum_stops_replay() {
        let path = temp_path("corrupt");
        {
            let store = DurableStore::create(schema(), &path).unwrap();
            store.insert(rec(1, 1.0)).unwrap();
            store.insert(rec(2, 2.0)).unwrap();
            store.sync().unwrap();
        }
        // Flip a byte inside the second record's payload.
        let mut raw = std::fs::read(&path).unwrap();
        let n = raw.len();
        raw[n - 6] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();

        let (recovered, torn) = DurableStore::recover(schema(), &path).unwrap();
        assert!(torn);
        assert_eq!(recovered.store().len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parse_log_round_trips_ops() {
        let ops = vec![
            WalOp::Insert(0, rec(1, 1.5)),
            WalOp::Update(0, rec(1, 2.5)),
            WalOp::Delete(0),
        ];
        let mut buf = WAL_HEADER.to_vec();
        for op in &ops {
            put_op(&mut buf, op);
        }
        let (parsed, torn) = parse_log(&buf).unwrap();
        assert!(!torn);
        assert_eq!(parsed, ops);
    }

    #[test]
    fn empty_log_recovers_empty_store() {
        let path = temp_path("empty");
        std::fs::write(&path, b"").unwrap();
        let (recovered, torn) = DurableStore::recover(schema(), &path).unwrap();
        assert!(!torn);
        assert!(recovered.store().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_log_file_errors() {
        let path = temp_path("never_created_x");
        std::fs::remove_file(&path).ok();
        assert!(DurableStore::recover(schema(), &path).is_err());
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let mut clean = Vec::new();
        put_op(&mut clean, &WalOp::Insert(0, rec(1, 1.5)));
        put_op(&mut clean, &WalOp::Insert(1, rec(2, 2.5)));
        let (ops, torn) = parse_records(&clean);
        assert!(!torn);
        assert_eq!(ops.len(), 2);

        for i in 0..clean.len() {
            let mut tampered = clean.clone();
            tampered[i] ^= 0x41;
            let (ops, torn) = parse_records(&tampered);
            assert!(
                torn,
                "flip at byte {i} must mark the log torn (got {} intact ops)",
                ops.len()
            );
        }
    }

    #[test]
    fn foreign_header_is_an_error_and_the_file_is_untouched() {
        let path = temp_path("foreign_header");
        let mut old_version = WAL_HEADER.to_vec();
        old_version[3] = 2;
        put_op(&mut old_version, &WalOp::Insert(0, rec(1, 1.0)));
        // Right first byte, wrong magic; and a headerless v1 log, which
        // starts with an op tag.
        let wrong_magic = vec![WAL_HEADER[0], b'S', b'G', 3, 0, 0];
        let headerless = vec![OP_INSERT, 0, 0, 0, 0, 0, 0, 0, 0];
        for foreign in [old_version, wrong_magic, headerless] {
            std::fs::write(&path, &foreign).unwrap();
            assert!(DurableStore::recover(schema(), &path).is_err());
            assert_eq!(std::fs::read(&path).unwrap(), foreign, "bytes kept");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_header_is_survivable() {
        let path = temp_path("torn_header");
        // Two magic bytes then EOF: a crash during header write.
        std::fs::write(&path, &WAL_HEADER[..2]).unwrap();
        let (recovered, torn) = DurableStore::recover(schema(), &path).unwrap();
        assert!(torn);
        assert!(recovered.store().is_empty());
        recovered.insert(rec(1, 1.0)).unwrap();
        recovered.sync().unwrap();
        drop(recovered);
        let (again, torn2) = DurableStore::recover(schema(), &path).unwrap();
        assert!(!torn2);
        assert_eq!(again.store().len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_append_fault_rolls_back_the_insert() {
        let _lock = fault::test_support::fault_lock();
        let path = temp_path("fault_append");
        let store = DurableStore::create(schema(), &path).unwrap();
        store.insert(rec(1, 1.0)).unwrap();
        {
            let _guard = fault::arm("wal.append", fault::Trigger::Once, fault::FaultKind::Error);
            let err = store.insert(rec(2, 2.0)).unwrap_err();
            assert!(err.to_string().contains("injected fault at wal.append"));
        }
        // The failed insert left no trace in memory…
        assert_eq!(store.store().len(), 1);
        // …and the store keeps accepting writes once the fault clears.
        store.insert(rec(3, 3.0)).unwrap();
        store.sync().unwrap();
        drop(store);
        let (recovered, torn) = DurableStore::recover(schema(), &path).unwrap();
        assert!(!torn);
        assert_eq!(recovered.store().len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_flush_and_recover_faults_surface_as_errors() {
        let _lock = fault::test_support::fault_lock();
        let path = temp_path("fault_flush");
        {
            let store = DurableStore::create(schema(), &path).unwrap();
            store.insert(rec(1, 1.0)).unwrap();
            let _guard = fault::arm("wal.flush", fault::Trigger::Once, fault::FaultKind::Error);
            assert!(store.sync().is_err());
            assert!(store.sync().is_ok(), "transient fault: retry succeeds");
        }
        let _guard = fault::arm("wal.recover", fault::Trigger::Once, fault::FaultKind::Error);
        assert!(DurableStore::recover(schema(), &path).is_err());
        let (recovered, _) = DurableStore::recover(schema(), &path).unwrap();
        assert_eq!(recovered.store().len(), 1);
        std::fs::remove_file(&path).ok();
    }
}
