//! The operation log: an ordered, optionally file-backed sequence of
//! framed [`LogRecord`]s with a truncation horizon.
//!
//! On disk (DESIGN.md, "On-disk formats"): the [`wire`] header
//! `0xD5 'O' 'G' 2`, a horizon frame `[truncated_epoch u64][first_seq
//! u64]`, then one frame per record ([`crate::record`]). Tail policy:
//! recovery keeps the longest intact prefix of records and rewrites the
//! file to it; a defect in the header or the horizon frame is a hard
//! error. Truncation for age-out rewrites the file with the retained
//! suffix and records the highest epoch dropped, so a replica whose
//! cursor predates the horizon gets a typed [`OplogError::Truncated`] —
//! its signal to re-seed from a primary snapshot instead of replaying a
//! gap.

use crate::record::{decode_record, put_record, LogPos, LogRecord};
use clinical_types::wire::{self, Put, Reader};
use obs::lockrank::{LockRank, RankedMutex};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use warehouse::WarehouseChange;

/// File header: three magic bytes, then the oplog-format version.
const OPLOG_HEADER: [u8; 4] = [0xD5, b'O', b'G', 2];

/// Errors surfaced by the oplog and the replication paths above it.
#[derive(Debug)]
pub enum OplogError {
    /// The requested cursor predates the truncation horizon: the gap
    /// is unrecoverable from the log and the replica must re-seed.
    Truncated {
        /// The cursor sequence number that was requested.
        cursor_seq: u64,
        /// Highest epoch dropped by truncation so far.
        horizon_epoch: u64,
    },
    /// An append targeted an epoch at or below the log's newest.
    Stale {
        /// The epoch the caller tried to append.
        epoch: u64,
        /// The newest epoch already in the log.
        last_epoch: u64,
    },
    /// The log file failed structural validation beyond recovery.
    Corrupt(String),
    /// An underlying filesystem operation failed.
    Io(String),
    /// A replayed change was rejected by the follower warehouse.
    Data(clinical_types::Error),
    /// An injected fault fired at an oplog or replication failpoint.
    Faulted(String),
}

impl std::fmt::Display for OplogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OplogError::Truncated {
                cursor_seq,
                horizon_epoch,
            } => write!(
                f,
                "log truncated past cursor seq {cursor_seq} (horizon epoch {horizon_epoch}); re-seed required"
            ),
            OplogError::Stale { epoch, last_epoch } => write!(
                f,
                "append at epoch {epoch} does not advance the log (last epoch {last_epoch})"
            ),
            OplogError::Corrupt(msg) => write!(f, "corrupt oplog: {msg}"),
            OplogError::Io(msg) => write!(f, "oplog I/O failure: {msg}"),
            OplogError::Data(err) => write!(f, "replicated change rejected: {err}"),
            OplogError::Faulted(point) => write!(f, "injected fault at {point}"),
        }
    }
}

impl std::error::Error for OplogError {}

impl From<clinical_types::Error> for OplogError {
    fn from(err: clinical_types::Error) -> Self {
        OplogError::Data(err)
    }
}

impl From<std::io::Error> for OplogError {
    fn from(err: std::io::Error) -> Self {
        OplogError::Io(err.to_string())
    }
}

impl From<fault::FaultError> for OplogError {
    fn from(err: fault::FaultError) -> Self {
        OplogError::Faulted(err.point().to_string())
    }
}

struct Inner {
    /// Retained records, ascending in `(epoch, seq)`.
    records: Vec<LogRecord>,
    /// Sequence number the next appended record receives.
    next_seq: u64,
    /// Sequence number of the first retained record (== `next_seq`
    /// when the log is empty).
    first_seq: u64,
    /// Highest epoch dropped by truncation (0 = nothing dropped).
    truncated_epoch: u64,
    /// Epoch of the newest record ever appended.
    last_epoch: u64,
    /// Backing file, when durable.
    file: Option<(PathBuf, File)>,
}

impl Inner {
    /// The file header and the horizon frame.
    fn file_head(truncated_epoch: u64, first_seq: u64) -> Vec<u8> {
        let mut out = OPLOG_HEADER.to_vec();
        wire::put_frame(&mut out, |body| {
            body.put_u64(truncated_epoch);
            body.put_u64(first_seq);
        });
        out
    }

    /// Inverse of [`Inner::file_head`]: a file's `(truncated_epoch,
    /// first_seq)` and the walk over the record frames behind them.
    fn read_head(raw: &[u8]) -> clinical_types::Result<(u64, u64, wire::Frames<'_>)> {
        let bad = clinical_types::Error::invalid;
        let rest =
            wire::check_header(raw, &OPLOG_HEADER)?.ok_or_else(|| bad("truncated header"))?;
        let mut frames = wire::frames(rest);
        let mut horizon = Reader::new(frames.next().ok_or_else(|| bad("bad horizon frame"))?);
        let (truncated_epoch, first_seq) = (horizon.u64()?, horizon.u64()?);
        horizon.finish()?;
        Ok((truncated_epoch, first_seq, frames))
    }

    /// Rewrite the whole backing file (header + retained frames).
    /// Used after truncation and torn-tail recovery; appends go
    /// through the cheaper append-one-frame path.
    fn rewrite_file(&mut self) -> Result<(), OplogError> {
        let Some((path, file)) = self.file.as_mut() else {
            return Ok(());
        };
        let mut out = Self::file_head(self.truncated_epoch, self.first_seq);
        for record in &self.records {
            put_record(&mut out, record);
        }
        let mut fresh = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&*path)?;
        fresh.write_all(&out)?;
        fresh.sync_data()?;
        *file = fresh;
        Ok(())
    }
}

/// The sequenced, optionally durable change feed.
pub struct Oplog {
    inner: RankedMutex<Inner>,
}

impl Oplog {
    /// A log that lives only in memory (tests, single-process serve).
    pub fn in_memory() -> Oplog {
        Oplog {
            inner: RankedMutex::new(
                LockRank::Oplog,
                "oplog.log",
                Inner {
                    records: Vec::new(),
                    next_seq: 1,
                    first_seq: 1,
                    truncated_epoch: 0,
                    last_epoch: 0,
                    file: None,
                },
            ),
        }
    }

    /// Open (or create) a durable log at `path`, recovering the
    /// longest intact prefix. Returns the log and whether a torn or
    /// corrupt tail was discarded during recovery.
    pub fn open(path: impl AsRef<Path>) -> Result<(Oplog, bool), OplogError> {
        let path = path.as_ref().to_path_buf();
        let mut raw = Vec::new();
        let existed = path.exists();
        if existed {
            File::open(&path)?.read_to_end(&mut raw)?;
        }

        let mut inner = Inner {
            records: Vec::new(),
            next_seq: 1,
            first_seq: 1,
            truncated_epoch: 0,
            last_epoch: 0,
            file: None,
        };
        let mut torn = false;

        if raw.is_empty() {
            // Fresh log: stamp the header.
            let out = Inner::file_head(0, 1);
            let mut file = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&path)?;
            file.write_all(&out)?;
            file.sync_data()?;
            inner.file = Some((path, file));
        } else {
            let (truncated_epoch, first_seq, mut frames) = Inner::read_head(&raw)
                .map_err(|e| OplogError::Corrupt(format!("{e} in {}", path.display())))?;
            inner.truncated_epoch = truncated_epoch;
            inner.first_seq = first_seq;
            inner.next_seq = inner.first_seq;
            inner.last_epoch = inner.truncated_epoch;

            // Torn tail: keep the intact prefix only.
            for body in frames.by_ref() {
                let Ok(record) = decode_record(body) else {
                    torn = true;
                    break;
                };
                inner.next_seq = record.pos.seq + 1;
                inner.last_epoch = record.pos.epoch;
                inner.records.push(record);
            }
            torn |= frames.torn();
            let at = OPLOG_HEADER.len() + frames.offset();

            let file = OpenOptions::new().append(true).open(&path)?;
            inner.file = Some((path, file));
            if torn {
                inner.rewrite_file()?;
                obs::event_with(
                    "oplog.recover_torn_tail",
                    &[("kept", &inner.records.len()), ("at", &at)],
                );
            }
        }

        Ok((
            Oplog {
                inner: RankedMutex::new(LockRank::Oplog, "oplog.log", inner),
            },
            torn,
        ))
    }

    /// Append `change` as the record landing the warehouse on `epoch`.
    ///
    /// Fails with [`OplogError::Stale`] unless `epoch` strictly
    /// advances the log — the caller (the primary, under its warehouse
    /// write lock) is the only writer, so a non-advancing epoch is a
    /// sequencing bug worth failing loudly on.
    pub fn append(&self, change: &WarehouseChange, epoch: u64) -> Result<LogPos, OplogError> {
        fault::point("oplog.append")?;
        let mut inner = self.inner.lock();
        if epoch <= inner.last_epoch {
            return Err(OplogError::Stale {
                epoch,
                last_epoch: inner.last_epoch,
            });
        }
        let pos = LogPos {
            epoch,
            seq: inner.next_seq,
        };
        let record = LogRecord {
            pos,
            change: change.clone(),
        };
        if let Some((_, file)) = inner.file.as_mut() {
            let mut frame = Vec::new();
            put_record(&mut frame, &record);
            file.write_all(&frame)?; // lint:allow(A301, "the oplog lock exists to serialise appends to the backing file; it is the innermost rank and nothing is acquired under it")
            file.sync_data()?; // lint:allow(A301, "durability point of the append; innermost rank, nothing acquired under it")
        }
        inner.next_seq += 1;
        inner.last_epoch = epoch;
        inner.records.push(record);
        obs::event_with(
            "oplog.append",
            &[
                ("pos", &pos),
                ("kind", &change.kind_name()),
                ("len", &inner.records.len()),
            ],
        );
        Ok(pos)
    }

    /// Every record after `cursor` (the position of the last record
    /// the caller has applied; [`LogPos::start`] for "nothing yet").
    ///
    /// Fails with [`OplogError::Truncated`] when records between the
    /// cursor and the first retained record have been aged out — the
    /// caller cannot reach the present by replay and must re-seed.
    pub fn tail_from(&self, cursor: LogPos) -> Result<Vec<LogRecord>, OplogError> {
        fault::point("oplog.tail")?;
        let inner = self.inner.lock();
        // Behind the horizon when dropped *records* sit between the
        // cursor and the first retained one (seq discontinuity), or
        // when the horizon itself passed the cursor's epoch — a gap
        // (`mark_gap`) drops epochs without ever assigning them a seq,
        // so the epoch comparison is what catches it.
        if cursor.epoch < inner.truncated_epoch || cursor.seq + 1 < inner.first_seq {
            return Err(OplogError::Truncated {
                cursor_seq: cursor.seq,
                horizon_epoch: inner.truncated_epoch,
            });
        }
        Ok(inner
            .records
            .iter()
            .filter(|r| r.pos.seq > cursor.seq)
            .cloned()
            .collect())
    }

    /// The cursor a replica seeded from a primary snapshot at `epoch`
    /// should start tailing from: the position of the last record with
    /// epoch ≤ `epoch`. Fails with [`OplogError::Truncated`] when
    /// records above `epoch` have already been aged out (the snapshot
    /// is itself behind the horizon).
    pub fn cursor_at(&self, epoch: u64) -> Result<LogPos, OplogError> {
        let inner = self.inner.lock();
        if let Some(record) = inner.records.iter().rev().find(|r| r.pos.epoch <= epoch) {
            return Ok(record.pos);
        }
        if inner.truncated_epoch > epoch {
            return Err(OplogError::Truncated {
                cursor_seq: 0,
                horizon_epoch: inner.truncated_epoch,
            });
        }
        Ok(LogPos {
            epoch,
            seq: inner.first_seq.saturating_sub(1),
        })
    }

    /// Age out every record whose epoch is below `epoch`, rewriting
    /// the backing file. Returns the number of records dropped.
    /// Cursors left behind the new horizon observe
    /// [`OplogError::Truncated`] on their next tail.
    pub fn truncate_before(&self, epoch: u64) -> Result<usize, OplogError> {
        let mut inner = self.inner.lock();
        let keep_from = inner
            .records
            .iter()
            .position(|r| r.pos.epoch >= epoch)
            .unwrap_or(inner.records.len());
        if keep_from == 0 {
            return Ok(0);
        }
        let dropped: Vec<LogRecord> = inner.records.drain(..keep_from).collect();
        let highest_dropped = dropped.last().map(|r| r.pos).unwrap_or(LogPos::start());
        inner.truncated_epoch = inner.truncated_epoch.max(highest_dropped.epoch);
        inner.first_seq = highest_dropped.seq + 1;
        inner.rewrite_file()?;
        obs::event_with(
            "oplog.truncate",
            &[
                ("dropped", &dropped.len()),
                ("horizon_epoch", &inner.truncated_epoch),
            ],
        );
        Ok(dropped.len())
    }

    /// Record that `epoch` happened on the primary but could not be
    /// appended (a durable publish failure after retries). A hole in
    /// the feed is indistinguishable from truncation to a follower, so
    /// it is recorded as one: every retained record is dropped, the
    /// horizon advances to at least `epoch`, and the epoch counts as
    /// the newest the log has seen. Followers observe
    /// [`OplogError::Truncated`] on their next tail and re-seed from a
    /// primary snapshot instead of replaying across the gap.
    pub fn mark_gap(&self, epoch: u64) -> Result<(), OplogError> {
        let mut inner = self.inner.lock();
        inner.records.clear();
        inner.first_seq = inner.next_seq;
        inner.truncated_epoch = inner.truncated_epoch.max(epoch);
        inner.last_epoch = inner.last_epoch.max(epoch);
        inner.rewrite_file()?;
        obs::event_with(
            "oplog.gap",
            &[("epoch", &epoch), ("horizon_epoch", &inner.truncated_epoch)],
        );
        Ok(())
    }

    /// Position of the newest record, if any record is retained.
    pub fn last_pos(&self) -> Option<LogPos> {
        self.inner.lock().records.last().map(|r| r.pos)
    }

    /// Highest epoch dropped by truncation (0 = nothing dropped).
    pub fn horizon_epoch(&self) -> u64 {
        self.inner.lock().truncated_epoch
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.inner.lock().records.len()
    }

    /// Whether no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clinical_types::{DataType, FieldDef, Record, Schema, Table};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_log_path(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "ddgms-oplog-{}-{}-{}.log",
            std::process::id(),
            tag,
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn batch(n: usize) -> WarehouseChange {
        let schema = Schema::new(vec![FieldDef::nullable("FBG", DataType::Float)]).unwrap();
        let rows = (0..n)
            .map(|i| Record::new(vec![(i as f64).into()]))
            .collect();
        WarehouseChange::Append(Table::from_rows(schema, rows).unwrap())
    }

    #[test]
    fn appends_sequence_and_tail_resumes() {
        let log = Oplog::in_memory();
        let p1 = log.append(&batch(1), 10).unwrap();
        let p2 = log.append(&WarehouseChange::Rewrite, 11).unwrap();
        assert_eq!((p1.seq, p2.seq), (1, 2));
        assert!(log.append(&batch(1), 11).is_err(), "stale epoch rejected");

        let all = log.tail_from(LogPos::start()).unwrap();
        assert_eq!(all.len(), 2);
        let rest = log.tail_from(p1).unwrap();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].pos, p2);
        assert!(log.tail_from(p2).unwrap().is_empty());
    }

    #[test]
    fn durable_log_survives_reopen() {
        let path = temp_log_path("reopen");
        {
            let (log, torn) = Oplog::open(&path).unwrap();
            assert!(!torn);
            log.append(&batch(3), 5).unwrap();
            log.append(
                &WarehouseChange::Feedback {
                    dimension: "Review".into(),
                    attribute: "Flag".into(),
                    labels: vec!["a".into(), "b".into(), "c".into()],
                },
                6,
            )
            .unwrap();
        }
        let (log, torn) = Oplog::open(&path).unwrap();
        assert!(!torn);
        assert_eq!(log.len(), 2);
        let tail = log.tail_from(LogPos::start()).unwrap();
        assert_eq!(tail[0].pos, LogPos { epoch: 5, seq: 1 });
        assert_eq!(tail[1].pos, LogPos { epoch: 6, seq: 2 });
        // Sequencing resumes above the recovered tail.
        let p = log.append(&WarehouseChange::Rewrite, 9).unwrap();
        assert_eq!(p.seq, 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_discarded_on_recovery() {
        let path = temp_log_path("torn");
        {
            let (log, _) = Oplog::open(&path).unwrap();
            log.append(&batch(2), 5).unwrap();
            log.append(&batch(2), 6).unwrap();
        }
        // Tear the last frame mid-payload.
        let mut raw = std::fs::read(&path).unwrap();
        let cut = raw.len() - 7;
        raw.truncate(cut);
        std::fs::write(&path, &raw).unwrap();

        let (log, torn) = Oplog::open(&path).unwrap();
        assert!(torn, "torn tail must be reported");
        assert_eq!(log.len(), 1, "intact prefix kept");
        // The rewritten file reopens clean.
        drop(log);
        let (log, torn) = Oplog::open(&path).unwrap();
        assert!(!torn);
        assert_eq!(log.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_header_is_a_hard_error() {
        let path = temp_log_path("header");
        std::fs::write(&path, b"not an oplog at all").unwrap();
        assert!(matches!(Oplog::open(&path), Err(OplogError::Corrupt(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_moves_the_horizon_and_breaks_old_cursors() {
        let log = Oplog::in_memory();
        log.append(&batch(1), 10).unwrap();
        let p2 = log.append(&batch(1), 11).unwrap();
        log.append(&batch(1), 12).unwrap();

        assert_eq!(log.truncate_before(12).unwrap(), 2);
        assert_eq!(log.horizon_epoch(), 11);
        assert_eq!(log.len(), 1);

        // A cursor at the horizon record still tails cleanly...
        assert_eq!(log.tail_from(p2).unwrap().len(), 1);
        // ...but one before the horizon must re-seed.
        assert!(matches!(
            log.tail_from(LogPos::start()),
            Err(OplogError::Truncated {
                horizon_epoch: 11,
                ..
            })
        ));
        // Idempotent: nothing below 12 remains.
        assert_eq!(log.truncate_before(12).unwrap(), 0);
    }

    #[test]
    fn truncation_horizon_survives_reopen() {
        let path = temp_log_path("horizon");
        {
            let (log, _) = Oplog::open(&path).unwrap();
            log.append(&batch(1), 10).unwrap();
            log.append(&batch(1), 11).unwrap();
            log.truncate_before(11).unwrap();
        }
        let (log, torn) = Oplog::open(&path).unwrap();
        assert!(!torn);
        assert_eq!(log.horizon_epoch(), 10);
        assert!(matches!(
            log.tail_from(LogPos::start()),
            Err(OplogError::Truncated { .. })
        ));
        // Epoch sequencing also survives: appends below the recovered
        // last epoch are rejected.
        assert!(log.append(&batch(1), 11).is_err());
        assert!(log.append(&batch(1), 12).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cursor_at_finds_the_snapshot_position() {
        let log = Oplog::in_memory();
        assert_eq!(log.cursor_at(5).unwrap().seq, 0, "empty log: start");
        log.append(&batch(1), 10).unwrap();
        let p2 = log.append(&batch(1), 12).unwrap();
        // A snapshot at epoch 11 has applied record 1 but not 2.
        let cursor = log.cursor_at(11).unwrap();
        assert_eq!(cursor, LogPos { epoch: 10, seq: 1 });
        assert_eq!(log.tail_from(cursor).unwrap()[0].pos, p2);
        // A snapshot past the end tails nothing.
        assert_eq!(log.cursor_at(99).unwrap(), p2);
        // A snapshot behind the horizon cannot be used.
        log.truncate_before(13).unwrap();
        assert!(matches!(
            log.cursor_at(5),
            Err(OplogError::Truncated { .. })
        ));
    }

    #[test]
    fn a_gap_behaves_exactly_like_truncation() {
        let log = Oplog::in_memory();
        log.append(&batch(1), 10).unwrap();
        let p1 = log.last_pos().unwrap();
        // Epoch 11 failed to publish: the feed has a hole.
        log.mark_gap(11).unwrap();
        assert_eq!(log.len(), 0);
        assert_eq!(log.horizon_epoch(), 11);
        // Every pre-gap cursor must re-seed, not replay across it.
        assert!(matches!(
            log.tail_from(p1),
            Err(OplogError::Truncated {
                horizon_epoch: 11,
                ..
            })
        ));
        // The gapped epoch counts as seen: re-publishing it is stale,
        // the next mutation's epoch appends cleanly.
        assert!(matches!(
            log.append(&batch(1), 11),
            Err(OplogError::Stale { .. })
        ));
        let p = log.append(&batch(1), 12).unwrap();
        assert_eq!(log.tail_from(log.cursor_at(11).unwrap()).unwrap()[0].pos, p);
    }

    #[test]
    fn failpoints_surface_as_faulted() {
        let _guard = fault::test_support::fault_lock();
        let armed = fault::arm(
            "oplog.append",
            fault::Trigger::Once,
            fault::FaultKind::Error,
        );
        let log = Oplog::in_memory();
        assert!(matches!(
            log.append(&WarehouseChange::Rewrite, 1),
            Err(OplogError::Faulted(_))
        ));
        drop(armed);
        log.append(&WarehouseChange::Rewrite, 1).unwrap();

        let armed = fault::arm("oplog.tail", fault::Trigger::Once, fault::FaultKind::Error);
        assert!(matches!(
            log.tail_from(LogPos::start()),
            Err(OplogError::Faulted(_))
        ));
        drop(armed);
        assert_eq!(log.tail_from(LogPos::start()).unwrap().len(), 1);
    }
}
