//! Pluggable segment backends.
//!
//! The [`SegmentBackend`] trait is the storage boundary of the
//! segmented warehouse: everything above it (compaction planning,
//! zone-map pruning, per-segment scans) is backend-agnostic. Two
//! implementations ship:
//!
//! * [`MemoryBackend`] — segments live as shared [`Arc`]s in a map;
//!   fetch is a pointer clone. The default.
//! * [`DiskBackend`] — one CRC-framed file per segment (see
//!   [`crate::encode`]), written temp-file-then-rename so a crash
//!   mid-seal never leaves a torn segment visible; at worst an
//!   orphaned `.tmp` survives, which [`DiskBackend::open`] ignores and
//!   vacuuming removes. Fetching decodes only the requested columns,
//!   and decoded segments are memoised (immutability makes the cache
//!   trivially coherent) so repeat scans skip the file read entirely.
//!
//! Both backends honour the same contract, enforced by the shared
//! [`crate::conformance`] suite: `put` rejects duplicate ids, `fetch`
//! returns at least the requested columns, unknown ids are typed
//! errors, and `list`/`metas` enumerate in id order.

use crate::encode::{decode_segment, decode_segment_meta, encode_segment};
use crate::segment::{ColumnSet, Segment, SegmentMeta};
use clinical_types::{Error, Result};
use obs::{LockRank, RankedMutex};
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Injected faults surface as ordinary invalid-input errors, the same
/// convention the warehouse uses.
fn map_fault(e: fault::FaultError) -> Error {
    Error::invalid(e.to_string())
}

fn map_io(context: &str, e: std::io::Error) -> Error {
    Error::invalid(format!("{context}: {e}"))
}

/// Storage for sealed, immutable segments.
///
/// Implementations must be shareable across threads (`Send + Sync`):
/// the warehouse hands one `Arc<dyn SegmentBackend>` to concurrent
/// cube builds while the compactor seals new segments into it.
pub trait SegmentBackend: Send + Sync + fmt::Debug {
    /// Seal a segment. Fails if `segment.meta.id` is already present —
    /// segments are immutable, never overwritten.
    fn put(&self, segment: Segment) -> Result<()>;

    /// Fetch a sealed segment, materialising at least the columns in
    /// `columns` (backends may return more; the in-memory backend
    /// always returns the whole segment).
    fn fetch(&self, id: u64, columns: &ColumnSet) -> Result<Arc<Segment>>;

    /// Metadata of every sealed segment, in id order.
    fn metas(&self) -> Result<Vec<SegmentMeta>>;

    /// Ids of every sealed segment, ascending.
    fn list(&self) -> Result<Vec<u64>>;

    /// Delete a sealed segment (compaction garbage collection).
    fn remove(&self, id: u64) -> Result<()>;

    /// Human-readable backend kind (`"memory"` / `"disk"`).
    fn kind(&self) -> &'static str;
}

/// In-memory backend: the default for freshly loaded warehouses.
pub struct MemoryBackend {
    segments: RankedMutex<HashMap<u64, Arc<Segment>>>,
}

impl Default for MemoryBackend {
    fn default() -> Self {
        MemoryBackend {
            segments: RankedMutex::new(
                LockRank::SegmentSet,
                "segstore.memory.segments",
                HashMap::new(),
            ),
        }
    }
}

impl MemoryBackend {
    /// Empty in-memory backend.
    pub fn new() -> Self {
        MemoryBackend::default()
    }
}

impl fmt::Debug for MemoryBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoryBackend")
            .field("segments", &self.segments.lock().len())
            .finish()
    }
}

impl SegmentBackend for MemoryBackend {
    fn put(&self, segment: Segment) -> Result<()> {
        fault::point("segstore.put").map_err(map_fault)?;
        let mut map = self.segments.lock();
        let id = segment.meta.id;
        if map.contains_key(&id) {
            return Err(Error::invalid(format!("segment {id} already sealed")));
        }
        map.insert(id, Arc::new(segment));
        Ok(())
    }

    fn fetch(&self, id: u64, _columns: &ColumnSet) -> Result<Arc<Segment>> {
        self.segments
            .lock()
            .get(&id)
            .cloned()
            .ok_or_else(|| Error::invalid(format!("unknown segment {id}")))
    }

    fn metas(&self) -> Result<Vec<SegmentMeta>> {
        let map = self.segments.lock();
        let mut metas: Vec<SegmentMeta> = map.values().map(|s| s.meta.clone()).collect();
        metas.sort_by_key(|m| m.id);
        Ok(metas)
    }

    fn list(&self) -> Result<Vec<u64>> {
        let mut ids: Vec<u64> = self.segments.lock().keys().copied().collect();
        ids.sort_unstable();
        Ok(ids)
    }

    fn remove(&self, id: u64) -> Result<()> {
        self.segments
            .lock()
            .remove(&id)
            .map(|_| ())
            .ok_or_else(|| Error::invalid(format!("unknown segment {id}")))
    }

    fn kind(&self) -> &'static str {
        "memory"
    }
}

/// On-disk backend: one CRC-framed file per segment under a directory.
///
/// Sealed segments are immutable, so decoded segments are memoised in
/// a read-through cache: the first fetch pays the file read + CRC
/// check, repeat fetches are a pointer clone (`remove` invalidates).
/// A cached decode is reused only when it covers the requested
/// [`ColumnSet`]; otherwise the whole segment is decoded once and the
/// cache upgraded.
pub struct DiskBackend {
    dir: PathBuf,
    cache: RankedMutex<HashMap<u64, Arc<Segment>>>,
}

/// Fresh (empty) decode cache for a disk backend.
fn disk_cache() -> RankedMutex<HashMap<u64, Arc<Segment>>> {
    RankedMutex::new(LockRank::SegmentSet, "segstore.disk.cache", HashMap::new())
}

/// Does a decoded segment materialise every column `want` asks for?
fn covers(seg: &Segment, want: &ColumnSet) -> bool {
    let has_key = |n: &str| seg.keys.iter().any(|(k, _)| k == n);
    let has_measure = |n: &str| seg.measures.iter().any(|(k, _, _)| k == n);
    let has_degenerate = |n: &str| seg.degenerates.iter().any(|(k, _)| k == n);
    if want.wants_everything() {
        seg.meta.key_zones.iter().all(|z| has_key(&z.column))
            && seg
                .meta
                .measure_zones
                .iter()
                .all(|z| has_measure(&z.column))
            && seg
                .meta
                .degenerate_columns
                .iter()
                .all(|c| has_degenerate(c))
    } else {
        want.key_names().all(has_key)
            && want.measure_names().all(has_measure)
            && want.degenerate_names().all(has_degenerate)
    }
}

impl DiskBackend {
    /// Create the directory (if needed) and open a backend over it.
    pub fn create(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| map_io("create segment dir", e))?;
        Ok(DiskBackend {
            dir,
            cache: disk_cache(),
        })
    }

    /// Open an existing segment directory (e.g. after a restart).
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        if !dir.is_dir() {
            return Err(Error::invalid(format!(
                "segment dir {} does not exist",
                dir.display()
            )));
        }
        Ok(DiskBackend {
            dir,
            cache: disk_cache(),
        })
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_of(&self, id: u64) -> PathBuf {
        self.dir.join(format!("seg_{id:016x}.seg"))
    }

    fn id_of(name: &str) -> Option<u64> {
        let hex = name.strip_prefix("seg_")?.strip_suffix(".seg")?;
        u64::from_str_radix(hex, 16).ok()
    }

    fn read(&self, id: u64) -> Result<Vec<u8>> {
        std::fs::read(self.path_of(id)).map_err(|e| map_io(&format!("read segment {id}"), e))
    }
}

impl fmt::Debug for DiskBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiskBackend")
            .field("dir", &self.dir)
            .finish()
    }
}

impl SegmentBackend for DiskBackend {
    fn put(&self, segment: Segment) -> Result<()> {
        fault::point("segstore.put").map_err(map_fault)?;
        let id = segment.meta.id;
        let path = self.path_of(id);
        if path.exists() {
            return Err(Error::invalid(format!("segment {id} already sealed")));
        }
        let bytes = encode_segment(&segment);
        // Temp-file-then-rename: readers either see the whole sealed
        // file or none of it, mirroring the oplog's torn-tail discipline
        // at file granularity.
        let tmp = self.dir.join(format!("seg_{id:016x}.tmp"));
        std::fs::write(&tmp, &bytes).map_err(|e| map_io("write segment", e))?;
        std::fs::rename(&tmp, &path).map_err(|e| map_io("seal segment", e))?;
        Ok(())
    }

    fn fetch(&self, id: u64, columns: &ColumnSet) -> Result<Arc<Segment>> {
        if let Some(cached) = self.cache.lock().get(&id) {
            if covers(cached, columns) {
                return Ok(Arc::clone(cached));
            }
        }
        let bytes = self.read(id)?;
        let first_decode = !self.cache.lock().contains_key(&id);
        // A coverage miss means two readers want different column
        // subsets: upgrade to a full decode once rather than thrash.
        let want = if first_decode {
            columns.clone()
        } else {
            ColumnSet::all()
        };
        let segment = Arc::new(decode_segment(&bytes, &want)?);
        self.cache.lock().insert(id, Arc::clone(&segment));
        Ok(segment)
    }

    fn metas(&self) -> Result<Vec<SegmentMeta>> {
        let mut metas = Vec::new();
        for id in self.list()? {
            metas.push(decode_segment_meta(&self.read(id)?)?);
        }
        Ok(metas)
    }

    fn list(&self) -> Result<Vec<u64>> {
        let entries = std::fs::read_dir(&self.dir).map_err(|e| map_io("list segment dir", e))?;
        let mut ids = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| map_io("list segment dir", e))?;
            if let Some(id) = Self::id_of(&entry.file_name().to_string_lossy()) {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }

    fn remove(&self, id: u64) -> Result<()> {
        self.cache.lock().remove(&id);
        std::fs::remove_file(self.path_of(id))
            .map_err(|e| map_io(&format!("remove segment {id}"), e))
    }

    fn kind(&self) -> &'static str {
        "disk"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("segstore_test_{tag}_{}_{seq}", std::process::id()))
    }

    #[test]
    fn memory_backend_passes_conformance() {
        conformance::run(&MemoryBackend::new()).unwrap();
    }

    #[test]
    fn disk_backend_passes_conformance() {
        let dir = temp_dir("conformance");
        conformance::run(&DiskBackend::create(&dir).unwrap()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_backend_survives_reopen() {
        let dir = temp_dir("reopen");
        let seg = conformance::sample_segment(3);
        {
            let backend = DiskBackend::create(&dir).unwrap();
            backend.put(seg.clone()).unwrap();
        }
        let reopened = DiskBackend::open(&dir).unwrap();
        assert_eq!(reopened.list().unwrap(), vec![3]);
        let back = reopened.fetch(3, &ColumnSet::all()).unwrap();
        assert_eq!(*back, seg);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_backend_open_requires_the_directory() {
        assert!(DiskBackend::open(temp_dir("missing")).is_err());
    }

    #[test]
    fn disk_backend_detects_corrupted_files() {
        let dir = temp_dir("corrupt");
        let backend = DiskBackend::create(&dir).unwrap();
        backend.put(conformance::sample_segment(1)).unwrap();
        let path = backend.path_of(1);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(backend.fetch(1, &ColumnSet::all()).is_err());
        assert!(backend.metas().is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn put_failpoint_fails_both_backends() {
        let _lock = fault::test_support::fault_lock();
        let _guard = fault::arm(
            "segstore.put",
            fault::Trigger::Always,
            fault::FaultKind::Error,
        );
        assert!(MemoryBackend::new()
            .put(conformance::sample_segment(1))
            .is_err());
        let dir = temp_dir("fault");
        let disk = DiskBackend::create(&dir).unwrap();
        assert!(disk.put(conformance::sample_segment(1)).is_err());
        assert!(disk.list().unwrap().is_empty(), "no torn file left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
