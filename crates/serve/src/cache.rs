//! Sharded LRU result cache with cross-epoch revalidation support.
//!
//! Entries are keyed by the query's canonical **fingerprint** alone;
//! the data epoch the result was produced under travels *inside* the
//! entry. A lookup therefore finds results from older epochs instead
//! of missing them, and the service decides — by consulting the
//! warehouse delta log — whether a stale entry is provably still
//! valid ([`ResultCache::promote`]), incrementally patchable (the
//! entry's retained [`Cube`]), or genuinely dead
//! ([`ResultCache::remove`]). [`ResultCache::purge_older_than`]
//! remains for wholesale invalidation after a rewrite.

use crate::request::QueryOutcome;
use obs::{LockRank, RankedMutex};
use olap::Cube;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Flight-table key: canonical fingerprint × admission epoch. (The
/// cache itself keys by fingerprint only; single-flight deduplication
/// still scopes leaders to the epoch they were admitted under.)
pub type CacheKey = (String, u64);

/// What a cache lookup returns: the result, the epoch it is valid at,
/// and — for incrementally-maintainable cube queries — the live cube
/// whose accumulators can absorb later deltas.
#[derive(Clone)]
pub struct CachedEntry {
    /// The cached result.
    pub value: Arc<QueryOutcome>,
    /// Epoch the result is known valid at.
    pub epoch: u64,
    /// Retained cube for incremental patching, when the request shape
    /// supports it.
    pub cube: Option<Arc<Cube>>,
}

struct Entry {
    value: Arc<QueryOutcome>,
    epoch: u64,
    cube: Option<Arc<Cube>>,
    last_used: u64,
}

/// One shard: a capacity-bounded map with least-recently-used
/// eviction driven by a per-shard use counter.
struct Shard {
    entries: HashMap<String, Entry>,
    capacity: usize,
    tick: u64,
}

impl Shard {
    fn get(&mut self, fingerprint: &str) -> Option<CachedEntry> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(fingerprint).map(|e| {
            e.last_used = tick;
            CachedEntry {
                value: Arc::clone(&e.value),
                epoch: e.epoch,
                cube: e.cube.clone(),
            }
        })
    }

    fn insert(
        &mut self,
        fingerprint: String,
        epoch: u64,
        value: Arc<QueryOutcome>,
        cube: Option<Arc<Cube>>,
    ) {
        self.tick += 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&fingerprint) {
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(
            fingerprint,
            Entry {
                value,
                epoch,
                cube,
                last_used: self.tick,
            },
        );
    }
}

/// The sharded cache. Sharding by key hash keeps lock contention
/// bounded when many callers publish results concurrently.
pub struct ResultCache {
    shards: Vec<RankedMutex<Shard>>,
}

impl ResultCache {
    /// A cache holding up to `capacity` results across `shards` shards
    /// (both floored at 1).
    pub fn new(capacity: usize, shards: usize) -> ResultCache {
        let shards = shards.max(1);
        let per_shard = (capacity.max(1)).div_ceil(shards);
        ResultCache {
            shards: (0..shards)
                .map(|_| {
                    RankedMutex::new(
                        LockRank::Cache,
                        "serve.cache.shards",
                        Shard {
                            entries: HashMap::new(),
                            capacity: per_shard,
                            tick: 0,
                        },
                    )
                })
                .collect(),
        }
    }

    fn shard(&self, fingerprint: &str) -> &RankedMutex<Shard> {
        let mut h = DefaultHasher::new();
        fingerprint.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Look up a result by fingerprint (any epoch), refreshing its
    /// recency on hit. The caller inspects [`CachedEntry::epoch`] to
    /// decide whether revalidation is needed.
    pub fn get(&self, fingerprint: &str) -> Option<CachedEntry> {
        self.shard(fingerprint).lock().get(fingerprint)
    }

    /// Publish a result valid at `epoch`, evicting the
    /// least-recently-used entry of the target shard if it is full.
    /// `cube` retains the live accumulators for incremental patching.
    pub fn insert(
        &self,
        fingerprint: String,
        epoch: u64,
        value: Arc<QueryOutcome>,
        cube: Option<Arc<Cube>>,
    ) {
        self.shard(&fingerprint)
            .lock()
            .insert(fingerprint, epoch, value, cube);
    }

    /// Mark an entry as provably valid at `epoch` (delta revalidation
    /// showed no intersection with the query's footprint). Never moves
    /// an entry backwards in time.
    pub fn promote(&self, fingerprint: &str, epoch: u64) {
        if let Some(e) = self.shard(fingerprint).lock().entries.get_mut(fingerprint) {
            if e.epoch < epoch {
                e.epoch = epoch;
            }
        }
    }

    /// Drop one entry (revalidation found it unrecoverable).
    pub fn remove(&self, fingerprint: &str) {
        self.shard(fingerprint).lock().entries.remove(fingerprint);
    }

    /// Drop every entry produced under an epoch older than `epoch` —
    /// wholesale invalidation after a rewrite-style mutation.
    pub fn purge_older_than(&self, epoch: u64) {
        for shard in &self.shards {
            shard.lock().entries.retain(|_, e| e.epoch >= epoch);
        }
    }

    /// Drop everything (benchmarking aid).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().entries.clear();
        }
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().entries.len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olap::PivotTable;

    fn outcome(tag: &str) -> Arc<QueryOutcome> {
        Arc::new(QueryOutcome::pivot(PivotTable {
            row_axis: tag.to_string(),
            col_axis: String::new(),
            row_headers: vec![],
            col_headers: vec![],
            cells: vec![],
        }))
    }

    #[test]
    fn round_trips_and_counts() {
        let cache = ResultCache::new(8, 2);
        assert!(cache.is_empty());
        cache.insert("q1".into(), 1, outcome("a"), None);
        assert_eq!(cache.len(), 1);
        let hit = cache.get("q1").unwrap();
        assert_eq!(hit.epoch, 1);
        assert!(hit.cube.is_none());
        assert!(Arc::ptr_eq(&hit.value, &cache.get("q1").unwrap().value));
        assert!(cache.get("q2").is_none());
    }

    #[test]
    fn stale_entries_stay_addressable_until_promoted_or_removed() {
        let cache = ResultCache::new(8, 2);
        cache.insert("q".into(), 1, outcome("a"), None);
        // A later epoch does not hide the entry — that is the point.
        assert_eq!(cache.get("q").unwrap().epoch, 1);
        cache.promote("q", 5);
        assert_eq!(cache.get("q").unwrap().epoch, 5);
        // Promotion never rewinds.
        cache.promote("q", 3);
        assert_eq!(cache.get("q").unwrap().epoch, 5);
        cache.remove("q");
        assert!(cache.get("q").is_none());
    }

    #[test]
    fn evicts_least_recently_used_within_a_shard() {
        // One shard, capacity 2: touching `a` makes `b` the victim.
        let cache = ResultCache::new(2, 1);
        cache.insert("a".into(), 1, outcome("a"), None);
        cache.insert("b".into(), 1, outcome("b"), None);
        cache.get("a");
        cache.insert("c".into(), 1, outcome("c"), None);
        assert!(cache.get("a").is_some());
        assert!(cache.get("b").is_none());
        assert!(cache.get("c").is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn purge_drops_only_stale_epochs() {
        let cache = ResultCache::new(8, 4);
        cache.insert("q1".into(), 1, outcome("a"), None);
        cache.insert("q2".into(), 2, outcome("b"), None);
        cache.purge_older_than(2);
        assert!(cache.get("q1").is_none());
        assert!(cache.get("q2").is_some());
        cache.clear();
        assert!(cache.is_empty());
    }
}
