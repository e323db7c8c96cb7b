//! Runtime lock-rank enforcement: the dynamic half of the concurrency
//! auditor.
//!
//! Every long-lived lock in the serving stack carries a [`LockRank`]
//! drawn from one global table that mirrors the interprocedural
//! lock-acquisition graph derived statically by `analyze::locks`
//! (`repo-lint --locks`). A thread may only acquire a lock whose rank
//! is **strictly greater** than every rank it already holds; the
//! wrappers [`RankedMutex`] and [`RankedRwLock`] verify this on every
//! acquisition against a thread-local held-rank stack and abort the
//! acquiring thread with a report naming both locks when the declared
//! order is violated. Since any cycle in a wait-for graph needs at
//! least one thread acquiring against the order, a rank-clean run is a
//! deadlock-free run — and every fault-matrix and benchmark
//! execution doubles as an order validator.
//!
//! The check follows the same zero-cost-when-disabled discipline as
//! `fault` and the tracing layer: one relaxed atomic load on the
//! disabled path. Checks default to **on under `debug_assertions`**
//! and off in release builds; [`set_rank_checks`] overrides either way
//! (chaos drills can enable them in release binaries).
//!
//! ```
//! use obs::{LockRank, RankedMutex, RankedRwLock};
//!
//! let admission = RankedMutex::new(LockRank::Admission, "doc.admission", 0u32);
//! let warehouse = RankedRwLock::new(LockRank::Warehouse, "doc.warehouse", vec![1, 2]);
//! let a = admission.lock();
//! drop(a);
//! // Ascending acquisition is fine; descending would panic in debug.
//! let w = warehouse.read();
//! assert_eq!(w.len(), 2);
//! ```

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{self};

/// The global lock hierarchy, in acquisition order: a thread holding a
/// lock of rank *r* may only acquire locks of rank strictly greater
/// than *r*.
///
/// The order mirrors the lock-acquisition graph of the serving stack
/// (outermost, longest-held locks first; innermost leaves last). The
/// static pass (`analyze::locks`) derives the same order from source
/// and a conformance test diffs the two, so this table cannot drift
/// from the code.
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockRank {
    /// `serve` single-flight table — the admission-side registry.
    Admission = 0,
    /// One in-flight execution's result slot (condvar-paired mutex).
    FlightSlot = 1,
    /// `serve` circuit-breaker state.
    Breaker = 2,
    /// The replica-router registry (the set of live replica handles).
    /// Held only to snapshot or mutate the set — never across a
    /// dispatched query.
    Router = 3,
    /// A replica's oplog tail cursor, held across the whole catch-up
    /// replay (which takes the follower's warehouse write lock per
    /// record) so applied epochs advance in log order.
    Replication = 4,
    /// The warehouse reader–writer lock (epoch state, segment sets).
    Warehouse = 5,
    /// The per-epoch semantic catalog cache.
    Catalog = 6,
    /// Result-cache shards (acquired under the warehouse read lock
    /// during delta revalidation, and under the single-flight table
    /// when a joining caller re-checks for a just-published result).
    Cache = 7,
    /// Segment-backend registries (acquired under the warehouse lock
    /// during scans and compaction).
    SegmentSet = 8,
    /// The OLTP heap lock.
    Heap = 9,
    /// OLTP secondary-index maps (filled under the heap read lock).
    Index = 10,
    /// The durable oplog writer — appended to under the primary's
    /// warehouse write lock (and read under a replica's cursor lock),
    /// making it the innermost lock in the stack.
    Oplog = 11,
}

/// Every rank in ascending acquisition order.
pub const ALL_RANKS: [LockRank; 12] = [
    LockRank::Admission,
    LockRank::FlightSlot,
    LockRank::Breaker,
    LockRank::Router,
    LockRank::Replication,
    LockRank::Warehouse,
    LockRank::Catalog,
    LockRank::Cache,
    LockRank::SegmentSet,
    LockRank::Heap,
    LockRank::Index,
    LockRank::Oplog,
];

impl LockRank {
    /// The rank's name as it appears in source (`LockRank::Warehouse`
    /// → `"Warehouse"`).
    pub fn name(&self) -> &'static str {
        match self {
            LockRank::Admission => "Admission",
            LockRank::FlightSlot => "FlightSlot",
            LockRank::Breaker => "Breaker",
            LockRank::Router => "Router",
            LockRank::Replication => "Replication",
            LockRank::Warehouse => "Warehouse",
            LockRank::Catalog => "Catalog",
            LockRank::Cache => "Cache",
            LockRank::SegmentSet => "SegmentSet",
            LockRank::Heap => "Heap",
            LockRank::Index => "Index",
            LockRank::Oplog => "Oplog",
        }
    }

    /// Parse a rank name back into a [`LockRank`] (the static pass
    /// uses this to compare source-extracted ranks with the table).
    pub fn parse(name: &str) -> Option<LockRank> {
        ALL_RANKS.iter().copied().find(|r| r.name() == name)
    }
}

impl fmt::Display for LockRank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.name(), *self as u8)
    }
}

/// Tri-state enforcement flag: 0 = forced off, 1 = forced on,
/// 2 = default (on under `debug_assertions`, off in release).
static CHECKS: AtomicU8 = AtomicU8::new(2);

/// Whether rank checks are currently active. One relaxed load — cheap
/// enough for every acquisition on every hot path.
#[inline]
pub fn rank_checks_enabled() -> bool {
    match CHECKS.load(Ordering::Relaxed) {
        0 => false,
        1 => true,
        _ => cfg!(debug_assertions),
    }
}

/// Force rank checks on or off, overriding the build-profile default.
/// Tests assert violations with `true`; release-mode chaos drills can
/// opt in the same way.
pub fn set_rank_checks(enabled: bool) {
    CHECKS.store(u8::from(enabled), Ordering::Relaxed);
}

/// One held-lock record on the thread-local stack.
#[derive(Clone, Copy)]
struct Held {
    rank: LockRank,
    name: &'static str,
    token: u64,
}

thread_local! {
    static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    static NEXT_TOKEN: RefCell<u64> = const { RefCell::new(0) };
}

/// The ranks (with lock names) currently held by this thread, in
/// acquisition order. Diagnostic aid for tests and drills.
pub fn held_ranks() -> Vec<(&'static str, LockRank)> {
    HELD.with(|h| h.borrow().iter().map(|e| (e.name, e.rank)).collect())
}

/// Check `rank` against the held stack and push it; returns the token
/// used to pop the entry on release, or `None` when checks are off.
///
/// When checks are live the acquisition is also published to the
/// stall watchdog's active-task slot and the flight recorder (lock
/// capture deliberately rides the rank-check gate: both default on
/// under `debug_assertions`, and chaos drills that
/// [`set_rank_checks`]`(true)` in release get lock timelines too).
fn acquire(rank: LockRank, name: &'static str) -> Option<u64> {
    if !rank_checks_enabled() {
        return None;
    }
    // Hooks run after the `HELD` borrow ends: the watchdog publish
    // re-reads `held_ranks()` on this same thread.
    let token = acquire_inner(rank, name);
    crate::watchdog::on_locks_changed();
    crate::recorder::note_lock(name, rank, true);
    Some(token)
}

fn acquire_inner(rank: LockRank, name: &'static str) -> u64 {
    HELD.with(|h| {
        let mut held = h.borrow_mut();
        if let Some(worst) = held
            .iter()
            .filter(|e| e.rank >= rank)
            .max_by_key(|e| e.rank)
        {
            let held_desc: Vec<String> = held
                .iter()
                .map(|e| format!("'{}' ({})", e.name, e.rank))
                .collect();
            // A rank violation is a latent deadlock: the acquiring
            // thread must die loudly, not limp on.
            let report = format!(
                "lock-rank violation: acquiring '{}' ({}) while holding '{}' ({}); \
                 locks must be acquired in strictly ascending rank order \
                 [held: {}]",
                name,
                rank,
                worst.name,
                worst.rank,
                held_desc.join(", "),
            );
            panic!("{report}"); // lint:allow(no-panic, "a rank violation is a latent deadlock; abort with a report")
        }
        let token = NEXT_TOKEN.with(|t| {
            let mut t = t.borrow_mut();
            *t += 1;
            *t
        });
        held.push(Held { rank, name, token });
        token
    })
}

/// Pop the entry registered under `token` (guards may be dropped out
/// of acquisition order, so the pop searches from the top). Publishes
/// the release to the watchdog and flight recorder.
fn release(token: Option<u64>) {
    let Some(token) = token else { return };
    let removed = HELD.with(|h| {
        let mut held = h.borrow_mut();
        held.iter()
            .rposition(|e| e.token == token)
            .map(|pos| held.remove(pos))
    });
    if let Some(entry) = removed {
        crate::watchdog::on_locks_changed();
        crate::recorder::note_lock(entry.name, entry.rank, false);
    }
}

/// A mutex whose acquisitions are validated against the global
/// [`LockRank`] hierarchy.
///
/// `lock()` never fails and a panicking holder does not poison (the
/// inner guard is recovered with `into_inner`).
pub struct RankedMutex<T: ?Sized> {
    rank: LockRank,
    name: &'static str,
    inner: sync::Mutex<T>,
}

impl<T> RankedMutex<T> {
    /// Wrap `value` under `rank`; `name` is the stable identifier used
    /// in violation reports and by the static auditor.
    pub const fn new(rank: LockRank, name: &'static str, value: T) -> Self {
        RankedMutex {
            rank,
            name,
            inner: sync::Mutex::new(value),
        }
    }

    /// Consume the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RankedMutex<T> {
    /// The lock's rank in the global hierarchy.
    pub fn rank(&self) -> LockRank {
        self.rank
    }

    /// The lock's stable name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Acquire, blocking. Panics (debug / when enabled) if this thread
    /// already holds a lock of equal or greater rank.
    pub fn lock(&self) -> RankedMutexGuard<'_, T> {
        let token = acquire(self.rank, self.name);
        RankedMutexGuard {
            inner: self.inner.lock().unwrap_or_else(|e| e.into_inner()),
            token,
        }
    }

    /// Acquire only if free right now (still rank-checked: a try-lock
    /// against the order is the same latent deadlock).
    pub fn try_lock(&self) -> Option<RankedMutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(sync::TryLockError::WouldBlock) => return None,
        };
        let token = acquire(self.rank, self.name);
        Some(RankedMutexGuard { inner, token })
    }

    /// Exclusive access through `&mut self` without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RankedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RankedMutex")
            .field("name", &self.name)
            .field("rank", &self.rank)
            .finish_non_exhaustive()
    }
}

/// Guard returned by [`RankedMutex::lock`]; releases the held-rank
/// entry on drop.
pub struct RankedMutexGuard<'a, T: ?Sized> {
    inner: sync::MutexGuard<'a, T>,
    token: Option<u64>,
}

impl<T: ?Sized> std::ops::Deref for RankedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RankedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for RankedMutexGuard<'_, T> {
    fn drop(&mut self) {
        release(self.token);
    }
}

/// A readers–writer lock whose acquisitions are validated against the
/// global [`LockRank`] hierarchy. Re-acquiring the same rank is
/// forbidden even for shared reads: a reentrant read behind a queued
/// writer is itself a deadlock.
pub struct RankedRwLock<T: ?Sized> {
    rank: LockRank,
    name: &'static str,
    inner: sync::RwLock<T>,
}

impl<T> RankedRwLock<T> {
    /// Wrap `value` under `rank`; `name` is the stable identifier used
    /// in violation reports and by the static auditor.
    pub const fn new(rank: LockRank, name: &'static str, value: T) -> Self {
        RankedRwLock {
            rank,
            name,
            inner: sync::RwLock::new(value),
        }
    }

    /// Consume the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RankedRwLock<T> {
    /// The lock's rank in the global hierarchy.
    pub fn rank(&self) -> LockRank {
        self.rank
    }

    /// The lock's stable name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Acquire shared access, blocking; rank-checked like a write.
    pub fn read(&self) -> RankedReadGuard<'_, T> {
        let token = acquire(self.rank, self.name);
        RankedReadGuard {
            inner: self.inner.read().unwrap_or_else(|e| e.into_inner()),
            token,
        }
    }

    /// Acquire exclusive access, blocking; rank-checked.
    pub fn write(&self) -> RankedWriteGuard<'_, T> {
        let token = acquire(self.rank, self.name);
        RankedWriteGuard {
            inner: self.inner.write().unwrap_or_else(|e| e.into_inner()),
            token,
        }
    }

    /// Exclusive access through `&mut self` without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RankedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RankedRwLock")
            .field("name", &self.name)
            .field("rank", &self.rank)
            .finish_non_exhaustive()
    }
}

/// Shared guard returned by [`RankedRwLock::read`].
pub struct RankedReadGuard<'a, T: ?Sized> {
    inner: sync::RwLockReadGuard<'a, T>,
    token: Option<u64>,
}

impl<T: ?Sized> std::ops::Deref for RankedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Drop for RankedReadGuard<'_, T> {
    fn drop(&mut self) {
        release(self.token);
    }
}

/// Exclusive guard returned by [`RankedRwLock::write`].
pub struct RankedWriteGuard<'a, T: ?Sized> {
    inner: sync::RwLockWriteGuard<'a, T>,
    token: Option<u64>,
}

impl<T: ?Sized> std::ops::Deref for RankedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RankedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for RankedWriteGuard<'_, T> {
    fn drop(&mut self) {
        release(self.token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Serialises tests that flip the global enforcement flag.
    fn flag_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
        LOCK.get_or_init(|| std::sync::Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn ranks_are_total_ordered_and_parse() {
        let mut prev: Option<LockRank> = None;
        for r in ALL_RANKS {
            if let Some(p) = prev {
                assert!(p < r, "{p} must precede {r}");
            }
            assert_eq!(LockRank::parse(r.name()), Some(r));
            prev = Some(r);
        }
        assert_eq!(LockRank::parse("NoSuchRank"), None);
        assert_eq!(LockRank::Warehouse.to_string(), "Warehouse=5");
    }

    #[test]
    fn ascending_acquisition_is_clean() {
        let _fl = flag_lock();
        set_rank_checks(true);
        let a = RankedMutex::new(LockRank::Admission, "t.a", 1);
        let w = RankedRwLock::new(LockRank::Warehouse, "t.w", 2);
        let c = RankedMutex::new(LockRank::Cache, "t.c", 3);
        {
            let ga = a.lock();
            let gw = w.read();
            let gc = c.lock();
            assert_eq!((*ga, *gw, *gc), (1, 2, 3));
            let held = held_ranks();
            assert_eq!(
                held.iter().map(|(_, r)| *r).collect::<Vec<_>>(),
                vec![LockRank::Admission, LockRank::Warehouse, LockRank::Cache]
            );
        }
        assert!(held_ranks().is_empty(), "guards must pop on drop");
        set_rank_checks(false);
    }

    #[test]
    fn descending_acquisition_panics_naming_both_locks() {
        let _fl = flag_lock();
        set_rank_checks(true);
        let oplog = RankedMutex::new(LockRank::Oplog, "t.oplog", ());
        let wh = RankedRwLock::new(LockRank::Warehouse, "t.warehouse", ());
        let g = oplog.lock();
        let err = catch_unwind(AssertUnwindSafe(|| {
            let _bad = wh.write();
        }))
        .expect_err("descending acquisition must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string payload>".into());
        assert!(msg.contains("t.warehouse"), "{msg}");
        assert!(msg.contains("t.oplog"), "{msg}");
        assert!(msg.contains("lock-rank violation"), "{msg}");
        drop(g);
        assert!(held_ranks().is_empty());
        set_rank_checks(false);
    }

    #[test]
    fn equal_rank_reacquisition_is_a_violation() {
        let _fl = flag_lock();
        set_rank_checks(true);
        let s1 = RankedMutex::new(LockRank::Cache, "t.shard1", ());
        let s2 = RankedMutex::new(LockRank::Cache, "t.shard2", ());
        let g = s1.lock();
        assert!(catch_unwind(AssertUnwindSafe(|| {
            let _bad = s2.lock();
        }))
        .is_err());
        drop(g);
        set_rank_checks(false);
    }

    #[test]
    fn disabled_checks_track_nothing() {
        let _fl = flag_lock();
        set_rank_checks(false);
        let oplog = RankedMutex::new(LockRank::Oplog, "t.oplog", ());
        let wh = RankedRwLock::new(LockRank::Warehouse, "t.wh", ());
        let g1 = oplog.lock();
        let g2 = wh.write(); // inverted, but checks are off
        assert!(held_ranks().is_empty());
        drop(g2);
        drop(g1);
        set_rank_checks(true);
        assert!(rank_checks_enabled());
        set_rank_checks(false);
    }

    #[test]
    fn out_of_order_release_keeps_the_stack_consistent() {
        let _fl = flag_lock();
        set_rank_checks(true);
        let a = RankedMutex::new(LockRank::Warehouse, "t.a", ());
        let b = RankedMutex::new(LockRank::Cache, "t.b", ());
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // release the outer lock first
        assert_eq!(held_ranks().len(), 1);
        assert_eq!(held_ranks()[0].1, LockRank::Cache);
        drop(gb);
        assert!(held_ranks().is_empty());
        set_rank_checks(false);
    }

    #[test]
    fn try_lock_is_rank_checked_and_threads_are_independent() {
        let _fl = flag_lock();
        set_rank_checks(true);
        let oplog = std::sync::Arc::new(RankedMutex::new(LockRank::Oplog, "t.oplog", ()));
        let g = oplog.try_lock().expect("uncontended try_lock succeeds");
        // Another thread has its own empty held stack.
        let oplog2 = std::sync::Arc::clone(&oplog);
        let handle = std::thread::spawn(move || {
            assert!(oplog2.try_lock().is_none(), "contended try_lock fails");
            held_ranks().len()
        });
        assert_eq!(handle.join().expect("thread joins"), 0);
        drop(g);
        set_rank_checks(false);
    }
}
