//! Dynamic lock-rank enforcement drills.
//!
//! The deterministic deadlock repro inverts a two-lock acquisition
//! order behind a `fault` failpoint: with the point armed, the second
//! thread acquires the higher-ranked lock first and then reaches for
//! the lower-ranked one — the classic AB/BA interleaving. The rank
//! check fires *before* the inverted thread blocks on the contended
//! mutex, so the latent deadlock becomes a loud, named report instead
//! of a frozen test suite.
//!
//! The property test drives randomized rank sequences the other way:
//! any strictly-ascending acquisition order must never trip the
//! checker, no matter how the sequence was sampled.

use fault::test_support::fault_lock;
use fault::{arm, FaultKind, Trigger};
use obs::{set_rank_checks, LockRank, RankedMutex, ALL_RANKS};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Barrier};
use std::thread;

/// The failpoint that flips thread B into the inverted order.
const INVERT_POINT: &str = "lockrank.invert";

fn run_two_thread_drill() -> thread::Result<()> {
    let low = Arc::new(RankedMutex::new(LockRank::Cache, "drill.low", 0u32));
    let high = Arc::new(RankedMutex::new(LockRank::SegmentSet, "drill.high", 0u32));
    let barrier = Arc::new(Barrier::new(2));

    let forward = thread::spawn({
        let low = Arc::clone(&low);
        let high = Arc::clone(&high);
        let barrier = Arc::clone(&barrier);
        move || {
            let mut a = low.lock();
            barrier.wait();
            // Blocks until the inverted thread lets go of `high` —
            // which it does by aborting on the rank violation.
            let mut b = high.lock();
            *a += 1;
            *b += 1;
        }
    });

    let inverted = thread::spawn({
        let low = Arc::clone(&low);
        let high = Arc::clone(&high);
        let barrier = Arc::clone(&barrier);
        move || {
            if fault::point(INVERT_POINT).is_err() {
                // Fault armed: acquire in descending rank order.
                let mut b = high.lock();
                barrier.wait();
                let mut a = low.lock(); // rank checker aborts here
                *a += 1;
                *b += 1;
            } else {
                barrier.wait();
                let mut a = low.lock();
                let mut b = high.lock();
                *a += 1;
                *b += 1;
            }
        }
    });

    let inverted_result = inverted.join();
    forward
        .join()
        .expect("forward thread acquires in rank order");
    inverted_result
}

#[test]
fn inverted_acquisition_behind_failpoint_aborts_naming_both_locks() {
    let _serial = fault_lock();
    set_rank_checks(true);
    let _armed = arm(INVERT_POINT, Trigger::Always, FaultKind::Error);

    let err = run_two_thread_drill().expect_err("inverted thread must abort");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload is a message");
    assert!(
        msg.contains("lock-rank violation"),
        "unexpected report: {msg}"
    );
    assert!(
        msg.contains("drill.low"),
        "report must name the acquired lock: {msg}"
    );
    assert!(
        msg.contains("drill.high"),
        "report must name the held lock: {msg}"
    );
}

#[test]
fn same_drill_with_failpoint_disarmed_is_clean() {
    let _serial = fault_lock();
    set_rank_checks(true);
    run_two_thread_drill().expect("rank-ordered drill never trips");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any strictly-ascending acquisition sequence — arbitrary subset
    /// of the rank table, arbitrary length — passes the checker.
    #[test]
    fn rank_consistent_sequences_never_trip(picks in proptest::collection::vec(0usize..ALL_RANKS.len(), 1..8)) {
        set_rank_checks(true);
        let mut ranks: Vec<LockRank> = picks.iter().map(|&i| ALL_RANKS[i]).collect();
        ranks.sort();
        ranks.dedup();
        let locks: Vec<RankedMutex<u32>> = ranks
            .iter()
            .map(|&r| RankedMutex::new(r, r.name(), 0u32))
            .collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut guards = Vec::new();
            for lock in &locks {
                guards.push(lock.lock());
            }
            for mut g in guards {
                *g += 1;
            }
        }));
        prop_assert!(outcome.is_ok(), "ascending ranks {ranks:?} tripped the checker");
    }

    /// …and any sequence containing a descent (or a repeat) trips it
    /// at exactly the first non-ascending acquisition.
    #[test]
    fn non_ascending_sequences_always_trip(picks in proptest::collection::vec(0usize..ALL_RANKS.len(), 2..8)) {
        set_rank_checks(true);
        let ranks: Vec<LockRank> = picks.iter().map(|&i| ALL_RANKS[i]).collect();
        let ascending = ranks.windows(2).all(|w| w[0] < w[1]);
        prop_assume!(!ascending);
        let locks: Vec<RankedMutex<u32>> = ranks
            .iter()
            .map(|&r| RankedMutex::new(r, r.name(), 0u32))
            .collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut guards = Vec::new();
            for lock in &locks {
                guards.push(lock.lock());
            }
        }));
        prop_assert!(outcome.is_err(), "non-ascending ranks {ranks:?} passed the checker");
    }
}
