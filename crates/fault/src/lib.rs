//! Deterministic fault injection for the DD-DGMS stack.
//!
//! Production resource code calls [`point`] at every place an I/O or
//! scheduling operation can genuinely fail — an oplog append, a warehouse
//! load, an OLAP segment scan, a serve execution. In normal
//! operation nothing is armed and the call is a single relaxed atomic
//! load (the same zero-cost-when-disabled discipline as `obs`
//! tracing). Tests and chaos drills [`arm`] a point with a scripted
//! [`Trigger`] and a [`FaultKind`], and the next matching evaluation
//! returns a [`FaultError`] (or panics, or stalls, for containment and
//! overlap drills) exactly where a real fault would surface.
//!
//! Triggers are deterministic: fail-once, fail-every-Nth, fail-after-K
//! and seeded-probabilistic all derive from per-point hit counters and
//! a fixed-seed xorshift, never from wall-clock entropy, so a failing
//! chaos run replays byte-for-byte.
//!
//! ```
//! let _lock = fault::test_support::fault_lock();
//! assert!(fault::point("demo.io").is_ok()); // nothing armed: no-op
//! {
//!     let _guard = fault::arm("demo.io", fault::Trigger::Once, fault::FaultKind::Error);
//!     assert!(fault::point("demo.io").is_err()); // fires once…
//!     assert!(fault::point("demo.io").is_ok()); // …then stands down
//! }
//! assert!(fault::point("demo.io").is_ok()); // guard dropped: disarmed
//! ```
//!
//! Per-point hit/fire counters survive disarming and can be exported
//! into an [`obs::MetricsRegistry`] via [`export_into`] for the same
//! Prometheus exposition the rest of the stack uses.

#![deny(missing_docs)]

use obs::MetricsRegistry;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Number of currently armed failpoints. The [`point`] fast path is a
/// single relaxed load of this counter; everything else lives behind
/// it on the cold path.
static ARMED: AtomicUsize = AtomicUsize::new(0);

/// An injected fault, surfaced where a real resource failure would be.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultError {
    point: String,
}

impl FaultError {
    /// The failpoint that fired.
    pub fn point(&self) -> &str {
        &self.point
    }
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at {}", self.point)
    }
}

impl std::error::Error for FaultError {}

/// When an armed failpoint fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Fire on every hit.
    Always,
    /// Fire on the first hit after arming, then stand down.
    Once,
    /// Fire on every `n`th hit after arming (1st, `n+1`th, …); `n` is
    /// floored at 1.
    EveryNth(u64),
    /// Pass the first `k` hits after arming, then fire on every later
    /// hit — "the resource degrades after k successes".
    AfterK(u64),
    /// Fire each hit independently with probability `permille`/1000,
    /// driven by a seeded xorshift over the hit index — deterministic
    /// across runs, no wall-clock entropy.
    Probability {
        /// Fixed RNG seed; the same seed replays the same decisions.
        seed: u64,
        /// Fire probability in thousandths (0–1000).
        permille: u32,
    },
}

/// How a firing failpoint manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// [`point`] returns a [`FaultError`] — models an I/O error the
    /// caller must propagate or absorb.
    Error,
    /// [`point`] panics — models a crash inside the instrumented code,
    /// for `catch_unwind` containment drills.
    Panic,
    /// [`point`] sleeps for the duration, then returns `Ok(())` — a
    /// slow resource rather than a failed one, for drills that need
    /// executions to overlap or overrun a deadline.
    Delay(Duration),
}

struct PointState {
    trigger: Trigger,
    kind: FaultKind,
    /// Hits observed since arming (trigger arithmetic).
    armed_hits: u64,
    /// `Once` already consumed.
    spent: bool,
}

#[derive(Default, Clone, Copy)]
struct PointTotals {
    hits: u64,
    fires: u64,
}

#[derive(Default)]
struct Registry {
    points: BTreeMap<String, PointState>,
    /// Cumulative per-point counters; survive disarming.
    totals: BTreeMap<String, PointTotals>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

fn lock_registry() -> MutexGuard<'static, Registry> {
    registry().lock().unwrap_or_else(|e| e.into_inner())
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Evaluate the failpoint `name`.
///
/// With nothing armed anywhere this is one relaxed atomic load and an
/// immediate `Ok(())`, cheap enough to sit on every hot path. While
/// any point is armed, evaluations take the cold path: the hit counter
/// advances and the armed trigger (if this point is the armed one)
/// decides whether to fail.
#[inline]
pub fn point(name: &str) -> Result<(), FaultError> {
    if ARMED.load(Ordering::Relaxed) == 0 {
        return Ok(());
    }
    point_slow(name)
}

#[cold]
fn point_slow(name: &str) -> Result<(), FaultError> {
    let mut reg = lock_registry();
    reg.totals.entry(name.to_string()).or_default().hits += 1;
    let Some(state) = reg.points.get_mut(name) else {
        return Ok(());
    };
    state.armed_hits += 1;
    let hit = state.armed_hits;
    let fires = match state.trigger {
        Trigger::Always => true,
        Trigger::Once => {
            if state.spent {
                false
            } else {
                state.spent = true;
                true
            }
        }
        Trigger::EveryNth(n) => (hit - 1) % n.max(1) == 0,
        Trigger::AfterK(k) => hit > k,
        Trigger::Probability { seed, permille } => {
            let r = xorshift(seed.wrapping_add(hit).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            r % 1000 < u64::from(permille.min(1000))
        }
    };
    if !fires {
        drop(reg);
        // Evaluations on the cold path feed the flight recorder (one
        // relaxed load when no recorder is installed), so a black box
        // shows which failpoints the incident window touched.
        obs::recorder::note_failpoint(name, false);
        return Ok(());
    }
    let kind = state.kind;
    if let Some(t) = reg.totals.get_mut(name) {
        t.fires += 1;
    }
    drop(reg);
    obs::recorder::note_failpoint(name, true);
    match kind {
        FaultKind::Error => Err(FaultError {
            point: name.to_string(),
        }),
        FaultKind::Panic => panic!("injected fault (panic) at {name}"),
        FaultKind::Delay(pause) => {
            std::thread::sleep(pause);
            Ok(())
        }
    }
}

/// Scoped arming of one failpoint; dropping the guard disarms it.
///
/// Hold [`test_support::fault_lock`] around any test that arms points:
/// the registry is process-global and concurrent tests would otherwise
/// inject faults into each other.
#[must_use = "the failpoint disarms when the guard drops"]
pub struct FaultGuard {
    name: String,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        let mut reg = lock_registry();
        if reg.points.remove(&self.name).is_some() {
            ARMED.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Arm failpoint `name` with `trigger` and `kind`, returning the guard
/// that disarms it. Re-arming an already-armed point replaces its
/// script (and the first guard dropped disarms it — scope one guard
/// per point).
pub fn arm(name: &str, trigger: Trigger, kind: FaultKind) -> FaultGuard {
    let mut reg = lock_registry();
    let fresh = reg
        .points
        .insert(
            name.to_string(),
            PointState {
                trigger,
                kind,
                armed_hits: 0,
                spent: false,
            },
        )
        .is_none();
    drop(reg);
    if fresh {
        ARMED.fetch_add(1, Ordering::SeqCst);
    }
    FaultGuard {
        name: name.to_string(),
    }
}

/// Whether any failpoint is currently armed.
pub fn any_armed() -> bool {
    ARMED.load(Ordering::Relaxed) > 0
}

/// Cumulative evaluations of `name` observed on the cold path (i.e.
/// while the subsystem had at least one point armed).
pub fn hits(name: &str) -> u64 {
    lock_registry().totals.get(name).map_or(0, |t| t.hits)
}

/// Cumulative times `name` actually fired a fault.
pub fn fires(name: &str) -> u64 {
    lock_registry().totals.get(name).map_or(0, |t| t.fires)
}

/// Export every point's cumulative hit/fire counters into `registry`
/// as `fault_hits_total{...}`-style counters (dots in point names
/// become underscores). Idempotent: repeated exports advance each
/// counter by the delta since the last export, not the full total.
pub fn export_into(registry: &MetricsRegistry) {
    let reg = lock_registry();
    for (name, totals) in &reg.totals {
        let base = name.replace('.', "_");
        let hits = registry.counter(&format!("fault_{base}_hits_total"));
        hits.add(totals.hits.saturating_sub(hits.get()));
        let fires = registry.counter(&format!("fault_{base}_fires_total"));
        fires.add(totals.fires.saturating_sub(fires.get()));
    }
}

pub mod retry;

pub use retry::RetryPolicy;

/// Helpers for tests that arm process-global failpoints.
pub mod test_support {
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Serialises tests that arm failpoints: the registry is
    /// process-global, so hold the returned guard for the duration of
    /// any test that arms a point (mirrors
    /// `obs::test_support::tracing_lock`).
    pub fn fault_lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use test_support::fault_lock;

    #[test]
    fn disabled_points_are_noops() {
        let _lock = fault_lock();
        assert!(!any_armed());
        assert!(point("t.nothing").is_ok());
    }

    #[test]
    fn once_fires_exactly_once() {
        let _lock = fault_lock();
        let guard = arm("t.once", Trigger::Once, FaultKind::Error);
        assert!(any_armed());
        let err = point("t.once").unwrap_err();
        assert_eq!(err.point(), "t.once");
        assert!(err.to_string().contains("t.once"));
        assert!(point("t.once").is_ok());
        assert!(point("t.once").is_ok());
        drop(guard);
        assert!(!any_armed());
    }

    #[test]
    fn every_nth_fires_periodically() {
        let _lock = fault_lock();
        let _guard = arm("t.nth", Trigger::EveryNth(3), FaultKind::Error);
        let pattern: Vec<bool> = (0..9).map(|_| point("t.nth").is_err()).collect();
        assert_eq!(
            pattern,
            [true, false, false, true, false, false, true, false, false]
        );
    }

    #[test]
    fn after_k_passes_then_fails_forever() {
        let _lock = fault_lock();
        let _guard = arm("t.afterk", Trigger::AfterK(2), FaultKind::Error);
        assert!(point("t.afterk").is_ok());
        assert!(point("t.afterk").is_ok());
        assert!(point("t.afterk").is_err());
        assert!(point("t.afterk").is_err());
    }

    #[test]
    fn probability_is_deterministic_across_runs() {
        let _lock = fault_lock();
        let run = || -> Vec<bool> {
            let _guard = arm(
                "t.prob",
                Trigger::Probability {
                    seed: 42,
                    permille: 500,
                },
                FaultKind::Error,
            );
            (0..32).map(|_| point("t.prob").is_err()).collect()
        };
        let first = run();
        let second = run();
        assert_eq!(first, second, "same seed must replay the same faults");
        assert!(first.iter().any(|&f| f), "p=0.5 over 32 draws must fire");
        assert!(!first.iter().all(|&f| f), "…and must also pass sometimes");
    }

    #[test]
    fn panic_kind_panics_and_is_containable() {
        let _lock = fault_lock();
        let _guard = arm("t.panic", Trigger::Once, FaultKind::Panic);
        let caught = std::panic::catch_unwind(|| point("t.panic"));
        assert!(caught.is_err(), "panic kind must unwind");
        assert!(point("t.panic").is_ok(), "Once is spent by the panic");
    }

    #[test]
    fn delay_kind_sleeps_then_passes() {
        let _lock = fault_lock();
        let pause = std::time::Duration::from_millis(20);
        let _guard = arm("t.delay", Trigger::Once, FaultKind::Delay(pause));
        let started = std::time::Instant::now();
        assert!(point("t.delay").is_ok(), "a delay is not an error");
        assert!(started.elapsed() >= pause, "the firing hit sleeps");
        assert!(point("t.delay").is_ok());
        assert_eq!(fires("t.delay"), 1, "Once is spent");
    }

    #[test]
    fn counters_accumulate_and_export() {
        let _lock = fault_lock();
        let before_hits = hits("t.count");
        let before_fires = fires("t.count");
        {
            let _guard = arm("t.count", Trigger::EveryNth(2), FaultKind::Error);
            for _ in 0..4 {
                let _ = point("t.count");
            }
        }
        assert_eq!(hits("t.count"), before_hits + 4);
        assert_eq!(fires("t.count"), before_fires + 2);

        let registry = MetricsRegistry::new();
        export_into(&registry);
        export_into(&registry); // idempotent
        let text = registry.render_prometheus();
        assert!(
            text.contains(&format!("fault_t_count_hits_total {}", before_hits + 4)),
            "{text}"
        );
        assert!(
            text.contains(&format!("fault_t_count_fires_total {}", before_fires + 2)),
            "{text}"
        );
    }

    #[test]
    fn unarmed_points_pass_while_another_is_armed() {
        let _lock = fault_lock();
        let _guard = arm("t.armed", Trigger::Always, FaultKind::Error);
        assert!(point("t.other").is_ok());
        assert!(point("t.armed").is_err());
        // The bystander's traffic is still counted.
        assert!(hits("t.other") >= 1);
    }
}
