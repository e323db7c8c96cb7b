//! The stall watchdog: a shared active-task table plus a sampling
//! thread that turns it into a flamegraph-style profile and fires
//! flight-recorder dumps when a worker stops making progress.
//!
//! Workers opt in by registering a slot ([`register_worker`] for
//! long-lived pool threads, [`task_scope`] for bounded jobs like a
//! compaction or an OLAP execute). From then on the tracing and
//! lockrank layers *passively publish* into the slot: every span
//! open/close updates the thread's current span path and heartbeat,
//! every ranked-lock acquisition updates its held-rank list. The
//! worker never calls the watchdog explicitly on its hot path (though
//! long loops can [`heartbeat`] manually), and the watchdog thread
//! never touches another thread's internals — it only reads what was
//! published, so sampling cannot block serving.
//!
//! Each sample folds every active span path into a cumulative
//! `path → samples` profile (the text form of a flamegraph;
//! [`Watchdog::metrics_text`] exposes it in Prometheus style) and
//! checks each slot's heartbeat age against its budget. A worker past
//! its budget with work in flight is **stalled**: the watchdog fires
//! one `obs.stall` event (edge-triggered — it re-arms when the worker
//! recovers) carrying the span path and held lock ranks, and triggers
//! a `watchdog.stall` flight-recorder dump so the black box shows
//! what every other thread was doing at that moment.

use crate::json::Json;
use crate::trace::{monotonic_us, TraceId};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Duration;

/// One registered worker's published state, as read by the watchdog
/// and embedded in black-box dumps.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadState {
    /// The worker's registered name (`serve.execute`,
    /// `warehouse.compact`, …).
    pub worker: String,
    /// The current span path, innermost last (`serve.request>serve.execute`),
    /// empty when idle.
    pub path: String,
    /// Names of the lock ranks currently held, acquisition order.
    pub held: Vec<String>,
    /// The trace of the innermost live span, if any.
    pub trace: Option<TraceId>,
    /// Last heartbeat (µs since process start, monotonic).
    pub heartbeat_us: u64,
    /// Stall budget: heartbeat older than this while active = stalled.
    /// Zero disables stall detection for the slot.
    pub budget_us: u64,
    /// Whether the watchdog currently considers the worker stalled.
    pub stalled: bool,
}

impl ThreadState {
    /// Encode as a single-line JSON object (the black-box wire shape).
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            ("kind", Json::from("thread")),
            ("worker", Json::from(self.worker.as_str())),
            ("path", Json::from(self.path.as_str())),
            (
                "held",
                Json::Arr(self.held.iter().map(|h| Json::from(h.as_str())).collect()),
            ),
            ("heartbeat_us", Json::from(self.heartbeat_us)),
            ("budget_us", Json::from(self.budget_us)),
            ("stalled", Json::from(self.stalled)),
        ];
        if let Some(trace) = self.trace {
            obj.push(("trace", Json::from(trace.0)));
        }
        Json::obj(obj)
    }

    /// Decode the shape produced by [`ThreadState::to_json`].
    pub fn from_json(value: &Json) -> Option<ThreadState> {
        if value.get("kind")?.as_str()? != "thread" {
            return None;
        }
        let held = match value.get("held") {
            Some(Json::Arr(items)) => items
                .iter()
                .filter_map(|i| Some(i.as_str()?.to_string()))
                .collect(),
            _ => Vec::new(),
        };
        Some(ThreadState {
            worker: value.get("worker")?.as_str()?.to_string(),
            path: value.get("path")?.as_str()?.to_string(),
            held,
            trace: value.get("trace").and_then(Json::as_u64).map(TraceId),
            heartbeat_us: value.get("heartbeat_us")?.as_u64()?,
            budget_us: value.get("budget_us")?.as_u64()?,
            stalled: matches!(value.get("stalled"), Some(Json::Bool(true))),
        })
    }
}

#[derive(Default)]
struct SlotState {
    path: String,
    held: Vec<String>,
    trace: Option<TraceId>,
}

struct Slot {
    worker: String,
    budget_us: u64,
    state: Mutex<SlotState>,
    heartbeat_us: AtomicU64,
    stalled: AtomicBool,
}

impl Slot {
    fn snapshot(&self) -> ThreadState {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        ThreadState {
            worker: self.worker.clone(),
            path: state.path.clone(),
            held: state.held.clone(),
            trace: state.trace,
            heartbeat_us: self.heartbeat_us.load(Ordering::Relaxed),
            budget_us: self.budget_us,
            stalled: self.stalled.load(Ordering::Relaxed),
        }
    }
}

/// The global active-task table. Slots are held weakly: a worker
/// leaving (guard drop) lets its slot expire and the next sweep
/// prunes it, so no unregister protocol is needed.
fn table() -> &'static Mutex<Vec<Weak<Slot>>> {
    static TABLE: OnceLock<Mutex<Vec<Weak<Slot>>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    /// The stack of slots registered on this thread, innermost last
    /// (an OLAP execute `task_scope` nests inside a serve execution's;
    /// publishing targets the innermost).
    static SLOTS: RefCell<Vec<Arc<Slot>>> = const { RefCell::new(Vec::new()) };
    /// The live span stack on this thread: (name, trace), innermost
    /// last. Maintained by the tracing layer whenever it is active.
    static SPAN_STACK: RefCell<Vec<(&'static str, TraceId)>> = const { RefCell::new(Vec::new()) };
    /// Mirror of `SLOTS.len()` as a plain `Cell` so the tracing hot
    /// path can test "is this thread registered?" without a `RefCell`
    /// borrow check.
    static SLOT_COUNT: Cell<usize> = const { Cell::new(0) };
}

/// Registers the calling thread in the active-task table until the
/// returned guard drops. See [`register_worker`].
pub struct WorkerGuard {
    slot: Arc<Slot>,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        let id = Arc::as_ptr(&self.slot);
        SLOTS.with(|s| {
            let mut slots = s.borrow_mut();
            if let Some(pos) = slots.iter().rposition(|slot| Arc::as_ptr(slot) == id) {
                slots.remove(pos);
                SLOT_COUNT.with(|c| c.set(slots.len()));
            }
        });
        // The table's Weak expires once this (last) Arc drops.
    }
}

fn register(worker: &str, budget: Duration) -> WorkerGuard {
    let slot = Arc::new(Slot {
        worker: worker.to_string(),
        budget_us: budget.as_micros().min(u64::MAX as u128) as u64,
        state: Mutex::new(SlotState::default()),
        heartbeat_us: AtomicU64::new(monotonic_us()),
        stalled: AtomicBool::new(false),
    });
    {
        let mut table = table().lock().unwrap_or_else(|e| e.into_inner());
        // Bounded scopes (one per serve execution) register far more
        // often than a watchdog may sweep — a service can run without
        // one — so expired slots are dropped whenever the table fills.
        if table.len() == table.capacity() {
            table.retain(|weak| weak.strong_count() > 0);
        }
        table.push(Arc::downgrade(&slot));
    }
    SLOTS.with(|s| {
        let mut slots = s.borrow_mut();
        slots.push(Arc::clone(&slot));
        SLOT_COUNT.with(|c| c.set(slots.len()));
    });
    publish();
    WorkerGuard { slot }
}

/// Register the calling thread as a long-lived worker. `budget` is the
/// stall budget: a heartbeat older than this while a span is open
/// marks the worker stalled (zero disables detection). Hold the guard
/// for the worker's lifetime.
pub fn register_worker(worker: &str, budget: Duration) -> WorkerGuard {
    register(worker, budget)
}

/// Register a bounded task scope (compaction run, OLAP execute) on the
/// calling thread. Nests inside an enclosing [`register_worker`]
/// registration: publishing targets the innermost scope until the
/// guard drops.
pub fn task_scope(name: &str, budget: Duration) -> WorkerGuard {
    register(name, budget)
}

/// Refresh the calling thread's heartbeat explicitly. Span opens and
/// closes and ranked-lock traffic already count as heartbeats; long
/// compute loops between spans call this to prove liveness.
pub fn heartbeat() {
    SLOTS.with(|s| {
        if let Some(slot) = s.borrow().last() {
            slot.heartbeat_us.store(monotonic_us(), Ordering::Relaxed);
        }
    });
}

/// Publish the current span path + held ranks to this thread's
/// innermost slot, refreshing the heartbeat. No-op (one thread-local
/// read) on unregistered threads.
fn publish() {
    SLOTS.with(|s| {
        let slots = s.borrow();
        let Some(slot) = slots.last() else {
            return;
        };
        let (path, trace) = SPAN_STACK.with(|stack| {
            let stack = stack.borrow();
            let path = stack
                .iter()
                .map(|(name, _)| *name)
                .collect::<Vec<_>>()
                .join(">");
            (path, stack.last().map(|(_, trace)| *trace))
        });
        let held = crate::lockrank::held_ranks()
            .into_iter()
            .map(|(_, rank)| rank.name().to_string())
            .collect();
        {
            let mut state = slot.state.lock().unwrap_or_else(|e| e.into_inner());
            state.path = path;
            state.trace = trace;
            state.held = held;
        }
        slot.heartbeat_us.store(monotonic_us(), Ordering::Relaxed);
    });
}

/// Whether the calling thread has a registered slot — the tracing
/// layer skips span-stack bookkeeping entirely on unregistered
/// threads (client callers), where nothing would ever read it.
#[inline]
pub(crate) fn registered() -> bool {
    SLOT_COUNT.with(Cell::get) > 0
}

/// Tracing hook: a span opened on this thread. Returns the stack
/// depth before the push, which [`span_closed`] uses to restore the
/// stack even if guards drop out of order.
pub(crate) fn span_opened(name: &'static str, trace: TraceId) -> usize {
    let depth = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let depth = stack.len();
        stack.push((name, trace));
        depth
    });
    publish();
    depth
}

/// Tracing hook: the span opened at `depth` closed.
pub(crate) fn span_closed(depth: usize) {
    SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        if stack.len() > depth {
            stack.truncate(depth);
        }
    });
    publish();
}

/// Lockrank hook: this thread's held-rank set changed.
pub(crate) fn on_locks_changed() {
    publish();
}

/// Snapshot every live slot in the active-task table (pruning expired
/// ones). This is what black-box dumps embed as per-thread state.
pub fn thread_states() -> Vec<ThreadState> {
    let mut table = table().lock().unwrap_or_else(|e| e.into_inner());
    table.retain(|weak| weak.strong_count() > 0);
    table
        .iter()
        .filter_map(Weak::upgrade)
        .map(|slot| slot.snapshot())
        .collect()
}

/// Sampling cadence and sizing for a [`Watchdog`].
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// Sample interval. Each sample costs one pass over the (small)
    /// active-task table; the default keeps profile resolution useful
    /// while staying invisible in benchmarks.
    pub interval: Duration,
    /// Cap on distinct span paths retained in the folded profile
    /// (protects against unbounded path cardinality).
    pub max_paths: usize,
}

impl Default for WatchdogConfig {
    fn default() -> WatchdogConfig {
        WatchdogConfig {
            interval: Duration::from_millis(25),
            max_paths: 512,
        }
    }
}

struct WatchdogCore {
    config: WatchdogConfig,
    stop: AtomicBool,
    samples: AtomicU64,
    stalls: AtomicU64,
    profile: Mutex<BTreeMap<String, u64>>,
}

impl WatchdogCore {
    /// One sampling pass: fold active paths into the profile, check
    /// stall budgets, and let the recorder sample its metric sources.
    fn sample(&self) {
        self.samples.fetch_add(1, Ordering::Relaxed);
        let now = monotonic_us();
        let mut table = table().lock().unwrap_or_else(|e| e.into_inner());
        table.retain(|weak| weak.strong_count() > 0);
        let slots: Vec<Arc<Slot>> = table.iter().filter_map(Weak::upgrade).collect();
        drop(table);
        for slot in &slots {
            let state = slot.snapshot();
            if !state.path.is_empty() {
                let mut profile = self.profile.lock().unwrap_or_else(|e| e.into_inner());
                if profile.len() < self.config.max_paths || profile.contains_key(&state.path) {
                    *profile.entry(state.path.clone()).or_insert(0) += 1;
                }
            }
            let age = now.saturating_sub(state.heartbeat_us);
            let over_budget =
                state.budget_us > 0 && !state.path.is_empty() && age > state.budget_us;
            if over_budget {
                if !slot.stalled.swap(true, Ordering::Relaxed) {
                    self.stalls.fetch_add(1, Ordering::Relaxed);
                    let held = state.held.join(",");
                    crate::trace::event_with(
                        "obs.stall",
                        &[
                            ("worker", &state.worker),
                            ("path", &state.path),
                            ("held", &held),
                            ("age_us", &age),
                            ("budget_us", &state.budget_us),
                        ],
                    );
                    crate::recorder::trigger_dump("watchdog.stall", state.trace);
                }
            } else {
                slot.stalled.store(false, Ordering::Relaxed);
            }
        }
        if let Some(recorder) = crate::recorder::recorder() {
            recorder.sample_metrics();
        }
    }
}

/// Handle to the sampling thread. Dropping (or [`Watchdog::shutdown`])
/// stops and joins it; the accumulated profile survives until then
/// via the handle's accessors.
pub struct Watchdog {
    core: Arc<WatchdogCore>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Spawn the watchdog sampling thread (named `obs-watchdog`).
    pub fn start(config: WatchdogConfig) -> std::io::Result<Watchdog> {
        let core = Arc::new(WatchdogCore {
            stop: AtomicBool::new(false),
            samples: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            profile: Mutex::new(BTreeMap::new()),
            config,
        });
        let thread_core = Arc::clone(&core);
        let handle = std::thread::Builder::new()
            .name("obs-watchdog".to_string())
            .spawn(move || {
                while !thread_core.stop.load(Ordering::Relaxed) {
                    thread_core.sample();
                    std::thread::sleep(thread_core.config.interval);
                }
            })?;
        Ok(Watchdog {
            core,
            handle: Some(handle),
        })
    }

    /// An unstarted watchdog that only samples when [`sample_once`]
    /// is called — deterministic mode for tests.
    ///
    /// [`sample_once`]: Watchdog::sample_once
    pub fn manual(config: WatchdogConfig) -> Watchdog {
        Watchdog {
            core: Arc::new(WatchdogCore {
                stop: AtomicBool::new(false),
                samples: AtomicU64::new(0),
                stalls: AtomicU64::new(0),
                profile: Mutex::new(BTreeMap::new()),
                config,
            }),
            handle: None,
        }
    }

    /// Run one sampling pass synchronously on the calling thread.
    pub fn sample_once(&self) {
        self.core.sample();
    }

    /// Total sampling passes so far.
    pub fn samples(&self) -> u64 {
        self.core.samples.load(Ordering::Relaxed)
    }

    /// Total stall firings so far (edge-triggered per worker).
    pub fn stalls(&self) -> u64 {
        self.core.stalls.load(Ordering::Relaxed)
    }

    /// The folded-stack profile: `(span path, samples)` pairs, sorted
    /// by path. Feed to any flamegraph renderer (`path N` per line).
    pub fn folded_profile(&self) -> Vec<(String, u64)> {
        self.core
            .profile
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(path, &count)| (path.clone(), count))
            .collect()
    }

    /// Prometheus-style exposition of the watchdog's own state plus
    /// the folded profile as a labelled series.
    pub fn metrics_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# TYPE obs_watchdog_samples_total counter");
        let _ = writeln!(out, "obs_watchdog_samples_total {}", self.samples());
        let _ = writeln!(out, "# TYPE obs_watchdog_stalls_total counter");
        let _ = writeln!(out, "obs_watchdog_stalls_total {}", self.stalls());
        let _ = writeln!(out, "# TYPE obs_watchdog_workers gauge");
        let _ = writeln!(out, "obs_watchdog_workers {}", thread_states().len());
        let profile = self.folded_profile();
        if !profile.is_empty() {
            let _ = writeln!(out, "# TYPE obs_profile_samples_total counter");
            for (path, count) in profile {
                let path = path.replace('\\', "\\\\").replace('"', "\\\"");
                let _ = writeln!(out, "obs_profile_samples_total{{path=\"{path}\"}} {count}");
            }
        }
        out
    }

    /// Stop and join the sampling thread (also happens on drop).
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.core.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::RingCollector;
    use crate::test_support::tracing_lock;

    #[test]
    fn thread_state_round_trips_through_json() {
        let state = ThreadState {
            worker: "serve-worker-0".into(),
            path: "serve.request>serve.execute".into(),
            held: vec!["Warehouse".into(), "Cache".into()],
            trace: Some(TraceId(7)),
            heartbeat_us: 100,
            budget_us: 2_000_000,
            stalled: true,
        };
        let parsed = ThreadState::from_json(&Json::parse(&state.to_json().render()).unwrap());
        assert_eq!(parsed, Some(state));
    }

    #[test]
    fn registration_publishes_spans_and_locks() {
        let _guard = tracing_lock();
        let _flag = crate::lockrank::rank_checks_lock();
        // Install a subscriber so spans are live and the hooks fire.
        let collector = std::sync::Arc::new(RingCollector::new(64));
        crate::trace::install(collector);
        crate::lockrank::set_rank_checks(true);
        let worker = register_worker("wd-test-worker", Duration::from_secs(1));
        {
            let _outer = crate::trace::span("serve.request");
            let _inner = crate::trace::span("serve.execute");
            let lock = crate::lockrank::RankedMutex::new(
                crate::lockrank::LockRank::Cache,
                "wd.test_cache",
                (),
            );
            let guard = lock.lock();
            let states = thread_states();
            let me = states
                .iter()
                .find(|s| s.worker == "wd-test-worker")
                .expect("registered");
            assert_eq!(me.path, "serve.request>serve.execute");
            assert_eq!(me.held, vec!["Cache".to_string()]);
            assert!(me.trace.is_some());
            drop(guard);
        }
        let states = thread_states();
        let me = states
            .iter()
            .find(|s| s.worker == "wd-test-worker")
            .expect("registered");
        assert_eq!(me.path, "");
        assert!(me.held.is_empty());
        drop(worker);
        assert!(!thread_states().iter().any(|s| s.worker == "wd-test-worker"));
        crate::trace::uninstall();
    }

    #[test]
    fn expired_scopes_do_not_accumulate() {
        for _ in 0..10_000 {
            drop(task_scope("wd-churn", Duration::ZERO));
        }
        let len = table().lock().unwrap_or_else(|e| e.into_inner()).len();
        assert!(
            len < 1_000,
            "{len} slots retained after 10 000 ended scopes"
        );
    }

    #[test]
    fn nested_scopes_target_the_innermost() {
        let _guard = tracing_lock();
        let collector = std::sync::Arc::new(RingCollector::new(64));
        crate::trace::install(collector);
        let _outer = register_worker("wd-outer", Duration::ZERO);
        {
            let _inner = task_scope("wd-inner", Duration::ZERO);
            let _span = crate::trace::span("warehouse.compact");
            let states = thread_states();
            let inner = states.iter().find(|s| s.worker == "wd-inner").expect("in");
            assert_eq!(inner.path, "warehouse.compact");
            // The outer slot exists but is not the publish target.
            assert!(states.iter().any(|s| s.worker == "wd-outer"));
        }
        assert!(!thread_states().iter().any(|s| s.worker == "wd-inner"));
        crate::trace::uninstall();
    }

    #[test]
    fn manual_watchdog_profiles_and_detects_stalls() {
        let _guard = tracing_lock();
        let collector = std::sync::Arc::new(RingCollector::new(64));
        crate::trace::install(collector.clone());
        let recorder = std::sync::Arc::new(crate::recorder::FlightRecorder::new(
            crate::recorder::RecorderConfig::default(),
        ));
        crate::recorder::install_recorder(std::sync::Arc::clone(&recorder));
        let watchdog = Watchdog::manual(WatchdogConfig::default());
        let worker = register_worker("wd-stall-worker", Duration::from_micros(1));
        {
            let _span = crate::trace::span("serve.request");
            // Let the 1µs budget lapse.
            std::thread::sleep(Duration::from_millis(2));
            watchdog.sample_once();
            watchdog.sample_once(); // edge-triggered: second sample is silent
        }
        assert_eq!(watchdog.stalls(), 1);
        assert!(watchdog
            .folded_profile()
            .iter()
            .any(|(path, count)| path == "serve.request" && *count >= 1));
        let text = watchdog.metrics_text();
        assert!(text.contains("obs_watchdog_stalls_total 1"));
        assert!(text.contains("obs_profile_samples_total{path=\"serve.request\"}"));
        // The stall fired an event and a dump.
        crate::recorder::uninstall_recorder();
        crate::trace::uninstall();
        assert!(collector.events().iter().any(|e| e.name == "obs.stall"));
        let dump = recorder.last_dump().expect("stall dumped");
        assert_eq!(dump.trigger, "watchdog.stall");
        assert!(dump
            .threads
            .iter()
            .any(|t| t.worker == "wd-stall-worker" && t.path == "serve.request"));
        drop(worker);
    }

    #[test]
    fn started_watchdog_samples_on_its_own() {
        let _guard = tracing_lock();
        let watchdog = Watchdog::start(WatchdogConfig {
            interval: Duration::from_millis(1),
            max_paths: 16,
        })
        .expect("spawns");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while watchdog.samples() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(watchdog.samples() > 0, "watchdog thread never sampled");
        watchdog.shutdown();
    }
}
