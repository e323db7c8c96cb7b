//! The flight recorder: an always-on ring of recent observability
//! records that can be snapshotted into a self-contained "black box"
//! when something goes wrong.
//!
//! The recorder is the incident-time complement to the subscriber
//! pipeline: subscribers stream *everything* to whoever asked, while
//! the recorder keeps the *recent past* — spans, events, failpoint
//! hits, lock-rank acquisitions, metric deltas — in fixed memory so
//! that a trigger (worker panic, circuit-breaker open, deadline
//! blowout, watchdog stall, explicit call) can capture what the whole
//! process was doing in the seconds before the incident.
//!
//! Capture is thread-sharded: each thread appends to its own bounded
//! ring behind a private mutex, so hot serving threads never contend
//! with each other — the only cross-thread contention is with a dump
//! in progress, which is rare by construction. The disabled path is a
//! single relaxed atomic load, matching the tracing layer and the
//! fault registry.
//!
//! Span and event capture is **head-sampled**: recording the full
//! firehose of healthy traffic would both tax the serving hot path
//! and flush the bounded ring in milliseconds, erasing the incident
//! window the recorder exists to keep. One trace in
//! [`RecorderConfig::span_sample_every`] is captured end to end for
//! texture; everything else enters the ring only when it is
//! *interesting*: failure paths promote their trace explicitly
//! ([`crate::promote_trace`]), spans on watchdog-registered threads
//! that run past [`RecorderConfig::span_min_elapsed_us`] are kept as
//! slow outliers, and events outside any span (stalls, breaker trips,
//! dump markers) always land. Failpoint evaluations and ranked-lock
//! traffic are never sampled — they are rare and signal-bearing.
//!
//! A dump ([`FlightRecorder::dump`] or the global [`trigger_dump`])
//! freezes the last [`RecorderConfig::window`] of records together
//! with every live worker's current span path and held lock ranks
//! (from [`crate::watchdog`]) and per-source metric deltas, producing
//! a [`BlackBox`] that serialises losslessly to JSONL via the same
//! codec the exporters use. The `black-box` bin in `crates/analyze`
//! pretty-prints these for post-mortems.

use crate::json::Json;
use crate::lockrank::LockRank;
use crate::metrics::{RegistryDelta, RegistrySnapshot};
use crate::trace::{monotonic_us, EventRecord, SpanRecord, TraceId};
use crate::watchdog::ThreadState;
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// One captured record in the flight ring.
#[derive(Debug, Clone, PartialEq)]
pub enum FlightRecord {
    /// A completed span (same shape the subscribers see).
    Span(SpanRecord),
    /// A fired event.
    Event(EventRecord),
    /// A failpoint was evaluated (`fired` = it actually injected).
    Failpoint {
        /// Failpoint name (`serve.execute`, …).
        name: String,
        /// Whether the trigger matched and the fault was injected.
        fired: bool,
        /// Offset from process start (µs, monotonic).
        at_us: u64,
        /// Thread the failpoint was evaluated on.
        thread: String,
    },
    /// A ranked lock was acquired or released.
    Lock {
        /// The lock's stable name (`serve.warehouse`, …).
        name: String,
        /// The lock's rank name in the global hierarchy.
        rank: String,
        /// `true` on acquisition, `false` on release.
        acquired: bool,
        /// Offset from process start (µs, monotonic).
        at_us: u64,
        /// Thread that touched the lock.
        thread: String,
    },
    /// A counter (or histogram observation count) moved between two
    /// periodic registry samples.
    Metric {
        /// `source.metric_name` (source = the attach label).
        name: String,
        /// The increment since the previous sample.
        delta: u64,
        /// Offset from process start (µs, monotonic).
        at_us: u64,
    },
}

impl FlightRecord {
    /// The record's timestamp (span records use their close time, so
    /// windowing keeps spans that *finished* recently).
    pub fn at_us(&self) -> u64 {
        match self {
            FlightRecord::Span(s) => s.start_us.saturating_add(s.elapsed_us),
            FlightRecord::Event(e) => e.at_us,
            FlightRecord::Failpoint { at_us, .. }
            | FlightRecord::Lock { at_us, .. }
            | FlightRecord::Metric { at_us, .. } => *at_us,
        }
    }

    /// Encode as a single-line JSON object (the JSONL wire shape).
    /// Span and event records reuse their subscriber encodings, so a
    /// black box parses with the same machinery as a JSONL export.
    pub fn to_json(&self) -> Json {
        match self {
            FlightRecord::Span(s) => s.to_json(),
            FlightRecord::Event(e) => e.to_json(),
            FlightRecord::Failpoint {
                name,
                fired,
                at_us,
                thread,
            } => Json::obj([
                ("kind", Json::from("failpoint")),
                ("name", Json::from(name.as_str())),
                ("fired", Json::from(*fired)),
                ("at_us", Json::from(*at_us)),
                ("thread", Json::from(thread.as_str())),
            ]),
            FlightRecord::Lock {
                name,
                rank,
                acquired,
                at_us,
                thread,
            } => Json::obj([
                ("kind", Json::from("lock")),
                ("name", Json::from(name.as_str())),
                ("rank", Json::from(rank.as_str())),
                ("acquired", Json::from(*acquired)),
                ("at_us", Json::from(*at_us)),
                ("thread", Json::from(thread.as_str())),
            ]),
            FlightRecord::Metric { name, delta, at_us } => Json::obj([
                ("kind", Json::from("metric")),
                ("name", Json::from(name.as_str())),
                ("delta", Json::from(*delta)),
                ("at_us", Json::from(*at_us)),
            ]),
        }
    }

    /// Decode any record shape produced by [`FlightRecord::to_json`].
    pub fn from_json(value: &Json) -> Option<FlightRecord> {
        match value.get("kind")?.as_str()? {
            "span" => SpanRecord::from_json(value).map(FlightRecord::Span),
            "event" => EventRecord::from_json(value).map(FlightRecord::Event),
            "failpoint" => Some(FlightRecord::Failpoint {
                name: value.get("name")?.as_str()?.to_string(),
                fired: matches!(value.get("fired"), Some(Json::Bool(true))),
                at_us: value.get("at_us")?.as_u64()?,
                thread: value.get("thread")?.as_str()?.to_string(),
            }),
            "lock" => Some(FlightRecord::Lock {
                name: value.get("name")?.as_str()?.to_string(),
                rank: value.get("rank")?.as_str()?.to_string(),
                acquired: matches!(value.get("acquired"), Some(Json::Bool(true))),
                at_us: value.get("at_us")?.as_u64()?,
                thread: value.get("thread")?.as_str()?.to_string(),
            }),
            "metric" => Some(FlightRecord::Metric {
                name: value.get("name")?.as_str()?.to_string(),
                delta: value.get("delta")?.as_u64()?,
                at_us: value.get("at_us")?.as_u64()?,
            }),
            _ => None,
        }
    }
}

fn delta_counters_to_json(map: &BTreeMap<String, u64>) -> Json {
    Json::Obj(
        map.iter()
            .map(|(k, &v)| (k.clone(), Json::from(v)))
            .collect(),
    )
}

fn delta_counters_from_json(value: Option<&Json>) -> BTreeMap<String, u64> {
    match value {
        Some(Json::Obj(map)) => map
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
            .collect(),
        _ => BTreeMap::new(),
    }
}

fn delta_to_json(source: &str, delta: &RegistryDelta) -> Json {
    Json::obj([
        ("kind", Json::from("metrics")),
        ("source", Json::from(source)),
        ("counters", delta_counters_to_json(&delta.counters)),
        (
            "gauges",
            Json::Obj(
                delta
                    .gauges
                    .iter()
                    .map(|(k, &v)| (k.clone(), Json::from(v)))
                    .collect(),
            ),
        ),
        ("observations", delta_counters_to_json(&delta.observations)),
    ])
}

fn delta_from_json(value: &Json) -> Option<(String, RegistryDelta)> {
    if value.get("kind")?.as_str()? != "metrics" {
        return None;
    }
    let gauges = match value.get("gauges") {
        Some(Json::Obj(map)) => map
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_i64()?)))
            .collect(),
        _ => BTreeMap::new(),
    };
    Some((
        value.get("source")?.as_str()?.to_string(),
        RegistryDelta {
            counters: delta_counters_from_json(value.get("counters")),
            gauges,
            observations: delta_counters_from_json(value.get("observations")),
        },
    ))
}

/// A frozen incident snapshot: the triggering context, every live
/// worker's state at dump time, per-source metric deltas since the
/// recorder attached, and the windowed flight records.
#[derive(Debug, Clone, PartialEq)]
pub struct BlackBox {
    /// Monotonic dump sequence number within this recorder.
    pub seq: u64,
    /// What fired the dump (`serve.breaker_open`, `watchdog.stall`,
    /// `manual`, …).
    pub trigger: String,
    /// The trace at the centre of the incident, when the trigger had
    /// one (it leads the header line of the JSONL form).
    pub trace: Option<TraceId>,
    /// Dump time (µs since process start, monotonic).
    pub at_us: u64,
    /// Every registered worker's span path, held lock ranks and
    /// heartbeat at dump time.
    pub threads: Vec<ThreadState>,
    /// Per-source metric movement since the source was attached.
    pub metrics: Vec<(String, RegistryDelta)>,
    /// The windowed flight records, oldest first.
    pub records: Vec<FlightRecord>,
}

impl BlackBox {
    /// Serialise to self-contained JSONL: one `blackbox` header line
    /// (trigger and trace front and centre), then `thread` lines,
    /// `metrics` lines, and finally the flight records.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut header = vec![
            ("kind", Json::from("blackbox")),
            ("seq", Json::from(self.seq)),
            ("trigger", Json::from(self.trigger.as_str())),
            ("at_us", Json::from(self.at_us)),
            ("threads", Json::from(self.threads.len())),
            ("records", Json::from(self.records.len())),
        ];
        if let Some(trace) = self.trace {
            header.push(("trace", Json::from(trace.0)));
        }
        out.push_str(&Json::obj(header).render());
        out.push('\n');
        for thread in &self.threads {
            out.push_str(&thread.to_json().render());
            out.push('\n');
        }
        for (source, delta) in &self.metrics {
            out.push_str(&delta_to_json(source, delta).render());
            out.push('\n');
        }
        for record in &self.records {
            out.push_str(&record.to_json().render());
            out.push('\n');
        }
        out
    }

    /// Parse the JSONL shape produced by [`BlackBox::to_jsonl`].
    /// Returns `None` when the first line is not a black-box header;
    /// unparseable later lines are skipped (reads are best-effort).
    pub fn parse(text: &str) -> Option<BlackBox> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = Json::parse(lines.next()?)?;
        if header.get("kind")?.as_str()? != "blackbox" {
            return None;
        }
        let mut black_box = BlackBox {
            seq: header.get("seq")?.as_u64()?,
            trigger: header.get("trigger")?.as_str()?.to_string(),
            trace: header.get("trace").and_then(Json::as_u64).map(TraceId),
            at_us: header.get("at_us")?.as_u64()?,
            threads: Vec::new(),
            metrics: Vec::new(),
            records: Vec::new(),
        };
        for line in lines {
            let Some(value) = Json::parse(line) else {
                continue;
            };
            if let Some(thread) = ThreadState::from_json(&value) {
                black_box.threads.push(thread);
            } else if let Some((source, delta)) = delta_from_json(&value) {
                black_box.metrics.push((source, delta));
            } else if let Some(record) = FlightRecord::from_json(&value) {
                black_box.records.push(record);
            }
        }
        Some(black_box)
    }

    /// Write the JSONL form to `writer`, flushing at the end so a
    /// black box on disk is never truncated mid-record.
    pub fn write_to<W: std::io::Write>(&self, writer: &mut W) -> std::io::Result<()> {
        writer.write_all(self.to_jsonl().as_bytes())?;
        writer.flush()
    }

    /// The span records inside this black box (for trace rendering).
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.records
            .iter()
            .filter_map(|r| match r {
                FlightRecord::Span(s) => Some(s.clone()),
                _ => None,
            })
            .collect()
    }
}

/// Sizing and retention knobs for a [`FlightRecorder`].
#[derive(Debug, Clone)]
pub struct RecorderConfig {
    /// Total record capacity, split evenly across the thread shards.
    /// Oldest records are evicted (and counted) under pressure.
    pub capacity: usize,
    /// How far back a dump reaches: records older than this at dump
    /// time are excluded even if still resident.
    pub window: Duration,
    /// How many completed black boxes to retain in memory (oldest
    /// evicted first). Dumps are also handed back to the caller.
    pub max_dumps: usize,
    /// Head-sampling rate for span/event capture: one trace in this
    /// many is recorded end to end (`1` = capture everything; rounded
    /// up to a power of two so the hot-path check is a mask, not a
    /// division). Error paths bypass sampling via
    /// [`crate::promote_trace`].
    pub span_sample_every: u64,
    /// Spans on watchdog-registered threads whose wall time reaches
    /// this many microseconds are captured even when their trace was
    /// not sampled — slow outliers are always interesting.
    pub span_min_elapsed_us: u64,
}

impl Default for RecorderConfig {
    fn default() -> RecorderConfig {
        RecorderConfig {
            capacity: 8192,
            window: Duration::from_secs(30),
            max_dumps: 8,
            span_sample_every: 128,
            span_min_elapsed_us: 100,
        }
    }
}

/// Number of per-thread ring shards. Threads are striped across the
/// shards round-robin at first touch; with a worker pool smaller than
/// this, every worker effectively owns a private ring.
const SHARDS: usize = 16;

struct MetricSource {
    name: String,
    read: Box<dyn Fn() -> Option<RegistrySnapshot> + Send + Sync>,
    /// Snapshot at attach time — dump deltas are measured from here.
    baseline: RegistrySnapshot,
    /// Snapshot at the previous periodic sample — ring deltas are
    /// measured from here.
    last: Mutex<RegistrySnapshot>,
}

/// The always-on flight recorder. See the [module docs](self) for the
/// capture model; most callers interact through the module-level
/// globals ([`install_recorder`], [`trigger_dump`]) rather than
/// holding the recorder directly.
pub struct FlightRecorder {
    config: RecorderConfig,
    shards: Vec<Mutex<VecDeque<FlightRecord>>>,
    per_shard: usize,
    dropped: AtomicU64,
    seq: AtomicU64,
    sources: Mutex<Vec<Arc<MetricSource>>>,
    dumps: Mutex<VecDeque<BlackBox>>,
}

impl FlightRecorder {
    /// A recorder with the given sizing.
    pub fn new(config: RecorderConfig) -> FlightRecorder {
        let per_shard = (config.capacity / SHARDS).max(8);
        FlightRecorder {
            shards: (0..SHARDS).map(|_| Mutex::new(VecDeque::new())).collect(),
            per_shard,
            dropped: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            sources: Mutex::new(Vec::new()),
            dumps: Mutex::new(VecDeque::new()),
            config,
        }
    }

    /// The recorder's configuration.
    pub fn config(&self) -> &RecorderConfig {
        &self.config
    }

    fn shard(&self) -> &Mutex<VecDeque<FlightRecord>> {
        thread_local! {
            static STRIPE: Cell<Option<usize>> = const { Cell::new(None) };
        }
        static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);
        let stripe = STRIPE.with(|s| match s.get() {
            Some(stripe) => stripe,
            None => {
                let stripe = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed);
                s.set(Some(stripe));
                stripe
            }
        });
        &self.shards[stripe % self.shards.len()]
    }

    /// Append one record to this thread's ring shard.
    pub fn push(&self, record: FlightRecord) {
        let mut ring = self.shard().lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() >= self.per_shard {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(record);
    }

    /// Number of records evicted because a shard ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// A copy of every resident record, oldest first (merged across
    /// shards by timestamp).
    pub fn records(&self) -> Vec<FlightRecord> {
        let mut all = Vec::new();
        for shard in &self.shards {
            let ring = shard.lock().unwrap_or_else(|e| e.into_inner());
            all.extend(ring.iter().cloned());
        }
        all.sort_by_key(FlightRecord::at_us);
        all
    }

    /// Register a metric source: `read` is polled by the watchdog (and
    /// at dump time); counter/observation movement lands in the ring
    /// as [`FlightRecord::Metric`] records and dumps carry the full
    /// delta since attach. `read` returning `None` (e.g. a dropped
    /// `Weak` owner) detaches the source lazily.
    pub fn attach_metrics(
        &self,
        name: &str,
        read: Box<dyn Fn() -> Option<RegistrySnapshot> + Send + Sync>,
    ) {
        let baseline = read().unwrap_or_default();
        let source = Arc::new(MetricSource {
            name: name.to_string(),
            read,
            last: Mutex::new(baseline.clone()),
            baseline,
        });
        self.sources
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(source);
    }

    /// Poll every metric source, recording counter/observation deltas
    /// since the previous poll into the ring. Sources whose reader
    /// returns `None` are dropped. Called periodically by the
    /// watchdog; harmless to call directly.
    pub fn sample_metrics(&self) {
        let sources: Vec<Arc<MetricSource>> = self
            .sources
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        let now = monotonic_us();
        let mut dead = Vec::new();
        for source in &sources {
            let Some(snap) = (source.read)() else {
                dead.push(source.name.clone());
                continue;
            };
            let delta = {
                let mut last = source.last.lock().unwrap_or_else(|e| e.into_inner());
                let delta = snap.diff(&last);
                *last = snap;
                delta
            };
            for (metric, &inc) in delta.counters.iter().chain(delta.observations.iter()) {
                if inc > 0 {
                    self.push(FlightRecord::Metric {
                        name: format!("{}.{}", source.name, metric),
                        delta: inc,
                        at_us: now,
                    });
                }
            }
        }
        if !dead.is_empty() {
            self.sources
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .retain(|s| !dead.contains(&s.name));
        }
    }

    /// Snapshot the last [`RecorderConfig::window`] into a
    /// [`BlackBox`], retaining a copy in the dump buffer and handing
    /// one back. Captures every registered worker's current state
    /// from the watchdog's active-task table.
    pub fn dump(&self, trigger: &str, trace: Option<TraceId>) -> BlackBox {
        let now = monotonic_us();
        let window_us = self.config.window.as_micros().min(u64::MAX as u128) as u64;
        let cutoff = now.saturating_sub(window_us);
        let records: Vec<FlightRecord> = self
            .records()
            .into_iter()
            .filter(|r| r.at_us() >= cutoff)
            .collect();
        let sources: Vec<Arc<MetricSource>> = self
            .sources
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        let metrics = sources
            .iter()
            .filter_map(|source| {
                let snap = (source.read)()?;
                Some((source.name.clone(), snap.diff(&source.baseline)))
            })
            .collect();
        let black_box = BlackBox {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            trigger: trigger.to_string(),
            trace,
            at_us: now,
            threads: crate::watchdog::thread_states(),
            metrics,
            records,
        };
        let mut dumps = self.dumps.lock().unwrap_or_else(|e| e.into_inner());
        while dumps.len() >= self.config.max_dumps.max(1) {
            dumps.pop_front();
        }
        dumps.push_back(black_box.clone());
        black_box
    }

    /// The retained black boxes, oldest first.
    pub fn dumps(&self) -> Vec<BlackBox> {
        self.dumps
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// The most recent black box, if any dump has fired.
    pub fn last_dump(&self) -> Option<BlackBox> {
        self.dumps
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .back()
            .cloned()
    }
}

/// Fast gate: one relaxed load decides whether capture hooks record.
static RECORDING: AtomicBool = AtomicBool::new(false);
static RECORDER: RwLock<Option<Arc<FlightRecorder>>> = RwLock::new(None);
/// Hot-path copies of the installed recorder's sampling knobs, so the
/// tracing layer reads one relaxed atomic instead of the `RwLock`.
/// The sample rate is stored as a power-of-two mask.
static SAMPLE_MASK: AtomicU64 = AtomicU64::new(127);
static SPAN_THRESHOLD_US: AtomicU64 = AtomicU64::new(100);

/// Whether a global recorder is installed — the hot-path gate every
/// capture hook checks first.
#[inline]
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Whether `trace` falls in the installed recorder's head sample.
/// `false` when no recorder is live.
#[inline]
pub(crate) fn head_sampled(trace: TraceId) -> bool {
    recording() && trace.0 & SAMPLE_MASK.load(Ordering::Relaxed) == 0
}

/// The installed recorder's slow-span capture threshold (µs).
#[inline]
pub(crate) fn span_threshold_us() -> u64 {
    SPAN_THRESHOLD_US.load(Ordering::Relaxed)
}

/// Install `recorder` as the process-global flight recorder. Capture
/// hooks in the tracing, lockrank and fault layers start feeding it
/// immediately. Replaces any previous recorder (last install wins).
pub fn install_recorder(recorder: Arc<FlightRecorder>) {
    let every = recorder.config.span_sample_every.clamp(1, 1 << 63);
    SAMPLE_MASK.store(every.next_power_of_two() - 1, Ordering::Relaxed);
    SPAN_THRESHOLD_US.store(recorder.config.span_min_elapsed_us, Ordering::Relaxed);
    *RECORDER.write().unwrap_or_else(|e| e.into_inner()) = Some(recorder);
    RECORDING.store(true, Ordering::Release);
}

/// Remove and return the global recorder, stopping capture.
pub fn uninstall_recorder() -> Option<Arc<FlightRecorder>> {
    RECORDING.store(false, Ordering::Release);
    RECORDER.write().unwrap_or_else(|e| e.into_inner()).take()
}

/// The currently installed global recorder, if any.
pub fn recorder() -> Option<Arc<FlightRecorder>> {
    RECORDER
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
        .cloned()
}

/// Fire a dump on the global recorder. Emits an `obs.flight_dump`
/// event (so the trigger itself lands in traces) and returns the
/// captured black box, or `None` when no recorder is installed.
pub fn trigger_dump(trigger: &str, trace: Option<TraceId>) -> Option<BlackBox> {
    let recorder = recorder()?;
    let black_box = recorder.dump(trigger, trace);
    crate::trace::event_with(
        "obs.flight_dump",
        &[("trigger", &trigger), ("seq", &black_box.seq)],
    );
    Some(black_box)
}

fn thread_name() -> String {
    std::thread::current().name().unwrap_or("?").to_string()
}

/// Capture hook for the tracing layer: a span closed and passed the
/// sampling gate. Takes ownership — the caller built the record and
/// hands it over, so admission costs no clone.
pub(crate) fn note_span(record: SpanRecord) {
    if !recording() {
        return;
    }
    if let Some(r) = recorder() {
        r.push(FlightRecord::Span(record));
    }
}

/// Capture hook for the tracing layer: an event fired and passed the
/// sampling gate. Takes ownership like [`note_span`].
pub(crate) fn note_event(record: EventRecord) {
    if !recording() {
        return;
    }
    if let Some(r) = recorder() {
        r.push(FlightRecord::Event(record));
    }
}

/// Capture hook for the fault layer: a failpoint was evaluated.
/// Public because `crates/fault` cannot name `pub(crate)` items; the
/// one-load disabled path makes it safe to call unconditionally.
pub fn note_failpoint(name: &str, fired: bool) {
    if !recording() {
        return;
    }
    if let Some(r) = recorder() {
        r.push(FlightRecord::Failpoint {
            name: name.to_string(),
            fired,
            at_us: monotonic_us(),
            thread: thread_name(),
        });
    }
}

/// Capture hook for the lockrank layer: a ranked lock was acquired or
/// released. Rides the rank-check path, so lock capture shares the
/// rank checks' enablement (on under `debug_assertions` by default).
pub(crate) fn note_lock(name: &'static str, rank: LockRank, acquired: bool) {
    if !recording() {
        return;
    }
    if let Some(r) = recorder() {
        r.push(FlightRecord::Lock {
            name: name.to_string(),
            rank: rank.name().to_string(),
            acquired,
            at_us: monotonic_us(),
            thread: thread_name(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::test_support::tracing_lock;

    #[test]
    fn records_round_trip_through_json() {
        let records = vec![
            FlightRecord::Failpoint {
                name: "serve.execute".into(),
                fired: true,
                at_us: 10,
                thread: "serve-worker-0".into(),
            },
            FlightRecord::Lock {
                name: "serve.warehouse".into(),
                rank: "Warehouse".into(),
                acquired: true,
                at_us: 11,
                thread: "serve-worker-0".into(),
            },
            FlightRecord::Metric {
                name: "serve.serve_hits_total".into(),
                delta: 3,
                at_us: 12,
            },
        ];
        for record in records {
            let text = record.to_json().render();
            assert_eq!(
                FlightRecord::from_json(&Json::parse(&text).unwrap()),
                Some(record)
            );
        }
    }

    #[test]
    fn ring_evicts_oldest_per_shard() {
        let recorder = FlightRecorder::new(RecorderConfig {
            capacity: 0, // clamps to 8 per shard
            ..RecorderConfig::default()
        });
        for i in 0..20u64 {
            recorder.push(FlightRecord::Metric {
                name: "m".into(),
                delta: i,
                at_us: i,
            });
        }
        // This thread maps to one shard, so capacity 8 applies.
        assert_eq!(recorder.records().len(), 8);
        assert_eq!(recorder.dropped(), 12);
    }

    #[test]
    fn dump_windows_and_round_trips() {
        let _guard = tracing_lock();
        let recorder = FlightRecorder::new(RecorderConfig {
            capacity: 1024,
            window: Duration::from_secs(3600),
            max_dumps: 2,
            ..RecorderConfig::default()
        });
        recorder.push(FlightRecord::Metric {
            name: "old".into(),
            delta: 1,
            at_us: 0, // will survive: window is an hour
        });
        recorder.push(FlightRecord::Failpoint {
            name: "oplog.append".into(),
            fired: false,
            at_us: monotonic_us(),
            thread: "main".into(),
        });
        let registry = MetricsRegistry::new();
        registry.counter("hits").add(5);
        let snap_owner = Arc::new(registry);
        let weak = Arc::downgrade(&snap_owner);
        recorder.attach_metrics("test", Box::new(move || Some(weak.upgrade()?.snapshot())));
        snap_owner.counter("hits").add(2);
        let black_box = recorder.dump("manual", Some(TraceId(42)));
        assert_eq!(black_box.trigger, "manual");
        assert_eq!(black_box.trace, Some(TraceId(42)));
        assert_eq!(black_box.records.len(), 2);
        assert_eq!(black_box.metrics.len(), 1);
        assert_eq!(black_box.metrics[0].1.counters["hits"], 2);
        let parsed = BlackBox::parse(&black_box.to_jsonl()).expect("parses");
        assert_eq!(parsed, black_box);
        // Retention caps at max_dumps.
        recorder.dump("a", None);
        recorder.dump("b", None);
        let dumps = recorder.dumps();
        assert_eq!(dumps.len(), 2);
        assert_eq!(dumps[1].trigger, "b");
        assert_eq!(recorder.last_dump().map(|d| d.trigger), Some("b".into()));
    }

    #[test]
    fn metric_sampling_records_deltas_and_drops_dead_sources() {
        let recorder = FlightRecorder::new(RecorderConfig::default());
        let registry = Arc::new(MetricsRegistry::new());
        let weak = Arc::downgrade(&registry);
        recorder.attach_metrics("serve", Box::new(move || Some(weak.upgrade()?.snapshot())));
        registry.counter("served_total").add(3);
        recorder.sample_metrics();
        let metrics: Vec<_> = recorder
            .records()
            .into_iter()
            .filter_map(|r| match r {
                FlightRecord::Metric { name, delta, .. } => Some((name, delta)),
                _ => None,
            })
            .collect();
        assert_eq!(metrics, vec![("serve.served_total".to_string(), 3)]);
        // Second sample: no movement, no records.
        recorder.sample_metrics();
        assert_eq!(recorder.records().len(), 1);
        drop(registry);
        recorder.sample_metrics(); // dead source pruned, no panic
        assert!(recorder
            .sources
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_empty());
    }

    #[test]
    fn global_install_gates_capture() {
        let _guard = tracing_lock();
        uninstall_recorder();
        assert!(!recording());
        assert!(trigger_dump("manual", None).is_none());
        let recorder = Arc::new(FlightRecorder::new(RecorderConfig::default()));
        install_recorder(recorder.clone());
        assert!(recording());
        note_failpoint("serve.execute", true);
        let black_box = trigger_dump("manual", None).expect("recorder installed");
        assert!(black_box
            .records
            .iter()
            .any(|r| matches!(r, FlightRecord::Failpoint { name, .. } if name == "serve.execute")));
        uninstall_recorder();
        assert!(!recording());
    }

    #[test]
    fn head_sampling_gates_capture_and_promotion_bypasses_it() {
        let _guard = tracing_lock();
        crate::trace::uninstall(); // recorder-only capture
        let recorder = Arc::new(FlightRecorder::new(RecorderConfig {
            span_sample_every: u64::MAX,   // no trace is head-sampled
            span_min_elapsed_us: u64::MAX, // no slow-outlier capture
            ..RecorderConfig::default()
        }));
        install_recorder(Arc::clone(&recorder));

        // An unsampled healthy trace leaves nothing behind.
        {
            let mut span = crate::trace::span("hot.request");
            span.record("k", "v");
            crate::trace::event("hot.cache_hit");
        }
        assert!(
            recorder.records().is_empty(),
            "unsampled trace must not enter the ring: {:?}",
            recorder.records()
        );

        // Promotion pulls the rest of the trace in; span-less events
        // are always captured.
        {
            let _span = crate::trace::span("hot.request");
            crate::trace::promote_trace();
            crate::trace::event("hot.failure");
        }
        crate::trace::event("standalone.signal");
        let records = recorder.records();
        assert!(records
            .iter()
            .any(|r| matches!(r, FlightRecord::Span(s) if s.name == "hot.request")));
        assert!(records
            .iter()
            .any(|r| matches!(r, FlightRecord::Event(e) if e.name == "hot.failure")));
        assert!(records
            .iter()
            .any(|r| matches!(r, FlightRecord::Event(e) if e.name == "standalone.signal")));
        uninstall_recorder();
    }

    #[test]
    fn registered_threads_capture_slow_outlier_spans() {
        let _guard = tracing_lock();
        crate::trace::uninstall();
        let recorder = Arc::new(FlightRecorder::new(RecorderConfig {
            span_sample_every: u64::MAX,
            span_min_elapsed_us: 0, // every span is a "slow" outlier
            ..RecorderConfig::default()
        }));
        install_recorder(Arc::clone(&recorder));
        {
            // Unregistered thread: not even a zero threshold captures.
            let _span = crate::trace::span("client.wrapper");
        }
        assert!(recorder.records().is_empty());
        let worker = crate::watchdog::register_worker("ring-worker", Duration::ZERO);
        {
            let mut span = crate::trace::span("worker.op");
            span.record("epoch", 7); // registered threads keep fields
        }
        let records = recorder.records();
        assert!(
            records.iter().any(|r| matches!(
                r,
                FlightRecord::Span(s) if s.name == "worker.op" && s.field("epoch") == Some("7")
            )),
            "slow-outlier span must be captured with fields: {records:?}"
        );
        drop(worker);
        uninstall_recorder();
    }

    #[test]
    fn parse_rejects_non_blackbox_and_skips_garbage() {
        assert!(BlackBox::parse("").is_none());
        assert!(BlackBox::parse("{\"kind\":\"span\"}").is_none());
        let black_box = BlackBox {
            seq: 0,
            trigger: "t".into(),
            trace: None,
            at_us: 1,
            threads: Vec::new(),
            metrics: Vec::new(),
            records: Vec::new(),
        };
        let mut text = black_box.to_jsonl();
        text.push_str("not json\n");
        assert_eq!(BlackBox::parse(&text), Some(black_box));
    }
}
