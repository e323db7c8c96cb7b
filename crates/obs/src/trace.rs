//! Structured tracing: spans, events, and the global subscriber.
//!
//! The design optimises the *disabled* path: when no subscriber is
//! installed (or tracing is switched off) [`span`] and [`event`] cost
//! one relaxed atomic load and allocate nothing — no `Instant` read,
//! no thread-local access, no field vector. Serving hot paths can
//! therefore stay instrumented unconditionally.
//!
//! When enabled, spans form a tree: a thread-local stack tracks the
//! current span, new spans parent onto it and inherit its trace id.
//! A span opened on another thread starts a trace of its own; related
//! traces are linked by fields (a coalesced serve request records its
//! leader's `link_trace`/`link_span`).
//!
//! Completed spans are reported to the installed [`Subscriber`] on
//! drop; children therefore arrive before their parents, and
//! collectors reassemble the tree from `(trace, parent)` links.
//!
//! When only the flight recorder is live (no subscriber), span and
//! event capture is head-sampled per trace — see the recorder module
//! docs for the admission rules. Failure paths call [`promote_trace`]
//! to pull their whole trace into the recorder regardless of the
//! sample; trace ids and context propagation work identically for
//! sampled and unsampled traces, so promotion is always possible.

use crate::json::Json;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// Identifies one end-to-end request across threads and layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Identifies one span within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// The propagatable identity of a live span: enough to parent remote
/// work onto it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// The span itself.
    pub span: SpanId,
}

/// A completed span, as delivered to subscribers.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name (static, low-cardinality: `serve.request`, …).
    pub name: String,
    /// The owning trace.
    pub trace: TraceId,
    /// This span's id.
    pub id: SpanId,
    /// Parent span within the same trace, if any.
    pub parent: Option<SpanId>,
    /// Start offset from process start (µs, monotonic).
    pub start_us: u64,
    /// Wall duration (µs, monotonic).
    pub elapsed_us: u64,
    /// Name of the thread the span closed on.
    pub thread: String,
    /// Attached key/value fields, in insertion order.
    pub fields: Vec<(String, String)>,
}

/// A point-in-time event, as delivered to subscribers.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Event name (`warehouse.epoch_bump`, …).
    pub name: String,
    /// The enclosing trace, if the event fired inside a span.
    pub trace: Option<TraceId>,
    /// The enclosing span, if any.
    pub span: Option<SpanId>,
    /// Offset from process start (µs, monotonic).
    pub at_us: u64,
    /// Attached key/value fields, in insertion order.
    pub fields: Vec<(String, String)>,
}

/// Fields travel as an array of `[key, value]` pairs, not an object:
/// a JSON object would sort keys and collapse duplicates, losing the
/// insertion order the records promise.
fn fields_to_json(fields: &[(String, String)]) -> Json {
    Json::Arr(
        fields
            .iter()
            .map(|(k, v)| Json::Arr(vec![Json::Str(k.clone()), Json::Str(v.clone())]))
            .collect(),
    )
}

fn fields_from_json(value: Option<&Json>) -> Vec<(String, String)> {
    match value {
        Some(Json::Arr(pairs)) => pairs
            .iter()
            .filter_map(|pair| match pair {
                Json::Arr(kv) if kv.len() == 2 => {
                    Some((kv[0].as_str()?.to_string(), kv[1].as_str()?.to_string()))
                }
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

impl SpanRecord {
    /// Encode as a single-line JSON object (the JSONL wire shape).
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            ("kind", Json::from("span")),
            ("name", Json::from(self.name.as_str())),
            ("trace", Json::from(self.trace.0)),
            ("id", Json::from(self.id.0)),
            ("start_us", Json::from(self.start_us)),
            ("elapsed_us", Json::from(self.elapsed_us)),
            ("thread", Json::from(self.thread.as_str())),
            ("fields", fields_to_json(&self.fields)),
        ];
        if let Some(parent) = self.parent {
            obj.push(("parent", Json::from(parent.0)));
        }
        Json::obj(obj)
    }

    /// Decode the shape produced by [`SpanRecord::to_json`].
    pub fn from_json(value: &Json) -> Option<SpanRecord> {
        if value.get("kind")?.as_str()? != "span" {
            return None;
        }
        Some(SpanRecord {
            name: value.get("name")?.as_str()?.to_string(),
            trace: TraceId(value.get("trace")?.as_u64()?),
            id: SpanId(value.get("id")?.as_u64()?),
            parent: value.get("parent").and_then(Json::as_u64).map(SpanId),
            start_us: value.get("start_us")?.as_u64()?,
            elapsed_us: value.get("elapsed_us")?.as_u64()?,
            thread: value.get("thread")?.as_str()?.to_string(),
            fields: fields_from_json(value.get("fields")),
        })
    }

    /// The value of field `key`, if attached.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

impl EventRecord {
    /// Encode as a single-line JSON object (the JSONL wire shape).
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            ("kind", Json::from("event")),
            ("name", Json::from(self.name.as_str())),
            ("at_us", Json::from(self.at_us)),
            ("fields", fields_to_json(&self.fields)),
        ];
        if let Some(trace) = self.trace {
            obj.push(("trace", Json::from(trace.0)));
        }
        if let Some(span) = self.span {
            obj.push(("span", Json::from(span.0)));
        }
        Json::obj(obj)
    }

    /// Decode the shape produced by [`EventRecord::to_json`].
    pub fn from_json(value: &Json) -> Option<EventRecord> {
        if value.get("kind")?.as_str()? != "event" {
            return None;
        }
        Some(EventRecord {
            name: value.get("name")?.as_str()?.to_string(),
            trace: value.get("trace").and_then(Json::as_u64).map(TraceId),
            span: value.get("span").and_then(Json::as_u64).map(SpanId),
            at_us: value.get("at_us")?.as_u64()?,
            fields: fields_from_json(value.get("fields")),
        })
    }

    /// The value of field `key`, if attached.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Receives completed spans and events. Implementations must be cheap
/// and non-blocking — they run inline on serving threads.
pub trait Subscriber: Send + Sync {
    /// A span closed.
    fn on_span(&self, span: &SpanRecord);
    /// An event fired.
    fn on_event(&self, event: &EventRecord);
}

/// Fast gate: a single relaxed load decides the disabled path.
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static SUBSCRIBER: RwLock<Option<Arc<dyn Subscriber>>> = RwLock::new(None);

fn process_start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// Monotonic microseconds since process start — the timestamp basis
/// of every record. Also the sanctioned clock for code that the
/// `no-raw-timing` lint keeps away from `Instant::now()`.
pub fn monotonic_us() -> u64 {
    process_start().elapsed().as_micros().min(u64::MAX as u128) as u64
}

thread_local! {
    static CURRENT: Cell<Option<SpanContext>> = const { Cell::new(None) };
    /// Whether the innermost live trace on this thread is being
    /// captured by the flight recorder: head-sampled at the root or
    /// promoted mid-flight by [`promote_trace`].
    static TRACE_SAMPLED: Cell<bool> = const { Cell::new(false) };
    /// Thread-local id blocks carved from the global counters:
    /// `(next, end)`. Two plain increments replace two contended
    /// `fetch_add`s per span on the hot path.
    static TRACE_BLOCK: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    static SPAN_BLOCK: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Ids handed to one thread per refill. Head sampling is a modulus of
/// the trace id, so as long as this is a multiple of the sample rate
/// every block carries its exact share of sampled ids.
const ID_BLOCK: u64 = 1024;

#[inline]
fn next_id(block: &'static std::thread::LocalKey<Cell<(u64, u64)>>, global: &AtomicU64) -> u64 {
    block.with(|cell| {
        let (next, end) = cell.get();
        if next < end {
            cell.set((next + 1, end));
            next
        } else {
            let start = global.fetch_add(ID_BLOCK, Ordering::Relaxed);
            cell.set((start + 1, start + ID_BLOCK));
            start
        }
    })
}

/// Mark the current thread's live trace as interesting: from here on,
/// its spans and events bypass the flight recorder's head sampling
/// and are captured unconditionally (until the enclosing root span
/// closes). Failure paths call this at the point an error is detected
/// so the incident's trace is always in the black box. No-op when
/// nothing is being captured or no span is open.
pub fn promote_trace() {
    if !active() {
        return;
    }
    if CURRENT.with(Cell::get).is_some() {
        TRACE_SAMPLED.with(|s| s.set(true));
    }
}

/// Install `subscriber` and enable tracing. Replaces any previous
/// subscriber (last install wins).
pub fn install(subscriber: Arc<dyn Subscriber>) {
    // Touch the clock before enabling so the first span does not pay
    // for OnceLock initialisation.
    let _ = process_start();
    *SUBSCRIBER.write().unwrap_or_else(|e| e.into_inner()) = Some(subscriber);
    ENABLED.store(true, Ordering::Release);
}

/// Disable tracing and drop the subscriber, returning it (so tests
/// and exporters can drain what was collected).
pub fn uninstall() -> Option<Arc<dyn Subscriber>> {
    ENABLED.store(false, Ordering::Release);
    SUBSCRIBER.write().unwrap_or_else(|e| e.into_inner()).take()
}

/// Temporarily pause dispatch without removing the subscriber.
pub fn set_enabled(on: bool) {
    let has_subscriber = SUBSCRIBER
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .is_some();
    ENABLED.store(on && has_subscriber, Ordering::Release);
}

/// Whether tracing is currently live.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether span/event machinery must run at all: a subscriber is
/// enabled *or* the flight recorder is capturing. Two relaxed loads on
/// the fully-disabled path.
#[inline]
fn active() -> bool {
    enabled() || crate::recorder::recording()
}

fn dispatch_span(record: &SpanRecord) {
    if let Some(sub) = SUBSCRIBER
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
    {
        sub.on_span(record);
    }
}

fn dispatch_event(record: &EventRecord) {
    if let Some(sub) = SUBSCRIBER
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
    {
        sub.on_event(record);
    }
}

/// The context of the innermost live span on this thread, for
/// propagation across thread (or queue) boundaries.
pub fn current_context() -> Option<SpanContext> {
    if !active() {
        return None;
    }
    CURRENT.with(Cell::get)
}

struct LiveSpan {
    name: &'static str,
    ctx: SpanContext,
    parent: Option<SpanId>,
    /// The thread-local context to restore on drop (this thread's
    /// previous innermost span).
    restore: Option<SpanContext>,
    /// The thread's trace-sampling flag to restore on drop.
    sampled_restore: bool,
    /// This span's depth on the watchdog's span-path stack, or
    /// `usize::MAX` on unregistered threads (stack untouched — nobody
    /// would ever read it there).
    wd_depth: usize,
    start_us: u64,
    fields: Vec<(String, String)>,
}

/// RAII handle for an open span; records to the subscriber on drop.
///
/// A disabled tracer hands out inert guards (`inner == None`): no
/// allocation, no clock read, no thread-local traffic.
pub struct SpanGuard {
    inner: Option<LiveSpan>,
}

impl SpanGuard {
    /// Attach a key/value field (no-op when the span is inert).
    ///
    /// Field capture follows the recorder's sampling decision —
    /// building the strings only pays off when something will keep
    /// them. Watchdog-registered threads always store fields so that
    /// slow-outlier spans surface fully annotated; elsewhere, a span
    /// promoted *after* a `record` call surfaces without that field.
    pub fn record(&mut self, key: &str, value: impl std::fmt::Display) {
        if let Some(live) = self.inner.as_mut() {
            if enabled() || TRACE_SAMPLED.with(Cell::get) || live.wd_depth != usize::MAX {
                live.fields.push((key.to_string(), value.to_string()));
            }
        }
    }

    /// This span's context, for cross-thread propagation. `None` when
    /// tracing was disabled at creation.
    pub fn context(&self) -> Option<SpanContext> {
        self.inner.as_ref().map(|l| l.ctx)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.inner.take() else {
            return;
        };
        CURRENT.with(|c| c.set(live.restore));
        let sampled = TRACE_SAMPLED.with(|s| {
            let now = s.get();
            s.set(live.sampled_restore);
            now
        });
        if live.wd_depth != usize::MAX {
            crate::watchdog::span_closed(live.wd_depth);
        }
        if !active() {
            return; // disabled mid-span: restore the stack, skip dispatch
        }
        // Ring admission: sampled (or promoted) traces always enter;
        // unsampled spans on watchdog-registered threads enter when
        // they ran long enough to count as slow outliers. Everything
        // else exits here without building a record — the hot path of
        // recorder-only capture.
        let recording = crate::recorder::recording();
        let mut ring = recording && sampled;
        let mut elapsed_us = None;
        if recording && !ring && live.wd_depth != usize::MAX {
            let e = monotonic_us().saturating_sub(live.start_us);
            ring = e >= crate::recorder::span_threshold_us();
            elapsed_us = Some(e);
        }
        if !enabled() && !ring {
            return;
        }
        // start_us == 0 means the open skipped the clock (unsampled,
        // unregistered, subscriber off) and the trace was promoted
        // mid-span: anchor the span at its close time, duration
        // unknown.
        let (start_us, elapsed_us) = if live.start_us == 0 {
            (monotonic_us(), 0)
        } else {
            (
                live.start_us,
                elapsed_us.unwrap_or_else(|| monotonic_us().saturating_sub(live.start_us)),
            )
        };
        let record = SpanRecord {
            name: live.name.to_string(),
            trace: live.ctx.trace,
            id: live.ctx.span,
            parent: live.parent,
            start_us,
            elapsed_us,
            thread: std::thread::current().name().unwrap_or("?").to_string(),
            fields: live.fields,
        };
        if enabled() {
            dispatch_span(&record);
        }
        if ring {
            crate::recorder::note_span(record);
        }
    }
}

fn open(name: &'static str) -> SpanGuard {
    if !active() {
        return SpanGuard { inner: None };
    }
    let parent = CURRENT.with(Cell::get);
    let ctx = SpanContext {
        trace: parent
            .map(|p| p.trace)
            .unwrap_or_else(|| TraceId(next_id(&TRACE_BLOCK, &NEXT_TRACE))),
        span: SpanId(next_id(&SPAN_BLOCK, &NEXT_SPAN)),
    };
    let restore = CURRENT.with(|c| c.replace(Some(ctx)));
    let (sampled, sampled_restore) = TRACE_SAMPLED.with(|s| {
        let prev = s.get();
        // Nested spans inherit the enclosing decision (which may have
        // been promoted); fresh roots — and cross-thread children,
        // whose decision is a pure function of the trace id — decide
        // by head sample.
        let sampled = (prev && restore.is_some()) || crate::recorder::head_sampled(ctx.trace);
        s.set(sampled);
        (sampled, prev)
    });
    let wd_depth = if crate::watchdog::registered() {
        crate::watchdog::span_opened(name, ctx.trace)
    } else {
        usize::MAX
    };
    // Read the clock only when this span can be captured as-is:
    // subscriber live, trace sampled, or a registered thread (which
    // needs the duration for the slow-outlier threshold). A span that
    // skipped the clock and gets *promoted* later surfaces at its
    // close time with zero duration (start_us == 0 sentinel).
    let start_us = if enabled() || sampled || wd_depth != usize::MAX {
        monotonic_us()
    } else {
        0
    };
    SpanGuard {
        inner: Some(LiveSpan {
            name,
            ctx,
            parent: parent.map(|p| p.span),
            restore,
            sampled_restore,
            wd_depth,
            start_us,
            fields: Vec::new(),
        }),
    }
}

/// Open a span. Parents onto the innermost live span on this thread
/// (inheriting its trace id) or starts a fresh trace at top level.
///
/// The returned [`SpanGuard`] closes the span on drop; fields attach
/// with [`SpanGuard::record`]. With no subscriber installed the guard
/// is inert and costs one atomic load.
///
/// ```
/// use std::sync::Arc;
/// let _guard = obs::test_support::tracing_lock();
/// let collector = Arc::new(obs::RingCollector::new(16));
/// obs::install(collector.clone());
/// {
///     let mut outer = obs::span("serve.request");
///     outer.record("kind", "cube");
///     let _inner = obs::span("olap.cube_build"); // same trace id
/// }
/// obs::uninstall();
/// let spans = collector.spans();
/// assert_eq!(spans.len(), 2);
/// assert_eq!(spans[0].trace, spans[1].trace);
/// ```
pub fn span(name: &'static str) -> SpanGuard {
    open(name)
}

/// Fire an event with fields, attributed to the innermost live span.
pub fn event_with(name: &'static str, fields: &[(&str, &dyn std::fmt::Display)]) {
    if !active() {
        return;
    }
    let current = CURRENT.with(Cell::get);
    // Ring admission: events outside any span are deliberate,
    // low-rate signals (stalls, breaker trips, dump markers) and
    // always land; in-span events follow their trace's sampling
    // decision and exit here — before any allocation — when it said no.
    let ring = crate::recorder::recording() && (current.is_none() || TRACE_SAMPLED.with(Cell::get));
    if !enabled() && !ring {
        return;
    }
    let record = EventRecord {
        name: name.to_string(),
        trace: current.map(|c| c.trace),
        span: current.map(|c| c.span),
        at_us: monotonic_us(),
        fields: fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    };
    if enabled() {
        dispatch_event(&record);
    }
    if ring {
        crate::recorder::note_event(record);
    }
}

/// Fire a field-less event.
pub fn event(name: &'static str) {
    event_with(name, &[]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::RingCollector;
    use crate::test_support::tracing_lock;

    #[test]
    fn disabled_tracer_is_inert() {
        let _guard = tracing_lock();
        uninstall();
        assert!(!enabled());
        let mut s = span("never.recorded");
        s.record("k", "v");
        assert!(s.context().is_none());
        assert!(current_context().is_none());
        event("never.seen");
    }

    #[test]
    fn spans_nest_and_share_a_trace() {
        let _guard = tracing_lock();
        let collector = Arc::new(RingCollector::new(64));
        install(collector.clone());
        {
            let root = span("root");
            let root_ctx = root.context().unwrap();
            {
                let child = span("child");
                let child_ctx = child.context().unwrap();
                assert_eq!(child_ctx.trace, root_ctx.trace);
                event("inside");
            }
        }
        uninstall();
        let spans = collector.spans();
        assert_eq!(spans.len(), 2);
        // Children close first.
        assert_eq!(spans[0].name, "child");
        assert_eq!(spans[1].name, "root");
        assert_eq!(spans[0].trace, spans[1].trace);
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert_eq!(spans[1].parent, None);
        let events = collector.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].span, Some(spans[0].id));
    }

    #[test]
    fn records_round_trip_through_json() {
        let span = SpanRecord {
            name: "serve.request".into(),
            trace: TraceId(9),
            id: SpanId(11),
            parent: Some(SpanId(3)),
            start_us: 120,
            elapsed_us: 450,
            thread: "serve-worker-0".into(),
            fields: vec![("kind".into(), "mdx".into())],
        };
        assert_eq!(
            SpanRecord::from_json(&Json::parse(&span.to_json().render()).unwrap()),
            Some(span.clone())
        );
        let event = EventRecord {
            name: "warehouse.epoch_bump".into(),
            trace: None,
            span: None,
            at_us: 77,
            fields: vec![("epoch".into(), "4".into())],
        };
        assert_eq!(
            EventRecord::from_json(&Json::parse(&event.to_json().render()).unwrap()),
            Some(event)
        );
        // Span json never decodes as an event and vice versa.
        assert!(EventRecord::from_json(&span.to_json()).is_none());
    }
}
