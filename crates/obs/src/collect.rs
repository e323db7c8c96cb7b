//! Subscribers: ring buffer, human-readable writer, JSONL exporter.

use crate::json::Json;
use crate::trace::{EventRecord, SpanId, SpanRecord, Subscriber, TraceId};
use std::collections::VecDeque;
use std::io::Write;
use std::sync::Mutex;

/// One collected record, in arrival order.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A completed span.
    Span(SpanRecord),
    /// A fired event.
    Event(EventRecord),
}

impl Record {
    /// Encode as a single-line JSON object.
    pub fn to_json(&self) -> Json {
        match self {
            Record::Span(s) => s.to_json(),
            Record::Event(e) => e.to_json(),
        }
    }

    /// Decode either record shape from its JSON form.
    pub fn from_json(value: &Json) -> Option<Record> {
        SpanRecord::from_json(value)
            .map(Record::Span)
            .or_else(|| EventRecord::from_json(value).map(Record::Event))
    }
}

/// A bounded in-memory collector: keeps the most recent `capacity`
/// records, dropping the oldest under pressure (and counting drops).
/// The default collector for tests, examples and live inspection.
pub struct RingCollector {
    capacity: usize,
    inner: Mutex<RingState>,
}

#[derive(Default)]
struct RingState {
    records: VecDeque<Record>,
    dropped: u64,
}

impl RingCollector {
    /// A collector retaining at most `capacity` records.
    pub fn new(capacity: usize) -> RingCollector {
        RingCollector {
            capacity: capacity.max(1),
            inner: Mutex::new(RingState::default()),
        }
    }

    fn push(&self, record: Record) {
        let mut state = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if state.records.len() >= self.capacity {
            state.records.pop_front();
            state.dropped += 1;
        }
        state.records.push_back(record);
    }

    /// Copy of every retained record, in arrival order.
    pub fn records(&self) -> Vec<Record> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .records
            .iter()
            .cloned()
            .collect()
    }

    /// Retained spans only, in arrival (i.e. completion) order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.records()
            .into_iter()
            .filter_map(|r| match r {
                Record::Span(s) => Some(s),
                Record::Event(_) => None,
            })
            .collect()
    }

    /// Retained events only, in arrival order.
    pub fn events(&self) -> Vec<EventRecord> {
        self.records()
            .into_iter()
            .filter_map(|r| match r {
                Record::Event(e) => Some(e),
                Record::Span(_) => None,
            })
            .collect()
    }

    /// Retained spans of one trace. The subscriber is process-global,
    /// so a collector also receives whatever concurrent threads emit;
    /// a caller that counts spans roots its work in a span, takes the
    /// trace from [`SpanGuard::context`](crate::SpanGuard::context)
    /// and reads only that trace back.
    pub fn spans_in(&self, trace: TraceId) -> Vec<SpanRecord> {
        let mut spans = self.spans();
        spans.retain(|s| s.trace == trace);
        spans
    }

    /// Retained events fired inside one trace (see
    /// [`spans_in`](RingCollector::spans_in)).
    pub fn events_in(&self, trace: TraceId) -> Vec<EventRecord> {
        let mut events = self.events();
        events.retain(|e| e.trace == Some(trace));
        events
    }

    /// Number of records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).dropped
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .records
            .len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drain the ring, returning everything retained so far.
    pub fn take(&self) -> Vec<Record> {
        std::mem::take(&mut self.inner.lock().unwrap_or_else(|e| e.into_inner()).records)
            .into_iter()
            .collect()
    }

    /// Render every retained record as JSONL (one object per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for record in self.records() {
            out.push_str(&record.to_json().render());
            out.push('\n');
        }
        out
    }
}

impl Subscriber for RingCollector {
    fn on_span(&self, span: &SpanRecord) {
        self.push(Record::Span(span.clone()));
    }

    fn on_event(&self, event: &EventRecord) {
        self.push(Record::Event(event.clone()));
    }
}

/// Direct children of `parent` among `spans` (same trace, linked
/// parent id) — the reassembly helper collectors and tests use, since
/// spans arrive in completion order, children first.
pub fn children_of<'a>(spans: &'a [SpanRecord], parent: &SpanRecord) -> Vec<&'a SpanRecord> {
    spans
        .iter()
        .filter(|s| s.trace == parent.trace && s.parent == Some(parent.id))
        .collect()
}

/// Render a completed trace as an indented tree (roots first), for
/// humans. Spans from other traces are ignored.
pub fn render_trace(spans: &[SpanRecord], trace: TraceId) -> String {
    fn emit(out: &mut String, spans: &[&SpanRecord], span: &SpanRecord, depth: usize) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!(
            "{} ({}µs, thread {})",
            span.name, span.elapsed_us, span.thread
        ));
        for (k, v) in &span.fields {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
        let mut kids: Vec<&&SpanRecord> =
            spans.iter().filter(|s| s.parent == Some(span.id)).collect();
        kids.sort_by_key(|s| s.start_us);
        for kid in kids {
            emit(out, spans, kid, depth + 1);
        }
    }
    let in_trace: Vec<&SpanRecord> = spans.iter().filter(|s| s.trace == trace).collect();
    // Roots: no parent, or a parent that never closed into this set.
    let ids: std::collections::HashSet<SpanId> = in_trace.iter().map(|s| s.id).collect();
    let mut roots: Vec<&&SpanRecord> = in_trace
        .iter()
        .filter(|s| s.parent.map(|p| !ids.contains(&p)).unwrap_or(true))
        .collect();
    roots.sort_by_key(|s| s.start_us);
    let mut out = String::new();
    for root in roots {
        emit(&mut out, &in_trace, root, 0);
    }
    out
}

/// Streams human-readable one-liners to any writer (stderr, a log
/// file). Lines are `<name> trace=<t> span=<s> <dur>µs k=v …`.
pub struct WriterSubscriber<W: Write + Send> {
    writer: Mutex<W>,
}

impl<W: Write + Send> WriterSubscriber<W> {
    /// Subscribe `writer` to the record stream.
    pub fn new(writer: W) -> WriterSubscriber<W> {
        WriterSubscriber {
            writer: Mutex::new(writer),
        }
    }

    /// Consume the subscriber and hand the writer back.
    pub fn into_inner(self) -> W {
        self.writer.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<W: Write + Send> Subscriber for WriterSubscriber<W> {
    fn on_span(&self, span: &SpanRecord) {
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let _ = write!(
            w,
            "span  {} trace={} span={} {}µs thread={}",
            span.name, span.trace.0, span.id.0, span.elapsed_us, span.thread
        );
        if let Some(parent) = span.parent {
            let _ = write!(w, " parent={}", parent.0);
        }
        for (k, v) in &span.fields {
            let _ = write!(w, " {k}={v}");
        }
        let _ = writeln!(w);
    }

    fn on_event(&self, event: &EventRecord) {
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let _ = write!(w, "event {} at={}µs", event.name, event.at_us);
        if let Some(trace) = event.trace {
            let _ = write!(w, " trace={}", trace.0);
        }
        for (k, v) in &event.fields {
            let _ = write!(w, " {k}={v}");
        }
        let _ = writeln!(w);
    }
}

/// Streams records as JSONL — one machine-readable JSON object per
/// line, parseable back into [`Record`]s with [`parse_jsonl`].
///
/// Each record is written under one lock acquisition (whole line +
/// newline), so concurrent subscribers interleave at line granularity
/// and never corrupt a record mid-line. The writer is flushed on drop
/// — a black-box dump or trace export that ends with the exporter
/// going out of scope cannot truncate buffered records.
pub struct JsonlExporter<W: Write + Send> {
    /// `Some` until [`into_inner`](JsonlExporter::into_inner) takes
    /// the writer (the indirection lets `Drop` flush without fighting
    /// the move).
    writer: Mutex<Option<W>>,
}

impl<W: Write + Send> JsonlExporter<W> {
    /// Export the record stream to `writer` as JSONL.
    pub fn new(writer: W) -> JsonlExporter<W> {
        JsonlExporter {
            writer: Mutex::new(Some(writer)),
        }
    }

    /// Flush the underlying writer (also happens on drop).
    pub fn flush(&self) {
        if let Some(w) = self
            .writer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_mut()
        {
            let _ = w.flush();
        }
    }

    /// Consume the exporter and hand the writer back.
    pub fn into_inner(self) -> W {
        self.writer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .expect("writer is present until into_inner consumes the exporter") // lint:allow(no-panic, "into_inner takes self by value, so the writer can only have been taken once")
    }
}

impl<W: Write + Send> Drop for JsonlExporter<W> {
    fn drop(&mut self) {
        self.flush();
    }
}

impl<W: Write + Send> Subscriber for JsonlExporter<W> {
    fn on_span(&self, span: &SpanRecord) {
        if let Some(w) = self
            .writer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_mut()
        {
            let _ = writeln!(w, "{}", span.to_json().render());
        }
    }

    fn on_event(&self, event: &EventRecord) {
        if let Some(w) = self
            .writer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_mut()
        {
            let _ = writeln!(w, "{}", event.to_json().render());
        }
    }
}

/// Parse a JSONL export back into records. Unparseable lines are
/// skipped (observability reads are best-effort).
pub fn parse_jsonl(text: &str) -> Vec<Record> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| Json::parse(l).as_ref().and_then(Record::from_json))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, trace: u64, id: u64, parent: Option<u64>, start: u64) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            trace: TraceId(trace),
            id: SpanId(id),
            parent: parent.map(SpanId),
            start_us: start,
            elapsed_us: 10,
            thread: "main".into(),
            fields: vec![],
        }
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let ring = RingCollector::new(2);
        for i in 0..4u64 {
            ring.on_span(&span("s", 1, i, None, i));
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 2);
        let spans = ring.spans();
        assert_eq!(spans[0].id, SpanId(2));
        assert_eq!(spans[1].id, SpanId(3));
        assert_eq!(ring.take().len(), 2);
        assert!(ring.is_empty());
    }

    #[test]
    fn trace_scoped_reads_ignore_other_traces() {
        let ring = RingCollector::new(8);
        ring.on_span(&span("mine", 1, 1, None, 0));
        ring.on_span(&span("theirs", 2, 2, None, 1));
        for trace in [Some(TraceId(1)), Some(TraceId(2)), None] {
            ring.on_event(&EventRecord {
                name: "e".into(),
                trace,
                span: None,
                at_us: 2,
                fields: vec![],
            });
        }
        let spans = ring.spans_in(TraceId(1));
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "mine");
        assert_eq!(ring.events_in(TraceId(1)).len(), 1);
        assert!(ring.spans_in(TraceId(3)).is_empty());
    }

    #[test]
    fn jsonl_round_trips_mixed_records() {
        let exporter = JsonlExporter::new(Vec::new());
        let s = span("serve.request", 1, 2, None, 5);
        let e = EventRecord {
            name: "cache.hit".into(),
            trace: Some(TraceId(1)),
            span: Some(SpanId(2)),
            at_us: 9,
            fields: vec![("key".into(), "fp×3".into())],
        };
        exporter.on_span(&s);
        exporter.on_event(&e);
        let text = String::from_utf8(exporter.into_inner()).unwrap();
        let records = parse_jsonl(&text);
        assert_eq!(records, vec![Record::Span(s), Record::Event(e)]);
    }

    #[test]
    fn tree_rendering_indents_children() {
        let spans = vec![
            span("child", 7, 2, Some(1), 3),
            span("grandchild", 7, 3, Some(2), 4),
            span("root", 7, 1, None, 1),
            span("other-trace", 8, 9, None, 0),
        ];
        let tree = render_trace(&spans, TraceId(7));
        assert!(tree.contains("root"));
        assert!(tree.contains("\n  child"));
        assert!(tree.contains("\n    grandchild"));
        assert!(!tree.contains("other-trace"));
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        assert_eq!(children_of(&spans, root).len(), 1);
    }

    /// A writer that remembers whether it was flushed.
    struct FlushProbe {
        flushed: std::sync::Arc<std::sync::atomic::AtomicBool>,
    }

    impl Write for FlushProbe {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.flushed
                .store(true, std::sync::atomic::Ordering::Relaxed);
            Ok(())
        }
    }

    #[test]
    fn jsonl_exporter_flushes_on_drop() {
        let flushed = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let exporter = JsonlExporter::new(FlushProbe {
            flushed: flushed.clone(),
        });
        exporter.on_event(&EventRecord {
            name: "e".into(),
            trace: None,
            span: None,
            at_us: 1,
            fields: vec![],
        });
        assert!(!flushed.load(std::sync::atomic::Ordering::Relaxed));
        drop(exporter);
        assert!(
            flushed.load(std::sync::atomic::Ordering::Relaxed),
            "drop must flush buffered records"
        );
    }

    #[test]
    fn concurrent_writers_interleave_at_line_granularity() {
        use std::sync::Arc;
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 50;
        let exporter = Arc::new(JsonlExporter::new(Vec::<u8>::new()));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let exporter = Arc::clone(&exporter);
                std::thread::Builder::new()
                    .name(format!("jsonl-writer-{t}"))
                    .spawn(move || {
                        for i in 0..PER_THREAD {
                            let id = t * PER_THREAD + i;
                            exporter.on_span(&span("concurrent", t + 1, id, None, i));
                            exporter.on_event(&EventRecord {
                                name: "tick".into(),
                                trace: Some(TraceId(t + 1)),
                                span: Some(SpanId(id)),
                                at_us: i,
                                // Escaped content must survive interleaving too.
                                fields: vec![("payload".into(), format!("line\n\"{id}\""))],
                            });
                        }
                    })
                    .expect("spawns")
            })
            .collect();
        for handle in handles {
            handle.join().expect("writer thread joins");
        }
        let exporter = Arc::try_unwrap(exporter).ok().expect("sole owner");
        let text = String::from_utf8(exporter.into_inner()).expect("utf8");
        let records = parse_jsonl(&text);
        // Lossless: every record from every thread survived intact.
        assert_eq!(records.len() as u64, THREADS * PER_THREAD * 2);
        let mut span_ids: Vec<u64> = records
            .iter()
            .filter_map(|r| match r {
                Record::Span(s) => Some(s.id.0),
                Record::Event(_) => None,
            })
            .collect();
        span_ids.sort_unstable();
        assert_eq!(span_ids, (0..THREADS * PER_THREAD).collect::<Vec<_>>());
        for record in &records {
            if let Record::Event(e) = record {
                let payload = e.field("payload").expect("payload field");
                assert!(payload.starts_with("line\n\""), "corrupted: {payload:?}");
            }
        }
    }

    #[test]
    fn writer_subscriber_formats_lines() {
        let w = WriterSubscriber::new(Vec::new());
        w.on_span(&span("s", 1, 2, Some(1), 0));
        w.on_event(&EventRecord {
            name: "e".into(),
            trace: None,
            span: None,
            at_us: 1,
            fields: vec![("k".into(), "v".into())],
        });
        let text = String::from_utf8(w.into_inner()).unwrap();
        assert!(text.contains("span  s trace=1 span=2"));
        assert!(text.contains("parent=1"));
        assert!(text.contains("event e at=1µs k=v"));
    }
}
