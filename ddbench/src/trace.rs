//! The benchmark's own spans, recorded around its calls into each
//! layer's public functions. Kept in memory; written as JSON lines
//! when the run ends. Nothing here reaches into the crates under
//! test.

use obs::Json;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The timed op this span belongs to; spans of one op share it.
    /// Set-up and layer-probe spans carry `u32::MAX`.
    pub op: u32,
    /// A count the callee returned at this boundary (rows scanned,
    /// records applied, bytes written, ...); 0 when it returned none.
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub const NO_OP: u32 = u32::MAX;

/// Handle returned by [`Tracer::begin`]; `None` while tracing is off.
#[derive(Clone, Copy)]
pub struct Open(Option<u32>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: NO_OP,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "toggling the tracer inside a span");
        self.enabled = enabled;
    }

    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
            count: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        self.end_with(open, 0);
    }

    pub fn end_with(&mut self, open: Open, count: u64) {
        let Some(id) = open.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(self.stack.pop(), Some(id), "spans must nest");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.count = count;
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Durations (ms) of every span called `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Sum of the counts carried by spans called `name`.
    pub fn count_sum(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.count)
            .sum()
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (span, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            let line = Json::obj([
                ("id", Json::from(id)),
                ("name", Json::from(span.name)),
                (
                    "op",
                    if span.op == NO_OP {
                        Json::Null
                    } else {
                        Json::from(span.op as usize)
                    },
                ),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::from(p as usize)),
                ),
                ("start_ns", Json::from(span.start_ns)),
                ("end_ns", Json::from(span.end_ns)),
                ("self_ns", Json::from(*own)),
                ("count", Json::from(span.count)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// A span's self time: its duration minus the part of that interval
/// its direct children cover (overlapping children are not counted
/// twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent as usize].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            op: 0,
            count: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span(0, 100, None),    // 0: root
            span(10, 30, Some(0)), // 1
            span(40, 70, Some(0)), // 2
            span(45, 60, Some(2)), // 3: grandchild, only counts against 2
            span(60, 80, Some(0)), // 4: overlaps 2 by 10
            span(200, 250, None),  // 5: childless
        ];
        // Root is covered by 10..30 and 40..80: 60 of its 100.
        assert_eq!(self_times(&spans), vec![40, 20, 15, 15, 20, 50]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        let open = t.begin("a");
        t.end(open);
        assert_eq!(t.span("b", || 7), 7);
        assert!(t.spans.is_empty());
        t.set_enabled(true);
        t.set_op(3);
        let outer = t.begin("outer");
        t.span("inner", || ());
        t.end_with(outer, 9);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].op, 3);
        assert_eq!(t.count_sum("outer"), 9);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
    }
}
