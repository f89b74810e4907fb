//! In-memory span recorder for the traced run.
//!
//! Spans are opened from the benchmark's own code around calls into one
//! layer's public functions. A span records its name, start, end, the span
//! that was open on the same thread when it began (its parent), and the
//! request it belongs to. Spans stay in memory until the run ends, when
//! [`Tracer::write_jsonl`] writes them out. A layer's *self time* is the
//! span's duration minus the part of it that child spans cover.
//!
//! With tracing off, [`Tracer::span`] returns an inert guard and records
//! nothing, so the untraced run pays one branch per call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Open a span that closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.span_for(name, None)
    }

    /// Open a span tagged with the request it serves.
    pub fn span_for(&self, name: &'static str, request: Option<u64>) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { open: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        SpanGuard {
            open: Some(OpenSpan {
                tracer: self,
                id,
                parent,
                request,
                name,
                start: Instant::now(),
            }),
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span lock poisoned by a panicking thread")
            .clone()
    }

    fn close(&self, span: Span) {
        self.spans
            .lock()
            .expect("span lock poisoned by a panicking thread")
            .push(span);
    }

    fn ns_since_origin(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Write every recorded span, one JSON object a line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request.map_or("null".to_string(), |r| r.to_string()),
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[derive(Debug)]
struct OpenSpan<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    request: Option<u64>,
    name: &'static str,
    start: Instant,
}

/// Closes its span on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    open: Option<OpenSpan<'a>>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            let end = Instant::now();
            OPEN.with(|stack| {
                let mut stack = stack.borrow_mut();
                if let Some(pos) = stack.iter().rposition(|&id| id == open.id) {
                    stack.remove(pos);
                }
            });
            let tracer = open.tracer;
            tracer.close(Span {
                id: open.id,
                parent: open.parent,
                request: open.request,
                name: open.name,
                start_ns: tracer.ns_since_origin(open.start),
                end_ns: tracer.ns_since_origin(end),
            });
        }
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the span), so overlapping children are not
/// subtracted twice.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(cursor);
                    let end = end.min(s.end_ns);
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Count, total and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += selfs[&s.id];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: None,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // root [0, 100) with children [10, 30) and [50, 60): self = 70.
        let spans = vec![
            span(1, None, "root", 0, 100),
            span(2, Some(1), "a", 10, 30),
            span(3, Some(1), "b", 50, 60),
            // Grandchild inside "a": counts against "a", not "root".
            span(4, Some(2), "c", 12, 20),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 70);
        assert_eq!(selfs[&2], 12);
        assert_eq!(selfs[&3], 10);
        assert_eq!(selfs[&4], 8);
        // Self times of a tree add back up to the root's duration.
        assert_eq!(selfs.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span(1, None, "root", 100, 200),
            span(2, Some(1), "a", 110, 150),
            span(3, Some(1), "a", 140, 160), // overlaps the first child
            span(4, Some(1), "b", 190, 230), // runs past the parent's end
        ];
        let selfs = self_times(&spans);
        // Covered: [110, 160) + [190, 200) = 60.
        assert_eq!(selfs[&1], 40);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["a"].count, 2);
        assert_eq!(totals["a"].total_ns, 60);
        assert_eq!(totals["a"].self_ns, 60);
        assert_eq!(totals["root"].self_ns, 40);
    }

    #[test]
    fn guards_nest_through_the_thread_local_stack() {
        let tracer = Tracer::new(true);
        {
            let _outer = tracer.span("outer");
            {
                let _inner = tracer.span_for("inner", Some(7));
            }
            let _sibling = tracer.span("sibling");
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let sibling = spans.iter().find(|s| s.name == "sibling").unwrap();
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.request, Some(7));
        assert_eq!(sibling.parent, Some(outer.id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let selfs = self_times(&spans);
        assert!(selfs[&outer.id] <= outer.duration_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        {
            let _s = tracer.span("x");
        }
        assert!(tracer.spans().is_empty());
    }
}
