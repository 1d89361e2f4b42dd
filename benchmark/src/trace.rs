//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around the public calls
//! into each layer; they are kept in memory and written out once, when the
//! run ends. A span's *self time* is its duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span within its [`Trace`].
pub type SpanId = usize;

/// One recorded span. `parent` is the span that caused it (`None` for the
/// root); all spans of a run share the workload name as their identifier.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(&'static str, f64)>,
}

/// The spans of one run. A disabled trace records nothing, so the traced
/// and the untraced pass share every code path; the end-to-end metrics come
/// from runs with the trace disabled.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Switches recording on or off (the traced pass alternates the two to
    /// measure what recording costs).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`; it stays open until [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return SpanId::MAX;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Closes a span. The id of a span opened while the trace was disabled
    /// names no span, whatever the trace's state is now.
    pub fn close(&mut self, id: SpanId) {
        let now = self.now_ns();
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = now;
        }
    }

    /// Attaches a count measured at the span's boundary.
    pub fn count(&mut self, id: SpanId, key: &'static str, value: f64) {
        if let Some(span) = self.spans.get_mut(id) {
            span.counts.push((key, value));
        }
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn span<R>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration and total self time per span name, in nanoseconds.
    pub fn totals_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let self_ns = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_ns) {
            let entry = out.entry(span.name).or_default();
            entry.0 += span.end_ns - span.start_ns;
            entry.1 += own;
        }
        out
    }

    /// The trace as a JSON array of
    /// `{id, parent, name, workload, start_ns, end_ns, counts}` objects.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::from("[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let counts: Vec<String> = s
                .counts
                .iter()
                .map(|(k, v)| format!("\"{k}\": {}", crate::report::number(*v)))
                .collect();
            let _ = write!(
                out,
                "  {{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"workload\": \"{workload}\", \"start_ns\": {}, \"end_ns\": {}, \"counts\": {{{}}}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                counts.join(", ")
            );
            out.push_str(if id + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("]\n");
        out
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, each clipped to the span's own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let clipped = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            children[p].push(clipped);
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            name: "s",
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 50, 90),
            span(Some(2), 60, 70),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped_to_the_parent() {
        let spans = [
            span(None, 100, 200),
            span(Some(0), 110, 150),
            span(Some(0), 140, 160), // overlaps the previous child by 10
            span(Some(0), 190, 250), // runs past the parent's end
            span(Some(0), 120, 130), // nested inside the first child's interval
        ];
        // Covered: [110, 160) and [190, 200) = 60.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn recorded_spans_nest_and_serialize() {
        let mut t = Trace::new(true);
        let root = t.open("workload", None);
        let inner = t.span("run", root, || 7);
        assert_eq!(inner, 7);
        t.count(root, "edges", 12.0);
        t.close(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = t.to_json("w");
        assert!(json.contains("\"id\": 1, \"parent\": 0, \"name\": \"run\", \"workload\": \"w\""));
        assert!(json.contains("\"counts\": {\"edges\": 12}"));
        let totals = t.totals_by_name();
        assert_eq!(totals["workload"].0 - totals["run"].0, totals["workload"].1);
    }

    #[test]
    fn a_disabled_trace_records_nothing() {
        let mut t = Trace::new(false);
        let root = t.open("workload", None);
        assert_eq!(t.span("run", root, || 3), 3);
        t.count(root, "edges", 1.0);
        t.close(root);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        let root = t.open("workload", None);
        t.close(root);
        assert_eq!(t.spans().len(), 1);
    }
}
