//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is recorded per call: name, start, end, the enclosing span and
//! a trace id shared by every span of one operation (one trace attacked,
//! one profiling round). Spans stay in memory and are written out once the
//! run ends. With tracing off, [`Tracer::span`] only calls the body.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The function called, e.g. `attack_trace_expecting`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation this call belongs to.
    pub trace_id: u64,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; a disabled one records nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off between calls.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled inside a span");
        self.enabled = enabled;
    }

    /// Nanoseconds since the tracer's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `body` inside a span named `name`; spans opened by `body` nest
    /// under it.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        trace_id: u64,
        body: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return body(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            trace_id,
        });
        self.open.push(index);
        let result = body(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"trace_id\": {}}}",
                s.name, s.start_ns, s.end_ns, s.trace_id
            );
        }
        out
    }
}

/// Each span's self time: its duration minus the part of it that its
/// direct children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.clamp(parent.start_ns, parent.end_ns);
            let end = s.end_ns.clamp(parent.start_ns, parent.end_ns);
            children[p].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over the spans that start inside `[from_ns, to_ns)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Totals {
    /// Calls.
    pub calls: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

impl Totals {
    /// Mean duration per call in ms, 0 when never called.
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e6
        }
    }
}

/// Sums spans by name within a time window.
pub fn totals(spans: &[Span], from_ns: u64, to_ns: u64) -> BTreeMap<&'static str, Totals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        if s.start_ns >= from_ns && s.start_ns < to_ns {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += self_ns;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            trace_id: 7,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("classify", 10, 40, Some(0)),
            span("segment", 12, 22, Some(1)),
            span("report", 50, 60, Some(0)),
            span("fold", 70, 90, None),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("op", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 170, Some(0)),
            span("c", 190, 250, Some(0)),
        ];
        // Children cover 110..170 and 190..200 of the parent.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn tracer_nests_and_sums() {
        let mut tracer = Tracer::new(true);
        let value = tracer.span("op", 3, |t| {
            t.span("inner", 3, |_| std::hint::black_box(2 + 2))
        });
        assert_eq!(value, 4);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let t = totals(spans, 0, u64::MAX);
        assert_eq!(t["op"].calls, 1);
        assert_eq!(t["op"].self_ns + t["inner"].total_ns, t["op"].total_ns);
        assert_eq!(tracer.to_jsonl().lines().count(), 2);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("op", 1, |_| 5), 5);
        assert!(off.spans().is_empty());
    }
}
