//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around its own calls into
//! a layer's public functions; nothing inside the program is instrumented.
//! They stay in memory and are summarised per layer when the run ends.

use std::time::Instant;

/// One timed call: its layer, what was called, the span that caused it,
/// and start/end in nanoseconds since the recorder was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The recorder. Span ids are indices into [`Spans::spans`].
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

/// Per-`(layer, name)` totals of a recorder.
#[derive(Debug, Clone)]
pub struct SpanTotal {
    pub layer: &'static str,
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span and returns its id.
    pub fn open(
        &mut self,
        layer: &'static str,
        name: &'static str,
        parent: Option<usize>,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.duration_ns()
    }

    /// Total duration of the spans of one `(layer, name)`.
    pub fn total_ns(&self, layer: &str, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Totals per `(layer, name)`, in first-seen order.
    pub fn summary(&self) -> Vec<SpanTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: Vec<SpanTotal> = Vec::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let idx = out
                .iter()
                .position(|t| t.layer == s.layer && t.name == s.name)
                .unwrap_or_else(|| {
                    out.push(SpanTotal {
                        layer: s.layer,
                        name: s.name,
                        count: 0,
                        total_ns: 0,
                        self_ns: 0,
                    });
                    out.len() - 1
                });
            let t = &mut out[idx];
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += s.duration_ns().saturating_sub(children);
        }
        out
    }
}
