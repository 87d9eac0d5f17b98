//! In-memory spans recorded around calls into the library.
//!
//! A span has a name, a start and duration relative to the recorder's
//! origin, and the span that was open when it began. Spans stay in memory
//! and are summarised when the run ends. A disabled recorder ([`Spans::off`])
//! records nothing, so one code path serves the untraced and traced runs.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    /// Layer name, e.g. `expander.decomp`.
    name: &'static str,
    /// Start, seconds after the recorder's origin.
    start_s: f64,
    /// Duration in seconds (0 while open).
    dur_s: f64,
    /// Index of the enclosing span.
    parent: Option<usize>,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    /// A recording recorder.
    pub fn new() -> Spans {
        Spans {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Spans {
        Spans {
            on: false,
            ..Spans::new()
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_s: self.origin.elapsed().as_secs_f64(),
            dur_s: 0.0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Closes a span (and any still open inside it).
    pub fn close(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.origin.elapsed().as_secs_f64();
        while let Some(top) = self.stack.pop() {
            self.spans[top].dur_s = now - self.spans[top].start_s;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_s)
            .collect()
    }

    /// Summed duration of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Per name: (count, total seconds, self seconds). Self time is a
    /// span's duration minus that of its direct children.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_s;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_s;
            e.2 += s.dur_s - c;
        }
        out
    }

    /// The summary as report lines, largest self time first.
    pub fn report(&self) -> Vec<String> {
        let mut rows: Vec<_> = self.summary().into_iter().collect();
        rows.sort_by(|a, b| b.1 .2.total_cmp(&a.1 .2));
        rows.into_iter()
            .map(|(name, (count, total, own))| {
                format!("span {name:<22} count {count:>6}  total {total:>9.4} s  self {own:>9.4} s")
            })
            .collect()
    }
}

impl Default for Spans {
    fn default() -> Spans {
        Spans::new()
    }
}
