//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the
//! runtime's public API (the program itself is not instrumented), kept
//! in memory while the workload runs, and written out once at exit.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval: a call into a layer, or a request's hand-off.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique within one recorder; 0 is reserved for "no parent".
    pub id: u64,
    /// The span that caused this one (0 = root).
    pub parent: u64,
    /// Layer boundary the span covers, e.g. `engine.rbc`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

/// Collects spans; disabled recorders drop everything for free.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder that keeps spans iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self { epoch: Instant::now(), enabled, spans: Vec::new() }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records `name` over `[start, end]` under `parent`; returns its id
    /// (0 when disabled).
    pub fn record(&mut self, name: &'static str, parent: u64, start: Instant, end: Instant) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span { id, parent, name, start_ns: ns(start), end_ns: ns(end) });
        id
    }

    /// Appends every span of `other`, re-numbered after this recorder's.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len() as u64;
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            id: s.id + base,
            parent: if s.parent == 0 { 0 } else { s.parent + base },
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            ..s
        }));
    }

    /// Number of spans kept.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans kept, in recording order.
    pub fn iter(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter()
    }

    /// Writes the spans as CSV (`id,parent,name,start_ns,end_ns`).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("id,parent,name,start_ns,end_ns\n");
        for s in &self.spans {
            let _ = writeln!(out, "{},{},{},{},{}", s.id, s.parent, s.name, s.start_ns, s.end_ns);
        }
        std::fs::write(path, out)
    }
}
