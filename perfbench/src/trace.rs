//! In-memory spans recorded around calls into the library's layers.
//!
//! A span has a name, a start, an end and a parent; every span of one
//! benchmark run shares the run's trace id. Spans stay in memory until
//! [`Tracer::write_jsonl`] writes them out when the run ends. A disabled
//! tracer records nothing, so the untraced runs pay one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span within its tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: Option<u64>,
}

/// Span recorder for one benchmark run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    trace_id: String,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records spans under `trace_id` when `enabled`.
    pub fn new(enabled: bool, trace_id: String) -> Self {
        Self { enabled, trace_id, origin: Instant::now(), spans: Vec::new() }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Self::new(false, String::new())
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; `None` when disabled.
    pub fn start(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent, start_ns, end_ns: None });
        Some(SpanId(self.spans.len() - 1))
    }

    /// Close a span opened by [`Tracer::start`].
    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(SpanId(i)) = id {
            let end_ns = self.now_ns();
            self.spans[i].end_ns = Some(end_ns);
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.start(name, parent);
        let out = f();
        self.end(id);
        out
    }

    fn duration_ns(&self, i: usize) -> u64 {
        let span = &self.spans[i];
        span.end_ns.unwrap_or(span.start_ns).saturating_sub(span.start_ns)
    }

    /// Duration of one span in seconds (0 when disabled).
    pub fn seconds(&self, id: Option<SpanId>) -> f64 {
        id.map_or(0.0, |SpanId(i)| self.duration_ns(i) as f64 / 1e9)
    }

    /// Self time per span name in seconds: each span's duration minus the
    /// part its children cover (children of one span run one after the
    /// other, so their durations add up), summed over spans of that name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(SpanId(p)) = span.parent {
                child_ns[p] += self.duration_ns(i);
            }
        }
        let mut out = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let own = self.duration_ns(i).saturating_sub(child_ns[i]);
            *out.entry(span.name).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |SpanId(p)| p.to_string());
            writeln!(
                out,
                "{{\"trace_id\": \"{}\", \"span_id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                self.trace_id,
                span.name,
                span.start_ns,
                span.end_ns.unwrap_or(span.start_ns)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, "t".into());
        let root = t.start("root", None);
        t.span("child", root, || std::thread::sleep(std::time::Duration::from_millis(20)));
        t.end(root);
        let selfs = t.self_times();
        assert!(selfs["child"] >= 0.019);
        assert!(selfs["root"] < selfs["child"]);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::disabled();
        let id = t.start("x", None);
        t.end(id);
        assert!(id.is_none());
        assert_eq!(t.len(), 0);
        assert_eq!(t.seconds(id), 0.0);
    }
}
