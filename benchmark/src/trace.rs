//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! A span is a name, a start and end on the run's clock, the span that
//! caused it and the request it belongs to. Spans stay in memory and are
//! written out as JSON lines when the run ends. Nothing inside the
//! program under test is instrumented: each span times one call into a
//! layer's public entry point.

use crate::loadgen::Record;
use std::io::Write as _;
use std::path::Path;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    /// Record a span; returns its id (for children to name as parent).
    pub fn span(
        &mut self,
        name: &'static str,
        (start, end): (u64, u64),
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request: 0,
        });
        self.spans.len() - 1
    }

    /// A root span covering `records`, with one child per exchange.
    pub fn phase(&mut self, root: &'static str, child: &'static str, records: &[Record]) -> usize {
        let start = records.iter().map(|r| r.sent).min().unwrap_or(0);
        let end = records.iter().map(|r| r.done).max().unwrap_or(start);
        let id = self.span(root, (start, end), None);
        for (k, r) in records.iter().enumerate() {
            self.spans.push(Span {
                name: child,
                start: r.sent,
                end: r.done,
                parent: Some(id),
                request: k as u64 + 1,
            });
        }
        id
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            )?;
        }
        out.flush()
    }
}
