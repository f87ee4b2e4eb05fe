//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, start, end, parent span and loop id. Spans are kept
//! in memory and written as JSONL when the run ends; a span's self time is
//! its duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub loop_id: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// Handle of an open span (inert when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-name totals of a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: usize,
    pub seconds: f64,
    pub self_seconds: f64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str, loop_id: Option<usize>) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            loop_id,
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, span: Open) {
        if let Some(id) = span.0 {
            self.spans[id].end = self.origin.elapsed().as_secs_f64();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close in nesting order");
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self seconds per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.seconds();
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.seconds += s.seconds();
            t.self_seconds += s.seconds() - c;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |x: Option<usize>| x.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{},\"loop\":{}}}",
                s.name,
                s.start,
                s.end,
                opt(s.parent),
                opt(s.loop_id)
            )?;
        }
        w.flush()
    }
}
