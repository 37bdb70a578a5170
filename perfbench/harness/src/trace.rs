//! In-memory spans for the traced runs.
//!
//! A span has a name, a start and an end (nanoseconds from the tracer's
//! epoch), the span that caused it and the id of the request it belongs
//! to. Spans stay in memory and are written out as JSON lines when the
//! run ends. A disabled tracer records nothing, so the same pass run
//! with tracing off measures what tracing costs.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `proto.decode`.
    pub name: &'static str,
    /// Start, nanoseconds from the tracer epoch.
    pub start: u64,
    /// End, nanoseconds from the tracer epoch (0 while open).
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request (or work item) id the span belongs to.
    pub req: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        self.end.saturating_sub(self.start) as f64 / 1e3
    }
}

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Self {
        Self {
            on: true,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            on: false,
            ..Self::on()
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; `None` when tracing is off.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: 0,
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    /// Close a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end = self.now();
        }
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of the spans named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// Self time (µs) of span `id`: its duration minus the time its
    /// direct children cover (children of one span never overlap here,
    /// every pass is single-threaded).
    pub fn self_us(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::us)
            .sum();
        self.spans[id].us() - children
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start, s.end, s.req
            )?;
        }
        out.flush()
    }
}

/// Tracing overhead of `pass` as a share of its untraced wall time:
/// the pass runs untraced and traced, alternately, three times each, and
/// the medians are compared.
pub fn overhead(mut pass: impl FnMut(&mut Tracer)) -> f64 {
    let mut time = |tr: &mut Tracer| {
        let t = Instant::now();
        pass(tr);
        t.elapsed().as_secs_f64()
    };
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        off.push(time(&mut Tracer::off()));
        on.push(time(&mut Tracer::on()));
    }
    let (off, on) = (crate::report::median(&off), crate::report::median(&on));
    (on - off) / off
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut tr = Tracer::on();
        let root = tr.open("root", None, 7);
        tr.time("child", root, 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.close(root);
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert!(tr.spans().iter().all(|s| s.req == 7 && s.end >= s.start));
        let child = tr.durations_us("child")[0];
        assert!(child >= 2000.0);
        assert!(tr.self_us(0) >= 0.0 && tr.self_us(0) < tr.spans()[0].us());
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        let id = tr.open("x", None, 1);
        tr.close(id);
        assert!(id.is_none() && tr.spans().is_empty());
    }
}
