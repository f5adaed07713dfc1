//! In-memory spans recorded by the ledger's own wrappers around calls into
//! each layer, written as JSON lines when the traced run ends.
//!
//! A span is `(name, start, end, parent, episode)`; spans of one episode
//! (or one serve repetition) share the `episode` id. A layer's *self time*
//! is its span's duration minus the part its child spans cover.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Index of a span in its [`Tracer`]; `NO_PARENT` marks a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub episode: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans against one time origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::with_origin(Instant::now())
    }

    /// A tracer for another thread, stamping against a shared origin so
    /// its spans can be [`absorb`](Tracer::absorb)ed later.
    pub fn with_origin(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        episode: u32,
    ) -> SpanId {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            episode,
        };
        self.spans.push(span);
        (self.spans.len() - 1) as SpanId
    }

    /// Opens a span whose end is not known yet (a parent of spans still
    /// to come); [`close`](Tracer::close) sets the end.
    pub fn open(
        &mut self,
        name: &'static str,
        start: Instant,
        parent: SpanId,
        episode: u32,
    ) -> SpanId {
        self.record(name, start, start, parent, episode)
    }

    pub fn close(&mut self, span: SpanId, end: Instant) {
        self.spans[span as usize].end_ns = self.ns(end);
    }

    /// Appends the spans of a tracer that shares this one's origin
    /// (recorded on another thread), hanging its roots under `parent`.
    pub fn absorb(&mut self, other: Tracer, parent: SpanId) {
        debug_assert_eq!(self.origin, other.origin, "tracers must share an origin");
        let shift = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = if s.parent == NO_PARENT {
                parent
            } else {
                s.parent + shift
            };
            s
        }));
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Total duration (ns) of every span called `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum()
    }

    /// Self time (ns) per span: duration minus its direct children's.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if span.parent != NO_PARENT {
                let slot = &mut own[span.parent as usize];
                *slot = slot.saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Writes the spans to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_to(&mut out)?;
        out.flush()
    }

    /// Writes one JSON object per span, one per line.
    pub fn write_to(&self, out: &mut impl Write) -> std::io::Result<()> {
        let own = self.self_times_ns();
        for (id, (span, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = if span.parent == NO_PARENT {
                "null".to_string()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {self_ns}, \"parent\": {parent}, \"episode\": {}}}",
                span.name, span.start_ns, span.end_ns, span.episode
            )?;
        }
        Ok(())
    }
}

/// Where run artefacts (trace files, the journal directory) live —
/// relative to the working directory, like the other bench binaries.
pub fn experiments_dir() -> PathBuf {
    PathBuf::from("target/experiments")
}

pub fn trace_path(workload: &str) -> PathBuf {
    experiments_dir().join(format!("LEDGER_trace_{workload}.jsonl"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        let t0 = t.origin();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let epoch = t.open("sim.epoch", at(0), NO_PARENT, 1);
        t.record("sim.epoch_build", at(0), at(30), epoch, 1);
        t.record("rl.dispatch", at(30), at(90), epoch, 1);
        t.close(epoch, at(100));
        assert_eq!(t.self_times_ns(), vec![10_000, 30_000, 60_000]);
        assert_eq!(t.total_ns("rl.dispatch"), 60_000.0);
        assert_eq!(t.durations_ns("sim.epoch"), vec![100_000.0]);
    }

    #[test]
    fn absorb_shifts_parent_links() {
        let mut a = Tracer::new();
        let now = a.origin();
        let rep = a.record("rep", now, now, NO_PARENT, 1);
        let mut b = Tracer::with_origin(now);
        let tenant = b.record("tenant", now, now, NO_PARENT, 1);
        b.record("server.request", now, now, tenant, 1);
        a.absorb(b, rep);
        assert_eq!(a.spans[1].parent, rep);
        assert_eq!(a.spans[2].parent, 1);
    }

    #[test]
    fn jsonl_lines_are_well_formed() {
        let mut t = Tracer::new();
        let now = t.origin();
        let root = t.record("episode", now, now + Duration::from_micros(5), NO_PARENT, 3);
        t.record("sim.epoch", now, now + Duration::from_micros(2), root, 3);
        let mut bytes = Vec::new();
        t.write_to(&mut bytes).expect("write");
        let text = String::from_utf8(bytes).expect("utf-8");
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = crate::json::parse(lines[0]).expect("json");
        assert_eq!(first.get("parent"), Some(&crate::json::Value::Null));
        assert_eq!(first.get("self_ns").and_then(|v| v.as_f64()), Some(3000.0));
        let second = crate::json::parse(lines[1]).expect("json");
        assert_eq!(second.get("parent").and_then(|v| v.as_f64()), Some(0.0));
        assert_eq!(second.get("episode").and_then(|v| v.as_f64()), Some(3.0));
    }
}
