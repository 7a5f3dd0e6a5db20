//! In-memory spans recorded by the benchmark around its own calls into each
//! layer, written out as a Chrome trace when the run ends.
//!
//! A span has a name, a start, an end, the span that caused it and, for
//! spans of one service request, a shared request id.  The recorder is used
//! from the driving thread only; per-request spans of the service workloads
//! are stamped into flat arrays by the worker threads and pushed here after
//! the phase, already complete.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use crate::host::now_ns;

/// Index of a span in its [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

const NONE: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    parent: u32,
    /// Request id shared by the spans of one request.
    pub request: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Totals of all spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part of each span its children cover.
    pub self_ns: u64,
}

/// Span recorder.  Disabled, every call is a branch and nothing is stored,
/// which is how the end-to-end metrics are measured.
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span now.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start = if self.enabled { now_ns() } else { 0 };
        self.push(name, start, start, parent, None)
    }

    /// Closes a span now.
    pub fn close(&mut self, id: SpanId) {
        if self.enabled {
            self.spans[id.0 as usize].end_ns = now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn scoped<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent);
        let result = f();
        self.close(id);
        result
    }

    /// Records a span whose start and end were stamped elsewhere.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> SpanId {
        if !self.enabled {
            return SpanId(NONE);
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: parent.map_or(NONE, |p| p.0),
            request,
        });
        SpanId(id)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals.  A span's self time is its duration minus the part
    /// of its interval that its child spans cover (children may overlap
    /// each other, as concurrent requests under one phase do).
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if span.parent != NONE {
                let parent = &self.spans[span.parent as usize];
                let start = span.start_ns.max(parent.start_ns);
                let end = span.end_ns.min(parent.end_ns);
                if end > start {
                    children[span.parent as usize].push((start, end));
                }
            }
        }
        let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.duration_ns();
            entry.self_ns += span.duration_ns().saturating_sub(covered);
        }
        totals
    }

    /// Writes the spans in Chrome trace format (`chrome://tracing`,
    /// Perfetto): complete events, timestamps in microseconds.  Spans of a
    /// request go on the track of their request id so they nest visibly.
    pub fn write_chrome(&self, path: &Path, meta: &[(&str, String)]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"displayTimeUnit\":\"ns\",\"otherData\":{{")?;
        for (i, (key, value)) in meta.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            write!(
                out,
                "{sep}\"{key}\":\"{}\"",
                value.replace(['"', '\\'], "'")
            )?;
        }
        writeln!(out, "}},\"traceEvents\":[")?;
        for (i, span) in self.spans.iter().enumerate() {
            let sep = if i > 0 { ",\n" } else { "" };
            let tid = span.request.map_or(0, |r| 1 + r % 64);
            write!(
                out,
                "{sep}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
            )?;
            if span.parent != NONE {
                write!(out, ",\"parent\":{}", span.parent)?;
            }
            if let Some(request) = span.request {
                write!(out, ",\"request\":{request}")?;
            }
            write!(out, "}}}}")?;
        }
        writeln!(out, "\n]}}")?;
        // A dropped BufWriter swallows write errors; flush to see them.
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        let phase = t.push("phase", 0, 100, None, None);
        // Two overlapping requests cover [10, 50); a third covers [60, 70).
        let a = t.push("request", 10, 40, Some(phase), Some(1));
        t.push("request", 30, 50, Some(phase), Some(2));
        t.push("request", 60, 70, Some(phase), Some(3));
        // Children of request 1 tile it completely.
        t.push("submit_call", 10, 15, Some(a), Some(1));
        t.push("queue_wait", 15, 25, Some(a), Some(1));
        t.push("run", 25, 40, Some(a), Some(1));
        let totals = t.totals();
        assert_eq!(
            totals["phase"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(totals["request"].count, 3);
        assert_eq!(totals["request"].total_ns, 60);
        assert_eq!(totals["request"].self_ns, 30, "request 1 is all children");
        assert_eq!(totals["run"].self_ns, 15);
    }

    #[test]
    fn disabled_tracer_stores_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x", None);
        t.close(id);
        assert_eq!(t.scoped("y", Some(id), || 7), 7);
        assert!(t.spans().is_empty() && t.totals().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let mut t = Tracer::new(true);
        let root = t.open("root", None);
        t.push("child", 5, 9, Some(root), Some(42));
        t.close(root);
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-unit-test-{}.json", std::process::id()));
        t.write_chrome(&path, &[("workload", "unit \"test\"".into())])
            .unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("request")
                .unwrap()
                .as_f64(),
            Some(42.0)
        );
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }
}
