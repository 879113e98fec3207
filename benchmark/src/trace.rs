//! The in-memory span recorder of the traced run.
//!
//! Spans are taken in the benchmark's own files, around each call into a
//! layer; nothing inside the crates is instrumented. One sampled
//! operation is one root span plus a child per layer call, all sharing
//! the operation's `op` number. Workers append to their own buffer and
//! the buffers are written out as JSON lines when the run ends.

use crate::json::Json;
use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Unique over the run: `(thread << 32) | index`.
    pub id: u64,
    /// The span that caused this one (`None` for an operation's root).
    pub parent: Option<u64>,
    /// Shared by every span of one sampled operation.
    pub op: u64,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

/// Nanoseconds since the first call in this process — one time origin
/// for every thread's spans.
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A thread's span buffer.
pub struct Recorder {
    thread: u32,
    ops: u64,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(thread: usize) -> Recorder {
        now_ns();
        Recorder {
            thread: thread as u32,
            ops: 0,
            spans: Vec::new(),
        }
    }

    fn next_id(&self) -> u64 {
        (u64::from(self.thread) << 32) | self.spans.len() as u64
    }

    /// Records one sampled operation: a root span named `name` around
    /// `f`, which times its layer calls through the [`OpRecorder`].
    pub fn op<R>(&mut self, name: &'static str, f: impl FnOnce(&mut OpRecorder<'_>) -> R) -> R {
        let id = self.next_id();
        let op = (u64::from(self.thread) << 32) | self.ops;
        self.ops += 1;
        let at = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            parent: None,
            op,
            thread: self.thread,
            start_ns: now_ns(),
            end_ns: 0,
        });
        let r = f(&mut OpRecorder {
            rec: self,
            root: id,
            op,
        });
        self.spans[at].end_ns = now_ns();
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Times the layer calls of one sampled operation.
pub struct OpRecorder<'a> {
    rec: &'a mut Recorder,
    root: u64,
    op: u64,
}

impl OpRecorder<'_> {
    /// Times `f` as a child of the operation's root span.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start_ns = now_ns();
        let r = f();
        let end_ns = now_ns();
        self.rec.spans.push(Span {
            name,
            id: self.rec.next_id(),
            parent: Some(self.root),
            op: self.op,
            thread: self.rec.thread,
            start_ns,
            end_ns,
        });
        r
    }
}

/// Durations (ns, ascending) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    let mut d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect();
    d.sort_by(f64::total_cmp);
    d
}

/// Writes `spans` as JSON lines to `benchmark/out/trace-<workload>.jsonl`
/// and returns the path.
pub fn write_jsonl(workload: &str, spans: &[Span]) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}.jsonl"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in spans {
        let line = Json::obj([
            ("name", Json::from(s.name)),
            ("id", s.id.into()),
            ("parent", s.parent.map_or(Json::Null, Json::from)),
            ("op", s.op.into()),
            ("thread", u64::from(s.thread).into()),
            ("start_ns", s.start_ns.into()),
            ("end_ns", s.end_ns.into()),
        ]);
        writeln!(out, "{line}")?;
    }
    out.flush()?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_point_at_their_root_and_share_its_op() {
        let mut rec = Recorder::new(3);
        rec.op("bench.op", |op| {
            op.span("layer.a", || ());
            op.span("layer.b", || ());
        });
        rec.op("bench.op", |op| op.span("layer.a", || ()));
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 5);
        let root = &spans[0];
        assert_eq!((root.parent, root.thread), (None, 3));
        assert!(root.start_ns <= spans[1].start_ns && spans[2].end_ns <= root.end_ns);
        assert!(spans[1..3]
            .iter()
            .all(|s| s.parent == Some(root.id) && s.op == root.op));
        assert_ne!(spans[3].op, root.op);
        let mut ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 5);
        assert_eq!(durations(&spans, "layer.a").len(), 2);
    }
}
