//! The harness's own span recorder.
//!
//! The program is measured from outside, so spans are recorded here,
//! around the calls into each layer: name, start, end, the span that
//! caused it, and (on the wire) the op it belongs to. Spans stay in
//! memory during a run and are written out once, when it ends. Spans
//! inside the program are a later change.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = u32;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-boundary name (`build_cluster`, `encode`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The wire op this span belongs to (spans of one op share it).
    pub op: Option<u64>,
}

/// An in-memory span log for one thread of the harness.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder whose time zero is `origin` (shared by the recorders of
    /// one run so their spans line up).
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished interval.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        op: Option<u64>,
    ) -> SpanId {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op,
        };
        self.spans.push(span);
        (self.spans.len() - 1) as SpanId
    }

    /// Open a span now; [`Spans::close`] ends it. Lets children name
    /// their parent before the parent has finished.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, op: Option<u64>) -> SpanId {
        let now = Instant::now();
        self.record(name, now, now, parent, op)
    }

    /// End an open span now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.ns(Instant::now());
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end, parent, None);
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Take over another recorder's spans (a second generator thread),
    /// keeping their parent links valid.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every span's self time, by span id: its duration minus the part
    /// of its interval that its child spans cover (overlapping children
    /// count once).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut kids: Vec<(SpanId, u64, u64)> = self
            .spans
            .iter()
            .filter_map(|s| s.parent.map(|p| (p, s.start_ns, s.end_ns)))
            .collect();
        kids.sort_unstable();
        let mut out: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        let mut i = 0;
        while i < kids.len() {
            let parent = kids[i].0;
            let me = &self.spans[parent as usize];
            let (mut covered, mut upto) = (0, me.start_ns);
            while i < kids.len() && kids[i].0 == parent {
                let (a, b) = (kids[i].1.max(upto), kids[i].2.min(me.end_ns));
                if b > a {
                    covered += b - a;
                    upto = b;
                }
                i += 1;
            }
            out[parent as usize] = out[parent as usize].saturating_sub(covered);
        }
        out
    }

    /// Total self time per span name, in seconds.
    pub fn self_secs_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(span.name).or_insert(0.0) += ns as f64 / 1e9;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.name, s.start_ns, s.end_ns
            )?;
            if let Some(p) = s.parent {
                write!(out, ",\"parent\":{p}")?;
            }
            if let Some(op) = s.op {
                write!(out, ",\"op\":{op}")?;
            }
            writeln!(out, "}}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let t0 = Instant::now();
        let at = |ns: u64| t0 + Duration::from_nanos(ns);
        let mut s = Spans::new(t0);
        let root = s.record("op", at(0), at(1_000), None, Some(7));
        // Two overlapping children cover 100..500, one more 700..900.
        s.record("encode", at(100), at(400), Some(root), Some(7));
        s.record("write", at(300), at(500), Some(root), Some(7));
        let wait = s.record("wait", at(700), at(900), Some(root), Some(7));
        // A grandchild never counts against the root directly.
        s.record("decode", at(750), at(800), Some(wait), Some(7));
        let own = s.self_ns();
        assert_eq!(own[root as usize], 1_000 - 400 - 200);
        assert_eq!(own[wait as usize], 200 - 50);
        assert!((s.self_secs_by_name()["wait"] - 150e-9).abs() < 1e-15);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let t0 = Instant::now();
        let mut a = Spans::new(t0);
        a.record("a", t0, t0, None, None);
        let mut b = Spans::new(t0);
        let p = b.record("parent", t0, t0, None, None);
        b.record("child", t0, t0, Some(p), None);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
    }
}
