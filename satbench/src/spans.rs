//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the self-time arithmetic over them.
//!
//! Every op opens a root span (`op`); the calls it makes into the
//! program (`matrix.upload`, `alg.<id>.run`, `group.call`, ...) are its
//! children. A span's self time is its duration minus the part of it its
//! children cover, so the root's self time is the op time no named layer
//! accounts for.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Name of the root span of one op.
pub const OP: &str = "op";

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the op this span belongs to.
    pub op: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span sink; records nothing (and costs one branch) when disabled.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Recorder {
    /// A recorder that keeps spans only if `enabled`.
    pub fn new(enabled: bool) -> Self {
        Recorder { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    /// Make room for `spans` more spans, so recording them allocates
    /// nothing.
    pub fn reserve(&mut self, spans: usize) {
        self.spans.reserve(spans);
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turn recording on or off between ops.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Run `f` as op number `op`, inside a root [`OP`] span.
    pub fn op<R>(&mut self, op: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        self.op = op;
        let idx = self.begin(OP);
        let r = f(self);
        self.end(idx);
        r
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = self.begin(name);
        let r = f();
        self.end(idx);
        r
    }

    fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span { name, start_ns: now, end_ns: now, op: self.op, parent: self.open.last().copied() });
        self.open.push(self.spans.len() - 1);
        Some(self.spans.len() - 1)
    }

    fn end(&mut self, idx: Option<usize>) {
        if let Some(i) = idx {
            self.spans[i].end_ns = self.now_ns();
            self.open.pop();
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as a Chrome trace-event JSON array (opens in
    /// `chrome://tracing` and Perfetto).
    pub fn write_chrome_trace(&self, path: &Path) -> io::Result<()> {
        let mut s = String::from("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let _ = write!(
                s,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"op\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                sp.name,
                sp.start_ns as f64 / 1e3,
                sp.dur() as f64 / 1e3,
                sp.op
            );
        }
        s.push_str("\n]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to it), in ns, indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, op: 0, parent }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span(OP, 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps "a": the union [10, 60) is covered, not 30 + 30.
            span("b", 30, 60, Some(0)),
            // Sticks out of its parent: only [90, 100) counts.
            span("c", 90, 120, Some(0)),
            // A grandchild is subtracted from its own parent, not the op.
            span("d", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30 - 8, 30, 30, 8]);
    }

    #[test]
    fn recorder_nests_and_can_be_disabled() {
        let mut rec = Recorder::new(true);
        rec.op(7, |r| {
            r.span("x", || ());
            r.span("y", || ());
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, OP);
        assert!(spans[1..].iter().all(|s| s.parent == Some(0) && s.op == 7));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));

        let mut off = Recorder::new(false);
        assert_eq!(off.op(1, |r| r.span("x", || 5)), 5);
        assert!(off.spans().is_empty());
    }
}
