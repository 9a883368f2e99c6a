//! Spans the benchmark records around its own calls into each layer.
//!
//! A span holds a name, a start, an end, its parent span and the id of
//! the op it belongs to. Spans are kept in memory while tracing is on
//! and written out as JSON lines at the end. With tracing off, [`span`]
//! is one thread-local flag test around the call.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary, e.g. `"vm.run"`.
    pub name: &'static str,
    /// Nanoseconds since the thread's first use of the tracer.
    pub start_ns: u64,
    /// Nanoseconds since the thread's first use of the tracer.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        op: 0,
    });
}

/// Turns recording on or off for this thread. Every span of the thread
/// shares one timeline, whose epoch is the tracer's first use.
pub fn enable(on: bool) {
    if on {
        TRACER.with(|t| t.borrow_mut().spans.reserve(1 << 16));
    }
    ON.with(|f| f.set(on));
}

fn enabled() -> bool {
    ON.with(Cell::get)
}

/// Tags the spans that follow with op id `op`.
pub fn set_op(op: u64) {
    TRACER.with(|t| t.borrow_mut().op = op);
}

/// Runs `f` inside a span named `name` when recording is on.
#[inline]
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let idx = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let now = t.epoch.elapsed().as_nanos() as u64;
        let span = Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: t.open.last().copied(),
            op: t.op,
        };
        t.spans.push(span);
        let idx = t.spans.len() - 1;
        t.open.push(idx);
        idx
    });
    let r = f();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let now = t.epoch.elapsed().as_nanos() as u64;
        t.spans[idx].end_ns = now;
        t.open.pop();
    });
    r
}

/// Takes every span recorded so far.
pub fn take() -> Vec<Span> {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().spans))
}

/// Self time per span name: each span's duration minus the time its
/// direct children cover, summed by name, in first-seen order.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.ns();
        }
    }
    let mut out: Vec<(&'static str, u64)> = Vec::new();
    for (s, c) in spans.iter().zip(child_ns) {
        let own = s.ns().saturating_sub(c);
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, t)) => *t += own,
            None => out.push((s.name, own)),
        }
    }
    out
}

/// Writes spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            f,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op
        )?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent_and_self_time_excludes_children() {
        enable(true);
        set_op(7);
        span("outer", || span("inner", || std::hint::black_box(1)));
        enable(false);
        span("ignored", || ());
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7));
        let selfs = self_times(&spans);
        assert_eq!(selfs.len(), 2);
        assert!(selfs[0].1 <= spans[0].ns());
    }

    #[test]
    fn spans_share_one_timeline_across_enables() {
        enable(true);
        span("first", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        enable(false);
        enable(true);
        span("second", || ());
        enable(false);
        let spans = take();
        assert!(spans[1].start_ns >= spans[0].end_ns);
    }
}
