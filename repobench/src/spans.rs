//! Host-time spans recorded by the benchmark around its calls into each
//! crate, kept in memory and written out once at the end.
//!
//! A span's *self time* is its duration minus the durations of its direct
//! children. Children nest strictly inside their parent and siblings never
//! overlap (spans open and close in stack order on one thread), so self
//! times are never negative and a span's subtree tiles it exactly.

use std::collections::BTreeMap;
use std::time::Instant;

use tsp_telemetry::perfetto::{self, TraceBuilder};

/// One closed span, in nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span name (the per-layer metric it feeds, or a grouping label).
    pub name: &'static str,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin (≥ `start`).
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Handle for an open span; pass it back to [`Recorder::close`].
#[must_use = "a span stays open until it is closed"]
pub struct Open(Option<usize>);

/// A stack-ordered span recorder. Disabled recorders cost one branch per
/// call and record nothing.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    #[must_use]
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
        });
        self.stack.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    /// Closes `span`, which must be the innermost open span.
    ///
    /// # Panics
    ///
    /// If spans are closed out of stack order (a bug in the benchmark).
    pub fn close(&mut self, span: Open) {
        let Some(index) = span.0 else { return };
        assert_eq!(self.stack.pop(), Some(index), "spans close in stack order");
        self.spans[index].end = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.open(name);
        let out = f();
        self.close(span);
        out
    }

    /// Nanoseconds since the recorder's origin.
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        self.now()
    }

    /// The closed spans, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        debug_assert!(self.stack.is_empty(), "every span is closed");
        &self.spans
    }
}

/// Self time (ns) of every span: its duration minus its children's.
///
/// # Panics
///
/// If a child reaches outside its parent, which stack-ordered recording
/// rules out.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p]
                .checked_sub(s.dur())
                .expect("children fit inside their parent");
        }
    }
    out
}

/// Per-name totals: `(calls, total self ns)`.
#[must_use]
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += own;
    }
    out
}

/// Wall time of `[0, wall)` not covered by any top-level span.
#[must_use]
pub fn unspanned(spans: &[Span], wall: u64) -> u64 {
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur)
        .sum();
    wall.saturating_sub(covered)
}

/// The spans as a Perfetto (Trace Event Format) document on one host
/// track, timestamps in microseconds since the origin, validated before it
/// is returned.
///
/// # Errors
///
/// The validator's message if the document is malformed.
pub fn perfetto_json(spans: &[Span], workload: &str) -> Result<String, String> {
    let mut t = TraceBuilder::new();
    t.process(1, &format!("repobench {workload}"));
    t.thread(1, 1, "host");
    for (s, own) in spans.iter().zip(self_times(spans)) {
        t.span(
            1,
            1,
            s.name,
            s.start / 1000,
            s.dur().div_ceil(1000),
            &[("self_ns", own)],
        );
    }
    let doc = t.finish();
    perfetto::validate(&doc)?;
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    /// A small tree: run [0,100) ⊃ {a [10,40) ⊃ b [15,35), c [50,90)}.
    fn tree() -> Vec<Span> {
        vec![
            span("run", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 15, 35, Some(1)),
            span("c", 50, 90, Some(0)),
        ]
    }

    #[test]
    fn self_time_is_span_minus_children() {
        assert_eq!(self_times(&tree()), vec![30, 10, 20, 40]);
    }

    #[test]
    fn self_times_tile_every_subtree() {
        let spans = tree();
        let own = self_times(&spans);
        // The subtree under each span sums to exactly its duration.
        for (i, s) in spans.iter().enumerate() {
            let mut sum = 0;
            for (j, o) in own.iter().enumerate() {
                let mut k = Some(j);
                while let Some(x) = k {
                    if x == i {
                        sum += o;
                        break;
                    }
                    k = spans[x].parent;
                }
            }
            assert_eq!(sum, s.dur(), "subtree of {}", s.name);
        }
    }

    #[test]
    fn recorded_spans_never_go_negative_and_tile_the_wall() {
        let mut r = Recorder::new(true);
        for _ in 0..50 {
            let outer = r.open("outer");
            r.time("inner", || std::hint::black_box((0..500u64).sum::<u64>()));
            let mid = r.open("mid");
            r.time("leaf", || std::hint::black_box(7));
            r.close(mid);
            r.close(outer);
        }
        let wall = r.elapsed_ns();
        let spans = r.spans();
        let total: u64 = self_by_name(spans).values().map(|(_, ns)| ns).sum();
        assert_eq!(total + unspanned(spans, wall), wall);
        assert_eq!(self_by_name(spans)["leaf"].0, 50);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let s = r.open("x");
        r.close(s);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn export_validates() {
        let doc = perfetto_json(&tree(), "unit").expect("valid trace");
        assert!(doc.contains("\"self_ns\":30"));
    }

    #[test]
    #[should_panic(expected = "children fit inside their parent")]
    fn child_outside_parent_is_rejected() {
        let _ = self_times(&[span("p", 0, 10, None), span("c", 5, 20, Some(0))]);
    }
}
