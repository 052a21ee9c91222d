//! Spans recorded by the harness around its calls into the library.
//!
//! The library is not instrumented here (spans inside `ncs-core` are a
//! later change); every span brackets a public call, timed from outside.
//! Spans live in one pre-sized vector and are written out when the run
//! ends. A span's *self time* is its duration minus the part of it that
//! its children cover.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// What a span brackets. The metric derived from kind `K` is
/// `<K.name()>_p50_us`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// One closed-loop operation, as the client sees it (the root).
    Op,
    /// A `send`/`isend`/`iallreduce` call, entry to return.
    Submit,
    /// `isend` return until its request completed.
    SendComplete,
    /// The client blocked for its reply (`recv_view`) or completions.
    Wait,
    /// The peer thread blocked for the next message.
    PeerWait,
    /// The peer's `send` of the echo.
    PeerSubmit,
    /// Embedded send timestamp until the receiving call returned.
    OneWay,
    /// An `iallreduce` call, entry to return.
    CollSubmit,
    /// Blocked on a collective handle.
    CollWait,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Op => "app.op",
            Kind::Submit => "core.submit",
            Kind::SendComplete => "core.send_complete",
            Kind::Wait => "core.wait",
            Kind::PeerWait => "peer.wait",
            Kind::PeerSubmit => "peer.submit",
            Kind::OneWay => "app.one_way",
            Kind::CollSubmit => "coll.submit",
            Kind::CollWait => "coll.wait",
        }
    }
}

/// Index of a span's parent, or [`NO_PARENT`].
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (into the same trace) of the span that caused this one.
    pub parent: u32,
    /// Shared by every span of one operation, on whichever thread.
    pub op_id: u64,
}

/// The in-memory trace both benchmark threads append to.
#[derive(Debug)]
pub struct Trace {
    on: AtomicBool,
    cap: usize,
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    dropped: u64,
}

impl Trace {
    /// A disabled trace with room for `cap` spans.
    pub fn with_capacity(cap: usize) -> Arc<Self> {
        Arc::new(Trace {
            on: AtomicBool::new(false),
            cap,
            inner: Mutex::new(Inner {
                spans: Vec::with_capacity(cap),
                dropped: 0,
            }),
        })
    }

    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// One relaxed load: the whole cost of tracing when it is off.
    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("no trace writer panics while holding the lock")
    }

    /// Appends an operation's root span followed by its children, whose
    /// parent becomes the root. Spans beyond the capacity are counted, not
    /// stored.
    pub fn push_op(&self, op_id: u64, root: (Kind, u64, u64), children: &[(Kind, u64, u64)]) {
        let mut inner = self.lock();
        if inner.spans.len() + 1 + children.len() > self.cap {
            inner.dropped += 1 + children.len() as u64;
            return;
        }
        let parent = inner.spans.len() as u32;
        let span = |(kind, start_ns, end_ns), parent| Span {
            kind,
            start_ns,
            end_ns,
            parent,
            op_id,
        };
        inner.spans.push(span(root, NO_PARENT));
        inner
            .spans
            .extend(children.iter().map(|&c| span(c, parent)));
    }

    /// Appends a span recorded on the peer thread; its parent is resolved
    /// from `op_id` by [`Trace::finish`].
    pub fn push_remote(&self, op_id: u64, kind: Kind, start_ns: u64, end_ns: u64) {
        self.push_op(op_id, (kind, start_ns, end_ns), &[]);
    }

    /// Takes the spans, linking each parentless non-root span to the
    /// [`Kind::Op`] span sharing its `op_id`. Returns `(spans, dropped)`.
    pub fn finish(&self) -> (Vec<Span>, u64) {
        let mut inner = self.lock();
        let mut spans = std::mem::take(&mut inner.spans);
        let roots: HashMap<u64, u32> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kind == Kind::Op)
            .map(|(i, s)| (s.op_id, i as u32))
            .collect();
        for s in &mut spans {
            if s.kind != Kind::Op && s.parent == NO_PARENT {
                s.parent = roots.get(&s.op_id).copied().unwrap_or(NO_PARENT);
            }
        }
        (spans, std::mem::take(&mut inner.dropped))
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals, each clipped to the span.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(slot) = children.get_mut(s.parent as usize) {
            slot.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-kind summary of a finished trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KindSummary {
    pub count: usize,
    pub p50_us: f64,
    pub self_p50_us: f64,
}

pub fn summarize(spans: &[Span]) -> HashMap<Kind, KindSummary> {
    let selfs = self_times_ns(spans);
    let mut by_kind: HashMap<Kind, (Vec<f64>, Vec<f64>)> = HashMap::new();
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        let slot = by_kind.entry(s.kind).or_default();
        slot.0
            .push(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3);
        slot.1.push(self_ns as f64 / 1e3);
    }
    by_kind
        .into_iter()
        .map(|(kind, (durs, selfs))| {
            let summary = KindSummary {
                count: durs.len(),
                p50_us: crate::stats::median(&durs),
                self_p50_us: crate::stats::median(&selfs),
            };
            (kind, summary)
        })
        .collect()
}

/// The trace file: one JSON object, spans in recording order.
pub fn to_json(workload: &str, spans: &[Span], dropped: u64) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    out.push_str(&format!(
        "{{\"workload\":\"{}\",\"dropped\":{dropped},\"spans\":[",
        ncs_obs::json::escape(workload)
    ));
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}",
            s.kind.name(),
            s.start_ns,
            s.end_ns,
            s.op_id
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            kind,
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(Kind::Op, 100, 200, NO_PARENT),
            // Two overlapping children cover 110..150 once, not twice.
            span(Kind::Submit, 110, 140, 0),
            span(Kind::Wait, 130, 150, 0),
            // A child reaching outside its parent is clipped to it.
            span(Kind::PeerWait, 50, 105, 0),
            span(Kind::PeerSubmit, 190, 260, 0),
            // A grandchild shortens only its own parent.
            span(Kind::OneWay, 115, 120, 1),
        ];
        let selfs = self_times_ns(&spans);
        // 100 total - (5 + 40 + 10) covered.
        assert_eq!(selfs[0], 45);
        assert_eq!(selfs[1], 25);
        assert_eq!(selfs[2], 20);
        assert_eq!(selfs[5], 5);
    }

    #[test]
    fn self_time_of_a_fully_covered_span_is_zero() {
        let spans = [
            span(Kind::Op, 10, 20, NO_PARENT),
            span(Kind::Wait, 0, 30, 0),
        ];
        assert_eq!(self_times_ns(&spans), vec![0, 30]);
    }

    #[test]
    fn remote_spans_find_their_operation() {
        let trace = Trace::with_capacity(16);
        trace.set_enabled(true);
        trace.push_remote(7, Kind::PeerWait, 5, 15);
        trace.push_op(
            7,
            (Kind::Op, 10, 40),
            &[(Kind::Submit, 10, 12), (Kind::Wait, 12, 40)],
        );
        trace.push_remote(8, Kind::PeerSubmit, 41, 42);
        let (spans, dropped) = trace.finish();
        assert_eq!(dropped, 0);
        assert_eq!(spans[0].parent, 1, "peer span linked to op 7's root");
        assert_eq!(spans[1].parent, NO_PARENT);
        assert_eq!((spans[2].parent, spans[3].parent), (1, 1));
        assert_eq!(spans[4].parent, NO_PARENT, "no root for op 8");
        let summary = summarize(&spans);
        assert_eq!(summary[&Kind::Op].count, 1);
        // 30 ns, all of it covered by children or the clipped peer span.
        assert_eq!(summary[&Kind::Op].self_p50_us, 0.0);
    }

    #[test]
    fn a_full_trace_counts_what_it_drops() {
        let trace = Trace::with_capacity(2);
        trace.push_op(1, (Kind::Op, 0, 1), &[(Kind::Submit, 0, 1)]);
        trace.push_op(2, (Kind::Op, 1, 2), &[(Kind::Submit, 1, 2)]);
        let (spans, dropped) = trace.finish();
        assert_eq!((spans.len(), dropped), (2, 2));
    }

    #[test]
    fn trace_file_parses_back() {
        let spans = [span(Kind::Op, 1, 9, NO_PARENT), span(Kind::Submit, 2, 3, 0)];
        let text = to_json("w", &spans, 0);
        let json = ncs_bench::check::parse_json(&text).expect("trace JSON parses");
        let arr = json.get("spans").and_then(|s| s.as_arr()).expect("spans");
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("parent").and_then(|p| p.as_num()), Some(-1.0));
        assert_eq!(
            arr[1].get("name").and_then(|n| n.as_str()),
            Some("core.submit")
        );
    }
}
