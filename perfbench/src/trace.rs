//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the
//! program's public functions; nothing inside the program is
//! instrumented. Each thread owns a [`Tracer`]; spans nest within a
//! thread, and a span's *self time* is its duration minus the time its
//! direct children cover. Span names are layer names (`machine.run`,
//! `serve.client.probe`, ...); names starting with `op.` mark the
//! per-operation envelope, which is not a layer: its self time is the
//! benchmark's own glue and counts as unattributed.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Prefix of operation-envelope spans.
pub const OP_PREFIX: &str = "op.";

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer (or `op.*` envelope) name.
    pub name: &'static str,
    /// Index of the enclosing span in the same thread's list.
    pub parent: Option<usize>,
    /// The operation (item or request index) the span belongs to.
    pub op: u64,
    /// Start, ns since the trace origin.
    pub start_ns: u64,
    /// End, ns since the trace origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose timestamps count from `origin` (share one origin
    /// across threads so their spans line up).
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tags the spans that follow with operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            op: self.op,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let end_ns = self.now_ns();
        let i = self.open.pop().expect("end() without a matching begin()");
        self.spans[i].end_ns = end_ns;
    }

    /// Closes the innermost open span under a name chosen after the
    /// fact (e.g. a memo lookup that turned out to be a replay).
    pub fn end_as(&mut self, name: &'static str) {
        let end_ns = self.now_ns();
        let i = self
            .open
            .pop()
            .expect("end_as() without a matching begin()");
        self.spans[i].end_ns = end_ns;
        self.spans[i].name = name;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    /// Gives up the recorded spans (all must be closed).
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "trace has unclosed spans");
        self.spans
    }
}

/// Per-layer totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerStat {
    /// Spans of this name.
    pub calls: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus direct children), ns.
    pub self_ns: u64,
}

impl LayerStat {
    /// Mean span duration in ns (`0.0` for no calls).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

/// Per-name totals over one or more threads' spans.
pub fn layers(threads: &[Vec<Span>]) -> BTreeMap<&'static str, LayerStat> {
    let mut out: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
    for spans in threads {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        for (s, c) in spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.total_ns += s.dur_ns();
            e.self_ns += s.dur_ns().saturating_sub(c);
        }
    }
    out
}

/// `(wall − Σ layer self time) / wall`: the share of the traced wall
/// time no layer accounts for. `wall_ns` is the traced pass's wall time
/// summed over the threads that recorded spans.
pub fn unattributed_ratio(layers: &BTreeMap<&'static str, LayerStat>, wall_ns: u64) -> f64 {
    if wall_ns == 0 {
        return 0.0;
    }
    let attributed: u64 = layers
        .iter()
        .filter(|(name, _)| !name.starts_with(OP_PREFIX))
        .map(|(_, l)| l.self_ns)
        .sum();
    (wall_ns as f64 - attributed as f64) / wall_ns as f64
}

/// Writes the spans as a Chrome/Perfetto trace (`ph: "X"` events, one
/// `tid` per thread, µs timestamps).
pub fn write_chrome(path: &Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    w.write_all(b"{\"traceEvents\": [\n")?;
    let mut first = true;
    for (tid, spans) in threads.iter().enumerate() {
        for s in spans {
            if !first {
                w.write_all(b",\n")?;
            }
            first = false;
            write!(
                w,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"op\": {}}}}}",
                s.name,
                tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.op
            )?;
        }
    }
    w.write_all(b"\n]}\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("op.item", None, 0, 100),
            span("a", Some(0), 10, 60),
            span("b", Some(1), 20, 40),
            span("c", Some(0), 60, 100),
        ];
        let l = layers(&[spans]);
        assert_eq!(l["op.item"].self_ns, 10);
        assert_eq!(l["a"].self_ns, 30);
        assert_eq!(l["b"].self_ns, 20);
        assert_eq!(l["c"].self_ns, 40);
        assert_eq!(l["a"].total_ns, 50);
    }

    #[test]
    fn unattributed_ratio_is_zero_on_a_fully_covered_trace() {
        // Two threads, each fully covered by layer spans: the envelopes
        // have no self time and the layers' self times sum to the wall.
        let t0 = vec![
            span("op.item", None, 0, 100),
            span("a", Some(0), 0, 70),
            span("b", Some(1), 10, 30),
            span("c", Some(0), 70, 100),
        ];
        let t1 = vec![span("op.item", None, 0, 50), span("a", Some(0), 0, 50)];
        let l = layers(&[t0, t1]);
        assert_eq!(unattributed_ratio(&l, 150), 0.0);
    }

    #[test]
    fn unattributed_ratio_reports_gaps_and_envelope_self_time() {
        // 20 ns of envelope self time plus 50 ns outside any span.
        let t = vec![span("op.item", None, 0, 100), span("a", Some(0), 0, 80)];
        let l = layers(&[t]);
        assert!((unattributed_ratio(&l, 150) - 70.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_renames() {
        let mut tr = Tracer::new(Instant::now());
        tr.set_op(3);
        tr.begin("op.item");
        tr.time("a", || std::hint::black_box(1 + 1));
        tr.begin("memo");
        tr.end_as("memo.replay");
        tr.end();
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].name, "memo.replay");
        assert!(spans.iter().all(|s| s.op == 3 && s.end_ns >= s.start_ns));
    }
}
