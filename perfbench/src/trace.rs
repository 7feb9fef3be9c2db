//! The traced run's span recorder. Spans wrap the benchmark's own calls into
//! each layer's public functions (the program itself is not instrumented);
//! they are kept in memory and summarized — and written out — when the run
//! ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// What a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The benchmark's own grouping of one unit of work (a fit, a request, an
    /// ingest step). Its self time is benchmark glue, not a layer.
    Work,
    /// A call into a layer on the path the untraced run also takes; its self
    /// time counts towards coverage.
    Layer,
    /// A side measurement: the same call repeated beside the real path (for
    /// example `Synopsis::merge` next to the `update_merge` that runs it
    /// internally), so the layer shows up in the breakdown. Not counted in
    /// coverage, since the untraced run never pays for it.
    Side,
}

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer metric stem, e.g. `core.merging`.
    pub name: &'static str,
    /// What the span measures.
    pub kind: Kind,
    /// Spans of one request, fit or ingest step share this id.
    pub id: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Whether the wrapped call returned an error.
    pub failed: bool,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder, one per thread. A disabled recorder reads no
/// clock and stores nothing, so set-up code can take one unconditionally.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recording tracer measuring from `origin` (share one origin across
    /// threads so their spans line up).
    pub fn new(origin: Instant) -> Self {
        Self { origin, enabled: true, spans: Vec::new(), open: Vec::new() }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Self { origin: Instant::now(), enabled: false, spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one; close it with
    /// [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, kind: Kind, id: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let now = self.now_ns();
        let index = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, kind, id, parent, start_ns: now, end_ns: now, failed: false });
        self.open.push(index);
        index
    }

    /// Closes the innermost open span, which must be `index`.
    pub fn end(&mut self, index: usize, ok: bool) {
        if !self.enabled {
            return;
        }
        assert_eq!(self.open.pop(), Some(index), "spans must close innermost first");
        let now = self.now_ns();
        let span = &mut self.spans[index];
        span.end_ns = now;
        span.failed = !ok;
    }

    /// Runs a fallible call inside a span.
    pub fn time<T, E>(
        &mut self,
        name: &'static str,
        kind: Kind,
        id: u64,
        call: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        let span = self.begin(name, kind, id);
        let result = call();
        self.end(span, result.is_ok());
        result
    }

    /// Runs an infallible call inside a span.
    pub fn time_ok<T>(
        &mut self,
        name: &'static str,
        kind: Kind,
        id: u64,
        call: impl FnOnce() -> T,
    ) -> T {
        let span = self.begin(name, kind, id);
        let out = call();
        self.end(span, true);
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Summed duration of the `Layer` spans recorded since index `from` —
    /// the in-process cost of the request whose spans start there.
    pub fn layer_ns_since(&self, from: usize) -> u64 {
        self.spans[from.min(self.spans.len())..]
            .iter()
            .filter(|s| s.kind == Kind::Layer)
            .map(Span::duration_ns)
            .sum()
    }
}

/// Self time of every span: its duration minus the part of that interval
/// covered by its direct children (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, span.start_ns);
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-layer totals over any number of recorders.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerStats {
    /// What the spans measured (all spans of one name share a kind).
    pub kind: Option<Kind>,
    /// Calls recorded.
    pub calls: u64,
    /// Calls that returned an error.
    pub failures: u64,
    /// Self time of every call, in nanoseconds.
    pub self_ns: Vec<f64>,
}

impl LayerStats {
    /// Total self time in nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.self_ns.iter().sum()
    }
}

/// Aggregates the spans of several recorders by name.
pub fn aggregate<'a>(
    recorders: impl IntoIterator<Item = &'a Tracer>,
) -> BTreeMap<&'static str, LayerStats> {
    let mut out: BTreeMap<&'static str, LayerStats> = BTreeMap::new();
    for tracer in recorders {
        for (span, self_ns) in tracer.spans().iter().zip(self_times(tracer.spans())) {
            let stats = out.entry(span.name).or_default();
            stats.kind = Some(span.kind);
            stats.calls += 1;
            stats.failures += u64::from(span.failed);
            stats.self_ns.push(self_ns as f64);
        }
    }
    out
}

/// Writes the spans of the first `max_ids` work units of each recorder as
/// tab-separated lines: recorder, id, name, kind, parent, start, end, self
/// (nanoseconds), failed.
pub fn write_spans(
    out: &mut impl std::io::Write,
    recorders: &[&Tracer],
    max_ids: u64,
) -> std::io::Result<()> {
    writeln!(out, "recorder\tid\tname\tkind\tparent\tstart_ns\tend_ns\tself_ns\tfailed")?;
    for (r, tracer) in recorders.iter().enumerate() {
        let selfs = self_times(tracer.spans());
        let first_id = tracer.spans().first().map_or(0, |s| s.id);
        for (span, self_ns) in tracer.spans().iter().zip(selfs) {
            if span.id >= first_id + max_ids {
                continue;
            }
            let parent = span.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{r}\t{}\t{}\t{:?}\t{parent}\t{}\t{}\t{self_ns}\t{}",
                span.id, span.name, span.kind, span.start_ns, span.end_ns, span.failed
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, kind: Kind::Layer, id: 0, parent, start_ns, end_ns, failed: false }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root [0,100) ⊃ a [10,30), b [40,70) ⊃ c [45,50); d [100,120) is a
        // second root.
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 40, 70),
            span("c", Some(2), 45, 50),
            span("d", None, 100, 120),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 25, 5, 20]);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let spans = vec![
            span("root", None, 0, 100),
            span("x", Some(0), 10, 40),
            span("y", Some(0), 20, 60),
            span("z", Some(0), 90, 130), // runs past its parent: clipped
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn recorded_spans_nest_and_aggregate() {
        let mut tracer = Tracer::new(Instant::now());
        let root = tracer.begin("work", Kind::Work, 7);
        let v: Result<u32, ()> = tracer.time("layer.a", Kind::Layer, 7, || Ok(3));
        let e: Result<u32, ()> = tracer.time("layer.a", Kind::Layer, 7, || Err(()));
        tracer.time_ok("layer.side", Kind::Side, 7, || ());
        tracer.end(root, v.is_ok() && e.is_err());
        assert_eq!(tracer.spans()[1].parent, Some(0));
        assert!(tracer.spans().iter().all(|s| s.id == 7));

        let stats = aggregate([&tracer]);
        assert_eq!(stats["layer.a"].calls, 2);
        assert_eq!(stats["layer.a"].failures, 1);
        assert_eq!(stats["layer.side"].kind, Some(Kind::Side));
        let root_total = tracer.spans()[0].duration_ns() as f64;
        let parts: f64 = stats.values().map(LayerStats::total_ns).sum();
        assert!((parts - root_total).abs() < 1.0, "self times partition the root");
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::disabled();
        let span = tracer.begin("work", Kind::Work, 1);
        let out = tracer.time_ok("layer", Kind::Layer, 1, || 5);
        tracer.end(span, true);
        assert_eq!(out, 5);
        assert_eq!(tracer.len(), 0);
    }
}
