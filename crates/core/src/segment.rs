//! Working segments of the merging algorithms, and the rounds that merge them.
//!
//! A [`Segment`] is one interval of the evolving partition together with the
//! sufficient statistics (`Σ q`, `Σ q²`) needed to evaluate merging errors in
//! constant time. These statistics play the role of the precomputed partial
//! sums `r_j`, `t_j` in Algorithm 1 of the paper: every candidate merge error
//! is an `O(1)` computation. A segment stores only its last index: it starts
//! one past its predecessor's end (the first at 0), so a level is a list of
//! 24-byte segments and starts are recomputed only when a level becomes a
//! [`Partition`] ([`with_starts`]).
//!
//! A fit does not build the initial segmentation `I₀` as a list. [`Segments`]
//! generates it on demand from the signal, and [`merge_rounds`] runs one
//! round shape under Algorithms 1 and 2 and `fastmerging`. Each round keeps
//! the `keep` groups of `g` whose merging errors are at least the threshold
//! `select::keep_threshold` returns (the tie rule the golden tests pin bit
//! for bit) and merges every other full group into one segment. An emit step
//! writes the next level: the first round reads `I₀` from the signal into a
//! buffer about `1/g` of its length, every later round rewrites that buffer
//! in place. The emit step has two shapes, chosen by the share of groups the
//! round keeps:
//!
//! * **Fused** (rounds that keep few groups: Algorithm 1, `fastmerging`).
//!   A kept group is a rare, well-predicted branch. The round's plan for the
//!   next level is known before it emits (its length follows from `keep`),
//!   so the emit step also folds each segment it writes into the next
//!   round's running group and writes that round's errors. Only the first
//!   round reads its level twice (once for its errors, once to emit).
//! * **Pairs** (pair rounds that keep at least `1/8` of their pairs:
//!   Algorithm 2 keeps half, so each decision is a coin flip). Each pair is
//!   emitted with no branch on its decision: the first segment or the pair's
//!   merge is written at the write cursor, the second segment after it, and
//!   the cursor advances past what is kept. The next round's errors come
//!   from one pass over the level just written.
//!
//! Every per-element loop reads a slice and writes by index. The first
//! round's errors of a dense signal come from `chunks_exact` groups (pairs
//! as `[f64; 2]`) of the values, and its emit step reads the values as
//! slices, each point's end being its index. A sparse signal's first round
//! reads its runs in order. Either way level 1 is written by index into a
//! buffer allocated and zero-filled to its length up front, as later rounds
//! write in place, so no write checks a capacity. Errors over a written level come from
//! `chunks_exact` groups of it, each starting one past the previous group's
//! end. A sparse `I₀`'s length is counted from the gaps between adjacent
//! entries, with no walk of its runs. The pair error passes have no branch,
//! so they vectorize: each error comes with whether its term stayed below
//! the cap (`stats::sse_below_cap`), and a pass that met a capped term is
//! redone on the exact path.

use std::hint::select_unpredictable;

use crate::histogram::Histogram;
use crate::interval::Interval;
use crate::partition::Partition;
use crate::select::{keep_threshold, SelectBuffers};
use crate::sparse::SparseFunction;
use crate::stats::{sse_below_cap, sse_from_sums};

/// One interval of the working partition, with the sum and sum of squares of
/// the input function over it. The interval ends at `end` and starts one past
/// the previous segment's end (the first segment at 0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Segment {
    /// Last domain index covered by this segment (inclusive).
    pub(crate) end: usize,
    /// `Σ q(i)` over the segment.
    pub(crate) sum: f64,
    /// `Σ q(i)²` over the segment.
    pub(crate) sum_sq: f64,
}

impl Segment {
    /// A segment ending at `end` on which the input function is identically zero.
    #[inline]
    pub(crate) fn zero(end: usize) -> Self {
        Self { end, sum: 0.0, sum_sq: 0.0 }
    }

    /// The singleton segment `[i, i]` with value `v`.
    #[inline]
    pub(crate) fn point(i: usize, v: f64) -> Self {
        Self { end: i, sum: v, sum_sq: v * v }
    }

    /// The segment covering `self` and the segment directly after it.
    #[inline]
    fn merged(self, next: Segment) -> Segment {
        Segment { end: next.end, sum: self.sum + next.sum, sum_sq: self.sum_sq + next.sum_sq }
    }

    /// `self` if `keep`, else its merge with `next`, chosen field by field
    /// with no branch on `keep` (a whole-segment select goes through memory).
    #[inline]
    fn kept_or_merged(self, next: Segment, keep: bool) -> Segment {
        let merged = self.merged(next);
        Segment {
            end: select_unpredictable(keep, self.end, merged.end),
            sum: select_unpredictable(keep, self.sum, merged.sum),
            sum_sq: select_unpredictable(keep, self.sum_sq, merged.sum_sq),
        }
    }

    /// Number of domain indices covered when the segment starts at `start`.
    #[inline]
    fn len(self, start: usize) -> f64 {
        (self.end - start + 1) as f64
    }

    /// Mean of the input function over this segment (the flattening value
    /// `µ_q(I)`), when it starts at `start`.
    #[inline]
    pub(crate) fn mean(self, start: usize) -> f64 {
        self.sum / self.len(start)
    }

    /// Squared error `err_q(I)` of flattening this segment, when it starts at
    /// `start`.
    #[inline]
    pub(crate) fn sse(self, start: usize) -> f64 {
        sse_from_sums(self.sum, self.sum_sq, self.len(start))
    }

    /// The merging error `e_u` of Algorithm 1 when this segment is a merged
    /// group starting at `start`: its [`Self::sse`], with an error whose
    /// squares overflowed kept finite (`f64::MAX` ranks as `+∞` did), so the
    /// `+∞` the selection marks its picks with stays apart from every error.
    #[inline]
    fn error(self, start: usize) -> f64 {
        self.sse(start).min(f64::MAX)
    }

    /// [`Self::error`] with no branch, and whether it is exact: it is
    /// unless a term reached `f64::MAX` (see `stats::sse_below_cap`).
    #[inline]
    fn error_below_cap(self, start: usize) -> (f64, bool) {
        let (sse, below) = sse_below_cap(self.sum, self.sum_sq, self.len(start));
        (sse.min(f64::MAX), below)
    }
}

/// Each segment of a contiguous list with the first domain index it covers.
pub(crate) fn with_starts(
    segments: impl IntoIterator<Item = Segment>,
) -> impl Iterator<Item = (usize, Segment)> {
    segments.into_iter().scan(0, |next_start, s| {
        let start = *next_start;
        *next_start = s.end + 1;
        Some((start, s))
    })
}

/// The exact initial segmentation `I₀` of a signal, generated on demand
/// rather than stored: one point per value of a dense signal; every entry
/// of a sparse one as a point and every maximal run of zeros as one segment
/// (at most `2s + 1` segments). The flattening of `q` over `I₀` equals `q`.
#[derive(Clone, Copy)]
pub(crate) enum Segments<'a> {
    /// One [`Segment::point`] per value.
    Dense(&'a [f64]),
    /// Every entry as a point and every maximal run of zeros as one segment.
    Sparse(&'a SparseFunction),
}

impl<'a> Segments<'a> {
    /// Number of segments in `I₀`. For a sparse signal: its entries, plus a
    /// zero run before every entry that does not directly follow its
    /// predecessor (or index 0) and one after the last entry if it is not
    /// at the domain's end, counted with no branch per entry and no walk of
    /// the runs.
    pub(crate) fn len(self) -> usize {
        let q = match self {
            Segments::Dense(values) => return values.len(),
            Segments::Sparse(q) => q,
        };
        let entries = q.entries();
        let (Some(&(first, _)), Some(&(last, _))) = (entries.first(), entries.last()) else {
            return 1;
        };
        let gaps: usize = entries.windows(2).map(|w| usize::from(w[1].0 - w[0].0 > 1)).sum();
        entries.len() + gaps + usize::from(first > 0) + usize::from(last + 1 < q.domain())
    }

    /// The segments of `I₀`, in order.
    pub(crate) fn iter(self) -> impl Iterator<Item = Segment> + Clone + 'a {
        let (dense, sparse) = match self {
            Segments::Dense(values) => (Some(values.iter().enumerate()), None),
            Segments::Sparse(q) => (None, Some(SparseRuns::new(q))),
        };
        let points = dense.into_iter().flatten().map(|(i, &v)| Segment::point(i, v));
        points.chain(sparse.into_iter().flatten())
    }
}

/// [`Segments::Sparse`]'s segments: the zero run before each entry, the
/// entry's point, and the zero run after the last entry.
#[derive(Clone)]
struct SparseRuns<'a> {
    entries: &'a [(usize, f64)],
    /// First index not yet covered.
    cursor: usize,
    domain: usize,
}

impl<'a> SparseRuns<'a> {
    fn new(q: &'a SparseFunction) -> Self {
        Self { entries: q.entries(), cursor: 0, domain: q.domain() }
    }
}

impl Iterator for SparseRuns<'_> {
    type Item = Segment;

    #[inline]
    fn next(&mut self) -> Option<Segment> {
        let start = self.cursor;
        match self.entries.split_first() {
            Some((&(i, _), _)) if i > start => {
                self.cursor = i;
                Some(Segment::zero(i - 1))
            }
            Some((&(i, v), rest)) => {
                self.entries = rest;
                self.cursor = i + 1;
                Some(Segment::point(i, v))
            }
            None if start < self.domain => {
                self.cursor = self.domain;
                Some(Segment::zero(self.domain - 1))
            }
            None => None,
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // A point per entry left, each perhaps after a zero run, and a last run.
        (self.entries.len(), Some(2 * self.entries.len() + 1))
    }
}

/// The one group merge of every round: the segment covering a run of
/// adjacent segments, folded left to right. Its sums equal `Iterator::sum`'s,
/// which folds from `−0.0` (and `−0.0 + x` is `x` bit for bit).
#[inline]
fn merge_run(mut run: impl Iterator<Item = Segment>) -> Segment {
    let first = run.next().expect("runs are non-empty");
    run.fold(first, Segment::merged)
}

/// [`merge_run`] over the points of a dense run of values starting at
/// `start`: the same sums, folded in the same order, with the end taken from
/// the run's length.
#[inline]
fn merge_points(start: usize, run: &[f64]) -> Segment {
    let (&first, rest) = run.split_first().expect("runs are non-empty");
    let (sum, sum_sq) = rest.iter().fold((first, first * first), |(s, q), &v| (s + v, q + v * v));
    Segment { end: start + rest.len(), sum, sum_sq }
}

/// Length of a level of `len` segments after a round that keeps `keep`
/// groups of `g` and merges every other full group.
fn merged_len(len: usize, g: usize, keep: usize) -> usize {
    let groups = len / g;
    len - (groups - keep.min(groups)) * (g - 1)
}

/// Runs a fit's merging rounds over `src` and returns the last level and the
/// length of `I₀`. `plan(len)` gives the next round's group size `g ≥ 2` and
/// keep count for a level of `len` segments, or `None` to stop there.
/// `visit` sees every level a round writes, with the errors it wrote for the
/// next round (empty after the last round). The first round reads `src`
/// itself; later rounds run in place on the buffer it wrote, so the
/// full-length `I₀` is never built unless no round runs.
pub(crate) fn merge_rounds(
    src: Segments<'_>,
    mut plan: impl FnMut(usize) -> Option<(usize, usize)>,
    visit: impl FnMut(&[Segment], &[f64]),
) -> (Vec<Segment>, usize) {
    let len = src.len();
    let Some(first) = plan(len) else {
        return (src.iter().collect(), len);
    };
    // One dispatch per fit: every round below is monomorphic in its source.
    let level = match src {
        Segments::Dense(values) => rounds_from(Points { values, at: 0 }, len, first, plan, visit),
        Segments::Sparse(q) => rounds_from(SparseRuns::new(q), len, first, plan, visit),
    };
    (level, len)
}

fn rounds_from<S: Source>(
    src: S,
    len: usize,
    (g, keep): (usize, usize),
    mut plan: impl FnMut(usize) -> Option<(usize, usize)>,
    mut visit: impl FnMut(&[Segment], &[f64]),
) -> Vec<Segment> {
    let mut buffers = SelectBuffers::default();
    // The first round's errors: a pass over the source, with no level behind.
    let mut errors = Vec::new();
    src.group_errors(len, g, &mut errors);

    let out_len = merged_len(len, g, keep);
    let mut next = plan(out_len);
    // One spare slot: a pair emit writes both segments of a pair it merges.
    let mut segments = vec![Segment::zero(0); out_len + 1];
    let level = Fresh { src, out: &mut segments, write: 0 };
    let written = round(level, len, g, keep, next, &mut errors, &mut buffers).write;
    segments.truncate(written);
    visit(&segments, &errors);

    while let Some((g, keep)) = next {
        let len = segments.len();
        next = plan(merged_len(len, g, keep));
        let level = InPlace { segments: &mut segments, read: 0, write: 0 };
        let written = round(level, len, g, keep, next, &mut errors, &mut buffers).write;
        segments.truncate(written);
        visit(&segments, &errors);
    }
    segments
}

/// A cursor over a signal's `I₀`, which the first round reads in order.
trait Source {
    /// Reads the next `g` segments and returns their merge.
    fn merge(&mut self, g: usize) -> Segment;
    /// Reads the next segment.
    fn next(&mut self) -> Segment;
    /// Fills `errors` with the merging error of each full group of `g` in
    /// `I₀`, which has `len` segments, without moving the cursor.
    fn group_errors(&self, len: usize, g: usize, errors: &mut Vec<f64>);
}

/// [`Segments::Dense`]'s `I₀` from index `at` on: each value is a point
/// whose end is its index.
struct Points<'a> {
    values: &'a [f64],
    at: usize,
}

impl Source for Points<'_> {
    #[inline]
    fn merge(&mut self, g: usize) -> Segment {
        let s = merge_points(self.at, &self.values[self.at..self.at + g]);
        self.at += g;
        s
    }

    #[inline]
    fn next(&mut self) -> Segment {
        let s = Segment::point(self.at, self.values[self.at]);
        self.at += 1;
        s
    }

    fn group_errors(&self, len: usize, g: usize, errors: &mut Vec<f64>) {
        let values = &self.values[..len];
        errors.clear();
        match g {
            2 => {
                let pairs = values.as_chunks().0;
                let mut exact = true;
                errors.extend(pairs.iter().map(|pair: &[f64; 2]| {
                    let (error, below) = merge_points(0, pair).error_below_cap(0);
                    exact &= below;
                    error
                }));
                if !exact {
                    errors.clear();
                    errors.extend(pairs.iter().map(|pair| merge_points(0, pair).error(0)));
                }
            }
            _ => errors.extend(values.chunks_exact(g).map(|run| merge_points(0, run).error(0))),
        }
    }
}

impl Source for SparseRuns<'_> {
    #[inline]
    fn merge(&mut self, g: usize) -> Segment {
        let first = Source::next(self);
        (1..g).fold(first, |run, _| run.merged(Source::next(self)))
    }

    #[inline]
    fn next(&mut self) -> Segment {
        Iterator::next(self).expect("reads stay within I₀")
    }

    fn group_errors(&self, len: usize, g: usize, errors: &mut Vec<f64>) {
        let mut src = self.clone();
        errors.clear();
        match g {
            2 => errors.extend((0..len / 2).map(chained(|_| Source::merge(&mut src, 2)))),
            _ => errors.extend((0..len / g).map(chained(|_| Source::merge(&mut src, g)))),
        }
    }
}

/// Where a round reads its level and writes the next one. Writes never
/// overtake reads: a group is read before its output is written, and it
/// becomes at most as many segments as it had.
trait Level {
    /// Reads the next `g` segments and writes their merge, which it returns.
    fn merge(&mut self, g: usize) -> Segment;
    /// Reads the next `n` segments and writes them through, returning them.
    fn copy(&mut self, n: usize) -> &[Segment];
    /// Reads the next pair and writes it through if `keep`, merged otherwise,
    /// with no branch on `keep`: it writes the first segment or the merge,
    /// then the second segment one after it, and advances past what it kept.
    fn pair(&mut self, keep: bool);
    /// The segments written so far.
    fn written(&self) -> &[Segment];
}

/// The first round: reads the signal's `I₀` from `src`, writes level 1 by
/// index into a buffer sized for it.
struct Fresh<'a, S> {
    src: S,
    out: &'a mut [Segment],
    write: usize,
}

impl<S: Source> Level for Fresh<'_, S> {
    #[inline]
    fn merge(&mut self, g: usize) -> Segment {
        let s = self.src.merge(g);
        self.out[self.write] = s;
        self.write += 1;
        s
    }

    #[inline]
    fn copy(&mut self, n: usize) -> &[Segment] {
        let at = self.write;
        for slot in &mut self.out[at..at + n] {
            *slot = self.src.next();
        }
        self.write += n;
        &self.out[at..at + n]
    }

    #[inline]
    fn pair(&mut self, keep: bool) {
        let (a, b) = (self.src.next(), self.src.next());
        self.out[self.write] = a.kept_or_merged(b, keep);
        self.out[self.write + 1] = b;
        self.write += 1 + usize::from(keep);
    }

    fn written(&self) -> &[Segment] {
        &self.out[..self.write]
    }
}

/// A later round: rewrites its level in place.
struct InPlace<'a> {
    segments: &'a mut [Segment],
    read: usize,
    write: usize,
}

impl Level for InPlace<'_> {
    #[inline]
    fn merge(&mut self, g: usize) -> Segment {
        let s = merge_run(self.segments[self.read..self.read + g].iter().copied());
        self.read += g;
        self.segments[self.write] = s;
        self.write += 1;
        s
    }

    #[inline]
    fn copy(&mut self, n: usize) -> &[Segment] {
        let at = self.write;
        self.segments.copy_within(self.read..self.read + n, at);
        self.read += n;
        self.write += n;
        &self.segments[at..at + n]
    }

    #[inline]
    fn pair(&mut self, keep: bool) {
        let (a, b) = (self.segments[self.read], self.segments[self.read + 1]);
        self.read += 2;
        self.segments[self.write] = a.kept_or_merged(b, keep);
        self.segments[self.write + 1] = b;
        self.write += 1 + usize::from(keep);
    }

    fn written(&self) -> &[Segment] {
        &self.segments[..self.write]
    }
}

/// One round over a `level` of `len` segments whose group errors are
/// `errors`: keeps the `keep` groups of `g` with the largest errors, merges
/// every other full group into one segment and carries over the segments
/// after the last full group. `next` is the plan for the level it writes;
/// `errors` ends holding that level's group errors (empty if `next` is
/// `None`). The level is moved in and out, so the emit loop keeps its
/// cursors in registers.
fn round<L: Level>(
    level: L,
    len: usize,
    g: usize,
    keep: usize,
    next: Option<(usize, usize)>,
    errors: &mut Vec<f64>,
    buffers: &mut SelectBuffers,
) -> L {
    let (tau, _) = keep_threshold(errors, keep, buffers);
    let groups = len / g;
    if g == 2 && keep.saturating_mul(DENSE_KEEPS) >= groups {
        let level = emit_pairs(level, len, tau, errors);
        let written = level.written();
        match next {
            Some((g, _)) => group_errors(written, g, errors),
            None => errors.clear(),
        }
        return level;
    }
    let next_g = next.map_or(usize::MAX, |(g, _)| g);
    let next_groups = merged_len(len, g, keep) / next_g;
    // A next group at least as large as this round's completes at most once
    // per group read, so its error overwrites one already read. A smaller
    // one could overtake the reads: its errors go after this round's.
    let base = if next_g >= g { 0 } else { groups };
    errors.resize(errors.len().max(base + next_groups), 0.0);
    let (level, written) = match (g, next_g) {
        (2, 2) => emit::<2, 2, _>(level, len, g, tau, NextErrors::new(next_g, base), errors),
        (2, _) => emit::<2, 0, _>(level, len, g, tau, NextErrors::new(next_g, base), errors),
        _ => emit::<0, 0, _>(level, len, g, tau, NextErrors::new(next_g, base), errors),
    };
    debug_assert_eq!(written, next_groups);
    errors.copy_within(base..base + next_groups, 0);
    errors.truncate(next_groups);
    level
}

/// A pair round whose keeps are at least `1 / DENSE_KEEPS` of its pairs
/// (Algorithm 2 keeps half) emits with [`emit_pairs`]: its keep decisions
/// are too dense for a branch on them to be predicted. Rounds that keep few
/// pairs (Algorithm 1, `fastmerging`) predict that branch well and keep the
/// fused [`emit`].
const DENSE_KEEPS: usize = 8;

/// The emit step of a round of pairs with dense keeps: writes the next level
/// through `level` with one [`Level::pair`] per pair and carries an odd
/// segment over. The next round's errors are left to a pass over the level.
#[inline]
fn emit_pairs<L: Level>(mut level: L, len: usize, tau: f64, errors: &[f64]) -> L {
    for &error in errors {
        level.pair(error >= tau);
    }
    level.copy(len % 2);
    level
}

/// The emit step of [`round`]: writes the next level through `level`,
/// folds each written segment into `next` and returns the level and the
/// number of errors `next` wrote.
///
/// `G` is `g` when the caller knows it at compile time (2, for pair rounds)
/// and 0 otherwise: each `G` gets its own code, so a pair's merge is one add
/// rather than a loop over a run-time group size. `H` is the same for the
/// next round's groups.
#[inline]
fn emit<const G: usize, const H: usize, L: Level>(
    mut level: L,
    len: usize,
    g: usize,
    tau: f64,
    mut next: NextErrors<H>,
    errors: &mut [f64],
) -> (L, usize) {
    let g = if G == 0 { g } else { G };
    let groups = len / g;
    for u in 0..groups {
        if errors[u] >= tau && G == 2 {
            // A pair is copied one by one: a bulk copy costs more.
            next.push(level.merge(1), errors);
            next.push(level.merge(1), errors);
        } else if errors[u] >= tau {
            next.push_all(level.copy(g), errors);
        } else {
            let s = level.merge(g);
            next.push(s, errors);
        }
    }
    next.push_all(level.copy(len - groups * g), errors);
    (level, next.written)
}

/// Fills `errors` with the merging error of each full group of `g` in
/// `level`.
fn group_errors(level: &[Segment], g: usize, errors: &mut Vec<f64>) {
    errors.clear();
    match g {
        2 => {
            let pairs = level.as_chunks().0;
            let (mut start, mut exact) = (0, true);
            errors.extend(pairs.iter().map(|&[a, b]| {
                let run = a.merged(b);
                let (error, below) = run.error_below_cap(start);
                (start, exact) = (run.end + 1, exact & below);
                error
            }));
            if !exact {
                errors.clear();
                errors.extend(pairs.iter().map(chained(|&[a, b]: &[Segment; 2]| a.merged(b))));
            }
        }
        _ => errors.extend(
            level.chunks_exact(g).map(chained(|run: &[Segment]| merge_run(run.iter().copied()))),
        ),
    }
}

/// Maps each of a level's groups, in order, to its merging error, where
/// `merge` merges a group: each group starts one past the previous group's
/// end. The start is the closure's own, so it stays in a register.
#[inline]
fn chained<G>(mut merge: impl FnMut(G) -> Segment) -> impl FnMut(G) -> f64 {
    let mut start = 0;
    move |group| {
        let run = merge(group);
        let error = run.error(start);
        start = run.end + 1;
        error
    }
}

/// The running group of the next round: every segment a round writes is
/// folded in, and each full group's merging error is written to
/// `errors[base..]` in order. `H` is the group size when known at compile
/// time (2) and 0 otherwise.
struct NextErrors<const H: usize> {
    g: usize,
    base: usize,
    /// Errors written so far.
    written: usize,
    /// Segments in the running group.
    count: usize,
    /// The running group's merge, whose end is the last index folded in. It
    /// starts as a placeholder ending at `usize::MAX`, one before index 0.
    run: Segment,
    /// The first index the running group covers.
    start: usize,
}

impl<const H: usize> NextErrors<H> {
    fn new(g: usize, base: usize) -> Self {
        let g = if H == 0 { g } else { H };
        Self { g, base, written: 0, count: 0, run: Segment::zero(usize::MAX), start: 0 }
    }

    #[inline]
    fn push(&mut self, s: Segment, errors: &mut [f64]) {
        if self.count == 0 {
            self.start = self.run.end.wrapping_add(1);
            self.run = s;
        } else {
            self.run = self.run.merged(s);
        }
        self.count += 1;
        if self.count == self.g {
            errors[self.base + self.written] = self.run.error(self.start);
            self.written += 1;
            self.count = 0;
        }
    }

    /// [`Self::push`] for each of `segments`, with whole groups folded in
    /// one go (pairs, `H = 2`, are pushed one by one: their runs are short).
    #[inline]
    fn push_all(&mut self, segments: &[Segment], errors: &mut [f64]) {
        if H == 2 {
            for &s in segments {
                self.push(s, errors);
            }
            return;
        }
        let g = self.g;
        let mut rest = segments;
        while self.count != 0 && !rest.is_empty() {
            self.push(rest[0], errors);
            rest = &rest[1..];
        }
        let mut groups = rest.chunks_exact(g);
        for group in &mut groups {
            let run = merge_run(group.iter().copied());
            errors[self.base + self.written] = run.error(self.run.end.wrapping_add(1));
            self.written += 1;
            self.run = run;
        }
        for &s in groups.remainder() {
            self.push(s, errors);
        }
    }
}

/// Converts a list of contiguous segments into a [`Partition`].
pub(crate) fn segments_to_partition(
    domain: usize,
    segments: impl IntoIterator<Item = Segment>,
) -> Partition {
    let intervals = with_starts(segments).map(|(start, s)| Interval::new_unchecked(start, s.end));
    Partition::new(domain, intervals.collect())
        .expect("segments form a contiguous cover of the domain")
}

/// The flattening value (the mean) of each of a list of contiguous segments.
pub(crate) fn segment_means(segments: impl IntoIterator<Item = Segment>) -> Vec<f64> {
    with_starts(segments).map(|(start, s)| s.mean(start)).collect()
}

/// Converts a list of contiguous segments into the flattening [`Histogram`]
/// (each piece takes the segment mean).
pub(crate) fn segments_to_histogram(domain: usize, segments: &[Segment]) -> Histogram {
    let partition = segments_to_partition(domain, segments.iter().copied());
    Histogram::new(partition, segment_means(segments.iter().copied()))
        .expect("segment means are finite")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast::group_size;
    use crate::params::MergingParams;
    use crate::test_support::{lcg, two_pass_sse};

    #[test]
    fn segment_statistics() {
        let s = Segment { end: 5, sum: 8.0, sum_sq: 20.0 };
        assert_eq!(s.mean(2), 2.0);
        assert!((s.sse(2) - (20.0 - 16.0)).abs() < 1e-12);
        let m = Segment::point(0, 1.0).merged(Segment::point(1, 3.0));
        assert_eq!((m.end, m.sum, m.sum_sq), (1, 4.0, 10.0));
        // err over {1, 3}: mean 2, sse = 1 + 1 = 2.
        assert!((m.sse(0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn a_merged_segment_whose_square_of_sums_overflows_reads_its_true_error() {
        // (Σq)² overflows, Σq² does not: the error is the two-pass 7.5e303.
        let values = [6.5e153, 6.5e153, 6.5e153, 6.6e153];
        let merged = merge_run(Segments::Dense(&values).iter());
        let want = two_pass_sse(&values);
        assert!((merged.sse(0) - want).abs() <= 1e-9 * want, "{} vs {want}", merged.sse(0));
        assert!((merge_points(0, &values).sse(0) - want).abs() <= 1e-9 * want);
    }

    /// `Segments::len` counts exactly the segments `Segments::iter` yields.
    #[test]
    fn sparse_length_counts_every_run() {
        let cases: [(usize, &[usize]); 9] = [
            (1, &[]),
            (9, &[]),
            (1, &[0]),
            (9, &[0]),
            (9, &[8]),
            (9, &[4]),
            (9, &[0, 1, 2, 8]),
            (9, &[1, 2, 4, 7]),
            (9, &(0..9).collect::<Vec<_>>()),
        ];
        for (domain, at) in cases {
            let q = SparseFunction::new(domain, at.iter().map(|&i| (i, 1.0)).collect()).unwrap();
            let src = Segments::Sparse(&q);
            assert_eq!(src.len(), src.iter().count(), "domain {domain}, entries at {at:?}");
        }
        let mut seed = 17u64;
        let mut at = 0;
        let gaps: Vec<(usize, f64)> = (0..5_000)
            .map(|_| {
                at += 1 + (lcg(&mut seed) * 3.0) as usize;
                (at, lcg(&mut seed))
            })
            .collect();
        for domain in [at + 1, at + 2, at + 100] {
            let q = SparseFunction::new(domain, gaps.clone()).unwrap();
            assert_eq!(Segments::Sparse(&q).len(), Segments::Sparse(&q).iter().count());
        }
    }

    type Plan = Box<dyn FnMut(usize) -> Option<(usize, usize)>>;

    /// The round plans of Algorithm 1, `fastmerging` and Algorithm 2, the
    /// plans of the tests below, pairs and groups of 3 down to a level of
    /// one group, and one round whose group is longer than its level: each
    /// fresh, as a fit starts them.
    fn identity_plans() -> Vec<Plan> {
        let params = MergingParams::new(2, 1.0, 1.0).unwrap();
        let (max, keep) = (params.max_intervals().max(1), params.keep_count());
        let mut fired = false;
        vec![
            Box::new(move |len| (len > max && len / 2 > keep).then_some((2, keep))),
            Box::new(move |len| {
                let g = group_size(len, keep);
                (len > max && len / g > keep).then_some((g, keep))
            }),
            Box::new(crate::hierarchical::plan),
            Box::new(|len| (len > 200 && len / 2 > 65).then_some((2, 65))),
            Box::new(|len| (len >= 16).then(|| (2, (len / 2).div_ceil(DENSE_KEEPS) - 1))),
            Box::new(|len| {
                let g = group_size(len, 65);
                (len > 200 && len / g > 65).then_some((g, 65))
            }),
            Box::new(|len| (len >= 2).then_some((2, len / 4))),
            Box::new(|len| (len >= 3).then_some((3, len / 9))),
            Box::new(move |len| (!std::mem::replace(&mut fired, true)).then_some((len + 2, 1))),
        ]
    }

    /// Every level a fit's rounds write over `src`, with the errors written
    /// for the round after it, as bits; then the last level and `I₀`'s length.
    type Rounds = (Vec<(Vec<(usize, u64, u64)>, Vec<u64>)>, Vec<(usize, u64, u64)>, usize);

    fn rounds(src: Segments<'_>, plan: Plan) -> Rounds {
        let mut levels = Vec::new();
        let (last, len) = merge_rounds(src, plan, |level, errors| {
            levels.push((bits(level), errors.iter().map(|e| e.to_bits()).collect()));
        });
        (levels, bits(&last), len)
    }

    /// A dense signal and the same values stored sparse with every zero kept
    /// have the same `I₀`, so every round over them writes the same level
    /// and the same errors, bit for bit, under every plan: the dense rounds
    /// read the values as slices, the sparse ones through their runs (whose
    /// first error pass has no branch-free form to redo).
    #[test]
    fn dense_and_kept_zeros_sparse_sources_run_identical_rounds() {
        let mut seed = 23u64;
        let mut noise = |len: usize| -> Vec<f64> { (0..len).map(|_| lcg(&mut seed)).collect() };
        let signed_zeros: Vec<f64> = (0..1_001)
            .map(|i| match i % 5 {
                0 | 3 => -0.0,
                1 => 0.0,
                _ => (i % 7) as f64 - 3.0,
            })
            .collect();
        let mut inputs: Vec<Vec<f64>> =
            [1, 2, 3, 4, 5, 7, 63, 64, 65, 127, 129, 1_001, 4_097].map(&mut noise).into();
        inputs.push(signed_zeros);
        inputs.push(vec![-0.0; 33]);
        // Sums whose squares overflow beside finite sums of squares.
        inputs.push((0..1_001).map(|i| 9.4e153 + (i % 3) as f64 * 1e151).collect());
        inputs.push((0..1_001).map(|i| 6.5e153 + (i % 3) as f64 * 5e151).collect());
        let mut checked = 0;
        for values in &inputs {
            let sparse = SparseFunction::from_dense_keep_zeros(values).unwrap();
            for (dense_plan, sparse_plan) in identity_plans().into_iter().zip(identity_plans()) {
                let dense = rounds(Segments::Dense(values), dense_plan);
                let want = rounds(Segments::Sparse(&sparse), sparse_plan);
                assert_eq!(dense, want, "{} values", values.len());
                checked += dense.0.len();
            }
        }
        assert!(checked > 100, "{checked} rounds compared");
    }

    #[test]
    fn initial_segments_are_exact() {
        let dense = vec![0.0, 0.0, 3.0, 0.0, 5.0, 7.0, 0.0, 0.0];
        let q = SparseFunction::from_dense(&dense).unwrap();
        let segs: Vec<Segment> = Segments::Sparse(&q).iter().collect();
        // zeros [0,1], point 2, zero [3,3], point 4, point 5, zeros [6,7]
        let ends: Vec<usize> = segs.iter().map(|s| s.end).collect();
        assert_eq!(ends, [1, 2, 3, 4, 5, 7]);
        assert!(with_starts(segs.iter().copied()).all(|(start, s)| s.sse(start) == 0.0));
        assert_eq!(segments_to_histogram(8, &segs).to_dense(), dense);
        let zero = SparseFunction::new(5, Vec::new()).unwrap();
        assert_eq!(Segments::Sparse(&zero).iter().collect::<Vec<_>>(), [Segment::zero(4)]);
    }

    #[test]
    fn partition_and_histogram_conversion() {
        let segs = [Segment::zero(2), Segment::point(3, 6.0), Segment::zero(4)];
        assert_eq!(segments_to_partition(5, segs).len(), 3);
        let h = segments_to_histogram(5, &segs);
        assert_eq!(h.to_dense(), vec![0.0, 0.0, 0.0, 6.0, 0.0]);
    }

    /// The group errors a fresh pass over `level` finds for groups of `g`.
    fn error_pass(level: &[Segment], g: usize) -> Vec<u64> {
        let starts: Vec<(usize, Segment)> = with_starts(level.iter().copied()).collect();
        let group = |run: &[(usize, Segment)]| {
            let merged = run[1..].iter().fold(run[0].1, |m, &(_, s)| m.merged(s));
            merged.error(run[0].0).to_bits()
        };
        starts.chunks_exact(g).map(group).collect()
    }

    /// A segment's fields as bits, so equal levels are equal bit for bit.
    fn bits(level: &[Segment]) -> Vec<(usize, u64, u64)> {
        level.iter().map(|s| (s.end, s.sum.to_bits(), s.sum_sq.to_bits())).collect()
    }

    /// A pair round done naively: a fresh error pass, the `keep` largest
    /// errors found by a sort (they must be tie-free, so the set is unique),
    /// and the next level rebuilt pair by pair.
    fn reference_pair_round(level: &[Segment], keep: usize) -> Vec<Segment> {
        let errors: Vec<f64> = error_pass(level, 2).into_iter().map(f64::from_bits).collect();
        let mut order: Vec<usize> = (0..errors.len()).collect();
        order.sort_by(|&a, &b| errors[b].total_cmp(&errors[a]));
        if (1..errors.len()).contains(&keep) {
            let (least_kept, most_merged) = (errors[order[keep - 1]], errors[order[keep]]);
            assert!(least_kept > most_merged, "a tie at the threshold: {least_kept}");
        }
        let mut kept = vec![false; errors.len()];
        for &u in order.iter().take(keep) {
            kept[u] = true;
        }
        let mut next = Vec::new();
        let pairs = level.chunks_exact(2);
        let tail = pairs.remainder();
        for (pair, kept) in pairs.zip(kept) {
            match kept {
                true => next.extend_from_slice(pair),
                false => next.push(pair[0].merged(pair[1])),
            }
        }
        next.extend_from_slice(tail);
        next
    }

    /// Every pair round, with the branch-free pair emit or the fused one,
    /// writes exactly the level and the next round's errors a naive
    /// reference round finds, bit for bit: under keep shares of half the
    /// pairs, exactly at the pair emit's gate, one below it, and a fixed 65,
    /// on dense and sparse sources with odd lengths and zero runs.
    #[test]
    fn pair_rounds_match_a_naive_reference_round() {
        let mut seed = 11u64;
        let mut noise = |len: usize| -> Vec<f64> { (0..len).map(|_| lcg(&mut seed)).collect() };
        let dense_inputs = [noise(1), noise(3), noise(17), noise(4_099), noise(70_001)];
        let mut seed = 5u64;
        let mut at = 0;
        let gaps: Vec<(usize, f64)> = (0..30_001)
            .map(|_| {
                at += 1 + (lcg(&mut seed) * 6.0) as usize;
                (at, 1.0 + lcg(&mut seed))
            })
            .collect();
        let sparse_inputs = [
            SparseFunction::new(
                1 << 20,
                (1..1_000).map(|i| (i * i, lcg(&mut seed) - 0.5)).collect(),
            )
            .unwrap(),
            SparseFunction::new(at + 2, gaps).unwrap(),
        ];
        let mut sources: Vec<Segments> = dense_inputs.iter().map(|v| Segments::Dense(v)).collect();
        sources.extend(sparse_inputs.iter().map(Segments::Sparse));

        type Plan = fn(usize) -> Option<(usize, usize)>;
        let at_gate = |len: usize| (len / 2).div_ceil(DENSE_KEEPS);
        let plans: [Plan; 4] = [
            |len| (len >= 8).then_some((2, len / 4)),
            |len| (len >= 16).then_some((2, (len / 2).div_ceil(DENSE_KEEPS))),
            |len| (len >= 16).then(|| (2, (len / 2).div_ceil(DENSE_KEEPS) - 1)),
            |len| (len / 2 > 65).then_some((2, 65)),
        ];
        let (mut pair_emits, mut fused_emits) = (0, 0);
        for src in sources {
            for plan in plans {
                let mut want: Vec<Segment> = src.iter().collect();
                let mut rounds = 0;
                merge_rounds(src, plan, |level, errors| {
                    let (g, keep) = plan(want.len()).expect("a round ran");
                    assert_eq!(g, 2);
                    if keep >= at_gate(want.len()) {
                        pair_emits += 1;
                    } else {
                        fused_emits += 1;
                    }
                    rounds += 1;
                    want = reference_pair_round(&want, keep);
                    assert_eq!(bits(level), bits(&want), "round {rounds}");
                    let want_errors = plan(want.len()).map_or(Vec::new(), |_| error_pass(&want, 2));
                    let got: Vec<u64> = errors.iter().map(|e| e.to_bits()).collect();
                    assert_eq!(got, want_errors, "round {rounds}");
                });
                assert_eq!(rounds > 0, plan(src.len()).is_some());
            }
        }
        assert!(pair_emits > 0 && fused_emits > 0, "{pair_emits} pair, {fused_emits} fused");
    }

    /// The errors every round's emit step writes for the next round are,
    /// bit for bit, the errors a fresh pass over the level it wrote finds:
    /// on dense and sparse sources with odd lengths, carried tails, zero runs,
    /// zeros of both signs and sums whose squares overflow, under pair,
    /// hierarchical and `fastmerging` plans.
    #[test]
    fn next_round_errors_equal_a_fresh_error_pass() {
        let mut seed = 3u64;
        let mut noise = |len: usize| -> Vec<f64> { (0..len).map(|_| lcg(&mut seed)).collect() };
        let signed_zeros: Vec<f64> = (0..4_097)
            .map(|i| match i % 7 {
                0 | 3 => -0.0,
                1 => 0.0,
                _ => (i % 5) as f64 - 2.0,
            })
            .collect();
        // Squares that sum past `f64::MAX` beside small sums: the first
        // round's pair errors all overflow to the same capped value, and
        // their tie sends it to introselect.
        let huge: Vec<f64> = noise(9_001)
            .iter()
            .enumerate()
            .map(|(i, v)| [1e154, -1e154][i % 2] * (1.0 + v))
            .collect();
        // Sums whose squares overflow beside finite sums of squares, in
        // pairs of points (`larger`) or in longer runs (`large`): pair
        // passes meet capped terms and redo their errors on the exact path.
        let large: Vec<f64> = (0..4_097).map(|i| 6.5e153 + (i % 3) as f64 * 5e151).collect();
        let larger: Vec<f64> = (0..4_097).map(|i| 9.4e153 + (i % 3) as f64 * 1e151).collect();
        let dense_inputs = [
            noise(1),
            noise(2),
            noise(3),
            noise(4_099),
            noise(70_001),
            signed_zeros,
            huge,
            large,
            larger,
        ];
        let sparse_inputs = [
            SparseFunction::new(9, Vec::new()).unwrap(),
            SparseFunction::new(1 << 20, (0..1_000).map(|i| (i * i, i as f64 - 500.0)).collect())
                .unwrap(),
            SparseFunction::new(
                100_001,
                (0..20_001).map(|i| (5 * i, [-0.0, 0.0, 1.5][i % 3])).collect(),
            )
            .unwrap(),
        ];
        let mut sources: Vec<Segments> = dense_inputs.iter().map(|v| Segments::Dense(v)).collect();
        sources.extend(sparse_inputs.iter().map(Segments::Sparse));

        type Plan = fn(usize) -> Option<(usize, usize)>;
        let plans: [Plan; 3] = [
            |len| (len > 200 && len / 2 > 65).then_some((2, 65)),
            |len| (len >= 8).then_some((2, len / 4)),
            |len| {
                let g = group_size(len, 65);
                (len > 200 && len / g > 65).then_some((g, 65))
            },
        ];
        for src in sources {
            for plan in plans {
                let mut rounds = 0;
                let (last, _) = merge_rounds(src, plan, |level, errors| {
                    rounds += 1;
                    let want = match plan(level.len()) {
                        Some((g, _)) => error_pass(level, g),
                        None => Vec::new(),
                    };
                    let got: Vec<u64> = errors.iter().map(|e| e.to_bits()).collect();
                    assert_eq!(got, want, "round {rounds} of {} segments", level.len());
                });
                assert!(plan(last.len()).is_none());
                assert_eq!(rounds > 0, plan(src.len()).is_some());
            }
        }
    }
}
