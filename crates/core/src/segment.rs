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
//! for bit) and merges every other full group into one segment. One emit step
//! writes the next level: the first round reads `I₀` from the signal into a
//! buffer about `1/g` of its length, every later round rewrites that buffer
//! in place. The round's plan for the next level is known before it emits
//! (its length follows from `keep`), so the emit step also folds each segment
//! it writes into the next round's running group and writes that round's
//! errors. Only the first round reads its level twice (once for its errors,
//! once to emit); every later round reads its level once.

use crate::function::DiscreteFunction;
use crate::histogram::Histogram;
use crate::interval::Interval;
use crate::partition::Partition;
use crate::select::{keep_threshold, SelectBuffers};
use crate::sparse::SparseFunction;
use crate::stats::sse_from_sums;

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
    /// Number of segments in `I₀`.
    pub(crate) fn len(self) -> usize {
        match self {
            Segments::Dense(values) => values.len(),
            Segments::Sparse(q) => SparseRuns::new(q).count(),
        }
    }

    /// The segments of `I₀`, in order.
    pub(crate) fn iter(self) -> impl Iterator<Item = Segment> + Clone + 'a {
        let (dense, sparse) = match self {
            Segments::Dense(values) => (Some(dense_points(values)), None),
            Segments::Sparse(q) => (None, Some(SparseRuns::new(q))),
        };
        dense.into_iter().flatten().chain(sparse.into_iter().flatten())
    }
}

/// [`Segments::Dense`]'s segments.
fn dense_points(values: &[f64]) -> impl Iterator<Item = Segment> + Clone + '_ {
    values.iter().enumerate().map(|(i, &v)| Segment::point(i, v))
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
    plan: impl FnMut(usize) -> Option<(usize, usize)>,
    visit: impl FnMut(&[Segment], &[f64]),
) -> (Vec<Segment>, usize) {
    let len = src.len();
    // One dispatch per fit: every round below is monomorphic in its source.
    let level = match src {
        Segments::Dense(values) => rounds_from(dense_points(values), len, plan, visit),
        Segments::Sparse(q) => rounds_from(SparseRuns::new(q), len, plan, visit),
    };
    (level, len)
}

fn rounds_from<S: Iterator<Item = Segment> + Clone>(
    src: S,
    len: usize,
    mut plan: impl FnMut(usize) -> Option<(usize, usize)>,
    mut visit: impl FnMut(&[Segment], &[f64]),
) -> Vec<Segment> {
    let Some((g, keep)) = plan(len) else {
        return src.collect();
    };
    let mut buffers = SelectBuffers::default();
    // The first round's errors: a pass over the source, with no level behind.
    let mut errors = match g {
        2 => group_errors::<2>(src.clone(), len, g),
        _ => group_errors::<0>(src.clone(), len, g),
    };

    let out_len = merged_len(len, g, keep);
    let mut next = plan(out_len);
    let first = Fresh { src, out: Vec::with_capacity(out_len) };
    let mut segments = round(first, len, g, keep, next, &mut errors, &mut buffers).out;
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

/// Where a round reads its level and writes the next one. Writes never
/// overtake reads: a group is read before its output is written, and it
/// becomes at most as many segments as it had.
trait Level {
    /// Reads the next `g` segments and writes their merge, which it returns.
    fn merge(&mut self, g: usize) -> Segment;
    /// Reads the next `n` segments and writes them through, returning them.
    fn copy(&mut self, n: usize) -> &[Segment];
}

/// The first round: reads the signal's `I₀`, writes a new buffer.
struct Fresh<S> {
    src: S,
    out: Vec<Segment>,
}

impl<S: Iterator<Item = Segment>> Level for Fresh<S> {
    #[inline]
    fn merge(&mut self, g: usize) -> Segment {
        let s = merge_run(self.src.by_ref().take(g));
        self.out.push(s);
        s
    }

    #[inline]
    fn copy(&mut self, n: usize) -> &[Segment] {
        let at = self.out.len();
        self.out.extend(self.src.by_ref().take(n));
        &self.out[at..]
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

/// The merging error of each full group of `g` among the first `len`
/// segments of `src`, with `G` as in [`emit`].
fn group_errors<const G: usize>(
    mut src: impl Iterator<Item = Segment>,
    len: usize,
    g: usize,
) -> Vec<f64> {
    let g = if G == 0 { g } else { G };
    let mut start = 0;
    (0..len / g)
        .map(|_| {
            let run = merge_run(src.by_ref().take(g));
            let error = run.error(start);
            start = run.end + 1;
            error
        })
        .collect()
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
    use crate::test_support::lcg;

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

    /// The errors every round's emit step writes for the next round are,
    /// bit for bit, the errors a fresh pass over the level it wrote finds:
    /// on dense and sparse sources with odd lengths, carried tails, zero runs
    /// and zeros of both signs, under pair, hierarchical and `fastmerging`
    /// plans.
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
        let dense_inputs =
            [noise(1), noise(2), noise(3), noise(4_099), noise(70_001), signed_zeros, huge];
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
