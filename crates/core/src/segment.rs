//! Working segments of the merging algorithms.
//!
//! A [`Segment`] is one interval of the evolving partition together with the
//! sufficient statistics (`Σ q`, `Σ q²`) needed to evaluate merging errors in
//! constant time. These statistics play the role of the precomputed partial
//! sums `r_j`, `t_j` in Algorithm 1 of the paper: every candidate merge error
//! is an `O(1)` computation.
//!
//! A fit does not build the initial segmentation `I₀` as a list. [`Segments`]
//! generates it on demand from the signal, and [`merge_rounds`] runs one
//! round shape under Algorithms 1 and 2 and `fastmerging`: the first round
//! reads `I₀` twice (once for the group errors, once to emit the next level
//! into a buffer about `1/g` of its length), and every later round rewrites
//! that buffer in place. Each round marks the `keep` largest group errors with
//! `mark_top_t` (the tie rule the golden tests pin bit for bit) and merges
//! every other full group with [`merge_run`]. `I₀` becomes a list only when
//! it is the output (no round runs) or when the caller records level 0 (the
//! full hierarchy, through [`Segments::to_vec`]).

use crate::function::DiscreteFunction;
use crate::histogram::Histogram;
use crate::interval::Interval;
use crate::partition::Partition;
use crate::select::{compact_groups, mark_top_t, KEPT};
use crate::sparse::SparseFunction;

/// One interval of the working partition, with cached sum and sum of squares of
/// the input function over the interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// First domain index covered by this segment.
    pub start: usize,
    /// Last domain index covered by this segment (inclusive).
    pub end: usize,
    /// `Σ_{i∈[start, end]} q(i)`.
    pub sum: f64,
    /// `Σ_{i∈[start, end]} q(i)²`.
    pub sum_sq: f64,
}

impl Segment {
    /// A segment covering `[start, end]` on which the input function is identically zero.
    #[inline]
    pub fn zero(start: usize, end: usize) -> Self {
        Self { start, end, sum: 0.0, sum_sq: 0.0 }
    }

    /// A singleton segment `[i, i]` with value `v`.
    #[inline]
    pub fn point(i: usize, v: f64) -> Self {
        Self { start: i, end: i, sum: v, sum_sq: v * v }
    }

    /// Number of domain indices covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start + 1
    }

    /// Segments are never empty; provided for API symmetry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The covered interval.
    #[inline]
    pub fn interval(&self) -> Interval {
        Interval::new_unchecked(self.start, self.end)
    }

    /// Mean of the input function over this segment (the flattening value `µ_q(I)`).
    #[inline]
    pub fn mean(&self) -> f64 {
        self.sum / self.len() as f64
    }

    /// Squared error `err_q(I)` of flattening this segment.
    #[inline]
    pub fn sse(&self) -> f64 {
        (self.sum_sq - self.sum * self.sum / self.len() as f64).max(0.0)
    }

    /// The segment obtained by merging two *adjacent* segments (`self` directly
    /// before `other`).
    #[inline]
    pub fn merged(&self, other: &Segment) -> Segment {
        debug_assert_eq!(self.end + 1, other.start, "segments must be adjacent");
        Segment {
            start: self.start,
            end: other.end,
            sum: self.sum + other.sum,
            sum_sq: self.sum_sq + other.sum_sq,
        }
    }

    /// Squared error `err_q(I₁ ∪ I₂)` of flattening the union of two adjacent
    /// segments — the merging error `e_u` of Algorithm 1, computed in `O(1)`.
    #[inline]
    pub fn merged_sse(&self, other: &Segment) -> f64 {
        self.merged(other).sse()
    }
}

/// Builds the initial exact segmentation `I₀` of a sparse function: every
/// nonzero entry gets its own singleton segment and every maximal run of zeros
/// becomes one segment. The flattening of `q` over this partition equals `q`,
/// and there are at most `2s + 1` segments.
pub fn initial_segments(q: &SparseFunction) -> Vec<Segment> {
    SparseRuns::new(q).collect()
}

/// The exact initial segmentation `I₀` of a signal, generated on demand
/// rather than stored: what [`initial_segments`] returns, for either
/// representation.
#[derive(Clone, Copy)]
pub(crate) enum Segments<'a> {
    /// One [`Segment::point`] per value.
    Dense(&'a [f64]),
    /// Every entry as a point and every maximal run of zeros as one segment.
    Sparse(&'a SparseFunction),
}

impl Segments<'_> {
    /// Number of segments in `I₀`.
    pub(crate) fn len(self) -> usize {
        match self {
            Segments::Dense(values) => values.len(),
            Segments::Sparse(q) => SparseRuns::new(q).count(),
        }
    }

    /// `I₀` as a list.
    pub(crate) fn to_vec(self) -> Vec<Segment> {
        match self {
            Segments::Dense(values) => dense_points(values).collect(),
            Segments::Sparse(q) => SparseRuns::new(q).collect(),
        }
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
                Some(Segment::zero(start, i - 1))
            }
            Some((&(i, v), rest)) => {
                self.entries = rest;
                self.cursor = i + 1;
                Some(Segment::point(i, v))
            }
            None if start < self.domain => {
                self.cursor = self.domain;
                Some(Segment::zero(start, self.domain - 1))
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
/// adjacent segments, folded left to right with [`Segment::merged`]. Its sums
/// equal `Iterator::sum`'s, which folds from `−0.0` (and `−0.0 + x` is `x`
/// bit for bit).
#[inline]
fn merge_run(mut run: impl Iterator<Item = Segment>) -> Segment {
    let first = run.next().expect("runs are non-empty");
    run.fold(first, |merged, s| merged.merged(&s))
}

/// Runs a fit's merging rounds over `src` and returns the last level and the
/// length of `I₀`. `plan(len)` gives the next round's group size `g ≥ 2` and
/// keep count for a level of `len` segments, or `None` to stop there. The
/// first round reads `src` itself; later rounds run in place on the buffer it
/// wrote, so the full-length `I₀` is never built unless no round runs.
pub(crate) fn merge_rounds(
    src: Segments<'_>,
    plan: impl FnMut(usize) -> Option<(usize, usize)>,
) -> (Vec<Segment>, usize) {
    let len = src.len();
    // One dispatch per fit: every round below is monomorphic in its source.
    let level = match src {
        Segments::Dense(values) => rounds_from(dense_points(values), len, plan),
        Segments::Sparse(q) => rounds_from(SparseRuns::new(q), len, plan),
    };
    (level, len)
}

fn rounds_from<S: Iterator<Item = Segment> + Clone>(
    src: S,
    len: usize,
    mut plan: impl FnMut(usize) -> Option<(usize, usize)>,
) -> Vec<Segment> {
    let Some((g, keep)) = plan(len) else {
        return src.collect();
    };
    let (mut errors, mut scratch) = (Vec::new(), Vec::new());
    let mut segments = match g {
        2 => round_into::<2, S>(src, len, g, keep, &mut errors, &mut scratch),
        _ => round_into::<0, S>(src, len, g, keep, &mut errors, &mut scratch),
    };
    while let Some((g, keep)) = plan(segments.len()) {
        merge_round(&mut segments, g, keep, &mut errors, &mut scratch);
    }
    segments
}

/// One round from a source of `len` segments into a new buffer: the `keep`
/// groups of `g` with the largest merging errors are copied through, every
/// other full group becomes one segment, and the segments after the last full
/// group are carried over. `errors` and `scratch` are the round's working
/// buffers.
///
/// `G` is `g` when the caller knows it at compile time (2, for pair rounds)
/// and 0 otherwise: each `G` gets its own code, so a pair's merge is one add
/// rather than a loop over a run-time group size.
fn round_into<const G: usize, S: Iterator<Item = Segment> + Clone>(
    src: S,
    len: usize,
    g: usize,
    keep: usize,
    errors: &mut Vec<f64>,
    scratch: &mut Vec<(f64, usize)>,
) -> Vec<Segment> {
    let g = if G == 0 { g } else { G };
    let mut items = src.clone();
    errors.clear();
    errors.extend((0..len / g).map(|_| merge_run(items.by_ref().take(g)).sse()));
    mark_top_t(errors, keep, scratch);

    let mut out = Vec::with_capacity(len.div_ceil(g) + keep * (g - 1) + g);
    let mut items = src;
    for &error in errors.iter() {
        if error == KEPT {
            out.extend(items.by_ref().take(g));
        } else {
            out.push(merge_run(items.by_ref().take(g)));
        }
    }
    out.extend(items);
    out
}

/// The same round as [`round_into`], in place on `segments`.
pub(crate) fn merge_round(
    segments: &mut Vec<Segment>,
    g: usize,
    keep: usize,
    errors: &mut Vec<f64>,
    scratch: &mut Vec<(f64, usize)>,
) {
    match g {
        2 => round_in_place::<2>(segments, g, keep, errors, scratch),
        _ => round_in_place::<0>(segments, g, keep, errors, scratch),
    }
}

/// [`merge_round`] with `G` as in [`round_into`].
fn round_in_place<const G: usize>(
    segments: &mut Vec<Segment>,
    g: usize,
    keep: usize,
    errors: &mut Vec<f64>,
    scratch: &mut Vec<(f64, usize)>,
) {
    let g = if G == 0 { g } else { G };
    let merge = |group: &[Segment]| merge_run(group.iter().copied());
    errors.clear();
    errors.extend(segments.chunks_exact(g).map(|group| merge(group).sse()));
    mark_top_t(errors, keep, scratch);
    compact_groups(segments, g, errors, merge);
}

/// Converts a list of contiguous segments into a [`Partition`].
pub fn segments_to_partition(domain: usize, segments: &[Segment]) -> Partition {
    let intervals = segments.iter().map(Segment::interval).collect();
    Partition::new(domain, intervals).expect("segments form a contiguous cover of the domain")
}

/// Converts a list of contiguous segments into the flattening [`Histogram`]
/// (each piece takes the segment mean).
pub fn segments_to_histogram(domain: usize, segments: &[Segment]) -> Histogram {
    let partition = segments_to_partition(domain, segments);
    let values = segments.iter().map(Segment::mean).collect();
    Histogram::new(partition, values).expect("segment means are finite")
}

/// Total flattening error `Σ_j err_q(I_j)` of a segment list.
pub fn total_sse(segments: &[Segment]) -> f64 {
    segments.iter().map(Segment::sse).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_statistics() {
        let s = Segment { start: 2, end: 5, sum: 8.0, sum_sq: 20.0 };
        assert_eq!(s.len(), 4);
        assert_eq!(s.mean(), 2.0);
        assert!((s.sse() - (20.0 - 16.0)).abs() < 1e-12);
        assert_eq!(s.interval(), Interval::new(2, 5).unwrap());
    }

    #[test]
    fn merged_statistics_match_manual_computation() {
        let a = Segment::point(0, 1.0);
        let b = Segment::point(1, 3.0);
        let m = a.merged(&b);
        assert_eq!(m.start, 0);
        assert_eq!(m.end, 1);
        assert_eq!(m.sum, 4.0);
        assert_eq!(m.sum_sq, 10.0);
        // err over {1, 3}: mean 2, sse = 1 + 1 = 2.
        assert!((a.merged_sse(&b) - 2.0).abs() < 1e-12);
        assert!((m.sse() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn initial_segments_are_exact() {
        let dense = vec![0.0, 0.0, 3.0, 0.0, 5.0, 7.0, 0.0, 0.0];
        let q = SparseFunction::from_dense(&dense).unwrap();
        let segs = initial_segments(&q);
        // zeros [0,1], point 2, zero [3,3], point 4, point 5, zeros [6,7]
        assert_eq!(segs.len(), 6);
        assert!((total_sse(&segs)).abs() < 1e-12);
        let h = segments_to_histogram(8, &segs);
        assert_eq!(h.to_dense(), dense);
    }

    #[test]
    fn initial_segments_of_zero_function() {
        let q = SparseFunction::zero(5).unwrap();
        let segs = initial_segments(&q);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].len(), 5);
        assert_eq!(segs[0].sum, 0.0);
    }

    #[test]
    fn initial_segments_dense_input() {
        let dense = vec![1.0, 2.0, 3.0];
        let q = SparseFunction::from_dense_keep_zeros(&dense).unwrap();
        let segs = initial_segments(&q);
        assert_eq!(segs.len(), 3);
        assert!(segs.iter().all(|s| s.len() == 1));
    }

    #[test]
    fn partition_and_histogram_conversion() {
        let segs = vec![Segment::zero(0, 2), Segment::point(3, 6.0), Segment::zero(4, 4)];
        let p = segments_to_partition(5, &segs);
        assert_eq!(p.len(), 3);
        let h = segments_to_histogram(5, &segs);
        assert_eq!(h.to_dense(), vec![0.0, 0.0, 0.0, 6.0, 0.0]);
    }
}
