//! Working segments of the merging algorithms.
//!
//! A [`Segment`] is one interval of the evolving partition together with the
//! sufficient statistics (`Σ q`, `Σ q²`) needed to evaluate merging errors in
//! constant time. These statistics play the role of the precomputed partial
//! sums `r_j`, `t_j` in Algorithm 1 of the paper: once the initial segments are
//! built in `O(s)` time, every candidate merge error is an `O(1)` computation.
//!
//! `merge_pair_round` is the one pair round under Algorithms 1 and 2: it fills
//! a reused error buffer, marks the `keep` largest with `mark_top_t` (the tie
//! rule the golden tests pin bit for bit) and compacts the list in place.

use crate::function::DiscreteFunction;
use crate::histogram::Histogram;
use crate::interval::Interval;
use crate::partition::Partition;
use crate::select::{compact_groups, mark_top_t};
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
    let n = q.domain();
    let mut segments = Vec::with_capacity(2 * q.sparsity() + 1);
    let mut cursor = 0usize;
    for (i, v) in q.iter() {
        if i > cursor {
            segments.push(Segment::zero(cursor, i - 1));
        }
        segments.push(Segment::point(i, v));
        cursor = i + 1;
    }
    if cursor < n {
        segments.push(Segment::zero(cursor, n - 1));
    }
    if segments.is_empty() {
        // Completely zero function.
        segments.push(Segment::zero(0, n - 1));
    }
    segments
}

/// One merging round over consecutive pairs of `segments`, in place: the
/// `keep` pairs with the largest merging errors stay unmerged, every other
/// pair becomes one segment, and a trailing odd segment is carried over.
/// `errors` and `scratch` are working buffers reused across rounds.
pub(crate) fn merge_pair_round(
    segments: &mut Vec<Segment>,
    keep: usize,
    errors: &mut Vec<f64>,
    scratch: &mut Vec<(f64, usize)>,
) {
    errors.clear();
    errors.extend(segments.chunks_exact(2).map(|pair| pair[0].merged_sse(&pair[1])));
    mark_top_t(errors, keep, scratch);
    compact_groups(segments, 2, errors, |pair| pair[0].merged(&pair[1]));
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
