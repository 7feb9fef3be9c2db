//! Algorithm 2 of the paper: `ConstructHierarchicalHistogram` — multi-scale
//! histogram construction without a priori knowledge of `k`.
//!
//! A single `O(s)`-time pass over an `s`-sparse signal produces a *hierarchy* of
//! partitions `I_0, I_1, …, I_L`, each obtained from the previous one by merging
//! half of its interval pairs (the ones with the smallest merging errors), so
//! each level has about 3/4 of its predecessor's intervals.
//! Theorem 3.5 guarantees that for every `1 ≤ k ≤ s` there is a level `I_j` with
//! at most `8k` intervals whose flattening has error at most `2·opt_k`.
//!
//! Each level comes from Algorithm 1's pair round (same tie rule, see
//! `crate::segment`): the first reads level 0 straight from the signal,
//! later ones run in place. [`construct_hierarchical_histogram`] records
//! level 0 and every level a round writes. The
//! [`Hierarchical`](crate::Hierarchical) estimator stops at the first level
//! with at most `8k` intervals and builds only that histogram.
//!
//! The returned [`HierarchicalHistogram`] stores every level together with its
//! exact flattening error, so callers can walk the whole Pareto curve between
//! the number of pieces and the achieved error, or query the best level for a
//! given piece budget `k` (Theorem 2.2).

use crate::error::Result;
use crate::histogram::Histogram;
use crate::partition::Partition;
use crate::segment::{
    merge_rounds, segment_means, segments_to_histogram, segments_to_partition, with_starts,
    Segment, Segments,
};
use crate::sparse::SparseFunction;

/// One level of the merging hierarchy: a partition of the domain, the flattening
/// values on its intervals, and the total squared flattening error.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyLevel {
    partition: Partition,
    values: Vec<f64>,
    sse: f64,
}

impl HierarchyLevel {
    fn from_segments(domain: usize, segments: impl Iterator<Item = Segment> + Clone) -> Self {
        let partition = segments_to_partition(domain, segments.clone());
        let values = segment_means(segments.clone());
        let sse = with_starts(segments).map(|(start, s)| s.sse(start)).sum();
        Self { partition, values, sse }
    }

    /// Number of intervals at this level.
    #[inline]
    pub fn num_pieces(&self) -> usize {
        self.partition.len()
    }

    /// `ℓ₂` flattening error `‖q̄_I − q‖₂` at this level — the error estimate
    /// `e_t` of Theorem 2.2 (exact for the input signal).
    #[inline]
    pub fn error(&self) -> f64 {
        self.sse.sqrt()
    }

    /// Materializes the flattening histogram of this level.
    pub fn histogram(&self) -> Histogram {
        Histogram::new(self.partition.clone(), self.values.clone())
            .expect("level values are finite interval means")
    }
}

/// The full output of Algorithm 2: every level of the merging hierarchy, from
/// the exact initial segmentation down to fewer than 8 intervals.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchicalHistogram {
    domain: usize,
    levels: Vec<HierarchyLevel>,
}

impl HierarchicalHistogram {
    /// Number of levels in the hierarchy (at least 1).
    #[inline]
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The levels in construction order: level 0 is the exact initial
    /// segmentation, the last level has fewer than 8 intervals.
    #[inline]
    pub fn levels(&self) -> &[HierarchyLevel] {
        &self.levels
    }

    /// Index of the first (coarsest-grained) level with at most `max_pieces`
    /// intervals, or the last level if every level is larger.
    pub(crate) fn level_for_pieces(&self, max_pieces: usize) -> usize {
        self.levels
            .iter()
            .position(|level| level.num_pieces() <= max_pieces)
            .unwrap_or(self.levels.len() - 1)
    }

    /// The level promised by Theorem 3.5 for target piece count `k`: the first
    /// level with at most `8k` intervals. Its flattening error is at most
    /// `2·opt_k`.
    pub(crate) fn level_for_k(&self, k: usize) -> &HierarchyLevel {
        &self.levels[self.level_for_pieces(max_pieces_for_k(k))]
    }

    /// The level promised by Theorem 3.5 for target piece count `k` (the
    /// first level with at most `8k` intervals, whose flattening error is at
    /// most `2·opt_k`), as its histogram and `ℓ₂` error (the estimate `e_t`
    /// of Theorem 2.2).
    pub fn histogram_for_k(&self, k: usize) -> (Histogram, f64) {
        let level = self.level_for_k(k);
        (level.histogram(), level.error())
    }

    /// The Pareto curve traced by the hierarchy: `(number of pieces, ℓ₂ error)`
    /// for every level, in decreasing order of pieces.
    pub fn pareto_curve(&self) -> Vec<(usize, f64)> {
        self.levels.iter().map(|l| (l.num_pieces(), l.error())).collect()
    }
}

/// Runs Algorithm 2 on an `s`-sparse signal.
///
/// Starting from the exact `O(s)`-piece segmentation, each iteration pairs up
/// consecutive intervals, keeps the half of the pairs with the largest merging
/// errors unmerged (`len / 4` pairs of a level of `len` intervals), merges the
/// other half, and records the resulting level, about 3/4 as long. The loop stops when fewer than 8 intervals remain. Total running
/// time and memory are `O(s)` (the level sizes decay geometrically).
pub fn construct_hierarchical_histogram(q: &SparseFunction) -> Result<HierarchicalHistogram> {
    Ok(hierarchy(q.domain(), Segments::Sparse(q)))
}

/// Theorem 3.5's piece budget `8k` for `k ≥ 1` (saturating: a `k` whose `8k`
/// overflows is served by level 0, as an unbounded budget would be).
fn max_pieces_for_k(k: usize) -> usize {
    k.max(1).saturating_mul(8)
}

/// The hierarchy's round plan: pairs, keeping a quarter of the intervals'
/// count (half the pairs), while at least 8 intervals remain.
pub(crate) fn plan(len: usize) -> Option<(usize, usize)> {
    (len >= 8).then_some((2, len / 4))
}

/// Every level of the hierarchy grown from `src`: level 0 read from the
/// signal, every later one recorded as the rounds write it.
pub(crate) fn hierarchy(domain: usize, src: Segments<'_>) -> HierarchicalHistogram {
    let mut levels = vec![HierarchyLevel::from_segments(domain, src.iter())];
    merge_rounds(src, plan, |level, _| {
        levels.push(HierarchyLevel::from_segments(domain, level.iter().copied()));
    });
    HierarchicalHistogram { domain, levels }
}

/// The histogram of the level [`HierarchicalHistogram::level_for_k`] serves,
/// built without the levels after it or the partitions before it.
pub(crate) fn histogram_for_k(domain: usize, src: Segments<'_>, k: usize) -> Histogram {
    // At least 8 pieces are allowed, so the rounds stop at the latest on the
    // hierarchy's last level (fewer than 8 intervals).
    let max_pieces = max_pieces_for_k(k);
    let until_k = |len| if len > max_pieces { plan(len) } else { None };
    let (level, _) = merge_rounds(src, until_k, |_, _| {});
    segments_to_histogram(domain, &level)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;
    use crate::piecewise_poly::fit_polynomial;
    use crate::prefix::DensePrefix;
    use crate::test_support::{lcg, opt_k_sse};

    #[test]
    fn levels_shrink_and_errors_grow() {
        let mut seed = 7u64;
        let values: Vec<f64> = (0..512).map(|_| lcg(&mut seed)).collect();
        let q = SparseFunction::from_dense_keep_zeros(&values).unwrap();
        let hier = construct_hierarchical_histogram(&q).unwrap();

        assert!(hier.num_levels() >= 2);
        assert_eq!(hier.levels()[0].num_pieces(), 512);
        assert!(hier.levels()[0].sse < 1e-15, "level 0 is the exact segmentation");
        assert!(hier.levels().last().unwrap().num_pieces() < 8);
        for w in hier.levels().windows(2) {
            assert!(w[1].num_pieces() < w[0].num_pieces(), "levels must shrink");
            assert!(w[1].sse + 1e-12 >= w[0].sse, "coarser levels cannot have smaller error");
        }
    }

    #[test]
    fn theorem_3_5_guarantee_on_noisy_steps() {
        let mut seed = 3u64;
        let n = 240;
        let truth: Vec<f64> = (0..n)
            .map(|i| match i {
                _ if i < 60 => 1.0,
                _ if i < 140 => 6.0,
                _ if i < 190 => 2.5,
                _ => 4.0,
            })
            .collect();
        let noisy: Vec<f64> = truth.iter().map(|v| v + 0.3 * (lcg(&mut seed) - 0.5)).collect();
        let q = SparseFunction::from_dense_keep_zeros(&noisy).unwrap();
        let hier = construct_hierarchical_histogram(&q).unwrap();

        for k in 1..=8usize {
            let level = hier.level_for_k(k);
            assert!(level.num_pieces() <= 8 * k, "level has {} > 8k pieces", level.num_pieces());
            let opt = opt_k_sse(&noisy, k).sqrt();
            assert!(
                level.error() <= 2.0 * opt + 1e-9,
                "k={k}: error {} exceeds 2·opt = {}",
                level.error(),
                2.0 * opt
            );
        }
    }

    #[test]
    fn error_estimate_matches_true_flattening_error() {
        let values: Vec<f64> = (0..128).map(|i| ((i * i) % 23) as f64).collect();
        let q = SparseFunction::from_dense_keep_zeros(&values).unwrap();
        let hier = construct_hierarchical_histogram(&q).unwrap();
        for level in hier.levels() {
            let h = level.histogram();
            let true_err = h.l2_distance_dense(&values).unwrap();
            assert!((level.error() - true_err).abs() < 1e-9);
        }
    }

    #[test]
    fn exact_recovery_when_input_is_a_histogram() {
        let h = Histogram::from_breakpoints(64, &[16, 48], vec![3.0, 1.0, 5.0]).unwrap();
        let dense = h.to_dense();
        let q = SparseFunction::from_dense_keep_zeros(&dense).unwrap();
        let hier = construct_hierarchical_histogram(&q).unwrap();
        // The 3-histogram structure must survive down to the level picked for k = 3.
        let (out, err) = hier.histogram_for_k(3);
        assert!(err < 1e-9);
        assert!(out.num_pieces() <= 24);
    }

    #[test]
    fn small_inputs_terminate_immediately() {
        let q = SparseFunction::new(10, vec![(2, 1.0), (7, 2.0)]).unwrap();
        let hier = construct_hierarchical_histogram(&q).unwrap();
        assert_eq!(hier.num_levels(), 1);
        assert_eq!(hier.levels()[0].partition.domain(), 10);
    }

    #[test]
    fn pareto_curve_is_monotone() {
        let values: Vec<f64> = (0..300).map(|i| (i as f64 / 17.0).sin() * 3.0 + 5.0).collect();
        let q = SparseFunction::from_dense_keep_zeros(&values).unwrap();
        let hier = construct_hierarchical_histogram(&q).unwrap();
        let curve = hier.pareto_curve();
        assert_eq!(curve.len(), hier.num_levels());
        for w in curve.windows(2) {
            assert!(w[1].0 < w[0].0);
            assert!(w[1].1 + 1e-12 >= w[0].1);
        }
    }

    /// A `k` whose `8k` overflows allows every level: level 0 is served, in
    /// release and debug builds alike.
    #[test]
    fn huge_k_serves_level_zero() {
        use crate::{Estimator, EstimatorBuilder, Hierarchical, Signal};
        let mut seed = 17u64;
        let values: Vec<f64> = (0..4_096).map(|_| lcg(&mut seed)).collect();
        let signal = Signal::from_slice(&values).unwrap();
        let hier = construct_hierarchical_histogram(&signal.as_sparse()).unwrap();
        assert!(hier.num_levels() > 1);
        for k in [usize::MAX / 8 + 1, usize::MAX] {
            assert_eq!(hier.level_for_k(k).num_pieces(), 4_096, "k = {k}");
            let fit = Hierarchical::new(EstimatorBuilder::new(k)).fit(&signal).unwrap();
            assert_eq!(fit.histogram().unwrap(), &hier.levels()[0].histogram(), "k = {k}");
        }
    }

    #[test]
    fn level_for_pieces_clamps_to_last_level() {
        let values = vec![1.0; 100];
        let q = SparseFunction::from_dense_keep_zeros(&values).unwrap();
        let hier = construct_hierarchical_histogram(&q).unwrap();
        // Requesting an impossible budget of 0 pieces falls back to the coarsest level.
        let idx = hier.level_for_pieces(0);
        assert_eq!(idx, hier.num_levels() - 1);
    }

    #[test]
    fn overflowing_sums_read_as_infinite_error() {
        // Σq² and (Σq)² of every pair overflow, so the one-pass formula meets
        // ∞ − ∞; the error must read +∞, never 0.
        let values: Vec<f64> = (0..64).map(|i| [1e154, 1.2e154][i % 2]).collect();
        let q = SparseFunction::from_dense_keep_zeros(&values).unwrap();
        let hier = construct_hierarchical_histogram(&q).unwrap();
        for (j, level) in hier.levels().iter().enumerate() {
            let h = level.histogram();
            let two_pass: f64 =
                h.to_dense().iter().zip(&values).map(|(a, b)| (a - b) * (a - b)).sum();
            assert!(level.sse >= two_pass, "level {j}: sse {} < {two_pass}", level.sse);
        }
        let pair = Interval::new(0, 1).unwrap();
        assert!(fit_polynomial(&q, pair, 0).sse > 0.0);
        let prefix = DensePrefix::new(&values).unwrap();
        assert!(prefix.sse(pair) > 0.0);
        assert!(prefix.sse(Interval::new(0, 63).unwrap()) > 0.0);
    }
}
