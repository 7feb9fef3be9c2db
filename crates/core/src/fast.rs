//! The `fastmerging` variant of Algorithm 1 (Section 5.1 of the paper).
//!
//! Plain Algorithm 1 merges *pairs* of consecutive intervals, halving the number
//! of candidate pairs per round and therefore performing `O(log s)` rounds. The
//! `fastmerging` variant is more aggressive in the early rounds: it groups
//! `g ≥ 2` consecutive intervals per candidate (with `g` shrinking as the
//! working partition shrinks), so the interval count drops much faster while the
//! total running time is still dominated by the first round and remains `O(s)`.
//!
//! The rounds are Algorithm 1's (see `crate::segment`) with groups of `g`:
//! the first reads the exact segmentation straight from the input and writes
//! about `1/g` of it to a new buffer, later ones rewrite that buffer in place.
//! `keep_threshold` picks the kept groups (same selection and tie rule as
//! pairs) and each other full group becomes one segment by the same fold.
//!
//! The approximation argument of Theorem 3.3 carries over: a group is only
//! merged when its flattening error is not among the `(1 + 1/δ)k` largest, so
//! every merged group containing a jump of the optimal `k`-histogram contributes
//! at most `(δ/k)·opt_k²` error.

use crate::error::Result;
use crate::function::DiscreteFunction;
use crate::histogram::Histogram;
use crate::params::MergingParams;
use crate::segment::{merge_rounds, segments_to_histogram, Segment, Segments};
use crate::sparse::SparseFunction;

/// Summary statistics of one run of the `fastmerging` algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastMergingReport {
    /// Number of intervals in the initial (exact) segmentation.
    pub initial_intervals: usize,
    /// Number of intervals in the final partition.
    pub final_intervals: usize,
    /// Number of merging rounds executed.
    pub rounds: usize,
    /// Largest group size used in any round.
    pub max_group_size: usize,
}

/// Runs the `fastmerging` variant and returns the output histogram.
pub fn construct_histogram_fast(q: &SparseFunction, params: &MergingParams) -> Result<Histogram> {
    Ok(construct_histogram_fast_with_report(q, params)?.0)
}

/// Runs the `fastmerging` variant and additionally returns a [`FastMergingReport`].
pub fn construct_histogram_fast_with_report(
    q: &SparseFunction,
    params: &MergingParams,
) -> Result<(Histogram, FastMergingReport)> {
    let (segments, report) = merge_groups(Segments::Sparse(q), params);
    Ok((segments_to_histogram(q.domain(), &segments), report))
}

/// Group size used when `current` intervals remain: aggressive while the working
/// partition is much larger than the keep budget, degrading gracefully to pair
/// merging as the target size is approached.
pub(crate) fn group_size(current: usize, keep: usize) -> usize {
    // Aim for roughly 4·keep groups per round so that at least 3·keep of them are
    // merged; early rounds therefore shrink the partition by ~4× per round.
    (current / (4 * keep.max(1))).max(2)
}

/// The merging loop behind every `fastmerging` entry point: group rounds over
/// `src` until at most `(2 + 2/δ)k + γ` intervals remain.
pub(crate) fn merge_groups(
    src: Segments<'_>,
    params: &MergingParams,
) -> (Vec<Segment>, FastMergingReport) {
    let max_intervals = params.max_intervals().max(1);
    let keep = params.keep_count();
    let mut rounds = 0usize;
    let mut max_group_size = 0usize;

    let plan = |len| {
        let g = group_size(len, keep);
        // If every group would be kept, no merge can happen and the loop
        // cannot make progress; this only occurs for extreme parameter choices.
        if len <= max_intervals || len / g <= keep {
            return None;
        }
        max_group_size = max_group_size.max(g);
        rounds += 1;
        Some((g, keep))
    };
    let (segments, initial_intervals) = merge_rounds(src, plan, |_, _| {});

    let report = FastMergingReport {
        initial_intervals,
        final_intervals: segments.len(),
        rounds,
        max_group_size,
    };
    (segments, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::construct_histogram;
    use crate::function::DiscreteFunction;
    use crate::test_support::{lcg, opt_k_sse};

    #[test]
    fn respects_piece_budget() {
        let mut seed = 11u64;
        let values: Vec<f64> = (0..2048).map(|_| lcg(&mut seed) * 10.0).collect();
        let q = SparseFunction::from_dense_keep_zeros(&values).unwrap();
        for k in [1usize, 5, 10, 50] {
            let params = MergingParams::paper_defaults(k).unwrap();
            let (h, report) = construct_histogram_fast_with_report(&q, &params).unwrap();
            assert!(h.num_pieces() <= params.output_pieces_bound());
            assert_eq!(report.initial_intervals, 2048);
            assert!(report.final_intervals <= params.output_pieces_bound());
        }
    }

    #[test]
    fn uses_fewer_rounds_than_pair_merging_on_large_inputs() {
        let mut seed = 5u64;
        let values: Vec<f64> = (0..8192).map(|_| lcg(&mut seed)).collect();
        let q = SparseFunction::from_dense_keep_zeros(&values).unwrap();
        let params = MergingParams::paper_defaults(10).unwrap();

        let (_, fast_report) = construct_histogram_fast_with_report(&q, &params).unwrap();
        let (_, pair_report) =
            crate::construct::construct_histogram_with_report(&q, &params).unwrap();
        assert!(
            fast_report.rounds < pair_report.rounds,
            "fastmerging rounds {} should be below pair-merging rounds {}",
            fast_report.rounds,
            pair_report.rounds
        );
        assert!(fast_report.max_group_size > 2);
    }

    #[test]
    fn error_is_close_to_pair_merging_and_bounded_by_theory() {
        let mut seed = 23u64;
        let n = 300;
        let k = 6;
        let truth: Vec<f64> = (0..n)
            .map(|i| match i {
                _ if i < 40 => 2.0,
                _ if i < 110 => 8.0,
                _ if i < 150 => 3.0,
                _ if i < 220 => 6.0,
                _ if i < 260 => 1.0,
                _ => 4.0,
            })
            .collect();
        let noisy: Vec<f64> = truth.iter().map(|v| v + 0.5 * (lcg(&mut seed) - 0.5)).collect();
        let q = SparseFunction::from_dense_keep_zeros(&noisy).unwrap();

        let params = MergingParams::new(k, 1.0, 1.0).unwrap();
        let fast = construct_histogram_fast(&q, &params).unwrap();
        let pair = construct_histogram(&q, &params).unwrap();
        let opt = opt_k_sse(&noisy, k);

        let fast_sse = fast.l2_distance_squared_dense(&noisy).unwrap();
        let pair_sse = pair.l2_distance_squared_dense(&noisy).unwrap();
        assert!(fast_sse <= (1.0 + params.delta()) * opt + 1e-9);
        // fastmerging is allowed to be somewhat worse than pair merging but must
        // stay in the same ballpark on well-separated steps.
        assert!(fast_sse <= 4.0 * pair_sse.max(opt) + 1e-9);
    }

    #[test]
    fn exact_recovery_of_a_k_histogram() {
        let h =
            Histogram::from_breakpoints(400, &[100, 250, 320], vec![1.0, 6.0, 2.0, 9.0]).unwrap();
        let dense = h.to_dense();
        let q = SparseFunction::from_dense_keep_zeros(&dense).unwrap();
        let params = MergingParams::new(4, 1.0, 1.0).unwrap();
        let out = construct_histogram_fast(&q, &params).unwrap();
        assert!(out.l2_distance_squared_dense(&dense).unwrap() < 1e-15);
    }

    #[test]
    fn small_input_returned_without_merging() {
        let q = SparseFunction::new(1000, vec![(5, 1.0), (500, 3.0)]).unwrap();
        let params = MergingParams::paper_defaults(10).unwrap();
        let (h, report) = construct_histogram_fast_with_report(&q, &params).unwrap();
        assert_eq!(report.rounds, 0);
        assert!(h.l2_distance_squared_sparse(&q).unwrap() < 1e-15);
    }

    #[test]
    fn group_size_schedule_is_sane() {
        assert_eq!(group_size(10_000, 10), 250);
        assert_eq!(group_size(100, 10), 2);
        assert_eq!(group_size(8, 10), 2);
        assert!(group_size(usize::MAX / 8, 1) >= 2);
    }
}
