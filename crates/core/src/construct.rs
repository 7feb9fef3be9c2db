//! Algorithm 1 of the paper: `ConstructHistogram` — near-optimal histogram
//! approximation in input-sparsity time.
//!
//! Given an `s`-sparse function `q : [0, n) → ℝ` and parameters `(k, δ, γ)`, the
//! algorithm starts from the exact `O(s)`-piece segmentation of `q`, then
//! repeatedly pairs up consecutive intervals, computes the error each merge
//! would incur, keeps the `(1 + 1/δ)k` pairs with the largest errors unmerged
//! and merges the rest, until at most `(2 + 2/δ)k + γ` intervals remain.
//!
//! The rounds are `crate::segment`'s, with groups of two: the first reads the
//! exact segmentation straight from the input (a sparse function, a dense
//! slice or a [`Signal`](crate::Signal), never copied) and writes the next
//! level to a buffer of about half its length; later rounds run in place on
//! that buffer, and each round's compaction writes the next round's pair
//! errors. Ties follow `crate::select`'s rule.
//!
//! Guarantees (Theorems 3.3 and 3.4):
//! * the output has at most `(2 + 2/δ)k + γ` pieces,
//! * its error is at most `√(1 + δ) · opt_k`, where `opt_k` is the error of the
//!   best `k`-histogram approximation of `q`,
//! * the running time is `O(s + k(1 + 1/δ)·log((1 + 1/δ)k/γ))`, which is `O(s)`
//!   for the parameterization of Corollary 3.1.

use crate::error::Result;
use crate::function::DiscreteFunction;
use crate::histogram::Histogram;
use crate::params::MergingParams;
use crate::segment::{merge_rounds, segments_to_histogram, Segment, Segments};
use crate::sparse::SparseFunction;

/// Summary statistics of one run of the merging algorithm, useful for
/// diagnostics, tests and the ablation experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergingReport {
    /// Number of intervals in the initial (exact) segmentation.
    pub initial_intervals: usize,
    /// Number of intervals in the final partition.
    pub final_intervals: usize,
    /// Number of merging rounds executed.
    pub rounds: usize,
}

/// Runs Algorithm 1 and returns the output histogram (the flattening of `q`
/// over the final partition).
pub fn construct_histogram(q: &SparseFunction, params: &MergingParams) -> Result<Histogram> {
    Ok(construct_histogram_with_report(q, params)?.0)
}

/// Runs Algorithm 1 and additionally returns a [`MergingReport`].
pub fn construct_histogram_with_report(
    q: &SparseFunction,
    params: &MergingParams,
) -> Result<(Histogram, MergingReport)> {
    let (segments, report) = merge_segments(Segments::Sparse(q), params);
    Ok((segments_to_histogram(q.domain(), &segments), report))
}

/// The merging loop behind every Algorithm 1 entry point: pair rounds over
/// `src` until at most `(2 + 2/δ)k + γ` intervals remain.
pub(crate) fn merge_segments(
    src: Segments<'_>,
    params: &MergingParams,
) -> (Vec<Segment>, MergingReport) {
    let max_intervals = params.max_intervals().max(1);
    let keep = params.keep_count();
    let mut rounds = 0usize;

    // If every pair would be kept, no merge can happen and the loop cannot
    // make progress; this only occurs for extreme parameter choices.
    let plan = |len| {
        let more = len > max_intervals && len / 2 > keep;
        rounds += usize::from(more);
        more.then_some((2, keep))
    };
    let (segments, initial_intervals) = merge_rounds(src, plan, |_, _| {});

    let report = MergingReport { initial_intervals, final_intervals: segments.len(), rounds };
    (segments, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::DiscreteFunction;
    use crate::test_support::{lcg, opt_k_sse};

    #[test]
    fn exact_recovery_of_a_k_histogram() {
        // The input is itself a 3-histogram; with k = 3 the output must have zero error.
        let h = Histogram::from_breakpoints(30, &[10, 20], vec![1.0, 4.0, 2.0]).unwrap();
        let dense = h.to_dense();
        let q = SparseFunction::from_dense_keep_zeros(&dense).unwrap();
        let params = MergingParams::new(3, 1.0, 1.0).unwrap();
        let out = construct_histogram(&q, &params).unwrap();
        assert!(out.l2_distance_squared_dense(&dense).unwrap() < 1e-18);
        assert!(out.num_pieces() <= params.output_pieces_bound());
    }

    #[test]
    fn respects_piece_budget_and_error_guarantee() {
        let mut seed = 42u64;
        let n = 200;
        let k = 5;
        // Piecewise-constant ground truth plus noise.
        let truth =
            Histogram::from_breakpoints(n, &[37, 80, 120, 160], vec![2.0, 7.0, 1.0, 5.0, 3.0])
                .unwrap()
                .to_dense();
        let noisy: Vec<f64> = truth.iter().map(|v| v + 0.4 * (lcg(&mut seed) - 0.5)).collect();

        let q = SparseFunction::from_dense_keep_zeros(&noisy).unwrap();
        for delta in [0.5, 1.0, 4.0, 1000.0] {
            let params = MergingParams::new(k, delta, 1.0).unwrap();
            let out = construct_histogram(&q, &params).unwrap();
            assert!(
                out.num_pieces() <= params.output_pieces_bound(),
                "pieces {} exceed bound {} for delta {delta}",
                out.num_pieces(),
                params.output_pieces_bound()
            );
            let sse = out.l2_distance_squared_dense(&noisy).unwrap();
            let opt = opt_k_sse(&noisy, k);
            assert!(
                sse <= (1.0 + delta) * opt + 1e-9,
                "sse {sse} exceeds (1+{delta})·opt = {}",
                (1.0 + delta) * opt
            );
        }
    }

    #[test]
    fn sparse_input_ignores_long_zero_runs_cheaply() {
        // A very sparse function over a huge domain.
        let n = 1_000_000;
        let entries: Vec<(usize, f64)> =
            (0..50).map(|i| (i * 19_997 + 13, (i % 7) as f64 + 1.0)).collect();
        let q = SparseFunction::new(n, entries).unwrap();
        let params = MergingParams::paper_defaults(10).unwrap();
        let (h, report) = construct_histogram_with_report(&q, &params).unwrap();
        assert!(h.num_pieces() <= params.output_pieces_bound());
        assert_eq!(h.domain(), n);
        // The initial segmentation has at most 2s + 1 intervals — independent of n.
        assert!(report.initial_intervals <= 2 * q.sparsity() + 1);
    }

    #[test]
    fn report_counts_rounds() {
        let values: Vec<f64> = (0..256).map(|i| (i % 16) as f64).collect();
        let q = SparseFunction::from_dense_keep_zeros(&values).unwrap();
        let params = MergingParams::new(4, 1.0, 1.0).unwrap();
        let (_, report) = construct_histogram_with_report(&q, &params).unwrap();
        assert_eq!(report.initial_intervals, 256);
        assert!(report.final_intervals <= params.output_pieces_bound());
        // Each round removes at most half of the intervals, so at least log2(256/13) rounds.
        assert!(report.rounds >= 4);
        // And never more than log2(s) + 1 rounds.
        assert!(report.rounds <= 9);
    }

    #[test]
    fn single_piece_budget() {
        let values = vec![1.0, 2.0, 3.0, 4.0];
        let q = SparseFunction::from_dense_keep_zeros(&values).unwrap();
        let params = MergingParams::new(1, 0.5, 0.0).unwrap();
        let out = construct_histogram(&q, &params).unwrap();
        assert!(out.num_pieces() <= params.output_pieces_bound());
    }

    #[test]
    fn input_already_small_is_returned_exactly() {
        // If the initial segmentation already has ≤ max_intervals pieces, no merging occurs.
        let q = SparseFunction::new(100, vec![(10, 1.0), (50, 2.0)]).unwrap();
        let params = MergingParams::paper_defaults(10).unwrap();
        let (h, report) = construct_histogram_with_report(&q, &params).unwrap();
        assert_eq!(report.rounds, 0);
        assert!(h.l2_distance_squared_sparse(&q).unwrap() < 1e-18);
    }
}
