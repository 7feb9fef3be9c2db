//! The generalized merging algorithm of Section 4
//! (`ConstructGeneralHistogram`): Algorithm 1 with the flattening step replaced
//! by an arbitrary [`ProjectionOracle`].
//!
//! Given an `s`-sparse signal `q`, parameters `(k, δ, γ)` and a projection
//! oracle for a function class `F`, the algorithm outputs a piecewise
//! `F`-function with at most `(2 + 2/δ)k + γ` pieces whose `ℓ₂` error is at
//! most `√(1+δ)` times the error of the best `k`-piecewise `F`-function
//! (Theorem 4.1). With the [`ConstantOracle`](crate::oracle::ConstantOracle) it
//! recovers Algorithm 1; with the degree-`d` polynomial oracle of the
//! `hist-poly` crate it yields the piecewise-polynomial approximation of
//! Theorem 2.3 / Corollary 4.1.

use crate::error::Result;
use crate::function::DiscreteFunction;
use crate::interval::Interval;
use crate::oracle::ProjectionOracle;
use crate::params::MergingParams;
use crate::piecewise_poly::{PiecewisePolynomial, PolynomialPiece};
use crate::segment::{with_starts, Segments};
use crate::select::{compact_groups, keep_threshold, SelectBuffers};
use crate::sparse::SparseFunction;

/// Summary statistics of one run of the generalized merging algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeneralMergingReport {
    /// Number of intervals in the initial (exact) segmentation.
    pub initial_intervals: usize,
    /// Number of intervals in the final partition.
    pub final_intervals: usize,
    /// Number of merging rounds executed.
    pub rounds: usize,
    /// Total number of oracle projections performed.
    pub oracle_calls: usize,
}

/// Runs the generalized merging algorithm and returns the fitted piecewise
/// function (one oracle fit per final interval).
pub fn construct_general<O: ProjectionOracle>(
    q: &SparseFunction,
    params: &MergingParams,
    oracle: &O,
) -> Result<PiecewisePolynomial> {
    Ok(construct_general_with_report(q, params, oracle)?.0)
}

/// Runs the generalized merging algorithm and additionally returns a
/// [`GeneralMergingReport`].
pub fn construct_general_with_report<O: ProjectionOracle>(
    q: &SparseFunction,
    params: &MergingParams,
    oracle: &O,
) -> Result<(PiecewisePolynomial, GeneralMergingReport)> {
    let mut intervals: Vec<Interval> = with_starts(Segments::Sparse(q).iter())
        .map(|(start, s)| Interval::new_unchecked(start, s.end))
        .collect();
    let initial_intervals = intervals.len();
    let max_intervals = params.max_intervals().max(1);
    let keep = params.keep_count();
    let (mut errors, mut buffers) = (Vec::new(), SelectBuffers::default());
    let mut rounds = 0usize;
    let mut oracle_calls = 0usize;

    // Algorithm 1's round, with oracle errors in place of flattening errors.
    while intervals.len() > max_intervals && intervals.len() / 2 > keep {
        errors.clear();
        for pair in intervals.chunks_exact(2) {
            // Kept finite, as the selection needs (`f64::MAX` ranks as `+∞`).
            errors.push(oracle.project_error(q, union(pair))?.min(f64::MAX));
            oracle_calls += 1;
        }
        let (tau, _) = keep_threshold(&mut errors, keep, &mut buffers);
        compact_groups(&mut intervals, 2, &errors, tau, union);
        rounds += 1;
    }

    let mut pieces: Vec<PolynomialPiece> = Vec::with_capacity(intervals.len());
    for &interval in &intervals {
        let (piece, _) = oracle.project(q, interval)?;
        oracle_calls += 1;
        pieces.push(piece);
    }
    let report = GeneralMergingReport {
        initial_intervals,
        final_intervals: intervals.len(),
        rounds,
        oracle_calls,
    };
    Ok((PiecewisePolynomial::new(q.domain(), pieces)?, report))
}

/// The union of a pair of consecutive working intervals.
fn union(pair: &[Interval]) -> Interval {
    pair[0].union(&pair[1]).expect("consecutive working intervals are adjacent")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::construct_histogram_with_report;
    use crate::function::DiscreteFunction;
    use crate::oracle::ConstantOracle;
    use crate::partition::Partition;
    use crate::test_support::lcg;

    #[test]
    fn constant_oracle_reproduces_algorithm_1() {
        let mut seed = 91u64;
        let values: Vec<f64> = (0..400)
            .map(|i| {
                let base = if i < 130 {
                    2.0
                } else if i < 300 {
                    7.0
                } else {
                    4.0
                };
                base + 0.2 * lcg(&mut seed)
            })
            .collect();
        let q = SparseFunction::from_dense_keep_zeros(&values).unwrap();
        let params = MergingParams::new(3, 1.0, 1.0).unwrap();

        let general = construct_general(&q, &params, &ConstantOracle::new()).unwrap();
        let direct = construct_histogram_with_report(&q, &params).unwrap().0;

        assert_eq!(general.num_pieces(), direct.num_pieces());
        // Piece values and boundaries must coincide: the selection is identical.
        for i in 0..values.len() {
            assert!((general.value(i) - direct.value(i)).abs() < 1e-12);
        }
    }

    /// Oracle errors whose squares overflow to `+∞` all tie; the rounds must
    /// still keep exactly `keep` pairs each and match Algorithm 1.
    #[test]
    fn overflowing_errors_still_merge() {
        let mut seed = 5u64;
        let values: Vec<f64> =
            (0..1_001).map(|i| [1e154, -1e154][i % 2] * (1.0 + lcg(&mut seed))).collect();
        let q = SparseFunction::from_dense_keep_zeros(&values).unwrap();
        let params = MergingParams::new(4, 1.0, 1.0).unwrap();
        let (general, report) =
            construct_general_with_report(&q, &params, &ConstantOracle::new()).unwrap();
        let direct = construct_histogram_with_report(&q, &params).unwrap().0;
        assert!(report.final_intervals <= params.output_pieces_bound());
        let ends = |p: &Partition| p.iter().map(|i| i.end()).collect::<Vec<_>>();
        let general_ends: Vec<usize> =
            general.pieces().iter().map(|p| p.interval().end()).collect();
        assert_eq!(general_ends, ends(direct.partition()));
    }

    #[test]
    fn respects_piece_budget_and_reports_oracle_calls() {
        let values: Vec<f64> = (0..512).map(|i| ((i * 7) % 13) as f64).collect();
        let q = SparseFunction::from_dense_keep_zeros(&values).unwrap();
        let params = MergingParams::paper_defaults(8).unwrap();
        let (out, report) =
            construct_general_with_report(&q, &params, &ConstantOracle::new()).unwrap();
        assert!(out.num_pieces() <= params.output_pieces_bound());
        assert_eq!(report.initial_intervals, 512);
        assert!(report.oracle_calls >= report.final_intervals);
        assert!(report.rounds >= 1);
    }

    #[test]
    fn small_sparse_input_skips_merging() {
        let q = SparseFunction::new(10_000, vec![(17, 2.0), (4_000, 5.0)]).unwrap();
        let params = MergingParams::paper_defaults(10).unwrap();
        let (out, report) =
            construct_general_with_report(&q, &params, &ConstantOracle::new()).unwrap();
        assert_eq!(report.rounds, 0);
        // The initial segmentation reproduces the sparse signal exactly.
        assert!(out.l2_distance_squared_sparse(&q).unwrap() < 1e-18);
    }
}
