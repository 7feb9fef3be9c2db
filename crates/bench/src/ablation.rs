//! The three ablation experiments of the design choices:
//!
//! * the `δ` (approximation vs pieces) and `γ` (time vs pieces) trade-offs of
//!   Algorithm 1 ([`parameter_sweep`]),
//! * pair merging vs aggressive group merging (`merging` vs `fastmerging`,
//!   [`merging_strategies`]),
//! * the naive exact DP vs the pruned exact DP (identical optimum, different
//!   running time, [`exact_dp_comparison`]).

use crate::timing::time_algorithm;
use approx_hist::{Estimator, EstimatorBuilder, ExactDp, Signal};
use hist_core::{
    construct_histogram_fast_with_report, construct_histogram_with_report, MergingParams,
    SparseFunction,
};

/// One row of the `δ` / `γ` parameter sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ParameterSweepRow {
    /// Merging parameter `δ`.
    pub delta: f64,
    /// Merging parameter `γ`.
    pub gamma: f64,
    /// Number of pieces of the output histogram.
    pub pieces: usize,
    /// `ℓ₂` error of the output histogram.
    pub error: f64,
    /// Number of merging rounds executed.
    pub rounds: usize,
    /// Wall-clock time in milliseconds.
    pub time_ms: f64,
}

/// Sweeps `(δ, γ)` combinations of Algorithm 1 on a dense signal.
pub fn parameter_sweep(
    values: &[f64],
    k: usize,
    deltas: &[f64],
    gammas: &[f64],
) -> Vec<ParameterSweepRow> {
    let q = SparseFunction::from_dense_keep_zeros(values).expect("finite signal");
    let mut rows = Vec::with_capacity(deltas.len() * gammas.len());
    for &delta in deltas {
        for &gamma in gammas {
            let params = MergingParams::new(k, delta, gamma).expect("valid parameters");
            let ((histogram, report), seconds) =
                time_algorithm(|| construct_histogram_with_report(&q, &params).expect("valid"));
            rows.push(ParameterSweepRow {
                delta,
                gamma,
                pieces: histogram.num_pieces(),
                error: histogram.l2_distance_dense(values).expect("matching domain"),
                rounds: report.rounds,
                time_ms: seconds * 1e3,
            });
        }
    }
    rows
}

/// One row of the merging-strategy comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct MergingStrategyRow {
    /// Strategy name (`merging` or `fastmerging`).
    pub strategy: String,
    /// Input size `n`.
    pub n: usize,
    /// Number of merging rounds executed.
    pub rounds: usize,
    /// `ℓ₂` error of the output histogram.
    pub error: f64,
    /// Wall-clock time in milliseconds.
    pub time_ms: f64,
}

/// Compares pair merging against aggressive group merging on one signal.
pub fn merging_strategies(values: &[f64], k: usize) -> Vec<MergingStrategyRow> {
    let q = SparseFunction::from_dense_keep_zeros(values).expect("finite signal");
    let params = MergingParams::paper_defaults(k).expect("k >= 1");
    let n = values.len();

    let ((pair_hist, pair_report), pair_seconds) =
        time_algorithm(|| construct_histogram_with_report(&q, &params).expect("valid"));
    let ((fast_hist, fast_report), fast_seconds) =
        time_algorithm(|| construct_histogram_fast_with_report(&q, &params).expect("valid"));

    vec![
        MergingStrategyRow {
            strategy: "merging".into(),
            n,
            rounds: pair_report.rounds,
            error: pair_hist.l2_distance_dense(values).expect("matching domain"),
            time_ms: pair_seconds * 1e3,
        },
        MergingStrategyRow {
            strategy: "fastmerging".into(),
            n,
            rounds: fast_report.rounds,
            error: fast_hist.l2_distance_dense(values).expect("matching domain"),
            time_ms: fast_seconds * 1e3,
        },
    ]
}

/// One row of the exact-DP comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactDpRow {
    /// Implementation name.
    pub implementation: String,
    /// Input size `n`.
    pub n: usize,
    /// Optimal squared error found.
    pub sse: f64,
    /// Wall-clock time in milliseconds.
    pub time_ms: f64,
}

/// Compares the naive `O(n²k)` DP against the pruned DP (both exact), through
/// the unified [`ExactDp`] estimator.
pub fn exact_dp_comparison(values: &[f64], k: usize) -> Vec<ExactDpRow> {
    let n = values.len();
    let signal = Signal::from_slice(values).expect("finite signal");
    let builder = EstimatorBuilder::new(k);
    let (naive, naive_seconds) =
        time_algorithm(|| ExactDp::naive(builder).fit(&signal).expect("valid"));
    let (pruned, pruned_seconds) =
        time_algorithm(|| ExactDp::new(builder).fit(&signal).expect("valid"));
    let sse = |synopsis: &approx_hist::Synopsis| {
        let err = synopsis.l2_error(&signal).expect("same domain");
        err * err
    };
    vec![
        ExactDpRow {
            implementation: "naive".into(),
            n,
            sse: sse(&naive),
            time_ms: naive_seconds * 1e3,
        },
        ExactDpRow {
            implementation: "pruned".into(),
            n,
            sse: sse(&pruned),
            time_ms: pruned_seconds * 1e3,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hist_datasets as datasets;

    #[test]
    fn delta_controls_the_piece_count() {
        let values = datasets::hist_dataset();
        let rows = parameter_sweep(&values, 10, &[0.25, 1.0, 1000.0], &[1.0]);
        assert_eq!(rows.len(), 3);
        // Small δ allows more pieces (and hence at most the error of large δ).
        assert!(rows[0].pieces >= rows[2].pieces);
        assert!(rows[0].error <= rows[2].error + 1e-9);
        for row in &rows {
            assert!(row.time_ms > 0.0);
            assert!(row.rounds > 0);
        }
    }

    #[test]
    fn merging_strategy_comparison_is_consistent() {
        let values = datasets::dow_dataset_with_length(4_096);
        let rows = merging_strategies(&values, 50);
        assert_eq!(rows.len(), 2);
        let pair = &rows[0];
        let fast = &rows[1];
        assert!(fast.rounds < pair.rounds, "fastmerging does fewer rounds");
        // Both produce sensible errors on the same signal.
        assert!(pair.error.is_finite() && fast.error.is_finite());
        assert!(fast.error <= 3.0 * pair.error);
    }

    #[test]
    fn exact_dp_implementations_agree() {
        let values = datasets::dow_dataset_with_length(512);
        let rows = exact_dp_comparison(&values, 10);
        assert_eq!(rows.len(), 2);
        assert!((rows[0].sse - rows[1].sse).abs() < 1e-6 * (1.0 + rows[0].sse));
    }
}
