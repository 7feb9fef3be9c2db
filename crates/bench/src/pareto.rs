//! The multi-scale (Theorem 2.2) experiment: trace the Pareto curve between
//! the number of histogram pieces and the achieved error with a *single* run of
//! Algorithm 2, and compare each level against the exact optimum `opt_k` and
//! the guarantee `2·opt_k`.
//!
//! The per-`k` extraction goes through the unified
//! [`Hierarchical`] estimator; the raw curve uses
//! its [`fit_hierarchy`](approx_hist::Hierarchical::fit_hierarchy) extension
//! (the Pareto sweep is the one capability a single fitted synopsis
//! intentionally does not carry).

use approx_hist::{Estimator, EstimatorBuilder, EstimatorKind, Hierarchical, Signal};
use hist_datasets as datasets;

/// One row of the Pareto experiment: a hierarchy level compared against the
/// exact optimum for the matching piece budget.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoRow {
    /// Target piece budget `k`.
    pub k: usize,
    /// Number of pieces of the level selected for this `k` (≤ 8k).
    pub pieces: usize,
    /// `ℓ₂` error of the selected level.
    pub error: f64,
    /// Error of the exact V-optimal `k`-histogram.
    pub opt_k: f64,
    /// The ratio `error / opt_k` (Theorem 3.5 guarantees ≤ 2 up to sampling).
    pub ratio: f64,
}

/// The Pareto experiment on one dense signal: build the hierarchy *once*
/// (that is the point of Algorithm 2), then compare the level served for each
/// requested `k` against the exact optimum.
pub fn pareto_experiment(values: &[f64], ks: &[usize]) -> Vec<ParetoRow> {
    let signal = Signal::from_slice(values).expect("finite signal");
    let hierarchy =
        Hierarchical::new(EstimatorBuilder::new(1)).fit_hierarchy(&signal).expect("valid signal");
    ks.iter()
        .map(|&k| {
            let (histogram, error) = hierarchy.histogram_for_k(k);
            let opt_k = EstimatorKind::ExactDp
                .build(EstimatorBuilder::new(k))
                .fit(&signal)
                .expect("valid signal")
                .l2_error(&signal)
                .expect("same domain");
            ParetoRow {
                k,
                pieces: histogram.num_pieces(),
                error,
                opt_k,
                ratio: if opt_k > 0.0 { error / opt_k } else { f64::NAN },
            }
        })
        .collect()
}

/// The raw Pareto curve (pieces, error) of a single hierarchy on a signal.
pub fn pareto_curve(values: &[f64]) -> Vec<(usize, f64)> {
    let signal = Signal::from_slice(values).expect("finite signal");
    Hierarchical::new(EstimatorBuilder::new(1))
        .fit_hierarchy(&signal)
        .expect("valid signal")
        .pareto_curve()
}

/// The default data set of the Pareto experiment: the `dow` series (truncated
/// to 4096 points unless `paper_scale` is set).
pub fn pareto_dataset(paper_scale: bool) -> Vec<f64> {
    if paper_scale {
        datasets::dow_dataset()
    } else {
        datasets::dow_dataset_with_length(4_096)
    }
}

/// The default piece budgets swept by the Pareto experiment.
pub fn default_ks() -> Vec<usize> {
    vec![1, 2, 5, 10, 20, 50, 100]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guarantee_holds_on_the_dow_series() {
        let values = datasets::dow_dataset_with_length(2_048);
        let rows = pareto_experiment(&values, &[2, 5, 10, 25]);
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.pieces <= 8 * row.k, "k={}: {} pieces", row.k, row.pieces);
            assert!(
                row.error <= 2.0 * row.opt_k + 1e-9,
                "k={}: error {} vs 2·opt {}",
                row.k,
                row.error,
                2.0 * row.opt_k
            );
            assert!(row.ratio <= 2.0 + 1e-9);
        }
        // Larger budgets give smaller errors.
        for w in rows.windows(2) {
            assert!(w[1].error <= w[0].error + 1e-12);
        }
    }

    #[test]
    fn curve_is_monotone() {
        let values = datasets::hist_dataset();
        let curve = pareto_curve(&values);
        assert!(curve.len() > 5);
        for w in curve.windows(2) {
            assert!(w[1].0 < w[0].0);
            assert!(w[1].1 + 1e-12 >= w[0].1);
        }
    }
}
