//! The piecewise-polynomial experiment (Theorem 2.3 / Corollary 4.1 demo):
//! for a fixed space budget `k·(d + 1)` (the number of real parameters of the
//! synopsis), how does the achieved error change with the per-piece degree `d`?
//!
//! The paper motivates piecewise polynomials as a strictly more expressive
//! synopsis for the same space; this experiment quantifies that claim on the
//! smooth `poly` and `dow` signals and on the piecewise-constant `hist` signal
//! (where degree 0 is expected to win). Fits run through the unified
//! [`PiecewisePoly`] estimator.

use approx_hist::{Estimator, EstimatorBuilder, PiecewisePoly, Signal};
use hist_datasets as datasets;

/// One row of the experiment: a `(budget, degree)` combination.
#[derive(Debug, Clone, PartialEq)]
pub struct PolyExpRow {
    /// Space budget `k·(d + 1)` in parameters.
    pub budget: usize,
    /// Per-piece polynomial degree `d`.
    pub degree: usize,
    /// Number of pieces `k` requested (`budget / (d + 1)`).
    pub k: usize,
    /// Number of pieces actually produced.
    pub pieces: usize,
    /// Number of parameters actually used (`Σ_j (d_j + 1)`).
    pub parameters: usize,
    /// `ℓ₂` error of the fitted piecewise polynomial.
    pub error: f64,
}

/// Runs the budget-vs-degree sweep on one dense signal.
pub fn poly_experiment(values: &[f64], budgets: &[usize], degrees: &[usize]) -> Vec<PolyExpRow> {
    let signal = Signal::from_slice(values).expect("finite signal");
    let mut rows = Vec::with_capacity(budgets.len() * degrees.len());
    for &budget in budgets {
        for &degree in degrees {
            let k = (budget / (degree + 1)).max(1);
            // merging2-style parameterization: the output has ≈ k pieces.
            let estimator = PiecewisePoly::new(EstimatorBuilder::new(k.div_ceil(2)).degree(degree));
            let synopsis = estimator.fit(&signal).expect("valid signal");
            rows.push(PolyExpRow {
                budget,
                degree,
                k,
                pieces: synopsis.num_pieces(),
                parameters: synopsis
                    .polynomial()
                    .expect("piecewise-poly synopsis")
                    .parameter_count(),
                error: synopsis.l2_error(&signal).expect("matching domain"),
            });
        }
    }
    rows
}

/// The default data sets of the experiment: `(name, signal)` for `hist`,
/// `poly` and a truncated `dow`.
pub fn poly_experiment_datasets() -> Vec<(String, Vec<f64>)> {
    vec![
        ("hist".to_string(), datasets::hist_dataset()),
        ("poly".to_string(), datasets::poly_dataset()),
        ("dow".to_string(), datasets::dow_dataset_with_length(4_096)),
    ]
}

/// Default space budgets (in parameters) swept by the experiment.
pub fn default_budgets() -> Vec<usize> {
    vec![12, 24, 48, 96]
}

/// Default per-piece degrees swept by the experiment.
pub fn default_degrees() -> Vec<usize> {
    vec![0, 1, 2, 3]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn higher_degree_wins_on_smooth_signals() {
        let values = datasets::poly_dataset();
        let rows = poly_experiment(&values, &[48], &[0, 2]);
        assert_eq!(rows.len(), 2);
        let flat = rows.iter().find(|r| r.degree == 0).unwrap();
        let quad = rows.iter().find(|r| r.degree == 2).unwrap();
        assert!(
            quad.error < flat.error,
            "same budget: degree 2 ({}) should beat degree 0 ({}) on the smooth poly signal",
            quad.error,
            flat.error
        );
    }

    #[test]
    fn budgets_and_parameters_are_tracked() {
        let values = datasets::hist_dataset();
        let rows = poly_experiment(&values, &[24], &[0, 1, 3]);
        for row in &rows {
            assert_eq!(row.k, (24 / (row.degree + 1)).max(1));
            assert!(row.pieces >= 1);
            assert!(row.parameters >= row.pieces);
            assert!(row.error.is_finite());
        }
    }

    #[test]
    fn error_decreases_with_budget() {
        let values = datasets::dow_dataset_with_length(2_048);
        let rows = poly_experiment(&values, &[12, 96], &[1]);
        assert!(rows[1].error <= rows[0].error + 1e-9);
    }
}
