//! [`Estimator`] adapters for every baseline algorithm, so benches and tests
//! dispatch over `&dyn Estimator` instead of calling the per-algorithm
//! functions directly.
//!
//! All baselines operate on the dense view of the [`Signal`] and respect the
//! piece budget `k` of the [`EstimatorBuilder`] exactly (unlike the merging
//! algorithms, which trade extra pieces for speed and accuracy).

use hist_core::{Estimator, EstimatorBuilder, FittedModel, Result, Signal, Synopsis};

use crate::dual_greedy::dual_histogram;
use crate::equal_mass::equal_mass_histogram;
use crate::equal_width::equal_width_histogram;
use crate::exact_dp::exact_histogram;
use crate::gks::approx_dp;
use crate::greedy_split::greedy_split_histogram;
use crate::pruned_dp::exact_histogram_pruned;

fn synopsis(name: &'static str, k: usize, fit: crate::FitResult) -> Synopsis {
    Synopsis::new(name, k, FittedModel::Histogram(fit.histogram))
}

/// The exact V-optimal dynamic program of [JKM+98] as an [`Estimator`].
///
/// Defaults to the branch-and-bound pruned variant (identical optimum,
/// practical running time at `n = 16384`); [`ExactDp::naive`] selects the
/// textbook `O(n²k)` DP for cross-checks and timing comparisons.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExactDp {
    builder: EstimatorBuilder,
    naive: bool,
}

impl ExactDp {
    /// The pruned exact DP (`exactdp`).
    pub fn new(builder: EstimatorBuilder) -> Self {
        Self { builder, naive: false }
    }

    /// The naive `O(n²k)` exact DP (`exactdp-naive`).
    pub fn naive(builder: EstimatorBuilder) -> Self {
        Self { builder, naive: true }
    }
}

impl Estimator for ExactDp {
    fn name(&self) -> &'static str {
        if self.naive {
            "exactdp-naive"
        } else {
            "exactdp"
        }
    }

    fn fit(&self, signal: &Signal) -> Result<Synopsis> {
        let values = signal.dense_values();
        let k = self.builder.k();
        let fit = if self.naive {
            exact_histogram(&values, k)?
        } else {
            exact_histogram_pruned(&values, k)?
        };
        Ok(synopsis(self.name(), k, fit))
    }
}

/// The approximation parameter `δ` of the AHIST-style approximate DP.
const GKS_DELTA: f64 = 0.1;

/// The `(1 + δ)`-approximate compressed-row DP in the spirit of AHIST
/// \[GKS06\] as an [`Estimator`], with `δ = 0.1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GksQuantile {
    builder: EstimatorBuilder,
}

impl GksQuantile {
    /// An approximate-DP estimator with the builder's `k`.
    pub fn new(builder: EstimatorBuilder) -> Self {
        Self { builder }
    }
}

impl Estimator for GksQuantile {
    fn name(&self) -> &'static str {
        "gks"
    }

    fn fit(&self, signal: &Signal) -> Result<Synopsis> {
        let k = self.builder.k();
        let fit = approx_dp(&signal.dense_values(), k, GKS_DELTA)?;
        Ok(synopsis(self.name(), k, fit))
    }
}

/// The linear-time dual greedy of [JKM+98] (binary search over the error) as
/// an [`Estimator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DualGreedy {
    builder: EstimatorBuilder,
}

impl DualGreedy {
    /// A dual-greedy estimator with the builder's `k`.
    pub fn new(builder: EstimatorBuilder) -> Self {
        Self { builder }
    }
}

impl Estimator for DualGreedy {
    fn name(&self) -> &'static str {
        "dual"
    }

    fn fit(&self, signal: &Signal) -> Result<Synopsis> {
        let k = self.builder.k();
        Ok(synopsis(self.name(), k, dual_histogram(&signal.dense_values(), k)?))
    }
}

/// Equi-width buckets (data-oblivious sanity floor) as an [`Estimator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EqualWidth {
    builder: EstimatorBuilder,
}

impl EqualWidth {
    /// An equi-width estimator with the builder's `k`.
    pub fn new(builder: EstimatorBuilder) -> Self {
        Self { builder }
    }
}

impl Estimator for EqualWidth {
    fn name(&self) -> &'static str {
        "equalwidth"
    }

    fn fit(&self, signal: &Signal) -> Result<Synopsis> {
        let k = self.builder.k();
        Ok(synopsis(self.name(), k, equal_width_histogram(&signal.dense_values(), k)?))
    }
}

/// Equi-depth buckets (equal mass per piece) as an [`Estimator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EqualMass {
    builder: EstimatorBuilder,
}

impl EqualMass {
    /// An equi-depth estimator with the builder's `k`.
    pub fn new(builder: EstimatorBuilder) -> Self {
        Self { builder }
    }
}

impl Estimator for EqualMass {
    fn name(&self) -> &'static str {
        "equalmass"
    }

    fn fit(&self, signal: &Signal) -> Result<Synopsis> {
        let k = self.builder.k();
        Ok(synopsis(self.name(), k, equal_mass_histogram(&signal.dense_values(), k)?))
    }
}

/// Top-down greedy splitting (ablation partner of bottom-up merging) as an
/// [`Estimator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GreedySplit {
    builder: EstimatorBuilder,
}

impl GreedySplit {
    /// A greedy-splitting estimator with the builder's `k`.
    pub fn new(builder: EstimatorBuilder) -> Self {
        Self { builder }
    }
}

impl Estimator for GreedySplit {
    fn name(&self) -> &'static str {
        "greedysplit"
    }

    fn fit(&self, signal: &Signal) -> Result<Synopsis> {
        let k = self.builder.k();
        Ok(synopsis(self.name(), k, greedy_split_histogram(&signal.dense_values(), k)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_signal() -> Signal {
        let values: Vec<f64> = (0..60)
            .map(|i| {
                if i < 20 {
                    1.0
                } else if i < 40 {
                    4.0
                } else {
                    2.0
                }
            })
            .collect();
        Signal::from_dense(values).unwrap()
    }

    #[test]
    fn every_baseline_respects_the_piece_budget() {
        let signal = step_signal();
        let builder = EstimatorBuilder::new(3);
        let estimators: Vec<Box<dyn Estimator>> = vec![
            Box::new(ExactDp::new(builder)),
            Box::new(ExactDp::naive(builder)),
            Box::new(GksQuantile::new(builder)),
            Box::new(DualGreedy::new(builder)),
            Box::new(EqualWidth::new(builder)),
            Box::new(EqualMass::new(builder)),
            Box::new(GreedySplit::new(builder)),
        ];
        for estimator in &estimators {
            let synopsis = estimator.fit(&signal).unwrap();
            assert!(
                synopsis.num_pieces() <= 3,
                "{} produced {} pieces",
                estimator.name(),
                synopsis.num_pieces()
            );
        }
    }

    #[test]
    fn exact_dp_is_the_lower_envelope() {
        let signal = step_signal();
        let builder = EstimatorBuilder::new(2);
        let opt = ExactDp::new(builder).fit(&signal).unwrap().l2_error(&signal).unwrap();
        for estimator in [
            Box::new(DualGreedy::new(builder)) as Box<dyn Estimator>,
            Box::new(EqualWidth::new(builder)),
            Box::new(GreedySplit::new(builder)),
        ] {
            let err = estimator.fit(&signal).unwrap().l2_error(&signal).unwrap();
            assert!(err + 1e-9 >= opt, "{} beat the optimum", estimator.name());
        }
        let naive = ExactDp::naive(builder).fit(&signal).unwrap().l2_error(&signal).unwrap();
        assert!((naive - opt).abs() < 1e-9, "naive and pruned DP must agree");
    }
}
