//! # hist-baselines
//!
//! Every comparator evaluated or cited by the PODS 2015 histogram paper,
//! implemented from scratch on top of `hist-core`:
//!
//! * [`exact_dp`] — the exact V-optimal dynamic program of Jagadish et
//!   al. [JKM+98] (`exactdp` in the paper's Table 1), `O(n²·k)` time, plus a
//!   row-parallel variant;
//! * [`pruned_dp`] — an exact DP with branch-and-bound pruning of the inner
//!   scan (our extension, used to obtain exact optima at full scale in
//!   practical time and to cross-check the naive DP);
//! * [`dual_greedy`] — the linear-time greedy algorithm for the dual problem of
//!   [JKM+98] with a binary-search primal wrapper (`dual` in Table 1);
//! * [`gks`] — a `(1 + δ)`-approximate compressed-row DP in the spirit of
//!   AHIST-S / AHIST-L-Δ \[GKS06\];
//! * [`equal_width`], [`equal_mass`], [`greedy_split`] — classical non-optimal
//!   baselines used as sanity floors and ablation points.
//!
//! All baselines consume a dense signal `&[f64]` and a piece budget `k` and
//! return a [`FitResult`] holding the constructed
//! [`Histogram`] and its squared `ℓ₂` error.

pub mod dual_greedy;
pub mod equal_mass;
pub mod equal_width;
pub mod estimators;
pub mod exact_dp;
pub mod gks;
pub mod greedy_split;
pub mod pruned_dp;

use hist_core::Histogram;

/// A histogram produced by a baseline algorithm together with its squared `ℓ₂`
/// error against the input signal.
#[derive(Debug, Clone, PartialEq)]
pub struct FitResult {
    /// The constructed histogram.
    pub histogram: Histogram,
    /// Squared `ℓ₂` error `‖h − q‖₂²` of the histogram against the input.
    pub sse: f64,
}

impl FitResult {
    /// `ℓ₂` error `‖h − q‖₂` of the fit.
    pub fn error(&self) -> f64 {
        self.sse.sqrt()
    }

    /// Number of pieces of the constructed histogram.
    pub fn num_pieces(&self) -> usize {
        self.histogram.num_pieces()
    }
}

pub use dual_greedy::{dual_histogram, greedy_sweep, DualSweep};
pub use equal_mass::equal_mass_histogram;
pub use equal_width::equal_width_histogram;
pub use estimators::{DualGreedy, EqualMass, EqualWidth, ExactDp, GksQuantile, GreedySplit};
pub use exact_dp::{exact_histogram, exact_histogram_parallel, opt_sse, opt_sse_table};
pub use gks::approx_dp;
pub use greedy_split::greedy_split_histogram;
pub use pruned_dp::{exact_histogram_pruned, opt_sse_pruned};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_result_accessors() {
        let values = vec![1.0, 1.0, 5.0, 5.0];
        let fit = exact_histogram(&values, 2).unwrap();
        assert_eq!(fit.num_pieces(), 2);
        assert!(fit.error() < 1e-9);
    }
}
