//! # hist-baselines
//!
//! Every comparator evaluated or cited by the PODS 2015 histogram paper,
//! implemented from scratch on top of `hist-core`:
//!
//! * [`ExactDp`] — the exact V-optimal dynamic program of Jagadish et
//!   al. [JKM+98] (`exactdp` in the paper's Table 1): by default with
//!   branch-and-bound pruning of the inner scan (our extension, the same
//!   optimum in practical time at full scale), or the textbook `O(n²·k)` DP
//!   with [`ExactDp::naive`];
//! * [`DualGreedy`] — the linear-time greedy algorithm for the dual problem
//!   of [JKM+98] with a binary-search primal wrapper (`dual` in Table 1);
//! * [`GksQuantile`] — a `(1 + δ)`-approximate compressed-row DP in the
//!   spirit of AHIST-S / AHIST-L-Δ \[GKS06\];
//! * [`EqualWidth`], [`EqualMass`], [`GreedySplit`] — classical non-optimal
//!   baselines used as sanity floors and ablation points.
//!
//! Each baseline is an [`Estimator`](hist_core::Estimator): it fits the
//! dense view of a [`Signal`](hist_core::Signal) with at most the builder's
//! `k` pieces and returns a histogram [`Synopsis`](hist_core::Synopsis).

mod dual_greedy;
mod equal_mass;
mod equal_width;
mod estimators;
mod exact_dp;
mod gks;
mod greedy_split;
mod pruned_dp;

pub use estimators::{DualGreedy, EqualMass, EqualWidth, ExactDp, GksQuantile, GreedySplit};

/// Helpers shared by the per-algorithm unit tests.
#[cfg(test)]
mod test_support {
    use hist_core::{flatten_dense, Partition};

    /// Squared `ℓ₂` residual of flattening `values` over `partition`.
    pub(crate) fn residual(values: &[f64], partition: &Partition) -> f64 {
        let histogram = flatten_dense(values, partition).unwrap();
        histogram.l2_distance_squared_dense(values).unwrap()
    }

    /// The exact `k`-piece optimum: the residual of the naive DP's fit.
    pub(crate) fn optimum(values: &[f64], k: usize) -> f64 {
        residual(values, &crate::exact_dp::partition(values, k).unwrap())
    }

    /// A seeded linear congruential generator, uniform in `[0, 1)`.
    pub(crate) fn lcg(seed: &mut u64) -> f64 {
        *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((*seed >> 11) as f64) / (1u64 << 53) as f64
    }
}
