//! Parameters of the merging algorithms (Algorithm 1 / `ConstructHistogram`).
//!
//! Besides the target number of pieces `k`, Algorithm 1 takes two trade-off
//! parameters:
//!
//! * `δ` ("delta") trades the approximation ratio against the number of output
//!   pieces: the output has at most `(2 + 2/δ)·k + γ` intervals and error at
//!   most `√(1+δ)·opt_k` (Theorem 3.3).
//! * `γ` ("gamma") trades running time against the number of output pieces: for
//!   `γ = c·(2 + 2/δ)·k` the algorithm runs in `O(s)` time for every `k`
//!   (Corollary 3.1).
//!
//! The paper's experiments use `δ = 1000, γ = 1`, which makes the output a
//! `(2k + 1)`-histogram.

use crate::error::{Error, Result};

/// Parameters `(k, δ, γ)` of the greedy merging algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergingParams {
    k: usize,
    delta: f64,
    gamma: f64,
}

impl MergingParams {
    /// Creates a parameter set, validating `k ≥ 1`, `δ > 0` and `γ ≥ 0`.
    pub fn new(k: usize, delta: f64, gamma: f64) -> Result<Self> {
        if k == 0 {
            return Err(Error::InvalidParameter {
                name: "k",
                reason: "the number of histogram pieces must be at least 1".into(),
            });
        }
        if !delta.is_finite() || delta <= 0.0 {
            return Err(Error::InvalidParameter {
                name: "delta",
                reason: format!("must be a positive finite number, got {delta}"),
            });
        }
        if !gamma.is_finite() || gamma < 0.0 {
            return Err(Error::InvalidParameter {
                name: "gamma",
                reason: format!("must be a non-negative finite number, got {gamma}"),
            });
        }
        Ok(Self { k, delta, gamma })
    }

    /// The parameterization used in the paper's experiments (`δ = 1000, γ = 1`):
    /// the output is a `(2k + 1)`-histogram with empirically excellent accuracy.
    pub fn paper_defaults(k: usize) -> Result<Self> {
        Self::new(k, 1000.0, 1.0)
    }

    /// The parameterization of Corollary 3.1 with `δ = 1` and `γ = (2 + 2/δ)k`,
    /// guaranteeing `O(s)` running time for every `k` and error `≤ √2·opt_k`
    /// with at most `2·(2 + 2/δ)k = 8k` pieces.
    pub fn linear_time_defaults(k: usize) -> Result<Self> {
        let delta = 1.0;
        let gamma = (2.0 + 2.0 / delta) * k as f64;
        Self::new(k, delta, gamma)
    }

    /// Approximation/size trade-off parameter `δ`.
    #[inline]
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Time/size trade-off parameter `γ`.
    #[inline]
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The merging loop continues while more than this many intervals remain:
    /// `(2 + 2/δ)·k + γ` (line 11 of Algorithm 1), rounded down.
    pub(crate) fn max_intervals(&self) -> usize {
        ((2.0 + 2.0 / self.delta) * self.k as f64 + self.gamma).floor() as usize
    }

    /// Number of candidate pairs kept (not merged) per iteration:
    /// `(1 + 1/δ)·k` (line 16 of Algorithm 1), rounded up and at least 1.
    pub(crate) fn keep_count(&self) -> usize {
        (((1.0 + 1.0 / self.delta) * self.k as f64).ceil() as usize).max(1)
    }

    /// Upper bound on the number of pieces in the output histogram:
    /// `⌊(2 + 2/δ)k + γ⌋` but never below `2·keep_count + 1` (the loop can stop
    /// one merge "late" when the interval count is odd).
    pub fn output_pieces_bound(&self) -> usize {
        self.max_intervals().max(2 * self.keep_count() + 1)
    }

    /// Guaranteed multiplicative error bound `√(1 + δ)` of Theorem 3.3.
    pub fn error_ratio_bound(&self) -> f64 {
        (1.0 + self.delta).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(MergingParams::new(0, 1.0, 1.0).is_err());
        assert!(MergingParams::new(5, 0.0, 1.0).is_err());
        assert!(MergingParams::new(5, -1.0, 1.0).is_err());
        assert!(MergingParams::new(5, f64::NAN, 1.0).is_err());
        assert!(MergingParams::new(5, 1.0, -0.5).is_err());
        assert!(MergingParams::new(5, 1.0, 0.0).is_ok());
    }

    #[test]
    fn paper_defaults_produce_roughly_2k_pieces() {
        let p = MergingParams::paper_defaults(10).unwrap();
        assert_eq!(p.delta(), 1000.0);
        // (2 + 2/1000)·10 + 1 = 21.02 → 21 intervals allowed, i.e. 2k + 1.
        assert_eq!(p.max_intervals(), 21);
        // (1 + 1/1000)·10 → 11 pairs kept.
        assert_eq!(p.keep_count(), 11);
    }

    #[test]
    fn linear_time_defaults() {
        let p = MergingParams::linear_time_defaults(5).unwrap();
        assert_eq!(p.delta(), 1.0);
        assert_eq!(p.gamma(), 20.0);
        assert_eq!(p.max_intervals(), 40);
        assert_eq!(p.keep_count(), 10);
        assert!((p.error_ratio_bound() - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn derived_quantities_are_consistent() {
        let p = MergingParams::new(3, 2.0, 4.0).unwrap();
        // (2 + 1)·3 + 4 = 13
        assert_eq!(p.max_intervals(), 13);
        // (1 + 0.5)·3 = 4.5 → 5
        assert_eq!(p.keep_count(), 5);
        assert!(p.output_pieces_bound() >= p.max_intervals());
    }
}
