//! Projection oracles (Definition 4.1 of the paper).
//!
//! The generalized merging algorithm of Section 4 is parameterized by a
//! *projection oracle* for a class `F` of functions: given an interval `I` and
//! the input signal restricted to `I`, the oracle returns (a description of) the
//! best approximation of the signal within `F` on `I` together with the squared
//! `ℓ₂` error of that approximation.
//!
//! Two oracles ship with the workspace:
//!
//! * [`ConstantOracle`] (this module) — the class of constant functions; its
//!   projection is the interval mean and its error the flattening error
//!   `err_q(I)`. Plugging it into [`crate::general::construct_general`]
//!   recovers Algorithm 1.
//! * `FitPolyOracle` (crate `hist-poly`) — degree-`d` polynomials, projected via
//!   the discrete Chebyshev (Gram) orthonormal basis (Theorem 4.2).

use crate::error::Result;
use crate::interval::Interval;
use crate::piecewise_poly::PolynomialPiece;
use crate::sparse::SparseFunction;
use crate::stats::sse_from_sums;

/// A projection oracle for a class of functions on intervals of `[0, n)`.
///
/// Implementations must return, for the restriction of `q` to `interval`, a
/// [`PolynomialPiece`] describing the best (or near-best) fit within the
/// oracle's function class and the squared `ℓ₂` error of that fit, i.e.
/// `Σ_{i∈I} (fit(i) − q(i))²`.
pub trait ProjectionOracle {
    /// Projects `q` restricted to `interval` onto the oracle's function class.
    ///
    /// Returns the fitted piece (whose interval must equal `interval`) and the
    /// squared `ℓ₂` error of the fit on that interval.
    fn project(&self, q: &SparseFunction, interval: Interval) -> Result<(PolynomialPiece, f64)>;

    /// Squared `ℓ₂` error of the best fit on `interval`, without materializing
    /// the fitted piece. The default implementation calls [`Self::project`].
    fn project_error(&self, q: &SparseFunction, interval: Interval) -> Result<f64> {
        Ok(self.project(q, interval)?.1)
    }

    /// Human-readable name of the oracle, used in experiment reports.
    fn name(&self) -> &'static str {
        "oracle"
    }
}

/// The trivial projection oracle for the class of constant functions: the best
/// constant fit on an interval is the interval mean, with error `err_q(I)`
/// (Definition 3.1).
#[derive(Debug, Clone, Copy, Default)]
pub struct ConstantOracle;

impl ConstantOracle {
    /// Creates a new constant-function oracle.
    pub fn new() -> Self {
        Self
    }
}

impl ProjectionOracle for ConstantOracle {
    fn project(&self, q: &SparseFunction, interval: Interval) -> Result<(PolynomialPiece, f64)> {
        let entries = q.entries_in(interval);
        let sum: f64 = entries.iter().map(|&(_, v)| v).sum();
        let sum_sq: f64 = entries.iter().map(|&(_, v)| v * v).sum();
        let len = interval.len() as f64;
        let mean = sum / len;
        Ok((PolynomialPiece::constant(interval, mean)?, sse_from_sums(sum, sum_sq, len)))
    }

    fn project_error(&self, q: &SparseFunction, interval: Interval) -> Result<f64> {
        let entries = q.entries_in(interval);
        let sum: f64 = entries.iter().map(|&(_, v)| v).sum();
        let sum_sq: f64 = entries.iter().map(|&(_, v)| v * v).sum();
        Ok(sse_from_sums(sum, sum_sq, interval.len() as f64))
    }

    fn name(&self) -> &'static str {
        "constant"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::interval_mean;
    use crate::test_support::two_pass_sse;

    #[test]
    fn constant_oracle_matches_flattening_statistics() {
        let dense = vec![0.0, 2.0, 0.0, 4.0, 6.0, 0.0, 0.0, 1.0];
        let q = SparseFunction::from_dense(&dense).unwrap();
        let oracle = ConstantOracle::new();
        for a in 0..dense.len() {
            for b in a..dense.len() {
                let iv = Interval::new(a, b).unwrap();
                let (piece, sse) = oracle.project(&q, iv).unwrap();
                assert_eq!(piece.interval(), iv);
                assert_eq!(piece.degree(), 0);
                assert!((piece.coefficients()[0] - interval_mean(&dense, iv)).abs() < 1e-12);
                assert!((sse - two_pass_sse(&dense[iv.as_range()])).abs() < 1e-12);
                assert!((oracle.project_error(&q, iv).unwrap() - sse).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn oracle_name_and_default() {
        let oracle = ConstantOracle;
        assert_eq!(oracle.name(), "constant");
    }

    #[test]
    fn projection_error_is_never_negative() {
        // A constant signal has zero flattening error; floating-point cancellation
        // must not produce a tiny negative value.
        let dense = vec![0.3333333333333333; 100];
        let q = SparseFunction::from_dense_keep_zeros(&dense).unwrap();
        let oracle = ConstantOracle::new();
        let iv = Interval::new(0, 99).unwrap();
        let err = oracle.project_error(&q, iv).unwrap();
        assert!(err >= 0.0);
        assert!(err < 1e-9);
    }
}
