//! # hist-poly
//!
//! Piecewise polynomial approximation for the PODS 2015 histogram paper
//! (Section 4 / Theorems 2.3, 4.1, 4.2).
//!
//! The crate provides:
//!
//! * [`GramBasis`] — the discrete Chebyshev (Gram)
//!   orthonormal polynomial basis on an interval, evaluated by a numerically
//!   stable three-term recurrence (the paper's `EvaluateGram`);
//! * [`fit_polynomial`] / [`FitPolyOracle`] — the `FitPoly_d` projection oracle
//!   of Theorem 4.2: the best degree-`d` polynomial fit of a sparse signal on an
//!   interval in `O(d²·s_I)` time;
//! * [`fit_piecewise_polynomial`] — Corollary 4.1: the generalized merging
//!   algorithm instantiated with `FitPoly_d`, producing an `O(k)`-piece
//!   degree-`d` piecewise polynomial whose error is within a constant factor of
//!   the best `k`-piece approximation;
//! * [`least_squares_fit`] — a naive dense least-squares reference used to
//!   validate the Gram projection in tests and ablations.
//!
//! ```
//! use hist_core::{MergingParams, SparseFunction, DiscreteFunction};
//! use hist_poly::fit_piecewise_polynomial;
//!
//! // A smooth quadratic bump.
//! let values: Vec<f64> = (0..200).map(|i| {
//!     let x = (i as f64 - 100.0) / 40.0;
//!     (1.0 - x * x).max(0.0)
//! }).collect();
//! let q = SparseFunction::from_dense_keep_zeros(&values).unwrap();
//! let params = MergingParams::paper_defaults(3).unwrap();
//! let pp = fit_piecewise_polynomial(&q, &params, 2).unwrap();
//! assert!(pp.l2_distance_dense(&values).unwrap() < 0.5);
//! ```

pub mod estimator;
pub mod fitpoly;
pub mod gram;
pub mod lsq;
pub mod piecewise;

pub use estimator::PiecewisePoly;
pub use fitpoly::{fit_polynomial, fit_to_piece, FitPolyOracle, PolynomialFit};
pub use gram::GramBasis;
pub use lsq::least_squares_fit;
pub use piecewise::{fit_piecewise_polynomial, fit_piecewise_polynomial_with_report};
