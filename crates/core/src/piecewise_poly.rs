//! Piecewise polynomial functions (`(k, d)`-piecewise polynomials).
//!
//! A `(k, d)`-piecewise polynomial has `k` interval pieces and agrees with a
//! degree-`d` polynomial on each piece (histograms are the special case
//! `d = 0`). The fitting algorithm lives in the `hist-poly` crate; this module
//! only provides the container type so it can be shared across crates.

use crate::error::{Error, Result};
use crate::function::DiscreteFunction;
use crate::interval::Interval;
use crate::sparse::SparseFunction;

/// One polynomial piece: an interval together with monomial coefficients in the
/// *local* coordinate `x = i − interval.start()`.
///
/// `coefficients[r]` is the coefficient of `x^r`; the degree is
/// `coefficients.len() − 1` (an empty coefficient list denotes the zero
/// polynomial).
#[derive(Debug, Clone, PartialEq)]
pub struct PolynomialPiece {
    interval: Interval,
    coefficients: Vec<f64>,
}

impl PolynomialPiece {
    /// Creates a piece from an interval and local monomial coefficients.
    pub fn new(interval: Interval, coefficients: Vec<f64>) -> Result<Self> {
        if coefficients.iter().any(|c| !c.is_finite()) {
            return Err(Error::NonFiniteValue { context: "PolynomialPiece::new" });
        }
        Ok(Self { interval, coefficients })
    }

    /// A constant piece (degree 0).
    pub(crate) fn constant(interval: Interval, value: f64) -> Result<Self> {
        Self::new(interval, vec![value])
    }

    /// The interval this piece covers.
    #[inline]
    pub fn interval(&self) -> Interval {
        self.interval
    }

    /// Local monomial coefficients (`coefficients[r]` multiplies `x^r`).
    #[inline]
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Degree of this piece (0 for an empty or constant coefficient list).
    #[inline]
    pub(crate) fn degree(&self) -> usize {
        self.coefficients.len().saturating_sub(1)
    }

    /// Evaluates the piece at domain index `i` (must lie inside the interval).
    pub fn evaluate(&self, i: usize) -> f64 {
        debug_assert!(self.interval.contains(i));
        let x = (i - self.interval.start()) as f64;
        // Horner evaluation.
        self.coefficients.iter().rev().fold(0.0, |acc, &c| acc * x + c)
    }
}

/// A piecewise polynomial function over `[0, n)`.
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewisePolynomial {
    domain: usize,
    pieces: Vec<PolynomialPiece>,
}

impl PiecewisePolynomial {
    /// Builds a piecewise polynomial from contiguous pieces covering `[0, domain)`.
    pub fn new(domain: usize, pieces: Vec<PolynomialPiece>) -> Result<Self> {
        if domain == 0 {
            return Err(Error::EmptyDomain);
        }
        if pieces.is_empty() {
            return Err(Error::InvalidPartition { reason: "no pieces supplied".into() });
        }
        let mut expected = 0usize;
        for (idx, piece) in pieces.iter().enumerate() {
            if piece.interval.start() != expected {
                return Err(Error::InvalidPartition {
                    reason: format!(
                        "piece #{idx} starts at {} but {} was expected",
                        piece.interval.start(),
                        expected
                    ),
                });
            }
            expected = piece.interval.end() + 1;
        }
        if expected != domain {
            return Err(Error::InvalidPartition {
                reason: format!("pieces cover [0, {expected}) but the domain is [0, {domain})"),
            });
        }
        Ok(Self { domain, pieces })
    }

    /// The pieces in domain order.
    #[inline]
    pub fn pieces(&self) -> &[PolynomialPiece] {
        &self.pieces
    }

    /// Number of pieces `k`.
    #[inline]
    pub fn num_pieces(&self) -> usize {
        self.pieces.len()
    }

    /// Maximum degree over all pieces.
    pub fn degree(&self) -> usize {
        self.pieces.iter().map(PolynomialPiece::degree).max().unwrap_or(0)
    }

    /// Number of real parameters `Σ_j (d_j + 1)` needed to describe the function
    /// — the space measure `k(d + 1)` used in the paper.
    pub fn parameter_count(&self) -> usize {
        self.pieces.iter().map(|p| p.coefficients.len().max(1)).sum()
    }

    /// Exact squared `ℓ₂` distance to a dense signal (`O(n·d)` time).
    pub fn l2_distance_squared_dense(&self, values: &[f64]) -> Result<f64> {
        if values.len() != self.domain {
            return Err(Error::InvalidParameter {
                name: "values",
                reason: format!("expected length {}, got {}", self.domain, values.len()),
            });
        }
        let mut total = 0.0;
        for piece in &self.pieces {
            for i in piece.interval.indices() {
                let d = piece.evaluate(i) - values[i];
                total += d * d;
            }
        }
        Ok(total)
    }

    /// Exact squared `ℓ₂` distance to a sparse signal (`O(n·d)` time; the
    /// polynomial is nonzero even where the signal is zero, so the full domain
    /// must be visited).
    pub fn l2_distance_squared_sparse(&self, q: &SparseFunction) -> Result<f64> {
        if q.domain() != self.domain {
            return Err(Error::InvalidParameter { name: "q", reason: "domain mismatch".into() });
        }
        self.l2_distance_squared_dense(&q.to_dense())
    }

    /// `ℓ₂` distance (not squared) to a dense signal.
    pub fn l2_distance_dense(&self, values: &[f64]) -> Result<f64> {
        Ok(self.l2_distance_squared_dense(values)?.sqrt())
    }
}

impl DiscreteFunction for PiecewisePolynomial {
    #[inline]
    fn domain(&self) -> usize {
        self.domain
    }

    fn value(&self, i: usize) -> f64 {
        let pos = self.pieces.partition_point(|p| p.interval.end() < i);
        self.pieces[pos].evaluate(i)
    }

    fn to_dense(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.domain];
        for piece in &self.pieces {
            for i in piece.interval.indices() {
                out[i] = piece.evaluate(i);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(a: usize, b: usize) -> Interval {
        Interval::new(a, b).unwrap()
    }

    #[test]
    fn piece_evaluation_uses_local_coordinates() {
        // p(x) = 1 + 2x + x^2 in local coordinates on [3, 6].
        let p = PolynomialPiece::new(iv(3, 6), vec![1.0, 2.0, 1.0]).unwrap();
        assert_eq!(p.degree(), 2);
        assert_eq!(p.evaluate(3), 1.0);
        assert_eq!(p.evaluate(4), 4.0);
        assert_eq!(p.evaluate(5), 9.0);
    }

    #[test]
    fn constant_piece() {
        let p = PolynomialPiece::constant(iv(0, 4), 2.5).unwrap();
        assert_eq!(p.degree(), 0);
        assert_eq!(p.evaluate(2), 2.5);
    }

    #[test]
    fn piecewise_construction_validation() {
        let good = PiecewisePolynomial::new(
            6,
            vec![
                PolynomialPiece::constant(iv(0, 2), 1.0).unwrap(),
                PolynomialPiece::constant(iv(3, 5), 2.0).unwrap(),
            ],
        );
        assert!(good.is_ok());

        let gap = PiecewisePolynomial::new(
            6,
            vec![
                PolynomialPiece::constant(iv(0, 2), 1.0).unwrap(),
                PolynomialPiece::constant(iv(4, 5), 2.0).unwrap(),
            ],
        );
        assert!(gap.is_err());

        let short =
            PiecewisePolynomial::new(6, vec![PolynomialPiece::constant(iv(0, 2), 1.0).unwrap()]);
        assert!(short.is_err());
        assert!(PiecewisePolynomial::new(0, vec![]).is_err());
    }

    #[test]
    fn evaluation_and_dense_conversion() {
        let f = PiecewisePolynomial::new(
            5,
            vec![
                PolynomialPiece::new(iv(0, 1), vec![1.0, 1.0]).unwrap(), // 1 + x
                PolynomialPiece::new(iv(2, 4), vec![0.0, 2.0]).unwrap(), // 2x (local)
            ],
        )
        .unwrap();
        assert_eq!(f.value(0), 1.0);
        assert_eq!(f.value(1), 2.0);
        assert_eq!(f.value(2), 0.0);
        assert_eq!(f.value(4), 4.0);
        assert_eq!(f.to_dense(), vec![1.0, 2.0, 0.0, 2.0, 4.0]);
        assert_eq!(f.degree(), 1);
        assert_eq!(f.parameter_count(), 4);
    }

    #[test]
    fn distances_match_naive() {
        let f = PiecewisePolynomial::new(
            4,
            vec![
                PolynomialPiece::new(iv(0, 1), vec![1.0]).unwrap(),
                PolynomialPiece::new(iv(2, 3), vec![0.0, 1.0]).unwrap(),
            ],
        )
        .unwrap();
        let q = vec![0.5, 1.5, 0.0, 2.0];
        let naive: f64 = f.to_dense().iter().zip(&q).map(|(a, b)| (a - b) * (a - b)).sum();
        assert!((f.l2_distance_squared_dense(&q).unwrap() - naive).abs() < 1e-12);
        let sparse = SparseFunction::from_dense(&q).unwrap();
        assert!((f.l2_distance_squared_sparse(&sparse).unwrap() - naive).abs() < 1e-12);
        assert!(f.l2_distance_squared_dense(&[0.0; 3]).is_err());
    }
}
