//! Piecewise polynomial functions (`(k, d)`-piecewise polynomials).
//!
//! A `(k, d)`-piecewise polynomial has `k` interval pieces and agrees with a
//! degree-`d` polynomial on each piece (histograms are the special case
//! `d = 0`).
//!
//! This module also holds `FitPoly_d` (Theorem 4.2), the projection of a
//! sparse signal restricted to an interval onto the degree-`d` polynomials
//! that [`PiecewisePoly`](crate::PiecewisePoly) merges with. The projection is
//! computed in the orthonormal Gram basis of the interval: the coefficient of
//! `φ_r` is `a_r = Σ_i q(i)·φ_r(i − a)` (only nonzero entries of `q`
//! contribute), and by Parseval's identity the squared projection error is
//! `Σ_i q(i)² − Σ_r a_r²`. For an interval containing `s_I` nonzeros the cost
//! is `O(d·s_I)` for the coefficients plus `O(d²)` to convert the fit to local
//! monomial coefficients, matching the `O(d²·s)` bound of Theorem 4.2.

use crate::error::{Error, Result};
use crate::gram::GramBasis;
use crate::interval::Interval;
use crate::sparse::SparseFunction;

/// The degree-`d` polynomial fit of a signal on one interval, expressed in the
/// orthonormal Gram basis of that interval.
pub(crate) struct PolynomialFit {
    pub(crate) interval: Interval,
    /// Coefficients `a_0, …, a_d` in the orthonormal Gram basis.
    pub(crate) gram_coefficients: Vec<f64>,
    /// Squared `ℓ₂` error of the fit on the interval.
    pub(crate) sse: f64,
}

/// Projects `q` restricted to `interval` onto degree-`≤ degree` polynomials.
///
/// The effective degree is capped at `|I| − 1` (a polynomial on `|I|` points
/// needs at most that degree to interpolate exactly). An error whose energies
/// both overflow (`∞ − ∞`) reads `+∞`, the costliest an interval can be.
pub(crate) fn fit_polynomial(
    q: &SparseFunction,
    interval: Interval,
    degree: usize,
) -> PolynomialFit {
    let len = interval.len();
    let effective_degree = degree.min(len - 1);
    let basis = GramBasis::new(len, effective_degree);

    let mut coefficients = vec![0.0; effective_degree + 1];
    let mut signal_energy = 0.0;
    let mut scratch = vec![0.0; effective_degree + 1];
    for &(i, y) in q.entries_in(interval) {
        basis.evaluate_into(i - interval.start(), &mut scratch);
        for (a, phi) in coefficients.iter_mut().zip(&scratch) {
            *a += y * phi;
        }
        signal_energy += y * y;
    }
    let fit_energy: f64 = coefficients.iter().map(|a| a * a).sum();
    let sse = signal_energy - fit_energy;
    let sse = if sse.is_nan() { f64::INFINITY } else { sse.max(0.0) };
    PolynomialFit { interval, gram_coefficients: coefficients, sse }
}

impl PolynomialFit {
    /// The fit as a [`PolynomialPiece`] with local monomial coefficients
    /// (coefficient `j` multiplies `(i − a)^j`).
    pub(crate) fn to_piece(&self) -> Result<PolynomialPiece> {
        let degree = self.gram_coefficients.len() - 1;
        let basis_monomials = GramBasis::new(self.interval.len(), degree).monomial_coefficients();
        let mut coefficients = vec![0.0; degree + 1];
        for (a, mono) in self.gram_coefficients.iter().zip(&basis_monomials) {
            for (j, &c) in mono.iter().enumerate() {
                coefficients[j] += a * c;
            }
        }
        PolynomialPiece::new(self.interval, coefficients)
    }
}

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

    /// Size `n` of the domain `[0, n)`.
    #[inline]
    pub fn domain(&self) -> usize {
        self.domain
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

    /// Materializes the function as a dense vector of length `n`.
    pub(crate) fn to_dense(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.domain];
        for piece in &self.pieces {
            for i in piece.interval.indices() {
                out[i] = piece.evaluate(i);
            }
        }
        out
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{lcg, least_squares_fit};

    fn iv(a: usize, b: usize) -> Interval {
        Interval::new(a, b).unwrap()
    }

    /// A deterministic pseudo-random value in `[lo, hi)`.
    fn uniform(seed: &mut u64, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * lcg(seed)
    }

    /// A deterministic pseudo-random index in `lo..hi`.
    fn index(seed: &mut u64, lo: usize, hi: usize) -> usize {
        lo + (lcg(seed) * (hi - lo) as f64) as usize
    }

    fn sse_of_piece(piece: &PolynomialPiece, values: &[f64], interval: Interval) -> f64 {
        interval
            .indices()
            .map(|i| {
                let d = piece.evaluate(i) - values[i];
                d * d
            })
            .sum()
    }

    #[test]
    fn exact_fit_of_polynomial_signals() {
        // A cubic signal must be fitted exactly at degree 3 (and higher).
        let n = 200;
        let values: Vec<f64> = (0..n)
            .map(|i| {
                let x = i as f64 / 10.0;
                0.5 * x * x * x - 2.0 * x * x + 3.0 * x - 7.0
            })
            .collect();
        let q = SparseFunction::from_dense_keep_zeros(&values).unwrap();
        let interval = iv(0, n - 1);
        for degree in 3..=5usize {
            let fit = fit_polynomial(&q, interval, degree);
            assert!(fit.sse < 1e-6, "degree {degree}: sse {}", fit.sse);
            let piece = fit.to_piece().unwrap();
            assert!(sse_of_piece(&piece, &values, interval) < 1e-5);
        }
        // A degree-2 fit cannot be exact.
        assert!(fit_polynomial(&q, interval, 2).sse > 1.0);
    }

    #[test]
    fn matches_naive_least_squares() {
        let mut seed = 77u64;
        let values: Vec<f64> =
            (0..60).map(|i| (i as f64 / 7.0).sin() * 4.0 + lcg(&mut seed)).collect();
        let q = SparseFunction::from_dense_keep_zeros(&values).unwrap();
        for (a, b) in [(0usize, 59usize), (5, 40), (17, 23), (0, 3)] {
            let interval = iv(a, b);
            for degree in 0..=3usize {
                let fit = fit_polynomial(&q, interval, degree);
                let piece = fit.to_piece().unwrap();
                let (lsq_piece, lsq_sse) = least_squares_fit(&values, interval, degree).unwrap();
                assert!(
                    (fit.sse - lsq_sse).abs() < 1e-6 * (1.0 + lsq_sse),
                    "interval [{a},{b}], degree {degree}: gram sse {} vs lsq sse {lsq_sse}",
                    fit.sse
                );
                for i in interval.indices() {
                    assert!(
                        (piece.evaluate(i) - lsq_piece.evaluate(i)).abs() < 1e-5,
                        "pointwise mismatch at {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn gram_projection_matches_least_squares() {
        // The Gram projection and the dense least-squares reference agree on
        // every random signal, interval and degree.
        let mut seed = 0x61u64;
        for case in 0..48 {
            let n = index(&mut seed, 8, 60);
            let values: Vec<f64> = (0..n).map(|_| uniform(&mut seed, -5.0, 5.0)).collect();
            let degree = index(&mut seed, 0, 4);
            let split = uniform(&mut seed, 0.1, 0.9);
            let a = (split * (n as f64 / 2.0)) as usize;
            let b = n - 1 - (0.3 * split * n as f64) as usize;
            if b <= a {
                continue;
            }
            let interval = iv(a, b);
            let q = SparseFunction::from_dense_keep_zeros(&values).unwrap();
            let fit = fit_polynomial(&q, interval, degree);
            let (_, lsq_sse) = least_squares_fit(&values, interval, degree).unwrap();
            assert!(
                (fit.sse - lsq_sse).abs() <= 1e-6 * (1.0 + lsq_sse),
                "case {case}: gram {} vs least squares {lsq_sse}",
                fit.sse
            );
        }
    }

    #[test]
    fn projection_error_is_monotone_in_degree() {
        // Projection error never increases with the degree (nested classes).
        let mut seed = 0x62u64;
        for _ in 0..48 {
            let n = index(&mut seed, 10, 50);
            let values: Vec<f64> = (0..n).map(|_| uniform(&mut seed, 0.0, 3.0)).collect();
            let q = SparseFunction::from_dense_keep_zeros(&values).unwrap();
            let mut previous = f64::INFINITY;
            for degree in 0..5usize {
                let fit = fit_polynomial(&q, iv(0, n - 1), degree);
                assert!(fit.sse <= previous + 1e-9);
                previous = fit.sse;
            }
        }
    }

    #[test]
    fn reported_error_matches_the_materialized_piece() {
        // The materialized piece evaluates to the error the projection reports.
        let mut seed = 0x63u64;
        for case in 0..48 {
            let n = index(&mut seed, 6, 40);
            let values: Vec<f64> = (0..n).map(|_| uniform(&mut seed, -2.0, 2.0)).collect();
            let degree = index(&mut seed, 0, 3);
            let q = SparseFunction::from_dense_keep_zeros(&values).unwrap();
            let interval = iv(0, n - 1);
            let fit = fit_polynomial(&q, interval, degree);
            let direct = sse_of_piece(&fit.to_piece().unwrap(), &values, interval);
            assert!((fit.sse - direct).abs() <= 1e-5 * (1.0 + direct), "case {case}");
        }
    }

    #[test]
    fn degree_zero_reduces_to_flattening() {
        let values = vec![0.0, 1.0, 5.0, 2.0, 0.0, 0.0, 3.0];
        let q = SparseFunction::from_dense(&values).unwrap();
        let fit = fit_polynomial(&q, iv(1, 5), 0);
        let mean = (1.0 + 5.0 + 2.0) / 5.0;
        assert!((fit.to_piece().unwrap().evaluate(3) - mean).abs() < 1e-12);
        let expected_sse: f64 =
            [1.0, 5.0, 2.0, 0.0, 0.0].iter().map(|v| (v - mean) * (v - mean)).sum();
        assert!((fit.sse - expected_sse).abs() < 1e-12);
    }

    #[test]
    fn sparse_entries_only_contribute_where_present() {
        // On an interval with a single nonzero, the implicit zeros pull the
        // best line towards zero everywhere else.
        let q = SparseFunction::new(100, vec![(50, 4.0)]).unwrap();
        let interval = iv(40, 60);
        let fit = fit_polynomial(&q, interval, 1);
        let direct = sse_of_piece(&fit.to_piece().unwrap(), &q.to_dense(), interval);
        assert!((fit.sse - direct).abs() < 1e-9);
    }

    #[test]
    fn degree_is_capped_by_interval_length() {
        // Only 2 points: an exact (degree ≤ 1) interpolation is possible.
        let q = SparseFunction::new(10, vec![(2, 1.0), (3, 5.0)]).unwrap();
        let fit = fit_polynomial(&q, iv(2, 3), 7);
        assert_eq!(fit.gram_coefficients.len(), 2);
        assert!(fit.sse < 1e-12);
    }

    #[test]
    fn projection_error_never_negative() {
        let q = SparseFunction::from_dense_keep_zeros(&[0.25; 64]).unwrap();
        let fit = fit_polynomial(&q, iv(0, 63), 4);
        assert!(fit.sse >= 0.0);
        assert!(fit.sse < 1e-10);
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
        let p = PolynomialPiece::new(iv(0, 4), vec![2.5]).unwrap();
        assert_eq!(p.degree(), 0);
        assert_eq!(p.evaluate(2), 2.5);
    }

    #[test]
    fn piecewise_construction_validation() {
        let good = PiecewisePolynomial::new(
            6,
            vec![
                PolynomialPiece::new(iv(0, 2), vec![1.0]).unwrap(),
                PolynomialPiece::new(iv(3, 5), vec![2.0]).unwrap(),
            ],
        );
        assert!(good.is_ok());

        let gap = PiecewisePolynomial::new(
            6,
            vec![
                PolynomialPiece::new(iv(0, 2), vec![1.0]).unwrap(),
                PolynomialPiece::new(iv(4, 5), vec![2.0]).unwrap(),
            ],
        );
        assert!(gap.is_err());

        let short =
            PiecewisePolynomial::new(6, vec![PolynomialPiece::new(iv(0, 2), vec![1.0]).unwrap()]);
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
