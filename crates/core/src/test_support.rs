//! Helpers shared by the merging algorithms' unit tests.

use crate::error::{Error, Result};
use crate::interval::Interval;
use crate::piecewise_poly::PolynomialPiece;
use crate::prefix::DensePrefix;

/// Brute-force optimal k-histogram error via dynamic programming, used only
/// on tiny inputs to validate the approximation guarantees.
#[allow(clippy::needless_range_loop)]
pub(crate) fn opt_k_sse(values: &[f64], k: usize) -> f64 {
    let n = values.len();
    let prefix = DensePrefix::new(values).unwrap();
    let inf = f64::INFINITY;
    // dp[j][i]: best SSE of covering the first i points with j pieces.
    let mut prev = vec![inf; n + 1];
    prev[0] = 0.0;
    let mut curr = vec![inf; n + 1];
    for _j in 1..=k {
        curr.iter_mut().for_each(|v| *v = inf);
        curr[0] = 0.0;
        for i in 1..=n {
            let mut best = inf;
            for b in 0..i {
                if prev[b] == inf {
                    continue;
                }
                let cost = prev[b] + prefix.sse_range(b, i);
                if cost < best {
                    best = cost;
                }
            }
            curr[i] = best;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[n]
}

/// Squared error of the best constant fit of `values`, in two passes (the
/// mean, then the squared deviations): the reference the one-pass
/// `Σq² − (Σq)²/n` formula is checked against.
pub(crate) fn two_pass_sse(values: &[f64]) -> f64 {
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    values.iter().map(|v| (v - mean) * (v - mean)).sum()
}

/// A deterministic pseudo-random value in `[0, 1)` (no external RNG needed).
pub(crate) fn lcg(seed: &mut u64) -> f64 {
    *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    ((*seed >> 11) as f64) / (1u64 << 53) as f64
}

/// Fits a degree-`≤ degree` polynomial to the dense signal on `interval` by
/// solving the normal equations `(VᵀV)·c = Vᵀy` for the Vandermonde matrix
/// `V` of local monomials with Gaussian elimination. Returns the fitted piece
/// (local monomial coefficients) and its squared `ℓ₂` error on the interval.
///
/// This is the reference the Gram projection is checked against:
/// `O(|I|·d² + d³)` per interval and numerically inferior to the
/// orthogonal-basis projection, but straightforward to audit.
pub(crate) fn least_squares_fit(
    values: &[f64],
    interval: Interval,
    degree: usize,
) -> Result<(PolynomialPiece, f64)> {
    if interval.end() >= values.len() {
        return Err(Error::IndexOutOfRange { index: interval.end(), domain: values.len() });
    }
    let len = interval.len();
    let d = degree.min(len - 1);
    let dim = d + 1;

    // Normal equations A·c = b with A = VᵀV, b = Vᵀy.
    let mut a = vec![vec![0.0f64; dim]; dim];
    let mut b = vec![0.0f64; dim];
    for (offset, i) in interval.indices().enumerate() {
        let x = offset as f64;
        let mut powers = vec![1.0; dim];
        for j in 1..dim {
            powers[j] = powers[j - 1] * x;
        }
        let y = values[i];
        for r in 0..dim {
            b[r] += powers[r] * y;
            for c in 0..dim {
                a[r][c] += powers[r] * powers[c];
            }
        }
    }

    let coefficients = solve_gaussian(&mut a, &mut b)?;
    let piece = PolynomialPiece::new(interval, coefficients)?;
    let sse = interval
        .indices()
        .map(|i| {
            let diff = piece.evaluate(i) - values[i];
            diff * diff
        })
        .sum();
    Ok((piece, sse))
}

/// Solves `A·x = b` in place by Gaussian elimination with partial pivoting.
#[allow(clippy::needless_range_loop)]
fn solve_gaussian(a: &mut [Vec<f64>], b: &mut [f64]) -> Result<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // Pivot.
        let pivot_row = (col..n)
            .max_by(|&r1, &r2| {
                a[r1][col]
                    .abs()
                    .partial_cmp(&a[r2][col].abs())
                    .expect("normal-equation entries are finite")
            })
            .expect("non-empty system");
        if a[pivot_row][col].abs() < 1e-12 {
            return Err(Error::InvalidParameter {
                name: "values",
                reason: "singular normal equations (degenerate interval)".into(),
            });
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);
        // Eliminate below.
        for row in (col + 1)..n {
            let factor = a[row][col] / a[col][col];
            for c in col..n {
                a[row][c] -= factor * a[col][c];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for col in (row + 1)..n {
            acc -= a[row][col] * x[col];
        }
        x[row] = acc / a[row][row];
    }
    Ok(x)
}

mod tests {
    use super::*;

    #[test]
    fn fits_exact_polynomials() {
        let values: Vec<f64> =
            (0..40).map(|i| 3.0 - 0.5 * i as f64 + 0.25 * (i * i) as f64).collect();
        let interval = Interval::new(0, 39).unwrap();
        let (piece, sse) = least_squares_fit(&values, interval, 2).unwrap();
        assert!(sse < 1e-10);
        assert!((piece.coefficients()[2] - 0.25).abs() < 1e-8);
        assert!((piece.coefficients()[1] + 0.5).abs() < 1e-6);
        assert!((piece.coefficients()[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn degree_zero_is_the_mean() {
        let values = vec![2.0, 4.0, 6.0, 8.0];
        let interval = Interval::new(0, 3).unwrap();
        let (piece, sse) = least_squares_fit(&values, interval, 0).unwrap();
        assert!((piece.evaluate(1) - 5.0).abs() < 1e-12);
        assert!((sse - 20.0).abs() < 1e-10);
    }

    #[test]
    fn interval_must_lie_inside_the_signal() {
        let values = vec![1.0, 2.0];
        assert!(least_squares_fit(&values, Interval::new(0, 2).unwrap(), 1).is_err());
    }

    #[test]
    fn sub_interval_offsets_are_local() {
        // A line in global coordinates remains a line in local coordinates.
        let values: Vec<f64> = (0..30).map(|i| 10.0 + 2.0 * i as f64).collect();
        let interval = Interval::new(10, 20).unwrap();
        let (piece, sse) = least_squares_fit(&values, interval, 1).unwrap();
        assert!(sse < 1e-10);
        // Local intercept is the value at the interval start.
        assert!((piece.coefficients()[0] - 30.0).abs() < 1e-8);
        assert!((piece.coefficients()[1] - 2.0).abs() < 1e-8);
    }
}
