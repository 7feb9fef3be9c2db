//! Discrete Chebyshev (Gram) orthonormal polynomials on `{0, 1, …, N−1}`.
//!
//! The paper's `EvaluateGram` routine (Appendix A) evaluates the orthonormal
//! basis of degree-`≤ d` polynomials with respect to the discrete inner product
//! `⟨f, g⟩ = Σ_{x=0}^{N−1} f(x)·g(x)`. We implement the same basis through the
//! classical three-term recurrence of the discrete Chebyshev polynomials
//! `t_r(x, N)` (Abramowitz–Stegun §22.17):
//!
//! ```text
//! t_0(x) = 1,     t_1(x) = 2x − N + 1,
//! (r+1)·t_{r+1}(x) = (2r+1)·(2x − N + 1)·t_r(x) − r·(N² − r²)·t_{r−1}(x),
//! Σ_{x=0}^{N−1} t_r(x)² = W_r = N·(N²−1²)(N²−2²)⋯(N²−r²) / (2r+1).
//! ```
//!
//! The orthonormal basis is `φ_r = t_r / √W_r`. Evaluating `φ_0, …, φ_d` at one
//! point costs `O(d)` after an `O(d)` precomputation of the norms, so the
//! projection of an `s`-sparse signal costs `O(d·s)` inner-product work —
//! matching (and slightly improving on) the `O(d²·s)` bound of Theorem 4.2.

/// The orthonormal Gram polynomial basis of degree `≤ degree` on the point set
/// `{0, 1, …, len − 1}`.
pub(crate) struct GramBasis {
    len: usize,
    degree: usize,
    /// `inv_norms[r] = 1 / √W_r`.
    inv_norms: Vec<f64>,
}

impl GramBasis {
    /// The basis for an interval of `len` points and maximal degree `degree`.
    /// Requires `degree < len` (a degree-`d` polynomial on fewer than `d + 1`
    /// points is not identifiable).
    pub(crate) fn new(len: usize, degree: usize) -> Self {
        debug_assert!(degree < len, "degree {degree} needs more than {len} points");
        let n = len as f64;
        let mut inv_norms = Vec::with_capacity(degree + 1);
        // W_0 = N; W_r = W_{r-1} · (N² − r²) · (2r − 1) / (2r + 1).
        let mut w = n;
        inv_norms.push(1.0 / w.sqrt());
        for r in 1..=degree {
            let rf = r as f64;
            w *= (n * n - rf * rf) * (2.0 * rf - 1.0) / (2.0 * rf + 1.0);
            inv_norms.push(1.0 / w.sqrt());
        }
        Self { len, degree, inv_norms }
    }

    /// Evaluates the orthonormal basis `φ_0(x), …, φ_d(x)` at the local
    /// coordinate `x ∈ {0, …, len − 1}` into `out` (which must have length
    /// `degree + 1`). Runs in `O(d)` time.
    pub(crate) fn evaluate_into(&self, x: usize, out: &mut [f64]) {
        debug_assert!(x < self.len);
        debug_assert_eq!(out.len(), self.degree + 1);
        let n = self.len as f64;
        let z = 2.0 * x as f64 - n + 1.0;
        let mut prev = 1.0; // t_0(x)
        out[0] = prev * self.inv_norms[0];
        if self.degree == 0 {
            return;
        }
        let mut curr = z; // t_1(x)
        out[1] = curr * self.inv_norms[1];
        for r in 1..self.degree {
            let rf = r as f64;
            let next = ((2.0 * rf + 1.0) * z * curr - rf * (n * n - rf * rf) * prev) / (rf + 1.0);
            prev = curr;
            curr = next;
            out[r + 1] = curr * self.inv_norms[r + 1];
        }
    }

    /// Local monomial coefficients of each basis polynomial: `coeffs[r][j]` is
    /// the coefficient of `x^j` in `φ_r(x)`. Runs in `O(d²)` time; used to
    /// convert a Gram-coefficient fit into a
    /// [`PolynomialPiece`](crate::PolynomialPiece).
    pub(crate) fn monomial_coefficients(&self) -> Vec<Vec<f64>> {
        let n = self.len as f64;
        let d = self.degree;
        // Raw (unnormalized) t_r coefficients via the same recurrence.
        let mut raw: Vec<Vec<f64>> = Vec::with_capacity(d + 1);
        raw.push(vec![1.0]);
        if d >= 1 {
            raw.push(vec![1.0 - n, 2.0]);
        }
        for r in 1..d {
            let rf = r as f64;
            let prev = &raw[r - 1];
            let curr = &raw[r];
            let mut next = vec![0.0; r + 2];
            // (2r+1)·(2x − N + 1)·t_r(x)
            for (j, &c) in curr.iter().enumerate() {
                next[j + 1] += (2.0 * rf + 1.0) * 2.0 * c;
                next[j] += (2.0 * rf + 1.0) * (1.0 - n) * c;
            }
            // − r·(N² − r²)·t_{r−1}(x)
            for (j, &c) in prev.iter().enumerate() {
                next[j] -= rf * (n * n - rf * rf) * c;
            }
            for c in &mut next {
                *c /= rf + 1.0;
            }
            raw.push(next);
        }
        raw.iter()
            .zip(&self.inv_norms)
            .map(|(coeffs, &inv)| coeffs.iter().map(|c| c * inv).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `φ_0(x), …, φ_d(x)` in a fresh vector.
    fn evaluate(basis: &GramBasis, x: usize) -> Vec<f64> {
        let mut out = vec![0.0; basis.degree + 1];
        basis.evaluate_into(x, &mut out);
        out
    }

    fn inner(basis: &GramBasis, r: usize, t: usize) -> f64 {
        (0..basis.len)
            .map(|x| {
                let v = evaluate(basis, x);
                v[r] * v[t]
            })
            .sum()
    }

    #[test]
    fn basis_is_orthonormal() {
        for &len in &[1usize, 2, 5, 17, 64, 257] {
            let degree = 6.min(len - 1);
            let basis = GramBasis::new(len, degree);
            for r in 0..=degree {
                for t in 0..=degree {
                    let ip = inner(&basis, r, t);
                    let expected = if r == t { 1.0 } else { 0.0 };
                    assert!(
                        (ip - expected).abs() < 1e-7,
                        "len {len}: ⟨φ_{r}, φ_{t}⟩ = {ip}, expected {expected}"
                    );
                }
            }
        }
    }

    #[test]
    fn degree_zero_is_the_normalized_constant() {
        let basis = GramBasis::new(10, 0);
        for x in 0..10 {
            assert!((evaluate(&basis, x)[0] - 0.1f64.sqrt()).abs() < 1e-12);
        }
    }

    #[test]
    fn degree_one_is_a_centered_line() {
        let basis = GramBasis::new(9, 1);
        // φ_1 is odd around the midpoint x = 4.
        let v_lo = evaluate(&basis, 0)[1];
        let v_hi = evaluate(&basis, 8)[1];
        assert!((v_lo + v_hi).abs() < 1e-12);
        assert!((evaluate(&basis, 4)[1]).abs() < 1e-12);
    }

    #[test]
    fn monomial_coefficients_match_pointwise_evaluation() {
        for &len in &[4usize, 9, 33] {
            let degree = 3.min(len - 1);
            let basis = GramBasis::new(len, degree);
            let coeffs = basis.monomial_coefficients();
            assert_eq!(coeffs.len(), degree + 1);
            for x in 0..len {
                let direct = evaluate(&basis, x);
                for r in 0..=degree {
                    let horner = coeffs[r].iter().rev().fold(0.0, |acc, &c| acc * x as f64 + c);
                    assert!(
                        (horner - direct[r]).abs() < 1e-7 * (1.0 + direct[r].abs()),
                        "len {len}, r {r}, x {x}: {horner} vs {direct:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn large_interval_stays_finite_and_orthonormal_on_low_degrees() {
        let basis = GramBasis::new(16_384, 5);
        for x in [0usize, 1, 8_191, 16_383] {
            for v in evaluate(&basis, x) {
                assert!(v.is_finite());
            }
        }
        // Spot-check orthonormality of the two leading basis functions.
        let mut ip00 = 0.0;
        let mut ip01 = 0.0;
        let mut ip11 = 0.0;
        for x in 0..16_384 {
            let v = evaluate(&basis, x);
            ip00 += v[0] * v[0];
            ip01 += v[0] * v[1];
            ip11 += v[1] * v[1];
        }
        assert!((ip00 - 1.0).abs() < 1e-8);
        assert!(ip01.abs() < 1e-8);
        assert!((ip11 - 1.0).abs() < 1e-8);
    }
}
