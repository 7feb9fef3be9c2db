//! Probability distributions over the discrete domain `[n] = {0, …, n−1}`.
//!
//! The learning problem of the paper receives i.i.d. samples from an arbitrary
//! distribution `p ∈ D_n`. [`Distribution`] is a validated probability mass
//! function; sampling utilities live in the `hist-sampling` crate.

use crate::error::{Error, Result};
use crate::histogram::Histogram;

/// Tolerance used when validating that a pmf sums to one.
pub(crate) const MASS_TOLERANCE: f64 = 1e-9;

/// A probability distribution over `[0, n)`, stored densely.
#[derive(Debug, Clone, PartialEq)]
pub struct Distribution {
    pmf: Vec<f64>,
}

impl Distribution {
    /// Validates and wraps a probability mass function.
    ///
    /// All entries must be finite and non-negative and the total mass must be
    /// within `1e-9` of 1.
    pub fn new(pmf: Vec<f64>) -> Result<Self> {
        if pmf.is_empty() {
            return Err(Error::EmptyDomain);
        }
        let mut total = 0.0;
        for &v in &pmf {
            if !v.is_finite() {
                return Err(Error::NonFiniteValue { context: "Distribution::new" });
            }
            if v < 0.0 {
                return Err(Error::InvalidDistribution {
                    reason: format!("negative probability {v}"),
                });
            }
            total += v;
        }
        if (total - 1.0).abs() > MASS_TOLERANCE {
            return Err(Error::InvalidDistribution {
                reason: format!("total mass {total} differs from 1 by more than {MASS_TOLERANCE}"),
            });
        }
        Ok(Self { pmf })
    }

    /// Builds a distribution from arbitrary non-negative weights by normalizing.
    pub fn from_weights(weights: &[f64]) -> Result<Self> {
        if weights.is_empty() {
            return Err(Error::EmptyDomain);
        }
        let mut total = 0.0;
        for &w in weights {
            if !w.is_finite() {
                return Err(Error::NonFiniteValue { context: "Distribution::from_weights" });
            }
            if w < 0.0 {
                return Err(Error::InvalidDistribution { reason: format!("negative weight {w}") });
            }
            total += w;
        }
        if total <= 0.0 {
            return Err(Error::InvalidDistribution { reason: "weights sum to zero".into() });
        }
        Ok(Self { pmf: weights.iter().map(|w| w / total).collect() })
    }

    /// The uniform distribution over `[0, n)`.
    pub fn uniform(n: usize) -> Result<Self> {
        if n == 0 {
            return Err(Error::EmptyDomain);
        }
        Ok(Self { pmf: vec![1.0 / n as f64; n] })
    }

    /// A point mass at index `i` over a domain of size `n`.
    pub fn point_mass(n: usize, i: usize) -> Result<Self> {
        if n == 0 {
            return Err(Error::EmptyDomain);
        }
        if i >= n {
            return Err(Error::IndexOutOfRange { index: i, domain: n });
        }
        let mut pmf = vec![0.0; n];
        pmf[i] = 1.0;
        Ok(Self { pmf })
    }

    /// Builds the `k`-histogram distribution induced by a histogram
    /// (clamping negatives and normalizing).
    pub fn from_histogram(h: &Histogram) -> Result<Self> {
        Self::new(h.normalized()?.to_dense())
    }

    /// The probability mass function.
    #[inline]
    pub fn pmf(&self) -> &[f64] {
        &self.pmf
    }

    /// Probability of index `i`.
    #[inline]
    pub fn prob(&self, i: usize) -> f64 {
        self.pmf[i]
    }

    /// Cumulative distribution function as a vector of length `n` where
    /// `cdf[i] = Σ_{j ≤ i} p(j)`; the last entry is (numerically) 1.
    pub fn cdf(&self) -> Vec<f64> {
        let mut acc = 0.0;
        self.pmf
            .iter()
            .map(|&v| {
                acc += v;
                acc
            })
            .collect()
    }

    /// Squared `ℓ₂` distance to another distribution over the same domain.
    pub(crate) fn l2_distance_squared(&self, other: &Distribution) -> Result<f64> {
        if self.pmf.len() != other.pmf.len() {
            return Err(Error::InvalidParameter {
                name: "other",
                reason: "domain sizes differ".into(),
            });
        }
        Ok(self.pmf.iter().zip(&other.pmf).map(|(a, b)| (a - b) * (a - b)).sum())
    }

    /// `ℓ₂` distance to another distribution.
    pub fn l2_distance(&self, other: &Distribution) -> Result<f64> {
        Ok(self.l2_distance_squared(other)?.sqrt())
    }

    /// Total-variation distance `½ Σ_i |p(i) − q(i)|`.
    pub fn tv_distance(&self, other: &Distribution) -> Result<f64> {
        if self.pmf.len() != other.pmf.len() {
            return Err(Error::InvalidParameter {
                name: "other",
                reason: "domain sizes differ".into(),
            });
        }
        Ok(0.5 * self.pmf.iter().zip(&other.pmf).map(|(a, b)| (a - b).abs()).sum::<f64>())
    }

    /// Hellinger distance `h(p, q) = √(½ Σ_i (√p(i) − √q(i))²)`, used in the
    /// sample-complexity lower bound (Theorem 3.2).
    pub fn hellinger_distance(&self, other: &Distribution) -> Result<f64> {
        if self.pmf.len() != other.pmf.len() {
            return Err(Error::InvalidParameter {
                name: "other",
                reason: "domain sizes differ".into(),
            });
        }
        let sq: f64 = self
            .pmf
            .iter()
            .zip(&other.pmf)
            .map(|(a, b)| {
                let d = a.sqrt() - b.sqrt();
                d * d
            })
            .sum();
        Ok((0.5 * sq).sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(Distribution::new(vec![]).is_err());
        assert!(Distribution::new(vec![0.5, 0.6]).is_err());
        assert!(Distribution::new(vec![-0.1, 1.1]).is_err());
        assert!(Distribution::new(vec![f64::NAN, 1.0]).is_err());
        assert!(Distribution::new(vec![0.25, 0.75]).is_ok());
    }

    #[test]
    fn from_weights_normalizes() {
        let d = Distribution::from_weights(&[2.0, 2.0, 4.0]).unwrap();
        assert_eq!(d.pmf(), &[0.25, 0.25, 0.5]);
        assert!(Distribution::from_weights(&[0.0, 0.0]).is_err());
        assert!(Distribution::from_weights(&[-1.0, 2.0]).is_err());
    }

    #[test]
    fn uniform_and_point_mass() {
        let u = Distribution::uniform(4).unwrap();
        assert_eq!(u.prob(2), 0.25);
        let p = Distribution::point_mass(5, 3).unwrap();
        assert_eq!(p.prob(3), 1.0);
        assert_eq!(p.prob(0), 0.0);
        assert!(Distribution::point_mass(5, 5).is_err());
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let d = Distribution::new(vec![0.1, 0.2, 0.3, 0.4]).unwrap();
        let cdf = d.cdf();
        assert!(cdf.windows(2).all(|w| w[0] <= w[1] + 1e-15));
        assert!((cdf.last().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn distances() {
        let p = Distribution::new(vec![0.5, 0.5, 0.0]).unwrap();
        let q = Distribution::new(vec![0.25, 0.25, 0.5]).unwrap();
        assert!((p.l2_distance_squared(&q).unwrap() - (0.0625 + 0.0625 + 0.25)).abs() < 1e-12);
        assert!((p.tv_distance(&q).unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(p.l2_distance(&p).unwrap(), 0.0);
        assert_eq!(p.hellinger_distance(&p).unwrap(), 0.0);
        assert!(p.hellinger_distance(&q).unwrap() > 0.0);
    }

    #[test]
    fn theorem_3_2_hellinger_bound() {
        // The two-point construction of Theorem 3.2:
        // h²(p1, p2) = 1 − √(1 − 4ε²) = 4ε² / (1 + √(1 − 4ε²)) = Θ(ε²).
        let eps = 0.05;
        let n = 10;
        let mut p1 = vec![0.0; n];
        let mut p2 = vec![0.0; n];
        p1[0] = 0.5 + eps;
        p1[1] = 0.5 - eps;
        p2[0] = 0.5 - eps;
        p2[1] = 0.5 + eps;
        let p1 = Distribution::new(p1).unwrap();
        let p2 = Distribution::new(p2).unwrap();
        let h2 = p1.hellinger_distance(&p2).unwrap().powi(2);
        let exact = 1.0 - (1.0 - 4.0 * eps * eps).sqrt();
        assert!((h2 - exact).abs() < 1e-12);
        assert!(h2 >= 2.0 * eps * eps - 1e-12);
        assert!(h2 <= 4.0 * eps * eps + 1e-12);
        // ‖p1 − p2‖₂ = 2√2·ε as stated in the paper's proof.
        let l2 = p1.l2_distance(&p2).unwrap();
        assert!((l2 - (8.0f64).sqrt() * eps).abs() < 1e-12);
    }

    #[test]
    fn from_histogram() {
        let h = Histogram::from_breakpoints(4, &[2], vec![0.3, 0.2]).unwrap();
        let d = Distribution::from_histogram(&h).unwrap();
        assert!((d.pmf().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((d.prob(0) - 0.3).abs() < 1e-12);
    }
}
