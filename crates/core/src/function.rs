//! Dense discrete functions `q : [0, n) → ℝ` and the common trait implemented by
//! every function representation in the crate.

use crate::error::{Error, Result};
use crate::interval::Interval;

/// A real-valued function on the discrete domain `[0, n)`.
///
/// Implemented by dense vectors and slices, [`crate::sparse::SparseFunction`],
/// [`crate::histogram::Histogram`], [`crate::piecewise_poly::PiecewisePolynomial`]
/// and [`crate::distribution::Distribution`], so that values and masses can be
/// read uniformly.
pub trait DiscreteFunction {
    /// Size `n` of the domain `[0, n)`.
    fn domain(&self) -> usize;

    /// Value of the function at index `i`. Must return `0.0` conventions aside,
    /// callers only query `i < self.domain()`.
    fn value(&self, i: usize) -> f64;

    /// Materializes the function as a dense vector of length `self.domain()`.
    fn to_dense(&self) -> Vec<f64> {
        (0..self.domain()).map(|i| self.value(i)).collect()
    }

    /// Sum of the function values over an interval.
    fn interval_sum(&self, interval: Interval) -> f64 {
        interval.indices().map(|i| self.value(i)).sum()
    }

    /// Total mass `Σ_i f(i)` of the function.
    fn total_mass(&self) -> f64 {
        (0..self.domain()).map(|i| self.value(i)).sum()
    }
}

/// A dense function represented by a vector of length `n`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DenseFunction {
    values: Vec<f64>,
}

impl DenseFunction {
    /// Wraps a vector of values. All values must be finite and the vector non-empty.
    pub(crate) fn new(values: Vec<f64>) -> Result<Self> {
        if values.is_empty() {
            return Err(Error::EmptyDomain);
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(Error::NonFiniteValue { context: "DenseFunction::new" });
        }
        Ok(Self { values })
    }

    /// Read-only access to the underlying values.
    #[inline]
    pub(crate) fn values(&self) -> &[f64] {
        &self.values
    }
}

impl DiscreteFunction for DenseFunction {
    #[inline]
    fn domain(&self) -> usize {
        self.values.len()
    }

    #[inline]
    fn value(&self, i: usize) -> f64 {
        self.values[i]
    }

    fn to_dense(&self) -> Vec<f64> {
        self.values.clone()
    }
}

impl DiscreteFunction for Vec<f64> {
    #[inline]
    fn domain(&self) -> usize {
        self.len()
    }

    #[inline]
    fn value(&self, i: usize) -> f64 {
        self[i]
    }

    fn to_dense(&self) -> Vec<f64> {
        self.clone()
    }
}

impl DiscreteFunction for &[f64] {
    #[inline]
    fn domain(&self) -> usize {
        self.len()
    }

    #[inline]
    fn value(&self, i: usize) -> f64 {
        self[i]
    }

    fn to_dense(&self) -> Vec<f64> {
        self.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_function_basics() {
        let f = DenseFunction::new(vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(f.domain(), 3);
        assert_eq!(f.value(1), 2.0);
        assert_eq!(f.to_dense(), vec![1.0, 2.0, 3.0]);
        assert_eq!(f.total_mass(), 6.0);
        assert_eq!(f.interval_sum(Interval::new(1, 2).unwrap()), 5.0);
    }

    #[test]
    fn rejects_empty_and_non_finite() {
        assert!(DenseFunction::new(vec![]).is_err());
        assert!(DenseFunction::new(vec![1.0, f64::NAN]).is_err());
        assert!(DenseFunction::new(vec![f64::INFINITY]).is_err());
    }

    #[test]
    fn slices_and_vecs_are_functions() {
        let v = vec![0.5, 0.5];
        assert_eq!(v.domain(), 2);
        assert_eq!(v.value(0), 0.5);
        let s: &[f64] = &v;
        assert_eq!(s.domain(), 2);
        assert_eq!(s.total_mass(), 1.0);
    }
}
