//! Sparse discrete functions, the input representation of the merging algorithms.
//!
//! An `s`-sparse function `q : [0, n) → ℝ` is stored as its domain size together
//! with the sorted list of nonzero entries `(i_1, y_1), …, (i_s, y_s)` —
//! exactly the representation assumed by Algorithm 1 of the paper.

use crate::error::{Error, Result};
use crate::interval::Interval;

/// A sparse function over `[0, n)`, stored as sorted `(index, value)` pairs.
///
/// Entries with value exactly `0.0` are allowed but are normally dropped by the
/// constructors; the empirical distribution of `m` samples is at most
/// `m`-sparse regardless of the domain size `n`.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseFunction {
    domain: usize,
    entries: Vec<(usize, f64)>,
}

impl SparseFunction {
    /// Builds a sparse function from `(index, value)` pairs.
    ///
    /// The pairs must be strictly increasing in index, all indices must lie in
    /// `[0, domain)` and all values must be finite. Zero values are kept as
    /// given (use [`SparseFunction::from_dense`] to drop them).
    pub fn new(domain: usize, entries: Vec<(usize, f64)>) -> Result<Self> {
        if domain == 0 {
            return Err(Error::EmptyDomain);
        }
        let mut prev: Option<usize> = None;
        for &(i, v) in &entries {
            if i >= domain {
                return Err(Error::IndexOutOfRange { index: i, domain });
            }
            if !v.is_finite() {
                return Err(Error::NonFiniteValue { context: "SparseFunction::new" });
            }
            if let Some(p) = prev {
                if i <= p {
                    return Err(Error::UnsortedSupport);
                }
            }
            prev = Some(i);
        }
        Ok(Self { domain, entries })
    }

    /// Builds a sparse function from a dense vector, dropping exact zeros.
    pub fn from_dense(values: &[f64]) -> Result<Self> {
        validate_dense(values, "SparseFunction::from_dense")?;
        let entries =
            values.iter().enumerate().filter(|&(_, &v)| v != 0.0).map(|(i, &v)| (i, v)).collect();
        Ok(Self { domain: values.len(), entries })
    }

    /// A dense vector viewed as an `n`-sparse function, keeping zero entries.
    ///
    /// This is the representation used by the "offline" experiments of the paper
    /// where the input signal is fully dense.
    pub fn from_dense_keep_zeros(values: &[f64]) -> Result<Self> {
        validate_dense(values, "SparseFunction::from_dense_keep_zeros")?;
        Ok(Self { domain: values.len(), entries: values.iter().copied().enumerate().collect() })
    }

    /// Size `n` of the domain `[0, n)`.
    #[inline]
    pub(crate) fn domain(&self) -> usize {
        self.domain
    }

    /// Materializes the function as a dense vector of length `n`.
    pub(crate) fn to_dense(&self) -> Vec<f64> {
        let mut dense = vec![0.0; self.domain];
        for &(i, v) in &self.entries {
            dense[i] = v;
        }
        dense
    }

    /// Number of stored entries (the sparsity `s`).
    #[inline]
    pub fn sparsity(&self) -> usize {
        self.entries.len()
    }

    /// The stored `(index, value)` pairs, sorted by index.
    #[inline]
    pub(crate) fn entries(&self) -> &[(usize, f64)] {
        &self.entries
    }

    /// Iterator over the stored `(index, value)` pairs.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// Sum of all stored values.
    pub fn sum(&self) -> f64 {
        self.entries.iter().map(|&(_, v)| v).sum()
    }

    /// Sum of squares of all stored values.
    pub(crate) fn sum_squares(&self) -> f64 {
        self.entries.iter().map(|&(_, v)| v * v).sum()
    }

    /// Position range (into [`Self::entries`]) of the entries whose indices lie
    /// inside `interval`.
    pub(crate) fn support_range(&self, interval: Interval) -> std::ops::Range<usize> {
        let lo = self.entries.partition_point(|&(i, _)| i < interval.start());
        let hi = self.entries.partition_point(|&(i, _)| i <= interval.end());
        lo..hi
    }

    /// The entries whose indices lie inside `interval`.
    pub fn entries_in(&self, interval: Interval) -> &[(usize, f64)] {
        &self.entries[self.support_range(interval)]
    }
}

/// Checks that a dense signal is non-empty and finite; `context` names the
/// caller in the error.
pub(crate) fn validate_dense(values: &[f64], context: &'static str) -> Result<()> {
    if values.is_empty() {
        return Err(Error::EmptyDomain);
    }
    if values.iter().any(|v| !v.is_finite()) {
        return Err(Error::NonFiniteValue { context });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validation() {
        assert!(SparseFunction::new(0, vec![]).is_err());
        assert!(SparseFunction::new(5, vec![(5, 1.0)]).is_err());
        assert!(SparseFunction::new(5, vec![(1, 1.0), (1, 2.0)]).is_err());
        assert!(SparseFunction::new(5, vec![(2, 1.0), (1, 2.0)]).is_err());
        assert!(SparseFunction::new(5, vec![(2, f64::NAN)]).is_err());
        assert!(SparseFunction::new(5, vec![(0, 1.0), (4, 2.0)]).is_ok());
    }

    #[test]
    fn dense_roundtrip() {
        let dense = vec![0.0, 1.5, 0.0, 2.5, 0.0];
        let q = SparseFunction::from_dense(&dense).unwrap();
        assert_eq!(q.sparsity(), 2);
        assert_eq!(q.to_dense(), dense);

        let q_all = SparseFunction::from_dense_keep_zeros(&dense).unwrap();
        assert_eq!(q_all.sparsity(), 5);
        assert_eq!(q_all.to_dense(), dense);
    }

    #[test]
    fn sums_and_norms() {
        let q = SparseFunction::new(6, vec![(1, 3.0), (4, -1.0)]).unwrap();
        assert_eq!(q.sum(), 2.0);
        assert_eq!(q.sum_squares(), 10.0);
    }

    #[test]
    fn support_range_and_interval_queries() {
        let q = SparseFunction::new(12, vec![(1, 1.0), (4, 2.0), (7, 3.0), (9, 4.0)]).unwrap();
        let iv = Interval::new(3, 8).unwrap();
        assert_eq!(q.support_range(iv), 1..3);
        assert_eq!(q.entries_in(iv), &[(4, 2.0), (7, 3.0)]);
        let empty = Interval::new(2, 3).unwrap();
        assert_eq!(q.entries_in(empty), &[]);
    }

    #[test]
    fn zero_function() {
        let z = SparseFunction::new(7, Vec::new()).unwrap();
        assert_eq!(z.sparsity(), 0);
        assert_eq!(z.to_dense(), vec![0.0; 7]);
    }
}
