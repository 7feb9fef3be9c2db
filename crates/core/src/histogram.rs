//! Piecewise-constant functions (`k`-histograms).
//!
//! A `k`-histogram over `[0, n)` is a function that is constant on each interval
//! of a partition with `k` pieces. This module provides the [`Histogram`]
//! container together with exact `ℓ₂` distance computations against dense and
//! sparse signals, which are used both by the algorithms and by the experiment
//! harness.

use crate::error::{Error, Result};
use crate::interval::Interval;
use crate::partition::Partition;
use crate::prefix::SparsePrefix;
use crate::sparse::{validate_dense, SparseFunction};

/// A piecewise-constant function: a partition of `[0, n)` together with one
/// value per interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    partition: Partition,
    values: Vec<f64>,
}

impl Histogram {
    /// Builds a histogram from a partition and one admitted value
    /// ([`crate::is_admitted`]) per interval.
    pub fn new(partition: Partition, values: Vec<f64>) -> Result<Self> {
        if values.len() != partition.len() {
            return Err(Error::InvalidParameter {
                name: "values",
                reason: format!(
                    "expected {} values (one per interval), got {}",
                    partition.len(),
                    values.len()
                ),
            });
        }
        validate_dense(&values, "Histogram::new")?;
        Ok(Self { partition, values })
    }

    /// A constant histogram with a single piece.
    pub fn constant(domain: usize, value: f64) -> Result<Self> {
        Self::new(Partition::trivial(domain)?, vec![value])
    }

    /// Builds the histogram that takes value `values[j]` on the `j`-th interval
    /// of the partition defined by `breaks` (see [`Partition::from_breakpoints`]).
    pub fn from_breakpoints(domain: usize, breaks: &[usize], values: Vec<f64>) -> Result<Self> {
        Self::new(Partition::from_breakpoints(domain, breaks)?, values)
    }

    /// Size `n` of the domain `[0, n)`.
    #[inline]
    pub fn domain(&self) -> usize {
        self.partition.domain()
    }

    /// The underlying partition.
    #[inline]
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The per-interval values, in domain order.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of pieces `k`.
    #[inline]
    pub fn num_pieces(&self) -> usize {
        self.partition.len()
    }

    /// Iterator over `(interval, value)` pairs in domain order.
    pub fn pieces(&self) -> impl Iterator<Item = (Interval, f64)> + '_ {
        self.partition.iter().copied().zip(self.values.iter().copied())
    }

    /// Materializes the histogram as a dense vector of length `n`.
    pub(crate) fn to_dense(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.partition.domain()];
        for (iv, v) in self.pieces() {
            for slot in &mut out[iv.as_range()] {
                *slot = v;
            }
        }
        out
    }

    /// Clamps negative values to zero and rescales so the total mass is 1,
    /// yielding a `k`-histogram *distribution* (used when the learner's output
    /// must be a probability distribution).
    pub fn normalized(&self) -> Result<Self> {
        let clamped: Vec<f64> = self.values.iter().map(|&v| v.max(0.0)).collect();
        let mass: f64 =
            self.partition.iter().zip(&clamped).map(|(iv, &v)| iv.len() as f64 * v).sum();
        if mass <= 0.0 {
            // Degenerate input: fall back to the uniform histogram.
            let n = self.partition.domain();
            return Self::new(self.partition.clone(), vec![1.0 / n as f64; self.partition.len()]);
        }
        Ok(Self {
            partition: self.partition.clone(),
            values: clamped.into_iter().map(|v| v / mass).collect(),
        })
    }

    /// Exact squared `ℓ₂` distance to a dense signal: `Σ_i (h(i) − q(i))²`.
    ///
    /// Runs in `O(n)` time.
    pub fn l2_distance_squared_dense(&self, values: &[f64]) -> Result<f64> {
        if values.len() != self.partition.domain() {
            return Err(Error::InvalidParameter {
                name: "values",
                reason: format!(
                    "expected a dense signal of length {}, got {}",
                    self.partition.domain(),
                    values.len()
                ),
            });
        }
        let mut total = 0.0;
        for (iv, v) in self.pieces() {
            for &q in &values[iv.as_range()] {
                let d = v - q;
                total += d * d;
            }
        }
        Ok(total)
    }

    /// Exact squared `ℓ₂` distance to a sparse signal.
    ///
    /// Uses `Σ_i (h(i) − q(i))² = Σ_j [ |I_j| v_j² − 2 v_j S_j + T_j ]` where
    /// `S_j`, `T_j` are the sum and sum of squares of `q` over interval `I_j`;
    /// runs in `O(k + s)` time after an `O(s)` prefix-sum pass.
    pub(crate) fn l2_distance_squared_sparse(&self, q: &SparseFunction) -> Result<f64> {
        if q.domain() != self.partition.domain() {
            return Err(Error::InvalidParameter {
                name: "q",
                reason: format!(
                    "domain mismatch: histogram over {}, signal over {}",
                    self.partition.domain(),
                    q.domain()
                ),
            });
        }
        let prefix = SparsePrefix::new(q);
        let mut total = 0.0;
        for (iv, v) in self.pieces() {
            let s = prefix.sum(iv);
            let t = prefix.sum_squares(iv);
            total += iv.len() as f64 * v * v - 2.0 * v * s + t;
        }
        Ok(total.max(0.0))
    }

    /// `ℓ₂` distance (not squared) to a dense signal.
    pub fn l2_distance_dense(&self, values: &[f64]) -> Result<f64> {
        Ok(self.l2_distance_squared_dense(values)?.sqrt())
    }

    /// `ℓ₂` distance (not squared) to a sparse signal.
    pub fn l2_distance_sparse(&self, q: &SparseFunction) -> Result<f64> {
        Ok(self.l2_distance_squared_sparse(q)?.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> Histogram {
        Histogram::from_breakpoints(10, &[4, 7], vec![1.0, 2.0, 3.0]).unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let h = simple();
        assert_eq!(h.num_pieces(), 3);
        assert_eq!(h.domain(), 10);
        assert_eq!(h.values(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn construction_rejects_mismatch() {
        let p = Partition::from_breakpoints(10, &[5]).unwrap();
        assert!(Histogram::new(p.clone(), vec![1.0]).is_err());
        assert!(Histogram::new(p, vec![1.0, f64::NAN]).is_err());
    }

    #[test]
    fn dense_roundtrip() {
        let h = simple();
        let dense = h.to_dense();
        assert_eq!(dense, [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn distances_match_naive() {
        let h = simple();
        let q: Vec<f64> = (0..10).map(|i| i as f64 * 0.3).collect();
        let naive: f64 = h.to_dense().iter().zip(&q).map(|(a, b)| (a - b) * (a - b)).sum();
        assert!((h.l2_distance_squared_dense(&q).unwrap() - naive).abs() < 1e-9);

        let sparse = SparseFunction::from_dense(&q).unwrap();
        assert!((h.l2_distance_squared_sparse(&sparse).unwrap() - naive).abs() < 1e-9);
        assert!((h.l2_distance_dense(&q).unwrap() - naive.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn distance_domain_mismatch_errors() {
        let a = Histogram::constant(5, 1.0).unwrap();
        assert!(a.l2_distance_squared_dense(&[0.0; 6]).is_err());
    }

    #[test]
    fn normalization_produces_distribution() {
        let h = Histogram::from_breakpoints(4, &[2], vec![-1.0, 3.0]).unwrap();
        let n = h.normalized().unwrap();
        assert!((n.to_dense().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(n.values().iter().all(|&v| v >= 0.0));
        assert_eq!(n.values()[0], 0.0);

        // All-zero histogram falls back to uniform.
        let z = Histogram::constant(5, 0.0).unwrap().normalized().unwrap();
        assert!((z.to_dense().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((z.values()[0] - 0.2).abs() < 1e-12);
    }
}
