//! Prefix-sum structures for constant-time interval statistics.
//!
//! Both the merging algorithms and the baseline dynamic programs need the
//! quantities `Σ_{i∈I} q(i)` and `Σ_{i∈I} q(i)²` for many intervals `I`. The
//! paper precomputes partial sums `r_j`, `t_j` over the sparse support
//! (Algorithm 1, lines 6–7); `SparsePrefix` is that structure. The exact
//! dynamic-programming baselines work over the dense domain and use
//! [`DensePrefix`].

use crate::error::Result;
use crate::interval::Interval;
use crate::sparse::{validate_dense, SparseFunction};
use crate::stats::sse_from_sums;

/// Prefix sums over a dense signal: `O(n)` construction, `O(1)` interval queries.
#[derive(Debug, Clone)]
pub struct DensePrefix {
    /// `cum[i] = Σ_{j < i} q(j)`, length `n + 1`.
    cum: Vec<f64>,
    /// `cum_sq[i] = Σ_{j < i} q(j)²`, length `n + 1`.
    cum_sq: Vec<f64>,
}

impl DensePrefix {
    /// Builds prefix sums for a dense signal of admitted values
    /// ([`crate::is_admitted`]).
    pub fn new(values: &[f64]) -> Result<Self> {
        validate_dense(values, "DensePrefix::new")?;
        let mut cum = Vec::with_capacity(values.len() + 1);
        let mut cum_sq = Vec::with_capacity(values.len() + 1);
        cum.push(0.0);
        cum_sq.push(0.0);
        let (mut s, mut s2) = (0.0f64, 0.0f64);
        for &v in values {
            s += v;
            s2 += v * v;
            cum.push(s);
            cum_sq.push(s2);
        }
        Ok(Self { cum, cum_sq })
    }

    /// `Σ_{i∈[a, b]} q(i)` for the half-open pair `(a, b)` given as an [`Interval`].
    #[inline]
    pub(crate) fn sum(&self, interval: Interval) -> f64 {
        self.cum[interval.end() + 1] - self.cum[interval.start()]
    }

    /// `Σ_{i∈[a, b]} q(i)²`.
    #[inline]
    pub(crate) fn sum_squares(&self, interval: Interval) -> f64 {
        self.cum_sq[interval.end() + 1] - self.cum_sq[interval.start()]
    }

    /// Sum over the half-open range `[lo, hi)`.
    #[inline]
    fn sum_range(&self, lo: usize, hi: usize) -> f64 {
        debug_assert!(lo <= hi && hi < self.cum.len());
        self.cum[hi] - self.cum[lo]
    }

    /// Sum of squares over the half-open range `[lo, hi)`.
    #[inline]
    fn sum_squares_range(&self, lo: usize, hi: usize) -> f64 {
        debug_assert!(lo <= hi && hi < self.cum_sq.len());
        self.cum_sq[hi] - self.cum_sq[lo]
    }

    /// Sum-of-squared-errors of the best constant fit over `interval`:
    /// `err_q(I) = Σ_{i∈I} (q(i) − µ_q(I))² = Σ q² − (Σ q)²/|I|`, clamped at
    /// zero.
    #[inline]
    pub fn sse(&self, interval: Interval) -> f64 {
        sse_from_sums(self.sum(interval), self.sum_squares(interval), interval.len() as f64)
    }

    /// SSE over the half-open range `[lo, hi)`; `0.0` for an empty range.
    #[inline]
    pub fn sse_range(&self, lo: usize, hi: usize) -> f64 {
        if hi <= lo {
            return 0.0;
        }
        sse_from_sums(self.sum_range(lo, hi), self.sum_squares_range(lo, hi), (hi - lo) as f64)
    }
}

/// Prefix sums over the support of a sparse function.
///
/// Interval queries cost `O(log s)` (binary search for the support range);
/// queries by support-position range cost `O(1)`. The merging algorithms track
/// support positions explicitly and therefore only pay the `O(1)` cost.
#[derive(Debug, Clone)]
pub(crate) struct SparsePrefix {
    /// Sorted support indices, length `s`.
    indices: Vec<usize>,
    /// `cum[j] = Σ_{u < j} y_u`, length `s + 1`.
    cum: Vec<f64>,
    /// `cum_sq[j] = Σ_{u < j} y_u²`, length `s + 1`.
    cum_sq: Vec<f64>,
}

impl SparsePrefix {
    /// Builds the partial-sum arrays `r_j`, `t_j` of Algorithm 1.
    pub(crate) fn new(q: &SparseFunction) -> Self {
        let s = q.sparsity();
        let mut indices = Vec::with_capacity(s);
        let mut cum = Vec::with_capacity(s + 1);
        let mut cum_sq = Vec::with_capacity(s + 1);
        cum.push(0.0);
        cum_sq.push(0.0);
        let (mut acc, mut acc_sq) = (0.0f64, 0.0f64);
        for (i, v) in q.iter() {
            indices.push(i);
            acc += v;
            acc_sq += v * v;
            cum.push(acc);
            cum_sq.push(acc_sq);
        }
        Self { indices, cum, cum_sq }
    }

    /// The range of support positions whose indices fall inside `interval`.
    pub(crate) fn support_range(&self, interval: Interval) -> std::ops::Range<usize> {
        let lo = self.indices.partition_point(|&i| i < interval.start());
        let hi = self.indices.partition_point(|&i| i <= interval.end());
        lo..hi
    }

    /// Sum of values at support positions `[lo, hi)`.
    #[inline]
    fn sum_by_pos(&self, lo: usize, hi: usize) -> f64 {
        self.cum[hi] - self.cum[lo]
    }

    /// Sum of squared values at support positions `[lo, hi)`.
    #[inline]
    fn sum_squares_by_pos(&self, lo: usize, hi: usize) -> f64 {
        self.cum_sq[hi] - self.cum_sq[lo]
    }

    /// `Σ_{i∈I} q(i)` (zero entries contribute nothing).
    pub(crate) fn sum(&self, interval: Interval) -> f64 {
        let r = self.support_range(interval);
        self.sum_by_pos(r.start, r.end)
    }

    /// `Σ_{i∈I} q(i)²`.
    pub(crate) fn sum_squares(&self, interval: Interval) -> f64 {
        let r = self.support_range(interval);
        self.sum_squares_by_pos(r.start, r.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(a: usize, b: usize) -> Interval {
        Interval::new(a, b).unwrap()
    }

    #[test]
    fn dense_prefix_sums_match_naive() {
        let values = vec![1.0, -2.0, 3.0, 0.5, 4.0, -1.0];
        let p = DensePrefix::new(&values).unwrap();
        for a in 0..values.len() {
            for b in a..values.len() {
                let interval = iv(a, b);
                let naive_sum: f64 = values[a..=b].iter().sum();
                let naive_sq: f64 = values[a..=b].iter().map(|v| v * v).sum();
                assert!((p.sum(interval) - naive_sum).abs() < 1e-12);
                assert!((p.sum_squares(interval) - naive_sq).abs() < 1e-12);
                let mean = naive_sum / (b - a + 1) as f64;
                let naive_sse: f64 = values[a..=b].iter().map(|v| (v - mean).powi(2)).sum();
                assert!((p.sse(interval) - naive_sse).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn dense_prefix_half_open_ranges() {
        let values = vec![2.0, 4.0, 6.0];
        let p = DensePrefix::new(&values).unwrap();
        assert_eq!(p.sum_range(0, 3), 12.0);
        assert_eq!(p.sum_range(1, 1), 0.0);
        assert_eq!(p.sse_range(1, 1), 0.0);
        assert!((p.sse_range(0, 2) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dense_prefix_rejects_bad_input() {
        assert!(DensePrefix::new(&[]).is_err());
        assert!(DensePrefix::new(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn sparse_prefix_matches_dense() {
        let dense = vec![0.0, 3.0, 0.0, 0.0, 2.0, 0.0, 5.0, 0.0];
        let q = SparseFunction::from_dense(&dense).unwrap();
        let sp = SparsePrefix::new(&q);
        let dp = DensePrefix::new(&dense).unwrap();
        for a in 0..dense.len() {
            for b in a..dense.len() {
                let interval = iv(a, b);
                assert!((sp.sum(interval) - dp.sum(interval)).abs() < 1e-12);
                assert!((sp.sum_squares(interval) - dp.sum_squares(interval)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn sparse_prefix_position_queries() {
        let q = SparseFunction::new(10, vec![(2, 1.0), (5, 2.0), (8, 3.0)]).unwrap();
        let sp = SparsePrefix::new(&q);
        assert_eq!(sp.support_range(iv(0, 9)), 0..3);
        assert_eq!(sp.support_range(iv(3, 7)), 1..2);
        assert_eq!(sp.sum_by_pos(0, 3), 6.0);
        assert_eq!(sp.sum_squares_by_pos(1, 3), 13.0);
    }

    #[test]
    fn sse_is_never_negative() {
        // Values engineered so naive cancellation could dip below zero.
        let values = vec![1e8, 1e8, 1e8 + 1e-6];
        let p = DensePrefix::new(&values).unwrap();
        assert!(p.sse(iv(0, 2)) >= 0.0);
    }
}
