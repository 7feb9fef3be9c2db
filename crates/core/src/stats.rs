//! Flattening and interval error statistics (Definition 3.1 of the paper).
//!
//! For an interval `I` and function `q`, the best constant (1-histogram)
//! approximation to `q` on `I` is the mean `µ_q(I) = (1/|I|) Σ_{i∈I} q(i)`, and
//! the squared error it incurs is
//! `err_q(I) = Σ_{i∈I} (q(i) − µ_q(I))²`. The *flattening* of `q` over a
//! partition `I = {I_1, …, I_ℓ}` is the histogram taking value `µ_q(I_j)` on
//! `I_j`; it is the best approximation of `q` among all functions constant on
//! each `I_j`.

use crate::error::{Error, Result};
use crate::histogram::Histogram;
use crate::interval::Interval;
use crate::partition::Partition;

/// Mean `µ_q(I)` of a dense signal over an interval.
pub(crate) fn interval_mean(values: &[f64], interval: Interval) -> f64 {
    let sum: f64 = values[interval.as_range()].iter().sum();
    sum / interval.len() as f64
}

/// `err_q(I) = Σq² − (Σq)²/|I|` from an interval's sums and length: the one
/// copy of the formula behind every merging error and prefix SSE, clamped at
/// zero against cancellation. Admitted values ([`crate::is_admitted`]) keep
/// both terms finite on every domain, so it has no overflow case.
#[inline]
pub(crate) fn sse_from_sums(sum: f64, sum_sq: f64, len: f64) -> f64 {
    (sum_sq - sum * sum / len).max(0.0)
}

/// The flattening `q̄_I` of a dense signal over a partition (Definition 3.1):
/// the histogram taking the interval mean on every interval of the partition.
/// Each mean is a direct sum over its interval, so a mean of admitted values
/// stays admitted (a difference of prefix sums can round past the bound).
pub fn flatten_dense(values: &[f64], partition: &Partition) -> Result<Histogram> {
    if values.len() != partition.domain() {
        return Err(Error::InvalidParameter {
            name: "partition",
            reason: format!(
                "domain mismatch: signal over {}, partition over {}",
                values.len(),
                partition.domain()
            ),
        });
    }
    let vals = partition.iter().map(|&iv| interval_mean(values, iv)).collect();
    Histogram::new(partition.clone(), vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::two_pass_sse;

    fn iv(a: usize, b: usize) -> Interval {
        Interval::new(a, b).unwrap()
    }

    #[test]
    fn means_and_errors_dense() {
        let values = vec![1.0, 3.0, 5.0, 7.0];
        assert_eq!(interval_mean(&values, iv(0, 3)), 4.0);
        assert_eq!(interval_mean(&values, iv(1, 2)), 4.0);
        let sse = two_pass_sse(&values[iv(0, 3).as_range()]);
        assert!((sse - (9.0 + 1.0 + 1.0 + 9.0)).abs() < 1e-12);
        assert_eq!(two_pass_sse(&values[iv(2, 2).as_range()]), 0.0);
    }

    #[test]
    fn flattening_is_exact_on_its_own_partition() {
        // A function that is already piecewise constant on the partition has zero flattening error.
        let h = Histogram::from_breakpoints(8, &[3, 6], vec![1.0, 2.0, 0.5]).unwrap();
        let flat = flatten_dense(&h.to_dense(), h.partition()).unwrap();
        assert!((flat.l2_distance_squared_dense(&h.to_dense()).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn flattening_matches_distance() {
        let dense = vec![1.0, 5.0, 2.0, 8.0, 0.0, 3.0];
        let p = Partition::from_breakpoints(6, &[2, 4]).unwrap();
        let flat = flatten_dense(&dense, &p).unwrap();
        let sse: f64 = p.iter().map(|&iv| two_pass_sse(&dense[iv.as_range()])).sum();
        assert!((flat.l2_distance_squared_dense(&dense).unwrap() - sse).abs() < 1e-9);
    }

    #[test]
    fn flattening_is_optimal_among_piecewise_constant() {
        // Perturbing any piece value away from the mean increases the error.
        let dense = vec![1.0, 2.0, 3.0, 10.0, 11.0, 12.0];
        let p = Partition::from_breakpoints(6, &[3]).unwrap();
        let flat = flatten_dense(&dense, &p).unwrap();
        let base = flat.l2_distance_squared_dense(&dense).unwrap();
        for (piece, delta) in [(0usize, 0.1f64), (1, -0.2)] {
            let mut vals = flat.values().to_vec();
            vals[piece] += delta;
            let perturbed = Histogram::new(p.clone(), vals).unwrap();
            assert!(perturbed.l2_distance_squared_dense(&dense).unwrap() > base);
        }
    }

    #[test]
    fn domain_mismatch_errors() {
        let p = Partition::trivial(3).unwrap();
        assert!(flatten_dense(&[1.0, 2.0], &p).is_err());
    }
}
