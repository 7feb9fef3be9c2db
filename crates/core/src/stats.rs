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
use crate::prefix::SparsePrefix;
use crate::sparse::SparseFunction;

/// Mean `µ_q(I)` of a dense signal over an interval.
pub(crate) fn interval_mean(values: &[f64], interval: Interval) -> f64 {
    let sum: f64 = values[interval.as_range()].iter().sum();
    sum / interval.len() as f64
}

/// `err_q(I) = Σq² − (Σq)²/|I|` from an interval's sums and length: the one
/// copy of the formula behind every merging error and prefix SSE, clamped at
/// zero against cancellation. A `(Σq)²/|I|` of at least `f64::MAX` takes a
/// cold branch ([`capped_sse`]); below it every bit is the plain formula's.
#[inline]
pub(crate) fn sse_from_sums(sum: f64, sum_sq: f64, len: f64) -> f64 {
    match sse_below_cap(sum, sum_sq, len) {
        (sse, true) => sse,
        _ => capped_sse(sum, sum_sq, len),
    }
}

/// [`sse_from_sums`] with no branch, and whether `(Σq)²/|I|` stayed below
/// `f64::MAX`: if it did, the value is [`sse_from_sums`]'s bit for bit. A
/// loop of these vectorizes where one of [`sse_from_sums`] does not, and
/// redoes its values with [`sse_from_sums`] in the rare case one did not.
#[inline]
pub(crate) fn sse_below_cap(sum: f64, sum_sq: f64, len: f64) -> (f64, bool) {
    let mean_sq = sum * sum / len;
    let below = mean_sq < f64::MAX;
    ((sum_sq - if below { mean_sq } else { f64::MAX }).max(0.0), below)
}

/// [`sse_from_sums`] where `(Σq)²/|I|` reads at least `f64::MAX`. If `(Σq)²`
/// overflowed, the term is taken as `Σq · (Σq/|I|)`, which stays finite
/// whenever the quotient itself is, so a finite `Σq²` beside it still gives
/// the true error rather than 0. The term is then capped at `f64::MAX`, so
/// when both overflow the error reads `+∞` (the most costly an interval can
/// be) where `∞ − ∞` would be a NaN that the clamp turns into 0.
#[cold]
fn capped_sse(sum: f64, sum_sq: f64, len: f64) -> f64 {
    let mean_sq = sum * sum / len;
    let mean_sq = if mean_sq == f64::INFINITY { sum * (sum / len) } else { mean_sq };
    (sum_sq - mean_sq.min(f64::MAX)).max(0.0)
}

/// The flattening `q̄_I` of a sparse signal over a partition (Definition 3.1):
/// the histogram taking the interval mean on every interval of the partition.
///
/// Runs in `O(s + |I| log s)` time.
pub fn flatten(q: &SparseFunction, partition: &Partition) -> Result<Histogram> {
    if q.domain() != partition.domain() {
        return Err(Error::InvalidParameter {
            name: "partition",
            reason: format!(
                "domain mismatch: signal over {}, partition over {}",
                q.domain(),
                partition.domain()
            ),
        });
    }
    let prefix = SparsePrefix::new(q);
    let values = partition.iter().map(|&iv| prefix.mean(iv)).collect();
    Histogram::new(partition.clone(), values)
}

/// The flattening of a dense signal over a partition.
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
    use crate::prefix::DensePrefix;
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
    fn a_finite_sum_of_squares_beside_an_overflowed_square_of_the_sum() {
        // (Σq)² overflows, Σq² does not: the error is the true 7.5e303, not 0.
        let values = [6.5e153, 6.5e153, 6.5e153, 6.6e153];
        let want = two_pass_sse(&values);
        assert!((want - 7.5e303).abs() <= 1e-9 * 7.5e303, "{want}");
        let prefix = DensePrefix::new(&values).unwrap();
        let got = prefix.sse(iv(0, 3));
        assert!((got - want).abs() <= 1e-9 * want, "{got} vs {want}");
    }

    #[test]
    fn flattening_is_exact_on_its_own_partition() {
        // A function that is already piecewise constant on the partition has zero flattening error.
        let h = Histogram::from_breakpoints(8, &[3, 6], vec![1.0, 2.0, 0.5]).unwrap();
        let q = SparseFunction::from_dense(&h.to_dense()).unwrap();
        let p = h.partition().clone();
        let flat = flatten(&q, &p).unwrap();
        assert!((flat.l2_distance_squared_sparse(&q).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn flattening_matches_distance() {
        let dense = vec![1.0, 5.0, 2.0, 8.0, 0.0, 3.0];
        let q = SparseFunction::from_dense(&dense).unwrap();
        let p = Partition::from_breakpoints(6, &[2, 4]).unwrap();
        let flat = flatten(&q, &p).unwrap();
        let sse: f64 = p.iter().map(|&iv| two_pass_sse(&dense[iv.as_range()])).sum();
        assert!((flat.l2_distance_squared_dense(&dense).unwrap() - sse).abs() < 1e-9);

        let flat_d = flatten_dense(&dense, &p).unwrap();
        assert_eq!(flat.values(), flat_d.values());
    }

    #[test]
    fn flattening_is_optimal_among_piecewise_constant() {
        // Perturbing any piece value away from the mean increases the error.
        let dense = vec![1.0, 2.0, 3.0, 10.0, 11.0, 12.0];
        let q = SparseFunction::from_dense(&dense).unwrap();
        let p = Partition::from_breakpoints(6, &[3]).unwrap();
        let flat = flatten(&q, &p).unwrap();
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
        let q = SparseFunction::from_dense(&[1.0, 2.0]).unwrap();
        let p = Partition::trivial(3).unwrap();
        assert!(flatten(&q, &p).is_err());
        assert!(flatten_dense(&[1.0, 2.0], &p).is_err());
    }
}
