//! Equi-width histogram baseline: `k` buckets of (almost) equal length.
//!
//! This is the weakest classical baseline — it ignores the data when choosing
//! boundaries — and serves as a sanity floor in the experiments: every
//! data-adaptive algorithm should beat it on signals whose structure is not
//! aligned with a uniform grid.

use hist_core::{Partition, Result};

/// The pieces of the equi-width `k`-histogram of a dense signal (`O(n)` time).
pub(crate) fn partition(values: &[f64], k: usize) -> Result<Partition> {
    let n = values.len();
    Partition::equal_width(n, k.min(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{optimum, residual};

    #[test]
    fn produces_k_pieces() {
        let values: Vec<f64> = (0..100).map(|i| (i % 10) as f64).collect();
        assert_eq!(partition(&values, 10).unwrap().len(), 10);
    }

    #[test]
    fn never_beats_the_exact_optimum() {
        let values: Vec<f64> = (0..90).map(|i| ((i * 13) % 7) as f64).collect();
        for k in [2usize, 5, 9] {
            let sse = residual(&values, &partition(&values, k).unwrap());
            assert!(sse + 1e-12 >= optimum(&values, k));
        }
    }

    #[test]
    fn aligned_step_signal_is_recovered() {
        // Steps exactly aligned with the uniform grid are captured perfectly.
        let values: Vec<f64> = (0..40).map(|i| (i / 10) as f64).collect();
        assert!(residual(&values, &partition(&values, 4).unwrap()) < 1e-15);
    }
}
