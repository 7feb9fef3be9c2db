//! Equi-depth (equi-mass) histogram baseline: bucket boundaries at the
//! quantiles of the (non-negative) signal mass.
//!
//! Equi-depth histograms are the other classical database synopsis besides
//! V-optimal histograms; they adapt boundary placement to where the mass lies,
//! but they do not minimize the `ℓ₂` error and thus trail the merging algorithm
//! and the exact DP on most signals.

use hist_core::{Error, Partition, Result};

/// The pieces of the equi-depth `k`-histogram of a non-negative dense
/// signal: the `j`-th boundary is the first index at which the running mass
/// exceeds `j/k` of the total (`O(n)` time).
///
/// Degenerate inputs are handled deliberately: a *heavy hitter* index that
/// crosses several quantile thresholds at once (e.g. all the mass in one
/// bucket) is isolated in its own singleton bucket, a massless signal falls
/// back to equal-width boundaries, and `k ≥ n` returns the exact singleton
/// partition. A signal with a negative value is rejected.
pub(crate) fn partition(values: &[f64], k: usize) -> Result<Partition> {
    if values.iter().any(|&v| v < 0.0) {
        return Err(Error::InvalidParameter {
            name: "values",
            reason: "equi-depth histograms require a non-negative signal".into(),
        });
    }
    let n = values.len();
    let k = k.min(n);
    let total: f64 = values.iter().sum();
    if k == n {
        // Piece budget covers every index: the singleton partition is exact.
        return Partition::singletons(n);
    }

    let mut breaks = Vec::with_capacity(k - 1);
    if total > 0.0 {
        let mut running = 0.0;
        let mut next_quantile = 1usize;
        for (i, &v) in values.iter().enumerate() {
            running += v;
            let mut crossed = 0usize;
            while next_quantile < k && running >= total * next_quantile as f64 / k as f64 {
                crossed += 1;
                next_quantile += 1;
            }
            if crossed == 0 {
                continue;
            }
            if crossed > 1 && i > 0 && breaks.last() != Some(&i) && breaks.len() + 2 <= k {
                // Heavy hitter: it swallowed several quantiles on its own, so
                // give it a singleton bucket instead of smearing its mass over
                // a wide piece (crossing ≥ 2 thresholds frees the budget).
                breaks.push(i);
            }
            if i + 1 < n && breaks.last() != Some(&(i + 1)) && breaks.len() < k - 1 {
                breaks.push(i + 1);
            }
        }
    } else {
        // Massless signal: fall back to equal-width boundaries.
        let partition = Partition::equal_width(n, k)?;
        breaks = partition.breakpoints();
    }

    Partition::from_breakpoints(n, &breaks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::residual;

    #[test]
    fn boundaries_track_the_mass() {
        // All the mass is concentrated in the second half; the buckets must
        // concentrate there too.
        let mut values = vec![0.0; 100];
        for (i, v) in values.iter_mut().enumerate().skip(50) {
            *v = 1.0 + (i % 3) as f64;
        }
        let pieces = partition(&values, 5).unwrap();
        let breaks = pieces.breakpoints();
        assert!(
            breaks.iter().all(|&b| b >= 50),
            "breaks {breaks:?} should sit in the massive half"
        );
        assert!(pieces.len() <= 5);
    }

    #[test]
    fn uniform_signal_gives_uniform_buckets() {
        let values = vec![1.0; 60];
        let pieces = partition(&values, 6).unwrap();
        assert_eq!(pieces.len(), 6);
        assert!(residual(&values, &pieces) < 1e-15);
        assert_eq!(pieces.breakpoints(), vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn zero_mass_falls_back_to_equal_width() {
        let values = vec![0.0; 30];
        let pieces = partition(&values, 3).unwrap();
        assert_eq!(pieces.len(), 3);
        assert_eq!(residual(&values, &pieces), 0.0);
    }

    #[test]
    fn heavy_hitters_get_singleton_buckets() {
        // All the mass on index 17: it crosses every quantile at once and must
        // be isolated instead of smeared over a wide piece.
        let mut values = vec![0.0; 64];
        values[17] = 250.0;
        let pieces = partition(&values, 5).unwrap();
        let breaks = pieces.breakpoints();
        assert!(breaks.contains(&17) && breaks.contains(&18), "breaks {breaks:?}");
        assert!(residual(&values, &pieces) < 1e-12, "isolating the spike makes the fit exact");
    }

    #[test]
    fn budgets_at_or_beyond_the_domain_are_exact() {
        let values: Vec<f64> = (0..12).map(|i| (i % 4) as f64 + 0.5).collect();
        for k in [12, 20] {
            let pieces = partition(&values, k).unwrap();
            assert_eq!(pieces.len(), 12);
            assert_eq!(residual(&values, &pieces), 0.0);
        }
    }
}
