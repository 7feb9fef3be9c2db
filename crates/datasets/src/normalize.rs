//! Turning raw signals into probability distributions and reduced-support
//! variants: the `hist'`, `poly'` and `dow'` data sets of the paper's learning
//! experiments (Section 5.2) are the Figure 1 signals, subsampled to a support
//! of roughly 1000 and normalized to total mass 1.

use hist_core::{Distribution, Error, Result};

/// Normalizes a non-negative signal into a probability distribution
/// (`value(i) / Σ_j value(j)`). Negative entries are clamped to zero first
/// (the Figure 1 signals are non-negative up to noise).
pub fn to_distribution(values: &[f64]) -> Result<Distribution> {
    if values.is_empty() {
        return Err(Error::EmptyDomain);
    }
    let clamped: Vec<f64> = values.iter().map(|&v| v.max(0.0)).collect();
    Distribution::from_weights(&clamped)
}

/// Keeps every `factor`-th sample of the signal (uniformly spaced subsampling),
/// as used to build the `poly'` (factor 4) and `dow'` (factor 16) data sets.
pub(crate) fn subsample(values: &[f64], factor: usize) -> Result<Vec<f64>> {
    if values.is_empty() {
        return Err(Error::EmptyDomain);
    }
    if factor == 0 {
        return Err(Error::InvalidParameter {
            name: "factor",
            reason: "the subsampling factor must be at least 1".into(),
        });
    }
    Ok(values.iter().step_by(factor).copied().collect())
}

/// Subsamples by `factor` and normalizes in one step — the exact preprocessing
/// of Section 5.2.
pub fn subsample_to_distribution(values: &[f64], factor: usize) -> Result<Distribution> {
    to_distribution(&subsample(values, factor)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{hist_dataset, poly_dataset};
    use crate::timeseries::dow_dataset;

    #[test]
    fn normalization_produces_a_valid_distribution() {
        let d = to_distribution(&[1.0, 3.0, 0.0, -0.5, 4.0]).unwrap();
        assert_eq!(d.pmf().len(), 5);
        assert!((d.pmf().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(d.prob(3), 0.0, "negative entries are clamped");
        assert!((d.prob(1) - 3.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn subsampling_keeps_every_kth_value() {
        let values = vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        assert_eq!(subsample(&values, 2).unwrap(), vec![0.0, 2.0, 4.0, 6.0]);
        assert_eq!(subsample(&values, 3).unwrap(), vec![0.0, 3.0, 6.0]);
        assert_eq!(subsample(&values, 1).unwrap(), values);
        assert!(subsample(&values, 0).is_err());
        assert!(subsample(&[], 2).is_err());
    }

    #[test]
    fn paper_learning_datasets_have_support_around_1000() {
        // hist' : n = 1000 (no subsampling), poly' : 4000 / 4, dow' : 16384 / 16.
        let hist_prime = to_distribution(&hist_dataset()).unwrap();
        assert_eq!(hist_prime.pmf().len(), 1_000);

        let poly_prime = subsample_to_distribution(&poly_dataset(), 4).unwrap();
        assert_eq!(poly_prime.pmf().len(), 1_000);

        let dow_prime = subsample_to_distribution(&dow_dataset(), 16).unwrap();
        assert_eq!(dow_prime.pmf().len(), 1_024);

        for d in [&hist_prime, &poly_prime, &dow_prime] {
            assert!((d.pmf().iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(d.pmf().iter().all(|&p| p >= 0.0));
        }
    }
}
