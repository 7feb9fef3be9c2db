//! Tooling for the sample-complexity lower bound of Theorem 3.2.
//!
//! The lower bound reduces agnostic `ℓ₂` learning to distinguishing the two
//! 2-histogram distributions `p₁ = (½+ε, ½−ε, 0, …)` and `p₂ = (½−ε, ½+ε, 0,
//! …)`: their `ℓ₂` distance is `2√2·ε` while their squared Hellinger distance
//! is `Θ(ε²)`, so `Ω(ε⁻²·log(1/δ))` samples are required. This module builds
//! the two-point family, exposes the Hellinger-based lower bound, and provides
//! the likelihood-ratio distinguisher used to validate the construction
//! empirically.

use hist_core::{Distribution, Error, Result};

/// The hard pair `(p₁, p₂)` of Theorem 3.2 on the domain `[0, n)`.
pub fn two_point_pair(n: usize, epsilon: f64) -> Result<(Distribution, Distribution)> {
    if n < 2 {
        return Err(Error::InvalidParameter {
            name: "n",
            reason: "the two-point construction needs a domain of size at least 2".into(),
        });
    }
    if !(0.0..0.5).contains(&epsilon) || epsilon <= 0.0 {
        return Err(Error::InvalidParameter {
            name: "epsilon",
            reason: format!("epsilon must lie in (0, 0.5), got {epsilon}"),
        });
    }
    let mut p1 = vec![0.0; n];
    let mut p2 = vec![0.0; n];
    p1[0] = 0.5 + epsilon;
    p1[1] = 0.5 - epsilon;
    p2[0] = 0.5 - epsilon;
    p2[1] = 0.5 + epsilon;
    Ok((Distribution::new(p1)?, Distribution::new(p2)?))
}

/// The information-theoretic sample lower bound
/// `m ≥ log(1/δ) / (4·h²(p₁, p₂))` implied by the Hellinger-distance argument
/// (Theorem 4.7 of \[BY02\], as used in the proof of Theorem 3.2).
pub(crate) fn hellinger_lower_bound(
    p1: &Distribution,
    p2: &Distribution,
    delta: f64,
) -> Result<usize> {
    if !(0.0..0.5).contains(&delta) || delta <= 0.0 {
        return Err(Error::InvalidParameter {
            name: "delta",
            reason: format!("delta must lie in (0, 0.5), got {delta}"),
        });
    }
    let h = p1.hellinger_distance(p2)?;
    let h2 = (h * h).max(f64::MIN_POSITIVE);
    Ok(((1.0 / delta).ln() / (4.0 * h2)).ceil() as usize)
}

/// The sample lower bound for learning to `ℓ₂` accuracy `ε` with confidence
/// `1 − δ`: instantiates the Hellinger bound on the two-point pair, which
/// scales as `Ω(ε⁻²·log(1/δ))`.
pub fn sample_lower_bound(epsilon: f64, delta: f64) -> Result<usize> {
    let (p1, p2) = two_point_pair(2, epsilon)?;
    hellinger_lower_bound(&p1, &p2, delta)
}

/// The likelihood-ratio distinguisher from the proof of part (a): given the
/// counts of the first two symbols in a sample, decides whether the sample came
/// from `p₁` (more mass on symbol 0) or `p₂`.
pub fn distinguish(samples: &[usize]) -> DistinguisherVerdict {
    let count0 = samples.iter().filter(|&&s| s == 0).count();
    let count1 = samples.iter().filter(|&&s| s == 1).count();
    if count0 >= count1 {
        DistinguisherVerdict::FirstDistribution
    } else {
        DistinguisherVerdict::SecondDistribution
    }
}

/// Verdict of the two-point distinguisher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistinguisherVerdict {
    /// The sample looks like it came from `p₁` (mass `½ + ε` on symbol 0).
    FirstDistribution,
    /// The sample looks like it came from `p₂` (mass `½ + ε` on symbol 1).
    SecondDistribution,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alias::AliasSampler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pair_has_the_stated_l2_distance() {
        for eps in [0.01, 0.1, 0.3] {
            let (p1, p2) = two_point_pair(10, eps).unwrap();
            let l2 = p1.l2_distance(&p2).unwrap();
            assert!((l2 - 8.0f64.sqrt() * eps).abs() < 1e-12, "eps {eps}");
        }
    }

    #[test]
    fn lower_bound_scales_like_inverse_epsilon_squared() {
        let m1 = sample_lower_bound(0.1, 0.05).unwrap();
        let m2 = sample_lower_bound(0.05, 0.05).unwrap();
        let ratio = m2 as f64 / m1 as f64;
        assert!((3.0..5.0).contains(&ratio), "halving ε should ≈ quadruple m, ratio {ratio}");
        // And logarithmically in 1/δ.
        let m3 = sample_lower_bound(0.1, 0.0005).unwrap();
        assert!(m3 > m1 && m3 < 4 * m1);
    }

    #[test]
    fn distinguisher_succeeds_with_enough_samples() {
        let eps = 0.05;
        let (p1, p2) = two_point_pair(2, eps).unwrap();
        let m = 4 * sample_lower_bound(eps, 0.1).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut correct = 0usize;
        let trials = 40;
        for t in 0..trials {
            let (dist, expected) = if t % 2 == 0 {
                (&p1, DistinguisherVerdict::FirstDistribution)
            } else {
                (&p2, DistinguisherVerdict::SecondDistribution)
            };
            let samples = AliasSampler::new(dist).unwrap().sample_many(m, &mut rng);
            if distinguish(&samples) == expected {
                correct += 1;
            }
        }
        assert!(correct >= trials - 2, "distinguisher succeeded only {correct}/{trials} times");
    }

    #[test]
    fn distinguisher_fails_with_very_few_samples() {
        // With a handful of samples and a tiny bias the verdict is close to a coin
        // flip — this is the operational content of the lower bound.
        let eps = 0.01;
        let (p1, _) = two_point_pair(2, eps).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let mut correct = 0usize;
        let trials = 200;
        for _ in 0..trials {
            let samples = AliasSampler::new(&p1).unwrap().sample_many(5, &mut rng);
            if distinguish(&samples) == DistinguisherVerdict::FirstDistribution {
                correct += 1;
            }
        }
        let rate = correct as f64 / trials as f64;
        assert!(rate < 0.75, "5 samples cannot reliably detect a 1% bias (rate {rate})");
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(two_point_pair(1, 0.1).is_err());
        assert!(two_point_pair(4, 0.0).is_err());
        assert!(two_point_pair(4, 0.6).is_err());
        assert!(sample_lower_bound(0.1, 0.7).is_err());
    }
}
