//! The two-stage agnostic histogram learner of Theorem 2.1 as an
//! [`Estimator`], and the sample size of Lemma 3.1.
//!
//! Stage 1 draws `m = O(ε⁻²·log(1/δ))` samples and forms the empirical
//! distribution `p̂_m` ([`Signal::from_samples`]); stage 2 post-processes
//! `p̂_m` with the merging algorithm ([`GreedyMerging`], or [`FastMerging`] for
//! [`SampleLearner::fast`]) in `O(m)` time. With probability `≥ 1 − δ` the
//! output is an `O(k)`-histogram `h` with `‖h − p‖₂ ≤ 2·opt_k + ε`.

use hist_core::{
    Distribution, Estimator, EstimatorBuilder, FastMerging, GreedyMerging, Result, Signal, Synopsis,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::alias::AliasSampler;

/// The two-stage agnostic histogram learner as an [`Estimator`].
///
/// * A signal built via [`Signal::from_samples`] is already the empirical
///   distribution `p̂_m`, so only stage 2 (merging) runs — the entry point for
///   samples arriving from an external source.
/// * Any other signal is treated as the (unnormalized) probability weights of
///   the unknown distribution: the learner normalizes it, draws its own
///   [`SampleLearner::sample_size`] samples (deterministically, from
///   [`EstimatorBuilder::seed`]), and learns from those — the full Theorem 2.1
///   pipeline, never reading the signal beyond sampling.
///
/// Either way the fit is the merging estimator on `p̂_m`, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleLearner {
    builder: EstimatorBuilder,
    fast: bool,
}

impl SampleLearner {
    /// A learner post-processing with pair merging (Algorithm 1).
    pub fn new(builder: EstimatorBuilder) -> Self {
        Self { builder, fast: false }
    }

    /// A learner post-processing with aggressive group merging
    /// (`fastmerging`).
    pub fn fast(builder: EstimatorBuilder) -> Self {
        Self { builder, fast: true }
    }

    /// The number of samples this learner draws when it has to sample itself.
    pub fn sample_size(&self) -> usize {
        self.builder.sample_size_override().unwrap_or_else(|| {
            sample_complexity(self.builder.learner_epsilon(), self.builder.learner_fail_prob())
        })
    }
}

impl Estimator for SampleLearner {
    fn name(&self) -> &'static str {
        if self.fast {
            "sample-learner-fast"
        } else {
            "sample-learner"
        }
    }

    fn fit(&self, signal: &Signal) -> Result<Synopsis> {
        self.builder.validate()?;
        let drawn;
        let empirical = if signal.num_samples().is_some() {
            signal
        } else {
            let p = Distribution::from_weights(&signal.dense_values())?;
            let mut rng = StdRng::seed_from_u64(self.builder.seed_value());
            let samples = AliasSampler::new(&p)?.sample_many(self.sample_size(), &mut rng);
            drawn = Signal::from_samples(signal.domain(), &samples)?;
            &drawn
        };
        if self.fast {
            FastMerging::named(self.name(), self.builder).fit(empirical)
        } else {
            GreedyMerging::named(self.name(), self.builder).fit(empirical)
        }
    }
}

/// The number of samples `m = ⌈(c/ε²)·ln(e/δ)⌉` prescribed by Lemma 3.1 /
/// Theorem 2.1 (we use the explicit constant `c = 1`, which the McDiarmid
/// argument in the paper supports for `η = 3ε/4`).
pub fn sample_complexity(epsilon: f64, delta: f64) -> usize {
    let eps = epsilon.clamp(1e-9, 1.0);
    let del = delta.clamp(1e-12, 1.0);
    ((1.0 / (eps * eps)) * (1.0 + (1.0 / del).ln())).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_weights() -> Vec<f64> {
        (0..120)
            .map(|i| match i {
                _ if i < 30 => 1.0,
                _ if i < 60 => 4.0,
                _ if i < 100 => 0.5,
                _ => 2.0,
            })
            .collect()
    }

    #[test]
    fn learns_from_a_distribution_signal() {
        let weights = step_weights();
        let signal = Signal::from_dense(weights.clone()).unwrap();
        let learner = SampleLearner::new(EstimatorBuilder::new(4).epsilon(0.02).fail_prob(0.05));
        let synopsis = learner.fit(&signal).unwrap();

        let p = Distribution::from_weights(&weights).unwrap();
        let err: f64 = synopsis
            .to_dense()
            .iter()
            .zip(p.pmf())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(err <= 0.04, "4-histogram target must be learned to O(ε), got {err}");
        assert!(synopsis.num_pieces() <= 11);
    }

    #[test]
    fn learns_from_an_explicit_sample_signal() {
        let p = Distribution::from_weights(&step_weights()).unwrap();
        let sampler = AliasSampler::new(&p).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let samples = sampler.sample_many(50_000, &mut rng);
        let signal = Signal::from_samples(120, &samples).unwrap();

        let learner = SampleLearner::new(EstimatorBuilder::new(4));
        let synopsis = learner.fit(&signal).unwrap();
        let err: f64 = synopsis
            .to_dense()
            .iter()
            .zip(p.pmf())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(err < 0.03, "stage-2 learning from 50k samples, got {err}");
    }

    #[test]
    fn deterministic_given_the_seed() {
        let signal = Signal::from_dense(step_weights()).unwrap();
        let learner = SampleLearner::new(EstimatorBuilder::new(4).samples(5_000).seed(99));
        let a = learner.fit(&signal).unwrap();
        let b = learner.fit(&signal).unwrap();
        assert_eq!(a.histogram(), b.histogram());
    }

    #[test]
    fn fast_variant_reports_its_name() {
        let learner = SampleLearner::fast(EstimatorBuilder::new(4).samples(2_000));
        assert_eq!(learner.name(), "sample-learner-fast");
        let signal = Signal::from_dense(step_weights()).unwrap();
        assert_eq!(learner.fit(&signal).unwrap().estimator(), "sample-learner-fast");
    }

    #[test]
    fn sample_complexity_scales_as_expected() {
        let base = sample_complexity(0.1, 0.1);
        assert!(base >= 100, "1/ε² factor");
        // Halving ε quadruples the sample size.
        assert!(sample_complexity(0.05, 0.1) >= 4 * base - 4);
        // Smaller δ only costs logarithmically.
        assert!(sample_complexity(0.1, 0.01) < 3 * base);
        assert!(sample_complexity(0.1, 0.01) > base);
    }
}
