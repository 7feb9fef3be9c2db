//! The two-stage agnostic histogram learner of Theorem 2.1.
//!
//! Stage 1 draws `m = O(ε⁻²·log(1/δ))` samples and forms the empirical
//! distribution `p̂_m`; stage 2 post-processes `p̂_m` with the merging algorithm
//! (Algorithm 1) in `O(m)` time. With probability `≥ 1 − δ` the output is an
//! `O(k)`-histogram `h` with `‖h − p‖₂ ≤ 2·opt_k + ε`.

use crate::alias::AliasSampler;
use crate::empirical::{sample_complexity, EmpiricalDistribution};
use hist_core::{
    construct_histogram, construct_histogram_fast, Distribution, Histogram, MergingParams, Result,
};
use rand::Rng;

/// Which merging variant the learner uses for the post-processing stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergingVariant {
    /// Pair merging (Algorithm 1) — the paper's `merging`.
    #[default]
    Pairs,
    /// Aggressive group merging — the paper's `fastmerging`.
    Groups,
}

/// Configuration of the agnostic histogram learner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearnerConfig {
    /// Target number of histogram pieces `k`.
    pub k: usize,
    /// Additive accuracy `ε`.
    pub epsilon: f64,
    /// Failure probability `δ`.
    pub delta: f64,
    /// Trade-off parameters handed to the merging algorithm (the paper's
    /// experiments use `δ_merge = 1000`, `γ = 1`, giving `2k + 1` pieces).
    pub merge_delta: f64,
    /// Extra-piece slack `γ` of the merging algorithm.
    pub merge_gamma: f64,
    /// Merging variant used in the post-processing stage.
    pub variant: MergingVariant,
}

impl LearnerConfig {
    /// The configuration used in the paper's experiments for a given `k`, `ε`
    /// and `δ`.
    pub fn paper(k: usize, epsilon: f64, delta: f64) -> Self {
        Self {
            k,
            epsilon,
            delta,
            merge_delta: 1000.0,
            merge_gamma: 1.0,
            variant: MergingVariant::Pairs,
        }
    }

    /// The number of samples the learner will draw.
    pub fn sample_size(&self) -> usize {
        sample_complexity(self.epsilon, self.delta)
    }

    fn merging_params(&self) -> Result<MergingParams> {
        MergingParams::new(self.k, self.merge_delta, self.merge_gamma)
    }
}

/// The outcome of one run of the agnostic learner.
#[derive(Debug, Clone, PartialEq)]
pub struct LearnedHistogram {
    /// The learned histogram (an approximation of the unknown distribution).
    pub histogram: Histogram,
    /// Number of samples drawn.
    pub num_samples: usize,
    /// `ℓ₂` distance between the learned histogram and the *empirical*
    /// distribution (an observable proxy for the true error).
    pub empirical_error: f64,
}

/// Stage 2 only: learn an `O(k)`-histogram from an explicit sample multiset.
///
/// This is the entry point used when samples come from an external source
/// (e.g. rows sampled from a database table).
pub fn learn_histogram_from_samples(
    domain: usize,
    samples: &[usize],
    config: &LearnerConfig,
) -> Result<LearnedHistogram> {
    let empirical = EmpiricalDistribution::from_samples(domain, samples)?;
    learn_histogram_from_empirical(&empirical.to_sparse(), samples.len(), config)
}

/// Stage 2 on an already-materialized empirical distribution `p̂_m` (stored as
/// a sparse function); the entry point of the [`SampleLearner`](crate::SampleLearner)
/// (crate::SampleLearner) estimator when the signal carries its own samples.
pub fn learn_histogram_from_empirical(
    empirical: &hist_core::SparseFunction,
    num_samples: usize,
    config: &LearnerConfig,
) -> Result<LearnedHistogram> {
    let params = config.merging_params()?;
    let histogram = match config.variant {
        MergingVariant::Pairs => construct_histogram(empirical, &params)?,
        MergingVariant::Groups => construct_histogram_fast(empirical, &params)?,
    };
    let empirical_error = histogram.l2_distance_sparse(empirical)?;
    Ok(LearnedHistogram { histogram, num_samples, empirical_error })
}

/// The full two-stage learner of Theorem 2.1: draws `m = O(ε⁻²·log(1/δ))`
/// samples from `p` using the supplied random generator, then post-processes
/// the empirical distribution with the merging algorithm.
pub fn learn_histogram<R: Rng + ?Sized>(
    p: &Distribution,
    config: &LearnerConfig,
    rng: &mut R,
) -> Result<LearnedHistogram> {
    let m = config.sample_size();
    let sampler = AliasSampler::new(p)?;
    let samples = sampler.sample_many(m, rng);
    learn_histogram_from_samples(p.pmf().len(), &samples, config)
}

/// Convenience wrapper drawing a caller-specified number of samples instead of
/// the `ε`-derived sample size (used by the Figure 2 learning-curve experiment).
pub fn learn_histogram_with_sample_size<R: Rng + ?Sized>(
    p: &Distribution,
    num_samples: usize,
    config: &LearnerConfig,
    rng: &mut R,
) -> Result<LearnedHistogram> {
    let sampler = AliasSampler::new(p)?;
    let samples = sampler.sample_many(num_samples, rng);
    learn_histogram_from_samples(p.pmf().len(), &samples, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hist_core::DiscreteFunction;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A 4-piece histogram distribution over [0, 120).
    fn step_distribution() -> Distribution {
        let weights: Vec<f64> = (0..120)
            .map(|i| match i {
                _ if i < 30 => 1.0,
                _ if i < 60 => 4.0,
                _ if i < 100 => 0.5,
                _ => 2.0,
            })
            .collect();
        Distribution::from_weights(&weights).unwrap()
    }

    fn l2_to_distribution(h: &Histogram, p: &Distribution) -> f64 {
        let hd = h.to_dense();
        let pd = p.pmf();
        hd.iter().zip(pd).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt()
    }

    #[test]
    fn theorem_2_1_guarantee_on_a_histogram_distribution() {
        // The target is itself a 4-histogram, so opt_4 = 0 and the learned
        // histogram must be ε-close to p with high probability.
        let p = step_distribution();
        let config = LearnerConfig::paper(4, 0.02, 0.05);
        let mut rng = StdRng::seed_from_u64(2015);
        let learned = learn_histogram(&p, &config, &mut rng).unwrap();

        assert_eq!(learned.num_samples, config.sample_size());
        let bound = MergingParams::new(config.k, config.merge_delta, config.merge_gamma)
            .unwrap()
            .output_pieces_bound();
        assert!(learned.histogram.num_pieces() <= bound);
        let err = l2_to_distribution(&learned.histogram, &p);
        assert!(err <= 2.0 * config.epsilon, "error {err} exceeds 2ε = {}", 2.0 * config.epsilon);
    }

    #[test]
    fn fast_variant_achieves_similar_error() {
        let p = step_distribution();
        let mut config = LearnerConfig::paper(4, 0.03, 0.05);
        config.variant = MergingVariant::Groups;
        let mut rng = StdRng::seed_from_u64(99);
        let learned = learn_histogram(&p, &config, &mut rng).unwrap();
        let err = l2_to_distribution(&learned.histogram, &p);
        assert!(err <= 3.0 * config.epsilon, "fastmerging error {err}");
    }

    #[test]
    fn more_samples_give_smaller_error() {
        let p = step_distribution();
        let config = LearnerConfig::paper(4, 0.05, 0.1);
        let mut rng = StdRng::seed_from_u64(5);
        let mut errors = Vec::new();
        for &m in &[200usize, 2_000, 20_000] {
            // Average a few trials to tame sampling noise.
            let mut total = 0.0;
            for _ in 0..5 {
                let learned = learn_histogram_with_sample_size(&p, m, &config, &mut rng).unwrap();
                total += l2_to_distribution(&learned.histogram, &p);
            }
            errors.push(total / 5.0);
        }
        assert!(errors[2] < errors[0], "learning curve must decrease: {errors:?}");
        assert!(errors[2] < 0.02);
    }

    #[test]
    fn empirical_error_is_reported_consistently() {
        let p = step_distribution();
        let config = LearnerConfig::paper(4, 0.05, 0.1);
        let mut rng = StdRng::seed_from_u64(77);
        let sampler = AliasSampler::new(&p).unwrap();
        let samples = sampler.sample_many(5_000, &mut rng);
        let learned = learn_histogram_from_samples(120, &samples, &config).unwrap();
        let emp = EmpiricalDistribution::from_samples(120, &samples).unwrap();
        let direct = learned.histogram.l2_distance_sparse(&emp.to_sparse()).unwrap();
        assert!((learned.empirical_error - direct).abs() < 1e-12);
    }

    #[test]
    fn learner_output_lives_on_the_right_domain() {
        let p = Distribution::uniform(1_000).unwrap();
        let config = LearnerConfig::paper(5, 0.1, 0.2);
        let mut rng = StdRng::seed_from_u64(1);
        let learned = learn_histogram(&p, &config, &mut rng).unwrap();
        assert_eq!(learned.histogram.domain(), 1_000);
    }
}
