//! The learning-from-samples experiment (Figure 2 of the paper), driven
//! through the unified [`Estimator`] API.
//!
//! For each learning data set (`hist'`, `poly'`, `dow'`) and each sample size
//! `m`, we draw `m` samples, wrap them as a [`Signal`], fit a histogram with
//! `exactdp` (exact V-optimal fit to the empirical distribution), `merging`
//! and `merging2`, and record the mean and standard deviation of the `ℓ₂`
//! error to the *true* distribution over a number of independent trials,
//! together with the `opt_k` reference line (the error of the best
//! `k`-histogram fit to the true distribution).

use approx_hist::{Distribution, Estimator, EstimatorBuilder, EstimatorKind, Signal, Synopsis};
use hist_datasets as datasets;
use hist_sampling::AliasSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The three estimators plotted in the paper's Figure 2.
fn figure2_estimators(k: usize) -> Vec<Box<dyn Estimator>> {
    let builder = EstimatorBuilder::new(k);
    [EstimatorKind::ExactDp, EstimatorKind::Merging, EstimatorKind::Merging2]
        .into_iter()
        .map(|kind| kind.build(builder))
        .collect()
}

/// One learning data set: a true distribution plus its piece budget.
#[derive(Debug, Clone, PartialEq)]
pub struct LearningDataset {
    /// Data-set name (`hist'`, `poly'`, `dow'`).
    pub name: String,
    /// The true underlying distribution samples are drawn from.
    pub distribution: Distribution,
    /// Piece budget `k` used for this data set.
    pub k: usize,
}

/// The three learning data sets of Section 5.2: the Figure 1 signals,
/// subsampled to a support of roughly 1000 and normalized.
fn figure2_datasets() -> Vec<LearningDataset> {
    let hist = datasets::to_distribution(&datasets::hist_dataset()).expect("valid signal");
    let poly = datasets::subsample_to_distribution(&datasets::poly_dataset(), 4).expect("valid");
    let dow = datasets::subsample_to_distribution(&datasets::dow_dataset(), 16).expect("valid");
    vec![
        LearningDataset { name: "hist'".into(), distribution: hist, k: 10 },
        LearningDataset { name: "poly'".into(), distribution: poly, k: 10 },
        LearningDataset { name: "dow'".into(), distribution: dow, k: 50 },
    ]
}

/// One point of a learning curve.
#[derive(Debug, Clone, PartialEq)]
pub struct LearningPoint {
    /// Number of samples `m`.
    pub samples: usize,
    /// Mean `ℓ₂` error to the true distribution over the trials.
    pub mean_error: f64,
    /// Standard deviation of the error over the trials.
    pub std_error: f64,
}

/// A learning curve for one estimator on one data set.
#[derive(Debug, Clone, PartialEq)]
pub struct LearningCurve {
    /// Estimator name.
    pub algorithm: String,
    /// Curve points, one per sample size.
    pub points: Vec<LearningPoint>,
}

/// The result of the Figure 2 experiment on one data set.
#[derive(Debug, Clone, PartialEq)]
pub struct LearningExperiment {
    /// Data-set name.
    pub dataset: String,
    /// Error of the best `k`-histogram fit to the *true* distribution
    /// (the `opt_k` reference line of Figure 2).
    pub opt_k: f64,
    /// One curve per estimator.
    pub curves: Vec<LearningCurve>,
}

/// `ℓ₂` distance of a fitted synopsis to the true distribution.
pub fn error_to_distribution(synopsis: &Synopsis, p: &Distribution) -> f64 {
    synopsis.to_dense().iter().zip(p.pmf()).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt()
}

/// The `opt_k` reference line: the error of the best `k`-histogram fit to the
/// true distribution, computed through the exact-DP estimator.
pub fn opt_k_reference(p: &Distribution, k: usize) -> f64 {
    let signal = Signal::from_slice(p.pmf()).expect("valid pmf");
    EstimatorKind::ExactDp
        .build(EstimatorBuilder::new(k))
        .fit(&signal)
        .expect("valid distribution")
        .l2_error(&signal)
        .expect("same domain")
}

/// Runs the Figure 2 experiment on one data set.
pub fn run_learning_experiment(
    dataset: &LearningDataset,
    estimators: &[Box<dyn Estimator>],
    sample_sizes: &[usize],
    trials: usize,
    seed: u64,
) -> LearningExperiment {
    let sampler = AliasSampler::new(&dataset.distribution).expect("valid distribution");
    let opt_k = opt_k_reference(&dataset.distribution, dataset.k);

    let mut curves: Vec<LearningCurve> = estimators
        .iter()
        .map(|e| LearningCurve { algorithm: e.name().to_string(), points: Vec::new() })
        .collect();

    for &m in sample_sizes {
        let mut errors: Vec<Vec<f64>> = vec![Vec::with_capacity(trials); estimators.len()];
        for trial in 0..trials {
            let mut rng = StdRng::seed_from_u64(seed ^ (m as u64) << 20 ^ trial as u64);
            let samples = sampler.sample_many(m, &mut rng);
            let signal = Signal::from_samples(dataset.distribution.pmf().len(), &samples)
                .expect("non-empty sample set");
            for (e_idx, estimator) in estimators.iter().enumerate() {
                let synopsis = estimator.fit(&signal).expect("valid empirical signal");
                errors[e_idx].push(error_to_distribution(&synopsis, &dataset.distribution));
            }
        }
        for (e_idx, estimator_errors) in errors.iter().enumerate() {
            let mean = estimator_errors.iter().sum::<f64>() / trials as f64;
            let var = estimator_errors.iter().map(|e| (e - mean) * (e - mean)).sum::<f64>()
                / (trials.max(2) - 1) as f64;
            curves[e_idx].points.push(LearningPoint {
                samples: m,
                mean_error: mean,
                std_error: var.sqrt(),
            });
        }
    }

    LearningExperiment { dataset: dataset.name.clone(), opt_k, curves }
}

/// The full Figure 2: all data sets, all estimators, the requested sample
/// sizes and trial count.
pub fn figure2(sample_sizes: &[usize], trials: usize, seed: u64) -> Vec<LearningExperiment> {
    figure2_datasets()
        .iter()
        .map(|dataset| {
            run_learning_experiment(
                dataset,
                &figure2_estimators(dataset.k),
                sample_sizes,
                trials,
                seed,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learning_curves_decrease_towards_opt_k() {
        let dataset = &figure2_datasets()[0]; // hist'
        let builder = EstimatorBuilder::new(dataset.k);
        let estimators: Vec<Box<dyn Estimator>> =
            vec![EstimatorKind::Merging.build(builder), EstimatorKind::Merging2.build(builder)];
        let experiment = run_learning_experiment(dataset, &estimators, &[500, 4_000], 4, 7);
        assert_eq!(experiment.curves.len(), 2);
        for curve in &experiment.curves {
            assert_eq!(curve.points.len(), 2);
            let small_m = &curve.points[0];
            let large_m = &curve.points[1];
            assert!(
                large_m.mean_error < small_m.mean_error,
                "{}: error should shrink with more samples ({} vs {})",
                curve.algorithm,
                large_m.mean_error,
                small_m.mean_error
            );
            // With 4000 samples the error approaches the opt_k floor but cannot be
            // dramatically below it minus the sampling noise.
            assert!(large_m.mean_error < 5.0 * (experiment.opt_k + 0.02));
        }
    }

    #[test]
    fn figure2_datasets_match_the_paper_description() {
        let sets = figure2_datasets();
        assert_eq!(sets.len(), 3);
        assert_eq!(sets[0].distribution.pmf().len(), 1_000);
        assert_eq!(sets[1].distribution.pmf().len(), 1_000);
        assert_eq!(sets[2].distribution.pmf().len(), 1_024);
        assert_eq!(sets[2].k, 50);
    }

    #[test]
    fn exactdp_curve_is_produced_and_finite() {
        let dataset = &figure2_datasets()[0];
        let estimators: Vec<Box<dyn Estimator>> =
            vec![EstimatorKind::ExactDp.build(EstimatorBuilder::new(dataset.k))];
        let experiment = run_learning_experiment(dataset, &estimators, &[1_000], 2, 3);
        let point = &experiment.curves[0].points[0];
        assert!(point.mean_error.is_finite() && point.mean_error > 0.0);
        assert!(point.std_error.is_finite());
        assert!(experiment.opt_k > 0.0);
    }
}
