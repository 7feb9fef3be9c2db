//! Integration tests for the sampling-based learners (Theorems 2.1, 2.2 and
//! 2.3) against known ground-truth distributions. Every learner runs through
//! the estimator API: stage 1 forms the empirical distribution `p̂_m` with
//! `Signal::from_samples` (or lets `SampleLearner` draw its own samples),
//! stage 2 fits it with merging (2.1), `Hierarchical::fit_hierarchy` (2.2) or
//! `PiecewisePoly` (2.3).

use approx_hist::sampling::{sample_complexity, AliasSampler};
use approx_hist::{
    Distribution, Estimator, EstimatorBuilder, EstimatorKind, FastMerging, GreedyMerging,
    Hierarchical, Histogram, PiecewisePoly, SampleLearner, Signal, Synopsis,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn l2_to_distribution(h: &Histogram, p: &Distribution) -> f64 {
    h.l2_distance_dense(p.pmf()).unwrap()
}

fn synopsis_error(synopsis: &Synopsis, p: &Distribution) -> f64 {
    l2_to_distribution(synopsis.histogram().expect("histogram synopsis"), p)
}

fn polynomial_error(synopsis: &Synopsis, p: &Distribution) -> f64 {
    synopsis.to_dense().iter().zip(p.pmf()).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt()
}

/// Stage 1 of every learner: `m` i.i.d. draws from `p` as the empirical
/// distribution `p̂_m`.
fn empirical(p: &Distribution, m: usize, rng: &mut StdRng) -> Signal {
    let samples = AliasSampler::new(p).unwrap().sample_many(m, rng);
    Signal::from_samples(p.pmf().len(), &samples).unwrap()
}

/// A 6-piece histogram distribution over a domain of 600.
fn ground_truth() -> Distribution {
    let weights: Vec<f64> = (0..600)
        .map(|i| match i / 100 {
            0 => 1.0,
            1 => 5.0,
            2 => 2.0,
            3 => 8.0,
            4 => 0.5,
            _ => 3.0,
        })
        .collect();
    Distribution::from_weights(&weights).unwrap()
}

/// A 4-piece histogram distribution over [0, 120).
fn four_steps() -> Distribution {
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

/// A 5-piece histogram distribution over [0, n).
fn five_steps(n: usize) -> Distribution {
    let weights: Vec<f64> = (0..n)
        .map(|i| match (5 * i) / n {
            0 => 2.0,
            1 => 6.0,
            2 => 1.0,
            3 => 4.0,
            _ => 0.5,
        })
        .collect();
    Distribution::from_weights(&weights).unwrap()
}

/// A "triangle" distribution: piecewise linear with 2 pieces.
fn triangle(n: usize) -> Distribution {
    let weights: Vec<f64> = (0..n)
        .map(|i| {
            let x = i as f64 / (n - 1) as f64;
            if x < 0.5 {
                x
            } else {
                1.0 - x
            }
        })
        .map(|w| w + 1e-3)
        .collect();
    Distribution::from_weights(&weights).unwrap()
}

/// The best-`k`-histogram error against the true distribution, via the
/// exact-DP estimator.
fn opt_k_error(p: &Distribution, k: usize) -> f64 {
    let truth = Signal::from_slice(p.pmf()).unwrap();
    EstimatorKind::ExactDp
        .build(EstimatorBuilder::new(k))
        .fit(&truth)
        .unwrap()
        .l2_error(&truth)
        .unwrap()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn empirical_signal_entries_are_counts_over_m_to_the_bit() {
    // Repeated samples, out of order: each entry is count / m, not 1/m summed.
    let signal = Signal::from_samples(10, &[7, 3, 3, 1, 3, 7, 3]).unwrap();
    let mut want = vec![0.0; 10];
    want[1] = 1.0 / 7.0;
    want[3] = 4.0 / 7.0;
    want[7] = 2.0 / 7.0;
    assert_eq!(bits(&signal.dense_values()), bits(&want));
    assert_eq!(signal.as_sparse().sparsity(), 3);
    assert_eq!(signal.num_samples(), Some(7));

    let weights: Vec<f64> = (0..500).map(|i| 1.0 + ((i * 17) % 29) as f64).collect();
    let p = Distribution::from_weights(&weights).unwrap();
    let sampler = AliasSampler::new(&p).unwrap();
    for (m, seed) in [(1_000usize, 1u64), (10_000, 2), (100_000, 3)] {
        let samples = sampler.sample_many(m, &mut StdRng::seed_from_u64(seed));
        let mut counts = vec![0usize; 500];
        for &s in &samples {
            counts[s] += 1;
        }
        let signal = Signal::from_samples(500, &samples).unwrap();
        let differing = (signal.dense_values().iter().zip(&counts))
            .filter(|&(v, &c)| v.to_bits() != (c as f64 / m as f64).to_bits())
            .count();
        assert_eq!(differing, 0, "m = {m}: {differing} of 500 entries differ from count / m");
        assert_eq!(signal.as_sparse().sparsity(), counts.iter().filter(|&&c| c > 0).count());
    }
}

#[test]
fn self_sampling_learner_equals_merging_on_the_empirical_signal_bit_for_bit() {
    // SampleLearner on a weights signal draws with StdRng(seed) from the alias
    // sampler and fits p̂_m: the same bits as the merging estimators fitted
    // to Signal::from_samples of the same draws.
    let weights: Vec<f64> = (0..500).map(|i| 1.0 + ((i * 17) % 29) as f64).collect();
    let p = Distribution::from_weights(&weights).unwrap();
    let signal = Signal::from_slice(&weights).unwrap();
    for (m, seed) in [(1_000usize, 11u64), (10_000, 12), (100_000, 13)] {
        let builder = EstimatorBuilder::new(10).samples(m).seed(seed);
        let drawn = empirical(&p, m, &mut StdRng::seed_from_u64(seed));
        let pairs = [
            (SampleLearner::new(builder).fit(&signal), GreedyMerging::new(builder).fit(&drawn)),
            (SampleLearner::fast(builder).fit(&signal), FastMerging::new(builder).fit(&drawn)),
        ];
        for (learned, merged) in pairs {
            let (learned, merged) = (learned.unwrap(), merged.unwrap());
            let (h, g) = (learned.histogram().unwrap(), merged.histogram().unwrap());
            assert_eq!(h.partition(), g.partition(), "m = {m}, {}", learned.estimator());
            assert_eq!(bits(h.values()), bits(g.values()), "m = {m}, {}", learned.estimator());
        }
    }
}

#[test]
fn theorem_2_1_error_bound_holds_on_a_histogram_target() {
    // opt_6 = 0, so the learned error must be O(ε).
    let p = ground_truth();
    let epsilon = 0.02;
    let learner =
        SampleLearner::new(EstimatorBuilder::new(6).epsilon(epsilon).fail_prob(0.05).seed(1));
    let signal = Signal::from_slice(p.pmf()).unwrap();
    let learned = learner.fit(&signal).unwrap();
    let err = synopsis_error(&learned, &p);
    assert!(err <= 2.0 * epsilon, "error {err} vs 2ε = {}", 2.0 * epsilon);
    assert!(learned.num_pieces() <= 15, "O(k) pieces for k = 6");
}

#[test]
fn theorem_2_1_guarantee_with_the_paper_sample_size() {
    // The target is itself a 4-histogram, so opt_4 = 0 and the learned
    // histogram must be ε-close to p with high probability.
    let p = four_steps();
    let epsilon = 0.02;
    let builder = EstimatorBuilder::new(4).epsilon(epsilon).fail_prob(0.05).seed(2015);
    let learner = SampleLearner::new(builder);
    assert_eq!(learner.sample_size(), sample_complexity(epsilon, 0.05));
    let learned = learner.fit(&Signal::from_slice(p.pmf()).unwrap()).unwrap();

    let bound = builder.merging_params().unwrap().output_pieces_bound();
    assert!(learned.num_pieces() <= bound);
    let err = synopsis_error(&learned, &p);
    assert!(err <= 2.0 * epsilon, "error {err} exceeds 2ε = {}", 2.0 * epsilon);
}

#[test]
fn theorem_2_1_group_merging_achieves_similar_error() {
    let p = four_steps();
    let epsilon = 0.03;
    let learner =
        SampleLearner::fast(EstimatorBuilder::new(4).epsilon(epsilon).fail_prob(0.05).seed(99));
    let learned = learner.fit(&Signal::from_slice(p.pmf()).unwrap()).unwrap();
    let err = synopsis_error(&learned, &p);
    assert!(err <= 3.0 * epsilon, "fastmerging error {err}");
}

#[test]
fn theorem_2_1_more_samples_give_smaller_error() {
    let p = four_steps();
    let merging = GreedyMerging::new(EstimatorBuilder::new(4));
    let mut rng = StdRng::seed_from_u64(5);
    let mut errors = Vec::new();
    for m in [200usize, 2_000, 20_000] {
        // Average a few trials to tame sampling noise.
        let mut total = 0.0;
        for _ in 0..5 {
            let learned = merging.fit(&empirical(&p, m, &mut rng)).unwrap();
            total += synopsis_error(&learned, &p);
        }
        errors.push(total / 5.0);
    }
    assert!(errors[2] < errors[0], "learning curve must decrease: {errors:?}");
    assert!(errors[2] < 0.02);
}

#[test]
fn theorem_2_1_output_lives_on_the_target_domain() {
    let p = Distribution::uniform(1_000).unwrap();
    let learner = SampleLearner::new(EstimatorBuilder::new(5).epsilon(0.1).fail_prob(0.2).seed(1));
    let learned = learner.fit(&Signal::from_slice(p.pmf()).unwrap()).unwrap();
    assert_eq!(learned.domain(), 1_000);
}

#[test]
fn theorem_2_1_against_the_true_opt_k_on_a_non_histogram_target() {
    // A smooth target: opt_k > 0, the guarantee is ‖h − p‖ ≤ 2·opt_k + ε.
    let weights: Vec<f64> =
        (0..500).map(|i| ((i as f64 / 500.0) * std::f64::consts::PI).sin() + 0.01).collect();
    let p = Distribution::from_weights(&weights).unwrap();
    let k = 8;
    let opt_k = opt_k_error(&p, k);

    let epsilon = 0.01;
    let learner =
        SampleLearner::new(EstimatorBuilder::new(k).epsilon(epsilon).fail_prob(0.05).seed(3));
    let learned = learner.fit(&Signal::from_slice(p.pmf()).unwrap()).unwrap();
    let err = synopsis_error(&learned, &p);
    assert!(
        err <= 2.0 * opt_k + 2.0 * epsilon,
        "error {err} vs 2·opt + 2ε = {}",
        2.0 * opt_k + 2.0 * epsilon
    );
}

#[test]
fn learning_curves_flatten_at_the_opt_k_floor() {
    let p = ground_truth();
    let signal = Signal::from_slice(p.pmf()).unwrap();
    let mut previous = f64::INFINITY;
    for (idx, m) in [300usize, 3_000, 30_000].into_iter().enumerate() {
        let mut total = 0.0;
        for trial in 0..3 {
            let learner = SampleLearner::new(
                EstimatorBuilder::new(6)
                    .epsilon(0.05)
                    .samples(m)
                    .seed(9 + 100 * idx as u64 + trial),
            );
            let learned = learner.fit(&signal).unwrap();
            total += synopsis_error(&learned, &p);
        }
        let mean = total / 3.0;
        assert!(
            mean <= previous * 1.05,
            "error must (roughly) decrease with m: {mean} vs {previous}"
        );
        previous = mean;
    }
    assert!(previous < 0.01, "with 30k samples the error is close to opt_6 = 0, got {previous}");
}

#[test]
fn both_merging_variants_learn_equally_well() {
    let p = ground_truth();
    let signal = Signal::from_slice(p.pmf()).unwrap();
    let epsilon = 0.03;
    let builder = EstimatorBuilder::new(6).epsilon(epsilon).seed(13);

    let pairs = SampleLearner::new(builder).fit(&signal).unwrap();
    let groups = SampleLearner::fast(builder.seed(14)).fit(&signal).unwrap();
    let pairs_err = synopsis_error(&pairs, &p);
    let groups_err = synopsis_error(&groups, &p);
    assert!(pairs_err <= 2.0 * epsilon);
    assert!(groups_err <= 3.0 * epsilon);
}

#[test]
fn theorem_2_2_multiscale_learner_guarantees_every_k() {
    let p = ground_truth();
    let mut rng = StdRng::seed_from_u64(21);
    let eps = 0.02;
    let signal = empirical(&p, sample_complexity(eps, 0.05), &mut rng);
    let hierarchy = Hierarchical::new(EstimatorBuilder::new(1)).fit_hierarchy(&signal).unwrap();

    for k in [1usize, 2, 4, 6, 12] {
        let (h, estimate) = hierarchy.histogram_for_k(k);
        assert!(h.num_pieces() <= 8 * k);
        let opt_k = opt_k_error(&p, k);
        let true_err = l2_to_distribution(&h, &p);
        // (i) of Theorem 2.2.
        assert!(
            true_err <= 2.0 * opt_k + 3.0 * eps,
            "k={k}: error {true_err} vs 2·opt + 3ε = {}",
            2.0 * opt_k + 3.0 * eps
        );
        // (ii) of Theorem 2.2: the estimate brackets the true error.
        assert!(
            (true_err - estimate).abs() <= 2.0 * eps,
            "k={k}: estimate {estimate} vs {true_err}"
        );
    }
}

#[test]
fn theorem_2_2_estimates_track_the_error_on_a_five_step_target() {
    let p = five_steps(300);
    let mut rng = StdRng::seed_from_u64(22);
    let eps = 0.02;
    let signal = empirical(&p, sample_complexity(eps, 0.05), &mut rng);
    let hierarchy = Hierarchical::new(EstimatorBuilder::new(1)).fit_hierarchy(&signal).unwrap();

    for k in [1usize, 2, 5, 10, 25] {
        let (h, estimate) = hierarchy.histogram_for_k(k);
        assert!(h.num_pieces() <= 8 * k, "k={k}: {} pieces", h.num_pieces());
        let true_err = l2_to_distribution(&h, &p);
        // (ii): the estimate tracks the true error within ±ε (2ε of slack for
        // the sampling fluctuation of this single trial).
        assert!(
            (true_err - estimate).abs() <= 2.0 * eps,
            "k={k}: estimate {estimate} vs true {true_err}"
        );
    }
    // (i) for k = 5: the target is a 5-histogram, so opt_5 = 0 and the output
    // must be O(ε)-close to p.
    let (h5, _) = hierarchy.histogram_for_k(5);
    assert!(l2_to_distribution(&h5, &p) <= 3.0 * eps);

    assert_eq!(signal.num_samples(), Some(sample_complexity(eps, 0.05)));
    assert!(hierarchy.num_levels() >= 2);
}

#[test]
fn theorem_2_2_pareto_curve_is_monotone() {
    let p = five_steps(200);
    let mut rng = StdRng::seed_from_u64(4);
    let signal = empirical(&p, sample_complexity(0.05, 0.1), &mut rng);
    let curve =
        Hierarchical::new(EstimatorBuilder::new(1)).fit_hierarchy(&signal).unwrap().pareto_curve();
    assert!(!curve.is_empty());
    for w in curve.windows(2) {
        assert!(w[1].0 < w[0].0, "pieces must strictly decrease");
        assert!(w[1].1 + 1e-12 >= w[0].1, "error estimates cannot decrease");
    }
}

#[test]
fn theorem_2_2_budget_pick_is_the_coarsest_feasible_level() {
    let p = five_steps(240);
    let mut rng = StdRng::seed_from_u64(9);
    let signal = empirical(&p, sample_complexity(0.03, 0.1), &mut rng);
    let hierarchy = Hierarchical::new(EstimatorBuilder::new(1)).fit_hierarchy(&signal).unwrap();
    // The smallest histogram whose error estimate meets the budget: levels run
    // from the finest to the coarsest.
    let within = |budget: f64| hierarchy.levels().iter().rev().find(|l| l.error() <= budget);

    let budget = 0.05;
    let level = within(budget).expect("feasible budget");
    let h = level.histogram();
    assert!(h.l2_distance_sparse(&signal.as_sparse()).unwrap() <= budget + 1e-12);
    // No coarser level fits the budget.
    for other in hierarchy.levels() {
        if other.num_pieces() < level.num_pieces() {
            assert!(other.error() > budget);
        }
    }
    // An impossible budget has no level.
    assert!(within(-1.0).is_none());
}

#[test]
fn theorem_2_3_linear_pieces_capture_a_triangle_distribution() {
    let p = triangle(400);
    let epsilon = 0.01;
    let mut rng = StdRng::seed_from_u64(17);
    let signal = empirical(&p, sample_complexity(epsilon, 0.05), &mut rng);
    let learned = PiecewisePoly::new(EstimatorBuilder::new(2).degree(1)).fit(&signal).unwrap();
    let err = polynomial_error(&learned, &p);
    // The target is a 2-piece degree-1 function, so opt = 0 and the error is O(ε).
    assert!(err <= 3.0 * epsilon, "error {err}");
    assert!(learned.polynomial().unwrap().degree() <= 1);
}

#[test]
fn theorem_2_3_degree_zero_learns_like_the_histogram_learner() {
    let p = triangle(200);
    let mut rng = StdRng::seed_from_u64(3);
    let signal = empirical(&p, sample_complexity(0.02, 0.1), &mut rng);
    let learned = PiecewisePoly::new(EstimatorBuilder::new(6).degree(0)).fit(&signal).unwrap();
    assert_eq!(learned.polynomial().unwrap().degree(), 0);
    assert!(polynomial_error(&learned, &p) < 0.15);
}

#[test]
fn theorem_2_3_higher_degree_helps_on_smooth_targets() {
    let n = 500;
    let weights: Vec<f64> = (0..n)
        .map(|i| {
            let x = i as f64 / n as f64 * std::f64::consts::PI;
            x.sin() + 1e-3
        })
        .collect();
    let p = Distribution::from_weights(&weights).unwrap();
    let signal = empirical(&p, 60_000, &mut StdRng::seed_from_u64(8));

    let fit = |degree| PiecewisePoly::new(EstimatorBuilder::new(3).degree(degree)).fit(&signal);
    let err_flat = polynomial_error(&fit(0).unwrap(), &p);
    let err_cubic = polynomial_error(&fit(3).unwrap(), &p);
    assert!(
        err_cubic < err_flat,
        "cubic pieces ({err_cubic}) should beat constants ({err_flat}) on a smooth target"
    );
}
