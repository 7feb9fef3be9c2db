//! Integration tests for the sample-complexity results: the concentration of
//! the empirical distribution (Lemma 3.1) and the two-point lower bound
//! construction (Theorem 3.2).

use approx_hist::sampling::{
    distinguish, sample_complexity, sample_lower_bound, two_point_pair, AliasSampler,
    DistinguisherVerdict,
};
use approx_hist::{Distribution, Signal};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn lemma_3_1_empirical_distribution_concentrates() {
    // ‖p̂_m − p‖₂ ≤ ε with the prescribed m = O(1/ε²·log(1/δ)), for a few ε.
    let weights: Vec<f64> = (0..500).map(|i| 1.0 + ((i * 17) % 29) as f64).collect();
    let p = Distribution::from_weights(&weights).unwrap();
    let sampler = AliasSampler::new(&p).unwrap();
    let mut rng = StdRng::seed_from_u64(5);

    for eps in [0.1f64, 0.03, 0.01] {
        let m = sample_complexity(eps, 0.05);
        let mut failures = 0;
        let trials = 10;
        for _ in 0..trials {
            let samples = sampler.sample_many(m, &mut rng);
            let emp = Signal::from_samples(500, &samples).unwrap();
            let emp = Distribution::new(emp.dense_values().into_owned()).unwrap();
            if emp.l2_distance(&p).unwrap() > eps {
                failures += 1;
            }
        }
        assert!(
            failures <= 1,
            "ε = {eps}: the empirical distribution missed the ε-ball {failures}/{trials} times"
        );
    }
}

#[test]
fn sample_complexity_grows_quadratically_in_one_over_epsilon() {
    let m1 = sample_complexity(0.1, 0.1);
    let m2 = sample_complexity(0.01, 0.1);
    let ratio = m2 as f64 / m1 as f64;
    assert!((80.0..120.0).contains(&ratio), "expected ≈ 100×, got {ratio}");
}

#[test]
fn theorem_3_2_lower_bound_construction() {
    let eps = 0.05;
    let (p1, p2) = two_point_pair(100, eps).unwrap();
    // ‖p1 − p2‖₂ = 2√2·ε, h² = Θ(ε²), lower bound = Ω(1/ε²·log(1/δ)).
    assert!((p1.l2_distance(&p2).unwrap() - 8.0f64.sqrt() * eps).abs() < 1e-12);
    let m_bound = sample_lower_bound(eps, 0.05).unwrap();
    // ln(1/δ)/(4·h²) ≈ ln(20)/(8ε²) ≈ 0.37/ε² for small ε.
    assert!(m_bound > (0.25 / (eps * eps)) as usize, "bound {m_bound} too weak");

    // Upper-bound side: with ~16× the lower bound the distinguisher succeeds
    // essentially always, confirming the Θ(1/ε²) scaling is tight.
    let mut rng = StdRng::seed_from_u64(11);
    let m = 16 * m_bound;
    let mut correct = 0;
    let trials = 20;
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
    assert!(correct >= trials - 1, "distinguisher succeeded only {correct}/{trials} times");
}

#[test]
fn below_the_lower_bound_learning_is_unreliable() {
    // With far fewer samples than the lower bound, an optimal learner (here: the
    // empirical maximum-likelihood rule) cannot reliably tell p1 from p2.
    let eps = 0.02;
    let (p1, _) = two_point_pair(2, eps).unwrap();
    let m = 10; // lower bound is in the thousands for ε = 0.02
    let mut rng = StdRng::seed_from_u64(3);
    let sampler = AliasSampler::new(&p1).unwrap();
    let trials = 400;
    let correct = (0..trials)
        .filter(|_| {
            let samples = sampler.sample_many(m, &mut rng);
            distinguish(&samples) == DistinguisherVerdict::FirstDistribution
        })
        .count();
    let rate = correct as f64 / trials as f64;
    assert!(rate < 0.7, "10 samples cannot reliably detect a 2% bias (rate {rate})");
}
