//! Agnostic learning from samples (Theorem 2.1): approximate an unknown
//! distribution from i.i.d. draws — without ever reading the full domain —
//! and watch the error approach the best achievable `opt_k` as the sample
//! size grows. The samples form the empirical distribution `p̂_m` with
//! `Signal::from_samples`, and the paper's merging estimator fits it (the
//! pipeline of Figure 2); `SampleLearner` runs both stages itself, drawing
//! `m(ε, δ)` samples from the distribution it is given.
//!
//! ```text
//! cargo run --release --example learn_from_samples
//! ```

use approx_hist::datasets::{dow_dataset, subsample_to_distribution};
use approx_hist::sampling::{sample_complexity, AliasSampler};
use approx_hist::{
    Distribution, Estimator, EstimatorBuilder, EstimatorKind, SampleLearner, Signal, Synopsis,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `‖h − p‖₂` of a fitted synopsis against the true distribution.
fn l2_error(synopsis: &Synopsis, p: &Distribution) -> f64 {
    synopsis.to_dense().iter().zip(p.pmf()).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt()
}

fn main() {
    // The unknown distribution: the dow' learning data set of the paper
    // (the Dow-Jones-like series, subsampled 16x and normalized).
    let p = subsample_to_distribution(&dow_dataset(), 16).expect("valid series");
    let k = 50;
    let builder = EstimatorBuilder::new(k).epsilon(0.01).fail_prob(0.05);

    // The information-theoretically required sample size for ε = 0.01, δ = 0.05.
    println!(
        "domain size n = {}, target pieces k = {k}, m(ε=0.01, δ=0.05) = {}",
        p.pmf().len(),
        sample_complexity(0.01, 0.05)
    );

    // The best any k-histogram can do against the true distribution.
    let truth = Signal::from_slice(p.pmf()).expect("valid pmf");
    let opt_k = EstimatorKind::ExactDp
        .build(builder)
        .fit(&truth)
        .expect("valid pmf")
        .l2_error(&truth)
        .expect("same domain");
    println!("best achievable error with {k} pieces: opt_k = {opt_k:.5}\n");

    println!("{:>10}  {:>12}  {:>12}  {:>8}", "samples", "l2 error", "vs opt_k", "pieces");
    let sampler = AliasSampler::new(&p).expect("valid distribution");
    let mut rng = StdRng::seed_from_u64(2015);
    let merging = EstimatorKind::Merging.build(builder);
    for m in [500usize, 2_000, 8_000, 32_000, 128_000] {
        // Samples arrive from an external source (here: the alias sampler);
        // stage 2 fits their empirical distribution.
        let samples = sampler.sample_many(m, &mut rng);
        let signal = Signal::from_samples(p.pmf().len(), &samples).expect("non-empty samples");
        let synopsis = merging.fit(&signal).expect("valid empirical signal");
        let error = l2_error(&synopsis, &p);
        println!("{m:>10}  {error:>12.5}  {:>12.3}  {:>8}", error / opt_k, synopsis.num_pieces());
    }

    // Both stages in one estimator: the learner reads the true distribution
    // only to sample m(ε, δ) points from it (seeded by the builder).
    let learner = SampleLearner::new(builder);
    let synopsis = learner.fit(&truth).expect("valid pmf");
    let error = l2_error(&synopsis, &p);
    println!(
        "{:>10}  {error:>12.5}  {:>12.3}  {:>8}  (SampleLearner)",
        learner.sample_size(),
        error / opt_k,
        synopsis.num_pieces()
    );

    println!("\nThe error converges towards opt_k — the learner pays only an additive ε");
    println!("that shrinks like 1/sqrt(m), exactly as Theorem 2.1 predicts.");
}
