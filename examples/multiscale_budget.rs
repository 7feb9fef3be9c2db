//! Multi-scale construction (Theorem 2.2): one pass over the data yields good
//! histograms for *every* size at once, so the right size can be picked after
//! the fact — here, the smallest histogram meeting an error budget.
//!
//! The samples form the empirical distribution `p̂_m` with
//! `Signal::from_samples`; `Hierarchical::fit_hierarchy` fits the whole
//! hierarchy on it (the full Pareto curve, which a single fitted synopsis
//! intentionally does not carry), and `Hierarchical::fit` serves one level.
//!
//! ```text
//! cargo run --release --example multiscale_budget
//! ```

use approx_hist::datasets::{dow_dataset, subsample_to_distribution};
use approx_hist::sampling::{sample_complexity, AliasSampler};
use approx_hist::{Estimator, EstimatorBuilder, Hierarchical, Signal};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // The unknown distribution (dow'), learned from m(ε = 0.005, δ = 0.05)
    // samples.
    let p = subsample_to_distribution(&dow_dataset(), 16).expect("valid series");
    let mut rng = StdRng::seed_from_u64(7);
    let sampler = AliasSampler::new(&p).expect("valid distribution");
    let samples = sampler.sample_many(sample_complexity(0.005, 0.05), &mut rng);
    let empirical = Signal::from_samples(p.pmf().len(), &samples).expect("non-empty samples");
    let hierarchical = Hierarchical::new(EstimatorBuilder::new(50));
    let hierarchy = hierarchical.fit_hierarchy(&empirical).expect("valid empirical signal");

    println!(
        "domain n = {}, samples drawn m = {}, hierarchy levels = {}",
        p.pmf().len(),
        samples.len(),
        hierarchy.num_levels()
    );

    // The whole Pareto curve from one construction.
    println!("\nPareto curve (pieces vs estimated error):");
    println!("{:>8}  {:>12}", "pieces", "error est.");
    for (pieces, error) in hierarchy.pareto_curve() {
        println!("{pieces:>8}  {error:>12.5}");
    }

    // Pick the smallest histogram within an error budget, after the fact: the
    // levels run from the finest to the coarsest.
    println!("\nsmallest histogram within a given error budget:");
    println!("{:>10}  {:>8}  {:>12}", "budget", "pieces", "true error");
    for budget in [0.02f64, 0.01, 0.005, 0.002] {
        match hierarchy.levels().iter().rev().find(|level| level.error() <= budget) {
            Some(level) => {
                let true_error = level.histogram().l2_distance_dense(p.pmf()).expect("same domain");
                println!("{budget:>10.3}  {:>8}  {true_error:>12.5}", level.num_pieces());
            }
            None => println!("{budget:>10.3}  {:>8}  {:>12}", "-", "infeasible"),
        }
    }

    // The Theorem 2.2 query for a specific k as one synopsis: the level the
    // hierarchical estimator serves for the builder's k = 50.
    let synopsis = hierarchical.fit(&empirical).expect("valid empirical signal");
    println!(
        "\nfor k = 50: {} pieces, empirical error {:.5} (Theorem 2.2 guarantees ≤ 2·opt_50 + ε)",
        synopsis.num_pieces(),
        synopsis.l2_error(&empirical).expect("same domain"),
    );
}
