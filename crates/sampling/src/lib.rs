//! # hist-sampling
//!
//! The random-sampling side of the PODS 2015 histogram paper:
//!
//! * [`AliasSampler`] — draws i.i.d. samples from a data distribution in
//!   `O(1)` per sample;
//! * [`sample_complexity`] — the `O(ε⁻²·log(1/δ))` sample bound of Lemma 3.1;
//! * [`SampleLearner`] — the two-stage histogram learner of **Theorem 2.1** as
//!   an [`Estimator`](hist_core::Estimator) that draws its own samples;
//! * [`two_point_pair`], [`sample_lower_bound`] and [`distinguish`] — the
//!   two-point construction and Hellinger lower bound of **Theorem 3.2**.
//!
//! Every learner of the paper is the same two stages: draw `m` samples, form
//! the empirical distribution `p̂_m` with
//! [`Signal::from_samples`](hist_core::Signal::from_samples), and fit `p̂_m`
//! with an estimator. Theorem 2.1 fits it with `GreedyMerging` or
//! `FastMerging`, Theorem 2.2 with `Hierarchical::fit_hierarchy` (a good
//! histogram for every `k` at once), and Theorem 2.3 with
//! [`PiecewisePoly`](hist_core::PiecewisePoly).
//!
//! ```
//! use hist_core::{Distribution, Estimator, EstimatorBuilder, GreedyMerging, Hierarchical, Signal};
//! use hist_sampling::{sample_complexity, AliasSampler};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // An unknown 2-piece distribution over 50 items.
//! let weights: Vec<f64> = (0..50).map(|i| if i < 20 { 3.0 } else { 1.0 }).collect();
//! let p = Distribution::from_weights(&weights).unwrap();
//!
//! // Stage 1: m = O(ε⁻²·log(1/δ)) samples form p̂_m.
//! let m = sample_complexity(0.05, 0.1);
//! let samples = AliasSampler::new(&p).unwrap().sample_many(m, &mut StdRng::seed_from_u64(0));
//! let empirical = Signal::from_samples(50, &samples).unwrap();
//!
//! // Stage 2 of Theorem 2.1: with the paper's merging parameters the output
//! // has O(k) pieces.
//! let learned = GreedyMerging::new(EstimatorBuilder::new(2)).fit(&empirical).unwrap();
//! assert!(learned.num_pieces() <= 8);
//!
//! // Stage 2 of Theorem 2.2: one hierarchy answers every k, with at most 8k
//! // pieces and an error estimate against p̂_m.
//! let hierarchy = Hierarchical::new(EstimatorBuilder::new(2)).fit_hierarchy(&empirical).unwrap();
//! let (h, _estimate) = hierarchy.histogram_for_k(2);
//! assert!(h.num_pieces() <= 16);
//! ```

mod alias;
mod estimator;
mod minimax;

pub use alias::AliasSampler;
pub use estimator::{sample_complexity, SampleLearner};
pub use minimax::{distinguish, sample_lower_bound, two_point_pair, DistinguisherVerdict};
