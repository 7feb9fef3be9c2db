//! # hist-core
//!
//! Core data model and merging algorithms for *Fast and Near-Optimal Algorithms for
//! Approximating Distributions by Histograms* (Acharya, Diakonikolas, Hegde, Li,
//! Schmidt — PODS 2015).
//!
//! The crate provides:
//!
//! * a small data model for discrete one-dimensional signals — [`Interval`],
//!   [`Partition`], [`SparseFunction`], [`Histogram`],
//!   [`PiecewisePolynomial`] and [`Distribution`];
//! * dense prefix sums ([`DensePrefix`]) giving `O(1)` interval sums and
//!   squared flattening errors;
//! * **Algorithm 1** ([`construct_histogram`]): iterative greedy pair merging that
//!   outputs a `(2 + 2/δ)k + γ`-piece histogram with error at most
//!   `√(1+δ)·opt_k` in input-sparsity time (Theorems 3.3 and 3.4);
//! * **Algorithm 2** ([`construct_hierarchical_histogram`]): the multi-scale variant
//!   producing good approximations for *every* `k` simultaneously (Theorem 3.5);
//! * the `fastmerging` variant ([`construct_histogram_fast`]) that merges larger
//!   groups per round (Section 5.1 of the paper);
//! * the generalized merging algorithm ([`construct_general`]) parameterized by a
//!   [`ProjectionOracle`], which underlies the piecewise-polynomial extension of
//!   Section 4 (implemented in the companion crate `hist-poly`);
//! * the **unified estimation API** — [`Signal`], [`Estimator`],
//!   [`EstimatorBuilder`] and [`Synopsis`] — one trait every construction
//!   algorithm in the workspace implements, so harnesses dispatch over
//!   `&dyn Estimator` instead of per-algorithm function calls.
//!
//! ## Quick example
//!
//! ```
//! use hist_core::{Estimator, EstimatorBuilder, GreedyMerging, Signal};
//!
//! // A noisy step signal over [0, 100).
//! let values: Vec<f64> = (0..100)
//!     .map(|i| {
//!         let step = if i < 50 { 1.0 } else { 5.0 };
//!         step + 0.01 * (i % 3) as f64
//!     })
//!     .collect();
//! let signal = Signal::from_dense(values).unwrap();
//!
//! // Ask for a ~2-piece histogram with the paper's experimental parameters.
//! let estimator = GreedyMerging::new(EstimatorBuilder::new(2));
//! let synopsis = estimator.fit(&signal).unwrap();
//!
//! assert!(synopsis.num_pieces() <= 7);
//! assert!(synopsis.l2_error(&signal).unwrap() < 1.0);
//! // The synopsis is query-ready: range masses, cdf, quantiles.
//! assert!(synopsis.cdf(99).unwrap() > 0.999);
//! let median = synopsis.quantile(0.5).unwrap();
//! assert!(median > 50, "most of the mass sits in the tall right step");
//! ```

pub mod construct;
pub mod distribution;
pub mod error;
pub mod estimator;
pub mod fast;
pub mod function;
pub mod general;
pub mod hierarchical;
pub mod histogram;
pub mod interval;
pub mod oracle;
pub mod params;
pub mod partition;
pub mod piecewise_poly;
pub mod prefix;
mod segment;
mod select;
pub mod signal;
pub mod sparse;
pub mod stats;
pub mod synopsis;
#[cfg(test)]
mod test_support;

pub use construct::{construct_histogram, construct_histogram_with_report, MergingReport};
pub use distribution::Distribution;
pub use error::{Error, Result};
pub use estimator::{Estimator, EstimatorBuilder, FastMerging, GreedyMerging, Hierarchical};
pub use fast::{construct_histogram_fast, construct_histogram_fast_with_report, FastMergingReport};
pub use function::DiscreteFunction;
pub use general::{construct_general, construct_general_with_report, GeneralMergingReport};
pub use hierarchical::{construct_hierarchical_histogram, HierarchicalHistogram, HierarchyLevel};
pub use histogram::Histogram;
pub use interval::Interval;
pub use oracle::{ConstantOracle, ProjectionOracle};
pub use params::MergingParams;
pub use partition::Partition;
pub use piecewise_poly::{PiecewisePolynomial, PolynomialPiece};
pub use prefix::DensePrefix;
pub use signal::Signal;
pub use sparse::SparseFunction;
pub use stats::{flatten, flatten_dense};
pub use synopsis::{FittedModel, MergeStats, Synopsis};

// Thread-safety audit: the whole data model is plain owned data (no `Rc`, no
// interior mutability, `Cow` views only borrow immutably), so every type a
// concurrent serving layer shares across threads must be `Send + Sync`. These
// assertions are checked at compile time; adding a non-thread-safe field to
// any of the types below breaks the build here rather than in a downstream
// crate's `thread::scope`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Signal>();
    assert_send_sync::<Synopsis>();
    assert_send_sync::<FittedModel>();
    assert_send_sync::<Histogram>();
    assert_send_sync::<PiecewisePolynomial>();
    assert_send_sync::<Partition>();
    assert_send_sync::<Interval>();
    assert_send_sync::<SparseFunction>();
    assert_send_sync::<function::DenseFunction>();
    assert_send_sync::<Distribution>();
    assert_send_sync::<EstimatorBuilder>();
    assert_send_sync::<Error>();
};
