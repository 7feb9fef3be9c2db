//! # hist-stream
//!
//! Mergeable and streaming synopses on top of the unified
//! `Estimator`/`Synopsis` API of `hist-core`.
//!
//! The merging framework of the source paper (Acharya, Diakonikolas, Hegde,
//! Li, Schmidt — PODS 2015) is naturally *composable*: a histogram fitted on
//! one chunk of a signal can be concatenated with a histogram fitted on the
//! next chunk and re-merged down to a piece budget with bounded error growth
//! ([`Synopsis::merge`](hist_core::Synopsis::merge)). This crate turns that
//! observation into three serving-oriented fitters:
//!
//! * [`ChunkedFitter`] — split the signal into chunks, fit each chunk
//!   independently (the sharded / embarrassingly parallel construction
//!   shape), then combine the per-chunk synopses pairwise in a merge tree;
//! * [`ParallelChunkedFitter`] — the same construction with the chunk fits
//!   actually running concurrently on scoped worker threads, bit-identical
//!   to the sequential fitter for the same chunking;
//! * [`StreamingBuilder`] — one-pass construction over a value stream with
//!   `O(k·log(n/chunk))` working memory, via a binary-counter hierarchy of
//!   partial synopses (the classical mergeable-summaries stream pattern),
//!   checkpointable mid-stream: [`StreamingBuilder::checkpoint`] serializes
//!   the resumable state (via the `hist-persist` binary format) and
//!   [`StreamingBuilder::resume`] continues the build in another process
//!   with bit-identical final output. Its completed chunks are what a
//!   serving store folds in with `update_merge`, one epoch per chunk.
//!
//! All three produce an ordinary [`Synopsis`](hist_core::Synopsis), so the
//! serving side (`mass`, `cdf`, `quantile`, the batched variants) is exactly
//! the same as for a directly fitted estimator.
//!
//! ## Example: chunked fitting vs. direct fitting
//!
//! ```
//! use hist_core::{Estimator, EstimatorBuilder, GreedyMerging, Signal};
//! use hist_stream::ChunkedFitter;
//!
//! // A step signal over [0, 600).
//! let values: Vec<f64> = (0..600).map(|i| ((i / 150) % 3) as f64 + 1.0).collect();
//! let signal = Signal::from_dense(values).unwrap();
//!
//! let builder = EstimatorBuilder::new(6);
//! let direct = GreedyMerging::new(builder).fit(&signal).unwrap();
//!
//! // Fit the same signal in 4 chunks of 150 values and tree-merge the fits.
//! let chunked = ChunkedFitter::new(Box::new(GreedyMerging::new(builder)), 6)
//!     .with_chunk_len(150)
//!     .fit(&signal)
//!     .unwrap();
//!
//! assert_eq!(chunked.domain(), 600);
//! assert!(chunked.num_pieces() <= 13); // ≤ 2k + 1 after the final re-merge
//! // The step signal is exactly a 3-histogram, so both fits recover it.
//! assert!(direct.l2_error(&signal).unwrap() < 1e-9);
//! assert!(chunked.l2_error(&signal).unwrap() < 1e-9);
//! ```

pub mod chunked;
pub mod parallel;
pub mod streaming;

pub use chunked::{default_chunk_len, tree_merge, ChunkedFitter};
pub use parallel::ParallelChunkedFitter;
pub use streaming::StreamingBuilder;

/// The piece budget used for intermediate and final merge steps: `2k + 1`,
/// mirroring the `O(k)` piece inflation Algorithm 1 trades for speed and
/// accuracy (a `(2 + 2/δ)k + γ ≈ 2k + 1`-piece output for budget `k`).
/// Public so harnesses driving [`tree_merge`] directly can reproduce the
/// fitters' budgets.
#[inline]
pub fn merge_budget(k: usize) -> usize {
    2 * k + 1
}
