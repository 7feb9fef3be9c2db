//! # approx-hist
//!
//! A from-scratch Rust reproduction of
//! *Fast and Near-Optimal Algorithms for Approximating Distributions by
//! Histograms* (Acharya, Diakonikolas, Hegde, Li, Schmidt — PODS 2015),
//! served behind one unified estimation API.
//!
//! ## The unified API
//!
//! Every construction algorithm in the workspace — the paper's merging
//! algorithms, the exact V-optimal DPs, the classical baselines, the
//! piecewise-polynomial fitter and the sampling-based learners — implements
//! one object-safe trait:
//!
//! ```text
//!   Signal ──► Estimator::fit ──► Synopsis ──► mass / cdf / quantile / l2_error
//! ```
//!
//! * [`Signal`] unifies the input shapes (sparse function, dense vector,
//!   borrowed slice, empirical samples) behind cheap conversions;
//! * [`Estimator`] is the algorithm interface; concrete estimators are thin
//!   adapter structs ([`GreedyMerging`], [`FastMerging`], [`Hierarchical`],
//!   [`PiecewisePoly`], [`ExactDp`], [`GksQuantile`], [`SampleLearner`], …),
//!   each configured through one builder-style [`EstimatorBuilder`];
//! * [`Synopsis`] wraps the fitted model with the query methods a serving
//!   system needs, in `O(log k)` per query.
//!
//! ```
//! use approx_hist::{Estimator, EstimatorBuilder, EstimatorKind, Signal};
//!
//! // A step signal: three plateaus over [0, 1000).
//! let values: Vec<f64> = (0..1000).map(|i| ((i / 100) % 3) as f64 + 1.0).collect();
//! let signal = Signal::from_dense(values).unwrap();
//!
//! // Fit it with the paper's merging algorithm (δ = 1000, γ = 1, ≈ 2k+1 pieces)…
//! let estimator = EstimatorKind::Merging.build(EstimatorBuilder::new(10));
//! let synopsis = estimator.fit(&signal).unwrap();
//! assert!(synopsis.num_pieces() <= 23); // O(k) pieces for k = 10
//! assert!(synopsis.l2_error(&signal).unwrap() < 1e-9); // exact recovery
//!
//! // …and serve queries from the synopsis alone.
//! use approx_hist::Interval;
//! let range = Interval::new(0, 499).unwrap();
//! assert!((synopsis.mass(range).unwrap() - 900.0).abs() < 1e-6);
//! assert!(synopsis.cdf(999).unwrap() > 0.999);
//!
//! // The same signal can be fitted by every other algorithm through the same
//! // trait — this is how the bench harness compares them.
//! for estimator in approx_hist::all_estimators(EstimatorBuilder::new(10)) {
//!     let synopsis = estimator.fit(&signal).unwrap();
//!     assert_eq!(synopsis.domain(), 1000);
//! }
//! ```
//!
//! ## Workspace layout
//!
//! This facade crate re-exports the whole workspace behind one dependency:
//!
//! * [`core`](mod@core) (`hist-core`) — the data model, the merging
//!   algorithms (Algorithm 1, Algorithm 2, `fastmerging`, the generalized
//!   oracle-driven merging) and the `Signal`/`Estimator`/`Synopsis` API;
//! * [`poly`] (`hist-poly`) — discrete Chebyshev (Gram) polynomial projection
//!   and piecewise-polynomial fitting (Section 4);
//! * [`baselines`] (`hist-baselines`) — the exact V-optimal DP, the dual
//!   greedy, an AHIST-style approximate DP and trivial baselines;
//! * [`sampling`] (`hist-sampling`) — samplers, empirical distributions and
//!   the agnostic learners of Theorems 2.1–2.3;
//! * [`datasets`] (`hist-datasets`) — the evaluation workloads (Figure 1) and
//!   additional synthetic families;
//! * [`stream`] (`hist-stream`) — mergeable & streaming synopses:
//!   [`ChunkedFitter`] (sharded fit-per-chunk + tree merge),
//!   [`ParallelChunkedFitter`] (the same construction on scoped worker
//!   threads, bit-identical output), [`StreamingBuilder`] (one-pass
//!   construction) and [`SlidingWindow`] (bucketed window maintenance),
//!   built on [`Synopsis::merge`](hist_core::Synopsis::merge);
//! * [`serve`] (`hist-serve`) — the concurrent serving layer:
//!   [`SynopsisStore`] (epoch/snapshot store with wait-free reads under a
//!   background writer's merges, durable via `save`/`open`), the multi-tenant
//!   [`StoreMap`] (many keyed stores behind sharded locks, with per-key
//!   merges, key listing/eviction and whole-map persistence), whose [`Snapshot`]s answer batch queries directly with
//!   the synopsis' own batch kernels;
//! * [`persist`] (`hist-persist`) — the persistent synopsis format: a
//!   versioned, CRC-checked binary codec ([`encode_synopsis`] /
//!   [`decode_synopsis`], panic-free on arbitrary bytes) with file helpers
//!   ([`save_synopsis`] / [`load_synopsis`]), powering store snapshots on
//!   disk, the keyed `AHISTMAP` store-map container and streaming
//!   checkpoint/resume;
//! * [`pipeline`] (`hist-pipeline`) — the live telemetry pipeline chaining
//!   all of the above end to end: deterministic seekable [`EventSource`]s,
//!   per-metric ingest lanes ([`MetricPipeline`], cumulative chunks merged
//!   via `update_merge` or sliding windows re-published per bucket) and the
//!   multi-lane [`TelemetryPipeline`] ingest thread, with crash/resume of
//!   the ingester that leaves served answers bit-identical;
//! * [`net`] (`hist-net`) — the network serving layer: a length-prefixed,
//!   CRC-trailed binary TCP protocol (one version, v4) over the
//!   keyed store map ([`HistServer`] / [`HistClient`]), with per-key batch
//!   query ops, store-wide admin ops (key listing/eviction, store stats
//!   with merge counters), admin publish/merge ops
//!   shipping synopses in the `AHISTSYN` encoding, typed error frames,
//!   client connect/read deadlines, and hostile-peer bounds (max frame
//!   size, per-connection request budgets).
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench` for
//! the harness regenerating every table and figure of the paper.

pub use hist_baselines as baselines;
pub use hist_core as core;
pub use hist_datasets as datasets;
pub use hist_net as net;
pub use hist_persist as persist;
pub use hist_pipeline as pipeline;
pub use hist_poly as poly;
pub use hist_sampling as sampling;
pub use hist_serve as serve;
pub use hist_stream as stream;

// The unified estimation API.
pub use hist_baselines::{DualGreedy, EqualMass, EqualWidth, ExactDp, GksQuantile, GreedySplit};
pub use hist_core::{
    Estimator, EstimatorBuilder, FastMerging, FittedModel, GreedyMerging, Hierarchical, MergeStats,
    Signal, Synopsis,
};
pub use hist_net::{
    ErrorCode, HistClient, HistServer, NetError, ServerConfig, Stamped, StoreStats, StoreWideStats,
    SynopsisStats,
};
pub use hist_persist::{
    decode_store_map, decode_store_snapshot, decode_stream_checkpoint, decode_synopsis,
    encode_store_map, encode_store_snapshot, encode_stream_checkpoint, encode_synopsis,
    load_store_map, load_synopsis, save_store_map, save_synopsis, CodecError, PersistError,
    StoreMapEntry, StoreMapSnapshot, StoreSnapshot, StreamCheckpoint,
};
pub use hist_pipeline::{
    EventSource, IngestHandle, MetricPipeline, PipelineReport, TelemetryPipeline,
};
pub use hist_poly::PiecewisePoly;
pub use hist_sampling::SampleLearner;
pub use hist_serve::{
    MergeCounters, Snapshot, StoreMap, StoreMapStats, SynopsisStore, DEFAULT_KEY,
};
pub use hist_stream::{
    ChunkedFitter, ParallelChunkedFitter, SlidingWindow, StreamingBuilder, StreamingMerging,
};

// The shared data model.
pub use hist_core::{
    DiscreteFunction, Distribution, Error, Histogram, Interval, MergingParams, Partition,
    PiecewisePolynomial, Result, SparseFunction,
};

/// Every estimator the facade can instantiate, for registry-style dispatch
/// (benches, comparison tables, servers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EstimatorKind {
    /// Algorithm 1 with the builder's parameters — the paper's `merging`.
    Merging,
    /// Algorithm 1 invoked with `k/2` (≈ `k + 1` pieces) — `merging2`.
    Merging2,
    /// Aggressive group merging — `fastmerging`.
    FastMerging,
    /// Aggressive group merging invoked with `k/2` — `fastmerging2`.
    FastMerging2,
    /// Algorithm 2, serving the level for the builder's `k`.
    Hierarchical,
    /// The generalized merging algorithm with the degree-`d` oracle.
    PiecewisePoly,
    /// Exact V-optimal DP (pruned; identical optimum, practical time).
    ExactDp,
    /// Exact V-optimal DP (naive `O(n²k)` textbook variant).
    ExactDpNaive,
    /// Dual greedy of [JKM+98] with a binary-search primal wrapper.
    Dual,
    /// AHIST-style `(1 + δ)`-approximate compressed-row DP.
    Gks,
    /// Equi-width buckets.
    EqualWidth,
    /// Equi-depth buckets.
    EqualMass,
    /// Top-down greedy splitting.
    GreedySplit,
    /// Two-stage agnostic sample learner (Theorem 2.1).
    SampleLearner,
    /// Fit-per-chunk + tree-merge (sharded construction, `hist-stream`).
    Chunked,
    /// Fit-per-chunk + tree-merge with the chunk fits running on scoped
    /// worker threads — bit-identical to [`EstimatorKind::Chunked`] for the
    /// same chunking (`hist-stream`).
    ParallelChunked,
    /// One-pass streaming construction via a merge hierarchy (`hist-stream`).
    Streaming,
}

impl EstimatorKind {
    /// Instantiates the estimator with the given configuration.
    pub fn build(self, builder: EstimatorBuilder) -> Box<dyn Estimator> {
        // The "2" variants halve the budget — but keep an invalid k = 0 as is,
        // so they reject it at fit time exactly like every other estimator.
        let half =
            if builder.k() == 0 { builder } else { builder.with_k((builder.k() / 2).max(1)) };
        match self {
            EstimatorKind::Merging => Box::new(GreedyMerging::new(builder)),
            EstimatorKind::Merging2 => Box::new(GreedyMerging::named("merging2", half)),
            EstimatorKind::FastMerging => Box::new(FastMerging::new(builder)),
            EstimatorKind::FastMerging2 => Box::new(FastMerging::named("fastmerging2", half)),
            EstimatorKind::Hierarchical => Box::new(Hierarchical::new(builder)),
            EstimatorKind::PiecewisePoly => Box::new(PiecewisePoly::new(builder)),
            EstimatorKind::ExactDp => Box::new(ExactDp::new(builder)),
            EstimatorKind::ExactDpNaive => Box::new(ExactDp::naive(builder)),
            EstimatorKind::Dual => Box::new(DualGreedy::new(builder)),
            EstimatorKind::Gks => Box::new(GksQuantile::new(builder)),
            EstimatorKind::EqualWidth => Box::new(EqualWidth::new(builder)),
            EstimatorKind::EqualMass => Box::new(EqualMass::new(builder)),
            EstimatorKind::GreedySplit => Box::new(GreedySplit::new(builder)),
            EstimatorKind::SampleLearner => Box::new(SampleLearner::new(builder)),
            EstimatorKind::Chunked => {
                let fitter = ChunkedFitter::new(Box::new(GreedyMerging::new(builder)), builder.k());
                Box::new(match builder.chunk_len_value() {
                    Some(len) => fitter.with_chunk_len(len),
                    None => fitter,
                })
            }
            EstimatorKind::ParallelChunked => {
                let mut fitter =
                    ParallelChunkedFitter::new(Box::new(GreedyMerging::new(builder)), builder.k());
                if let Some(len) = builder.chunk_len_value() {
                    fitter = fitter.with_chunk_len(len);
                }
                if let Some(threads) = builder.threads_value() {
                    fitter = fitter.with_threads(threads);
                }
                Box::new(fitter)
            }
            EstimatorKind::Streaming => Box::new(StreamingMerging::new(builder)),
        }
    }

    /// All registry entries, in a stable display order.
    pub fn all() -> Vec<EstimatorKind> {
        vec![
            EstimatorKind::Merging,
            EstimatorKind::Merging2,
            EstimatorKind::FastMerging,
            EstimatorKind::FastMerging2,
            EstimatorKind::Hierarchical,
            EstimatorKind::PiecewisePoly,
            EstimatorKind::ExactDp,
            EstimatorKind::ExactDpNaive,
            EstimatorKind::Dual,
            EstimatorKind::Gks,
            EstimatorKind::EqualWidth,
            EstimatorKind::EqualMass,
            EstimatorKind::GreedySplit,
            EstimatorKind::SampleLearner,
            EstimatorKind::Chunked,
            EstimatorKind::ParallelChunked,
            EstimatorKind::Streaming,
        ]
    }
}

/// One instance of every estimator in the workspace, configured from the same
/// builder — the fleet benches and consistency tests iterate over.
///
/// Excludes the naive exact DP (same optimum as [`EstimatorKind::ExactDp`] at
/// quadratic cost); add it explicitly when cross-checking the DPs.
pub fn all_estimators(builder: EstimatorBuilder) -> Vec<Box<dyn Estimator>> {
    EstimatorKind::all()
        .into_iter()
        .filter(|kind| *kind != EstimatorKind::ExactDpNaive)
        .map(|kind| kind.build(builder))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_reexports_are_usable_together() {
        let values = datasets::hist_dataset();
        let signal = Signal::from_slice(&values).unwrap();
        let builder = EstimatorBuilder::new(10);
        let merged = EstimatorKind::Merging.build(builder).fit(&signal).unwrap();
        let exact = EstimatorKind::ExactDp.build(builder).fit(&signal).unwrap();
        let merged_err = merged.l2_error(&signal).unwrap();
        let exact_err = exact.l2_error(&signal).unwrap();
        assert!(merged_err <= 1.5 * exact_err + 1e-9);
    }

    #[test]
    fn registry_names_are_unique_and_stable() {
        let builder = EstimatorBuilder::new(4);
        let mut names: Vec<&'static str> =
            EstimatorKind::all().into_iter().map(|k| k.build(builder).name()).collect();
        assert!(names.contains(&"merging"));
        assert!(names.contains(&"exactdp"));
        assert!(names.contains(&"sample-learner"));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "estimator names must be unique");
    }

    #[test]
    fn the_fleet_fits_a_common_signal() {
        let values: Vec<f64> = (0..200).map(|i| ((i / 40) % 3) as f64 + 0.5).collect();
        let signal = Signal::from_slice(&values).unwrap();
        for estimator in all_estimators(EstimatorBuilder::new(5).samples(4_000)) {
            let synopsis = estimator.fit(&signal).unwrap();
            assert_eq!(synopsis.domain(), 200, "{}", estimator.name());
            assert!(synopsis.num_pieces() >= 1);
        }
    }
}
