//! # hist-serve
//!
//! The concurrent serving layer of the workspace: keep one synopsis live
//! under heavy read traffic while a background writer refreshes it.
//!
//! Two pieces, all `std`-only:
//!
//! * [`SynopsisStore`] — an epoch/snapshot store. Readers clone an
//!   `Arc<Synopsis>` snapshot (wait-free in practice: the read-side lock is
//!   held only for the clone), writers serialize on a mutex and build the
//!   next synopsis *outside* every lock before installing it with a pointer
//!   swap. [`SynopsisStore::update_merge`] is the background-refitter cycle:
//!   merge a new adjacent-chunk synopsis into the served one
//!   ([`Synopsis::merge`](hist_core::Synopsis::merge)) and publish the
//!   result under live query traffic. The store is durable:
//!   [`SynopsisStore::save`] persists the served synopsis plus its epoch
//!   (via the `hist-persist` binary format) and [`SynopsisStore::open`]
//!   warm-starts a store across a process restart with the epoch sequence
//!   continuing monotonically.
//! * [`StoreMap`] — the multi-tenant layer: many keyed [`SynopsisStore`]s
//!   behind a shard-by-key-hash array of locks, with per-key
//!   publish/update/snapshot, key listing and eviction, an on-demand merged
//!   global view (`tree_merge` over every served key in canonical key
//!   order), and whole-map persistence (`AHISTMAP`) with per-key epochs
//!   monotone across restarts.
//!
//! Batch queries need no scheduler of their own: a [`Snapshot`] derefs to
//! its synopsis, whose `mass_batch`/`quantile_batch`/`cdf_batch` kernels
//! answer the whole batch on the calling thread.
//!
//! Construction parallelism lives next door in `hist-stream`
//! (`ParallelChunkedFitter`); this crate is the read side. The multi-thread
//! stress suite (`tests/concurrent_serve.rs` at the workspace root) drives
//! both at once: writer threads `update_merge`-ing chunks into a store while
//! reader threads assert every observed snapshot still satisfies the
//! serving invariants.
//!
//! ## Example: queries riding over a live refit
//!
//! ```
//! use std::sync::Arc;
//! use hist_core::{Estimator, EstimatorBuilder, GreedyMerging, Signal};
//! use hist_serve::SynopsisStore;
//!
//! let estimator = GreedyMerging::new(EstimatorBuilder::new(4));
//! let chunk = move |level: f64| {
//!     let values: Vec<f64> = (0..128).map(|i| level + ((i / 64) % 2) as f64).collect();
//!     estimator.fit(&Signal::from_dense(values).unwrap()).unwrap()
//! };
//!
//! let store = Arc::new(SynopsisStore::with_initial(chunk(1.0)));
//!
//! // A background writer merges new chunks in while readers keep serving.
//! let writer = {
//!     let store = Arc::clone(&store);
//!     std::thread::spawn(move || {
//!         for level in [2.0, 3.0] {
//!             store.update_merge(&chunk(level), 9).unwrap();
//!         }
//!     })
//! };
//!
//! // Every read sees *some* complete snapshot, never a torn one.
//! let snapshot = store.snapshot().unwrap();
//! let ps: Vec<f64> = (0..50).map(|i| i as f64 / 49.0).collect();
//! let quantiles = snapshot.quantile_batch(&ps).unwrap();
//! for (&p, &q) in ps.iter().zip(&quantiles) {
//!     assert_eq!(q, snapshot.quantile(p).unwrap());
//! }
//!
//! writer.join().unwrap();
//! assert_eq!(store.snapshot().unwrap().domain(), 3 * 128);
//! ```

pub mod maintenance;
pub mod pool;
pub mod store;
pub mod store_map;

pub use maintenance::{MaintenancePolicy, MaintenanceStats, MaintenanceWorker};
pub use pool::ThreadPool;
pub use store::{Snapshot, SynopsisStore};
pub use store_map::{validate_key, MergedView, StoreMap, StoreMapStats, DEFAULT_KEY};
