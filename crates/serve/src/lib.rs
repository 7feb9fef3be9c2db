//! # hist-serve
//!
//! The concurrent serving layer of the workspace: keep one synopsis live
//! under heavy read traffic while a background writer merges new chunks
//! into it.
//!
//! Two stores, all `std`-only:
//!
//! * [`SynopsisStore`] — an epoch/snapshot store. Readers clone an
//!   `Arc<Synopsis>` snapshot (wait-free in practice: the read-side lock is
//!   held only for the clone), writers serialize on a mutex and build the
//!   next synopsis *outside* every lock before installing it with a pointer
//!   swap. [`SynopsisStore::update_merge`] is the background-writer cycle:
//!   merge a new adjacent-chunk synopsis into the served one
//!   ([`Synopsis::merge`](hist_core::Synopsis::merge)) and publish the
//!   result under live query traffic, counting merges, merged mass and the
//!   accumulated merge error in its [`MergeCounters`].
//! * [`StoreMap`] — the multi-tenant layer: many keyed [`SynopsisStore`]s
//!   behind a shard-by-key-hash array of locks, with per-key
//!   publish/update/snapshot and key listing and eviction. It is the durable
//!   form of serving state: [`StoreMap::save`] persists every key's epoch
//!   and served synopsis as one `AHISTMAP` file (via the `hist-persist`
//!   binary format), and [`StoreMap::open`] warm-starts the map across a
//!   process restart with every key's epoch sequence continuing
//!   monotonically.
//!
//! A panic on one caller's thread does not take a store or a shard down
//! with it: the locks guard `Arc` snapshots, epochs and counters that no
//! writer leaves half-updated, so a poisoned lock is recovered, not
//! propagated.
//!
//! Serving is merge-only: the paper's merging output is itself mergeable,
//! so each [`Synopsis::merge`](hist_core::Synopsis::merge) of adjacent
//! chunks is one more budgeted merging step, and neither store runs a
//! thread of its own.
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
//! ## Example: queries riding over a live merge
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

pub mod store;
pub mod store_map;

pub use store::{MergeCounters, Snapshot, SynopsisStore};
pub use store_map::{validate_key, StoreMap, StoreMapStats, DEFAULT_KEY};
