//! The epoch/snapshot synopsis store: one writer path, wait-free-in-practice
//! readers.
//!
//! [`SynopsisStore`] holds the *currently served* synopsis behind an
//! [`Arc`]. Readers take a [`Snapshot`] — an epoch-stamped `Arc` clone — and
//! query it for as long as they like; the snapshot is immutable, so a reader
//! can never observe a torn or partially updated synopsis. Writers build the
//! next synopsis *outside* every lock (merging can be `O(k log k)` work) and
//! install it with a pointer swap, so the read-side lock is only ever held
//! for an `Arc` clone or a pointer store — never across merge work.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use hist_core::{Error, Result, Synopsis};
use hist_persist::PersistResult;

// The serving locks recover from poisoning: they guard `Arc` snapshots,
// epochs, counters and the keyed map's `HashMap`s, and no writer leaves any
// of them half-updated if it panics (a merge changes nothing until it
// returns). One panicking caller must not take its store, or a whole shard
// of the key space, down with it.

/// Read-locks `lock`, recovering the guard if a panicking thread poisoned it.
pub(crate) fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks `lock`, recovering the guard if a panicking thread poisoned it.
pub(crate) fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Locks `mutex`, recovering the guard if a panicking thread poisoned it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An epoch-stamped, immutable view of the synopsis a [`SynopsisStore`]
/// served at some instant.
///
/// Cloning a snapshot is a reference-count bump. Snapshots implement
/// [`Deref`] to [`Synopsis`], so they answer `mass`/`cdf`/`quantile` (and the
/// batched variants) directly.
#[derive(Debug, Clone)]
pub struct Snapshot {
    epoch: u64,
    synopsis: Arc<Synopsis>,
}

impl Snapshot {
    /// The publication epoch: strictly increasing across publishes, starting
    /// at 1 for the first synopsis a store serves.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The shared synopsis itself, for callers that want to hold or ship the
    /// `Arc` without the epoch stamp.
    #[inline]
    pub fn synopsis(&self) -> &Arc<Synopsis> {
        &self.synopsis
    }
}

impl Deref for Snapshot {
    type Target = Synopsis;

    fn deref(&self) -> &Synopsis {
        &self.synopsis
    }
}

/// Merge accounting of a [`SynopsisStore`], kept under its writer mutex and
/// surfaced through [`SynopsisStore::merge_counters`],
/// [`crate::StoreMapStats`] and the wire protocol's stats answers.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MergeCounters {
    /// `update_merge` merges absorbed over the store's lifetime.
    pub merges: u64,
    /// Cumulative mass of every merged-in chunk.
    pub merged_mass: f64,
    /// Summed per-merge `ℓ₂` deltas since the last direct publish. By the
    /// triangle inequality this bounds how far the served synopsis has
    /// drifted from the concatenation of everything merged into it.
    pub merge_error: f64,
}

/// A read-mostly store for the synopsis a query layer is currently serving,
/// supporting atomic replacement under live traffic.
///
/// * **Readers** call [`SynopsisStore::snapshot`] and get an epoch-stamped
///   `Arc<Synopsis>` clone. The read lock is held only for that clone —
///   reads are wait-free in practice, because no writer ever holds the write
///   lock across real work.
/// * **Writers** serialize on an internal mutex. [`SynopsisStore::publish`]
///   swaps in a fully built synopsis; [`SynopsisStore::update_merge`] is the
///   read-modify-publish cycle of a background writer: merge an
///   adjacent-chunk synopsis into the current one
///   ([`Synopsis::merge`]), re-merged to `budget` pieces, and publish the
///   result — all merge work happening outside the read-side lock.
///
/// ```
/// use hist_core::{Estimator, EstimatorBuilder, GreedyMerging, Signal};
/// use hist_serve::SynopsisStore;
///
/// let estimator = GreedyMerging::new(EstimatorBuilder::new(4));
/// let fit = |lo: usize| {
///     let values: Vec<f64> = (lo..lo + 100).map(|i| ((i / 50) % 4) as f64 + 1.0).collect();
///     estimator.fit(&Signal::from_dense(values).unwrap()).unwrap()
/// };
///
/// let store = SynopsisStore::new();
/// assert!(store.snapshot().is_none());
///
/// // A writer publishes the first chunk, then merges the next one in.
/// let first = store.publish(fit(0));
/// let second = store.update_merge(&fit(100), 9).unwrap();
/// assert!(second > first);
///
/// // Readers hold an immutable snapshot; later publishes don't disturb it.
/// let snapshot = store.snapshot().unwrap();
/// assert_eq!(snapshot.epoch(), second);
/// assert_eq!(snapshot.domain(), 200);
/// let median = snapshot.quantile(0.5).unwrap();
/// assert!(median < 200);
/// ```
#[derive(Debug, Default)]
pub struct SynopsisStore {
    current: RwLock<Option<Snapshot>>,
    /// The last published epoch, which a reopened store resumes even when it
    /// serves nothing. Written only under the writer mutex, so publishes
    /// never lose an increment; read without it.
    epoch: AtomicU64,
    /// Merge accounting; holding this lock serializes the whole
    /// read-modify-publish cycle of a writer, so concurrent `update_merge`
    /// calls never lose each other's chunks.
    writer: Mutex<MergeCounters>,
}

impl SynopsisStore {
    /// An empty store: readers see `None` until the first publish.
    pub fn new() -> Self {
        Self::default()
    }

    /// A store already serving `synopsis` at epoch 1.
    pub fn with_initial(synopsis: Synopsis) -> Self {
        let store = Self::new();
        store.publish(synopsis);
        store
    }

    /// The snapshot currently served: an `Arc` clone plus its epoch, or
    /// `None` before the first publish. Never blocks on writer merge work.
    pub fn snapshot(&self) -> Option<Snapshot> {
        read(&self.current).clone()
    }

    /// The last published epoch (0 before the first publish): the epoch of
    /// the served snapshot, or the one a store reopened without a synopsis
    /// resumes from. Epochs increase strictly with every publish. Never
    /// blocks on a writer.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Atomically replaces the served synopsis with a fully built one and
    /// returns the new epoch. Use this when a writer rebuilt the synopsis
    /// from scratch (e.g. a better fit over the full signal).
    pub fn publish(&self, synopsis: Synopsis) -> u64 {
        self.install(synopsis.into_shared())
    }

    /// The read-modify-publish cycle of a background writer: merges
    /// `chunk` — a synopsis fitted on the signal chunk *adjacent to the
    /// right* of the currently served domain — into the current synopsis
    /// with [`Synopsis::merge`] (re-merged down to `budget` pieces) and
    /// publishes the result. An empty store just publishes `chunk` as is.
    /// Each merge advances the store's [`MergeCounters`].
    ///
    /// Returns the new epoch. Concurrent callers serialize; readers keep
    /// serving the previous snapshot until the merged one is installed.
    pub fn update_merge(&self, chunk: &Synopsis, budget: usize) -> Result<u64> {
        if budget == 0 {
            // Checked up front (not just inside `Synopsis::merge`) so the
            // empty-store path rejects it too, and callers like the keyed
            // map can rely on "invalid budget never mutates anything".
            return Err(Error::InvalidParameter {
                name: "budget",
                reason: "the merge budget must be at least 1".into(),
            });
        }
        let mut counters = lock(&self.writer);
        let next = match self.snapshot() {
            Some(current) => {
                let (merged, stats) = current.merge_with_stats(chunk, budget)?;
                counters.merges += 1;
                counters.merged_mass += stats.incoming_mass;
                counters.merge_error += stats.l2_delta;
                merged
            }
            // First publish: the chunk itself is the baseline.
            None => chunk.clone(),
        };
        Ok(self.serve_next(&counters, next.into_shared()))
    }

    /// The store's merge accounting: merges absorbed, merged mass, and the
    /// `ℓ₂` merge error accumulated since the last direct publish. A
    /// byproduct of the merge [`SynopsisStore::update_merge`] performs
    /// anyway ([`Synopsis::merge_with_stats`]).
    pub fn merge_counters(&self) -> MergeCounters {
        *lock(&self.writer)
    }

    /// Captures the `(last published epoch, served snapshot)` pair that
    /// [`StoreMap::save`](crate::StoreMap::save) persists, consistent even
    /// under concurrent publishes: the writer mutex is held just long enough
    /// for the capture (install/update_merge write both fields under that
    /// lock), so the encode and disk I/O never stall writers.
    pub(crate) fn persisted_state(&self) -> (u64, Option<Snapshot>) {
        let _writer = lock(&self.writer);
        (self.epoch(), self.snapshot())
    }

    /// Rebuilds a store from persisted parts for
    /// [`StoreMap::open`](crate::StoreMap::open): serving `synopsis` (if
    /// any) at `epoch`, with later publishes continuing the epoch sequence,
    /// so epochs are monotone *across* restarts. A key saved empty reopens
    /// empty but still resumes its epoch counter. Epochs in the upper half
    /// of the `u64` range are rejected as forged: no real store publishes
    /// 2⁶³ times, and accepting one would let the counter overflow (and
    /// epochs jump backwards) after enough later publishes.
    pub(crate) fn resume(epoch: u64, synopsis: Option<Synopsis>) -> PersistResult<Self> {
        if epoch > u64::MAX / 2 {
            return Err(hist_persist::CodecError::Invalid(hist_core::Error::InvalidParameter {
                name: "epoch",
                reason: format!("persisted epoch {epoch} is beyond any reachable publish count"),
            })
            .into());
        }
        let current = synopsis.map(|s| Snapshot { epoch, synopsis: s.into_shared() });
        Ok(Self { current: RwLock::new(current), epoch: AtomicU64::new(epoch), ..Self::default() })
    }

    fn install(&self, synopsis: Arc<Synopsis>) -> u64 {
        let mut counters = lock(&self.writer);
        // A direct publish replaces the served synopsis wholesale, so the
        // merge error restarts from it.
        counters.merge_error = 0.0;
        self.serve_next(&counters, synopsis)
    }

    /// Serves `synopsis` at the next epoch and returns it. `_writer` is the
    /// held writer mutex: it makes the read-increment-write of the epoch one
    /// step. The snapshot is installed before the epoch is stored, so a
    /// reader that sees an epoch then takes a snapshot sees that epoch's
    /// synopsis or a later one.
    fn serve_next(&self, _writer: &MutexGuard<'_, MergeCounters>, synopsis: Arc<Synopsis>) -> u64 {
        let epoch = self.epoch.load(Ordering::Relaxed) + 1;
        *write(&self.current) = Some(Snapshot { epoch, synopsis });
        self.epoch.store(epoch, Ordering::Release);
        epoch
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hist_core::{Estimator, EstimatorBuilder, GreedyMerging, Signal};

    /// Poisons `store`'s writer mutex: a thread panics while holding it.
    pub(crate) fn poison_writer(store: &SynopsisStore) {
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = store.writer.lock();
                    panic!("a writer panics while holding the writer mutex");
                })
                .join()
        });
        assert!(panicked.is_err());
        assert!(store.writer.is_poisoned());
    }

    fn fit_values(values: Vec<f64>) -> Synopsis {
        GreedyMerging::new(EstimatorBuilder::new(3))
            .fit(&Signal::from_dense(values).unwrap())
            .unwrap()
    }

    fn step_chunk(level: f64) -> Synopsis {
        fit_values((0..64).map(|i| level + ((i / 32) % 2) as f64).collect())
    }

    #[test]
    fn empty_store_serves_nothing() {
        let store = SynopsisStore::new();
        assert!(store.snapshot().is_none());
        assert_eq!(store.epoch(), 0);
    }

    #[test]
    fn publish_bumps_the_epoch_and_swaps_the_synopsis() {
        let store = SynopsisStore::with_initial(step_chunk(1.0));
        assert_eq!(store.epoch(), 1);
        let before = store.snapshot().unwrap();
        let epoch = store.publish(step_chunk(5.0));
        assert_eq!(epoch, 2);
        // The old snapshot is unchanged; the store serves the new one.
        assert_eq!(before.epoch(), 1);
        let after = store.snapshot().unwrap();
        assert_eq!(after.epoch(), 2);
        assert!(after.total_mass() > before.total_mass());
    }

    #[test]
    fn update_merge_extends_the_served_domain() {
        let store = SynopsisStore::new();
        let first = store.update_merge(&step_chunk(1.0), 7).unwrap();
        assert_eq!(first, 1);
        assert_eq!(store.snapshot().unwrap().domain(), 64);
        let second = store.update_merge(&step_chunk(2.0), 7).unwrap();
        assert_eq!(second, 2);
        let snapshot = store.snapshot().unwrap();
        assert_eq!(snapshot.domain(), 128);
        assert!(snapshot.num_pieces() <= 7);
        assert!(store.update_merge(&step_chunk(2.0), 0).is_err(), "zero budgets are rejected");
        assert_eq!(store.epoch(), 2, "a failed merge must not bump the epoch");
    }

    #[test]
    fn merge_counters_accumulate_and_restart_on_publish() {
        let flat = fit_values(vec![2.0; 64]);
        let store = SynopsisStore::new();
        for _ in 0..24 {
            store.update_merge(&flat, 7).unwrap();
        }
        let counters = store.merge_counters();
        assert_eq!(counters.merges, 23, "first call publishes, the rest merge");
        assert_eq!(counters.merge_error, 0.0, "flat merges cost exactly nothing");
        assert_eq!(counters.merged_mass, 23.0 * 2.0 * 64.0);
        assert_eq!(store.epoch(), 24);

        store.publish(step_chunk(1.0));
        let noisy = fit_values((0..64).map(|i| ((i * 7) % 5) as f64).collect());
        store.update_merge(&noisy, 1).unwrap();
        let merged = store.merge_counters();
        assert_eq!(merged.merges, 24);
        assert!(merged.merge_error > 0.0, "a one-piece budget must cost error");
        store.publish(step_chunk(2.0));
        let republished = store.merge_counters();
        assert_eq!(republished.merge_error, 0.0, "a direct publish restarts the merge error");
        assert_eq!(republished.merges, 24, "lifetime counters survive a publish");
        assert_eq!(republished.merged_mass, merged.merged_mass);
    }

    #[test]
    fn snapshots_are_immutable_under_later_merges() {
        let store = SynopsisStore::with_initial(step_chunk(1.0));
        let snapshot = store.snapshot().unwrap();
        let mass_before = snapshot.total_mass();
        for _ in 0..5 {
            store.update_merge(&step_chunk(3.0), 7).unwrap();
        }
        assert_eq!(snapshot.total_mass(), mass_before);
        assert_eq!(snapshot.domain(), 64);
        assert_eq!(store.snapshot().unwrap().domain(), 6 * 64);
    }
}
