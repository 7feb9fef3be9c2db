//! The multi-tenant keyed store: many epoch-stamped [`SynopsisStore`]s
//! behind a shard-by-key-hash array of locks.
//!
//! ROADMAP's "millions of users" becomes literal here: one distribution per
//! tenant/metric *key* (per-endpoint latency fleets, per-customer metrics),
//! each key owning its own [`SynopsisStore`] with the same epoch/snapshot
//! discipline as single-store serving — readers clone an `Arc` snapshot,
//! writers serialize per key, and *different* keys never contend on the same
//! lock beyond their shard's `HashMap`.
//!
//! Sharding: the key is FNV-1a-hashed onto one of a power-of-two number of
//! shards, each shard a `RwLock<HashMap<String, Arc<SynopsisStore>>>`. The
//! shard lock is held only for map lookups/insertions (a clone of the
//! store's `Arc`), never across merge work or queries, so the hot path of a
//! keyed read is: hash, shard read-lock, `Arc` clone, unlock, query.
//!
//! Merging is per key: [`StoreMap::update_merge`] folds an adjacent chunk's
//! synopsis into one key's served synopsis. No operation merges across
//! keys.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, RwLock};

use hist_core::{Error, Result, Synopsis};
use hist_persist::{load_store_map, save_store_map, PersistResult, StoreMapEntry};

use crate::store::{Snapshot, SynopsisStore};

/// The key single-store traffic targets: a client that never picks a key
/// addresses this one, and [`StoreMap::with_initial`] seeds it.
pub const DEFAULT_KEY: &str = "default";

/// Number of shards (a power of two, so a hash masks to a shard): enough that 8–16
/// serving threads rarely collide on a shard lock, cheap enough to hold in
/// an empty map.
const SHARDS: usize = 64;

type Shard = RwLock<HashMap<String, Arc<SynopsisStore>>>;

/// Checks a tenant/metric key against the encoding rules shared with the
/// persistence container and the wire protocol: non-empty UTF-8 of at most
/// [`hist_persist::MAX_KEY_BYTES`] bytes.
pub fn validate_key(key: &str) -> Result<()> {
    hist_persist::validate_key(key)
        .map_err(|e| hist_core::Error::InvalidParameter { name: "key", reason: e.to_string() })
}

/// Store-wide summary of a [`StoreMap`]: key count, served-key count, total
/// pieces across served synopses, the epoch range, and the merge accounting
/// ([`crate::MergeCounters`]) summed over every key.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StoreMapStats {
    /// Number of keys present (served or not).
    pub keys: u64,
    /// Number of keys currently serving a synopsis.
    pub served: u64,
    /// Total piece count across all served synopses.
    pub total_pieces: u64,
    /// Smallest per-key epoch (0 if any key has never published, or no keys).
    pub min_epoch: u64,
    /// Largest per-key epoch (0 if no keys).
    pub max_epoch: u64,
    /// Total `update_merge` merges absorbed, summed over every key.
    pub merges: u64,
    /// Cumulative mass of every merged-in chunk, summed over every key.
    pub merged_mass: f64,
    /// Merge error (`ℓ₂`, accumulated since each key's last direct
    /// publish), summed over every key.
    pub merge_error: f64,
}

/// A keyed namespace of [`SynopsisStore`]s: per-key publish/update/snapshot
/// with the single-store guarantees, per-key merges, key listing and
/// eviction, and whole-map persistence (`AHISTMAP`).
///
/// ```
/// use hist_core::{FittedModel, Histogram, Synopsis};
/// use hist_serve::StoreMap;
///
/// let syn = |level: f64| {
///     let h = Histogram::constant(64, level).unwrap();
///     Synopsis::new("constant", 1, FittedModel::Histogram(h))
/// };
///
/// let map = StoreMap::new();
/// map.publish("api/login", syn(2.0)).unwrap();
/// map.publish("api/search", syn(5.0)).unwrap();
///
/// assert_eq!(map.keys(), ["api/login", "api/search"]);
/// let snap = map.snapshot("api/search").unwrap();
/// assert_eq!(snap.epoch(), 1);
/// assert_eq!(snap.total_mass(), 5.0 * 64.0);
///
/// // A merge folds an adjacent chunk into one key's synopsis.
/// let epoch = map.update_merge("api/search", &syn(1.0), 8).unwrap();
/// assert_eq!(epoch, 2);
/// assert_eq!(map.snapshot("api/search").unwrap().domain(), 128);
///
/// assert!(map.drop_key("api/login"));
/// assert_eq!(map.len(), 1);
/// ```
#[derive(Debug)]
pub struct StoreMap {
    shards: Box<[Shard]>,
}

impl Default for StoreMap {
    fn default() -> Self {
        Self::new()
    }
}

impl StoreMap {
    /// An empty map.
    pub fn new() -> Self {
        Self { shards: (0..SHARDS).map(|_| Shard::default()).collect() }
    }

    /// A map already serving `synopsis` at [`DEFAULT_KEY`], epoch 1 — the
    /// keyed equivalent of [`SynopsisStore::with_initial`].
    pub fn with_initial(synopsis: Synopsis) -> Self {
        let map = Self::new();
        map.publish(DEFAULT_KEY, synopsis).expect("DEFAULT_KEY is a valid key");
        map
    }

    /// FNV-1a over the key bytes, masked to the shard count: deterministic
    /// across processes and platforms, dependency-free, and good enough at
    /// scattering short metric names.
    fn shard(&self, key: &str) -> &Shard {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &byte in key.as_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        &self.shards[(hash as usize) & (self.shards.len() - 1)]
    }

    /// The store behind `key`, if present.
    pub fn store(&self, key: &str) -> Option<Arc<SynopsisStore>> {
        self.shard(key).read().expect("shard lock poisoned").get(key).cloned()
    }

    /// The store behind `key`, created empty on first use. Fails only on an
    /// invalid key (empty or longer than [`hist_persist::MAX_KEY_BYTES`]).
    pub fn store_or_create(&self, key: &str) -> Result<Arc<SynopsisStore>> {
        validate_key(key)?;
        if let Some(store) = self.store(key) {
            return Ok(store);
        }
        let mut shard = self.shard(key).write().expect("shard lock poisoned");
        Ok(Arc::clone(shard.entry(key.to_owned()).or_default()))
    }

    /// Publishes a fully built synopsis under `key` (creating the key on
    /// first use) and returns its new epoch.
    pub fn publish(&self, key: &str, synopsis: Synopsis) -> Result<u64> {
        Ok(self.store_or_create(key)?.publish(synopsis))
    }

    /// Per-key [`SynopsisStore::update_merge`]: merges `chunk` into `key`'s
    /// served synopsis (re-merged to `budget` pieces), creating the key on
    /// first use, and returns the new epoch.
    ///
    /// Validation runs *before* any key is created: a failed merge on a
    /// fresh key (zero budget, invalid key) must not leave an empty phantom
    /// key behind in `keys()`/`ListKeys`.
    pub fn update_merge(&self, key: &str, chunk: &Synopsis, budget: usize) -> Result<u64> {
        validate_key(key)?;
        if budget == 0 {
            return Err(Error::InvalidParameter {
                name: "budget",
                reason: "the merge budget must be at least 1".into(),
            });
        }
        let store = match self.store(key) {
            // Existing key: a failed merge leaves the key as it was.
            Some(store) => store,
            // Fresh key: with the key and budget already validated, merging
            // into the (empty or concurrently seeded) store cannot fail in a
            // way that strands a phantom — an empty store publishes the
            // chunk as is, and a concurrently seeded store was legitimately
            // created by that concurrent writer.
            None => self.store_or_create(key)?,
        };
        store.update_merge(chunk, budget)
    }

    /// The snapshot `key` currently serves, or `None` for an absent key or a
    /// key that has published nothing.
    pub fn snapshot(&self, key: &str) -> Option<Snapshot> {
        self.store(key)?.snapshot()
    }

    /// The last published epoch of `key` (0 for an absent or never-published
    /// key).
    pub fn epoch(&self, key: &str) -> u64 {
        self.store(key).map_or(0, |store| store.epoch())
    }

    /// Whether `key` is present (even if it has published nothing yet).
    pub fn contains_key(&self, key: &str) -> bool {
        self.store(key).is_some()
    }

    /// Every key, sorted ascending — the canonical listing order of the wire
    /// protocol and the persistence container.
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self
            .shards
            .iter()
            .flat_map(|shard| {
                shard.read().expect("shard lock poisoned").keys().cloned().collect::<Vec<_>>()
            })
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Number of keys present.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.read().expect("shard lock poisoned").len()).sum()
    }

    /// Whether no keys are present.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|shard| shard.read().expect("shard lock poisoned").is_empty())
    }

    /// Evicts `key` and its store; returns whether it existed. Readers
    /// holding a snapshot of the dropped store keep it alive until they let
    /// go — eviction never tears an in-flight query.
    pub fn drop_key(&self, key: &str) -> bool {
        self.shard(key).write().expect("shard lock poisoned").remove(key).is_some()
    }

    /// Largest per-key epoch across the map (0 for an empty map): the
    /// store-wide "newest publish" stamp used by store-wide responses.
    pub fn max_epoch(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|shard| {
                shard
                    .read()
                    .expect("shard lock poisoned")
                    .values()
                    .map(|store| store.epoch())
                    .collect::<Vec<_>>()
            })
            .max()
            .unwrap_or(0)
    }

    /// Store-wide summary: key/served counts, total pieces and the epoch
    /// range, gathered shard by shard (each per-key snapshot individually
    /// consistent).
    pub fn store_stats(&self) -> StoreMapStats {
        let mut stats = StoreMapStats::default();
        let mut min_epoch = u64::MAX;
        for shard in self.shards.iter() {
            let guard = shard.read().expect("shard lock poisoned");
            for store in guard.values() {
                stats.keys += 1;
                let epoch = store.epoch();
                min_epoch = min_epoch.min(epoch);
                stats.max_epoch = stats.max_epoch.max(epoch);
                if let Some(snapshot) = store.snapshot() {
                    stats.served += 1;
                    stats.total_pieces += snapshot.num_pieces() as u64;
                }
                let counters = store.merge_counters();
                stats.merges += counters.merges;
                stats.merged_mass += counters.merged_mass;
                stats.merge_error += counters.merge_error;
            }
        }
        if stats.keys > 0 {
            stats.min_epoch = min_epoch;
        }
        stats
    }

    /// Persists the whole map to `path` as an `AHISTMAP` container (atomic
    /// write-then-rename): one entry per key with its epoch and served
    /// synopsis. Each per-key `(epoch, synopsis)` pair is captured under
    /// that store's writer mutex, so every entry is individually consistent
    /// even under concurrent publishes; entries land in canonical key order,
    /// so equal maps save to bit-identical files.
    pub fn save(&self, path: impl AsRef<Path>) -> PersistResult<()> {
        let mut entries = Vec::new();
        for shard in self.shards.iter() {
            let guard = shard.read().expect("shard lock poisoned");
            for (key, store) in guard.iter() {
                let (epoch, snapshot) = store.persisted_state();
                entries.push(StoreMapEntry {
                    key: key.clone(),
                    epoch,
                    synopsis: snapshot.map(|s| s.synopsis().as_ref().clone()),
                });
            }
        }
        save_store_map(path, &entries)
    }

    /// Reopens a map previously [`StoreMap::save`]d: every key serves its
    /// persisted synopsis at its persisted epoch, and each key's epoch
    /// sequence continues monotonically across the restart. Per-key forged
    /// epochs (upper half of the `u64` range) are rejected exactly as
    /// [`SynopsisStore::open`] rejects them.
    pub fn open(path: impl AsRef<Path>) -> PersistResult<Self> {
        let persisted = load_store_map(path)?;
        let map = Self::new();
        for entry in persisted.entries {
            let store = SynopsisStore::resume(entry.epoch, entry.synopsis)?;
            map.shard(&entry.key)
                .write()
                .expect("shard lock poisoned")
                .insert(entry.key, Arc::new(store));
        }
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hist_core::{FittedModel, Histogram};

    fn syn(domain: usize, level: f64) -> Synopsis {
        let h = Histogram::constant(domain, level).unwrap();
        Synopsis::new("constant", 1, FittedModel::Histogram(h))
    }

    #[test]
    fn keys_are_independent_stores() {
        let map = StoreMap::new();
        assert_eq!(map.publish("a", syn(8, 1.0)).unwrap(), 1);
        assert_eq!(map.publish("b", syn(8, 2.0)).unwrap(), 1, "each key has its own epochs");
        assert_eq!(map.publish("a", syn(8, 3.0)).unwrap(), 2);
        assert_eq!(map.epoch("a"), 2);
        assert_eq!(map.epoch("b"), 1);
        assert_eq!(map.epoch("absent"), 0);
        assert_eq!(map.snapshot("a").unwrap().total_mass(), 3.0 * 8.0);
        assert_eq!(map.snapshot("b").unwrap().total_mass(), 2.0 * 8.0);
        assert!(map.snapshot("absent").is_none());
    }

    #[test]
    fn invalid_keys_are_rejected_with_a_typed_error() {
        let map = StoreMap::new();
        assert!(map.publish("", syn(8, 1.0)).is_err());
        let long = "k".repeat(hist_persist::MAX_KEY_BYTES + 1);
        assert!(map.publish(&long, syn(8, 1.0)).is_err());
        assert!(map.update_merge(&long, &syn(8, 1.0), 4).is_err());
        assert!(map.is_empty(), "failed publishes must not create keys");
        let exact = "k".repeat(hist_persist::MAX_KEY_BYTES);
        assert!(map.publish(&exact, syn(8, 1.0)).is_ok());
    }

    #[test]
    fn listing_and_eviction_cover_every_shard() {
        let map = StoreMap::new();
        // Far more keys than shards, so every shard holds some and listing
        // must cross shard boundaries.
        for i in 0..1024 {
            map.publish(&format!("key/{i:04}"), syn(4, i as f64 + 1.0)).unwrap();
        }
        assert_eq!(map.shards.len(), SHARDS);
        assert!(map.shards.iter().all(|shard| !shard.read().unwrap().is_empty()));
        let keys = map.keys();
        assert_eq!(keys.len(), 1024);
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys list in sorted order");
        assert_eq!(map.len(), 1024);
        assert!(map.drop_key("key/0007"));
        assert!(!map.drop_key("key/0007"), "double drop reports absence");
        assert_eq!(map.len(), 1023);
        assert!(!map.contains_key("key/0007"));
    }

    #[test]
    fn dropped_stores_stay_alive_for_snapshot_holders() {
        let map = StoreMap::new();
        map.publish("ephemeral", syn(16, 2.0)).unwrap();
        let snapshot = map.snapshot("ephemeral").unwrap();
        assert!(map.drop_key("ephemeral"));
        assert_eq!(snapshot.total_mass(), 2.0 * 16.0, "held snapshots outlive eviction");
    }

    #[test]
    fn store_stats_summarize_the_map() {
        let map = StoreMap::new();
        assert_eq!(map.store_stats(), StoreMapStats::default());
        map.publish("a", syn(8, 1.0)).unwrap();
        map.publish("a", syn(8, 1.5)).unwrap();
        map.publish("b", syn(8, 2.0)).unwrap();
        map.store_or_create("never-published").unwrap();
        let stats = map.store_stats();
        assert_eq!(stats.keys, 3);
        assert_eq!(stats.served, 2);
        assert_eq!(stats.total_pieces, 2);
        assert_eq!(stats.min_epoch, 0, "the never-published key floors the range");
        assert_eq!(stats.max_epoch, 2);
    }

    #[test]
    fn save_and_open_round_trip_every_key() {
        let dir = std::env::temp_dir().join("hist-serve-tests").join("store-map");
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("map.snapshot");

        let map = StoreMap::new();
        map.publish("a", syn(8, 1.0)).unwrap();
        map.publish("a", syn(8, 4.0)).unwrap();
        map.publish("b", syn(16, 2.0)).unwrap();
        map.store_or_create("empty").unwrap();
        map.save(&path).unwrap();

        let reopened = StoreMap::open(&path).unwrap();
        assert_eq!(reopened.keys(), ["a", "b", "empty"]);
        assert_eq!(reopened.epoch("a"), 2);
        assert_eq!(reopened.snapshot("a").unwrap().total_mass(), 4.0 * 8.0);
        assert!(reopened.snapshot("empty").is_none());
        // Epochs continue monotonically per key after the restart.
        assert_eq!(reopened.publish("a", syn(8, 5.0)).unwrap(), 3);
        assert_eq!(reopened.publish("b", syn(16, 3.0)).unwrap(), 2);

        // Saving the reopened map reproduces the file bit for bit (canonical
        // entry order, deterministic encodings) once the epochs match again.
        let copy = StoreMap::open(&path).unwrap();
        let second = dir.join("map2.snapshot");
        copy.save(&second).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), std::fs::read(&second).unwrap());
    }

    #[test]
    fn forged_per_key_epochs_fail_to_open() {
        let dir = std::env::temp_dir().join("hist-serve-tests").join("store-map-forged");
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("forged.snapshot");
        let entries = vec![StoreMapEntry {
            key: "evil".into(),
            epoch: u64::MAX,
            synopsis: Some(syn(8, 1.0)),
        }];
        std::fs::write(&path, hist_persist::encode_store_map(&entries).unwrap()).unwrap();
        assert!(StoreMap::open(&path).is_err());
    }
}
