//! Keyed persistence suite for the multi-tenant store map: the `AHISTMAP`
//! container must round-trip every key bit for bit, reject every corruption
//! with a typed error (mirroring `persist_corruption.rs` for the other
//! containers), and open large maps in sane time.
//!
//! * **Save/open bit-identity** — a map with served, unserved and
//!   deep-merged keys survives `save` → `open` with every per-key epoch and
//!   every query answer preserved exactly, and re-saving the reopened map
//!   reproduces the file bytes (canonical key order makes the encoding
//!   deterministic).
//! * **Corruption sweeps** — truncation at every prefix, byte flips at
//!   every offset, forged counts/keys/tags behind *valid* CRCs, and seeded
//!   random soup: decode is total, panic-free and never allocates at a
//!   hostile count's command.
//! * **Scale** — a 100 000-key map encodes, saves, loads and reopens within
//!   a generous wall-clock bound, so the per-key open path stays linear.
//! * **Epochs across restarts** — a forged epoch past `u64::MAX / 2` is
//!   rejected while the largest accepted one opens and keeps publishing, and
//!   a key saved with an epoch but no synopsis reopens empty with its epoch
//!   counter intact.
//! * **Phantom keys** — a failed `update_merge` (zero budget, bad key) on a
//!   fresh key creates nothing: `keys()` never shows it.
//! * **Drop-while-merging** — `drop_key` racing per-key `update_merge`s and
//!   `snapshot` readers never panics or poisons a shard lock.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use approx_hist::persist::{
    crc32, decode_store_map, encode_store_map, CodecError, FORMAT_VERSION, MAP_MAGIC, MAX_KEY_BYTES,
};
use approx_hist::{
    Error, Estimator, FittedModel, GreedyMerging, Histogram, PersistError, StoreMap, StoreMapEntry,
    Synopsis, DEFAULT_KEY,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn temp_dir(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("approx-hist-tests").join(test);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A tiny synopsis (one histogram piece, distinct mass per seed) — cheap
/// enough to mint a hundred thousand of.
fn tiny_synopsis(seed: u64) -> Synopsis {
    let mass = 1.0 + (seed % 97) as f64;
    let h = Histogram::from_breakpoints(8, &[], vec![mass]).unwrap();
    Synopsis::new("merging", 1, FittedModel::Histogram(h))
}

/// Piece budget merges re-merge down to (`2k + 1` for fixture `k`).
const BUDGET: usize = 2 * common::FIXTURE_K + 1;

/// A noisy chunk synopsis: every merge of one of these costs real error.
fn chunk(seed: u64) -> Synopsis {
    GreedyMerging::new(common::fixture_builder())
        .fit(&common::noisy_steps(seed, 96, 4, 0.35))
        .unwrap()
}

/// A small canonical store-map encoding the corruption sweeps run over:
/// two served keys and one key that never published.
fn map_fixture() -> Vec<u8> {
    let entries = vec![
        StoreMapEntry { key: "a".into(), epoch: 3, synopsis: Some(tiny_synopsis(1)) },
        StoreMapEntry { key: "b/unserved".into(), epoch: 0, synopsis: None },
        StoreMapEntry { key: "c".into(), epoch: 7, synopsis: Some(tiny_synopsis(2)) },
    ];
    encode_store_map(&entries).expect("valid fixture entries")
}

/// Builds a syntactically framed `AHISTMAP` container with an arbitrary
/// payload and a *correct* CRC trailer, so decode failures exercise the
/// payload parser rather than the checksum.
fn forge_map_container(payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAP_MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(payload);
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

/// One store-map entry's raw payload bytes.
fn raw_entry(key: &[u8], epoch: u64, synopsis: Option<&Synopsis>) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(key.len() as u64).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(&epoch.to_le_bytes());
    match synopsis {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            let blob = approx_hist::encode_synopsis(s);
            out.extend_from_slice(&(blob.len() as u64).to_le_bytes());
            out.extend_from_slice(&blob);
        }
    }
    out
}

#[test]
fn save_open_round_trips_every_key_bit_for_bit() {
    let dir = temp_dir("keyed-store-round-trip");
    let path = dir.join("map.ahistmap");

    // A map mixing fitted synopses (the whole fixture fleet on one signal),
    // a deep-merged key, the default key, and a present-but-unserved key.
    let map = StoreMap::new();
    let (_, signal) = common::fixture_signals().remove(0);
    let mut fleet_keys = Vec::new();
    for estimator in common::fixture_fleet() {
        let key = format!("fleet/{}", estimator.name());
        map.publish(&key, estimator.fit(&signal).unwrap()).unwrap();
        fleet_keys.push(key);
    }
    map.publish(DEFAULT_KEY, tiny_synopsis(0)).unwrap();
    for round in 0..5 {
        map.update_merge("merged", &tiny_synopsis(round), 2 * common::FIXTURE_K + 1).unwrap();
    }
    map.store_or_create("unserved").unwrap();

    map.save(&path).expect("save");
    let reopened = StoreMap::open(&path).expect("open");

    // Same keys, same per-key epochs, same per-key answers — bit for bit.
    assert_eq!(reopened.keys(), map.keys());
    for key in map.keys() {
        assert_eq!(reopened.epoch(&key), map.epoch(&key), "{key}: epoch diverged");
        match (map.snapshot(&key), reopened.snapshot(&key)) {
            (None, None) => {}
            (Some(before), Some(after)) => {
                assert_eq!(before.epoch(), after.epoch(), "{key}: snapshot epoch diverged");
                let n = before.domain();
                assert_eq!(n, after.domain(), "{key}: domain diverged");
                let xs: Vec<usize> = (0..n).step_by((n / 16).max(1)).chain([n - 1]).collect();
                for &x in &xs {
                    assert_eq!(
                        before.cdf(x).unwrap().to_bits(),
                        after.cdf(x).unwrap().to_bits(),
                        "{key}: cdf({x}) bits diverged"
                    );
                }
            }
            (before, after) => panic!("{key}: served-ness diverged: {before:?} vs {after:?}"),
        }
    }

    // Epochs keep advancing monotonically after the reopen.
    let before = map.epoch("merged");
    let after = reopened.update_merge("merged", &tiny_synopsis(99), 11).unwrap();
    assert!(after > before, "reopened epoch sequence must continue, not restart");

    // Canonical key order makes the encoding deterministic: re-saving the
    // *reopened* map reproduces the file bytes exactly.
    let original = std::fs::read(&path).unwrap();
    let resaved_path = dir.join("map-resaved.ahistmap");
    StoreMap::open(&path).unwrap().save(&resaved_path).expect("re-save");
    assert_eq!(
        std::fs::read(&resaved_path).unwrap(),
        original,
        "save → open → save must be bit-identical"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncation_at_every_prefix_length_is_an_error() {
    let fixture = map_fixture();
    for len in 0..fixture.len() {
        assert!(
            decode_store_map(&fixture[..len]).is_err(),
            "prefix of {len} bytes decoded successfully"
        );
    }
    // The untruncated fixture still decodes — the sweep above must not pass
    // vacuously.
    assert_eq!(decode_store_map(&fixture).unwrap().entries.len(), 3);
}

#[test]
fn single_byte_flips_at_every_offset_are_an_error() {
    let fixture = map_fixture();
    for offset in 0..fixture.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut corrupted = fixture.clone();
            corrupted[offset] ^= mask;
            assert!(
                decode_store_map(&corrupted).is_err(),
                "flip {mask:#04x} at offset {offset} decoded successfully"
            );
        }
    }
}

#[test]
fn wrong_magics_and_future_versions_are_typed_errors() {
    // The other containers' decoders reject an AHISTMAP, and vice versa.
    assert!(matches!(approx_hist::decode_synopsis(&map_fixture()), Err(CodecError::BadMagic)));
    let synopsis_container = approx_hist::encode_synopsis(&tiny_synopsis(0));
    assert!(matches!(decode_store_map(&synopsis_container), Err(CodecError::BadMagic)));

    // Empty and short inputs are truncations, not magic mismatches.
    assert!(matches!(decode_store_map(&[]), Err(CodecError::Truncated { available: 0, .. })));
    assert!(matches!(
        decode_store_map(&MAP_MAGIC[..4]),
        Err(CodecError::Truncated { available: 4, .. })
    ));

    // A future format version is a typed rejection.
    let mut future = map_fixture();
    future[8] = 0x2A;
    match decode_store_map(&future) {
        Err(CodecError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, 0x2A);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn forged_counts_keys_and_tags_behind_valid_crcs_are_typed_errors() {
    // An entry count of u64::MAX: rejected by the count bound against the
    // bytes actually present, never allocated.
    let forged = forge_map_container(&u64::MAX.to_le_bytes());
    assert!(matches!(
        decode_store_map(&forged),
        Err(CodecError::CountOutOfBounds { count: u64::MAX, .. })
    ));

    // A key length announcing more bytes than the payload holds.
    let mut payload = Vec::new();
    payload.extend_from_slice(&1u64.to_le_bytes()); // one entry
    payload.extend_from_slice(&(u64::MAX / 4).to_le_bytes()); // huge key length
    assert!(decode_store_map(&forge_map_container(&payload)).is_err());

    // An empty key violates the key rules. (One pad byte keeps the entry at
    // the 18-byte minimum so the count bound passes and the key check fires.)
    let mut payload = Vec::new();
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.extend_from_slice(&raw_entry(b"", 1, None));
    payload.push(0);
    assert!(matches!(
        decode_store_map(&forge_map_container(&payload)),
        Err(CodecError::InvalidKey { .. })
    ));

    // A key over the length cap.
    let long = vec![b'k'; MAX_KEY_BYTES + 1];
    let mut payload = Vec::new();
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.extend_from_slice(&raw_entry(&long, 1, None));
    assert!(matches!(
        decode_store_map(&forge_map_container(&payload)),
        Err(CodecError::InvalidKey { .. })
    ));

    // A key that is not valid UTF-8.
    let mut payload = Vec::new();
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.extend_from_slice(&raw_entry(&[0xFF, 0xFE], 1, None));
    assert!(matches!(
        decode_store_map(&forge_map_container(&payload)),
        Err(CodecError::InvalidKey { .. })
    ));

    // Keys out of canonical order (and its special case, duplicates) are
    // rejected — sorted uniqueness is what makes re-encoding bit-identical.
    for second in [b"a".as_slice(), b"b".as_slice()] {
        let mut payload = Vec::new();
        payload.extend_from_slice(&2u64.to_le_bytes());
        payload.extend_from_slice(&raw_entry(b"b", 1, None));
        payload.extend_from_slice(&raw_entry(second, 2, None));
        assert!(matches!(
            decode_store_map(&forge_map_container(&payload)),
            Err(CodecError::InvalidKey { reason: "keys out of canonical order" })
        ));
    }

    // An unknown presence tag.
    let mut payload = Vec::new();
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.extend_from_slice(&(1u64).to_le_bytes());
    payload.push(b'k');
    payload.extend_from_slice(&5u64.to_le_bytes()); // epoch
    payload.push(7); // presence: neither 0 nor 1
    assert!(matches!(
        decode_store_map(&forge_map_container(&payload)),
        Err(CodecError::InvalidTag { what: "store-map presence", found: 7 })
    ));

    // A presence-1 entry whose nested blob is not an AHISTSYN container.
    let mut payload = Vec::new();
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.extend_from_slice(&(1u64).to_le_bytes());
    payload.push(b'k');
    payload.extend_from_slice(&5u64.to_le_bytes());
    payload.push(1);
    payload.extend_from_slice(&4u64.to_le_bytes());
    payload.extend_from_slice(b"junk");
    assert!(decode_store_map(&forge_map_container(&payload)).is_err());

    // A valid single-entry payload with trailing junk.
    let mut payload = Vec::new();
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.extend_from_slice(&raw_entry(b"k", 5, Some(&tiny_synopsis(3))));
    payload.extend_from_slice(b"junk");
    assert!(matches!(
        decode_store_map(&forge_map_container(&payload)),
        Err(CodecError::TrailingBytes { remaining: 4 })
    ));

    // The duplicate-key rejection also guards the *encoder*.
    let twice = vec![
        StoreMapEntry { key: "same".into(), epoch: 1, synopsis: None },
        StoreMapEntry { key: "same".into(), epoch: 2, synopsis: None },
    ];
    assert!(matches!(
        encode_store_map(&twice),
        Err(CodecError::InvalidKey { reason: "duplicate key" })
    ));
}

#[test]
fn seeded_random_byte_soup_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xBAD_A157);
    for _ in 0..2_000 {
        let len = rng.gen_range(0..256);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
        let _ = decode_store_map(&bytes);

        // Same soup behind a correct frame, so it reaches the payload parser
        // with a valid CRC.
        let framed = forge_map_container(&bytes);
        let _ = decode_store_map(&framed);
    }
}

#[test]
fn a_hundred_thousand_keys_save_and_open_within_bound() {
    let _gate = common::stress_gate();
    const KEYS: usize = 100_000;
    let dir = temp_dir("keyed-store-100k");
    let path = dir.join("big.ahistmap");

    // Mint the entries directly (publishing through a StoreMap would also
    // work but measures the map, not the codec + open path under test).
    let entries: Vec<StoreMapEntry> = (0..KEYS)
        .map(|i| StoreMapEntry {
            key: format!("tenant/{i:06}"),
            epoch: (i % 13) as u64,
            synopsis: if i % 16 == 0 { None } else { Some(tiny_synopsis(i as u64)) },
        })
        .collect();
    let encoded = encode_store_map(&entries).expect("encode 100k entries");
    std::fs::write(&path, &encoded).expect("write 100k-key map");

    let started = Instant::now();
    let map = StoreMap::open(&path).expect("open 100k-key map");
    let open_elapsed = started.elapsed();

    assert_eq!(map.len(), KEYS);
    let stats = map.store_stats();
    assert_eq!(stats.keys, KEYS as u64);
    assert_eq!(stats.served, (KEYS - KEYS.div_ceil(16)) as u64);
    assert_eq!(map.epoch("tenant/000012"), 12);
    assert!(map.snapshot("tenant/000016").is_none(), "every 16th key is unserved");
    assert_eq!(
        map.snapshot("tenant/000001").unwrap().total_mass().to_bits(),
        tiny_synopsis(1).total_mass().to_bits()
    );

    // Generous sanity bound (debug builds included): open must stay linear
    // in the key count, not quadratic behind some accidental re-sort/re-hash.
    assert!(
        open_elapsed.as_secs() < 60,
        "opening {KEYS} keys took {open_elapsed:?} — the open path regressed"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn forged_epochs_near_the_counter_limit_are_rejected() {
    // A hand-forged map with an absurd epoch must not open: the next publish
    // would overflow the counter and epochs would go backwards.
    let dir = temp_dir("keyed-store-forged-epoch");
    let path = dir.join("forged.ahistmap");
    let forged = |epoch: u64| {
        let entry = StoreMapEntry { key: "evil".into(), epoch, synopsis: Some(tiny_synopsis(1)) };
        encode_store_map(&[entry]).expect("valid entry")
    };
    std::fs::write(&path, forged(u64::MAX)).unwrap();
    assert!(StoreMap::open(&path).is_err());

    // The largest accepted epoch still opens and publishes fine.
    std::fs::write(&path, forged(u64::MAX / 2)).unwrap();
    let map = StoreMap::open(&path).unwrap();
    assert_eq!(map.epoch("evil"), u64::MAX / 2);
    assert_eq!(map.publish("evil", tiny_synopsis(2)).unwrap(), u64::MAX / 2 + 1);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_key_saved_empty_reopens_empty_and_resumes_its_epoch_counter() {
    let dir = temp_dir("keyed-store-empty-key");
    let path = dir.join("map.ahistmap");

    // A key with an epoch but no synopsis, beside a never-published one.
    let entries = [
        StoreMapEntry { key: "emptied".into(), epoch: 5, synopsis: None },
        StoreMapEntry { key: "fresh".into(), epoch: 0, synopsis: None },
    ];
    std::fs::write(&path, encode_store_map(&entries).unwrap()).unwrap();
    let map = StoreMap::open(&path).unwrap();
    assert_eq!(map.keys(), ["emptied", "fresh"]);
    for (key, epoch) in [("emptied", 5), ("fresh", 0)] {
        assert!(map.snapshot(key).is_none(), "{key}: reopens serving nothing");
        assert_eq!(map.epoch(key), epoch, "{key}: reads the epoch it was saved at");
        let next = map.publish(key, tiny_synopsis(3)).unwrap();
        assert_eq!(next, epoch + 1, "{key}: the epoch counter resumes after the reopen");
    }

    // Opening a missing file or garbage is a typed error, not a panic.
    assert!(matches!(StoreMap::open(dir.join("missing.ahistmap")), Err(PersistError::Io(_))));
    std::fs::write(&path, b"AHISTMAP but corrupted").unwrap();
    assert!(matches!(StoreMap::open(&path), Err(PersistError::Codec(_))));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_merge_never_creates_a_phantom_key() {
    let map = StoreMap::new();

    let err = map.update_merge("tenants/ghost", &chunk(1), 0).unwrap_err();
    assert!(
        matches!(err, Error::InvalidParameter { name: "budget", .. }),
        "zero budget must be a typed error, got {err:?}"
    );
    assert!(!map.contains_key("tenants/ghost"), "a failed merge must not create its key");
    assert!(map.keys().is_empty());
    assert_eq!(map.len(), 0);

    // A hostile key fails validation before any store exists either.
    assert!(map.update_merge("", &chunk(1), BUDGET).is_err());
    assert!(map.is_empty(), "a rejected key must not appear");

    // The same chunk at a valid budget still lands normally.
    let epoch = map.update_merge("tenants/real", &chunk(1), BUDGET).unwrap();
    assert_eq!(epoch, 1);
    assert_eq!(map.keys(), vec!["tenants/real".to_string()]);
}

#[test]
fn dropping_keys_while_merging_and_reading_never_poisons_the_map() {
    let _gate = common::stress_gate();
    const KEYS: usize = 8;

    let map = Arc::new(StoreMap::new());
    for k in 0..KEYS {
        map.update_merge(&format!("tenants/{k}"), &chunk(k as u64), BUDGET).unwrap();
    }

    let done = Arc::new(AtomicBool::new(false));
    let deadline = Instant::now() + Duration::from_millis(400);

    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for offset in 0..2 {
            let map = Arc::clone(&map);
            let done = Arc::clone(&done);
            readers.push(scope.spawn(move || {
                let mut reads = 0usize;
                let mut i = offset;
                while !done.load(Ordering::Acquire) {
                    // A key between its drop and its re-merge has no snapshot.
                    if let Some(snapshot) = map.snapshot(&format!("tenants/{}", i % KEYS)) {
                        assert!(snapshot.domain() > 0);
                        snapshot.quantile_batch(&[0.5]).expect("a served snapshot answers");
                        reads += 1;
                    }
                    i += 1;
                }
                reads
            }));
        }

        let churner = {
            let map = Arc::clone(&map);
            scope.spawn(move || {
                let mut round = 0usize;
                while Instant::now() < deadline || round < 2 * KEYS {
                    let key = format!("tenants/{}", round % KEYS);
                    map.drop_key(&key);
                    map.update_merge(&key, &chunk(round as u64), BUDGET).unwrap();
                    map.update_merge(&key, &chunk(round as u64 + 1), BUDGET).unwrap();
                    round += 1;
                }
                round
            })
        };

        let rounds = churner.join().expect("churner");
        done.store(true, Ordering::Release);
        let reads: usize = readers.into_iter().map(|r| r.join().expect("reader")).sum();

        assert!(rounds >= 2 * KEYS, "the churner must cycle every key at least twice");
        assert!(reads >= 2, "readers must have observed snapshots under churn");
    });

    assert_eq!(map.len(), KEYS, "every dropped key was re-created");
}
