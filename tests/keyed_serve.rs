//! Multi-tenant serving suite: the keyed wire path must be indistinguishable
//! from querying each key's store in-process, at any key count.
//!
//! * **Keyed bit-identity** — synopses published at distinct keys over the
//!   wire answer `cdf`/`quantile`/`mass` batches bit-identically to the
//!   local fits, and retargeting a client between keys never bleeds state.
//! * **Key lifecycle** — `list_keys`, per-key and store-wide stats and
//!   `drop_key` over the wire, with typed `UnknownKey`/`EmptyStore` errors
//!   for absent and unserved keys.
//! * **Phantom keys** — a failed wire `UpdateMerge` on a fresh key creates
//!   nothing: `ListKeys` and `StoreStats` never show it.
//! * **Merge counters** — per-key `Stats` and store-wide `StoreStats` carry
//!   the merge count, merged mass and merge error, equal to an in-process
//!   store's after the same merges.
//! * **100k-key stress** — a hundred thousand tenants plus a hot set under
//!   concurrent per-key wire writers, randomized keyed readers and a
//!   default-key reader: per-key epoch monotonicity, zero lost updates, and
//!   final served synopses bit-identical to locally maintained mirrors of
//!   each writer's merge sequence. Registered under the shared stress gate
//!   from `tests/common`.

mod common;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use approx_hist::{
    encode_synopsis, ErrorCode, Estimator, EstimatorBuilder, FittedModel, GreedyMerging,
    HistClient, Histogram, Interval, NetError, Signal, StoreMap, Synopsis, SynopsisStore,
    DEFAULT_KEY,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Piece budget every wire merge re-merges down to (`2k + 1` for fixture `k`).
const BUDGET: usize = 2 * common::FIXTURE_K + 1;

use common::spawn_server;

fn chunk(seed: u64) -> Synopsis {
    let estimator = GreedyMerging::new(EstimatorBuilder::new(common::FIXTURE_K));
    let mut rng = StdRng::seed_from_u64(seed);
    let values: Vec<f64> =
        (0..96).map(|i| ((i / 24) % 3) as f64 * 2.0 + 1.0 + rng.gen_range(0.0..0.5)).collect();
    estimator.fit(&Signal::from_dense(values).unwrap()).unwrap()
}

/// A tiny single-piece synopsis, distinct mass per seed: cheap enough to
/// mint one per tenant at the 100k scale.
fn tiny_synopsis(seed: u64) -> Synopsis {
    let mass = 1.0 + (seed % 97) as f64;
    let h = Histogram::from_breakpoints(8, &[], vec![mass]).unwrap();
    Synopsis::new("merging", 1, FittedModel::Histogram(h))
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn keyed_answers_are_bit_identical_to_local_fits() {
    let mut server = spawn_server(Arc::new(StoreMap::new()));
    let mut client = HistClient::connect(server.local_addr()).unwrap();
    let mut rng = StdRng::seed_from_u64(0x2015_600D);

    // Publish one fit per fixture signal, each at its own key, all through
    // the wire.
    let mut published = Vec::new();
    for (fixture, signal) in common::fixture_signals() {
        let estimator = GreedyMerging::new(common::fixture_builder());
        let local = estimator.fit(&signal).unwrap();
        let key = format!("fixture/{fixture}");
        client.set_key(&key).unwrap();
        let epoch = client.publish(&local).unwrap();
        assert_eq!(epoch, 1, "{key}: first publish");
        published.push((key, local));
    }

    // Interleave queries across the keys in seeded random order: answers
    // must match the key's own local fit bit for bit — no state bleeding
    // between retargets.
    for _ in 0..40 {
        let (key, local) = &published[rng.gen_range(0..published.len())];
        client.set_key(key).unwrap();
        let n = local.domain();

        let mut xs: Vec<usize> = (0..16).map(|_| rng.gen_range(0..n)).collect();
        xs.extend([0, n - 1]);
        let remote = client.cdf_batch(&xs).unwrap();
        assert_eq!(remote.epoch, 1, "{key}");
        let local_cdf: Vec<f64> = xs.iter().map(|&x| local.cdf(x).unwrap()).collect();
        assert_eq!(bits(&remote.value), bits(&local_cdf), "{key}: cdf bits");

        let ps: Vec<f64> = (0..12).map(|_| rng.gen_range(0.0..=1.0)).collect();
        let remote = client.quantile_batch(&ps).unwrap();
        assert_eq!(remote.value, local.quantile_batch(&ps).unwrap(), "{key}: quantiles");

        let mut ends = [rng.gen_range(0..n), rng.gen_range(0..n)];
        ends.sort_unstable();
        let ranges = [Interval::new(ends[0], ends[1]).unwrap()];
        let remote = client.mass_batch(&ranges).unwrap();
        let local_mass = local.mass_batch(&ranges).unwrap();
        assert_eq!(bits(&remote.value), bits(&local_mass), "{key}: mass bits");

        // Per-key stats see the key's own synopsis, not a neighbour's.
        let stats = client.stats().unwrap();
        assert_eq!(stats.epoch, 1, "{key}");
        let synopsis = stats.synopsis.expect("published key");
        assert_eq!(synopsis.domain as usize, n, "{key}: stats domain");
        assert_eq!(synopsis.pieces as usize, local.num_pieces(), "{key}: stats pieces");
    }
    server.shutdown();
}

fn the_key_lifecycle_works_over_the_wire() {
    let map = Arc::new(StoreMap::new());
    let mut server = spawn_server(Arc::clone(&map));
    let mut client = HistClient::connect(server.local_addr()).unwrap();

    for (i, key) in ["api/login", "api/search", "jobs/nightly"].iter().enumerate() {
        client.set_key(key).unwrap();
        client.publish(&chunk(i as u64)).unwrap();
    }
    client.set_key("api/login").unwrap();
    client.update_merge(&chunk(9), BUDGET).unwrap();

    // list_keys: canonical sorted order, stamped with the map-wide epoch.
    let listing = client.list_keys().unwrap();
    assert_eq!(listing.value, ["api/login", "api/search", "jobs/nightly"]);
    assert_eq!(listing.epoch, 2, "api/login merged once on top of its publish");

    // Store-wide stats agree with the in-process view.
    let local = map.store_stats();
    let remote = client.store_stats().unwrap();
    assert_eq!(remote.value.keys, 3);
    assert_eq!(remote.value.served, 3);
    assert_eq!(remote.value.total_pieces, local.total_pieces);
    assert_eq!((remote.value.min_epoch, remote.value.max_epoch), (1, 2));
    assert_eq!(remote.epoch, local.max_epoch);

    // drop_key: reports prior existence, then the key is really gone.
    let dropped = client.drop_key("api/search").unwrap();
    assert!(dropped.value, "first drop sees the key");
    let dropped = client.drop_key("api/search").unwrap();
    assert!(!dropped.value, "second drop reports absence");
    assert_eq!(client.list_keys().unwrap().value, ["api/login", "jobs/nightly"]);
    assert!(!map.contains_key("api/search"));

    // Querying the dropped key is a typed UnknownKey, not a silent default.
    client.set_key("api/search").unwrap();
    match client.quantile_batch(&[0.5]) {
        Err(NetError::Remote { code: ErrorCode::UnknownKey, .. }) => {}
        other => panic!("expected UnknownKey, got {other:?}"),
    }
    server.shutdown();
}

fn missing_and_unserved_keys_are_typed_errors() {
    let map = Arc::new(StoreMap::new());
    let mut server = spawn_server(Arc::clone(&map));
    let mut client = HistClient::connect(server.local_addr()).unwrap();

    // An empty map: the default key is "empty store", an absent named key is
    // "unknown key" — distinct, typed, and the connection survives both.
    match client.cdf_batch(&[0]) {
        Err(NetError::Remote { code: ErrorCode::EmptyStore, .. }) => {}
        other => panic!("expected EmptyStore at the default key, got {other:?}"),
    }
    client.set_key("nobody/home").unwrap();
    match client.cdf_batch(&[0]) {
        Err(NetError::Remote { code: ErrorCode::UnknownKey, .. }) => {}
        other => panic!("expected UnknownKey, got {other:?}"),
    }

    // Stats are total: absent keys answer epoch 0 / no synopsis rather than
    // an error, so health probes never race key creation.
    let stats = client.stats().unwrap();
    assert_eq!(stats.epoch, 0);
    assert!(stats.synopsis.is_none());

    // A present-but-unserved key answers EmptyStore, not UnknownKey.
    map.store_or_create("created/unserved").unwrap();
    client.set_key("created/unserved").unwrap();
    match client.quantile_batch(&[0.5]) {
        Err(NetError::Remote { code: ErrorCode::EmptyStore, .. }) => {}
        other => panic!("expected EmptyStore for unserved key, got {other:?}"),
    }

    // Invalid keys never reach the wire: the client refuses them locally.
    assert!(client.set_key("").is_err());
    assert!(client.set_key(&"k".repeat(256)).is_err());
    server.shutdown();
}

const TENANTS: usize = 100_000;
const WRITERS: usize = 4;
const KEYS_PER_WRITER: usize = 2;
const READERS: usize = 4;
const RUN_FOR: Duration = Duration::from_millis(400);
const MIN_MERGES: usize = 8;

fn hot_key(writer: usize, slot: usize) -> String {
    format!("hot/{writer}-{slot}")
}

fn a_hundred_thousand_keys_survive_concurrent_writers_and_readers() {
    let _gate = common::stress_gate();

    // 100k cold tenants (never written during the stress), a hot set owned
    // by the writers, and the default key for the default-key reader.
    let map = Arc::new(StoreMap::new());
    for i in 0..TENANTS {
        map.publish(&format!("tenant/{i:06}"), tiny_synopsis(i as u64)).unwrap();
    }
    for w in 0..WRITERS {
        for s in 0..KEYS_PER_WRITER {
            map.publish(&hot_key(w, s), chunk((w * 100 + s) as u64)).unwrap();
        }
    }
    map.publish(DEFAULT_KEY, chunk(7_000)).unwrap();
    let default_local = map.snapshot(DEFAULT_KEY).unwrap().synopsis().as_ref().clone();

    let mut server = spawn_server(Arc::clone(&map));
    let addr = server.local_addr();
    let done = Arc::new(AtomicBool::new(false));
    let deadline = Instant::now() + RUN_FOR;

    let per_key_merges: Vec<(String, usize, Synopsis)> = std::thread::scope(|scope| {
        // Writers: each owns a disjoint slice of hot keys and ships wire
        // merges while maintaining a local mirror of its exact merge
        // sequence. Exclusive ownership makes the sequence deterministic, so
        // the mirror must equal the served synopsis bit for bit at the end.
        let mut writers = Vec::new();
        for w in 0..WRITERS {
            let map = Arc::clone(&map);
            writers.push(scope.spawn(move || {
                let mut client = HistClient::connect(addr).expect("writer connect");
                let mut states: Vec<(String, usize, Synopsis, u64)> = (0..KEYS_PER_WRITER)
                    .map(|s| {
                        let key = hot_key(w, s);
                        let mirror = map.snapshot(&key).unwrap().synopsis().as_ref().clone();
                        (key, 0usize, mirror, 1u64)
                    })
                    .collect();
                let mut round = 0usize;
                while Instant::now() < deadline
                    || states.iter().any(|(_, merges, ..)| *merges < MIN_MERGES)
                {
                    let (key, merges, mirror, last_epoch) = &mut states[round % KEYS_PER_WRITER];
                    let fresh = chunk((w * 10_000 + round) as u64);
                    client.set_key(key).expect("writer key");
                    let epoch = client.update_merge(&fresh, BUDGET).expect("wire merge");
                    assert!(
                        epoch > *last_epoch,
                        "writer {w}: {key} epoch went backwards ({epoch} <= {last_epoch})"
                    );
                    *last_epoch = epoch;
                    *mirror = mirror.merge(&fresh, BUDGET).expect("mirror merge");
                    *merges += 1;
                    round += 1;
                }
                states
                    .into_iter()
                    .map(|(key, merges, mirror, _)| (key, merges, mirror))
                    .collect::<Vec<_>>()
            }));
        }

        // Readers: randomized keyed queries across the full tenant space
        // (bit-identical to the local store, epoch pinned at 1) and the hot
        // set (per-key epoch monotonicity under live merges).
        let mut readers = Vec::new();
        for r in 0..READERS {
            let map = Arc::clone(&map);
            let done = Arc::clone(&done);
            readers.push(scope.spawn(move || {
                let mut client = HistClient::connect(addr).expect("reader connect");
                let mut rng = StdRng::seed_from_u64(0xFEED_0000 + r as u64);
                let mut hot_epochs: HashMap<String, u64> = HashMap::new();
                let mut tenant_reads = 0usize;
                let mut hot_reads = 0usize;
                while !done.load(Ordering::Acquire) {
                    if rng.gen_bool(0.5) {
                        // Cold tenant: nobody writes it, so the wire answer
                        // must equal the local store's — bit for bit, at
                        // epoch 1.
                        let key = format!("tenant/{:06}", rng.gen_range(0..TENANTS));
                        client.set_key(&key).expect("tenant key");
                        let ps: Vec<f64> = (0..8).map(|_| rng.gen_range(0.0..=1.0)).collect();
                        let remote = client.quantile_batch(&ps).expect("tenant quantiles");
                        let local = map
                            .snapshot(&key)
                            .expect("tenant is published")
                            .quantile_batch(&ps)
                            .expect("local quantiles");
                        assert_eq!(remote.value, local, "reader {r}: {key} diverged");
                        assert_eq!(remote.epoch, 1, "reader {r}: {key} was never re-published");
                        tenant_reads += 1;
                    } else {
                        // Hot key: values race with the writers, but its
                        // epoch may never go backwards on one connection.
                        let key =
                            hot_key(rng.gen_range(0..WRITERS), rng.gen_range(0..KEYS_PER_WRITER));
                        client.set_key(&key).expect("hot key");
                        let stats = client.stats().expect("hot stats");
                        let n = stats.synopsis.expect("hot keys are published").domain as usize;
                        let mut xs: Vec<usize> = (0..8).map(|_| rng.gen_range(0..n)).collect();
                        xs.sort_unstable();
                        let cdf = client.cdf_batch(&xs).expect("hot cdf");
                        let seen = hot_epochs.entry(key.clone()).or_insert(0);
                        assert!(
                            cdf.epoch >= *seen,
                            "reader {r}: {key} epoch went backwards ({} < {seen})",
                            cdf.epoch
                        );
                        *seen = cdf.epoch;
                        for w in cdf.value.windows(2) {
                            assert!(
                                w[1] + 1e-12 >= w[0],
                                "reader {r}: {key} cdf not monotone at epoch {}",
                                cdf.epoch
                            );
                        }
                        hot_reads += 1;
                    }
                }
                (tenant_reads, hot_reads)
            }));
        }

        // The default-key reader: a client polling the default key, which no
        // writer touches — its answers must stay bit-identical to the local
        // synopsis for the whole run.
        let default_reader = {
            let done = Arc::clone(&done);
            let local = default_local.clone();
            scope.spawn(move || {
                let mut client = HistClient::connect(addr).expect("default-key reader connect");
                let mut rng = StdRng::seed_from_u64(0x001E_9AC1);
                let n = local.domain();
                let mut reads = 0usize;
                while !done.load(Ordering::Acquire) {
                    let xs: Vec<usize> = (0..8).map(|_| rng.gen_range(0..n)).collect();
                    let remote = client.cdf_batch(&xs).expect("default-key cdf");
                    let local_cdf: Vec<f64> = xs.iter().map(|&x| local.cdf(x).unwrap()).collect();
                    assert_eq!(
                        bits(&remote.value),
                        bits(&local_cdf),
                        "default-key reader diverged from the local synopsis"
                    );
                    reads += 1;
                }
                reads
            })
        };

        let merges: Vec<(String, usize, Synopsis)> =
            writers.into_iter().flat_map(|w| w.join().expect("writer panicked")).collect();
        done.store(true, Ordering::Release);
        for reader in readers {
            let (tenant_reads, hot_reads) = reader.join().expect("reader panicked");
            assert!(tenant_reads > 0, "reader never exercised the tenant space");
            assert!(hot_reads > 0, "reader never exercised the hot set");
        }
        let default_reads = default_reader.join().expect("default-key reader panicked");
        assert!(default_reads > 0, "default-key reader never ran");
        merges
    });

    // Zero lost updates: every wire merge advanced its key's epoch by
    // exactly one on top of the initial publish, and the served synopsis is
    // bit-identical to the writer's local mirror of the same merge sequence.
    let mut verify = HistClient::connect(addr).unwrap();
    for (key, merges, mirror) in &per_key_merges {
        assert!(*merges >= MIN_MERGES, "{key}: writer starved ({merges} merges)");
        let snapshot = map.snapshot(key).expect("hot key still served");
        assert_eq!(snapshot.epoch(), 1 + *merges as u64, "{key}: epochs lost under concurrency");
        assert_eq!(
            encode_synopsis(snapshot.synopsis()),
            encode_synopsis(mirror),
            "{key}: served synopsis diverged from the writer's mirror"
        );
        // And the wire agrees with the in-process snapshot.
        verify.set_key(key).unwrap();
        assert_eq!(verify.stats().unwrap().epoch, snapshot.epoch(), "{key}: wire epoch");
    }

    // The whole tenant space survived untouched.
    let stats = verify.store_stats().unwrap().value;
    assert_eq!(stats.keys as usize, TENANTS + WRITERS * KEYS_PER_WRITER + 1);
    assert_eq!(stats.served, stats.keys, "every key still serves");
    assert_eq!(stats.min_epoch, 1, "cold tenants still at their first epoch");

    server.shutdown();
}

fn failed_wire_merges_leave_no_phantom_key() {
    let server = spawn_server(Arc::new(StoreMap::new()));
    let mut client =
        HistClient::connect(server.local_addr()).unwrap().with_key("tenants/ghost").unwrap();

    let err = client.update_merge(&chunk(7), 0).unwrap_err();
    assert!(
        matches!(err, NetError::Remote { code: ErrorCode::InvalidSynopsis, .. }),
        "a zero-budget wire merge must be a typed remote error, got {err:?}"
    );

    let keys = client.list_keys().unwrap();
    assert!(keys.value.is_empty(), "ListKeys must not show the phantom key");
    let store_stats = client.store_stats().unwrap();
    assert_eq!(store_stats.value.keys, 0, "the failed merge must not have counted a key");

    // The key works normally once the request is valid.
    assert_eq!(client.update_merge(&chunk(7), BUDGET).unwrap(), 1);
    assert_eq!(client.list_keys().unwrap().value, vec!["tenants/ghost".to_string()]);
}

fn merge_counters_flow_over_the_wire() {
    let server = spawn_server(Arc::new(StoreMap::new()));
    let mut client =
        HistClient::connect(server.local_addr()).unwrap().with_key("tenants/api").unwrap();
    let local = SynopsisStore::new();

    const UPDATES: u64 = 12;
    let mut last_epoch = 0;
    for i in 0..UPDATES {
        let chunk = chunk(0x3000 + i);
        let epoch = client.update_merge(&chunk, BUDGET).unwrap();
        assert!(epoch > last_epoch, "wire epochs must be monotone");
        last_epoch = epoch;
        local.update_merge(&chunk, BUDGET).unwrap();
    }
    let counters = local.merge_counters();

    let stats = client.stats().unwrap();
    assert_eq!(stats.epoch, UPDATES, "every update minted exactly one epoch");
    let synopsis_stats = stats.synopsis.expect("the key serves a synopsis");
    assert_eq!(synopsis_stats.merges, UPDATES - 1, "first update published, the rest merged");
    assert!(synopsis_stats.merge_error > 0.0, "noisy merges must accumulate error");
    assert_eq!(synopsis_stats.merge_error.to_bits(), counters.merge_error.to_bits());

    let store_stats = client.store_stats().unwrap().value;
    assert_eq!(store_stats.keys, 1);
    assert_eq!(store_stats.merges, UPDATES - 1);
    assert!(store_stats.merged_mass > 0.0);
    assert!(store_stats.merge_error >= 0.0);
    assert_eq!(store_stats.merged_mass.to_bits(), counters.merged_mass.to_bits());
    assert_eq!(store_stats.merge_error.to_bits(), counters.merge_error.to_bits());

    // A direct publish restarts the merge error; the lifetime counters stay.
    client.publish(&chunk(1)).unwrap();
    let synopsis_stats = client.stats().unwrap().synopsis.unwrap();
    assert_eq!(synopsis_stats.merges, UPDATES - 1);
    assert_eq!(synopsis_stats.merge_error, 0.0);
}

evented_cases!(
    keyed_answers_are_bit_identical_to_local_fits,
    the_key_lifecycle_works_over_the_wire,
    missing_and_unserved_keys_are_typed_errors,
    a_hundred_thousand_keys_survive_concurrent_writers_and_readers,
    failed_wire_merges_leave_no_phantom_key,
    merge_counters_flow_over_the_wire,
);
