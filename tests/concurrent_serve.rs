//! Multi-thread stress test for the serving layer: writer threads
//! `update_merge`-ing fresh chunks into a [`SynopsisStore`] (or the keys of
//! a saved and reopened [`StoreMap`]) while reader threads hammer snapshots
//! with seeded cdf/quantile/mass batches.
//!
//! Every snapshot a reader observes must be a *complete* synopsis satisfying
//! the harness invariants (cdf monotone, quantile∘cdf inversion, mass
//! additivity, structural consistency) — a torn or partially merged synopsis
//! would violate at least one of them. Epochs must be monotone per reader.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use approx_hist::{
    Estimator, EstimatorBuilder, GreedyMerging, Interval, Signal, StoreMap, StreamingBuilder,
    Synopsis, SynopsisStore,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WRITERS: usize = 4;
const READERS: usize = 8;
/// Piece budget every merge re-merges down to (`2k + 1` for the fixture `k`).
const BUDGET: usize = 2 * common::FIXTURE_K + 1;
/// How long the stress runs once all threads are up.
const RUN_FOR: Duration = Duration::from_millis(900);
/// Minimum merges per writer, so the test asserts real write traffic even on
/// a heavily loaded machine.
const MIN_MERGES_PER_WRITER: usize = 25;
const CHUNK_DOMAIN: usize = 96;

/// A pool of pre-fitted chunk synopses for one writer, so the write loop
/// measures store contention rather than fit time.
fn chunk_pool(writer: usize) -> Vec<Synopsis> {
    let estimator = GreedyMerging::new(EstimatorBuilder::new(common::FIXTURE_K));
    let mut rng = StdRng::seed_from_u64(0x5EED_0000 + writer as u64);
    (0..8)
        .map(|_| {
            let values: Vec<f64> = (0..CHUNK_DOMAIN)
                .map(|i| ((i / 24) % 3) as f64 * 2.0 + 1.0 + rng.gen_range(0.0..0.5))
                .collect();
            estimator.fit(&Signal::from_dense(values).unwrap()).unwrap()
        })
        .collect()
}

/// The invariants every observed snapshot must satisfy. `rng` drives the
/// seeded query workload; any violation panics with the reader's context.
fn assert_snapshot_invariants(reader: usize, snapshot: &approx_hist::Snapshot, rng: &mut StdRng) {
    let n = snapshot.domain();
    let epoch = snapshot.epoch();
    let context = || format!("reader {reader}, epoch {epoch}, domain {n}");

    // Structural consistency: pieces tile exactly [0, n), boundary masses are
    // monotone and complete. A torn synopsis (pieces from one version, masses
    // from another) cannot pass these.
    let pieces = snapshot.num_pieces();
    assert!(pieces >= 1, "{}: no pieces", context());
    // Every merge re-merges down to BUDGET; the seed publish (epoch 1) is a
    // raw fit, which may hold more pieces, and readers can observe it before
    // the first merge lands.
    if epoch > 1 {
        assert!(pieces <= BUDGET, "{}: {pieces} pieces", context());
    }
    let mut expected_start = 0usize;
    for j in 0..pieces {
        let interval = snapshot.piece_interval(j);
        assert_eq!(interval.start(), expected_start, "{}: piece {j} misaligned", context());
        expected_start = interval.end() + 1;
    }
    assert_eq!(expected_start, n, "{}: pieces do not tile the domain", context());
    let boundaries = snapshot.boundary_masses();
    assert_eq!(boundaries.len(), pieces + 1, "{}: boundary count", context());
    assert!(
        boundaries.windows(2).all(|w| w[1] >= w[0]),
        "{}: boundary masses not monotone",
        context()
    );

    // cdf monotone over a seeded index sweep, reaching 1 at the domain end.
    let mut previous = 0.0;
    let mut xs: Vec<usize> = (0..24).map(|_| rng.gen_range(0..n)).collect();
    xs.sort_unstable();
    xs.push(n - 1);
    for &x in &xs {
        let c = snapshot.cdf(x).unwrap();
        assert!((0.0..=1.0).contains(&c), "{}: cdf({x}) = {c}", context());
        assert!(c + 1e-12 >= previous, "{}: cdf not monotone at {x}", context());
        previous = c;
    }
    assert!((snapshot.cdf(n - 1).unwrap() - 1.0).abs() < 1e-9, "{}: cdf(n-1) != 1", context());

    // quantile∘cdf inversion on a seeded fraction batch; the batch must match
    // the pointwise answers exactly.
    let mut ps: Vec<f64> = (0..16).map(|_| rng.gen_range(0.0..=1.0)).collect();
    ps.extend([0.0, 0.5, 1.0]);
    let batch = snapshot.quantile_batch(&ps).unwrap();
    for (&p, &x) in ps.iter().zip(&batch) {
        assert_eq!(x, snapshot.quantile(p).unwrap(), "{}: batch/pointwise at {p}", context());
        assert!(snapshot.cdf(x).unwrap() + 1e-9 >= p, "{}: cdf(quantile({p})) < {p}", context());
        if x > 0 {
            assert!(
                snapshot.cdf(x - 1).unwrap() < p + 1e-9,
                "{}: quantile({p}) = {x} not minimal",
                context()
            );
        }
    }

    // Mass additivity over a seeded three-way split of the domain.
    let mut cuts = [rng.gen_range(0..n), rng.gen_range(0..n)];
    cuts.sort_unstable();
    let (a, b) = (cuts[0], cuts[1]);
    let mut parts = vec![Interval::new(0, a).unwrap()];
    if a < b {
        parts.push(Interval::new(a + 1, b).unwrap());
    }
    if b < n - 1 {
        parts.push(Interval::new(b + 1, n - 1).unwrap());
    }
    let sum: f64 = parts.iter().map(|r| snapshot.mass(*r).unwrap()).sum();
    let total = snapshot.total_mass();
    assert!(
        (sum - total).abs() < 1e-9 * total.abs().max(1.0),
        "{}: split mass {sum} != total {total}",
        context()
    );
}

#[test]
fn streaming_checkpoints_resume_to_bit_identical_output() {
    // A one-pass build interrupted at several split points — mid-tail, chunk
    // boundaries, right before the end — must finish bit-identically to an
    // uninterrupted build over every shared fixture signal.
    let chunk_len = 48;
    let inner = || {
        Box::new(GreedyMerging::new(EstimatorBuilder::new(common::FIXTURE_K))) as Box<dyn Estimator>
    };
    for (fixture, signal) in common::fixture_signals() {
        let values = signal.dense_values();
        let n = values.len();
        let mut uninterrupted =
            StreamingBuilder::new(inner(), common::FIXTURE_K, chunk_len).unwrap();
        uninterrupted.extend(&values).unwrap();
        let expected = uninterrupted.synopsis().unwrap();
        let expected_bits: Vec<u64> =
            expected.boundary_masses().iter().map(|m| m.to_bits()).collect();

        for split in [0, 1, chunk_len, 2 * chunk_len + 5, n / 2, n - 1] {
            let split = split.min(n - 1);
            let mut first = StreamingBuilder::new(inner(), common::FIXTURE_K, chunk_len).unwrap();
            first.extend(&values[..split]).unwrap();
            let checkpoint = first.checkpoint();
            drop(first);

            let mut resumed = StreamingBuilder::resume(inner(), &checkpoint).unwrap();
            assert_eq!(resumed.len(), split, "{fixture}: resumed progress");
            resumed.extend(&values[split..]).unwrap();
            let actual = resumed.synopsis().unwrap();
            assert_eq!(actual.model(), expected.model(), "{fixture}: split {split}");
            let actual_bits: Vec<u64> =
                actual.boundary_masses().iter().map(|m| m.to_bits()).collect();
            assert_eq!(actual_bits, expected_bits, "{fixture}: split {split} boundary bits");
        }
    }
}

#[test]
fn saved_store_reopens_consistently_under_concurrent_stress() {
    let _gate = common::stress_gate();
    let dir = std::env::temp_dir().join("approx-hist-tests").join("stress-reopen");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let warm_path = dir.join("warm.ahistmap");
    let live_path = dir.join("live.ahistmap");
    let keys: Vec<String> = (0..3).map(|i| format!("stress/{i}")).collect();

    // Build up a keyed map with some merge history on every key (a different
    // amount per key) and persist it.
    let map = StoreMap::new();
    for (i, key) in keys.iter().enumerate() {
        map.publish(key, chunk_pool(7).pop().unwrap()).unwrap();
        for chunk in &chunk_pool(8)[..3 + 2 * i] {
            map.update_merge(key, chunk, BUDGET).unwrap();
        }
    }
    let saved_epochs: Vec<u64> = keys.iter().map(|key| map.epoch(key)).collect();
    let saved_domains: Vec<usize> =
        keys.iter().map(|key| map.snapshot(key).unwrap().domain()).collect();
    map.save(&warm_path).unwrap();
    drop(map); // the serving process "restarts" here

    // Reopen warm and put the revived map under the full stress harness:
    // writers keep merging into every key, readers assert snapshot
    // invariants and per-key epoch monotonicity *continuing from the
    // persisted epochs*, and a saver thread keeps persisting the live map
    // the whole time.
    let map = Arc::new(StoreMap::open(&warm_path).unwrap());
    for (i, key) in keys.iter().enumerate() {
        assert_eq!(map.epoch(key), saved_epochs[i], "{key}: warm start serves the saved epoch");
        assert_eq!(map.snapshot(key).unwrap().domain(), saved_domains[i]);
    }

    let done = Arc::new(AtomicBool::new(false));
    let deadline = Instant::now() + Duration::from_millis(300);
    let min_merges = 10usize;

    std::thread::scope(|scope| {
        let mut writers = Vec::new();
        for w in 0..WRITERS {
            let (map, keys, saved_epochs) = (Arc::clone(&map), &keys, &saved_epochs);
            writers.push(scope.spawn(move || {
                let pool = chunk_pool(100 + w);
                let mut merges = vec![0usize; keys.len()];
                let mut total = 0usize;
                while Instant::now() < deadline || total < min_merges {
                    // Writers rotate over the keys from different offsets,
                    // so every key sees concurrent writers.
                    let i = (w + total) % keys.len();
                    let epoch =
                        map.update_merge(&keys[i], &pool[total % pool.len()], BUDGET).unwrap();
                    assert!(epoch > saved_epochs[i], "writer {w}: epoch fell below the warm start");
                    merges[i] += 1;
                    total += 1;
                }
                merges
            }));
        }

        let saver = {
            let (map, done) = (Arc::clone(&map), Arc::clone(&done));
            let live_path = live_path.clone();
            scope.spawn(move || {
                let mut saves = 0usize;
                while !done.load(Ordering::Acquire) {
                    map.save(&live_path).unwrap();
                    saves += 1;
                }
                saves
            })
        };

        let mut readers = Vec::new();
        for r in 0..READERS {
            let (map, done, keys) = (Arc::clone(&map), Arc::clone(&done), &keys);
            let mut last_epochs = saved_epochs.clone();
            readers.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xA11C_E000 + r as u64);
                let mut reads = 0usize;
                while !done.load(Ordering::Acquire) {
                    let i = (r + reads) % keys.len();
                    let snapshot = map.snapshot(&keys[i]).expect("warm-started key");
                    assert!(
                        snapshot.epoch() >= last_epochs[i],
                        "reader {r}: {} epoch went backwards across the reopen ({} < {})",
                        keys[i],
                        snapshot.epoch(),
                        last_epochs[i]
                    );
                    last_epochs[i] = snapshot.epoch();
                    assert_snapshot_invariants(r, &snapshot, &mut rng);
                    reads += 1;
                }
            }));
        }

        let mut merges = vec![0usize; keys.len()];
        for writer in writers {
            for (total, n) in merges.iter_mut().zip(writer.join().expect("writer")) {
                *total += n;
            }
        }
        done.store(true, Ordering::Release);
        let saves = saver.join().expect("saver");
        for reader in readers {
            reader.join().expect("reader");
        }

        // Exact accounting across the restart: every merge bumped its key's
        // epoch once, starting from the persisted value; domains
        // concatenated.
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(
                map.epoch(key),
                saved_epochs[i] + merges[i] as u64,
                "{key}: lost updates after reopen"
            );
            assert_eq!(
                map.snapshot(key).unwrap().domain(),
                saved_domains[i] + CHUNK_DOMAIN * merges[i],
                "{key}: merged domains must concatenate across the restart"
            );
        }
        assert!(saves >= 1, "the saver thread never persisted the live map");
    });

    // The last mid-stress save is itself a consistent, reopenable map, and
    // each key's epoch sequence continues from the value it saved.
    let reopened = StoreMap::open(&live_path).unwrap();
    assert_eq!(reopened.keys(), keys);
    let mut rng = StdRng::seed_from_u64(0x00FF_10AD);
    for (i, key) in keys.iter().enumerate() {
        let snapshot = reopened.snapshot(key).expect("mid-stress save holds a synopsis");
        assert!(snapshot.epoch() >= saved_epochs[i]);
        assert!(snapshot.epoch() <= map.epoch(key));
        assert_eq!(snapshot.epoch(), reopened.epoch(key));
        assert_snapshot_invariants(999, &snapshot, &mut rng);
        assert_eq!(
            snapshot.domain() % CHUNK_DOMAIN,
            0,
            "{key}: a torn save could not hold a whole number of merged chunks"
        );
        let next = reopened.update_merge(key, &chunk_pool(9)[0], BUDGET).unwrap();
        assert_eq!(next, snapshot.epoch() + 1, "{key}: epochs continue across the reopen");
    }
}

#[test]
fn concurrent_writers_and_readers_never_observe_a_torn_snapshot() {
    let _gate = common::stress_gate();
    let store = Arc::new(SynopsisStore::with_initial(chunk_pool(99).pop().unwrap()));
    let done = Arc::new(AtomicBool::new(false));
    let deadline = Instant::now() + RUN_FOR;

    std::thread::scope(|scope| {
        let mut writers = Vec::new();
        for w in 0..WRITERS {
            let store = Arc::clone(&store);
            writers.push(scope.spawn(move || {
                let pool = chunk_pool(w);
                let mut merges = 0usize;
                let mut last_epoch = 0u64;
                while Instant::now() < deadline || merges < MIN_MERGES_PER_WRITER {
                    let chunk = &pool[merges % pool.len()];
                    let epoch = store.update_merge(chunk, BUDGET).unwrap();
                    assert!(epoch > last_epoch, "writer {w}: epoch went backwards");
                    last_epoch = epoch;
                    merges += 1;
                }
                merges
            }));
        }

        let mut readers = Vec::new();
        for r in 0..READERS {
            let store = Arc::clone(&store);
            let done = Arc::clone(&done);
            readers.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x0EAD_0000 + r as u64);
                let mut last_epoch = 0u64;
                let mut observed = 0usize;
                while !done.load(Ordering::Acquire) {
                    let snapshot = store.snapshot().expect("store was seeded");
                    assert!(
                        snapshot.epoch() >= last_epoch,
                        "reader {r}: epoch went backwards ({} < {last_epoch})",
                        snapshot.epoch()
                    );
                    last_epoch = snapshot.epoch();
                    assert_snapshot_invariants(r, &snapshot, &mut rng);
                    observed += 1;
                }
                observed
            }));
        }

        let total_merges: usize = writers.into_iter().map(|w| w.join().expect("writer")).sum();
        done.store(true, Ordering::Release);
        let total_reads: usize = readers.into_iter().map(|r| r.join().expect("reader")).sum();

        assert!(
            total_merges >= WRITERS * MIN_MERGES_PER_WRITER,
            "writers made too little progress: {total_merges} merges"
        );
        assert!(total_reads >= READERS, "readers made too little progress: {total_reads} reads");
        // Every writer merge bumped the epoch exactly once (plus the seed).
        assert_eq!(store.epoch(), 1 + total_merges as u64, "lost updates under writer contention");
        let final_domain = store.snapshot().unwrap().domain();
        assert_eq!(
            final_domain,
            CHUNK_DOMAIN * (1 + total_merges),
            "merged domains must concatenate exactly"
        );
    });
}
