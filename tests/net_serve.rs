//! Loopback serving suite: the wire path must be indistinguishable from
//! querying the synopsis in-process.
//!
//! * **Bit-identity sweep** — for every `EstimatorKind` in the property
//!   harness, `cdf`/`quantile_batch`/`mass_batch` answers fetched through a
//!   [`HistClient`] match the local [`Synopsis`] results bit for bit.
//! * **Loopback stress** — client threads hammer batch queries while a
//!   writer thread ships merge-updates: per-connection epoch monotonicity,
//!   cdf monotonicity inside every response, same-epoch response
//!   consistency, zero lost updates, and a final bit-for-bit comparison
//!   against a locally maintained mirror of the merge sequence. Registered
//!   under the shared stress gate from `tests/common`, like the in-process
//!   stress harness.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use approx_hist::{
    ErrorCode, Estimator, EstimatorBuilder, GreedyMerging, HistClient, HistServer, Interval,
    NetError, Signal, StoreMap, Synopsis, DEFAULT_KEY,
};
use common::spawn_server;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const READERS: usize = 4;
/// Piece budget every wire merge re-merges down to (`2k + 1` for fixture `k`).
const BUDGET: usize = 2 * common::FIXTURE_K + 1;
const RUN_FOR: Duration = Duration::from_millis(400);
const MIN_MERGES: usize = 12;
const CHUNK_DOMAIN: usize = 96;

fn chunk(seed: u64) -> Synopsis {
    let estimator = GreedyMerging::new(EstimatorBuilder::new(common::FIXTURE_K));
    let mut rng = StdRng::seed_from_u64(seed);
    let values: Vec<f64> = (0..CHUNK_DOMAIN)
        .map(|i| ((i / 24) % 3) as f64 * 2.0 + 1.0 + rng.gen_range(0.0..0.5))
        .collect();
    estimator.fit(&Signal::from_dense(values).unwrap()).unwrap()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn loopback_round_trip_is_bit_identical_for_every_estimator_kind() {
    let mut server = spawn_server(Arc::new(StoreMap::new()));
    let mut client = HistClient::connect(server.local_addr()).unwrap();
    let mut rng = StdRng::seed_from_u64(0x2015_0BEE);

    for (fixture, signal) in common::fixture_signals() {
        for estimator in common::fixture_fleet() {
            let local = estimator.fit(&signal).unwrap();
            let name = estimator.name();
            let context = || format!("{fixture}/{name}");
            let epoch = client.publish(&local).unwrap();
            let n = local.domain();

            // cdf over a seeded sweep plus both domain ends.
            let mut xs: Vec<usize> = (0..32).map(|_| rng.gen_range(0..n)).collect();
            xs.extend([0, n / 2, n - 1]);
            xs.sort_unstable();
            let remote = client.cdf_batch(&xs).unwrap();
            assert_eq!(remote.epoch, epoch, "{}", context());
            let local_cdf: Vec<f64> = xs.iter().map(|&x| local.cdf(x).unwrap()).collect();
            assert_eq!(bits(&remote.value), bits(&local_cdf), "{}: cdf bits", context());

            // Quantiles over a seeded fraction batch (unsorted, duplicated).
            let mut ps: Vec<f64> = (0..24).map(|_| rng.gen_range(0.0..=1.0)).collect();
            ps.extend([0.0, 0.5, 0.5, 1.0]);
            let remote = client.quantile_batch(&ps).unwrap();
            assert_eq!(remote.epoch, epoch, "{}", context());
            assert_eq!(
                remote.value,
                local.quantile_batch(&ps).unwrap(),
                "{}: quantile indices",
                context()
            );

            // Masses over seeded (unsorted, overlapping) ranges.
            let ranges: Vec<Interval> = (0..16)
                .map(|_| {
                    let mut ends = [rng.gen_range(0..n), rng.gen_range(0..n)];
                    ends.sort_unstable();
                    Interval::new(ends[0], ends[1]).unwrap()
                })
                .collect();
            let remote = client.mass_batch(&ranges).unwrap();
            assert_eq!(remote.epoch, epoch, "{}", context());
            let local_mass = local.mass_batch(&ranges).unwrap();
            assert_eq!(bits(&remote.value), bits(&local_mass), "{}: mass bits", context());

            // Stats mirror the local synopsis (estimator name included:
            // every fleet name is in the persist intern table).
            let stats = client.stats().unwrap();
            assert_eq!(stats.epoch, epoch, "{}", context());
            let synopsis = stats.synopsis.expect("published store");
            assert_eq!(synopsis.domain, n as u64, "{}", context());
            assert_eq!(synopsis.pieces, local.num_pieces() as u64, "{}", context());
            assert_eq!(synopsis.estimator, local.estimator(), "{}", context());
            assert_eq!(
                synopsis.total_mass.to_bits(),
                local.total_mass().to_bits(),
                "{}: total mass bits",
                context()
            );
        }
    }
    drop(client);
    server.shutdown();
}

#[test]
fn the_default_server_answers_eight_clients_held_open_at_once() {
    // One server loop serves every open connection: with the default config,
    // eight clients connected at once are each answered, none left waiting
    // for another connection to close.
    let mut server = spawn_server(Arc::new(StoreMap::with_initial(chunk(3))));
    let local = server.store_map().snapshot(DEFAULT_KEY).unwrap();
    let mut clients: Vec<HistClient> = (0..8)
        .map(|_| {
            HistClient::connect(server.local_addr())
                .unwrap()
                .with_read_timeout(Some(Duration::from_secs(5)))
                .unwrap()
        })
        .collect();
    for (i, client) in clients.iter_mut().enumerate() {
        match client.quantile_batch(&[0.5]) {
            Ok(answer) => assert_eq!(answer.value, vec![local.quantile(0.5).unwrap()]),
            Err(e) => panic!("client {i} of 8 open at once got no answer: {e}"),
        }
    }
    drop(clients);
    server.shutdown();
}

fn empty_and_singleton_batches_work_through_the_network_path() {
    // The server answers batch queries with the snapshot's own batch
    // kernels, so the degenerate batches must round-trip the wire exactly as
    // they answer in process — including on a key with no positive mass.
    let map = Arc::new(StoreMap::with_initial(chunk(1)));
    let zero = GreedyMerging::new(EstimatorBuilder::new(common::FIXTURE_K))
        .fit(&Signal::from_dense(vec![0.0; 64]).unwrap())
        .unwrap();
    assert_eq!(zero.quantile_batch(&[]).unwrap(), Vec::<usize>::new());
    map.publish("zero", zero).unwrap();
    let mut server = spawn_server(map);
    let mut client = HistClient::connect(server.local_addr()).unwrap();
    let local = server.store_map().snapshot(DEFAULT_KEY).unwrap();

    let empty = client.cdf_batch(&[]).unwrap();
    assert_eq!(empty.value, Vec::<f64>::new());
    let empty = client.quantile_batch(&[]).unwrap();
    assert_eq!(empty.value, Vec::<usize>::new());
    let empty = client.mass_batch(&[]).unwrap();
    assert_eq!(empty.value, Vec::<f64>::new());

    let one = client.quantile_batch(&[0.375]).unwrap();
    assert_eq!(one.value, vec![local.quantile(0.375).unwrap()]);
    let range = [Interval::new(3, 70).unwrap()];
    let one = client.mass_batch(&range).unwrap();
    assert_eq!(bits(&one.value), bits(&local.mass_batch(&range).unwrap()));
    let one = client.cdf_batch(&[17]).unwrap();
    assert_eq!(bits(&one.value), bits(&[local.cdf(17).unwrap()]));

    // Zero mass: empty batches still answer empty; a non-empty quantile
    // batch is a typed error.
    client.set_key("zero").unwrap();
    assert_eq!(client.quantile_batch(&[]).unwrap().value, Vec::<usize>::new());
    assert_eq!(client.cdf_batch(&[]).unwrap().value, Vec::<f64>::new());
    assert_eq!(client.mass_batch(&[]).unwrap().value, Vec::<f64>::new());
    match client.quantile_batch(&[0.5]) {
        Err(NetError::Remote { code: ErrorCode::InvalidQuery, .. }) => {}
        other => panic!("expected a remote InvalidQuery error, got {other:?}"),
    }

    drop(client);
    server.shutdown();
}

fn non_finite_fractions_come_back_as_invalid_query_errors() {
    // Regression companion to the Synopsis finiteness fix: a hostile client
    // shipping NaN/±inf fractions must get the typed InvalidQuery error over
    // the wire — with the finiteness diagnosis in the message — and the
    // connection must stay usable afterwards.
    let map = Arc::new(StoreMap::with_initial(chunk(3)));
    let mut server = spawn_server(map);
    let mut client = HistClient::connect(server.local_addr()).unwrap();

    for p in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        match client.quantile_batch(&[0.5, p]) {
            Err(NetError::Remote { code, message, .. }) => {
                assert_eq!(code, ErrorCode::InvalidQuery, "p = {p}");
                assert!(message.contains("finite"), "p = {p}: got `{message}`");
            }
            other => panic!("p = {p}: expected a remote InvalidQuery error, got {other:?}"),
        }
        // The error is per-request, not per-connection.
        let healthy = client.quantile_batch(&[0.5]).unwrap();
        assert_eq!(healthy.value.len(), 1);
    }

    drop(client);
    server.shutdown();
}

fn per_connection_request_limits_are_enforced() {
    let map = Arc::new(StoreMap::with_initial(chunk(2)));
    let config = approx_hist::ServerConfig {
        max_requests_per_connection: 3,
        ..approx_hist::ServerConfig::default()
    };
    let mut server = HistServer::bind("127.0.0.1:0", map, config).unwrap();

    let mut client = HistClient::connect(server.local_addr()).unwrap();
    for _ in 0..3 {
        client.stats().unwrap();
    }
    match client.stats() {
        Err(NetError::Remote { code: ErrorCode::RequestLimit, .. }) => {}
        other => panic!("expected RequestLimit, got {other:?}"),
    }
    // The server closed the connection after the limit frame.
    assert!(client.stats().is_err());

    // A fresh connection starts a fresh budget.
    let mut fresh = HistClient::connect(server.local_addr()).unwrap();
    assert!(fresh.stats().is_ok());
    drop(fresh);
    server.shutdown();
}

fn shutdown_is_graceful_and_idempotent() {
    let map = Arc::new(StoreMap::with_initial(chunk(3)));
    let mut server = spawn_server(map);
    let addr = server.local_addr();

    // An idle connection is open while the server shuts down; shutdown must
    // not hang on it (handlers poll the shutdown flag on a read timeout).
    let mut idle = HistClient::connect(addr).unwrap();
    idle.stats().unwrap();
    server.shutdown();
    server.shutdown(); // idempotent

    // The listener is gone: a new connection either fails outright or is
    // closed without an answer.
    if let Ok(mut client) = HistClient::connect(addr) {
        assert!(client.stats().is_err(), "a shut-down server must not answer");
    }
    // The old connection is dead too.
    assert!(idle.stats().is_err());
}

fn loopback_queries_ride_over_live_merge_updates() {
    let _gate = common::stress_gate();
    let map = Arc::new(StoreMap::with_initial(chunk(100)));
    let initial_epoch = map.epoch(DEFAULT_KEY);
    let initial_domain = map.snapshot(DEFAULT_KEY).unwrap().domain();
    let mut server = spawn_server(Arc::clone(&map));
    let addr = server.local_addr();

    let done = Arc::new(AtomicBool::new(false));
    let deadline = Instant::now() + RUN_FOR;

    let (total_merges, final_mirror) = std::thread::scope(|scope| {
        // The writer ships merge-updates over the wire and maintains a local
        // mirror of the exact same merge sequence: because the store
        // serializes writers and `Synopsis::merge` is deterministic, the
        // mirror must equal the served synopsis bit for bit at the end.
        let writer = {
            scope.spawn(move || {
                let mut client = HistClient::connect(addr).expect("writer connect");
                let mut mirror = map.snapshot(DEFAULT_KEY).unwrap().synopsis().as_ref().clone();
                let mut merges = 0usize;
                let mut last_epoch = initial_epoch;
                while Instant::now() < deadline || merges < MIN_MERGES {
                    let fresh = chunk(200 + merges as u64);
                    let epoch = client.update_merge(&fresh, BUDGET).expect("wire merge");
                    assert!(epoch > last_epoch, "writer: epoch went backwards");
                    last_epoch = epoch;
                    mirror = mirror.merge(&fresh, BUDGET).expect("mirror merge");
                    merges += 1;
                }
                (merges, mirror)
            })
        };

        let mut readers = Vec::new();
        for r in 0..READERS {
            let done = Arc::clone(&done);
            readers.push(scope.spawn(move || {
                let mut client = HistClient::connect(addr).expect("reader connect");
                let mut rng = StdRng::seed_from_u64(0xC11E_0000 + r as u64);
                let mut last_epoch = 0u64;
                let mut observed = 0usize;
                while !done.load(Ordering::Acquire) {
                    // Domains only grow under merge-updates, so any domain
                    // learned from stats stays valid for later queries.
                    let stats = client.stats().expect("stats");
                    assert!(
                        stats.epoch >= last_epoch,
                        "reader {r}: epoch went backwards ({} < {last_epoch})",
                        stats.epoch
                    );
                    last_epoch = stats.epoch;
                    let n = stats.synopsis.expect("seeded store").domain as usize;

                    // cdf monotone inside one response (one snapshot).
                    let mut xs: Vec<usize> = (0..24).map(|_| rng.gen_range(0..n)).collect();
                    xs.sort_unstable();
                    xs.push(n - 1);
                    let cdf = client.cdf_batch(&xs).expect("cdf batch");
                    assert!(cdf.epoch >= last_epoch, "reader {r}: cdf epoch went backwards");
                    for (i, w) in cdf.value.windows(2).enumerate() {
                        assert!(
                            w[1] + 1e-12 >= w[0],
                            "reader {r}: cdf not monotone at {} (epoch {})",
                            xs[i + 1],
                            cdf.epoch
                        );
                    }
                    // `n - 1` is the domain end only if no merge landed
                    // between the stats call and this answer.
                    if cdf.epoch == last_epoch {
                        assert!(
                            (cdf.value.last().unwrap() - 1.0).abs() < 1e-9,
                            "reader {r}: cdf(n-1) != 1 at epoch {}",
                            cdf.epoch
                        );
                    }
                    last_epoch = cdf.epoch;

                    // Two identical requests: answers stamped with the same
                    // epoch came from the same immutable snapshot and must
                    // agree bit for bit.
                    let ps: Vec<f64> = (0..12).map(|_| rng.gen_range(0.0..=1.0)).collect();
                    let first = client.quantile_batch(&ps).expect("quantiles");
                    let second = client.quantile_batch(&ps).expect("quantiles");
                    assert!(second.epoch >= first.epoch, "reader {r}: epoch went backwards");
                    if first.epoch == second.epoch {
                        assert_eq!(first.value, second.value, "reader {r}: same epoch diverged");
                    }
                    last_epoch = last_epoch.max(second.epoch);

                    // Mass additivity inside one response: a split of the
                    // stats-known prefix sums to the whole.
                    let m = rng.gen_range(0..n - 1);
                    let ranges = [
                        Interval::new(0, m).unwrap(),
                        Interval::new(m + 1, n - 1).unwrap(),
                        Interval::new(0, n - 1).unwrap(),
                    ];
                    let masses = client.mass_batch(&ranges).expect("mass batch");
                    assert!(masses.epoch >= last_epoch, "reader {r}: mass epoch went backwards");
                    last_epoch = masses.epoch;
                    let (a, b, whole) = (masses.value[0], masses.value[1], masses.value[2]);
                    assert!(
                        (a + b - whole).abs() < 1e-9 * whole.abs().max(1.0),
                        "reader {r}: mass split {a} + {b} != {whole} (epoch {})",
                        masses.epoch
                    );
                    observed += 1;
                }
                observed
            }));
        }

        let (total_merges, mirror) = writer.join().expect("writer");
        done.store(true, Ordering::Release);
        let total_reads: usize = readers.into_iter().map(|r| r.join().expect("reader")).sum();
        assert!(total_merges >= MIN_MERGES, "writer made too little progress");
        assert!(total_reads >= READERS, "readers made too little progress: {total_reads}");
        (total_merges, mirror)
    });

    // Zero lost updates: every wire merge bumped the epoch exactly once and
    // extended the domain by exactly one chunk.
    let mut client = HistClient::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.epoch,
        initial_epoch + total_merges as u64,
        "lost updates under wire contention"
    );
    let synopsis = stats.synopsis.expect("seeded store");
    assert_eq!(
        synopsis.domain as usize,
        initial_domain + CHUNK_DOMAIN * total_merges,
        "merged domains must concatenate exactly"
    );

    // Final state is bit-identical to the locally mirrored merge sequence:
    // batch answers over the wire == pointwise answers on the mirror.
    let n = final_mirror.domain();
    assert_eq!(n, synopsis.domain as usize);
    let xs: Vec<usize> = (0..n).step_by(7).chain([n - 1]).collect();
    let remote = client.cdf_batch(&xs).unwrap();
    let local: Vec<f64> = xs.iter().map(|&x| final_mirror.cdf(x).unwrap()).collect();
    assert_eq!(bits(&remote.value), bits(&local), "final cdf diverged from the mirror");
    let ps: Vec<f64> = (0..=50).map(|i| i as f64 / 50.0).collect();
    let remote = client.quantile_batch(&ps).unwrap();
    let local: Vec<usize> = ps.iter().map(|&p| final_mirror.quantile(p).unwrap()).collect();
    assert_eq!(remote.value, local, "final quantiles diverged from the mirror");
    let ranges: Vec<Interval> =
        (0..40).map(|i| Interval::new(i * 2, n / 2 + i * 3).unwrap()).collect();
    let remote = client.mass_batch(&ranges).unwrap();
    let local: Vec<f64> = ranges.iter().map(|&r| final_mirror.mass(r).unwrap()).collect();
    assert_eq!(bits(&remote.value), bits(&local), "final masses diverged from the mirror");

    drop(client);
    server.shutdown();
}

evented_cases!(
    loopback_round_trip_is_bit_identical_for_every_estimator_kind,
    empty_and_singleton_batches_work_through_the_network_path,
    non_finite_fractions_come_back_as_invalid_query_errors,
    per_connection_request_limits_are_enforced,
    shutdown_is_graceful_and_idempotent,
    loopback_queries_ride_over_live_merge_updates,
);
