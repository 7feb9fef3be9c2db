//! Self-tuning maintenance acceptance suite, plus the serving-layer
//! correctness fixes that shipped with it.
//!
//! * **Error-budget policy** — a zero-error stream accumulates no merge
//!   error and never trips a refit; a noisy stream does, and the refit
//!   rebuilds the served synopsis from the retained chunk decomposition to
//!   within the committed `C = 3` bound of a direct fit (the same constant
//!   `tests/merge_streaming.rs` pins for tree-merged construction).
//! * **Wall-clock freshness** — a key whose writer pauses below every
//!   merge-counted threshold is still refitted once the policy's
//!   `max_wall_interval` elapses (the map's ticker sweeps idle keys), and an
//!   already-refreshed idle key is never refitted again.
//! * **Hostile knobs** — non-positive/non-finite error budgets, inverted
//!   refit intervals, zero wall-clock intervals, zero compaction budgets and
//!   sub-2 retention caps are typed errors at every layer they can be
//!   injected: the policy itself, the estimator builder, a single store, the
//!   keyed map, and server bind.
//! * **Epoch accounting** — refits racing concurrent `update_merge` writers
//!   lose no epochs: the final epoch is exactly seeds + merges + refits.
//! * **Phantom keys** — a failed `update_merge` (zero budget, bad key) on a
//!   fresh key creates nothing: `keys()` and `ListKeys` never show it, at
//!   the store layer and over the wire.
//! * **Wire surface** — the v3 maintenance counters flow through per-key
//!   `Stats` and store-wide `StoreStats` frames, and a maintenance-enabled
//!   server refits in the background while serving.
//! * **Client deadlines** — connect and response-read timeouts surface as
//!   the typed [`NetError::Timeout`], proven against a deliberately
//!   unresponsive socket.
//! * **Drop-while-merging** — `merged_view` racing `drop_key` never poisons
//!   the tree merge, with background refits running throughout.

mod common;

use std::io::Read;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use approx_hist::{
    Error, ErrorCode, Estimator, EstimatorBuilder, GreedyMerging, HistClient, HistServer,
    MaintenancePolicy, MaintenanceWorker, NetError, ServerConfig, Signal, StoreMap, Synopsis,
    SynopsisStore,
};
use common::{fixture_builder, noisy_steps, spawn_server, split_chunks, FIXTURE_K};

/// Piece budget merges re-merge down to, and the default compaction target.
const BUDGET: usize = 2 * FIXTURE_K + 1;

fn fit(signal: &Signal) -> Synopsis {
    GreedyMerging::new(fixture_builder()).fit(signal).unwrap()
}

/// A noisy chunk synopsis: every merge of one of these costs real error.
fn chunk(seed: u64) -> Synopsis {
    fit(&noisy_steps(seed, 96, 4, 0.35))
}

/// A flat chunk: fits exactly, merges into other flat chunks at zero cost.
fn flat_chunk() -> Synopsis {
    fit(&Signal::from_dense(vec![2.0; 64]).unwrap())
}

/// A policy that trips on any positive accumulated error, immediately.
fn hair_trigger() -> MaintenancePolicy {
    MaintenancePolicy::new(1e-9, BUDGET).min_interval(1)
}

// ---------------------------------------------------------------------------
// Policy behaviour at the store layer.
// ---------------------------------------------------------------------------

#[test]
fn a_zero_error_stream_never_refits() {
    let store = SynopsisStore::new();
    store.set_maintenance(Some(hair_trigger())).unwrap();

    for _ in 0..24 {
        store.update_merge(&flat_chunk(), BUDGET).unwrap();
        assert!(!store.try_begin_refit(), "a zero-error stream must never come due");
    }

    let stats = store.maintenance_stats();
    assert_eq!(stats.merges, 23, "first call publishes, the rest merge");
    assert_eq!(stats.accumulated_error, 0.0, "flat merges cost exactly nothing");
    assert_eq!(stats.refits, 0);
    assert!(stats.merged_mass > 0.0, "mass accounting still runs on zero-error merges");
    assert_eq!(store.epoch(), 24, "no refit epoch may have been minted");
}

#[test]
fn the_error_budget_trips_a_refit_that_restores_direct_fit_accuracy() {
    let signal = noisy_steps(2026, 16 * 96, 8, 0.4);
    let chunks = split_chunks(&signal, 16);

    let store = SynopsisStore::new();
    store.set_maintenance(Some(hair_trigger())).unwrap();
    for chunk_signal in &chunks {
        store.update_merge(&fit(chunk_signal), BUDGET).unwrap();
    }

    let before = store.maintenance_stats();
    assert!(before.accumulated_error > 0.0, "noisy merges must accumulate error");
    assert_eq!(before.retained_chunks, chunks.len() as u64);
    assert!(store.try_begin_refit(), "the hair-trigger budget must be due");

    let epoch_before = store.epoch();
    let refit_epoch = store.run_refit().unwrap().expect("a due refit must publish");
    assert_eq!(refit_epoch, epoch_before + 1, "a refit mints exactly one epoch");

    let after = store.maintenance_stats();
    assert_eq!(after.refits, 1);
    assert_eq!(after.last_refit_epoch, refit_epoch);
    assert_eq!(after.merges_since_refit, 0, "the refit resets the interval counter");
    assert_eq!(after.accumulated_error, 0.0, "the refit resets the drift bound");
    assert_eq!(after.total_error, before.total_error, "lifetime error is never reset");
    assert!(!store.try_begin_refit(), "a single retained baseline has nothing to compact");

    // The refit rebuilt from the retained decomposition: same served domain,
    // and accuracy within the committed C = 3 bound of a direct fit — the
    // exact constant `tests/merge_streaming.rs` pins for tree-merged
    // construction, which is what the refit runs internally.
    let snapshot = store.snapshot().unwrap();
    assert_eq!(snapshot.epoch(), refit_epoch);
    assert_eq!(snapshot.domain(), signal.domain(), "the refit must cover the served domain");
    let served_err = snapshot.synopsis().l2_error(&signal).unwrap();
    let direct_err = fit(&signal).l2_error(&signal).unwrap();
    let slack = 1e-6 * signal.l2_norm_squared().sqrt().max(1.0);
    assert!(
        served_err <= 3.0 * direct_err + slack,
        "post-refit error {served_err} exceeds C * direct {direct_err}"
    );
}

/// The wall-clock freshness bound: a key whose writer pauses below every
/// merge-counted threshold still gets refitted once
/// `MaintenancePolicy::max_wall_interval` elapses — the map's ticker thread
/// sweeps idle keys, and the trigger deliberately bypasses the min-merge
/// back-pressure (an idle key will never accumulate more merges).
#[test]
fn a_paused_writer_is_refreshed_by_the_wall_clock_bound() {
    let map = StoreMap::new();
    // Merge-counted triggers can never fire: an astronomically large error
    // budget, a min interval far above the merge count, and no max interval.
    // Only the wall clock can cause a refit in this test.
    let policy = MaintenancePolicy::new(1e18, BUDGET)
        .min_interval(1_000)
        .max_wall_interval(Duration::from_millis(250));
    map.enable_maintenance(policy, 1).unwrap();

    for seed in 0..4 {
        map.update_merge("idle", &chunk(seed), BUDGET).unwrap();
    }
    let stats = map.store("idle").unwrap().maintenance_stats();
    assert_eq!(stats.refits, 0, "merge-counted triggers must not have fired");
    assert!(stats.retained_chunks >= 2, "there is something to rebuild from");
    let epoch_before = map.epoch("idle");

    // Writer paused. Within the wall interval plus a few ticker sweeps the
    // idle key must be refitted in the background.
    let deadline = Instant::now() + Duration::from_secs(10);
    let stats = loop {
        let stats = map.store("idle").unwrap().maintenance_stats();
        if stats.refits >= 1 {
            break stats;
        }
        assert!(Instant::now() < deadline, "wall-clock refit never fired for the idle key");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(stats.refits, 1);
    assert_eq!(stats.merges_since_refit, 0, "the refit re-baselined the key");
    assert_eq!(map.epoch("idle"), epoch_before + 1, "the refit minted one epoch");

    // With nothing new absorbed since the refit, the wall clock must not
    // churn: one retained baseline and zero merges-since-refit stay idle.
    std::thread::sleep(Duration::from_millis(600));
    assert_eq!(
        map.store("idle").unwrap().maintenance_stats().refits,
        1,
        "an already-refreshed idle key must not be refitted again"
    );
}

#[test]
fn refits_racing_concurrent_merges_lose_no_epochs() {
    const WRITERS: usize = 4;
    const MERGES: usize = 40;

    let store = Arc::new(SynopsisStore::new());
    store.set_maintenance(Some(MaintenancePolicy::new(1e-12, BUDGET).min_interval(2))).unwrap();
    let worker = MaintenanceWorker::new(2);
    let done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        let mut writers = Vec::new();
        for w in 0..WRITERS {
            let store = Arc::clone(&store);
            writers.push(scope.spawn(move || {
                let mut last_epoch = 0u64;
                for i in 0..MERGES {
                    let epoch = store
                        .update_merge(&chunk(0x00DD + (w * MERGES + i) as u64), BUDGET)
                        .unwrap();
                    assert!(epoch > last_epoch, "writer {w}: epoch went backwards");
                    last_epoch = epoch;
                }
            }));
        }

        // A reader that must never stall or step backwards while refits run.
        let reader = {
            let store = Arc::clone(&store);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                let mut last_epoch = 0u64;
                while !done.load(Ordering::Acquire) {
                    if let Some(snapshot) = store.snapshot() {
                        assert!(snapshot.epoch() >= last_epoch, "reader: epoch went backwards");
                        last_epoch = snapshot.epoch();
                    }
                    std::thread::yield_now();
                }
            })
        };

        // The maintainer loop, scheduling exactly as the keyed map does.
        let worker = &worker;
        let maintainer = {
            let store = Arc::clone(&store);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                while !done.load(Ordering::Acquire) {
                    if store.try_begin_refit() {
                        worker.schedule(Arc::clone(&store));
                    }
                    std::thread::yield_now();
                }
            })
        };

        for writer in writers {
            writer.join().expect("writer");
        }
        done.store(true, Ordering::Release);
        reader.join().expect("reader");
        maintainer.join().expect("maintainer");
    });

    // Dropping the worker joins its pool: every scheduled refit has run.
    drop(worker);

    let total = (WRITERS * MERGES) as u64;
    let stats = store.maintenance_stats();
    assert_eq!(stats.merges, total - 1, "one racing call seeded the store, the rest merged");
    assert!(stats.refits >= 1, "the hair-trigger budget must have tripped under load");
    assert_eq!(
        store.epoch(),
        total + stats.refits,
        "every merge and every refit must mint exactly one epoch"
    );
}

// ---------------------------------------------------------------------------
// Hostile knobs.
// ---------------------------------------------------------------------------

fn assert_invalid(result: Result<(), Error>, knob: &str) {
    match result {
        Err(Error::InvalidParameter { .. }) => {}
        other => panic!("{knob}: expected a typed InvalidParameter error, got {other:?}"),
    }
}

#[test]
fn hostile_policy_knobs_are_typed_errors_at_every_layer() {
    let bad_budgets = [0.0, -1.0, f64::NAN, f64::INFINITY];
    for budget in bad_budgets {
        assert_invalid(MaintenancePolicy::new(budget, BUDGET).validate(), "error budget");
    }
    assert_invalid(MaintenancePolicy::new(0.5, 0).validate(), "zero compaction budget");
    assert_invalid(
        MaintenancePolicy::new(0.5, BUDGET).min_interval(8).max_interval(4).validate(),
        "inverted refit interval",
    );
    assert_invalid(
        MaintenancePolicy::new(0.5, BUDGET).max_interval(0).validate(),
        "zero max interval",
    );
    assert_invalid(
        MaintenancePolicy::new(0.5, BUDGET).retained_chunks(1).validate(),
        "a retention cap below 2 cannot fold",
    );
    assert_invalid(
        MaintenancePolicy::new(0.5, BUDGET).max_wall_interval(Duration::ZERO).validate(),
        "zero wall-clock interval",
    );

    // The estimator-builder path rejects the same knobs.
    let builder = EstimatorBuilder::new(FIXTURE_K).maintenance_error_budget(-1.0);
    assert!(MaintenancePolicy::from_builder(&builder).is_err(), "builder: negative budget");
    let builder =
        EstimatorBuilder::new(FIXTURE_K).maintenance_error_budget(0.5).refit_interval(8, Some(4));
    assert!(MaintenancePolicy::from_builder(&builder).is_err(), "builder: inverted interval");

    // A store refuses to attach a hostile policy and keeps its previous one.
    let bad = MaintenancePolicy::new(0.0, BUDGET);
    let store = SynopsisStore::new();
    assert_invalid(store.set_maintenance(Some(bad.clone())), "store set_maintenance");
    assert!(store.maintenance_policy().is_none(), "a rejected policy must not attach");

    // The keyed map refuses the same policy for its fleet.
    let map = StoreMap::new();
    assert_invalid(map.enable_maintenance(bad.clone(), 1), "map enable_maintenance");
    assert!(map.maintenance_policy().is_none());

    // And server bind refuses to come up with one.
    let config = ServerConfig { maintenance: Some(bad), ..ServerConfig::default() };
    let bind = HistServer::bind("127.0.0.1:0", Arc::new(StoreMap::new()), config);
    assert!(bind.is_err(), "bind must reject a hostile maintenance policy");
}

// ---------------------------------------------------------------------------
// Phantom keys.
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// Maintenance over the wire.
// ---------------------------------------------------------------------------

fn maintenance_counters_and_refits_flow_over_the_wire() {
    let config = ServerConfig {
        maintenance: Some(hair_trigger()),
        maintenance_threads: 1,
        ..ServerConfig::default()
    };
    let server = HistServer::bind("127.0.0.1:0", Arc::new(StoreMap::new()), config).unwrap();
    let mut client =
        HistClient::connect(server.local_addr()).unwrap().with_key("tenants/api").unwrap();

    const UPDATES: u64 = 12;
    let mut last_epoch = 0;
    for i in 0..UPDATES {
        let epoch = client.update_merge(&chunk(0x3000 + i), BUDGET).unwrap();
        assert!(epoch > last_epoch, "wire epochs must be monotone");
        last_epoch = epoch;
    }

    // The background worker refits on its own schedule; poll the public wire
    // stats until it has published at least once.
    let deadline = Instant::now() + Duration::from_secs(10);
    let synopsis_stats = loop {
        let stats = client.stats().unwrap();
        let synopsis = stats.synopsis.expect("the key serves a synopsis");
        if synopsis.refits >= 1 {
            assert!(stats.epoch > UPDATES, "the refit must have minted an epoch of its own");
            break synopsis;
        }
        assert!(Instant::now() < deadline, "the maintenance worker never refitted");
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(synopsis_stats.merges, UPDATES - 1, "first update published, the rest merged");

    let store_stats = client.store_stats().unwrap().value;
    assert_eq!(store_stats.keys, 1);
    assert_eq!(store_stats.merges, UPDATES - 1);
    assert!(store_stats.refits >= 1, "store-wide refit counter must aggregate");
    assert!(store_stats.merged_mass > 0.0);
    assert!(store_stats.merge_error >= 0.0);
}

evented_cases!(
    failed_wire_merges_leave_no_phantom_key,
    maintenance_counters_and_refits_flow_over_the_wire,
);

// ---------------------------------------------------------------------------
// Client deadlines.
// ---------------------------------------------------------------------------

#[test]
fn an_unresponsive_server_read_times_out_with_a_typed_error() {
    // A deliberately unresponsive socket: accepts the connection, reads the
    // request, never answers.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let silent = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        // Drain until the client gives up and closes.
        let mut sink = [0u8; 256];
        while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
    });

    let mut client = HistClient::connect(addr)
        .unwrap()
        .with_read_timeout(Some(Duration::from_millis(120)))
        .unwrap();
    let start = Instant::now();
    let err = client.list_keys().unwrap_err();
    assert!(
        matches!(err, NetError::Timeout { what: "response read", .. }),
        "a silent server must surface the typed read timeout, got {err:?}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "the deadline must bound the wait, waited {:?}",
        start.elapsed()
    );

    drop(client);
    silent.join().expect("silent server");
}

#[test]
fn connect_timeouts_are_typed_and_the_happy_path_connects() {
    let server = spawn_server(Arc::new(StoreMap::new()));

    // Happy path: a generous deadline connects and serves normally.
    let mut client =
        HistClient::connect_timeout(server.local_addr(), Duration::from_secs(5)).unwrap();
    assert!(client.list_keys().unwrap().value.is_empty());

    // A 1 ns deadline expires before even a loopback handshake completes.
    let err =
        HistClient::connect_timeout(server.local_addr(), Duration::from_nanos(1)).unwrap_err();
    assert!(
        matches!(err, NetError::Timeout { what: "connect", .. }),
        "an expired connect deadline must be the typed timeout, got {err:?}"
    );
}

// ---------------------------------------------------------------------------
// Drop-while-merging.
// ---------------------------------------------------------------------------

#[test]
fn dropping_keys_while_merging_views_never_poisons_the_tree() {
    let _gate = common::stress_gate();
    const KEYS: usize = 8;

    let map = Arc::new(StoreMap::new());
    map.enable_maintenance(hair_trigger(), 2).unwrap();
    for k in 0..KEYS {
        map.update_merge(&format!("tenants/{k}"), &chunk(k as u64), BUDGET).unwrap();
    }

    let done = Arc::new(AtomicBool::new(false));
    let deadline = Instant::now() + Duration::from_millis(400);

    std::thread::scope(|scope| {
        let mut viewers = Vec::new();
        for _ in 0..2 {
            let map = Arc::clone(&map);
            let done = Arc::clone(&done);
            viewers.push(scope.spawn(move || {
                let mut views = 0usize;
                while !done.load(Ordering::Acquire) {
                    match map.merged_view(BUDGET) {
                        Ok(Some(view)) => {
                            assert!(view.keys >= 1);
                            assert!(view.synopsis.domain() > 0);
                            views += 1;
                        }
                        Ok(None) => {}
                        Err(e) => panic!("a concurrent drop poisoned the merged view: {e}"),
                    }
                }
                views
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
        let views: usize = viewers.into_iter().map(|v| v.join().expect("viewer")).sum();

        assert!(rounds >= 2 * KEYS, "the churner must cycle every key at least twice");
        assert!(views >= 2, "viewers must have observed merged views under churn");
    });

    assert_eq!(map.len(), KEYS, "every dropped key was re-created");
}
