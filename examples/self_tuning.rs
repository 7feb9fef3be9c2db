//! Self-tuning maintenance end to end: a maintenance-enabled server absorbs
//! a noisy merge stream, the error-budget policy trips background refits on
//! the serve pool, and the v3 wire stats expose the whole story — merge
//! count, accumulated drift bound, refit count — while clients with connect
//! and read deadlines keep querying throughout.
//!
//! ```text
//! cargo run --release --example self_tuning
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use approx_hist::{
    Estimator, EstimatorBuilder, GreedyMerging, HistClient, HistServer, MaintenancePolicy,
    ServerConfig, Signal, StoreMap,
};

const K: usize = 8;
const BUDGET: usize = 2 * K + 1;
const CHUNKS: usize = 48;
const CHUNK_LEN: usize = 256;

/// A drifting, noisy chunk: every merge of one of these costs real error,
/// which is what gives the maintenance policy something to react to.
fn noisy_chunk(round: usize) -> Signal {
    let values: Vec<f64> = (0..CHUNK_LEN)
        .map(|i| {
            let level = ((i / 64) + round) % 3;
            1.0 + level as f64 * 2.0 + 0.3 * (((i * 31 + round * 17) % 13) as f64 / 13.0)
        })
        .collect();
    Signal::from_dense(values).expect("finite signal")
}

fn main() {
    // --- Policy: refit once the summed per-merge drift bound exceeds the
    //     budget, at least 6 merges apart, compacting back to `2k + 1`
    //     pieces from up to 64 retained chunk synopses.
    let policy = MaintenancePolicy::new(1.5, BUDGET).min_interval(6).retained_chunks(64);
    println!(
        "policy:    error budget {:.2}, min interval {}, compaction budget {}",
        policy.error_budget(),
        policy.min_merges_between_refits(),
        policy.compaction_budget()
    );

    // --- Spawn: the server validates the policy at bind and installs a
    //     background maintenance worker on its own thread.
    let mut server = HistServer::bind(
        "127.0.0.1:0",
        Arc::new(StoreMap::new()),
        ServerConfig {
            maintenance: Some(policy),
            maintenance_threads: 1,
            ..ServerConfig::default()
        },
    )
    .expect("ephemeral loopback bind");
    let addr = server.local_addr();
    println!("server:    listening on {addr}, maintenance enabled");

    // --- Connect with deadlines: a bounded connect, bounded reads. A dead
    //     or stalled server surfaces as a typed `NetError::Timeout` instead
    //     of hanging the caller.
    let mut writer = HistClient::connect_timeout(addr, Duration::from_secs(2))
        .expect("connect within deadline")
        .with_read_timeout(Some(Duration::from_secs(2)))
        .expect("read deadline")
        .with_key("tenants/api")
        .expect("valid key");

    // --- Ingest: fit each chunk locally, ship it as a merge-update. The
    //     server merges into the served synopsis, accounts the drift bound,
    //     and schedules a refit whenever the policy comes due.
    let estimator = GreedyMerging::new(EstimatorBuilder::new(K));
    for round in 0..CHUNKS {
        let synopsis = estimator.fit(&noisy_chunk(round)).expect("chunk fit");
        let epoch = writer.update_merge(&synopsis, BUDGET).expect("merge update");
        if round % 12 == 11 {
            let stats = writer.stats().expect("stats");
            let synopsis = stats.synopsis.expect("served synopsis");
            println!(
                "ingest:    round {round:2}, epoch {epoch:3}: {} merges, drift bound {:.3}, {} refit(s)",
                synopsis.merges, synopsis.merge_error, synopsis.refits
            );
        }
    }

    // --- The background worker publishes refits through the normal
    //     epoch-stamped path; wait until at least one lands.
    let deadline = Instant::now() + Duration::from_secs(10);
    let stats = loop {
        let stats = writer.stats().expect("stats");
        let synopsis = stats.synopsis.clone().expect("served synopsis");
        if synopsis.refits >= 1 {
            break stats;
        }
        assert!(Instant::now() < deadline, "maintenance worker never refitted");
        std::thread::sleep(Duration::from_millis(5));
    };
    let synopsis = stats.synopsis.expect("served synopsis");
    println!(
        "refit:     epoch {} serves {} pieces after {} refit(s); drift bound since last refit {:.3}",
        stats.epoch, synopsis.pieces, synopsis.refits, synopsis.merge_error
    );

    // --- Store-wide view: the same counters aggregate across every key.
    let store_stats = writer.store_stats().expect("store stats").value;
    println!(
        "store:     {} key(s), {} merges, {} refit(s), merged mass {:.1}",
        store_stats.keys, store_stats.merges, store_stats.refits, store_stats.merged_mass
    );

    // --- Queries still answer normally after maintenance.
    let quartiles = writer.quantile_batch(&[0.25, 0.5, 0.75]).expect("quantiles");
    println!("query:     quartiles at epoch {}: {:?}", quartiles.epoch, quartiles.value);

    drop(writer);
    server.shutdown();
    println!("shutdown:  clean");
}
