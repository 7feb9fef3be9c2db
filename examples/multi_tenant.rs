//! Multi-tenant serving end to end: many keys behind one server, concurrent
//! per-key writers shipping merge-updates over the wire, keyed readers, the
//! key lifecycle (`list_keys`/`store_stats`/`drop_key`), a merged global
//! view, and whole-map persistence — all over the keyed wire protocol.
//!
//! ```text
//! cargo run --release --example multi_tenant
//! ```

use std::sync::Arc;

use approx_hist::{
    Estimator, EstimatorBuilder, GreedyMerging, HistClient, HistServer, ServerConfig, Signal,
    StoreMap,
};

const K: usize = 8;
const TENANTS: usize = 6;
const CHUNKS_PER_TENANT: usize = 4;
const CHUNK_LEN: usize = 512;

/// Each tenant's traffic has its own shape: distinct level pattern + phase.
fn tenant_chunk(tenant: usize, round: usize) -> Signal {
    let values: Vec<f64> = (0..CHUNK_LEN)
        .map(|i| {
            let level = ((i / 128) + tenant + round) % 4;
            1.0 + level as f64 * (1.0 + tenant as f64 * 0.5) + 0.01 * (i % 5) as f64
        })
        .collect();
    Signal::from_dense(values).expect("finite signal")
}

fn main() {
    // --- Spawn: one keyed store map behind an ephemeral loopback port.
    let map = Arc::new(StoreMap::new());
    let server = HistServer::bind("127.0.0.1:0", Arc::clone(&map), ServerConfig::default())
        .expect("ephemeral loopback bind");
    let addr = server.local_addr();
    println!("server:    listening on {addr}");

    // --- Ingest: one writer thread per tenant, each fitting its own chunks
    //     and shipping merge-updates at its own key, all concurrently.
    std::thread::scope(|scope| {
        for tenant in 0..TENANTS {
            scope.spawn(move || {
                let key = format!("tenant/{tenant:02}");
                let mut client = HistClient::connect(addr)
                    .expect("writer connect")
                    .with_key(&key)
                    .expect("valid key");
                let estimator = GreedyMerging::new(EstimatorBuilder::new(K));
                for round in 0..CHUNKS_PER_TENANT {
                    let fit = estimator.fit(&tenant_chunk(tenant, round)).expect("chunk fit");
                    client.update_merge(&fit, 2 * K + 1).expect("keyed merge-update");
                }
            });
        }
    });
    println!("ingest:    {TENANTS} writers x {CHUNKS_PER_TENANT} merge-updates, one key each");

    // --- Keyed queries: retarget one client across tenants; every answer is
    //     stamped with that key's own epoch.
    let mut client = HistClient::connect(addr).expect("connect");
    for tenant in [0, TENANTS - 1] {
        let key = format!("tenant/{tenant:02}");
        client.set_key(&key).expect("valid key");
        let q = client.quantile_batch(&[0.5, 0.99]).expect("keyed quantiles");
        println!(
            "query:     {key}: p50 {:>5} p99 {:>5} at epoch {}",
            q.value[0], q.value[1], q.epoch
        );
        assert_eq!(q.epoch, CHUNKS_PER_TENANT as u64, "one epoch per shipped chunk");
    }

    // --- The key lifecycle over the wire: listing, store-wide stats, and
    //     eviction of a retired tenant.
    let keys = client.list_keys().expect("list");
    assert_eq!(keys.value.len(), TENANTS);
    let stats = client.store_stats().expect("store stats");
    println!(
        "stats:     {} keys, {} served, {} pieces total, epochs {}..{}",
        stats.value.keys,
        stats.value.served,
        stats.value.total_pieces,
        stats.value.min_epoch,
        stats.value.max_epoch
    );
    let retired = format!("tenant/{:02}", TENANTS - 1);
    assert!(client.drop_key(&retired).expect("drop").value, "tenant existed");
    println!(
        "evict:     dropped {retired} -> {} keys",
        client.list_keys().expect("list").value.len()
    );

    // --- The merged global view: every remaining tenant's synopsis
    //     tree-merged on demand into one fleet-wide distribution.
    let view = client.merged_view(2 * K + 1).expect("merged view");
    println!(
        "merge:     global view over {} keys: domain {}, {} pieces, p99 {}",
        view.keys,
        view.synopsis.domain(),
        view.synopsis.num_pieces(),
        view.synopsis.quantile(0.99).expect("global p99")
    );

    // --- Persistence: the whole keyed map in one atomic AHISTMAP container.
    let path = std::env::temp_dir().join("approx-hist-examples").join("tenants.ahistmap");
    std::fs::create_dir_all(path.parent().expect("parent")).expect("temp dir");
    map.save(&path).expect("save map");
    let reopened = StoreMap::open(&path).expect("open map");
    assert_eq!(reopened.keys(), map.keys());
    assert_eq!(reopened.epoch("tenant/00"), map.epoch("tenant/00"));
    println!(
        "persist:   {} keys saved and reopened from {} ({} bytes)",
        reopened.len(),
        path.display(),
        std::fs::metadata(&path).expect("saved file").len()
    );
    let _ = std::fs::remove_file(&path);
    // Graceful shutdown on drop: accept loop and handlers join here.
}
