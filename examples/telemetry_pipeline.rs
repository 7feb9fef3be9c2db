//! The live telemetry pipeline end to end: a background ingest thread drives
//! synthetic event streams through streaming builders, merging their chunk
//! synopses into a keyed store that a wire server answers from the whole
//! time — then the ingester is killed mid-stream, the server keeps serving,
//! and a checkpoint/resume restart carries on as if nothing happened.
//!
//! ```text
//! cargo run --release --example telemetry_pipeline
//! ```

use std::sync::Arc;
use std::time::Duration;

use approx_hist::{
    EstimatorBuilder, EventSource, GreedyMerging, HistClient, HistServer, MetricPipeline,
    ServerConfig, StoreMap, TelemetryPipeline,
};

const K: usize = 12;
const CHUNK: usize = 1_024;

fn estimator() -> Box<GreedyMerging> {
    Box::new(GreedyMerging::new(EstimatorBuilder::new(K).seed(2015)))
}

fn main() {
    // The shared store: ingest publishes into it, the server reads from it.
    let map = Arc::new(StoreMap::new());

    // Two metric lanes, each summarizing everything since stream start,
    // merged into the store chunk by chunk.
    let mut pipeline = TelemetryPipeline::new(Arc::clone(&map)).with_batch(CHUNK);
    let latency = EventSource::synthetic("api/latency", 42, 4 * CHUNK).expect("source");
    pipeline.add_lane(
        latency.clone(),
        MetricPipeline::cumulative("api/latency", estimator(), K, CHUNK).expect("lane"),
    );
    pipeline.add_lane(
        EventSource::synthetic("api/errors", 7, 4 * CHUNK).expect("source"),
        MetricPipeline::cumulative("api/errors", estimator(), K, CHUNK).expect("lane"),
    );

    // Serve the map over the wire while ingest runs.
    let server = HistServer::bind("127.0.0.1:0", Arc::clone(&map), ServerConfig::default())
        .expect("ephemeral bind");
    let mut client = HistClient::connect(server.local_addr())
        .expect("connect")
        .with_key("api/latency")
        .expect("key");

    // --- Phase 1: live ingest + live queries.
    let handle = pipeline.spawn();
    while handle.publishes() < 8 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let stamped = client.quantile_batch(&[0.5, 0.99, 0.999]).expect("live quantiles");
    println!(
        "live:    epoch {:>4}, p50/p99/p999 = {:?} ({} events ingested so far)",
        stamped.epoch,
        stamped.value,
        handle.events()
    );

    // --- Phase 2: kill the ingester mid-stream. The server keeps answering
    // from everything already published; the checkpoint captures the exact
    // resume point (consumed events, completed chunks, buffered tail).
    let dead = handle.join().expect("ingest thread");
    let (_, lane) = &dead.lanes()[0];
    let checkpoint = lane.checkpoint().expect("lanes checkpoint");
    let consumed = lane.consumed();
    let during_outage = client.quantile_batch(&[0.5, 0.99, 0.999]).expect("still serving");
    println!(
        "outage:  epoch {:>4}, p50/p99/p999 = {:?} (ingester dead at event {}, {} checkpoint bytes)",
        during_outage.epoch,
        during_outage.value,
        consumed,
        checkpoint.len()
    );

    // --- Phase 3: resume into the SAME live store. The source seeks to the
    // checkpoint's consumed-event count and replays the identical suffix, so
    // served answers continue exactly as an uninterrupted run's would.
    let resumed = MetricPipeline::resume_cumulative(&map, "api/latency", estimator(), &checkpoint)
        .expect("resume");
    let mut replay = latency;
    replay.seek(resumed.consumed());
    let mut restarted = TelemetryPipeline::new(Arc::clone(&map)).with_batch(CHUNK);
    restarted.add_lane(replay, resumed);
    let report = restarted.run_until(consumed + 8 * CHUNK).expect("resumed ingest");

    let after = client.quantile_batch(&[0.5, 0.99, 0.999]).expect("resumed quantiles");
    println!(
        "resumed: epoch {:>4}, p50/p99/p999 = {:?} (+{} events, +{} epochs after restart)",
        after.epoch, after.value, report.events, report.publishes
    );
    assert!(after.epoch > during_outage.epoch, "resume kept publishing fresh epochs");
}
