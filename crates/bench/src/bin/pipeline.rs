//! Live telemetry pipeline benchmark: sustained ingest throughput while the
//! store is concurrently served over the wire, plus the publish-cadence
//! (freshness) vs served-accuracy trade-off, written as JSON to
//! `BENCH_pipeline.json` at the workspace root (override with
//! `HIST_BENCH_PIPE_OUT`). Set `HIST_BENCH_PIPE_FAST=1` for a seconds-long
//! smoke run (CI uses it).
//!
//! Two measurements:
//!
//! * `sustained` — four metric lanes on one background ingest thread
//!   ([`TelemetryPipeline::spawn`]) publishing into a shared [`StoreMap`]
//!   behind a live [`HistServer`], while two client threads hammer
//!   p50/p99/p999 quantile batches the whole time. Reported: events/s
//!   sustained by the ingester *while serving*, epochs minted, and queries/s
//!   answered concurrently.
//! * `cadence` — one lane ingesting the same stream at three publish
//!   cadences (chunk lengths). The chunk length *is* the freshness knob: the
//!   served synopsis lags the stream by at most one unpublished chunk, so
//!   shorter chunks serve fresher answers but pay more merges (and merge
//!   error) per event. Reported per cadence: worst-case staleness in events,
//!   synchronous ingest rate, final served L2 error against the exact
//!   stream prefix, and its ratio to the direct `k`-piece fit — gated by the
//!   same `C = 3` bound `tests/merge_streaming.rs` pins.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use approx_hist::datasets::gaussian_mixture;
use approx_hist::{
    Estimator, EstimatorBuilder, EventSource, GreedyMerging, HistClient, HistServer,
    MetricPipeline, ServerConfig, Signal, StoreMap, TelemetryPipeline,
};

const K: usize = 12;
const SEED: u64 = 2015;
const PS: [f64; 3] = [0.5, 0.99, 0.999];

fn fast() -> bool {
    std::env::var("HIST_BENCH_PIPE_FAST").is_ok()
}

fn estimator() -> Box<GreedyMerging> {
    Box::new(GreedyMerging::new(EstimatorBuilder::new(K).seed(SEED)))
}

/// The smooth diurnal-bulk block the cadence sweep streams (cycled): two
/// Gaussian modes over a positive baseline, so fit quality — not spike
/// placement — governs the served error.
fn smooth_block(len: usize) -> Vec<f64> {
    gaussian_mixture(len, &[(0.6, 0.3, 0.12), (0.4, 0.7, 0.15)])
        .iter()
        .map(|&m| 60.0 + 120.0 * m * len as f64)
        .collect()
}

struct SustainedRun {
    lanes: usize,
    events: u64,
    publishes: u64,
    queries: u64,
    elapsed_s: f64,
}

/// Four lanes on a background ingest thread behind a live server, two query
/// clients hammering the whole time.
fn run_sustained(duration: Duration, chunk_len: usize) -> SustainedRun {
    const LANES: usize = 4;
    let map = Arc::new(StoreMap::new());

    let mut pipeline = TelemetryPipeline::new(Arc::clone(&map)).with_batch(chunk_len);
    let mut keys = Vec::new();
    for lane in 0..LANES {
        let key = format!("svc/metric{lane}");
        let source = EventSource::synthetic(&key, SEED + lane as u64, 4 * chunk_len)
            .expect("synthetic source");
        let metric = MetricPipeline::cumulative(&key, estimator(), K, chunk_len).expect("lane");
        pipeline.add_lane(source, metric);
        keys.push(key);
    }
    // Prime every key so query threads never race the first publish.
    pipeline.run_until(chunk_len).expect("priming chunk");

    let server = HistServer::bind("127.0.0.1:0", Arc::clone(&map), ServerConfig::default())
        .expect("ephemeral bind");
    let addr = server.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let queries = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = (0..2)
        .map(|reader| {
            let (stop, queries) = (Arc::clone(&stop), Arc::clone(&queries));
            let key = keys[reader % LANES].clone();
            std::thread::spawn(move || {
                let mut client =
                    HistClient::connect(addr).expect("connect").with_key(&key).expect("key");
                while !stop.load(Ordering::Relaxed) {
                    client.quantile_batch(&PS).expect("served quantiles");
                    queries.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    let started = Instant::now();
    let handle = pipeline.spawn();
    std::thread::sleep(duration);
    let pipeline = handle.join().expect("ingest thread");
    let elapsed_s = started.elapsed().as_secs_f64();

    stop.store(true, Ordering::Relaxed);
    for reader in readers {
        reader.join().expect("query thread");
    }

    let publishes = pipeline.lanes().iter().map(|(_, lane)| lane.publishes()).sum::<u64>();
    let events = pipeline.lanes().iter().map(|(_, lane)| lane.consumed() as u64).sum::<u64>();
    SustainedRun {
        lanes: LANES,
        events,
        publishes,
        queries: queries.load(Ordering::Relaxed),
        elapsed_s,
    }
}

struct CadenceRun {
    chunk_len: usize,
    epochs: u64,
    ingest_events_per_s: f64,
    served_l2_error: f64,
    ratio_vs_direct: f64,
}

/// One lane, one cadence: ingest `n` events synchronously, then measure the
/// served synopsis against the exact prefix.
fn run_cadence(block: &[f64], n: usize, chunk_len: usize, direct_err: f64) -> CadenceRun {
    let key = "svc/latency";
    let map = Arc::new(StoreMap::new());
    let source = EventSource::from_block(key, block.to_vec()).expect("source");
    let lane = MetricPipeline::cumulative(key, estimator(), K, chunk_len).expect("lane");
    let mut pipeline = TelemetryPipeline::new(Arc::clone(&map)).with_batch(chunk_len);
    pipeline.add_lane(source, lane);

    let started = Instant::now();
    let report = pipeline.run_until(n).expect("ingest");
    let elapsed = started.elapsed().as_secs_f64();

    let snapshot = map.snapshot(key).expect("published");
    let prefix: Vec<f64> = (0..n).map(|i| block[i % block.len()]).collect();
    let signal = Signal::from_dense(prefix).expect("signal");
    let served_l2_error = snapshot.synopsis().l2_error(&signal).expect("served error");
    CadenceRun {
        chunk_len,
        epochs: report.publishes,
        ingest_events_per_s: if elapsed > 0.0 { n as f64 / elapsed } else { f64::INFINITY },
        served_l2_error,
        ratio_vs_direct: served_l2_error / direct_err.max(1e-12),
    }
}

fn main() {
    let (duration, sustained_chunk, n, cadences) = if fast() {
        (Duration::from_millis(400), 1_024, 1 << 13, [128usize, 512, 2_048])
    } else {
        (Duration::from_secs(3), 1_024, 1 << 16, [256usize, 1_024, 4_096])
    };
    println!("pipeline: k = {K}, sustained {duration:?}, cadence n = {n}");

    let sustained = run_sustained(duration, sustained_chunk);

    let block = smooth_block(1 << 12);
    let signal =
        Signal::from_dense((0..n).map(|i| block[i % block.len()]).collect()).expect("signal");
    let direct_err =
        estimator().fit(&signal).expect("direct fit").l2_error(&signal).expect("direct error");
    let cadence_runs: Vec<CadenceRun> =
        cadences.iter().map(|&c| run_cadence(&block, n, c, direct_err)).collect();

    let cadence_json: Vec<String> = cadence_runs
        .iter()
        .map(|run| {
            format!(
                r#"    {{
      "chunk_len": {chunk},
      "epochs": {epochs},
      "staleness_max_events": {chunk},
      "ingest_events_per_s": {rate:.1},
      "served_l2_error": {err:.6},
      "error_vs_direct_ratio": {ratio:.4}
    }}"#,
                chunk = run.chunk_len,
                epochs = run.epochs,
                rate = run.ingest_events_per_s,
                err = run.served_l2_error,
                ratio = run.ratio_vs_direct,
            )
        })
        .collect();

    let json = format!(
        r#"{{
  "config": {{
    "k": {K},
    "merge_budget": {budget},
    "seed": {SEED},
    "sustained_chunk_len": {sustained_chunk},
    "cadence_n": {n},
    "fast": {fast}
  }},
  "sustained": {{
    "lanes": {lanes},
    "events": {events},
    "events_per_s": {events_per_s:.1},
    "publishes": {publishes},
    "queries": {queries},
    "queries_per_s": {queries_per_s:.1},
    "elapsed_s": {elapsed:.3}
  }},
  "cadence": [
{cadence}
  ],
  "direct_l2_error": {direct_err:.6}
}}
"#,
        budget = 2 * K + 1,
        fast = fast(),
        lanes = sustained.lanes,
        events = sustained.events,
        events_per_s = sustained.events as f64 / sustained.elapsed_s,
        publishes = sustained.publishes,
        queries = sustained.queries,
        queries_per_s = sustained.queries as f64 / sustained.elapsed_s,
        elapsed = sustained.elapsed_s,
        cadence = cadence_json.join(",\n"),
    );
    print!("{json}");

    let path =
        std::env::var("HIST_BENCH_PIPE_OUT").unwrap_or_else(|_| "BENCH_pipeline.json".into());
    let mut file = std::fs::File::create(&path).expect("writable output path");
    file.write_all(json.as_bytes()).expect("write BENCH_pipeline.json");
    println!("json written to {path}");

    // Sanity gates, after the JSON survives for debugging.
    assert!(sustained.events > 0 && sustained.publishes > 0, "the ingester made no progress");
    assert!(sustained.queries > 0, "no query was answered while ingesting — serving was starved");
    let slack = 1e-6 * signal.l2_norm_squared().sqrt().max(1.0);
    for run in &cadence_runs {
        assert!(
            run.served_l2_error <= 3.0 * direct_err + slack,
            "cadence {}: served error {} outside the C = 3 bound of direct {}",
            run.chunk_len,
            run.served_l2_error,
            direct_err
        );
    }
}
