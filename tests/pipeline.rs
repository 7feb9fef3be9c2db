//! End-to-end acceptance suite for the live telemetry pipeline
//! (`hist-pipeline`): synthetic events → windowed/cumulative synopses →
//! keyed store → wire serving, with crash/resume.
//!
//! * **Quantile tracking** — served p50/p99/p999 fetched through a
//!   [`HistClient`] against a maintenance-enabled server track the
//!   exactly-computed true stream quantiles within the merge-error bound at
//!   every publish epoch. The bound is Cauchy–Schwarz on prefix masses: for
//!   any index `x`, `|S([0,x]) − T([0,x])| ≤ √n · ‖s − t‖₂`, so the served
//!   and exact CDFs differ by at most `Δ = 2√n·L2 / (M − √n·L2)` where `L2`
//!   is the *measured* L2 error of the served synopsis against the exact
//!   prefix signal and `M` its exact total mass. (Clamping fitted values to
//!   `≥ 0` only moves them toward the non-negative truth, so the measured
//!   `L2` upper-bounds the clamped error too.)
//! * **Kill the ingester mid-stream** — a background ingest thread is
//!   stopped mid-chunk; the server keeps answering from published epochs
//!   while the ingester is dead; a `checkpoint`/`resume` restart then
//!   continues into the *same live store*, and every subsequently served
//!   answer is bit-identical (`f64::to_bits`) to an uninterrupted control
//!   run — including the final merged synopsis, compared on encoded bytes.
//! * **Every split point** — `StreamingBuilder` checkpoint/resume through
//!   [`MetricPipeline`] is bit-identical at *every* split position of a
//!   multi-chunk stream (mid-tail, chunk boundaries, carry cascades), while
//!   a live server keeps answering from previously published synopses
//!   unperturbed throughout the sweep.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use approx_hist::datasets::gaussian_mixture;
use approx_hist::persist::encode_synopsis;
use approx_hist::{
    EstimatorBuilder, EventSource, GreedyMerging, HistClient, MaintenancePolicy, MetricPipeline,
    Signal, StoreMap, TelemetryPipeline,
};
use common::{spawn_server, FIXTURE_K};

/// The served quantiles of the acceptance suite.
const PS: [f64; 3] = [0.5, 0.99, 0.999];

fn fixture_inner() -> Box<GreedyMerging> {
    Box::new(GreedyMerging::new(EstimatorBuilder::new(FIXTURE_K).samples(60_000).seed(2015)))
}

/// Exact prefix-sum CDF of the first `n` stream values: `(cdf, total_mass,
/// max_single_index_step)`.
fn exact_cdf(source: &EventSource, n: usize) -> (Vec<f64>, f64, f64) {
    let prefix = source.prefix(n);
    let total: f64 = prefix.iter().sum();
    assert!(total > 0.0, "the synthetic stream must carry mass");
    let mut running = 0.0;
    let cdf: Vec<f64> = prefix
        .iter()
        .map(|v| {
            running += v;
            running / total
        })
        .collect();
    let max_step = prefix.iter().fold(0.0_f64, |m, &v| m.max(v)) / total;
    (cdf, total, max_step)
}

/// Queries the live server until a consistent epoch is observed (maintenance
/// refits may swap the served synopsis between reads): returns the snapshot
/// plus the quantile and cdf answers all stamped with its epoch.
fn consistent_read(
    map: &StoreMap,
    client: &mut HistClient,
    key: &str,
    xs: &[usize],
) -> (approx_hist::Snapshot, Vec<usize>, Vec<f64>) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let before = map.snapshot(key).expect("the lane has published");
        let quants = client.quantile_batch(&PS).expect("quantile_batch");
        let cdfs = client.cdf_batch(xs).expect("cdf_batch");
        let after = map.snapshot(key).expect("the lane has published");
        if before.epoch() == quants.epoch
            && quants.epoch == cdfs.epoch
            && after.epoch() == before.epoch()
        {
            return (before, quants.value, cdfs.value);
        }
        assert!(Instant::now() < deadline, "maintenance kept churning the served epoch for 20s");
    }
}

/// Tentpole acceptance: at every publish epoch, quantiles served over the
/// wire (against a maintenance-enabled server) track the exactly-computed
/// true stream quantiles within the merge-error bound.
fn served_quantiles_track_true_stream_quantiles() {
    const CHUNK: usize = 512;
    const EPOCHS: usize = 12;
    // The tracking bound is Cauchy–Schwarz, so its tightness is governed by
    // the fit quality: a piece budget sized for the signal's shape (two
    // smooth diurnal modes over a positive baseline — the bulk workload;
    // spiky Zipf streams are exercised by the crash/resume leg, where the
    // contract is bit-identity rather than an error bound).
    const K: usize = 24;
    let key = "api/latency";

    let map = Arc::new(StoreMap::new());
    map.enable_maintenance(MaintenancePolicy::new(50.0, 2 * K + 1).min_interval(2), 1)
        .expect("maintenance policy");
    let mut server = spawn_server(Arc::clone(&map));
    let mut client =
        HistClient::connect(server.local_addr()).expect("connect").with_key(key).expect("key");

    let block_len = 4 * CHUNK;
    let mix = gaussian_mixture(block_len, &[(0.6, 0.3, 0.12), (0.4, 0.7, 0.15)]);
    let block: Vec<f64> = mix.iter().map(|&m| 60.0 + 120.0 * m * block_len as f64).collect();
    let source = EventSource::from_block(key, block).expect("source");
    let reference = source.clone();
    let inner = Box::new(GreedyMerging::new(EstimatorBuilder::new(K).samples(60_000).seed(2015)));
    let lane = MetricPipeline::cumulative(key, inner, K, CHUNK).expect("lane");
    let mut pipeline = TelemetryPipeline::new(Arc::clone(&map)).with_batch(CHUNK);
    pipeline.add_lane(source, lane);

    for epoch in 1..=EPOCHS {
        let n = epoch * CHUNK;
        pipeline.run_until(n).expect("ingest");
        assert_eq!(pipeline.lanes()[0].1.consumed(), n);

        let (cdf, total, max_step) = exact_cdf(&reference, n);
        let xs: Vec<usize> = [n / 8, n / 4, n / 2, 3 * n / 4, n - 1].to_vec();
        let (snap, quants, served_cdfs) = consistent_read(&map, &mut client, key, &xs);
        assert_eq!(snap.synopsis().domain(), n, "served domain covers the whole prefix");

        // The merge-error bound, from the *measured* L2 error of exactly the
        // synopsis that answered.
        let signal = Signal::from_dense(reference.prefix(n)).expect("signal");
        let l2 = snap.synopsis().l2_error(&signal).expect("l2_error");
        let spread = (n as f64).sqrt() * l2;
        assert!(
            spread < total / 2.0,
            "epoch {epoch}: merge error √n·L2 = {spread} overwhelms mass {total}"
        );
        let delta = 2.0 * spread / (total - spread);
        let slack = 1e-6;
        // The bound must be meaningful, not just satisfied: a vacuous Δ
        // (anywhere near 1) would make the tracking asserts below trivial.
        // Measured Δ ranges 0.02–0.09 across the twelve epochs.
        assert!(delta < 0.15, "epoch {epoch}: merge-error bound Δ = {delta} is too loose");

        // Served CDF tracks the exact CDF pointwise.
        for (&x, &served) in xs.iter().zip(&served_cdfs) {
            let err = (served - cdf[x]).abs();
            assert!(
                err <= delta + slack,
                "epoch {epoch}, x = {x}: |served − exact| = {err} > Δ = {delta}"
            );
        }

        // Served quantiles are exact quantiles of a CDF within Δ: the exact
        // CDF at the served index must bracket p, up to Δ and one discrete
        // step of the exact distribution.
        for (&p, &q) in PS.iter().zip(&quants) {
            assert!(q < n, "epoch {epoch}: served quantile {q} outside the domain");
            let at_q = cdf[q];
            assert!(
                at_q >= p - delta - slack,
                "epoch {epoch}, p = {p}: exact cdf({q}) = {at_q} < p − Δ (Δ = {delta})"
            );
            assert!(
                at_q <= p + delta + max_step + slack,
                "epoch {epoch}, p = {p}: exact cdf({q}) = {at_q} > p + Δ + step \
                 (Δ = {delta}, step = {max_step})"
            );
        }
    }

    let lane = &pipeline.lanes()[0].1;
    assert_eq!(lane.publishes(), EPOCHS as u64, "one epoch per completed chunk");
    drop(client);
    server.shutdown();
}

/// Tentpole crash/resume: kill the background ingester mid-stream, observe
/// the server still answering, resume from the checkpoint into the same live
/// store, and prove every subsequently served answer matches an
/// uninterrupted control run bit for bit.
fn killed_ingester_resumes_and_serves_identical_answers() {
    const CHUNK: usize = 256;
    let key = "svc/latency";
    let ps = [0.1, 0.5, 0.9, 0.99, 0.999];

    // Interrupted side: background ingest thread into a live served store.
    // Maintenance stays OFF on both sides — async refits are wall-clock
    // scheduled, so bit-identity is only meaningful for the pure merge chain.
    let map_a = Arc::new(StoreMap::new());
    let mut server_a = spawn_server(Arc::clone(&map_a));
    let mut client_a =
        HistClient::connect(server_a.local_addr()).expect("connect").with_key(key).expect("key");

    let source = EventSource::synthetic(key, 7, 2_048).expect("source");
    let lane = MetricPipeline::cumulative(key, fixture_inner(), FIXTURE_K, CHUNK).expect("lane");
    let mut pipeline = TelemetryPipeline::new(Arc::clone(&map_a)).with_batch(64);
    pipeline.add_lane(source.clone(), lane);

    let handle = pipeline.spawn();
    let deadline = Instant::now() + Duration::from_secs(20);
    while handle.publishes() < 3 {
        assert!(Instant::now() < deadline, "ingester published nothing in 20s");
        std::thread::yield_now();
    }
    // Kill it mid-stream (wherever it happens to be — realistic, and the
    // control below replays to exactly that position).
    let dead = handle.join().expect("ingest thread");
    let (_, dead_lane) = &dead.lanes()[0];
    let split = dead_lane.consumed();
    let published_at_kill = dead_lane.publishes();
    assert!(published_at_kill >= 3);
    let checkpoint = dead_lane.checkpoint().expect("cumulative lanes checkpoint");

    // The ingester is dead; the server keeps answering from published
    // epochs, and repeated reads are stable.
    let first = client_a.quantile_batch(&ps).expect("serving while ingester is down");
    let second = client_a.quantile_batch(&ps).expect("still serving");
    assert_eq!(first.epoch, published_at_kill, "one epoch per published chunk");
    assert_eq!((first.epoch, &first.value), (second.epoch, &second.value));

    // Resume from the checkpoint into the SAME live store; seek the source
    // to the checkpoint's consumed-event count.
    let resumed =
        MetricPipeline::resume_cumulative(key, fixture_inner(), &checkpoint).expect("resume");
    assert_eq!(resumed.consumed(), split);
    assert_eq!(resumed.publishes(), published_at_kill);
    let mut replay = source.clone();
    replay.seek(split);
    let mut pipeline_a = TelemetryPipeline::new(Arc::clone(&map_a));
    pipeline_a.add_lane(replay, resumed);

    // Uninterrupted control: same stream, same lane config, fresh store.
    let map_b = Arc::new(StoreMap::new());
    let mut server_b = spawn_server(Arc::clone(&map_b));
    let mut client_b =
        HistClient::connect(server_b.local_addr()).expect("connect").with_key(key).expect("key");
    let control = MetricPipeline::cumulative(key, fixture_inner(), FIXTURE_K, CHUNK).expect("lane");
    let mut pipeline_b = TelemetryPipeline::new(Arc::clone(&map_b));
    pipeline_b.add_lane(source.clone(), control);
    pipeline_b.run_until(split).expect("control catches up to the kill point");

    // Step both to the same positions with deliberately ragged batch sizes
    // (crossing chunk boundaries at different phases) and compare every
    // served answer bit for bit after each step.
    let mut position = split;
    for step in [173usize, 256, 300, 31, 512, 640] {
        position += step;
        pipeline_a.run_until(position).expect("resumed ingest");
        pipeline_b.run_until(position).expect("control ingest");

        let qa = client_a.quantile_batch(&ps).expect("resumed quantiles");
        let qb = client_b.quantile_batch(&ps).expect("control quantiles");
        assert_eq!(qa.epoch, qb.epoch, "step to {position}: epoch counts diverged");
        assert_eq!(qa.value, qb.value, "step to {position}: served quantiles diverged");

        let n = (position / CHUNK) * CHUNK;
        if n == 0 {
            continue;
        }
        let xs: Vec<usize> = (0..16).map(|i| i * (n - 1) / 15).collect();
        let ca = client_a.cdf_batch(&xs).expect("resumed cdf");
        let cb = client_b.cdf_batch(&xs).expect("control cdf");
        assert_eq!(ca.epoch, cb.epoch);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&ca.value),
            bits(&cb.value),
            "step to {position}: served cdf values diverged bitwise"
        );
    }

    // The final merged synopses — the entire left-deep merge chain each store
    // accumulated — are bit-identical on their encoded bytes.
    let final_a = map_a.snapshot(key).expect("a served");
    let final_b = map_b.snapshot(key).expect("b served");
    assert_eq!(final_a.epoch(), final_b.epoch());
    assert_eq!(
        encode_synopsis(final_a.synopsis()),
        encode_synopsis(final_b.synopsis()),
        "the resumed store's merge chain diverged from the uninterrupted one"
    );

    drop((client_a, client_b));
    server_a.shutdown();
    server_b.shutdown();
}

evented_cases!(
    served_quantiles_track_true_stream_quantiles,
    killed_ingester_resumes_and_serves_identical_answers,
);

/// Satellite 4: checkpoint/resume is bit-identical at *every* split point of
/// a multi-chunk stream, while a live server keeps answering from previously
/// published synopses throughout the sweep.
#[test]
fn checkpoint_resume_bit_identity_at_every_split_point() {
    const K: usize = 4;
    const CHUNK: usize = 16;
    const N: usize = 96;
    let inner = || Box::new(GreedyMerging::new(EstimatorBuilder::new(K)));

    let source = EventSource::synthetic("sweep", 11, N).expect("source");
    let block = source.prefix(N);

    let map = Arc::new(StoreMap::new());

    // The uninterrupted reference: full stream in one lane.
    let mut reference = MetricPipeline::cumulative("sweep/ref", inner(), K, CHUNK).expect("lane");
    reference.ingest(&map, &block).expect("reference ingest");
    let ref_synopsis = encode_synopsis(&reference.synopsis().expect("reference synopsis"));
    let ref_checkpoint = reference.checkpoint().expect("reference checkpoint");

    // A live server over the already-published reference key; it must keep
    // answering, unperturbed, while the sweep below churns.
    let mut server = spawn_server(Arc::clone(&map));
    let mut client = HistClient::connect(server.local_addr())
        .expect("connect")
        .with_key("sweep/ref")
        .expect("key");
    let baseline = client.quantile_batch(&PS).expect("baseline quantiles");

    for split in 1..N {
        let key = format!("sweep/{split}");
        let mut lane = MetricPipeline::cumulative(&key, inner(), K, CHUNK).expect("lane");
        lane.ingest(&map, &block[..split]).expect("pre-split ingest");
        let bytes = lane.checkpoint().expect("checkpoint");
        drop(lane); // the "crash"

        // The server still answers from previously published synopses.
        let live = client.quantile_batch(&PS).expect("server answers mid-sweep");
        assert_eq!(live.epoch, baseline.epoch, "split {split}: served epoch perturbed");
        assert_eq!(live.value, baseline.value, "split {split}: served answers perturbed");

        let mut resumed = MetricPipeline::resume_cumulative(&key, inner(), &bytes).expect("resume");
        assert_eq!(resumed.consumed(), split, "split {split}: consumed count lost");
        assert_eq!(
            resumed.publishes(),
            (split / CHUNK) as u64,
            "split {split}: publish count lost"
        );
        resumed.ingest(&map, &block[split..]).expect("post-split ingest");

        assert_eq!(
            encode_synopsis(&resumed.synopsis().expect("resumed synopsis")),
            ref_synopsis,
            "split {split}: resumed synopsis diverged from the uninterrupted run"
        );
        assert_eq!(
            resumed.checkpoint().expect("resumed checkpoint"),
            ref_checkpoint,
            "split {split}: resumed checkpoint bytes diverged"
        );
    }

    drop(client);
    server.shutdown();
}

/// A windowed lane re-publishes its merged window every completed bucket and
/// serves the last `bucket_len · num_buckets` values only.
#[test]
fn windowed_lane_republishes_and_serves_the_window() {
    const K: usize = 4;
    const BUCKET: usize = 128;
    const BUCKETS: usize = 4;
    let key = "win/latency";
    let inner = || Box::new(GreedyMerging::new(EstimatorBuilder::new(K)));

    let map = Arc::new(StoreMap::new());
    let mut server = spawn_server(Arc::clone(&map));
    let mut client =
        HistClient::connect(server.local_addr()).expect("connect").with_key(key).expect("key");

    let source = EventSource::synthetic(key, 3, 1_024).expect("source");
    let lane = MetricPipeline::windowed(key, inner(), K, BUCKET, BUCKETS).expect("lane");
    let mut pipeline = TelemetryPipeline::new(Arc::clone(&map)).with_batch(BUCKET);
    pipeline.add_lane(source, lane);

    let report = pipeline.run_until(8 * BUCKET).expect("ingest");
    assert_eq!(report.events, 8 * BUCKET as u64);
    assert_eq!(report.publishes, 8, "one re-publish per completed bucket");

    let snap = map.snapshot(key).expect("published");
    assert_eq!(snap.epoch(), 8);
    assert_eq!(snap.synopsis().domain(), BUCKET * BUCKETS, "serves the window only");

    // The served synopsis IS the lane's current window, bit for bit, and the
    // wire answers come from it.
    let lane = &pipeline.lanes()[0].1;
    assert_eq!(
        encode_synopsis(snap.synopsis()),
        encode_synopsis(&lane.synopsis().expect("window synopsis"))
    );
    let served = client.quantile_batch(&PS).expect("windowed quantiles");
    assert_eq!(served.epoch, 8);
    let local = snap.synopsis().quantile_batch(&PS).expect("local quantiles");
    assert_eq!(served.value, local);

    drop(client);
    server.shutdown();
}
