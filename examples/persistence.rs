//! The persistence layer end to end: fit a synopsis, save it to disk, load
//! it back bit-identically, warm-start a keyed serving map across a simulated
//! restart, and stop/resume a one-pass streaming build from a checkpoint.
//!
//! ```text
//! cargo run --release --example persistence
//! ```

use approx_hist::{
    load_synopsis, save_synopsis, Estimator, EstimatorBuilder, EstimatorKind, GreedyMerging,
    Interval, Signal, StoreMap, StreamingBuilder, DEFAULT_KEY,
};

fn signal(n: usize) -> Signal {
    let values: Vec<f64> =
        (0..n).map(|i| ((i / 256) % 4) as f64 * 3.0 + 1.0 + 0.05 * (i % 7) as f64).collect();
    Signal::from_dense(values).expect("finite signal")
}

fn main() {
    let dir = std::env::temp_dir().join("approx-hist-persistence-example");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let k = 12;
    let n = 1 << 14;

    // --- Fit → save → load: the synopsis is a tiny, durable artifact.
    let fitted = EstimatorKind::Merging
        .build(EstimatorBuilder::new(k))
        .fit(&signal(n))
        .expect("valid signal");
    let path = dir.join("fitted.synopsis");
    save_synopsis(&path, &fitted).expect("save");
    let bytes_on_disk = std::fs::metadata(&path).expect("saved file").len();
    let loaded = load_synopsis(&path).expect("load");
    assert_eq!(loaded, fitted, "decode must be bit-identical");
    println!(
        "codec:     {} pieces over domain {} -> {bytes_on_disk} bytes on disk ({}x smaller \
         than the raw signal)",
        fitted.num_pieces(),
        fitted.domain(),
        (n as u64 * 8) / bytes_on_disk,
    );
    let range = Interval::new(0, n / 2).expect("in-domain");
    println!(
        "queries:   mass[0, n/2] {:.1} == {:.1}, median {} == {}",
        loaded.mass(range).expect("in-domain"),
        fitted.mass(range).expect("in-domain"),
        loaded.quantile(0.5).expect("positive mass"),
        fitted.quantile(0.5).expect("positive mass"),
    );

    // --- Serving restart: save the live map, "crash", reopen warm.
    let map = StoreMap::with_initial(fitted);
    for _ in 0..3 {
        let chunk =
            GreedyMerging::new(EstimatorBuilder::new(k)).fit(&signal(n / 4)).expect("chunk fit");
        map.update_merge(DEFAULT_KEY, &chunk, 2 * k + 1).expect("positive budget");
    }
    let map_path = dir.join("store.ahistmap");
    map.save(&map_path).expect("save map");
    let epoch_before = map.epoch(DEFAULT_KEY);
    drop(map); // the process "restarts" here

    let reopened = StoreMap::open(&map_path).expect("open map");
    let snapshot = reopened.snapshot(DEFAULT_KEY).expect("warm start");
    assert_eq!(snapshot.epoch(), epoch_before);
    println!(
        "store:     reopened at epoch {} (saved at {epoch_before}), domain {}, {} pieces",
        snapshot.epoch(),
        snapshot.domain(),
        snapshot.num_pieces(),
    );
    let fresh = GreedyMerging::new(EstimatorBuilder::new(k)).fit(&signal(n / 4)).expect("fit");
    let next = reopened.update_merge(DEFAULT_KEY, &fresh, 2 * k + 1).expect("positive budget");
    assert_eq!(next, epoch_before + 1, "epochs continue across restarts");
    println!("store:     next publish -> epoch {next} (monotone across the restart)");

    // --- Streaming checkpoint/resume: stop a one-pass build mid-stream and
    //     finish it later with bit-identical output.
    let values: Vec<f64> = (0..6_000).map(|i| ((i / 750) % 4) as f64 + 1.0).collect();
    let inner = || Box::new(GreedyMerging::new(EstimatorBuilder::new(6)));
    let mut uninterrupted = StreamingBuilder::new(inner(), 6, 256).expect("valid config");
    uninterrupted.extend(&values).expect("finite stream");

    let split = 2_500;
    let mut first_half = StreamingBuilder::new(inner(), 6, 256).expect("valid config");
    first_half.extend(&values[..split]).expect("finite stream");
    let checkpoint_path = dir.join("stream.checkpoint");
    std::fs::write(&checkpoint_path, first_half.checkpoint()).expect("write checkpoint");
    drop(first_half); // the stream consumer "stops" here

    let bytes = std::fs::read(&checkpoint_path).expect("read checkpoint");
    let mut resumed = StreamingBuilder::resume(inner(), &bytes).expect("valid checkpoint");
    resumed.extend(&values[split..]).expect("finite stream");
    let direct = uninterrupted.synopsis().expect("non-empty");
    let restarted = resumed.synopsis().expect("non-empty");
    assert_eq!(restarted.model(), direct.model(), "resume must be bit-identical");
    println!(
        "stream:    checkpointed at {split}/{} values ({} bytes), resumed -> identical model \
         ({} pieces)",
        values.len(),
        bytes.len(),
        restarted.num_pieces(),
    );
}
