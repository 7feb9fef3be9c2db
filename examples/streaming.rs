//! Mergeable & streaming synopses end to end: fit a signal in shards and
//! tree-merge the per-shard synopses, and consume the same signal as a
//! one-pass stream — then serve batched queries from the merged synopsis.
//!
//! ```text
//! cargo run --release --example streaming
//! ```

use approx_hist::stream::{ChunkedFitter, StreamingBuilder};
use approx_hist::{Estimator, EstimatorBuilder, GreedyMerging, Interval, Signal};

fn main() {
    let k = 8;
    let n = 8_192;
    // A plateaued signal with deterministic jitter.
    let values: Vec<f64> = (0..n)
        .map(|i| ((i / 1_024) % 4) as f64 * 3.0 + 1.0 + 0.03 * ((i * 37 % 11) as f64 - 5.0))
        .collect();
    let signal = Signal::from_dense(values.clone()).expect("finite signal");
    let builder = EstimatorBuilder::new(k);
    let inner = || Box::new(GreedyMerging::new(builder));

    // --- Sharded construction: fit 8 chunks independently, merge in a tree.
    let direct = GreedyMerging::new(builder).fit(&signal).expect("valid signal");
    let chunked =
        ChunkedFitter::new(inner(), k).with_chunk_len(n / 8).fit(&signal).expect("valid signal");
    println!(
        "chunked:   {} pieces, l2 error {:.3} (direct fit: {} pieces, {:.3})",
        chunked.num_pieces(),
        chunked.l2_error(&signal).expect("same domain"),
        direct.num_pieces(),
        direct.l2_error(&signal).expect("same domain"),
    );

    // --- One-pass streaming: same signal, value by value, logarithmic memory.
    let mut stream = StreamingBuilder::new(inner(), k, 512).expect("valid configuration");
    stream.extend(&values).expect("finite values");
    let streamed = stream.synopsis().expect("non-empty stream");
    println!(
        "streaming: {} pieces, l2 error {:.3}, {} partial synopses held",
        streamed.num_pieces(),
        streamed.l2_error(&signal).expect("same domain"),
        stream.num_partials(),
    );

    // --- Batched serving straight off the merged synopsis.
    let ranges: Vec<Interval> = (0..8)
        .map(|j| Interval::new(j * n / 8, (j + 1) * n / 8 - 1).expect("valid range"))
        .collect();
    let masses = chunked.mass_batch(&ranges).expect("in-domain ranges");
    let quartiles = chunked.quantile_batch(&[0.25, 0.5, 0.75]).expect("valid fractions");
    println!("batched:   eighth-masses {masses:.0?}, quartile indices {quartiles:?}");
}
