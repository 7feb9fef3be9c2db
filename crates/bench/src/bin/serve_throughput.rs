//! Seeded serving benchmark: single- vs multi-thread construction for the
//! parallel fitter, written as JSON to `BENCH_serve.json` at the workspace
//! root (override with `HIST_BENCH_SERVE_OUT`).
//!
//! Construction compares the sequential `ChunkedFitter` against
//! `ParallelChunkedFitter` at 1/2/4/8 worker threads on an `n = 2^20` seeded
//! step signal, and verifies the parallel fit is bit-identical to the
//! sequential one. Batch-query throughput is measured by the `query_kernel`
//! bin (`BENCH_query.json`).
//!
//! Two speedup figures are reported, and the JSON names the basis of each
//! explicitly:
//!
//! * `wall_clock_*` — measured end-to-end wall time on *this* host. Only
//!   meaningful when the host actually exposes ≥ t CPUs to the process.
//! * `makespan_*` — the critical-path schedule length computed from the
//!   *measured* per-chunk times under the fitter's actual contiguous-block
//!   assignment: `max` over workers of their summed work, plus the
//!   sequential merge tail. This is what the wall clock converges to on a
//!   host with enough CPUs, and is the honest scalability number when the
//!   benchmark machine is smaller than the deployment target.

use std::io::Write as _;

use approx_hist::stream::merge_budget;
use approx_hist::{
    ChunkedFitter, Estimator, EstimatorBuilder, GreedyMerging, ParallelChunkedFitter, Signal,
};
use hist_bench::timing::time_algorithm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 1 << 20;
const K: usize = 64;
const CHUNKS: usize = 64;
const SEED: u64 = 2015;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn seeded_signal() -> Signal {
    let mut rng = StdRng::seed_from_u64(SEED);
    let values: Vec<f64> = (0..N)
        .map(|i| ((i / (N / 32)) % 4) as f64 * 3.0 + 1.0 + rng.gen_range(0.0..0.25))
        .collect();
    Signal::from_dense(values).expect("finite signal")
}

fn inner() -> Box<dyn Estimator> {
    Box::new(GreedyMerging::new(EstimatorBuilder::new(K)))
}

/// Seconds per run of `f`, averaged adaptively over repetitions.
fn seconds_of<T>(mut f: impl FnMut() -> T) -> f64 {
    time_algorithm(&mut f).1
}

/// Critical-path schedule length for `work` items distributed to `threads`
/// workers in contiguous blocks of `ceil(len / threads)` — the assignment
/// `ParallelChunkedFitter` actually uses — plus a sequential `tail` (the
/// tree merge).
fn makespan(work: &[f64], threads: usize, tail: f64) -> f64 {
    let block = work.len().div_ceil(threads.max(1));
    work.chunks(block).map(|b| b.iter().sum::<f64>()).fold(0.0f64, f64::max) + tail
}

fn json_map(pairs: &[(usize, f64)]) -> String {
    let entries: Vec<String> = pairs.iter().map(|(t, v)| format!("\"{t}\": {v:.6}")).collect();
    format!("{{{}}}", entries.join(", "))
}

fn main() {
    let signal = seeded_signal();
    let chunk_len = N / CHUNKS;
    println!("serve_throughput: n = {N}, k = {K}, {CHUNKS} chunks of {chunk_len}");

    // --- Construction: sequential chunked baseline.
    let sequential_fitter = ChunkedFitter::new(inner(), K).with_chunk_len(chunk_len);
    let (sequential_fit, sequential_s) = time_algorithm(|| sequential_fitter.fit(&signal).unwrap());
    println!("construction: sequential chunked fit {sequential_s:.3}s");

    // Per-chunk fit times + merge tail, for the critical-path model.
    let chunk_times: Vec<f64> = signal
        .dense_values()
        .chunks(chunk_len)
        .map(|chunk| {
            let chunk = Signal::from_slice(chunk).unwrap();
            let estimator = inner();
            seconds_of(|| estimator.fit(&chunk).unwrap())
        })
        .collect();
    let per_chunk_total: f64 = chunk_times.iter().sum();
    let chunk_synopses = sequential_fitter.fit_chunks(&signal).unwrap();
    let merge_s = seconds_of(|| {
        approx_hist::stream::tree_merge(chunk_synopses.clone(), merge_budget(K)).unwrap()
    });

    // Parallel construction at each thread count: wall clock + model, and the
    // bit-identity check that makes the speedup meaningful.
    let mut wall = Vec::new();
    let mut model = Vec::new();
    let mut identical = true;
    for threads in THREAD_COUNTS {
        let fitter =
            ParallelChunkedFitter::new(inner(), K).with_chunk_len(chunk_len).with_threads(threads);
        let (fit, wall_s) = time_algorithm(|| fitter.fit(&signal).unwrap());
        identical &= fit.model() == sequential_fit.model();
        let model_s = makespan(&chunk_times, threads, merge_s);
        println!(
            "construction: {threads} thread(s) wall {wall_s:.3}s | makespan model {model_s:.3}s"
        );
        wall.push((threads, wall_s));
        model.push((threads, model_s));
    }
    let sequential_model_s = per_chunk_total + merge_s;
    let wall_4 = wall.iter().find(|(t, _)| *t == 4).unwrap().1;
    let model_4 = model.iter().find(|(t, _)| *t == 4).unwrap().1;

    let host = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let (speedup_4, basis) = if host >= 4 {
        (sequential_s / wall_4, "wall-clock (host exposes >= 4 CPUs)")
    } else {
        (
            sequential_model_s / model_4,
            "critical-path makespan from measured per-chunk fit times \
             (host exposes fewer than 4 CPUs; wall-clock cannot parallelize here \
             and is reported separately)",
        )
    };
    println!("speedup at 4 threads: {speedup_4:.2}x [{basis}]");
    println!("determinism: parallel fit bit-identical to sequential: {identical}");

    let json = format!(
        r#"{{
  "bench": "serve_throughput",
  "n": {N},
  "k": {K},
  "chunks": {CHUNKS},
  "seed": {SEED},
  "host_parallelism": {host},
  "construction": {{
    "sequential_chunked_wall_s": {sequential_s:.6},
    "sequential_model_s": {sequential_model_s:.6},
    "per_chunk_fit_total_s": {per_chunk_total:.6},
    "tree_merge_s": {merge_s:.6},
    "parallel_wall_s": {wall_map},
    "parallel_makespan_s": {model_map},
    "wall_clock_speedup_4_threads": {wall_speedup:.4},
    "makespan_speedup_4_threads": {model_speedup:.4},
    "speedup_4_threads": {speedup_4:.4},
    "speedup_basis": "{basis}"
  }},
  "determinism": {{
    "parallel_fit_bit_identical_to_sequential": {identical}
  }}
}}
"#,
        wall_map = json_map(&wall),
        model_map = json_map(&model),
        wall_speedup = sequential_s / wall_4,
        model_speedup = sequential_model_s / model_4,
    );

    let path = std::env::var("HIST_BENCH_SERVE_OUT").unwrap_or_else(|_| "BENCH_serve.json".into());
    let mut file = std::fs::File::create(&path).expect("writable output path");
    file.write_all(json.as_bytes()).expect("write BENCH_serve.json");
    println!("json written to {path}");
    // Fail the run (after writing the JSON, so the artifact survives for
    // debugging) if the parallel fit ever diverged: this bin doubles as the
    // large-n determinism smoke check in CI.
    assert!(identical, "parallel fit diverged from the sequential fit at n = {N}");
}
