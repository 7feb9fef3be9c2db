//! `construct`: batch fitting with no wire involved — where the paper's
//! claims live. A seeded corpus is fitted back to back at `k = 64` by the
//! merging estimators, and the paper's Table 1 data is scored against the
//! exact V-optimal optimum, which set-up computes once.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use approx_hist::core::{
    construct_hierarchical_histogram, construct_histogram_fast_with_report,
    construct_histogram_with_report,
};
use approx_hist::datasets::{dow_dataset_with_length, hist_dataset, poly_dataset};
use approx_hist::stream::{merge_budget, tree_merge};
use approx_hist::{
    ChunkedFitter, Estimator, EstimatorBuilder, ExactDp, FastMerging, FittedModel, GreedyMerging,
    Hierarchical, MergingParams, ParallelChunkedFitter, Signal, SparseFunction, Synopsis,
};

use crate::gen::{plateau_signal, sparse_entries, Rng};
use crate::stats::{geomean, mean, median, quiet, Latency};
use crate::trace::{aggregate, Kind, Tracer};
use crate::{err, timed_setups, Args, EndToEnd, Report, Tally};

/// Piece budget of every corpus fit.
pub const K: usize = 64;
/// Worker threads of the parallel chunked fitter (the host has two CPUs).
const THREADS: usize = 2;
/// Plateaus per generated signal, whatever its length: the structure stays
/// fixed while the size crosses the cache boundary.
const PLATEAUS: usize = 1_000;

/// Corpus sizes: [`FULL`] is the benchmark, tests shrink it.
pub struct Sizes {
    /// Lengths of the dense signals.
    pub dense: &'static [usize],
    /// Domain of the sparse signal.
    pub sparse_domain: usize,
    /// Nonzeros of the sparse signal.
    pub sparse_nonzeros: usize,
}

/// `n = 2^16` fits in cache, `n = 2^20` does not; the sparse signal tests
/// input-sparsity time.
pub const FULL: Sizes =
    Sizes { dense: &[1 << 16, 1 << 20], sparse_domain: 1 << 24, sparse_nonzeros: 1 << 16 };

/// The estimators the corpus is fitted with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Algo {
    Merging,
    FastMerging,
    Hierarchical,
    Chunked,
    ParallelChunked,
}

impl Algo {
    pub const ALL: [Algo; 5] = [
        Algo::Merging,
        Algo::FastMerging,
        Algo::Hierarchical,
        Algo::Chunked,
        Algo::ParallelChunked,
    ];

    /// The estimator's registry name.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Merging => "merging",
            Algo::FastMerging => "fastmerging",
            Algo::Hierarchical => "hierarchical",
            Algo::Chunked => "chunked",
            Algo::ParallelChunked => "parallel-chunked",
        }
    }

    fn chunked(self) -> bool {
        matches!(self, Algo::Chunked | Algo::ParallelChunked)
    }

    fn estimator(self, k: usize) -> Box<dyn Estimator> {
        let builder = EstimatorBuilder::new(k);
        match self {
            Algo::Merging => Box::new(GreedyMerging::new(builder)),
            Algo::FastMerging => Box::new(FastMerging::new(builder)),
            Algo::Hierarchical => Box::new(Hierarchical::new(builder)),
            Algo::Chunked => Box::new(chunked(k)),
            Algo::ParallelChunked => Box::new(parallel_chunked(k)),
        }
    }

    /// The piece count the estimator may emit at budget `k`: `(2 + 2/δ)k + γ`
    /// for the merging algorithms (with the odd-count slack the crate
    /// documents), `8k` for Algorithm 2, and the `2k + 1` merge budget for
    /// the chunked fitters.
    fn max_pieces(self, k: usize) -> usize {
        match self {
            Algo::Merging | Algo::FastMerging => paper_params(k).output_pieces_bound(),
            Algo::Hierarchical => 8 * k,
            Algo::Chunked | Algo::ParallelChunked => merge_budget(k),
        }
    }

    /// The documented bound on `L2 / opt_k`: `√(1 + δ)` for the merging
    /// algorithms (Theorem 3.3), 2 for Algorithm 2 (Theorem 3.5).
    fn error_factor(self, k: usize) -> f64 {
        match self {
            Algo::Merging | Algo::FastMerging => paper_params(k).error_ratio_bound(),
            Algo::Hierarchical => 2.0,
            Algo::Chunked | Algo::ParallelChunked => f64::INFINITY,
        }
    }
}

fn paper_params(k: usize) -> MergingParams {
    MergingParams::paper_defaults(k).expect("k is positive")
}

fn chunked(k: usize) -> ChunkedFitter {
    ChunkedFitter::new(Box::new(GreedyMerging::new(EstimatorBuilder::new(k))), k)
}

fn parallel_chunked(k: usize) -> ParallelChunkedFitter {
    ParallelChunkedFitter::new(Box::new(GreedyMerging::new(EstimatorBuilder::new(k))), k)
        .with_threads(THREADS)
}

struct Input {
    name: String,
    signal: Signal,
    /// Input points: `n` for dense signals, the nonzeros for sparse ones.
    points: usize,
    dense: bool,
}

struct QualityCase {
    name: &'static str,
    k: usize,
    signal: Signal,
    /// Exact k-piece optimum (`ExactDp`), computed once in set-up.
    opt: f64,
}

struct Cell {
    algo: Algo,
    input: usize,
    estimator: Box<dyn Estimator>,
}

/// Everything the timed phase needs, built before the clock starts.
pub struct Setup {
    inputs: Vec<Input>,
    quality: Vec<QualityCase>,
    cells: Vec<Cell>,
}

/// Builds the corpus, the quality set with its exact optima, and the
/// estimator cells. Every exact-DP call of the workload happens here.
pub fn setup(seed: u64, sizes: &Sizes, tr: &mut Tracer) -> Result<Setup, String> {
    let mut rng = Rng::derive(seed, 1);
    let mut inputs = Vec::new();
    for &n in sizes.dense {
        let values = plateau_signal(&mut rng, n, PLATEAUS, 2.0);
        let id = inputs.len() as u64;
        let signal =
            tr.time("core.signal", Kind::Layer, id, || Signal::from_dense(values)).map_err(err)?;
        inputs.push(Input { name: format!("dense-{n}"), signal, points: n, dense: true });
    }
    let (domain, nonzeros) = (sizes.sparse_domain, sizes.sparse_nonzeros);
    let entries = sparse_entries(&mut rng, domain, nonzeros, PLATEAUS);
    let sparse = SparseFunction::new(domain, entries).map_err(err)?;
    inputs.push(Input {
        name: format!("sparse-{nonzeros}-of-{domain}"),
        signal: Signal::from_sparse(sparse),
        points: nonzeros,
        dense: false,
    });

    // The paper's Table 1 data at the repository's Table 1 scale (`dow`
    // truncated to 4096 points). Fixed data, so the ratios repeat exactly.
    let table1 = [
        ("hist", hist_dataset(), 10),
        ("poly", poly_dataset(), 10),
        ("dow", dow_dataset_with_length(4_096), 50),
    ];
    let mut quality = Vec::new();
    for (i, (name, values, k)) in table1.into_iter().enumerate() {
        let signal = Signal::from_dense(values).map_err(err)?;
        let exact = tr
            .time("baselines.exact_dp", Kind::Layer, i as u64, || {
                ExactDp::new(EstimatorBuilder::new(k)).fit(&signal)
            })
            .map_err(err)?;
        let opt = exact.l2_error(&signal).map_err(err)?;
        if opt <= 0.0 {
            return Err(format!("{name}: the exact optimum is zero, ratios are undefined"));
        }
        quality.push(QualityCase { name, k, signal, opt });
    }

    let mut cells = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        for algo in Algo::ALL {
            // The chunked fitters split the dense view; densifying a sparse
            // 2^24 domain is not what they are for.
            if input.dense || !algo.chunked() {
                cells.push(Cell { algo, input: i, estimator: algo.estimator(K) });
            }
        }
    }
    Ok(Setup { inputs, quality, cells })
}

fn check_fit(
    setup: &Setup,
    cell: &Cell,
    fit: Result<&Synopsis, String>,
    reference: Option<&Synopsis>,
) -> Result<(), String> {
    let input = &setup.inputs[cell.input];
    let what = format!("{} on {}", cell.algo.name(), input.name);
    let synopsis = fit.map_err(|e| format!("{what}: {e}"))?;
    if synopsis.domain() != input.signal.domain() {
        return Err(format!("{what}: domain {} ≠ {}", synopsis.domain(), input.signal.domain()));
    }
    let bound = cell.algo.max_pieces(K);
    if synopsis.num_pieces() > bound {
        return Err(format!("{what}: {} pieces > bound {bound}", synopsis.num_pieces()));
    }
    if reference.is_some_and(|r| r.model() != synopsis.model()) {
        return Err(format!("{what}: a repeated fit differs from the first"));
    }
    Ok(())
}

/// The first fit of every cell: the reference later fits must reproduce,
/// and the synopses `pieces_per_k` is taken over.
fn reference_fits(setup: &Setup, tally: &mut Tally) -> Vec<Option<Synopsis>> {
    let fits: Vec<Option<Synopsis>> = setup
        .cells
        .iter()
        .map(|cell| {
            let fit = cell.estimator.fit(&setup.inputs[cell.input].signal).map_err(err);
            tally.record(check_fit(setup, cell, fit.as_ref().map_err(Clone::clone), None));
            fit.ok()
        })
        .collect();
    // Same chunking ⇒ the parallel fitter must match the sequential one bit
    // for bit.
    for (i, cell) in setup.cells.iter().enumerate() {
        if cell.algo != Algo::ParallelChunked {
            continue;
        }
        let sequential = setup
            .cells
            .iter()
            .position(|c| c.algo == Algo::Chunked && c.input == cell.input)
            .and_then(|j| fits[j].as_ref());
        let same = matches!((sequential, &fits[i]), (Some(a), Some(b)) if a.model() == b.model());
        tally.record(if same {
            Ok(())
        } else {
            Err(format!("parallel-chunked ≠ chunked on {}", setup.inputs[cell.input].name))
        });
    }
    fits
}

/// Untraced timing: whole passes over every cell until `seconds` elapse.
struct Timing {
    /// Seconds per `Estimator::fit` call, per cell.
    samples: Vec<Vec<f64>>,
    passes: usize,
    busy: Duration,
}

fn measure(
    setup: &Setup,
    reference: &[Option<Synopsis>],
    seconds: f64,
    tally: &mut Tally,
) -> Timing {
    let mut timing =
        Timing { samples: vec![Vec::new(); setup.cells.len()], passes: 0, busy: Duration::ZERO };
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while timing.passes == 0 || Instant::now() < deadline {
        for (c, cell) in setup.cells.iter().enumerate() {
            let signal = &setup.inputs[cell.input].signal;
            let started = Instant::now();
            let fit = cell.estimator.fit(std::hint::black_box(signal));
            let elapsed = started.elapsed();
            timing.busy += elapsed;
            timing.samples[c].push(elapsed.as_secs_f64());
            tally.record(check_fit(setup, cell, fit.as_ref().map_err(err), reference[c].as_ref()));
        }
        timing.passes += 1;
    }
    timing
}

/// Fits the quality set with the paper's three estimators and returns each
/// `L2 / opt_k`, checking it against the estimator's documented factor.
fn quality_ratios(setup: &Setup, tally: &mut Tally) -> Vec<f64> {
    let mut ratios = Vec::new();
    for case in &setup.quality {
        for algo in [Algo::Merging, Algo::FastMerging, Algo::Hierarchical] {
            let what = format!("{} on {} (k = {})", algo.name(), case.name, case.k);
            let outcome = algo
                .estimator(case.k)
                .fit(&case.signal)
                .and_then(|s| Ok((s.num_pieces(), s.l2_error(&case.signal)?)))
                .map_err(|e| format!("{what}: {e}"))
                .and_then(|(pieces, l2)| {
                    let ratio = l2 / case.opt;
                    ratios.push(ratio);
                    let (factor, bound) = (algo.error_factor(case.k), algo.max_pieces(case.k));
                    if ratio > factor * (1.0 + 1e-9) {
                        Err(format!("{what}: L2/opt {ratio} > documented factor {factor}"))
                    } else if pieces > bound {
                        Err(format!("{what}: {pieces} pieces > bound {bound}"))
                    } else {
                        Ok(())
                    }
                });
            tally.record(outcome);
        }
    }
    ratios
}

/// One traced pass: every cell's fit replayed through the public entry
/// points `Estimator::fit` calls, one span each.
fn replay_pass(
    setup: &Setup,
    pass: usize,
    tr: &mut Tracer,
    rounds: &mut Vec<f64>,
    fit_chunks_ns: &mut BTreeMap<(Algo, usize), Vec<f64>>,
) -> Vec<Result<Synopsis, String>> {
    let mut fits = Vec::with_capacity(setup.cells.len());
    for (c, cell) in setup.cells.iter().enumerate() {
        let id = (pass * setup.cells.len() + c) as u64;
        let signal = &setup.inputs[cell.input].signal;
        let root = tr.begin("construct.fit", Kind::Work, id);
        let fit = replay_fit(tr, id, cell.algo, signal, rounds);
        if cell.algo.chunked() {
            // The latest fit_chunks span is this fit's.
            let spans = tr.spans();
            if let Some(span) = spans.iter().rev().find(|s| s.name.starts_with("stream.fit_chunks"))
            {
                fit_chunks_ns
                    .entry((cell.algo, cell.input))
                    .or_default()
                    .push(span.duration_ns() as f64);
            }
        }
        tr.end(root, fit.is_ok());
        fits.push(fit);
    }
    fits
}

/// One fit through the entry points `Estimator::fit` runs for `algo`, one
/// span each; the merging rounds go to `rounds`.
pub fn replay_fit(
    tr: &mut Tracer,
    id: u64,
    algo: Algo,
    signal: &Signal,
    rounds: &mut Vec<f64>,
) -> Result<Synopsis, String> {
    let params = paper_params(K);
    let histogram = match algo {
        Algo::Merging => {
            let q = tr.time_ok("core.signal", Kind::Layer, id, || signal.as_sparse());
            let (h, report) = tr
                .time("core.merging", Kind::Layer, id, || {
                    construct_histogram_with_report(&q, &params)
                })
                .map_err(err)?;
            rounds.push(report.rounds as f64);
            h
        }
        Algo::FastMerging => {
            let q = tr.time_ok("core.signal", Kind::Layer, id, || signal.as_sparse());
            tr.time("core.fastmerging", Kind::Layer, id, || {
                construct_histogram_fast_with_report(&q, &params)
            })
            .map_err(err)?
            .0
        }
        Algo::Hierarchical => {
            let q = tr.time_ok("core.signal", Kind::Layer, id, || signal.as_sparse());
            tr.time("core.hierarchical", Kind::Layer, id, || {
                construct_hierarchical_histogram(&q).map(|h| h.histogram_for_k(K).0)
            })
            .map_err(err)?
        }
        Algo::Chunked | Algo::ParallelChunked => {
            let chunks = if algo == Algo::Chunked {
                tr.time("stream.fit_chunks", Kind::Layer, id, || chunked(K).fit_chunks(signal))
            } else {
                tr.time("stream.fit_chunks_parallel", Kind::Layer, id, || {
                    parallel_chunked(K).fit_chunks(signal)
                })
            }
            .map_err(err)?;
            let merged = tr
                .time("stream.tree_merge", Kind::Layer, id, || tree_merge(chunks, merge_budget(K)))
                .map_err(err)?;
            return Ok(tr.time_ok("core.kernel_build", Kind::Layer, id, || {
                Synopsis::new(algo.name(), K, merged.model().clone())
            }));
        }
    };
    Ok(tr.time_ok("core.kernel_build", Kind::Layer, id, || {
        Synopsis::new(algo.name(), K, FittedModel::Histogram(histogram))
    }))
}

/// The traced half of a `--trace 1` run.
fn traced(
    args: &Args,
    setup: &Setup,
    setup_tracer: &Tracer,
    reference: &[Option<Synopsis>],
    untraced: &Timing,
    seconds: f64,
    tally: &mut Tally,
) -> Result<Report, String> {
    let mut tr = Tracer::new(Instant::now());
    let (mut rounds, mut fit_chunks_ns) = (Vec::new(), BTreeMap::new());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut passes = 0;
    while passes == 0 || Instant::now() < deadline {
        let fits = replay_pass(setup, passes, &mut tr, &mut rounds, &mut fit_chunks_ns);
        for (c, fit) in fits.iter().enumerate() {
            let cell = &setup.cells[c];
            tally.record(check_fit(
                setup,
                cell,
                fit.as_ref().map_err(Clone::clone),
                reference[c].as_ref(),
            ));
        }
        passes += 1;
    }

    let stats = aggregate([&tr]);
    let per_pass = |ns: f64| ns / passes as f64;
    let layer_ns: f64 =
        stats.values().filter(|s| s.kind == Some(Kind::Layer)).map(|s| s.total_ns()).sum();
    let work_ns: f64 =
        tr.spans().iter().filter(|s| s.kind == Kind::Work).map(|s| s.duration_ns() as f64).sum();
    let untraced_ns = untraced.busy.as_nanos() as f64 / untraced.passes as f64;
    let speedups: Vec<f64> = setup
        .inputs
        .iter()
        .enumerate()
        .filter_map(|(i, _)| {
            let seq = fit_chunks_ns.get(&(Algo::Chunked, i))?;
            let par = fit_chunks_ns.get(&(Algo::ParallelChunked, i))?;
            Some(median(seq) / median(par))
        })
        .collect();

    let mut extras = BTreeMap::new();
    extras.insert("core.merging_rounds", mean(&rounds));
    extras.insert(
        "stream.parallel_speedup",
        if speedups.is_empty() { 0.0 } else { geomean(&speedups) },
    );
    extras.insert("trace.coverage", per_pass(layer_ns) / untraced_ns);
    extras.insert("trace.overhead", per_pass(work_ns) / untraced_ns);

    let mut all = aggregate([setup_tracer, &tr]);
    all.retain(|name, _| *name != "construct.fit");
    crate::write_trace(args, &[setup_tracer, &tr]);
    let probe = crate::probe::run(args.seed)?;
    Ok(Report::per_layer(all, extras, &probe, vec![format!("traced passes: {passes}")]))
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut tally = Tally::default();
    if args.trace {
        let mut setup_tracer = Tracer::new(Instant::now());
        let setup = setup(args.seed, &FULL, &mut setup_tracer)?;
        let reference = reference_fits(&setup, &mut tally);
        let untraced = measure(&setup, &reference, args.seconds / 2.0, &mut tally);
        let mut report = traced(
            args,
            &setup,
            &setup_tracer,
            &reference,
            &untraced,
            args.seconds / 2.0,
            &mut tally,
        )?;
        quality_ratios(&setup, &mut tally);
        report.tally = tally;
        return Ok(report);
    }

    let (setup, setup_s) = timed_setups(|| setup(args.seed, &FULL, &mut Tracer::disabled()))?;
    let reference = reference_fits(&setup, &mut tally);
    let timing = measure(&setup, &reference, args.seconds, &mut tally);
    let ratios = quality_ratios(&setup, &mut tally);

    let mut rates = Vec::new();
    let (mut p50s, mut tails) = (Vec::new(), Vec::new());
    let mut notes = Vec::new();
    for (c, cell) in setup.cells.iter().enumerate() {
        let input = &setup.inputs[cell.input];
        let latency = Latency::of(timing.samples[c].clone());
        let rate = input.points as f64 / quiet(&timing.samples[c], true);
        rates.push(rate);
        p50s.push(latency.p50 * 1e6);
        tails.push(latency.tail * 1e6);
        notes.push(format!(
            "cell {:<17} {:<24} p50 {:>10.1} us  p{} {:>10.1} us  {:>8.2} Mpoints/s  ({} samples)",
            cell.algo.name(),
            input.name,
            latency.p50 * 1e6,
            latency.tail_pct,
            latency.tail * 1e6,
            rate / 1e6,
            latency.samples,
        ));
    }
    let pieces: Vec<f64> =
        reference.iter().flatten().map(|s| s.num_pieces() as f64 / K as f64).collect();
    let l2_ratio = if ratios.is_empty() { f64::NAN } else { geomean(&ratios) };
    let fit_rate = geomean(&rates);
    notes.push(format!("fit_mpoints_per_s {:.6} Mpoints/s", fit_rate / 1e6));
    notes.push(format!("l2_ratio_vs_opt {l2_ratio} ratio"));
    notes.push(format!("pieces_per_k {} ratio", mean(&pieces)));
    notes.push(format!("passes {} over {} cells", timing.passes, setup.cells.len()));

    Ok(Report::end_to_end(
        tally,
        EndToEnd {
            setup_s,
            throughput: fit_rate,
            latency_p50_us: geomean(&p50s),
            latency_tail_us: geomean(&tails),
            quality_ratio: l2_ratio,
            pieces_per_k: mean(&pieces),
        },
        notes,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Sizes =
        Sizes { dense: &[1 << 10, 1 << 12], sparse_domain: 1 << 16, sparse_nonzeros: 1 << 9 };

    #[test]
    fn the_exact_dp_runs_in_set_up_and_never_in_a_timed_loop() {
        let mut setup_tracer = Tracer::new(Instant::now());
        let setup = setup(5, &TINY, &mut setup_tracer).unwrap();
        let dp_in_setup =
            setup_tracer.spans().iter().filter(|s| s.name == "baselines.exact_dp").count();
        assert_eq!(dp_in_setup, 3, "one exact optimum per quality case, all in set-up");

        let mut tally = Tally::default();
        let reference = reference_fits(&setup, &mut tally);
        let untraced = measure(&setup, &reference, 0.0, &mut tally);
        assert_eq!(untraced.passes, 1);
        let mut tr = Tracer::new(Instant::now());
        let (mut rounds, mut chunks) = (Vec::new(), BTreeMap::new());
        replay_pass(&setup, 0, &mut tr, &mut rounds, &mut chunks);
        assert!(tr.spans().iter().all(|s| s.name != "baselines.exact_dp"));
        assert!(tr.spans().iter().any(|s| s.name == "core.merging"));
        assert_eq!(tally.failed, 0, "{:?}", tally.problems);
    }

    #[test]
    fn the_corpus_is_identical_per_seed() {
        let a = setup(9, &TINY, &mut Tracer::disabled()).unwrap();
        let b = setup(9, &TINY, &mut Tracer::disabled()).unwrap();
        let c = setup(10, &TINY, &mut Tracer::disabled()).unwrap();
        let signals = |s: &Setup| s.inputs.iter().map(|i| i.signal.clone()).collect::<Vec<_>>();
        assert_eq!(signals(&a), signals(&b));
        assert_ne!(signals(&a), signals(&c));
        assert_eq!(
            a.quality.iter().map(|q| q.opt).collect::<Vec<_>>(),
            b.quality.iter().map(|q| q.opt).collect::<Vec<_>>()
        );
    }

    #[test]
    fn replayed_fits_equal_estimator_fits() {
        let setup = setup(3, &TINY, &mut Tracer::disabled()).unwrap();
        let mut tally = Tally::default();
        let reference = reference_fits(&setup, &mut tally);
        let mut tr = Tracer::new(Instant::now());
        let fits = replay_pass(&setup, 0, &mut tr, &mut Vec::new(), &mut BTreeMap::new());
        for (fit, expected) in fits.iter().zip(&reference) {
            assert_eq!(fit.as_ref().unwrap(), expected.as_ref().unwrap());
        }
        assert!(quality_ratios(&setup, &mut tally).iter().all(|r| r.is_finite() && *r > 0.0));
        assert_eq!(tally.failed, 0, "{:?}", tally.problems);
    }
}
