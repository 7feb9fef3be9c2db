//! `ingest`: writes beside reads. Four cumulative telemetry lanes are driven
//! by the benchmark thread through `TelemetryPipeline::run_until` in fixed
//! steps, each step followed by an in-memory checkpoint of every lane, while
//! one reader thread on one connection pulls 1024-point quantile curves from
//! the lanes. Every publish runs `update_merge` and rebuilds the query
//! kernel; every response is an 8 KB frame.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use approx_hist::core::construct_histogram_with_report;
use approx_hist::stream::merge_budget;
use approx_hist::{
    Estimator, EstimatorBuilder, EventSource, GreedyMerging, HistClient, HistServer, MergingParams,
    MetricPipeline, ServerConfig, Signal, SparseFunction, StoreMap, StreamingBuilder, Synopsis,
    TelemetryPipeline,
};

use crate::gen::{plateau_signal, Rng};
use crate::serve::{issue, replay, Answer, Query};
use crate::stats::{geomean, mean, median, quiet, Windowed};
use crate::trace::{aggregate, Kind, Tracer};
use crate::{err, timed_setups, Args, EndToEnd, Report, Tally};

/// Telemetry lanes (metrics), one store key each.
pub const LANES: usize = 4;
/// Piece budget of every chunk fit (lanes serve `2k + 1`-piece merges).
pub const K: usize = 12;
/// Events per chunk, i.e. per publish.
pub const CHUNK: usize = 1_024;
/// Events per lane in one episode: a fixed count, so the served synopsis —
/// and `served_l2_ratio` — repeat exactly.
const EVENTS_PER_LANE: usize = 1 << 18;
/// Events per lane between checkpoints.
const STEP: usize = 8 * CHUNK;
/// Points per quantile curve the reader pulls.
const CURVE_POINTS: usize = 1_024;
/// Plateaus of each lane's generated block.
const PLATEAUS: usize = 256;
/// The `C = 3` bound `tests/merge_streaming.rs` pins for merged fits.
const SERVED_L2_BOUND: f64 = 3.0;
/// Curves the reader requests per second. The reader runs open loop at a
/// fixed rate, so the load it puts beside the writer does not depend on how
/// fast either side happens to run (a closed-loop reader made the writer's
/// rate swing by ±10% between runs).
const READ_RATE: f64 = 1_000.0;
/// Width of the windows the reader's latencies are summarized over: two
/// seconds hold about 2000 requests, enough for a p99 with ten samples
/// beyond it in every window.
const READ_WINDOW_S: f64 = 2.0;
/// A request sent this much after its due time counts as late.
const LATE: Duration = Duration::from_millis(1);
/// Bound on any single response read.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

fn estimator() -> Box<dyn Estimator> {
    Box::new(GreedyMerging::new(EstimatorBuilder::new(K)))
}

/// Everything the timed phase needs.
pub struct Setup {
    /// Lent to the reader thread for the length of a phase.
    reader: Option<HistClient>,
    /// Serves `map` until the set-up is dropped.
    _server: HistServer,
    map: Arc<StoreMap>,
    /// Each lane's generated events, in stream order.
    blocks: Vec<Vec<f64>>,
    /// L2 error of a direct `GreedyMerging` fit of each lane's whole stream.
    direct_l2: Vec<f64>,
    curve: Vec<f64>,
}

/// Each lane's event block, seeded per lane.
pub fn lane_blocks(seed: u64) -> Vec<Vec<f64>> {
    (0..LANES)
        .map(|lane| {
            plateau_signal(&mut Rng::derive(seed, 10 + lane as u64), EVENTS_PER_LANE, PLATEAUS, 5.0)
        })
        .collect()
}

/// Generates the blocks, fits the direct references, starts the server and
/// connects the reader.
pub fn setup(seed: u64) -> Result<Setup, String> {
    let blocks = lane_blocks(seed);
    let direct_l2 = blocks
        .iter()
        .map(|block| {
            let signal = Signal::from_slice(block).map_err(err)?;
            estimator().fit(&signal).and_then(|s| s.l2_error(&signal)).map_err(err)
        })
        .collect::<Result<Vec<f64>, String>>()?;
    let map = Arc::new(StoreMap::new());
    let server =
        HistServer::bind("127.0.0.1:0", Arc::clone(&map), ServerConfig::default()).map_err(err)?;
    let reader = HistClient::connect(server.local_addr())
        .and_then(|c| c.with_read_timeout(Some(READ_TIMEOUT)))
        .map_err(err)?;
    let curve = (0..CURVE_POINTS).map(|i| (i as f64 + 0.5) / CURVE_POINTS as f64).collect();
    Ok(Setup { reader: Some(reader), _server: server, map, blocks, direct_l2, curve })
}

fn lane_key(prefix: &str, episode: usize, lane: usize) -> String {
    format!("{prefix}{episode}/m{lane}")
}

/// What one writer episode did.
struct Episode {
    busy: Duration,
    events: u64,
    checkpoint_bytes: Vec<f64>,
    chunks: u64,
}

/// Checks an episode's end state: every lane minted one epoch per chunk and
/// serves exactly what the first episode served.
fn check_lanes(
    setup: &Setup,
    keys: &[String],
    publishes: &[u64],
    reference: Option<&[Synopsis]>,
    tally: &mut Tally,
) {
    let expected = (EVENTS_PER_LANE / CHUNK) as u64;
    for (lane, key) in keys.iter().enumerate() {
        let outcome = match setup.map.snapshot(key) {
            None => Err(format!("{key}: nothing served")),
            Some(s) if s.epoch() != expected || publishes[lane] != expected => Err(format!(
                "{key}: epoch {} after {} publishes, expected {expected}",
                s.epoch(),
                publishes[lane]
            )),
            Some(s) if reference.is_some_and(|r| r[lane].model() != s.synopsis().model()) => {
                Err(format!("{key}: served synopsis differs from the first episode's"))
            }
            Some(_) => Ok(()),
        };
        tally.record(outcome);
    }
}

/// One untraced episode through the public pipeline API.
fn episode(
    setup: &Setup,
    index: usize,
    live: &AtomicUsize,
    reference: Option<&[Synopsis]>,
    tally: &mut Tally,
) -> Result<Episode, String> {
    let keys: Vec<String> = (0..LANES).map(|lane| lane_key("e", index, lane)).collect();
    let mut pipeline = TelemetryPipeline::new(Arc::clone(&setup.map)).with_batch(CHUNK);
    for (key, block) in keys.iter().zip(&setup.blocks) {
        let source = EventSource::from_block(key.as_str(), block.clone()).map_err(err)?;
        pipeline.add_lane(
            source,
            MetricPipeline::cumulative(key.as_str(), estimator(), K, CHUNK).map_err(err)?,
        );
    }
    let mut checkpoint_bytes = Vec::new();
    let started = Instant::now();
    let mut position = 0;
    while position < EVENTS_PER_LANE {
        position += STEP;
        pipeline.run_until(position).map_err(err)?;
        for (_, lane) in pipeline.lanes() {
            let bytes = lane.checkpoint().map_err(err)?;
            checkpoint_bytes.push(std::hint::black_box(bytes).len() as f64);
        }
        if position == STEP {
            live.store(index + 1, Ordering::Release);
        }
    }
    let busy = started.elapsed();
    let publishes: Vec<u64> = pipeline.lanes().iter().map(|(_, lane)| lane.publishes()).collect();
    check_lanes(setup, &keys, &publishes, reference, tally);
    let chunks = publishes.iter().sum();
    Ok(Episode { busy, events: (LANES * EVENTS_PER_LANE) as u64, checkpoint_bytes, chunks })
}

/// One traced episode: the same events through the layer entry points
/// `TelemetryPipeline::run_until` and `MetricPipeline` call, in the same
/// round-robin order, plus side measurements of the chunk fit, the merge
/// and the kernel rebuild that `extend` and `update_merge` run inside.
fn replay_episode(
    setup: &Setup,
    index: usize,
    live: &AtomicUsize,
    tr: &mut Tracer,
    reference: Option<&[Synopsis]>,
    tally: &mut Tally,
) -> Result<Episode, String> {
    let budget = merge_budget(K);
    let params = MergingParams::paper_defaults(K).map_err(err)?;
    let keys: Vec<String> = (0..LANES).map(|lane| lane_key("t", index, lane)).collect();
    let mut sources = Vec::with_capacity(LANES);
    let mut builders = Vec::with_capacity(LANES);
    for (key, block) in keys.iter().zip(&setup.blocks) {
        sources.push(EventSource::from_block(key.as_str(), block.clone()).map_err(err)?);
        builders.push(StreamingBuilder::new(estimator(), K, CHUNK).map_err(err)?);
    }
    let (mut buf, mut chunks) = (Vec::with_capacity(CHUNK), Vec::new());
    let (mut checkpoint_bytes, mut chunk_count) = (Vec::new(), 0u64);
    let mut publishes = vec![0u64; LANES];
    let steps = EVENTS_PER_LANE / STEP;
    let started = Instant::now();
    for step in 0..steps {
        let id = (index * steps + step) as u64;
        let target = (step + 1) * STEP;
        let root = tr.begin("ingest.step", Kind::Work, id);
        while sources[0].position() < target {
            for lane in 0..LANES {
                let source = &mut sources[lane];
                tr.time_ok("pipeline.next_batch", Kind::Layer, id, || {
                    source.next_batch(CHUNK, &mut buf)
                });
                chunks.clear();
                let builder = &mut builders[lane];
                tr.time("stream.extend", Kind::Layer, id, || {
                    builder.extend_collecting_chunks(&buf, &mut Some(&mut chunks))
                })
                .map_err(err)?;
                chunk_count += chunks.len() as u64;
                if !chunks.is_empty() {
                    let q = SparseFunction::from_dense_keep_zeros(&buf).map_err(err)?;
                    tr.time("core.merging", Kind::Side, id, || {
                        construct_histogram_with_report(&q, &params)
                    })
                    .map_err(err)?;
                }
                for chunk in chunks.drain(..) {
                    if let Some(served) = setup.map.snapshot(&keys[lane]) {
                        let merged = tr
                            .time("core.merge", Kind::Side, id, || {
                                served.synopsis().merge(&chunk, budget)
                            })
                            .map_err(err)?;
                        tr.time_ok("core.kernel_build", Kind::Side, id, || {
                            Synopsis::new("merged", budget, merged.model().clone())
                        });
                    }
                    tr.time("serve.update_merge", Kind::Layer, id, || {
                        setup.map.update_merge(&keys[lane], &chunk, budget)
                    })
                    .map_err(err)?;
                    publishes[lane] += 1;
                }
            }
        }
        for builder in &builders {
            let bytes = tr.time_ok("pipeline.checkpoint", Kind::Layer, id, || builder.checkpoint());
            checkpoint_bytes.push(bytes.len() as f64);
        }
        tr.end(root, true);
        if step == 0 {
            live.store(index + 1, Ordering::Release);
        }
    }
    let busy = started.elapsed();
    check_lanes(setup, &keys, &publishes, reference, tally);
    Ok(Episode {
        busy,
        events: (LANES * EVENTS_PER_LANE) as u64,
        checkpoint_bytes,
        chunks: chunk_count,
    })
}

/// What the reader saw.
struct ReaderRun {
    /// Per measured request: when it was sent, in seconds after the first
    /// measured one, and its round trip in microseconds.
    requests: Vec<(f64, f64)>,
    /// Measured requests sent more than [`LATE`] after their due time.
    late: usize,
    transport_us: Vec<f64>,
    tally: Tally,
    tracer: Option<Tracer>,
}

fn check_curve(
    key: &str,
    got: Result<(u64, Answer), String>,
    last: &mut HashMap<String, u64>,
) -> Result<(), String> {
    let (epoch, answer) = got.map_err(|e| format!("{key}: {e}"))?;
    let previous = last.insert(key.to_owned(), epoch).unwrap_or(0);
    if epoch < previous {
        return Err(format!("{key}: epoch went back from {previous} to {epoch}"));
    }
    let Answer::Indices(indices) = answer else {
        return Err(format!("{key}: not a quantile answer"));
    };
    // Every publish merges one chunk, so epoch e serves e·CHUNK events.
    let domain = epoch as usize * CHUNK;
    if indices.len() != CURVE_POINTS
        || indices.windows(2).any(|w| w[0] > w[1])
        || indices.last().is_some_and(|&i| i >= domain)
    {
        return Err(format!("{key}: malformed curve at epoch {epoch}"));
    }
    Ok(())
}

/// What the writer tells the reader.
#[derive(Default)]
struct Flags {
    /// One more than the episode whose keys exist (0: none yet).
    live: AtomicUsize,
    /// Whether the timed window is open.
    measuring: AtomicBool,
    stop: AtomicBool,
}

/// Pulls curves round-robin over the live episode's lanes at [`READ_RATE`]
/// until `stop`; samples are kept only while `measuring` is set. Latency is
/// the round trip from the actual send; how late the reader ran is counted
/// apart. A traced reader replays each request in process first.
fn read(
    map: &StoreMap,
    client: &mut HistClient,
    curve: &[f64],
    prefix: &str,
    flags: &Flags,
    origin: Option<Instant>,
) -> ReaderRun {
    let Flags { live, measuring, stop } = flags;
    // The fixed-rate schedule starts with the first request.
    let mut schedule: Option<Instant> = None;
    let mut measured_from = None;
    let mut run = ReaderRun {
        requests: Vec::new(),
        late: 0,
        transport_us: Vec::new(),
        tally: Tally::default(),
        tracer: origin.map(Tracer::new),
    };
    let mut last = HashMap::new();
    let mut replay_last = HashMap::new();
    let query = Query::Quantile(curve.to_vec());
    let mut i = 0usize;
    while !stop.load(Ordering::Acquire) {
        let episode = live.load(Ordering::Acquire);
        if episode == 0 {
            std::thread::yield_now();
            continue;
        }
        let key = lane_key(prefix, episode - 1, i % LANES);
        let id = i as u64;
        i += 1;
        let in_process_ns = run.tracer.as_mut().map(|tr| {
            let first = tr.len();
            let root = tr.begin("ingest.read", Kind::Work, id);
            let replayed = replay(tr, id, map, &key, &query);
            tr.end(root, replayed.is_ok());
            run.tally.record(check_curve(&key, replayed, &mut replay_last));
            tr.layer_ns_since(first)
        });
        let schedule = *schedule.get_or_insert_with(Instant::now);
        let due = schedule + Duration::from_secs_f64(id as f64 / READ_RATE);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let late = sent.saturating_duration_since(due) > LATE;
        let got = match run.tracer.as_mut() {
            Some(tr) => tr.time("net.round_trip", Kind::Work, id, || issue(client, &key, &query)),
            None => issue(client, &key, &query),
        };
        let rtt_us = sent.elapsed().as_secs_f64() * 1e6;
        run.tally.record(check_curve(&key, got, &mut last));
        if measuring.load(Ordering::Acquire) {
            let from = *measured_from.get_or_insert(sent);
            run.requests.push(((sent - from).as_secs_f64(), rtt_us));
            run.late += usize::from(late);
            if let Some(ns) = in_process_ns {
                run.transport_us.push(rtt_us - ns as f64 / 1e3);
            }
        }
    }
    run
}

/// One phase: a warm-up episode, then timed episodes for `seconds` while the
/// reader pulls curves. Returns the timed episodes, the reader's run and the
/// writer's tracer (when traced).
fn phase(
    setup: &mut Setup,
    seconds: f64,
    origin: Option<Instant>,
    reference: Option<&[Synopsis]>,
    tally: &mut Tally,
) -> Result<(Vec<Episode>, ReaderRun, Option<Tracer>), String> {
    let prefix = if origin.is_some() { "t" } else { "e" };
    let flags = Flags::default();
    let mut reader = setup.reader.take().ok_or("the reader connection is already lent out")?;
    let shared: &Setup = setup;
    let mut writer_tracer = origin.map(Tracer::new);
    let outcome = std::thread::scope(|scope| {
        let flags = &flags;
        let reader_thread =
            scope.spawn(|| read(&shared.map, &mut reader, &shared.curve, prefix, flags, origin));
        let mut run_episode = |index: usize, tally: &mut Tally| match writer_tracer.as_mut() {
            Some(tr) => replay_episode(shared, index, &flags.live, tr, reference, tally),
            None => episode(shared, index, &flags.live, reference, tally),
        };
        let written = (|| {
            run_episode(0, tally)?;
            flags.measuring.store(true, Ordering::Release);
            let deadline = Instant::now() + Duration::from_secs_f64(seconds);
            let mut episodes = Vec::new();
            while episodes.is_empty() || Instant::now() < deadline {
                episodes.push(run_episode(episodes.len() + 1, tally)?);
            }
            Ok::<_, String>(episodes)
        })();
        flags.measuring.store(false, Ordering::Release);
        flags.stop.store(true, Ordering::Release);
        let read = reader_thread.join().expect("reader thread panicked");
        written.map(|episodes| (episodes, read))
    });
    setup.reader = Some(reader);
    let (episodes, read) = outcome?;
    Ok((episodes, read, writer_tracer))
}

/// Served L2 over the direct fit, per lane, for the first episode's keys.
fn served_ratios(setup: &Setup, prefix: &str, tally: &mut Tally) -> (Vec<f64>, Vec<Synopsis>) {
    let (mut ratios, mut served) = (Vec::new(), Vec::new());
    for lane in 0..LANES {
        let key = lane_key(prefix, 0, lane);
        let outcome =
            setup.map.snapshot(&key).ok_or_else(|| format!("{key}: nothing served")).and_then(
                |snapshot| {
                    let signal = Signal::from_slice(&setup.blocks[lane]).map_err(err)?;
                    let ratio =
                        snapshot.synopsis().l2_error(&signal).map_err(err)? / setup.direct_l2[lane];
                    ratios.push(ratio);
                    served.push(Synopsis::clone(snapshot.synopsis()));
                    if ratio <= SERVED_L2_BOUND {
                        Ok(())
                    } else {
                        Err(format!("{key}: served/direct L2 {ratio} > {SERVED_L2_BOUND}"))
                    }
                },
            );
        tally.record(outcome);
    }
    (ratios, served)
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut tally = Tally::default();
    if args.trace {
        let mut setup = setup(args.seed)?;
        let (untraced, untraced_reader, _) =
            phase(&mut setup, args.seconds / 2.0, None, None, &mut tally)?;
        tally.absorb(untraced_reader.tally);
        let (_, reference) = served_ratios(&setup, "e", &mut tally);
        let (traced, reader, writer) = phase(
            &mut setup,
            args.seconds / 2.0,
            Some(Instant::now()),
            Some(&reference),
            &mut tally,
        )?;
        let writer = writer.expect("a traced phase records the writer");
        let reader_tracer = reader.tracer.as_ref().expect("a traced phase records the reader");
        let untraced_ns_per_event = untraced.iter().map(|e| e.busy.as_nanos() as f64).sum::<f64>()
            / untraced.iter().map(|e| e.events as f64).sum::<f64>();
        let traced_events: f64 = traced.iter().map(|e| e.events as f64).sum();
        let writer_stats = aggregate([&writer]);
        let total = |kind: Kind| -> f64 {
            writer_stats.values().filter(|s| s.kind == Some(kind)).map(|s| s.total_ns()).sum()
        };
        let work_ns: f64 = writer
            .spans()
            .iter()
            .filter(|s| s.kind == Kind::Work)
            .map(|s| s.duration_ns() as f64)
            .sum();
        // The traced ingest rate leaves out the side measurements, which the
        // untraced path never runs.
        let traced_ns_per_event = (work_ns - total(Kind::Side)) / traced_events;

        let mut extras = BTreeMap::new();
        extras.insert(
            "net.transport_us",
            if reader.transport_us.is_empty() { 0.0 } else { median(&reader.transport_us) },
        );
        extras.insert("stream.chunks", traced.iter().map(|e| e.chunks as f64).sum());
        extras.insert(
            "persist.checkpoint_bytes",
            mean(
                &traced.iter().flat_map(|e| e.checkpoint_bytes.iter().copied()).collect::<Vec<_>>(),
            ),
        );
        extras.insert("trace.coverage", total(Kind::Layer) / traced_events / untraced_ns_per_event);
        extras.insert("trace.overhead", traced_ns_per_event / untraced_ns_per_event);
        crate::write_trace(args, &[&writer, reader_tracer]);
        let mut stats = aggregate([&writer, reader_tracer]);
        stats.remove("ingest.step");
        stats.remove("ingest.read");
        let notes = vec![format!(
            "traced episodes: {}, traced reads: {}",
            traced.len(),
            reader.requests.len()
        )];
        let mut report = Report::per_layer(stats, extras, &crate::probe::run(args.seed)?, notes);
        tally.absorb(reader.tally);
        report.tally = tally;
        return Ok(report);
    }

    let (mut setup, setup_s) = timed_setups(|| setup(args.seed))?;
    let (episodes, reader, _) = phase(&mut setup, args.seconds, None, None, &mut tally)?;
    let (ratios, served) = served_ratios(&setup, "e", &mut tally);
    for index in 1..=episodes.len() {
        for (lane, reference) in served.iter().enumerate() {
            let key = lane_key("e", index, lane);
            let same =
                setup.map.snapshot(&key).is_some_and(|s| s.synopsis().model() == reference.model());
            tally.record(if same {
                Ok(())
            } else {
                Err(format!("{key}: served synopsis differs from the first episode's"))
            });
        }
    }
    tally.absorb(reader.tally);
    let rates: Vec<f64> = episodes.iter().map(|e| e.events as f64 / e.busy.as_secs_f64()).collect();
    let rate = quiet(&rates, false);
    if reader.requests.is_empty() {
        tally.record(Err("the reader completed no request while the writer ran".into()));
    }
    let latency = Windowed::of(&reader.requests, READ_WINDOW_S);
    let per_window =
        format!("{} samples in {} windows of {READ_WINDOW_S} s", latency.samples, latency.windows);
    let served_l2_ratio = if ratios.len() == LANES { geomean(&ratios) } else { f64::NAN };
    let pieces_per_k =
        mean(&served.iter().map(|s| s.num_pieces() as f64 / K as f64).collect::<Vec<_>>());
    let notes = vec![
        format!(
            "ingest_events_per_s {rate} events/s ({} episodes of {} events)",
            episodes.len(),
            LANES * EVENTS_PER_LANE
        ),
        format!(
            "reader at {READ_RATE} req/s: {} of {} requests sent over {LATE:?} late",
            reader.late,
            reader.requests.len()
        ),
        format!("query_p50_us {} us ({per_window})", latency.p50),
        format!("query_p{}_us {} us ({per_window})", latency.tail_pct, latency.tail),
        format!("served_l2_ratio {served_l2_ratio} ratio (per lane {ratios:?})"),
    ];
    Ok(Report::end_to_end(
        tally,
        EndToEnd {
            setup_s,
            throughput: rate,
            latency_p50_us: latency.p50,
            latency_tail_us: latency.tail,
            quality_ratio: served_l2_ratio,
            pieces_per_k,
        },
        notes,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_blocks_are_identical_per_seed_and_differ_across_lanes() {
        let a = lane_blocks(4);
        assert_eq!(a, lane_blocks(4));
        assert_ne!(a, lane_blocks(5));
        assert_ne!(a[0], a[1]);
        assert!(a.iter().all(|b| b.len() == EVENTS_PER_LANE && b.iter().all(|v| v.is_finite())));
    }

    #[test]
    fn curves_are_checked_for_order_domain_and_epochs() {
        let mut last = HashMap::new();
        let ok: Vec<usize> = (0..CURVE_POINTS).collect();
        assert!(check_curve("k", Ok((2, Answer::Indices(ok.clone()))), &mut last).is_ok());
        assert!(
            check_curve("k", Ok((1, Answer::Indices(ok.clone()))), &mut last).is_err(),
            "epoch went back"
        );
        let mut unsorted = ok.clone();
        unsorted.swap(0, 1);
        assert!(check_curve("k", Ok((3, Answer::Indices(unsorted))), &mut last).is_err());
        let mut outside = ok;
        outside[CURVE_POINTS - 1] = 3 * CHUNK;
        assert!(check_curve("k", Ok((3, Answer::Indices(outside))), &mut last).is_err());
    }
}
