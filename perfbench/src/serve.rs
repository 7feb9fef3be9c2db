//! `serve`: closed-loop, read-only traffic over the wire. A keyed store of
//! 4096 synopses sits behind one `HistServer` (default configuration); one
//! client on one connection sends a Zipf-keyed mix of batch queries and
//! checks every answer bit for bit. One client, not two: on a two-CPU host
//! two closed-loop clients beside the server's pool threads oversubscribe
//! the CPUs, and run medians then swing by ±7% with scheduling luck (±1% with
//! one). No fit or merge runs while
//! the clock does, so the workload isolates transport, dispatch, the codec
//! and the store lookup.

use std::sync::Arc;
use std::time::{Duration, Instant};

use approx_hist::net::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use approx_hist::persist::crc32;
use approx_hist::{
    Estimator, EstimatorBuilder, ExactDp, GreedyMerging, HistClient, HistServer, Interval,
    ServerConfig, Signal, StoreMap, Synopsis,
};

use crate::gen::{plateau_signal, Rng, Zipf};
use crate::stats::{geomean, mean, Latency, Windowed};
use crate::trace::{aggregate, Kind, Tracer};
use crate::{err, timed_setups, Args, EndToEnd, Report, Tally};

/// Keys in the store: enough synopses that the working set outgrows the CPU
/// caches.
pub const KEYS: usize = 4_096;
/// Length of each key's signal.
const KEY_N: usize = 2_048;
/// Piece budget of each key's synopsis.
pub const K: usize = 16;
/// Generated requests, cycled by the client.
const POOL: usize = 32_768;
/// Zipf exponent of the key popularity.
const ZIPF_S: f64 = 1.1;
/// Keys whose served synopsis is scored against the exact optimum.
const QUALITY_KEYS: usize = 256;
/// Plateaus of every key's signal: well above the `2k + 1` pieces a key
/// serves, so neither the served synopsis nor the optimum fits a key exactly
/// and the quality ratio is steady across keys and seeds.
const PLATEAUS: usize = 64;
/// Requests per client before the clock starts.
const WARMUP: usize = 1_000;
/// Width of the wall-clock windows the request rate and latencies are
/// summarized over.
const WINDOW_S: f64 = 1.0;
/// Bound on any single response read, so a wedged server fails the run
/// instead of hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// A batch query, as a client sends it.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    Quantile(Vec<f64>),
    Cdf(Vec<usize>),
    Mass(Vec<Interval>),
}

/// A batch answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    Indices(Vec<usize>),
    Values(Vec<f64>),
}

impl Answer {
    /// Bit-for-bit equality (`f64::to_bits`), not numeric equality.
    pub fn same_bits(&self, other: &Answer) -> bool {
        match (self, other) {
            (Answer::Indices(a), Answer::Indices(b)) => a == b,
            (Answer::Values(a), Answer::Values(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            _ => false,
        }
    }
}

/// One generated request with the answer the local synopsis gives.
#[derive(Debug, Clone, PartialEq)]
pub struct Call {
    pub key: usize,
    pub query: Query,
    pub expected: Answer,
}

/// The answer `synopsis` gives locally.
pub fn answer(synopsis: &Synopsis, query: &Query) -> Result<Answer, String> {
    match query {
        Query::Quantile(ps) => synopsis.quantile_batch(ps).map(Answer::Indices),
        Query::Cdf(xs) => synopsis.cdf_batch(xs).map(Answer::Values),
        Query::Mass(ranges) => synopsis.mass_batch(ranges).map(Answer::Values),
    }
    .map_err(err)
}

/// The store key of key index `i`.
pub fn key_name(i: usize) -> String {
    format!("svc/{i:04}")
}

/// The request mix: keys by Zipf, then 60% quantile batches of 4 fractions,
/// 30% cdf batches of 16 indices, 10% mass batches of 16 ranges.
pub fn generate_calls(seed: u64, synopses: &[Synopsis], count: usize) -> Result<Vec<Call>, String> {
    let mut rng = Rng::derive(seed, 2);
    let zipf = Zipf::new(synopses.len(), ZIPF_S, &mut rng);
    (0..count)
        .map(|_| {
            let key = zipf.sample(&mut rng);
            let domain = synopses[key].domain();
            let query = match rng.below(10) {
                0..=5 => Query::Quantile((0..4).map(|_| rng.unit()).collect()),
                6..=8 => Query::Cdf((0..16).map(|_| rng.below(domain)).collect()),
                _ => Query::Mass(
                    (0..16)
                        .map(|_| {
                            let (a, b) = (rng.below(domain), rng.below(domain));
                            Interval::new(a.min(b), a.max(b)).map_err(err)
                        })
                        .collect::<Result<_, _>>()?,
                ),
            };
            let expected = answer(&synopses[key], &query)?;
            Ok(Call { key, query, expected })
        })
        .collect()
}

/// Everything the timed phase needs.
pub struct Setup {
    client: HistClient,
    /// Serves `map` until the set-up is dropped.
    _server: HistServer,
    map: Arc<StoreMap>,
    keys: Vec<String>,
    calls: Vec<Call>,
    /// `(key index, signal)` of the keys scored for quality.
    quality: Vec<(usize, Signal)>,
    pieces_per_k: f64,
}

/// Fits every key, fills the store, generates the requests with their
/// expected answers, starts the server and connects the client.
pub fn setup(seed: u64) -> Result<Setup, String> {
    let mut rng = Rng::derive(seed, 1);
    let estimator = GreedyMerging::new(EstimatorBuilder::new(K));
    let map = Arc::new(StoreMap::new());
    let mut synopses = Vec::with_capacity(KEYS);
    let mut quality = Vec::new();
    let keys: Vec<String> = (0..KEYS).map(key_name).collect();
    for (i, key) in keys.iter().enumerate() {
        let signal =
            Signal::from_dense(plateau_signal(&mut rng, KEY_N, PLATEAUS, 2.0)).map_err(err)?;
        let synopsis = estimator.fit(&signal).map_err(err)?;
        map.publish(key, synopsis.clone()).map_err(err)?;
        synopses.push(synopsis);
        if i % (KEYS / QUALITY_KEYS) == 0 {
            quality.push((i, signal));
        }
    }
    let pieces_per_k =
        mean(&synopses.iter().map(|s| s.num_pieces() as f64 / K as f64).collect::<Vec<_>>());
    let calls = generate_calls(seed, &synopses, POOL)?;
    let server =
        HistServer::bind("127.0.0.1:0", Arc::clone(&map), ServerConfig::default()).map_err(err)?;
    let client = HistClient::connect(server.local_addr())
        .and_then(|c| c.with_read_timeout(Some(READ_TIMEOUT)))
        .map_err(err)?;
    Ok(Setup { client, _server: server, map, keys, calls, quality, pieces_per_k })
}

/// Sends one call over the wire.
pub fn issue(client: &mut HistClient, key: &str, query: &Query) -> Result<(u64, Answer), String> {
    client.set_key(key).map_err(err)?;
    match query {
        Query::Quantile(ps) => {
            client.quantile_batch(ps).map(|r| (r.epoch, Answer::Indices(r.value)))
        }
        Query::Cdf(xs) => client.cdf_batch(xs).map(|r| (r.epoch, Answer::Values(r.value))),
        Query::Mass(ranges) => {
            client.mass_batch(ranges).map(|r| (r.epoch, Answer::Values(r.value)))
        }
    }
    .map_err(err)
}

fn verify(call: &Call, key: &str, got: Result<(u64, Answer), String>) -> Result<(), String> {
    let (epoch, answer) = got.map_err(|e| format!("{key}: {e}"))?;
    if epoch != 1 {
        return Err(format!("{key}: served epoch {epoch}, published once"));
    }
    if !answer.same_bits(&call.expected) {
        return Err(format!("{key}: answer differs from the local synopsis"));
    }
    Ok(())
}

/// The frame bytes the CRC covers: after the u32 length prefix, before the
/// 4-byte CRC trailer.
fn crc_span(message: &[u8]) -> &[u8] {
    &message[4..message.len() - 4]
}

/// Replays one request in process through the entry points the wire path
/// runs — encode, decode, store snapshot, query kernel, encode, decode — one
/// span each, plus a side CRC over both frames.
pub fn replay(
    tr: &mut Tracer,
    id: u64,
    map: &StoreMap,
    key: &str,
    query: &Query,
) -> Result<(u64, Answer), String> {
    let request = match query {
        Query::Quantile(ps) => Request::QuantileBatch { key: key.to_owned(), ps: ps.clone() },
        Query::Cdf(xs) => {
            Request::CdfBatch { key: key.to_owned(), xs: xs.iter().map(|&x| x as u64).collect() }
        }
        Query::Mass(ranges) => Request::MassBatch {
            key: key.to_owned(),
            ranges: ranges.iter().map(|r| (r.start() as u64, r.end() as u64)).collect(),
        },
    };
    let bytes = tr.time_ok("net.encode_request", Kind::Layer, id, || encode_request(&request));
    tr.time_ok("persist.crc32", Kind::Side, id, || std::hint::black_box(crc32(crc_span(&bytes))));
    let decoded =
        tr.time("net.decode_request", Kind::Layer, id, || decode_request(&bytes)).map_err(err)?;
    let served_key = match &decoded {
        Request::QuantileBatch { key, .. }
        | Request::CdfBatch { key, .. }
        | Request::MassBatch { key, .. } => key.clone(),
        other => return Err(format!("decoded an unexpected request {other:?}")),
    };
    let snapshot = tr
        .time("serve.snapshot", Kind::Layer, id, || map.snapshot(&served_key).ok_or("no snapshot"))
        .map_err(|e| format!("{served_key}: {e}"))?;
    let (epoch, synopsis) = (snapshot.epoch(), snapshot.synopsis());
    let response = match decoded {
        Request::QuantileBatch { ps, .. } => {
            let indices = tr
                .time("core.query", Kind::Layer, id, || synopsis.quantile_batch(&ps))
                .map_err(err)?;
            Response::QuantileBatch {
                epoch,
                indices: indices.into_iter().map(|i| i as u64).collect(),
            }
        }
        Request::CdfBatch { xs, .. } => {
            let xs: Vec<usize> = xs.iter().map(|&x| x as usize).collect();
            let values =
                tr.time("core.query", Kind::Layer, id, || synopsis.cdf_batch(&xs)).map_err(err)?;
            Response::CdfBatch { epoch, values }
        }
        Request::MassBatch { ranges, .. } => {
            let ranges: Vec<Interval> = ranges
                .iter()
                .map(|&(a, b)| Interval::new(a as usize, b as usize))
                .collect::<Result<_, _>>()
                .map_err(err)?;
            let masses = tr
                .time("core.query", Kind::Layer, id, || synopsis.mass_batch(&ranges))
                .map_err(err)?;
            Response::MassBatch { epoch, masses }
        }
        _ => unreachable!("only batch queries reach this point"),
    };
    let out = tr.time_ok("net.encode_response", Kind::Layer, id, || encode_response(&response));
    tr.time_ok("persist.crc32", Kind::Side, id, || std::hint::black_box(crc32(crc_span(&out))));
    match tr.time("net.decode_response", Kind::Layer, id, || decode_response(&out)).map_err(err)? {
        Response::QuantileBatch { epoch, indices } => {
            Ok((epoch, Answer::Indices(indices.into_iter().map(|i| i as usize).collect())))
        }
        Response::CdfBatch { epoch, values } => Ok((epoch, Answer::Values(values))),
        Response::MassBatch { epoch, masses } => Ok((epoch, Answer::Values(masses))),
        other => Err(format!("decoded an unexpected response {other:?}")),
    }
}

/// What the client saw in one phase.
struct ClientRun {
    /// Per request: when it was sent, in seconds into the timed loop, and its
    /// wire round trip in microseconds.
    requests: Vec<(f64, f64)>,
    /// `round trip − in-process layers` per traced request, microseconds.
    transport_us: Vec<f64>,
    tally: Tally,
    tracer: Option<Tracer>,
}

/// Drives the client, closed loop: a warm-up, then requests cycling through
/// the pool until `seconds` elapse. A traced phase replays every request in
/// process (spans) before sending it over the wire.
fn phase(setup: &mut Setup, seconds: f64, origin: Option<Instant>) -> ClientRun {
    let Setup { client, map, calls, keys, .. } = setup;
    let mut tally = Tally::default();
    let mut i = 0;
    for _ in 0..WARMUP {
        let call = &calls[i % calls.len()];
        let key = &keys[call.key];
        tally.record(verify(call, key, issue(client, key, &call.query)));
        i += 1;
    }
    let mut tracer = origin.map(Tracer::new);
    let (mut requests, mut transport_us) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    loop {
        let call = &calls[i % calls.len()];
        let key = &keys[call.key];
        let id = i as u64;
        i += 1;
        let mut in_process_ns = None;
        if let Some(tr) = tracer.as_mut() {
            let first = tr.len();
            let root = tr.begin("serve.request", Kind::Work, id);
            let replayed = replay(tr, id, map, key, &call.query);
            tr.end(root, replayed.is_ok());
            in_process_ns = Some(tr.layer_ns_since(first));
            tally.record(verify(call, key, replayed));
        }
        let sent = Instant::now();
        if sent >= deadline {
            break;
        }
        let round_trip = match tracer.as_mut() {
            Some(tr) => {
                tr.time("net.round_trip", Kind::Work, id, || issue(client, key, &call.query))
            }
            None => issue(client, key, &call.query),
        };
        let rtt_us = sent.elapsed().as_secs_f64() * 1e6;
        requests.push(((sent - started).as_secs_f64(), rtt_us));
        if let Some(ns) = in_process_ns {
            transport_us.push(rtt_us - ns as f64 / 1e3);
        }
        tally.record(verify(call, key, round_trip));
    }
    ClientRun { requests, transport_us, tally, tracer }
}

/// Served L2 error over the exact k-piece optimum, per scored key.
fn quality_ratios(setup: &Setup, tally: &mut Tally) -> Vec<f64> {
    let mut ratios = Vec::new();
    for (key, signal) in &setup.quality {
        let name = &setup.keys[*key];
        let outcome = setup
            .map
            .snapshot(name)
            .ok_or_else(|| format!("{name}: not served"))
            .and_then(|served| {
                let l2 = served.synopsis().l2_error(signal).map_err(err)?;
                let opt = ExactDp::new(EstimatorBuilder::new(K)).fit(signal).map_err(err)?;
                let opt = opt.l2_error(signal).map_err(err)?;
                Ok(l2 / opt)
            })
            .and_then(|ratio| {
                ratios.push(ratio);
                if ratio.is_finite() && ratio > 0.0 {
                    Ok(())
                } else {
                    Err(format!("{name}: served/optimal L2 ratio {ratio}"))
                }
            });
        tally.record(outcome);
    }
    ratios
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut tally = Tally::default();
    if args.trace {
        let mut setup = setup(args.seed)?;
        let untraced = phase(&mut setup, args.seconds / 2.0, None);
        let traced = phase(&mut setup, args.seconds / 2.0, Some(Instant::now()));
        let transport = &traced.transport_us;
        let tracer = traced.tracer.as_ref().expect("a traced phase records spans");
        let mut stats = aggregate([tracer]);
        let layer_ns: f64 =
            stats.values().filter(|s| s.kind == Some(Kind::Layer)).map(|s| s.total_ns()).sum();
        let transport_total_ns: f64 = transport.iter().sum::<f64>() * 1e3;
        let requests = transport.len().max(1) as f64;
        let round_trips = |run: &ClientRun| run.requests.iter().map(|r| r.1).collect::<Vec<_>>();
        let untraced_us = round_trips(&untraced);
        let untraced_mean_ns = mean(&untraced_us) * 1e3;

        let mut extras = std::collections::BTreeMap::new();
        extras.insert("net.transport_us", crate::stats::median(transport));
        extras.insert(
            "trace.coverage",
            (layer_ns + transport_total_ns) / requests / untraced_mean_ns,
        );
        extras.insert(
            "trace.overhead",
            Latency::of(round_trips(&traced)).p50 / Latency::of(untraced_us).p50,
        );
        crate::write_trace(args, &[tracer]);
        stats.remove("serve.request");
        let probe = crate::probe::run(args.seed)?;
        let notes = vec![format!("traced requests: {requests}")];
        let mut report = Report::per_layer(stats, extras, &probe, notes);
        tally.absorb(untraced.tally);
        tally.absorb(traced.tally);
        report.tally = tally;
        return Ok(report);
    }

    let (mut setup, setup_s) = timed_setups(|| setup(args.seed))?;
    let run = phase(&mut setup, args.seconds, None);
    let latency = Windowed::of(&run.requests, WINDOW_S);
    tally.absorb(run.tally);
    let ratios = quality_ratios(&setup, &mut tally);
    let quality = if ratios.is_empty() { f64::NAN } else { geomean(&ratios) };
    let per_window =
        format!("{} samples in {} windows of {WINDOW_S} s", latency.samples, latency.windows);
    let notes = vec![
        format!("query_rps {} req/s", latency.rate),
        format!("query_p50_us {} us ({per_window})", latency.p50),
        format!("query_p{}_us {} us ({per_window})", latency.tail_pct, latency.tail),
        format!("served_vs_opt_l2_ratio {quality} ratio ({} keys)", ratios.len()),
        format!("keys {KEYS}, k = {K}, one client, ServerConfig::default()"),
    ];
    Ok(Report::end_to_end(
        tally,
        EndToEnd {
            setup_s,
            throughput: latency.rate,
            latency_p50_us: latency.p50,
            latency_tail_us: latency.tail,
            quality_ratio: quality,
            pieces_per_k: setup.pieces_per_k,
        },
        notes,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synopses(seed: u64) -> Vec<Synopsis> {
        let mut rng = Rng::derive(seed, 1);
        (0..32)
            .map(|_| {
                let signal = Signal::from_dense(plateau_signal(&mut rng, 256, 6, 1.0)).unwrap();
                GreedyMerging::new(EstimatorBuilder::new(4)).fit(&signal).unwrap()
            })
            .collect()
    }

    #[test]
    fn the_request_mix_is_identical_per_seed() {
        let fitted = synopses(1);
        let a = generate_calls(42, &fitted, 500).unwrap();
        let b = generate_calls(42, &fitted, 500).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, generate_calls(43, &fitted, 500).unwrap());
        let quantiles = a.iter().filter(|c| matches!(c.query, Query::Quantile(_))).count();
        assert!((230..370).contains(&quantiles), "≈ 60% quantile batches, got {quantiles}");
    }

    #[test]
    fn replayed_requests_answer_like_the_local_synopsis() {
        let fitted = synopses(2);
        let map = StoreMap::new();
        for (i, s) in fitted.iter().enumerate() {
            map.publish(&key_name(i), s.clone()).unwrap();
        }
        let mut tr = Tracer::new(Instant::now());
        for (id, call) in generate_calls(7, &fitted, 200).unwrap().iter().enumerate() {
            let got = replay(&mut tr, id as u64, &map, &key_name(call.key), &call.query);
            verify(call, &key_name(call.key), got).unwrap();
        }
        let layers = tr.spans().iter().filter(|s| s.kind == Kind::Layer).count();
        assert_eq!(layers, 6 * 200, "six in-process layers per request");
    }

    #[test]
    fn bit_identity_is_stricter_than_equality() {
        let a = Answer::Values(vec![0.0]);
        let b = Answer::Values(vec![-0.0]);
        assert_eq!(a, b);
        assert!(!a.same_bits(&b));
        assert!(Answer::Indices(vec![1, 2]).same_bits(&Answer::Indices(vec![1, 2])));
    }
}
