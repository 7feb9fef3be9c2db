//! The traced run's probe of every layer. Each workload drives only some
//! layers, so a traced run also times every layer over small seeded inputs:
//! a layer its workload never calls reports the probe's median self time
//! (with its own call count, 0, beside it), and every per-layer time is a
//! measured figure on every workload. Probe spans count towards no coverage
//! or overhead figure.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use approx_hist::stream::merge_budget;
use approx_hist::{
    Estimator, EstimatorBuilder, EventSource, ExactDp, GreedyMerging, HistClient, HistServer,
    ServerConfig, Signal, StoreMap, StreamingBuilder, Synopsis,
};

use crate::construct::{replay_fit, Algo};
use crate::err;
use crate::gen::{plateau_signal, Rng};
use crate::serve::{generate_calls, issue, replay};
use crate::stats::median;
use crate::trace::{aggregate, Kind, LayerStats, Tracer};

/// Values of the probe signal, which is also the probe's event stream.
const N: usize = 1 << 14;
/// Prefix of the probe signal the exact DP is run on.
const DP_N: usize = 256;
/// Piece budget of the probe's stream and of its exact DP.
const K: usize = 8;
/// Events per chunk of the probe's stream.
const CHUNK: usize = 1_024;
/// Requests the probe replays in process and sends over the wire.
const REQUESTS: usize = 256;
/// The store key the probe stream is served under.
const KEY: &str = "probe";
/// Bound on any single response read.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// What the probe measured.
#[derive(Debug, Default)]
pub struct Probe {
    /// Per-layer self times of the probe's calls.
    pub stats: BTreeMap<&'static str, LayerStats>,
    /// Median over requests of the wire round trip minus the in-process
    /// layers replayed for the same request, microseconds.
    pub transport_us: f64,
}

/// Times every layer once over inputs made from `seed`, checking that the
/// replayed and the wire answers equal the local synopsis's.
pub fn run(seed: u64) -> Result<Probe, String> {
    let mut tr = Tracer::new(Instant::now());
    let values = plateau_signal(&mut Rng::derive(seed, 20), N, 64, 2.0);

    let signal = tr
        .time("core.signal", Kind::Layer, 0, || Signal::from_dense(values.clone()))
        .map_err(err)?;
    for algo in Algo::ALL {
        replay_fit(&mut tr, 0, algo, &signal, &mut Vec::new())?;
    }
    let prefix = Signal::from_slice(&values[..DP_N]).map_err(err)?;
    tr.time("baselines.exact_dp", Kind::Layer, 0, || {
        ExactDp::new(EstimatorBuilder::new(K)).fit(&prefix)
    })
    .map_err(err)?;

    // The signal as an event stream, chunk by chunk into a store.
    let map = Arc::new(StoreMap::new());
    let budget = merge_budget(K);
    let mut source = EventSource::from_block(KEY, values).map_err(err)?;
    let estimator = Box::new(GreedyMerging::new(EstimatorBuilder::new(K)));
    let mut builder = StreamingBuilder::new(estimator, K, CHUNK).map_err(err)?;
    let (mut batch, mut chunks) = (Vec::with_capacity(CHUNK), Vec::new());
    for id in 0..(N / CHUNK) as u64 {
        tr.time_ok("pipeline.next_batch", Kind::Layer, id, || source.next_batch(CHUNK, &mut batch));
        tr.time("stream.extend", Kind::Layer, id, || {
            builder.extend_collecting_chunks(&batch, &mut Some(&mut chunks))
        })
        .map_err(err)?;
        for chunk in chunks.drain(..) {
            if let Some(served) = map.snapshot(KEY) {
                tr.time("core.merge", Kind::Layer, id, || served.synopsis().merge(&chunk, budget))
                    .map_err(err)?;
            }
            tr.time("serve.update_merge", Kind::Layer, id, || {
                map.update_merge(KEY, &chunk, budget)
            })
            .map_err(err)?;
        }
        tr.time_ok("pipeline.checkpoint", Kind::Layer, id, || builder.checkpoint());
    }

    // Requests against the served stream, in process and over the wire.
    let served = map.snapshot(KEY).ok_or("the probe stream published nothing")?;
    let calls = generate_calls(seed, &[Synopsis::clone(served.synopsis())], REQUESTS)?;
    let server =
        HistServer::bind("127.0.0.1:0", Arc::clone(&map), ServerConfig::default()).map_err(err)?;
    let mut client = HistClient::connect(server.local_addr())
        .and_then(|c| c.with_read_timeout(Some(READ_TIMEOUT)))
        .map_err(err)?;
    let mut transport_us = Vec::with_capacity(REQUESTS);
    for (i, call) in calls.iter().enumerate() {
        let id = i as u64;
        let first = tr.len();
        let (_, local) = replay(&mut tr, id, &map, KEY, &call.query)?;
        let in_process_us = tr.layer_ns_since(first) as f64 / 1e3;
        let sent = Instant::now();
        let (_, remote) =
            tr.time("net.round_trip", Kind::Work, id, || issue(&mut client, KEY, &call.query))?;
        transport_us.push(sent.elapsed().as_secs_f64() * 1e6 - in_process_us);
        if !local.same_bits(&call.expected) || !remote.same_bits(&call.expected) {
            return Err(format!("probe request {i}: answer differs from the local synopsis"));
        }
    }
    drop(client);
    drop(server);
    Ok(Probe { stats: aggregate([&tr]), transport_us: median(&transport_us) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_times_every_layer() {
        let probe = run(3).unwrap();
        for &(stem, _) in crate::LAYERS {
            let layer = &probe.stats.get(stem).unwrap_or_else(|| panic!("{stem} not probed"));
            assert!(layer.calls > 0 && layer.failures == 0, "{stem}: {layer:?}");
        }
        assert!(probe.transport_us.is_finite());
    }
}
