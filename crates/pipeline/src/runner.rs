//! The ingest thread: many metric lanes driven round-robin from their event
//! sources into one shared [`StoreMap`], while servers and clients read from
//! the same map concurrently.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hist_core::{Error, Result};
use hist_serve::StoreMap;

use crate::metric::MetricPipeline;
use crate::source::EventSource;

/// Default events per `ingest` call: large enough to amortize the per-batch
/// bookkeeping, small enough that multi-metric round-robin stays fair.
const DEFAULT_BATCH: usize = 1_024;

/// What a pipeline run did: totals across every lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineReport {
    /// Events consumed across all lanes during the run.
    pub events: u64,
    /// Store epochs minted across all lanes during the run.
    pub publishes: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

/// A set of metric lanes and their event sources, driven round-robin into a
/// shared [`StoreMap`] — synchronously ([`TelemetryPipeline::run_until`]) or
/// on a background ingest thread ([`TelemetryPipeline::spawn`]) while the
/// map is concurrently served over the wire.
pub struct TelemetryPipeline {
    map: Arc<StoreMap>,
    lanes: Vec<(EventSource, MetricPipeline)>,
    batch: usize,
}

impl TelemetryPipeline {
    /// An empty pipeline publishing into `map`.
    pub fn new(map: Arc<StoreMap>) -> Self {
        Self { map, lanes: Vec::new(), batch: DEFAULT_BATCH }
    }

    /// Sets the per-lane batch size (events per `ingest` call, minimum 1).
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Adds a metric lane fed by `source`. The source's position is where
    /// ingest continues from — seek it first when resuming.
    pub fn add_lane(&mut self, source: EventSource, pipeline: MetricPipeline) {
        self.lanes.push((source, pipeline));
    }

    /// The shared store the lanes publish into.
    #[inline]
    pub fn map(&self) -> &Arc<StoreMap> {
        &self.map
    }

    /// The lanes, in insertion order (source, pipeline).
    #[inline]
    pub fn lanes(&self) -> &[(EventSource, MetricPipeline)] {
        &self.lanes
    }

    /// Drives every lane until each source has reached absolute stream
    /// position `target_position`, in round-robin batches; returns the run's
    /// totals. Lanes already past the target are left untouched.
    pub fn run_until(&mut self, target_position: usize) -> Result<PipelineReport> {
        let started = Instant::now();
        let (mut events, mut publishes) = (0u64, 0u64);
        let mut buf = Vec::with_capacity(self.batch);
        loop {
            let mut any = false;
            for (source, pipeline) in &mut self.lanes {
                let remaining = target_position.saturating_sub(source.position());
                if remaining == 0 {
                    continue;
                }
                any = true;
                source.next_batch(remaining.min(self.batch), &mut buf);
                publishes += pipeline.ingest(&self.map, &buf)?;
                events += buf.len() as u64;
            }
            if !any {
                break;
            }
        }
        Ok(PipelineReport { events, publishes, elapsed: started.elapsed() })
    }

    /// Moves the pipeline onto a background ingest thread that loops
    /// round-robin until [`IngestHandle::stop`] — the live-serving shape:
    /// ingest publishes while servers and clients read the same map. Event
    /// and publish counters are observable while it runs; `join` returns the
    /// pipeline (sources and lanes at their final positions) for
    /// checkpointing.
    pub fn spawn(mut self) -> IngestHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let events = Arc::new(AtomicU64::new(0));
        let publishes = Arc::new(AtomicU64::new(0));
        let (stop2, events2, publishes2) =
            (Arc::clone(&stop), Arc::clone(&events), Arc::clone(&publishes));
        let handle = std::thread::Builder::new()
            .name("hist-ingest".into())
            .spawn(move || {
                let mut buf = Vec::with_capacity(self.batch);
                while !stop2.load(Ordering::Relaxed) {
                    for (source, pipeline) in &mut self.lanes {
                        source.next_batch(self.batch, &mut buf);
                        let minted = pipeline.ingest(&self.map, &buf)?;
                        events2.fetch_add(buf.len() as u64, Ordering::Relaxed);
                        publishes2.fetch_add(minted, Ordering::Relaxed);
                    }
                }
                Ok(self)
            })
            .expect("spawning the ingest thread");
        IngestHandle { stop, events, publishes, handle }
    }
}

/// Control and observability for a running background ingest thread.
pub struct IngestHandle {
    stop: Arc<AtomicBool>,
    events: Arc<AtomicU64>,
    publishes: Arc<AtomicU64>,
    handle: JoinHandle<Result<TelemetryPipeline>>,
}

impl IngestHandle {
    /// Events ingested so far (across all lanes).
    #[inline]
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Store epochs minted so far (across all lanes).
    #[inline]
    pub fn publishes(&self) -> u64 {
        self.publishes.load(Ordering::Relaxed)
    }

    /// Asks the ingest thread to stop after its current batch round.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Stops (if not already asked) and joins the ingest thread, returning
    /// the pipeline with every source and lane at its final position — ready
    /// for [`MetricPipeline::checkpoint`]. An ingest error is returned as
    /// is; an ingest-thread panic becomes a typed error.
    pub fn join(self) -> Result<TelemetryPipeline> {
        self.stop();
        self.handle.join().map_err(|_| Error::InvalidParameter {
            name: "ingest",
            reason: "the ingest thread panicked".into(),
        })?
    }
}
