//! One metric's ingest lane: a streaming builder (or sliding window) whose
//! completed chunks are published into the keyed serving store.

use hist_core::{Error, Estimator, Result, Synopsis};
use hist_serve::{validate_key, StoreMap};
use hist_stream::{merge_budget, SlidingWindow, StreamingBuilder};

/// How a metric's synopsis tracks its stream.
enum Lane {
    /// Everything since stream start: a [`StreamingBuilder`] whose completed
    /// chunk synopses are merged into the store (`update_merge`), one epoch
    /// per chunk — the store's left-deep merge chain *is* the served
    /// synopsis. Checkpointable: the builder round-trips through
    /// `checkpoint`/`resume` bit-identically.
    Cumulative(StreamingBuilder),
    /// The last `bucket_len · num_buckets` values only: a [`SlidingWindow`]
    /// whose merged synopsis is re-published (`publish`, replacing the
    /// served one) every time a bucket completes.
    Windowed(SlidingWindow),
}

/// One metric flowing through the telemetry pipeline: values in, epochs out.
///
/// The publish cadence is the chunk (or bucket) length: every `chunk_len`
/// ingested events the store sees one new epoch. Shorter chunks mean fresher
/// served answers but more merges (and merge error) per event — the
/// cadence/accuracy trade-off `BENCH_pipeline.json` quantifies.
pub struct MetricPipeline {
    key: String,
    merge_budget: usize,
    lane: Lane,
    scratch: Vec<Synopsis>,
    /// Events consumed, mirroring the lane's own accounting (the windowed
    /// lane forgets evicted values, so it cannot be asked).
    consumed: usize,
    publishes: u64,
    last_epoch: u64,
}

impl MetricPipeline {
    /// A cumulative lane for `key`: chunks of `chunk_len` values fitted by
    /// `inner` at piece budget `k`, published into the store by merging
    /// (re-merged to `2k + 1` pieces).
    pub fn cumulative(
        key: impl Into<String>,
        inner: Box<dyn Estimator>,
        k: usize,
        chunk_len: usize,
    ) -> Result<Self> {
        let key = key.into();
        validate_key(&key)?;
        Ok(Self {
            key,
            merge_budget: merge_budget(k),
            lane: Lane::Cumulative(StreamingBuilder::new(inner, k, chunk_len)?),
            scratch: Vec::new(),
            consumed: 0,
            publishes: 0,
            last_epoch: 0,
        })
    }

    /// A windowed lane for `key`: a sliding window of `num_buckets` buckets
    /// of `bucket_len` values, re-publishing its merged synopsis whenever a
    /// bucket completes.
    pub fn windowed(
        key: impl Into<String>,
        inner: Box<dyn Estimator>,
        k: usize,
        bucket_len: usize,
        num_buckets: usize,
    ) -> Result<Self> {
        let key = key.into();
        validate_key(&key)?;
        Ok(Self {
            key,
            merge_budget: merge_budget(k),
            lane: Lane::Windowed(SlidingWindow::new(inner, k, bucket_len, num_buckets)?),
            scratch: Vec::new(),
            consumed: 0,
            publishes: 0,
            last_epoch: 0,
        })
    }

    /// Consumes a batch of events, publishing into `map` at the lane's
    /// cadence; returns how many epochs this batch minted.
    ///
    /// Failure semantics compose from the layers below: a non-finite value
    /// rejects the whole batch before anything is consumed
    /// ([`StreamingBuilder::extend`] is all-or-nothing); chunks completed
    /// before a mid-batch fit failure are still published, the failed chunk
    /// stays queued in the builder, and the next `ingest` retries it.
    pub fn ingest(&mut self, map: &StoreMap, values: &[f64]) -> Result<u64> {
        let minted = match &mut self.lane {
            Lane::Cumulative(builder) => {
                self.scratch.clear();
                let drained =
                    builder.extend_collecting_chunks(values, &mut Some(&mut self.scratch));
                // Chunks that completed are real even when a later chunk in
                // the same batch failed to fit: publish them first, then
                // surface the error (the builder holds the rest for retry).
                let mut minted = 0;
                for chunk in self.scratch.drain(..) {
                    self.last_epoch = map.update_merge(&self.key, &chunk, self.merge_budget)?;
                    self.publishes += 1;
                    minted += 1;
                }
                self.consumed = builder.len();
                drained?;
                minted
            }
            Lane::Windowed(window) => {
                let before = self.consumed / window.bucket_len();
                window.extend(values)?;
                self.consumed += values.len();
                if self.consumed / window.bucket_len() > before {
                    self.last_epoch = map.publish(&self.key, window.synopsis()?)?;
                    self.publishes += 1;
                    1
                } else {
                    0
                }
            }
        };
        Ok(minted)
    }

    /// Serializes the resumable ingest state (cumulative lane only): the
    /// underlying [`StreamingBuilder::checkpoint`] container. The store is
    /// *not* part of the checkpoint — it lives on in the serving process,
    /// which is the whole point of killing only the ingester.
    pub fn checkpoint(&self) -> Result<Vec<u8>> {
        match &self.lane {
            Lane::Cumulative(builder) => Ok(builder.checkpoint()),
            Lane::Windowed(_) => Err(Error::InvalidParameter {
                name: "lane",
                reason: "windowed lanes are not checkpointable: rebuild the window by \
                         replaying the last capacity() events of the stream"
                    .into(),
            }),
        }
    }

    /// Reconstructs a cumulative lane from a [`MetricPipeline::checkpoint`],
    /// ready to continue publishing into the same (still-running) store:
    /// `consumed()` tells the caller where to seek the event source, and the
    /// publish counter resumes from the number of chunks the dead ingester
    /// already published (completed chunks and consumed events are recorded
    /// in the same checkpoint, so none is counted twice).
    pub fn resume_cumulative(
        key: impl Into<String>,
        inner: Box<dyn Estimator>,
        bytes: &[u8],
    ) -> Result<Self> {
        let key = key.into();
        validate_key(&key)?;
        let builder = StreamingBuilder::resume(inner, bytes)
            .map_err(|e| Error::InvalidParameter { name: "checkpoint", reason: e.to_string() })?;
        Ok(Self {
            key,
            merge_budget: merge_budget(builder.budget()),
            consumed: builder.len(),
            publishes: builder.chunks_completed() as u64,
            lane: Lane::Cumulative(builder),
            scratch: Vec::new(),
            last_epoch: 0,
        })
    }

    /// The store key this lane publishes under.
    #[inline]
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Total events consumed by this lane.
    #[inline]
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// Epochs minted by this lane so far (chunks merged or windows
    /// re-published). After a resume, continues from the dead ingester's
    /// count.
    #[inline]
    pub fn publishes(&self) -> u64 {
        self.publishes
    }

    /// The last store epoch this lane published (0 before the first).
    #[inline]
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch
    }

    /// The lane's own query-ready synopsis of everything it currently
    /// summarizes — the ingest-side ground truth the served (merged) synopsis
    /// approximates. Errors while no value has been consumed.
    pub fn synopsis(&self) -> Result<Synopsis> {
        match &self.lane {
            Lane::Cumulative(builder) => builder.synopsis(),
            Lane::Windowed(window) => window.synopsis(),
        }
    }
}
