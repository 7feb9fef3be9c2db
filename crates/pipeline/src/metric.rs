//! One metric's ingest lane: a streaming builder whose completed chunks are
//! merged into the keyed serving store.

use hist_core::{Error, Estimator, Result, Synopsis};
use hist_serve::{validate_key, StoreMap};
use hist_stream::{merge_budget, StreamingBuilder};

/// One metric flowing through the telemetry pipeline: values in, epochs out.
///
/// A lane summarizes everything since stream start: a [`StreamingBuilder`]
/// whose completed chunk synopses are merged into the store
/// (`update_merge`), one epoch per chunk, so the store's left-deep merge
/// chain *is* the served synopsis. The builder round-trips through
/// [`MetricPipeline::checkpoint`] and [`MetricPipeline::resume_cumulative`]
/// bit-identically.
///
/// A lane owns its key from epoch 0, so the key's epoch counts the chunks
/// merged into it. A resumed lane fences by that count: chunks the store
/// already holds are skipped, not merged again, so every chunk is merged
/// exactly once across an ingester crash.
///
/// The publish cadence is the chunk length: every `chunk_len` ingested
/// events the store sees one new epoch. Shorter chunks mean fresher served
/// answers but more merges (and merge error) per event — the
/// cadence/accuracy trade-off `BENCH_pipeline.json` quantifies.
pub struct MetricPipeline {
    key: String,
    merge_budget: usize,
    builder: StreamingBuilder,
    scratch: Vec<Synopsis>,
    publishes: u64,
    last_epoch: u64,
    /// Chunks `1..=fence` are already in the store and are not merged again.
    fence: u64,
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
            builder: StreamingBuilder::new(inner, k, chunk_len)?,
            scratch: Vec::new(),
            publishes: 0,
            last_epoch: 0,
            fence: 0,
        })
    }

    /// Consumes a batch of events, merging every completed chunk into `map`;
    /// returns how many epochs this batch minted. After a resume, chunks the
    /// store already holds count as published but mint nothing.
    ///
    /// Failure semantics compose from the layers below: a non-finite value
    /// rejects the whole batch before anything is consumed
    /// ([`StreamingBuilder::extend`] is all-or-nothing); chunks completed
    /// before a mid-batch fit failure are still published, the failed chunk
    /// stays queued in the builder, and the next `ingest` retries it.
    pub fn ingest(&mut self, map: &StoreMap, values: &[f64]) -> Result<u64> {
        self.scratch.clear();
        let drained = self.builder.extend_collecting_chunks(values, &mut Some(&mut self.scratch));
        // Chunks that completed are real even when a later chunk in the same
        // batch failed to fit: publish them first, then surface the error
        // (the builder holds the rest for retry).
        let mut minted = 0;
        for chunk in self.scratch.drain(..) {
            if self.publishes >= self.fence {
                self.last_epoch = map.update_merge(&self.key, &chunk, self.merge_budget)?;
                minted += 1;
            }
            self.publishes += 1;
        }
        drained?;
        Ok(minted)
    }

    /// Serializes the resumable ingest state: the underlying
    /// [`StreamingBuilder::checkpoint`] container. The store is *not* part
    /// of the checkpoint — it lives on in the serving process, which is the
    /// whole point of killing only the ingester.
    pub fn checkpoint(&self) -> Result<Vec<u8>> {
        Ok(self.builder.checkpoint())
    }

    /// Reconstructs a lane from a [`MetricPipeline::checkpoint`], ready to
    /// continue publishing into `map`, the store the dead ingester published
    /// into: `consumed()` tells the caller where to seek the event source,
    /// and the publish counter resumes from the checkpoint's completed
    /// chunks.
    ///
    /// The dead ingester may have published chunks after its checkpoint. The
    /// builder is deterministic, so the resumed lane completes the same
    /// chunks again; every one numbered at or below the key's epoch in `map`
    /// is already in the store and is skipped, not merged. A store epoch
    /// below the checkpoint's completed chunks is an
    /// [`Error::InvalidParameter`] named `"store"`: the store lost chunks
    /// (say, it was reopened from an older save), and the caller must seek
    /// the source back.
    pub fn resume_cumulative(
        map: &StoreMap,
        key: impl Into<String>,
        inner: Box<dyn Estimator>,
        bytes: &[u8],
    ) -> Result<Self> {
        let key = key.into();
        validate_key(&key)?;
        let builder = StreamingBuilder::resume(inner, bytes)
            .map_err(|e| Error::InvalidParameter { name: "checkpoint", reason: e.to_string() })?;
        let (publishes, fence) = (builder.chunks_completed() as u64, map.epoch(&key));
        if fence < publishes {
            return Err(Error::InvalidParameter {
                name: "store",
                reason: format!(
                    "key {key:?} is at epoch {fence}, behind the checkpoint's {publishes} \
                     published chunks: the store lost chunks"
                ),
            });
        }
        Ok(Self {
            key,
            merge_budget: merge_budget(builder.budget()),
            publishes,
            builder,
            scratch: Vec::new(),
            last_epoch: 0,
            fence,
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
        self.builder.len()
    }

    /// Chunks in the store so far, one epoch each. After a resume, continues
    /// from the checkpoint's count, and a chunk the store already held counts
    /// when the lane completes it again.
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
        self.builder.synopsis()
    }
}
