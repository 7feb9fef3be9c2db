//! One-pass streaming construction with logarithmic working memory.
//!
//! [`StreamingBuilder`] consumes a value stream left to right and maintains a
//! binary-counter hierarchy of partial synopses: every full chunk is fitted
//! by the inner [`Estimator`], and whenever two partial synopses of the same
//! rank exist they are merged ([`Synopsis::merge`]) and carried one level up
//! — the classical mergeable-summaries pattern (think LSM levels or
//! merge-sort runs). After `n` values the builder holds at most
//! `⌈log₂(n / chunk_len)⌉ + 1` partial synopses of `O(k)` pieces each.

use hist_core::{Error, Estimator, Result, Signal, Synopsis};
use hist_persist::{
    decode_stream_checkpoint, encode_stream_checkpoint, CodecError, CodecResult, StreamCheckpoint,
};

use crate::merge_budget;

/// Incremental, single-pass synopsis construction over a value stream.
///
/// Values arrive through [`StreamingBuilder::push`]; a query-ready
/// [`Synopsis`] of everything seen so far is available at any time through
/// [`StreamingBuilder::synopsis`]. Working memory is logarithmic in the
/// stream length (a hierarchy of `O(k)`-piece partial synopses plus one
/// partially filled chunk buffer) — the stream itself is never stored.
pub struct StreamingBuilder {
    inner: Box<dyn Estimator>,
    budget: usize,
    chunk_len: usize,
    /// Binary-counter hierarchy: `levels[i]`, when occupied, summarizes
    /// `2^i` chunks, and deeper levels hold strictly older data.
    levels: Vec<Option<Synopsis>>,
    tail: Vec<f64>,
    pushed: usize,
}

impl StreamingBuilder {
    /// A streaming builder with piece budget `budget`, fitting every
    /// `chunk_len`-value chunk with `inner`.
    pub fn new(inner: Box<dyn Estimator>, budget: usize, chunk_len: usize) -> Result<Self> {
        if budget == 0 {
            return Err(Error::InvalidParameter {
                name: "budget",
                reason: "the streaming piece budget must be at least 1".into(),
            });
        }
        if chunk_len == 0 {
            return Err(Error::InvalidParameter {
                name: "chunk_len",
                reason: "chunks must cover at least one value".into(),
            });
        }
        Ok(Self {
            inner,
            budget,
            chunk_len,
            levels: Vec::new(),
            tail: Vec::with_capacity(chunk_len),
            pushed: 0,
        })
    }

    /// Appends one value to the stream.
    ///
    /// Failure semantics: a non-finite value is rejected up front and nothing
    /// is consumed. If the inner fit (or a hierarchy merge) of a completed
    /// chunk fails, the value **is** consumed — it stays queued in the tail
    /// buffer along with the rest of the pending chunk, and the next
    /// `push`/`extend` retries chunk formation. The builder is never wedged:
    /// chunk boundaries stay aligned to multiples of `chunk_len`, so once the
    /// inner estimator recovers the state is bit-identical to a build that
    /// never failed.
    pub fn push(&mut self, value: f64) -> Result<()> {
        if !value.is_finite() {
            return Err(Error::NonFiniteValue { context: "StreamingBuilder::push" });
        }
        self.tail.push(value);
        self.pushed += 1;
        self.drain_full_chunks(None)
    }

    /// Appends a slice of values to the stream, **all or nothing**:
    ///
    /// * a non-finite value anywhere in `values` is a typed error and *no*
    ///   value is consumed (`len()` is unchanged);
    /// * otherwise every value is consumed (`len()` grows by
    ///   `values.len()`) even when chunk formation fails mid-slice — the
    ///   failed chunk stays queued in the tail buffer and the error is
    ///   returned after the whole slice has been buffered, so callers never
    ///   have to guess how much of a slice was ingested. The next
    ///   `push`/`extend` retries the queued chunks.
    pub fn extend(&mut self, values: &[f64]) -> Result<()> {
        self.extend_collecting_chunks(values, &mut None)
    }

    /// [`StreamingBuilder::extend`] with a tap on chunk formation: every
    /// chunk synopsis fitted (and carried into the hierarchy) while consuming
    /// `values` is also cloned into `completed`, oldest first.
    ///
    /// This is the ingest hook of a live pipeline: the freshly fitted chunk
    /// is exactly the delta a serving store merges in
    /// (`SynopsisStore::update_merge`-style) to track the stream, while the
    /// builder itself remains the checkpointable one-pass state. Failure
    /// semantics match [`StreamingBuilder::extend`]; chunks already formed
    /// before a mid-slice failure are still reported.
    pub fn extend_collecting_chunks(
        &mut self,
        values: &[f64],
        completed: &mut Option<&mut Vec<Synopsis>>,
    ) -> Result<()> {
        if values.iter().any(|v| !v.is_finite()) {
            return Err(Error::NonFiniteValue { context: "StreamingBuilder::extend" });
        }
        self.tail.extend_from_slice(values);
        self.pushed += values.len();
        self.drain_full_chunks(completed.as_deref_mut())
    }

    /// Fits and carries every complete chunk queued in the tail buffer.
    ///
    /// The trigger is `>=`, not `==`: a failed inner fit leaves the fitted
    /// chunk's values queued (the tail may temporarily hold one chunk or
    /// more), and the next call retries from the same chunk boundary. Each
    /// iteration is transactional — the tail is only drained after both the
    /// fit and the hierarchy carry succeeded — so an error never loses or
    /// double-counts values.
    fn drain_full_chunks(&mut self, mut completed: Option<&mut Vec<Synopsis>>) -> Result<()> {
        while self.tail.len() >= self.chunk_len {
            let chunk = self.inner.fit(&Signal::from_slice(&self.tail[..self.chunk_len])?)?;
            let tapped = completed.is_some().then(|| chunk.clone());
            self.carry(chunk)?;
            self.tail.drain(..self.chunk_len);
            if let (Some(sink), Some(chunk)) = (completed.as_deref_mut(), tapped) {
                sink.push(chunk);
            }
        }
        Ok(())
    }

    /// Number of values consumed so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.pushed
    }

    /// Whether no value has been pushed yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pushed == 0
    }

    /// The piece budget the final synopsis is merged down to.
    #[inline]
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The chunk length every full chunk is fitted at.
    #[inline]
    pub fn chunk_len(&self) -> usize {
        self.chunk_len
    }

    /// Number of full chunks fitted and carried into the hierarchy so far.
    #[inline]
    pub fn chunks_completed(&self) -> usize {
        (self.pushed - self.tail.len()) / self.chunk_len
    }

    /// Number of partial synopses currently held (the builder's working set).
    pub fn num_partials(&self) -> usize {
        self.levels.iter().filter(|l| l.is_some()).count()
    }

    /// Number of values queued in the tail buffer awaiting chunk formation.
    ///
    /// Normally strictly less than the chunk length; after a failed inner
    /// fit it can reach or exceed it (the failed chunk stays queued until a
    /// later `push`/`extend` retries successfully).
    #[inline]
    pub fn buffered(&self) -> usize {
        self.tail.len()
    }

    /// The synopsis of everything pushed so far (domain `[0, len())`).
    ///
    /// Merges the level hierarchy oldest-first plus a fit of the partial tail
    /// chunk; errors when the stream is still empty. `O(k·log(n/chunk_len))`
    /// plus one inner fit of the tail buffer (at most `chunk_len − 1` values
    /// in steady state; more only while a failed chunk fit is queued for
    /// retry).
    pub fn synopsis(&self) -> Result<Synopsis> {
        let budget = merge_budget(self.budget);
        let mut acc: Option<Synopsis> = None;
        // Deeper levels are older; the stream order is oldest → newest.
        for level in self.levels.iter().rev().flatten() {
            acc = Some(match acc {
                None => level.clone(),
                Some(older) => older.merge(level, budget)?,
            });
        }
        if !self.tail.is_empty() {
            let tail = self.inner.fit(&Signal::from_slice(&self.tail)?)?;
            acc = Some(match acc {
                None => tail,
                Some(older) => older.merge(&tail, budget)?,
            });
        }
        match acc {
            Some(synopsis) => Ok(Synopsis::new("streaming", self.budget, synopsis.model().clone())),
            None => Err(Error::InvalidParameter {
                name: "stream",
                reason: "no values have been pushed yet".into(),
            }),
        }
    }

    /// Serializes the builder's resumable state — configuration, progress
    /// counter, the partially filled tail chunk and every partial synopsis of
    /// the binary-counter hierarchy — into a self-contained `AHISTCKP`
    /// container (see `hist-persist`).
    ///
    /// The inner [`Estimator`] is configuration, not state, and is *not*
    /// serialized; [`StreamingBuilder::resume`] takes it again. A build
    /// checkpointed at any split point and resumed with the same inner
    /// estimator consumes the rest of the stream into **bit-identical**
    /// output: all state is round-tripped exactly (floats as raw bits), and
    /// fitting/merging are deterministic.
    pub fn checkpoint(&self) -> Vec<u8> {
        encode_stream_checkpoint(&StreamCheckpoint {
            budget: self.budget,
            chunk_len: self.chunk_len,
            pushed: self.pushed,
            tail: self.tail.clone(),
            levels: self.levels.clone(),
        })
    }

    /// Reconstructs a builder from a [`StreamingBuilder::checkpoint`] byte
    /// container, resuming the one-pass build where it stopped.
    ///
    /// `inner` must be the same estimator configuration the original build
    /// used — it is what fits future chunks, so a different estimator yields
    /// a different (still valid) synopsis. On top of the codec's structural
    /// validation this re-checks the builder's cross-field invariants: a
    /// positive budget and chunk length, and level domains consistent with
    /// `pushed` (level `i` summarizes exactly `2^i` chunks). A tail of one
    /// chunk or more is accepted — it is the legitimate retry backlog of a
    /// build checkpointed after a failed inner fit, and the next
    /// `push`/`extend` drains it. Corrupt or hand-forged checkpoints fail
    /// with a typed error, never a panic.
    pub fn resume(inner: Box<dyn Estimator>, bytes: &[u8]) -> CodecResult<Self> {
        let checkpoint = decode_stream_checkpoint(bytes)?;
        let StreamCheckpoint { budget, chunk_len, pushed, tail, levels } = checkpoint;
        let mut builder = Self::new(inner, budget, chunk_len).map_err(CodecError::Invalid)?;
        let level_error = |rank: usize, domain: usize| {
            CodecError::Invalid(Error::InvalidParameter {
                name: "levels",
                reason: format!(
                    "level {rank} covers {domain} values but must cover chunk_len · 2^{rank}"
                ),
            })
        };
        let mut accounted = tail.len();
        for (rank, level) in levels.iter().enumerate() {
            let Some(synopsis) = level else { continue };
            // Overflow-checked chunk_len · 2^rank; a forged rank that
            // overflows usize can never match a real domain.
            let expected = 1usize
                .checked_shl(rank.min(u32::MAX as usize) as u32)
                .and_then(|chunks| chunk_len.checked_mul(chunks))
                .ok_or_else(|| level_error(rank, synopsis.domain()))?;
            if synopsis.domain() != expected {
                return Err(level_error(rank, synopsis.domain()));
            }
            accounted = accounted
                .checked_add(expected)
                .ok_or_else(|| level_error(rank, synopsis.domain()))?;
        }
        if accounted != pushed {
            return Err(CodecError::Invalid(Error::InvalidParameter {
                name: "pushed",
                reason: format!(
                    "checkpoint claims {pushed} consumed values but levels + tail cover {accounted}"
                ),
            }));
        }
        builder.levels = levels;
        builder.tail = tail;
        builder.pushed = pushed;
        Ok(builder)
    }

    /// Carries a freshly fitted chunk synopsis into the binary-counter
    /// hierarchy, merging with same-rank occupants on the way up.
    ///
    /// Plan-then-commit: all merges run against borrowed occupants first, and
    /// the hierarchy is only mutated once every merge succeeded — a mid-carry
    /// merge failure leaves the builder exactly as it was, so the caller can
    /// retry the whole chunk later.
    fn carry(&mut self, chunk: Synopsis) -> Result<()> {
        let budget = merge_budget(self.budget);
        let mut synopsis = chunk;
        let mut consumed = 0;
        for level in &self.levels {
            match level {
                None => break,
                // The occupant is older, so it forms the left chunk.
                Some(older) => {
                    synopsis = older.merge(&synopsis, budget)?;
                    consumed += 1;
                }
            }
        }
        for level in &mut self.levels[..consumed] {
            *level = None;
        }
        if consumed < self.levels.len() {
            self.levels[consumed] = Some(synopsis);
        } else {
            self.levels.push(Some(synopsis));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use hist_core::{EstimatorBuilder, GreedyMerging};

    use super::*;

    fn inner(k: usize) -> Box<dyn Estimator> {
        Box::new(GreedyMerging::new(EstimatorBuilder::new(k)))
    }

    /// An estimator that fails the next `deny` fits on command, then behaves
    /// exactly like [`GreedyMerging`]. The shared handles let a test inject a
    /// failure while the builder owns the estimator.
    struct FallibleEstimator {
        inner: GreedyMerging,
        deny: Arc<AtomicU64>,
        fits: Arc<AtomicU64>,
    }

    impl FallibleEstimator {
        /// A fallible estimator plus its `(deny, fit counter)` control
        /// handles: store `n` into `deny` to make the next `n` fits fail.
        fn with_handles(k: usize) -> (Box<dyn Estimator>, Arc<AtomicU64>, Arc<AtomicU64>) {
            let deny = Arc::new(AtomicU64::new(0));
            let fits = Arc::new(AtomicU64::new(0));
            let estimator = Self {
                inner: GreedyMerging::new(EstimatorBuilder::new(k)),
                deny: Arc::clone(&deny),
                fits: Arc::clone(&fits),
            };
            (Box::new(estimator), deny, fits)
        }
    }

    impl Estimator for FallibleEstimator {
        fn name(&self) -> &'static str {
            "fallible"
        }

        fn fit(&self, signal: &Signal) -> Result<Synopsis> {
            self.fits.fetch_add(1, Ordering::SeqCst);
            if self.deny.load(Ordering::SeqCst) > 0 {
                self.deny.fetch_sub(1, Ordering::SeqCst);
                return Err(Error::InvalidParameter {
                    name: "fallible",
                    reason: "injected fit failure".into(),
                });
            }
            self.inner.fit(signal)
        }
    }

    #[test]
    fn streaming_matches_the_signal_it_consumed() {
        let values: Vec<f64> = (0..500).map(|i| ((i / 125) % 4) as f64 * 2.0 + 1.0).collect();
        let mut stream = StreamingBuilder::new(inner(4), 4, 32).unwrap();
        stream.extend(&values).unwrap();
        assert_eq!(stream.len(), 500);
        let synopsis = stream.synopsis().unwrap();
        assert_eq!(synopsis.domain(), 500);
        assert_eq!(synopsis.estimator(), "streaming");
        assert!(synopsis.num_pieces() <= merge_budget(4));
        let signal = Signal::from_dense(values).unwrap();
        assert!(synopsis.l2_error(&signal).unwrap() < 1e-9, "exact 4-step stream");
    }

    #[test]
    fn working_memory_stays_logarithmic() {
        let mut stream = StreamingBuilder::new(inner(3), 3, 8).unwrap();
        for i in 0..4_096 {
            stream.push((i % 13) as f64).unwrap();
        }
        // 512 chunks → at most ⌈log₂ 512⌉ + 1 = 10 occupied levels.
        assert!(stream.num_partials() <= 10, "{} partials", stream.num_partials());
    }

    #[test]
    fn synopsis_is_queryable_mid_chunk() {
        let mut stream = StreamingBuilder::new(inner(2), 2, 100).unwrap();
        for i in 0..37 {
            stream.push(i as f64).unwrap();
        }
        let synopsis = stream.synopsis().unwrap();
        assert_eq!(synopsis.domain(), 37, "partial tail chunk is included");
    }

    #[test]
    fn checkpoint_resume_matches_an_uninterrupted_build() {
        let values: Vec<f64> = (0..500).map(|i| ((i * 7) % 23) as f64 * 0.5 + 1.0).collect();
        // Split points cover: mid-tail, exact chunk boundary, several full
        // levels, and the very start.
        for split in [0usize, 13, 64, 200, 333, 499] {
            let mut uninterrupted = StreamingBuilder::new(inner(4), 4, 32).unwrap();
            uninterrupted.extend(&values).unwrap();

            let mut first_half = StreamingBuilder::new(inner(4), 4, 32).unwrap();
            first_half.extend(&values[..split]).unwrap();
            let bytes = first_half.checkpoint();
            drop(first_half);
            let mut resumed = StreamingBuilder::resume(inner(4), &bytes).unwrap();
            assert_eq!(resumed.len(), split);
            resumed.extend(&values[split..]).unwrap();

            let expected = uninterrupted.synopsis().unwrap();
            let actual = resumed.synopsis().unwrap();
            assert_eq!(actual.model(), expected.model(), "split {split}");
            let bits =
                |s: &Synopsis| s.boundary_masses().iter().map(|m| m.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&actual), bits(&expected), "split {split}: boundary bits");
        }
    }

    #[test]
    fn resume_rejects_inconsistent_checkpoints() {
        let mut stream = StreamingBuilder::new(inner(3), 3, 16).unwrap();
        for i in 0..50 {
            stream.push(i as f64).unwrap();
        }
        let good = stream.checkpoint();
        assert!(StreamingBuilder::resume(inner(3), &good).is_ok());

        // Arbitrary corruption is caught (typed error, no panic).
        let mut corrupt = good.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0xFF;
        assert!(StreamingBuilder::resume(inner(3), &corrupt).is_err());
        assert!(StreamingBuilder::resume(inner(3), &[]).is_err());

        // A forged checkpoint whose books don't balance is rejected even
        // though it decodes structurally: claim one extra consumed value.
        let mut checkpoint = hist_persist::decode_stream_checkpoint(&good).unwrap();
        checkpoint.pushed += 1;
        let forged = hist_persist::encode_stream_checkpoint(&checkpoint);
        assert!(StreamingBuilder::resume(inner(3), &forged).is_err());

        // A tail of one chunk or more IS resumable: it is the legitimate
        // retry backlog of a build checkpointed after a failed inner fit.
        // The next push drains the queued chunk(s).
        let mut checkpoint = hist_persist::decode_stream_checkpoint(&good).unwrap();
        checkpoint.pushed += 16 - checkpoint.tail.len();
        checkpoint.tail = vec![1.0; 16];
        let backlogged = hist_persist::encode_stream_checkpoint(&checkpoint);
        let mut resumed = StreamingBuilder::resume(inner(3), &backlogged).unwrap();
        assert_eq!(resumed.buffered(), 16);
        resumed.push(2.0).unwrap();
        assert_eq!(resumed.buffered(), 1, "backlogged chunk drained on next push");
    }

    #[test]
    fn invalid_streams_are_rejected() {
        assert!(StreamingBuilder::new(inner(3), 0, 8).is_err());
        assert!(StreamingBuilder::new(inner(3), 3, 0).is_err());
        let mut stream = StreamingBuilder::new(inner(3), 3, 8).unwrap();
        assert!(stream.is_empty());
        assert!(stream.synopsis().is_err());
        assert!(stream.push(f64::NAN).is_err());
    }

    fn boundary_bits(s: &Synopsis) -> Vec<u64> {
        s.boundary_masses().iter().map(|m| m.to_bits()).collect()
    }

    /// The wedge regression: with the old `tail.len() == chunk_len` trigger a
    /// single failed inner fit left the tail permanently past the boundary and
    /// chunk formation never fired again. The `>=` drain retries instead.
    #[test]
    fn failed_fit_leaves_builder_resumable_not_wedged() {
        let values: Vec<f64> = (0..160).map(|i| ((i * 11) % 17) as f64).collect();
        let (fallible, deny, _fits) = FallibleEstimator::with_handles(4);
        let mut stream = StreamingBuilder::new(fallible, 4, 16).unwrap();
        stream.extend(&values[..15]).unwrap();

        // The 16th value completes a chunk whose fit is denied: the push
        // errors, but the value is consumed and the chunk stays queued.
        deny.store(1, Ordering::SeqCst);
        assert!(stream.push(values[15]).is_err());
        assert_eq!(stream.len(), 16, "failed value is consumed, not lost");
        assert_eq!(stream.buffered(), 16, "failed chunk stays queued");
        assert_eq!(stream.num_partials(), 0, "hierarchy untouched by the failure");

        // The next push retries the queued chunk (old `==` trigger: wedged
        // forever — tail 17 never equals 16 again).
        stream.push(values[16]).unwrap();
        assert_eq!(stream.buffered(), 1, "backlog drained on retry");
        assert_eq!(stream.num_partials(), 1);

        stream.extend(&values[17..]).unwrap();
        assert_eq!(stream.len(), values.len());

        // Once recovered, state and output are bit-identical to a build that
        // never failed: boundaries stayed aligned to chunk_len multiples.
        let mut clean = StreamingBuilder::new(inner(4), 4, 16).unwrap();
        clean.extend(&values).unwrap();
        assert_eq!(
            boundary_bits(&stream.synopsis().unwrap()),
            boundary_bits(&clean.synopsis().unwrap()),
        );
    }

    /// Checkpoint invariants hold across an injected failure: the wedged
    /// state round-trips through checkpoint/resume and finishes the stream
    /// bit-identically to an uninterrupted build.
    #[test]
    fn checkpoint_after_failed_fit_resumes_bit_identically() {
        let values: Vec<f64> = (0..96).map(|i| ((i * 7) % 23) as f64 * 0.5).collect();
        let (fallible, deny, _fits) = FallibleEstimator::with_handles(3);
        let mut stream = StreamingBuilder::new(fallible, 3, 16).unwrap();
        stream.extend(&values[..31]).unwrap();
        deny.store(1, Ordering::SeqCst);
        assert!(stream.push(values[31]).is_err());
        assert_eq!(stream.len(), 32);
        assert_eq!(stream.buffered(), 16);

        // pushed / tail / levels all survive the round trip from the
        // post-failure state.
        let bytes = stream.checkpoint();
        let mut resumed = StreamingBuilder::resume(inner(3), &bytes).unwrap();
        assert_eq!(resumed.len(), 32);
        assert_eq!(resumed.buffered(), 16);
        resumed.extend(&values[32..]).unwrap();

        let mut clean = StreamingBuilder::new(inner(3), 3, 16).unwrap();
        clean.extend(&values).unwrap();
        assert_eq!(
            boundary_bits(&resumed.synopsis().unwrap()),
            boundary_bits(&clean.synopsis().unwrap()),
        );
    }

    /// `extend` consumes all or nothing: a non-finite value anywhere rejects
    /// the whole slice untouched; a mid-slice fit failure still consumes
    /// every value (queued for retry) and reports the error.
    #[test]
    fn extend_failure_semantics_are_all_or_nothing() {
        // Non-finite anywhere → typed error, nothing consumed.
        let mut stream = StreamingBuilder::new(inner(3), 3, 8).unwrap();
        stream.extend(&[1.0, 2.0, 3.0]).unwrap();
        assert!(stream.extend(&[4.0, f64::NAN, 6.0]).is_err());
        assert_eq!(stream.len(), 3, "rejected slice is not consumed at all");
        assert_eq!(stream.buffered(), 3);

        // Mid-slice fit failure → error reported, but the whole slice is
        // consumed and the failed chunk is queued for retry.
        let values: Vec<f64> = (0..40).map(|i| (i % 5) as f64).collect();
        let (fallible, deny, fits) = FallibleEstimator::with_handles(3);
        let mut stream = StreamingBuilder::new(fallible, 3, 8).unwrap();
        deny.store(1, Ordering::SeqCst);
        assert!(stream.extend(&values).is_err());
        assert_eq!(stream.len(), 40, "whole slice consumed despite the error");
        assert_eq!(stream.buffered(), 40, "first chunk's failure queues the rest");
        assert_eq!(fits.load(Ordering::SeqCst), 1, "drain stops at the failed chunk");

        // An empty retry nudge via extend(&[]) drains the full backlog.
        stream.extend(&[]).unwrap();
        assert_eq!(stream.buffered(), 0);
        let mut clean = StreamingBuilder::new(inner(3), 3, 8).unwrap();
        clean.extend(&values).unwrap();
        assert_eq!(
            boundary_bits(&stream.synopsis().unwrap()),
            boundary_bits(&clean.synopsis().unwrap()),
        );
    }

    /// `extend_collecting_chunks` taps exactly the chunks that were carried,
    /// oldest first, and matches what a serving store would need to merge.
    #[test]
    fn extend_collecting_chunks_reports_each_carried_chunk() {
        let values: Vec<f64> = (0..50).map(|i| ((i / 10) % 3) as f64 + 1.0).collect();
        let mut stream = StreamingBuilder::new(inner(3), 3, 16).unwrap();
        let mut chunks = Vec::new();
        stream.extend_collecting_chunks(&values, &mut Some(&mut chunks)).unwrap();
        assert_eq!(chunks.len(), 3, "50 values / 16 per chunk → 3 full chunks");
        assert!(chunks.iter().all(|c| c.domain() == 16));
        assert_eq!(stream.buffered(), 2);
    }
}
