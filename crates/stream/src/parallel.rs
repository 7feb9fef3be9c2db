//! Parallel chunked construction: fit chunks on scoped worker threads,
//! tree-merge the results.
//!
//! [`ParallelChunkedFitter`] is [`ChunkedFitter`] with
//! the per-chunk fits actually running concurrently on
//! [`std::thread::scope`] workers (no external thread-pool dependency). The
//! chunking, the per-chunk estimator and the merge tree are *identical* to
//! the sequential fitter, and the worker partition is deterministic
//! (contiguous blocks of chunks, joined in order), so the fitted output is
//! **bit-identical** to [`ChunkedFitter`] for the same
//! chunk length — thread count only changes how construction is scheduled,
//! never what it produces. That equivalence is what the workspace-level
//! determinism suite asserts across 1, 2 and 8 threads.

use std::num::NonZeroUsize;

use hist_core::{Error, Estimator, Result, Signal, Synopsis};

use crate::chunked::merge_fitted_chunks;
use crate::ChunkedFitter;

/// Fit-per-chunk, merge-in-a-tree construction with the chunk fits sharded
/// across scoped worker threads.
///
/// Wraps any inner [`Estimator`] (`Send + Sync` is a supertrait, so every
/// estimator can fit chunks from worker threads). `fit` splits the
/// signal's dense view into contiguous chunks exactly like the sequential
/// [`ChunkedFitter`], distributes the chunks over up to
/// `threads` workers in contiguous blocks, joins the per-chunk synopses back
/// in domain order and tree-merges them down to `2k + 1` pieces.
///
/// ```
/// use hist_core::{Estimator, EstimatorBuilder, GreedyMerging, Signal};
/// use hist_stream::{ChunkedFitter, ParallelChunkedFitter};
///
/// let values: Vec<f64> = (0..600).map(|i| ((i / 150) % 3) as f64 + 1.0).collect();
/// let signal = Signal::from_dense(values).unwrap();
/// let builder = EstimatorBuilder::new(6);
///
/// let sequential = ChunkedFitter::new(Box::new(GreedyMerging::new(builder)), 6)
///     .with_chunk_len(75)
///     .fit(&signal)
///     .unwrap();
/// let parallel = ParallelChunkedFitter::new(Box::new(GreedyMerging::new(builder)), 6)
///     .with_chunk_len(75)
///     .with_threads(4)
///     .fit(&signal)
///     .unwrap();
///
/// // Same chunking ⇒ bit-identical pieces, whatever the thread count.
/// assert_eq!(parallel.model(), sequential.model());
/// assert_eq!(parallel.domain(), 600);
/// ```
pub struct ParallelChunkedFitter {
    /// The sequential fitter this one must reproduce bit for bit. Chunking,
    /// per-chunk fitting, validation and the merge tail all delegate to it,
    /// so the equivalence holds by construction — the only parallel-specific
    /// state is the worker count.
    sequential: ChunkedFitter,
    threads: Option<usize>,
}

impl ParallelChunkedFitter {
    /// A parallel chunked fitter with piece budget `budget`, fitting every
    /// chunk with `inner`, using the heuristic chunk length
    /// ([`default_chunk_len`](crate::default_chunk_len)) and one worker per
    /// available CPU.
    pub fn new(inner: Box<dyn Estimator>, budget: usize) -> Self {
        Self { sequential: ChunkedFitter::new(inner, budget), threads: None }
    }

    /// Overrides the chunk length (number of signal values per chunk).
    pub fn with_chunk_len(mut self, chunk_len: usize) -> Self {
        self.sequential = self.sequential.with_chunk_len(chunk_len);
        self
    }

    /// Overrides the worker-thread count. `1` degrades to a fully sequential
    /// fit on the calling thread; the output is the same either way.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// The piece budget `k` of the merged output.
    #[inline]
    pub fn budget(&self) -> usize {
        self.sequential.budget()
    }

    /// The worker count a fit over `chunks` chunks will actually use: the
    /// configured thread count (or the available parallelism when unset),
    /// capped at one worker per chunk.
    fn worker_count(&self, chunks: usize) -> usize {
        let configured = self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
        });
        configured.min(chunks).max(1)
    }

    /// Fits every chunk independently — concurrently, on scoped worker
    /// threads — and returns the per-chunk synopses in domain order, exactly
    /// as the sequential
    /// [`ChunkedFitter::fit_chunks`](crate::ChunkedFitter::fit_chunks) would.
    pub fn fit_chunks(&self, signal: &Signal) -> Result<Vec<Synopsis>> {
        self.validate()?;
        let values = signal.dense_values();
        let chunks: Vec<&[f64]> =
            values.chunks(self.sequential.chunk_len_for(values.len())).collect();
        let workers = self.worker_count(chunks.len());
        if workers <= 1 {
            return self.sequential.fit_chunks(signal);
        }
        // Contiguous blocks of chunks per worker: the calling thread fits the
        // first block while `workers - 1` spawned threads fit the rest, and
        // the blocks are joined in order. The flattened result is in domain
        // order regardless of which worker finishes first, and any error
        // surfaces as the *first* failing chunk — the same one the
        // sequential fitter would report.
        let block = chunks.len().div_ceil(workers);
        let fit_block = |group: &[&[f64]]| -> Vec<Result<Synopsis>> {
            group.iter().map(|chunk| self.sequential.fit_one(chunk)).collect()
        };
        let (first, rest) = chunks.split_at(block);
        let fits: Vec<Result<Synopsis>> = std::thread::scope(|scope| {
            let handles: Vec<_> =
                rest.chunks(block).map(|group| scope.spawn(move || fit_block(group))).collect();
            let mut fits = fit_block(first);
            for handle in handles {
                fits.extend(handle.join().expect("chunk-fit worker panicked"));
            }
            fits
        });
        fits.into_iter().collect()
    }

    fn validate(&self) -> Result<()> {
        self.sequential.validate()?;
        if self.threads == Some(0) {
            return Err(Error::InvalidParameter {
                name: "threads",
                reason: "parallel construction needs at least one worker thread".into(),
            });
        }
        Ok(())
    }
}

impl Estimator for ParallelChunkedFitter {
    fn name(&self) -> &'static str {
        "parallel-chunked"
    }

    fn fit(&self, signal: &Signal) -> Result<Synopsis> {
        let chunks = self.fit_chunks(signal)?;
        merge_fitted_chunks(self.name(), self.budget(), chunks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChunkedFitter;
    use hist_core::{EstimatorBuilder, GreedyMerging};

    fn step_signal(n: usize) -> Signal {
        let values: Vec<f64> = (0..n).map(|i| ((i / (n / 4).max(1)) % 4) as f64 + 1.0).collect();
        Signal::from_dense(values).unwrap()
    }

    fn parallel(k: usize) -> ParallelChunkedFitter {
        ParallelChunkedFitter::new(Box::new(GreedyMerging::new(EstimatorBuilder::new(k))), k)
    }

    fn sequential(k: usize) -> ChunkedFitter {
        ChunkedFitter::new(Box::new(GreedyMerging::new(EstimatorBuilder::new(k))), k)
    }

    #[test]
    fn parallel_fit_matches_sequential_bit_for_bit() {
        let signal = step_signal(400);
        for chunk_len in [1usize, 7, 50, 400] {
            let seq = sequential(4).with_chunk_len(chunk_len).fit(&signal).unwrap();
            for threads in [1usize, 2, 3, 8, 64] {
                let par = parallel(4)
                    .with_chunk_len(chunk_len)
                    .with_threads(threads)
                    .fit(&signal)
                    .unwrap();
                assert_eq!(
                    par.model(),
                    seq.model(),
                    "chunk_len {chunk_len} / {threads} threads diverged"
                );
                assert_eq!(par.target_k(), seq.target_k());
                assert_eq!(par.estimator(), "parallel-chunked");
            }
        }
    }

    #[test]
    fn fit_chunks_preserves_domain_order() {
        let signal = step_signal(400);
        let seq = sequential(4).with_chunk_len(100).fit_chunks(&signal).unwrap();
        let par = parallel(4).with_chunk_len(100).with_threads(3).fit_chunks(&signal).unwrap();
        assert_eq!(par.len(), 4);
        for (p, s) in par.iter().zip(&seq) {
            assert_eq!(p.model(), s.model());
        }
    }

    #[test]
    fn worker_count_is_capped_by_chunks() {
        let fitter = parallel(4).with_threads(16);
        assert_eq!(fitter.worker_count(3), 3);
        assert_eq!(fitter.worker_count(100), 16);
        assert_eq!(fitter.worker_count(0), 1);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let signal = step_signal(16);
        assert!(parallel(0).fit(&signal).is_err());
        assert!(parallel(3).with_chunk_len(0).fit(&signal).is_err());
        assert!(parallel(3).with_threads(0).fit(&signal).is_err());
    }
}
