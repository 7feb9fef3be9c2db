//! Deterministic synthetic event sources for driving the pipeline.
//!
//! An [`EventSource`] is an unbounded value stream with a *position*: reading
//! advances it, [`EventSource::seek`] rewinds or fast-forwards it, and the
//! value at every index is a pure function of the source's block — so a
//! resumed ingester (see [`crate::MetricPipeline::resume_cumulative`]) can
//! seek to the checkpoint's consumed-event count and replay the exact stream
//! suffix an uninterrupted run would have seen. That determinism is what the
//! pipeline's bit-identity guarantees (and tests) are built on.

use hist_core::{is_admitted, Error, Result};
use hist_datasets::{gaussian_mixture, zipf_frequencies};

/// An unbounded, seekable, deterministic event stream: a finite block of
/// finite values cycled forever. `value(i) = block[i mod block_len]`.
#[derive(Debug, Clone)]
pub struct EventSource {
    name: String,
    block: Vec<f64>,
    position: usize,
}

impl EventSource {
    /// A source cycling `block` forever, starting at position 0. The block
    /// must be non-empty and every value admitted ([`hist_core::is_admitted`]):
    /// the builders downstream reject any other value, and a cycled one
    /// would poison every lap.
    pub fn from_block(name: impl Into<String>, block: Vec<f64>) -> Result<Self> {
        if block.is_empty() {
            return Err(Error::InvalidParameter {
                name: "block",
                reason: "an event source needs at least one value to cycle".into(),
            });
        }
        if !block.iter().copied().all(is_admitted) {
            return Err(Error::NonFiniteValue { context: "EventSource::from_block" });
        }
        Ok(Self { name: name.into(), block, position: 0 })
    }

    /// A telemetry-shaped synthetic source, deterministic per `(seed,
    /// block_len)`: a Zipf frequency column (a few heavy hitters scattered
    /// over the domain — the paper's motivating workload) superimposed on a
    /// smooth two-mode Gaussian mixture (the diurnal bulk), both from
    /// `hist-datasets`. Different seeds give genuinely different streams:
    /// the Zipf ranks are re-shuffled and the mixture modes shift.
    pub fn synthetic(name: impl Into<String>, seed: u64, block_len: usize) -> Result<Self> {
        let n = block_len.max(1);
        let exponent = 1.02 + (seed % 5) as f64 * 0.04;
        let zipf = zipf_frequencies(n, exponent, 100.0 * n as f64, seed);
        // Mode centres wander with the seed so no two metrics are aligned.
        let shift = (seed % 10) as f64 * 0.03;
        let mix = gaussian_mixture(n, &[(0.6, 0.25 + shift, 0.08), (0.4, 0.65 + shift, 0.12)]);
        let block: Vec<f64> = zipf
            .iter()
            .zip(&mix)
            // The mixture is a density (O(1/n) values); rescale to O(1..100)
            // so both layers register in the fitted histogram.
            .map(|(&z, &m)| (z + 50.0 * m * n as f64).max(0.0))
            .collect();
        Self::from_block(name, block)
    }

    /// The metric name this source feeds (also used as the store key by
    /// convention).
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The current stream position: how many values have been read (or the
    /// index set by the last [`EventSource::seek`]).
    #[inline]
    pub fn position(&self) -> usize {
        self.position
    }

    /// Length of the cycled block.
    #[inline]
    pub fn block_len(&self) -> usize {
        self.block.len()
    }

    /// Jumps to absolute stream position `position` — the resume primitive:
    /// a restarted ingester seeks to its checkpoint's consumed-event count
    /// and continues on the identical stream suffix.
    #[inline]
    pub fn seek(&mut self, position: usize) {
        self.position = position;
    }

    /// The value at absolute stream index `index`, without moving the
    /// position.
    #[inline]
    pub fn value_at(&self, index: usize) -> f64 {
        self.block[index % self.block.len()]
    }

    /// Reads the next `n` values into `out` (cleared first), advancing the
    /// position.
    pub fn next_batch(&mut self, n: usize, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(n);
        for i in 0..n {
            out.push(self.value_at(self.position + i));
        }
        self.position += n;
    }

    /// The first `n` values of the stream — the exact reference signal an
    /// acceptance test compares served answers against.
    pub fn prefix(&self, n: usize) -> Vec<f64> {
        (0..n).map(|i| self.value_at(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_are_deterministic_and_seekable() {
        let mut a = EventSource::synthetic("m", 7, 512).unwrap();
        let mut b = EventSource::synthetic("m", 7, 512).unwrap();
        let (mut batch_a, mut batch_b, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
        a.next_batch(1_000, &mut batch_a);
        b.next_batch(700, &mut batch_b);
        b.next_batch(300, &mut scratch); // advance b to 1000 too
        assert_eq!(a.position(), 1_000);
        assert_eq!(b.position(), 1_000);

        // Seek replays the identical suffix.
        a.seek(400);
        b.seek(400);
        a.next_batch(200, &mut batch_a);
        b.next_batch(200, &mut batch_b);
        assert_eq!(batch_a, batch_b);

        // prefix(n) equals reading n from position 0.
        a.seek(0);
        a.next_batch(600, &mut batch_a);
        assert_eq!(batch_a, a.prefix(600));
    }

    #[test]
    fn different_seeds_differ_and_values_are_finite_nonnegative() {
        let a = EventSource::synthetic("a", 1, 256).unwrap();
        let b = EventSource::synthetic("b", 2, 256).unwrap();
        assert_ne!(a.prefix(256), b.prefix(256));
        assert!(a.prefix(1_000).iter().all(|v| v.is_finite() && *v >= 0.0));
    }

    #[test]
    fn hostile_blocks_are_rejected() {
        assert!(EventSource::from_block("empty", vec![]).is_err());
        assert!(EventSource::from_block("nan", vec![1.0, f64::NAN]).is_err());
    }
}
