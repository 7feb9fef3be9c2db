//! The unified input abstraction of the estimation API.
//!
//! Every construction algorithm in the workspace consumes a one-dimensional
//! discrete signal, but callers hold that signal in different shapes: a sparse
//! function, a dense vector, a borrowed slice, or a multiset of i.i.d. samples
//! from an unknown distribution. [`Signal`] unifies those shapes behind cheap
//! conversions so that a single [`Estimator::fit`](crate::Estimator::fit)
//! entry point serves them all.
//!
//! The merging estimators read a signal's exact initial segmentation straight
//! from whichever representation it stores (one point per dense value, or the
//! sparse entries and the zero runs between them), so a fit converts neither
//! view into the other.

use std::borrow::Cow;

use crate::error::{Error, Result};
use crate::segment::Segments;
use crate::sparse::{validate_dense, SparseFunction};

#[derive(Debug, Clone, PartialEq)]
enum Repr {
    Sparse(SparseFunction),
    Dense(Vec<f64>),
}

/// A discrete signal `q : [0, n) → ℝ`, the input of every
/// [`Estimator`](crate::Estimator).
///
/// A `Signal` is either sparse or dense internally; both views are available
/// through [`Signal::as_sparse`] and [`Signal::dense_values`], with the
/// conversion performed lazily (borrowing when the requested view matches the
/// stored representation). Signals built from an empirical sample multiset via
/// [`Signal::from_samples`] additionally remember the sample count, which
/// sampling-based estimators use to skip their own sampling stage.
#[derive(Debug, Clone, PartialEq)]
pub struct Signal {
    repr: Repr,
    num_samples: Option<usize>,
}

impl Signal {
    /// Wraps a sparse function.
    pub fn from_sparse(q: SparseFunction) -> Self {
        Self { repr: Repr::Sparse(q), num_samples: None }
    }

    /// Wraps a dense vector of finite values.
    pub fn from_dense(values: Vec<f64>) -> Result<Self> {
        validate_dense(&values, "Signal::from_dense")?;
        Ok(Self { repr: Repr::Dense(values), num_samples: None })
    }

    /// Copies a dense slice of finite values.
    pub fn from_slice(values: &[f64]) -> Result<Self> {
        Self::from_dense(values.to_vec())
    }

    /// Builds the empirical distribution `p̂_m` of a sample multiset over
    /// `[0, domain)`: the value at index `i` is `c_i as f64 / m as f64`, where
    /// `c_i` counts the samples equal to `i` (one division per distinct
    /// value, so `p̂_m` has the same bits however the samples are ordered).
    /// The resulting signal is at most `m`-sparse; building it sorts a copy of
    /// the samples, `O(m log m)`.
    pub fn from_samples(domain: usize, samples: &[usize]) -> Result<Self> {
        if samples.is_empty() {
            return Err(Error::InvalidParameter {
                name: "samples",
                reason: "at least one sample is required".into(),
            });
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let m = sorted.len() as f64;
        let entries: Vec<(usize, f64)> =
            sorted.chunk_by(|a, b| a == b).map(|run| (run[0], run.len() as f64 / m)).collect();
        let sparse = SparseFunction::new(domain, entries)?;
        Ok(Self { repr: Repr::Sparse(sparse), num_samples: Some(samples.len()) })
    }

    /// Size `n` of the domain `[0, n)`.
    pub fn domain(&self) -> usize {
        match &self.repr {
            Repr::Sparse(q) => q.domain(),
            Repr::Dense(f) => f.len(),
        }
    }

    /// The number of samples behind this signal, when it was built via
    /// [`Signal::from_samples`].
    #[inline]
    pub fn num_samples(&self) -> Option<usize> {
        self.num_samples
    }

    /// Whether the stored representation is sparse.
    pub(crate) fn is_sparse(&self) -> bool {
        matches!(self.repr, Repr::Sparse(_))
    }

    /// The sparse view of the signal. Borrows when the signal is stored
    /// sparse; otherwise converts the dense vector into an `n`-sparse function
    /// (keeping zeros, matching the paper's offline setting).
    pub fn as_sparse(&self) -> Cow<'_, SparseFunction> {
        match &self.repr {
            Repr::Sparse(q) => Cow::Borrowed(q),
            Repr::Dense(f) => Cow::Owned(
                SparseFunction::from_dense_keep_zeros(f)
                    .expect("dense signals are validated at construction"),
            ),
        }
    }

    /// The merging algorithms' exact initial segmentation, read from the
    /// stored representation as the rounds need it (no copy of either view).
    pub(crate) fn segments(&self) -> Segments<'_> {
        match &self.repr {
            Repr::Sparse(q) => Segments::Sparse(q),
            Repr::Dense(f) => Segments::Dense(f),
        }
    }

    /// The dense view of the signal. Borrows when the signal is stored dense.
    pub fn dense_values(&self) -> Cow<'_, [f64]> {
        match &self.repr {
            Repr::Sparse(q) => Cow::Owned(q.to_dense()),
            Repr::Dense(f) => Cow::Borrowed(f),
        }
    }

    /// Squared `ℓ₂` norm of the signal.
    pub fn l2_norm_squared(&self) -> f64 {
        match &self.repr {
            Repr::Sparse(q) => q.sum_squares(),
            Repr::Dense(f) => f.iter().map(|v| v * v).sum(),
        }
    }
}

impl From<SparseFunction> for Signal {
    fn from(q: SparseFunction) -> Self {
        Self::from_sparse(q)
    }
}

impl TryFrom<Vec<f64>> for Signal {
    type Error = Error;

    fn try_from(values: Vec<f64>) -> Result<Self> {
        Self::from_dense(values)
    }
}

impl TryFrom<&[f64]> for Signal {
    type Error = Error;

    fn try_from(values: &[f64]) -> Result<Self> {
        Self::from_slice(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::Segment;

    #[test]
    fn dense_and_sparse_views_agree() {
        let values = vec![0.0, 1.5, 0.0, 2.5];
        let dense = Signal::from_slice(&values).unwrap();
        let sparse = Signal::from_sparse(SparseFunction::from_dense_keep_zeros(&values).unwrap());
        assert_eq!(dense.domain(), 4);
        assert_eq!(dense.dense_values().as_ref(), &values[..]);
        assert_eq!(sparse.dense_values().as_ref(), &values[..]);
        assert_eq!(dense.as_sparse().as_ref(), sparse.as_sparse().as_ref());
        assert!(!dense.is_sparse());
        assert!(sparse.is_sparse());
        assert_eq!(dense.dense_values().iter().sum::<f64>(), 4.0);
        assert_eq!(dense.l2_norm_squared(), 1.5 * 1.5 + 2.5 * 2.5);
    }

    /// The segments the rounds read are the exact segmentation a walk over
    /// the domain finds, bit for bit.
    #[test]
    fn segments_match_a_walk_over_the_domain() {
        let cases = [
            (1, vec![]),
            (1, vec![(0, -0.0)]),
            (9, vec![]),
            (9, vec![(0, 2.0)]),
            (9, vec![(8, -3.0)]),
            (9, vec![(0, 1.0), (8, 4.0)]),
            (9, vec![(2, 1.0), (3, 0.0), (4, -0.0), (7, 5.0)]),
            (9, (0..9).map(|i| (i, i as f64)).collect()),
        ];
        let bits = |segs: &[Segment]| -> Vec<_> {
            segs.iter().map(|s| (s.end, s.sum.to_bits(), s.sum_sq.to_bits())).collect()
        };
        // A point per entry and one zero run per maximal stretch without one.
        let walk = |q: &SparseFunction| {
            let (mut segments, mut in_run) = (Vec::new(), false);
            let mut entries = q.entries().iter().peekable();
            for i in 0..q.domain() {
                match entries.next_if(|&&(j, _)| j == i) {
                    Some(&(_, v)) => {
                        if std::mem::take(&mut in_run) {
                            segments.push(Segment::zero(i - 1));
                        }
                        segments.push(Segment::point(i, v));
                    }
                    None => in_run = true,
                }
            }
            if in_run {
                segments.push(Segment::zero(q.domain() - 1));
            }
            segments
        };
        let read = |signal: &Signal| signal.segments().iter().collect::<Vec<_>>();
        for (domain, entries) in cases {
            let q = SparseFunction::new(domain, entries).unwrap();
            let signal = Signal::from_sparse(q.clone());
            let want = walk(&q);
            assert_eq!(bits(&read(&signal)), bits(&want), "{q:?}");
            assert_eq!(signal.segments().len(), want.len(), "{q:?}");
        }

        let values = vec![0.0, -1.5, 0.0, 2.5, -0.0];
        let dense = Signal::from_slice(&values).unwrap();
        let points: Vec<_> =
            values.iter().enumerate().map(|(i, &v)| Segment::point(i, v)).collect();
        assert_eq!(bits(&read(&dense)), bits(&points));
        assert_eq!(dense.segments().len(), values.len());
    }

    #[test]
    fn samples_become_the_empirical_distribution() {
        let signal = Signal::from_samples(10, &[3, 7, 3, 1, 3]).unwrap();
        assert_eq!(signal.num_samples(), Some(5));
        assert_eq!(signal.domain(), 10);
        assert_eq!(signal.as_sparse().entries(), &[(1, 1.0 / 5.0), (3, 3.0 / 5.0), (7, 1.0 / 5.0)]);
        assert!((signal.as_sparse().sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dense_function_basics() {
        let f = Signal::from_dense(vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(f.domain(), 3);
        assert_eq!(f.dense_values().as_ref(), &[1.0, 2.0, 3.0]);
        assert_eq!(f.dense_values().iter().sum::<f64>(), 6.0);
    }

    #[test]
    fn rejects_empty_and_non_finite() {
        assert!(matches!(Signal::from_dense(vec![]), Err(Error::EmptyDomain)));
        for bad in [vec![1.0, f64::NAN], vec![f64::INFINITY]] {
            assert!(matches!(
                Signal::from_dense(bad),
                Err(Error::NonFiniteValue { context: "Signal::from_dense" })
            ));
        }
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        assert!(Signal::from_dense(vec![]).is_err());
        assert!(Signal::from_dense(vec![f64::NAN]).is_err());
        assert!(matches!(Signal::from_samples(10, &[]), Err(Error::InvalidParameter { .. })));
        assert!(matches!(
            Signal::from_samples(5, &[1, 5]),
            Err(Error::IndexOutOfRange { index: 5, domain: 5 })
        ));
        assert!(matches!(Signal::from_samples(0, &[0]), Err(Error::EmptyDomain)));
    }

    #[test]
    fn conversions_from_std_types() {
        let signal: Signal = vec![1.0, 2.0].try_into().unwrap();
        assert_eq!(signal.domain(), 2);
        let slice: &[f64] = &[3.0, 4.0, 5.0];
        let signal: Signal = slice.try_into().unwrap();
        assert_eq!(signal.domain(), 3);
    }
}
