//! The unified estimation API: one trait every construction algorithm in the
//! workspace implements, and one builder that configures them all.
//!
//! ```text
//!   Signal  ──► Estimator::fit ──► Synopsis ──► mass / cdf / quantile / …
//! ```
//!
//! The [`Estimator`] trait is object safe, so harnesses (benches, servers,
//! examples) dispatch over `&dyn Estimator` and treat every algorithm — the
//! merging algorithms and the polynomial fitter here, the exact DPs in
//! `hist-baselines`, the sample learners in `hist-sampling` — uniformly.
//! [`EstimatorBuilder`] subsumes the per-algorithm parameters (`MergingParams`
//! and the learners' `ε`, `δ`, sample count and seed) behind one
//! builder-style surface; each adapter reads the knobs it cares about and
//! ignores the rest.

use crate::construct::merge_segments;
use crate::error::{Error, Result};
use crate::fast::merge_groups;
use crate::hierarchical::{hierarchy, histogram_for_k, HierarchicalHistogram};
use crate::interval::Interval;
use crate::params::MergingParams;
use crate::piecewise_poly::{fit_polynomial, PiecewisePolynomial};
use crate::segment::{segments_to_histogram, with_starts, Segments};
use crate::select::{keep_threshold, SelectBuffers};
use crate::signal::Signal;
use crate::synopsis::{FittedModel, Synopsis};

/// A fitting algorithm: consumes a [`Signal`], produces a query-ready
/// [`Synopsis`].
///
/// Implementations must be deterministic given their configuration (estimators
/// with internal randomness derive it from [`EstimatorBuilder::seed`]), and
/// thread-safe: `Send + Sync` is a supertrait, so a `Box<dyn Estimator>` can
/// be shared by parallel construction workers and shipped to background
/// threads. Estimators are configuration plus pure fitting logic — no
/// interior mutability — so this costs implementations nothing.
pub trait Estimator: Send + Sync {
    /// Short algorithm name, as used in the paper's tables (`merging`,
    /// `exactdp`, `dual`, …).
    fn name(&self) -> &'static str;

    /// Fits the model to the signal.
    fn fit(&self, signal: &Signal) -> Result<Synopsis>;
}

impl<E: Estimator + ?Sized> Estimator for &E {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn fit(&self, signal: &Signal) -> Result<Synopsis> {
        (**self).fit(signal)
    }
}

impl<E: Estimator + ?Sized> Estimator for Box<E> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn fit(&self, signal: &Signal) -> Result<Synopsis> {
        (**self).fit(signal)
    }
}

/// One builder for every estimator in the workspace.
///
/// The defaults reproduce the paper's experimental parameterization
/// (`δ = 1000`, `γ = 1` for the merging algorithms; `ε = 0.05`, failure
/// probability `0.1` for the learners). Knobs irrelevant to a given algorithm
/// are simply ignored by its adapter, so one builder can configure a whole
/// fleet of estimators for a comparison run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorBuilder {
    k: usize,
    merge_delta: f64,
    merge_gamma: f64,
    degree: usize,
    epsilon: f64,
    fail_prob: f64,
    samples: Option<usize>,
    seed: u64,
    chunk_len: Option<usize>,
    threads: Option<usize>,
}

impl EstimatorBuilder {
    /// A builder targeting `k` output pieces, with the paper's defaults for
    /// everything else.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            merge_delta: 1000.0,
            merge_gamma: 1.0,
            degree: 2,
            epsilon: 0.05,
            fail_prob: 0.1,
            samples: None,
            seed: 2015,
            chunk_len: None,
            threads: None,
        }
    }

    /// The linear-time parameterization of Corollary 3.1 (`δ = 1`,
    /// `γ = (2 + 2/δ)k`): guaranteed `O(s)` merging time for every `k`.
    pub fn linear_time(k: usize) -> Self {
        let delta = 1.0;
        Self::new(k).merge_delta(delta).merge_gamma((2.0 + 2.0 / delta) * k as f64)
    }

    /// Retargets the builder to a different piece budget `k`.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the merging trade-off `δ` (approximation ratio vs output pieces).
    pub fn merge_delta(mut self, delta: f64) -> Self {
        self.merge_delta = delta;
        self
    }

    /// Sets the merging trade-off `γ` (running time vs output pieces).
    pub fn merge_gamma(mut self, gamma: f64) -> Self {
        self.merge_gamma = gamma;
        self
    }

    /// Sets the per-piece polynomial degree `d` (piecewise-poly estimators).
    pub fn degree(mut self, degree: usize) -> Self {
        self.degree = degree;
        self
    }

    /// Sets the additive accuracy `ε` of the sample learners.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the failure probability `δ` of the sample learners.
    pub fn fail_prob(mut self, fail_prob: f64) -> Self {
        self.fail_prob = fail_prob;
        self
    }

    /// Overrides the learners' sample size (instead of the `ε`-derived bound).
    pub fn samples(mut self, m: usize) -> Self {
        self.samples = Some(m);
        self
    }

    /// Sets the deterministic seed used by randomized estimators.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the chunk length of the chunked/streaming estimators (`hist-stream`):
    /// how many signal values each per-chunk sub-fit covers. Unset means the
    /// fitter picks a heuristic chunk length from the domain size.
    pub fn chunk_len(mut self, len: usize) -> Self {
        self.chunk_len = Some(len);
        self
    }

    /// Target number of pieces `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Per-piece polynomial degree `d`.
    #[inline]
    pub fn poly_degree(&self) -> usize {
        self.degree
    }

    /// Additive learner accuracy `ε`.
    #[inline]
    pub fn learner_epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Learner failure probability `δ`.
    #[inline]
    pub fn learner_fail_prob(&self) -> f64 {
        self.fail_prob
    }

    /// Explicit learner sample size, when overridden.
    #[inline]
    pub fn sample_size_override(&self) -> Option<usize> {
        self.samples
    }

    /// Deterministic seed for randomized estimators.
    #[inline]
    pub fn seed_value(&self) -> u64 {
        self.seed
    }

    /// Sets the worker-thread count of the parallel estimators (`hist-stream`'s
    /// `ParallelChunkedFitter`). Unset means one worker per available CPU.
    /// Thread count never changes the fitted output — parallel fits are
    /// bit-identical to sequential ones — only how construction is scheduled.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Explicit chunk length for the chunked/streaming estimators, when set.
    #[inline]
    pub fn chunk_len_value(&self) -> Option<usize> {
        self.chunk_len
    }

    /// Explicit worker-thread count for the parallel estimators, when set.
    #[inline]
    pub fn threads_value(&self) -> Option<usize> {
        self.threads
    }

    /// The validated [`MergingParams`] this builder describes.
    pub fn merging_params(&self) -> Result<MergingParams> {
        MergingParams::new(self.k, self.merge_delta, self.merge_gamma)
    }

    /// Validates the knobs shared by every estimator (`k ≥ 1` and, for the
    /// learners, `ε > 0`, `0 < δ < 1`).
    pub fn validate(&self) -> Result<()> {
        self.merging_params()?;
        if !self.epsilon.is_finite() || self.epsilon <= 0.0 {
            return Err(Error::InvalidParameter {
                name: "epsilon",
                reason: format!("must be a positive finite number, got {}", self.epsilon),
            });
        }
        if !(0.0..1.0).contains(&self.fail_prob) || self.fail_prob == 0.0 {
            return Err(Error::InvalidParameter {
                name: "fail_prob",
                reason: format!("must lie in (0, 1), got {}", self.fail_prob),
            });
        }
        if self.chunk_len == Some(0) {
            return Err(Error::InvalidParameter {
                name: "chunk_len",
                reason: "chunks must cover at least one value".into(),
            });
        }
        if self.threads == Some(0) {
            return Err(Error::InvalidParameter {
                name: "threads",
                reason: "parallel construction needs at least one worker thread".into(),
            });
        }
        Ok(())
    }
}

/// Algorithm 1 (iterative greedy pair merging) as an [`Estimator`]:
/// `(2 + 2/δ)k + γ` pieces, error `≤ √(1+δ)·opt_k`, input-sparsity time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GreedyMerging {
    name: &'static str,
    builder: EstimatorBuilder,
}

impl GreedyMerging {
    /// The paper's `merging` configuration.
    pub fn new(builder: EstimatorBuilder) -> Self {
        Self { name: "merging", builder }
    }

    /// Same algorithm under a different display name (the paper's `merging2`
    /// is this estimator invoked with `k/2`).
    pub fn named(name: &'static str, builder: EstimatorBuilder) -> Self {
        Self { name, builder }
    }
}

impl Estimator for GreedyMerging {
    fn name(&self) -> &'static str {
        self.name
    }

    fn fit(&self, signal: &Signal) -> Result<Synopsis> {
        let params = self.builder.merging_params()?;
        let (segments, _) = merge_segments(signal.segments(), &params);
        let histogram = segments_to_histogram(signal.domain(), &segments);
        Ok(Synopsis::new(self.name, self.builder.k(), FittedModel::Histogram(histogram)))
    }
}

/// The `fastmerging` variant (Section 5.1: aggressive group merging) as an
/// [`Estimator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FastMerging {
    name: &'static str,
    builder: EstimatorBuilder,
}

impl FastMerging {
    /// The paper's `fastmerging` configuration.
    pub fn new(builder: EstimatorBuilder) -> Self {
        Self { name: "fastmerging", builder }
    }

    /// Same algorithm under a different display name (`fastmerging2`).
    pub fn named(name: &'static str, builder: EstimatorBuilder) -> Self {
        Self { name, builder }
    }
}

impl Estimator for FastMerging {
    fn name(&self) -> &'static str {
        self.name
    }

    fn fit(&self, signal: &Signal) -> Result<Synopsis> {
        let params = self.builder.merging_params()?;
        let (segments, _) = merge_groups(signal.segments(), &params);
        let histogram = segments_to_histogram(signal.domain(), &segments);
        Ok(Synopsis::new(self.name, self.builder.k(), FittedModel::Histogram(histogram)))
    }
}

/// Algorithm 2 (multi-scale construction) as an [`Estimator`]: runs the
/// hierarchy's rounds down to the level Theorem 3.5 promises for the
/// builder's `k` (`≤ 8k` pieces, error `≤ 2·opt_k`) and serves that level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hierarchical {
    builder: EstimatorBuilder,
}

impl Hierarchical {
    /// A hierarchical estimator serving the level for the builder's `k`.
    pub fn new(builder: EstimatorBuilder) -> Self {
        Self { builder }
    }

    /// Fits the full multi-scale hierarchy (every level, not just the one a
    /// single [`Synopsis`] serves) — the entry point for Pareto sweeps over
    /// all piece budgets at once.
    pub fn fit_hierarchy(&self, signal: &Signal) -> Result<HierarchicalHistogram> {
        Ok(hierarchy(signal.domain(), signal.segments()))
    }
}

impl Estimator for Hierarchical {
    fn name(&self) -> &'static str {
        "hierarchical"
    }

    fn fit(&self, signal: &Signal) -> Result<Synopsis> {
        self.builder.merging_params()?; // validate k
        let histogram = histogram_for_k(signal.domain(), signal.segments(), self.builder.k());
        Ok(Synopsis::new(self.name(), self.builder.k(), FittedModel::Histogram(histogram)))
    }
}

/// The highest polynomial degree [`PiecewisePoly`] fits: the Gram recurrence
/// in double precision loses orthogonality beyond it, and the paper's
/// experiments only use small constant degrees.
const MAX_POLY_DEGREE: usize = 16;

/// Piecewise polynomials (Theorem 4.1, Corollary 4.1) as an [`Estimator`]:
/// Algorithm 1's pair rounds with the error of the best degree-`d`
/// polynomial on each pair (the projection `FitPoly_d` of Theorem 4.2) in
/// place of the flattening error. The output has `(2 + 2/δ)k + γ` degree-`d`
/// pieces, with error within `√(1+δ)` of the best `k`-piece degree-`d`
/// piecewise polynomial.
///
/// The degree comes from [`EstimatorBuilder::degree`] and is at most 16;
/// degree 0 makes this estimator equivalent to [`GreedyMerging`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PiecewisePoly {
    builder: EstimatorBuilder,
}

impl PiecewisePoly {
    /// A piecewise-polynomial estimator with the builder's `k` and degree.
    pub fn new(builder: EstimatorBuilder) -> Self {
        Self { builder }
    }
}

impl Estimator for PiecewisePoly {
    fn name(&self) -> &'static str {
        "piecewise-poly"
    }

    fn fit(&self, signal: &Signal) -> Result<Synopsis> {
        let params = self.builder.merging_params()?;
        let degree = self.builder.poly_degree();
        if degree > MAX_POLY_DEGREE {
            return Err(Error::InvalidParameter {
                name: "degree",
                reason: format!(
                    "degree {degree} exceeds the supported maximum of {MAX_POLY_DEGREE}"
                ),
            });
        }
        let q = signal.as_sparse();
        let mut intervals: Vec<Interval> = with_starts(Segments::Sparse(&q).iter())
            .map(|(start, s)| Interval::new_unchecked(start, s.end))
            .collect();
        let (max_intervals, keep) = (params.max_intervals().max(1), params.keep_count());
        let (mut errors, mut buffers) = (Vec::new(), SelectBuffers::default());
        while intervals.len() > max_intervals && intervals.len() / 2 > keep {
            errors.clear();
            errors.extend(intervals.chunks_exact(2).map(|pair| {
                let union = Interval::new_unchecked(pair[0].start(), pair[1].end());
                fit_polynomial(&q, union, degree).sse
            }));
            let (tau, _) = keep_threshold(&mut errors, keep, &mut buffers);
            // Keep the pairs with error `≥ τ`, merge the rest, carry an odd
            // tail; writes never overtake reads.
            let mut write = 0;
            for (u, &error) in errors.iter().enumerate() {
                let (left, right) = (intervals[2 * u], intervals[2 * u + 1]);
                if error >= tau {
                    intervals[write..write + 2].copy_from_slice(&[left, right]);
                    write += 2;
                } else {
                    intervals[write] = Interval::new_unchecked(left.start(), right.end());
                    write += 1;
                }
            }
            if intervals.len() % 2 == 1 {
                intervals[write] = intervals[intervals.len() - 1];
                write += 1;
            }
            intervals.truncate(write);
        }
        let pieces = intervals
            .iter()
            .map(|&interval| fit_polynomial(&q, interval, degree).to_piece())
            .collect::<Result<_>>()?;
        let fitted = PiecewisePolynomial::new(q.domain(), pieces)?;
        Ok(Synopsis::new(self.name(), self.builder.k(), FittedModel::Polynomial(fitted)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::SparseFunction;
    use crate::test_support::lcg;

    fn step_signal() -> Signal {
        let values: Vec<f64> = (0..240)
            .map(|i| {
                if i < 80 {
                    1.0
                } else if i < 160 {
                    5.0
                } else {
                    2.0
                }
            })
            .collect();
        Signal::from_dense(values).unwrap()
    }

    #[test]
    fn core_estimators_recover_step_signals() {
        let signal = step_signal();
        let builder = EstimatorBuilder::new(3);
        let estimators: Vec<Box<dyn Estimator>> = vec![
            Box::new(GreedyMerging::new(builder)),
            Box::new(FastMerging::new(builder)),
            Box::new(Hierarchical::new(builder)),
        ];
        for estimator in &estimators {
            let synopsis = estimator.fit(&signal).unwrap();
            assert_eq!(synopsis.estimator(), estimator.name());
            assert_eq!(synopsis.domain(), 240);
            assert!(
                synopsis.l2_error(&signal).unwrap() < 1e-9,
                "{} must recover an exact 3-histogram",
                estimator.name()
            );
            assert!(synopsis.num_pieces() <= 24);
        }
    }

    #[test]
    fn dyn_dispatch_works_through_references_and_boxes() {
        let signal = step_signal();
        let merging = GreedyMerging::new(EstimatorBuilder::new(3));
        let by_ref: &dyn Estimator = &merging;
        let boxed: Box<dyn Estimator> = Box::new(merging);
        assert_eq!(by_ref.name(), "merging");
        assert_eq!(
            by_ref.fit(&signal).unwrap().num_pieces(),
            boxed.fit(&signal).unwrap().num_pieces()
        );
    }

    #[test]
    fn builder_validation_rejects_bad_knobs() {
        assert!(EstimatorBuilder::new(0).validate().is_err());
        assert!(EstimatorBuilder::new(3).merge_delta(0.0).validate().is_err());
        assert!(EstimatorBuilder::new(3).epsilon(-1.0).validate().is_err());
        assert!(EstimatorBuilder::new(3).fail_prob(1.0).validate().is_err());
        assert!(EstimatorBuilder::new(3).threads(0).validate().is_err());
        assert!(EstimatorBuilder::new(3).threads(8).validate().is_ok());
        assert!(EstimatorBuilder::new(3).validate().is_ok());
        let b = EstimatorBuilder::linear_time(5);
        assert_eq!(b.merging_params().unwrap().gamma(), 20.0);
    }

    #[test]
    fn named_variants_show_up_in_the_synopsis() {
        let signal = step_signal();
        let merging2 = GreedyMerging::named("merging2", EstimatorBuilder::new(2));
        let synopsis = merging2.fit(&signal).unwrap();
        assert_eq!(synopsis.estimator(), "merging2");
        assert_eq!(synopsis.target_k(), 2);
    }

    #[test]
    fn synopsis_total_mass_tracks_the_signal() {
        let signal = step_signal();
        let synopsis = GreedyMerging::new(EstimatorBuilder::new(3)).fit(&signal).unwrap();
        assert!((synopsis.total_mass() - signal.dense_values().iter().sum::<f64>()).abs() < 1e-6);
    }

    /// A signal of `pieces` random polynomial segments of the given degree.
    fn piecewise_poly_signal(n: usize, pieces: usize, degree: usize, seed: &mut u64) -> Vec<f64> {
        let mut values = vec![0.0; n];
        let piece_len = n / pieces;
        for p in 0..pieces {
            let start = p * piece_len;
            let end = if p + 1 == pieces { n } else { (p + 1) * piece_len };
            let coeffs: Vec<f64> = (0..=degree).map(|_| 4.0 * (lcg(seed) - 0.5)).collect();
            for (offset, v) in values[start..end].iter_mut().enumerate() {
                let x = offset as f64 / piece_len as f64;
                *v = coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c);
            }
        }
        values
    }

    fn polynomial_fit(signal: &Signal, builder: EstimatorBuilder) -> PiecewisePolynomial {
        let synopsis = PiecewisePoly::new(builder).fit(signal).unwrap();
        synopsis.polynomial().expect("a piecewise-poly synopsis").clone()
    }

    #[test]
    fn piecewise_poly_recovers_piecewise_polynomial_signals_exactly() {
        let mut seed = 13u64;
        for degree in 0..=3usize {
            let values = piecewise_poly_signal(400, 4, degree, &mut seed);
            let builder = EstimatorBuilder::new(4).merge_delta(1.0).merge_gamma(1.0);
            let out = polynomial_fit(&Signal::from_slice(&values).unwrap(), builder.degree(degree));
            let err = out.l2_distance_squared_dense(&values).unwrap();
            assert!(err < 1e-6, "degree {degree}: residual {err}");
            assert!(out.num_pieces() <= builder.merging_params().unwrap().output_pieces_bound());
            assert!(out.degree() <= degree);
        }
    }

    #[test]
    fn piecewise_poly_higher_degree_never_hurts_much() {
        let mut seed = 29u64;
        let values: Vec<f64> =
            (0..600).map(|i| (i as f64 / 60.0 * 1.3).sin() * 5.0 + 0.1 * lcg(&mut seed)).collect();
        let signal = Signal::from_slice(&values).unwrap();
        let errors: Vec<f64> = (0..=3usize)
            .map(|d| polynomial_fit(&signal, EstimatorBuilder::new(5).degree(d)))
            .map(|out| out.l2_distance_dense(&values).unwrap())
            .collect();
        // The smooth sine is captured dramatically better by cubic pieces than
        // by constant pieces for the same piece budget.
        assert!(errors[3] < 0.5 * errors[0], "errors: {errors:?}");
    }

    #[test]
    fn piecewise_poly_recovers_smooth_quadratics_and_serves_queries() {
        let values: Vec<f64> = (0..200)
            .map(|i| {
                let x = (i as f64 - 100.0) / 40.0;
                (1.0 - x * x).max(0.0) + 0.5
            })
            .collect();
        let signal = Signal::from_dense(values).unwrap();
        let synopsis = PiecewisePoly::new(EstimatorBuilder::new(3).degree(2)).fit(&signal).unwrap();
        assert_eq!(synopsis.estimator(), "piecewise-poly");
        assert!(synopsis.l2_error(&signal).unwrap() < 0.5);
        assert!(synopsis.cdf(199).unwrap() > 0.999);
        let median = synopsis.quantile(0.5).unwrap();
        assert!((60..140).contains(&median), "median {median} of a centered bump");
    }

    #[test]
    fn piecewise_poly_on_a_sparse_huge_domain_stays_input_sparsity() {
        // Fitting and serving must not touch the full domain: a 30-sparse
        // signal over 10M points fits and answers queries through closed-form
        // polynomial piece sums (a per-index walk would take seconds here).
        let n = 10_000_000usize;
        let entries: Vec<(usize, f64)> =
            (0..30).map(|i| (i * 333_331, (i % 5) as f64 + 0.5)).collect();
        let signal = Signal::from_sparse(SparseFunction::new(n, entries).unwrap());
        let builder = EstimatorBuilder::new(5).degree(2);
        let synopsis = PiecewisePoly::new(builder).fit(&signal).unwrap();
        assert_eq!(synopsis.domain(), n);
        let bound = builder.merging_params().unwrap().output_pieces_bound();
        assert!(synopsis.num_pieces() <= bound);
        let full = Interval::new(0, n - 1).unwrap();
        assert!((synopsis.mass(full).unwrap() - synopsis.total_mass()).abs() < 1e-6);
        let median = synopsis.quantile(0.5).unwrap();
        assert!(synopsis.cdf(median).unwrap() >= 0.5 - 1e-9);
    }

    #[test]
    fn piecewise_poly_keeps_small_sparse_inputs_exact() {
        // Fewer initial intervals than the budget: no round runs, and the
        // initial segmentation reproduces the signal exactly.
        let q = SparseFunction::new(10_000, vec![(17, 2.0), (4_000, 5.0)]).unwrap();
        let out = polynomial_fit(&Signal::from_sparse(q.clone()), EstimatorBuilder::new(10));
        assert!(out.l2_distance_squared_sparse(&q).unwrap() < 1e-18);
    }

    /// Alternating ±1 ties every first-round pair error at 2; the rounds must
    /// still keep exactly `keep` pairs each, as Algorithm 1 does.
    #[test]
    fn piecewise_poly_at_degree_zero_merges_tied_errors_like_algorithm_1() {
        let values: Vec<f64> = (0..1_001).map(|i| [1.0, -1.0][i % 2]).collect();
        let signal = Signal::from_slice(&values).unwrap();
        let builder = EstimatorBuilder::new(4).merge_delta(1.0).merge_gamma(1.0).degree(0);
        let poly = polynomial_fit(&signal, builder);
        let greedy = GreedyMerging::new(builder).fit(&signal).unwrap();
        let histogram = greedy.histogram().unwrap();
        assert!(poly.num_pieces() <= builder.merging_params().unwrap().output_pieces_bound());
        let ends = poly.pieces().iter().map(|p| p.interval().end());
        assert!(ends.eq(histogram.partition().iter().map(|i| i.end())));
        for (piece, &value) in poly.pieces().iter().zip(histogram.values()) {
            let got = piece.coefficients()[0];
            assert!((got - value).abs() <= 1e-9 * value.abs(), "{got} vs {value}");
        }
    }

    #[test]
    fn piecewise_poly_rejects_degrees_beyond_the_gram_recurrence() {
        let signal = step_signal();
        assert!(PiecewisePoly::new(EstimatorBuilder::new(3).degree(16)).fit(&signal).is_ok());
        assert!(PiecewisePoly::new(EstimatorBuilder::new(3).degree(17)).fit(&signal).is_err());
        assert!(PiecewisePoly::new(EstimatorBuilder::new(0)).fit(&signal).is_err());
    }
}
