//! Integration tests of the unified `Estimator`/`Synopsis` API that are
//! specific to this signal/parameterization: the achieved `l2_error` of every
//! estimator respects its algorithm's bound relative to the exact DP optimum,
//! sparse and dense inputs agree, and synopses serve without the signal.
//!
//! The generic query-consistency properties (cdf monotonicity, quantile∘cdf
//! inversion, mass additivity, batch/pointwise agreement, merge
//! associativity) run over every estimator and every fixture in
//! `tests/prop_harness.rs` — add new assertions there, not here.

use approx_hist::{
    all_estimators, Estimator, EstimatorBuilder, EstimatorKind, Signal, SparseFunction, Synopsis,
};

const K: usize = 5;

/// A noisy 5-step signal every estimator can fit well.
fn common_signal() -> Signal {
    let values: Vec<f64> = (0..400)
        .map(|i| {
            let step = match i / 80 {
                0 => 2.0,
                1 => 7.0,
                2 => 1.0,
                3 => 5.0,
                _ => 3.0,
            };
            // Deterministic, zero-mean jitter keeps the DPs honest.
            step + 0.05 * ((i * 37 % 11) as f64 - 5.0)
        })
        .collect();
    Signal::from_dense(values).unwrap()
}

fn builder() -> EstimatorBuilder {
    // Explicit sample size keeps the sample learner fast and deterministic.
    EstimatorBuilder::new(K).samples(60_000).seed(2015)
}

fn fleet() -> Vec<Box<dyn Estimator>> {
    all_estimators(builder())
}

#[test]
fn every_estimator_produces_a_synopsis_on_the_same_signal() {
    let signal = common_signal();
    for estimator in fleet() {
        let synopsis = estimator.fit(&signal).unwrap();
        assert_eq!(synopsis.domain(), signal.domain(), "{}", estimator.name());
        assert_eq!(synopsis.estimator(), estimator.name());
        assert!(synopsis.num_pieces() >= 1);
        assert!(
            synopsis.num_pieces() <= 8 * K,
            "{}: {} pieces exceeds every algorithm's O(k) bound",
            estimator.name(),
            synopsis.num_pieces()
        );
        assert!(synopsis.l2_error(&signal).unwrap().is_finite());
    }
}

#[test]
fn error_bounds_hold_relative_to_the_exact_dp() {
    let signal = common_signal();
    let opt =
        EstimatorKind::ExactDp.build(builder()).fit(&signal).unwrap().l2_error(&signal).unwrap();
    // The "2" variants run with half the piece budget; their reference is opt_{k/2}.
    let opt_half = EstimatorKind::ExactDp
        .build(builder().with_k(K / 2))
        .fit(&signal)
        .unwrap()
        .l2_error(&signal)
        .unwrap();
    assert!(opt > 0.0, "the jittered signal is not exactly a 5-histogram");

    for estimator in fleet() {
        let synopsis = estimator.fit(&signal).unwrap();
        if estimator.name() == "sample-learner" {
            // The learner normalizes the signal into a distribution and
            // approximates *that*; ℓ₂ errors scale linearly, so compare on the
            // normalized axis (Theorem 2.1: ≤ 2·opt + ε plus sampling noise).
            let dense = signal.dense_values();
            let total: f64 = dense.iter().sum();
            let normalized = Signal::from_dense(dense.iter().map(|v| v / total).collect()).unwrap();
            let err = synopsis.l2_error(&normalized).unwrap();
            assert!(
                err <= 2.0 * opt / total + 0.02,
                "sample-learner: normalized error {err} vs 2·opt/total = {}",
                2.0 * opt / total
            );
            continue;
        }
        let err = synopsis.l2_error(&signal).unwrap();
        let opt =
            if matches!(estimator.name(), "merging2" | "fastmerging2") { opt_half } else { opt };
        let bound = match estimator.name() {
            // Exact optimum by definition.
            "exactdp" => 1.0 + 1e-9,
            // √(1+δ)·opt with δ = 1000, but ≈2k+1 pieces in practice beat opt.
            "merging" | "merging2" | "fastmerging" | "fastmerging2" => 2.0,
            // Tree-merged per-chunk merging fits: bounded-error composition of
            // the merging guarantee (see hist-stream). The parallel fitter is
            // bit-identical to the sequential chunked one.
            "chunked" | "parallel-chunked" => 3.0,
            // Theorem 3.5: ≤ 2·opt at ≤ 8k pieces.
            "hierarchical" => 2.0 + 1e-9,
            // (1 + δ)-approximate DP with δ = 0.1.
            "gks" => 1.1 + 1e-9,
            // Degree-2 pieces can represent any histogram: never much worse
            // than a same-k histogram fit, i.e. within the merging bound.
            "piecewise-poly" => 2.0,
            // Heuristics: no approximation guarantee, but sane on steps.
            "dual" | "greedysplit" => 4.0,
            // Data-oblivious floors: only sanity-bounded.
            "equalwidth" | "equalmass" => 15.0,
            other => panic!("estimator {other} missing an error-bound entry"),
        };
        assert!(
            err <= bound * opt + 0.1,
            "{}: error {err} exceeds {bound}·opt = {}",
            estimator.name(),
            bound * opt
        );
    }
}

#[test]
fn sparse_and_dense_views_of_the_same_signal_agree() {
    let dense_signal = common_signal();
    let sparse_signal = Signal::from_sparse(
        SparseFunction::from_dense_keep_zeros(&dense_signal.dense_values()).unwrap(),
    );
    for kind in [EstimatorKind::Merging, EstimatorKind::ExactDp, EstimatorKind::Dual] {
        let estimator = kind.build(builder());
        let a = estimator.fit(&dense_signal).unwrap();
        let b = estimator.fit(&sparse_signal).unwrap();
        assert_eq!(
            a.histogram(),
            b.histogram(),
            "{}: dense and sparse inputs must yield identical synopses",
            estimator.name()
        );
    }
}

#[test]
fn synopses_serve_queries_without_the_original_signal() {
    // The serving contract: once fitted, a synopsis is self-contained.
    let signal = common_signal();
    let synopsis: Synopsis = EstimatorKind::Merging.build(builder()).fit(&signal).unwrap();
    drop(signal);

    let n = synopsis.domain();
    let total = synopsis.total_mass();
    assert!(total > 0.0);
    let median = synopsis.quantile(0.5).unwrap();
    assert!(median < n);
    let half = synopsis.mass(approx_hist::Interval::new(0, median).unwrap()).unwrap();
    assert!(
        (half / total - 0.5).abs() < 0.05,
        "mass up to the median ({half}) should be about half the total ({total})"
    );
}
