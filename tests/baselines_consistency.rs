//! Integration tests pinning down the relationships between all baseline
//! estimators on the paper's data sets: exact ≤ approximate ≤ trivial, and
//! the qualitative ordering of Table 1 — everything through the unified
//! `Estimator` API.

use approx_hist::{Estimator, EstimatorBuilder, EstimatorKind, Signal, Synopsis};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn fit(kind: EstimatorKind, signal: &Signal, k: usize) -> Synopsis {
    kind.build(EstimatorBuilder::new(k)).fit(signal).expect("valid signal")
}

fn err(synopsis: &Synopsis, signal: &Signal) -> f64 {
    synopsis.l2_error(signal).expect("same domain")
}

#[test]
fn error_ordering_on_the_hist_dataset() {
    let values = approx_hist::datasets::hist_dataset();
    let signal = Signal::from_slice(&values).unwrap();
    let k = 10;
    let exact = fit(EstimatorKind::ExactDp, &signal, k);
    let exact_err = err(&exact, &signal);

    // Nothing with at most k pieces beats the exact optimum.
    for kind in [
        EstimatorKind::Gks,
        EstimatorKind::Dual,
        EstimatorKind::GreedySplit,
        EstimatorKind::EqualWidth,
        EstimatorKind::EqualMass,
    ] {
        let synopsis = fit(kind, &signal, k);
        assert!(
            synopsis.num_pieces() <= k,
            "{} must respect the piece budget",
            synopsis.estimator()
        );
        assert!(
            err(&synopsis, &signal) + 1e-9 >= exact_err,
            "{} cannot beat the optimum",
            synopsis.estimator()
        );
    }
    // The data-adaptive algorithms are much closer to the optimum than the
    // data-oblivious equal-width buckets (the signal's jumps are not grid-aligned).
    assert!(err(&fit(EstimatorKind::Gks, &signal, k), &signal) <= 1.1 * exact_err + 1e-9);
    assert!(err(&fit(EstimatorKind::Dual, &signal, k), &signal) <= 2.0 * exact_err + 1e-9);
    let width_err = err(&fit(EstimatorKind::EqualWidth, &signal, k), &signal);
    assert!(width_err > 1.2 * exact_err, "equal width should clearly trail on hist");
}

#[test]
fn table_1_qualitative_shape_on_dow() {
    // The headline comparison of the paper: merging (2k+1 pieces) reaches or
    // beats the exact k-optimum error, while dual trails by a visible factor.
    let values = approx_hist::datasets::dow_dataset_with_length(4_096);
    let signal = Signal::from_slice(&values).unwrap();
    let k = 50;
    let exact_err = err(&fit(EstimatorKind::ExactDp, &signal, k), &signal);
    let merging_err = err(&fit(EstimatorKind::Merging, &signal, k), &signal);
    let merging2_err = err(&fit(EstimatorKind::Merging2, &signal, k), &signal);
    let dual_err = err(&fit(EstimatorKind::Dual, &signal, k), &signal);

    // Paper's Table 1 (dow, n = 16384): merging ≈ 0.81×, merging2 ≈ 1.16×,
    // dual ≈ 2.03×. At the truncated n = 4096 the gaps are smaller but the
    // ordering (merging < exact ≤ merging2 < dual) must be preserved.
    assert!(merging_err < exact_err, "merging with 2k+1 pieces beats the k-optimum");
    assert!(merging2_err >= exact_err && merging2_err < 1.6 * exact_err);
    assert!(
        dual_err > 1.1 * exact_err,
        "dual should trail the optimum visibly, got {}",
        dual_err / exact_err
    );
    assert!(dual_err > merging2_err, "dual trails merging2");
    assert!(dual_err < 4.0 * exact_err);
}

#[test]
fn opt_errors_are_the_lower_envelope_of_everything() {
    let values = approx_hist::datasets::dow_dataset_with_length(512);
    let signal = Signal::from_slice(&values).unwrap();
    for k in 1..=12usize {
        let opt = err(&fit(EstimatorKind::ExactDp, &signal, k), &signal);
        for kind in [
            EstimatorKind::EqualWidth,
            EstimatorKind::EqualMass,
            EstimatorKind::GreedySplit,
            EstimatorKind::Dual,
        ] {
            let baseline = err(&fit(kind, &signal, k), &signal);
            assert!(baseline + 1e-9 >= opt, "k={k}: a baseline beat the optimum");
        }
    }
}

#[test]
fn exact_dp_dominates_heuristics_on_random_signals() {
    // The naive exact DP is never worse than any heuristic baseline, and its
    // synopsis reproduces its claimed error, on seeded random signals.
    let mut rng = StdRng::seed_from_u64(0xB5);
    for case in 0..32 {
        let n = rng.gen_range(5usize..60);
        let values: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..6.0)).collect();
        let signal = Signal::from_dense(values).unwrap();
        let k = rng.gen_range(1usize..6);

        let exact_err = err(&fit(EstimatorKind::ExactDpNaive, &signal, k), &signal);
        for kind in [EstimatorKind::GreedySplit, EstimatorKind::EqualWidth] {
            let baseline = err(&fit(kind, &signal, k), &signal);
            assert!(baseline + 1e-9 >= exact_err, "case {case}");
        }
    }
}

#[test]
fn dual_histogram_respects_piece_budgets_on_random_signals() {
    let mut rng = StdRng::seed_from_u64(0xDB);
    for case in 0..32 {
        let n = rng.gen_range(4usize..80);
        let values: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..4.0)).collect();
        let signal = Signal::from_dense(values).unwrap();
        let k = rng.gen_range(1usize..8);
        let synopsis = fit(EstimatorKind::Dual, &signal, k);
        assert!(synopsis.num_pieces() <= k, "case {case}");
    }
}

#[test]
fn dual_recovers_a_step_signal_at_every_scale() {
    // Runs of 16 at levels 1, 2, 3, 1: the dual greedy's one-piece shortcut
    // is for constant signals only, whatever the signal's scale.
    let steps: Vec<f64> = (0..64).map(|i| [1.0, 2.0, 3.0, 1.0][i / 16]).collect();
    for scale in [1.0, 1e-3, 1e-6, 1e-9] {
        let signal = Signal::from_dense(steps.iter().map(|v| v * scale).collect()).unwrap();
        let synopsis = fit(EstimatorKind::Dual, &signal, 4);
        let breaks = synopsis.histogram().unwrap().partition().breakpoints();
        assert_eq!(breaks, [16, 32, 48], "scale {scale}");
    }
}
