//! Integration tests for the piecewise-polynomial fitter of Section 4
//! (`PiecewisePoly`): exact recovery of piecewise-polynomial signals, its
//! degree-0 equivalence with Algorithm 1 on the Figure 1 datasets, and its
//! advantage over histograms on smooth data. The Gram projection itself is
//! checked against a least-squares reference in hist-core's unit tests.

use approx_hist::datasets::{dow_dataset, hist_dataset, poly_dataset};
use approx_hist::{Estimator, EstimatorBuilder, GreedyMerging, PiecewisePoly, Signal};

#[test]
fn degree_zero_piecewise_poly_partitions_like_greedy_merging() {
    // At degree 0 the Gram projection's error is the flattening error, so the
    // rounds keep the same pairs as Algorithm 1: the same partition, with
    // each piece's constant the interval mean up to rounding.
    for (name, values) in
        [("hist", hist_dataset()), ("poly", poly_dataset()), ("dow", dow_dataset())]
    {
        let signal = Signal::from_slice(&values).unwrap();
        for k in [2, 5, 10, 20, 50] {
            let builder = EstimatorBuilder::new(k).degree(0);
            let poly = PiecewisePoly::new(builder).fit(&signal).unwrap();
            let greedy = GreedyMerging::new(builder).fit(&signal).unwrap();
            let (poly, histogram) = (poly.polynomial().unwrap(), greedy.histogram().unwrap());
            let ends = poly.pieces().iter().map(|p| p.interval().end());
            assert!(
                ends.eq(histogram.partition().iter().map(|i| i.end())),
                "{name}, k = {k}: partitions differ"
            );
            for (piece, &value) in poly.pieces().iter().zip(histogram.values()) {
                let got = piece.coefficients()[0];
                assert!(
                    (got - value).abs() <= 1e-9 * value.abs(),
                    "{name}, k = {k}: {got} vs {value}"
                );
            }
        }
    }
}

#[test]
fn degree_d_oracle_fits_piecewise_degree_d_signals_exactly() {
    // A 3-piece piecewise-quadratic signal must be recovered exactly at
    // degree 2.
    let n = 300;
    let values: Vec<f64> = (0..n)
        .map(|i| {
            let piece = i / 100;
            let x = (i % 100) as f64 / 100.0;
            match piece {
                0 => 1.0 + 2.0 * x - 3.0 * x * x,
                1 => 5.0 - x,
                _ => 0.5 + 4.0 * x * x,
            }
        })
        .collect();
    let signal = Signal::from_slice(&values).unwrap();
    let builder = EstimatorBuilder::new(3).merge_delta(1.0).merge_gamma(1.0).degree(2);
    let synopsis = PiecewisePoly::new(builder).fit(&signal).unwrap();
    let sse = synopsis.polynomial().unwrap().l2_distance_squared_dense(&values).unwrap();
    assert!(sse < 1e-6, "piecewise-quadratic signal not recovered, sse {sse}");
}

#[test]
fn piecewise_polynomials_beat_histograms_on_smooth_data_at_equal_budget() {
    let values = poly_dataset();
    let signal = Signal::from_slice(&values).unwrap();

    // Histogram with ~25 pieces ≈ 50 parameters.
    let hist = GreedyMerging::new(EstimatorBuilder::new(12)).fit(&signal).unwrap();
    let hist_params = 2 * hist.num_pieces();
    // Piecewise cubics with ~12 pieces ≈ 48 parameters.
    let poly = PiecewisePoly::new(EstimatorBuilder::new(6).degree(3)).fit(&signal).unwrap();

    let hist_err = hist.l2_error(&signal).unwrap();
    let poly_err = poly.l2_error(&signal).unwrap();
    let poly_params = poly.polynomial().unwrap().parameter_count();
    assert!(
        poly_params <= hist_params + 8,
        "budgets should be comparable: {poly_params} vs {hist_params}"
    );
    assert!(
        poly_err < hist_err,
        "cubic pieces ({poly_err}) should beat flat pieces ({hist_err}) on the smooth poly signal"
    );
}
