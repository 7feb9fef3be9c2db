//! End-to-end scenarios spanning every crate in the workspace: generate a
//! workload, sample from it, learn synopses of several kinds, and validate the
//! experiment harness plumbing — everything through the unified
//! `Signal → Estimator → Synopsis` API.

use approx_hist::datasets::{self, gaussian_mixture, steps_with_spikes, zipf_frequencies};
use approx_hist::sampling::AliasSampler;
use approx_hist::{
    Distribution, Estimator, EstimatorBuilder, EstimatorKind, Hierarchical, Interval,
    PiecewisePoly, SampleLearner, Signal,
};
use hist_bench::offline::{run_offline, OfflineRun};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn database_column_to_synopsis_to_query_answering() {
    // A Zipf column of item frequencies → a 2k-piece synopsis → range counts.
    let n = 50_000;
    let column = zipf_frequencies(n, 1.05, 5_000_000.0, 9);
    let signal = Signal::from_slice(&column).unwrap();
    let synopsis = EstimatorKind::Merging.build(EstimatorBuilder::new(64)).fit(&signal).unwrap();

    // Range counts from the synopsis stay within a few percent of the truth for
    // large ranges (where a histogram synopsis is expected to work).
    for (lo, hi) in [(0usize, n / 2), (n / 4, 3 * n / 4), (0, n - 1)] {
        let exact: f64 = column[lo..=hi].iter().sum();
        let estimate = synopsis.mass(Interval::new(lo, hi).unwrap()).unwrap();
        let rel = (estimate - exact).abs() / exact;
        assert!(rel < 0.05, "range [{lo}, {hi}]: relative error {rel}");
    }
}

#[test]
fn sample_then_learn_all_three_synopsis_kinds() {
    // One stream of samples feeds three different estimators.
    let truth = gaussian_mixture(800, &[(1.0, 0.3, 0.06), (0.7, 0.7, 0.04)]);
    let p = Distribution::from_weights(&truth).unwrap();
    let sampler = AliasSampler::new(&p).unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    let samples = sampler.sample_many(60_000, &mut rng);
    let empirical = Signal::from_samples(800, &samples).unwrap();

    // (1) Fixed-k histogram learner.
    let learned = SampleLearner::new(EstimatorBuilder::new(12).epsilon(0.01).fail_prob(0.05))
        .fit(&empirical)
        .unwrap();
    let hist_err: f64 =
        learned.to_dense().iter().zip(p.pmf()).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
    assert!(hist_err < 0.05, "histogram learner error {hist_err}");

    // (2) Multi-scale hierarchy on the same empirical signal.
    let h8 = Hierarchical::new(EstimatorBuilder::new(8)).fit(&empirical).unwrap();
    assert!(h8.num_pieces() <= 64);

    // (3) Piecewise-quadratic fit of the same empirical signal.
    let pp = PiecewisePoly::new(EstimatorBuilder::new(6).degree(2)).fit(&empirical).unwrap();
    let pp_err: f64 =
        pp.to_dense().iter().zip(p.pmf()).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
    // The mixture is smooth, so quadratic pieces should do at least as well as
    // the histogram at a comparable budget.
    assert!(pp_err < 2.0 * hist_err + 0.02, "piecewise poly error {pp_err} vs hist {hist_err}");
}

#[test]
fn spiky_signals_keep_their_spikes() {
    // Isolated heavy spikes must survive the merging (they carry large error and
    // are therefore never averaged away while the budget allows isolating them).
    let values = steps_with_spikes(4_000, 4, 5, 0.05, 77);
    let signal = Signal::from_slice(&values).unwrap();
    let synopsis = EstimatorKind::Merging.build(EstimatorBuilder::new(30)).fit(&signal).unwrap();

    let max_true = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let max_hist = synopsis.to_dense().into_iter().fold(f64::NEG_INFINITY, f64::max);
    assert!(
        max_hist > 0.3 * max_true,
        "the largest spike ({max_true}) was flattened down to {max_hist}"
    );
}

#[test]
fn figure1_datasets_flow_through_the_harness_runners() {
    // The bench harness is a normal library crate: drive the Table 1 runner on a
    // reduced scale and check the row structure it reports.
    let (hist, _poly, _dow) = datasets::figure1_datasets();
    let builder = EstimatorBuilder::new(10);
    let estimators: Vec<Box<dyn Estimator>> = vec![
        EstimatorKind::ExactDp.build(builder),
        EstimatorKind::Merging.build(builder),
        EstimatorKind::Dual.build(builder),
    ];
    let OfflineRun { rows, rejected } = run_offline(&hist, &estimators);
    assert_eq!(rows.len(), 3);
    assert!(rejected.is_empty());
    assert!((rows[0].relative_error - 1.0).abs() < 1e-12);
    assert!(rows.iter().all(|r| r.time_ms > 0.0 && r.error.is_finite()));
    // merging must be the fastest of the three by a wide margin.
    assert_eq!(
        rows.iter().min_by(|a, b| a.time_ms.partial_cmp(&b.time_ms).unwrap()).unwrap().algorithm,
        "merging"
    );
}

#[test]
fn learned_synopses_round_trip_through_distribution_normalization() {
    // A learned histogram can be renormalized into a proper distribution and
    // sampled from again (synopsis as a generative model).
    let p = datasets::to_distribution(&datasets::hist_dataset()).unwrap();
    let sampler = AliasSampler::new(&p).unwrap();
    let mut rng = StdRng::seed_from_u64(12);
    let samples = sampler.sample_many(20_000, &mut rng);
    let empirical = Signal::from_samples(1_000, &samples).unwrap();
    let learned =
        SampleLearner::new(EstimatorBuilder::new(10).epsilon(0.02)).fit(&empirical).unwrap();

    let as_distribution = learned.histogram().expect("histogram synopsis").normalized().unwrap();
    let renormalized = Distribution::from_histogram(&as_distribution).unwrap();
    assert!((renormalized.pmf().iter().sum::<f64>() - 1.0).abs() < 1e-9);
    let resampler = AliasSampler::new(&renormalized).unwrap();
    let more = resampler.sample_many(1_000, &mut rng);
    assert_eq!(more.len(), 1_000);
    assert!(more.iter().all(|&s| s < 1_000));

    // The resampled synopsis still resembles the original distribution.
    let tv = renormalized.tv_distance(&p).unwrap();
    assert!(tv < 0.2, "total variation between synopsis and truth is {tv}");
}
