//! Degenerate-input coverage for *every* estimator in the registry: empty
//! signals, single-point domains, all-mass-in-one-bucket spikes and piece
//! budgets at or beyond the domain size. Every estimator must either fit the
//! signal (and then answer queries consistently) — never panic, never return
//! a malformed synopsis.

mod common;

use approx_hist::{
    Error, EstimatorBuilder, EstimatorKind, GreedyMerging, Interval, Signal, StreamingBuilder,
};
use common::fixture_builder;

/// Queries every fitted synopsis must answer sanely, whatever the input was.
fn assert_serves_sanely(name: &str, synopsis: &approx_hist::Synopsis, signal: &Signal) {
    let n = signal.domain();
    assert_eq!(synopsis.domain(), n, "{name}: domain mismatch");
    assert!(synopsis.num_pieces() >= 1, "{name}: no pieces");
    assert!(synopsis.l2_error(signal).unwrap().is_finite(), "{name}: non-finite error");
    let full = Interval::new(0, n - 1).unwrap();
    let total = synopsis.mass(full).unwrap();
    assert!(
        (total - synopsis.total_mass()).abs() < 1e-9 * synopsis.total_mass().abs().max(1.0),
        "{name}: mass(full) != total_mass"
    );
    if synopsis.total_mass() > 0.0 {
        // cdf/quantile only exist for synopses carrying positive mass.
        let last = synopsis.cdf(n - 1).unwrap();
        assert!((last - 1.0).abs() < 1e-9, "{name}: cdf(n-1) = {last}");
        let median = synopsis.quantile(0.5).unwrap();
        assert!(median < n, "{name}: quantile out of domain");
    }
}

#[test]
fn empty_signals_are_rejected_at_construction() {
    // The degenerate "empty signal" case is handled once, at the API boundary:
    // a Signal over an empty domain cannot be constructed, so no estimator
    // ever sees one.
    assert!(Signal::from_dense(vec![]).is_err());
    assert!(Signal::from_slice(&[]).is_err());
    assert!(Signal::from_samples(10, &[]).is_err());
}

#[test]
fn single_point_signals_fit_everywhere() {
    let signal = Signal::from_dense(vec![42.0]).unwrap();
    for estimator in common::fixture_fleet() {
        let synopsis = estimator
            .fit(&signal)
            .unwrap_or_else(|e| panic!("{}: failed on single-point signal: {e}", estimator.name()));
        assert_serves_sanely(estimator.name(), &synopsis, &signal);
        assert_eq!(synopsis.num_pieces(), 1, "{}: a 1-domain fit has 1 piece", estimator.name());
        if estimator.name() != "sample-learner" {
            assert!(
                (synopsis.to_dense()[0] - 42.0).abs() < 1e-9,
                "{}: single-point fits are exact",
                estimator.name()
            );
        }
    }
}

#[test]
fn all_mass_in_one_bucket_is_preserved() {
    // A pure spike: everything rides on index 17 of a flat-zero signal.
    let mut values = vec![0.0; 64];
    values[17] = 250.0;
    let signal = Signal::from_dense(values).unwrap();
    for estimator in common::fixture_fleet() {
        let synopsis = estimator
            .fit(&signal)
            .unwrap_or_else(|e| panic!("{}: failed on spike signal: {e}", estimator.name()));
        assert_serves_sanely(estimator.name(), &synopsis, &signal);
        // Every estimator (modulo the normalized sample learner and the
        // data-oblivious equal-width floor) should put the median at or near
        // the spike.
        if !matches!(estimator.name(), "sample-learner" | "equalwidth") {
            let median = synopsis.quantile(0.5).unwrap();
            assert!(
                (median as i64 - 17).abs() <= 8,
                "{}: median {median} far from the spike",
                estimator.name()
            );
        }
    }
}

#[test]
fn piece_budgets_at_or_beyond_the_domain_size_fit() {
    let values: Vec<f64> = (0..12).map(|i| (i % 4) as f64 + 0.5).collect();
    let signal = Signal::from_dense(values).unwrap();
    for k in [12usize, 13, 40] {
        for estimator in approx_hist::all_estimators(fixture_builder().with_k(k)) {
            let synopsis = estimator.fit(&signal).unwrap_or_else(|e| {
                panic!("{}: failed with k = {k} ≥ n = 12: {e}", estimator.name())
            });
            assert_serves_sanely(estimator.name(), &synopsis, &signal);
            assert!(
                synopsis.num_pieces() <= 12,
                "{}: more pieces than domain points",
                estimator.name()
            );
            if estimator.name() != "sample-learner" {
                assert!(
                    synopsis.l2_error(&signal).unwrap() < 1e-6,
                    "{}: k ≥ n admits an exact fit",
                    estimator.name()
                );
            }
        }
    }
}

#[test]
fn zero_signals_fit_and_report_no_mass() {
    let signal = Signal::from_dense(vec![0.0; 32]).unwrap();
    for estimator in common::fixture_fleet() {
        // The sample learner has nothing to sample from an all-zero signal.
        if estimator.name() == "sample-learner" {
            continue;
        }
        let synopsis = estimator
            .fit(&signal)
            .unwrap_or_else(|e| panic!("{}: failed on all-zero signal: {e}", estimator.name()));
        assert_eq!(synopsis.domain(), 32, "{}", estimator.name());
        assert!(synopsis.total_mass().abs() < 1e-12, "{}", estimator.name());
        assert!(synopsis.cdf(5).is_err(), "{}: cdf of a zero synopsis", estimator.name());
        assert_eq!(synopsis.mass(Interval::new(0, 31).unwrap()).unwrap(), 0.0);
    }
}

#[test]
fn zero_piece_budgets_and_negative_equal_mass_signals_are_typed_errors() {
    let signal = common::noisy_steps(3, 64, 4, 0.1);
    for kind in EstimatorKind::all() {
        // The chunked estimators name the tree merge's budget.
        let want = match kind {
            EstimatorKind::Chunked | EstimatorKind::ParallelChunked => "budget",
            _ => "k",
        };
        match kind.build(fixture_builder().with_k(0)).fit(&signal).err() {
            Some(Error::InvalidParameter { name, .. }) => assert_eq!(name, want, "{kind:?}"),
            other => panic!("{kind:?}: k = 0 gave {other:?}"),
        }
    }
    // Equi-depth buckets need non-negative mass.
    let negative = Signal::from_dense(vec![1.0, -2.0, 3.0, 4.0]).unwrap();
    let fit = EstimatorKind::EqualMass.build(fixture_builder()).fit(&negative);
    assert!(matches!(fit, Err(Error::InvalidParameter { name: "values", .. })));
}

#[test]
fn tree_merge_rejects_zero_budgets() {
    // Regression: `tree_merge` used to accept `budget == 0` whenever only one
    // synopsis was passed (no pairwise merge ever validated the budget),
    // letting callers build a degenerate empty synopsis downstream.
    use approx_hist::stream::{tree_merge, ChunkedFitter};

    let signal = Signal::from_dense((0..32).map(|i| (i % 4) as f64 + 1.0).collect()).unwrap();
    let inner = || Box::new(GreedyMerging::new(fixture_builder().with_k(3)));
    for chunk_len in [32usize, 8] {
        let chunks =
            ChunkedFitter::new(inner(), 3).with_chunk_len(chunk_len).fit_chunks(&signal).unwrap();
        let parts = chunks.len();
        assert!(tree_merge(chunks, 0).is_err(), "budget 0 must be rejected with {parts} chunk(s)");
    }
    // A positive budget still works, and the empty input stays rejected.
    let chunks = ChunkedFitter::new(inner(), 3).with_chunk_len(8).fit_chunks(&signal).unwrap();
    assert_eq!(tree_merge(chunks, 1).unwrap().num_pieces(), 1);
    assert!(tree_merge(Vec::new(), 1).is_err());
    // The chunked estimators surface the same rejection through `fit`.
    for kind in [EstimatorKind::Chunked, EstimatorKind::ParallelChunked] {
        assert!(kind.build(fixture_builder().with_k(0)).fit(&signal).is_err(), "{kind:?}");
    }
}

#[test]
fn tiny_domains_fit_with_every_chunking() {
    // Chunked estimators and the one-pass streaming builder must cope with
    // chunk lengths larger than, equal to and far smaller than the domain.
    let values = [1.0, 5.0, 5.0];
    let signal = Signal::from_dense(values.to_vec()).unwrap();
    for chunk_len in [1usize, 2, 3, 64] {
        let builder = EstimatorBuilder::new(2).chunk_len(chunk_len);
        let mut stream =
            StreamingBuilder::new(Box::new(GreedyMerging::new(builder)), 2, chunk_len).unwrap();
        stream.extend(&values).unwrap();
        let mut fits = vec![("streaming", stream.synopsis().unwrap())];
        for kind in [EstimatorKind::Chunked, EstimatorKind::ParallelChunked] {
            let estimator = kind.build(builder);
            fits.push((estimator.name(), estimator.fit(&signal).unwrap()));
        }
        for (name, synopsis) in fits {
            assert_eq!(synopsis.domain(), 3, "{name}/chunk {chunk_len}");
            assert!(synopsis.l2_error(&signal).unwrap() < 1e-9, "{name}/chunk {chunk_len}");
        }
    }
}
