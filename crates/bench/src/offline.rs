//! The offline histogram-approximation experiment (Table 1 of the paper) and
//! the Figure 1 data-set dump, driven entirely through the unified
//! [`Estimator`] API.
//!
//! For each data set (`hist` with `k = 10`, `poly` with `k = 10`, `dow` with
//! `k = 50`) every estimator fits the same [`Signal`]; we record its `ℓ₂`
//! error, the error relative to the exact optimum, its wall clock time, and
//! the time relative to the fastest algorithm — the same four rows the paper
//! reports.

use crate::timing::time_algorithm;
use approx_hist::{Error, Estimator, EstimatorBuilder, EstimatorKind, Signal};
use hist_datasets as datasets;

/// The six estimators of the paper's Table 1 (with the pruned exact DP
/// standing in for `exactdp` when `use_naive_exact` is off — same optimum,
/// practical running time at `n = 16384`).
pub fn table1_estimators(k: usize, use_naive_exact: bool) -> Vec<Box<dyn Estimator>> {
    let builder = EstimatorBuilder::new(k);
    let exact = if use_naive_exact { EstimatorKind::ExactDpNaive } else { EstimatorKind::ExactDp };
    [
        exact,
        EstimatorKind::Merging,
        EstimatorKind::Merging2,
        EstimatorKind::FastMerging,
        EstimatorKind::FastMerging2,
        EstimatorKind::Dual,
    ]
    .into_iter()
    .map(|kind| kind.build(builder))
    .collect()
}

/// The extra baselines this reproduction ships beyond the paper's Table 1.
pub fn extra_baseline_estimators(k: usize) -> Vec<Box<dyn Estimator>> {
    let builder = EstimatorBuilder::new(k);
    [
        EstimatorKind::Gks,
        EstimatorKind::EqualWidth,
        EstimatorKind::EqualMass,
        EstimatorKind::GreedySplit,
    ]
    .into_iter()
    .map(|kind| kind.build(builder))
    .collect()
}

/// One data set of the offline experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Data-set name (`hist`, `poly`, `dow`, …).
    pub name: String,
    /// The dense signal.
    pub values: Vec<f64>,
    /// Piece budget `k` used for this data set.
    pub k: usize,
}

/// The three data sets of Table 1. With `paper_scale` the `dow` series has its
/// full 16384 points; otherwise it is truncated to 4096 points so that the
/// naive `O(n²k)` DP stays affordable in CI runs.
pub fn table1_datasets(paper_scale: bool) -> Vec<DatasetSpec> {
    let dow = if paper_scale {
        datasets::dow_dataset()
    } else {
        datasets::dow_dataset_with_length(4_096)
    };
    vec![
        DatasetSpec { name: "hist".into(), values: datasets::hist_dataset(), k: 10 },
        DatasetSpec { name: "poly".into(), values: datasets::poly_dataset(), k: 10 },
        DatasetSpec { name: "dow".into(), values: dow, k: 50 },
    ]
}

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct OfflineResult {
    /// Estimator name.
    pub algorithm: String,
    /// Number of pieces of the produced synopsis.
    pub pieces: usize,
    /// `ℓ₂` error of the produced synopsis against the input signal.
    pub error: f64,
    /// Error relative to the exact optimum (the paper's "Error (relative)").
    pub relative_error: f64,
    /// Wall-clock construction time in milliseconds.
    pub time_ms: f64,
    /// Time relative to the fastest algorithm in the batch.
    pub relative_time: f64,
}

/// The outcome of [`run_offline`] on one data set.
#[derive(Debug, Clone, PartialEq)]
pub struct OfflineRun {
    /// One row per estimator that fitted the signal, in estimator order.
    pub rows: Vec<OfflineResult>,
    /// The name and typed error of each estimator that rejected the signal.
    pub rejected: Vec<(String, Error)>,
}

/// Fits every estimator to one dense signal and assembles the Table 1 rows:
/// errors are reported relative to the first exact estimator in the batch (or
/// to the best achieved error if none is exact), times relative to the
/// fastest. An estimator that rejects the signal (e.g. equal-mass buckets on
/// negative values) gets no row; it is reported with its typed error instead.
pub fn run_offline(values: &[f64], estimators: &[Box<dyn Estimator>]) -> OfflineRun {
    let signal = Signal::from_slice(values).expect("finite signal");
    let mut raw: Vec<(String, usize, f64, f64)> = Vec::with_capacity(estimators.len());
    let mut rejected = Vec::new();
    for estimator in estimators {
        let name = estimator.name().to_string();
        match time_algorithm(|| estimator.fit(&signal)) {
            (Ok(synopsis), elapsed) => {
                let error =
                    synopsis.l2_error(&signal).expect("synopsis lives on the signal's domain");
                raw.push((name, synopsis.num_pieces(), error, elapsed * 1e3));
            }
            (Err(err), _) => rejected.push((name, err)),
        }
    }

    let reference_error = raw
        .iter()
        .find(|r| r.0.starts_with("exactdp"))
        .map(|r| r.2)
        .unwrap_or_else(|| raw.iter().map(|r| r.2).fold(f64::INFINITY, f64::min));
    let fastest = raw.iter().map(|r| r.3).fold(f64::INFINITY, f64::min).max(f64::MIN_POSITIVE);

    let rows = raw
        .into_iter()
        .map(|(algorithm, pieces, error, time_ms)| OfflineResult {
            algorithm,
            pieces,
            error,
            relative_error: if reference_error > 0.0 { error / reference_error } else { 1.0 },
            time_ms,
            relative_time: time_ms / fastest,
        })
        .collect();
    OfflineRun { rows, rejected }
}

/// The full Table 1: every data set with the paper's six estimators.
pub fn table1(
    paper_scale: bool,
    use_naive_exact_everywhere: bool,
) -> Vec<(DatasetSpec, OfflineRun)> {
    let specs = table1_datasets(paper_scale);
    specs
        .into_iter()
        .map(|spec| {
            // The naive DP is affordable on hist/poly; on dow it is opt-in.
            let naive = use_naive_exact_everywhere || spec.values.len() <= 4_096;
            let estimators = table1_estimators(spec.k, naive);
            let run = run_offline(&spec.values, &estimators);
            (spec, run)
        })
        .collect()
}

/// The Figure 1 payload: `(name, signal)` for the three data sets.
pub fn figure1(paper_scale: bool) -> Vec<(String, Vec<f64>)> {
    table1_datasets(paper_scale).into_iter().map(|spec| (spec.name, spec.values)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimator_names_match_the_paper() {
        let set = table1_estimators(10, true);
        assert_eq!(set.len(), 6);
        let names: Vec<&str> = set.iter().map(|e| e.name()).collect();
        assert_eq!(
            names,
            ["exactdp-naive", "merging", "merging2", "fastmerging", "fastmerging2", "dual"]
        );
        assert_eq!(table1_estimators(10, false)[0].name(), "exactdp");
        assert_eq!(extra_baseline_estimators(10).len(), 4);
    }

    #[test]
    fn offline_rows_have_consistent_relative_columns() {
        let values = datasets::hist_dataset();
        let builder = EstimatorBuilder::new(10);
        let estimators: Vec<Box<dyn Estimator>> = vec![
            EstimatorKind::ExactDp.build(builder),
            EstimatorKind::Merging.build(builder),
            EstimatorKind::Merging2.build(builder),
            EstimatorKind::Dual.build(builder),
        ];
        let OfflineRun { rows, rejected } = run_offline(&values, &estimators);
        assert_eq!(rows.len(), 4);
        assert!(rejected.is_empty());
        // The exact algorithm has relative error 1 by definition.
        assert!((rows[0].relative_error - 1.0).abs() < 1e-12);
        // merging uses roughly 2k+1 pieces and can therefore beat the exact k-piece optimum.
        assert!(rows[1].pieces > 10 && rows[1].pieces <= 23);
        assert!(rows[1].relative_error < 1.2);
        // merging2 uses about k+1 pieces (up to the keep-count stopping slack).
        assert!(rows[2].pieces <= 13);
        // The dual baseline respects the piece budget and cannot beat the optimum.
        assert!(rows[3].pieces <= 10);
        assert!(rows[3].relative_error >= 1.0 - 1e-12);
        // Relative times are normalized to the fastest row.
        let min_rel = rows.iter().map(|r| r.relative_time).fold(f64::INFINITY, f64::min);
        assert!((min_rel - 1.0).abs() < 1e-9);
    }

    /// Equal-mass buckets reject `poly`'s negative values: the rejection is
    /// reported and the other estimators still get their rows.
    #[test]
    fn a_rejected_fit_is_reported_without_a_row() {
        let values = datasets::poly_dataset();
        let builder = EstimatorBuilder::new(10);
        let estimators =
            vec![EstimatorKind::EqualMass.build(builder), EstimatorKind::Merging.build(builder)];
        let OfflineRun { rows, rejected } = run_offline(&values, &estimators);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].algorithm, "merging");
        assert_eq!(rejected.len(), 1);
        assert_eq!(rejected[0].0, "equalmass");
        assert!(matches!(rejected[0].1, Error::InvalidParameter { .. }), "{:?}", rejected[0].1);
    }

    #[test]
    fn dataset_specs_match_the_paper_parameters() {
        let specs = table1_datasets(false);
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[0].k, 10);
        assert_eq!(specs[1].k, 10);
        assert_eq!(specs[2].k, 50);
        assert_eq!(specs[0].values.len(), 1_000);
        assert_eq!(specs[1].values.len(), 4_000);
        assert_eq!(specs[2].values.len(), 4_096);
        assert_eq!(table1_datasets(true)[2].values.len(), 16_384);
    }
}
