//! # hist-datasets
//!
//! Workload generators reproducing the evaluation data sets of the PODS 2015
//! histogram paper (Figure 1 / Section 5) plus extra synthetic families used by
//! the examples and property tests:
//!
//! * [`hist_dataset`] — noisy 10-piece histogram, `n = 1000`;
//! * [`poly_dataset`] — noisy degree-5 polynomial, `n = 4000`;
//! * [`dow_dataset`] — a Dow-Jones-like geometric random walk, `n = 16384`
//!   (substitute for the non-redistributable DJIA series; see [`timeseries`]);
//! * [`normalize`] — normalization and subsampling into the `hist'`, `poly'`
//!   and `dow'` learning distributions of Section 5.2;
//! * [`families`] — Zipf frequency columns, Gaussian mixtures, steps with
//!   spikes.
//!
//! All generators are deterministic given their seed so that experiments and
//! tests are reproducible.

pub mod families;
pub mod noise;
pub mod normalize;
pub mod synthetic;
pub mod timeseries;

pub use families::{gaussian_mixture, steps_with_spikes, zipf_frequencies};
pub use noise::{add_gaussian_noise, GaussianNoise};
pub use normalize::{subsample_to_distribution, to_distribution};
pub use synthetic::{
    hist_dataset, hist_dataset_with, poly_dataset, poly_dataset_with, HistDatasetParams,
    PolyDatasetParams,
};
pub use timeseries::{dow_dataset, dow_dataset_with_length, DowDatasetParams};

/// The three offline data sets of Figure 1 in one call:
/// `(hist, poly, dow)` with their default parameters.
pub fn figure1_datasets() -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    (hist_dataset(), poly_dataset(), dow_dataset())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_bundle_has_the_paper_sizes() {
        let (hist, poly, dow) = figure1_datasets();
        assert_eq!(hist.len(), 1_000);
        assert_eq!(poly.len(), 4_000);
        assert_eq!(dow.len(), 16_384);
    }
}
