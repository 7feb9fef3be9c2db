//! The `dow` data set: a Dow-Jones-like daily-closing time series.
//!
//! The paper's third data set is the real DJIA daily closing series
//! (`n = 16384`, values ranging from ≈ 55 to ≈ 400 in Figure 1). The raw series
//! is not redistributable, so we substitute a seeded geometric random walk with
//! drift and volatility calibrated to reproduce the plotted range and the
//! qualitative character of the series: smooth-but-rough, long trends, no
//! natural piecewise-constant structure. This preserves exactly the properties
//! the experiments exercise.

use crate::noise::GaussianNoise;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parameters of the geometric-random-walk generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DowDatasetParams {
    /// Series length `n`.
    pub n: usize,
    /// Starting level of the series.
    pub start: f64,
    /// Level the series is steered towards at the end (a geometric Brownian
    /// *bridge* is used so the plotted range matches Figure 1 for every seed).
    pub end: f64,
    /// Per-step volatility of the log-price.
    pub volatility: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DowDatasetParams {
    fn default() -> Self {
        // Calibrated to Figure 1: the DJIA series rises from ≈ 55 to ≈ 400 over
        // 16384 trading days with everyday volatility around 1%.
        Self { n: 16_384, start: 55.0, end: 400.0, volatility: 0.01, seed: 0xD031_1355 }
    }
}

/// Generates a geometric Brownian bridge: the log-price performs a random walk
/// with per-step volatility `volatility`, linearly corrected so the series
/// starts at `start` and ends at `end` exactly. All intermediate roughness and
/// trend structure of a geometric random walk is preserved.
pub(crate) fn geometric_random_walk(params: &DowDatasetParams) -> Vec<f64> {
    let DowDatasetParams { n, start, end, volatility, seed } = *params;
    let n = n.max(1);
    let start = start.max(f64::MIN_POSITIVE);
    let end = end.max(f64::MIN_POSITIVE);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut noise = GaussianNoise::new();

    // Pure random walk in log space starting at ln(start).
    let mut log_walk = Vec::with_capacity(n);
    let mut log_level = start.ln();
    for _ in 0..n {
        log_walk.push(log_level);
        log_level += volatility * noise.standard(&mut rng);
    }
    if n == 1 {
        return vec![start];
    }
    // Bridge correction: steer the endpoint to ln(end) by adding a linear ramp.
    let realized_end = *log_walk.last().expect("n >= 1");
    let correction = end.ln() - realized_end;
    log_walk
        .iter()
        .enumerate()
        .map(|(t, &lw)| (lw + correction * t as f64 / (n - 1) as f64).exp())
        .collect()
}

/// The `dow` data set (`n = 16384`) with its default calibration.
pub fn dow_dataset() -> Vec<f64> {
    geometric_random_walk(&DowDatasetParams::default())
}

/// A shorter variant of the `dow` series (same calibration and seed, bridged
/// over `n` steps instead of 16384), useful for quick experiments and tests.
pub fn dow_dataset_with_length(n: usize) -> Vec<f64> {
    geometric_random_walk(&DowDatasetParams { n, ..Default::default() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_series_matches_the_paper_scale() {
        let series = dow_dataset();
        assert_eq!(series.len(), 16_384);
        assert!((series[0] - 55.0).abs() < 1e-9);
        let max = series.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = series.iter().cloned().fold(f64::INFINITY, f64::min);
        let last = *series.last().unwrap();
        assert!(min > 5.0, "series dipped to {min}");
        assert!(max < 2_000.0, "series exploded to {max}");
        assert!((last - 400.0).abs() < 1e-6, "the bridge pins the endpoint, got {last}");
    }

    #[test]
    fn series_is_rough_but_positively_correlated() {
        let series = dow_dataset_with_length(4_096);
        // Daily relative moves are small...
        let max_rel_move =
            series.windows(2).map(|w| (w[1] / w[0] - 1.0).abs()).fold(0.0f64, f64::max);
        assert!(max_rel_move < 0.1, "max daily move {max_rel_move}");
        // ...but the series is not piecewise constant anywhere.
        assert!(series.windows(2).all(|w| (w[1] - w[0]).abs() > 0.0));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = dow_dataset_with_length(500);
        let b = dow_dataset_with_length(500);
        assert_eq!(a, b);
        let other_seed =
            geometric_random_walk(&DowDatasetParams { seed: 7, n: 500, ..Default::default() });
        assert_ne!(a, other_seed);
        // Every bridged series is pinned at both ends regardless of length.
        assert!((a[0] - 55.0).abs() < 1e-9);
        assert!((a.last().unwrap() - 400.0).abs() < 1e-6);
    }

    #[test]
    fn all_values_are_positive_and_finite() {
        let series = dow_dataset_with_length(10_000);
        assert!(series.iter().all(|v| v.is_finite() && *v > 0.0));
    }
}
