//! Summary arithmetic shared by every workload: nearest-rank percentiles,
//! medians and geometric means.

/// Nearest-rank percentile of ascending `sorted` samples: the smallest sample
/// with at least `p` percent of all samples at or below it.
///
/// # Panics
/// Panics on an empty slice; every caller summarizes at least one sample.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "a percentile needs at least one sample");
    let n = sorted.len();
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// The highest whole percentile, at most 99, that still leaves ten samples
/// above its nearest-rank sample — the highest tail a sample of `n` supports.
/// Below 20 samples no tail is supported and the median (50) is returned.
pub fn tail_percentile(n: usize) -> f64 {
    (100 * n.saturating_sub(10) / n.max(1)).clamp(50, 99) as f64
}

/// The nearest-rank median of `values` (the middle value for odd counts).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 50.0)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "a geometric mean needs at least one value");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// The share of a run, in percent, its figures are read at.
pub const QUIET_PCT: f64 = 10.0;

/// The figure `values` (one per window, episode or call) reach in the
/// quietest [`QUIET_PCT`] percent of a run: their nearest-rank 10th
/// percentile when lower is better, their 90th when higher is. A shared host
/// runs in slow spells that can last a whole run; a mean or a median moves
/// with every spell, while the quiet tenth moves only when nine tenths of the
/// run are slow, and moves with the code all the same.
pub fn quiet(values: &[f64], lower_is_better: bool) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, if lower_is_better { QUIET_PCT } else { 100.0 - QUIET_PCT })
}

/// A latency distribution reduced to its median and its supported tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Samples behind both percentiles.
    pub samples: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// The tail percentile reported ([`tail_percentile`] of `samples`).
    pub tail_pct: f64,
    /// Nearest-rank value at `tail_pct`.
    pub tail: f64,
}

impl Latency {
    /// Summarizes raw samples (any order).
    pub fn of(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        let tail_pct = tail_percentile(samples.len());
        Self {
            samples: samples.len(),
            p50: nearest_rank(&samples, 50.0),
            tail_pct,
            tail: nearest_rank(&samples, tail_pct),
        }
    }
}

/// Request rate and latency over whole wall-clock windows: each window is
/// summarized on its own, and each figure is read at the [`quiet`] tenth of
/// the windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    /// Whole windows measured.
    pub windows: usize,
    /// Requests in those windows, the samples behind both percentiles.
    pub samples: usize,
    /// Requests per second.
    pub rate: f64,
    /// Nearest-rank median.
    pub p50: f64,
    /// The tail percentile taken in every window: the highest the smallest
    /// window supports ([`tail_percentile`]).
    pub tail_pct: f64,
    /// Nearest-rank value at `tail_pct`.
    pub tail: f64,
}

impl Windowed {
    /// Summarizes `(sent, latency)` pairs, `sent` in seconds from the start of
    /// the measurement, over windows of `width` seconds. Requests after the
    /// last whole window are left out; a run shorter than one window counts
    /// as one window as long as the run.
    pub fn of(requests: &[(f64, f64)], width: f64) -> Self {
        let span = requests.iter().map(|r| r.0).fold(0.0, f64::max);
        let whole = (span / width) as usize;
        let (count, width) =
            if whole == 0 { (1, span.max(f64::MIN_POSITIVE)) } else { (whole, width) };
        let mut windows = vec![Vec::new(); count];
        for &(sent, latency) in requests {
            let index = if whole == 0 { 0 } else { (sent / width) as usize };
            if let Some(window) = windows.get_mut(index) {
                window.push(latency);
            }
        }
        let rates: Vec<f64> = windows.iter().map(|w| w.len() as f64 / width).collect();
        windows.retain(|w| !w.is_empty());
        for window in &mut windows {
            window.sort_by(f64::total_cmp);
        }
        let tail_pct = tail_percentile(windows.iter().map(Vec::len).min().unwrap_or(0));
        let across = |p: f64| {
            let per_window: Vec<f64> = windows.iter().map(|w| nearest_rank(w, p)).collect();
            if per_window.is_empty() {
                f64::NAN
            } else {
                quiet(&per_window, true)
            }
        };
        Self {
            windows: count,
            samples: windows.iter().map(Vec::len).sum(),
            rate: quiet(&rates, false),
            p50: across(50.0),
            tail_pct,
            tail: across(tail_pct),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_sample_covering_p() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 50.0), 50.0);
        assert_eq!(nearest_rank(&xs, 99.0), 99.0);
        assert_eq!(nearest_rank(&xs, 100.0), 100.0);
        assert_eq!(nearest_rank(&xs, 0.0), 1.0);
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0], 51.0), 3.0);
        assert_eq!(nearest_rank(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn the_tail_leaves_ten_samples_above_it() {
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(1_000_000), 99.0);
        assert_eq!(tail_percentile(33), 69.0);
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(0), 50.0);
        for n in 20..3_000usize {
            let p = tail_percentile(n);
            let rank = (p / 100.0 * n as f64).ceil() as usize;
            assert!(n - rank >= 10, "n = {n}: p{p} leaves {} samples above", n - rank);
        }
    }

    #[test]
    fn latency_summary_reports_its_sample_count() {
        let summary = Latency::of((0..2_000).rev().map(f64::from).collect());
        assert_eq!(summary.samples, 2_000);
        assert_eq!(summary.p50, 999.0);
        assert_eq!(summary.tail_pct, 99.0);
        assert_eq!(summary.tail, 1_979.0);
    }

    #[test]
    fn medians_and_means() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn the_quiet_tenth_is_the_best_decile_in_either_direction() {
        let xs: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(quiet(&xs, true), 2.0);
        assert_eq!(quiet(&xs, false), 18.0);
        assert_eq!(quiet(&[5.0], true), 5.0);
        assert_eq!(quiet(&[5.0], false), 5.0);
    }

    #[test]
    fn windows_are_summarized_apart_and_read_at_the_quiet_tenth() {
        // Four 1 s windows of 100 requests each; the third is a slow spell.
        let mut requests = Vec::new();
        for window in 0..4 {
            for i in 0..100 {
                let latency = if window == 2 { 1_000.0 } else { f64::from(i) };
                requests.push((f64::from(window) + f64::from(i) / 100.0, latency));
            }
        }
        requests.push((4.5, 7.0)); // after the last whole window: left out
        let w = Windowed::of(&requests, 1.0);
        assert_eq!((w.windows, w.samples), (4, 400));
        assert_eq!(w.rate, 100.0);
        assert_eq!(w.p50, 49.0, "the slow window does not move the quiet tenth");
        assert_eq!(w.tail_pct, 90.0);
        assert_eq!(w.tail, 89.0);

        let short = Windowed::of(&[(0.0, 5.0), (0.25, 6.0)], 1.0);
        assert_eq!((short.windows, short.samples, short.rate), (1, 2, 8.0));
    }

    #[test]
    fn geometric_mean_of_ratios() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[3.5]) - 3.5).abs() < 1e-12);
        // Scale invariance: the geomean of ratios is the ratio of geomeans.
        let a = [1.5, 4.0, 9.0];
        let b = [3.0, 2.0, 27.0];
        let ratios: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x / y).collect();
        assert!((geomean(&ratios) - geomean(&a) / geomean(&b)).abs() < 1e-12);
    }
}
