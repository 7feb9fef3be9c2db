//! An approximate V-optimal dynamic program in the spirit of AHIST-S /
//! AHIST-L-Δ of Guha, Koudas and Shim \[GKS06\].
//!
//! The exact DP row `dp[j][·]` is a non-decreasing function of the prefix
//! length. AHIST-style algorithms exploit this by *compressing* each row: only
//! the boundary positions at which the row value crosses the next power of
//! `(1 + δ_row)` are retained, and the next row is minimized over those `O(log
//! (range)/δ_row)` retained candidates only. Each row therefore loses at most a
//! `(1 + δ_row)` factor in squared error relative to minimizing over all
//! boundaries.
//!
//! This reimplementation is a faithful rendition of the compression idea, not a
//! line-by-line port of AHIST-L-Δ: we take `δ_row = δ / k` so that the
//! compounded loss over `k` rows is at most `(1 + δ/k)^k ≤ e^δ ≈ 1 + δ` for
//! small `δ`, and we evaluate every prefix against the compressed candidate
//! list, giving `O(n·k·log(range)/δ_row)` time. The paper only compares against
//! AHIST-L-Δ's published accuracy, which this reproduces qualitatively (error
//! within a few per mill of the optimum at the cost of being much slower than
//! the merging algorithm).

use crate::FitResult;
use hist_core::{flatten_dense, DensePrefix, Error, Partition, Result};

/// Computes a `(1 + δ)`-approximate V-optimal `k`-histogram with a
/// compressed-row dynamic program.
pub fn approx_dp(values: &[f64], k: usize, delta: f64) -> Result<FitResult> {
    if values.is_empty() {
        return Err(Error::EmptyDomain);
    }
    if k == 0 {
        return Err(Error::InvalidParameter {
            name: "k",
            reason: "the number of histogram pieces must be at least 1".into(),
        });
    }
    if !delta.is_finite() || delta <= 0.0 {
        return Err(Error::InvalidParameter {
            name: "delta",
            reason: format!("the approximation parameter must be positive, got {delta}"),
        });
    }
    if values.iter().any(|v| !v.is_finite()) {
        return Err(Error::NonFiniteValue { context: "gks::approx_dp" });
    }

    let n = values.len();
    let k = k.min(n);
    let prefix = DensePrefix::new(values)?;
    let delta_row = delta / k as f64;

    // Row 1: a single piece covering the prefix.
    let mut row: Vec<f64> = (0..=n).map(|i| prefix.sse_range(0, i)).collect();
    // parents[j][i] = boundary chosen for dp[j+2][i] (rows 2..=k).
    let mut parents: Vec<Vec<usize>> = Vec::with_capacity(k.saturating_sub(1));

    for _ in 2..=k {
        let candidates = compress_row(&row, delta_row);
        let mut next = vec![f64::INFINITY; n + 1];
        let mut parent = vec![0usize; n + 1];
        next[0] = f64::INFINITY;
        for i in 1..=n {
            let mut best = f64::INFINITY;
            let mut best_b = 0usize;
            // The right endpoint of the compression group containing the optimal
            // boundary may lie at or beyond i; position i − 1 represents it.
            let last = i - 1;
            if row[last].is_finite() {
                best = row[last] + prefix.sse_range(last, i);
                best_b = last;
            }
            for &b in &candidates {
                if b >= i {
                    break;
                }
                let cost = row[b] + prefix.sse_range(b, i);
                if cost < best {
                    best = cost;
                    best_b = b;
                }
            }
            // Using fewer pieces is always allowed: carry the previous row over.
            if row[i] < best {
                best = row[i];
                best_b = usize::MAX; // sentinel: no new boundary at this level
            }
            next[i] = best;
            parent[i] = best_b;
        }
        parents.push(parent);
        row = next;
    }

    // Backtrack through the compressed choices.
    let mut breaks = Vec::with_capacity(k);
    let mut i = n;
    let mut level = parents.len();
    while level > 0 && i > 0 {
        let b = parents[level - 1][i];
        level -= 1;
        if b == usize::MAX {
            continue;
        }
        if b > 0 {
            breaks.push(b);
        }
        i = b;
    }
    breaks.reverse();
    breaks.dedup();
    let partition = Partition::from_breakpoints(n, &breaks)?;
    let histogram = flatten_dense(values, &partition)?;
    let sse = partition.iter().map(|iv| prefix.sse(*iv)).sum();
    Ok(FitResult { histogram, sse })
}

/// Compresses a non-decreasing DP row into candidate boundary positions: for
/// every maximal run of positions whose values stay within a `(1 + delta_row)`
/// factor of the run's first value, only the *last* position of the run is
/// kept. Using the rightmost position of a run both lower-bounds the DP value
/// and minimizes the interval cost of the following piece, which is what gives
/// the per-row `(1 + delta_row)` approximation guarantee.
fn compress_row(row: &[f64], delta_row: f64) -> Vec<usize> {
    let mut candidates = Vec::new();
    let mut level: Option<f64> = None;
    let mut prev_idx = 0usize;
    for (i, &v) in row.iter().enumerate() {
        if !v.is_finite() {
            continue;
        }
        match level {
            None => level = Some(v),
            Some(lv) => {
                if v > lv * (1.0 + delta_row) {
                    candidates.push(prev_idx);
                    level = Some(v);
                }
            }
        }
        prev_idx = i;
    }
    candidates.push(prev_idx);
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact_dp;
    use hist_core::{DiscreteFunction, Histogram};

    fn lcg(seed: &mut u64) -> f64 {
        *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((*seed >> 11) as f64) / (1u64 << 53) as f64
    }

    #[test]
    fn close_to_the_exact_optimum() {
        let mut seed = 19u64;
        let values: Vec<f64> = (0..240)
            .map(|i| {
                let step = [2.0, 8.0, 5.0, 11.0, 3.0, 7.0][(i / 40) % 6];
                step + 0.5 * (lcg(&mut seed) - 0.5)
            })
            .collect();
        for k in [3usize, 6, 10] {
            let approx = approx_dp(&values, k, 0.1).unwrap();
            let exact = exact_dp::opt_sse(&values, k).unwrap();
            assert!(approx.sse + 1e-12 >= exact, "approx cannot beat the optimum");
            assert!(
                approx.sse <= (1.0 + 0.25) * exact + 1e-9,
                "k={k}: approx {} too far above optimum {}",
                approx.sse,
                exact
            );
            assert!(approx.histogram.num_pieces() <= k);
        }
    }

    #[test]
    fn recovers_clean_step_signals_exactly() {
        let truth = Histogram::from_breakpoints(150, &[50, 100], vec![1.0, 4.0, 2.0]).unwrap();
        let dense = truth.to_dense();
        let fit = approx_dp(&dense, 3, 0.05).unwrap();
        assert!(fit.sse < 1e-12);
    }

    #[test]
    fn smaller_delta_tracks_the_optimum_more_tightly() {
        let mut seed = 83u64;
        let values: Vec<f64> = (0..300).map(|_| lcg(&mut seed) * 6.0).collect();
        let exact = exact_dp::opt_sse(&values, 8).unwrap();
        let loose = approx_dp(&values, 8, 1.0).unwrap();
        let tight = approx_dp(&values, 8, 0.01).unwrap();
        assert!(loose.sse + 1e-12 >= exact);
        assert!(tight.sse + 1e-12 >= exact);
        // A very fine compression grid must stay within a few percent of the optimum.
        assert!(tight.sse <= 1.05 * exact + 1e-9, "tight {} vs exact {exact}", tight.sse);
    }

    #[test]
    fn sse_matches_reported_histogram() {
        let mut seed = 12u64;
        let values: Vec<f64> = (0..100).map(|_| lcg(&mut seed)).collect();
        let fit = approx_dp(&values, 5, 0.1).unwrap();
        let direct = fit.histogram.l2_distance_squared_dense(&values).unwrap();
        assert!((fit.sse - direct).abs() < 1e-9);
    }

    #[test]
    fn compress_row_keeps_run_endpoints() {
        let row = vec![0.0, 0.0, 1.0, 1.05, 1.2, 2.0, 2.05, 8.0];
        let candidates = compress_row(&row, 0.1);
        // The last zero-valued position is the rightmost point of the first run.
        assert!(candidates.contains(&1), "last free prefix is kept");
        // 1.0 and 1.05 are within 10%, 1.2 starts a new run; 2.0/2.05 another; 8.0 the last.
        assert!(candidates.contains(&3), "run endpoints are kept: {candidates:?}");
        assert!(candidates.contains(&7), "the final position is always kept");
        assert!(!candidates.contains(&2), "interior run positions are skipped: {candidates:?}");
        // Candidates are strictly increasing.
        assert!(candidates.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(approx_dp(&[], 3, 0.1).is_err());
        assert!(approx_dp(&[1.0], 0, 0.1).is_err());
        assert!(approx_dp(&[1.0], 1, 0.0).is_err());
        assert!(approx_dp(&[f64::NAN], 1, 0.1).is_err());
    }

    #[test]
    fn k_equal_one_is_the_global_mean() {
        let values = vec![1.0, 3.0, 5.0, 7.0];
        let fit = approx_dp(&values, 1, 0.5).unwrap();
        assert_eq!(fit.histogram.num_pieces(), 1);
        assert!((fit.histogram.values()[0] - 4.0).abs() < 1e-12);
    }
}
