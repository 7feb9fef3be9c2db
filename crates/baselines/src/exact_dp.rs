//! The exact V-optimal dynamic program of Jagadish et al. [JKM+98]
//! (`exactdp` in the paper's experiments).
//!
//! `dp[j][i]` is the minimum sum of squared errors of covering the first `i`
//! points with `j` histogram pieces; the recurrence
//! `dp[j][i] = min_b dp[j−1][b] + sse(b, i)` is evaluated with `O(1)` interval
//! costs from a [`DensePrefix`], giving `O(n²·k)` time and `O(n·k)` memory for
//! the backtracking table.

use crate::FitResult;
use hist_core::{flatten_dense, DensePrefix, Error, Partition, Result};

/// Computes the exact V-optimal `k`-histogram of a dense signal in `O(n²·k)`
/// time (the `exactdp` baseline).
pub fn exact_histogram(values: &[f64], k: usize) -> Result<FitResult> {
    validate(values, k)?;
    let n = values.len();
    let k = k.min(n);
    let prefix = DensePrefix::new(values)?;

    // dp rows: prev[i] = best SSE for the first i points with (j-1) pieces.
    let mut prev = vec![f64::INFINITY; n + 1];
    prev[0] = 0.0;
    let mut curr = vec![f64::INFINITY; n + 1];
    // choice[j-1][i] = optimal last-piece start for dp[j][i].
    let mut choice = vec![vec![0usize; n + 1]; k];

    for (j, row) in choice.iter_mut().enumerate() {
        curr[0] = if j == 0 { 0.0 } else { f64::INFINITY };
        compute_row(&prefix, &prev, &mut curr[1..], &mut row[1..]);
        std::mem::swap(&mut prev, &mut curr);
    }

    // Backtrack the optimal boundaries.
    let sse = prev[n];
    let mut breaks = Vec::with_capacity(k);
    let mut i = n;
    let mut j = k;
    while j > 0 && i > 0 {
        let b = choice[j - 1][i];
        if b > 0 {
            breaks.push(b);
        }
        i = b;
        j -= 1;
    }
    breaks.reverse();
    let partition = Partition::from_breakpoints(n, &breaks)?;
    let histogram = flatten_dense(values, &partition)?;
    Ok(FitResult { histogram, sse })
}

/// The optimal squared error `opt_j²` for every piece budget `j = 1, …, k`
/// (useful for Pareto-curve experiments). `O(n²·k)` time, `O(n)` memory.
#[allow(clippy::needless_range_loop)]
pub(crate) fn opt_sse_table(values: &[f64], k: usize) -> Result<Vec<f64>> {
    validate(values, k)?;
    let n = values.len();
    let prefix = DensePrefix::new(values)?;
    let mut prev = vec![f64::INFINITY; n + 1];
    prev[0] = 0.0;
    let mut curr = vec![f64::INFINITY; n + 1];
    let mut table = Vec::with_capacity(k);
    for _ in 1..=k {
        curr[0] = 0.0;
        for i in 1..=n {
            let mut best = f64::INFINITY;
            for b in 0..i {
                if prev[b].is_finite() {
                    let cost = prev[b] + prefix.sse_range(b, i);
                    if cost < best {
                        best = cost;
                    }
                }
            }
            curr[i] = best;
        }
        table.push(curr[n]);
        std::mem::swap(&mut prev, &mut curr);
    }
    Ok(table)
}

/// The optimal squared error `opt_k²` of the best `k`-histogram.
pub fn opt_sse(values: &[f64], k: usize) -> Result<f64> {
    Ok(*opt_sse_table(values, k)?.last().expect("k >= 1 rows"))
}

fn validate(values: &[f64], k: usize) -> Result<()> {
    if values.is_empty() {
        return Err(Error::EmptyDomain);
    }
    if k == 0 {
        return Err(Error::InvalidParameter {
            name: "k",
            reason: "the number of histogram pieces must be at least 1".into(),
        });
    }
    if values.iter().any(|v| !v.is_finite()) {
        return Err(Error::NonFiniteValue { context: "exact_dp" });
    }
    Ok(())
}

/// Fills `curr[i - 1]` / `choice[i - 1]` for the cells `i = 1 ..= curr.len()`
/// of one DP row.
fn compute_row(prefix: &DensePrefix, prev: &[f64], curr: &mut [f64], choice: &mut [usize]) {
    for (slot, (c, ch)) in curr.iter_mut().zip(choice.iter_mut()).enumerate() {
        let i = slot + 1;
        let mut best = f64::INFINITY;
        let mut best_b = 0usize;
        for (b, &p) in prev.iter().enumerate().take(i) {
            if p.is_finite() {
                let cost = p + prefix.sse_range(b, i);
                if cost < best {
                    best = cost;
                    best_b = b;
                }
            }
        }
        *c = best;
        *ch = best_b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hist_core::{DiscreteFunction, Histogram};

    fn lcg(seed: &mut u64) -> f64 {
        *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((*seed >> 11) as f64) / (1u64 << 53) as f64
    }

    #[test]
    fn recovers_exact_histogram_structure() {
        let truth = Histogram::from_breakpoints(90, &[30, 60], vec![1.0, 5.0, 2.0]).unwrap();
        let dense = truth.to_dense();
        let fit = exact_histogram(&dense, 3).unwrap();
        assert!(fit.sse < 1e-18);
        assert_eq!(fit.histogram.num_pieces(), 3);
        assert_eq!(fit.histogram.to_dense(), dense);
    }

    #[test]
    fn sse_matches_histogram_residual() {
        let mut seed = 17u64;
        let values: Vec<f64> = (0..80).map(|_| lcg(&mut seed) * 3.0).collect();
        for k in [1usize, 2, 5, 10] {
            let fit = exact_histogram(&values, k).unwrap();
            let direct = fit.histogram.l2_distance_squared_dense(&values).unwrap();
            assert!(
                (fit.sse - direct).abs() < 1e-9,
                "k={k}: dp sse {} vs residual {}",
                fit.sse,
                direct
            );
            assert!(fit.histogram.num_pieces() <= k);
        }
    }

    #[test]
    fn opt_table_is_monotone_in_k() {
        let mut seed = 4u64;
        let values: Vec<f64> = (0..60).map(|_| lcg(&mut seed)).collect();
        let table = opt_sse_table(&values, 10).unwrap();
        assert_eq!(table.len(), 10);
        for w in table.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
        assert!((opt_sse(&values, 10).unwrap() - table[9]).abs() < 1e-15);
        // k = n gives a perfect fit (up to prefix-sum cancellation noise).
        assert!(opt_sse(&values, 60).unwrap() < 1e-9);
    }

    #[test]
    fn brute_force_agreement_on_tiny_inputs() {
        // Exhaustively check all 2-piece splits.
        let values = vec![4.0, 4.5, 1.0, 1.5, 8.0];
        let prefix = DensePrefix::new(&values).unwrap();
        let mut best = f64::INFINITY;
        for split in 1..values.len() {
            let cost = prefix.sse_range(0, split) + prefix.sse_range(split, values.len());
            best = best.min(cost);
        }
        let fit = exact_histogram(&values, 2).unwrap();
        assert!((fit.sse - best).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(exact_histogram(&[], 3).is_err());
        assert!(exact_histogram(&[1.0, 2.0], 0).is_err());
        assert!(exact_histogram(&[1.0, f64::NAN], 1).is_err());
    }

    #[test]
    fn k_larger_than_n_is_clamped() {
        let values = vec![3.0, 1.0, 2.0];
        let fit = exact_histogram(&values, 10).unwrap();
        assert!(fit.sse < 1e-18);
        assert_eq!(fit.histogram.num_pieces(), 3);
    }
}
