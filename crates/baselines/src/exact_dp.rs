//! The exact V-optimal dynamic program of Jagadish et al. [JKM+98]
//! (`exactdp` in the paper's experiments).
//!
//! `dp[j][i]` is the minimum sum of squared errors of covering the first `i`
//! points with `j` histogram pieces; the recurrence
//! `dp[j][i] = min_b dp[j−1][b] + sse(b, i)` is evaluated with `O(1)` interval
//! costs from a [`DensePrefix`], giving `O(n²·k)` time and `O(n·k)` memory for
//! the backtracking table.

use hist_core::{DensePrefix, Partition, Result};

/// The pieces of the exact V-optimal `k`-histogram of a dense signal, in
/// `O(n²·k)` time (the `exactdp` baseline).
pub(crate) fn partition(values: &[f64], k: usize) -> Result<Partition> {
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
    Partition::from_breakpoints(n, &breaks)
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
    use crate::test_support::{lcg, optimum, residual};
    use hist_core::flatten_dense;

    #[test]
    fn recovers_exact_histogram_structure() {
        let dense = [vec![1.0; 30], vec![5.0; 30], vec![2.0; 30]].concat();
        let pieces = partition(&dense, 3).unwrap();
        assert!(residual(&dense, &pieces) < 1e-18);
        assert_eq!(pieces.len(), 3);
        assert_eq!(flatten_dense(&dense, &pieces).unwrap().values(), &[1.0, 5.0, 2.0]);
    }

    #[test]
    fn optimum_is_monotone_in_k_within_the_budget() {
        let mut seed = 4u64;
        let values: Vec<f64> = (0..60).map(|_| lcg(&mut seed)).collect();
        let mut last = f64::INFINITY;
        for k in 1..=10 {
            let pieces = partition(&values, k).unwrap();
            assert!(pieces.len() <= k, "k={k}: {} pieces", pieces.len());
            let sse = residual(&values, &pieces);
            assert!(sse <= last + 1e-12, "k={k}: optimum {sse} above {last}");
            last = sse;
        }
        // k = n gives a perfect fit.
        assert!(optimum(&values, 60) < 1e-9);
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
        assert!((optimum(&values, 2) - best).abs() < 1e-12);
    }

    #[test]
    fn k_larger_than_n_is_clamped() {
        let values = vec![3.0, 1.0, 2.0];
        let pieces = partition(&values, 10).unwrap();
        assert!(residual(&values, &pieces) < 1e-18);
        assert_eq!(pieces.len(), 3);
    }
}
