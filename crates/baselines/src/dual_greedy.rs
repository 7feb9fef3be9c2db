//! The greedy algorithm for the *dual* histogram problem of Jagadish et
//! al. [JKM+98] and its binary-search wrapper for the primal problem (`dual` in
//! the paper's experiments).
//!
//! Dual problem: given an error budget, produce a histogram meeting the budget
//! with as few pieces as possible. The greedy sweep grows the current interval
//! as long as its flattening error stays below a per-piece threshold `τ`, then
//! closes the piece and starts a new one; it runs in `O(n)` time and every
//! produced piece has error at most `τ`.
//!
//! Primal wrapper: the target error is not known in advance, so the threshold
//! is found by binary search over `τ` (adding the logarithmic factor the paper
//! mentions) until the sweep produces at most `k` pieces.

use hist_core::{DensePrefix, Partition, Result};

/// One `O(n)` greedy sweep over the `n` values behind `prefix` with per-piece
/// squared-error threshold `tau_sq`: every produced piece has flattening SSE
/// at most `tau_sq` (single points are always admissible).
fn greedy_sweep(prefix: &DensePrefix, n: usize, tau_sq: f64) -> Result<Partition> {
    let mut breaks = Vec::new();
    let mut piece_start = 0usize;
    for i in 1..=n {
        if prefix.sse_range(piece_start, i) > tau_sq && i - piece_start > 1 {
            // Close the piece before index i - 1 and start a new one there.
            piece_start = i - 1;
            breaks.push(i - 1);
        }
    }
    Partition::from_breakpoints(n, &breaks)
}

/// The pieces the dual greedy picks for the primal problem: binary search
/// over the per-piece threshold until the sweep uses at most `k` pieces
/// (`O(n·log(range/precision))` time).
pub(crate) fn partition(values: &[f64], k: usize) -> Result<Partition> {
    let n = values.len();
    if values.iter().all(|&v| v == values[0]) {
        // The whole signal is constant: one piece suffices.
        return Partition::trivial(n);
    }
    let prefix = DensePrefix::new(values)?;
    let total_sse = prefix.sse_range(0, n);

    // Invariant: `hi` always yields at most k pieces (the full-signal SSE does),
    // `lo` may not. Shrink the bracket by a fixed number of halvings.
    let mut lo = 0.0f64;
    let mut hi = total_sse;
    let mut best = greedy_sweep(&prefix, n, hi)?;
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        let sweep = greedy_sweep(&prefix, n, mid)?;
        if sweep.len() <= k {
            hi = mid;
            best = sweep;
        } else {
            lo = mid;
        }
    }
    if best.len() > k {
        // Even the full-signal error split the signal: rounding in the prefix
        // sums of a numerically constant signal. One piece meets that error.
        return Partition::trivial(n);
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{lcg, optimum, residual};

    #[test]
    fn sweep_respects_the_per_piece_budget() {
        let mut seed = 8u64;
        let values: Vec<f64> = (0..200).map(|_| lcg(&mut seed) * 4.0).collect();
        let prefix = DensePrefix::new(&values).unwrap();
        for tau in [0.05, 0.5, 5.0, 50.0] {
            let sweep = greedy_sweep(&prefix, values.len(), tau).unwrap();
            for iv in sweep.iter() {
                let cost = prefix.sse(*iv);
                assert!(
                    cost <= tau + 1e-12 || iv.len() == 1,
                    "piece {iv} has error {cost} > {tau}"
                );
            }
        }
    }

    #[test]
    fn larger_budgets_give_fewer_pieces() {
        let mut seed = 21u64;
        let values: Vec<f64> = (0..400).map(|_| lcg(&mut seed) * 2.0).collect();
        let prefix = DensePrefix::new(&values).unwrap();
        let mut last_pieces = usize::MAX;
        for tau in [0.01, 0.1, 1.0, 10.0, 100.0] {
            let sweep = greedy_sweep(&prefix, values.len(), tau).unwrap();
            assert!(sweep.len() <= last_pieces);
            last_pieces = sweep.len();
        }
    }

    #[test]
    fn primal_wrapper_respects_the_piece_budget() {
        let mut seed = 2u64;
        let values: Vec<f64> = (0..500)
            .map(|i| {
                let step = [1.0, 7.0, 3.0, 9.0, 5.0][(i / 100) % 5];
                step + 0.4 * (lcg(&mut seed) - 0.5)
            })
            .collect();
        for k in [2usize, 5, 10, 25] {
            assert!(partition(&values, k).unwrap().len() <= k, "k={k}");
        }
    }

    #[test]
    fn close_to_optimal_on_clean_step_signals() {
        let dense = [vec![1.0; 40], vec![6.0; 40], vec![3.0; 40]].concat();
        assert!(residual(&dense, &partition(&dense, 3).unwrap()) < 1e-12);
    }

    #[test]
    fn dual_is_never_better_than_exact_dp() {
        let mut seed = 55u64;
        let values: Vec<f64> = (0..150).map(|_| lcg(&mut seed) * 3.0).collect();
        for k in [3usize, 6, 12] {
            let dual = residual(&values, &partition(&values, k).unwrap());
            assert!(dual + 1e-12 >= optimum(&values, k));
        }
    }

    #[test]
    fn numerically_constant_signals_respect_the_piece_budget() {
        // Values one ulp apart: the SSE is rounding noise at every scale.
        for base in [1.0f64, 1e10] {
            let values: Vec<f64> = (0..64)
                .map(|i| if i % 2 == 0 { f64::from_bits(base.to_bits() + 1) } else { base })
                .collect();
            for k in 1..=4 {
                assert!(partition(&values, k).unwrap().len() <= k, "base {base}, k={k}");
            }
        }
    }

    #[test]
    fn constant_signal_is_one_piece() {
        let values = vec![2.5; 64];
        let pieces = partition(&values, 5).unwrap();
        assert_eq!(pieces.len(), 1);
        assert_eq!(residual(&values, &pieces), 0.0);
    }
}
