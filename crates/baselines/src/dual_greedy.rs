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

use crate::FitResult;
use hist_core::{flatten_dense, DensePrefix, Error, Partition, Result};

/// Result of one greedy sweep for the dual problem.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DualSweep {
    /// The produced partition.
    pub partition: Partition,
    /// Total squared error of flattening over the partition.
    pub sse: f64,
}

/// One `O(n)` greedy sweep with per-piece squared-error threshold `tau_sq`:
/// every produced piece has flattening SSE at most `tau_sq` (single points are
/// always admissible).
pub(crate) fn greedy_sweep(values: &[f64], tau_sq: f64) -> Result<DualSweep> {
    if values.is_empty() {
        return Err(Error::EmptyDomain);
    }
    if !tau_sq.is_finite() || tau_sq < 0.0 {
        return Err(Error::InvalidParameter {
            name: "tau_sq",
            reason: format!("per-piece error budget must be non-negative and finite, got {tau_sq}"),
        });
    }
    let n = values.len();
    let prefix = DensePrefix::new(values)?;
    let mut breaks = Vec::new();
    let mut piece_start = 0usize;
    let mut sse = 0.0;
    let mut last_sse = 0.0;
    for i in 1..=n {
        let cost = prefix.sse_range(piece_start, i);
        if cost > tau_sq && i - piece_start > 1 {
            // Close the piece before index i - 1 and start a new one there.
            sse += prefix.sse_range(piece_start, i - 1);
            piece_start = i - 1;
            breaks.push(i - 1);
            last_sse = prefix.sse_range(piece_start, i);
        } else {
            last_sse = cost;
        }
    }
    sse += last_sse;
    let partition = Partition::from_breakpoints(n, &breaks)?;
    Ok(DualSweep { partition, sse })
}

/// Solves the primal problem with the dual greedy: binary search over the
/// per-piece threshold until the sweep uses at most `k` pieces
/// (`O(n·log(range/precision))` time).
pub fn dual_histogram(values: &[f64], k: usize) -> Result<FitResult> {
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
        return Err(Error::NonFiniteValue { context: "dual_greedy" });
    }
    let prefix = DensePrefix::new(values)?;
    let total_sse = prefix.sse_range(0, values.len());
    if total_sse <= f64::EPSILON {
        // The whole signal is constant: one piece suffices.
        let partition = Partition::trivial(values.len())?;
        let histogram = flatten_dense(values, &partition)?;
        return Ok(FitResult { histogram, sse: 0.0 });
    }

    // Invariant: `hi` always yields at most k pieces (the full-signal SSE does),
    // `lo` may not. Shrink the bracket by a fixed number of halvings.
    let mut lo = 0.0f64;
    let mut hi = total_sse;
    let mut best = greedy_sweep(values, hi)?;
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        let sweep = greedy_sweep(values, mid)?;
        if sweep.partition.len() <= k {
            hi = mid;
            best = sweep;
        } else {
            lo = mid;
        }
    }
    let histogram = flatten_dense(values, &best.partition)?;
    let sse = best.sse;
    Ok(FitResult { histogram, sse })
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
    fn sweep_respects_the_per_piece_budget() {
        let mut seed = 8u64;
        let values: Vec<f64> = (0..200).map(|_| lcg(&mut seed) * 4.0).collect();
        let prefix = DensePrefix::new(&values).unwrap();
        for tau in [0.05, 0.5, 5.0, 50.0] {
            let sweep = greedy_sweep(&values, tau).unwrap();
            for iv in sweep.partition.iter() {
                let cost = prefix.sse(*iv);
                assert!(
                    cost <= tau + 1e-12 || iv.len() == 1,
                    "piece {iv} has error {cost} > {tau}"
                );
            }
            // Total error equals the flattening error of the produced partition.
            let direct: f64 = sweep.partition.iter().map(|iv| prefix.sse(*iv)).sum();
            assert!((sweep.sse - direct).abs() < 1e-9);
        }
    }

    #[test]
    fn larger_budgets_give_fewer_pieces() {
        let mut seed = 21u64;
        let values: Vec<f64> = (0..400).map(|_| lcg(&mut seed) * 2.0).collect();
        let mut last_pieces = usize::MAX;
        for tau in [0.01, 0.1, 1.0, 10.0, 100.0] {
            let sweep = greedy_sweep(&values, tau).unwrap();
            assert!(sweep.partition.len() <= last_pieces);
            last_pieces = sweep.partition.len();
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
            let fit = dual_histogram(&values, k).unwrap();
            assert!(fit.histogram.num_pieces() <= k, "k={k}");
            let direct = fit.histogram.l2_distance_squared_dense(&values).unwrap();
            assert!((fit.sse - direct).abs() < 1e-9 * (1.0 + direct));
        }
    }

    #[test]
    fn close_to_optimal_on_clean_step_signals() {
        let truth = Histogram::from_breakpoints(120, &[40, 80], vec![1.0, 6.0, 3.0]).unwrap();
        let dense = truth.to_dense();
        let fit = dual_histogram(&dense, 3).unwrap();
        assert!(fit.sse < 1e-12);
    }

    #[test]
    fn dual_is_never_better_than_exact_dp() {
        let mut seed = 55u64;
        let values: Vec<f64> = (0..150).map(|_| lcg(&mut seed) * 3.0).collect();
        for k in [3usize, 6, 12] {
            let dual = dual_histogram(&values, k).unwrap();
            let exact = exact_dp::opt_sse(&values, k).unwrap();
            assert!(dual.sse + 1e-12 >= exact);
        }
    }

    #[test]
    fn constant_signal_is_one_piece() {
        let values = vec![2.5; 64];
        let fit = dual_histogram(&values, 5).unwrap();
        assert_eq!(fit.histogram.num_pieces(), 1);
        assert_eq!(fit.sse, 0.0);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(greedy_sweep(&[], 1.0).is_err());
        assert!(greedy_sweep(&[1.0], -1.0).is_err());
        assert!(dual_histogram(&[1.0, 2.0], 0).is_err());
    }
}
