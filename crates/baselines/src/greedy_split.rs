//! Top-down greedy splitting baseline.
//!
//! Starting from a single interval covering the whole domain, the algorithm
//! repeatedly takes the interval with the largest flattening error and splits
//! it at the position minimizing the sum of the two children's errors, until
//! `k` intervals exist. This is the natural "opposite" of the paper's bottom-up
//! merging algorithm and is included as an ablation point: it also runs in
//! near-linear time (`O(n·log n + n·k)` here) but carries no approximation
//! guarantee — a greedy split can never be undone.

use hist_core::{DensePrefix, Interval, Partition, Result};

/// The pieces top-down greedy splitting picks for a `k`-histogram.
pub(crate) fn partition(values: &[f64], k: usize) -> Result<Partition> {
    let n = values.len();
    let k = k.min(n);
    let prefix = DensePrefix::new(values)?;

    // Working set of intervals with cached errors.
    let mut pieces: Vec<(Interval, f64)> = vec![(Interval::new(0, n - 1)?, prefix.sse_range(0, n))];
    while pieces.len() < k {
        // Find the interval with the largest error that can still be split.
        let Some((idx, _)) = pieces
            .iter()
            .enumerate()
            .filter(|(_, (iv, _))| iv.len() > 1)
            .max_by(|a, b| a.1 .1.partial_cmp(&b.1 .1).expect("errors are finite"))
        else {
            break;
        };
        let (interval, _) = pieces[idx];
        let (left, right) = best_split(&prefix, interval);
        pieces[idx] = left;
        pieces.insert(idx + 1, right);
    }

    Partition::new(n, pieces.into_iter().map(|(iv, _)| iv).collect())
}

/// Splits `interval` at the position minimizing the total error of the two
/// halves. The interval must have at least two points.
fn best_split(prefix: &DensePrefix, interval: Interval) -> ((Interval, f64), (Interval, f64)) {
    let start = interval.start();
    let end = interval.end();
    let mut best = f64::INFINITY;
    let mut best_split = start + 1;
    let mut best_costs = (0.0, 0.0);
    for split in (start + 1)..=end {
        let left = prefix.sse_range(start, split);
        let right = prefix.sse_range(split, end + 1);
        if left + right < best {
            best = left + right;
            best_split = split;
            best_costs = (left, right);
        }
    }
    (
        (Interval::new_unchecked(start, best_split - 1), best_costs.0),
        (Interval::new_unchecked(best_split, end), best_costs.1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{lcg, optimum, residual};

    #[test]
    fn recovers_clean_step_signals() {
        let dense = [vec![4.0; 20], vec![1.0; 35], vec![7.0; 25]].concat();
        let pieces = partition(&dense, 3).unwrap();
        assert!(residual(&dense, &pieces) < 1e-12);
        assert_eq!(pieces.len(), 3);
    }

    #[test]
    fn is_between_one_piece_and_the_optimum() {
        let mut seed = 61u64;
        let values: Vec<f64> = (0..150).map(|_| lcg(&mut seed) * 5.0).collect();
        let prefix = DensePrefix::new(&values).unwrap();
        let total = prefix.sse_range(0, values.len());
        for k in [2usize, 4, 8] {
            let pieces = partition(&values, k).unwrap();
            let sse = residual(&values, &pieces);
            assert!(sse + 1e-12 >= optimum(&values, k));
            assert!(sse <= total + 1e-12);
            assert_eq!(pieces.len(), k);
        }
    }

    #[test]
    fn error_decreases_with_more_pieces() {
        let mut seed = 44u64;
        let values: Vec<f64> = (0..200).map(|_| lcg(&mut seed)).collect();
        let mut last = f64::INFINITY;
        for k in [1usize, 2, 4, 8, 16, 32] {
            let sse = residual(&values, &partition(&values, k).unwrap());
            assert!(sse <= last + 1e-12);
            last = sse;
        }
    }

    #[test]
    fn k_larger_than_n_is_clamped() {
        let values = vec![1.0, 5.0];
        let pieces = partition(&values, 9).unwrap();
        assert_eq!(pieces.len(), 2);
        assert!(residual(&values, &pieces) < 1e-15);
    }
}
