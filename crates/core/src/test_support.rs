//! Helpers shared by the merging algorithms' unit tests.

use crate::prefix::DensePrefix;

/// Brute-force optimal k-histogram error via dynamic programming, used only
/// on tiny inputs to validate the approximation guarantees.
#[allow(clippy::needless_range_loop)]
pub(crate) fn opt_k_sse(values: &[f64], k: usize) -> f64 {
    let n = values.len();
    let prefix = DensePrefix::new(values).unwrap();
    let inf = f64::INFINITY;
    // dp[j][i]: best SSE of covering the first i points with j pieces.
    let mut prev = vec![inf; n + 1];
    prev[0] = 0.0;
    let mut curr = vec![inf; n + 1];
    for _j in 1..=k {
        curr.iter_mut().for_each(|v| *v = inf);
        curr[0] = 0.0;
        for i in 1..=n {
            let mut best = inf;
            for b in 0..i {
                if prev[b] == inf {
                    continue;
                }
                let cost = prev[b] + prefix.sse_range(b, i);
                if cost < best {
                    best = cost;
                }
            }
            curr[i] = best;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[n]
}

/// A deterministic pseudo-random value in `[0, 1)` (no external RNG needed).
pub(crate) fn lcg(seed: &mut u64) -> f64 {
    *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    ((*seed >> 11) as f64) / (1u64 << 53) as f64
}
