//! Minimal wall-clock timing helper for the experiment binaries.
//!
//! The experiment binaries only need a rough but stable wall-clock number per
//! algorithm (the paper averages fast algorithms over up to 10⁴ trials — we do
//! the same adaptively).

use std::time::Instant;

/// Minimum total measurement window; fast algorithms are repeated until the
/// accumulated time reaches this budget.
const MIN_TOTAL_SECONDS: f64 = 0.05;
/// Upper bound on the number of repetitions for very fast algorithms.
const MAX_REPS: usize = 10_000;

/// Runs `f` once to obtain its result, then — if it was fast — re-runs it until
/// the accumulated measurement window is long enough, returning the result of
/// the first run and the average wall-clock seconds per run.
pub fn time_algorithm<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let start = Instant::now();
    let result = f();
    let first = start.elapsed().as_secs_f64();
    if first >= MIN_TOTAL_SECONDS {
        return (result, first);
    }
    // Average additional repetitions into the estimate.
    let reps = (((MIN_TOTAL_SECONDS - first) / first.max(1e-9)).ceil() as usize).clamp(1, MAX_REPS);
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    let rest = start.elapsed().as_secs_f64();
    (result, (first + rest) / (reps + 1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn returns_the_result_and_a_positive_time() {
        let (value, seconds) = time_algorithm(|| (0..1000).sum::<u64>());
        assert_eq!(value, 499_500);
        assert!(seconds > 0.0);
        assert!(seconds < 1.0);
    }

    #[test]
    fn slow_functions_are_not_repeated() {
        let (_, seconds) = time_algorithm(|| std::thread::sleep(Duration::from_millis(60)));
        assert!(seconds >= 0.055, "one 60 ms run is enough, measured {seconds}");
        assert!(seconds < 0.3, "the sleep must not be repeated many times, measured {seconds}");
    }
}
