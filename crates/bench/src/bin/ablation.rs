//! The three ablation experiments: the `δ`/`γ` trade-offs of Algorithm 1,
//! pair merging versus aggressive group merging, and the naive versus the
//! pruned exact DP.
//!
//! Usage:
//! ```text
//! cargo run --release -p hist-bench --bin ablation [-- --paper-scale]
//! ```

use hist_bench::ablation::{exact_dp_comparison, merging_strategies, parameter_sweep};
use hist_bench::report::{emit, fmt_float};
use hist_datasets as datasets;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let paper_scale = args.iter().any(|a| a == "--paper-scale");
    let dow = if paper_scale {
        datasets::dow_dataset()
    } else {
        datasets::dow_dataset_with_length(4_096)
    };

    println!("Ablations (dow, n = {})", dow.len());

    // 1. δ / γ sweep of Algorithm 1.
    let sweep = parameter_sweep(&dow, 50, &[0.25, 1.0, 4.0, 1000.0], &[0.0, 1.0, 200.0]);
    let rows: Vec<Vec<String>> = sweep
        .iter()
        .map(|r| {
            vec![
                fmt_float(r.delta),
                fmt_float(r.gamma),
                r.pieces.to_string(),
                fmt_float(r.error),
                r.rounds.to_string(),
                fmt_float(r.time_ms),
            ]
        })
        .collect();
    emit(
        "Algorithm 1: δ / γ trade-offs (k = 50)",
        "ablation_delta_gamma.csv",
        &["delta", "gamma", "pieces", "l2_error", "rounds", "time_ms"],
        &rows,
    )
    .expect("writing the CSV succeeds");

    // 2. Pair merging vs aggressive group merging.
    let mut strategy_rows: Vec<Vec<String>> = Vec::new();
    for n in [1_024usize, 4_096, dow.len()] {
        let prefix = &dow[..n.min(dow.len())];
        for row in merging_strategies(prefix, 50) {
            strategy_rows.push(vec![
                row.strategy.clone(),
                row.n.to_string(),
                row.rounds.to_string(),
                fmt_float(row.error),
                fmt_float(row.time_ms),
            ]);
        }
    }
    emit(
        "merging vs fastmerging (k = 50)",
        "ablation_merging_strategy.csv",
        &["strategy", "n", "rounds", "l2_error", "time_ms"],
        &strategy_rows,
    )
    .expect("writing the CSV succeeds");

    // 3. Naive vs pruned exact DP.
    let mut dp_rows: Vec<Vec<String>> = Vec::new();
    for n in [512usize, 1_024, 2_048, 4_096] {
        let prefix = &dow[..n.min(dow.len())];
        for row in exact_dp_comparison(prefix, 50) {
            dp_rows.push(vec![
                row.implementation.clone(),
                row.n.to_string(),
                fmt_float(row.sse),
                fmt_float(row.time_ms),
            ]);
        }
    }
    emit(
        "exact DP: naive vs pruned (k = 50)",
        "ablation_exact_dp.csv",
        &["implementation", "n", "sse", "time_ms"],
        &dp_rows,
    )
    .expect("writing the CSV succeeds");
}
