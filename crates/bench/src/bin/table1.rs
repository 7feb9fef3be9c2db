//! Regenerates Table 1 of the paper: offline histogram approximation on the
//! `hist`, `poly` and `dow` data sets with `exactdp`, `merging`, `merging2`,
//! `fastmerging`, `fastmerging2` and `dual`, all dispatched through the
//! unified `Estimator` trait.
//!
//! Usage:
//! ```text
//! cargo run --release -p hist-bench --bin table1 [-- --paper-scale] [--naive-dp] [--all-baselines]
//! ```
//! `--paper-scale` uses the full `dow` series (`n = 16384`); `--naive-dp` times
//! the naive `O(n²k)` DP on every data set (slow at paper scale); by default
//! the pruned exact DP is used on `dow` (identical optimum, practical time).
//! `--all-baselines` adds the extra baselines (`gks`, equi-width, equi-depth,
//! greedy splitting) to every data set. A fit the estimator rejects (equi-depth
//! on the negative values of `poly`) is printed with its error and gets no row.

use hist_bench::offline::{
    extra_baseline_estimators, run_offline, table1_datasets, table1_estimators, OfflineRun,
};
use hist_bench::report::{emit, fmt_float};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let paper_scale = args.iter().any(|a| a == "--paper-scale");
    let naive_dp = args.iter().any(|a| a == "--naive-dp");
    let all_baselines = args.iter().any(|a| a == "--all-baselines");

    println!("Table 1 — offline histogram approximation");
    println!(
        "(dow size: {}, exact DP: {})",
        if paper_scale { "16384 (paper scale)" } else { "4096 (use --paper-scale for 16384)" },
        if naive_dp { "naive O(n²k) everywhere" } else { "naive on small sets, pruned on dow" },
    );

    for spec in table1_datasets(paper_scale) {
        let naive = naive_dp || spec.values.len() <= 4_096;
        let mut estimators = table1_estimators(spec.k, naive);
        if all_baselines {
            estimators.extend(extra_baseline_estimators(spec.k));
        }
        let OfflineRun { rows: results, rejected } = run_offline(&spec.values, &estimators);
        let rows: Vec<Vec<String>> = results
            .iter()
            .map(|r| {
                vec![
                    r.algorithm.clone(),
                    r.pieces.to_string(),
                    fmt_float(r.error),
                    fmt_float(r.relative_error),
                    fmt_float(r.time_ms),
                    fmt_float(r.relative_time),
                ]
            })
            .collect();
        emit(
            &format!("{} (n = {}, k = {})", spec.name, spec.values.len(), spec.k),
            &format!("table1_{}.csv", spec.name),
            &["algorithm", "pieces", "l2_error", "relative_error", "time_ms", "relative_time"],
            &rows,
        )
        .expect("writing the CSV succeeds");
        for (name, err) in &rejected {
            println!("{name} rejected {}: {err}", spec.name);
        }
    }
}
