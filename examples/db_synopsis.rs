//! Database-style synopsis: summarize a skewed column of item frequencies
//! (a Zipf-distributed sales table) with a small V-optimal-style histogram and
//! use it to answer approximate range-count queries.
//!
//! This is the motivating workload of the paper's introduction: the histogram
//! is a succinct synopsis whose size (`O(k)` numbers) is tiny compared to the
//! column, yet range aggregates remain accurate. The whole flow — fitting and
//! query answering — runs through the unified `Signal → Estimator → Synopsis`
//! API.
//!
//! ```text
//! cargo run --release --example db_synopsis
//! ```

use approx_hist::datasets::zipf_frequencies;
use approx_hist::{Estimator, EstimatorBuilder, GreedyMerging, Interval, Signal};

/// Exact range count from the raw column.
fn exact_range_count(column: &[f64], range: Interval) -> f64 {
    column[range.as_range()].iter().sum()
}

fn main() {
    // A column of 100 000 item frequencies, Zipf-distributed: a handful of hot
    // items hold most of the mass.
    let n = 100_000;
    let column = zipf_frequencies(n, 1.1, 10_000_000.0, 42);
    let total: f64 = column.iter().sum();

    // Build a 64-piece synopsis. The column is dense, but the same code path
    // handles arbitrary sparse columns.
    let k = 64;
    let signal = Signal::from_slice(&column).expect("finite column");
    let estimator = GreedyMerging::new(EstimatorBuilder::new(k));
    let synopsis = estimator.fit(&signal).expect("valid column");

    println!("column:   {n} items, total count {total:.0}");
    println!(
        "synopsis: {} pieces ({} numbers) — {:.4}% of the column size",
        synopsis.num_pieces(),
        2 * synopsis.num_pieces(),
        200.0 * synopsis.num_pieces() as f64 / n as f64
    );

    // Answer a few range-count queries from the synopsis alone — this is
    // `Synopsis::mass`, the selectivity estimate of a query optimizer.
    let queries = [
        Interval::new(0, 999).unwrap(),
        Interval::new(10_000, 19_999).unwrap(),
        Interval::new(50_000, 99_999).unwrap(),
        Interval::new(0, n - 1).unwrap(),
    ];
    println!("\n{:>24}  {:>14}  {:>14}  {:>10}", "range", "exact", "estimate", "rel. error");
    for query in queries {
        let exact = exact_range_count(&column, query);
        let estimate = synopsis.mass(query).expect("range inside domain");
        let rel = if exact > 0.0 { (estimate - exact).abs() / exact } else { 0.0 };
        println!(
            "{:>24}  {exact:>14.0}  {estimate:>14.0}  {rel:>9.4}%",
            format!("{query}"),
            rel = 100.0 * rel
        );
    }

    // Quantile serving: which item index splits the mass in half?
    println!(
        "\nmedian-mass item (synopsis): {}  |  cdf(1000) = {:.4}",
        synopsis.quantile(0.5).expect("positive mass"),
        synopsis.cdf(1_000).expect("in domain"),
    );

    // A point lookup is a one-item range count.
    let hot_item = (0..n).max_by(|&a, &b| column[a].partial_cmp(&column[b]).unwrap()).unwrap();
    println!(
        "hottest item {hot_item}: true count {:.0}, synopsis estimate {:.0}",
        column[hot_item],
        synopsis.mass(Interval::new(hot_item, hot_item).expect("in domain")).expect("in domain")
    );
}
