//! # hist-bench
//!
//! The experiment harness of the reproduction: shared runners for every table
//! and figure of the paper's evaluation (Section 5) plus three ablations
//! ([`ablation`]). The binaries in `src/bin/` print the paper's tables and
//! write CSVs under `out/`.
//!
//! | Paper artifact | Runner | Binary |
//! |---|---|---|
//! | Figure 1 (data sets) | [`offline::figure1`] | `figure1` |
//! | Table 1 (offline approximation) | [`offline::table1`] | `table1` |
//! | Figure 2 (learning curves) | [`learning::figure2`] | `figure2` |
//! | Theorem 2.2 demo (Pareto) | [`pareto::pareto_experiment`] | `pareto` |
//! | Theorem 2.3 demo (piecewise poly) | [`polyexp::poly_experiment`] | `poly_experiment` |
//! | Ablations (δ/γ, fastmerging, DPs) | [`ablation`] | `ablation` |

pub mod ablation;
pub mod learning;
pub mod offline;
pub mod pareto;
pub mod polyexp;
pub mod report;
pub mod timing;

pub use offline::{
    extra_baseline_estimators, run_offline, table1, table1_datasets, table1_estimators,
    OfflineResult, OfflineRun,
};
pub use timing::time_algorithm;
