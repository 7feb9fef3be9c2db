//! The merge error-bound acceptance suite: tree-merged chunked fits and the
//! one-pass streaming builder must stay within a constant factor `C` of a
//! direct fit on the same data, across the whole fixture suite.
//!
//! `C = 3` is the committed regression constant for Algorithm 1 chunks
//! re-merged at `2k + 1` pieces (measured headroom is well below it); the
//! additive slack only absorbs floating-point noise on fixtures both fits
//! recover exactly.

mod common;

use approx_hist::stream::{ChunkedFitter, StreamingBuilder};
use approx_hist::{Estimator, GreedyMerging, Signal};
use common::{fixture_builder, fixture_signals, FIXTURE_K};

/// The committed error-growth constant for merged construction.
const C: f64 = 3.0;

/// Absolute slack for fixtures with (near-)zero direct error.
fn slack(signal: &Signal) -> f64 {
    1e-6 * signal.l2_norm_squared().sqrt().max(1.0)
}

fn direct() -> GreedyMerging {
    GreedyMerging::new(fixture_builder())
}

fn inner() -> Box<dyn Estimator> {
    Box::new(direct())
}

#[test]
fn tree_merged_chunked_fits_stay_within_c_of_direct_fits() {
    for (fixture, signal) in fixture_signals() {
        let direct_err = direct().fit(&signal).unwrap().l2_error(&signal).unwrap();
        for chunks in [2usize, 4, 16] {
            let chunk_len = signal.domain().div_ceil(chunks).max(1);
            let fitter = ChunkedFitter::new(inner(), FIXTURE_K).with_chunk_len(chunk_len);
            let merged = fitter.fit(&signal).unwrap();
            let merged_err = merged.l2_error(&signal).unwrap();
            assert!(
                merged_err <= C * direct_err + slack(&signal),
                "{fixture}/{chunks} chunks: merged error {merged_err} vs direct {direct_err}"
            );
        }
    }
}

#[test]
fn streaming_construction_stays_within_c_of_direct_fits() {
    for (fixture, signal) in fixture_signals() {
        let direct_err = direct().fit(&signal).unwrap().l2_error(&signal).unwrap();
        let values = signal.dense_values();
        for chunk_len in [17usize, 64] {
            let mut stream = StreamingBuilder::new(inner(), FIXTURE_K, chunk_len).unwrap();
            stream.extend(&values).unwrap();
            let synopsis = stream.synopsis().unwrap();
            assert_eq!(synopsis.domain(), signal.domain());
            let err = synopsis.l2_error(&signal).unwrap();
            assert!(
                err <= C * direct_err + slack(&signal),
                "{fixture}/chunk {chunk_len}: streaming error {err} vs direct {direct_err}"
            );
        }
    }
}
