//! The admitted value range, finite with `|v| ≤ VALUE_BOUND = 2^400`, at
//! every boundary that takes signal or histogram values; and every fit of a
//! signal at the bound reports a finite, non-negative error.

mod common;

use std::fmt::Debug;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;

use approx_hist::core::{construct_hierarchical_histogram, is_admitted, DensePrefix, VALUE_BOUND};
use approx_hist::net::{decode_response, encode_request, read_message, Request, Response};
use approx_hist::persist::wire::seal_envelope;
use approx_hist::EstimatorKind::{ExactDp, ExactDpNaive, FastMerging, Hierarchical, Merging};
use approx_hist::{
    decode_stream_checkpoint, decode_synopsis, encode_stream_checkpoint, encode_synopsis,
    load_synopsis, Error, EstimatorBuilder, EstimatorKind, EventSource, FittedModel, GreedyMerging,
    Histogram, Interval, Signal, SparseFunction, StoreMap, StreamingBuilder, Synopsis, DEFAULT_KEY,
};

/// `check` succeeds on `±VALUE_BOUND` and fails on the next floats past it
/// and on `±∞`, each time with exactly the error a NaN gets.
fn admits_the_range<T, E: Debug>(what: &str, mut check: impl FnMut(f64) -> Result<T, E>) {
    for v in [VALUE_BOUND, -VALUE_BOUND] {
        assert!(is_admitted(v));
        check(v).unwrap_or_else(|e| panic!("{what}: {v} rejected with {e:?}"));
    }
    let nan = format!("{:?}", check(f64::NAN).err().expect("NaN is rejected"));
    let past = VALUE_BOUND.next_up();
    for v in [past, -past, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(!is_admitted(v));
        let err = check(v).err().unwrap_or_else(|| panic!("{what}: {v} accepted"));
        assert_eq!(format!("{err:?}"), nan, "{what}: {v}");
    }
}

#[test]
fn every_signal_and_histogram_constructor_admits_the_range() {
    assert_eq!(VALUE_BOUND, 2f64.powi(400));
    admits_the_range("SparseFunction::new", |v| SparseFunction::new(4, vec![(0, 1.0), (2, v)]));
    admits_the_range("SparseFunction::from_dense", |v| SparseFunction::from_dense(&[0.0, v]));
    admits_the_range("from_dense_keep_zeros", |v| SparseFunction::from_dense_keep_zeros(&[v]));
    admits_the_range("Signal::from_dense", |v| Signal::from_dense(vec![1.0, v]));
    admits_the_range("Signal::from_slice", |v| Signal::from_slice(&[v]));
    admits_the_range("DensePrefix::new", |v| DensePrefix::new(&[2.0, v]));
    admits_the_range("Histogram::new", |v| Histogram::from_breakpoints(4, &[2], vec![v, 1.0]));
    admits_the_range("EventSource::from_block", |v| EventSource::from_block("m", vec![1.0, v]));
    let mut checkpoint = decode_stream_checkpoint(&three_values().checkpoint()).unwrap();
    admits_the_range("decode_stream_checkpoint", |v| {
        checkpoint.tail[1] = v;
        decode_stream_checkpoint(&encode_stream_checkpoint(&checkpoint))
    });
}

/// A streaming builder holding three values, short of its first chunk.
fn three_values() -> StreamingBuilder {
    let inner = Box::new(GreedyMerging::new(EstimatorBuilder::new(2)));
    let mut stream = StreamingBuilder::new(inner, 4, 8).unwrap();
    stream.extend(&[1.0, 2.0, 3.0]).unwrap();
    stream
}

/// Runs `consume` on [`three_values`]: `len()` moves exactly when it
/// succeeds, so no rejected value is buffered, and the builder stays live.
fn consumed(
    consume: impl FnOnce(&mut StreamingBuilder) -> Result<(), Error>,
) -> Result<usize, Error> {
    let mut stream = three_values();
    let result = consume(&mut stream).map(|()| stream.len());
    assert_eq!(stream.len() == 3 && stream.buffered() == 3, result.is_err());
    stream.extend(&[4.0; 5]).and_then(|()| stream.synopsis()).expect("the builder is live");
    result
}

#[test]
fn streaming_builders_admit_the_range_and_consume_nothing_they_reject() {
    admits_the_range("push", |v| consumed(|s| s.push(v)));
    admits_the_range("extend", |v| consumed(|s| s.extend(&[4.0, v])));
    admits_the_range("extend_collecting_chunks", |v| {
        consumed(|s| s.extend_collecting_chunks(&[v; 5], &mut Some(&mut Vec::new())))
    });
}

/// An encoded synopsis whose first histogram value is `v`: a placeholder's
/// bytes swapped for `v`'s and the CRC resealed, since no `Histogram` holding
/// a rejected value can be built to encode.
fn synopsis_bytes_with(v: f64) -> Vec<u8> {
    let h = Histogram::from_breakpoints(16, &[8], vec![1234.5678, 2.0]).unwrap();
    let mut bytes = encode_synopsis(&Synopsis::new("merging", 2, FittedModel::Histogram(h)));
    bytes.truncate(bytes.len() - 4);
    let at = bytes.windows(8).position(|w| w == 1234.5678f64.to_le_bytes()).unwrap();
    bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
    seal_envelope(&mut bytes, 0);
    bytes
}

#[test]
fn a_persisted_file_and_a_wire_publish_admit_the_range() {
    let path = std::env::temp_dir().join(format!("value_range_{}.ahist", std::process::id()));
    admits_the_range("load_synopsis", |v| {
        std::fs::write(&path, synopsis_bytes_with(v)).unwrap();
        load_synopsis(&path).map(|s| assert_eq!(s.histogram().unwrap().values()[0], v))
    });
    std::fs::remove_file(&path).unwrap();

    let served = decode_synopsis(&synopsis_bytes_with(1.0)).unwrap();
    let server = common::spawn_server(Arc::new(StoreMap::with_initial(served)));
    admits_the_range("Publish", |v| {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let publish =
            Request::Publish { key: DEFAULT_KEY.into(), synopsis: synopsis_bytes_with(v) };
        stream.write_all(&encode_request(&publish)).unwrap();
        let frame = read_message(&mut stream, usize::MAX).unwrap().expect("an answer");
        match decode_response(&[&(frame.len() as u32).to_le_bytes()[..], &frame].concat()) {
            Ok(Response::Error { code, .. }) => Err(code),
            answer => Ok(answer.unwrap()),
        }
    });
}

/// Every fitter over an alternating `±VALUE_BOUND` signal of `2^12` points
/// (every first-round pair error ties at `2·VALUE_BOUND²`) reports a finite,
/// non-negative error; an exact DP's is no worse than the zero function's.
#[test]
fn every_fit_at_the_range_bound_reports_a_finite_error() {
    let n = 1 << 12;
    let values: Vec<f64> = (0..n).map(|i| [VALUE_BOUND, -VALUE_BOUND][i % 2]).collect();
    let signal = Signal::from_slice(&values).unwrap();
    let energy = n as f64 * VALUE_BOUND * VALUE_BOUND;
    let builder = EstimatorBuilder::new(4);
    let fitters =
        [Merging, FastMerging, Hierarchical, ExactDp, ExactDpNaive].map(|k| k.build(builder));
    let polys = (0..=3).map(|d| EstimatorKind::PiecewisePoly.build(builder.degree(d)));
    for fitter in fitters.into_iter().chain(polys) {
        let error = fitter.fit(&signal).unwrap().l2_error(&signal).unwrap();
        assert!(error.is_finite() && error >= 0.0, "{}: {error}", fitter.name());
        let exact = fitter.name().starts_with("exactdp");
        assert!(!exact || error * error <= energy * (1.0 + 1e-9), "{}", fitter.name());
    }
    let q = SparseFunction::from_dense_keep_zeros(&values).unwrap();
    for level in construct_hierarchical_histogram(&q).unwrap().levels() {
        assert!(level.error().is_finite() && level.error() >= 0.0);
    }
    let prefix = DensePrefix::new(&values).unwrap();
    assert_eq!(prefix.sse(Interval::new(0, n - 1).unwrap()), energy);
}
