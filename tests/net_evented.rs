//! Readiness-loop suite: the behaviors of the server's I/O loop beyond the
//! request/response answers the `net_serve`/`keyed_serve`/`net_corruption`
//! suites check:
//!
//! * **Pipelining** — N requests written in one syscall come back as N
//!   in-order responses, including interleaved keyed admin ops; a request
//!   budget exceeded mid-pipeline answers every in-budget request before
//!   the terminal `RequestLimit` frame. Each pipelining scenario is the
//!   `::evented` case; its `::blocking` case replays the same script in
//!   lock-step (one request, then its answer) and must get the same answers.
//! * **Torture** — frames split at every byte boundary (the short-read
//!   audit's regression net), one-byte-at-a-time writers, and a slow reader
//!   that forces the server through partial vectored writes.
//! * **Lifecycle** — idle connections don't wedge the loop, mid-frame
//!   disconnects (both clean half-close and hard drop) are contained.
//! * **Scale** — a 1024-connection soak under a live writer: zero lost
//!   responses, per-connection epoch monotonicity.
//! * **Buffer reuse** — the write path performs zero allocations across a
//!   warmed-up steady state, via the server's debug counter.

mod common;

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use approx_hist::net::{encode_request, read_message, Request, Response, DEFAULT_MAX_FRAME_BYTES};
use approx_hist::{
    Estimator, EstimatorBuilder, GreedyMerging, HistServer, Signal, StoreMap, Synopsis, DEFAULT_KEY,
};

/// The synopsis every test serves and checks answers against.
fn served_synopsis() -> Synopsis {
    let values: Vec<f64> = (0..256).map(|i| ((i / 64) % 3) as f64 * 2.0 + 1.0).collect();
    GreedyMerging::new(EstimatorBuilder::new(common::FIXTURE_K))
        .fit(&Signal::from_dense(values).unwrap())
        .unwrap()
}

fn spawn() -> HistServer {
    common::spawn_server(Arc::new(StoreMap::with_initial(served_synopsis())))
}

fn quantile_request(p: f64) -> Vec<u8> {
    encode_request(&Request::QuantileBatch { key: DEFAULT_KEY.into(), ps: vec![p] })
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    stream
}

/// Reads exactly `n` response frames off the stream, in arrival order.
fn read_responses(stream: &mut TcpStream, n: usize) -> Vec<Response> {
    let mut responses = Vec::with_capacity(n);
    for i in 0..n {
        let frame = read_message(stream, DEFAULT_MAX_FRAME_BYTES)
            .expect("read response")
            .unwrap_or_else(|| panic!("server closed after {i} of {n} responses"));
        let mut message = (frame.len() as u32).to_le_bytes().to_vec();
        message.extend_from_slice(&frame);
        responses.push(approx_hist::net::decode_response(&message).expect("well-formed response"));
    }
    responses
}

/// Reads response frames until the server closes the stream.
fn read_until_eof(stream: &mut TcpStream) -> Vec<Response> {
    let mut responses = Vec::new();
    while let Some(frame) = read_message(stream, DEFAULT_MAX_FRAME_BYTES).expect("read response") {
        let mut message = (frame.len() as u32).to_le_bytes().to_vec();
        message.extend_from_slice(&frame);
        responses.push(approx_hist::net::decode_response(&message).expect("well-formed response"));
    }
    responses
}

/// How a scenario ships its request script. `Pipelined` is the `evented`
/// case of the pipelining scenarios; `LockStep` is their `blocking` control,
/// the pattern of the blocking `HistClient`, which must get the same answers.
#[derive(Clone, Copy)]
enum Delivery {
    /// Every frame in one write call, then all the answers are read.
    Pipelined,
    /// One frame, then its answer, then the next frame.
    LockStep,
}

/// Ships `script` over `stream` as `delivery` says and returns one response
/// per request, in request order.
fn exchange(stream: &mut TcpStream, script: &[Vec<u8>], delivery: Delivery) -> Vec<Response> {
    match delivery {
        Delivery::Pipelined => {
            stream.write_all(&script.concat()).expect("one-syscall pipeline");
            read_responses(stream, script.len())
        }
        Delivery::LockStep => script
            .iter()
            .flat_map(|request| {
                stream.write_all(request).expect("lock-step request");
                read_responses(stream, 1)
            })
            .collect(),
    }
}

fn pipelined_requests_in_one_write_come_back_in_order(delivery: Delivery) {
    let mut server = spawn();
    let local = served_synopsis();
    let n = 32;

    // N distinguishable requests — each quantile fraction has a known
    // answer — concatenated into one buffer, shipped in one write call.
    let ps: Vec<f64> = (0..n).map(|i| i as f64 / (n - 1) as f64).collect();
    let script: Vec<Vec<u8>> = ps.iter().map(|&p| quantile_request(p)).collect();
    let mut stream = connect(server.local_addr());
    let responses = exchange(&mut stream, &script, delivery);
    for (i, (response, &p)) in responses.iter().zip(&ps).enumerate() {
        match response {
            Response::QuantileBatch { indices, .. } => {
                let expected = local.quantile(p).unwrap() as u64;
                assert_eq!(indices, &[expected], "response {i} (p = {p}) out of order or wrong");
            }
            other => panic!("response {i}: expected QuantileBatch, got {other:?}"),
        }
    }
    drop(stream);
    server.shutdown();
}

fn interleaved_keyed_ops_pipeline_in_order(delivery: Delivery) {
    let mut server = spawn();
    let blob = approx_hist::encode_synopsis(&served_synopsis());

    // Admin writes and queries interleaved across keys, one write call; the
    // response kinds and epochs must come back in exactly this order.
    let script = [
        encode_request(&Request::Publish { key: "a".into(), synopsis: blob.clone() }),
        encode_request(&Request::Stats { key: "a".into() }),
        encode_request(&Request::Publish { key: "b".into(), synopsis: blob.clone() }),
        encode_request(&Request::ListKeys),
        encode_request(&Request::Publish { key: "a".into(), synopsis: blob.clone() }),
        encode_request(&Request::DropKey { key: "b".into() }),
        encode_request(&Request::ListKeys),
    ];
    let mut stream = connect(server.local_addr());
    let responses = exchange(&mut stream, &script, delivery);

    assert!(matches!(responses[0], Response::Updated { epoch: 1 }), "got {:?}", responses[0]);
    assert!(matches!(&responses[1], Response::Stats { epoch: 1, synopsis: Some(_) }));
    assert!(matches!(responses[2], Response::Updated { epoch: 1 }));
    match &responses[3] {
        Response::KeyList { keys, .. } => {
            assert_eq!(keys, &["a", "b", DEFAULT_KEY], "listing after both publishes")
        }
        other => panic!("expected KeyList, got {other:?}"),
    }
    assert!(matches!(responses[4], Response::Updated { epoch: 2 }), "re-publish bumps a's epoch");
    assert!(matches!(responses[5], Response::Dropped { existed: true, .. }));
    match &responses[6] {
        Response::KeyList { keys, .. } => assert_eq!(keys, &["a", DEFAULT_KEY], "b is gone"),
        other => panic!("expected KeyList, got {other:?}"),
    }
    drop(stream);
    server.shutdown();
}

fn frames_split_at_every_byte_boundary_still_answer() {
    // The short-read audit's regression net: a frame arriving in two
    // arbitrarily split pieces (with a delay forcing the server to observe
    // the boundary) must decode exactly like an unsplit one.
    let mut server = spawn();
    let local = served_synopsis();
    let message = quantile_request(0.375);
    let expected = local.quantile(0.375).unwrap() as u64;

    for split in 1..message.len() {
        let mut stream = connect(server.local_addr());
        stream.write_all(&message[..split]).expect("first piece");
        stream.flush().unwrap();
        // Long enough for the server to wake up on the partial frame.
        std::thread::sleep(Duration::from_millis(2));
        stream.write_all(&message[split..]).expect("second piece");
        let responses = read_responses(&mut stream, 1);
        match &responses[0] {
            Response::QuantileBatch { indices, .. } => {
                assert_eq!(indices, &[expected], "split at byte {split}")
            }
            other => panic!("split at byte {split}: got {other:?}"),
        }
    }
    server.shutdown();
}

fn one_byte_writes_across_three_pipelined_frames(delivery: Delivery) {
    // The pathological slow client: three pipelined requests dribbled one
    // byte per write. The server must reassemble all frame boundaries and
    // answer all three, in order. (Lock-step dribbles one frame, reads its
    // answer, then dribbles the next.)
    let mut server = spawn();
    let local = served_synopsis();
    let ps = [0.125, 0.5, 0.875];
    let script: Vec<Vec<u8>> = ps.iter().map(|&p| quantile_request(p)).collect();
    let dribble = |stream: &mut TcpStream, bytes: &[u8]| {
        for &byte in bytes {
            stream.write_all(&[byte]).expect("one-byte write");
        }
    };

    let mut stream = connect(server.local_addr());
    let responses = match delivery {
        Delivery::Pipelined => {
            dribble(&mut stream, &script.concat());
            read_responses(&mut stream, ps.len())
        }
        Delivery::LockStep => script
            .iter()
            .flat_map(|request| {
                dribble(&mut stream, request);
                read_responses(&mut stream, 1)
            })
            .collect(),
    };
    for (i, (response, &p)) in responses.iter().zip(&ps).enumerate() {
        match response {
            Response::QuantileBatch { indices, .. } => {
                assert_eq!(indices, &[local.quantile(p).unwrap() as u64], "answer {i}")
            }
            other => panic!("answer {i}: got {other:?}"),
        }
    }
    drop(stream);
    server.shutdown();
}

fn a_slow_reader_forces_partial_writes_without_loss() {
    // Big pipelined responses against a reader that drains slowly: the
    // socket's send buffer fills, the server sees short/blocked writes, and
    // must still deliver every byte of every frame in order.
    let mut server = spawn();
    let local = served_synopsis();
    let n = local.domain();
    // ~64 KiB per response x 32 pipelined rounds = ~2 MiB of queued answers,
    // far past any loopback socket buffer, so the server must take the
    // partial-write path and resume each frame where it left off.
    let rounds = 32usize;
    let xs: Vec<u64> = (0..8192u64).map(|i| i % n as u64).collect();
    let expected: Vec<u64> = xs.iter().map(|&x| local.cdf(x as usize).unwrap().to_bits()).collect();

    let request = encode_request(&Request::CdfBatch { key: DEFAULT_KEY.into(), xs });
    let wire: Vec<u8> = std::iter::repeat_with(|| request.clone()).take(rounds).flatten().collect();
    let mut stream = connect(server.local_addr());
    stream.write_all(&wire).expect("pipeline");
    stream.shutdown(Shutdown::Write).unwrap();

    // Drain slowly in small chunks so the kernel window stays tight.
    let mut bytes = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(got) => {
                bytes.extend_from_slice(&chunk[..got]);
                std::thread::sleep(Duration::from_micros(100));
            }
            Err(e) => panic!("slow reader failed: {e}"),
        }
    }

    // Split the byte stream back into frames and verify every response.
    let mut offset = 0usize;
    let mut seen = 0usize;
    while offset < bytes.len() {
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
        let message = &bytes[offset..offset + 4 + len];
        match approx_hist::net::decode_response(message).expect("well-formed frame") {
            Response::CdfBatch { values, .. } => {
                assert_eq!(
                    values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    expected,
                    "response {seen} corrupted under partial writes"
                );
            }
            other => panic!("response {seen}: got {other:?}"),
        }
        seen += 1;
        offset += 4 + len;
    }
    assert_eq!(seen, rounds, "responses lost under a slow reader");
    server.shutdown();
}

fn budget_exhaustion_mid_pipeline_answers_then_closes(delivery: Delivery) {
    // Budget 3, five pipelined requests: the first three get real answers,
    // the fourth gets the terminal RequestLimit frame — sequenced after the
    // in-budget responses — and the stream closes. The fifth is never
    // answered. (Lock-step stops sending at the terminal frame: a write
    // after the close would only earn a reset.)
    let map = Arc::new(StoreMap::with_initial(served_synopsis()));
    let config = approx_hist::ServerConfig {
        max_requests_per_connection: 3,
        ..approx_hist::ServerConfig::default()
    };
    let mut server = HistServer::bind("127.0.0.1:0", map, config).unwrap();
    let script: Vec<Vec<u8>> = (0..5).map(|i| quantile_request(i as f64 / 4.0)).collect();

    let mut stream = connect(server.local_addr());
    let responses = match delivery {
        Delivery::Pipelined => {
            stream.write_all(&script.concat()).expect("pipeline");
            stream.shutdown(Shutdown::Write).unwrap();
            read_until_eof(&mut stream)
        }
        Delivery::LockStep => {
            let mut responses = Vec::new();
            for request in &script {
                stream.write_all(request).expect("lock-step request");
                let response = read_responses(&mut stream, 1).remove(0);
                let terminal = matches!(response, Response::Error { .. });
                responses.push(response);
                if terminal {
                    break;
                }
            }
            let after = read_until_eof(&mut stream);
            assert!(after.is_empty(), "the terminal frame must close the stream, got {after:?}");
            responses
        }
    };

    assert_eq!(responses.len(), 4, "3 answers + 1 terminal error, got {responses:?}");
    for (i, response) in responses[..3].iter().enumerate() {
        assert!(
            matches!(response, Response::QuantileBatch { .. }),
            "in-budget response {i}: got {response:?}"
        );
    }
    match &responses[3] {
        Response::Error { code, .. } => assert_eq!(*code, approx_hist::ErrorCode::RequestLimit),
        other => panic!("expected the RequestLimit frame, got {other:?}"),
    }
    server.shutdown();
}

fn idle_connections_and_mid_frame_disconnects_are_contained() {
    let mut server = spawn();
    let addr = server.local_addr();
    let message = quantile_request(0.5);

    // An idle connection that never writes: the server must neither answer
    // nor wedge on it.
    let idle = connect(addr);

    // A half-frame followed by a clean half-close: nobody is left to read
    // an error, so the server just closes.
    let mut half = connect(addr);
    half.write_all(&message[..message.len() / 2]).unwrap();
    half.shutdown(Shutdown::Write).unwrap();
    let mut rest = Vec::new();
    half.read_to_end(&mut rest).expect("clean close");
    assert!(rest.is_empty(), "a mid-frame EOF deserves silence, got {} bytes", rest.len());

    // A half-frame followed by a hard drop (RST on close with unread data
    // is fine too) — must not take the server down.
    let mut dropped = connect(addr);
    dropped.write_all(&message[..3]).unwrap();
    drop(dropped);

    // The server is still serving: a fresh connection gets a real answer,
    // and the idle connection works when it finally speaks.
    std::thread::sleep(Duration::from_millis(20));
    let mut fresh = connect(addr);
    fresh.write_all(&message).unwrap();
    assert!(matches!(read_responses(&mut fresh, 1)[0], Response::QuantileBatch { .. }));
    let mut idle = idle;
    idle.write_all(&message).unwrap();
    assert!(matches!(read_responses(&mut idle, 1)[0], Response::QuantileBatch { .. }));

    drop((fresh, idle));
    server.shutdown();
}

evented_cases!(
    frames_split_at_every_byte_boundary_still_answer,
    a_slow_reader_forces_partial_writes_without_loss,
    idle_connections_and_mid_frame_disconnects_are_contained,
);

mod pipelined_requests_in_one_write_come_back_in_order {
    use super::Delivery;

    #[test]
    fn evented() {
        super::pipelined_requests_in_one_write_come_back_in_order(Delivery::Pipelined);
    }

    #[test]
    fn blocking() {
        super::pipelined_requests_in_one_write_come_back_in_order(Delivery::LockStep);
    }
}

mod interleaved_keyed_ops_pipeline_in_order {
    use super::Delivery;

    #[test]
    fn evented() {
        super::interleaved_keyed_ops_pipeline_in_order(Delivery::Pipelined);
    }

    #[test]
    fn blocking() {
        super::interleaved_keyed_ops_pipeline_in_order(Delivery::LockStep);
    }
}

mod one_byte_writes_across_three_pipelined_frames {
    use super::Delivery;

    #[test]
    fn evented() {
        super::one_byte_writes_across_three_pipelined_frames(Delivery::Pipelined);
    }

    #[test]
    fn blocking() {
        super::one_byte_writes_across_three_pipelined_frames(Delivery::LockStep);
    }
}

mod budget_exhaustion_mid_pipeline_answers_then_closes {
    use super::Delivery;

    #[test]
    fn evented() {
        super::budget_exhaustion_mid_pipeline_answers_then_closes(Delivery::Pipelined);
    }

    #[test]
    fn blocking() {
        super::budget_exhaustion_mid_pipeline_answers_then_closes(Delivery::LockStep);
    }
}

#[test]
fn the_response_write_path_does_not_allocate_in_steady_state() {
    // The buffer-reuse guarantee, asserted through the server's own debug
    // counter: after a warm-up phase at a fixed pipelining depth, thousands
    // more identical request/response cycles must not allocate on the write
    // path at all.
    let mut server = spawn();
    let depth = 8usize;
    let wire: Vec<u8> =
        (0..depth).flat_map(|i| quantile_request(i as f64 / (depth - 1) as f64)).collect();
    let mut stream = connect(server.local_addr());

    for _ in 0..50 {
        stream.write_all(&wire).unwrap();
        read_responses(&mut stream, depth);
    }
    let warmed = server.write_path_allocations();

    for _ in 0..500 {
        stream.write_all(&wire).unwrap();
        read_responses(&mut stream, depth);
    }
    let after = server.write_path_allocations();
    assert_eq!(
        after,
        warmed,
        "write path allocated {} time(s) across 4000 steady-state responses",
        after - warmed
    );
    drop(stream);
    server.shutdown();
}

const SOAK_CONNS: usize = 1024;
const SOAK_THREADS: usize = 8;
const SOAK_REQUESTS_PER_CONN: usize = 4;

#[test]
fn a_1024_connection_soak_loses_nothing_and_keeps_epochs_monotone() {
    let _gate = common::stress_gate();
    let map = Arc::new(StoreMap::with_initial(served_synopsis()));
    let mut server = common::spawn_server(Arc::clone(&map));
    let addr = server.local_addr();

    let stop_writer = Arc::new(AtomicBool::new(false));
    // All 1024 connections are open at once: every driver thread connects
    // its whole share before any thread sends a byte.
    let all_connected = Arc::new(Barrier::new(SOAK_THREADS));
    let request = quantile_request(0.5);

    std::thread::scope(|scope| {
        // A live writer keeps epochs moving while the fleet queries.
        let writer = {
            let map = Arc::clone(&map);
            let stop = Arc::clone(&stop_writer);
            scope.spawn(move || {
                let mut merges = 0u64;
                while !stop.load(Ordering::Acquire) {
                    map.publish(DEFAULT_KEY, served_synopsis()).unwrap();
                    merges += 1;
                    std::thread::sleep(Duration::from_millis(2));
                }
                merges
            })
        };

        let mut drivers = Vec::new();
        for _ in 0..SOAK_THREADS {
            let all_connected = Arc::clone(&all_connected);
            let request = request.clone();
            drivers.push(scope.spawn(move || {
                let mut conns: Vec<TcpStream> = (0..SOAK_CONNS / SOAK_THREADS)
                    .map(|_| {
                        // The accept backlog may drop SYNs under the burst;
                        // retry instead of failing the soak on a full queue.
                        let mut tries = 0;
                        loop {
                            match TcpStream::connect(addr) {
                                Ok(stream) => {
                                    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                                    break stream;
                                }
                                Err(_) if tries < 50 => {
                                    tries += 1;
                                    std::thread::sleep(Duration::from_millis(10));
                                }
                                Err(e) => panic!("soak connect failed: {e}"),
                            }
                        }
                    })
                    .collect();
                all_connected.wait();

                // Each connection ships its whole pipeline in one write...
                let wire: Vec<u8> = std::iter::repeat_with(|| request.clone())
                    .take(SOAK_REQUESTS_PER_CONN)
                    .flatten()
                    .collect();
                for conn in &mut conns {
                    conn.write_all(&wire).expect("soak pipeline");
                }
                // ...then every connection is drained: exactly N in-order
                // responses each, with non-decreasing epochs.
                let mut responses = 0usize;
                for conn in &mut conns {
                    let answers = read_responses(conn, SOAK_REQUESTS_PER_CONN);
                    let mut last_epoch = 0u64;
                    for answer in answers {
                        match answer {
                            Response::QuantileBatch { epoch, .. } => {
                                assert!(
                                    epoch >= last_epoch,
                                    "epoch went backwards on one connection"
                                );
                                last_epoch = epoch;
                                responses += 1;
                            }
                            other => panic!("soak got {other:?}"),
                        }
                    }
                }
                responses
            }));
        }

        let total: usize = drivers.into_iter().map(|d| d.join().expect("driver")).sum();
        stop_writer.store(true, Ordering::Release);
        let merges = writer.join().expect("writer");
        assert_eq!(
            total,
            SOAK_CONNS * SOAK_REQUESTS_PER_CONN,
            "responses lost across the 1024-connection soak"
        );
        assert!(merges > 0, "the live writer never ran");
    });
    server.shutdown();
}
