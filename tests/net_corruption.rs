//! Corruption suite for the wire protocol, mirroring `persist_corruption.rs`
//! one layer up: a *live* server fed truncations at every prefix length,
//! byte flips at every offset, forged huge length prefixes behind valid
//! CRCs, unknown ops, other protocol versions and seeded random soup must
//! answer a typed error frame (or cleanly close the connection) — and never
//! panic, hang, or allocate at the attacker's command.
//!
//! A server-side panic cannot hide: the server answers every request on its
//! one loop thread, so a panic would stop it, and after every hostile sweep
//! a well-formed request must still be answered — the server survived, it
//! didn't just go quiet.

mod common;

use std::io::Write as _;
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use approx_hist::net::{
    decode_request, decode_response, read_message, seal_message, split_message, ErrorCode, Request,
    Response, DEFAULT_MAX_FRAME_BYTES, LENGTH_PREFIX_BYTES, NET_MAGIC, PROTOCOL_VERSION,
};
use approx_hist::persist::crc32;
use approx_hist::{
    Estimator, EstimatorBuilder, GreedyMerging, HistClient, HistServer, NetError, Signal, StoreMap,
    DEFAULT_KEY,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A served synopsis every test queries against.
fn served_synopsis() -> approx_hist::Synopsis {
    let values: Vec<f64> = (0..256).map(|i| ((i / 64) % 3) as f64 * 2.0 + 1.0).collect();
    GreedyMerging::new(EstimatorBuilder::new(common::FIXTURE_K))
        .fit(&Signal::from_dense(values).unwrap())
        .unwrap()
}

fn spawn_server() -> HistServer {
    let map = Arc::new(StoreMap::with_initial(served_synopsis()));
    common::spawn_server(map)
}

/// A benign request whose answer proves the server is still alive.
fn health_probe() -> Vec<u8> {
    approx_hist::net::encode_request(&Request::QuantileBatch {
        key: DEFAULT_KEY.into(),
        ps: vec![0.5],
    })
}

/// Writes `bytes` to a fresh connection, closes the write side, and collects
/// every response frame the server sends before closing. Panics if a frame
/// does not announce [`PROTOCOL_VERSION`] or does not decode as a
/// well-formed [`Response`] — the server must never answer garbage with
/// garbage — or if the server hangs.
fn poke(server: &HistServer, bytes: &[u8]) -> Vec<Response> {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(bytes).expect("write corrupted bytes");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut responses = Vec::new();
    loop {
        match read_message(&mut stream, DEFAULT_MAX_FRAME_BYTES) {
            Ok(Some(frame)) => {
                let version = &frame[NET_MAGIC.len()..NET_MAGIC.len() + 2];
                assert_eq!(version, PROTOCOL_VERSION.to_le_bytes(), "answer frame version");
                let mut message = (frame.len() as u32).to_le_bytes().to_vec();
                message.extend_from_slice(&frame);
                responses.push(decode_response(&message).expect("server sent undecodable frame"));
            }
            Ok(None) => return responses,
            // A reset counts as a close: the server may slam the door on
            // hostile bytes (it drains before closing, so this is rare).
            Err(NetError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::BrokenPipe
                ) =>
            {
                return responses
            }
            Err(e) => panic!("reading the server's answer failed: {e}"),
        }
    }
}

/// Asserts the server still answers a well-formed request correctly.
fn assert_alive(server: &HistServer) {
    let responses = poke(server, &health_probe());
    assert_eq!(responses.len(), 1, "health probe expects exactly one answer");
    assert!(
        matches!(responses[0], Response::QuantileBatch { .. }),
        "health probe got {:?}",
        responses[0]
    );
}

/// Every response to hostile bytes must be a typed error frame.
fn assert_all_errors(responses: &[Response], context: &str) {
    for response in responses {
        assert!(
            matches!(response, Response::Error { .. }),
            "{context}: hostile bytes got a non-error answer {response:?}"
        );
    }
}

fn truncation_at_every_prefix_length_closes_cleanly_or_errors() {
    let mut server = spawn_server();
    let requests = [
        approx_hist::net::encode_request(&Request::CdfBatch {
            key: DEFAULT_KEY.into(),
            xs: vec![0, 7, 128, 255],
        }),
        approx_hist::net::encode_request(&Request::MassBatch {
            key: DEFAULT_KEY.into(),
            ranges: vec![(0, 63), (64, 255)],
        }),
    ];
    for message in &requests {
        for len in 0..message.len() {
            let responses = poke(&server, &message[..len]);
            assert_all_errors(&responses, &format!("truncation at {len}"));
        }
        // The untruncated message still elicits a real answer — the sweep
        // above must not pass vacuously.
        let responses = poke(&server, message);
        assert_eq!(responses.len(), 1);
        assert!(!matches!(responses[0], Response::Error { .. }));
    }
    assert_alive(&server);
    server.shutdown(); // re-panics if any handler panicked
}

fn single_byte_flips_at_every_offset_are_contained() {
    let mut server = spawn_server();
    let message = approx_hist::net::encode_request(&Request::CdfBatch {
        key: DEFAULT_KEY.into(),
        xs: vec![3, 200],
    });
    for offset in 0..message.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut corrupted = message.clone();
            corrupted[offset] ^= mask;
            let responses = poke(&server, &corrupted);
            // A flip in the length prefix may make the frame arrive short
            // (clean close, no answer); any answer must be a typed error —
            // every flip inside the frame is caught by version, magic or CRC
            // checks before the payload is believed.
            if offset >= LENGTH_PREFIX_BYTES {
                assert_all_errors(&responses, &format!("flip {mask:#04x} at offset {offset}"));
                assert!(
                    !responses.is_empty(),
                    "flip {mask:#04x} at {offset}: in-frame corruption deserves a typed answer"
                );
            }
        }
    }
    assert_alive(&server);
    server.shutdown();
}

fn forged_lengths_counts_ops_and_versions_are_typed_errors() {
    let mut server = spawn_server();

    // A length prefix announcing ~2 GiB: rejected before any allocation,
    // answered with FrameTooLarge, connection closed.
    let mut huge = (u32::MAX / 2).to_le_bytes().to_vec();
    huge.extend_from_slice(b"whatever");
    let responses = poke(&server, &huge);
    assert_eq!(responses.len(), 1);
    assert!(
        matches!(&responses[0], Response::Error { code: ErrorCode::FrameTooLarge, .. }),
        "got {:?}",
        responses[0]
    );

    // A hostile element count behind a *valid* CRC: the payload parser (not
    // the checksum) must reject it, bounded by the bytes actually present.
    let mut payload = Vec::new();
    payload.extend_from_slice(&u64::MAX.to_le_bytes());
    let forged = seal_message(0x01, &payload); // CdfBatch op
    let responses = poke(&server, &forged);
    assert_eq!(responses.len(), 1);
    assert!(
        matches!(&responses[0], Response::Error { code: ErrorCode::MalformedFrame, .. }),
        "got {:?}",
        responses[0]
    );

    // An op the protocol does not define: one it never had, and the retired
    // 0x07 (a store-wide merge) with the 8-byte budget payload it carried.
    // Each is a typed UnknownOp, and the connection serves the request
    // behind it.
    for (op, payload) in [(0x77, Vec::new()), (0x07, 11u64.to_le_bytes().to_vec())] {
        let mut message = seal_message(op, &payload);
        message.extend_from_slice(&health_probe());
        let responses = poke(&server, &message);
        assert_eq!(responses.len(), 2, "op {op:#04x}: {responses:?}");
        assert!(
            matches!(&responses[0], Response::Error { code: ErrorCode::UnknownOp, .. }),
            "op {op:#04x}: got {:?}",
            responses[0]
        );
        assert!(
            matches!(&responses[1], Response::QuantileBatch { .. }),
            "op {op:#04x}: the connection must stay usable, got {:?}",
            responses[1]
        );
    }

    // Every version but the current one, each in an internally consistent
    // Stats frame that would be valid at the current version: a typed
    // UnsupportedVersion answer (announcing the current version, checked by
    // `poke`), and the connection still serves the valid request behind it.
    for version in [0, 1, 2, PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1] {
        let mut frame = Vec::new();
        frame.extend_from_slice(&NET_MAGIC);
        frame.extend_from_slice(&version.to_le_bytes());
        frame.push(0x04); // Stats op
        frame.extend_from_slice(&(DEFAULT_KEY.len() as u64).to_le_bytes());
        frame.extend_from_slice(DEFAULT_KEY.as_bytes());
        let crc = crc32(&frame);
        frame.extend_from_slice(&crc.to_le_bytes());
        let mut message = (frame.len() as u32).to_le_bytes().to_vec();
        message.extend_from_slice(&frame);
        message.extend_from_slice(&health_probe());
        let responses = poke(&server, &message);
        assert_eq!(responses.len(), 2, "version {version}: {responses:?}");
        assert!(
            matches!(&responses[0], Response::Error { code: ErrorCode::UnsupportedVersion, .. }),
            "version {version}: got {:?}",
            responses[0]
        );
        assert!(
            matches!(&responses[1], Response::QuantileBatch { .. }),
            "version {version}: the connection must stay usable, got {:?}",
            responses[1]
        );
    }

    // A server configured with a small frame limit enforces *its* limit.
    let small = HistServer::bind(
        "127.0.0.1:0",
        Arc::new(StoreMap::with_initial(served_synopsis())),
        approx_hist::ServerConfig { max_frame_bytes: 256, ..approx_hist::ServerConfig::default() },
    )
    .unwrap();
    let big_batch = approx_hist::net::encode_request(&Request::CdfBatch {
        key: DEFAULT_KEY.into(),
        xs: vec![1; 4096],
    });
    assert!(big_batch.len() > 256);
    let responses = poke(&small, &big_batch);
    assert_eq!(responses.len(), 1);
    assert!(matches!(&responses[0], Response::Error { code: ErrorCode::FrameTooLarge, .. }));

    assert_alive(&server);
    server.shutdown();
}

fn invalid_queries_and_synopses_are_typed_errors_on_a_live_connection() {
    let mut server = spawn_server();
    let mut client = HistClient::connect(server.local_addr()).unwrap();

    // Out-of-domain index / fraction / range: InvalidQuery, connection kept.
    match client.cdf_batch(&[9_999]) {
        Err(NetError::Remote { code: ErrorCode::InvalidQuery, .. }) => {}
        other => panic!("expected InvalidQuery, got {other:?}"),
    }
    match client.quantile_batch(&[1.5]) {
        Err(NetError::Remote { code: ErrorCode::InvalidQuery, .. }) => {}
        other => panic!("expected InvalidQuery, got {other:?}"),
    }

    // A Publish whose blob is not an AHISTSYN container.
    let responses = poke(
        &server,
        &approx_hist::net::encode_request(&Request::Publish {
            key: DEFAULT_KEY.into(),
            synopsis: b"definitely not a synopsis".to_vec(),
        }),
    );
    assert_eq!(responses.len(), 1);
    assert!(matches!(&responses[0], Response::Error { code: ErrorCode::InvalidSynopsis, .. }));

    // An UpdateMerge with a zero budget: rejected by the store, typed.
    let blob = approx_hist::encode_synopsis(&served_synopsis());
    let responses = poke(
        &server,
        &approx_hist::net::encode_request(&Request::UpdateMerge {
            key: DEFAULT_KEY.into(),
            budget: 0,
            synopsis: blob,
        }),
    );
    assert_eq!(responses.len(), 1);
    assert!(matches!(&responses[0], Response::Error { code: ErrorCode::InvalidSynopsis, .. }));

    // The same client still works after all of it.
    assert!(client.stats().is_ok());
    drop(client);
    server.shutdown();
}

fn queries_against_an_empty_store_get_typed_empty_store_errors() {
    let mut server = common::spawn_server(Arc::new(StoreMap::new()));
    let mut client = HistClient::connect(server.local_addr()).unwrap();
    for result in [
        client.cdf_batch(&[0]).map(|_| ()),
        client.quantile_batch(&[0.5]).map(|_| ()),
        client.mass_batch(&[approx_hist::Interval::new(0, 1).unwrap()]).map(|_| ()),
    ] {
        match result {
            Err(NetError::Remote { code: ErrorCode::EmptyStore, epoch, .. }) => {
                assert_eq!(epoch, 0);
            }
            other => panic!("expected EmptyStore, got {other:?}"),
        }
    }
    // Stats on an empty store is an answer, not an error.
    let stats = client.stats().unwrap();
    assert_eq!(stats.epoch, 0);
    assert!(stats.synopsis.is_none());
    drop(client);
    server.shutdown();
}

fn seeded_random_soup_never_kills_the_server() {
    let mut server = spawn_server();
    let mut rng = StdRng::seed_from_u64(0x000B_AD50_CCE7);
    for round in 0..150 {
        let len = rng.gen_range(0..192);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
        let responses = poke(&server, &bytes);
        assert_all_errors(&responses, &format!("soup round {round}"));

        // The same soup behind a correct envelope, so it reaches the payload
        // parser with a valid CRC.
        let op = rng.gen_range(0..=255u8);
        let framed = seal_message(op, &bytes);
        let responses = poke(&server, &framed);
        for response in &responses {
            assert!(matches!(response, Response::Error { .. }) || decodes_as_request(op, &framed));
        }
        if round % 50 == 0 {
            assert_alive(&server);
        }
    }
    assert_alive(&server);
    server.shutdown();
}

evented_cases!(
    truncation_at_every_prefix_length_closes_cleanly_or_errors,
    single_byte_flips_at_every_offset_are_contained,
    forged_lengths_counts_ops_and_versions_are_typed_errors,
    invalid_queries_and_synopses_are_typed_errors_on_a_live_connection,
    queries_against_an_empty_store_get_typed_empty_store_errors,
    seeded_random_soup_never_kills_the_server,
);

/// Whether a framed soup message happens to be a structurally valid request
/// (possible: e.g. a lucky count prefix) — those may get real answers.
fn decodes_as_request(_op: u8, message: &[u8]) -> bool {
    decode_request(message).is_ok()
}

#[test]
fn raw_message_decoders_are_total_on_soup() {
    let mut rng = StdRng::seed_from_u64(0x0DD_B17E5);
    for _ in 0..2_000 {
        let len = rng.gen_range(0..256);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
        let _ = split_message(&bytes);
        let framed = seal_message(rng.gen_range(0..=255u8), &bytes);
        let _ = decode_request(&framed);
        let _ = decode_response(&framed);
    }
}
