//! Golden *binary* fixtures for the wire protocol: one canonical message per
//! request op and one per response op, committed under
//! `tests/fixtures/net_*_v4.bin`, decoded and checked against their
//! construction values — so any accidental change to the on-wire format
//! (field order, widths, endianness, opcode values, CRC parameterization,
//! length-prefix semantics, key sections, merge counters) fails CI even
//! while encode/decode still round-trip each other.
//!
//! The publish/update fixtures nest the *committed persist fixture*
//! (`synopsis_merging_steps_v1.bin`) as their synopsis blob, pinning the
//! protocol-version ↔ persist-format coupling in bytes.
//!
//! If one of these fails after an *intentional* format change, bump
//! `PROTOCOL_VERSION`, regenerate with
//! `cargo test --test net_golden -- --ignored --nocapture`, and commit the
//! new fixtures (with bumped file names) in the same change.

use std::path::PathBuf;

use approx_hist::net::{
    decode_request, decode_response, encode_request, encode_response, ErrorCode, Request, Response,
    StoreWideStats, SynopsisStats, PROTOCOL_VERSION,
};
use approx_hist::persist::FORMAT_VERSION;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// The committed persist fixture, reused as the synopsis blob of the admin
/// ops — the wire protocol ships exactly what the file format stores.
fn synopsis_blob() -> Vec<u8> {
    std::fs::read(fixture_path("synopsis_merging_steps_v1.bin"))
        .expect("the persist golden fixture is committed")
}

/// One fixture per request op.
fn golden_requests() -> Vec<(&'static str, Request)> {
    let key = || "tenants/api-login".to_string();
    vec![
        ("net_cdf_request_v4.bin", Request::CdfBatch { key: key(), xs: vec![0, 7, 128, 255] }),
        (
            "net_quantile_request_v4.bin",
            Request::QuantileBatch { key: key(), ps: vec![0.0, 0.25, 0.5, 0.75, 1.0] },
        ),
        (
            "net_mass_request_v4.bin",
            Request::MassBatch { key: key(), ranges: vec![(0, 63), (64, 255), (10, 10)] },
        ),
        ("net_stats_request_v4.bin", Request::Stats { key: key() }),
        ("net_store_stats_request_v4.bin", Request::StoreStats),
        ("net_list_keys_request_v4.bin", Request::ListKeys),
        ("net_publish_request_v4.bin", Request::Publish { key: key(), synopsis: synopsis_blob() }),
        (
            "net_update_request_v4.bin",
            Request::UpdateMerge { key: key(), budget: 11, synopsis: synopsis_blob() },
        ),
        ("net_drop_key_request_v4.bin", Request::DropKey { key: key() }),
    ]
}

/// One fixture per response op. The stats answers carry nonzero merge
/// counters so those bytes are actually pinned.
fn golden_responses() -> Vec<(&'static str, Response)> {
    vec![
        (
            "net_cdf_response_v4.bin",
            Response::CdfBatch { epoch: 7, values: vec![0.0, 0.109375, 0.6015625, 1.0] },
        ),
        (
            "net_quantile_response_v4.bin",
            Response::QuantileBatch { epoch: 7, indices: vec![0, 79, 114, 207, 236] },
        ),
        (
            "net_mass_response_v4.bin",
            Response::MassBatch { epoch: 7, masses: vec![135.0, 825.0, 1.5] },
        ),
        (
            "net_stats_response_v4.bin",
            Response::Stats {
                epoch: 7,
                synopsis: Some(SynopsisStats {
                    domain: 256,
                    pieces: 13,
                    target_k: 5,
                    total_mass: 960.0,
                    estimator: "merging".into(),
                    merges: 41,
                    merge_error: 0.625,
                }),
            },
        ),
        (
            "net_store_stats_response_v4.bin",
            Response::StoreStats {
                epoch: 9,
                stats: StoreWideStats {
                    keys: 3,
                    served: 2,
                    total_pieces: 26,
                    min_epoch: 0,
                    max_epoch: 9,
                    merges: 4242,
                    merged_mass: 960.0,
                    merge_error: 123.5,
                },
            },
        ),
        (
            "net_list_keys_response_v4.bin",
            Response::KeyList {
                epoch: 9,
                keys: vec![
                    "default".into(),
                    "tenants/api-login".into(),
                    "tenants/api-search".into(),
                ],
            },
        ),
        ("net_updated_response_v4.bin", Response::Updated { epoch: 8 }),
        ("net_dropped_response_v4.bin", Response::Dropped { epoch: 8, existed: true }),
        (
            "net_error_response_v4.bin",
            Response::Error {
                epoch: 7,
                code: ErrorCode::UnknownKey,
                message: "key \"tenants/api-logout\" is not present in the store map".into(),
            },
        ),
    ]
}

#[test]
#[ignore = "fixture-regeneration helper, not a regression test"]
fn regenerate_net_fixtures() {
    for (name, request) in golden_requests() {
        let bytes = encode_request(&request);
        std::fs::write(fixture_path(name), &bytes).expect("write fixture");
        println!("{name}: {} bytes", bytes.len());
    }
    for (name, response) in golden_responses() {
        let bytes = encode_response(&response);
        std::fs::write(fixture_path(name), &bytes).expect("write fixture");
        println!("{name}: {} bytes", bytes.len());
    }
}

#[test]
fn committed_v4_request_frames_decode_and_reencode_bit_for_bit() {
    for (name, expected) in golden_requests() {
        let committed = std::fs::read(fixture_path(name))
            .unwrap_or_else(|e| panic!("committed fixture {name} unreadable: {e}"));
        let decoded = decode_request(&committed)
            .unwrap_or_else(|e| panic!("committed fixture {name} no longer decodes: {e:?}"));
        assert_eq!(decoded, expected, "{name}: decoded request changed");
        assert_eq!(encode_request(&expected), committed, "{name}: re-encoded bytes diverged");
    }
}

#[test]
fn committed_v4_response_frames_decode_and_reencode_bit_for_bit() {
    for (name, expected) in golden_responses() {
        let committed = std::fs::read(fixture_path(name))
            .unwrap_or_else(|e| panic!("committed fixture {name} unreadable: {e}"));
        let decoded = decode_response(&committed)
            .unwrap_or_else(|e| panic!("committed fixture {name} no longer decodes: {e:?}"));
        assert_eq!(decoded, expected, "{name}: decoded response changed");
        assert_eq!(encode_response(&expected), committed, "{name}: re-encoded bytes diverged");
    }
}

#[test]
fn protocol_versions_are_pinned_to_the_persist_format_version() {
    // Protocol frames carry AHISTSYN blobs: the (format, protocol) version
    // pair is pinned. Bump the fixture file names with either version.
    assert_eq!(PROTOCOL_VERSION, 4, "bump the net fixture file names with the protocol version");
    assert_eq!(FORMAT_VERSION, 1, "protocol v4 pins persist format v1");
    // The committed publish fixture nests an AHISTSYN container after its
    // frame header — the coupling is visible in the bytes.
    let publish = std::fs::read(fixture_path("net_publish_request_v4.bin")).unwrap();
    let needle = b"AHISTSYN";
    assert!(
        publish.windows(needle.len()).any(|w| w == needle),
        "net_publish_request_v4.bin must nest an AHISTSYN container"
    );
}

#[test]
fn the_key_section_is_visible_in_the_bytes() {
    // The keyed layout is not an abstraction detail: the key's UTF-8 bytes
    // sit verbatim in the frame, right after a u64 length prefix that opens
    // the payload (length prefix 4 + magic 8 + version 2 + op 1).
    let committed = std::fs::read(fixture_path("net_stats_request_v4.bin")).unwrap();
    let key = b"tenants/api-login";
    let payload = &committed[4 + 8 + 2 + 1..];
    assert_eq!(payload[..8], (key.len() as u64).to_le_bytes(), "the key length opens the payload");
    assert_eq!(&payload[8..8 + key.len()], key, "the key bytes must follow verbatim");
    // A stats request is nothing but the key section and the CRC trailer.
    assert_eq!(payload.len(), 8 + key.len() + 4);
}
