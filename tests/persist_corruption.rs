//! Corruption suite for the persistent synopsis format: decode must be
//! *total* — every byte sequence either decodes or returns a typed
//! [`CodecError`], never a panic and never an allocation driven by a hostile
//! length prefix.
//!
//! The sweeps run over small encoded fixtures of both model variants:
//! truncation at every prefix length, a single-byte flip at every offset,
//! empty/wrong-magic inputs with distinct errors, hand-forged containers
//! with huge length prefixes behind a *valid* CRC (so the parser itself is
//! exercised, not just the checksum), and seeded random byte soup.

use approx_hist::persist::{
    crc32, decode_store_map, decode_stream_checkpoint, decode_synopsis, encode_synopsis,
    CodecError, FORMAT_VERSION, SYNOPSIS_MAGIC,
};
use approx_hist::{FittedModel, Histogram, Interval, PiecewisePolynomial, Synopsis};
use hist_core::PolynomialPiece;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn histogram_fixture() -> Vec<u8> {
    let h = Histogram::from_breakpoints(40, &[10, 25], vec![1.5, -0.5, 4.0]).unwrap();
    encode_synopsis(&Synopsis::new("merging", 3, FittedModel::Histogram(h)))
}

fn polynomial_fixture() -> Vec<u8> {
    let pieces = vec![
        PolynomialPiece::new(Interval::new(0, 7).unwrap(), vec![1.0, 0.5]).unwrap(),
        PolynomialPiece::new(Interval::new(8, 15).unwrap(), vec![5.0, -0.25, 0.125]).unwrap(),
    ];
    let p = PiecewisePolynomial::new(16, pieces).unwrap();
    encode_synopsis(&Synopsis::new("piecewise-poly", 2, FittedModel::Polynomial(p)))
}

/// Builds a syntactically framed `AHISTSYN` container with an arbitrary
/// payload and a *correct* CRC trailer, so decode failures exercise the
/// payload parser rather than the checksum.
fn forge_synopsis_container(payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&SYNOPSIS_MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(payload);
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

#[test]
fn truncation_at_every_prefix_length_is_an_error() {
    for (what, fixture) in [("histogram", histogram_fixture()), ("poly", polynomial_fixture())] {
        for len in 0..fixture.len() {
            let result = decode_synopsis(&fixture[..len]);
            assert!(result.is_err(), "{what}: prefix of {len} bytes decoded successfully");
        }
        // The untruncated fixture still decodes — the sweep above must not
        // pass vacuously.
        assert!(decode_synopsis(&fixture).is_ok(), "{what}: full fixture must decode");
    }
}

#[test]
fn single_byte_flips_at_every_offset_are_an_error() {
    for (what, fixture) in [("histogram", histogram_fixture()), ("poly", polynomial_fixture())] {
        for offset in 0..fixture.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut corrupted = fixture.clone();
                corrupted[offset] ^= mask;
                assert!(
                    decode_synopsis(&corrupted).is_err(),
                    "{what}: flip {mask:#04x} at offset {offset} decoded successfully"
                );
            }
        }
    }
}

#[test]
fn empty_and_wrong_magic_buffers_produce_distinct_typed_errors() {
    // Empty buffer: truncated, with the emptiness recorded.
    assert!(matches!(decode_synopsis(&[]), Err(CodecError::Truncated { available: 0, .. })));

    // Wrong magic of full envelope length: a BadMagic, never Truncated.
    let mut wrong = histogram_fixture();
    wrong[..8].copy_from_slice(b"NOTMAGIC");
    assert!(matches!(decode_synopsis(&wrong), Err(CodecError::BadMagic)));

    // A different container kind is also a wrong magic for this decoder.
    assert!(matches!(decode_stream_checkpoint(&histogram_fixture()), Err(CodecError::BadMagic)));
    assert!(matches!(decode_store_map(&histogram_fixture()), Err(CodecError::BadMagic)));

    // Short garbage that never was a container: BadMagic, not Truncated.
    assert!(matches!(decode_synopsis(b"zzz"), Err(CodecError::BadMagic)));
    // A strict prefix of the real magic is a truncated container.
    assert!(matches!(
        decode_synopsis(&SYNOPSIS_MAGIC[..5]),
        Err(CodecError::Truncated { available: 5, .. })
    ));
}

#[test]
fn future_versions_are_rejected_with_a_typed_error() {
    let mut bytes = histogram_fixture();
    bytes[8] = 0x2A; // version low byte
    match decode_synopsis(&bytes) {
        Err(CodecError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, 0x2A);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn huge_length_prefixes_behind_a_valid_crc_never_allocate() {
    // Name length u64::MAX: must fail the count bound, not allocate 16 EiB.
    let mut payload = Vec::new();
    payload.extend_from_slice(&u64::MAX.to_le_bytes());
    let forged = forge_synopsis_container(&payload);
    assert!(matches!(
        decode_synopsis(&forged),
        Err(CodecError::CountOutOfBounds { count: u64::MAX, .. })
    ));

    // Plausible name, then a huge histogram piece count.
    let mut payload = Vec::new();
    payload.extend_from_slice(&7u64.to_le_bytes());
    payload.extend_from_slice(b"merging");
    payload.extend_from_slice(&3u64.to_le_bytes()); // target_k
    payload.push(0); // histogram tag
    payload.extend_from_slice(&40u64.to_le_bytes()); // domain
    payload.extend_from_slice(&(u64::MAX / 2).to_le_bytes()); // pieces
    let forged = forge_synopsis_container(&payload);
    assert!(matches!(decode_synopsis(&forged), Err(CodecError::CountOutOfBounds { .. })));

    // Polynomial pieces with a huge per-piece coefficient count.
    let mut payload = Vec::new();
    payload.extend_from_slice(&7u64.to_le_bytes());
    payload.extend_from_slice(b"fitpoly");
    payload.extend_from_slice(&2u64.to_le_bytes()); // target_k
    payload.push(1); // polynomial tag
    payload.extend_from_slice(&16u64.to_le_bytes()); // domain
    payload.extend_from_slice(&1u64.to_le_bytes()); // one piece
    payload.extend_from_slice(&15u64.to_le_bytes()); // piece end
    payload.extend_from_slice(&u32::MAX.to_le_bytes()); // coefficient count
    let forged = forge_synopsis_container(&payload);
    assert!(matches!(
        decode_synopsis(&forged),
        Err(CodecError::CountOutOfBounds { what: "polynomial coefficients", .. })
    ));
}

#[test]
fn structurally_valid_but_inconsistent_payloads_are_typed_errors() {
    // Pieces that do not tile the declared domain.
    let mut payload = Vec::new();
    payload.extend_from_slice(&7u64.to_le_bytes());
    payload.extend_from_slice(b"merging");
    payload.extend_from_slice(&1u64.to_le_bytes()); // target_k
    payload.push(0); // histogram tag
    payload.extend_from_slice(&40u64.to_le_bytes()); // domain
    payload.extend_from_slice(&1u64.to_le_bytes()); // one piece…
    payload.extend_from_slice(&19u64.to_le_bytes()); // …covering only [0, 19]
    payload.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
    let forged = forge_synopsis_container(&payload);
    assert!(matches!(decode_synopsis(&forged), Err(CodecError::Invalid(_))));

    // A piece end beyond the domain.
    let mut payload = Vec::new();
    payload.extend_from_slice(&7u64.to_le_bytes());
    payload.extend_from_slice(b"merging");
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.push(0);
    payload.extend_from_slice(&40u64.to_le_bytes()); // domain 40
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.extend_from_slice(&64u64.to_le_bytes()); // end 64 >= 40
    payload.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
    let forged = forge_synopsis_container(&payload);
    assert!(matches!(decode_synopsis(&forged), Err(CodecError::Invalid(_))));

    // NaN histogram values are rejected by the model constructor.
    let mut payload = Vec::new();
    payload.extend_from_slice(&7u64.to_le_bytes());
    payload.extend_from_slice(b"merging");
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.push(0);
    payload.extend_from_slice(&4u64.to_le_bytes());
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.extend_from_slice(&3u64.to_le_bytes());
    payload.extend_from_slice(&f64::NAN.to_bits().to_le_bytes());
    let forged = forge_synopsis_container(&payload);
    assert!(matches!(decode_synopsis(&forged), Err(CodecError::Invalid(_))));

    // A zero target_k cannot come from any fitter.
    let mut payload = Vec::new();
    payload.extend_from_slice(&7u64.to_le_bytes());
    payload.extend_from_slice(b"merging");
    payload.extend_from_slice(&0u64.to_le_bytes()); // target_k = 0
    payload.push(0);
    payload.extend_from_slice(&4u64.to_le_bytes());
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.extend_from_slice(&3u64.to_le_bytes());
    payload.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
    let forged = forge_synopsis_container(&payload);
    assert!(matches!(decode_synopsis(&forged), Err(CodecError::Invalid(_))));

    // An unknown model tag.
    let mut payload = Vec::new();
    payload.extend_from_slice(&7u64.to_le_bytes());
    payload.extend_from_slice(b"merging");
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.push(9); // no such model
    let forged = forge_synopsis_container(&payload);
    assert!(matches!(
        decode_synopsis(&forged),
        Err(CodecError::InvalidTag { what: "model", found: 9 })
    ));

    // Valid payload with unparsed bytes before the trailer.
    let mut valid_payload = Vec::new();
    valid_payload.extend_from_slice(&7u64.to_le_bytes());
    valid_payload.extend_from_slice(b"merging");
    valid_payload.extend_from_slice(&1u64.to_le_bytes());
    valid_payload.push(0);
    valid_payload.extend_from_slice(&4u64.to_le_bytes());
    valid_payload.extend_from_slice(&1u64.to_le_bytes());
    valid_payload.extend_from_slice(&3u64.to_le_bytes());
    valid_payload.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
    valid_payload.extend_from_slice(b"junk");
    let forged = forge_synopsis_container(&valid_payload);
    assert!(matches!(decode_synopsis(&forged), Err(CodecError::TrailingBytes { remaining: 4 })));
}

#[test]
fn seeded_random_byte_soup_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xBAD_B17E5);
    for _ in 0..2_000 {
        let len = rng.gen_range(0..256);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
        let _ = decode_synopsis(&bytes);
        let _ = decode_stream_checkpoint(&bytes);
        let _ = decode_store_map(&bytes);

        // Same soup behind a correct frame, so it reaches the payload parser.
        let framed = forge_synopsis_container(&bytes);
        assert!(
            decode_synopsis(&framed).is_err() || !bytes.is_empty(),
            "empty payloads must not decode"
        );
    }
}
