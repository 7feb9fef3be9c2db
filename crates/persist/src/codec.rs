//! The versioned binary codec: envelope, primitives and the per-container
//! payload layouts.
//!
//! Every container is framed the same way:
//!
//! ```text
//! ┌──────────┬─────────────┬───────────────────┬───────────────┐
//! │ magic ×8 │ version u16 │ payload (LE)      │ crc32 u32     │
//! └──────────┴─────────────┴───────────────────┴───────────────┘
//!              little-endian  length-prefixed     over all bytes
//!                             sections            before trailer
//! ```
//!
//! Three container kinds share the frame, distinguished by their magic:
//!
//! * `AHISTSYN` — one [`Synopsis`] ([`encode_synopsis`]/[`decode_synopsis`]);
//! * `AHISTCKP` — a [`StreamCheckpoint`]: the resumable state of a one-pass
//!   streaming build;
//! * `AHISTMAP` — a [`StoreMapSnapshot`]: a whole keyed tenant map,
//!   count-prefixed key/epoch/synopsis entries in canonical key order.
//!
//! Decoding is panic-free and allocation-bounded on arbitrary input: the CRC
//! trailer is verified before the payload is parsed, every length/count
//! prefix is checked against the bytes actually remaining before any `Vec`
//! is reserved, and all model-level invariants are re-validated through the
//! `hist-core` constructors, so a decoded synopsis is indistinguishable from
//! a freshly fitted one (bit-identical query results included).

use hist_core::{
    FittedModel, Histogram, Interval, Partition, PiecewisePolynomial, PolynomialPiece, Synopsis,
};

use crate::error::{CodecError, CodecResult};
use crate::wire::{check_envelope, put_f64, put_u16, put_u32, put_u64, seal_envelope, Reader};

/// Magic bytes opening a single-synopsis container.
pub const SYNOPSIS_MAGIC: [u8; 8] = *b"AHISTSYN";
/// Magic bytes opening a streaming-checkpoint container.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"AHISTCKP";
/// Magic bytes opening a keyed store-map container (many keyed stores).
pub const MAP_MAGIC: [u8; 8] = *b"AHISTMAP";

/// Longest store-map key the codec accepts, in bytes of UTF-8. Keys are
/// tenant/metric names; one length cap shared by the persistence container
/// and the wire protocol keeps a key valid everywhere or nowhere.
pub const MAX_KEY_BYTES: usize = 255;

/// Newest format version this build reads and the only one it writes.
pub const FORMAT_VERSION: u16 = 1;

/// Frame overhead: magic (8) + version (2) + CRC-32 trailer (4).
const ENVELOPE_BYTES: usize = 14;

/// Model tag byte: piecewise-constant ([`Histogram`]).
const TAG_HISTOGRAM: u8 = 0;
/// Model tag byte: piecewise-polynomial.
const TAG_POLYNOMIAL: u8 = 1;

/// Estimator names the decoder can restore exactly. [`Synopsis::estimator`]
/// returns `&'static str`, so decoding interns the encoded name against the
/// workspace's known estimators; names outside this table (or longer than
/// [`MAX_NAME_BYTES`]) decode as [`FALLBACK_NAME`]. Query behaviour never
/// depends on the name — it is a provenance label.
const KNOWN_NAMES: [&str; 23] = [
    "merging",
    "merging2",
    "fastmerging",
    "fastmerging2",
    "hierarchical",
    "piecewise-poly",
    "fitpoly",
    "exactdp",
    "exactdp-naive",
    "dual",
    "gks",
    "equalwidth",
    "equalmass",
    "greedysplit",
    "sample-learner",
    "sample-learner-fast",
    "chunked",
    "parallel-chunked",
    "streaming",
    // No estimator writes this name any more, but saved maps may hold it.
    "sliding-window",
    "merged",
    "oracle",
    "constant",
];

/// Name label a decoded synopsis carries when the encoded name is not in the
/// known-estimator table.
pub const FALLBACK_NAME: &str = "decoded";

/// Longest estimator name the encoder writes verbatim; longer names are
/// replaced by [`FALLBACK_NAME`] at encode time (no workspace estimator comes
/// close — this only bounds hostile `from_parts` inputs).
const MAX_NAME_BYTES: usize = 255;

fn intern_name(name: &str) -> &'static str {
    KNOWN_NAMES.iter().find(|known| **known == name).copied().unwrap_or(FALLBACK_NAME)
}

/// Opens a frame: magic + version. Closed by [`seal`].
fn open_frame(magic: [u8; 8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&magic);
    put_u16(&mut out, FORMAT_VERSION);
    out
}

/// Appends the CRC-32 trailer over everything written so far.
fn seal(mut out: Vec<u8>) -> Vec<u8> {
    seal_envelope(&mut out, 0);
    out
}

// ---------------------------------------------------------------------------
// Synopsis container.
// ---------------------------------------------------------------------------

/// Encodes a synopsis into a self-contained `AHISTSYN` container.
///
/// The encoding stores the fitted *model* (piece extents and raw values as
/// IEEE-754 bits); the precomputed serving state is deterministically
/// recomputed at decode time, so [`decode_synopsis`] returns a synopsis with
/// bit-identical query results.
pub fn encode_synopsis(synopsis: &Synopsis) -> Vec<u8> {
    let mut out = open_frame(SYNOPSIS_MAGIC);
    write_synopsis_payload(&mut out, synopsis);
    seal(out)
}

fn write_synopsis_payload(out: &mut Vec<u8>, synopsis: &Synopsis) {
    let name = synopsis.estimator();
    let name = if name.len() > MAX_NAME_BYTES { FALLBACK_NAME } else { name };
    put_u64(out, name.len() as u64);
    out.extend_from_slice(name.as_bytes());
    put_u64(out, synopsis.target_k() as u64);
    match synopsis.model() {
        FittedModel::Histogram(h) => {
            out.push(TAG_HISTOGRAM);
            put_u64(out, h.domain() as u64);
            put_u64(out, h.num_pieces() as u64);
            for (interval, value) in h.partition().iter().zip(h.values()) {
                put_u64(out, interval.end() as u64);
                put_f64(out, *value);
            }
        }
        FittedModel::Polynomial(p) => {
            out.push(TAG_POLYNOMIAL);
            put_u64(out, p.domain() as u64);
            put_u64(out, p.num_pieces() as u64);
            for piece in p.pieces() {
                put_u64(out, piece.interval().end() as u64);
                put_u32(out, piece.coefficients().len() as u32);
                for &c in piece.coefficients() {
                    put_f64(out, c);
                }
            }
        }
    }
}

/// Decodes an `AHISTSYN` container produced by [`encode_synopsis`].
///
/// Total on arbitrary bytes: every failure is a typed [`CodecError`], never a
/// panic, and no allocation exceeds the input length.
pub fn decode_synopsis(bytes: &[u8]) -> CodecResult<Synopsis> {
    let payload = check_envelope(bytes, &SYNOPSIS_MAGIC, FORMAT_VERSION, ENVELOPE_BYTES)?;
    let mut reader = Reader::new(payload);
    let synopsis = read_synopsis_payload(&mut reader)?;
    reader.finish()?;
    Ok(synopsis)
}

fn read_synopsis_payload(reader: &mut Reader<'_>) -> CodecResult<Synopsis> {
    let name_bytes = reader.section("estimator name")?;
    let name = std::str::from_utf8(name_bytes).map_err(|_| CodecError::NonUtf8Name)?;
    let name = intern_name(name);
    let target_k = reader.usize64("target_k")?;
    // The tag is validated before the domain is read, so an unknown model
    // kind is reported as such rather than as a truncation further in.
    let tag = reader.u8()?;
    if tag != TAG_HISTOGRAM && tag != TAG_POLYNOMIAL {
        return Err(CodecError::InvalidTag { what: "model", found: tag });
    }
    let domain = reader.usize64("domain")?;
    let model = if tag == TAG_HISTOGRAM {
        // Each piece is end (8) + value (8), decoded straight into the flat
        // parallel arrays the query kernel serves from; one validating pass
        // (`Partition::from_piece_ends`) then rebuilds the piece structure
        // without any per-piece intermediate.
        let pieces = reader.count("histogram pieces", 16)?;
        let mut ends = Vec::with_capacity(pieces);
        let mut values = Vec::with_capacity(pieces);
        for _ in 0..pieces {
            let end = reader.usize64("piece end")?;
            if end >= domain {
                return Err(CodecError::Invalid(hist_core::Error::IndexOutOfRange {
                    index: end,
                    domain,
                }));
            }
            ends.push(end);
            values.push(reader.f64()?);
        }
        let partition = Partition::from_piece_ends(domain, &ends)?;
        FittedModel::Histogram(Histogram::new(partition, values)?)
    } else {
        // Each piece is at least end (8) + coefficient count (4).
        let pieces = reader.count("polynomial pieces", 12)?;
        let mut decoded = Vec::with_capacity(pieces);
        let mut start = 0usize;
        for _ in 0..pieces {
            let end = reader.usize64("piece end")?;
            if end >= domain {
                return Err(CodecError::Invalid(hist_core::Error::IndexOutOfRange {
                    index: end,
                    domain,
                }));
            }
            let interval = Interval::new(start, end)?;
            start = end + 1;
            let coeff_count = reader.u32()? as usize;
            let limit = reader.remaining() / 8;
            if coeff_count > limit {
                return Err(CodecError::CountOutOfBounds {
                    what: "polynomial coefficients",
                    count: coeff_count as u64,
                    limit: limit as u64,
                });
            }
            let mut coefficients = Vec::with_capacity(coeff_count);
            for _ in 0..coeff_count {
                coefficients.push(reader.f64()?);
            }
            decoded.push(PolynomialPiece::new(interval, coefficients)?);
        }
        FittedModel::Polynomial(PiecewisePolynomial::new(domain, decoded)?)
    };
    Ok(Synopsis::from_parts(name, target_k, model)?)
}

// ---------------------------------------------------------------------------
// Keyed store-map container.
// ---------------------------------------------------------------------------

/// One keyed store inside an `AHISTMAP` container: the key, its last
/// published epoch and, if the store was non-empty, the synopsis it served.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreMapEntry {
    /// Tenant/metric key: non-empty UTF-8, at most [`MAX_KEY_BYTES`] bytes.
    pub key: String,
    /// Last published epoch of that key's store at save time.
    pub epoch: u64,
    /// The key's served synopsis, or `None` for a published-nothing store.
    pub synopsis: Option<Synopsis>,
}

/// The persisted state of a whole keyed store map, entries in canonical
/// (ascending key) order.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreMapSnapshot {
    /// One entry per key, sorted ascending by key, keys unique.
    pub entries: Vec<StoreMapEntry>,
}

/// Checks a store-map key against the encoding rules shared by the
/// persistence container and the wire protocol: non-empty UTF-8 of at most
/// [`MAX_KEY_BYTES`] bytes. (UTF-8 validity is inherent for `&str` callers;
/// the byte-level decoder checks it separately.)
pub fn validate_key(key: &str) -> CodecResult<()> {
    if key.is_empty() {
        return Err(CodecError::InvalidKey { reason: "key is empty" });
    }
    if key.len() > MAX_KEY_BYTES {
        return Err(CodecError::InvalidKey { reason: "key exceeds MAX_KEY_BYTES" });
    }
    Ok(())
}

/// Encodes a keyed store map into a self-contained `AHISTMAP` container.
///
/// Entries are written in canonical ascending-key order regardless of input
/// order, so equal maps encode to equal bytes (save → open → save is
/// bit-identical). Fails with a typed [`CodecError::InvalidKey`] if any key
/// is empty, longer than [`MAX_KEY_BYTES`], or duplicated.
pub fn encode_store_map(entries: &[StoreMapEntry]) -> CodecResult<Vec<u8>> {
    let mut order: Vec<&StoreMapEntry> = entries.iter().collect();
    order.sort_by(|a, b| a.key.cmp(&b.key));
    for pair in order.windows(2) {
        if pair[0].key == pair[1].key {
            return Err(CodecError::InvalidKey { reason: "duplicate key" });
        }
    }
    let mut out = open_frame(MAP_MAGIC);
    put_u64(&mut out, order.len() as u64);
    for entry in order {
        validate_key(&entry.key)?;
        put_u64(&mut out, entry.key.len() as u64);
        out.extend_from_slice(entry.key.as_bytes());
        put_u64(&mut out, entry.epoch);
        match &entry.synopsis {
            None => out.push(0),
            Some(s) => {
                out.push(1);
                let blob = encode_synopsis(s);
                put_u64(&mut out, blob.len() as u64);
                out.extend_from_slice(&blob);
            }
        }
    }
    Ok(seal(out))
}

/// Decodes an `AHISTMAP` container produced by [`encode_store_map`].
///
/// Total on arbitrary bytes, and strict about canonical form: keys must be
/// valid UTF-8 within the length cap and strictly ascending (which also
/// rules out duplicates), so any decoded map re-encodes to the same bytes.
pub fn decode_store_map(bytes: &[u8]) -> CodecResult<StoreMapSnapshot> {
    let payload = check_envelope(bytes, &MAP_MAGIC, FORMAT_VERSION, ENVELOPE_BYTES)?;
    let mut reader = Reader::new(payload);
    // Smallest possible entry: key section (8 + 1) + epoch (8) + presence (1).
    let count = reader.count("store-map entries", 18)?;
    let mut entries: Vec<StoreMapEntry> = Vec::with_capacity(count);
    for _ in 0..count {
        let key_bytes = reader.section("store-map key")?;
        let key = std::str::from_utf8(key_bytes)
            .map_err(|_| CodecError::InvalidKey { reason: "key is not valid UTF-8" })?;
        validate_key(key)?;
        if let Some(last) = entries.last() {
            if last.key.as_str() >= key {
                return Err(CodecError::InvalidKey { reason: "keys out of canonical order" });
            }
        }
        let epoch = reader.u64()?;
        let synopsis = match reader.u8()? {
            0 => None,
            1 => Some(decode_synopsis(reader.section("store-map synopsis")?)?),
            found => return Err(CodecError::InvalidTag { what: "store-map presence", found }),
        };
        entries.push(StoreMapEntry { key: key.to_owned(), epoch, synopsis });
    }
    reader.finish()?;
    Ok(StoreMapSnapshot { entries })
}

// ---------------------------------------------------------------------------
// Streaming-checkpoint container.
// ---------------------------------------------------------------------------

/// The resumable state of a one-pass streaming build
/// (`hist_stream::StreamingBuilder`): configuration, progress counter, the
/// partially filled tail chunk and the binary-counter hierarchy of partial
/// synopses. The inner estimator is *not* part of the checkpoint — resuming
/// supplies it again, exactly as construction did.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamCheckpoint {
    /// Piece budget of the streaming build.
    pub budget: usize,
    /// Values per fitted chunk.
    pub chunk_len: usize,
    /// Total values consumed before the checkpoint.
    pub pushed: usize,
    /// The partially filled tail chunk (always shorter than `chunk_len`).
    pub tail: Vec<f64>,
    /// Binary-counter levels: `levels[i]`, when occupied, summarizes
    /// `2^i` chunks, deeper levels holding strictly older data.
    pub levels: Vec<Option<Synopsis>>,
}

/// Encodes a streaming checkpoint into a self-contained `AHISTCKP` container.
pub fn encode_stream_checkpoint(checkpoint: &StreamCheckpoint) -> Vec<u8> {
    let mut out = open_frame(CHECKPOINT_MAGIC);
    put_u64(&mut out, checkpoint.budget as u64);
    put_u64(&mut out, checkpoint.chunk_len as u64);
    put_u64(&mut out, checkpoint.pushed as u64);
    put_u64(&mut out, checkpoint.tail.len() as u64);
    for &v in &checkpoint.tail {
        put_f64(&mut out, v);
    }
    put_u64(&mut out, checkpoint.levels.len() as u64);
    for level in &checkpoint.levels {
        match level {
            None => out.push(0),
            Some(synopsis) => {
                out.push(1);
                let blob = encode_synopsis(synopsis);
                put_u64(&mut out, blob.len() as u64);
                out.extend_from_slice(&blob);
            }
        }
    }
    seal(out)
}

/// Decodes an `AHISTCKP` container produced by [`encode_stream_checkpoint`].
///
/// Structural validation only (finite tail values, bounded counts, valid
/// nested synopses); the cross-field consistency checks — level domains
/// matching `2^i · chunk_len`, totals matching `pushed` — live in
/// `StreamingBuilder::resume`, which knows the builder's invariants.
pub fn decode_stream_checkpoint(bytes: &[u8]) -> CodecResult<StreamCheckpoint> {
    let payload = check_envelope(bytes, &CHECKPOINT_MAGIC, FORMAT_VERSION, ENVELOPE_BYTES)?;
    let mut reader = Reader::new(payload);
    let budget = reader.usize64("budget")?;
    let chunk_len = reader.usize64("chunk_len")?;
    let pushed = reader.usize64("pushed")?;
    let tail_len = reader.count("tail values", 8)?;
    let mut tail = Vec::with_capacity(tail_len);
    for _ in 0..tail_len {
        let v = reader.f64()?;
        if !v.is_finite() {
            return Err(CodecError::NonFiniteValue { what: "tail value" });
        }
        tail.push(v);
    }
    let level_count = reader.count("hierarchy levels", 1)?;
    let mut levels = Vec::with_capacity(level_count);
    for _ in 0..level_count {
        levels.push(match reader.u8()? {
            0 => None,
            1 => Some(decode_synopsis(reader.section("level synopsis")?)?),
            found => return Err(CodecError::InvalidTag { what: "level presence", found }),
        });
    }
    reader.finish()?;
    Ok(StreamCheckpoint { budget, chunk_len, pushed, tail, levels })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hist_core::{Estimator, EstimatorBuilder, GreedyMerging, Signal};

    fn histogram_synopsis() -> Synopsis {
        let h = Histogram::from_breakpoints(50, &[10, 30, 40], vec![1.0, 3.0, 0.0, 6.0]).unwrap();
        Synopsis::from_parts("merging", 4, FittedModel::Histogram(h)).unwrap()
    }

    fn polynomial_synopsis() -> Synopsis {
        let pieces = vec![
            PolynomialPiece::new(Interval::new(0, 9).unwrap(), vec![0.0, 1.0]).unwrap(),
            PolynomialPiece::new(Interval::new(10, 19).unwrap(), vec![5.0, -0.25, 0.125]).unwrap(),
        ];
        let p = PiecewisePolynomial::new(20, pieces).unwrap();
        Synopsis::from_parts("piecewise-poly", 2, FittedModel::Polynomial(p)).unwrap()
    }

    fn assert_bit_identical(a: &Synopsis, b: &Synopsis) {
        assert_eq!(a.model(), b.model());
        assert_eq!(a.num_pieces(), b.num_pieces());
        assert_eq!(a.domain(), b.domain());
        assert_eq!(a.target_k(), b.target_k());
        assert_eq!(a.total_mass().to_bits(), b.total_mass().to_bits());
        let a_bits: Vec<u64> = a.boundary_masses().iter().map(|m| m.to_bits()).collect();
        let b_bits: Vec<u64> = b.boundary_masses().iter().map(|m| m.to_bits()).collect();
        assert_eq!(a_bits, b_bits);
    }

    #[test]
    fn histogram_round_trip_is_bit_identical() {
        let original = histogram_synopsis();
        let decoded = decode_synopsis(&encode_synopsis(&original)).unwrap();
        assert_bit_identical(&original, &decoded);
        assert_eq!(decoded.estimator(), "merging");
        assert_eq!(decoded, original);
    }

    #[test]
    fn polynomial_round_trip_is_bit_identical() {
        let original = polynomial_synopsis();
        let decoded = decode_synopsis(&encode_synopsis(&original)).unwrap();
        assert_bit_identical(&original, &decoded);
        assert_eq!(decoded.estimator(), "piecewise-poly");
        for x in 0..original.domain() {
            assert_eq!(
                original.cdf(x).unwrap().to_bits(),
                decoded.cdf(x).unwrap().to_bits(),
                "cdf({x})"
            );
        }
    }

    #[test]
    fn fitted_synopsis_round_trips_through_the_codec() {
        let values: Vec<f64> = (0..300).map(|i| ((i / 60) % 3) as f64 * 2.0 + 0.5).collect();
        let signal = Signal::from_dense(values).unwrap();
        let original = GreedyMerging::new(EstimatorBuilder::new(4)).fit(&signal).unwrap();
        let decoded = decode_synopsis(&encode_synopsis(&original)).unwrap();
        assert_bit_identical(&original, &decoded);
        assert_eq!(decoded.l2_error(&signal).unwrap(), original.l2_error(&signal).unwrap());
    }

    #[test]
    fn every_workspace_estimator_name_round_trips() {
        // One entry per `fn name()` in the workspace (including the named
        // variants and the names synthesized by merge/streaming); if an
        // estimator is added without extending KNOWN_NAMES, its synopses
        // decode with the fallback label and this list is where to fix it.
        for name in KNOWN_NAMES {
            let h = Histogram::constant(4, 1.0).unwrap();
            let original = Synopsis::new(name, 1, FittedModel::Histogram(h));
            let decoded = decode_synopsis(&encode_synopsis(&original)).unwrap();
            assert_eq!(decoded.estimator(), name, "name {name} did not round-trip");
            assert_eq!(decoded, original);
        }
        // The specific regression: the fast sample learner's name is in the
        // table even though the default registry fleet never instantiates it.
        assert_eq!(intern_name("sample-learner-fast"), "sample-learner-fast");
    }

    #[test]
    fn unknown_names_fall_back_to_the_decoded_label() {
        let h = Histogram::constant(6, 1.0).unwrap();
        let original = Synopsis::new("some-future-estimator", 1, FittedModel::Histogram(h));
        let decoded = decode_synopsis(&encode_synopsis(&original)).unwrap();
        assert_eq!(decoded.estimator(), FALLBACK_NAME);
        assert_eq!(decoded.model(), original.model());
    }

    #[test]
    fn stream_checkpoint_round_trips() {
        let checkpoint = StreamCheckpoint {
            budget: 5,
            chunk_len: 32,
            pushed: 96 + 7,
            tail: (0..7).map(|i| i as f64 * 0.5).collect(),
            levels: vec![Some(histogram_synopsis()), None, Some(polynomial_synopsis())],
        };
        let decoded = decode_stream_checkpoint(&encode_stream_checkpoint(&checkpoint)).unwrap();
        assert_eq!(decoded.budget, checkpoint.budget);
        assert_eq!(decoded.chunk_len, checkpoint.chunk_len);
        assert_eq!(decoded.pushed, checkpoint.pushed);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&decoded.tail), bits(&checkpoint.tail));
        assert_eq!(decoded.levels.len(), 3);
        assert!(decoded.levels[1].is_none());
        assert_bit_identical(
            decoded.levels[0].as_ref().unwrap(),
            checkpoint.levels[0].as_ref().unwrap(),
        );
    }

    #[test]
    fn container_kinds_reject_each_other() {
        let synopsis_bytes = encode_synopsis(&histogram_synopsis());
        assert!(matches!(decode_stream_checkpoint(&synopsis_bytes), Err(CodecError::BadMagic)));
        assert!(matches!(decode_store_map(&synopsis_bytes), Err(CodecError::BadMagic)));
        let map_bytes = encode_store_map(&[]).unwrap();
        assert!(matches!(decode_synopsis(&map_bytes), Err(CodecError::BadMagic)));
    }

    #[test]
    fn store_map_round_trips_in_canonical_order() {
        let entries = vec![
            StoreMapEntry { key: "zeta".into(), epoch: 9, synopsis: Some(histogram_synopsis()) },
            StoreMapEntry { key: "alpha".into(), epoch: 0, synopsis: None },
            StoreMapEntry { key: "mid".into(), epoch: 3, synopsis: Some(polynomial_synopsis()) },
        ];
        let bytes = encode_store_map(&entries).unwrap();
        let decoded = decode_store_map(&bytes).unwrap();
        let keys: Vec<&str> = decoded.entries.iter().map(|e| e.key.as_str()).collect();
        assert_eq!(keys, ["alpha", "mid", "zeta"], "entries come back in canonical order");
        assert_eq!(decoded.entries[0].epoch, 0);
        assert!(decoded.entries[0].synopsis.is_none());
        assert_bit_identical(decoded.entries[2].synopsis.as_ref().unwrap(), &histogram_synopsis());
        // Canonical form: re-encoding the decoded map reproduces the bytes.
        assert_eq!(encode_store_map(&decoded.entries).unwrap(), bytes);
    }

    #[test]
    fn store_map_rejects_rule_breaking_keys() {
        let entry = |key: &str| StoreMapEntry { key: key.into(), epoch: 1, synopsis: None };
        assert!(matches!(
            encode_store_map(&[entry("")]),
            Err(CodecError::InvalidKey { reason: "key is empty" })
        ));
        let long = "k".repeat(MAX_KEY_BYTES + 1);
        assert!(matches!(
            encode_store_map(&[entry(&long)]),
            Err(CodecError::InvalidKey { reason: "key exceeds MAX_KEY_BYTES" })
        ));
        assert!(matches!(
            encode_store_map(&[entry("dup"), entry("dup")]),
            Err(CodecError::InvalidKey { reason: "duplicate key" })
        ));
        // The cap itself is fine.
        let exact = "k".repeat(MAX_KEY_BYTES);
        let bytes = encode_store_map(&[entry(&exact)]).unwrap();
        assert_eq!(decode_store_map(&bytes).unwrap().entries[0].key, exact);
    }

    #[test]
    fn empty_store_map_round_trips() {
        let bytes = encode_store_map(&[]).unwrap();
        assert!(decode_store_map(&bytes).unwrap().entries.is_empty());
    }

    #[test]
    fn empty_and_wrong_magic_errors_are_distinct() {
        assert!(matches!(decode_synopsis(&[]), Err(CodecError::Truncated { available: 0, .. })));
        let wrong = b"NOTASYNOPSIS....".to_vec();
        assert!(matches!(decode_synopsis(&wrong), Err(CodecError::BadMagic)));
    }

    #[test]
    fn version_bumps_are_rejected() {
        let mut bytes = encode_synopsis(&histogram_synopsis());
        bytes[8] = 2; // version low byte
        assert!(matches!(
            decode_synopsis(&bytes),
            Err(CodecError::UnsupportedVersion { found: 2, .. })
        ));
    }

    #[test]
    fn payload_corruption_is_caught_by_the_checksum() {
        let bytes = encode_synopsis(&histogram_synopsis());
        let mut corrupted = bytes.clone();
        let mid = bytes.len() / 2;
        corrupted[mid] ^= 0xFF;
        assert!(matches!(decode_synopsis(&corrupted), Err(CodecError::ChecksumMismatch { .. })));
    }
}
