//! Request/response messages and their payload codecs, at
//! [`PROTOCOL_VERSION`].
//!
//! Payloads are little-endian with count-prefixed repeats, parsed through the
//! bounded [`hist_persist::wire::Reader`] — every count is validated against
//! the bytes actually remaining before any `Vec` is sized from it, so
//! decoding hostile payloads is total (typed errors, no panics, no
//! over-allocation). Synopses travel inside `Publish`/`UpdateMerge` (and the
//! `MergedView` answer) as nested `AHISTSYN` containers, reusing the
//! `hist-persist` codec verbatim: the server decodes them through the same
//! validating path a file load uses, which is what makes a published synopsis
//! answer queries bit-identically to the local original.
//!
//! Every query/admin op opens with a *key* section — a length-prefixed,
//! non-empty UTF-8 tenant/metric name of at most
//! [`hist_persist::MAX_KEY_BYTES`] bytes — addressing one store of the
//! server's keyed [`StoreMap`](hist_serve::StoreMap). The store-wide ops
//! (`StoreStats`, `ListKeys`, `MergedView`) carry no key. The `Stats` and
//! `StoreStats` answers include the self-tuning maintenance counters (merge
//! count, refit count, merged mass, accumulated merge error).
//!
//! Every response payload opens with the epoch the answer was computed at
//! (the addressed key's epoch; store-wide answers carry the largest per-key
//! epoch), so a client can order responses across reconnects and publishes.

use hist_persist::crc32::crc32;
use hist_persist::wire::{put_f64, put_u64, Reader};
use hist_persist::{CodecError, CodecResult};

use crate::frame::{seal_message, split_message, LENGTH_PREFIX_BYTES, NET_MAGIC, PROTOCOL_VERSION};

// Request opcodes.
const OP_CDF_BATCH: u8 = 0x01;
const OP_QUANTILE_BATCH: u8 = 0x02;
const OP_MASS_BATCH: u8 = 0x03;
const OP_STATS: u8 = 0x04;
const OP_STORE_STATS: u8 = 0x05;
const OP_LIST_KEYS: u8 = 0x06;
const OP_MERGED_VIEW: u8 = 0x07;
const OP_PUBLISH: u8 = 0x10;
const OP_UPDATE_MERGE: u8 = 0x11;
const OP_DROP_KEY: u8 = 0x12;

// Response opcodes (request op | 0x80, plus the shared admin/error ops).
const OP_CDF_OK: u8 = 0x81;
const OP_QUANTILE_OK: u8 = 0x82;
const OP_MASS_OK: u8 = 0x83;
const OP_STATS_OK: u8 = 0x84;
const OP_STORE_STATS_OK: u8 = 0x85;
const OP_LIST_KEYS_OK: u8 = 0x86;
const OP_MERGED_VIEW_OK: u8 = 0x87;
const OP_UPDATED: u8 = 0x90;
const OP_DROPPED: u8 = 0x91;
const OP_ERROR: u8 = 0xEE;

/// A client request. Keyed ops address one store of the server's
/// [`StoreMap`](hist_serve::StoreMap).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Normalized cdf at each index, answered from one snapshot of `key`.
    CdfBatch {
        /// Addressed store.
        key: String,
        /// Requested indices.
        xs: Vec<u64>,
    },
    /// Smallest index reaching each cumulative fraction.
    QuantileBatch {
        /// Addressed store.
        key: String,
        /// Requested fractions.
        ps: Vec<f64>,
    },
    /// Estimated mass over each inclusive `(start, end)` index range.
    MassBatch {
        /// Addressed store.
        key: String,
        /// Requested ranges.
        ranges: Vec<(u64, u64)>,
    },
    /// Per-key stats: the key's epoch plus a summary of its synopsis.
    Stats {
        /// Addressed store.
        key: String,
    },
    /// Store-wide summary: key count, served count, total pieces, epoch
    /// range.
    StoreStats,
    /// Every key, in canonical (ascending) order.
    ListKeys,
    /// Tree-merge every served key's synopsis into one global view with the
    /// given piece budget.
    MergedView {
        /// Piece budget of the merged synopsis.
        budget: u64,
    },
    /// Admin: replace `key`'s served synopsis with the shipped `AHISTSYN`
    /// blob (creating the key on first use).
    Publish {
        /// Addressed store.
        key: String,
        /// `AHISTSYN`-encoded synopsis.
        synopsis: Vec<u8>,
    },
    /// Admin: merge the shipped adjacent-chunk synopsis into `key`'s served
    /// one, re-merged down to `budget` pieces.
    UpdateMerge {
        /// Addressed store.
        key: String,
        /// Piece budget of the re-merge.
        budget: u64,
        /// `AHISTSYN`-encoded chunk synopsis.
        synopsis: Vec<u8>,
    },
    /// Admin: evict `key` and its store.
    DropKey {
        /// Key to evict.
        key: String,
    },
}

/// Summary of one served synopsis, as reported by [`Request::Stats`]: piece
/// count, domain bounds, budget, mass and provenance — all in one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct SynopsisStats {
    /// Domain size `n` (the synopsis covers indices `0..domain`).
    pub domain: u64,
    /// Number of pieces of the fitted model.
    pub pieces: u64,
    /// Piece budget the estimator was configured with.
    pub target_k: u64,
    /// Raw total mass.
    pub total_mass: f64,
    /// Name of the estimator that produced the synopsis.
    pub estimator: String,
    /// Merges absorbed by this key's store since it was created.
    pub merges: u64,
    /// Maintenance refits published for this key.
    pub refits: u64,
    /// Accumulated merge-error bound (summed per-merge ℓ₂ deltas) since the
    /// last refit.
    pub merge_error: f64,
}

/// Store-wide summary of a keyed server, as reported by
/// [`Request::StoreStats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreWideStats {
    /// Number of keys present (served or not).
    pub keys: u64,
    /// Number of keys currently serving a synopsis.
    pub served: u64,
    /// Total piece count across all served synopses.
    pub total_pieces: u64,
    /// Smallest per-key epoch (0 if any key never published, or no keys).
    pub min_epoch: u64,
    /// Largest per-key epoch (0 if no keys).
    pub max_epoch: u64,
    /// Merges absorbed across every key.
    pub merges: u64,
    /// Maintenance refits published across every key.
    pub refits: u64,
    /// Total mass of every merged-in chunk.
    pub merged_mass: f64,
    /// Summed accumulated merge-error bounds across keys since their last
    /// refits.
    pub merge_error: f64,
}

/// Typed error codes a server stamps on error frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request frame did not decode (truncated payload, hostile count,
    /// trailing bytes, …).
    MalformedFrame,
    /// The request announced a protocol version this server does not speak.
    UnsupportedVersion,
    /// The op byte is not a request the protocol defines.
    UnknownOp,
    /// The request decoded but a query argument is invalid for the served
    /// synopsis (index out of domain, fraction outside `[0, 1]`, …).
    InvalidQuery,
    /// A query arrived before any synopsis was published.
    EmptyStore,
    /// A `Publish`/`UpdateMerge` payload failed to decode or validate.
    InvalidSynopsis,
    /// The announced frame length exceeds the server's limit.
    FrameTooLarge,
    /// The connection used up its per-connection request budget.
    RequestLimit,
    /// The addressed key is not present in the store map.
    UnknownKey,
    /// The key violates the encoding rules (empty, over the length cap, not
    /// valid UTF-8).
    InvalidKey,
    /// A code this build does not know (from a newer peer).
    Unknown(u8),
}

impl ErrorCode {
    /// The wire byte for this code.
    pub fn to_u8(self) -> u8 {
        match self {
            ErrorCode::MalformedFrame => 1,
            ErrorCode::UnsupportedVersion => 2,
            ErrorCode::UnknownOp => 3,
            ErrorCode::InvalidQuery => 4,
            ErrorCode::EmptyStore => 5,
            ErrorCode::InvalidSynopsis => 6,
            ErrorCode::FrameTooLarge => 7,
            ErrorCode::RequestLimit => 8,
            ErrorCode::UnknownKey => 9,
            ErrorCode::InvalidKey => 10,
            ErrorCode::Unknown(raw) => raw,
        }
    }

    /// The code a wire byte names (never fails: unknown bytes are preserved
    /// as [`ErrorCode::Unknown`]).
    pub fn from_u8(raw: u8) -> Self {
        match raw {
            1 => ErrorCode::MalformedFrame,
            2 => ErrorCode::UnsupportedVersion,
            3 => ErrorCode::UnknownOp,
            4 => ErrorCode::InvalidQuery,
            5 => ErrorCode::EmptyStore,
            6 => ErrorCode::InvalidSynopsis,
            7 => ErrorCode::FrameTooLarge,
            8 => ErrorCode::RequestLimit,
            9 => ErrorCode::UnknownKey,
            10 => ErrorCode::InvalidKey,
            other => ErrorCode::Unknown(other),
        }
    }
}

/// A server response. Every variant opens with the epoch it was computed at
/// (the addressed key's epoch; store-wide kinds carry the largest per-key
/// epoch).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Cdf values, in request order (raw IEEE-754 bits on the wire).
    CdfBatch {
        /// Epoch of the snapshot that answered.
        epoch: u64,
        /// One cdf value per requested index.
        values: Vec<f64>,
    },
    /// Quantile indices, in request order.
    QuantileBatch {
        /// Epoch of the snapshot that answered.
        epoch: u64,
        /// One index per requested fraction.
        indices: Vec<u64>,
    },
    /// Range masses, in request order.
    MassBatch {
        /// Epoch of the snapshot that answered.
        epoch: u64,
        /// One mass per requested range.
        masses: Vec<f64>,
    },
    /// Per-key statistics.
    Stats {
        /// The addressed key's epoch (0 before its first publish).
        epoch: u64,
        /// Summary of the key's served synopsis, or `None` if it serves
        /// nothing.
        synopsis: Option<SynopsisStats>,
    },
    /// Store-wide statistics.
    StoreStats {
        /// Largest per-key epoch.
        epoch: u64,
        /// The summary.
        stats: StoreWideStats,
    },
    /// The key listing, in canonical (ascending) order.
    KeyList {
        /// Largest per-key epoch when the listing was taken.
        epoch: u64,
        /// Every key.
        keys: Vec<String>,
    },
    /// The merged global view.
    MergedView {
        /// Largest epoch among the contributing snapshots.
        epoch: u64,
        /// Number of keys that contributed a synopsis.
        keys: u64,
        /// The merged synopsis as a nested `AHISTSYN` container.
        synopsis: Vec<u8>,
    },
    /// A `Publish`/`UpdateMerge` landed; the key's store now serves this
    /// epoch.
    Updated {
        /// The new epoch.
        epoch: u64,
    },
    /// A `DropKey` was processed.
    Dropped {
        /// The dropped key's last epoch (0 if it was absent).
        epoch: u64,
        /// Whether the key existed.
        existed: bool,
    },
    /// Typed rejection. The connection stays usable unless the server also
    /// closed it (framing errors and exhausted request budgets close).
    Error {
        /// Relevant epoch when the error was built (the addressed key's
        /// epoch where one was decoded, otherwise the store-wide maximum).
        epoch: u64,
        /// The typed code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// The wire opcode of this response kind — the single source the encoder
    /// and the client's mismatch reporting share.
    pub(crate) fn op(&self) -> u8 {
        match self {
            Response::CdfBatch { .. } => OP_CDF_OK,
            Response::QuantileBatch { .. } => OP_QUANTILE_OK,
            Response::MassBatch { .. } => OP_MASS_OK,
            Response::Stats { .. } => OP_STATS_OK,
            Response::StoreStats { .. } => OP_STORE_STATS_OK,
            Response::KeyList { .. } => OP_LIST_KEYS_OK,
            Response::MergedView { .. } => OP_MERGED_VIEW_OK,
            Response::Updated { .. } => OP_UPDATED,
            Response::Dropped { .. } => OP_DROPPED,
            Response::Error { .. } => OP_ERROR,
        }
    }
}

// ---------------------------------------------------------------------------
// Key helpers.
// ---------------------------------------------------------------------------

/// Writes a key section: u64 length prefix + UTF-8 bytes.
fn put_key(out: &mut Vec<u8>, key: &str) {
    put_u64(out, key.len() as u64);
    out.extend_from_slice(key.as_bytes());
}

/// Reads and validates a key section: UTF-8, non-empty, within
/// [`hist_persist::MAX_KEY_BYTES`].
fn read_key(reader: &mut Reader<'_>) -> CodecResult<String> {
    let bytes = reader.section("key")?;
    let key = std::str::from_utf8(bytes)
        .map_err(|_| CodecError::InvalidKey { reason: "key is not valid UTF-8" })?;
    hist_persist::validate_key(key)?;
    Ok(key.to_owned())
}

// ---------------------------------------------------------------------------
// Encoding.
// ---------------------------------------------------------------------------

/// Encodes a request into one complete wire message (length prefix included)
/// — exactly the bytes a client writes to the socket.
pub fn encode_request(request: &Request) -> Vec<u8> {
    let mut payload = Vec::new();
    let op = match request {
        Request::CdfBatch { key, xs } => {
            put_key(&mut payload, key);
            put_u64(&mut payload, xs.len() as u64);
            for &x in xs {
                put_u64(&mut payload, x);
            }
            OP_CDF_BATCH
        }
        Request::QuantileBatch { key, ps } => {
            put_key(&mut payload, key);
            put_u64(&mut payload, ps.len() as u64);
            for &p in ps {
                put_f64(&mut payload, p);
            }
            OP_QUANTILE_BATCH
        }
        Request::MassBatch { key, ranges } => {
            put_key(&mut payload, key);
            put_u64(&mut payload, ranges.len() as u64);
            for &(start, end) in ranges {
                put_u64(&mut payload, start);
                put_u64(&mut payload, end);
            }
            OP_MASS_BATCH
        }
        Request::Stats { key } => {
            put_key(&mut payload, key);
            OP_STATS
        }
        Request::StoreStats => OP_STORE_STATS,
        Request::ListKeys => OP_LIST_KEYS,
        Request::MergedView { budget } => {
            put_u64(&mut payload, *budget);
            OP_MERGED_VIEW
        }
        Request::Publish { key, synopsis } => {
            put_key(&mut payload, key);
            put_u64(&mut payload, synopsis.len() as u64);
            payload.extend_from_slice(synopsis);
            OP_PUBLISH
        }
        Request::UpdateMerge { key, budget, synopsis } => {
            put_key(&mut payload, key);
            put_u64(&mut payload, *budget);
            put_u64(&mut payload, synopsis.len() as u64);
            payload.extend_from_slice(synopsis);
            OP_UPDATE_MERGE
        }
        Request::DropKey { key } => {
            put_key(&mut payload, key);
            OP_DROP_KEY
        }
    };
    seal_message(op, &payload)
}

/// Encodes a response into one complete wire message (length prefix
/// included).
pub fn encode_response(response: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    encode_response_into(response, &mut out);
    out
}

/// Appends a complete response wire message (length prefix included) onto
/// `out`, building the frame in place: no intermediate payload `Vec`, and no
/// allocation at all once `out` has warmed-up capacity. This is the server's
/// steady-state write path; [`encode_response`] delegates here, so the two
/// emit byte-identical frames by construction.
pub fn encode_response_into(response: &Response, out: &mut Vec<u8>) {
    let start = out.len();
    // Placeholder length prefix, patched once the payload size is known.
    out.extend_from_slice(&[0u8; LENGTH_PREFIX_BYTES]);
    out.extend_from_slice(&NET_MAGIC);
    out.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    out.push(response.op());
    write_response_payload(response, out);
    // frame = magic + version + op + payload + the 4-byte CRC trailer below.
    let frame_len = out.len() - start - LENGTH_PREFIX_BYTES + 4;
    out[start..start + LENGTH_PREFIX_BYTES].copy_from_slice(&(frame_len as u32).to_le_bytes());
    let crc = crc32(&out[start + LENGTH_PREFIX_BYTES..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

fn write_response_payload(response: &Response, payload: &mut Vec<u8>) {
    match response {
        Response::CdfBatch { epoch, values } => {
            put_u64(payload, *epoch);
            put_u64(payload, values.len() as u64);
            for &v in values {
                put_f64(payload, v);
            }
        }
        Response::QuantileBatch { epoch, indices } => {
            put_u64(payload, *epoch);
            put_u64(payload, indices.len() as u64);
            for &i in indices {
                put_u64(payload, i);
            }
        }
        Response::MassBatch { epoch, masses } => {
            put_u64(payload, *epoch);
            put_u64(payload, masses.len() as u64);
            for &m in masses {
                put_f64(payload, m);
            }
        }
        Response::Stats { epoch, synopsis } => {
            put_u64(payload, *epoch);
            match synopsis {
                None => payload.push(0),
                Some(stats) => {
                    payload.push(1);
                    put_u64(payload, stats.domain);
                    put_u64(payload, stats.pieces);
                    put_u64(payload, stats.target_k);
                    put_f64(payload, stats.total_mass);
                    put_u64(payload, stats.estimator.len() as u64);
                    payload.extend_from_slice(stats.estimator.as_bytes());
                    put_u64(payload, stats.merges);
                    put_u64(payload, stats.refits);
                    put_f64(payload, stats.merge_error);
                }
            }
        }
        Response::StoreStats { epoch, stats } => {
            put_u64(payload, *epoch);
            put_u64(payload, stats.keys);
            put_u64(payload, stats.served);
            put_u64(payload, stats.total_pieces);
            put_u64(payload, stats.min_epoch);
            put_u64(payload, stats.max_epoch);
            put_u64(payload, stats.merges);
            put_u64(payload, stats.refits);
            put_f64(payload, stats.merged_mass);
            put_f64(payload, stats.merge_error);
        }
        Response::KeyList { epoch, keys } => {
            put_u64(payload, *epoch);
            put_u64(payload, keys.len() as u64);
            for key in keys {
                put_key(payload, key);
            }
        }
        Response::MergedView { epoch, keys, synopsis } => {
            put_u64(payload, *epoch);
            put_u64(payload, *keys);
            put_u64(payload, synopsis.len() as u64);
            payload.extend_from_slice(synopsis);
        }
        Response::Updated { epoch } => {
            put_u64(payload, *epoch);
        }
        Response::Dropped { epoch, existed } => {
            put_u64(payload, *epoch);
            payload.push(u8::from(*existed));
        }
        Response::Error { epoch, code, message } => {
            put_u64(payload, *epoch);
            payload.push(code.to_u8());
            put_u64(payload, message.len() as u64);
            payload.extend_from_slice(message.as_bytes());
        }
    };
}

// ---------------------------------------------------------------------------
// Decoding.
// ---------------------------------------------------------------------------

/// Decodes a request from a verified frame's op byte and payload (the shape
/// [`crate::frame::check_envelope`] returns).
pub fn decode_request_frame(op: u8, payload: &[u8]) -> CodecResult<Request> {
    let mut reader = Reader::new(payload);
    let request = match op {
        OP_CDF_BATCH => {
            let key = read_key(&mut reader)?;
            let count = reader.count("cdf indices", 8)?;
            let mut xs = Vec::with_capacity(count);
            for _ in 0..count {
                xs.push(reader.u64()?);
            }
            Request::CdfBatch { key, xs }
        }
        OP_QUANTILE_BATCH => {
            let key = read_key(&mut reader)?;
            let count = reader.count("quantile fractions", 8)?;
            let mut ps = Vec::with_capacity(count);
            for _ in 0..count {
                ps.push(reader.f64()?);
            }
            Request::QuantileBatch { key, ps }
        }
        OP_MASS_BATCH => {
            let key = read_key(&mut reader)?;
            let count = reader.count("mass ranges", 16)?;
            let mut ranges = Vec::with_capacity(count);
            for _ in 0..count {
                let start = reader.u64()?;
                let end = reader.u64()?;
                ranges.push((start, end));
            }
            Request::MassBatch { key, ranges }
        }
        OP_STATS => Request::Stats { key: read_key(&mut reader)? },
        OP_STORE_STATS => Request::StoreStats,
        OP_LIST_KEYS => Request::ListKeys,
        OP_MERGED_VIEW => Request::MergedView { budget: reader.u64()? },
        OP_PUBLISH => {
            let key = read_key(&mut reader)?;
            Request::Publish { key, synopsis: reader.section("synopsis blob")?.to_vec() }
        }
        OP_UPDATE_MERGE => {
            let key = read_key(&mut reader)?;
            let budget = reader.u64()?;
            let synopsis = reader.section("synopsis blob")?.to_vec();
            Request::UpdateMerge { key, budget, synopsis }
        }
        OP_DROP_KEY => Request::DropKey { key: read_key(&mut reader)? },
        found => return Err(CodecError::InvalidTag { what: "request op", found }),
    };
    reader.finish()?;
    Ok(request)
}

/// Decodes a response from a verified frame's op byte and payload.
pub fn decode_response_frame(op: u8, payload: &[u8]) -> CodecResult<Response> {
    // The op is validated before the payload is touched, so an unknown op is
    // reported as such rather than as a truncation further in.
    if !matches!(
        op,
        OP_CDF_OK
            | OP_QUANTILE_OK
            | OP_MASS_OK
            | OP_STATS_OK
            | OP_STORE_STATS_OK
            | OP_LIST_KEYS_OK
            | OP_MERGED_VIEW_OK
            | OP_UPDATED
            | OP_DROPPED
            | OP_ERROR
    ) {
        return Err(CodecError::InvalidTag { what: "response op", found: op });
    }
    let mut reader = Reader::new(payload);
    let epoch = reader.u64()?;
    let response = match op {
        OP_CDF_OK => {
            let count = reader.count("cdf values", 8)?;
            let mut values = Vec::with_capacity(count);
            for _ in 0..count {
                values.push(reader.f64()?);
            }
            Response::CdfBatch { epoch, values }
        }
        OP_QUANTILE_OK => {
            let count = reader.count("quantile indices", 8)?;
            let mut indices = Vec::with_capacity(count);
            for _ in 0..count {
                indices.push(reader.u64()?);
            }
            Response::QuantileBatch { epoch, indices }
        }
        OP_MASS_OK => {
            let count = reader.count("mass values", 8)?;
            let mut masses = Vec::with_capacity(count);
            for _ in 0..count {
                masses.push(reader.f64()?);
            }
            Response::MassBatch { epoch, masses }
        }
        OP_STATS_OK => {
            let synopsis = match reader.u8()? {
                0 => None,
                1 => {
                    let domain = reader.u64()?;
                    let pieces = reader.u64()?;
                    let target_k = reader.u64()?;
                    let total_mass = reader.f64()?;
                    let name = reader.section("estimator name")?;
                    let estimator =
                        std::str::from_utf8(name).map_err(|_| CodecError::NonUtf8Name)?.to_string();
                    Some(SynopsisStats {
                        domain,
                        pieces,
                        target_k,
                        total_mass,
                        estimator,
                        merges: reader.u64()?,
                        refits: reader.u64()?,
                        merge_error: reader.f64()?,
                    })
                }
                found => {
                    return Err(CodecError::InvalidTag { what: "stats synopsis presence", found })
                }
            };
            Response::Stats { epoch, synopsis }
        }
        OP_STORE_STATS_OK => Response::StoreStats {
            epoch,
            stats: StoreWideStats {
                keys: reader.u64()?,
                served: reader.u64()?,
                total_pieces: reader.u64()?,
                min_epoch: reader.u64()?,
                max_epoch: reader.u64()?,
                merges: reader.u64()?,
                refits: reader.u64()?,
                merged_mass: reader.f64()?,
                merge_error: reader.f64()?,
            },
        },
        OP_LIST_KEYS_OK => {
            // Smallest possible key section: 8-byte length + 1 byte.
            let count = reader.count("keys", 9)?;
            let mut keys = Vec::with_capacity(count);
            for _ in 0..count {
                keys.push(read_key(&mut reader)?);
            }
            Response::KeyList { epoch, keys }
        }
        OP_MERGED_VIEW_OK => {
            let keys = reader.u64()?;
            let synopsis = reader.section("merged synopsis blob")?.to_vec();
            Response::MergedView { epoch, keys, synopsis }
        }
        OP_UPDATED => Response::Updated { epoch },
        OP_DROPPED => {
            let existed = match reader.u8()? {
                0 => false,
                1 => true,
                found => return Err(CodecError::InvalidTag { what: "dropped flag", found }),
            };
            Response::Dropped { epoch, existed }
        }
        OP_ERROR => {
            let code = ErrorCode::from_u8(reader.u8()?);
            // Lossy on purpose: the message is display-only detail from the
            // peer, and a mangled byte must not turn a typed error frame
            // into an undecodable one.
            let message = String::from_utf8_lossy(reader.section("error message")?).into_owned();
            Response::Error { epoch, code, message }
        }
        _ => unreachable!("op membership checked above"),
    };
    reader.finish()?;
    Ok(response)
}

/// Decodes a complete wire message (length prefix included) as a request.
pub fn decode_request(message: &[u8]) -> CodecResult<Request> {
    let (op, payload) = split_message(message)?;
    decode_request_frame(op, payload)
}

/// Decodes a complete wire message (length prefix included) as a response.
pub fn decode_response(message: &[u8]) -> CodecResult<Response> {
    let (op, payload) = split_message(message)?;
    decode_response_frame(op, payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hist_serve::DEFAULT_KEY;

    fn round_trip_request(request: Request) {
        let decoded = decode_request(&encode_request(&request)).unwrap();
        assert_eq!(decoded, request);
    }

    fn round_trip_response(response: Response) {
        let decoded = decode_response(&encode_response(&response)).unwrap();
        assert_eq!(decoded, response);
    }

    #[test]
    fn every_request_kind_round_trips() {
        round_trip_request(Request::CdfBatch { key: "t".into(), xs: vec![] });
        round_trip_request(Request::CdfBatch { key: "api/login".into(), xs: vec![0, 7, u64::MAX] });
        round_trip_request(Request::QuantileBatch { key: "q".into(), ps: vec![0.0, 0.5, 1.0] });
        round_trip_request(Request::MassBatch { key: "m".into(), ranges: vec![(0, 0), (3, 99)] });
        round_trip_request(Request::Stats { key: DEFAULT_KEY.into() });
        round_trip_request(Request::StoreStats);
        round_trip_request(Request::ListKeys);
        round_trip_request(Request::MergedView { budget: 12 });
        round_trip_request(Request::Publish {
            key: "p".into(),
            synopsis: b"AHISTSYN-ish bytes".to_vec(),
        });
        round_trip_request(Request::UpdateMerge {
            key: "u".into(),
            budget: 11,
            synopsis: vec![1, 2, 3],
        });
        round_trip_request(Request::DropKey { key: "gone".into() });
    }

    #[test]
    fn every_response_kind_round_trips() {
        round_trip_response(Response::CdfBatch { epoch: 3, values: vec![0.25, 1.0] });
        round_trip_response(Response::QuantileBatch { epoch: 4, indices: vec![0, 99] });
        round_trip_response(Response::MassBatch { epoch: 5, masses: vec![-1.5, 0.0] });
        round_trip_response(Response::Stats { epoch: 0, synopsis: None });
        round_trip_response(Response::Stats {
            epoch: 9,
            synopsis: Some(SynopsisStats {
                domain: 256,
                pieces: 13,
                target_k: 5,
                total_mass: 960.0,
                estimator: "merging".into(),
                merges: 41,
                refits: 3,
                merge_error: 0.625,
            }),
        });
        round_trip_response(Response::StoreStats {
            epoch: 17,
            stats: StoreWideStats {
                keys: 100_000,
                served: 99_999,
                total_pieces: 1_234_567,
                min_epoch: 0,
                max_epoch: 17,
                merges: 4_242,
                refits: 17,
                merged_mass: 1e9,
                merge_error: 123.5,
            },
        });
        round_trip_response(Response::KeyList {
            epoch: 2,
            keys: vec!["a".into(), "b".into(), "c".into()],
        });
        round_trip_response(Response::KeyList { epoch: 0, keys: vec![] });
        round_trip_response(Response::MergedView {
            epoch: 8,
            keys: 3,
            synopsis: b"AHISTSYN-ish".to_vec(),
        });
        round_trip_response(Response::Updated { epoch: 42 });
        round_trip_response(Response::Dropped { epoch: 4, existed: true });
        round_trip_response(Response::Dropped { epoch: 0, existed: false });
        round_trip_response(Response::Error {
            epoch: 7,
            code: ErrorCode::InvalidQuery,
            message: "index 900 out of domain 256".into(),
        });
    }

    /// Re-stamps an encoded message with another version, recomputing the
    /// CRC so the version is the only thing wrong with the frame.
    fn restamp(mut message: Vec<u8>, version: u16) -> Vec<u8> {
        let at = LENGTH_PREFIX_BYTES + NET_MAGIC.len();
        message[at..at + 2].copy_from_slice(&version.to_le_bytes());
        let body = message.len() - 4;
        let crc = crc32(&message[LENGTH_PREFIX_BYTES..body]);
        message[body..].copy_from_slice(&crc.to_le_bytes());
        message
    }

    #[test]
    fn every_other_version_is_an_unsupported_version_error() {
        let request = encode_request(&Request::Stats { key: "t".into() });
        let response = encode_response(&Response::Updated { epoch: 1 });
        assert_eq!(restamp(request.clone(), PROTOCOL_VERSION), request);
        assert_eq!(restamp(response.clone(), PROTOCOL_VERSION), response);
        for version in [0, 1, 2, PROTOCOL_VERSION + 1] {
            let rejected = |r: CodecResult<()>| {
                matches!(
                    r,
                    Err(CodecError::UnsupportedVersion { found, supported: PROTOCOL_VERSION })
                        if found == version
                )
            };
            let request = restamp(request.clone(), version);
            assert!(rejected(decode_request(&request).map(drop)), "request at v{version}");
            let response = restamp(response.clone(), version);
            assert!(rejected(decode_response(&response).map(drop)), "response at v{version}");
        }
    }

    #[test]
    fn malformed_keys_are_typed_errors() {
        // Empty key.
        let mut payload = Vec::new();
        put_u64(&mut payload, 0);
        let message = seal_message(OP_STATS, &payload);
        assert!(matches!(decode_request(&message), Err(CodecError::InvalidKey { .. })));

        // Non-UTF-8 key.
        let mut payload = Vec::new();
        put_u64(&mut payload, 2);
        payload.extend_from_slice(&[0xFF, 0xFE]);
        let message = seal_message(OP_STATS, &payload);
        assert!(matches!(decode_request(&message), Err(CodecError::InvalidKey { .. })));

        // Oversized key.
        let long = "k".repeat(hist_persist::MAX_KEY_BYTES + 1);
        let mut payload = Vec::new();
        put_key(&mut payload, &long);
        let message = seal_message(OP_STATS, &payload);
        assert!(matches!(decode_request(&message), Err(CodecError::InvalidKey { .. })));
    }

    #[test]
    fn cdf_values_ship_as_raw_bits() {
        // Negative zero and a subnormal survive exactly — the wire carries
        // IEEE-754 bits, not a decimal rendering.
        let values = vec![-0.0, f64::MIN_POSITIVE / 4.0];
        let encoded = encode_response(&Response::CdfBatch { epoch: 1, values: values.clone() });
        match decode_response(&encoded).unwrap() {
            Response::CdfBatch { values: decoded, .. } => {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&decoded), bits(&values));
            }
            other => panic!("wrong response: {other:?}"),
        }
    }

    #[test]
    fn error_codes_round_trip_including_unknown() {
        for raw in 0..=255u8 {
            assert_eq!(ErrorCode::from_u8(raw).to_u8(), raw);
        }
        assert_eq!(ErrorCode::from_u8(9), ErrorCode::UnknownKey);
        assert_eq!(ErrorCode::from_u8(10), ErrorCode::InvalidKey);
        assert_eq!(ErrorCode::from_u8(200), ErrorCode::Unknown(200));
    }

    #[test]
    fn request_and_response_ops_reject_each_other() {
        let request = encode_request(&Request::Stats { key: DEFAULT_KEY.into() });
        assert!(matches!(
            decode_response(&request),
            Err(CodecError::InvalidTag { what: "response op", .. })
        ));
        let response = encode_response(&Response::Updated { epoch: 1 });
        assert!(matches!(
            decode_request(&response),
            Err(CodecError::InvalidTag { what: "request op", .. })
        ));
    }

    #[test]
    fn hostile_counts_are_rejected_before_allocation() {
        // A CdfBatch announcing u64::MAX indices inside a valid envelope.
        let mut payload = Vec::new();
        put_key(&mut payload, DEFAULT_KEY);
        put_u64(&mut payload, u64::MAX);
        let message = seal_message(OP_CDF_BATCH, &payload);
        assert!(matches!(
            decode_request(&message),
            Err(CodecError::CountOutOfBounds { count: u64::MAX, .. })
        ));

        // A KeyList announcing u64::MAX keys.
        let mut payload = Vec::new();
        put_u64(&mut payload, 1); // epoch
        put_u64(&mut payload, u64::MAX);
        let message = seal_message(OP_LIST_KEYS_OK, &payload);
        assert!(matches!(
            decode_response(&message),
            Err(CodecError::CountOutOfBounds { count: u64::MAX, .. })
        ));
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        let mut payload = Vec::new();
        put_key(&mut payload, DEFAULT_KEY);
        put_u64(&mut payload, 0); // zero indices…
        payload.extend_from_slice(b"junk"); // …then junk
        let message = seal_message(OP_CDF_BATCH, &payload);
        assert!(matches!(
            decode_request(&message),
            Err(CodecError::TrailingBytes { remaining: 4 })
        ));
    }
}
