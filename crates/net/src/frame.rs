//! The wire envelope: every message on a `hist-net` connection is one framed
//! byte string.
//!
//! ```text
//! ┌────────────┬──────────┬─────────────┬───────┬─────────────┬───────────┐
//! │ length u32 │ magic ×8 │ version u16 │ op u8 │ payload     │ crc32 u32 │
//! └────────────┴──────────┴─────────────┴───────┴─────────────┴───────────┘
//!   LE, bytes    AHISTNET   little-endian         op-specific   over magic
//!   after the                                     LE fields     ..payload
//!   prefix
//! ```
//!
//! The length prefix is what makes the protocol safe to read from a hostile
//! peer: the receiver knows the frame size *before* allocating and rejects
//! anything above its configured maximum, so a forged multi-gigabyte length
//! costs the attacker a closed connection, not the server's memory. The
//! CRC-32 trailer (same polynomial as the `hist-persist` containers) is
//! verified before the payload is parsed, and all payload parsing funnels
//! through the bounded [`hist_persist::wire::Reader`], so decoding is total:
//! typed errors, never panics, never an allocation beyond the frame itself.

use std::io::{ErrorKind, Read, Write};

use hist_persist::wire::{self, seal_envelope};
use hist_persist::CodecError;

use crate::error::{NetError, NetResult};

/// Magic bytes opening every protocol frame.
pub const NET_MAGIC: [u8; 8] = *b"AHISTNET";

/// The protocol version this build reads and writes — the only one. A
/// frame announcing any other version is rejected with a typed
/// [`CodecError::UnsupportedVersion`] before its payload is looked at.
pub const PROTOCOL_VERSION: u16 = 4;

// The protocol carries synopses as nested `AHISTSYN` containers in the
// persist encoding, so it pins the persist format version it ships. If
// FORMAT_VERSION ever bumps, a new PROTOCOL_VERSION must carry it (and this
// assertion must be revisited alongside the golden fixtures).
const _: () = assert!(
    hist_persist::FORMAT_VERSION == 1 && PROTOCOL_VERSION == 4,
    "the wire protocol carries AHISTSYN blobs: bump PROTOCOL_VERSION with FORMAT_VERSION"
);

/// Frame overhead after the length prefix: magic (8) + version (2) + op (1)
/// + CRC-32 trailer (4).
pub const ENVELOPE_BYTES: usize = 15;

/// Bytes of the leading length prefix.
pub const LENGTH_PREFIX_BYTES: usize = 4;

/// Default upper bound on a single frame (16 MiB): far above any real batch
/// or synopsis, far below anything that could hurt a server.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 16 << 20;

/// Builds one complete wire message at [`PROTOCOL_VERSION`]: length prefix +
/// envelope around `op` and `payload`.
pub fn seal_message(op: u8, payload: &[u8]) -> Vec<u8> {
    let frame_len = ENVELOPE_BYTES + payload.len();
    let mut out = Vec::with_capacity(LENGTH_PREFIX_BYTES + frame_len);
    out.extend_from_slice(&(frame_len as u32).to_le_bytes());
    out.extend_from_slice(&NET_MAGIC);
    out.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    out.push(op);
    out.extend_from_slice(payload);
    seal_envelope(&mut out, LENGTH_PREFIX_BYTES);
    out
}

/// Verifies a frame (the bytes *after* the length prefix): magic, version
/// (exactly [`PROTOCOL_VERSION`]), CRC trailer. Returns the op byte and the
/// payload.
pub fn check_envelope(frame: &[u8]) -> Result<(u8, &[u8]), CodecError> {
    let body = wire::check_envelope(frame, &NET_MAGIC, PROTOCOL_VERSION, ENVELOPE_BYTES)?;
    Ok((body[0], &body[1..]))
}

/// Splits a complete wire message (length prefix included) into op and
/// payload, verifying the prefix against the actual byte count and the
/// envelope in full — the entry point golden-fixture tests and in-memory
/// decoding use.
pub fn split_message(message: &[u8]) -> Result<(u8, &[u8]), CodecError> {
    if message.len() < LENGTH_PREFIX_BYTES {
        return Err(CodecError::Truncated {
            needed: LENGTH_PREFIX_BYTES,
            available: message.len(),
        });
    }
    let announced =
        u32::from_le_bytes(message[..LENGTH_PREFIX_BYTES].try_into().expect("4 bytes")) as usize;
    let frame = &message[LENGTH_PREFIX_BYTES..];
    if announced != frame.len() {
        return Err(CodecError::CountOutOfBounds {
            what: "frame length prefix",
            count: announced as u64,
            limit: frame.len() as u64,
        });
    }
    check_envelope(frame)
}

/// Reads one frame from a blocking stream: the length prefix, then exactly
/// that many bytes (bounded by `max_frame_bytes` *before* allocating).
///
/// Returns `Ok(None)` on a clean end-of-stream at a message boundary; an EOF
/// mid-message is a typed [`CodecError::Truncated`]. Interrupted reads are
/// retried.
pub fn read_message(r: &mut impl Read, max_frame_bytes: usize) -> NetResult<Option<Vec<u8>>> {
    let mut prefix = [0u8; LENGTH_PREFIX_BYTES];
    let mut got = 0usize;
    while got < prefix.len() {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(NetError::Frame(CodecError::Truncated {
                    needed: LENGTH_PREFIX_BYTES,
                    available: got,
                }))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > max_frame_bytes {
        return Err(NetError::FrameTooLarge { len, max: max_frame_bytes });
    }
    if len < ENVELOPE_BYTES {
        return Err(NetError::Frame(CodecError::Truncated {
            needed: ENVELOPE_BYTES,
            available: len,
        }));
    }
    let mut frame = vec![0u8; len];
    let mut filled = 0usize;
    while filled < len {
        match r.read(&mut frame[filled..]) {
            Ok(0) => {
                return Err(NetError::Frame(CodecError::Truncated {
                    needed: len,
                    available: filled,
                }))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    Ok(Some(frame))
}

/// Writes one complete wire message and flushes.
pub fn write_message(w: &mut impl Write, message: &[u8]) -> NetResult<()> {
    w.write_all(message)?;
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_and_check_round_trip() {
        let message = seal_message(0x42, b"hello frame");
        let (op, payload) = split_message(&message).unwrap();
        assert_eq!(message[LENGTH_PREFIX_BYTES + 8..][..2], PROTOCOL_VERSION.to_le_bytes());
        assert_eq!(op, 0x42);
        assert_eq!(payload, b"hello frame");
        // The same frame through the stream reader.
        let mut cursor = std::io::Cursor::new(message.clone());
        let frame = read_message(&mut cursor, DEFAULT_MAX_FRAME_BYTES).unwrap().unwrap();
        assert_eq!(check_envelope(&frame).unwrap(), (0x42, &b"hello frame"[..]));
        // Clean EOF at the boundary.
        assert!(read_message(&mut cursor, DEFAULT_MAX_FRAME_BYTES).unwrap().is_none());
    }

    #[test]
    fn corrupted_envelopes_are_typed_errors() {
        let message = seal_message(1, b"payload");
        let frame = &message[LENGTH_PREFIX_BYTES..];

        let mut wrong_magic = frame.to_vec();
        wrong_magic[0] ^= 0xFF;
        assert!(matches!(check_envelope(&wrong_magic), Err(CodecError::BadMagic)));

        // Every version but the current one is rejected. A version flip
        // also breaks the CRC; the version is checked first so the peer
        // learns *why* rather than seeing a generic mismatch.
        for version in [0, 1, 2, PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1] {
            let mut other = frame.to_vec();
            other[8..10].copy_from_slice(&u16::to_le_bytes(version));
            assert!(
                matches!(
                    check_envelope(&other),
                    Err(CodecError::UnsupportedVersion { found, supported: PROTOCOL_VERSION })
                        if found == version
                ),
                "version {version} must be rejected"
            );
        }

        let mut flipped = frame.to_vec();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        assert!(matches!(check_envelope(&flipped), Err(CodecError::ChecksumMismatch { .. })));

        for len in 0..frame.len() {
            assert!(check_envelope(&frame[..len]).is_err(), "prefix of {len} bytes passed");
        }
    }

    #[test]
    fn forged_length_prefixes_never_allocate() {
        // Announce 2 GiB: rejected by the limit before any buffer exists.
        let mut message = (u32::MAX / 2).to_le_bytes().to_vec();
        message.extend_from_slice(&[0u8; 32]);
        let mut cursor = std::io::Cursor::new(message);
        assert!(matches!(
            read_message(&mut cursor, DEFAULT_MAX_FRAME_BYTES),
            Err(NetError::FrameTooLarge { max: DEFAULT_MAX_FRAME_BYTES, .. })
        ));

        // Announce less than an envelope: typed truncation.
        let mut cursor = std::io::Cursor::new(3u32.to_le_bytes().to_vec());
        assert!(matches!(
            read_message(&mut cursor, DEFAULT_MAX_FRAME_BYTES),
            Err(NetError::Frame(CodecError::Truncated { .. }))
        ));

        // Announce more than the stream delivers: typed truncation, and the
        // allocation stayed within the announced (already bounded) length.
        let mut message = 64u32.to_le_bytes().to_vec();
        message.extend_from_slice(&[0u8; 10]);
        let mut cursor = std::io::Cursor::new(message);
        assert!(matches!(
            read_message(&mut cursor, DEFAULT_MAX_FRAME_BYTES),
            Err(NetError::Frame(CodecError::Truncated { needed: 64, available: 10 }))
        ));
    }

    #[test]
    fn length_prefix_must_match_the_message() {
        let mut message = seal_message(1, b"x");
        message[0] = message[0].wrapping_add(1);
        assert!(matches!(
            split_message(&message),
            Err(CodecError::CountOutOfBounds { what: "frame length prefix", .. })
        ));
        assert!(split_message(&message[..2]).is_err());
    }
}
