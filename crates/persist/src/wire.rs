//! Shared wire primitives: the little-endian write helpers and the bounded
//! [`Reader`] every framed format in the workspace parses with.
//!
//! These started as private helpers of the synopsis codec and were promoted
//! when the network protocol (`hist-net`) arrived: both sides frame their
//! bytes the same way — little-endian fields, length/count-prefixed sections,
//! a CRC-32 trailer — and both need the same guarantee that decoding hostile
//! bytes is *total*. The [`Reader`] is the single funnel for that guarantee:
//! every read is bounds-checked, and every count prefix is validated against
//! the bytes actually remaining *before* any allocation is sized from it, so
//! a forged huge length can never drive an over-allocation. The envelope
//! itself — magic, version, CRC-32 trailer — is sealed and checked here
//! too, by [`seal_envelope`] and [`check_envelope`], for the persist
//! containers and the wire frames alike.

use crate::crc32::crc32;
use crate::error::{CodecError, CodecResult};

/// Bytes of the envelope's head: magic (8) + version (2).
const HEAD_BYTES: usize = 10;

/// Appends the CRC-32 trailer over the envelope — magic, version, payload —
/// that opens at `out[start]`.
pub fn seal_envelope(out: &mut Vec<u8>, start: usize) {
    let crc = crc32(&out[start..]);
    put_u32(out, crc);
}

/// Verifies an envelope — `magic`, exactly `version`, at least `min_len`
/// bytes (head and trailer included, at least 14) and the CRC-32 trailer —
/// and returns the bytes between the head and the trailer.
pub fn check_envelope<'a>(
    bytes: &'a [u8],
    magic: &[u8; 8],
    version: u16,
    min_len: usize,
) -> CodecResult<&'a [u8]> {
    debug_assert!(min_len >= HEAD_BYTES + 4);
    let truncated = || CodecError::Truncated { needed: min_len, available: bytes.len() };
    if bytes.len() < magic.len() {
        // A strict prefix of the magic is a truncated envelope; anything
        // else never was one.
        if *bytes == magic[..bytes.len()] {
            return Err(truncated());
        }
        return Err(CodecError::BadMagic);
    }
    if bytes[..8] != magic[..] {
        return Err(CodecError::BadMagic);
    }
    if bytes.len() < HEAD_BYTES {
        return Err(truncated());
    }
    let found = u16::from_le_bytes([bytes[8], bytes[9]]);
    if found != version {
        return Err(CodecError::UnsupportedVersion { found, supported: version });
    }
    if bytes.len() < min_len {
        return Err(truncated());
    }
    let content = &bytes[..bytes.len() - 4];
    let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 trailer bytes"));
    let computed = crc32(content);
    if stored != computed {
        return Err(CodecError::ChecksumMismatch { stored, computed });
    }
    Ok(&content[HEAD_BYTES..])
}

/// Appends a `u16` in little-endian byte order.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32` in little-endian byte order.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` in little-endian byte order.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its raw IEEE-754 bits (little-endian): round-trips
/// every finite value exactly, which is what makes decoded query results
/// bit-identical to the originals.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// A cursor over (already CRC-verified) payload bytes. Every read is
/// bounds-checked; [`Reader::take`] is the single point all reads funnel
/// through.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes, or [`CodecError::Truncated`] if fewer remain.
    pub fn take(&mut self, n: usize) -> CodecResult<&'a [u8]> {
        if n > self.remaining() {
            return Err(CodecError::Truncated { needed: n, available: self.remaining() });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// The next byte.
    pub fn u8(&mut self) -> CodecResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// The next little-endian `u16`.
    pub fn u16(&mut self) -> CodecResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> CodecResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> CodecResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// The next `f64`, from its raw IEEE-754 bits.
    pub fn f64(&mut self) -> CodecResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u64` field that must fit the platform's `usize`.
    pub fn usize64(&mut self, what: &'static str) -> CodecResult<usize> {
        usize::try_from(self.u64()?).map_err(|_| CodecError::ValueOutOfRange { what })
    }

    /// An element count whose elements occupy at least `min_element_bytes`
    /// each: bounded by the bytes actually remaining, so a hostile count can
    /// never drive an over-allocation.
    pub fn count(&mut self, what: &'static str, min_element_bytes: usize) -> CodecResult<usize> {
        let count = self.u64()?;
        let limit = (self.remaining() / min_element_bytes.max(1)) as u64;
        if count > limit {
            return Err(CodecError::CountOutOfBounds { what, count, limit });
        }
        Ok(count as usize)
    }

    /// A length-prefixed byte section.
    pub fn section(&mut self, what: &'static str) -> CodecResult<&'a [u8]> {
        let len = self.count(what, 1)?;
        self.take(len)
    }

    /// Asserts the payload was consumed exactly: leftover bytes are a sign of
    /// a mismatched or tampered length field.
    pub fn finish(&self) -> CodecResult<()> {
        if self.remaining() > 0 {
            return Err(CodecError::TrailingBytes { remaining: self.remaining() });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut out = Vec::new();
        put_u16(&mut out, 0xBEEF);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        put_f64(&mut out, -0.0);
        let mut reader = Reader::new(&out);
        assert_eq!(reader.u16().unwrap(), 0xBEEF);
        assert_eq!(reader.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(reader.u64().unwrap(), u64::MAX - 1);
        assert_eq!(reader.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        reader.finish().unwrap();
    }

    #[test]
    fn hostile_counts_are_rejected_before_allocation() {
        let mut out = Vec::new();
        put_u64(&mut out, u64::MAX);
        let mut reader = Reader::new(&out);
        assert!(matches!(
            reader.count("elements", 8),
            Err(CodecError::CountOutOfBounds { count: u64::MAX, .. })
        ));
    }

    #[test]
    fn truncation_and_trailing_bytes_are_typed() {
        let mut reader = Reader::new(&[1, 2, 3]);
        assert!(matches!(reader.u64(), Err(CodecError::Truncated { needed: 8, available: 3 })));
        let mut reader = Reader::new(&[1, 2, 3]);
        reader.u8().unwrap();
        assert!(matches!(reader.finish(), Err(CodecError::TrailingBytes { remaining: 2 })));
    }
}
