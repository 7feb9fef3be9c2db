//! Typed errors of the persistence layer.
//!
//! Decoding is *total*: any byte sequence — truncated, bit-flipped, crafted
//! with huge length prefixes — maps to exactly one [`CodecError`] variant,
//! never a panic and never an unbounded allocation. The corruption test
//! suite (`tests/persist_corruption.rs` at the workspace root) sweeps
//! truncations and byte flips over encoded fixtures to enforce this.

use std::fmt;

/// Errors produced while encoding or decoding the binary synopsis format.
#[derive(Debug)]
pub enum CodecError {
    /// The buffer ended before a field (or the envelope itself) was complete.
    Truncated {
        /// Bytes the decoder needed to make progress.
        needed: usize,
        /// Bytes actually available at that point.
        available: usize,
    },
    /// The leading magic bytes do not identify any known container kind.
    BadMagic,
    /// The container is a future (or corrupted) format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
        /// Newest version this build understands.
        supported: u16,
    },
    /// The CRC-32 trailer does not match the checksum of the content.
    ChecksumMismatch {
        /// Checksum stored in the trailer.
        stored: u32,
        /// Checksum computed over the content.
        computed: u32,
    },
    /// The payload parsed completely but bytes were left over before the
    /// trailer — a sign of a mismatched or tampered length field.
    TrailingBytes {
        /// Number of unparsed payload bytes.
        remaining: usize,
    },
    /// A count or length prefix exceeds what the remaining buffer could
    /// possibly hold (the allocation-bound check: huge prefixes are rejected
    /// *before* any `Vec` is reserved).
    CountOutOfBounds {
        /// Which field carried the count.
        what: &'static str,
        /// The decoded count.
        count: u64,
        /// The largest admissible count at that point.
        limit: u64,
    },
    /// A tag byte carries a value this version does not define.
    InvalidTag {
        /// Which field carried the tag.
        what: &'static str,
        /// The offending byte.
        found: u8,
    },
    /// A decoded integer does not fit the platform's `usize`.
    ValueOutOfRange {
        /// Which field overflowed.
        what: &'static str,
    },
    /// The estimator-name section is not valid UTF-8.
    NonUtf8Name,
    /// A store-map key violates the key-encoding rules (empty, longer than
    /// `MAX_KEY_BYTES`, not valid UTF-8, duplicated, or out of canonical
    /// sorted order).
    InvalidKey {
        /// Which rule the key broke.
        reason: &'static str,
    },
    /// A decoded floating-point field is NaN or infinite where the data
    /// model requires a finite value, or lies outside the admitted value
    /// range (`hist_core::is_admitted`) where it requires an admitted one.
    NonFiniteValue {
        /// Which field was rejected.
        what: &'static str,
    },
    /// The bytes decoded structurally but violate a data-model invariant
    /// (pieces not tiling the domain, zero piece budget, overflowing masses,
    /// …) — the error the `hist-core` validating constructors reported.
    Invalid(hist_core::Error),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, available } => {
                write!(f, "buffer truncated: needed {needed} byte(s), only {available} available")
            }
            CodecError::BadMagic => write!(f, "leading bytes are not a known synopsis container"),
            CodecError::UnsupportedVersion { found, supported } => {
                write!(f, "format version {found} unsupported (this build reads up to {supported})")
            }
            CodecError::ChecksumMismatch { stored, computed } => {
                write!(f, "CRC-32 mismatch: trailer {stored:#010x}, content {computed:#010x}")
            }
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} unparsed byte(s) between payload and trailer")
            }
            CodecError::CountOutOfBounds { what, count, limit } => {
                write!(f, "{what} count {count} exceeds the buffer bound {limit}")
            }
            CodecError::InvalidTag { what, found } => {
                write!(f, "unknown {what} tag {found:#04x}")
            }
            CodecError::ValueOutOfRange { what } => {
                write!(f, "{what} does not fit this platform's usize")
            }
            CodecError::NonUtf8Name => write!(f, "estimator name is not valid UTF-8"),
            CodecError::InvalidKey { reason } => write!(f, "invalid store-map key: {reason}"),
            CodecError::NonFiniteValue { what } => {
                write!(f, "{what} is not finite with |v| ≤ {:e}", hist_core::VALUE_BOUND)
            }
            CodecError::Invalid(inner) => write!(f, "decoded data violates an invariant: {inner}"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Invalid(inner) => Some(inner),
            _ => None,
        }
    }
}

impl From<hist_core::Error> for CodecError {
    fn from(inner: hist_core::Error) -> Self {
        CodecError::Invalid(inner)
    }
}

/// Result alias for pure in-memory encode/decode operations.
pub type CodecResult<T> = std::result::Result<T, CodecError>;

/// Errors of the file-level helpers: everything [`CodecError`] covers, plus
/// the I/O failures of actually touching a filesystem.
#[derive(Debug)]
pub enum PersistError {
    /// Reading, writing or renaming the file failed.
    Io(std::io::Error),
    /// The file's bytes failed to decode (or a value failed to encode).
    Codec(CodecError),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::Codec(e) => write!(f, "codec error: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Codec(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<CodecError> for PersistError {
    fn from(e: CodecError) -> Self {
        PersistError::Codec(e)
    }
}

/// Result alias for the file-level helpers.
pub type PersistResult<T> = std::result::Result<T, PersistError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_carry_key_data() {
        let e = CodecError::Truncated { needed: 14, available: 3 };
        assert!(e.to_string().contains("14") && e.to_string().contains('3'));
        let e = CodecError::ChecksumMismatch { stored: 0xDEAD, computed: 0xBEEF };
        assert!(e.to_string().contains("0x0000dead"));
        let e = CodecError::CountOutOfBounds { what: "pieces", count: u64::MAX, limit: 12 };
        assert!(e.to_string().contains("pieces"));
        let io: PersistError = std::io::Error::other("disk on fire").into();
        assert!(io.to_string().contains("disk on fire"));
    }

    #[test]
    fn errors_are_std_errors_with_sources() {
        use std::error::Error as _;
        let e = CodecError::Invalid(hist_core::Error::EmptyDomain);
        assert!(e.source().is_some());
        let e: PersistError = CodecError::BadMagic.into();
        assert!(e.source().is_some());
    }
}
