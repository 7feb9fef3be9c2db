//! Error types shared across the `hist-core` crate, and the one range of
//! values a signal or histogram may hold.

use std::fmt;

/// The largest magnitude a signal or histogram value may have: `2^400`
/// (≈ 2.6e120). On a domain of at most `2^64` points, `(Σq)² ≤ 2^928`,
/// `Σq² ≤ 2^864` and a Ward merge cost is at most `2^866`, so no error the
/// algorithms compute can overflow; a power of two, so no interval mean
/// summed directly rounds past it.
pub const VALUE_BOUND: f64 = f64::from_bits((1023 + 400) << 52);

/// Whether `v` is admitted: finite with `|v| ≤ VALUE_BOUND` (NaN is not).
/// Every constructor taking signal or histogram values checks each with
/// this and rejects the input with [`Error::NonFiniteValue`] otherwise.
#[inline]
pub fn is_admitted(v: f64) -> bool {
    v.abs() <= VALUE_BOUND
}

/// Errors produced by constructors and algorithms in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The requested domain size is zero.
    EmptyDomain,
    /// An index lies outside the domain `[0, n)`.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// The domain size.
        domain: usize,
    },
    /// An interval is invalid (e.g. `start > end` or outside the domain).
    InvalidInterval {
        /// Human-readable description of the violation.
        reason: String,
    },
    /// A set of intervals does not form a partition of the domain.
    InvalidPartition {
        /// Human-readable description of the violation.
        reason: String,
    },
    /// Sparse-function entries are not strictly sorted by index, or repeat.
    UnsortedSupport,
    /// A probability mass function is invalid (negative mass or wrong total).
    InvalidDistribution {
        /// Human-readable description of the violation.
        reason: String,
    },
    /// A parameter value is outside its admissible range.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable description of the violation.
        reason: String,
    },
    /// A value is NaN or infinite where a finite value is required, or, for
    /// a signal or histogram value, lies outside the admitted range
    /// `|v| ≤ VALUE_BOUND` (see [`is_admitted`]).
    NonFiniteValue {
        /// Where the value was encountered.
        context: &'static str,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::EmptyDomain => write!(f, "domain size must be at least 1"),
            Error::IndexOutOfRange { index, domain } => {
                write!(f, "index {index} out of range for domain of size {domain}")
            }
            Error::InvalidInterval { reason } => write!(f, "invalid interval: {reason}"),
            Error::InvalidPartition { reason } => write!(f, "invalid partition: {reason}"),
            Error::UnsortedSupport => {
                write!(f, "sparse support must be strictly increasing in index")
            }
            Error::InvalidDistribution { reason } => {
                write!(f, "invalid distribution: {reason}")
            }
            Error::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            Error::NonFiniteValue { context } => {
                write!(f, "value not finite with |v| ≤ {VALUE_BOUND:e} in {context}")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_key_data() {
        let e = Error::IndexOutOfRange { index: 7, domain: 5 };
        let msg = e.to_string();
        assert!(msg.contains('7') && msg.contains('5'));

        let e = Error::InvalidParameter { name: "delta", reason: "must be positive".into() };
        assert!(e.to_string().contains("delta"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&Error::EmptyDomain);
    }
}
