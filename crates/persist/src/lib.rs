//! # hist-persist
//!
//! The persistent synopsis format: a hand-rolled, dependency-free versioned
//! binary codec for `hist-core` synopses, plus file helpers for saving,
//! shipping and warm-loading them.
//!
//! The point of the source paper (Acharya, Diakonikolas, Hegde, Li,
//! Schmidt — PODS 2015) is that a near-optimal histogram is a *tiny* synopsis
//! of a huge signal. This crate makes that synopsis durable: it can be
//! written to disk, shipped between processes, committed as a test fixture,
//! and loaded back with **bit-identical query results** — `cdf`, `quantile`,
//! `mass_batch` and the boundary masses all reproduce the original to the
//! last bit, because models are stored as raw IEEE-754 bits and the serving
//! state is deterministically recomputed on decode.
//!
//! ## Format
//!
//! Every container is `magic (8) | version (u16 LE) | payload | crc32 (u32
//! LE)`, with three container kinds distinguished by magic:
//!
//! | magic      | contents                                                 |
//! |------------|----------------------------------------------------------|
//! | `AHISTSYN` | one [`Synopsis`](hist_core::Synopsis)                    |
//! | `AHISTCKP` | a [`StreamCheckpoint`]: resumable streaming-build state  |
//! | `AHISTMAP` | a [`StoreMapSnapshot`]: a whole keyed tenant map         |
//!
//! Payload fields are little-endian and sections are length-prefixed, so the
//! format is stable across platforms and versions are free to append
//! sections behind a version bump.
//!
//! ## Safety on hostile bytes
//!
//! [`decode_synopsis`] (and the other decoders) are *total*: any input byte
//! sequence produces either a valid value or a typed [`CodecError`] — never
//! a panic, and never an allocation larger than the input itself (length and
//! count prefixes are checked against the remaining bytes before any `Vec`
//! is reserved). The workspace's corruption suite sweeps truncations at
//! every prefix length and byte flips at every offset to keep this true.
//!
//! ## Example
//!
//! ```
//! use hist_core::{Estimator, EstimatorBuilder, GreedyMerging, Signal};
//! use hist_persist::{decode_synopsis, encode_synopsis};
//!
//! let values: Vec<f64> = (0..200).map(|i| ((i / 50) % 2) as f64 + 1.0).collect();
//! let signal = Signal::from_dense(values).unwrap();
//! let fitted = GreedyMerging::new(EstimatorBuilder::new(4)).fit(&signal).unwrap();
//!
//! let bytes = encode_synopsis(&fitted);
//! let decoded = decode_synopsis(&bytes).unwrap();
//!
//! // Bit-identical serving state: same queries, same answers, same bits.
//! assert_eq!(decoded, fitted);
//! assert_eq!(decoded.quantile(0.5).unwrap(), fitted.quantile(0.5).unwrap());
//!
//! // Corrupt any byte and the decoder reports a typed error, never panics.
//! let mut corrupted = bytes.clone();
//! corrupted[bytes.len() / 2] ^= 0xFF;
//! assert!(decode_synopsis(&corrupted).is_err());
//! ```

pub mod codec;
pub mod crc32;
pub mod error;
pub mod file;
pub mod wire;

pub use codec::{
    decode_store_map, decode_stream_checkpoint, decode_synopsis, encode_store_map,
    encode_stream_checkpoint, encode_synopsis, validate_key, StoreMapEntry, StoreMapSnapshot,
    StreamCheckpoint, CHECKPOINT_MAGIC, FALLBACK_NAME, FORMAT_VERSION, MAP_MAGIC, MAX_KEY_BYTES,
    SYNOPSIS_MAGIC,
};
pub use crc32::crc32;
pub use error::{CodecError, CodecResult, PersistError, PersistResult};
pub use file::{load_store_map, load_synopsis, save_store_map, save_synopsis};
