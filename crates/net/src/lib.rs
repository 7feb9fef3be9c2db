//! # hist-net
//!
//! The network serving layer: a dependency-free `std::net` TCP protocol that
//! puts the workspace's synopses on the wire — keyed multi-tenant queries,
//! admin updates and stats, all over one framed binary format.
//!
//! The ROADMAP's north star is serving heavy traffic from many users; every
//! layer below this one (fit, merge, stream, parallel build, concurrent
//! store, durable codec) lives inside a single process. This crate closes
//! the loop: a [`HistServer`] serves the keyed
//! [`StoreMap`](hist_serve::StoreMap) (one epoch/snapshot store per
//! tenant/metric key — reads wait-free, writes serialized per key, every
//! response stamped with the snapshot epoch) from one pipelining epoll/poll
//! readiness loop that answers every request inline (see [`evented`]), and a
//! blocking [`HistClient`] exposes batch helpers whose answers are
//! **bit-identical** to querying the local
//! [`Synopsis`](hist_core::Synopsis) directly — `f64`s travel as raw
//! IEEE-754 bits, and published synopses ship in the `hist-persist`
//! `AHISTSYN` encoding whose decode path is already proven bit-exact.
//!
//! The loop is the only server path, and it has three costs:
//!
//! * a long request (a `MergedView` over many keys, a 4096-range
//!   `MassBatch`, a large `Publish`) delays every connection's answers while
//!   it runs, not just its own connection's;
//! * a fleet of pipelining connections is served by one CPU;
//! * [`HistServer::bind`] needs a Unix host and returns an `Unsupported`
//!   error elsewhere.
//!
//! ## Wire format
//!
//! Every message is one frame (see [`frame`]):
//!
//! ```text
//! length u32 LE | "AHISTNET" | version u16 LE | op u8 | payload | crc32 u32 LE
//! ```
//!
//! The version is always [`PROTOCOL_VERSION`] (3); a frame announcing any
//! other version is answered with a typed `UnsupportedVersion` error frame.
//! Every query/admin payload opens with a *key* section (length-prefixed,
//! non-empty UTF-8, at most [`hist_persist::MAX_KEY_BYTES`] bytes)
//! addressing one store of the map, and the `Stats`/`StoreStats` answers
//! carry the maintenance counters (merges, refits, accumulated merge-error
//! bound).
//! Request ops: `CdfBatch` (0x01), `QuantileBatch` (0x02), `MassBatch`
//! (0x03), `Stats` (0x04), `StoreStats` (0x05), `ListKeys` (0x06),
//! `MergedView` (0x07), `Publish` (0x10), `UpdateMerge` (0x11), `DropKey`
//! (0x12). Response ops mirror them (`| 0x80`), plus `Updated` (0x90),
//! `Dropped` (0x91) and the typed `Error` frame (0xEE).
//!
//! The version pair (persist format, wire protocol) is pinned by a
//! compile-time assertion, because `Publish`/`UpdateMerge` payloads are
//! `AHISTSYN` containers.
//!
//! ## Safety on hostile peers
//!
//! The server never trusts the wire: the length prefix is checked against
//! [`ServerConfig::max_frame_bytes`] *before* any allocation, payload
//! parsing funnels through the bounded `hist_persist::wire::Reader` (every
//! count validated against the bytes actually present), published synopses
//! go through the validating `hist-persist` decoder, and each connection
//! carries a request budget. Any invalid input is answered with a typed
//! error frame — or the connection is closed where the stream can no longer
//! be re-synchronized — and never a panic or an attacker-sized allocation.
//! The workspace corruption suite (`tests/net_corruption.rs`) drives
//! truncations, byte flips, forged lengths and random soup against a live
//! server to keep this true.
//!
//! ## Example: serve, query, update
//!
//! ```
//! use std::sync::Arc;
//! use hist_core::{Estimator, EstimatorBuilder, GreedyMerging, Signal};
//! use hist_net::{HistClient, HistServer, ServerConfig};
//! use hist_serve::StoreMap;
//!
//! let fit = |level: f64| {
//!     let values: Vec<f64> = (0..128).map(|i| level + ((i / 64) % 2) as f64).collect();
//!     GreedyMerging::new(EstimatorBuilder::new(4))
//!         .fit(&Signal::from_dense(values).unwrap())
//!         .unwrap()
//! };
//!
//! // An ephemeral loopback server over a shared keyed store map.
//! let map = Arc::new(StoreMap::new());
//! let server = HistServer::bind("127.0.0.1:0", map, ServerConfig::default()).unwrap();
//!
//! // Each tenant addresses its own key; this one serves "api/login".
//! let mut client =
//!     HistClient::connect(server.local_addr()).unwrap().with_key("api/login").unwrap();
//! let first = client.publish(&fit(1.0)).unwrap();
//! let answers = client.quantile_batch(&[0.25, 0.5, 0.75]).unwrap();
//! assert_eq!(answers.epoch, first);
//!
//! // A background refit merges the adjacent chunk in; the epoch advances.
//! let second = client.update_merge(&fit(2.0), 9).unwrap();
//! assert!(second > first);
//! let stats = client.stats().unwrap();
//! assert_eq!(stats.epoch, second);
//! assert_eq!(stats.synopsis.unwrap().domain, 256);
//!
//! // Store-wide ops see every key.
//! assert_eq!(client.list_keys().unwrap().value, vec!["api/login".to_string()]);
//! ```

pub mod client;
pub mod error;
pub mod evented;
pub mod frame;
pub mod proto;
pub mod server;

pub use client::{HistClient, Stamped, StoreStats};
pub use error::{NetError, NetResult};
pub use frame::{
    check_envelope, read_message, seal_message, split_message, write_message,
    DEFAULT_MAX_FRAME_BYTES, ENVELOPE_BYTES, LENGTH_PREFIX_BYTES, NET_MAGIC, PROTOCOL_VERSION,
};
pub use hist_serve::MergedView;
pub use proto::{
    decode_request, decode_response, encode_request, encode_response, encode_response_into,
    ErrorCode, Request, Response, StoreWideStats, SynopsisStats,
};
pub use server::{HistServer, ServerConfig};
