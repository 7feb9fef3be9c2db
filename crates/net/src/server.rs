//! The serving side: a TCP server over a shared keyed [`StoreMap`].
//!
//! A [`HistServer`] runs one readiness loop (epoll(7) on Linux, portable
//! poll(2) elsewhere on Unix) that multiplexes every connection over
//! non-blocking sockets, pipelines requests and answers each of them on the
//! loop thread; see [`crate::evented`]. Reads go through an epoch-stamped
//! snapshot of the addressed key's store (wait-free in practice), batch
//! queries are answered by that snapshot's own batch kernel, and admin
//! writes (`Publish`/`UpdateMerge`) serialize on the addressed store's
//! writer path — exactly the concurrency contract the in-process serving
//! layer already guarantees, now over the wire and per key.
//!
//! A request runs on the loop, so a long one (a `MergedView` over many keys,
//! a 4096-range `MassBatch`, a large `Publish`) delays every connection's
//! answers while it runs, not just its own connection's, and a fleet of
//! pipelining connections is served by one CPU. The server needs a Unix
//! host: elsewhere [`HistServer::bind`] returns an
//! [`ErrorKind::Unsupported`] error.
//!
//! ## Protocol version
//!
//! The server reads and writes exactly
//! [`PROTOCOL_VERSION`](crate::frame::PROTOCOL_VERSION). A frame announcing
//! any other version is answered with a typed
//! [`ErrorCode::UnsupportedVersion`] frame and the connection carries on.
//!
//! Hostile peers are contained at three layers: the frame length prefix is
//! checked against [`ServerConfig::max_frame_bytes`] *before* any allocation,
//! payload parsing is total (typed errors, bounded counts), and each
//! connection carries a request budget. Every rejection is answered with a
//! typed error frame; the connection is kept open while the stream is still
//! framed (the length prefix was honoured — even a bad CRC or magic inside
//! a delimited frame leaves the next frame findable) and answered-then-
//! closed where it is not (a length prefix that is oversized or shorter
//! than an envelope, or an exhausted request budget).

use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use hist_core::Interval;
use hist_persist::{decode_synopsis, encode_synopsis, CodecError};
use hist_serve::{MaintenancePolicy, Snapshot, StoreMap, DEFAULT_KEY};

#[cfg(unix)]
use crate::evented::spawn as spawn_loop;
use crate::frame::check_envelope;
use crate::proto::{
    decode_request_frame, ErrorCode, Request, Response, StoreWideStats, SynopsisStats,
};

/// Tuning knobs of a [`HistServer`]. The defaults serve tests and examples;
/// production deployments mostly care about `max_frame_bytes` (hostile-peer
/// allocation bound).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Force the portable poll(2) backend even where a better platform
    /// backend (epoll) exists. Exists so tests can cover the fallback path
    /// on any host.
    pub force_poll_backend: bool,
    /// Largest frame accepted from a peer; larger announcements are rejected
    /// before any allocation. (Response frames the server *builds* are not
    /// checked against this: a client mirroring the limit should allow the
    /// constant per-frame overhead on top of its largest request.)
    pub max_frame_bytes: usize,
    /// Requests a single connection may issue before the server answers a
    /// typed [`ErrorCode::RequestLimit`] frame and closes it.
    pub max_requests_per_connection: u64,
    /// Longest the idle loop blocks in one readiness wait; bounds how long
    /// a shutdown takes to be noticed.
    pub poll_interval: Duration,
    /// Self-tuning maintenance policy applied to the served [`StoreMap`] at
    /// bind time: every key then refits/compacts in the background once its
    /// merge-error budget is spent. `None` (the default) serves merge-only.
    pub maintenance: Option<MaintenancePolicy>,
    /// Workers in the maintenance pool (only spun up when `maintenance` is
    /// set). One is plenty: refits are rare and bounded.
    pub maintenance_threads: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            force_poll_backend: false,
            max_frame_bytes: crate::frame::DEFAULT_MAX_FRAME_BYTES,
            max_requests_per_connection: u64::MAX,
            poll_interval: Duration::from_millis(25),
            maintenance: None,
            maintenance_threads: 1,
        }
    }
}

/// A running multi-tenant synopsis server: one readiness-loop thread over a
/// shared keyed [`StoreMap`].
///
/// Dropping the server (or calling [`HistServer::shutdown`]) stops accepting
/// and joins the loop thread — no detached thread outlives the value.
///
/// ```no_run
/// use std::sync::Arc;
/// use hist_net::{HistServer, ServerConfig};
/// use hist_serve::StoreMap;
///
/// let map = Arc::new(StoreMap::new());
/// let server =
///     HistServer::bind("127.0.0.1:0", Arc::clone(&map), ServerConfig::default()).unwrap();
/// println!("serving on {}", server.local_addr());
/// # drop(server);
/// ```
pub struct HistServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    event_loop: Option<JoinHandle<()>>,
    map: Arc<StoreMap>,
    write_allocs: Arc<AtomicU64>,
}

impl std::fmt::Debug for HistServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistServer")
            .field("local_addr", &self.local_addr)
            .field("keys", &self.map.len())
            .field("max_epoch", &self.map.max_epoch())
            .field("shut_down", &self.shutdown.load(Ordering::Acquire))
            .finish()
    }
}

impl HistServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// `map` immediately. Off Unix this is an [`ErrorKind::Unsupported`]
    /// error.
    pub fn bind(
        addr: impl ToSocketAddrs,
        map: Arc<StoreMap>,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        if let Some(policy) = &config.maintenance {
            map.enable_maintenance(policy.clone(), config.maintenance_threads)
                .map_err(|e| std::io::Error::new(ErrorKind::InvalidInput, e.to_string()))?;
        }
        let shutdown = Arc::new(AtomicBool::new(false));
        let write_allocs = Arc::new(AtomicU64::new(0));
        let event_loop = spawn_loop(
            listener,
            Responder { map: Arc::clone(&map) },
            Arc::clone(&shutdown),
            config,
            Arc::clone(&write_allocs),
        )?;
        Ok(Self { local_addr, shutdown, event_loop: Some(event_loop), map, write_allocs })
    }

    /// The address the server is listening on (resolves ephemeral ports).
    #[inline]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The keyed store map this server serves; publish to it directly to
    /// seed the server from the owning process.
    #[inline]
    pub fn store_map(&self) -> &Arc<StoreMap> {
        &self.map
    }

    /// How many times the response write path has had to allocate (grow a
    /// staging buffer, mint a fresh one because the reuse pool ran dry, or
    /// grow a queue container) since bind. Flat across a warmed-up steady
    /// state — the buffer-reuse guarantee the loop makes — and asserted flat
    /// by the `net_evented` suite.
    #[inline]
    pub fn write_path_allocations(&self) -> u64 {
        self.write_allocs.load(Ordering::Acquire)
    }

    /// Graceful shutdown: stop accepting, give queued responses up to two
    /// seconds to reach the wire and join the loop thread, which notices the
    /// request within [`ServerConfig::poll_interval`]. Idempotent; also
    /// invoked by `Drop`.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(event_loop) = self.event_loop.take() {
            let _ = event_loop.join();
        }
    }
}

impl Drop for HistServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Off Unix there is no readiness poller to drive the loop.
#[cfg(not(unix))]
fn spawn_loop(
    _: TcpListener,
    _: Responder,
    _: Arc<AtomicBool>,
    _: ServerConfig,
    _: Arc<AtomicU64>,
) -> std::io::Result<JoinHandle<()>> {
    Err(std::io::Error::new(ErrorKind::Unsupported, "HistServer requires a Unix host"))
}

/// The request→response core: a decoded request in, a typed response out,
/// over the shared [`StoreMap`].
pub(crate) struct Responder {
    map: Arc<StoreMap>,
}

/// Answers one complete frame (the bytes after the length prefix): envelope
/// check, request decode, dispatch. A rejected envelope or payload is
/// answered with a typed error frame; the stream itself is still framed (the
/// length prefix was honoured), so the connection continues either way.
pub(crate) fn answer_frame(responder: &Responder, frame: &[u8]) -> Response {
    match check_envelope(frame).and_then(|(op, payload)| decode_request_frame(op, payload)) {
        Ok(request) => responder.respond(request),
        Err(e) => responder.error(decode_error_code(&e), e.to_string()),
    }
}

impl Responder {
    /// An error frame with no key in scope, stamped with the store-wide
    /// maximum epoch.
    fn error(&self, code: ErrorCode, message: String) -> Response {
        Response::Error { epoch: self.map.max_epoch(), code, message }
    }

    /// An error frame about a specific key, stamped with that key's epoch.
    fn keyed_error(&self, key: &str, code: ErrorCode, message: String) -> Response {
        Response::Error { epoch: self.map.epoch(key), code, message }
    }

    /// The typed rejection of the request after the per-connection budget.
    pub(crate) fn budget_exceeded_error(&self, budget: u64) -> Response {
        self.error(
            ErrorCode::RequestLimit,
            format!("connection exceeded its {budget} request budget"),
        )
    }

    /// The typed rejection of a length prefix above the frame limit.
    pub(crate) fn oversized_frame_error(&self, len: usize, limit: usize) -> Response {
        self.error(
            ErrorCode::FrameTooLarge,
            format!("announced frame of {len} byte(s) exceeds the {limit}-byte limit"),
        )
    }

    /// The typed rejection of a length prefix shorter than an envelope.
    pub(crate) fn short_frame_error(&self, len: usize) -> Response {
        self.error(
            ErrorCode::MalformedFrame,
            format!("announced frame of {len} byte(s) is shorter than an envelope"),
        )
    }

    /// The snapshot queries against `key` answer from, or the typed error:
    /// an absent non-default key is [`ErrorCode::UnknownKey`]; a present but
    /// never-published key (and the always-implied default key) is
    /// [`ErrorCode::EmptyStore`].
    fn snapshot(&self, key: &str) -> Result<Snapshot, Response> {
        match self.map.snapshot(key) {
            Some(snapshot) => Ok(snapshot),
            None if key == DEFAULT_KEY || self.map.contains_key(key) => Err(self.keyed_error(
                key,
                ErrorCode::EmptyStore,
                format!("no synopsis has been published at key {key:?} yet"),
            )),
            None => Err(self.keyed_error(
                key,
                ErrorCode::UnknownKey,
                format!("key {key:?} is not present in the store map"),
            )),
        }
    }

    /// Maps one decoded request to its response. Total: every failure is a
    /// typed error frame, never a panic.
    fn respond(&self, request: Request) -> Response {
        match request {
            Request::CdfBatch { key, xs } => match self.snapshot(&key) {
                Err(e) => e,
                Ok(snapshot) => {
                    let mut indices = Vec::with_capacity(xs.len());
                    for &x in &xs {
                        match usize::try_from(x) {
                            Ok(index) => indices.push(index),
                            Err(_) => {
                                return self.keyed_error(
                                    &key,
                                    ErrorCode::InvalidQuery,
                                    format!("index {x} does not fit this platform's usize"),
                                )
                            }
                        }
                    }
                    match snapshot.cdf_batch(&indices) {
                        Ok(values) => Response::CdfBatch { epoch: snapshot.epoch(), values },
                        Err(e) => self.keyed_error(&key, ErrorCode::InvalidQuery, e.to_string()),
                    }
                }
            },
            Request::QuantileBatch { key, ps } => match self.snapshot(&key) {
                Err(e) => e,
                Ok(snapshot) => match snapshot.quantile_batch(&ps) {
                    Ok(indices) => Response::QuantileBatch {
                        epoch: snapshot.epoch(),
                        indices: indices.into_iter().map(|i| i as u64).collect(),
                    },
                    Err(e) => self.keyed_error(&key, ErrorCode::InvalidQuery, e.to_string()),
                },
            },
            Request::MassBatch { key, ranges: raw } => match self.snapshot(&key) {
                Err(e) => e,
                Ok(snapshot) => {
                    let mut ranges = Vec::with_capacity(raw.len());
                    for &(start, end) in &raw {
                        let interval = usize::try_from(start)
                            .ok()
                            .zip(usize::try_from(end).ok())
                            .and_then(|(s, e)| Interval::new(s, e).ok());
                        match interval {
                            Some(interval) => ranges.push(interval),
                            None => {
                                return self.keyed_error(
                                    &key,
                                    ErrorCode::InvalidQuery,
                                    format!("[{start}, {end}] is not a valid index range"),
                                )
                            }
                        }
                    }
                    match snapshot.mass_batch(&ranges) {
                        Ok(masses) => Response::MassBatch { epoch: snapshot.epoch(), masses },
                        Err(e) => self.keyed_error(&key, ErrorCode::InvalidQuery, e.to_string()),
                    }
                }
            },
            Request::Stats { key } => {
                // Total even for absent keys: statistics are observability,
                // so an unknown key reports epoch 0 / no synopsis rather
                // than erroring.
                let store = self.map.store(&key);
                let maintenance = store.as_ref().map(|s| s.maintenance_stats()).unwrap_or_default();
                let snapshot = store.and_then(|s| s.snapshot());
                Response::Stats {
                    epoch: snapshot.as_ref().map_or_else(|| self.map.epoch(&key), |s| s.epoch()),
                    synopsis: snapshot.map(|s| SynopsisStats {
                        domain: s.domain() as u64,
                        pieces: s.num_pieces() as u64,
                        target_k: s.target_k() as u64,
                        total_mass: s.total_mass(),
                        estimator: s.estimator().to_string(),
                        merges: maintenance.merges,
                        refits: maintenance.refits,
                        merge_error: maintenance.accumulated_error,
                    }),
                }
            }
            Request::StoreStats => {
                let stats = self.map.store_stats();
                Response::StoreStats {
                    epoch: stats.max_epoch,
                    stats: StoreWideStats {
                        keys: stats.keys,
                        served: stats.served,
                        total_pieces: stats.total_pieces,
                        min_epoch: stats.min_epoch,
                        max_epoch: stats.max_epoch,
                        merges: stats.merges,
                        refits: stats.refits,
                        merged_mass: stats.merged_mass,
                        merge_error: stats.merge_error,
                    },
                }
            }
            Request::ListKeys => {
                Response::KeyList { epoch: self.map.max_epoch(), keys: self.map.keys() }
            }
            Request::MergedView { budget } => {
                let Ok(budget) = usize::try_from(budget) else {
                    return self.error(
                        ErrorCode::InvalidQuery,
                        format!("budget {budget} does not fit this platform's usize"),
                    );
                };
                match self.map.merged_view(budget) {
                    Ok(Some(view)) => Response::MergedView {
                        epoch: view.epoch,
                        keys: view.keys,
                        synopsis: encode_synopsis(&view.synopsis),
                    },
                    Ok(None) => self.error(
                        ErrorCode::EmptyStore,
                        "no key serves a synopsis to merge yet".into(),
                    ),
                    Err(e) => self.error(ErrorCode::InvalidQuery, e.to_string()),
                }
            }
            Request::Publish { key, synopsis: blob } => match decode_synopsis(&blob) {
                Ok(synopsis) => match self.map.publish(&key, synopsis) {
                    Ok(epoch) => Response::Updated { epoch },
                    Err(e) => self.keyed_error(&key, store_error_code(&e), e.to_string()),
                },
                Err(e) => self.keyed_error(&key, ErrorCode::InvalidSynopsis, e.to_string()),
            },
            Request::UpdateMerge { key, budget, synopsis } => {
                let Ok(budget) = usize::try_from(budget) else {
                    return self.keyed_error(
                        &key,
                        ErrorCode::InvalidSynopsis,
                        format!("budget {budget} does not fit this platform's usize"),
                    );
                };
                match decode_synopsis(&synopsis) {
                    Ok(chunk) => match self.map.update_merge(&key, &chunk, budget) {
                        Ok(epoch) => Response::Updated { epoch },
                        Err(e) => self.keyed_error(&key, store_error_code(&e), e.to_string()),
                    },
                    Err(e) => self.keyed_error(&key, ErrorCode::InvalidSynopsis, e.to_string()),
                }
            }
            Request::DropKey { key } => {
                // Capture the epoch before the drop so the answer reports
                // the evicted store's last epoch, not the post-drop zero.
                let epoch = self.map.epoch(&key);
                let existed = self.map.drop_key(&key);
                Response::Dropped { epoch, existed }
            }
        }
    }
}

/// The typed error code a request-decode failure maps to.
fn decode_error_code(e: &CodecError) -> ErrorCode {
    match e {
        CodecError::UnsupportedVersion { .. } => ErrorCode::UnsupportedVersion,
        CodecError::InvalidTag { what: "request op", .. } => ErrorCode::UnknownOp,
        CodecError::InvalidKey { .. } => ErrorCode::InvalidKey,
        _ => ErrorCode::MalformedFrame,
    }
}

/// The typed error code a [`StoreMap`] write failure maps to: key-rule
/// violations are [`ErrorCode::InvalidKey`], everything else (merge/budget
/// failures) is about the shipped synopsis.
fn store_error_code(e: &hist_core::Error) -> ErrorCode {
    match e {
        hist_core::Error::InvalidParameter { name: "key", .. } => ErrorCode::InvalidKey,
        _ => ErrorCode::InvalidSynopsis,
    }
}
