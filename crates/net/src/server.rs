//! The serving side: a TCP server over a shared keyed [`StoreMap`], in one
//! of two I/O modes behind the same [`HistServer`] API.
//!
//! * [`ServerMode::Blocking`] (the default): one accept thread; each
//!   accepted connection is dispatched onto the crate-shared [`ThreadPool`]
//!   from `hist-serve`, where a handler loops over framed requests with
//!   blocking reads, polling briefly for each next request before it parks.
//! * [`ServerMode::Evented`]: a single readiness loop (epoll(7) on Linux,
//!   portable poll(2) fallback) multiplexes every connection over
//!   non-blocking sockets with request pipelining and reused write buffers;
//!   request batches still execute on the `hist-serve` [`ThreadPool`]. See
//!   [`crate::evented`].
//!
//! In either mode, reads go through an epoch-stamped snapshot of the
//! addressed key's store (wait-free in practice), batch queries are answered
//! by that snapshot's own batch kernel on the thread that decoded the
//! request (the connection's worker in blocking mode, the batch's pool
//! worker in evented mode), and admin writes (`Publish`/`UpdateMerge`)
//! serialize on the addressed store's writer path — exactly the concurrency
//! contract the in-process serving layer already guarantees, now over the
//! wire and per key. Both modes answer every byte stream with byte-identical
//! frames: they share one request→response core ([`Responder`] +
//! `answer_frame`) and one in-place frame encoder.
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

use std::io::{ErrorKind, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hist_core::Interval;
use hist_persist::{decode_synopsis, encode_synopsis, CodecError};
use hist_serve::{MaintenancePolicy, Snapshot, StoreMap, ThreadPool, DEFAULT_KEY};

use crate::frame::{
    await_readable, check_envelope, write_message, ENVELOPE_BYTES, LENGTH_PREFIX_BYTES,
};
use crate::proto::{
    decode_request_frame, encode_response, ErrorCode, Request, Response, StoreWideStats,
    SynopsisStats,
};

/// How a [`HistServer`] drives its sockets. Both modes speak the identical
/// wire protocol through the same request→response core, so clients cannot
/// tell them apart byte-for-byte; the dual-mode integration suites assert
/// exactly that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServerMode {
    /// Thread-per-connection blocking I/O: each connection owns one
    /// [`ServerConfig::connection_threads`] pool worker for its lifetime.
    /// Simple, portable, and the conservative default.
    #[default]
    Blocking,
    /// One evented readiness loop (epoll(7) on Linux, poll(2) fallback)
    /// multiplexing every connection over non-blocking sockets: request
    /// pipelining, vectored writes, reused response buffers. Scales to
    /// thousands of connections; Unix only.
    Evented,
}

/// Tuning knobs of a [`HistServer`]. The defaults serve tests and examples;
/// production deployments mostly care about `max_frame_bytes` (hostile-peer
/// allocation bound) and `connection_threads`.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Socket-driving strategy; see [`ServerMode`].
    pub mode: ServerMode,
    /// Evented mode only: force the portable poll(2) backend even where a
    /// better platform backend (epoll) exists. Exists so tests can cover the
    /// fallback path on any host.
    pub force_poll_backend: bool,
    /// Largest frame accepted from a peer; larger announcements are rejected
    /// before any allocation. (Response frames the server *builds* are not
    /// checked against this: a client mirroring the limit should allow the
    /// constant per-frame overhead on top of its largest request.)
    pub max_frame_bytes: usize,
    /// Requests a single connection may issue before the server answers a
    /// typed [`ErrorCode::RequestLimit`] frame and closes it.
    pub max_requests_per_connection: u64,
    /// Workers in the connection pool. Blocking mode: a connection holds its
    /// worker for its whole lifetime (= connections served concurrently), so
    /// size it to the expected number of simultaneous clients. Evented mode:
    /// these workers execute pipelined request batches handed off by the
    /// event loop, so a handful serve thousands of connections.
    pub connection_threads: usize,
    /// Socket read timeout used to poll the shutdown flag between requests;
    /// bounds how long a graceful shutdown waits for idle connections.
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
            mode: ServerMode::default(),
            force_poll_backend: false,
            max_frame_bytes: crate::frame::DEFAULT_MAX_FRAME_BYTES,
            max_requests_per_connection: u64::MAX,
            connection_threads: 4,
            poll_interval: Duration::from_millis(25),
            maintenance: None,
            maintenance_threads: 1,
        }
    }
}

/// A running multi-tenant synopsis server: accept loop + connection pool
/// over a shared keyed [`StoreMap`].
///
/// Dropping the server (or calling [`HistServer::shutdown`]) stops accepting,
/// wakes every idle connection handler and joins all threads — no detached
/// threads outlive the value.
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
    accept: Option<JoinHandle<()>>,
    pool: Option<Arc<ThreadPool>>,
    map: Arc<StoreMap>,
    mode: ServerMode,
    write_allocs: Option<Arc<AtomicU64>>,
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
    /// `map` immediately, in the I/O mode `config.mode` selects.
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
        let pool = Arc::new(ThreadPool::new(config.connection_threads));
        let responder = Arc::new(Responder { map: Arc::clone(&map) });
        let mode = config.mode;
        let (accept, write_allocs) = match mode {
            ServerMode::Blocking => {
                (Self::spawn_blocking(listener, responder, &shutdown, &pool, config)?, None)
            }
            #[cfg(unix)]
            ServerMode::Evented => {
                let allocs = Arc::new(AtomicU64::new(0));
                let handle = crate::evented::spawn(
                    listener,
                    responder,
                    Arc::clone(&shutdown),
                    Arc::clone(&pool),
                    config,
                    Arc::clone(&allocs),
                )?;
                (handle, Some(allocs))
            }
            #[cfg(not(unix))]
            ServerMode::Evented => {
                return Err(std::io::Error::new(
                    ErrorKind::Unsupported,
                    "ServerMode::Evented requires a Unix host; use ServerMode::Blocking",
                ));
            }
        };
        Ok(Self {
            local_addr,
            shutdown,
            accept: Some(accept),
            pool: Some(pool),
            map,
            mode,
            write_allocs,
        })
    }

    /// Spawns the blocking accept loop: every accepted connection takes a
    /// pool worker for its lifetime.
    fn spawn_blocking(
        listener: TcpListener,
        responder: Arc<Responder>,
        shutdown: &Arc<AtomicBool>,
        pool: &Arc<ThreadPool>,
        config: ServerConfig,
    ) -> std::io::Result<JoinHandle<()>> {
        let shutdown = Arc::clone(shutdown);
        let pool = Arc::clone(pool);
        std::thread::Builder::new().name("hist-net-accept".into()).spawn(move || {
            for stream in listener.incoming() {
                if shutdown.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else {
                    // Persistent accept errors (EMFILE under fd
                    // exhaustion) return immediately: back off instead
                    // of hot-looping exactly when the host is starved.
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                };
                let shutdown = Arc::clone(&shutdown);
                let responder = Arc::clone(&responder);
                let config = config.clone();
                pool.execute(move || {
                    Connection { stream, responder, config, shutdown }.run();
                });
            }
        })
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

    /// The I/O mode this server was bound in.
    #[inline]
    pub fn mode(&self) -> ServerMode {
        self.mode
    }

    /// Evented mode: how many times the response write path has had to
    /// allocate (grow a staging buffer, mint a fresh one because the reuse
    /// pool ran dry, or grow a queue container) since bind. Flat across a
    /// warmed-up steady state — the buffer-reuse guarantee the evented
    /// design makes — and asserted flat by the `net_evented` suite. `None`
    /// in blocking mode, which allocates one message per response by design.
    #[inline]
    pub fn write_path_allocations(&self) -> Option<u64> {
        self.write_allocs.as_ref().map(|counter| counter.load(Ordering::Acquire))
    }

    /// Graceful shutdown: stop accepting, let in-flight requests finish,
    /// wake idle connection handlers (they poll the shutdown flag on the
    /// [`ServerConfig::poll_interval`] read timeout) and join every thread.
    /// Idempotent; also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        if self.accept.is_none() && self.pool.is_none() {
            return;
        }
        self.shutdown.store(true, Ordering::Release);
        // Wake the blocking accept call with a throwaway connection. A
        // wildcard bind address (0.0.0.0 / ::) is not itself connectable
        // everywhere, so the waker targets loopback on the bound port.
        let mut wake_addr = self.local_addr;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&wake_addr, Duration::from_secs(1));
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // The accept thread has exited, so this is the last Arc: dropping it
        // joins the pool workers, whose handlers exit on the shutdown flag.
        self.pool.take();
    }
}

impl Drop for HistServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Outcome of one incremental read attempt.
enum Fill {
    /// The buffer is full.
    Done,
    /// The peer closed the stream.
    Eof,
    /// The read timed out (poll the shutdown flag and retry).
    Timeout,
    /// The socket failed.
    Failed,
}

/// One accepted connection, running on a pool worker (blocking mode).
struct Connection {
    stream: TcpStream,
    responder: Arc<Responder>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
}

impl Connection {
    fn run(mut self) {
        let _ = self.stream.set_read_timeout(Some(self.config.poll_interval));
        let _ = self.stream.set_nodelay(true);
        let mut served = 0u64;
        loop {
            let frame = match self.read_frame() {
                Ok(Some(frame)) => frame,
                // Clean close, peer gone, or shutdown: nothing left to say.
                Ok(None) => return,
                // Framing errors desynchronize the stream: answer with a
                // typed error frame, then close.
                Err(response) => return self.send_and_close(&response),
            };
            if served >= self.config.max_requests_per_connection {
                let response =
                    self.responder.budget_exceeded_error(self.config.max_requests_per_connection);
                return self.send_and_close(&response);
            }
            served += 1;
            let response = answer_frame(&self.responder, &frame);
            if !self.send(&response) {
                return;
            }
        }
    }

    /// Reads one length-prefixed frame, polling the shutdown flag on read
    /// timeouts. `Ok(None)` means the connection is over (clean EOF, socket
    /// failure, or shutdown); `Err(response)` carries the typed error frame
    /// to send before closing (frame too large / truncated announcement).
    fn read_frame(&mut self) -> Result<Option<Vec<u8>>, Response> {
        if await_readable(&self.stream).is_err() {
            return Ok(None);
        }
        let mut prefix = [0u8; LENGTH_PREFIX_BYTES];
        let mut got = 0usize;
        loop {
            match self.fill(&mut prefix, &mut got) {
                Fill::Done => break,
                // EOF before any prefix byte is a clean close; EOF inside
                // the prefix means the peer gave up mid-message — nobody is
                // left to read an error frame either way.
                Fill::Eof | Fill::Failed => return Ok(None),
                Fill::Timeout => {
                    if self.shutdown.load(Ordering::Acquire) {
                        return Ok(None);
                    }
                }
            }
        }
        let len = u32::from_le_bytes(prefix) as usize;
        if len > self.config.max_frame_bytes {
            return Err(self.responder.oversized_frame_error(len, self.config.max_frame_bytes));
        }
        if len < ENVELOPE_BYTES {
            return Err(self.responder.short_frame_error(len));
        }
        let mut frame = vec![0u8; len];
        let mut filled = 0usize;
        loop {
            match self.fill(&mut frame, &mut filled) {
                Fill::Done => return Ok(Some(frame)),
                Fill::Eof | Fill::Failed => return Ok(None),
                Fill::Timeout => {
                    if self.shutdown.load(Ordering::Acquire) {
                        return Ok(None);
                    }
                }
            }
        }
    }

    /// Advances `filled` toward `buf.len()`, mapping socket conditions to
    /// [`Fill`] outcomes.
    fn fill(&mut self, buf: &mut [u8], filled: &mut usize) -> Fill {
        while *filled < buf.len() {
            match self.stream.read(&mut buf[*filled..]) {
                Ok(0) => return Fill::Eof,
                Ok(n) => *filled += n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Fill::Timeout
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Fill::Failed,
            }
        }
        Fill::Done
    }

    /// Writes a response; `false` means the peer is gone.
    fn send(&mut self, response: &Response) -> bool {
        write_message(&mut self.stream, &encode_response(response)).is_ok()
    }

    /// Sends a final response, then closes *gracefully*: half-close the
    /// write side and drain whatever the peer already pipelined, so the
    /// kernel delivers the last frame instead of clobbering it with an RST
    /// (closing a socket with unread bytes resets the connection and
    /// discards data the peer has not consumed yet).
    fn send_and_close(mut self, response: &Response) {
        let _ = self.send(response);
        let _ = self.stream.shutdown(Shutdown::Write);
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut scratch = [0u8; 4096];
        while Instant::now() < deadline {
            match self.stream.read(&mut scratch) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }
}

/// The request→response core both server modes share: a decoded request in,
/// a typed response out, over the shared [`StoreMap`].
/// Owning this logic in one place is what makes the two modes byte-identical
/// on every input the dual-mode suites replay.
pub(crate) struct Responder {
    pub(crate) map: Arc<StoreMap>,
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
