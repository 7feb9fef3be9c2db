//! The server's I/O loop: one readiness loop multiplexing every connection
//! over non-blocking sockets and answering every request inline.
//!
//! ## Architecture
//!
//! A single `hist-net-evented` thread owns the listener, an epoll(7)
//! [`polling::Poller`] and a slab of connection states keyed by slot index.
//! Readable wakeups append bytes to a per-connection read buffer and
//! *pipeline*: every complete frame in the buffer is answered in one pass,
//! on the loop thread, through the [`Responder`] core, and the responses
//! are encoded in order into one staging buffer that is flushed before the
//! loop moves on.
//!
//! Answering on the loop keeps a request on one thread from read to write,
//! the shortest path for a closed-loop client. The price is that a long
//! request (a 4096-range `MassBatch`, a large `Publish`) delays every
//! connection's answers while it runs, and that a fleet of pipelining
//! connections is served by one CPU.
//!
//! ## Waiting
//!
//! After a wait that returned events, the loop polls with a zero timeout,
//! yielding the CPU between polls, for up to [`READ_SPIN`] before it blocks
//! for [`ServerConfig::poll_interval`] again. A closed-loop client sends its
//! next request microseconds after the last answer, and a loop parked in the
//! kernel must then be woken by the scheduler, whose placement of the two
//! threads sets the request rate (on a 2-CPU VM, one closed-loop client ran
//! at about 27k req/s with the threads pinned to different CPUs and 55k
//! pinned to one, and drifted between the two from run to run). A polling
//! loop is not parked while its client is busy, so the rate no longer rests
//! on that placement; yielding lets a client that shares the loop's CPU run
//! meanwhile.
//!
//! ## Ordering
//!
//! Responses go out in request order, per connection, always: frames are
//! answered in the order they were read, into one staging buffer. A
//! terminal error (oversized/short length prefix, exhausted request budget)
//! is encoded after every previously accepted frame's response.
//!
//! ## Buffer reuse
//!
//! The response write path recycles its buffers: staging buffers cycle
//! through a small per-connection spare pool and flushed frames leave via
//! vectored writes from the queued buffers themselves. In a warmed-up steady
//! state a response frame therefore costs zero allocations; every violation
//! (a staging buffer growing, the spare pool running dry, a queue container
//! growing) increments the counter behind
//! [`HistServer::write_path_allocations`](crate::HistServer::write_path_allocations),
//! which tests assert stays flat.
//!
//! ## Close semantics
//!
//! Envelope/decode errors are answered and the connection continues (the
//! stream is still framed); framing errors and budget exhaustion are
//! answered, then the write side is half-closed and reads are drained for up
//! to two seconds so the kernel delivers the final frame instead of
//! clobbering it with an RST.

use std::collections::VecDeque;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use polling::{Event, Events, Poller};

use crate::frame::{ENVELOPE_BYTES, LENGTH_PREFIX_BYTES};
use crate::proto::encode_response_into;
use crate::server::{answer_frame, Responder, ServerConfig};

/// Poller key of the listening socket. Slab keys count up from zero, so
/// they cannot collide with it.
const LISTENER_KEY: usize = usize::MAX - 1;

/// Bytes per `read(2)` into a connection's read buffer.
const READ_CHUNK: usize = 16 * 1024;

/// Reads a wakeup may issue before yielding to other connections
/// (level-triggered readiness re-fires on leftovers).
const MAX_READS_PER_WAKEUP: usize = 64;

/// Buffers a single vectored write flushes at most.
const MAX_WRITE_VECTORS: usize = 8;

/// Staging buffers a connection keeps for reuse.
const SPARE_STAGING: usize = 2;

/// How long the loop keeps polling without blocking after a wait that
/// returned events; see the module docs.
const READ_SPIN: Duration = Duration::from_micros(50);

/// How long a closing connection drains reads, and how long a shutting-down
/// server waits for queued responses to reach the wire.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// Spawns the event-loop thread. The returned handle joins on shutdown;
/// `write_allocs` counts write-path allocations for the buffer-reuse
/// guarantee.
pub(crate) fn spawn(
    listener: TcpListener,
    responder: Responder,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
    write_allocs: Arc<AtomicU64>,
) -> std::io::Result<JoinHandle<()>> {
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    poller.add(listener.as_raw_fd(), Event::readable(LISTENER_KEY))?;
    let mut event_loop = EventLoop {
        listener,
        poller,
        responder,
        config,
        shutdown,
        write_allocs,
        slots: Vec::new(),
        free: Vec::new(),
        scratch: vec![0u8; READ_CHUNK],
        stopping: None,
        draining: 0,
    };
    std::thread::Builder::new().name("hist-net-evented".into()).spawn(move || event_loop.run())
}

/// An entry of the response write queue: an encoded buffer and how much of
/// it has been written so far (non-zero only at the queue front).
struct WriteBuf {
    buf: Vec<u8>,
    pos: usize,
}

/// Per-connection state. All I/O is non-blocking; the loop is the only
/// thread touching it.
struct Conn {
    stream: TcpStream,
    /// Inbound bytes not answered yet: a partial frame between wakeups (or,
    /// while the server stops, frames it no longer answers).
    rbuf: Vec<u8>,
    /// Encoded responses waiting for socket writability.
    outq: VecDeque<WriteBuf>,
    /// Reusable staging buffers (response encode targets).
    spare_staging: Vec<Vec<u8>>,
    /// Frames accepted toward `max_requests_per_connection`.
    parsed: u64,
    /// A terminal error frame has been queued: inbound bytes are discarded
    /// from here on.
    terminal: bool,
    /// Peer half-closed (or closed) its write side.
    read_closed: bool,
    /// We half-closed our write side (final frame flushed).
    write_shut: bool,
    /// Deadline for draining peer reads after `write_shut`.
    drain_deadline: Option<Instant>,
    /// Cached poller interest (readable, writable) to skip no-op syscalls.
    interest: (bool, bool),
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            rbuf: Vec::new(),
            outq: VecDeque::with_capacity(4),
            spare_staging: Vec::with_capacity(SPARE_STAGING),
            parsed: 0,
            terminal: false,
            read_closed: false,
            write_shut: false,
            drain_deadline: None,
            interest: (true, false),
        }
    }
}

struct EventLoop {
    listener: TcpListener,
    poller: Poller,
    responder: Responder,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    write_allocs: Arc<AtomicU64>,
    /// Connection slab, indexed by poller key; `None` marks a free slot.
    slots: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Loop-owned read target: sockets read into this one hot buffer and
    /// only the bytes actually received are appended to the connection's
    /// `rbuf`, so a fleet of mostly-idle connections costs no per-connection
    /// read-buffer footprint (and no `resize` memset per read syscall).
    scratch: Vec<u8>,
    /// Set when the shutdown flag is first observed: deadline for flushing
    /// queued responses.
    stopping: Option<Instant>,
    /// Connections currently holding a post-error read-drain deadline —
    /// lets the per-tick deadline sweep skip the slab entirely in the
    /// overwhelmingly common case of zero draining connections.
    draining: usize,
}

impl EventLoop {
    fn run(&mut self) {
        let mut events = Events::with_capacity(1024);
        let mut spin_until: Option<Instant> = None;
        loop {
            let timeout = match spin_until {
                Some(until) if Instant::now() < until => {
                    std::thread::yield_now();
                    Duration::ZERO
                }
                _ => self.config.poll_interval,
            };
            let _ = self.poller.wait(&mut events, Some(timeout));
            if !events.is_empty() {
                spin_until = Some(Instant::now() + READ_SPIN);
            }
            if self.stopping.is_none() && self.shutdown.load(Ordering::Acquire) {
                // Stop accepting and answering; give queued responses a
                // bounded window to reach the wire.
                self.stopping = Some(Instant::now() + DRAIN_GRACE);
                let _ = self.poller.delete(self.listener.as_raw_fd());
            }
            for event in events.iter() {
                if event.key == LISTENER_KEY {
                    if self.stopping.is_none() {
                        self.accept_ready();
                    }
                } else {
                    self.handle_socket(event);
                }
            }
            self.sweep_deadlines();
            if let Some(deadline) = self.stopping {
                let mut live = self.slots.iter().flatten();
                if live.all(|conn| conn.outq.is_empty()) || Instant::now() >= deadline {
                    return;
                }
            }
        }
    }

    /// Accepts every pending connection (the listener is level-triggered,
    /// but draining it here saves wakeups).
    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Transient resource errors (EMFILE): leave the rest for the
                // next readiness tick instead of hot-looping.
                Err(_) => return,
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let token = match self.free.pop() {
                Some(token) => token,
                None => {
                    self.slots.push(None);
                    self.slots.len() - 1
                }
            };
            if self.poller.add(stream.as_raw_fd(), Event::readable(token)).is_err() {
                self.free.push(token);
                continue;
            }
            self.slots[token] = Some(Conn::new(stream));
        }
    }

    /// Routes one readiness event for a connection socket. Stale keys (the
    /// connection closed earlier in this same tick) are ignored.
    fn handle_socket(&mut self, event: Event) {
        let token = event.key;
        if self.slots.get(token).is_none_or(Option::is_none) {
            return;
        }
        if event.readable && !self.read_ready(token) {
            return;
        }
        if self.flush_writes(token) {
            self.maybe_finish(token);
        }
    }

    /// Drains the socket's readable bytes into the connection and answers
    /// every complete frame. Returns `false` when the connection was torn
    /// down.
    fn read_ready(&mut self, token: usize) -> bool {
        let conn = self.slots[token].as_mut().expect("checked by caller");
        if conn.terminal {
            // Discard inbound bytes so the peer's writes keep completing and
            // the final frame is deliverable.
            let mut scratch = [0u8; 4096];
            loop {
                match conn.stream.read(&mut scratch) {
                    Ok(0) => {
                        conn.read_closed = true;
                        return true;
                    }
                    Ok(_) => continue,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.close(token);
                        return false;
                    }
                }
            }
        }
        for _ in 0..MAX_READS_PER_WAKEUP {
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&self.scratch[..n]);
                    if n < self.scratch.len() {
                        // The socket had less than a full chunk: it is
                        // drained, so skip the would-block syscall (a
                        // level-triggered poller re-fires on new bytes).
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    // A failed socket with nobody left to answer: silent
                    // teardown.
                    self.close(token);
                    return false;
                }
            }
        }
        if self.stopping.is_none() {
            let staging = answer_frames(conn, &self.config, &self.responder, &self.write_allocs);
            self.queue_response(token, staging);
        }
        true
    }

    /// Appends an encoded buffer to the write queue, counting container
    /// growth against the buffer-reuse guarantee.
    fn queue_response(&mut self, token: usize, staging: Vec<u8>) {
        let conn = self.slots[token].as_mut().expect("live connection");
        if staging.is_empty() {
            recycle_staging(conn, staging);
            return;
        }
        if conn.outq.len() == conn.outq.capacity() {
            self.write_allocs.fetch_add(1, Ordering::Relaxed);
        }
        conn.outq.push_back(WriteBuf { buf: staging, pos: 0 });
    }

    /// Writes as much of the queue as the socket accepts, vectored over up
    /// to [`MAX_WRITE_VECTORS`] buffers. Returns `false` when the
    /// connection was torn down.
    fn flush_writes(&mut self, token: usize) -> bool {
        let conn = self.slots[token].as_mut().expect("live connection");
        while !conn.outq.is_empty() {
            let mut slices = [IoSlice::new(&[]); MAX_WRITE_VECTORS];
            let mut count = 0;
            for wb in conn.outq.iter().take(MAX_WRITE_VECTORS) {
                slices[count] = IoSlice::new(&wb.buf[wb.pos..]);
                count += 1;
            }
            match conn.stream.write_vectored(&slices[..count]) {
                Ok(0) => {
                    self.close(token);
                    return false;
                }
                Ok(mut written) => {
                    while written > 0 {
                        let front = conn.outq.front_mut().expect("written implies queued");
                        let left = front.buf.len() - front.pos;
                        if written >= left {
                            written -= left;
                            let wb = conn.outq.pop_front().expect("front exists");
                            recycle_staging(conn, wb.buf);
                        } else {
                            front.pos += written;
                            written = 0;
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token);
                    return false;
                }
            }
        }
        true
    }

    /// Post-flush transitions: half-close after the final frame, close when
    /// fully quiescent, and refresh poller interest.
    fn maybe_finish(&mut self, token: usize) {
        let conn = self.slots[token].as_mut().expect("live connection");
        if conn.outq.is_empty() && conn.terminal && !conn.write_shut {
            // Final frame flushed: half-close the write side and drain the
            // peer's reads so the kernel delivers it instead of RSTing.
            let _ = conn.stream.shutdown(Shutdown::Write);
            conn.write_shut = true;
            conn.drain_deadline = Some(Instant::now() + DRAIN_GRACE);
            self.draining += 1;
        }
        let done_draining = conn.write_shut && conn.read_closed;
        let idle_eof = conn.read_closed && !conn.terminal && conn.outq.is_empty();
        if done_draining || idle_eof {
            self.close(token);
            return;
        }
        self.update_interest(token);
    }

    /// Syncs the poller registration with what the connection can make
    /// progress on, skipping the syscall when unchanged.
    fn update_interest(&mut self, token: usize) {
        let conn = self.slots[token].as_mut().expect("live connection");
        let readable = !conn.read_closed;
        let writable = !conn.outq.is_empty() && !conn.write_shut;
        if conn.interest != (readable, writable) {
            conn.interest = (readable, writable);
            let event = Event { key: token, readable, writable };
            if self.poller.modify(conn.stream.as_raw_fd(), event).is_err() {
                self.close(token);
            }
        }
    }

    /// Closes connections whose post-error read drain has outlived its
    /// grace period. Free when nothing is draining.
    fn sweep_deadlines(&mut self) {
        if self.draining == 0 {
            return;
        }
        let now = Instant::now();
        for token in 0..self.slots.len() {
            let expired = self.slots[token]
                .as_ref()
                .and_then(|conn| conn.drain_deadline)
                .is_some_and(|deadline| now >= deadline);
            if expired {
                self.close(token);
            }
        }
    }

    /// Vacates a slot: deregister, drop the stream (closing the fd).
    fn close(&mut self, token: usize) {
        if let Some(conn) = self.slots[token].take() {
            if conn.drain_deadline.is_some() {
                self.draining -= 1;
            }
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            self.free.push(token);
        }
    }
}

/// Returns a drained staging buffer to the connection's spare pool (bounded;
/// overflow just frees the buffer).
fn recycle_staging(conn: &mut Conn, mut buf: Vec<u8>) {
    if conn.spare_staging.len() < SPARE_STAGING {
        buf.clear();
        conn.spare_staging.push(buf);
    }
}

/// Answers every complete frame in `rbuf`, in order, into one staging
/// buffer, which it returns. Checks the guards in this order: oversized
/// announcement, short announcement, then the per-connection request budget.
/// A failed guard appends its terminal error frame after the accepted
/// frames' responses and marks the connection terminal.
fn answer_frames(
    conn: &mut Conn,
    config: &ServerConfig,
    responder: &Responder,
    write_allocs: &AtomicU64,
) -> Vec<u8> {
    let mut staging = conn.spare_staging.pop().unwrap_or_default();
    let cap_before = staging.capacity();
    let mut pos = 0;
    let mut fatal = None;
    loop {
        let avail = conn.rbuf.len() - pos;
        if avail < LENGTH_PREFIX_BYTES {
            break;
        }
        let prefix: [u8; LENGTH_PREFIX_BYTES] =
            conn.rbuf[pos..pos + LENGTH_PREFIX_BYTES].try_into().expect("slice of prefix length");
        let len = u32::from_le_bytes(prefix) as usize;
        if len > config.max_frame_bytes {
            fatal = Some(responder.oversized_frame_error(len, config.max_frame_bytes));
            break;
        }
        if len < ENVELOPE_BYTES {
            fatal = Some(responder.short_frame_error(len));
            break;
        }
        if avail < LENGTH_PREFIX_BYTES + len {
            break;
        }
        if conn.parsed >= config.max_requests_per_connection {
            fatal = Some(responder.budget_exceeded_error(config.max_requests_per_connection));
            break;
        }
        conn.parsed += 1;
        let start = pos + LENGTH_PREFIX_BYTES;
        let response = answer_frame(responder, &conn.rbuf[start..start + len]);
        encode_response_into(&response, &mut staging);
        pos = start + len;
    }
    if let Some(fatal) = fatal {
        encode_response_into(&fatal, &mut staging);
        conn.terminal = true;
        // Bytes past the last accepted frame are never parsed.
        conn.rbuf.clear();
    } else {
        conn.rbuf.drain(..pos);
    }
    if staging.capacity() != cap_before {
        write_allocs.fetch_add(1, Ordering::Relaxed);
    }
    staging
}
