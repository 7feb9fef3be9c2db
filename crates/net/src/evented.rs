//! The evented server mode: one readiness loop multiplexing every
//! connection over non-blocking sockets.
//!
//! ## Architecture
//!
//! A single `hist-net-evented` thread owns the listener, a
//! [`polling::Poller`] (epoll(7) on Linux, portable poll(2) everywhere else
//! — forceable via [`ServerConfig::force_poll_backend`]) and a slab of
//! connection states keyed by slot index. Readable wakeups append bytes to a
//! per-connection read buffer and *pipeline*: every complete frame in the
//! buffer is split off in one pass, so N requests written in one syscall
//! become one batch. Batches execute off-loop on the shared `hist-serve`
//! [`ThreadPool`] through the same [`Responder`] core the blocking mode
//! uses; a finished batch hands its encoded responses back through a
//! completion queue and wakes the loop via the poller's self-pipe
//! ([`polling::Poller::notify`]).
//!
//! ## Ordering
//!
//! Responses go out in request order, per connection, always: at most one
//! batch per connection is in flight (`busy`), frames arriving meanwhile
//! queue in `inbox`, and a batch encodes all of its responses into a single
//! staging buffer in order. A terminal error (oversized/short length prefix,
//! exhausted request budget) is sequenced *after* every previously accepted
//! frame's response, exactly where the blocking path would have emitted it.
//!
//! ## Buffer reuse
//!
//! The response write path recycles its buffers: staging buffers cycle
//! through a small per-connection spare pool, batch containers are handed
//! back by completions, and flushed frames leave via vectored writes from
//! the queued buffers themselves. In a warmed-up steady state a response
//! frame therefore costs zero allocations; every violation (a staging
//! buffer growing, the spare pool running dry, a queue container growing)
//! increments the counter behind
//! [`HistServer::write_path_allocations`](crate::HistServer::write_path_allocations),
//! which tests assert stays flat.
//!
//! ## Close semantics
//!
//! Mirrors the blocking path frame-for-frame: envelope/decode errors are
//! answered and the connection continues (the stream is still framed);
//! framing errors and budget exhaustion are answered, then the write side
//! is half-closed and reads are drained for up to two seconds so the kernel
//! delivers the final frame instead of clobbering it with an RST.

#![cfg(unix)]

use std::collections::VecDeque;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hist_serve::ThreadPool;
use polling::{Backend, Event, Events, Poller};

use crate::frame::{ENVELOPE_BYTES, LENGTH_PREFIX_BYTES};
use crate::proto::{encode_response_into, Response};
use crate::server::{answer_frame, Responder, ServerConfig};

/// Poller key of the listening socket. Slab keys count up from zero; the
/// shim reserves `u64::MAX` for its internal notify pipe, so this cannot
/// collide with either.
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

/// How long a closing connection drains reads / a shutting-down server
/// drains in-flight work — the same bound the blocking path uses.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// Spawns the event-loop thread. Mirrors what `HistServer::bind` needs:
/// the returned handle joins on shutdown, `write_allocs` counts write-path
/// allocations for the buffer-reuse guarantee.
pub(crate) fn spawn(
    listener: TcpListener,
    responder: Arc<Responder>,
    shutdown: Arc<AtomicBool>,
    pool: Arc<ThreadPool>,
    config: ServerConfig,
    write_allocs: Arc<AtomicU64>,
) -> std::io::Result<JoinHandle<()>> {
    listener.set_nonblocking(true)?;
    let poller = Arc::new(if config.force_poll_backend {
        Poller::with_backend(Backend::Poll)?
    } else {
        Poller::new()?
    });
    poller.add(listener.as_raw_fd(), Event::readable(LISTENER_KEY))?;
    let completions = Arc::new(Completions {
        queue: Mutex::new(Vec::new()),
        notified: AtomicBool::new(false),
        poller: Arc::clone(&poller),
    });
    let mut event_loop = EventLoop {
        listener,
        poller,
        responder,
        pool,
        config,
        shutdown,
        completions,
        write_allocs,
        slots: Vec::new(),
        free: Vec::new(),
        pending: Vec::new(),
        scratch: vec![0u8; READ_CHUNK],
        stopping: None,
        draining: 0,
    };
    std::thread::Builder::new().name("hist-net-evented".into()).spawn(move || event_loop.run())
}

/// One batch's encoded responses travelling back from a pool worker to the
/// loop. `generation` guards against the slot having been recycled while
/// the batch was in flight.
struct Completion {
    token: usize,
    generation: u64,
    /// Every response of the batch, encoded in request order.
    staging: Vec<u8>,
    /// The read buffer the batch's frames lived in, emptied, handed back.
    buffer: Vec<u8>,
    /// The frame-range container, emptied, handed back for reuse.
    ranges: Vec<(usize, usize)>,
}

/// The loop↔worker hand-off: workers push, then wake the poller.
struct Completions {
    queue: Mutex<Vec<Completion>>,
    /// Coalesces wakeups: only the first push after a drain pays the
    /// self-pipe write syscall, no matter how many batches finish per cycle.
    notified: AtomicBool,
    poller: Arc<Poller>,
}

impl Completions {
    fn push(&self, completion: Completion) {
        self.queue.lock().expect("completion queue poisoned").push(completion);
        if !self.notified.swap(true, Ordering::AcqRel) {
            let _ = self.poller.notify();
        }
    }

    fn drain_into(&self, out: &mut Vec<Completion>) {
        // Clear the flag before draining: a push that lands after the drain
        // sees `false` and raises its own wakeup, so nothing is lost.
        self.notified.store(false, Ordering::Release);
        out.append(&mut self.queue.lock().expect("completion queue poisoned"));
    }
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
    /// Inbound bytes. `..rpos` is covered by `ranges` (parsed frames waiting
    /// for dispatch); `rpos..` is a partial frame. Dispatch hands the whole
    /// buffer to the worker zero-copy and moves the partial tail into a
    /// recycled spare, so frames are never copied out individually.
    rbuf: Vec<u8>,
    rpos: usize,
    /// Parsed frames (`(start, len)` into `rbuf`) waiting for the current
    /// batch to finish.
    ranges: Vec<(usize, usize)>,
    /// Encoded responses waiting for socket writability.
    outq: VecDeque<WriteBuf>,
    /// Reusable staging buffers (response encode targets).
    spare_staging: Vec<Vec<u8>>,
    /// Reusable read buffer (swap target at dispatch).
    spare_rbuf: Option<Vec<u8>>,
    /// Reusable frame-range container.
    spare_ranges: Option<Vec<(usize, usize)>>,
    /// A batch is in flight on the pool; frames queue in `ranges` meanwhile.
    busy: bool,
    /// Frames accepted toward `max_requests_per_connection`.
    parsed: u64,
    /// A terminal error to emit once all prior responses are out.
    fatal: Option<Response>,
    /// The fatal frame has been queued: the connection is terminal, inbound
    /// bytes are discarded from here on.
    fatal_queued: bool,
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
            rpos: 0,
            ranges: Vec::new(),
            outq: VecDeque::with_capacity(4),
            spare_staging: Vec::with_capacity(SPARE_STAGING),
            spare_rbuf: None,
            spare_ranges: None,
            busy: false,
            parsed: 0,
            fatal: None,
            fatal_queued: false,
            read_closed: false,
            write_shut: false,
            drain_deadline: None,
            interest: (true, false),
        }
    }

    /// The connection has nothing in flight and nothing buffered.
    fn quiescent(&self) -> bool {
        !self.busy && self.outq.is_empty()
    }
}

/// A slab slot: `generation` increments every time the slot is vacated, so
/// completions addressed to a previous occupant are recognized as stale.
struct Slot {
    generation: u64,
    conn: Option<Conn>,
}

struct EventLoop {
    listener: TcpListener,
    poller: Arc<Poller>,
    responder: Arc<Responder>,
    pool: Arc<ThreadPool>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    completions: Arc<Completions>,
    write_allocs: Arc<AtomicU64>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Reused drain target for the completion queue.
    pending: Vec<Completion>,
    /// Loop-owned read target: sockets read into this one hot buffer and
    /// only the bytes actually received are appended to the connection's
    /// `rbuf`, so a fleet of mostly-idle connections costs no per-connection
    /// read-buffer footprint (and no `resize` memset per read syscall).
    scratch: Vec<u8>,
    /// Set when the shutdown flag is first observed: deadline for finishing
    /// in-flight batches and flushing queued responses.
    stopping: Option<Instant>,
    /// Connections currently holding a post-error read-drain deadline —
    /// lets the per-tick deadline sweep skip the slab entirely in the
    /// overwhelmingly common case of zero draining connections.
    draining: usize,
}

impl EventLoop {
    fn run(&mut self) {
        let mut events = Events::with_capacity(1024);
        loop {
            let _ = self.poller.wait(&mut events, Some(self.config.poll_interval));
            if self.stopping.is_none() && self.shutdown.load(Ordering::Acquire) {
                // Stop accepting and dispatching; give in-flight batches and
                // queued responses a bounded window to reach the wire.
                self.stopping = Some(Instant::now() + DRAIN_GRACE);
                let _ = self.poller.delete(self.listener.as_raw_fd());
            }
            self.apply_completions();
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
                let mut live = self.slots.iter().filter_map(|s| s.conn.as_ref());
                if live.all(Conn::quiescent) || Instant::now() >= deadline {
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
                    self.slots.push(Slot { generation: 0, conn: None });
                    self.slots.len() - 1
                }
            };
            if self.poller.add(stream.as_raw_fd(), Event::readable(token)).is_err() {
                self.free.push(token);
                continue;
            }
            self.slots[token].conn = Some(Conn::new(stream));
        }
    }

    /// Routes one readiness event for a connection socket. Stale keys (the
    /// connection closed earlier in this same tick) are ignored.
    fn handle_socket(&mut self, event: Event) {
        let token = event.key;
        if self.slots.get(token).is_none_or(|slot| slot.conn.is_none()) {
            return;
        }
        if event.readable && !self.read_ready(token) {
            return;
        }
        self.service(token);
    }

    /// Drains the socket's readable bytes into the connection. Returns
    /// `false` when the connection was torn down.
    fn read_ready(&mut self, token: usize) -> bool {
        let conn = self.slots[token].conn.as_mut().expect("checked by caller");
        if conn.fatal.is_some() || conn.fatal_queued {
            // Terminal: discard inbound bytes (the blocking path's
            // post-error drain) so the peer's writes keep completing and
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
                    // A failed socket with nobody left to answer: same
                    // silent teardown as the blocking path's `Fill::Failed`.
                    self.close(token);
                    return false;
                }
            }
        }
        parse_frames(conn, &self.config, &self.responder);
        true
    }

    /// Splits every complete frame out of the read buffer, then advances
    /// the connection's state machine: dispatch, fatal sequencing, flush,
    /// half-close, close, interest. Safe to call from any wakeup.
    fn service(&mut self, token: usize) {
        if self.stopping.is_none() {
            self.maybe_dispatch(token);
        }
        self.maybe_queue_fatal(token);
        if !self.flush_writes(token) {
            return;
        }
        self.maybe_finish(token);
    }

    /// Hands the parsed frames to a pool worker when the connection is idle
    /// — one batch in flight per connection keeps responses in order. The
    /// read buffer travels to the worker as-is (frames are answered straight
    /// out of it); only a partial trailing frame is moved into the recycled
    /// spare buffer that takes over reading.
    fn maybe_dispatch(&mut self, token: usize) {
        let conn = self.slots[token].conn.as_mut().expect("live connection");
        if conn.busy || conn.ranges.is_empty() {
            return;
        }
        let buffer = std::mem::replace(&mut conn.rbuf, conn.spare_rbuf.take().unwrap_or_default());
        let ranges =
            std::mem::replace(&mut conn.ranges, conn.spare_ranges.take().unwrap_or_default());
        if conn.rpos < buffer.len() {
            conn.rbuf.extend_from_slice(&buffer[conn.rpos..]);
        }
        conn.rpos = 0;
        let staging = conn.spare_staging.pop().unwrap_or_default();
        conn.busy = true;
        let generation = self.slots[token].generation;
        let responder = Arc::clone(&self.responder);
        let completions = Arc::clone(&self.completions);
        let write_allocs = Arc::clone(&self.write_allocs);
        self.pool.execute(move || {
            let mut staging = staging;
            let cap_before = staging.capacity();
            for &(start, len) in &ranges {
                let response = answer_frame(&responder, &buffer[start..start + len]);
                encode_response_into(&response, &mut staging);
            }
            if staging.capacity() != cap_before {
                write_allocs.fetch_add(1, Ordering::Relaxed);
            }
            let mut buffer = buffer;
            let mut ranges = ranges;
            buffer.clear();
            ranges.clear();
            completions.push(Completion { token, generation, staging, buffer, ranges });
        });
    }

    /// Once every previously accepted frame has been answered, emits the
    /// pending terminal error frame and marks the connection as draining —
    /// the evented mirror of the blocking `send_and_close`.
    fn maybe_queue_fatal(&mut self, token: usize) {
        let conn = self.slots[token].conn.as_mut().expect("live connection");
        if conn.busy || !conn.ranges.is_empty() {
            return;
        }
        let Some(fatal) = conn.fatal.take() else { return };
        let mut staging = conn.spare_staging.pop().unwrap_or_default();
        let cap_before = staging.capacity();
        encode_response_into(&fatal, &mut staging);
        if staging.capacity() != cap_before {
            self.write_allocs.fetch_add(1, Ordering::Relaxed);
        }
        self.queue_response(token, staging);
        let conn = self.slots[token].conn.as_mut().expect("live connection");
        conn.fatal_queued = true;
    }

    /// Appends an encoded buffer to the write queue, counting container
    /// growth against the buffer-reuse guarantee.
    fn queue_response(&mut self, token: usize, staging: Vec<u8>) {
        let conn = self.slots[token].conn.as_mut().expect("live connection");
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
        let conn = self.slots[token].conn.as_mut().expect("live connection");
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
        let conn = self.slots[token].conn.as_mut().expect("live connection");
        if conn.outq.is_empty() && conn.fatal_queued && !conn.write_shut {
            // Final frame flushed: half-close the write side and drain the
            // peer's reads so the kernel delivers it instead of RSTing.
            let _ = conn.stream.shutdown(Shutdown::Write);
            conn.write_shut = true;
            conn.drain_deadline = Some(Instant::now() + DRAIN_GRACE);
            self.draining += 1;
        }
        let done_draining = conn.write_shut && conn.read_closed;
        let idle_eof = conn.read_closed
            && !conn.fatal_queued
            && conn.fatal.is_none()
            && conn.quiescent()
            && conn.ranges.is_empty();
        if done_draining || idle_eof {
            self.close(token);
            return;
        }
        self.update_interest(token);
    }

    /// Syncs the poller registration with what the connection can make
    /// progress on, skipping the syscall when unchanged.
    fn update_interest(&mut self, token: usize) {
        let conn = self.slots[token].conn.as_mut().expect("live connection");
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

    /// Applies every queued batch completion: recycle buffers, queue the
    /// encoded responses, advance the connection. Stale completions (the
    /// slot was vacated or recycled mid-flight) only return their buffers
    /// to the allocator.
    fn apply_completions(&mut self) {
        let mut pending = std::mem::take(&mut self.pending);
        self.completions.drain_into(&mut pending);
        for completion in pending.drain(..) {
            let Some(slot) = self.slots.get_mut(completion.token) else { continue };
            if slot.generation != completion.generation || slot.conn.is_none() {
                continue;
            }
            let conn = slot.conn.as_mut().expect("checked above");
            conn.busy = false;
            conn.spare_rbuf = Some(completion.buffer);
            conn.spare_ranges = Some(completion.ranges);
            self.queue_response(completion.token, completion.staging);
            self.service(completion.token);
        }
        self.pending = pending;
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
                .conn
                .as_ref()
                .and_then(|conn| conn.drain_deadline)
                .is_some_and(|deadline| now >= deadline);
            if expired {
                self.close(token);
            }
        }
    }

    /// Vacates a slot: deregister, bump the generation (stale-completion
    /// guard), drop the stream (closing the fd).
    fn close(&mut self, token: usize) {
        if let Some(conn) = self.slots[token].conn.take() {
            if conn.drain_deadline.is_some() {
                self.draining -= 1;
            }
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            self.slots[token].generation += 1;
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

/// Marks every complete frame in `rbuf` as a `(start, len)` range in
/// `ranges` — zero-copy; dispatch hands the buffer itself to the worker —
/// enforcing the same guards in the same order as the blocking `read_frame`:
/// oversized announcement, short announcement, then the per-connection
/// request budget — each producing a terminal error sequenced after the
/// accepted frames.
fn parse_frames(conn: &mut Conn, config: &ServerConfig, responder: &Responder) {
    if conn.fatal.is_some() || conn.fatal_queued {
        conn.rbuf.clear();
        conn.rpos = 0;
        return;
    }
    loop {
        let avail = conn.rbuf.len() - conn.rpos;
        if avail < LENGTH_PREFIX_BYTES {
            break;
        }
        let prefix: [u8; LENGTH_PREFIX_BYTES] = conn.rbuf
            [conn.rpos..conn.rpos + LENGTH_PREFIX_BYTES]
            .try_into()
            .expect("slice of prefix length");
        let len = u32::from_le_bytes(prefix) as usize;
        if len > config.max_frame_bytes {
            conn.fatal = Some(responder.oversized_frame_error(len, config.max_frame_bytes));
            break;
        }
        if len < ENVELOPE_BYTES {
            conn.fatal = Some(responder.short_frame_error(len));
            break;
        }
        if avail < LENGTH_PREFIX_BYTES + len {
            break;
        }
        if conn.parsed >= config.max_requests_per_connection {
            conn.fatal = Some(responder.budget_exceeded_error(config.max_requests_per_connection));
            break;
        }
        conn.parsed += 1;
        let start = conn.rpos + LENGTH_PREFIX_BYTES;
        conn.ranges.push((start, len));
        conn.rpos = start + len;
    }
    if conn.fatal.is_some() {
        // Terminal: bytes past the last accepted frame are never parsed.
        conn.rbuf.truncate(conn.rpos);
    }
}
