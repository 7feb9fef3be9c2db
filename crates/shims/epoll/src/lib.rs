//! Offline stand-in for the `polling` crate: the readiness-polling subset
//! this workspace uses (the build environment has no crates.io access), in
//! the spirit of the `rand`/`criterion` shims.
//!
//! A [`Poller`] watches a set of file descriptors for read/write readiness
//! through Linux epoll(7): `O(ready)` wakeups, the path behind the server's
//! thousands of connections. The crate is empty on every other platform;
//! its one user, `hist-net`, depends on it only on Linux.
//!
//! Readiness is **level-triggered**: an event keeps firing while the
//! condition holds, so a handler that drains less than everything is woken
//! again — the forgiving semantics the evented server is written against.
//! Error/hang-up conditions (`EPOLLERR`/`EPOLLHUP`) are surfaced as
//! *readable and writable* so the owner's next read/write observes the
//! failure and tears the connection down; they can never be masked by
//! interest flags.
//!
//! No external crates: the syscalls are declared `extern "C"` against the
//! libc every Rust `std` program on Linux already links.

#![cfg(target_os = "linux")]
#![forbid(unsafe_op_in_unsafe_fn)]

use std::io;
use std::time::Duration;

/// One readiness registration or occurrence: a caller-chosen `key` plus the
/// directions of interest (registration) or readiness (wait result).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Caller-chosen identifier delivered back with every occurrence.
    pub key: usize,
    /// Interested in / ready for reading.
    pub readable: bool,
    /// Interested in / ready for writing.
    pub writable: bool,
}

impl Event {
    /// Interest in both directions.
    pub fn all(key: usize) -> Self {
        Self { key, readable: true, writable: true }
    }

    /// Read interest only.
    pub fn readable(key: usize) -> Self {
        Self { key, readable: true, writable: false }
    }

    /// Write interest only.
    pub fn writable(key: usize) -> Self {
        Self { key, readable: false, writable: true }
    }

    /// No interest (parked registration; still reports errors/hang-ups).
    pub fn none(key: usize) -> Self {
        Self { key, readable: false, writable: false }
    }
}

mod sys {
    //! The raw libc surface, declared by hand: the shim may not depend on
    //! the `libc` crate, but every Rust binary on Linux already links the C
    //! library these symbols live in.
    #![allow(non_camel_case_types)]

    pub type c_int = i32;

    // `struct epoll_event` is declared `__attribute__((packed))` on x86-64
    // (a kernel ABI quirk); on every other architecture it is a plain C
    // struct.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct epoll_event {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;

    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLL_CLOEXEC: c_int = 0x80000;

    extern "C" {
        pub fn close(fd: c_int) -> c_int;
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut epoll_event) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut epoll_event,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }
}

/// Readiness occurrences collected by one [`Poller::wait`] call. Owns the
/// kernel's event buffer so repeated waits allocate nothing.
pub struct Events {
    list: Vec<Event>,
    raw: Vec<sys::epoll_event>,
}

impl std::fmt::Debug for Events {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Events").field("len", &self.list.len()).finish()
    }
}

impl Events {
    /// Room for `capacity` occurrences per wait (at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        // `epoll_wait` takes the capacity as a C int.
        let capacity = capacity.clamp(1, i32::MAX as usize);
        Self {
            list: Vec::with_capacity(capacity),
            raw: vec![sys::epoll_event { events: 0, data: 0 }; capacity],
        }
    }

    /// Iterates the occurrences of the last wait.
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.list.iter().copied()
    }

    /// Occurrences collected by the last wait.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Whether the last wait collected nothing.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }
}

impl Default for Events {
    fn default() -> Self {
        Self::with_capacity(256)
    }
}

/// An epoll(7) readiness poller. It owns its epoll fd and closes it on drop.
#[derive(Debug)]
pub struct Poller {
    epfd: i32,
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

impl Poller {
    /// A fresh epoll instance (close-on-exec).
    pub fn new() -> io::Result<Self> {
        // SAFETY: `epoll_create1` takes no pointers; a negative return is an
        // error, mapped by `cvt`.
        let epfd = cvt(unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) })?;
        Ok(Self { epfd })
    }

    /// Registers `fd` with the given interest. The caller keeps the fd
    /// open for as long as it stays registered.
    pub fn add(&self, fd: i32, interest: Event) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, to_epoll_event(interest))
    }

    /// Replaces the interest of a registered fd.
    pub fn modify(&self, fd: i32, interest: Event) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, to_epoll_event(interest))
    }

    /// Removes a registration. Call *before* closing the fd.
    pub fn delete(&self, fd: i32) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, sys::epoll_event { events: 0, data: 0 })
    }

    fn ctl(&self, op: sys::c_int, fd: i32, mut event: sys::epoll_event) -> io::Result<()> {
        // SAFETY: `event` is a live, initialised `epoll_event` the kernel
        // only reads during the call; a bad `fd` is reported as an error.
        cvt(unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut event) })?;
        Ok(())
    }

    /// Blocks until at least one registered fd is ready or the timeout
    /// elapses (`None` waits forever).
    /// Returns the number of occurrences written into `events`; an
    /// interrupted wait (`EINTR`) returns 0 occurrences rather than an
    /// error. Error/hang-up conditions report as readable **and**
    /// writable regardless of registered interest.
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        events.list.clear();
        let timeout_ms: i32 = match timeout {
            // Round up so a 1ns timeout doesn't busy-spin as 0ms.
            Some(t) => {
                t.as_millis().min(i32::MAX as u128) as i32
                    + i32::from(t.subsec_nanos() % 1_000_000 != 0)
            }
            None => -1,
        };
        // SAFETY: `raw` holds `raw.len()` initialised entries (at most
        // `i32::MAX`, see `Events::with_capacity`), and the kernel writes at
        // most `maxevents` of them.
        let n = unsafe {
            sys::epoll_wait(self.epfd, events.raw.as_mut_ptr(), events.raw.len() as i32, timeout_ms)
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        for raw in &events.raw[..n as usize] {
            let data = raw.data;
            let bits = raw.events;
            let hangup = bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0;
            events.list.push(Event {
                key: data as usize,
                readable: bits & sys::EPOLLIN != 0 || hangup,
                writable: bits & sys::EPOLLOUT != 0 || hangup,
            });
        }
        Ok(events.list.len())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `epfd` came from `epoll_create1` and is closed only here.
        unsafe {
            sys::close(self.epfd);
        }
    }
}

fn to_epoll_event(interest: Event) -> sys::epoll_event {
    let mut bits = 0u32;
    if interest.readable {
        bits |= sys::EPOLLIN;
    }
    if interest.writable {
        bits |= sys::EPOLLOUT;
    }
    sys::epoll_event { events: bits, data: interest.key as u64 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn readiness_round_trip_on_every_backend() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poller.add(listener.as_raw_fd(), Event::readable(7)).unwrap();

        // Nothing pending: a short wait times out empty.
        let mut events = Events::with_capacity(8);
        let n = poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0, "phantom event");

        // A pending connection makes the listener readable.
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let n = poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1, "missed the pending connection");
        let ev = events.iter().next().unwrap();
        assert_eq!(ev.key, 7);
        assert!(ev.readable);

        // Level-triggered: unconsumed readiness fires again.
        let n = poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1, "level-triggered redelivery failed");

        let (mut server_side, _) = listener.accept().unwrap();
        poller.delete(listener.as_raw_fd()).unwrap();

        // A connected stream is immediately writable; readable only once
        // the peer sends.
        server_side.set_nonblocking(true).unwrap();
        poller.add(server_side.as_raw_fd(), Event::all(9)).unwrap();
        let n = poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        let ev = events.iter().next().unwrap();
        assert_eq!(ev.key, 9);
        assert!(ev.writable && !ev.readable, "{ev:?}");

        client.write_all(b"ping").unwrap();
        // Narrow the interest to readable so the write side stops firing.
        poller.modify(server_side.as_raw_fd(), Event::readable(9)).unwrap();
        let n = poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert!(events.iter().next().unwrap().readable);
        let mut buf = [0u8; 8];
        assert_eq!(server_side.read(&mut buf).unwrap(), 4);

        // Peer hang-up surfaces as readiness even under read interest.
        drop(client);
        let n = poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1, "hang-up not surfaced");
        assert!(events.iter().next().unwrap().readable);
        poller.delete(server_side.as_raw_fd()).unwrap();
    }

    #[test]
    fn registration_errors_are_typed() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let fd = listener.as_raw_fd();
        poller.add(fd, Event::readable(1)).unwrap();
        assert!(poller.add(fd, Event::readable(1)).is_err(), "double add");
        poller.delete(fd).unwrap();
        assert!(poller.delete(fd).is_err(), "double delete");
        assert!(poller.modify(fd, Event::readable(1)).is_err(), "orphan modify");
    }
}
