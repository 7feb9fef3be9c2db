//! The blocking client: one TCP connection, batch helpers mirroring the
//! [`Synopsis`] query API, addressed at one key of the
//! server's multi-tenant store map.
//!
//! Every answer comes back [`Stamped`] with the epoch it was computed at
//! (the addressed key's epoch; store-wide answers carry the largest per-key
//! epoch), so callers can assert freshness and ordering: per key the server
//! hands out epochs monotonically, and two responses stamped with the *same*
//! epoch were answered by the *same* immutable snapshot.
//!
//! The client starts out addressing [`DEFAULT_KEY`]; [`HistClient::with_key`]
//! / [`HistClient::set_key`] retarget every subsequent query and admin call.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use hist_core::{Interval, Synopsis};
use hist_persist::encode_synopsis;
use hist_serve::DEFAULT_KEY;

use crate::error::{NetError, NetResult};
use crate::frame::{check_envelope, read_message, write_message, DEFAULT_MAX_FRAME_BYTES};
use crate::proto::{
    decode_response_frame, encode_request, Request, Response, StoreWideStats, SynopsisStats,
};

/// A value together with the epoch it was computed at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamped<T> {
    /// Epoch of the snapshot (or publish) that produced `value`.
    pub epoch: u64,
    /// The answer itself.
    pub value: T,
}

/// Per-key store statistics as reported by the server.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreStats {
    /// The addressed key's epoch (0 before its first publish).
    pub epoch: u64,
    /// Summary of the key's served synopsis, or `None` if it serves nothing.
    pub synopsis: Option<SynopsisStats>,
}

/// A blocking connection to a [`HistServer`](crate::HistServer).
///
/// ```no_run
/// use hist_net::HistClient;
///
/// let mut client = HistClient::connect("127.0.0.1:4715").unwrap().with_key("api/login").unwrap();
/// let stats = client.stats().unwrap();
/// println!("serving epoch {}", stats.epoch);
/// let quantiles = client.quantile_batch(&[0.25, 0.5, 0.75]).unwrap();
/// println!("quartiles at epoch {}: {:?}", quantiles.epoch, quantiles.value);
/// ```
#[derive(Debug)]
pub struct HistClient {
    stream: TcpStream,
    max_frame_bytes: usize,
    key: String,
    read_timeout: Option<Duration>,
}

impl HistClient {
    /// Connects to a server, addressing [`DEFAULT_KEY`].
    pub fn connect(addr: impl ToSocketAddrs) -> NetResult<Self> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream)
    }

    /// Connects with a deadline on the TCP handshake: an unresponsive or
    /// black-holed address fails with a typed [`NetError::Timeout`] after
    /// `timeout` instead of hanging for the OS default (minutes, on most
    /// platforms). Tries each resolved address in turn.
    pub fn connect_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> NetResult<Self> {
        let mut last: Option<std::io::Error> = None;
        for addr in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, timeout) {
                Ok(stream) => return Self::from_stream(stream),
                Err(e) => last = Some(e),
            }
        }
        Err(match last {
            Some(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                ) =>
            {
                NetError::Timeout { what: "connect", after: timeout }
            }
            Some(e) => NetError::Io(e),
            None => NetError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to no socket addresses",
            )),
        })
    }

    fn from_stream(stream: TcpStream) -> NetResult<Self> {
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            key: DEFAULT_KEY.to_owned(),
            read_timeout: None,
        })
    }

    /// Caps the response frames this client accepts. When mirroring the
    /// server's [`ServerConfig::max_frame_bytes`](crate::ServerConfig), allow
    /// for the constant per-frame overhead: a response can be a few bytes
    /// larger than the request that elicited it.
    pub fn with_max_frame_bytes(mut self, max_frame_bytes: usize) -> Self {
        self.max_frame_bytes = max_frame_bytes;
        self
    }

    /// Bounds how long a single response read may block (`None`, the
    /// default, waits forever). A stalled or saturated server then surfaces
    /// as a typed [`NetError::Timeout`] instead of a silent hang.
    pub fn with_read_timeout(mut self, timeout: Option<Duration>) -> NetResult<Self> {
        self.stream.set_read_timeout(timeout)?;
        self.read_timeout = timeout;
        Ok(self)
    }

    /// Retargets every subsequent query and admin call at `key` (builder
    /// form). Rejects keys that violate the encoding rules.
    pub fn with_key(mut self, key: &str) -> NetResult<Self> {
        self.set_key(key)?;
        Ok(self)
    }

    /// Retargets every subsequent query and admin call at `key`.
    pub fn set_key(&mut self, key: &str) -> NetResult<()> {
        hist_persist::validate_key(key).map_err(NetError::Frame)?;
        key.clone_into(&mut self.key);
        Ok(())
    }

    /// The key this client currently addresses.
    #[inline]
    pub fn key(&self) -> &str {
        &self.key
    }

    /// One request/response exchange.
    fn round_trip(&mut self, request: &Request) -> NetResult<Response> {
        write_message(&mut self.stream, &encode_request(request))?;
        let frame = read_message(&mut self.stream, self.max_frame_bytes)
            .map_err(|e| self.classify_read_error(e))?
            .ok_or(NetError::Disconnected)?;
        let (op, payload) = check_envelope(&frame)?;
        let response = decode_response_frame(op, payload)?;
        if let Response::Error { epoch, code, message } = response {
            return Err(NetError::Remote { epoch, code, message });
        }
        Ok(response)
    }

    /// Maps a timed-out socket read to the typed [`NetError::Timeout`] when a
    /// read deadline is configured; every other error passes through.
    fn classify_read_error(&self, e: NetError) -> NetError {
        match (&e, self.read_timeout) {
            (NetError::Io(io), Some(after))
                if matches!(
                    io.kind(),
                    std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                ) =>
            {
                NetError::Timeout { what: "response read", after }
            }
            _ => e,
        }
    }

    /// The cdf at each index, answered from one snapshot of the addressed
    /// key — bit-identical to [`Synopsis::cdf`] on the published synopsis.
    pub fn cdf_batch(&mut self, xs: &[usize]) -> NetResult<Stamped<Vec<f64>>> {
        let request =
            Request::CdfBatch { key: self.key.clone(), xs: xs.iter().map(|&x| x as u64).collect() };
        match self.round_trip(&request)? {
            Response::CdfBatch { epoch, values } => Ok(Stamped { epoch, value: values }),
            other => Err(unexpected(&other)),
        }
    }

    /// The smallest index reaching each fraction — bit-identical to
    /// [`Synopsis::quantile_batch`] on the published synopsis.
    pub fn quantile_batch(&mut self, ps: &[f64]) -> NetResult<Stamped<Vec<usize>>> {
        let request = Request::QuantileBatch { key: self.key.clone(), ps: ps.to_vec() };
        match self.round_trip(&request)? {
            Response::QuantileBatch { epoch, indices } => {
                let value = indices
                    .into_iter()
                    .map(|i| {
                        usize::try_from(i).map_err(|_| {
                            NetError::Frame(hist_persist::CodecError::ValueOutOfRange {
                                what: "quantile index",
                            })
                        })
                    })
                    .collect::<NetResult<Vec<usize>>>()?;
                Ok(Stamped { epoch, value })
            }
            other => Err(unexpected(&other)),
        }
    }

    /// The estimated mass over each range — bit-identical to
    /// [`Synopsis::mass_batch`] on the published synopsis.
    pub fn mass_batch(&mut self, ranges: &[Interval]) -> NetResult<Stamped<Vec<f64>>> {
        let request = Request::MassBatch {
            key: self.key.clone(),
            ranges: ranges.iter().map(|r| (r.start() as u64, r.end() as u64)).collect(),
        };
        match self.round_trip(&request)? {
            Response::MassBatch { epoch, masses } => Ok(Stamped { epoch, value: masses }),
            other => Err(unexpected(&other)),
        }
    }

    /// The addressed key's epoch plus a summary of its served synopsis
    /// (piece count, domain, budget, mass, provenance) in one frame.
    pub fn stats(&mut self) -> NetResult<StoreStats> {
        match self.round_trip(&Request::Stats { key: self.key.clone() })? {
            Response::Stats { epoch, synopsis } => Ok(StoreStats { epoch, synopsis }),
            other => Err(unexpected(&other)),
        }
    }

    /// Store-wide summary: key count, served count, total pieces, epoch
    /// range.
    pub fn store_stats(&mut self) -> NetResult<Stamped<StoreWideStats>> {
        match self.round_trip(&Request::StoreStats)? {
            Response::StoreStats { epoch, stats } => Ok(Stamped { epoch, value: stats }),
            other => Err(unexpected(&other)),
        }
    }

    /// Every key of the served store map, in canonical (ascending) order.
    pub fn list_keys(&mut self) -> NetResult<Stamped<Vec<String>>> {
        match self.round_trip(&Request::ListKeys)? {
            Response::KeyList { epoch, keys } => Ok(Stamped { epoch, value: keys }),
            other => Err(unexpected(&other)),
        }
    }

    /// Admin: replaces the addressed key's served synopsis (ships it in the
    /// `AHISTSYN` encoding), creating the key on first use. Returns the new
    /// epoch.
    pub fn publish(&mut self, synopsis: &Synopsis) -> NetResult<u64> {
        let request =
            Request::Publish { key: self.key.clone(), synopsis: encode_synopsis(synopsis) };
        match self.round_trip(&request)? {
            Response::Updated { epoch } => Ok(epoch),
            other => Err(unexpected(&other)),
        }
    }

    /// Admin: merges an adjacent-chunk synopsis into the addressed key's
    /// served one, re-merged down to `budget` pieces. Returns the new epoch.
    pub fn update_merge(&mut self, chunk: &Synopsis, budget: usize) -> NetResult<u64> {
        let request = Request::UpdateMerge {
            key: self.key.clone(),
            budget: budget as u64,
            synopsis: encode_synopsis(chunk),
        };
        match self.round_trip(&request)? {
            Response::Updated { epoch } => Ok(epoch),
            other => Err(unexpected(&other)),
        }
    }

    /// Admin: evicts `key` (not necessarily the addressed one) and its
    /// store. Returns whether the key existed, stamped with its last epoch.
    pub fn drop_key(&mut self, key: &str) -> NetResult<Stamped<bool>> {
        match self.round_trip(&Request::DropKey { key: key.to_owned() })? {
            Response::Dropped { epoch, existed } => Ok(Stamped { epoch, value: existed }),
            other => Err(unexpected(&other)),
        }
    }
}

/// A structurally valid response of the wrong kind for the request — a
/// protocol violation by the peer, reported as a frame-level tag error.
fn unexpected(response: &Response) -> NetError {
    NetError::Frame(hist_persist::CodecError::InvalidTag {
        what: "response kind",
        found: response.op(),
    })
}
