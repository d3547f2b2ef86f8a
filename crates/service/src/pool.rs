//! The service's one client-side HTTP transport: a dialed keep-alive
//! connection (`Conn`) and the bounded per-address pool that reuses
//! them ([`ConnectionPool`]).
//!
//! Every request the crate sends goes through here — router proxying,
//! supervisor probes, fleet fan-out, migration restores, the keep-alive
//! [`Client`](crate::client::Client) (a capacity-1 pool) and the
//! one-shot `Connection: close` helpers in [`crate::client`]:
//!
//! * **One dial.** `Conn::dial` is the crate's only socket dial
//!   (`redistrib-lint`'s `no-raw-connect-in-router` enforces it): a
//!   connect deadline, `TCP_NODELAY`, and read/write deadlines.
//! * **One exchange.** `Conn::exchange` writes one request and reads its
//!   answer, reporting whether any response byte arrived. The socket
//!   deadlines are set again only when a caller asks for a different one,
//!   so a warm connection costs no `setsockopt` per request.
//! * **Checkout/checkin.** [`ConnectionPool::request`] pops an idle
//!   connection (LIFO — the warmest one), or dials a new one while the
//!   shelf is under [`PoolConfig::capacity`]. At capacity the checkout
//!   is *refused* with [`io::ErrorKind::WouldBlock`] — the caller sheds
//!   instead of queueing, so a saturated backend never grows an
//!   unbounded connection herd.
//! * **Stale detection + safe resend.** A pooled connection the server
//!   closed while idle fails with an EOF/reset on first use. The pool
//!   retries exactly once on a *freshly dialed* connection (every other
//!   idle connection to that address is just as dead) — and only when
//!   resending is safe: always for GET/DELETE, for POST only when zero
//!   response bytes arrived (`resend_safe`).
//! * **Flush on death.** Breaker trips, retire, and failover call
//!   [`ConnectionPool::flush`] for the dead backend's address: idle
//!   connections are dropped and the shelf's *epoch* is bumped, so
//!   checked-out connections returning late are discarded instead of
//!   being reshelved against a respawned backend.
//! * **Idle reaping.** [`ConnectionPool::reap_idle`] (called from the
//!   router's probe tick) drops connections idle past
//!   [`PoolConfig::idle_max`], ahead of the backend's own idle timeout.
//!
//! The shelf map sits behind one [`OrderedMutex`] at
//! [`rank::BACKEND_POOL`], held only for map surgery — never across
//! `connect`, a write, or a read — so the pool adds a leaf-like rank to
//! the lock order (recovery holds the backend handle/addr locks while
//! flushing, which is why the rank sits above them).
//!
//! The pool itself never reports failures to the supervisor: callers
//! own the breaker accounting, which is what keeps a failed probe or
//! proxy call counting toward the breaker exactly once.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::sync::{rank, OrderedMutex};

/// One dialed connection and the read/write deadline its socket carries.
#[derive(Debug)]
pub(crate) struct Conn {
    io: BufReader<TcpStream>,
    addr: SocketAddr,
    deadline: Duration,
}

impl Conn {
    /// The crate's one socket dial: connect within `deadline`, then apply
    /// it to reads and writes. The head and body go out as separate small
    /// writes; without nodelay Nagle parks the second behind the peer's
    /// delayed ACK (~40 ms per request, doubled through the router hop).
    pub(crate) fn dial(addr: SocketAddr, deadline: Duration) -> io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, deadline)?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(Some(deadline))?;
        stream.set_write_timeout(Some(deadline))?;
        Ok(Self { io: BufReader::new(stream), addr, deadline })
    }

    /// Runs one request/response exchange under `deadline`, asking the
    /// server to close afterwards when `close` is set. Also reports
    /// whether *any* response bytes arrived before the outcome was
    /// decided: a keep-alive connection the server closed while idle
    /// yields zero bytes (the request was never processed — resending is
    /// safe even for a POST), whereas one that died mid-response may have
    /// committed the request's effects.
    pub(crate) fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        deadline: Duration,
        close: bool,
    ) -> (bool, io::Result<HttpAnswer>) {
        let payload = body.unwrap_or("");
        let connection = if close { "close" } else { "keep-alive" };
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
            self.addr,
            payload.len(),
        );
        let sent = self.set_deadline(deadline).and_then(|()| {
            let stream = self.io.get_mut();
            stream.write_all(head.as_bytes())?;
            stream.write_all(payload.as_bytes())?;
            stream.flush()
        });
        if let Err(e) = sent {
            return (false, Err(e));
        }
        match self.io.fill_buf() {
            Ok([]) => {
                (false, Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed")))
            }
            Ok(_) => (true, read_response(&mut self.io)),
            Err(e) => (false, Err(e)),
        }
    }

    fn set_deadline(&mut self, deadline: Duration) -> io::Result<()> {
        if deadline != self.deadline {
            let stream = self.io.get_ref();
            stream.set_read_timeout(Some(deadline))?;
            stream.set_write_timeout(Some(deadline))?;
            self.deadline = deadline;
        }
        Ok(())
    }
}

/// One fully-parsed HTTP response: status, body, and the headers the
/// service's clients act on.
#[derive(Debug, Clone)]
pub struct HttpAnswer {
    /// HTTP status code.
    pub status: u16,
    /// UTF-8 body.
    pub body: String,
    /// `Content-Type` header value, if present.
    pub content_type: Option<String>,
    /// `Retry-After` header in whole seconds, if present and numeric.
    pub retry_after: Option<u64>,
    /// Whether the server announced it will close the connection.
    pub close: bool,
}

/// Reads one response off the wire.
fn read_response(reader: &mut BufReader<TcpStream>) -> io::Result<HttpAnswer> {
    let mut status_line = String::new();
    if reader.read_line(&mut status_line)? == 0 {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
    }
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;

    let mut content_length: Option<usize> = None;
    let mut content_type: Option<String> = None;
    let mut retry_after: Option<u64> = None;
    let mut close = false;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated head"));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().ok();
            } else if name.eq_ignore_ascii_case("content-type") {
                content_type = Some(value.to_string());
            } else if name.eq_ignore_ascii_case("retry-after") {
                retry_after = value.parse().ok();
            } else if name.eq_ignore_ascii_case("connection")
                && value.eq_ignore_ascii_case("close")
            {
                close = true;
            }
        }
    }

    let body = match content_length {
        Some(n) => {
            let mut buf = vec![0u8; n];
            reader.read_exact(&mut buf)?;
            buf
        }
        // Only legal without keep-alive: read to EOF.
        None => {
            let mut buf = Vec::new();
            reader.read_to_end(&mut buf)?;
            buf
        }
    };
    let body = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 body"))?;
    Ok(HttpAnswer { status, body, content_type, retry_after, close })
}

/// Whether resending `method` after a stale-connection failure is safe.
/// GET and DELETE are idempotent — always safe. POST (create,
/// checkpoint, admin actions) is safe only when the failure arrived
/// before any response byte: the server either never saw the request or
/// closed the connection without starting to answer it.
pub(crate) fn resend_safe(method: &str, got_response_bytes: bool) -> bool {
    matches!(method, "GET" | "DELETE") || !got_response_bytes
}

/// Errors consistent with "the server closed the idle keep-alive
/// connection between our requests".
fn is_stale(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
    )
}

/// Sizing and lifetime knobs of a [`ConnectionPool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Maximum connections (idle + checked out) per backend address.
    /// Checkouts beyond it are refused with
    /// [`io::ErrorKind::WouldBlock`].
    pub capacity: usize,
    /// Idle connections older than this are dropped by
    /// [`ConnectionPool::reap_idle`]. Keep it under the backend's own
    /// keep-alive idle timeout so the pool retires connections before
    /// the server does.
    pub idle_max: Duration,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self { capacity: 8, idle_max: Duration::from_secs(10) }
    }
}

/// One parked keep-alive connection.
#[derive(Debug)]
struct Idle {
    conn: Conn,
    since: Instant,
}

/// Per-backend shelf: parked connections plus checkout accounting.
#[derive(Debug, Default)]
struct Shelf {
    /// Bumped by [`ConnectionPool::flush`]; a checkin whose checkout
    /// epoch is older is discarded (the backend died in between).
    epoch: u64,
    /// Connections currently checked out against this epoch.
    outstanding: usize,
    idle: Vec<Idle>,
}

/// A bounded keep-alive connection pool keyed by backend address. See
/// the [module docs](self) for the protocol.
#[derive(Debug)]
pub struct ConnectionPool {
    cfg: PoolConfig,
    shelves: OrderedMutex<HashMap<SocketAddr, Shelf>>,
    opened: AtomicU64,
    reused: AtomicU64,
}

/// A checked-out connection: the stream plus the receipt needed to
/// return or discard it correctly.
#[derive(Debug)]
struct Checkout {
    conn: Conn,
    epoch: u64,
    reused: bool,
}

impl ConnectionPool {
    /// An empty pool with the given knobs.
    #[must_use]
    pub fn new(cfg: PoolConfig) -> Self {
        Self {
            cfg,
            shelves: OrderedMutex::new(rank::BACKEND_POOL, HashMap::new()),
            opened: AtomicU64::new(0),
            reused: AtomicU64::new(0),
        }
    }

    /// This pool's configuration.
    #[must_use]
    pub fn config(&self) -> &PoolConfig {
        &self.cfg
    }

    /// Fresh connections dialed so far (reuse observability).
    #[must_use]
    pub fn connections_opened(&self) -> u64 {
        self.opened.load(Ordering::Relaxed)
    }

    /// Requests served on a reshelved (reused) connection so far.
    #[must_use]
    pub fn requests_reused(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }

    /// Idle connections currently parked for `addr` (test observability).
    #[must_use]
    pub fn idle_count(&self, addr: SocketAddr) -> usize {
        self.shelves.lock_recover().get(&addr).map_or(0, |s| s.idle.len())
    }

    /// Connections currently checked out against `addr`'s live epoch.
    #[must_use]
    pub fn outstanding_count(&self, addr: SocketAddr) -> usize {
        self.shelves.lock_recover().get(&addr).map_or(0, |s| s.outstanding)
    }

    /// One pooled request with a per-request deadline on connect, write,
    /// and read. Transparently retries once on a fresh connection when a
    /// *reused* connection turns out stale and resending is safe (see
    /// the module docs).
    ///
    /// # Errors
    /// [`io::ErrorKind::WouldBlock`] when the shelf is at capacity (the
    /// caller should shed, not count it as a backend failure unless its
    /// protocol says so); otherwise socket errors, and malformed
    /// responses as [`io::ErrorKind::InvalidData`].
    pub fn request(
        &self,
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: Option<&str>,
        timeout: Duration,
    ) -> io::Result<HttpAnswer> {
        let checkout = self.checkout(addr, timeout, false)?;
        let reused = checkout.reused;
        match self.drive(addr, checkout, method, path, body, timeout) {
            Err((got_bytes, e)) if reused && is_stale(&e) && resend_safe(method, got_bytes) => {
                // Every idle connection to this backend predates ours, so
                // the one retry must be on a freshly dialed connection.
                let fresh = self.checkout(addr, timeout, true)?;
                self.drive(addr, fresh, method, path, body, timeout).map_err(|(_, e)| e)
            }
            Err((_, e)) => Err(e),
            Ok(ans) => Ok(ans),
        }
    }

    /// Sends one request on a checked-out connection and settles the
    /// checkout: reshelve on clean keep-alive, discard on close/error.
    fn drive(
        &self,
        addr: SocketAddr,
        mut checkout: Checkout,
        method: &str,
        path: &str,
        body: Option<&str>,
        timeout: Duration,
    ) -> Result<HttpAnswer, (bool, io::Error)> {
        let (got_bytes, outcome) = checkout.conn.exchange(method, path, body, timeout, false);
        match outcome {
            Ok(ans) => {
                if checkout.reused {
                    self.reused.fetch_add(1, Ordering::Relaxed);
                }
                if ans.close {
                    self.discard(addr, checkout.epoch);
                } else {
                    self.checkin(addr, checkout);
                }
                Ok(ans)
            }
            Err(e) => {
                self.discard(addr, checkout.epoch);
                Err((got_bytes, e))
            }
        }
    }

    /// Pops an idle connection or dials a fresh one (outside the shelf
    /// lock). `force_fresh` skips the idle shelf — the stale-retry path.
    fn checkout(
        &self,
        addr: SocketAddr,
        timeout: Duration,
        force_fresh: bool,
    ) -> io::Result<Checkout> {
        let epoch = {
            let mut shelves = self.shelves.lock_recover();
            let shelf = shelves.entry(addr).or_default();
            if !force_fresh {
                if let Some(idle) = shelf.idle.pop() {
                    shelf.outstanding += 1;
                    return Ok(Checkout { conn: idle.conn, epoch: shelf.epoch, reused: true });
                }
            }
            if shelf.outstanding + shelf.idle.len() >= self.cfg.capacity {
                return Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    format!("connection pool for {addr} is at capacity"),
                ));
            }
            shelf.outstanding += 1;
            shelf.epoch
        };
        match Conn::dial(addr, timeout) {
            Ok(conn) => {
                self.opened.fetch_add(1, Ordering::Relaxed);
                Ok(Checkout { conn, epoch, reused: false })
            }
            Err(e) => {
                self.discard(addr, epoch);
                Err(e)
            }
        }
    }

    /// Reshelves a healthy connection — unless the shelf was flushed
    /// while it was out (epoch mismatch), in which case it is dropped.
    fn checkin(&self, addr: SocketAddr, checkout: Checkout) {
        let mut shelves = self.shelves.lock_recover();
        if let Some(shelf) = shelves.get_mut(&addr) {
            if shelf.epoch == checkout.epoch {
                shelf.outstanding = shelf.outstanding.saturating_sub(1);
                if shelf.idle.len() < self.cfg.capacity {
                    shelf.idle.push(Idle { conn: checkout.conn, since: Instant::now() });
                }
            }
        }
    }

    /// Releases a checkout slot without reshelving the connection.
    fn discard(&self, addr: SocketAddr, epoch: u64) {
        let mut shelves = self.shelves.lock_recover();
        if let Some(shelf) = shelves.get_mut(&addr) {
            if shelf.epoch == epoch {
                shelf.outstanding = shelf.outstanding.saturating_sub(1);
            }
        }
    }

    /// Drops every idle connection to `addr` and invalidates checked-out
    /// ones (they are discarded on return instead of reshelved). Called
    /// when a backend's breaker trips, it is retired, or failover
    /// replaces it. Returns how many idle connections were dropped.
    pub fn flush(&self, addr: SocketAddr) -> usize {
        let mut shelves = self.shelves.lock_recover();
        match shelves.get_mut(&addr) {
            Some(shelf) => {
                shelf.epoch += 1;
                shelf.outstanding = 0;
                let n = shelf.idle.len();
                shelf.idle.clear();
                n
            }
            None => 0,
        }
    }

    /// Drops idle connections older than [`PoolConfig::idle_max`]
    /// (called from the router's probe tick). Returns how many were
    /// dropped.
    pub fn reap_idle(&self) -> usize {
        let mut reaped = 0;
        let mut shelves = self.shelves.lock_recover();
        for shelf in shelves.values_mut() {
            let before = shelf.idle.len();
            shelf.idle.retain(|idle| idle.since.elapsed() < self.cfg.idle_max);
            reaped += before - shelf.idle.len();
        }
        reaped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{HttpConfig, HttpServer, Response};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    const TIMEOUT: Duration = Duration::from_secs(5);

    fn echo_server(workers: usize) -> HttpServer {
        HttpServer::bind_with(
            "127.0.0.1:0",
            HttpConfig { workers, ..HttpConfig::default() },
            Arc::new(AtomicBool::new(false)),
            |req| Response::text(200, format!("echo {}", req.path)),
        )
        .unwrap()
    }

    #[test]
    fn requests_reuse_pooled_connections() {
        let server = echo_server(1);
        let pool = ConnectionPool::new(PoolConfig::default());
        for i in 0..16 {
            let ans =
                pool.request(server.addr(), "GET", &format!("/r{i}"), None, TIMEOUT).unwrap();
            assert_eq!(ans.status, 200);
            assert_eq!(ans.body, format!("echo /r{i}"));
        }
        assert_eq!(pool.connections_opened(), 1, "one dial serves the whole series");
        assert_eq!(pool.requests_reused(), 15);
        assert_eq!(pool.idle_count(server.addr()), 1);
        assert_eq!(pool.outstanding_count(server.addr()), 0);
    }

    #[test]
    fn capacity_refuses_with_would_block() {
        let server = echo_server(1);
        let pool = ConnectionPool::new(PoolConfig { capacity: 2, ..PoolConfig::default() });
        let addr = server.addr();
        // Fill the shelf to capacity with parked connections, then
        // poison the accounting by pretending both are checked out.
        pool.request(addr, "GET", "/warm", None, TIMEOUT).unwrap();
        {
            let mut shelves = pool.shelves.lock_recover();
            let shelf = shelves.get_mut(&addr).unwrap();
            shelf.outstanding = 2;
            shelf.idle.clear();
        }
        let err = pool.request(addr, "GET", "/full", None, TIMEOUT).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }

    #[test]
    fn flush_empties_only_the_victim_backend() {
        let a = echo_server(1);
        let b = echo_server(1);
        let pool = ConnectionPool::new(PoolConfig::default());
        pool.request(a.addr(), "GET", "/a", None, TIMEOUT).unwrap();
        pool.request(b.addr(), "GET", "/b", None, TIMEOUT).unwrap();
        assert_eq!(pool.flush(a.addr()), 1);
        assert_eq!(pool.idle_count(a.addr()), 0);
        assert_eq!(pool.idle_count(b.addr()), 1, "the survivor's shelf is untouched");
    }

    #[test]
    fn stale_pooled_connection_is_retried_fresh_for_gets() {
        let mut server = echo_server(1);
        let addr = server.addr();
        let pool = ConnectionPool::new(PoolConfig::default());
        assert_eq!(pool.request(addr, "GET", "/one", None, TIMEOUT).unwrap().status, 200);
        // Kill the server: the parked connection is now stale. Rebinding
        // on the same port isn't portable, so drive the stale path by
        // asserting the reconnect attempt happens (and fails cleanly).
        server.shutdown();
        let err = pool.request(addr, "GET", "/two", None, TIMEOUT).unwrap_err();
        // The stale idle connection was tried and the fresh redial then
        // failed to connect — two distinct failure modes both fine; what
        // matters is nothing reshelved and accounting is clean.
        assert!(err.kind() != io::ErrorKind::WouldBlock);
        assert_eq!(pool.idle_count(addr), 0);
        assert_eq!(pool.outstanding_count(addr), 0);
    }

    #[test]
    fn reap_drops_connections_idle_past_the_limit() {
        let server = echo_server(1);
        let pool = ConnectionPool::new(PoolConfig {
            idle_max: Duration::ZERO,
            ..PoolConfig::default()
        });
        pool.request(server.addr(), "GET", "/one", None, TIMEOUT).unwrap();
        assert_eq!(pool.idle_count(server.addr()), 1);
        assert_eq!(pool.reap_idle(), 1);
        assert_eq!(pool.idle_count(server.addr()), 0);
        // The next request simply dials again.
        assert_eq!(
            pool.request(server.addr(), "GET", "/two", None, TIMEOUT).unwrap().status,
            200
        );
        assert_eq!(pool.connections_opened(), 2);
    }
}
