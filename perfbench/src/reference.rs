//! Reference work that does not touch the repository's code: how fast
//! the machine is at the moment, measured in between a workload's
//! operations.
//!
//! The host's speed drifts by tens of percent over minutes, and every
//! timing drifts with it. A workload divides its timings by a reference
//! timing taken in among the same operations, which cancels that drift
//! and leaves the cost of the program relative to plain work of the same
//! kind: CPU-bound work for the campaign, loopback TCP round trips for
//! the proxied reads.

use std::io::{Read, Write};
use std::net::{Ipv4Addr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Wall time of a fixed CPU-bound kernel run on `threads` threads at
/// once (the slowest thread's time): integer mixing and sorting over a
/// working set that fits in the L2 cache.
pub fn compute(threads: usize) -> Duration {
    let t = Instant::now();
    std::thread::scope(|scope| {
        for k in 0..threads {
            scope.spawn(move || {
                let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ k as u64;
                let mut v = vec![0u64; 8192];
                for _ in 0..8 {
                    for e in v.iter_mut() {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        *e = x;
                    }
                    v.sort_unstable();
                }
                std::hint::black_box(v[17])
            });
        }
    });
    t.elapsed()
}

/// Bytes each way per round trip.
const MESSAGE: usize = 128;

/// A loopback TCP connection to an echo thread: the kernel's socket
/// path with nothing of the program on it.
pub struct Loopback {
    stream: TcpStream,
    echo: Option<JoinHandle<()>>,
}

impl Loopback {
    /// Connects to a new echo thread.
    pub fn open() -> std::io::Result<Self> {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
        let stream = TcpStream::connect(listener.local_addr()?)?;
        stream.set_nodelay(true)?;
        let (mut peer, _) = listener.accept()?;
        peer.set_nodelay(true)?;
        let echo = std::thread::spawn(move || {
            let mut buf = [0u8; MESSAGE];
            while peer.read_exact(&mut buf).is_ok() && peer.write_all(&buf).is_ok() {}
        });
        Ok(Self { stream, echo: Some(echo) })
    }

    /// Times one round trip.
    pub fn round_trip(&mut self) -> std::io::Result<Duration> {
        let mut buf = [7u8; MESSAGE];
        let t = Instant::now();
        self.stream.write_all(&buf)?;
        self.stream.read_exact(&mut buf)?;
        Ok(t.elapsed())
    }
}

impl Drop for Loopback {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}
