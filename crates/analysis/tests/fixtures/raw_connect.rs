//! Fixture: one raw dial in the service crate (one violation; none as
//! pool.rs, whose first dial is the allowed site) plus a suppressed one.

fn dial(addr: std::net::SocketAddr) -> std::io::Result<std::net::TcpStream> {
    std::net::TcpStream::connect(addr)
}

fn dial_with_deadline(addr: std::net::SocketAddr) -> std::io::Result<std::net::TcpStream> {
    // lint:allow(no-raw-connect-in-router)
    std::net::TcpStream::connect_timeout(&addr, std::time::Duration::from_secs(1))
}
