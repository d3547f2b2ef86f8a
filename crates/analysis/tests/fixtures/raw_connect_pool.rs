//! Fixture: linted as pool.rs, the first dial is the crate's one dial
//! site and passes; a second dial in the same file is one violation.

fn dial(addr: std::net::SocketAddr) -> std::io::Result<std::net::TcpStream> {
    std::net::TcpStream::connect(addr)
}

fn second_dial(addr: std::net::SocketAddr) -> std::io::Result<std::net::TcpStream> {
    std::net::TcpStream::connect(addr)
}
