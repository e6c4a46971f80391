//! A blocking HTTP/1.1 client for the closed loop: one connection per
//! request (the server answers `Connection: close`), timed from connect
//! to the last response byte.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A complete response.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    /// Connect → last byte read.
    pub elapsed: Duration,
}

/// Sends `wire` and reads the whole response.
pub fn call(addr: SocketAddr, wire: &[u8]) -> io::Result<Reply> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(wire)?;
    let mut raw = Vec::with_capacity(4096);
    stream.read_to_end(&mut raw)?;
    let elapsed = start.elapsed();
    let (status, body) = split_response(&raw)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response"))?;
    Ok(Reply {
        status,
        body: body.to_vec(),
        elapsed,
    })
}

/// `(status, body)` of a raw `HTTP/1.1 <code> ...\r\n...\r\n\r\n<body>`.
fn split_response(raw: &[u8]) -> Option<(u16, &[u8])> {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(raw.get(..head_end)?).ok()?;
    let status = head.split(' ').nth(1)?.parse().ok()?;
    Some((status, raw.get(head_end + 4..)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_status_and_body() {
        let raw = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\n{}";
        assert_eq!(split_response(raw), Some((200, &b"{}"[..])));
        assert_eq!(split_response(b"HTTP/1.1 200 OK\r\n"), None);
    }
}
