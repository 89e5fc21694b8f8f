//! The benchmark's own HTTP/1.1 client. It behaves as curl does: the socket
//! has `TCP_NODELAY` set and each request leaves in a single write. The
//! program's `qof_server::Client` is deliberately not used, so a change that
//! helps only that client shows no gain here.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub struct HttpClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

/// One completed exchange.
pub struct Exchange {
    pub status: u16,
    pub body: String,
    /// Header and body bytes read.
    pub bytes: usize,
    /// Time spent in the request write.
    pub write: Duration,
    /// From the start of the request write to the last response byte read.
    pub latency: Duration,
}

impl HttpClient {
    pub fn connect(addr: SocketAddr) -> std::io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(HttpClient { stream, reader })
    }

    /// Sends `method path` with `body` on the keep-alive connection and
    /// reads the whole response.
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> Result<Exchange, String> {
        let mut req = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        req.extend_from_slice(body.as_bytes());
        let started = Instant::now();
        self.stream.write_all(&req).map_err(|e| format!("write request: {e}"))?;
        let write = started.elapsed();
        let mut line = String::new();
        let mut bytes =
            self.reader.read_line(&mut line).map_err(|e| format!("read status: {e}"))?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {line:?}"))?;
        let mut length = None;
        loop {
            let mut h = String::new();
            let n = self.reader.read_line(&mut h).map_err(|e| format!("read header: {e}"))?;
            if n == 0 {
                return Err("connection closed inside the headers".into());
            }
            bytes += n;
            let h = h.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((k, v)) = h.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    length = v.trim().parse::<usize>().ok();
                }
            }
        }
        let length = length.ok_or("response has no Content-Length")?;
        let mut buf = vec![0u8; length];
        self.reader.read_exact(&mut buf).map_err(|e| format!("read body: {e}"))?;
        let latency = started.elapsed();
        bytes += length;
        let body = String::from_utf8(buf).map_err(|_| "response body is not UTF-8".to_owned())?;
        Ok(Exchange { status, body, bytes, write, latency })
    }
}
