//! Minimal std-only keep-alive HTTP/1.1 client.
//!
//! The consumer side of the serving tier, shared by the shard router
//! (`tsc-serve` proxies requests to its backends through this), the
//! load generator, and the integration tests.  Living in `tsc-bench`
//! keeps the dependency direction acyclic, the same reason [`crate::prom`]
//! lives here.
//!
//! Error taxonomy matters to the router: [`ClientError::Io`] and
//! [`ClientError::Timeout`] are *retryable* (the backend may be dead or
//! overloaded — try another shard), while [`ClientError::Malformed`]
//! means the peer spoke, but not HTTP — a bad gateway, not a candidate
//! for blind retry.
//!
//! A client is one kept-alive connection: the router parks idle clients
//! per shard and reuses them.  A reused connection the peer closed while
//! idle fails with [`ClientError::Io`] before any response byte arrives
//! ([`HttpClient::response_started`] is then false), which is the
//! router's cue to redial rather than to treat the shard as dead.
//!
//! Each request goes out as a single write (head and body in one
//! buffer): with `TCP_NODELAY` on, two writes become two segments, and
//! the server would parse a partial head and sleep again before the
//! body arrived.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Hard cap on a buffered response (head + body).  A peer that streams
/// more than this without completing a response is treated as malformed
/// rather than buffered without bound.
pub const MAX_RESPONSE_BYTES: usize = 8 * 1024 * 1024;

/// Why a request failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientError {
    /// Socket-level failure: connect refused, write failed, or the peer
    /// closed before a complete response.  Retryable.
    Io,
    /// The response deadline elapsed.  Retryable (elsewhere).
    Timeout,
    /// The peer sent bytes that cannot parse as an HTTP/1.1 response
    /// (or overflowed [`MAX_RESPONSE_BYTES`]).  Not retryable.
    Malformed,
}

/// A parsed response.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    pub status: u16,
    /// The raw head (status line + headers, without the blank line).
    pub head: String,
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// Case-insensitive header lookup, trimmed value.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.head.lines().skip(1).find_map(|line| {
            let (k, v) = line.split_once(':')?;
            k.trim().eq_ignore_ascii_case(name).then_some(v.trim())
        })
    }

    /// The body decoded as UTF-8 (lossily — the serving tier only emits
    /// UTF-8, so replacement characters mark a misbehaving peer, which
    /// the JSON layer then rejects).
    #[must_use]
    pub fn body_string(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Whether the server asked for the connection to be closed.
    #[must_use]
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// A keep-alive connection.  Not thread-safe; one per caller.
pub struct HttpClient {
    stream: TcpStream,
    buf: Vec<u8>,
    deadline: Duration,
}

impl HttpClient {
    /// Connect with a bounded connect timeout.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the connect fails or times out.
    pub fn connect(addr: SocketAddr, connect_timeout: Duration) -> Result<Self, ClientError> {
        let stream =
            TcpStream::connect_timeout(&addr, connect_timeout).map_err(|_| ClientError::Io)?;
        // Short poll interval so the response deadline is enforced even
        // against a silent peer.
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .map_err(|_| ClientError::Io)?;
        // Never let Nagle + delayed ACK hold a request back ~40 ms on a
        // kept-alive connection.
        stream.set_nodelay(true).map_err(|_| ClientError::Io)?;
        Ok(HttpClient {
            stream,
            buf: Vec::new(),
            deadline: Duration::from_secs(300),
        })
    }

    /// Builder: response deadline (default 300 s — a cold solve).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Issue one request and read the complete response.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> Result<HttpResponse, ClientError> {
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: tsc\r\n");
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
        let mut message = head.into_bytes();
        message.extend_from_slice(body);
        self.stream
            .write_all(&message)
            .map_err(|_| ClientError::Io)?;
        self.read_response()
    }

    /// Whether any byte of the last request's response arrived.  After a
    /// [`ClientError::Io`] this tells a peer that closed the connection
    /// before answering (false) from one that died mid-response (true).
    #[must_use]
    pub fn response_started(&self) -> bool {
        !self.buf.is_empty()
    }

    fn read_response(&mut self) -> Result<HttpResponse, ClientError> {
        let started = Instant::now();
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match parse_response(&self.buf) {
                ParseOutcome::Complete(resp, consumed) => {
                    self.buf.drain(..consumed);
                    return Ok(resp);
                }
                ParseOutcome::Malformed => return Err(ClientError::Malformed),
                ParseOutcome::Incomplete => {}
            }
            if self.buf.len() > MAX_RESPONSE_BYTES {
                return Err(ClientError::Malformed);
            }
            if started.elapsed() > self.deadline {
                return Err(ClientError::Timeout);
            }
            match self.stream.read(&mut chunk) {
                // Clean close: bytes that never completed a response are
                // a malformed peer; an empty buffer is an I/O-level close.
                Ok(0) => {
                    return Err(if self.buf.is_empty() {
                        ClientError::Io
                    } else {
                        ClientError::Malformed
                    })
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(_) => return Err(ClientError::Io),
            }
        }
    }
}

enum ParseOutcome {
    Complete(HttpResponse, usize),
    Incomplete,
    Malformed,
}

/// Incremental HTTP/1.1 response parser over a byte buffer.
fn parse_response(buf: &[u8]) -> ParseOutcome {
    const HEAD_CAP: usize = 64 * 1024;
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4) else {
        return if buf.len() > HEAD_CAP {
            ParseOutcome::Malformed
        } else {
            ParseOutcome::Incomplete
        };
    };
    let Ok(head) = std::str::from_utf8(&buf[..head_end - 4]) else {
        return ParseOutcome::Malformed;
    };
    if !head.starts_with("HTTP/1.") {
        return ParseOutcome::Malformed;
    }
    let Some(status) = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .filter(|s| (100..=599).contains(s))
    else {
        return ParseOutcome::Malformed;
    };
    let mut content_length = 0usize;
    for line in head.lines().skip(1) {
        let Some((k, v)) = line.split_once(':') else {
            return ParseOutcome::Malformed;
        };
        if k.trim().eq_ignore_ascii_case("content-length") {
            match v.trim().parse::<usize>() {
                Ok(n) if n <= MAX_RESPONSE_BYTES => content_length = n,
                _ => return ParseOutcome::Malformed,
            }
        }
    }
    let total = head_end + content_length;
    if buf.len() < total {
        return ParseOutcome::Incomplete;
    }
    ParseOutcome::Complete(
        HttpResponse {
            status,
            head: head.to_string(),
            body: buf[head_end..total].to_vec(),
        },
        total,
    )
}

/// One request on a fresh connection.
///
/// # Errors
///
/// See [`ClientError`].
pub fn one_shot(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> Result<HttpResponse, ClientError> {
    HttpClient::connect(addr, Duration::from_secs(5))?.request(method, path, headers, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    fn serve_bytes(bytes: &'static [u8]) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        thread::spawn(move || {
            if let Ok((mut sock, _)) = listener.accept() {
                // Drain the request head so the client write never blocks.
                let mut sink = [0u8; 4096];
                let _ = std::io::Read::read(&mut sock, &mut sink);
                let _ = sock.write_all(bytes);
            }
        });
        addr
    }

    #[test]
    fn round_trips_a_complete_response() {
        let addr = serve_bytes(
            b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 5\r\n\r\nhello",
        );
        let resp = one_shot(addr, "GET", "/x", &[], b"").expect("response");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"hello");
        assert_eq!(resp.header("content-type"), Some("text/plain"));
        assert_eq!(resp.header("Content-Type"), Some("text/plain"));
        assert!(!resp.wants_close());
    }

    #[test]
    fn garbage_response_is_malformed_not_a_hang() {
        let addr = serve_bytes(b"not http at all\r\n\r\n");
        assert_eq!(
            one_shot(addr, "GET", "/x", &[], b"").unwrap_err(),
            ClientError::Malformed
        );
    }

    #[test]
    fn truncated_body_then_close_is_malformed() {
        let addr = serve_bytes(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nshort");
        assert_eq!(
            one_shot(addr, "GET", "/x", &[], b"").unwrap_err(),
            ClientError::Malformed
        );
    }

    #[test]
    fn immediate_close_is_an_io_error() {
        let addr = serve_bytes(b"");
        assert_eq!(
            one_shot(addr, "GET", "/x", &[], b"").unwrap_err(),
            ClientError::Io
        );
    }

    #[test]
    fn refused_connection_is_an_io_error() {
        // Bind then drop to find a (very likely) unused port.
        let addr = TcpListener::bind("127.0.0.1:0")
            .expect("bind")
            .local_addr()
            .expect("addr");
        assert_eq!(
            one_shot(addr, "GET", "/x", &[], b"").unwrap_err(),
            ClientError::Io
        );
    }

    #[test]
    fn silent_peer_times_out() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let _keep = thread::spawn(move || {
            let _sock = listener.accept();
            thread::sleep(Duration::from_secs(2));
        });
        let mut client = HttpClient::connect(addr, Duration::from_secs(1))
            .expect("connect")
            .with_deadline(Duration::from_millis(200));
        assert_eq!(
            client.request("GET", "/x", &[], b"").unwrap_err(),
            ClientError::Timeout
        );
    }

    #[test]
    fn oversized_content_length_is_malformed() {
        let addr = serve_bytes(b"HTTP/1.1 200 OK\r\nContent-Length: 999999999999\r\n\r\n");
        assert_eq!(
            one_shot(addr, "GET", "/x", &[], b"").unwrap_err(),
            ClientError::Malformed
        );
    }

    #[test]
    fn head_and_body_arrive_in_one_read() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = thread::spawn(move || {
            let (mut sock, _) = listener.accept().expect("accept");
            // Read exactly once: a request sent as one write arrives whole.
            let mut buf = [0u8; 8192];
            let n = std::io::Read::read(&mut sock, &mut buf).expect("read");
            sock.write_all(b"HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\n")
                .expect("reply");
            buf[..n].to_vec()
        });
        let body = br#"{"design": "gemmini-memory", "tiers": 2}"#;
        let mut client = HttpClient::connect(addr, Duration::from_secs(1)).expect("connect");
        let resp = client
            .request("POST", "/v1/solve", &[("x-priority", "high")], body)
            .expect("response");
        assert_eq!(resp.status, 204);
        assert!(
            !client.response_started(),
            "a complete response is consumed"
        );
        let received = server.join().expect("server thread");
        let text = String::from_utf8(received).expect("utf-8 request");
        assert!(text.starts_with("POST /v1/solve HTTP/1.1\r\n"), "{text:?}");
        assert!(text.contains("x-priority: high\r\n"), "{text:?}");
        assert!(
            text.ends_with(std::str::from_utf8(body).unwrap()),
            "one read holds head and body: {text:?}"
        );
    }

    #[test]
    fn close_before_any_response_byte_is_distinguishable() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = thread::spawn(move || {
            let (mut sock, _) = listener.accept().expect("accept");
            let mut sink = [0u8; 4096];
            let _ = std::io::Read::read(&mut sock, &mut sink);
            sock.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                .expect("first reply");
            // Close while idle, as a server's idle timeout does.
        });
        let mut client = HttpClient::connect(addr, Duration::from_secs(1)).expect("connect");
        assert_eq!(
            client.request("GET", "/a", &[], b"").expect("first").body,
            b"ok"
        );
        server.join().expect("server thread");
        assert_eq!(
            client.request("GET", "/b", &[], b"").unwrap_err(),
            ClientError::Io
        );
        assert!(!client.response_started());
    }

    #[test]
    fn connection_close_header_is_reported() {
        let addr =
            serve_bytes(b"HTTP/1.1 503 Service Unavailable\r\nConnection: close\r\nRetry-After: 2\r\nContent-Length: 0\r\n\r\n");
        let resp = one_shot(addr, "GET", "/x", &[], b"").expect("response");
        assert_eq!(resp.status, 503);
        assert!(resp.wants_close());
        assert_eq!(resp.header("retry-after"), Some("2"));
    }
}
