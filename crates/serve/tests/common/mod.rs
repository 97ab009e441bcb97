//! Shared raw-TCP test client for the serve integration suites.
//!
//! Deliberately independent of the server's own HTTP code: responses are
//! parsed with a separate minimal reader so a server-side framing bug
//! cannot cancel out in the tests.

// Each integration-test binary compiles this module separately, and not
// every suite uses every helper (the transient suite only needs request
// formatting — its NDJSON framing is incompatible with `TestClient`).
#![allow(dead_code)]

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use tsc_bench::json::{self, Json};

/// A parsed response.  Shared across suites; not every suite reads every
/// field.
#[derive(Debug)]
pub struct TestResponse {
    pub status: u16,
    #[allow(dead_code)]
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl TestResponse {
    #[allow(dead_code)]
    pub fn header(&self, name: &str) -> Option<&str> {
        let want = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| k.to_ascii_lowercase() == want)
            .map(|(_, v)| v.as_str())
    }

    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// One persistent connection; supports several requests (keep-alive) and
/// reading multiple pipelined responses.
pub struct TestClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl TestClient {
    pub fn connect(addr: SocketAddr) -> TestClient {
        let stream = TcpStream::connect(addr).expect("connect to test server");
        stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .expect("set read timeout");
        TestClient {
            stream,
            buf: Vec::new(),
        }
    }

    pub fn send_raw(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("write request");
    }

    /// Half-close the write side (simulates a client that truncates).
    /// Shared across suites; not every suite exercises truncation.
    #[allow(dead_code)]
    pub fn shutdown_write(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
    }

    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> TestResponse {
        self.send_raw(&format_request(method, path, headers, body));
        self.read_response(Duration::from_secs(120))
            .expect("response within deadline")
    }

    /// Read one response, waiting at most `deadline` for completion.
    /// `None` if the server closed the connection without a (complete)
    /// response or the deadline passed.
    pub fn read_response(&mut self, deadline: Duration) -> Option<TestResponse> {
        let start = Instant::now();
        let mut chunk = [0u8; 4096];
        loop {
            if let Some((response, consumed)) = try_parse_response(&self.buf) {
                self.buf.drain(..consumed);
                return Some(response);
            }
            if start.elapsed() > deadline {
                return None;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return None,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(_) => return None,
            }
        }
    }
}

pub fn format_request(method: &str, path: &str, headers: &[(&str, &str)], body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(format!("{method} {path} HTTP/1.1\r\nHost: test\r\n").as_bytes());
    for (k, v) in headers {
        out.extend_from_slice(format!("{k}: {v}\r\n").as_bytes());
    }
    if !body.is_empty() || method == "POST" {
        out.extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    out
}

fn try_parse_response(buf: &[u8]) -> Option<(TestResponse, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end - 4]).ok()?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next()?;
    let status: u16 = status_line.split(' ').nth(1)?.parse().ok()?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|line| {
            let (k, v) = line.split_once(':')?;
            Some((k.trim().to_string(), v.trim().to_string()))
        })
        .collect();
    let content_length: usize = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0);
    let total = head_end + content_length;
    if buf.len() < total {
        return None;
    }
    Some((
        TestResponse {
            status,
            headers,
            body: buf[head_end..total].to_vec(),
        },
        total,
    ))
}

/// One-shot request on a fresh connection.
pub fn one_shot(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> TestResponse {
    TestClient::connect(addr).request(method, path, headers, body)
}

/// A raw NDJSON client for `/v1/transient` streaming sessions.
/// `TestClient` cannot read these: the stream is close-delimited, not
/// `Content-Length`-framed.
pub struct SessionClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl SessionClient {
    /// Connect and send the opening `POST /v1/transient`.
    pub fn open(addr: SocketAddr, body: &str, headers: &[(&str, &str)]) -> SessionClient {
        Self::open_raw(addr, "POST", "/v1/transient", headers, body.as_bytes())
    }

    /// Connect and send an arbitrary stream-opening request (the jobs
    /// suite uses `GET /v1/jobs/{id}/events`).
    pub fn open_raw(
        addr: SocketAddr,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> SessionClient {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .expect("read timeout");
        let request = format_request(method, path, headers, body);
        stream.write_all(&request).expect("send open request");
        SessionClient {
            stream,
            buf: Vec::new(),
        }
    }

    fn fill(&mut self, deadline: Duration, until: impl Fn(&[u8]) -> Option<usize>) -> Vec<u8> {
        let start = Instant::now();
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(end) = until(&self.buf) {
                return self.buf.drain(..end).collect();
            }
            assert!(
                start.elapsed() < deadline,
                "no data within {deadline:?}; buffered: {:?}",
                String::from_utf8_lossy(&self.buf)
            );
            match self.stream.read(&mut chunk) {
                Ok(0) => panic!(
                    "server closed early; buffered: {:?}",
                    String::from_utf8_lossy(&self.buf)
                ),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(e) => panic!("read failed: {e}"),
            }
        }
    }

    /// Read the HTTP response head; returns the status code.
    pub fn read_head(&mut self, deadline: Duration) -> u16 {
        let head = self.fill(deadline, |buf| {
            buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
        });
        let text = String::from_utf8_lossy(&head);
        let status = text
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line: {text:?}"));
        if status == 200 {
            assert!(
                text.to_ascii_lowercase().contains("application/x-ndjson"),
                "streaming head must advertise NDJSON: {text:?}"
            );
        }
        status
    }

    pub fn send(&mut self, line: &str) {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("send command");
    }

    /// Read the next event line as JSON.
    pub fn next_event(&mut self, deadline: Duration) -> Json {
        let line = self.fill(deadline, |buf| {
            buf.iter().position(|&b| b == b'\n').map(|p| p + 1)
        });
        let text = String::from_utf8(line).expect("event is UTF-8");
        json::parse(text.trim()).unwrap_or_else(|e| panic!("bad event {text:?}: {e}"))
    }

    /// True once the server closes the stream (close-delimited framing).
    pub fn at_eof(&mut self, deadline: Duration) -> bool {
        let start = Instant::now();
        let mut chunk = [0u8; 256];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return true,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(_) => return true,
            }
            if start.elapsed() > deadline {
                return false;
            }
        }
    }
}

/// Extract a required string field from a session event.
pub fn field_str(event: &Json, key: &str) -> String {
    event
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing {key:?} in {}", event.pretty()))
        .to_string()
}

/// Extract a required numeric field from a session event.
pub fn field_num(event: &Json, key: &str) -> f64 {
    event
        .get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing {key:?} in {}", event.pretty()))
}

/// The `event` discriminator of a session event.
pub fn event_kind(event: &Json) -> String {
    field_str(event, "event")
}

/// `tsc_requests_total{endpoint, status}` as the server's own exposition
/// reports it; 0 while the series is absent (zero counters are not
/// rendered).
pub fn requests_for(metrics: &tsc_serve::Metrics, endpoint: &str, status: u16) -> u64 {
    let series = format!("tsc_requests_total{{endpoint=\"{endpoint}\",status=\"{status}\"}} ");
    metrics
        .render()
        .lines()
        .find_map(|line| line.strip_prefix(series.as_str()))
        .map_or(0, |n| n.trim().parse().expect("counter value"))
}
