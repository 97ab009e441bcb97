//! Stateful transient-streaming sessions (`POST /v1/transient`).
//!
//! A session takes over its connection after the opening request parses:
//! the server answers with a close-delimited `application/x-ndjson`
//! stream and then speaks newline-delimited JSON in both directions.
//! Client commands:
//!
//! ```json
//! {"op": "step"}                                // one implicit-Euler step
//! {"op": "step", "steps": 25}                   // a bounded burst
//! {"op": "power", "utilization_percent": 40}    // delta-restage the rhs
//! {"op": "close"}                               // clean shutdown
//! ```
//!
//! Server events (one JSON object per line): `open` (pool hit/miss and
//! session limits), `step` (peak temperature, its exact bits, and the
//! hotspot cell), `alarm` (`thermal_runaway`, latched with hysteresis),
//! `power` (restage acknowledgement), `error` (typed, with an HTTP-style
//! status — deadline expiry is an in-band 504, never a hang), and
//! `closed` (final step/alarm counts).
//!
//! Sessions run on their connection thread — they never occupy a solver
//! worker — and are admitted against their own cap, so a fleet of idle
//! sessions cannot starve the queue.  The pooled scheme is held under a
//! [`Pinned`](crate::pool::Pinned) guard whose `Drop` returns it to the
//! LRU on clean close, abrupt disconnect, and panic unwind alike.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use tsc_bench::json::Json;
use tsc_thermal::transient::{RunawayDetector, StepHalt, StepLimits};
use tsc_units::Temperature;

use crate::api::{decode_json, TransientRequest};
use crate::http::{Request, Response};
use crate::metrics::Metrics;
use crate::pool::ServicePools;

/// Longest accepted command line (bytes), including the newline.
const MAX_COMMAND_LINE: usize = 4096;

/// Largest step burst one `{"op": "step"}` command may request.
const MAX_BURST: usize = 100_000;

/// Everything a session needs from the server, borrowed for one
/// connection's lifetime.
pub(crate) struct SessionHost<'a> {
    pub pools: &'a ServicePools,
    pub metrics: &'a Metrics,
    /// Live-session count shared with the admission cap and `/metrics`.
    pub active: &'a AtomicUsize,
    /// Admission cap: sessions beyond it are refused with a 429.
    pub cap: usize,
    /// Wall-clock budget for the whole session.
    pub deadline: Duration,
}

/// Decrements the live-session count even when the session panics.
struct ActiveGuard<'a>(&'a AtomicUsize);

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One read attempt's outcome while waiting for the next command line.
enum LineRead {
    Line(String),
    Disconnected,
    DeadlineExpired,
}

impl SessionHost<'_> {
    /// Run the session.  `leftover` is whatever the connection buffer
    /// held beyond the opening request (pipelined commands).  Always
    /// consumes the connection: the stream is close-delimited.
    pub fn serve(
        &self,
        request: &Request,
        stream: &mut TcpStream,
        leftover: &[u8],
        stopping: &dyn Fn() -> bool,
    ) {
        let req = match parse_open(request) {
            Ok(req) => req,
            Err(message) => {
                self.refuse(stream, 400, &message);
                return;
            }
        };
        let admitted = self
            .active
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < self.cap).then_some(n + 1)
            })
            .is_ok();
        if !admitted {
            self.refuse_with_retry(stream, 429, "transient session cap reached");
            return;
        }
        let _active = ActiveGuard(self.active);

        // Check out (or build) the pooled scheme and pin it: from here on
        // the state flows back to the pool on every exit path.
        let pool_id = req.session_pool_id();
        let (state, pooled) = match self.pools.transients.take(&pool_id) {
            Some(mut state) => match req.reuse_state(&mut state) {
                Ok(()) => (state, "hit"),
                Err((status, message)) => {
                    self.refuse(stream, status, &message);
                    return;
                }
            },
            None => match req.build_state() {
                Ok(state) => (state, "miss"),
                Err((status, message)) => {
                    self.refuse(stream, status, &message);
                    return;
                }
            },
        };
        let mut state = self.pools.transients.pin(pool_id, state);

        self.metrics.record_request("transient", 200);
        self.metrics.transient_sessions_total.inc();
        let head =
            "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n";
        if stream.write_all(head.as_bytes()).is_err() {
            return;
        }

        let deadline = Instant::now() + self.deadline;
        let limits = StepLimits::budget(req.max_steps).with_deadline(deadline);
        let mut detector = req
            .runaway_celsius
            .map(|c| RunawayDetector::new(Temperature::from_celsius(c)));
        let dim = state.run.dim();
        let open = Json::object()
            .field("event", "open")
            .field("design", req.solve.design.as_str())
            .field("dt_seconds", req.dt_seconds)
            .field(
                "dim",
                vec![Json::from(dim.nx), dim.ny.into(), dim.nz.into()],
            )
            .field("max_steps", req.max_steps as usize)
            .field("pool", pooled);
        if !send(stream, &open) {
            return;
        }

        let mut alarms = 0u64;
        let mut buf: Vec<u8> = leftover.to_vec();
        loop {
            let line = match self.next_line(stream, &mut buf, deadline, stopping) {
                LineRead::Line(line) => line,
                LineRead::Disconnected => return,
                LineRead::DeadlineExpired => {
                    let steps = state.run.steps_taken();
                    // Unpin first: a client that saw the terminal event
                    // must find the state back in the pool on reopen.
                    drop(state);
                    self.in_band_error(stream, 504, "session deadline expired", steps);
                    self.close_event(stream, steps, alarms);
                    return;
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            let command = match tsc_bench::json::parse(&line) {
                Ok(json) => json,
                Err(e) => {
                    let steps = state.run.steps_taken();
                    drop(state);
                    self.in_band_error(stream, 400, &format!("invalid command: {e}"), steps);
                    self.close_event(stream, steps, alarms);
                    return;
                }
            };
            match command.get("op").and_then(Json::as_str) {
                Some("close") => {
                    let steps = state.run.steps_taken();
                    drop(state);
                    self.close_event(stream, steps, alarms);
                    return;
                }
                Some("step") => {
                    let burst = command
                        .get("steps")
                        .map(|v| v.as_usize().filter(|n| (1..=MAX_BURST).contains(n)))
                        .unwrap_or(Some(1));
                    let Some(burst) = burst else {
                        let message = format!("steps must be an integer in [1, {MAX_BURST}]");
                        let steps = state.run.steps_taken();
                        drop(state);
                        self.in_band_error(stream, 400, &message, steps);
                        self.close_event(stream, steps, alarms);
                        return;
                    };
                    for _ in 0..burst {
                        if let Some(halt) = state.run.check_limits(&limits) {
                            let status = match halt {
                                StepHalt::BudgetExhausted { .. } => 429,
                                StepHalt::DeadlineExpired { .. } => 504,
                            };
                            let steps = state.run.steps_taken();
                            drop(state);
                            self.in_band_error(stream, status, &halt.to_string(), steps);
                            self.close_event(stream, steps, alarms);
                            return;
                        }
                        let started = Instant::now();
                        if let Err(e) = state.run.step() {
                            let steps = state.run.steps_taken();
                            drop(state);
                            self.in_band_error(stream, 500, &format!("step failed: {e}"), steps);
                            self.close_event(stream, steps, alarms);
                            return;
                        }
                        let us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                        self.metrics.transient_step_latency.observe_us(us);
                        self.metrics.transient_steps_total.inc();
                        let peak = state.run.peak();
                        let event = Json::object()
                            .field("event", "step")
                            .field("step", state.run.steps_taken() as usize)
                            .field("time_seconds", state.run.time_seconds())
                            .field("peak_celsius", peak.celsius())
                            .field("peak_bits", format!("{:016x}", peak.kelvin.to_bits()))
                            .field(
                                "hotspot",
                                vec![
                                    Json::from(peak.hotspot.i),
                                    peak.hotspot.j.into(),
                                    peak.hotspot.k.into(),
                                ],
                            );
                        if !send(stream, &event) {
                            return;
                        }
                        if let Some(det) = detector.as_mut() {
                            if det.observe(Temperature::from_kelvin(peak.kelvin)) {
                                alarms += 1;
                                self.metrics.transient_runaway_alarms_total.inc();
                                let alarm = Json::object()
                                    .field("event", "alarm")
                                    .field("kind", "thermal_runaway")
                                    .field("step", state.run.steps_taken() as usize)
                                    .field("threshold_celsius", det.threshold().celsius())
                                    .field("peak_celsius", peak.celsius());
                                if !send(stream, &alarm) {
                                    return;
                                }
                            }
                        }
                    }
                }
                Some("power") => {
                    let utilization = command
                        .get("utilization_percent")
                        .and_then(Json::as_f64)
                        .filter(|u| u.is_finite() && (1.0..=100.0).contains(u));
                    let Some(utilization) = utilization else {
                        let steps = state.run.steps_taken();
                        drop(state);
                        self.in_band_error(
                            stream,
                            400,
                            "utilization_percent must be a number in [1, 100]",
                            steps,
                        );
                        self.close_event(stream, steps, alarms);
                        return;
                    };
                    if let Err((status, message)) = req.set_power(&mut state, utilization) {
                        let steps = state.run.steps_taken();
                        drop(state);
                        self.in_band_error(stream, status, &message, steps);
                        self.close_event(stream, steps, alarms);
                        return;
                    }
                    let ack = Json::object()
                        .field("event", "power")
                        .field("utilization_percent", utilization)
                        .field("step", state.run.steps_taken() as usize);
                    if !send(stream, &ack) {
                        return;
                    }
                }
                _ => {
                    let steps = state.run.steps_taken();
                    drop(state);
                    self.in_band_error(stream, 400, "unknown op (step | power | close)", steps);
                    self.close_event(stream, steps, alarms);
                    return;
                }
            }
        }
    }

    /// Wait for the next newline-terminated command, respecting the
    /// session deadline and server shutdown.  The stream's 200 ms read
    /// timeout (set by the connection driver) paces the checks.
    fn next_line(
        &self,
        stream: &mut TcpStream,
        buf: &mut Vec<u8>,
        deadline: Instant,
        stopping: &dyn Fn() -> bool,
    ) -> LineRead {
        let mut chunk = [0u8; 1024];
        loop {
            if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = buf.drain(..=pos).collect();
                return match String::from_utf8(line) {
                    Ok(line) => LineRead::Line(line),
                    Err(_) => LineRead::Line(String::new()), // forces a 400
                };
            }
            if buf.len() > MAX_COMMAND_LINE {
                // Treat an unbounded line like a disconnect-worthy parse
                // error: surface it in-band, then bail.
                return LineRead::Line("\u{0}oversized".to_string());
            }
            if Instant::now() >= deadline || stopping() {
                return LineRead::DeadlineExpired;
            }
            match stream.read(&mut chunk) {
                Ok(0) => return LineRead::Disconnected,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(_) => return LineRead::Disconnected,
            }
        }
    }

    /// Refuse the session before streaming starts, with a plain HTTP
    /// response.
    fn refuse(&self, stream: &mut TcpStream, status: u16, message: &str) {
        self.metrics.record_request("transient", status);
        let response = Response::error(status, message).with_close();
        let _ = stream.write_all(&response.to_bytes());
    }

    fn refuse_with_retry(&self, stream: &mut TcpStream, status: u16, message: &str) {
        self.metrics.record_request("transient", status);
        let response = Response::error(status, message)
            .with_retry_after(1)
            .with_close();
        let _ = stream.write_all(&response.to_bytes());
    }

    /// Emit a typed in-band error event (the streaming-phase analogue of
    /// an HTTP error status).
    fn in_band_error(&self, stream: &mut TcpStream, status: u16, message: &str, steps: u64) {
        self.metrics.transient_session_errors_total.inc();
        let event = Json::object()
            .field("event", "error")
            .field("status", status as usize)
            .field("error", message)
            .field("step", steps as usize);
        let _ = send(stream, &event);
    }

    fn close_event(&self, stream: &mut TcpStream, steps: u64, alarms: u64) {
        let event = Json::object()
            .field("event", "closed")
            .field("steps", steps as usize)
            .field("alarms", alarms as usize);
        let _ = send(stream, &event);
    }
}

/// Parse the opening request body into a [`TransientRequest`].
fn parse_open(request: &Request) -> Result<TransientRequest, String> {
    decode_json(&request.body).and_then(|json| TransientRequest::parse(&json))
}

/// Write one event line; `false` means the client is gone.
fn send(stream: &mut TcpStream, event: &Json) -> bool {
    let mut line = event.compact();
    line.push('\n');
    stream.write_all(line.as_bytes()).is_ok()
}
