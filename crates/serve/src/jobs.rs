//! The `/v1/jobs` service surface: optimization-as-a-service.
//!
//! Long-running searches (parallel-tempered SA floorplanning, the
//! Fig. 12b dielectric sweep, Sec. IIIA pillar placement) run as
//! **step-sliced jobs** behind a scheduler that is distinct from the
//! request queue:
//!
//! * `POST /v1/jobs` admits a [`tsc_jobs::JobSpec`] into the bounded
//!   [`tsc_jobs::JobTable`] (202 with the job id, 429 when full) —
//!   admission never touches the solve queue, so a job flood cannot
//!   displace interactive traffic;
//! * a **pump** thread (see `server::jobs_pump`) promotes queued jobs
//!   within per-class quotas, checks out independent work slices, and
//!   enqueues them at [`Priority::Background`](crate::queue::Priority)
//!   so workers interleave them with (and always behind) request
//!   traffic;
//! * `GET /v1/jobs/{id}` polls typed status/progress/partial-best,
//!   `GET /v1/jobs/{id}/events` streams the buffered progress events as
//!   NDJSON (the same close-delimited framing transient sessions use),
//!   `POST /v1/jobs/{id}/cancel` cancels cooperatively, and
//!   `GET /v1/jobs/{id}/checkpoint` returns the resume token a client
//!   re-submits (`"resume": …`) to continue bitwise-identically after a
//!   drain;
//! * results persist until TTL eviction.
//!
//! The table lock ranks at [`rank::JOB_TABLE`], above the admission
//! queue: the pump may enqueue while holding it, never the reverse.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Condvar;
use std::time::{Duration, Instant};

use tsc_bench::json::Json;
use tsc_jobs::{JobSpec, JobTable, SubmitError, TableConfig};

use crate::api::decode_json;
use crate::http::{Request, Response};
use crate::locks::{rank, RankedMutex};
use crate::metrics::Metrics;

/// Poll pacing for `/events` streams between condvar wakeups.
const EVENTS_TICK: Duration = Duration::from_millis(100);

/// The job table plus the condvar the pump and event streams sleep on.
pub(crate) struct JobsHost {
    pub table: RankedMutex<JobTable>,
    /// Notified on submissions, completions, and cancellations.
    pub changed: Condvar,
}

impl JobsHost {
    pub fn new(config: TableConfig, id_seed: u64) -> Self {
        JobsHost {
            table: RankedMutex::new(
                JobTable::new(config, id_seed),
                rank::JOB_TABLE,
                "JobsHost.table",
            ),
            changed: Condvar::new(),
        }
    }

    /// Wakes the pump and any `/events` streams.
    pub fn notify(&self) {
        self.changed.notify_all();
    }

    /// Mirrors the table's gauges and lifetime counters into the
    /// registry.  Counters advance monotonically (`advance_to`): live
    /// jobs contribute their running evaluation totals, which migrate
    /// into the table's terminal counters when they finish.
    pub fn sync_metrics(&self, metrics: &Metrics) {
        let table = self.table.lock();
        let (running, queued) = table.load();
        let counters = table.counters();
        let mut live_evals = 0u64;
        let mut live_dedup = 0u64;
        for entry in table.entries() {
            if !entry.state.is_terminal() {
                let progress = entry.engine.progress();
                live_evals += progress.evals;
                live_dedup += progress.dedup_hits;
            }
        }
        drop(table);
        metrics.jobs_active.set(running as i64);
        metrics.jobs_queued.set(queued as i64);
        metrics.jobs_completed_total.advance_to(counters.done);
        metrics.jobs_failed_total.advance_to(counters.failed);
        metrics.jobs_cancelled_total.advance_to(counters.cancelled);
        metrics.jobs_evicted_total.advance_to(counters.evicted);
        metrics
            .job_evals_total
            .advance_to(counters.evals + live_evals);
        metrics
            .job_dedup_hits_total
            .advance_to(counters.dedup_hits + live_dedup);
    }
}

/// Splits `/v1/jobs/{16-hex-id}[/action]` into `(id, action)`.
fn parse_path(path: &str) -> Option<(u64, &str)> {
    let rest = path.strip_prefix("/v1/jobs/")?;
    let (id_part, tail) = match rest.find('/') {
        Some(pos) => (&rest[..pos], &rest[pos + 1..]),
        None => (rest, ""),
    };
    if id_part.len() != 16 {
        return None;
    }
    let id = u64::from_str_radix(id_part, 16).ok()?;
    Some((id, tail))
}

/// `POST /v1/jobs` — parse, validate, and admit a job spec.
pub(crate) fn submit(host: &JobsHost, metrics: &Metrics, request: &Request) -> Response {
    let spec = match decode_json(&request.body).and_then(|body| JobSpec::parse(&body)) {
        Ok(spec) => spec,
        Err(message) => return Response::error(400, &message),
    };
    let outcome = {
        let mut table = host.table.lock();
        table.submit(&spec, Instant::now())
    };
    match outcome {
        Ok(id) => {
            metrics.jobs_submitted_total.inc();
            host.notify();
            let body = Json::object()
                .field("id", format!("{id:016x}"))
                .field("kind", spec.kind.label())
                .field("state", "queued")
                .pretty();
            Response::json(202, body)
        }
        Err(SubmitError::TableFull) => {
            metrics.jobs_rejected_table_full_total.inc();
            Response::error(429, "job table full").with_retry_after(1)
        }
        Err(SubmitError::BadSpec(message)) => Response::error(400, &message),
    }
}

/// Routes `/v1/jobs/{id}[/action]` requests that are not streamed.
pub(crate) fn route_entry(
    host: &JobsHost,
    metrics: &Metrics,
    method: &str,
    path: &str,
) -> Response {
    let Some((id, tail)) = parse_path(path) else {
        return Response::error(404, "no such job");
    };
    match (method, tail) {
        ("GET", "") => status(host, id),
        ("POST", "cancel") => cancel(host, metrics, id),
        ("GET", "checkpoint") => checkpoint(host, id),
        // `GET …/events` is consumed before routing (it takes over the
        // connection); reaching here means a non-GET method.
        (_, "" | "cancel" | "checkpoint" | "events") => Response::error(405, "method not allowed"),
        _ => Response::error(404, "no such job action"),
    }
}

/// `GET /v1/jobs/{id}` — the typed status document.
fn status(host: &JobsHost, id: u64) -> Response {
    let table = host.table.lock();
    match table.get(id) {
        Some(entry) => Response::json(200, entry.status().pretty()),
        None => Response::error(404, "no such job"),
    }
}

/// `GET /v1/jobs/{id}/checkpoint` — the resume token.
fn checkpoint(host: &JobsHost, id: u64) -> Response {
    let table = host.table.lock();
    let Some(entry) = table.get(id) else {
        return Response::error(404, "no such job");
    };
    let doc = Json::object()
        .field("id", format!("{id:016x}"))
        .field("kind", entry.engine.kind().label())
        .field("state", entry.state.label())
        .field("checkpoint", entry.engine.checkpoint());
    Response::json(200, doc.pretty())
}

/// `POST /v1/jobs/{id}/cancel` — cooperative cancellation.
fn cancel(host: &JobsHost, metrics: &Metrics, id: u64) -> Response {
    let state = {
        let mut table = host.table.lock();
        table.cancel(id, Instant::now())
    };
    match state {
        Some(state) => {
            host.notify();
            host.sync_metrics(metrics);
            let body = Json::object()
                .field("id", format!("{id:016x}"))
                .field("state", state.label())
                .pretty();
            Response::json(200, body)
        }
        None => Response::error(404, "no such job"),
    }
}

/// `GET /v1/jobs/{id}/events` — stream buffered progress events as
/// close-delimited NDJSON, then a final `{"event": "end"}` line once the
/// job reaches a terminal state.
pub(crate) fn stream_events(
    host: &JobsHost,
    metrics: &Metrics,
    path: &str,
    stream: &mut TcpStream,
    deadline: Duration,
    stopping: &dyn Fn() -> bool,
) {
    let id = match parse_path(path) {
        Some((id, "events")) => id,
        _ => {
            refuse(metrics, stream, 404, "no such job");
            return;
        }
    };
    if host.table.lock().get(id).is_none() {
        refuse(metrics, stream, 404, "no such job");
        return;
    }
    metrics.record_request("jobs", 200);
    let head = "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n";
    if stream.write_all(head.as_bytes()).is_err() {
        return;
    }
    let expires = Instant::now() + deadline;
    let mut cursor = 0usize;
    loop {
        let mut batch: Vec<Json> = Vec::new();
        let mut terminal = None;
        let mut evicted = false;
        {
            let table = host.table.lock();
            match table.get(id) {
                Some(entry) => {
                    if cursor < entry.events.len() {
                        batch.extend(entry.events[cursor..].iter().cloned());
                        cursor = entry.events.len();
                    }
                    if entry.state.is_terminal() {
                        terminal = Some(entry.state);
                    }
                }
                None => evicted = true,
            }
        }
        if evicted {
            let _ = send(stream, &in_band(410, "job evicted"));
            return;
        }
        for event in &batch {
            if !send(stream, event) {
                return;
            }
        }
        if let Some(state) = terminal {
            let _ = send(
                stream,
                &Json::object()
                    .field("event", "end")
                    .field("state", state.label()),
            );
            return;
        }
        if stopping() {
            let _ = send(stream, &in_band(503, "server shutting down"));
            return;
        }
        if Instant::now() >= expires {
            let _ = send(stream, &in_band(504, "stream deadline expired"));
            return;
        }
        let guard = host.table.lock();
        let (guard, _timed_out) = guard.wait_timeout(&host.changed, EVENTS_TICK);
        drop(guard);
    }
}

/// A typed in-band error event (the streaming analogue of an HTTP
/// error status).
fn in_band(status: u16, message: &str) -> Json {
    Json::object()
        .field("event", "error")
        .field("status", status as usize)
        .field("error", message)
}

/// Refuses the stream before NDJSON framing starts.
fn refuse(metrics: &Metrics, stream: &mut TcpStream, status: u16, message: &str) {
    metrics.record_request("jobs", status);
    let response = Response::error(status, message).with_close();
    let _ = stream.write_all(&response.to_bytes());
}

/// Writes one event line; `false` means the client is gone.
fn send(stream: &mut TcpStream, event: &Json) -> bool {
    let mut line = event.compact();
    line.push('\n');
    stream.write_all(line.as_bytes()).is_ok()
}
