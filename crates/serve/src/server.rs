//! The service runtime: acceptor, connection handling, worker pool,
//! request coalescing, and graceful shutdown.
//!
//! Threading model:
//!
//! * one **acceptor** thread owns the listener and spawns a thread per
//!   connection (bounded by `max_connections`, excess answered 503);
//! * each **connection** thread runs the bounded HTTP parser over a
//!   growing buffer (split reads and pipelining fall out naturally),
//!   routes light endpoints inline, and parks heavy requests on
//!   coalescing slots — a `/v1/batch` envelope's items and a single
//!   request (a one-item group) pass through the same [`admit`];
//! * `workers` **solver** threads pop jobs from a bounded queue and
//!   execute them against the shared pools.
//!
//! Backpressure is explicit: a full queue answers 429 + `Retry-After`
//! without blocking the connection thread, and a request whose deadline
//! expires while queued answers 504 — but an *accepted* job is always
//! executed, so the pool stays warm and coalesced waiters never hang.

use std::borrow::Borrow;
use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use tsc_bench::json::{Json, Pretty};
use tsc_jobs::{ShardWork, TableConfig};
use tsc_rng::{finalize, unit_f64, GAMMA};

use crate::api::{self, ApiJob, BatchRequest};
use crate::http::{parse_request, Limits, Parsed, Request, Response};
use crate::jobs::JobsHost;
use crate::locks::{rank, RankedMutex};
use crate::metrics::Metrics;
use crate::pool::ServicePools;
use crate::queue::{JobQueue, Priority, PushError};

/// Server configuration; `Default` is suitable for tests (ephemeral port,
/// small pool and queue).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Port to bind on 127.0.0.1; 0 picks an ephemeral port.
    pub port: u16,
    /// Solver worker threads (clamped to at least 1).
    pub workers: usize,
    /// Bounded job-queue capacity.
    pub queue_cap: usize,
    /// Context-pool capacity; 0 disables pooling.
    pub pool_cap: usize,
    /// Default per-request deadline (overridable per request via the
    /// `X-Deadline-Ms` header).
    pub deadline: Duration,
    /// Maximum simultaneously open connections; excess get 503.
    pub max_connections: usize,
    /// Maximum simultaneously open transient sessions; excess get 429.
    /// Sessions run on their connection thread, so this caps long-lived
    /// solver state, not worker occupancy.
    pub session_cap: usize,
    /// Close idle keep-alive connections after this long.
    pub idle_timeout: Duration,
    /// Parser caps.
    pub limits: Limits,
    /// Whether `POST /v1/shutdown` is honoured (the CLI enables it; tests
    /// that probe routing may disable it).
    pub allow_shutdown: bool,
    /// Optimization-job table sizing: capacity, per-class concurrency
    /// quota, and result TTL (`/v1/jobs`).
    pub job_table: TableConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            port: 0,
            workers: 2,
            queue_cap: 32,
            pool_cap: 8,
            deadline: Duration::from_secs(60),
            max_connections: 64,
            session_cap: 8,
            idle_timeout: Duration::from_secs(10),
            limits: Limits::default(),
            allow_shutdown: true,
            job_table: TableConfig::default(),
        }
    }
}

/// A coalescing slot: the first submitter creates it, every identical
/// concurrent request waits on it, one worker fills it exactly once.
struct Slot {
    /// The [`ApiJob::canonical_id`] it is registered under.
    key: String,
    result: RankedMutex<Option<(u16, Pretty)>>,
    ready: Condvar,
}

/// A coalescing-map entry, hashed and compared by its slot's key: the
/// map keeps each key once, inside the slot.
struct Pending(Arc<Slot>);

impl Borrow<str> for Pending {
    fn borrow(&self) -> &str {
        &self.0.key
    }
}

impl Hash for Pending {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.key.hash(state);
    }
}

impl PartialEq for Pending {
    fn eq(&self, other: &Pending) -> bool {
        self.0.key == other.0.key
    }
}

impl Eq for Pending {}

impl Slot {
    fn new(key: String) -> Arc<Self> {
        Arc::new(Slot {
            key,
            result: RankedMutex::new(None, rank::SLOT_RESULT, "Slot.result"),
            ready: Condvar::new(),
        })
    }

    fn fill(&self, status: u16, body: Pretty) {
        let mut guard = self.result.lock();
        *guard = Some((status, body));
        drop(guard);
        self.ready.notify_all();
    }

    /// Wait until filled or `deadline` elapses.  Every waiter receives a
    /// clone of the same `(status, body)` — coalesced responses are
    /// bitwise identical by construction.
    fn wait(&self, deadline: Duration) -> Option<(u16, Pretty)> {
        let start = Instant::now();
        let mut guard = self.result.lock();
        while guard.is_none() {
            let elapsed = start.elapsed();
            if elapsed >= deadline {
                return None;
            }
            let (g, _) = guard.wait_timeout(&self.ready, deadline - elapsed);
            guard = g;
        }
        (*guard).clone()
    }
}

/// One coalesce-owned item of a queued job: the owner's request and the
/// slot its waiters share.
struct JobItem {
    api: ApiJob,
    slot: Arc<Slot>,
}

/// A queued unit of work.
enum Job {
    /// A request-driven solve group: items on one operator (or one
    /// flow/pillars identity), admitted together by [`admit`].  A single
    /// `/v1/solve` is a one-item group.
    Solve { items: Vec<JobItem> },
    /// One checked-out optimization-job slice (`/v1/jobs`), enqueued by
    /// the pump at background priority.
    Slice { id: u64, work: Box<ShardWork> },
}

/// State shared by every thread of the server.
struct Shared {
    stop: AtomicBool,
    shutdown_requested: AtomicBool,
    shutdown_flag: RankedMutex<bool>,
    shutdown_cv: Condvar,
    queue: JobQueue<Job>,
    /// In-flight requests by [`ApiJob::canonical_id`].
    coalesce: RankedMutex<HashSet<Pending>>,
    pools: ServicePools,
    metrics: Metrics,
    config: ServerConfig,
    addr: SocketAddr,
    /// Live transient sessions, for the admission cap and `/metrics`.
    sessions: AtomicUsize,
    /// The optimization-job table and its wakeup condvar.
    jobs: JobsHost,
    /// Retry-hint jitter.
    jitter: Jitter,
}

/// A lock-free SplitMix64 stream of uniform draws for retry jitter,
/// seeded per process so synchronized clients de-synchronize.  The
/// server's 429 hints and the router's backoff and random pick draw
/// from one each.
pub(crate) struct Jitter(AtomicU64);

impl Jitter {
    pub(crate) fn new(seed: u64) -> Jitter {
        Jitter(AtomicU64::new(seed))
    }

    /// A uniform draw in `[0, 1)`.
    pub(crate) fn unit(&self) -> f64 {
        let state = self
            .0
            .fetch_add(GAMMA, Ordering::Relaxed)
            .wrapping_add(GAMMA);
        unit_f64(finalize(state))
    }
}

impl Shared {
    fn signal_shutdown(&self) {
        self.shutdown_requested.store(true, Ordering::SeqCst);
        let mut flagged = self.shutdown_flag.lock();
        *flagged = true;
        drop(flagged);
        self.shutdown_cv.notify_all();
    }

    /// Load-scaled, per-class, jittered retry hint for a 429: grows with
    /// queue fullness, is larger for lower classes (they should back off
    /// longer), and carries ±25 % jitter so synchronized clients do not
    /// thundering-herd the queue on the same tick.  Returns
    /// `(whole seconds for Retry-After, milliseconds for
    /// X-Retry-After-Ms)`.
    fn retry_hint(&self, class: Priority) -> (u32, u64) {
        let capacity = self.queue.capacity().max(1) as f64;
        let fullness = (self.queue.len() as f64 / capacity).clamp(0.0, 1.0);
        let base_ms = match class {
            Priority::Interactive => 200.0,
            Priority::Batch => 750.0,
            Priority::Background => 2_000.0,
        };
        let scaled = base_ms * (0.5 + 1.5 * fullness);
        let jittered = scaled * (0.75 + 0.5 * self.jitter.unit());
        let ms = (jittered.round() as u64).max(25);
        (u32::try_from(ms.div_ceil(1_000)).unwrap_or(1).max(1), ms)
    }
}

/// The admission class of a request: `X-Priority` header if present,
/// endpoint default otherwise.
fn request_priority(request: &Request, default: Priority) -> Result<Priority, String> {
    match request.header("x-priority") {
        Some(value) => Priority::parse(value),
        None => Ok(default),
    }
}

/// A running server.  Dropping it does *not* stop the threads — call
/// [`Server::shutdown`].
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    pump: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind and start accepting.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let job_table = config.job_table;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            shutdown_flag: RankedMutex::new(false, rank::SHUTDOWN, "Shared.shutdown_flag"),
            shutdown_cv: Condvar::new(),
            queue: JobQueue::new(config.queue_cap.max(1)),
            coalesce: RankedMutex::new(HashSet::new(), rank::COALESCE, "Shared.coalesce"),
            pools: ServicePools::new(config.pool_cap),
            metrics: Metrics::default(),
            config,
            addr,
            sessions: AtomicUsize::new(0),
            jobs: JobsHost::new(
                job_table,
                u64::from(std::process::id())
                    .rotate_left(17)
                    .wrapping_add(u64::from(addr.port())),
            ),
            jitter: Jitter::new(u64::from(std::process::id()) ^ (u64::from(addr.port()) << 32)),
        });
        shared
            .metrics
            .queue_capacity
            .set(shared.queue.capacity() as i64);

        let worker_handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || accept_loop(&listener, &shared))
        };
        let pump = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || jobs_pump(&shared))
        };

        Ok(Server {
            shared,
            acceptor: Some(acceptor),
            workers: worker_handles,
            pump: Some(pump),
        })
    }

    /// The bound address (useful with `port: 0`).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The live metrics registry (test and bench introspection).
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// The live service pools (test introspection: pin counts, depth).
    pub fn pools(&self) -> &ServicePools {
        &self.shared.pools
    }

    /// Block until a client POSTs `/v1/shutdown`.
    pub fn wait_for_shutdown_request(&self) {
        let mut flagged = self.shared.shutdown_flag.lock();
        while !*flagged {
            flagged = flagged.wait(&self.shared.shutdown_cv);
        }
    }

    /// Graceful shutdown: stop accepting, drain the queue (accepted jobs
    /// still run), join the workers, and wait for open connections to
    /// finish their in-flight request.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.shared.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // The pump notices `stop` on its next wakeup; in-flight job
        // slices still drain through the queue below, and jobs resume
        // from their last checkpoint (the resume token clients fetched).
        self.shared.jobs.notify();
        if let Some(pump) = self.pump.take() {
            let _ = pump.join();
        }
        self.shared.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Connection threads notice `stop` at their next parse/read cycle
        // and close; give them a bounded grace period.
        let grace = Instant::now();
        while self.shared.metrics.connections.get() > 0 && grace.elapsed() < Duration::from_secs(5)
        {
            thread::sleep(Duration::from_millis(10));
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if shared.metrics.connections.get() >= shared.config.max_connections as i64 {
            refuse_connection(stream, shared);
            continue;
        }
        shared.metrics.connections.inc();
        let shared = Arc::clone(shared);
        thread::spawn(move || {
            drive_connection(stream, &shared);
            shared.metrics.connections.dec();
        });
    }
}

fn refuse_connection(mut stream: TcpStream, shared: &Shared) {
    shared.metrics.record_request("other", 503);
    let response = Response::error(503, "connection limit reached")
        .with_retry_after(1)
        .with_close();
    let _ = stream.write_all(&response.to_bytes());
}

/// The per-service hooks [`drive_connection`] needs: routing, parse-error
/// accounting, and the shared lifecycle/limits knobs.  Implemented by the
/// solve server here and by the shard router in [`crate::router`].
pub(crate) trait ConnectionHandler {
    /// Route one parsed request to a response.
    fn handle(&self, request: &Request) -> Response;
    /// Offer the request a chance to take over the raw connection (the
    /// transient session endpoint; sticky tunnelling in the router).
    /// `leftover` is any already-buffered bytes beyond the request.
    /// Returning `true` means the connection was consumed: the stream is
    /// close-delimited and the driver must not reuse it.
    fn handle_stream(&self, _request: &Request, _stream: &mut TcpStream, _leftover: &[u8]) -> bool {
        false
    }
    /// Record a request that failed before routing (parse error, timeout).
    fn record_error(&self, status: u16);
    fn limits(&self) -> &Limits;
    fn idle_timeout(&self) -> Duration;
    /// True once the service is draining; connections close after their
    /// in-flight response.
    fn stopping(&self) -> bool;
}

impl ConnectionHandler for Arc<Shared> {
    fn handle(&self, request: &Request) -> Response {
        route(request, self)
    }

    fn handle_stream(&self, request: &Request, stream: &mut TcpStream, leftover: &[u8]) -> bool {
        if request.method == "GET"
            && request.path.starts_with("/v1/jobs/")
            && request.path.ends_with("/events")
        {
            crate::jobs::stream_events(
                &self.jobs,
                &self.metrics,
                &request.path,
                stream,
                request_deadline(request, self),
                &|| self.stop.load(Ordering::SeqCst),
            );
            return true;
        }
        if request.method != "POST" || request.path != "/v1/transient" {
            return false;
        }
        let host = crate::session::SessionHost {
            pools: &self.pools,
            metrics: &self.metrics,
            active: &self.sessions,
            cap: self.config.session_cap,
            deadline: request_deadline(request, self),
        };
        host.serve(request, stream, leftover, &|| {
            self.stop.load(Ordering::SeqCst)
        });
        true
    }

    fn record_error(&self, status: u16) {
        self.metrics.record_request("other", status);
    }

    fn limits(&self) -> &Limits {
        &self.config.limits
    }

    fn idle_timeout(&self) -> Duration {
        self.config.idle_timeout
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// Read/parse loop for one connection.  Handles split reads, pipelined
/// requests (via the buffer remainder), keep-alive, idle timeout, and
/// malformed input → 4xx + close.
pub(crate) fn drive_connection(mut stream: TcpStream, handler: &impl ConnectionHandler) {
    // Short poll interval so idle connections notice `stop` promptly.
    if stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .is_err()
    {
        return;
    }
    // Responses are written whole; never let Nagle hold one back waiting
    // for an ACK on a keep-alive connection.
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut idle_since = Instant::now();
    let mut chunk = [0u8; 4096];

    loop {
        // Drain every complete request already buffered (pipelining).
        loop {
            match parse_request(&buf, handler.limits()) {
                Ok(Parsed::Complete(request, consumed)) => {
                    buf.drain(..consumed);
                    idle_since = Instant::now();
                    if handler.handle_stream(&request, &mut stream, &buf) {
                        return;
                    }
                    let close_after = request.wants_close();
                    let response = handler.handle(&request);
                    let closing = response.close || close_after || handler.stopping();
                    let response = if closing && !response.close {
                        response.with_close()
                    } else {
                        response
                    };
                    if stream.write_all(&response.to_bytes()).is_err() || closing {
                        return;
                    }
                }
                Ok(Parsed::Partial) => break,
                Err(err) => {
                    handler.record_error(err.status());
                    let response = Response::error(err.status(), &err.to_string()).with_close();
                    let _ = stream.write_all(&response.to_bytes());
                    return;
                }
            }
        }

        if handler.stopping() {
            return;
        }

        match stream.read(&mut chunk) {
            Ok(0) => {
                // EOF mid-request is a malformed (truncated) request.
                if !buf.is_empty() {
                    handler.record_error(400);
                    let response = Response::error(400, "truncated request").with_close();
                    let _ = stream.write_all(&response.to_bytes());
                }
                return;
            }
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                idle_since = Instant::now();
            }
            Err(err)
                if err.kind() == ErrorKind::WouldBlock || err.kind() == ErrorKind::TimedOut =>
            {
                if idle_since.elapsed() >= handler.idle_timeout() {
                    if !buf.is_empty() {
                        // A stalled partial request gets a 408.
                        handler.record_error(408);
                        let response = Response::error(408, "request timeout").with_close();
                        let _ = stream.write_all(&response.to_bytes());
                    }
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Endpoint label for metrics.
fn endpoint_label(path: &str) -> &'static str {
    if path == "/v1/jobs" || path.starts_with("/v1/jobs/") {
        return "jobs";
    }
    match path {
        "/v1/solve" => "solve",
        "/v1/flow" => "flow",
        "/v1/pillars" => "pillars",
        "/v1/batch" => "batch",
        "/v1/transient" => "transient",
        "/v1/designs" => "designs",
        "/metrics" => "metrics",
        "/healthz" => "healthz",
        "/v1/shutdown" => "shutdown",
        _ => "other",
    }
}

/// Route one request to a response, recording request metrics.
fn route(request: &Request, shared: &Arc<Shared>) -> Response {
    let endpoint = endpoint_label(&request.path);
    let response = route_inner(request, endpoint, shared);
    shared.metrics.record_request(endpoint, response.status);
    response
}

fn route_inner(request: &Request, endpoint: &'static str, shared: &Arc<Shared>) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/metrics") => {
            shared.jobs.sync_metrics(&shared.metrics);
            shared.metrics.queue_depth.set(shared.queue.len() as i64);
            shared
                .metrics
                .transient_sessions_active
                .set(shared.sessions.load(Ordering::Relaxed) as i64);
            shared
                .metrics
                .transient_pinned
                .set(shared.pools.transients.pinned() as i64);
            let mut response = Response::text(200, &shared.metrics.render());
            response.content_type = "text/plain; version=0.0.4";
            response
        }
        ("GET", "/v1/designs") => Response::json(200, crate::api::designs_body()),
        ("POST", "/v1/shutdown") => {
            if shared.config.allow_shutdown {
                shared.signal_shutdown();
                Response::json(200, "{\n  \"status\": \"shutting down\"\n}\n".to_string())
                    .with_close()
            } else {
                Response::error(404, "shutdown disabled")
            }
        }
        ("POST", "/v1/solve" | "/v1/flow" | "/v1/pillars") => {
            match ApiJob::parse(&request.path, &request.body) {
                Some(Ok(job)) => dispatch_heavy(request, job, endpoint, shared),
                Some(Err(message)) => Response::error(400, &message),
                // Unreachable: the path match above is exactly the heavy set.
                None => Response::error(404, "no such endpoint"),
            }
        }
        ("POST", "/v1/batch") => match BatchRequest::parse(&request.body) {
            Ok(batch) => dispatch_batch(request, batch, shared),
            Err(message) => Response::error(400, &message),
        },
        ("POST", "/v1/jobs") => crate::jobs::submit(&shared.jobs, &shared.metrics, request),
        (method, path) if path.starts_with("/v1/jobs/") => {
            crate::jobs::route_entry(&shared.jobs, &shared.metrics, method, path)
        }
        (
            _,
            "/healthz" | "/metrics" | "/v1/designs" | "/v1/shutdown" | "/v1/solve" | "/v1/flow"
            | "/v1/pillars" | "/v1/batch" | "/v1/transient" | "/v1/jobs",
        ) => Response::error(405, "method not allowed"),
        _ => Response::error(404, "no such endpoint"),
    }
}

/// Submit a heavy request as a one-item group through [`admit`], then
/// wait on its slot with a deadline.
fn dispatch_heavy(
    request: &Request,
    job: ApiJob,
    endpoint: &'static str,
    shared: &Arc<Shared>,
) -> Response {
    let started = Instant::now();
    let deadline = request_deadline(request, shared);
    let class = match request_priority(request, Priority::Interactive) {
        Ok(class) => class,
        Err(message) => return Response::error(400, &message),
    };
    let Some(Ok(slot)) = admit(shared, vec![Ok(job)], class).pop() else {
        unreachable!("a parsed request is admitted to a slot");
    };
    match slot.wait(deadline) {
        Some((status, body)) => {
            let us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            shared.metrics.observe_latency_us(endpoint, us);
            let response = Response::json(status, body.into_string());
            if status != 429 {
                return response;
            }
            let (secs, ms) = shared.retry_hint(class);
            response
                .with_retry_after(secs)
                .with_header("X-Retry-After-Ms", ms.to_string())
        }
        None => {
            // Waiter-side timeout only: the job (if accepted) still runs
            // to completion and warms the pool.
            shared.metrics.deadline_timeouts.inc();
            Response::error(504, "deadline expired before the solve completed")
        }
    }
}

/// Per-request deadline: `X-Deadline-Ms` header clamped to sane bounds,
/// the configured default otherwise.
fn request_deadline(request: &Request, shared: &Shared) -> Duration {
    request
        .header("x-deadline-ms")
        .and_then(|v| v.parse::<u64>().ok())
        .map(|ms| Duration::from_millis(ms.clamp(1, 600_000)))
        .unwrap_or(shared.config.deadline)
}

/// Register-or-latch on the coalescing map: returns the slot for `key`
/// and whether the caller became its owner (and must enqueue / fill it).
fn register_or_latch(shared: &Shared, key: String) -> (Arc<Slot>, bool) {
    let mut coalesce = shared.coalesce.lock();
    if let Some(pending) = coalesce.get(key.as_str()) {
        return (Arc::clone(&pending.0), false);
    }
    let slot = Slot::new(key);
    coalesce.insert(Pending(Arc::clone(&slot)));
    (slot, true)
}

/// The one admission path of the queued endpoints.  Each valid item
/// registers on the coalescing map *before* anything is enqueued, so no
/// identical request can slip past: an item identical to an in-flight
/// request (or to an earlier item of the same batch) latches onto its
/// slot.  The owned items are grouped by operator affinity, in item
/// order (a group's first item pays the stack build, the rest are
/// repowered warm solves), and each group is enqueued at `class` as one
/// job.  A refused group fails only its own items: its slots are
/// un-registered and filled with the 429/503 body, so latched waiters
/// get the same refusal instead of hanging.
///
/// Returns, in item order, the slot each item's answer appears in, or
/// the item's own validation message.
fn admit(
    shared: &Shared,
    items: Vec<Result<ApiJob, String>>,
    class: Priority,
) -> Vec<Result<Arc<Slot>, String>> {
    // Affinity strings are built only when there is a group to compare
    // with, so a one-item group builds none.
    let mut groups: Vec<(Option<String>, Vec<JobItem>)> = Vec::new();
    let slots = items
        .into_iter()
        .map(|item| {
            let api = item?;
            let (slot, is_owner) = register_or_latch(shared, api.canonical_id());
            if !is_owner {
                shared.metrics.coalesced_total.inc();
                return Ok(slot);
            }
            let mut affinity = None;
            let group = groups.iter_mut().position(|(group_affinity, members)| {
                let group_affinity =
                    group_affinity.get_or_insert_with(|| members[0].api.affinity_id());
                *group_affinity == *affinity.get_or_insert_with(|| api.affinity_id())
            });
            let item = JobItem {
                api,
                slot: Arc::clone(&slot),
            };
            match group {
                Some(group) => groups[group].1.push(item),
                None => groups.push((affinity, vec![item])),
            }
            Ok(slot)
        })
        .collect();

    for (_, items) in groups {
        match shared.queue.try_push_reclaim(Job::Solve { items }, class) {
            Ok(()) => {
                shared.metrics.class_admitted[class.index()].inc();
                shared.metrics.queue_depth.set(shared.queue.len() as i64);
            }
            Err((Job::Solve { items }, refusal)) => {
                let (status, message) = match refusal {
                    PushError::Full => {
                        shared.metrics.rejected_queue_full.inc();
                        shared.metrics.class_shed[class.index()].inc();
                        (429, "solve queue full")
                    }
                    PushError::Closed => (503, "server shutting down"),
                };
                for item in items {
                    remove_coalesce_entry(shared, &item.slot);
                    item.slot.fill(status, error_body(message));
                }
            }
            Err((Job::Slice { .. }, _)) => unreachable!("the queue hands back the job it refused"),
        }
    }
    slots
}

/// Submit a `/v1/batch` envelope through [`admit`], then collect
/// per-item results in order.  One failed item (or one refused group)
/// never fails the envelope — every item reports its own status.
fn dispatch_batch(request: &Request, batch: BatchRequest, shared: &Arc<Shared>) -> Response {
    let started = Instant::now();
    let deadline = request_deadline(request, shared);
    let class = match request_priority(request, Priority::Batch) {
        Ok(class) => class,
        Err(message) => return Response::error(400, &message),
    };
    shared.metrics.batch_requests_total.inc();
    shared
        .metrics
        .batch_items_total
        .add(batch.items.len() as u64);
    let slots = admit(shared, batch.items, class);

    // Each item waits on its own slot with whatever is left of the shared
    // deadline; a timed-out item reports its own 504 without sinking the
    // rest.
    let (_, retry_ms) = shared.retry_hint(class);
    let mut answers: Vec<(u16, Json)> = Vec::with_capacity(slots.len());
    for slot in slots {
        let remaining = deadline.saturating_sub(started.elapsed());
        let (status, body) = match slot.map(|slot| slot.wait(remaining)) {
            Err(message) => (400, error_body(&message)),
            Ok(Some(answer)) => answer,
            Ok(None) => {
                shared.metrics.deadline_timeouts.inc();
                let expired = "deadline expired before the solve completed";
                (504, error_body(expired))
            }
        };
        answers.push((status, body.into()));
    }
    let (envelope, errors) = batch_envelope(answers, retry_ms);
    shared.metrics.batch_item_errors_total.add(errors);

    let us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    shared.metrics.observe_latency_us("batch", us);
    Response::json(200, envelope)
}

/// Renders the `/v1/batch` answer to per-item `(status, body)` answers
/// (a 429 also carries `retry_ms`), and counts its non-200 items.  The
/// bodies come as [`Json::Rendered`] documents, which the writer nests
/// in place rather than parsing them back into trees.
fn batch_envelope(answers: Vec<(u16, Json)>, retry_ms: u64) -> (String, u64) {
    let errors = answers.iter().filter(|(status, _)| *status != 200).count();
    let items: Vec<Json> = answers
        .into_iter()
        .map(|(status, body)| {
            let item = Json::object()
                .field("status", usize::from(status))
                .field("body", body);
            if status == 429 {
                item.field("retry_after_ms", retry_ms as usize)
            } else {
                item
            }
        })
        .collect();
    let envelope = Json::object()
        .field("count", items.len())
        .field("errors", errors)
        .field("items", items);
    (envelope.pretty(), errors as u64)
}

/// The item count of a `/v1/batch` answer as [`batch_envelope`] writes
/// it, read from its head (`count` and `errors` are its first keys in
/// the writer's sorted order); `None` when `body` does not have that
/// answer's head and tail.
pub(crate) fn envelope_count(body: &str) -> Option<usize> {
    let (count, rest) = body.strip_prefix("{\n  \"count\": ")?.split_once(",\n")?;
    if !rest.starts_with("  \"errors\": ") || !body.ends_with("\n}\n") {
        return None;
    }
    count.parse().ok()
}

fn remove_coalesce_entry(shared: &Shared, slot: &Arc<Slot>) {
    let mut coalesce = shared.coalesce.lock();
    // Only remove the entry if it is still *our* slot — a later identical
    // request may have re-registered after a worker finished ours.
    let key = slot.key.as_str();
    if coalesce
        .get(key)
        .is_some_and(|current| Arc::ptr_eq(&current.0, slot))
    {
        coalesce.remove(key);
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        shared.metrics.queue_depth.set(shared.queue.len() as i64);
        match job {
            Job::Solve { items } => run_solve_group(shared, &items),
            Job::Slice { id, work } => run_job_slice(shared, id, *work),
        }
    }
}

/// Executes one request-driven solve group and fans its results out to
/// every coalesced waiter.
fn run_solve_group(shared: &Arc<Shared>, items: &[JobItem]) {
    shared.metrics.inflight.inc();
    let jobs: Vec<&ApiJob> = items.iter().map(|item| &item.api).collect();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        api::execute_group(&jobs, &shared.pools, &shared.metrics)
    }));
    shared.metrics.inflight.dec();
    let results = match outcome {
        Ok(results) => results,
        // execute_group catches per-item panics itself; this outer
        // guard is a last line of defence for the grouping logic.
        Err(_) => {
            shared.metrics.worker_panics.inc();
            items
                .iter()
                .map(|_| Err((500, "internal error: worker panicked".to_string())))
                .collect()
        }
    };
    for (item, result) in items.iter().zip(results) {
        // De-register *before* filling: once the result is visible,
        // new identical requests must start a fresh solve (their
        // inputs may race a pool eviction, but correctness never
        // depends on reuse).
        remove_coalesce_entry(shared, &item.slot);
        match result {
            Ok(body) => item.slot.fill(200, body),
            Err((status, message)) => item.slot.fill(status, error_body(&message)),
        }
    }
}

/// Executes one optimization-job work slice lock-free, then returns it
/// to the table (which advances barriers and settles terminal states)
/// and wakes the pump.
fn run_job_slice(shared: &Arc<Shared>, id: u64, mut work: ShardWork) {
    shared.metrics.inflight.inc();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        work.run();
        work
    }));
    shared.metrics.inflight.dec();
    shared.metrics.job_slices_total.inc();
    let now = Instant::now();
    {
        let mut table = shared.jobs.table.lock();
        match outcome {
            Ok(work) => table.complete(id, work, now),
            Err(_) => {
                // The slice's state is gone with the panic; the engine
                // can never be advanced consistently again.
                shared.metrics.worker_panics.inc();
                table.abandon(id, "internal error: worker panicked mid-slice", now);
            }
        }
    }
    shared.jobs.notify();
    shared.jobs.sync_metrics(&shared.metrics);
}

/// How long the jobs pump sleeps when it has nothing to do (a condvar
/// notify wakes it sooner).
const PUMP_TICK: Duration = Duration::from_millis(25);

/// Work slices the pump keeps checked out at a time.  Bounds how much of
/// the worker pool a job fleet can occupy; the queue pops interactive
/// and batch requests first regardless.
const SLICE_BATCH: usize = 4;

/// The job scheduler: promotes admitted jobs within per-class quotas,
/// checks out step slices, and feeds them to the solve queue at
/// background priority.  Slices refused by a full queue are retried (the
/// table still counts them in flight), never dropped.
fn jobs_pump(shared: &Arc<Shared>) {
    let mut pending: VecDeque<Job> = VecDeque::new();
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let mut progressed = false;
        while let Some(job) = pending.pop_front() {
            match shared.queue.try_push_reclaim(job, Priority::Background) {
                Ok(()) => {
                    progressed = true;
                    shared.metrics.class_admitted[Priority::Background.index()].inc();
                    shared.metrics.queue_depth.set(shared.queue.len() as i64);
                }
                Err((job, PushError::Full)) => {
                    pending.push_front(job);
                    break;
                }
                Err((_, PushError::Closed)) => return,
            }
        }
        {
            let now = Instant::now();
            let mut table = shared.jobs.table.lock();
            table.evict_expired(now);
            if pending.is_empty() {
                for (id, work) in table.next_slices(SLICE_BATCH, now) {
                    progressed = true;
                    pending.push_back(Job::Slice {
                        id,
                        work: Box::new(work),
                    });
                }
            }
            if !progressed {
                let (guard, _timed_out) = table.wait_timeout(&shared.jobs.changed, PUMP_TICK);
                drop(guard);
            }
        }
        shared.jobs.sync_metrics(&shared.metrics);
    }
}

fn error_body(message: &str) -> Pretty {
    Json::object().field("error", message).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spliced_envelope_is_the_tree_rendered_one() {
        let solved = ApiJob::parse(
            "/v1/solve",
            br#"{"design": "gemmini-memory", "tiers": 2, "lateral_cells": 6}"#,
        )
        .expect("a heavy endpoint")
        .expect("a valid request")
        .execute(&ServicePools::new(1), &Metrics::default())
        .expect("solves");
        let answers = [
            (200, solved.clone()),
            (
                400,
                error_body("unknown design \"nope\"; see GET /v1/designs"),
            ),
            (429, error_body("solve queue full")),
            (503, error_body("server shutting down")),
            (
                504,
                error_body("deadline expired before the solve completed"),
            ),
            (500, error_body("line one\nline \"two\"\t\\ end\r")),
            (200, solved),
        ];
        for n in 0..=answers.len() {
            let spliced: Vec<(u16, Json)> = answers[..n]
                .iter()
                .map(|(status, body)| (*status, body.clone().into()))
                .collect();
            let parsed: Vec<(u16, Json)> = answers[..n]
                .iter()
                .map(|(status, body)| (*status, tsc_bench::json::parse(body).expect("parses")))
                .collect();
            let (envelope, errors) = batch_envelope(spliced, 187);
            assert_eq!(envelope, batch_envelope(parsed, 187).0, "first {n} items");
            let failed = answers[..n].iter().filter(|(status, _)| *status != 200);
            assert_eq!(errors, failed.count() as u64);
            assert_eq!(envelope_count(&envelope), Some(n));
        }
        assert_eq!(envelope_count(&error_body("no healthy backend")), None);
        assert_eq!(envelope_count("{\n  \"count\": 2,\n  \"errors\": 0"), None);
    }
}
