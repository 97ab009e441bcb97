//! The shard router: a thin HTTP tier that fronts N `tsc-serve`
//! backends, routing heavy requests by **operator affinity** over a
//! consistent-hash ring so each design's warm `SolveContext`s
//! concentrate on one shard.
//!
//! * `/v1/solve`, `/v1/flow`, `/v1/pillars` — the body is parsed just
//!   enough to compute [`crate::api::ApiJob::affinity_key`]; the request
//!   is then forwarded verbatim to the owning shard, with a bounded,
//!   jitter-backed retry budget on connect failure and retryable 5xx.
//!   Placement uses consistent hashing **with bounded loads**
//!   ([`crate::ring::BoundedTable`]): a key whose ring-home shard is
//!   already over its fair share of distinct hot keys walks forward to
//!   the next under-loaded shard and sticks there, so a handful of hot
//!   designs cannot pile onto one shard while its neighbours idle.
//! * `/v1/batch` — the envelope is checked by the shard's own envelope
//!   check, split into per-shard sub-batches by item affinity, and the
//!   per-item results are merged back in envelope order; a sub-batch
//!   whose shard fails retries from its first item's affinity key, and
//!   a shard that stays dead fails only its own items.
//! * `/v1/jobs` — submission routes by a hash of the spec body and the
//!   202 response's job id is recorded in a sticky id → shard map;
//!   status/cancel/checkpoint forward to the owning shard (with a
//!   broadcast probe as fallback after a router restart), and `/events`
//!   streams tunnel byte-for-byte like transient sessions.
//! * `/metrics` — every healthy shard's exposition is fetched, parsed
//!   ([`tsc_bench::prom::parse_exposition`]) and summed by series
//!   (quantile gauges are dropped: bucket counts sum, quantiles do not),
//!   with the router's own `tsc_router_*` series appended.
//! * `/healthz` probes run on a background thread: a failing shard is
//!   ejected from routing and readmitted when it answers again.
//!
//! Every upstream round trip (forwards, sub-batches, job submit and
//! entry, job-owner probes, the `/metrics` fan-out and shutdown
//! propagation) runs over a kept-alive connection from the shard's
//! [`UpstreamPool`]: take a parked client or dial one, and park it again
//! after a complete response without `Connection: close`.  A *reused*
//! connection that fails with [`ClientError::Io`] before any response
//! byte was closed by the shard while idle (its idle timeout), so the
//! router redials the same shard once; that redial is neither an
//! upstream error nor grounds for ejection.  Every other failure keeps
//! the retry / eject / 502 handling below, and ejecting a shard drops its
//! parked connections.  The tunnels and the health prober dial their own
//! connections.
//!
//! Every forwarded request runs through one attempt loop, [`forward`],
//! which owns the retry budget, the backoff, the router counters and the
//! failure handling; routes differ only in the [`RouteKey`] that says
//! where each attempt goes (affinity, any healthy shard, a job's owner,
//! or a sub-batch's grouped shard).  Transient sessions and job event
//! streams share one byte [`tunnel`].
//!
//! Degradation is typed, never hung: exhausted retries and an empty
//! ring answer 503 + `Retry-After`; a backend that responds with bytes
//! that do not parse as HTTP answers 502 and is never retried (the
//! request may have executed — replaying it could double work).

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use tsc_bench::httpc::{ClientError, HttpClient, HttpResponse};
use tsc_bench::json::Json;
use tsc_bench::prom::parse_exposition;
use tsc_jobs::fnv1a_bytes;

use crate::api::{decode_json, ApiJob, BatchRequest, TransientRequest};
use crate::http::{Limits, Request, Response};
use crate::locks::{rank, RankedMutex};
use crate::metrics::{Counter, Gauge};
use crate::ring::{BoundedTable, DEFAULT_EXPANSION, DEFAULT_TABLE_CAPACITY};
use crate::server::{drive_connection, envelope_count, ConnectionHandler, Jitter};

/// How a request picks its shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Affinity {
    /// Consistent hash on the operator-affinity key (the default): a
    /// design's solves keep hitting the shard that holds its warm
    /// contexts.
    Hash,
    /// Uniform random over healthy shards — the A/B baseline that shows
    /// what affinity buys; context hit rates collapse as N grows.
    Random,
}

impl Affinity {
    /// Parse a `--affinity` flag value.
    ///
    /// # Errors
    ///
    /// The unrecognised value.
    pub fn parse(value: &str) -> Result<Affinity, String> {
        match value.to_ascii_lowercase().as_str() {
            "hash" => Ok(Affinity::Hash),
            "random" => Ok(Affinity::Random),
            other => Err(format!("unknown affinity {other:?} (hash | random)")),
        }
    }
}

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Port to bind on 127.0.0.1; 0 picks an ephemeral port.
    pub port: u16,
    /// Backend `host:port` addresses (spawned or external).
    pub backends: Vec<String>,
    /// Virtual nodes per shard on the hash ring.
    pub replicas: usize,
    /// Total attempts per upstream request (first try + retries).
    pub retry_budget: usize,
    /// Health-probe cadence.
    pub probe_interval: Duration,
    /// Shard selection policy.
    pub affinity: Affinity,
    /// Upstream connect timeout.
    pub connect_timeout: Duration,
    /// Upstream end-to-end response deadline (per attempt).
    pub upstream_deadline: Duration,
    /// Client-side parser caps (same meaning as the server's).
    pub limits: Limits,
    /// Close idle client connections after this long.
    pub idle_timeout: Duration,
    /// Whether `POST /v1/shutdown` is honoured and propagated.
    pub allow_shutdown: bool,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            port: 0,
            backends: Vec::new(),
            replicas: crate::ring::DEFAULT_REPLICAS,
            retry_budget: 3,
            probe_interval: Duration::from_millis(200),
            affinity: Affinity::Hash,
            connect_timeout: Duration::from_millis(500),
            upstream_deadline: Duration::from_secs(120),
            limits: Limits::default(),
            idle_timeout: Duration::from_secs(10),
            allow_shutdown: true,
        }
    }
}

/// The router's own counters, rendered under the `tsc_router_*` prefix
/// and appended to the aggregated shard exposition.
#[derive(Debug, Default)]
pub struct RouterMetrics {
    pub requests_total: Counter,
    pub retries_total: Counter,
    pub upstream_errors_total: Counter,
    pub bad_gateway_total: Counter,
    pub no_backend_total: Counter,
    pub shard_ejections_total: Counter,
    pub shard_readmissions_total: Counter,
    pub batch_subbatches_total: Counter,
    pub rebalanced_keys_total: Counter,
    pub transient_tunnels_total: Counter,
    pub job_stickies_total: Counter,
    pub job_broadcasts_total: Counter,
    pub job_event_tunnels_total: Counter,
    pub upstream_connects_total: Counter,
    pub upstream_redials_total: Counter,
    pub healthy_shards: Gauge,
    pub shards: Gauge,
}

impl RouterMetrics {
    fn render(&self) -> String {
        let counters: [(&str, &str, u64); 16] = [
            (
                "tsc_router_requests_total",
                "Client requests handled by the router.",
                self.requests_total.get(),
            ),
            (
                "tsc_router_retries_total",
                "Upstream attempts beyond the first, across all requests.",
                self.retries_total.get(),
            ),
            (
                "tsc_router_upstream_errors_total",
                "Upstream attempts that failed at the transport (connect/read/timeout).",
                self.upstream_errors_total.get(),
            ),
            (
                "tsc_router_bad_gateway_total",
                "Responses answered 502 because a backend returned malformed HTTP.",
                self.bad_gateway_total.get(),
            ),
            (
                "tsc_router_no_backend_total",
                "Responses answered 503 because no healthy backend remained.",
                self.no_backend_total.get(),
            ),
            (
                "tsc_router_shard_ejections_total",
                "Shards ejected from routing after a failed health probe.",
                self.shard_ejections_total.get(),
            ),
            (
                "tsc_router_shard_readmissions_total",
                "Ejected shards readmitted after a passing health probe.",
                self.shard_readmissions_total.get(),
            ),
            (
                "tsc_router_batch_subbatches_total",
                "Per-shard sub-batches fanned out by /v1/batch splitting.",
                self.batch_subbatches_total.get(),
            ),
            (
                "tsc_router_rebalanced_keys_total",
                "Affinity keys placed off their ring-home shard by the bounded-load cap.",
                self.rebalanced_keys_total.get(),
            ),
            (
                "tsc_router_transient_tunnels_total",
                "Transient sessions tunnelled byte-for-byte to their sticky shard.",
                self.transient_tunnels_total.get(),
            ),
            (
                "tsc_router_job_stickies_total",
                "Job ids recorded in the sticky id-to-shard affinity map.",
                self.job_stickies_total.get(),
            ),
            (
                "tsc_router_job_broadcasts_total",
                "Job lookups that probed every shard because the id was not in the sticky map.",
                self.job_broadcasts_total.get(),
            ),
            (
                "tsc_router_job_event_tunnels_total",
                "Job event streams tunnelled byte-for-byte to the owning shard.",
                self.job_event_tunnels_total.get(),
            ),
            (
                "tsc_router_upstream_connects_total",
                "Upstream connections dialed because no idle kept-alive one was parked.",
                self.upstream_connects_total.get(),
            ),
            (
                "tsc_router_upstream_redials_total",
                "Parked upstream connections found closed by the shard and redialed.",
                self.upstream_redials_total.get(),
            ),
            (
                "tsc_router_lock_poisoned_total",
                "Router-process mutex guards recovered from a poisoned state.",
                crate::locks::poisoned_total(),
            ),
        ];
        let mut out = String::with_capacity(1024);
        for (name, help, value) in counters {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
            ));
        }
        for (name, help, value) in [
            (
                "tsc_router_healthy_shards",
                "Backends currently passing health probes.",
                self.healthy_shards.get(),
            ),
            (
                "tsc_router_shards",
                "Backends configured behind the router.",
                self.shards.get(),
            ),
        ] {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
            ));
        }
        out
    }
}

struct RouterShared {
    stop: AtomicBool,
    shutdown_flag: RankedMutex<bool>,
    shutdown_cv: Condvar,
    config: RouterConfig,
    ring: crate::ring::HashRing,
    /// Bounded-load placement table: sticky key → shard assignments
    /// capped at ~1.25× each shard's fair share of distinct keys.
    table: RankedMutex<BoundedTable>,
    /// Sticky job-id → shard affinity: status/cancel/checkpoint/events
    /// for a job must reach the shard that admitted it.  Bounded at
    /// [`JOB_AFFINITY_CAP`]; a missing id falls back to a broadcast
    /// probe, so eviction costs latency, never correctness.
    jobs: RankedMutex<HashMap<u64, usize>>,
    /// One pool of idle keep-alive connections per shard.
    upstreams: Vec<UpstreamPool>,
    healthy: Vec<AtomicBool>,
    metrics: RouterMetrics,
    addr: SocketAddr,
    /// Backoff jitter and the uniform pick of the `Random` policy.
    jitter: Jitter,
}

/// Most job ids the router remembers shard affinity for.  Shards evict
/// finished jobs on a TTL anyway, so the map only needs to cover the
/// live working set; overflow evicts an arbitrary entry and the next
/// lookup for it re-resolves by broadcast.
const JOB_AFFINITY_CAP: usize = 4096;

/// Most idle keep-alive connections parked per shard.  Each parked
/// connection holds one of the shard's connection threads, so the cap
/// stays small; a surplus connection is closed instead of parked.
const IDLE_PER_SHARD: usize = 4;

/// A shard's idle keep-alive connections, most recently parked last.
struct UpstreamPool {
    idle: RankedMutex<Vec<HttpClient>>,
}

impl UpstreamPool {
    fn new() -> UpstreamPool {
        UpstreamPool {
            idle: RankedMutex::new(Vec::new(), rank::ROUTER_UPSTREAM, "UpstreamPool.idle"),
        }
    }

    fn take(&self) -> Option<HttpClient> {
        self.idle.lock().pop()
    }

    /// Park `client` after a complete response that does not ask for the
    /// connection to close, unless the pool is full; otherwise the client
    /// drops (closing its connection) after the guard is released.
    fn settle(
        &self,
        client: HttpClient,
        outcome: Result<HttpResponse, ClientError>,
    ) -> Result<HttpResponse, ClientError> {
        if outcome
            .as_ref()
            .is_ok_and(|response| !response.wants_close())
        {
            let mut idle = self.idle.lock();
            if idle.len() < IDLE_PER_SHARD {
                idle.push(client);
            }
        }
        outcome
    }

    /// Close every parked connection (the shard was ejected or the
    /// router is stopping).
    fn clear(&self) {
        let parked = std::mem::take(&mut *self.idle.lock());
        drop(parked);
    }
}

/// Where a request's attempts go: [`RouterShared::pick_shard`] reads it
/// for the first attempt and for every retry of [`forward`].
#[derive(Debug, Clone, Copy)]
enum RouteKey {
    /// Operator-affinity key: bounded-load consistent hashing, then a
    /// ring walk from the key past the shard that failed.
    Affinity(u64),
    /// Any healthy shard (static content) — never touches the sticky
    /// table, so per-request spreading cannot pollute it.
    AnyHealthy,
    /// The shard holding a job's state.  No other shard can answer for
    /// the job, so every attempt goes there, and none once it is ejected.
    Owner(usize),
    /// A `/v1/batch` sub-batch: first the shard its items were grouped
    /// on, then a ring walk from its first item's affinity key past the
    /// shard that failed.
    SubBatch { shard: usize, key: u64 },
}

impl RouterShared {
    fn healthy_count(&self) -> usize {
        self.healthy
            .iter()
            .filter(|flag| flag.load(Ordering::Relaxed))
            .count()
    }

    fn is_healthy(&self, shard: usize) -> bool {
        self.healthy
            .get(shard)
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
    }

    /// Mark a shard unhealthy after a transport failure — the prober
    /// readmits it once it answers `/healthz` again.
    fn eject(&self, shard: usize) {
        if let Some(flag) = self.healthy.get(shard) {
            if flag.swap(false, Ordering::Relaxed) {
                self.metrics.shard_ejections_total.inc();
                self.metrics.healthy_shards.set(self.healthy_count() as i64);
            }
        }
        if let Some(pool) = self.upstreams.get(shard) {
            pool.clear();
        }
    }

    /// Pick the shard for `key` under the configured affinity policy,
    /// optionally excluding a shard that just failed.  A job's owner is
    /// the pick while it is healthy, whatever failed before; a
    /// sub-batch's first attempt goes to the shard it was grouped on.
    ///
    /// First placements go through the bounded-load table and stick;
    /// retry picks (`exclude` set) are a *transient* ring walk that
    /// leaves the table alone — a timeout on a healthy shard must not
    /// permanently migrate the key and strand its warm contexts.
    fn pick_shard(&self, key: RouteKey, exclude: Option<usize>) -> Option<usize> {
        let healthy = |shard: usize| self.is_healthy(shard) && Some(shard) != exclude;
        let affinity_key = match (key, exclude, self.config.affinity) {
            (RouteKey::Owner(shard), _, _) => return self.is_healthy(shard).then_some(shard),
            (RouteKey::SubBatch { shard, .. }, None, _) => return Some(shard),
            (RouteKey::Affinity(k) | RouteKey::SubBatch { key: k, .. }, _, Affinity::Hash) => k,
            _ => return self.pick_uniform(&healthy),
        };
        if exclude.is_some() {
            return self.ring.route(affinity_key, healthy);
        }
        let mut table = self.table.lock();
        let (shard, overflowed) = table.route(&self.ring, affinity_key, |s| self.is_healthy(s))?;
        if overflowed {
            self.metrics.rebalanced_keys_total.inc();
        }
        Some(shard)
    }

    /// Uniform pick over healthy shards — the `Random` A/B policy, and
    /// the path for unkeyed (static) requests under any policy.
    fn pick_uniform(&self, healthy: &impl Fn(usize) -> bool) -> Option<usize> {
        let candidates: Vec<usize> = (0..self.config.backends.len())
            .filter(|s| healthy(*s))
            .collect();
        if candidates.is_empty() {
            None
        } else {
            let i = (self.jitter.unit() * candidates.len() as f64) as usize;
            Some(candidates[i.min(candidates.len() - 1)])
        }
    }

    /// Record that `shard` owns job `id`, evicting an arbitrary entry
    /// when the map is at capacity (the victim re-resolves by broadcast
    /// on its next lookup).
    fn remember_job(&self, id: u64, shard: usize) {
        let mut jobs = self.jobs.lock();
        if jobs.len() >= JOB_AFFINITY_CAP && !jobs.contains_key(&id) {
            if let Some(victim) = jobs.keys().next().copied() {
                jobs.remove(&victim);
            }
        }
        if jobs.insert(id, shard).is_none() {
            self.metrics.job_stickies_total.inc();
        }
    }

    /// Resolve the shard owning job `id`: the sticky map, healthy or
    /// not, else a broadcast `GET /v1/jobs/{id}` probe across healthy
    /// shards (a router restart loses the map; the jobs themselves live on
    /// the shards).  An ejected owner stays the owner: no survivor holds
    /// the job, so the request ends in [`RouteKey::Owner`]'s 503 rather
    /// than in a neighbour's 404.
    fn job_owner(&self, id: u64) -> Option<usize> {
        let jobs = self.jobs.lock();
        let known = jobs.get(&id).copied();
        drop(jobs);
        if known.is_some() {
            return known;
        }
        self.metrics.job_broadcasts_total.inc();
        let path = format!("/v1/jobs/{id:016x}");
        for shard in 0..self.config.backends.len() {
            if !self.is_healthy(shard) {
                continue;
            }
            let probe =
                upstream_request(self, shard, "GET", &path, &[], b"", Duration::from_secs(5));
            if probe.map(|r| r.status == 200).unwrap_or(false) {
                self.remember_job(id, shard);
                return Some(shard);
            }
        }
        None
    }

    fn signal_shutdown(&self) {
        let mut flagged = self.shutdown_flag.lock();
        *flagged = true;
        drop(flagged);
        self.shutdown_cv.notify_all();
    }
}

/// Connect to a backend given as a `host:port` string.
fn connect_backend(addr: &str, timeout: Duration) -> Result<HttpClient, ClientError> {
    let addr: SocketAddr = addr.parse().map_err(|_| ClientError::Io)?;
    HttpClient::connect(addr, timeout)
}

/// One upstream round trip to `shard` over a kept-alive connection.
///
/// A parked connection is reused when there is one.  If it fails with
/// [`ClientError::Io`] before any response byte, the shard closed it
/// while idle: redial once, counted as a redial and not as an upstream
/// error.  Every other outcome, and any failure on the fresh connection,
/// is the caller's to classify.
fn upstream_request(
    shared: &RouterShared,
    shard: usize,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
    deadline: Duration,
) -> Result<HttpResponse, ClientError> {
    let pool = &shared.upstreams[shard];
    let round_trip = |mut client: HttpClient| {
        let outcome = client.request(method, path, headers, body);
        (client, outcome)
    };
    if let Some(parked) = pool.take() {
        match round_trip(parked.with_deadline(deadline)) {
            (client, Err(ClientError::Io)) if !client.response_started() => {
                shared.metrics.upstream_redials_total.inc();
            }
            (client, outcome) => return pool.settle(client, outcome),
        }
    }
    let addr = &shared.config.backends[shard];
    let fresh = connect_backend(addr, shared.config.connect_timeout)?;
    shared.metrics.upstream_connects_total.inc();
    let (client, outcome) = round_trip(fresh.with_deadline(deadline));
    pool.settle(client, outcome)
}

/// Send one request where `key` places it and retry, within the retry
/// budget and after a jittered exponential backoff, on the shard `key`
/// picks next.  This is the router's one attempt loop: a retryable 5xx
/// moves on (the last attempt passes it through), malformed HTTP is a 502
/// and never replayed, a transport failure ejects the shard and moves on,
/// and a timeout moves on without ejecting.
///
/// `Ok` is the answering shard and its response (any status passes
/// through); `Err` is the router's own typed answer — a 502, or a 503 +
/// `Retry-After` once shards or budget run out.
fn forward(
    shared: &RouterShared,
    key: RouteKey,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> Result<(usize, HttpResponse), Response> {
    let budget = shared.config.retry_budget.max(1);
    let mut exclude: Option<usize> = None;
    for attempt in 0..budget {
        let Some(shard) = shared.pick_shard(key, exclude) else {
            // Nothing healthy (or only the excluded failure remains).
            break;
        };
        if attempt > 0 {
            shared.metrics.retries_total.inc();
            // 25ms, 50ms, 100ms... ±50% jitter, capped well below any
            // sane request deadline.
            let base = 25u64.saturating_mul(1 << (attempt - 1).min(4));
            let jittered = (base as f64 * (0.5 + shared.jitter.unit())).round() as u64;
            thread::sleep(Duration::from_millis(jittered.clamp(5, 400)));
        }
        match upstream_request(
            shared,
            shard,
            method,
            path,
            headers,
            body,
            shared.config.upstream_deadline,
        ) {
            Ok(response) if retryable_status(response.status) && attempt + 1 < budget => {
                // The backend is alive but refusing (shutting down,
                // internal error): try again where `key` says, but leave
                // health to the prober.
                exclude = Some(shard);
            }
            Ok(response) => return Ok((shard, response)),
            Err(ClientError::Malformed) => {
                // The backend spoke, but not HTTP.  The request may have
                // executed — never replay it.
                shared.metrics.bad_gateway_total.inc();
                return Err(bad_gateway_response());
            }
            Err(ClientError::Io) => {
                // Connect/read failure: the shard is gone; eject it now
                // rather than waiting a probe interval.
                shared.metrics.upstream_errors_total.inc();
                shared.eject(shard);
                exclude = Some(shard);
            }
            Err(ClientError::Timeout) => {
                // Slow is not dead: retry elsewhere, let probes decide
                // health.
                shared.metrics.upstream_errors_total.inc();
                exclude = Some(shard);
            }
        }
    }
    shared.metrics.no_backend_total.inc();
    Err(unavailable_response())
}

/// 5xx statuses worth retrying on another shard.  504 passes through:
/// it already consumed the client's deadline waiting, and replaying a
/// full solve elsewhere would double the damage.
fn retryable_status(status: u16) -> bool {
    matches!(status, 500 | 502 | 503)
}

/// The client's answer to a [`forward`]: the shard's response with its
/// backpressure headers, or the router's own typed refusal.
fn respond(outcome: Result<(usize, HttpResponse), Response>) -> Response {
    let upstream = match outcome {
        Ok((_, upstream)) => upstream,
        Err(refusal) => return refusal,
    };
    let mut response = Response::json(upstream.status, upstream.body_string());
    if let Some(secs) = upstream
        .header("retry-after")
        .and_then(|v| v.parse::<u32>().ok())
    {
        response = response.with_retry_after(secs);
    }
    if let Some(ms) = upstream.header("x-retry-after-ms") {
        response = response.with_header("X-Retry-After-Ms", ms.to_string());
    }
    response
}

fn unavailable_response() -> Response {
    Response::error(503, "no healthy backend (retries exhausted)").with_retry_after(1)
}

fn bad_gateway_response() -> Response {
    Response::error(502, "bad gateway: backend returned malformed HTTP")
}

/// Headers forwarded from the client to the shard.
fn forwarded_headers(request: &Request) -> Vec<(String, String)> {
    let mut headers = Vec::new();
    for name in ["x-priority", "x-deadline-ms"] {
        if let Some(value) = request.header(name) {
            headers.push((name.to_string(), value.to_string()));
        }
    }
    headers
}

fn as_header_refs(headers: &[(String, String)]) -> Vec<(&str, &str)> {
    headers
        .iter()
        .map(|(n, v)| (n.as_str(), v.as_str()))
        .collect()
}

/// A running router.
pub struct Router {
    shared: Arc<RouterShared>,
    acceptor: Option<JoinHandle<()>>,
    prober: Option<JoinHandle<()>>,
}

impl Router {
    /// Bind and start routing.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, or an empty backend list.
    pub fn start(config: RouterConfig) -> std::io::Result<Router> {
        if config.backends.is_empty() {
            return Err(std::io::Error::other("router needs at least one backend"));
        }
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        let addr = listener.local_addr()?;
        let ring = crate::ring::HashRing::build(&config.backends, config.replicas);
        let healthy = config
            .backends
            .iter()
            .map(|_| AtomicBool::new(true))
            .collect();
        let table = RankedMutex::new(
            BoundedTable::new(
                config.backends.len(),
                DEFAULT_TABLE_CAPACITY,
                DEFAULT_EXPANSION,
            ),
            rank::ROUTER_TABLE,
            "RouterShared.table",
        );
        let shared = Arc::new(RouterShared {
            stop: AtomicBool::new(false),
            shutdown_flag: RankedMutex::new(false, rank::SHUTDOWN, "RouterShared.shutdown_flag"),
            shutdown_cv: Condvar::new(),
            ring,
            table,
            jobs: RankedMutex::new(HashMap::new(), rank::ROUTER_JOBS, "RouterShared.jobs"),
            upstreams: config
                .backends
                .iter()
                .map(|_| UpstreamPool::new())
                .collect(),
            healthy,
            metrics: RouterMetrics::default(),
            addr,
            jitter: Jitter::new(
                u64::from(std::process::id()) ^ (u64::from(addr.port()) << 32) ^ 0x0707,
            ),
            config,
        });
        shared
            .metrics
            .shards
            .set(shared.config.backends.len() as i64);
        shared
            .metrics
            .healthy_shards
            .set(shared.config.backends.len() as i64);

        let prober = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || probe_loop(&shared))
        };
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(Router {
            shared,
            acceptor: Some(acceptor),
            prober: Some(prober),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The router's own metrics (test introspection).
    pub fn metrics(&self) -> &RouterMetrics {
        &self.shared.metrics
    }

    /// Block until a client POSTs `/v1/shutdown`.
    pub fn wait_for_shutdown_request(&self) {
        let mut flagged = self.shared.shutdown_flag.lock();
        while !*flagged {
            flagged = flagged.wait(&self.shared.shutdown_cv);
        }
    }

    /// Stop accepting and join the router threads.  Backends are not
    /// touched — their owner (the binary, or a test) decides their fate.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.shared.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        if let Some(prober) = self.prober.take() {
            let _ = prober.join();
        }
        // Close parked upstream connections now, so the backends' connection
        // threads see EOF instead of idling out.
        for pool in &self.shared.upstreams {
            pool.clear();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<RouterShared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        thread::spawn(move || drive_connection(stream, &shared));
    }
}

/// Background health probing: eject on a failed `/healthz`, readmit on
/// the next success.
fn probe_loop(shared: &Arc<RouterShared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        for (shard, addr) in shared.config.backends.iter().enumerate() {
            let alive = connect_backend(addr, shared.config.connect_timeout)
                .map(|c| c.with_deadline(Duration::from_millis(750)))
                .and_then(|mut c| c.request("GET", "/healthz", &[], b""))
                .map(|r| r.status == 200)
                .unwrap_or(false);
            let was = shared.healthy[shard].swap(alive, Ordering::Relaxed);
            if !alive {
                shared.upstreams[shard].clear();
            }
            if was && !alive {
                shared.metrics.shard_ejections_total.inc();
            } else if !was && alive {
                shared.metrics.shard_readmissions_total.inc();
            }
        }
        shared
            .metrics
            .healthy_shards
            .set(shared.healthy_count() as i64);
        // Sleep in short slices so shutdown is prompt.
        let deadline = Instant::now() + shared.config.probe_interval;
        while Instant::now() < deadline && !shared.stop.load(Ordering::SeqCst) {
            thread::sleep(Duration::from_millis(20));
        }
    }
}

impl ConnectionHandler for Arc<RouterShared> {
    fn handle(&self, request: &Request) -> Response {
        self.metrics.requests_total.inc();
        route_router(request, self)
    }

    fn handle_stream(&self, request: &Request, stream: &mut TcpStream, leftover: &[u8]) -> bool {
        let (shard, tunnels) = if request.method == "GET"
            && request.path.starts_with("/v1/jobs/")
            && request.path.ends_with("/events")
        {
            // The job-owner rule of `route_job_entry`: an ejected owner
            // is a 503, not a tunnel to it.
            let shard = match job_id_from_path(&request.path).and_then(|id| self.job_owner(id)) {
                None => Err(Response::error(404, "no such job")),
                Some(owner) => self
                    .pick_shard(RouteKey::Owner(owner), None)
                    .ok_or_else(|| {
                        self.metrics.no_backend_total.inc();
                        unavailable_response()
                    }),
            };
            (shard, &self.metrics.job_event_tunnels_total)
        } else if request.method == "POST" && request.path == "/v1/transient" {
            (
                session_shard(self, request),
                &self.metrics.transient_tunnels_total,
            )
        } else {
            return false;
        };
        self.metrics.requests_total.inc();
        match shard {
            Ok(shard) => tunnel(self, shard, request, stream, leftover, tunnels),
            Err(refusal) => refuse(stream, refusal),
        }
        true
    }

    fn record_error(&self, _status: u16) {}

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

fn route_router(request: &Request, shared: &Arc<RouterShared>) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            if shared.healthy_count() > 0 {
                Response::text(200, "ok\n")
            } else {
                Response::error(503, "no healthy backend").with_retry_after(1)
            }
        }
        ("GET", "/metrics") => aggregate_metrics(shared),
        ("GET", "/v1/designs") => respond(forward(
            shared,
            RouteKey::AnyHealthy,
            "GET",
            "/v1/designs",
            &[],
            b"",
        )),
        ("POST", "/v1/shutdown") => {
            if !shared.config.allow_shutdown {
                return Response::error(404, "shutdown disabled");
            }
            // Best-effort propagation to every backend, then drain self.
            for (shard, _) in shared.config.backends.iter().enumerate() {
                let _ = upstream_request(
                    shared,
                    shard,
                    "POST",
                    "/v1/shutdown",
                    &[],
                    b"",
                    Duration::from_secs(2),
                );
            }
            shared.signal_shutdown();
            Response::json(200, "{\n  \"status\": \"shutting down\"\n}\n".to_string()).with_close()
        }
        ("POST", "/v1/solve" | "/v1/flow" | "/v1/pillars") => {
            let key = match ApiJob::parse(&request.path, &request.body) {
                Some(Ok(job)) => job.affinity_key(),
                Some(Err(message)) => return Response::error(400, &message),
                None => return Response::error(404, "no such endpoint"),
            };
            let headers = forwarded_headers(request);
            respond(forward(
                shared,
                RouteKey::Affinity(key),
                "POST",
                &request.path,
                &as_header_refs(&headers),
                &request.body,
            ))
        }
        ("POST", "/v1/batch") => route_batch(request, shared),
        ("POST", "/v1/jobs") => route_job_submit(request, shared),
        (_, path) if path.starts_with("/v1/jobs/") => route_job_entry(request, shared),
        (
            _,
            "/healthz" | "/metrics" | "/v1/designs" | "/v1/shutdown" | "/v1/solve" | "/v1/flow"
            | "/v1/pillars" | "/v1/batch" | "/v1/transient" | "/v1/jobs",
        ) => Response::error(405, "method not allowed"),
        _ => Response::error(404, "no such endpoint"),
    }
}

/// The sticky shard of a transient session: sessions ride the same
/// operator-affinity placement as the solves for their geometry, so they
/// land where the warm contexts already live.
fn session_shard(shared: &RouterShared, request: &Request) -> Result<usize, Response> {
    let req = decode_json(&request.body)
        .and_then(|json| TransientRequest::parse(&json))
        .map_err(|message| Response::error(400, &message))?;
    shared
        .pick_shard(RouteKey::Affinity(req.affinity_key()), None)
        .ok_or_else(|| {
            shared.metrics.no_backend_total.inc();
            unavailable_response()
        })
}

/// Answer a connection the router was about to tunnel, and close it.
fn refuse(client: &mut TcpStream, response: Response) {
    let _ = client.write_all(&response.with_close().to_bytes());
}

/// Tunnel a streamed request (a transient session, a job's `/events`) to
/// `shard`: re-send the request head, body and any bytes the client
/// pipelined behind it, then degrade to a byte pump in both directions
/// until either side closes.  Tunnels are never retried: a mid-stream
/// replay would silently restart a trajectory.  `tunnels` counts the
/// ones that reach their shard.
fn tunnel(
    shared: &RouterShared,
    shard: usize,
    request: &Request,
    client: &mut TcpStream,
    leftover: &[u8],
    tunnels: &Counter,
) {
    let backend_addr = &shared.config.backends[shard];
    let connected = backend_addr
        .parse::<SocketAddr>()
        .ok()
        .and_then(|addr| TcpStream::connect_timeout(&addr, shared.config.connect_timeout).ok());
    let Some(mut backend) = connected else {
        shared.metrics.upstream_errors_total.inc();
        shared.eject(shard);
        refuse(client, unavailable_response());
        return;
    };
    let _ = backend.set_nodelay(true);
    // Short read timeout so both pump directions notice the other side
    // finishing (and router shutdown) promptly.
    if backend
        .set_read_timeout(Some(Duration::from_millis(200)))
        .is_err()
    {
        refuse(client, unavailable_response());
        return;
    }
    let mut head = format!(
        "{} {} HTTP/1.1\r\nHost: {backend_addr}\r\nContent-Length: {}\r\nConnection: close\r\n",
        request.method,
        request.path,
        request.body.len()
    );
    for (name, value) in forwarded_headers(request) {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    if backend
        .write_all(head.as_bytes())
        .and_then(|()| backend.write_all(&request.body))
        .and_then(|()| backend.write_all(leftover))
        .is_err()
    {
        shared.metrics.upstream_errors_total.inc();
        shared.eject(shard);
        refuse(client, unavailable_response());
        return;
    }
    tunnels.inc();

    let (Ok(mut backend_read), Ok(mut client_write)) = (backend.try_clone(), client.try_clone())
    else {
        return;
    };
    let done = AtomicBool::new(false);
    thread::scope(|scope| {
        scope.spawn(|| pump(&mut backend_read, &mut client_write, &done, shared));
        pump(client, &mut backend, &done, shared);
    });
}

/// Copy bytes `from` → `to` until EOF, a write failure, the opposite
/// pump finishing, or router shutdown.  Half-closes the destination on
/// exit so the peer sees a clean end-of-stream.
fn pump(from: &mut TcpStream, to: &mut TcpStream, done: &AtomicBool, shared: &RouterShared) {
    let mut buf = [0u8; 4096];
    loop {
        if done.load(Ordering::Relaxed) || shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => break,
        }
    }
    done.store(true, Ordering::Relaxed);
    let _ = to.shutdown(Shutdown::Write);
}

/// Extracts the 16-hex job id segment from `/v1/jobs/{id}[/action]`.
fn job_id_from_path(path: &str) -> Option<u64> {
    let rest = path.strip_prefix("/v1/jobs/")?;
    let id_part = rest.split('/').next().unwrap_or(rest);
    if id_part.len() != 16 {
        return None;
    }
    u64::from_str_radix(id_part, 16).ok()
}

/// `POST /v1/jobs`: route by a hash of the spec body (same-spec
/// resubmits land on the same shard, next to any memoised evaluations),
/// then record the admitted id in the sticky map so every follow-up
/// finds the owning shard without a broadcast.
fn route_job_submit(request: &Request, shared: &Arc<RouterShared>) -> Response {
    let headers = forwarded_headers(request);
    let outcome = forward(
        shared,
        RouteKey::Affinity(fnv1a_bytes(&request.body)),
        "POST",
        "/v1/jobs",
        &as_header_refs(&headers),
        &request.body,
    );
    if let Ok((shard, upstream)) = &outcome {
        if upstream.status == 202 {
            let id = tsc_bench::json::parse(&upstream.body_string())
                .ok()
                .and_then(|json| {
                    json.get("id")
                        .and_then(Json::as_str)
                        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                });
            if let Some(id) = id {
                shared.remember_job(id, *shard);
            }
        }
    }
    respond(outcome)
}

/// `/v1/jobs/{id}[/action]` (status, cancel, checkpoint, and wrong-verb
/// variants): forward to the owning shard.  Job state lives on exactly
/// one shard, so every attempt goes there — a neighbour would only
/// manufacture a misleading 404.
fn route_job_entry(request: &Request, shared: &Arc<RouterShared>) -> Response {
    let Some(shard) = job_id_from_path(&request.path).and_then(|id| shared.job_owner(id)) else {
        return Response::error(404, "no such job");
    };
    let headers = forwarded_headers(request);
    respond(forward(
        shared,
        RouteKey::Owner(shard),
        &request.method,
        &request.path,
        &as_header_refs(&headers),
        &request.body,
    ))
}

/// Split a batch envelope into per-shard sub-batches by item affinity,
/// forward them concurrently, and merge per-item results back in
/// envelope order.
fn route_batch(request: &Request, shared: &Arc<RouterShared>) -> Response {
    let json = match decode_json(&request.body) {
        Ok(json) => json,
        Err(message) => return Response::error(400, &message),
    };
    let items = match BatchRequest::envelope_items(&json) {
        Ok(items) => items,
        Err(message) => return Response::error(400, &message),
    };

    // Place each item by affinity and group item indices per shard, in
    // envelope order; a group retries from its first item's key.  An
    // unparseable item still routes (hash of its raw text) so the owning
    // backend reports the per-item 400 — router and single-server
    // behaviour stay identical.
    let mut groups: Vec<(usize, u64, Vec<usize>)> = Vec::new();
    for (index, item) in items.iter().enumerate() {
        let key = BatchRequest::parse_item(item).map_or_else(
            |_| fnv1a_bytes(item.pretty().as_bytes()),
            |job| job.affinity_key(),
        );
        let Some(shard) = shared.pick_shard(RouteKey::Affinity(key), None) else {
            continue;
        };
        match groups.iter_mut().find(|(s, _, _)| *s == shard) {
            Some((_, _, indices)) => indices.push(index),
            None => groups.push((shard, key, vec![index])),
        }
    }

    // When one shard holds every item, its sub-batch is the client's
    // envelope: forward the client's bytes as they came.
    let whole = matches!(groups.as_slice(), [(_, _, indices)] if indices.len() == items.len());
    let headers = forwarded_headers(request);
    let header_refs = as_header_refs(&headers);
    let mut merged: Vec<Option<Json>> = vec![None; items.len()];

    let send = |(shard, key, indices): (usize, u64, Vec<usize>)| {
        let rendered;
        let body = if whole {
            &request.body
        } else {
            let sub_items: Vec<Json> = indices.iter().map(|i| items[*i].clone()).collect();
            rendered = Json::object()
                .field("items", sub_items)
                .pretty()
                .into_bytes();
            &rendered
        };
        shared.metrics.batch_subbatches_total.inc();
        let route = RouteKey::SubBatch { shard, key };
        let outcome = forward(shared, route, "POST", "/v1/batch", &header_refs, body);
        (indices, outcome)
    };
    // Fan the sub-batches out concurrently — shards solve in parallel.
    // The first goes out on this thread, so a batch that lands on one
    // shard spawns no thread at all.
    let mut outcomes: Vec<(Vec<usize>, _)> = thread::scope(|scope| {
        let mut groups = groups.into_iter();
        let first = groups.next();
        let handles: Vec<_> = groups.map(|group| scope.spawn(|| send(group))).collect();
        let mut outcomes: Vec<_> = first.map(send).into_iter().collect();
        outcomes.extend(handles.into_iter().map(|handle| {
            handle
                .join()
                .unwrap_or_else(|_| (Vec::new(), Err(unavailable_response())))
        }));
        outcomes
    });

    // The shard's answer to the whole envelope is the client's answer
    // when it holds one item per request item: pass its bytes through.
    if whole {
        if let Some((_, Ok((_, upstream)))) = outcomes.first_mut() {
            let answered = std::str::from_utf8(&upstream.body)
                .ok()
                .and_then(envelope_count);
            if upstream.status == 200 && answered == Some(items.len()) {
                let mut response = Response::json(200, String::new());
                response.body = std::mem::take(&mut upstream.body);
                return response;
            }
        }
    }

    for (indices, outcome) in outcomes {
        let (status, body) = match outcome {
            Ok((_, upstream)) => (upstream.status, upstream.body_string()),
            Err(refusal) => (
                refusal.status,
                String::from_utf8_lossy(&refusal.body).into(),
            ),
        };
        let parsed = tsc_bench::json::parse(&body).ok();
        let sub_items = parsed
            .as_ref()
            .and_then(|j| j.get("items"))
            .and_then(Json::as_array)
            .filter(|sub_items| status == 200 && sub_items.len() == indices.len());
        if let Some(sub_items) = sub_items {
            for (index, item) in indices.into_iter().zip(sub_items) {
                merged[index] = Some(item.clone());
            }
            continue;
        }
        // The whole sub-batch was refused (a shard's 429, the router's
        // own 503 or 502) or came back inconsistent: surface it per item.
        let status = if status == 200 { 502 } else { status };
        let error =
            parsed.unwrap_or_else(|| Json::object().field("error", "bad sub-batch response"));
        for index in indices {
            merged[index] = Some(
                Json::object()
                    .field("status", status as usize)
                    .field("body", error.clone()),
            );
        }
    }

    let results: Vec<Json> = merged
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| {
                Json::object()
                    .field("status", 503usize)
                    .field("body", Json::object().field("error", "no healthy backend"))
            })
        })
        .collect();
    let errors = results
        .iter()
        .filter(|item| {
            item.get("status")
                .and_then(Json::as_usize)
                .is_none_or(|status| status != 200)
        })
        .count();
    let envelope = Json::object()
        .field("count", results.len())
        .field("errors", errors)
        .field("items", results);
    Response::json(200, envelope.pretty())
}

/// Fetch `/metrics` from every healthy shard, sum samples by series
/// (dropping scrape-time quantile gauges — bucket counts sum, quantiles
/// do not), and append the router's own series.
fn aggregate_metrics(shared: &Arc<RouterShared>) -> Response {
    let mut order: Vec<String> = Vec::new();
    let mut sums: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
    let mut types: Vec<(String, String)> = Vec::new();
    let mut helps: std::collections::HashMap<String, String> = std::collections::HashMap::new();
    let mut scraped = 0usize;

    for shard in 0..shared.config.backends.len() {
        if !shared.is_healthy(shard) {
            continue;
        }
        let exposition = upstream_request(
            shared,
            shard,
            "GET",
            "/metrics",
            &[],
            b"",
            Duration::from_secs(5),
        );
        let Ok(response) = exposition else { continue };
        if response.status != 200 {
            continue;
        }
        let Ok(parsed) = parse_exposition(&response.body_string()) else {
            continue;
        };
        scraped += 1;
        for (family, kind) in parsed.types {
            if family.contains("_quantile") {
                continue;
            }
            if !types.iter().any(|(f, _)| *f == family) {
                types.push((family, kind));
            }
        }
        for (family, help) in parsed.helps {
            helps.entry(family).or_insert(help);
        }
        for (series, value) in parsed.samples {
            let base = series.split('{').next().unwrap_or(&series);
            if base.ends_with("_quantile") {
                continue;
            }
            if let Some(sum) = sums.get_mut(&series) {
                *sum += value;
            } else {
                order.push(series.clone());
                sums.insert(series, value);
            }
        }
    }

    // Emit family-grouped: HELP/TYPE then every series of that family,
    // then any leftover (untyped) series, then the router's own block.
    let mut out = String::with_capacity(16 * 1024);
    let mut emitted = vec![false; order.len()];
    for (family, kind) in &types {
        if let Some(help) = helps.get(family) {
            out.push_str(&format!("# HELP {family} {help}\n"));
        }
        out.push_str(&format!("# TYPE {family} {kind}\n"));
        for (i, series) in order.iter().enumerate() {
            if emitted[i] {
                continue;
            }
            let base = series.split('{').next().unwrap_or(series);
            let of_family = base == family
                || base
                    .strip_prefix(family.as_str())
                    .is_some_and(|suffix| ["_bucket", "_sum", "_count"].contains(&suffix));
            if of_family {
                emitted[i] = true;
                let value = sums[series];
                out.push_str(&format!("{series} {value}\n"));
            }
        }
    }
    for (i, series) in order.iter().enumerate() {
        if !emitted[i] {
            let value = sums[series];
            out.push_str(&format!("{series} {value}\n"));
        }
    }
    out.push_str(&format!(
        "# HELP tsc_router_scraped_shards Shards whose exposition merged into this scrape.\n# TYPE tsc_router_scraped_shards gauge\ntsc_router_scraped_shards {scraped}\n"
    ));
    out.push_str(&shared.metrics.render());

    let mut response = Response::text(200, &out);
    response.content_type = "text/plain; version=0.0.4";
    response
}
