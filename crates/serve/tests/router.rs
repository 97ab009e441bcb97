//! Router integration tests: failover, readmission, typed degradation
//! (502/503), batch fan-out, and aggregated metrics.

mod common;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use common::{one_shot, requests_for};
use tsc_bench::json::{self, Json};
use tsc_bench::prom::parse_exposition;
use tsc_serve::router::{Router, RouterConfig};
use tsc_serve::{validate_exposition, Server, ServerConfig};

const SMALL_SOLVE: &[u8] = br#"{"design": "gemmini-memory", "tiers": 2, "lateral_cells": 6}"#;

fn start_backend(port: u16) -> Server {
    Server::start(ServerConfig {
        port,
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind backend")
}

fn start_router(backends: Vec<String>, probe_interval: Duration) -> Router {
    Router::start(RouterConfig {
        backends,
        probe_interval,
        retry_budget: 3,
        ..RouterConfig::default()
    })
    .expect("bind router")
}

fn wait_until(what: &str, timeout: Duration, mut predicate: impl FnMut() -> bool) {
    let start = Instant::now();
    while !predicate() {
        assert!(start.elapsed() < timeout, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A key-varied solve body, so consistent hashing spreads requests over
/// both shards (utilization does not vary the affinity key, but
/// `lateral_cells` does).
fn keyed_solve(i: usize) -> Vec<u8> {
    format!(
        r#"{{"design": "gemmini-memory", "tiers": 2, "lateral_cells": {}}}"#,
        6 + 2 * (i % 6)
    )
    .into_bytes()
}

#[test]
fn failover_reroutes_and_readmits_a_restarted_backend() {
    let backend_a = start_backend(0);
    let backend_b = start_backend(0);
    let addr_a = backend_a.addr();
    let router = start_router(
        vec![addr_a.to_string(), backend_b.addr().to_string()],
        Duration::from_millis(50),
    );
    let raddr = router.addr();

    // Warm both shards through the router: every request must succeed.
    for i in 0..8 {
        let response = one_shot(raddr, "POST", "/v1/solve", &[], &keyed_solve(i));
        assert_eq!(response.status, 200, "warm {i}: {}", response.body_str());
    }

    // Kill shard A mid-run.  Every subsequent request must still come
    // back 200 — keys owned by A re-route to B within the retry budget.
    backend_a.shutdown();
    for i in 0..8 {
        let response = one_shot(raddr, "POST", "/v1/solve", &[], &keyed_solve(i));
        assert_eq!(
            response.status,
            200,
            "failover {i}: {}",
            response.body_str()
        );
    }
    wait_until("shard A ejection", Duration::from_secs(10), || {
        router.metrics().shard_ejections_total.get() >= 1
    });

    // Restart shard A on its old port (the router knows it by address).
    // Std listeners use SO_REUSEADDR, but retry anyway in case the old
    // socket lingers.
    let mut restarted = None;
    for _ in 0..100 {
        match Server::start(ServerConfig {
            port: addr_a.port(),
            workers: 1,
            ..ServerConfig::default()
        }) {
            Ok(server) => {
                restarted = Some(server);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    let restarted = restarted.expect("rebind shard A's port");

    // The prober readmits it, and traffic keeps flowing.
    wait_until("shard A readmission", Duration::from_secs(10), || {
        router.metrics().shard_readmissions_total.get() >= 1
    });
    wait_until("both shards healthy", Duration::from_secs(10), || {
        router.metrics().healthy_shards.get() == 2
    });
    for i in 0..8 {
        let response = one_shot(raddr, "POST", "/v1/solve", &[], &keyed_solve(i));
        assert_eq!(response.status, 200, "readmitted {i}");
    }
    // The restarted (cold) shard is actually serving probes again.
    wait_until("restarted shard serves", Duration::from_secs(10), || {
        requests_for(restarted.metrics(), "healthz", 200) > 0
    });

    router.shutdown();
    restarted.shutdown();
    backend_b.shutdown();
}

#[test]
fn batch_through_router_preserves_order_and_isolates_errors() {
    let backend_a = start_backend(0);
    let backend_b = start_backend(0);
    let router = start_router(
        vec![backend_a.addr().to_string(), backend_b.addr().to_string()],
        Duration::from_millis(100),
    );

    // Items with three distinct affinity keys plus two invalid items —
    // the router splits per shard and must reassemble in order.
    let body = br#"{"items": [
        {"design": "gemmini-memory", "tiers": 2, "lateral_cells": 6},
        {"design": "nope"},
        {"design": "gemmini-memory", "tiers": 2, "lateral_cells": 8},
        "not an object",
        {"design": "gemmini-memory", "tiers": 2, "lateral_cells": 10, "utilization_percent": 60},
        {"design": "gemmini-memory", "tiers": 2, "lateral_cells": 10, "utilization_percent": 30}
    ]}"#;
    let response = one_shot(router.addr(), "POST", "/v1/batch", &[], body);
    assert_eq!(response.status, 200, "body: {}", response.body_str());
    let envelope = json::parse(&response.body_str()).expect("envelope parses");
    assert_eq!(envelope.get("count").and_then(Json::as_usize), Some(6));
    assert_eq!(envelope.get("errors").and_then(Json::as_usize), Some(2));
    let items = envelope.get("items").and_then(Json::as_array).unwrap();
    let statuses: Vec<usize> = items
        .iter()
        .map(|item| item.get("status").and_then(Json::as_usize).unwrap_or(0))
        .collect();
    assert_eq!(statuses, vec![200, 400, 200, 400, 200, 200]);
    assert!(router.metrics().batch_subbatches_total.get() >= 1);

    // Envelope-level garbage is a router-side 400, not a fan-out.
    let bad = one_shot(router.addr(), "POST", "/v1/batch", &[], b"not json");
    assert_eq!(bad.status, 400);

    router.shutdown();
    backend_a.shutdown();
    backend_b.shutdown();
}

#[test]
fn aggregated_metrics_validate_and_sum_shard_counters() {
    let backend_a = start_backend(0);
    let backend_b = start_backend(0);
    let router = start_router(
        vec![backend_a.addr().to_string(), backend_b.addr().to_string()],
        Duration::from_millis(100),
    );

    for i in 0..10 {
        let response = one_shot(router.addr(), "POST", "/v1/solve", &[], &keyed_solve(i));
        assert_eq!(response.status, 200);
    }

    let aggregated = one_shot(router.addr(), "GET", "/metrics", &[], b"");
    assert_eq!(aggregated.status, 200);
    let text = aggregated.body_str();
    validate_exposition(&text).expect("aggregated exposition is valid");
    let parsed = parse_exposition(&text).expect("aggregated exposition parses");
    let aggregated_solves: f64 = parsed
        .samples
        .iter()
        .find(|(name, _)| name == "tsc_backend_solves_total")
        .map(|(_, value)| *value)
        .expect("summed backend counter present");

    // The aggregate equals the sum of the two shards' own counters.
    let mut direct_sum = 0.0;
    for backend in [&backend_a, &backend_b] {
        let scrape = one_shot(backend.addr(), "GET", "/metrics", &[], b"");
        let parsed = parse_exposition(&scrape.body_str()).expect("shard exposition");
        direct_sum += parsed
            .samples
            .iter()
            .find(|(name, _)| name == "tsc_backend_solves_total")
            .map(|(_, value)| *value)
            .unwrap_or(0.0);
    }
    assert!(
        (aggregated_solves - direct_sum).abs() < 0.5,
        "aggregated {aggregated_solves} != shard sum {direct_sum}"
    );
    // Router-side series ride along in the same exposition, including
    // the upstream connection counters.
    assert!(text.contains("tsc_router_requests_total"));
    for series in [
        "tsc_router_upstream_connects_total",
        "tsc_router_upstream_redials_total",
    ] {
        assert!(
            parsed.samples.iter().any(|(name, _)| name == series),
            "{series} missing from the aggregated exposition"
        );
        assert!(text.contains(&format!("# TYPE {series} counter")));
    }
    assert!(text.contains("tsc_router_scraped_shards 2"));
    // Quantile gauges cannot be summed and must be dropped.
    assert!(!text.contains("_quantile"));

    router.shutdown();
    backend_a.shutdown();
    backend_b.shutdown();
}

#[test]
fn sequential_solves_reuse_one_upstream_connection_per_shard() {
    let backend_a = start_backend(0);
    let backend_b = start_backend(0);
    let router = start_router(
        vec![backend_a.addr().to_string(), backend_b.addr().to_string()],
        Duration::from_millis(100),
    );

    for i in 0..20 {
        let response = one_shot(router.addr(), "POST", "/v1/solve", &[], &keyed_solve(i));
        assert_eq!(response.status, 200, "solve {i}: {}", response.body_str());
    }
    // Both shards served, each over the one connection dialed for its
    // first request.
    for backend in [&backend_a, &backend_b] {
        assert!(requests_for(backend.metrics(), "solve", 200) > 0);
    }
    let connects = router.metrics().upstream_connects_total.get();
    assert!(
        connects <= 2,
        "20 sequential solves dialed {connects} connections"
    );
    assert_eq!(router.metrics().upstream_redials_total.get(), 0);
    assert_eq!(router.metrics().upstream_errors_total.get(), 0);

    router.shutdown();
    backend_a.shutdown();
    backend_b.shutdown();
}

#[test]
fn connection_closed_by_an_idle_shard_is_redialed_without_ejection() {
    let backend = Server::start(ServerConfig {
        workers: 1,
        idle_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    })
    .expect("bind backend");
    let router = start_router(vec![backend.addr().to_string()], Duration::from_millis(100));

    let first = one_shot(router.addr(), "POST", "/v1/solve", &[], SMALL_SOLVE);
    assert_eq!(first.status, 200, "body: {}", first.body_str());
    assert_eq!(router.metrics().upstream_connects_total.get(), 1);
    let errors = router.metrics().upstream_errors_total.get();
    let ejections = router.metrics().shard_ejections_total.get();
    let redials = router.metrics().upstream_redials_total.get();

    // The shard closes the parked connection once it has idled past its
    // timeout (checked on its 200 ms read poll).
    std::thread::sleep(Duration::from_millis(700));
    let second = one_shot(router.addr(), "POST", "/v1/solve", &[], SMALL_SOLVE);
    assert_eq!(second.status, 200, "body: {}", second.body_str());
    assert_eq!(router.metrics().upstream_errors_total.get(), errors);
    assert_eq!(router.metrics().shard_ejections_total.get(), ejections);
    assert_eq!(router.metrics().upstream_redials_total.get(), redials + 1);
    assert_eq!(router.metrics().upstream_connects_total.get(), 2);
    assert_eq!(router.metrics().retries_total.get(), 0);

    router.shutdown();
    backend.shutdown();
}

#[test]
fn transient_sessions_tunnel_through_the_router_and_stick_to_a_shard() {
    let backend_a = start_backend(0);
    let backend_b = start_backend(0);
    let router = start_router(
        vec![backend_a.addr().to_string(), backend_b.addr().to_string()],
        Duration::from_millis(100),
    );
    let body = r#"{"design": "gemmini-memory", "tiers": 2, "lateral_cells": 6,
                   "dt_seconds": 0.001}"#;
    let wait = Duration::from_secs(60);

    // A full session through the tunnel: open, steps, DVFS update, close.
    let mut session = common::SessionClient::open(router.addr(), body, &[]);
    assert_eq!(session.read_head(wait), 200);
    let open = session.next_event(wait);
    assert_eq!(common::event_kind(&open), "open");
    assert_eq!(common::field_str(&open, "pool"), "miss");
    session.send(r#"{"op": "step", "steps": 2}"#);
    for i in 1..=2 {
        let step = session.next_event(wait);
        assert_eq!(common::event_kind(&step), "step");
        assert_eq!(common::field_num(&step, "step"), f64::from(i));
    }
    session.send(r#"{"op": "power", "utilization_percent": 40}"#);
    assert_eq!(common::event_kind(&session.next_event(wait)), "power");
    session.send(r#"{"op": "close"}"#);
    let closed = session.next_event(wait);
    assert_eq!(common::event_kind(&closed), "closed");
    assert_eq!(common::field_num(&closed, "steps"), 2.0);
    assert!(session.at_eof(Duration::from_secs(5)), "close-delimited");

    // Sticky affinity: the reopened session must land on the shard that
    // pooled the state — observable as a pool hit through the tunnel.
    let mut session = common::SessionClient::open(router.addr(), body, &[]);
    assert_eq!(session.read_head(wait), 200);
    let reopened = session.next_event(wait);
    assert_eq!(common::field_str(&reopened, "pool"), "hit");
    session.send(r#"{"op": "close"}"#);
    assert_eq!(common::event_kind(&session.next_event(wait)), "closed");

    // A malformed opening body is refused with a plain 400, not tunneled.
    let mut refused = common::SessionClient::open(router.addr(), "{not json", &[]);
    assert_eq!(refused.read_head(wait), 400);

    let scrape = one_shot(router.addr(), "GET", "/metrics", &[], b"");
    let parsed = parse_exposition(&scrape.body_str()).expect("router exposition");
    let tunnels = parsed
        .samples
        .iter()
        .find(|(name, _)| name == "tsc_router_transient_tunnels_total")
        .map(|(_, value)| *value)
        .expect("tunnel counter present");
    assert!(
        (tunnels - 2.0).abs() < 0.5,
        "two sessions tunneled, counter says {tunnels}"
    );

    router.shutdown();
    backend_a.shutdown();
    backend_b.shutdown();
}

/// A fake backend that passes health probes but answers everything else
/// with bytes that are not HTTP.
fn spawn_garbage_backend() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake backend");
    let addr = listener.local_addr().expect("local addr");
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            std::thread::spawn(move || {
                let mut buffer = [0u8; 4096];
                let mut head = Vec::new();
                while !head.windows(4).any(|w| w == b"\r\n\r\n") {
                    match stream.read(&mut buffer) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => head.extend_from_slice(&buffer[..n]),
                    }
                }
                let request = String::from_utf8_lossy(&head);
                let reply: &[u8] = if request.starts_with("GET /healthz") {
                    b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nConnection: close\r\n\r\nok\n"
                } else {
                    b"\x00\xffTHIS IS NOT HTTP\x00garbage"
                };
                let _ = stream.write_all(reply);
                let _ = stream.flush();
            });
        }
    });
    addr
}

#[test]
fn malformed_backend_is_a_typed_502_and_never_retried() {
    let fake = spawn_garbage_backend();
    let router = start_router(vec![fake.to_string()], Duration::from_millis(100));

    let response = one_shot(router.addr(), "POST", "/v1/solve", &[], SMALL_SOLVE);
    assert_eq!(response.status, 502, "body: {}", response.body_str());
    assert!(response.body_str().contains("malformed"));
    // Malformed responses are terminal: the request may have executed,
    // so the router must not have replayed it.
    assert_eq!(router.metrics().bad_gateway_total.get(), 1);
    assert_eq!(router.metrics().retries_total.get(), 0);

    router.shutdown();
}

#[test]
fn dead_backends_degrade_to_typed_503_with_retry_after() {
    // Two addresses where nothing listens: connect refused on both.
    let dead: Vec<String> = (0..2)
        .map(|_| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind probe");
            let addr = listener.local_addr().expect("local addr");
            drop(listener);
            addr.to_string()
        })
        .collect();
    let router = start_router(dead, Duration::from_secs(60));

    let start = Instant::now();
    let response = one_shot(router.addr(), "POST", "/v1/solve", &[], SMALL_SOLVE);
    assert_eq!(response.status, 503, "body: {}", response.body_str());
    assert!(response.header("retry-after").is_some(), "typed 503 hint");
    // Degradation is prompt — retries and backoff, not a hang.
    assert!(start.elapsed() < Duration::from_secs(10));
    assert!(router.metrics().no_backend_total.get() >= 1);

    // The router itself stays alive and reports the outage.
    let health = one_shot(router.addr(), "GET", "/healthz", &[], b"");
    assert_eq!(health.status, 503);

    router.shutdown();
}

/// Seeded garbage requests against the router must produce clean 4xx
/// closes, never hangs or panics, with the router still serving after.
#[test]
fn garbage_client_requests_do_not_wedge_the_router() {
    let backend = start_backend(0);
    let router = start_router(vec![backend.addr().to_string()], Duration::from_millis(100));
    let raddr = router.addr();

    let corpus: &[&[u8]] = &[
        b"\x00\x01\x02\x03\x04\r\n\r\n",
        b"GET\r\n\r\n",
        b"POST /v1/solve HTTP/1.1\r\nContent-Length: notanumber\r\n\r\n",
        b"POST /v1/solve HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n",
        b"FROB /v1/solve HTTP/1.1\r\nHost: x\r\n\r\n",
        b"POST /v1/solve HTTP/2.0\r\nHost: x\r\n\r\n",
    ];
    for raw in corpus {
        let mut stream = std::net::TcpStream::connect(raddr).expect("connect router");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let _ = stream.write_all(raw);
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let mut reply = Vec::new();
        let _ = stream.read_to_end(&mut reply);
        let text = String::from_utf8_lossy(&reply);
        // Either a clean 4xx or an empty close — never a 5xx, never a hang.
        if !text.is_empty() {
            assert!(
                text.starts_with("HTTP/1.1 4"),
                "garbage {raw:?} produced: {text}"
            );
        }
    }

    // Router is still routing after the abuse.
    let response = one_shot(raddr, "POST", "/v1/solve", &[], SMALL_SOLVE);
    assert_eq!(response.status, 200, "body: {}", response.body_str());

    router.shutdown();
    backend.shutdown();
}

/// End-to-end jobs smoke over a 2-shard router: submit routes to one
/// shard and sticks, status/checkpoint/cancel find the owner, the
/// events stream tunnels through, and the aggregated exposition carries
/// both the shard rollups and the router's own affinity counters.
#[test]
fn jobs_route_sticky_through_a_two_shard_router() {
    let backend_a = start_backend(0);
    let backend_b = start_backend(0);
    let router = start_router(
        vec![backend_a.addr().to_string(), backend_b.addr().to_string()],
        Duration::from_millis(100),
    );
    let raddr = router.addr();

    let submit = one_shot(
        raddr,
        "POST",
        "/v1/jobs",
        &[],
        br#"{"kind": "floorplan_sa", "design": "rocket", "replicas": 2, "seed": 11}"#,
    );
    assert_eq!(submit.status, 202, "body: {}", submit.body_str());
    let id = json::parse(&submit.body_str())
        .expect("submit doc")
        .get("id")
        .and_then(Json::as_str)
        .expect("job id")
        .to_string();
    assert_eq!(router.metrics().job_stickies_total.get(), 1);

    // Status polls through the router reach the owning shard.
    let start = Instant::now();
    let done = loop {
        let response = one_shot(raddr, "GET", &format!("/v1/jobs/{id}"), &[], b"");
        assert_eq!(response.status, 200, "body: {}", response.body_str());
        let doc = json::parse(&response.body_str()).expect("status doc");
        if doc.get("state").and_then(Json::as_str) == Some("done") {
            break doc;
        }
        assert!(
            start.elapsed() < Duration::from_secs(240),
            "job must finish; last: {}",
            doc.pretty()
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(done.get("result").is_some());

    // The finished job's events tunnel through byte-for-byte and end.
    let mut stream =
        common::SessionClient::open_raw(raddr, "GET", &format!("/v1/jobs/{id}/events"), &[], b"");
    assert_eq!(stream.read_head(Duration::from_secs(30)), 200);
    let mut saw_end = false;
    for _ in 0..10_000 {
        let event = stream.next_event(Duration::from_secs(30));
        if common::event_kind(&event) == "end" {
            saw_end = true;
            break;
        }
    }
    assert!(saw_end, "tunnelled stream must replay to the end event");
    assert!(router.metrics().job_event_tunnels_total.get() >= 1);

    // The checkpoint forwards too, and an unknown id is a clean 404
    // (after a broadcast probe across both shards).
    let checkpoint = one_shot(raddr, "GET", &format!("/v1/jobs/{id}/checkpoint"), &[], b"");
    assert_eq!(checkpoint.status, 200);
    let missing = one_shot(raddr, "POST", "/v1/jobs/00000000deadbeef/cancel", &[], b"");
    assert_eq!(missing.status, 404);
    assert!(router.metrics().job_broadcasts_total.get() >= 1);

    // A job submitted behind the router's back (directly to a shard) is
    // still found by the broadcast fallback.
    let direct = one_shot(
        backend_b.addr(),
        "POST",
        "/v1/jobs",
        &[],
        br#"{"kind": "floorplan_sa", "design": "rocket", "replicas": 2, "seed": 5}"#,
    );
    assert_eq!(direct.status, 202);
    let direct_id = json::parse(&direct.body_str())
        .expect("doc")
        .get("id")
        .and_then(Json::as_str)
        .expect("id")
        .to_string();
    let via_router = one_shot(raddr, "GET", &format!("/v1/jobs/{direct_id}"), &[], b"");
    assert_eq!(via_router.status, 200, "body: {}", via_router.body_str());
    let cancelled = one_shot(
        raddr,
        "POST",
        &format!("/v1/jobs/{direct_id}/cancel"),
        &[],
        b"",
    );
    assert_eq!(cancelled.status, 200);

    // Aggregated metrics: shard rollups summed, router series appended.
    let metrics = one_shot(raddr, "GET", "/metrics", &[], b"");
    assert_eq!(metrics.status, 200);
    let text = metrics.body_str();
    let samples = parse_exposition(&text).expect("parse aggregated").samples;
    let value = |name: &str| -> f64 {
        samples
            .iter()
            .find(|(series, _)| series == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("missing series {name}"))
    };
    assert!(value("tsc_jobs_submitted_total") >= 2.0);
    assert!(value("tsc_jobs_completed_total") >= 1.0);
    assert!(value("tsc_job_dedup_hits_total") > 0.0);
    assert!(value("tsc_router_job_stickies_total") >= 2.0);

    router.shutdown();
    backend_a.shutdown();
    backend_b.shutdown();
}

/// A two-shard router whose prober looks once, at start: a shard killed
/// afterwards stays marked healthy until a request finds it dead, so the
/// tests below exercise the request path's own retry rules.
fn start_router_without_probes(backends: &[&Server]) -> Router {
    start_router(
        backends.iter().map(|b| b.addr().to_string()).collect(),
        Duration::from_secs(600),
    )
}

/// `(the shard that holds job id, the other one)`, asked directly.
fn owner_of(id: &str, a: Server, b: Server) -> (Server, Server) {
    let found = |b: &Server| one_shot(b.addr(), "GET", &format!("/v1/jobs/{id}"), &[], b"").status;
    if found(&a) == 200 {
        (a, b)
    } else {
        assert_eq!(found(&b), 200, "job {id} is on neither shard");
        (b, a)
    }
}

fn job_id(response: &common::TestResponse) -> String {
    assert_eq!(response.status, 202, "body: {}", response.body_str());
    json::parse(&response.body_str())
        .expect("submit doc")
        .get("id")
        .and_then(Json::as_str)
        .expect("job id")
        .to_string()
}

const JOB_SPEC: &[u8] =
    br#"{"kind": "floorplan_sa", "design": "rocket", "replicas": 2, "seed": 23}"#;

#[test]
fn sub_batch_for_a_killed_shard_retries_on_the_survivor() {
    let backend_a = start_backend(0);
    let backend_b = start_backend(0);
    let router = start_router_without_probes(&[&backend_a, &backend_b]);
    let items: Vec<String> = (0..6)
        .map(|i| String::from_utf8(keyed_solve(i)).unwrap())
        .collect();
    let body = format!(r#"{{"items": [{}]}}"#, items.join(",")).into_bytes();
    let statuses = |response: &common::TestResponse| -> Vec<usize> {
        assert_eq!(response.status, 200, "body: {}", response.body_str());
        json::parse(&response.body_str())
            .expect("envelope")
            .get("items")
            .and_then(Json::as_array)
            .expect("items")
            .iter()
            .map(|item| item.get("status").and_then(Json::as_usize).unwrap_or(0))
            .collect()
    };

    // Six operators spread over both shards (bounded loads cap either
    // shard at four of them).
    let warm = one_shot(router.addr(), "POST", "/v1/batch", &[], &body);
    assert_eq!(statuses(&warm), vec![200; 6]);
    for backend in [&backend_a, &backend_b] {
        assert_eq!(requests_for(backend.metrics(), "batch", 200), 1);
    }

    backend_a.shutdown();
    let retries = router.metrics().retries_total.get();
    let routed = one_shot(router.addr(), "POST", "/v1/batch", &[], &body);
    assert_eq!(statuses(&routed), vec![200; 6]);
    assert!(router.metrics().retries_total.get() > retries);
    // Its own sub-batch and the retried one.
    assert_eq!(requests_for(backend_b.metrics(), "batch", 200), 3);

    router.shutdown();
    backend_b.shutdown();
}

#[test]
fn job_status_after_its_owner_dies_is_a_503_not_a_neighbours_404() {
    let backend_a = start_backend(0);
    let backend_b = start_backend(0);
    let router = start_router_without_probes(&[&backend_a, &backend_b]);
    let raddr = router.addr();

    let id = job_id(&one_shot(raddr, "POST", "/v1/jobs", &[], JOB_SPEC));
    let (owner, survivor) = owner_of(&id, backend_a, backend_b);
    let misses = requests_for(survivor.metrics(), "jobs", 404);
    let cancel = one_shot(raddr, "POST", &format!("/v1/jobs/{id}/cancel"), &[], b"");
    assert_eq!(cancel.status, 200, "body: {}", cancel.body_str());

    owner.shutdown();
    let status = one_shot(raddr, "GET", &format!("/v1/jobs/{id}"), &[], b"");
    assert_eq!(status.status, 503, "body: {}", status.body_str());
    assert!(status.header("retry-after").is_some(), "typed 503 hint");
    assert_eq!(requests_for(survivor.metrics(), "jobs", 404), misses);

    router.shutdown();
    survivor.shutdown();
}

#[test]
fn job_submitted_while_its_shard_is_dead_is_admitted_by_the_survivor() {
    let backend_a = start_backend(0);
    let backend_b = start_backend(0);
    let router = start_router_without_probes(&[&backend_a, &backend_b]);
    let raddr = router.addr();

    // The spec's first submission shows which shard its hash places on.
    let first = job_id(&one_shot(raddr, "POST", "/v1/jobs", &[], JOB_SPEC));
    let (home, survivor) = owner_of(&first, backend_a, backend_b);
    let cancel = one_shot(raddr, "POST", &format!("/v1/jobs/{first}/cancel"), &[], b"");
    assert_eq!(cancel.status, 200, "body: {}", cancel.body_str());

    home.shutdown();
    let retries = router.metrics().retries_total.get();
    let id = job_id(&one_shot(raddr, "POST", "/v1/jobs", &[], JOB_SPEC));
    assert!(router.metrics().retries_total.get() > retries);
    let status = one_shot(raddr, "GET", &format!("/v1/jobs/{id}"), &[], b"");
    assert_eq!(status.status, 200, "body: {}", status.body_str());
    let direct = one_shot(survivor.addr(), "GET", &format!("/v1/jobs/{id}"), &[], b"");
    assert_eq!(direct.status, 200, "the survivor holds the job");
    let cancel = one_shot(raddr, "POST", &format!("/v1/jobs/{id}/cancel"), &[], b"");
    assert_eq!(cancel.status, 200, "body: {}", cancel.body_str());

    router.shutdown();
    survivor.shutdown();
}

#[test]
fn batch_envelope_errors_match_a_lone_shard() {
    let backend = start_backend(0);
    let router = start_router(vec![backend.addr().to_string()], Duration::from_millis(100));
    let too_many = format!(
        r#"{{"items": [{}]}}"#,
        vec![r#"{"design": "gemmini"}"#; 257].join(",")
    );
    let bodies: [&[u8]; 6] = [
        b"{}",
        br#"{"items": 5}"#,
        br#"{"items": []}"#,
        too_many.as_bytes(),
        b"not json",
        b"{\"items\": \xff}",
    ];
    for body in bodies {
        let direct = one_shot(backend.addr(), "POST", "/v1/batch", &[], body);
        let routed = one_shot(router.addr(), "POST", "/v1/batch", &[], body);
        assert_eq!(direct.status, 400, "body: {}", direct.body_str());
        assert_eq!(
            (routed.status, routed.body_str()),
            (direct.status, direct.body_str()),
            "envelope {}",
            String::from_utf8_lossy(body)
        );
    }
    assert_eq!(router.metrics().batch_subbatches_total.get(), 0);

    router.shutdown();
    backend.shutdown();
}

#[test]
fn job_status_after_the_prober_ejects_its_owner_is_a_503() {
    let backend_a = start_backend(0);
    let backend_b = start_backend(0);
    let router = start_router(
        vec![backend_a.addr().to_string(), backend_b.addr().to_string()],
        Duration::from_millis(50),
    );
    let raddr = router.addr();

    let id = job_id(&one_shot(raddr, "POST", "/v1/jobs", &[], JOB_SPEC));
    let (owner, survivor) = owner_of(&id, backend_a, backend_b);
    let cancel = one_shot(raddr, "POST", &format!("/v1/jobs/{id}/cancel"), &[], b"");
    assert_eq!(cancel.status, 200, "body: {}", cancel.body_str());

    owner.shutdown();
    wait_until(
        "the prober ejects the owner",
        Duration::from_secs(10),
        || router.metrics().shard_ejections_total.get() >= 1,
    );
    let misses = requests_for(survivor.metrics(), "jobs", 404);
    let status = one_shot(raddr, "GET", &format!("/v1/jobs/{id}"), &[], b"");
    assert_eq!(status.status, 503, "body: {}", status.body_str());
    assert!(status.header("retry-after").is_some(), "typed 503 hint");
    let tunnels = router.metrics().job_event_tunnels_total.get();
    let errors = router.metrics().upstream_errors_total.get();
    let events = one_shot(raddr, "GET", &format!("/v1/jobs/{id}/events"), &[], b"");
    assert_eq!(events.status, 503, "body: {}", events.body_str());
    assert!(events.header("retry-after").is_some(), "typed 503 hint");
    assert_eq!(
        router.metrics().job_event_tunnels_total.get(),
        tunnels,
        "no tunnel to an ejected owner"
    );
    assert_eq!(
        router.metrics().upstream_errors_total.get(),
        errors,
        "the ejected owner is not dialled"
    );
    assert_eq!(
        requests_for(survivor.metrics(), "jobs", 404),
        misses,
        "no survivor is asked for a job it cannot hold"
    );

    router.shutdown();
    survivor.shutdown();
}

/// A fake backend that passes health probes and answers every other
/// request with `reply` as a 200 JSON body, keeping each request body it
/// receives.
fn spawn_canned_backend(reply: &'static str) -> (SocketAddr, Arc<Mutex<Vec<Vec<u8>>>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake backend");
    let addr = listener.local_addr().expect("local addr");
    let received = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&received);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                let mut buffer = [0u8; 4096];
                let mut bytes = Vec::new();
                let end = loop {
                    if let Some(at) = bytes.windows(4).position(|w| w == b"\r\n\r\n") {
                        break at + 4;
                    }
                    match stream.read(&mut buffer) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => bytes.extend_from_slice(&buffer[..n]),
                    }
                };
                let head = String::from_utf8_lossy(&bytes[..end]).to_ascii_lowercase();
                let length: usize = head
                    .lines()
                    .find_map(|line| line.strip_prefix("content-length:"))
                    .map_or(0, |value| value.trim().parse().expect("content length"));
                while bytes.len() < end + length {
                    match stream.read(&mut buffer) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => bytes.extend_from_slice(&buffer[..n]),
                    }
                }
                let body = if head.starts_with("get /healthz") {
                    "ok\n"
                } else {
                    log.lock()
                        .expect("log")
                        .push(bytes[end..end + length].to_vec());
                    reply
                };
                let response = format!(
                    "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                );
                let _ = stream.write_all(response.as_bytes());
            });
        }
    });
    (addr, received)
}

/// A two-item answer in the shard's envelope format whose item bodies
/// hold text a parse and re-render would change (`1.50`, `\/`).
const CANNED_ENVELOPE: &str = "{\n  \"count\": 2,\n  \"errors\": 0,\n  \"items\": [\n    {\n      \"body\": {\n        \"x\": 1.50\n      },\n      \"status\": 200\n    },\n    {\n      \"body\": {\n        \"y\": \"a\\/b\"\n      },\n      \"status\": 200\n    }\n  ]\n}\n";

#[test]
fn one_shard_batch_passes_bytes_through_both_ways() {
    let (addr_a, seen_a) = spawn_canned_backend(CANNED_ENVELOPE);
    let (addr_b, seen_b) = spawn_canned_backend(CANNED_ENVELOPE);
    let router = start_router(
        vec![addr_a.to_string(), addr_b.to_string()],
        Duration::from_secs(600),
    );
    // Two utilizations of one operator: one affinity key, one shard.
    let body: &[u8] = br#"{ "items":[{"design":"gemmini-memory","tiers":2,"lateral_cells":6,
        "utilization_percent":50}, {"utilization_percent":60.0,"design":"gemmini-memory","tiers":2,"lateral_cells":6}],
        "note": "kept"}"#;
    let response = one_shot(router.addr(), "POST", "/v1/batch", &[], body);
    assert_eq!(response.status, 200);
    assert_eq!(response.body_str(), CANNED_ENVELOPE, "the shard's bytes");
    let received: Vec<Vec<u8>> = [&seen_a, &seen_b]
        .iter()
        .flat_map(|seen| seen.lock().expect("log").clone())
        .collect();
    assert_eq!(received, vec![body.to_vec()], "the client's bytes");

    // A count that does not match the request keeps the per-item
    // surfacing: every item reports the inconsistent sub-batch.
    let three = br#"{"items": [{"design": "gemmini-memory", "tiers": 2, "lateral_cells": 6},
        {"design": "gemmini-memory", "tiers": 2, "lateral_cells": 6, "utilization_percent": 40},
        {"design": "gemmini-memory", "tiers": 2, "lateral_cells": 6, "utilization_percent": 30}]}"#;
    let response = one_shot(router.addr(), "POST", "/v1/batch", &[], three);
    assert_eq!(response.status, 200);
    let envelope = json::parse(&response.body_str()).expect("envelope");
    let statuses: Vec<usize> = envelope
        .get("items")
        .and_then(Json::as_array)
        .expect("items")
        .iter()
        .map(|item| item.get("status").and_then(Json::as_usize).unwrap_or(0))
        .collect();
    assert_eq!(statuses, vec![502; 3]);

    router.shutdown();
}
