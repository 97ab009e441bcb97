//! End-to-end endpoint tests against an in-process server on an
//! ephemeral port: routing, JSON round trips, keep-alive, pipelining,
//! and the Prometheus exposition.

mod common;

use std::time::Duration;

use common::{one_shot, TestClient};
use tsc_bench::json::{self, Json};
use tsc_serve::{validate_exposition, Server, ServerConfig};

fn start_server() -> Server {
    Server::start(ServerConfig::default()).expect("bind ephemeral port")
}

const SMALL_SOLVE: &[u8] = br#"{"design": "gemmini-memory", "tiers": 2, "lateral_cells": 6}"#;

#[test]
fn healthz_designs_and_unknown_routes() {
    let server = start_server();
    let addr = server.addr();

    let health = one_shot(addr, "GET", "/healthz", &[], b"");
    assert_eq!(health.status, 200);
    assert_eq!(health.body_str(), "ok\n");

    let designs = one_shot(addr, "GET", "/v1/designs", &[], b"");
    assert_eq!(designs.status, 200);
    let parsed = json::parse(&designs.body_str()).expect("designs body parses");
    let names: Vec<&str> = parsed
        .get("designs")
        .and_then(Json::as_array)
        .expect("designs array")
        .iter()
        .filter_map(|d| d.get("name").and_then(Json::as_str))
        .collect();
    assert!(names.contains(&"gemmini"));
    assert!(names.contains(&"rocket"));

    assert_eq!(one_shot(addr, "GET", "/v1/nope", &[], b"").status, 404);
    assert_eq!(one_shot(addr, "POST", "/healthz", &[], b"{}").status, 405);
    assert_eq!(one_shot(addr, "GET", "/v1/solve", &[], b"").status, 405);

    server.shutdown();
}

#[test]
fn solve_round_trip_and_bad_bodies() {
    let server = start_server();
    let addr = server.addr();

    let ok = one_shot(addr, "POST", "/v1/solve", &[], SMALL_SOLVE);
    assert_eq!(ok.status, 200, "body: {}", ok.body_str());
    let parsed = json::parse(&ok.body_str()).expect("solve body parses");
    let junction = parsed
        .get("junction_celsius")
        .and_then(Json::as_f64)
        .expect("junction field");
    assert!(junction > 20.0 && junction < 400.0, "junction {junction}");
    assert_eq!(
        parsed
            .get("tier_profile_celsius")
            .and_then(Json::as_array)
            .expect("profile")
            .len(),
        2
    );

    for bad in [
        &b"not json"[..],
        b"{}",
        br#"{"design": "nope"}"#,
        br#"{"design": "gemmini", "tiers": 9999}"#,
        br#"{"design": "gemmini", "strategy": 7}"#,
    ] {
        let resp = one_shot(addr, "POST", "/v1/solve", &[], bad);
        assert_eq!(resp.status, 400, "body {:?}", String::from_utf8_lossy(bad));
        assert!(json::parse(&resp.body_str()).is_ok(), "errors are JSON");
    }

    server.shutdown();
}

#[test]
fn metrics_exposition_is_valid_and_tracks_requests() {
    let server = start_server();
    let addr = server.addr();

    let solve = one_shot(addr, "POST", "/v1/solve", &[], SMALL_SOLVE);
    assert_eq!(solve.status, 200);
    let _ = one_shot(addr, "GET", "/healthz", &[], b"");

    let metrics = one_shot(addr, "GET", "/metrics", &[], b"");
    assert_eq!(metrics.status, 200);
    assert!(metrics
        .header("content-type")
        .is_some_and(|ct| ct.starts_with("text/plain")));
    let text = metrics.body_str();
    validate_exposition(&text).expect("exposition validates");

    // The series the issue requires: requests, latency histogram, queue
    // depth, context pool.
    assert!(text.contains("tsc_requests_total{endpoint=\"solve\",status=\"200\"} 1"));
    assert!(text.contains("tsc_requests_total{endpoint=\"healthz\",status=\"200\"}"));
    assert!(text.contains("tsc_request_seconds_bucket{endpoint=\"solve\",le=\"+Inf\"} 1"));
    assert!(text.contains("tsc_request_seconds_quantile{endpoint=\"solve\",quantile=\"0.99\"}"));
    assert!(text.contains("tsc_queue_depth "));
    assert!(text.contains("tsc_queue_capacity "));
    assert!(text.contains("tsc_context_pool_misses_total 1"));
    assert!(text.contains("tsc_backend_solves_total 1"));
    assert!(text.contains("tsc_context_assemblies_total"));

    server.shutdown();
}

/// The value of an unlabelled series in a Prometheus exposition.
fn series(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("series {name} missing"))
}

#[test]
fn utilization_sweep_projects_from_the_third_request() {
    // One operator at changing utilizations: the pooled context seeds
    // its history with the first two solves and starts every later one
    // from the projection, which already meets the tolerance.
    let server = start_server();
    let addr = server.addr();
    for (i, utilization) in [90.0, 55.0, 72.5, 100.0, 40.0, 63.0]
        .into_iter()
        .enumerate()
    {
        let body = format!(
            r#"{{"design": "gemmini-memory", "tiers": 2, "lateral_cells": 6, "utilization_percent": {utilization}}}"#
        );
        let resp = one_shot(addr, "POST", "/v1/solve", &[], body.as_bytes());
        assert_eq!(resp.status, 200, "body: {}", resp.body_str());
        let parsed = json::parse(&resp.body_str()).expect("solve body parses");
        let num = |outer: &str, key: &str| {
            parsed
                .get(outer)
                .and_then(|o| o.get(key))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{outer}.{key}"))
        };
        let projected = i.saturating_sub(1) as f64;
        assert_eq!(num("context", "projected_starts"), projected, "request {i}");
        if i >= 2 {
            assert_eq!(num("solver", "iterations"), 0.0, "request {i}");
        }
    }
    let text = one_shot(addr, "GET", "/metrics", &[], b"").body_str();
    validate_exposition(&text).expect("exposition validates");
    assert_eq!(series(&text, "tsc_context_projected_starts_total"), 4.0);
    assert_eq!(series(&text, "tsc_context_warm_starts_total"), 5.0);
    server.shutdown();
}

#[test]
fn utilization_sweep_over_one_operator_builds_one_stack() {
    // The operator pool keys on the operator, not the body: the first
    // request builds the stack and its context, every later one finds
    // both in one entry and repaints its power.  The answers must still
    // be those of a stack built for each body.
    use tsc_core::beol::BeolProperties;
    use tsc_core::pillars::uniform_routable_map;
    use tsc_core::stack::{self, StackConfig};
    use tsc_thermal::Heatsink;
    use tsc_units::Ratio;

    let server = start_server();
    let addr = server.addr();
    let design = tsc_designs::gemmini::memory_tier();
    let (tiers, cells) = (2, 6);
    let utilizations = [90.0, 55.0, 72.5, 100.0, 40.0, 63.0];
    for utilization in utilizations {
        let body = format!(
            r#"{{"design": "gemmini-memory", "tiers": {tiers}, "lateral_cells": {cells}, "utilization_percent": {utilization}}}"#
        );
        let resp = one_shot(addr, "POST", "/v1/solve", &[], body.as_bytes());
        assert_eq!(resp.status, 200, "body: {}", resp.body_str());
        let served = json::parse(&resp.body_str())
            .expect("solve body parses")
            .get("junction_celsius")
            .and_then(Json::as_f64)
            .expect("junction field");
        let config =
            StackConfig::uniform(tiers, BeolProperties::scaffolded(), Heatsink::two_phase())
                .with_lateral_cells(cells)
                .with_utilizations(vec![Ratio::from_percent(utilization); tiers])
                .with_pillar_map(uniform_routable_map(
                    &design,
                    Ratio::from_percent(10.0),
                    cells,
                ));
        let reference = stack::solve(&design, &config)
            .expect("reference solve")
            .junction_temperature()
            .celsius();
        // Both solvers stop at a 1e-8 relative residual; on this mesh
        // that leaves them 0.5–1.1 µK apart, cold or warm.
        assert!(
            (served - reference).abs() <= 1e-5,
            "{utilization} %: served {served} vs reference {reference}"
        );
    }
    let metrics = server.metrics();
    let repeats = utilizations.len() as u64 - 1;
    assert_eq!(metrics.stack_cache_misses.get(), 1);
    assert_eq!(metrics.stack_cache_hits.get(), repeats);
    assert_eq!(metrics.pool_misses.get(), 1);
    assert_eq!(metrics.pool_hits.get(), repeats);
    assert_eq!(metrics.ctx_assemblies.get(), 1);
    server.shutdown();
}

#[test]
fn keep_alive_serves_sequential_requests_on_one_connection() {
    let server = start_server();
    let mut client = TestClient::connect(server.addr());

    for _ in 0..3 {
        let resp = client.request("GET", "/healthz", &[], b"");
        assert_eq!(resp.status, 200);
    }
    // The same connection can then do a solve.
    let resp = client.request("POST", "/v1/solve", &[], SMALL_SOLVE);
    assert_eq!(resp.status, 200);

    server.shutdown();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let server = start_server();
    let mut client = TestClient::connect(server.addr());

    let mut burst = Vec::new();
    burst.extend_from_slice(&common::format_request("GET", "/healthz", &[], b""));
    burst.extend_from_slice(&common::format_request("GET", "/v1/designs", &[], b""));
    burst.extend_from_slice(&common::format_request("GET", "/healthz", &[], b""));
    client.send_raw(&burst);

    let first = client.read_response(Duration::from_secs(10)).expect("r1");
    let second = client.read_response(Duration::from_secs(10)).expect("r2");
    let third = client.read_response(Duration::from_secs(10)).expect("r3");
    assert_eq!(first.status, 200);
    assert_eq!(first.body_str(), "ok\n");
    assert_eq!(second.status, 200);
    assert!(second.body_str().contains("gemmini"));
    assert_eq!(third.status, 200);
    assert_eq!(third.body_str(), "ok\n");

    server.shutdown();
}

#[test]
fn connection_close_header_is_honoured() {
    let server = start_server();
    let mut client = TestClient::connect(server.addr());
    let resp = client.request("GET", "/healthz", &[("Connection", "close")], b"");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("connection"), Some("close"));
    // The server closed: the next read sees EOF, not a response.
    client.send_raw(&common::format_request("GET", "/healthz", &[], b""));
    assert!(client.read_response(Duration::from_secs(2)).is_none());

    server.shutdown();
}

#[test]
fn shutdown_endpoint_triggers_graceful_drain() {
    let server = start_server();
    let addr = server.addr();

    let resp = one_shot(addr, "POST", "/v1/shutdown", &[], b"");
    assert_eq!(resp.status, 200);
    // Returns promptly because the endpoint signalled.
    server.wait_for_shutdown_request();
    server.shutdown();

    // The port no longer accepts (give the OS a moment to settle).
    std::thread::sleep(Duration::from_millis(50));
    assert!(std::net::TcpStream::connect(addr).is_err());
}
