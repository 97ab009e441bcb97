//! Concurrency regression tests: request coalescing, queue backpressure,
//! waiter-side deadlines, and graceful shutdown draining accepted work.
//!
//! All tests run with a single worker so scheduling is deterministic: a
//! "blocker" job occupies the worker while the behaviour under test is
//! staged behind it in the queue.

mod common;

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use common::{one_shot, TestClient};
use tsc_serve::{Server, ServerConfig};

/// A solve expensive enough to hold the single worker while other
/// requests are staged: ~0.2 s in a release build on one core (~4 s
/// unoptimized) on the mixed-precision production solver, whose small
/// solves finish before a 2 ms poll can see them in flight.
const BLOCKER: &[u8] = br#"{"design": "gemmini", "tiers": 32, "lateral_cells": 64}"#;
/// A cheap, distinct solve used as the staged request.
const SMALL: &[u8] = br#"{"design": "gemmini-memory", "tiers": 2, "lateral_cells": 6}"#;

fn single_worker_server(queue_cap: usize) -> Server {
    Server::start(ServerConfig {
        workers: 1,
        queue_cap,
        pool_cap: 8,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port")
}

/// Wait until the single worker has picked up a job.
fn wait_for_inflight(server: &Server) {
    let start = Instant::now();
    while server.metrics().inflight.get() == 0 {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "worker never picked up the blocker"
        );
        thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn identical_concurrent_solves_coalesce_to_one_backend_solve() {
    const K: usize = 8;
    let server = single_worker_server(32);
    let addr = server.addr();

    // Occupy the worker so every coalescing candidate arrives while the
    // shared slot is still registered.
    let blocker = thread::spawn(move || one_shot(addr, "POST", "/v1/solve", &[], BLOCKER));
    wait_for_inflight(&server);

    // K identical requests on pre-connected sockets, released together.
    let barrier = Arc::new(std::sync::Barrier::new(K));
    let clients: Vec<_> = (0..K)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            let mut client = TestClient::connect(addr);
            thread::spawn(move || {
                barrier.wait();
                client.request("POST", "/v1/solve", &[], SMALL)
            })
        })
        .collect();

    let bodies: Vec<String> = clients
        .into_iter()
        .map(|c| {
            let resp = c.join().expect("client thread");
            assert_eq!(resp.status, 200, "body: {}", resp.body_str());
            resp.body_str()
        })
        .collect();
    assert_eq!(blocker.join().expect("blocker thread").status, 200);

    // All K bodies are bitwise identical — they are clones of one result.
    for body in &bodies[1..] {
        assert_eq!(body, &bodies[0], "coalesced responses must be identical");
    }

    // Exactly one backend solve for the K identical requests (plus the
    // blocker), and K-1 coalesced waiters.
    assert_eq!(server.metrics().backend_solves_total.get(), 2);
    assert_eq!(server.metrics().coalesced_total.get(), (K - 1) as u64);

    server.shutdown();
}

#[test]
fn full_queue_rejects_with_429_but_never_drops_accepted_jobs() {
    let server = single_worker_server(1);
    let addr = server.addr();

    let blocker = thread::spawn(move || one_shot(addr, "POST", "/v1/solve", &[], BLOCKER));
    wait_for_inflight(&server);

    // The queue (capacity 1) now takes exactly one staged job.
    let staged = thread::spawn(move || one_shot(addr, "POST", "/v1/solve", &[], SMALL));
    let start = Instant::now();
    while server.metrics().queue_depth.get() == 0 {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "staged job never queued"
        );
        thread::sleep(Duration::from_millis(2));
    }

    // A third, distinct request must be shed with 429 + Retry-After.
    let rejected = one_shot(
        addr,
        "POST",
        "/v1/solve",
        &[],
        br#"{"design": "rocket", "tiers": 2, "lateral_cells": 6}"#,
    );
    assert_eq!(rejected.status, 429);
    assert_eq!(rejected.header("retry-after"), Some("1"));

    // The accepted (staged) job was not dropped by the rejection.
    assert_eq!(blocker.join().expect("blocker").status, 200);
    assert_eq!(staged.join().expect("staged").status, 200);
    assert_eq!(server.metrics().rejected_queue_full.get(), 1);
    assert_eq!(server.metrics().backend_solves_total.get(), 2);

    server.shutdown();
}

#[test]
fn queued_request_past_its_deadline_gets_504_yet_still_executes() {
    let server = single_worker_server(8);
    let addr = server.addr();

    let blocker = thread::spawn(move || one_shot(addr, "POST", "/v1/solve", &[], BLOCKER));
    wait_for_inflight(&server);

    // Deadline far shorter than the blocker: expires while queued.
    let resp = one_shot(addr, "POST", "/v1/solve", &[("X-Deadline-Ms", "1")], SMALL);
    assert_eq!(resp.status, 504);
    assert_eq!(blocker.join().expect("blocker").status, 200);
    assert_eq!(server.metrics().deadline_timeouts.get(), 1);

    // The timed-out job still executes (accepted work is never dropped):
    // the worker drains it after the blocker.
    let start = Instant::now();
    while server.metrics().backend_solves_total.get() < 2 {
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "timed-out job was dropped"
        );
        thread::sleep(Duration::from_millis(5));
    }

    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_work() {
    let server = single_worker_server(8);
    let addr = server.addr();

    let inflight = thread::spawn(move || one_shot(addr, "POST", "/v1/solve", &[], BLOCKER));
    wait_for_inflight(&server);

    // Shut down while the solve is running: the client must still get its
    // 200 — accepted work drains before the workers exit.
    server.shutdown();
    let resp = inflight.join().expect("in-flight client");
    assert_eq!(resp.status, 200, "body: {}", resp.body_str());

    // And the listener is gone.
    thread::sleep(Duration::from_millis(50));
    assert!(std::net::TcpStream::connect(addr).is_err());
}
