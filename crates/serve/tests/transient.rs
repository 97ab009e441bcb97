//! Integration tests for the `/v1/transient` streaming session endpoint,
//! over a real socket with an independent NDJSON client.
//!
//! Covers the full lifecycle (open → delta steps → close), leak-proof
//! pin return on abrupt disconnect, typed in-band deadline errors (never
//! a hang), the in-band `thermal_runaway` alarm, and the acceptance
//! criterion that the streamed trajectory is bitwise-identical to an
//! offline [`TransientRun`](tsc_thermal::transient::TransientRun) driven
//! with the same deltas.

mod common;

use std::time::{Duration, Instant};

use common::{event_kind, field_num, field_str, requests_for, SessionClient};
use tsc_bench::json::{parse, Json};
use tsc_serve::api::TransientRequest;
use tsc_serve::{Server, ServerConfig};
use tsc_verify::assert_close;

/// A small fast fixture: the two-tier Gemmini memory stack on a coarse
/// mesh, with a large timestep so trajectories settle in tens of steps.
const SMALL_BODY: &str = r#"{"design": "gemmini-memory", "tiers": 2, "lateral_cells": 6,
                             "dt_seconds": 0.001}"#;

const EVENT_WAIT: Duration = Duration::from_secs(60);

#[test]
fn session_lifecycle_open_steps_power_close() {
    let server = Server::start(ServerConfig::default()).expect("start");
    let mut client = SessionClient::open(server.addr(), SMALL_BODY, &[]);
    assert_eq!(client.read_head(EVENT_WAIT), 200);

    let open = client.next_event(EVENT_WAIT);
    assert_eq!(event_kind(&open), "open");
    assert_eq!(field_str(&open, "pool"), "miss");
    assert_eq!(field_str(&open, "design"), "gemmini-memory");

    // One single step, then a burst of two.
    client.send(r#"{"op": "step"}"#);
    let step1 = client.next_event(EVENT_WAIT);
    assert_eq!(event_kind(&step1), "step");
    assert_eq!(field_num(&step1, "step"), 1.0);
    assert!(field_num(&step1, "peak_celsius") > 20.0);
    assert!(step1.get("peak_bits").and_then(Json::as_str).is_some());
    assert_eq!(
        step1
            .get("hotspot")
            .and_then(Json::as_array)
            .map(<[Json]>::len),
        Some(3)
    );

    client.send(r#"{"op": "step", "steps": 2}"#);
    let step2 = client.next_event(EVENT_WAIT);
    let step3 = client.next_event(EVENT_WAIT);
    assert_eq!(field_num(&step2, "step"), 2.0);
    assert_eq!(field_num(&step3, "step"), 3.0);
    assert!(
        field_num(&step3, "time_seconds") > field_num(&step2, "time_seconds"),
        "simulated time must advance"
    );

    // Power delta: ack, then the trajectory bends downward.
    client.send(r#"{"op": "power", "utilization_percent": 10}"#);
    let ack = client.next_event(EVENT_WAIT);
    assert_eq!(event_kind(&ack), "power");
    assert_eq!(field_num(&ack, "utilization_percent"), 10.0);

    client.send(r#"{"op": "step", "steps": 30}"#);
    let mut last_peak = f64::INFINITY;
    for i in 4..=33 {
        let step = client.next_event(EVENT_WAIT);
        assert_eq!(field_num(&step, "step"), f64::from(i));
        last_peak = field_num(&step, "peak_celsius");
    }
    assert!(
        last_peak < field_num(&step3, "peak_celsius"),
        "cutting power to 10% must cool the stack"
    );

    client.send(r#"{"op": "close"}"#);
    let closed = client.next_event(EVENT_WAIT);
    assert_eq!(event_kind(&closed), "closed");
    assert_eq!(field_num(&closed, "steps"), 33.0);
    assert_eq!(field_num(&closed, "alarms"), 0.0);
    assert!(client.at_eof(Duration::from_secs(5)), "close-delimited");

    assert_eq!(server.metrics().transient_sessions_total.get(), 1);
    assert_eq!(server.metrics().transient_steps_total.get(), 33);
    assert_eq!(requests_for(server.metrics(), "transient", 200), 1);
    assert_eq!(server.metrics().worker_panics.get(), 0);
    // Clean close returned the pinned state to the pool.
    assert_eq!(server.pools().transients.pinned(), 0);
    assert_eq!(server.pools().transients.len(), 1);
    server.shutdown();
}

#[test]
fn abrupt_disconnect_returns_pinned_state_to_the_pool() {
    let server = Server::start(ServerConfig::default()).expect("start");
    {
        let mut client = SessionClient::open(server.addr(), SMALL_BODY, &[]);
        assert_eq!(client.read_head(EVENT_WAIT), 200);
        let open = client.next_event(EVENT_WAIT);
        assert_eq!(field_str(&open, "pool"), "miss");
        client.send(r#"{"op": "step"}"#);
        let _ = client.next_event(EVENT_WAIT);
        // Mid-session the state is pinned out of the pool.
        assert_eq!(server.pools().transients.pinned(), 1);
        assert_eq!(server.pools().transients.len(), 0);
        // Drop without a close op: an abrupt client death.
    }
    // The connection thread notices EOF within its 200 ms poll and the
    // pin guard returns the state.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.pools().transients.pinned() != 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        server.pools().transients.pinned(),
        0,
        "pin must be released"
    );
    assert_eq!(
        server.pools().transients.len(),
        1,
        "state must return to the pool, not leak"
    );

    // A follow-up session on the same geometry is a pool hit.
    let mut client = SessionClient::open(server.addr(), SMALL_BODY, &[]);
    assert_eq!(client.read_head(EVENT_WAIT), 200);
    let open = client.next_event(EVENT_WAIT);
    assert_eq!(field_str(&open, "pool"), "hit");
    client.send(r#"{"op": "close"}"#);
    let _ = client.next_event(EVENT_WAIT);
    server.shutdown();
}

#[test]
fn deadline_expiry_yields_typed_in_band_error_not_a_hang() {
    let server = Server::start(ServerConfig::default()).expect("start");
    let started = Instant::now();
    let mut client = SessionClient::open(server.addr(), SMALL_BODY, &[("X-Deadline-Ms", "300")]);
    assert_eq!(client.read_head(EVENT_WAIT), 200);
    let _open = client.next_event(EVENT_WAIT);

    // Send nothing: the session must end itself when the deadline
    // passes, with a typed in-band 504 followed by a clean close.
    let error = client.next_event(Duration::from_secs(10));
    assert_eq!(event_kind(&error), "error");
    assert_eq!(field_num(&error, "status"), 504.0);
    assert!(field_str(&error, "error").contains("deadline"));
    let closed = client.next_event(EVENT_WAIT);
    assert_eq!(event_kind(&closed), "closed");
    assert!(client.at_eof(Duration::from_secs(5)));
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "the deadline must actually bound the session"
    );
    assert_eq!(server.metrics().transient_session_errors_total.get(), 1);
    assert_eq!(server.pools().transients.pinned(), 0);
    server.shutdown();
}

#[test]
fn step_budget_exhaustion_is_a_typed_429_halt() {
    let server = Server::start(ServerConfig::default()).expect("start");
    let body = r#"{"design": "gemmini-memory", "tiers": 2, "lateral_cells": 6,
                   "dt_seconds": 0.001, "max_steps": 5}"#;
    let mut client = SessionClient::open(server.addr(), body, &[]);
    assert_eq!(client.read_head(EVENT_WAIT), 200);
    let _open = client.next_event(EVENT_WAIT);
    client.send(r#"{"op": "step", "steps": 10}"#);
    for i in 1..=5 {
        let step = client.next_event(EVENT_WAIT);
        assert_eq!(event_kind(&step), "step");
        assert_eq!(field_num(&step, "step"), f64::from(i));
    }
    let error = client.next_event(EVENT_WAIT);
    assert_eq!(event_kind(&error), "error");
    assert_eq!(field_num(&error, "status"), 429.0);
    assert!(field_str(&error, "error").contains("budget"));
    let closed = client.next_event(EVENT_WAIT);
    assert_eq!(field_num(&closed, "steps"), 5.0);
    server.shutdown();
}

#[test]
fn runaway_schedule_streams_a_typed_alarm_before_close() {
    let server = Server::start(ServerConfig::default()).expect("start");
    // Threshold well below this fixture's steady peak: heating at 100%
    // utilization must cross it and fire exactly one latched alarm.
    let body = r#"{"design": "gemmini-memory", "tiers": 2, "lateral_cells": 6,
                   "dt_seconds": 0.001, "runaway_celsius": 30.0}"#;
    let mut client = SessionClient::open(server.addr(), body, &[]);
    assert_eq!(client.read_head(EVENT_WAIT), 200);
    let _open = client.next_event(EVENT_WAIT);

    client.send(r#"{"op": "step", "steps": 200}"#);
    client.send(r#"{"op": "close"}"#);
    let mut alarms = Vec::new();
    let mut steps = 0u32;
    loop {
        let event = client.next_event(EVENT_WAIT);
        match event_kind(&event).as_str() {
            "step" => steps += 1,
            "alarm" => {
                assert_eq!(field_str(&event, "kind"), "thermal_runaway");
                assert!(field_num(&event, "peak_celsius") >= 30.0);
                assert_eq!(field_num(&event, "threshold_celsius"), 30.0);
                alarms.push(field_num(&event, "step"));
            }
            "closed" => break,
            other => panic!("unexpected event {other:?}: {}", event.pretty()),
        }
    }
    assert_eq!(steps, 200);
    assert_eq!(alarms.len(), 1, "one excursion, one latched alarm");
    assert!(client.at_eof(Duration::from_secs(5)));
    assert_eq!(server.metrics().transient_runaway_alarms_total.get(), 1);
    assert_eq!(server.metrics().worker_panics.get(), 0);
    server.shutdown();
}

#[test]
fn session_cap_refuses_excess_sessions_with_429() {
    let config = ServerConfig {
        session_cap: 1,
        ..ServerConfig::default()
    };
    let server = Server::start(config).expect("start");
    let mut first = SessionClient::open(server.addr(), SMALL_BODY, &[]);
    assert_eq!(first.read_head(EVENT_WAIT), 200);
    let _open = first.next_event(EVENT_WAIT);

    let mut second = SessionClient::open(server.addr(), SMALL_BODY, &[]);
    assert_eq!(second.read_head(EVENT_WAIT), 429);
    assert_eq!(requests_for(server.metrics(), "transient", 429), 1);

    first.send(r#"{"op": "close"}"#);
    let _ = first.next_event(EVENT_WAIT);
    server.shutdown();
}

#[test]
fn streamed_gemmini_trajectory_is_bitwise_identical_to_offline_run() {
    // The acceptance criterion: drive a DVFS-style schedule through the
    // service and through a locally built TransientRun, and compare the
    // per-step peak bits exactly.
    let body = r#"{"design": "gemmini", "tiers": 4, "lateral_cells": 8,
                   "dt_seconds": 0.0005}"#;
    let schedule: [(f64, usize); 3] = [(100.0, 3), (30.0, 3), (100.0, 2)];

    // Offline reference, built through the same request type the server
    // parses but stepped entirely in-process.
    let req = TransientRequest::parse(&parse(body).expect("body parses")).expect("valid");
    let mut offline = req.build_state().expect("offline staging");
    let mut expected = Vec::new();
    for (utilization, steps) in schedule {
        req.set_power(&mut offline, utilization).expect("repower");
        for _ in 0..steps {
            offline.run.step().expect("offline step");
            expected.push(format!("{:016x}", offline.run.peak().kelvin.to_bits()));
        }
    }

    let server = Server::start(ServerConfig::default()).expect("start");
    let mut client = SessionClient::open(server.addr(), body, &[]);
    assert_eq!(client.read_head(EVENT_WAIT), 200);
    let _open = client.next_event(EVENT_WAIT);
    let mut streamed = Vec::new();
    for (utilization, steps) in schedule {
        client.send(&format!(
            r#"{{"op": "power", "utilization_percent": {utilization}}}"#
        ));
        let ack = client.next_event(EVENT_WAIT);
        assert_eq!(event_kind(&ack), "power");
        client.send(&format!(r#"{{"op": "step", "steps": {steps}}}"#));
        for _ in 0..steps {
            let step = client.next_event(EVENT_WAIT);
            assert_eq!(event_kind(&step), "step");
            streamed.push(field_str(&step, "peak_bits"));
        }
    }
    client.send(r#"{"op": "close"}"#);
    let closed = client.next_event(EVENT_WAIT);
    assert_eq!(event_kind(&closed), "closed");

    assert_eq!(
        streamed, expected,
        "streamed peak trajectory must be bitwise-identical to the offline run"
    );
    assert_eq!(server.metrics().worker_panics.get(), 0);
    server.shutdown();
}

#[test]
fn streamed_session_settles_to_the_steady_state() {
    // The transient-settles-to-steady property, end to end through the
    // service path: a long burst at constant power must land on the
    // steady solver's answer.
    let req = TransientRequest::parse(&parse(SMALL_BODY).expect("body parses")).expect("valid");
    let offline = req.build_state().expect("staging");
    let steady = tsc_thermal::CgSolver::new()
        .solve(&offline.stack.problem)
        .expect("steady solve");
    let steady_peak = steady.temperatures.max_temperature().celsius();
    let ambient = req.solve.heatsink.ambient.celsius();

    let server = Server::start(ServerConfig::default()).expect("start");
    let mut client = SessionClient::open(server.addr(), SMALL_BODY, &[]);
    assert_eq!(client.read_head(EVENT_WAIT), 200);
    let _open = client.next_event(EVENT_WAIT);
    client.send(r#"{"op": "step", "steps": 400}"#);
    let mut last_peak = f64::NAN;
    for _ in 0..400 {
        let step = client.next_event(EVENT_WAIT);
        assert_eq!(event_kind(&step), "step");
        last_peak = field_num(&step, "peak_celsius");
    }
    client.send(r#"{"op": "close"}"#);
    let _ = client.next_event(EVENT_WAIT);

    let rise = (steady_peak - ambient).max(0.1);
    assert_close!(
        last_peak,
        steady_peak,
        abs = 0.01 * rise,
        "streamed session must settle at the steady state"
    );
    server.shutdown();
}
