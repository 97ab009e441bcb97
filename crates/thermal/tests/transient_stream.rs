//! Physics regressions for streamed transient stepping: the session API
//! in `tsc-serve` promises that driving a pooled [`TransientRun`] one
//! step at a time, with delta-encoded power restaging between steps, is
//! *exactly* the offline simulation — these tests pin that contract at
//! the solver level, bitwise where the arithmetic allows it.

use tsc_geometry::Grid3;
use tsc_thermal::transient::{capacity, RunawayDetector, StepLimits, TransientRun};
use tsc_thermal::{CgSolver, Heatsink, Problem};
use tsc_units::{Length, Power, Temperature, ThermalConductivity};

/// A small powered block with a bottom heatsink; `watts` at (2,2,2).
fn problem(watts: f64) -> Problem {
    let mut p = Problem::uniform_block(
        4,
        4,
        3,
        Length::from_millimeters(1.0),
        Length::from_millimeters(1.0),
        Length::from_micrometers(100.0),
        ThermalConductivity::new(100.0),
    );
    p.set_bottom_heatsink(Heatsink::two_phase());
    if watts > 0.0 {
        p.add_power(2, 2, 2, Power::from_watts(watts));
    }
    p
}

fn caps(p: &Problem) -> Grid3<f64> {
    Grid3::filled(p.dim(), capacity::SILICON)
}

fn ambient() -> Temperature {
    Heatsink::two_phase().ambient
}

/// A DVFS-style schedule: per-step watts driving the restage deltas.
const SCHEDULE: [f64; 12] = [2.0, 2.0, 2.0, 0.5, 0.5, 0.5, 2.0, 2.0, 0.5, 0.5, 2.0, 2.0];

#[test]
fn streamed_steps_match_offline_run_bitwise() {
    // "Streamed": one step at a time, peak sampled after each, power
    // restaged by delta between steps — the exact server-session loop.
    let p0 = problem(SCHEDULE[0]);
    let mut streamed = TransientRun::new(&p0, &caps(&p0), 5e-6, ambient())
        .expect("well-posed")
        .with_multigrid();
    let mut trajectory = Vec::new();
    for &watts in &SCHEDULE {
        streamed.restage_power_delta(problem(watts).power_flat());
        streamed.step().expect("streamed step");
        trajectory.push(streamed.peak().kelvin.to_bits());
    }

    // "Offline": the same schedule through full-problem restaging and
    // chunked `run` calls over the constant-power segments.
    let mut offline = TransientRun::new(&p0, &caps(&p0), 5e-6, ambient())
        .expect("well-posed")
        .with_multigrid();
    let mut replayed = Vec::new();
    let mut i = 0;
    while i < SCHEDULE.len() {
        let mut j = i;
        while j < SCHEDULE.len() && SCHEDULE[j] == SCHEDULE[i] {
            j += 1;
        }
        offline
            .restage_power(&problem(SCHEDULE[i]))
            .expect("same mesh");
        for _ in i..j {
            offline.step().expect("offline step");
            replayed.push(offline.peak().kelvin.to_bits());
        }
        i = j;
    }

    assert_eq!(
        trajectory, replayed,
        "streamed trajectory must be bitwise-identical to the offline run"
    );
    assert_eq!(streamed.steps_taken(), SCHEDULE.len() as u64);
    let final_match = streamed
        .temperatures()
        .iter_kelvin()
        .zip(offline.temperatures().iter_kelvin())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(final_match, "final fields must agree bitwise");
}

#[test]
fn delta_restage_equals_full_restage_without_multigrid() {
    // The Jacobi-CG path shares the rhs plumbing but not the hierarchy
    // rebuild; pin the equivalence there too.
    let p_hi = problem(2.0);
    let p_lo = problem(0.25);
    let mut full = TransientRun::new(&p_hi, &caps(&p_hi), 5e-6, ambient()).expect("ok");
    let mut delta = TransientRun::new(&p_hi, &caps(&p_hi), 5e-6, ambient()).expect("ok");
    full.run(5).expect("heat");
    delta.run(5).expect("heat");
    full.restage_power(&p_lo).expect("same mesh");
    delta.restage_power_delta(p_lo.power_flat());
    full.run(5).expect("cool");
    delta.run(5).expect("cool");
    let same = full
        .temperatures()
        .iter_kelvin()
        .zip(delta.temperatures().iter_kelvin())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(same, "delta and full restaging must agree bitwise");
}

#[test]
fn guarded_stepping_settles_to_steady_state() {
    // The session loop's shape — check limits, step, sample — must still
    // converge to the steady solver's answer when the budget is ample.
    let p = problem(2.0);
    let steady = CgSolver::new().solve(&p).expect("steady");
    let mut run = TransientRun::new(&p, &caps(&p), 5e-6, ambient()).expect("ok");
    let limits = StepLimits::budget(500);
    let mut halted = None;
    for _ in 0..600 {
        if let Some(halt) = run.check_limits(&limits) {
            halted = Some(halt);
            break;
        }
        run.step().expect("step");
    }
    let halt = halted.expect("budget must trip before the loop cap");
    assert_eq!(run.steps_taken(), 500);
    assert!(halt.to_string().contains("step budget exhausted"));
    let t_end = run.peak().kelvin;
    let t_ss = steady.temperatures.max_temperature().kelvin();
    assert!(
        (t_end - t_ss).abs() < 0.01 * (t_ss - ambient().kelvin()).max(0.1),
        "guarded stepping must settle at steady state: {t_end} vs {t_ss}"
    );
}

#[test]
fn runaway_schedule_raises_exactly_one_alarm_per_excursion() {
    // Drive the block hot with a big power step, confirm the detector
    // fires on the real trajectory (not synthetic samples), then gate
    // the power and confirm it re-arms only after the hysteresis band.
    let p_hot = problem(40.0);
    let p_off = problem(0.0);
    let mut run = TransientRun::new(&p_hot, &caps(&p_hot), 5e-6, ambient()).expect("ok");
    let steady_peak = CgSolver::new()
        .solve(&p_hot)
        .expect("steady")
        .temperatures
        .max_temperature();
    let threshold = Temperature::from_kelvin(
        ambient().kelvin() + 0.5 * (steady_peak.kelvin() - ambient().kelvin()),
    );
    let mut det = RunawayDetector::new(threshold);
    let mut alarms = 0;
    for _ in 0..200 {
        run.step().expect("step");
        if det.observe(Temperature::from_kelvin(run.peak().kelvin)) {
            alarms += 1;
        }
    }
    assert_eq!(alarms, 1, "one excursion, one alarm");

    run.restage_power_delta(p_off.power_flat());
    for _ in 0..400 {
        run.step().expect("cool step");
        assert!(
            !det.observe(Temperature::from_kelvin(run.peak().kelvin)),
            "cooling must not re-fire"
        );
    }
    // Heat again: the cooled stack re-armed the detector.
    run.restage_power_delta(p_hot.power_flat());
    let mut refired = false;
    for _ in 0..200 {
        run.step().expect("reheat step");
        refired |= det.observe(Temperature::from_kelvin(run.peak().kelvin));
    }
    assert!(refired, "a second excursion after re-arm must alarm again");
}
