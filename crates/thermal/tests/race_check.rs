//! Solver-level race-check suite (`--features race-check` only):
//! forced-parallel Jacobi-CG, SOR and mixed-precision multigrid solves
//! and mixed transient steps with the write-set checker live, plus
//! schedule-perturbation bitwise-identity checks.
//!
//! The process-global schedule seed and region counter are shared by
//! every test in this binary, so all tests serialize on one lock.

#![cfg(feature = "race-check")]

use std::sync::{Mutex, MutexGuard};
use tsc_geometry::Grid3;
use tsc_thermal::race;
use tsc_thermal::transient::{capacity, TransientRun};
use tsc_thermal::{CgSolver, Heatsink, Precision, Problem, Solution, SolveError, SorSolver};
use tsc_units::{HeatFlux, Length, ThermalConductivity};

static GLOBALS: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    GLOBALS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Small layered stack: enough slabs for a four-band plan, a buried
/// low-k slab so bands carry different coefficients.
fn problem() -> Problem {
    let mut p = Problem::uniform_block(
        12,
        12,
        8,
        Length::from_millimeters(0.5),
        Length::from_millimeters(0.5),
        Length::from_micrometers(40.0),
        ThermalConductivity::new(148.0),
    );
    p.set_layer_conductivity(
        3,
        ThermalConductivity::new(1.5),
        ThermalConductivity::new(3.0),
    );
    p.set_bottom_heatsink(Heatsink::two_phase());
    p.add_uniform_top_flux(HeatFlux::from_watts_per_square_cm(120.0));
    p
}

/// Runs `solve` with the region counter reset and asserts the checker
/// actually audited parallel regions during the solve.
fn solve_checked(name: &str, solve: impl Fn(&Problem) -> Result<Solution, SolveError>) -> Solution {
    race::set_schedule_seed(None);
    race::reset_regions();
    let sol = solve(&problem()).unwrap_or_else(|e| panic!("{name}: solve failed: {e}"));
    assert!(
        race::regions_checked() > 0,
        "{name}: no parallel regions were audited — instrumentation did not run"
    );
    sol
}

fn field_bits(sol: &Solution) -> Vec<u64> {
    sol.temperatures.iter_kelvin().map(f64::to_bits).collect()
}

type SolveFn = fn(&Problem) -> Result<Solution, SolveError>;

#[test]
fn cg_parallel_solve_is_race_checked() {
    let _g = lock();
    let sol = solve_checked("cg", |p| {
        CgSolver::new()
            .with_threads(4)
            .with_parallel_crossover(0)
            .solve(p)
    });
    assert!(sol.temperatures.max_temperature().kelvin().is_finite());
}

#[test]
fn sor_parallel_solve_is_race_checked() {
    let _g = lock();
    let sol = solve_checked("sor", |p| {
        SorSolver::new()
            .with_threads(4)
            .with_parallel_crossover(0)
            .solve(p)
    });
    assert!(sol.temperatures.max_temperature().kelvin().is_finite());
}

#[test]
fn mixed_precision_solve_is_race_checked() {
    let _g = lock();
    let sol = solve_checked("cg-mixed", |p| {
        CgSolver::new()
            .with_precision(Precision::Mixed)
            .with_threads(4)
            .with_parallel_crossover(0)
            .solve(p)
    });
    assert!(sol.temperatures.max_temperature().kelvin().is_finite());
}

/// Transient steps band only at the default parallel crossover, so the
/// transient fixture is a 32³ mesh: four bands of eight slabs.
fn transient_bits(threads: usize) -> Vec<u64> {
    let mut p = Problem::uniform_block(
        32,
        32,
        32,
        Length::from_millimeters(0.5),
        Length::from_millimeters(0.5),
        Length::from_micrometers(20.0),
        ThermalConductivity::new(148.0),
    );
    p.set_layer_conductivity(
        9,
        ThermalConductivity::new(1.5),
        ThermalConductivity::new(3.0),
    );
    p.set_bottom_heatsink(Heatsink::two_phase());
    p.add_uniform_top_flux(HeatFlux::from_watts_per_square_cm(120.0));
    let caps = Grid3::filled(p.dim(), capacity::SILICON);
    let mut run = TransientRun::new(&p, &caps, 1e-4, Heatsink::two_phase().ambient)
        .expect("well-posed")
        .with_threads(threads)
        .with_multigrid();
    for _ in 0..2 {
        let stats = run.step().expect("mixed step");
        assert_eq!(stats.threads, threads, "the finest level must band");
    }
    run.temperatures().iter_kelvin().map(f64::to_bits).collect()
}

#[test]
fn mixed_transient_step_is_race_checked() {
    let _g = lock();
    race::set_schedule_seed(None);
    race::reset_regions();
    let parallel = transient_bits(4);
    assert!(
        race::regions_checked() > 0,
        "transient: no parallel regions were audited — instrumentation did not run"
    );
    assert_eq!(
        parallel,
        transient_bits(1),
        "transient: 4 threads changed the mixed-step bits"
    );
}

/// Permuted band schedules must not change a mixed transient step.
#[test]
fn permuted_schedules_keep_mixed_transient_steps_bitwise() {
    let _g = lock();
    race::set_schedule_seed(None);
    let baseline = transient_bits(4);
    for seed in [5_u64, 17] {
        race::set_schedule_seed(Some(seed));
        let perturbed = transient_bits(4);
        race::set_schedule_seed(None);
        assert_eq!(
            perturbed, baseline,
            "transient: schedule seed {seed} changed the field"
        );
    }
}

/// Permuting the band execution order must not change a single bit of
/// the solution — the engine's order-independence claim, tested for
/// each solver family.
#[test]
fn permuted_schedules_are_bitwise_identical() {
    let _g = lock();
    let p = problem();
    let solvers: [(&str, SolveFn); 3] = [
        ("cg", |p| {
            CgSolver::new()
                .with_threads(4)
                .with_parallel_crossover(0)
                .solve(p)
        }),
        ("sor", |p| {
            SorSolver::new()
                .with_threads(4)
                .with_parallel_crossover(0)
                .solve(p)
        }),
        ("cg-mixed", |p| {
            CgSolver::new()
                .with_precision(Precision::Mixed)
                .with_threads(4)
                .with_parallel_crossover(0)
                .solve(p)
        }),
    ];
    for (name, solve) in solvers {
        race::set_schedule_seed(None);
        let baseline = field_bits(&solve(&p).unwrap_or_else(|e| panic!("{name}: {e}")));
        for seed in [5_u64, 17, 29] {
            race::set_schedule_seed(Some(seed));
            let perturbed = solve(&p);
            race::set_schedule_seed(None);
            let perturbed =
                field_bits(&perturbed.unwrap_or_else(|e| panic!("{name} seed {seed}: {e}")));
            assert_eq!(
                perturbed, baseline,
                "{name}: schedule seed {seed} changed the field"
            );
        }
    }
}
