//! Fault-injection suite (`--features fault-inject`): armed
//! [`tsc_thermal::fault`] plans corrupt solves in controlled,
//! seed-deterministic ways, and every corruption must surface as a
//! *typed* error — [`SolveError::Diverged`],
//! [`SolveError::NotConverged`], or (through the electrothermal loop)
//! `ThermalRunaway`. An `Ok` carrying a non-finite or perturbed field is
//! the one outcome the divergence-safety contract forbids, so any `Ok`
//! here first proves no injection actually fired, then proves the field
//! is finite.
//!
//! The default run covers 4 seeds per solver; CI's nightly-style job
//! widens the sweep with `FAULT_SEEDS=8`.
#![cfg(feature = "fault-inject")]

use tsc_geometry::Grid3;
use tsc_thermal::electrothermal::{solve_electrothermal_with, ElectrothermalError, LeakageModel};
use tsc_thermal::fault::{self, FaultKind, FaultPlan};
use tsc_thermal::transient::{capacity, TransientRun};
use tsc_thermal::{CgSolver, Heatsink, Precision, Problem, SolveContext, SolveError, SorSolver};
use tsc_units::{
    HeatTransferCoefficient, Length, Power, TempDelta, Temperature, ThermalConductivity,
};

fn fixture() -> Problem {
    let mut p = Problem::uniform_block(
        8,
        8,
        6,
        Length::from_millimeters(1.0),
        Length::from_millimeters(1.0),
        Length::from_micrometers(60.0),
        ThermalConductivity::new(120.0),
    );
    p.set_bottom_heatsink(Heatsink::two_phase());
    p.add_power(4, 4, 5, Power::from_watts(2.0));
    p.add_power(2, 5, 3, Power::from_watts(1.0));
    p
}

/// Number of fault seeds per solver: 4 by default, widened via the
/// `FAULT_SEEDS` environment variable in the nightly-style CI job.
fn seed_count() -> u64 {
    std::env::var("FAULT_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

type SolverFn = fn(&Problem) -> Result<tsc_thermal::Solution, SolveError>;

/// Every solver in the workspace: the f64 Jacobi-CG oracle, the SOR
/// cross-check, and the production configuration — f64 iterative
/// refinement around the f32 MG-PCG.
const SOLVERS: [(&str, SolverFn); 3] = [
    ("cg-jacobi", |p| CgSolver::new().solve(p)),
    ("sor", |p| SorSolver::new().solve(p)),
    (MIXED, |p| mixed_solver().solve(p)),
];

/// The mixed path's refinement budget is not an iteration cap (running
/// out of passes finishes on Jacobi-CG by design), so it sits out the
/// budget-truncation test and joins every data-corrupting one.
const MIXED: &str = "cg-mixed";

fn mixed_solver() -> CgSolver {
    CgSolver::new().with_precision(Precision::Mixed)
}

/// The core contract: under any armed fault, a solver either returns a
/// typed error, or — when the plan's trigger never fired (e.g. the
/// solve converged before the trigger iteration) — an `Ok` whose field
/// is finite and whose injection counter proves nothing was corrupted.
fn assert_fault_surfaces(label: &str, solve: SolverFn, plan: FaultPlan) {
    let p = fixture();
    fault::arm(plan);
    let result = solve(&p);
    let injections = fault::injections();
    fault::disarm();
    match result {
        Err(SolveError::Diverged { residual, .. }) => {
            assert!(
                !residual.is_finite(),
                "{label}/{plan:?}: Diverged must report the non-finite residual, got {residual}"
            );
        }
        Err(SolveError::NotConverged { .. }) => {
            assert!(
                matches!(plan.kind, FaultKind::TruncateBudget),
                "{label}/{plan:?}: NotConverged is only legitimate for budget truncation"
            );
        }
        Err(other) => panic!("{label}/{plan:?}: unexpected error class {other:?}"),
        Ok(solution) => {
            // A truncated budget that the solve still converged within
            // is a legitimate Ok; every data-corrupting kind is not.
            if !matches!(plan.kind, FaultKind::TruncateBudget) {
                assert_eq!(
                    injections, 0,
                    "{label}/{plan:?}: solver returned Ok although a fault was injected"
                );
            }
            assert!(
                solution.temperatures.iter_kelvin().all(|t| t.is_finite()),
                "{label}/{plan:?}: Ok with non-finite temperatures"
            );
        }
    }
}

#[test]
fn seeded_faults_never_yield_silent_ok() {
    for (label, solve) in SOLVERS {
        for seed in 0..seed_count() {
            assert_fault_surfaces(label, solve, FaultPlan::from_seed(seed).targeting_solve(0));
        }
    }
}

#[test]
fn poisoned_iterates_diverge_in_every_solver() {
    for (label, solve) in SOLVERS {
        for kind in [FaultKind::PoisonCellNan, FaultKind::PoisonCellInf] {
            let plan = FaultPlan {
                kind,
                target_solve: 0,
                trigger_iteration: 1,
                cell_position: 0.37,
            };
            let p = fixture();
            fault::arm(plan);
            let result = solve(&p);
            let injections = fault::injections();
            fault::disarm();
            assert_eq!(injections, 1, "{label}/{kind:?}: poison must fire");
            assert!(
                matches!(result, Err(SolveError::Diverged { .. })),
                "{label}/{kind:?}: poisoned iterate must surface as Diverged, got {result:?}"
            );
        }
    }
}

#[test]
fn corrupted_residuals_diverge_in_every_solver() {
    for (label, solve) in SOLVERS {
        for kind in [FaultKind::ResidualNan, FaultKind::ResidualInf] {
            let plan = FaultPlan {
                kind,
                target_solve: 0,
                trigger_iteration: 1,
                cell_position: 0.0,
            };
            let p = fixture();
            fault::arm(plan);
            let result = solve(&p);
            let injections = fault::injections();
            fault::disarm();
            assert!(injections >= 1, "{label}/{kind:?}: corruption must fire");
            assert!(
                matches!(result, Err(SolveError::Diverged { .. })),
                "{label}/{kind:?}: corrupted residual must surface as Diverged, got {result:?}"
            );
        }
    }
}

#[test]
fn truncated_budgets_surface_as_not_converged() {
    for (label, solve) in SOLVERS.into_iter().filter(|&(label, _)| label != MIXED) {
        let plan = FaultPlan {
            kind: FaultKind::TruncateBudget,
            target_solve: 0,
            trigger_iteration: 2,
            cell_position: 0.0,
        };
        let p = fixture();
        fault::arm(plan);
        let result = solve(&p);
        let injections = fault::injections();
        fault::disarm();
        assert_eq!(injections, 1, "{label}: truncation must fire");
        match result {
            Err(SolveError::NotConverged { iterations, .. }) => {
                assert!(
                    iterations <= 2,
                    "{label}: truncated to 2 but reported {iterations} iterations"
                );
            }
            // A solver beating the truncated budget is legal but must
            // still have honored it.
            Ok(solution) => assert!(
                solution.stats.iterations <= 2,
                "{label}: Ok but ran {} iterations past the truncated budget",
                solution.stats.iterations
            ),
            other => panic!("{label}: truncated budget must be NotConverged, got {other:?}"),
        }
    }
}

#[test]
fn mixed_stall_finishes_on_jacobi_cg() {
    // A refinement pass reported as not contracting must hand over to
    // f64 Jacobi-CG from the refined iterate: no hierarchy beyond the
    // f32 one is built, the context counts each Jacobi-CG finish, and
    // the answer still meets the tolerance.
    let stall = FaultPlan {
        kind: FaultKind::ResidualStall,
        target_solve: 0,
        trigger_iteration: 1,
        cell_position: 0.0,
    };
    let tol = 1e-9;
    let solver = mixed_solver().with_tolerance(tol);
    let mut p = fixture();
    let mut ctx = SolveContext::new();
    for round in 0..2 {
        fault::arm(stall);
        let result = ctx.solve(&p, &solver);
        let injections = fault::injections();
        fault::disarm();
        assert_eq!(injections, 1, "round {round}: the stall must fire");
        let sol = result.expect("a stalled pass finishes on Jacobi-CG and converges");
        assert_eq!(sol.stats.precision, Precision::Mixed);
        assert_eq!(
            sol.stats.refinements, 1,
            "round {round}: one pass, then the stall"
        );
        assert!(
            sol.stats.residual <= tol,
            "round {round}: residual {}",
            sol.stats.residual
        );
        let reference = CgSolver::new()
            .with_tolerance(tol)
            .solve(&p)
            .expect("clean");
        let max_dev = sol
            .temperatures
            .iter_kelvin()
            .zip(reference.temperatures.iter_kelvin())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f64, f64::max);
        assert!(
            max_dev < 1e-6,
            "round {round}: {max_dev} K off the reference"
        );
        let stats = ctx.stats();
        assert_eq!(stats.hierarchy_builds, 1, "one f32 hierarchy");
        assert_eq!(
            stats.f64_fallbacks,
            round + 1,
            "round {round}: every stalled solve finishes on Jacobi-CG"
        );
        p.add_power(3, 3, 5, Power::from_watts(0.5));
    }
}

#[test]
fn mixed_transient_stall_finishes_on_jacobi_cg() {
    // The same hand-over inside a transient step: the stalled step
    // still meets the stepper's 1e-9 tolerance and lands where a
    // Jacobi-CG step from the same state lands.
    let p = fixture();
    let caps = Grid3::filled(p.dim(), capacity::SILICON);
    let ambient = Heatsink::two_phase().ambient;
    let mut mixed = TransientRun::new(&p, &caps, 1e-4, ambient)
        .expect("well-posed")
        .with_multigrid();
    let mut jacobi = TransientRun::new(&p, &caps, 1e-4, ambient).expect("well-posed");
    mixed.step().expect("clean mixed step");
    jacobi.step().expect("clean jacobi step");
    fault::arm(FaultPlan {
        kind: FaultKind::ResidualStall,
        target_solve: 0,
        trigger_iteration: 1,
        cell_position: 0.0,
    });
    let result = mixed.step();
    let injections = fault::injections();
    fault::disarm();
    assert_eq!(injections, 1, "the stall must fire");
    let stats = result.expect("a stalled step finishes on Jacobi-CG");
    assert_eq!(stats.precision, Precision::Mixed);
    assert!(stats.residual <= 1e-9, "residual {}", stats.residual);
    jacobi.step().expect("clean jacobi step");
    let max_dev = mixed
        .temperatures()
        .iter_kelvin()
        .zip(jacobi.temperatures().iter_kelvin())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0_f64, f64::max);
    assert!(max_dev < 1e-6, "{max_dev} K off the Jacobi-CG step");
}

#[test]
fn unfactorable_operator_runs_jacobi_cg() {
    // A NaN film coefficient poisons the operator itself: the f32
    // hierarchy's coarsest Cholesky refuses it, the mixed solve runs
    // Jacobi-CG instead of building any other hierarchy, and the
    // poison surfaces as a typed error — never an Ok with NaNs.
    let mut p = fixture();
    p.set_bottom_heatsink(Heatsink::new(
        HeatTransferCoefficient::new(f64::NAN),
        Heatsink::two_phase().ambient,
    ));
    let mut ctx = SolveContext::new();
    for round in 1..=2 {
        match ctx.solve(&p, &mixed_solver()) {
            Err(SolveError::Diverged { residual, .. }) => assert!(!residual.is_finite()),
            Err(other) => panic!("round {round}: unexpected error class {other:?}"),
            Ok(sol) => assert!(
                sol.temperatures.iter_kelvin().all(f64::is_finite),
                "round {round}: Ok with non-finite temperatures"
            ),
        }
        let stats = ctx.stats();
        assert_eq!(stats.hierarchy_builds, 0, "the hierarchy never factors");
        assert_eq!(stats.f64_fallbacks, round, "each solve runs Jacobi-CG");
    }
}

#[test]
fn electrothermal_loop_reports_thermal_runaway() {
    // Poison the *second* inner solve: the first (pre-loop) solve runs
    // clean, so the divergence happens inside the fixed-point loop and
    // must be classified as ThermalRunaway, not a bare Solve error.
    let p = fixture();
    let plan = FaultPlan {
        kind: FaultKind::PoisonCellNan,
        target_solve: 1,
        trigger_iteration: 1,
        cell_position: 0.6,
    };
    fault::arm(plan);
    let result = solve_electrothermal_with(
        &p,
        &LeakageModel::seven_nm(),
        TempDelta::new(0.01),
        40,
        &CgSolver::new(),
    );
    let injections = fault::injections();
    fault::disarm();
    assert!(injections >= 1, "second-solve poison must fire");
    match result {
        Err(ElectrothermalError::ThermalRunaway { junction, .. }) => {
            assert!(
                junction.kelvin().is_finite(),
                "last good Tj stays reportable"
            );
        }
        other => panic!("in-loop divergence must be ThermalRunaway, got {other:?}"),
    }
}

#[test]
fn electrothermal_first_solve_fault_propagates_as_solve_error() {
    let p = fixture();
    let plan = FaultPlan {
        kind: FaultKind::PoisonCellInf,
        target_solve: 0,
        trigger_iteration: 1,
        cell_position: 0.1,
    };
    fault::arm(plan);
    let result = solve_electrothermal_with(
        &p,
        &LeakageModel::seven_nm(),
        TempDelta::new(0.01),
        40,
        &CgSolver::new(),
    );
    fault::disarm();
    assert!(
        matches!(
            result,
            Err(ElectrothermalError::Solve(SolveError::Diverged { .. }))
        ),
        "pre-loop fault is a Solve error, not runaway: {result:?}"
    );
}

#[test]
fn disarmed_solvers_recover() {
    // After a faulted run, a clean run of the same problem must succeed
    // — injection state cannot leak across solves.
    let p = fixture();
    fault::arm(FaultPlan {
        kind: FaultKind::PoisonCellNan,
        target_solve: 0,
        trigger_iteration: 1,
        cell_position: 0.5,
    });
    let faulted = CgSolver::new().solve(&p);
    fault::disarm();
    assert!(faulted.is_err());
    let clean = CgSolver::new().solve(&p).expect("clean solve succeeds");
    assert!(clean.temperatures.iter_kelvin().all(|t| t.is_finite()));
    assert!(
        clean.temperatures.max_temperature() > Temperature::from_celsius(40.0),
        "field is physical, not zeroed"
    );
}
