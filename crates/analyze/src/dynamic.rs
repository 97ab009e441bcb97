//! The dynamic half of the gate (`--features race-check` only): drives
//! every solver of `tsc-thermal` — Jacobi-CG, the mixed-precision
//! multigrid path for steady solves and transient steps, and SOR —
//! through forced-parallel solves with the engine's write-set
//! instrumentation live, then re-runs them under permuted band
//! schedules and asserts bitwise-identical fields.
//!
//! A detected race panics inside the engine (see `tsc_thermal::race`),
//! which [`run`] reports as an `Err` so the gate binary exits nonzero.

use tsc_geometry::Grid3;
use tsc_thermal::race;
use tsc_thermal::transient::{capacity, TransientRun};
use tsc_thermal::{CgSolver, Heatsink, Precision, Problem, SorSolver};
use tsc_units::{HeatFlux, Length, ThermalConductivity};

/// Threads forced onto every solve — enough bands to make interleaving
/// interesting on the reduced mesh.
const THREADS: usize = 4;

/// Schedule-perturbation seeds replayed against the unperturbed solve.
const SEEDS: [u64; 3] = [1, 2, 3];

/// A reduced heterogeneous stack, `lateral` cells on a side: silicon
/// device slabs sandwiching a low-k BEOL-like slab, bottom heatsink,
/// top-surface power — small enough to solve in milliseconds, layered
/// enough that every band carries distinct coefficients.
fn reduced_problem(lateral: usize) -> Problem {
    let mut p = Problem::uniform_block(
        lateral,
        lateral,
        8,
        Length::from_millimeters(1.0),
        Length::from_millimeters(1.0),
        Length::from_micrometers(40.0),
        ThermalConductivity::new(148.0),
    );
    // Two buried low-conductivity anisotropic slabs (BEOL stand-ins).
    p.set_layer_conductivity(
        2,
        ThermalConductivity::new(1.2),
        ThermalConductivity::new(2.4),
    );
    p.set_layer_conductivity(
        5,
        ThermalConductivity::new(0.9),
        ThermalConductivity::new(1.8),
    );
    p.set_bottom_heatsink(Heatsink::two_phase());
    p.add_uniform_top_flux(HeatFlux::from_watts_per_square_cm(150.0));
    p
}

/// One named solver configuration exercised by the harness.
struct Case {
    name: &'static str,
    solve: fn(&Problem) -> Result<Vec<u64>, String>,
}

/// Solves and returns the field as raw bit patterns for exact
/// comparison across schedules.
fn bits(
    result: Result<tsc_thermal::Solution, tsc_thermal::SolveError>,
) -> Result<Vec<u64>, String> {
    let sol = result.map_err(|e| format!("solve failed: {e}"))?;
    Ok(sol.temperatures.iter_kelvin().map(f64::to_bits).collect())
}

/// Two mixed-precision transient steps on `p`, as raw bit patterns.
/// Transient steps band only at the default parallel crossover, so `p`
/// must have at least that many cells.
fn transient_bits(p: &Problem) -> Result<Vec<u64>, String> {
    let caps = Grid3::filled(p.dim(), capacity::SILICON);
    let mut run = TransientRun::new(p, &caps, 1e-4, Heatsink::two_phase().ambient)
        .map_err(|e| format!("staging failed: {e}"))?
        .with_threads(THREADS)
        .with_multigrid();
    for _ in 0..2 {
        run.step().map_err(|e| format!("step failed: {e}"))?;
    }
    Ok(run.temperatures().iter_kelvin().map(f64::to_bits).collect())
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "cg-jacobi",
            solve: |p| {
                bits(
                    CgSolver::new()
                        .with_threads(THREADS)
                        .with_parallel_crossover(0)
                        .solve(p),
                )
            },
        },
        Case {
            name: "cg-mixed",
            solve: |p| {
                bits(
                    CgSolver::new()
                        .with_precision(Precision::Mixed)
                        .with_threads(THREADS)
                        .with_parallel_crossover(0)
                        .solve(p),
                )
            },
        },
        Case {
            name: "sor",
            solve: |p| {
                bits(
                    SorSolver::new()
                        .with_threads(THREADS)
                        .with_parallel_crossover(0)
                        .solve(p),
                )
            },
        },
        Case {
            name: "transient-mixed",
            solve: |_| transient_bits(&reduced_problem(64)),
        },
    ]
}

/// Runs the full dynamic suite. Returns a human-readable summary on
/// success.
///
/// # Errors
///
/// Returns a description of the first failure: a solve error, an
/// instrumentation gap (no regions checked), or a schedule-perturbed
/// solve whose field is not bitwise identical to the unperturbed one.
pub fn run() -> Result<String, String> {
    let p = reduced_problem(24);
    let mut lines = Vec::new();
    let mut total_regions = 0_usize;

    for case in cases() {
        // Pass 1: parallel execution with live write-set checking. Any
        // discipline violation panics inside the engine; a missing
        // instrumentation path shows up as a stuck region counter.
        race::set_schedule_seed(None);
        race::reset_regions();
        let baseline = (case.solve)(&p).map_err(|e| format!("{}: {e}", case.name))?;
        let regions = race::regions_checked();
        if regions == 0 {
            return Err(format!(
                "{}: no parallel regions were checked — instrumentation did not run",
                case.name
            ));
        }
        total_regions += regions;

        // Pass 2: permuted band schedules must reproduce the field bit
        // for bit — any cross-band ordering dependence changes it.
        for seed in SEEDS {
            race::set_schedule_seed(Some(seed));
            let perturbed = (case.solve)(&p);
            race::set_schedule_seed(None);
            let perturbed = perturbed.map_err(|e| format!("{} seed {seed}: {e}", case.name))?;
            if perturbed != baseline {
                let first = baseline
                    .iter()
                    .zip(&perturbed)
                    .position(|(a, b)| a != b)
                    .unwrap_or(0);
                return Err(format!(
                    "{}: schedule seed {seed} changed the field (first difference at \
                     flat index {first}) — a cross-band ordering dependence",
                    case.name
                ));
            }
        }
        lines.push(format!(
            "  {:<15} {} region(s) race-checked, {} permuted schedules bitwise-identical",
            case.name,
            regions,
            SEEDS.len()
        ));
    }

    let mut summary = format!(
        "tsc-analyze: race check passed ({} solver configuration(s), {} parallel region(s))\n",
        lines.len(),
        total_regions
    );
    summary.push_str(&lines.join("\n"));
    Ok(summary)
}
