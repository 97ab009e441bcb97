//! Electrothermal fixed-point iteration: leakage power grows with
//! temperature, temperature grows with power.
//!
//! The paper's 125 °C limit exists because leakage (and reliability)
//! degrade steeply with junction temperature; PACT-class flows close the
//! loop by iterating power and temperature. This module implements the
//! standard fixed-point scheme with an exponential leakage model
//! `P(T) = P_dyn + P_leak0 · exp((T − T_ref)/T_char)` and detects
//! *thermal runaway* — the regime where each iteration heats the stack
//! faster than the sink can respond.

use crate::field::TemperatureField;
use crate::kernels::Shadow;
use crate::problem::Problem;
use crate::solver::{Assembled, CgSolver, SolveError};
use tsc_units::{Power, Ratio, TempDelta, Temperature};

/// The leakage feedback model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeakageModel {
    /// Fraction of each cell's staged power that is leakage at `t_ref`.
    pub leakage_fraction: Ratio,
    /// Reference temperature at which the staged powers were computed.
    pub t_ref: Temperature,
    /// Characteristic temperature of the exponential growth
    /// (sub-threshold leakage roughly doubles every ~15-25 K at 7 nm).
    pub doubling_interval: TempDelta,
}

impl LeakageModel {
    /// A 7 nm-class model: 10 % leakage at the 100 °C staging point,
    /// doubling every 20 K.
    #[must_use]
    pub fn seven_nm() -> Self {
        Self {
            leakage_fraction: Ratio::from_percent(10.0),
            t_ref: Temperature::from_celsius(100.0),
            doubling_interval: TempDelta::new(20.0),
        }
    }

    /// Power multiplier of a cell at temperature `t`.
    #[must_use]
    pub fn multiplier(&self, t: Temperature) -> f64 {
        let leak = self.leakage_fraction.fraction();
        let dt = (t - self.t_ref).kelvin();
        let growth = 2.0_f64.powf(dt / self.doubling_interval.kelvin());
        (1.0 - leak) + leak * growth
    }
}

/// Outcome of an electrothermal solve.
#[derive(Debug, Clone)]
pub struct ElectrothermalSolution {
    /// The converged temperature field.
    pub temperatures: TemperatureField,
    /// Total power including the converged leakage.
    pub total_power: Power,
    /// Fixed-point iterations used.
    pub iterations: usize,
}

/// Failure modes of the coupled solve.
#[derive(Debug, Clone, PartialEq)]
pub enum ElectrothermalError {
    /// The inner linear solve failed.
    Solve(SolveError),
    /// The fixed point diverged: each iteration raised the junction
    /// temperature further — thermal runaway.
    ThermalRunaway {
        /// Junction temperature when divergence was declared.
        junction: Temperature,
        /// Iterations performed before giving up.
        iterations: usize,
    },
}

impl core::fmt::Display for ElectrothermalError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Solve(e) => write!(f, "inner solve failed: {e}"),
            Self::ThermalRunaway {
                junction,
                iterations,
            } => write!(
                f,
                "thermal runaway after {iterations} iterations (junction at {junction})"
            ),
        }
    }
}

impl std::error::Error for ElectrothermalError {}

impl From<SolveError> for ElectrothermalError {
    fn from(e: SolveError) -> Self {
        Self::Solve(e)
    }
}

/// Solves the coupled problem: iterate `T → P(T) → T` until the junction
/// moves less than `tol` kelvin, or declare runaway.
///
/// The staged powers in `base` are interpreted as measured at
/// `model.t_ref`; each iteration rescales every cell's power by the local
/// temperature multiplier and re-solves.
///
/// The conduction operator is assembled **once**: power feedback only
/// touches the right-hand side, so every fixed-point iteration reuses
/// the same [`Assembled`] system and warm-starts CG from the previous
/// temperature field — after the first solve each iteration typically
/// converges in a fraction of the cold-start iteration count.
///
/// # Errors
///
/// [`ElectrothermalError::Solve`] on inner-solver failure;
/// [`ElectrothermalError::ThermalRunaway`] when the junction keeps
/// accelerating upward (or exceeds 1000 °C) instead of converging.
pub fn solve_electrothermal(
    base: &Problem,
    model: &LeakageModel,
    tol: TempDelta,
    max_iterations: usize,
) -> Result<ElectrothermalSolution, ElectrothermalError> {
    solve_electrothermal_with(
        base,
        model,
        tol,
        max_iterations,
        &CgSolver::new().with_tolerance(1e-8),
    )
}

/// [`solve_electrothermal`] with an explicit inner solver configuration.
///
/// With [`crate::Precision::Mixed`] the multigrid hierarchy is built
/// **once** (the operator never changes — only the right-hand side does)
/// and reused by every fixed-point iteration, compounding with the
/// warm start.
///
/// # Errors
///
/// As [`solve_electrothermal`].
pub fn solve_electrothermal_with(
    base: &Problem,
    model: &LeakageModel,
    tol: TempDelta,
    max_iterations: usize,
    solver: &CgSolver,
) -> Result<ElectrothermalSolution, ElectrothermalError> {
    assert!(tol.kelvin() > 0.0, "tolerance must be positive");
    assert!(max_iterations > 0, "need at least one iteration");
    let asm = Assembled::build(base).map_err(ElectrothermalError::from)?;
    let params = solver.params();
    let mut shadow = Shadow::for_precision(solver.precision());
    let mut solve_once =
        |rhs: &[f64], x: &mut [f64]| asm.solve_system(None, rhs, x, &params, shadow.as_mut());
    let base_power = base.power_flat().to_vec();

    let mut x = vec![asm.initial_guess(); base.dim().len()];
    solve_once(asm.rhs(), &mut x)?;
    let mut last_tj = Temperature::from_kelvin(x.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    let mut last_step = f64::INFINITY;

    for iteration in 1..=max_iterations {
        // Rescale each cell's power by the local multiplier derived from
        // the previous iterate, then re-solve over the same operator.
        let mut total = 0.0;
        let power: Vec<f64> = base_power
            .iter()
            .zip(&x)
            .map(|(&p0, &t)| {
                // tsc-analyze: allow(float-eq): exact-zero test — cells
                // with literally no power must stay at exactly zero
                // rather than picking up a multiplier.
                let p = if p0 == 0.0 {
                    0.0
                } else {
                    p0 * model.multiplier(Temperature::from_kelvin(t))
                };
                total += p;
                p
            })
            .collect();
        let rhs = asm.rhs_with_power(&power);
        let stats = match solve_once(&rhs, &mut x) {
            Ok(stats) => stats,
            // The feedback scaled powers beyond the representable range
            // (the exponential multiplier overflows well before f64 does
            // on its own): numerically indistinguishable from runaway.
            // The divergence-unsafe solver used to mask this by leaking
            // NaN temperatures out of an `Ok` and idling to the
            // iteration cap.
            Err(SolveError::Diverged { .. }) => {
                return Err(ElectrothermalError::ThermalRunaway {
                    junction: last_tj,
                    iterations: iteration,
                })
            }
            Err(e) => return Err(e.into()),
        };
        let tj = Temperature::from_kelvin(x.iter().copied().fold(f64::NEG_INFINITY, f64::max));
        let step = (tj - last_tj).kelvin();

        if tj.celsius() > 1000.0 || (step > last_step.max(0.0) && step > 5.0) {
            return Err(ElectrothermalError::ThermalRunaway {
                junction: tj,
                iterations: iteration,
            });
        }
        if step.abs() <= tol.kelvin() {
            let solution = asm.solution(&x, stats, total);
            return Ok(ElectrothermalSolution {
                total_power: Power::from_watts(total),
                temperatures: solution.temperatures,
                iterations: iteration,
            });
        }
        last_tj = tj;
        last_step = step;
    }
    Err(ElectrothermalError::ThermalRunaway {
        junction: last_tj,
        iterations: max_iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heatsink::Heatsink;
    use tsc_units::{Length, ThermalConductivity};

    fn problem(watts: f64, k: f64) -> Problem {
        let mut p = Problem::uniform_block(
            6,
            6,
            4,
            Length::from_millimeters(1.0),
            Length::from_millimeters(1.0),
            Length::from_micrometers(100.0),
            ThermalConductivity::new(k),
        );
        p.set_bottom_heatsink(Heatsink::two_phase());
        p.add_power(3, 3, 3, Power::from_watts(watts));
        p
    }

    #[test]
    fn multiplier_shape() {
        let m = LeakageModel::seven_nm();
        // At the reference temperature the multiplier is exactly 1.
        assert!((m.multiplier(Temperature::from_celsius(100.0)) - 1.0).abs() < 1e-12);
        // 20 K hotter: leakage doubled -> 0.9 + 0.2 = 1.1.
        assert!((m.multiplier(Temperature::from_celsius(120.0)) - 1.1).abs() < 1e-12);
        // Cooler than reference: below 1 but above the dynamic floor.
        let cold = m.multiplier(Temperature::from_celsius(40.0));
        assert!(cold < 1.0 && cold > 0.9);
    }

    #[test]
    fn mild_feedback_converges_slightly_hotter() {
        let p = problem(0.5, 100.0);
        let open_loop = CgSolver::new().solve(&p).expect("solves");
        let closed = solve_electrothermal(&p, &LeakageModel::seven_nm(), TempDelta::new(0.01), 50)
            .expect("converges");
        let t_open = open_loop.temperatures.max_temperature();
        let t_closed = closed.temperatures.max_temperature();
        assert!(
            t_closed > t_open,
            "leakage feedback heats: {t_open} vs {t_closed}"
        );
        assert!(
            (t_closed - t_open).kelvin() < 5.0,
            "mild case stays mild: {t_open} -> {t_closed}"
        );
        assert!(closed.total_power.watts() > p.total_power().watts());
        assert!(closed.iterations >= 1);
    }

    #[test]
    fn strong_feedback_runs_away() {
        // A poorly conducting stack with heavy power: every extra kelvin
        // buys more leakage than the sink can remove.
        let p = problem(40.0, 0.4);
        let err = solve_electrothermal(
            &p,
            &LeakageModel {
                leakage_fraction: Ratio::from_percent(30.0),
                ..LeakageModel::seven_nm()
            },
            TempDelta::new(0.01),
            60,
        )
        .unwrap_err();
        assert!(
            matches!(err, ElectrothermalError::ThermalRunaway { .. }),
            "expected runaway, got {err}"
        );
    }

    #[test]
    fn multigrid_inner_solver_matches_jacobi() {
        let p = problem(0.5, 100.0);
        let model = LeakageModel::seven_nm();
        let tol = TempDelta::new(0.01);
        let jacobi = solve_electrothermal(&p, &model, tol, 50).expect("jacobi converges");
        let mg = solve_electrothermal_with(
            &p,
            &model,
            tol,
            50,
            &CgSolver::new()
                .with_tolerance(1e-8)
                .with_precision(crate::Precision::Mixed),
        )
        .expect("mixed converges");
        assert_eq!(mg.iterations, jacobi.iterations);
        let dev = (mg.temperatures.max_temperature() - jacobi.temperatures.max_temperature())
            .kelvin()
            .abs();
        assert!(dev < 1e-5, "MG fixed point must match Jacobi: |dT| = {dev}");
    }

    #[test]
    fn zero_leakage_matches_open_loop() {
        let p = problem(0.5, 100.0);
        let open_loop = CgSolver::new().solve(&p).expect("solves");
        let closed = solve_electrothermal(
            &p,
            &LeakageModel {
                leakage_fraction: Ratio::ZERO,
                ..LeakageModel::seven_nm()
            },
            TempDelta::new(0.001),
            10,
        )
        .expect("converges immediately");
        assert!(closed
            .temperatures
            .max_temperature()
            .approx_eq(open_loop.temperatures.max_temperature(), 1e-6));
        assert_eq!(closed.iterations, 1);
    }
}
