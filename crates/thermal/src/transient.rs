//! Transient thermal simulation: implicit-Euler time stepping on the
//! same finite-volume discretization as the steady solver.
//!
//! PACT (the paper's chip-scale simulator) provides both steady and
//! transient modes; the paper's discussion of thermal-aware scheduling
//! ("scheduling task execution to control temporal power profiles" \[4\])
//! and fine-grained power gating (Fig. 12) is inherently temporal, so
//! this module completes the substitution.
//!
//! Each step solves `(C/Δt + A)·T' = C/Δt·T + b` through the same solve
//! entry as the steady solver: f64 Jacobi-CG by default, or — with
//! [`TransientRun::with_multigrid`] — the mixed-precision multigrid
//! path over the shifted operator, which the serving tier streams.
//! Implicit Euler is unconditionally stable, so Δt is chosen for
//! accuracy, not stability.

use crate::field::TemperatureField;
use crate::kernels::Shadow;
use crate::problem::Problem;
use crate::solver::{Assembled, CgParams, SolveError, SolverStats, DEFAULT_PARALLEL_CROSSOVER};
use std::fmt;
use std::time::Instant;
use tsc_geometry::{Grid3, Index3};
use tsc_units::Temperature;

/// Volumetric heat capacities (J/m³/K) of the stack materials, for
/// building capacity fields.
pub mod capacity {
    /// Crystalline silicon.
    pub const SILICON: f64 = 1.63e6;
    /// Copper.
    pub const COPPER: f64 = 3.45e6;
    /// Porous organosilicate / ultra-low-k dielectric.
    pub const ULTRA_LOW_K: f64 = 1.5e6;
    /// Polycrystalline diamond.
    pub const DIAMOND: f64 = 1.78e6;
}

/// A running transient simulation.
///
/// Assembles the conduction operator once; each [`TransientRun::step`]
/// advances time by `dt`. Power can be re-staged mid-run (power gating,
/// task migration) with [`TransientRun::restage_power`].
///
/// ```
/// use tsc_geometry::Grid3;
/// use tsc_thermal::{transient::{capacity, TransientRun}, Heatsink, Problem};
/// use tsc_units::{Length, Power, Temperature, ThermalConductivity};
///
/// let mut p = Problem::uniform_block(4, 4, 2,
///     Length::from_millimeters(1.0), Length::from_millimeters(1.0),
///     Length::from_micrometers(100.0), ThermalConductivity::new(100.0));
/// p.set_bottom_heatsink(Heatsink::two_phase());
/// p.add_power(2, 2, 1, Power::from_watts(1.0));
/// let caps = Grid3::filled(p.dim(), capacity::SILICON);
/// let mut run = TransientRun::new(&p, &caps, 1e-6,
///     Temperature::from_celsius(100.0))?;
/// run.step()?;
/// assert!(run.time_seconds() > 0.0);
/// assert!(run.temperatures().max_temperature() > Temperature::from_celsius(100.0));
/// # Ok::<(), tsc_thermal::SolveError>(())
/// ```
#[derive(Debug)]
pub struct TransientRun {
    asm: Assembled,
    /// Per-cell heat capacity over Δt: `c_v · V / Δt` (W/K).
    cap_over_dt: Vec<f64>,
    temperatures: Vec<f64>,
    dt: f64,
    time: f64,
    steps: u64,
    tol: f64,
    max_iter: usize,
    threads: usize,
    crossover: usize,
    /// Mixed-path state for the implicit matrix `A + diag(C/Δt)`: the
    /// shift is constant across steps, so its hierarchy is built on the
    /// first step after each (re-)staging and reused by every later one.
    /// `None` steps on Jacobi-CG.
    mg: Option<Shadow>,
}

impl TransientRun {
    /// Starts a run from a uniform initial temperature.
    ///
    /// `capacity_per_volume` holds volumetric heat capacities (J/m³/K)
    /// per cell; `dt` is the time step in seconds.
    ///
    /// # Errors
    ///
    /// [`SolveError::NoBoundary`] when the problem has no heatsink.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive, or the capacity grid's
    /// dimensions mismatch the problem, or any capacity is non-positive.
    pub fn new(
        problem: &Problem,
        capacity_per_volume: &Grid3<f64>,
        dt: f64,
        initial: Temperature,
    ) -> Result<Self, SolveError> {
        assert!(dt > 0.0, "time step must be positive, got {dt}");
        assert_eq!(
            capacity_per_volume.dim(),
            problem.dim(),
            "capacity grid must match the problem mesh"
        );
        assert!(
            capacity_per_volume.iter().all(|&c| c > 0.0),
            "heat capacities must be positive"
        );
        let asm = Assembled::build(problem)?;
        let dim = problem.dim();
        let cell_base = (problem.dx() * problem.dy()).square_meters();
        let mut cap_over_dt = vec![0.0; dim.len()];
        for k in 0..dim.nz {
            let vol = cell_base * problem.dz()[k].meters();
            for j in 0..dim.ny {
                for i in 0..dim.nx {
                    let c = capacity_per_volume[(i, j, k)];
                    cap_over_dt[dim.flat(i, j, k)] = c * vol / dt;
                }
            }
        }
        Ok(Self {
            asm,
            cap_over_dt,
            temperatures: vec![initial.kelvin(); dim.len()],
            dt,
            time: 0.0,
            steps: 0,
            tol: 1e-9,
            max_iter: 20_000,
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            crossover: DEFAULT_PARALLEL_CROSSOVER,
            mg: None,
        })
    }

    /// Builder: steps on the mixed-precision multigrid path — f64
    /// iterative refinement over an f32 MG-PCG of the shifted implicit
    /// matrix `A + diag(C/Δt)`, finishing on Jacobi-CG if a pass
    /// stalls. The hierarchy is built on the first
    /// [`TransientRun::step`] and reused by every later one;
    /// [`TransientRun::restage_power`] rebuilds it (the operator may
    /// change).
    #[must_use]
    pub fn with_multigrid(mut self) -> Self {
        self.mg = Some(Shadow::default());
        self
    }

    /// Builder: caps the worker threads of the inner CG solves (default:
    /// one per available core above the parallel crossover).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "thread count must be positive");
        self.threads = threads;
        self
    }

    /// Whether steps run on the mixed-precision multigrid path.
    #[must_use]
    pub fn uses_multigrid(&self) -> bool {
        self.mg.is_some()
    }

    /// Elapsed simulated time in seconds.
    #[must_use]
    pub fn time_seconds(&self) -> f64 {
        self.time
    }

    /// Number of implicit-Euler steps taken since construction (or the
    /// last [`TransientRun::reset`]).
    #[must_use]
    pub fn steps_taken(&self) -> u64 {
        self.steps
    }

    /// Mesh dimensions of the staged problem.
    #[must_use]
    pub fn dim(&self) -> tsc_geometry::Dim3 {
        self.asm.dim()
    }

    /// The current peak temperature and its cell — the per-step sample a
    /// streamed trajectory reports.  Argmax ties resolve to the lowest
    /// flat index, so the hotspot is deterministic.
    #[must_use]
    pub fn peak(&self) -> PeakSample {
        let mut best = 0;
        for (idx, &t) in self.temperatures.iter().enumerate() {
            if t > self.temperatures[best] {
                best = idx;
            }
        }
        PeakSample {
            kelvin: self.temperatures[best],
            hotspot: self.asm.dim().unflat(best),
        }
    }

    /// Rewinds the run to a uniform initial temperature, keeping the
    /// assembled operator, capacity staging, and multigrid hierarchy.
    /// A reset run's trajectory is bitwise identical to a freshly
    /// constructed run's: the reused state is deterministic in the
    /// problem, and the temperature vector is refilled exactly.
    pub fn reset(&mut self, initial: Temperature) {
        self.temperatures.fill(initial.kelvin());
        self.time = 0.0;
        self.steps = 0;
    }

    /// Re-stages only the heat sources (watts per cell) over the
    /// unchanged operator — the delta path for streamed power updates.
    /// Equivalent to [`TransientRun::restage_power`] with a problem that
    /// differs only in power, but skips reassembly and the multigrid
    /// hierarchy rebuild entirely; the resulting right-hand side is
    /// bitwise identical to the full restage (IEEE addition of the same
    /// two addends).
    ///
    /// # Panics
    ///
    /// Panics if `power_watts` does not have one entry per cell.
    pub fn restage_power_delta(&mut self, power_watts: &[f64]) {
        assert_eq!(
            power_watts.len(),
            self.temperatures.len(),
            "power delta must cover every cell"
        );
        self.asm.rhs = self.asm.rhs_with_power(power_watts);
    }

    /// Time step in seconds.
    #[must_use]
    pub fn dt_seconds(&self) -> f64 {
        self.dt
    }

    /// Current temperature field.
    #[must_use]
    pub fn temperatures(&self) -> TemperatureField {
        let mut grid = Grid3::filled(self.asm.dim(), 0.0);
        grid.as_mut_slice().copy_from_slice(&self.temperatures);
        TemperatureField::from_kelvin(grid)
    }

    /// Re-derives heat sources and boundary conditions from a modified
    /// problem (same mesh): the power-gating / task-migration hook.
    ///
    /// # Errors
    ///
    /// [`SolveError::NoBoundary`] when the new problem has no heatsink.
    ///
    /// # Panics
    ///
    /// Panics if the mesh dimensions changed.
    pub fn restage_power(&mut self, problem: &Problem) -> Result<(), SolveError> {
        assert_eq!(
            problem.dim(),
            self.asm.dim(),
            "restaged problem must keep the same mesh"
        );
        self.asm = Assembled::build(problem)?;
        if let Some(mg) = &mut self.mg {
            *mg = Shadow::default();
        }
        Ok(())
    }

    /// Advances one implicit-Euler step.
    ///
    /// # Errors
    ///
    /// [`SolveError::NotConverged`] if the inner solve stalls.
    pub fn step(&mut self) -> Result<SolverStats, SolveError> {
        // rhs = b + (C/dt)·T ; matrix = A + diag(C/dt).
        let mut rhs = self.asm.rhs().to_vec();
        for ((r, c), t) in rhs
            .iter_mut()
            .zip(&self.cap_over_dt)
            .zip(&self.temperatures)
        {
            *r += c * t;
        }
        let params = CgParams {
            tol: self.tol,
            max_iter: self.max_iter,
            threads: self.threads,
            crossover: self.crossover,
            traj_stride: usize::MAX,
        };
        let stats = self.asm.solve_system(
            Some(&self.cap_over_dt),
            &rhs,
            &mut self.temperatures,
            &params,
            self.mg.as_mut(),
        )?;
        self.time += self.dt;
        self.steps += 1;
        Ok(stats)
    }

    /// Checks the session guards *before* a step would run: `None` means
    /// the step may proceed.  Kept separate from [`TransientRun::step`]
    /// so a caller can surface the halt as a typed in-band event rather
    /// than a solver error — a guard trip is a policy outcome, not a
    /// numerical failure.
    #[must_use]
    pub fn check_limits(&self, limits: &StepLimits) -> Option<StepHalt> {
        if self.steps >= limits.max_steps {
            return Some(StepHalt::BudgetExhausted { steps: self.steps });
        }
        if let Some(deadline) = limits.deadline {
            // tsc-analyze: allow(no-wallclock-numeric): guards session wall time only, never the numerics
            if Instant::now() >= deadline {
                return Some(StepHalt::DeadlineExpired { steps: self.steps });
            }
        }
        None
    }

    /// Advances `steps` steps, returning the stats of the last one.
    ///
    /// # Errors
    ///
    /// Propagates the first inner-solve failure.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is zero.
    pub fn run(&mut self, steps: usize) -> Result<SolverStats, SolveError> {
        assert!(steps > 0, "need at least one step");
        let mut last = None;
        for _ in 0..steps {
            last = Some(self.step()?);
        }
        // tsc-analyze: allow(no-unwrap): the assert above guarantees at
        // least one loop iteration, so `last` is always Some.
        Ok(last.expect("steps > 0"))
    }
}

/// One trajectory sample: the field's peak and where it sits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeakSample {
    /// Peak temperature in kelvin (bitwise comparable across runs).
    pub kelvin: f64,
    /// The cell holding the peak (lowest flat index on ties).
    pub hotspot: Index3,
}

impl PeakSample {
    /// The peak in celsius, for rendering.
    #[must_use]
    pub fn celsius(&self) -> f64 {
        Temperature::from_kelvin(self.kelvin).celsius()
    }
}

/// Guards on a long-running stepped simulation: a hard step budget and
/// an optional wall-clock deadline.  Both are *session* policy — a trip
/// surfaces as a typed [`StepHalt`], never a solver error.
#[derive(Debug, Clone, Copy)]
pub struct StepLimits {
    /// Maximum steps the run may take in total ([`TransientRun::steps_taken`]).
    pub max_steps: u64,
    /// Absolute wall-clock deadline, if any.
    pub deadline: Option<Instant>,
}

impl StepLimits {
    /// A budget-only guard.
    #[must_use]
    pub fn budget(max_steps: u64) -> Self {
        StepLimits {
            max_steps,
            deadline: None,
        }
    }

    /// Adds a wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Why a guarded run must stop.  Carries the step count at the halt so
/// the caller can report progress alongside the reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepHalt {
    /// The step budget is exhausted.
    BudgetExhausted {
        /// Steps taken when the budget tripped.
        steps: u64,
    },
    /// The wall-clock deadline passed.
    DeadlineExpired {
        /// Steps taken when the deadline tripped.
        steps: u64,
    },
}

impl fmt::Display for StepHalt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepHalt::BudgetExhausted { steps } => {
                write!(f, "step budget exhausted after {steps} steps")
            }
            StepHalt::DeadlineExpired { steps } => {
                write!(f, "session deadline expired after {steps} steps")
            }
        }
    }
}

/// Thermal-runaway alarm logic for streamed trajectories: promotes the
/// PR-4 `ThermalRunaway` fault class into a live in-band signal.
///
/// Fires when the peak crosses the threshold *while rising*, then
/// latches so a simmering hotspot raises one alarm, not one per step;
/// it re-arms only after the peak falls below `threshold − hysteresis`.
/// The alarm is advisory — stepping continues — so a what-if loop can
/// watch an excursion play out.
#[derive(Debug, Clone)]
pub struct RunawayDetector {
    threshold: f64,
    hysteresis: f64,
    latched: bool,
    last: f64,
}

impl RunawayDetector {
    /// Default re-arm hysteresis below the threshold, in kelvin.
    pub const DEFAULT_HYSTERESIS: f64 = 5.0;

    /// A detector with the default hysteresis.
    #[must_use]
    pub fn new(threshold: Temperature) -> Self {
        RunawayDetector {
            threshold: threshold.kelvin(),
            hysteresis: Self::DEFAULT_HYSTERESIS,
            latched: false,
            last: f64::NEG_INFINITY,
        }
    }

    /// Overrides the re-arm hysteresis (kelvin below the threshold).
    ///
    /// # Panics
    ///
    /// Panics if `kelvin` is negative or non-finite.
    #[must_use]
    pub fn with_hysteresis(mut self, kelvin: f64) -> Self {
        assert!(
            kelvin.is_finite() && kelvin >= 0.0,
            "hysteresis must be a non-negative temperature span"
        );
        self.hysteresis = kelvin;
        self
    }

    /// The alarm threshold.
    #[must_use]
    pub fn threshold(&self) -> Temperature {
        Temperature::from_kelvin(self.threshold)
    }

    /// Feeds one trajectory sample; `true` exactly when a new alarm
    /// fires on this sample.
    pub fn observe(&mut self, peak: Temperature) -> bool {
        let t = peak.kelvin();
        let rising = t > self.last;
        self.last = t;
        if self.latched {
            if t < self.threshold - self.hysteresis {
                self.latched = false;
            }
            return false;
        }
        if t >= self.threshold && rising {
            self.latched = true;
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heatsink::Heatsink;
    use crate::solver::CgSolver;
    use tsc_units::{Length, Power, ThermalConductivity};

    fn problem(powered: bool) -> Problem {
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
        if powered {
            p.add_power(2, 2, 2, Power::from_watts(2.0));
        }
        p
    }

    fn caps(p: &Problem) -> Grid3<f64> {
        Grid3::filled(p.dim(), capacity::SILICON)
    }

    #[test]
    fn converges_to_steady_state() {
        let p = problem(true);
        let steady = CgSolver::new().solve(&p).expect("steady");
        let mut run = TransientRun::new(&p, &caps(&p), 5e-6, Heatsink::two_phase().ambient)
            .expect("well-posed");
        run.run(400).expect("steps");
        let t_end = run.temperatures().max_temperature().kelvin();
        let t_ss = steady.temperatures.max_temperature().kelvin();
        assert!(
            (t_end - t_ss).abs() < 0.01 * (t_ss - 373.15).max(0.1),
            "transient must settle at steady state: {t_end} vs {t_ss}"
        );
    }

    #[test]
    fn heating_is_monotone_from_ambient() {
        let p = problem(true);
        let mut run = TransientRun::new(&p, &caps(&p), 2e-6, Heatsink::two_phase().ambient)
            .expect("well-posed");
        let mut last = run.temperatures().max_temperature().kelvin();
        for _ in 0..20 {
            run.step().expect("step");
            let now = run.temperatures().max_temperature().kelvin();
            assert!(now >= last - 1e-12, "implicit Euler heating is monotone");
            last = now;
        }
    }

    #[test]
    fn lumped_rc_time_constant() {
        // A single giant step (dt >> tau) lands directly on steady state;
        // a step of exactly tau covers 1/(1+dt/tau)... for implicit Euler
        // the single-step update is T1 = (T0 + (dt/C)(q + G·Ta)) / (1 + dt·G/C);
        // with dt -> infinity that is the steady solution. Verify.
        let p = problem(true);
        let steady = CgSolver::new().solve(&p).expect("steady");
        let mut run = TransientRun::new(&p, &caps(&p), 1.0, Heatsink::two_phase().ambient)
            .expect("well-posed"); // 1 s >> all time constants
        run.step().expect("step");
        let t1 = run.temperatures().max_temperature().kelvin();
        let t_ss = steady.temperatures.max_temperature().kelvin();
        assert!((t1 - t_ss).abs() < 0.05, "{t1} vs {t_ss}");
    }

    #[test]
    fn gating_cools_the_stack() {
        let p_on = problem(true);
        let p_off = problem(false);
        let mut run = TransientRun::new(&p_on, &caps(&p_on), 5e-6, Heatsink::two_phase().ambient)
            .expect("well-posed");
        run.run(100).expect("heat up");
        let hot = run.temperatures().max_temperature();
        run.restage_power(&p_off).expect("same mesh");
        run.run(100).expect("cool down");
        let cooled = run.temperatures().max_temperature();
        assert!(cooled < hot, "gating must cool: {hot} -> {cooled}");
        let residual_rise = cooled.kelvin() - Heatsink::two_phase().ambient.kelvin();
        let hot_rise = hot.kelvin() - Heatsink::two_phase().ambient.kelvin();
        assert!(
            residual_rise < 0.25 * hot_rise,
            "gated stack must decay most of its rise: {residual_rise} of {hot_rise}"
        );
    }

    #[test]
    fn smaller_dt_tracks_the_same_trajectory() {
        let p = problem(true);
        let amb = Heatsink::two_phase().ambient;
        let mut coarse = TransientRun::new(&p, &caps(&p), 4e-6, amb).expect("well-posed");
        let mut fine = TransientRun::new(&p, &caps(&p), 1e-6, amb).expect("well-posed");
        coarse.run(5).expect("coarse");
        fine.run(20).expect("fine");
        let tc = coarse.temperatures().max_temperature().kelvin() - amb.kelvin();
        let tf = fine.temperatures().max_temperature().kelvin() - amb.kelvin();
        // First-order scheme: coarse lags fine but within ~25%.
        assert!(
            (tc - tf).abs() / tf.max(1e-9) < 0.25,
            "dt refinement consistency: {tc} vs {tf}"
        );
    }

    #[test]
    fn multigrid_stepping_tracks_jacobi_stepping() {
        let p_on = problem(true);
        let p_off = problem(false);
        let amb = Heatsink::two_phase().ambient;
        let mut plain = TransientRun::new(&p_on, &caps(&p_on), 5e-6, amb).expect("well-posed");
        let mut mg = TransientRun::new(&p_on, &caps(&p_on), 5e-6, amb)
            .expect("well-posed")
            .with_multigrid();
        assert!(mg.uses_multigrid());
        for _ in 0..10 {
            plain.step().expect("plain step");
            let stats = mg.step().expect("mg step");
            assert_eq!(stats.precision, crate::solver::Precision::Mixed);
            assert!(stats.cycles > 0);
        }
        // Restage to gated power: the hierarchy is rebuilt and both
        // runs keep tracking each other.
        plain.restage_power(&p_off).expect("same mesh");
        mg.restage_power(&p_off).expect("same mesh");
        for _ in 0..10 {
            plain.step().expect("plain step");
            mg.step().expect("mg step");
        }
        let a = plain.temperatures();
        let b = mg.temperatures();
        let max_dev = a
            .iter_kelvin()
            .zip(b.iter_kelvin())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0_f64, f64::max);
        // Each step solves to 1e-9 relative residual with a different
        // scheme; twenty steps accumulate O(1e-6) K of drift.
        assert!(
            max_dev < 1e-5,
            "MG and Jacobi trajectories must agree, max |dT| = {max_dev}"
        );
    }

    #[test]
    fn delta_restage_is_bitwise_identical_to_full_restage() {
        let p_on = problem(true);
        let p_off = problem(false);
        let amb = Heatsink::two_phase().ambient;
        let mut full = TransientRun::new(&p_on, &caps(&p_on), 5e-6, amb)
            .expect("well-posed")
            .with_multigrid();
        let mut delta = TransientRun::new(&p_on, &caps(&p_on), 5e-6, amb)
            .expect("well-posed")
            .with_multigrid();
        full.run(8).expect("heat up");
        delta.run(8).expect("heat up");
        full.restage_power(&p_off).expect("same mesh");
        delta.restage_power_delta(p_off.power_flat());
        for _ in 0..8 {
            full.step().expect("full step");
            delta.step().expect("delta step");
            let same = full
                .temperatures()
                .iter_kelvin()
                .zip(delta.temperatures().iter_kelvin())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "delta restaging must be bitwise-equal to full");
        }
    }

    #[test]
    fn reset_replays_a_fresh_trajectory_bitwise() {
        let p = problem(true);
        let amb = Heatsink::two_phase().ambient;
        let mut fresh = TransientRun::new(&p, &caps(&p), 5e-6, amb).expect("well-posed");
        let mut reused = TransientRun::new(&p, &caps(&p), 5e-6, amb).expect("well-posed");
        reused.run(13).expect("pre-use");
        reused.reset(amb);
        assert_eq!(reused.steps_taken(), 0);
        assert_eq!(reused.time_seconds(), 0.0);
        for _ in 0..6 {
            fresh.step().expect("fresh step");
            reused.step().expect("reused step");
            assert_eq!(
                fresh.peak().kelvin.to_bits(),
                reused.peak().kelvin.to_bits(),
                "a reset run must replay the fresh trajectory bitwise"
            );
        }
        assert_eq!(fresh.peak().hotspot, reused.peak().hotspot);
    }

    #[test]
    fn step_counter_and_peak_sample_track_the_run() {
        let p = problem(true);
        let mut run =
            TransientRun::new(&p, &caps(&p), 5e-6, Heatsink::two_phase().ambient).expect("ok");
        assert_eq!(run.steps_taken(), 0);
        run.run(3).expect("steps");
        assert_eq!(run.steps_taken(), 3);
        let peak = run.peak();
        assert_eq!(
            peak.kelvin,
            run.temperatures().max_temperature().kelvin(),
            "peak sample must agree with the field argmax"
        );
        // The 2 W source sits at (2,2,2); the hotspot must be there.
        assert_eq!(peak.hotspot, Index3 { i: 2, j: 2, k: 2 });
    }

    #[test]
    fn limits_trip_as_typed_halts() {
        let p = problem(true);
        let mut run =
            TransientRun::new(&p, &caps(&p), 5e-6, Heatsink::two_phase().ambient).expect("ok");
        let limits = StepLimits::budget(2);
        assert_eq!(run.check_limits(&limits), None);
        run.run(2).expect("steps");
        assert_eq!(
            run.check_limits(&limits),
            Some(StepHalt::BudgetExhausted { steps: 2 })
        );
        let expired = StepLimits::budget(u64::MAX)
            .with_deadline(Instant::now() - std::time::Duration::from_millis(1));
        assert_eq!(
            run.check_limits(&expired),
            Some(StepHalt::DeadlineExpired { steps: 2 })
        );
        let generous = StepLimits::budget(u64::MAX)
            .with_deadline(Instant::now() + std::time::Duration::from_secs(3600));
        assert_eq!(run.check_limits(&generous), None);
    }

    #[test]
    fn runaway_detector_fires_latches_and_rearms() {
        let c = Temperature::from_celsius;
        let mut det = RunawayDetector::new(c(120.0)).with_hysteresis(5.0);
        assert!(!det.observe(c(100.0)), "below threshold");
        assert!(!det.observe(c(119.9)), "still below");
        assert!(det.observe(c(121.0)), "crossing while rising fires");
        assert!(!det.observe(c(130.0)), "latched: no re-fire while hot");
        assert!(!det.observe(c(118.0)), "above re-arm point: still latched");
        assert!(
            !det.observe(c(114.0)),
            "below threshold - hysteresis: re-arms"
        );
        assert!(det.observe(c(125.0)), "re-armed detector fires again");
        // Falling *through* the threshold never fires.
        let mut cooling = RunawayDetector::new(c(120.0));
        assert!(cooling.observe(c(150.0)), "first hot sample fires");
        assert!(!cooling.observe(c(100.0)));
        assert!(!cooling.observe(c(90.0)), "falling samples never fire");
    }

    #[test]
    #[should_panic(expected = "power delta must cover every cell")]
    fn delta_restage_rejects_wrong_length() {
        let p = problem(true);
        let mut run =
            TransientRun::new(&p, &caps(&p), 5e-6, Heatsink::two_phase().ambient).expect("ok");
        run.restage_power_delta(&[0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "time step must be positive")]
    fn zero_dt_rejected() {
        let p = problem(true);
        let _ = TransientRun::new(&p, &caps(&p), 0.0, Heatsink::two_phase().ambient);
    }

    #[test]
    fn no_boundary_is_reported() {
        let mut p = problem(true);
        p = {
            // Rebuild without a heatsink.
            let mut q = Problem::uniform_block(
                4,
                4,
                3,
                Length::from_millimeters(1.0),
                Length::from_millimeters(1.0),
                Length::from_micrometers(100.0),
                ThermalConductivity::new(100.0),
            );
            q.add_power(0, 0, 0, Power::from_watts(1.0));
            let _ = p;
            q
        };
        let caps = Grid3::filled(p.dim(), capacity::SILICON);
        let err = TransientRun::new(&p, &caps, 1e-6, Temperature::from_celsius(25.0));
        assert!(matches!(err, Err(SolveError::NoBoundary)));
    }
}
