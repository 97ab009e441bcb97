//! Linear solvers for the assembled finite-volume system.
//!
//! The discretized problem is `A·T = b` with `A` symmetric positive
//! definite whenever at least one convective boundary is present:
//!
//! * diagonal: sum of all face conductances incident on the cell (plus the
//!   boundary conductance for cells on a heatsink face);
//! * off-diagonal: minus the shared face conductance;
//! * right-hand side: injected power plus `G_boundary · T_ambient`.
//!
//! [`CgSolver`] runs one of two schemes, selected by [`Precision`]:
//! f64 Jacobi-preconditioned conjugate gradients, the oracle, or the
//! mixed-precision multigrid path of `crate::kernels`, the production
//! solver. [`SorSolver`] (red-black successive over-relaxation)
//! provides an algorithmically independent cross-check of the oracle,
//! used by the validation tests.
//!
//! # Parallel execution
//!
//! Both solvers share the scoped-thread engine in [`crate::engine`]: the
//! matrix-free seven-point `matvec` is evaluated in *gather* form (each
//! cell computes its own output from its neighbours), which chunks
//! race-free across z-slab bands, and the SOR sweep uses red-black
//! ordering so each colour pass has provably disjoint writes. Reductions
//! (dot products, norms) are accumulated **per z-slab and summed in slab
//! order**, so the arithmetic is bitwise identical for every thread
//! count — `with_threads(8)` reproduces `with_threads(1)` exactly.
//! Below [`DEFAULT_PARALLEL_CROSSOVER`] cells the identical code runs
//! serially on the calling thread (see
//! [`CgSolver::with_parallel_crossover`]).
//!
//! # Divergence safety
//!
//! No solver path returns `Ok` with a non-finite residual or temperature:
//! every convergence check is guarded by `residual.is_finite()`, and a
//! non-finite residual (NaN power input, degenerate diagonal, arithmetic
//! overflow) surfaces as [`SolveError::Diverged`] instead of spinning out
//! the whole iteration budget or — worse — passing a `NaN > tol`
//! comparison and reporting success.

use crate::analysis::EnergyBalance;
use crate::engine::ExecPlan;
use crate::field::TemperatureField;
use crate::kernels::Shadow;
use crate::problem::Problem;
use std::ops::{AddAssign, Mul, SubAssign};
use std::time::Instant;
use tsc_geometry::{Dim3, Grid3};
use tsc_units::Power;

/// Problem size (cells) below which the solvers stay serial by default:
/// scoped-thread spawn overhead beats the stencil work on small meshes.
pub const DEFAULT_PARALLEL_CROSSOVER: usize = 32_768;

/// Worker count used when none is configured: one per available core.
pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Failure modes of a solve.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// Neither face carries a heatsink: the pure-Neumann problem is
    /// singular (temperature defined only up to a constant).
    NoBoundary,
    /// The iteration did not reach the tolerance within the budget.
    NotConverged {
        /// Iterations performed.
        iterations: usize,
        /// Final relative residual.
        residual: f64,
    },
    /// The iteration produced a non-finite residual or iterate — NaN
    /// power input, a degenerate (zero) diagonal, or overflow. The
    /// returned residual is the poisoned value (NaN or ∞).
    Diverged {
        /// Iterations performed before divergence was detected.
        iterations: usize,
        /// The non-finite residual that triggered the bail-out.
        residual: f64,
    },
}

impl core::fmt::Display for SolveError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::NoBoundary => {
                write!(f, "no heatsink attached: steady-state problem is singular")
            }
            Self::NotConverged {
                iterations,
                residual,
            } => write!(
                f,
                "solver did not converge within {iterations} iterations (residual {residual:.3e})"
            ),
            Self::Diverged {
                iterations,
                residual,
            } => write!(
                f,
                "solver diverged after {iterations} iterations (residual {residual})"
            ),
        }
    }
}

impl std::error::Error for SolveError {}

/// Floating-point scheme of a solve (recorded in
/// [`SolverStats::precision`], selected by [`CgSolver::with_precision`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Jacobi-preconditioned CG in pure f64 end to end — bitwise
    /// thread-count independent, the oracle every other path is
    /// checked against, and the mixed path's fallback.
    #[default]
    F64,
    /// f64-corrected iterative refinement over an f32 inner MG-PCG
    /// (see `crate::kernels`): the outer residual, the correction
    /// accumulation and every convergence decision stay in f64, so the
    /// requested tolerance is honest; the bandwidth-bound smoothing and
    /// stencil work runs in f32 at roughly half the memory traffic. A
    /// refinement pass that stalls hands over to f64 Jacobi-CG from the
    /// refined iterate.
    Mixed,
}

impl core::fmt::Display for Precision {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Self::F64 => "f64",
            Self::Mixed => "mixed",
        })
    }
}

/// Observability record of a solve: convergence, work and timing.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverStats {
    /// Iterations (CG) or sweeps (SOR) used.
    pub iterations: usize,
    /// Final relative residual `‖b − A·T‖ / ‖b‖`.
    pub residual: f64,
    /// Matrix-vector products evaluated (CG: one per iteration plus the
    /// initial residual; SOR: one per residual check). Fine-grid products
    /// only — coarse-level smoothing work is summarised by `cycles`.
    pub matvecs: usize,
    /// Multigrid V-cycles applied (0 for Jacobi-CG and SOR solves).
    pub cycles: usize,
    /// Final residual 2-norm restricted to each level of the f32 shadow
    /// hierarchy, finest first — shows where in the grid hierarchy the
    /// remaining error lives. Empty for Jacobi-CG and SOR solves, and
    /// for a mixed solve that finished on Jacobi-CG.
    pub level_residuals: Vec<f64>,
    /// The floating-point scheme that drove the iteration.
    pub precision: Precision,
    /// Outer iterative-refinement passes of a mixed-precision solve
    /// (0 for pure-f64 solves).
    pub refinements: usize,
    /// Wall-clock seconds spent assembling the operator.
    pub assembly_seconds: f64,
    /// Wall-clock seconds spent iterating (excludes assembly).
    pub solve_seconds: f64,
    /// Worker threads the execution plan engaged (1 = serial path).
    pub threads: usize,
    /// Sampled residual trajectory `(iteration, relative residual)`:
    /// the initial residual, every stride-th iteration, and the final
    /// residual. See [`CgSolver::with_trajectory_stride`].
    pub trajectory: Vec<(usize, f64)>,
}

/// A solved thermal problem.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The temperature field.
    pub temperatures: TemperatureField,
    /// Convergence statistics and solve observability.
    pub stats: SolverStats,
    /// Global energy balance (injected vs extracted power).
    pub energy: EnergyBalance,
}

/// Tuning knobs threaded through the shared CG kernel.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CgParams {
    pub tol: f64,
    pub max_iter: usize,
    pub threads: usize,
    pub crossover: usize,
    pub traj_stride: usize,
}

/// Pre-assembled face conductances and right-hand side.
///
/// Fields are crate-visible so [`crate::multigrid`] can coarsen the
/// operator (Galerkin aggregation of the face-conductance arrays) and
/// smooth against level-specific right-hand sides without going through
/// a [`Problem`].
#[derive(Debug, Clone)]
pub(crate) struct Assembled {
    pub(crate) dim: Dim3,
    pub(crate) gx: Vec<f64>,
    pub(crate) gy: Vec<f64>,
    pub(crate) gz: Vec<f64>,
    pub(crate) g_bottom: Vec<f64>,
    pub(crate) g_top: Vec<f64>,
    pub(crate) diag: Vec<f64>,
    /// Boundary contribution only (`G_boundary · T_ambient` per cell).
    pub(crate) rhs_boundary: Vec<f64>,
    /// Full right-hand side: staged power plus `rhs_boundary`.
    pub(crate) rhs: Vec<f64>,
    /// Per-column ambient (K) of the bottom boundary (`nx · ny` long).
    pub(crate) t_bottom: Vec<f64>,
    /// Per-column ambient (K) of the top boundary (`nx · ny` long).
    pub(crate) t_top: Vec<f64>,
    pub(crate) initial_guess: f64,
    /// Wall-clock seconds [`Assembled::build`] took, carried into stats.
    pub(crate) assembly_seconds: f64,
}

impl Assembled {
    /// Mesh dimensions of the assembled system.
    pub(crate) fn dim(&self) -> Dim3 {
        self.dim
    }

    /// The assembled right-hand side (power + boundary terms).
    pub(crate) fn rhs(&self) -> &[f64] {
        &self.rhs
    }

    /// Ambient-referenced starting temperature for iterations.
    pub(crate) fn initial_guess(&self) -> f64 {
        self.initial_guess
    }

    /// Rebuilds the right-hand side for a different per-cell power
    /// staging (watts per cell) over the same operator — the
    /// electrothermal loop re-solves with rescaled power without paying
    /// for reassembly.
    pub(crate) fn rhs_with_power(&self, power_watts: &[f64]) -> Vec<f64> {
        debug_assert_eq!(power_watts.len(), self.rhs_boundary.len());
        self.rhs_boundary
            .iter()
            .zip(power_watts)
            .map(|(b, p)| b + p)
            .collect()
    }

    /// Builds an operator straight from conductance arrays — the
    /// coarse-level constructor used by [`crate::multigrid`]. The
    /// diagonal is derived exactly as [`Assembled::build`] derives it
    /// (sum of incident face conductances plus the boundary conductance
    /// on the bottom/top slabs), so a coarse operator produced from
    /// aggregated conductances *is* the Galerkin operator `Pᵀ·A·P` for
    /// piecewise-constant interpolation. Right-hand-side and ambient
    /// fields are zeroed: coarse levels solve residual equations only.
    pub(crate) fn from_parts(
        dim: Dim3,
        gx: Vec<f64>,
        gy: Vec<f64>,
        gz: Vec<f64>,
        g_bottom: Vec<f64>,
        g_top: Vec<f64>,
    ) -> Self {
        let (nx, ny, nz) = (dim.nx, dim.ny, dim.nz);
        debug_assert_eq!(gx.len(), nx.saturating_sub(1) * ny * nz);
        debug_assert_eq!(gy.len(), nx * ny.saturating_sub(1) * nz);
        debug_assert_eq!(gz.len(), nx * ny * nz.saturating_sub(1));
        debug_assert_eq!(g_bottom.len(), nx * ny);
        debug_assert_eq!(g_top.len(), nx * ny);
        let n = dim.len();
        let mut diag = vec![0.0; n];
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let c = dim.flat(i, j, k);
                    let mut d = 0.0;
                    if i + 1 < nx {
                        d += gx[(k * ny + j) * (nx - 1) + i];
                    }
                    if i > 0 {
                        d += gx[(k * ny + j) * (nx - 1) + i - 1];
                    }
                    if j + 1 < ny {
                        d += gy[(k * (ny - 1) + j) * nx + i];
                    }
                    if j > 0 {
                        d += gy[(k * (ny - 1) + j - 1) * nx + i];
                    }
                    if k + 1 < nz {
                        d += gz[(k * ny + j) * nx + i];
                    }
                    if k > 0 {
                        d += gz[((k - 1) * ny + j) * nx + i];
                    }
                    if k == 0 {
                        d += g_bottom[j * nx + i];
                    }
                    if k == nz - 1 {
                        d += g_top[j * nx + i];
                    }
                    diag[c] = d;
                }
            }
        }
        Self {
            dim,
            gx,
            gy,
            gz,
            g_bottom,
            g_top,
            diag,
            rhs_boundary: vec![0.0; n],
            rhs: vec![0.0; n],
            t_bottom: vec![0.0; nx * ny],
            t_top: vec![0.0; nx * ny],
            initial_guess: 0.0,
            assembly_seconds: 0.0,
        }
    }

    /// A clone with `shift` folded into the diagonal — the finest level
    /// of the multigrid hierarchy for shifted systems
    /// `(A + diag(shift))·x = b` (the transient stepper's implicit
    /// matrix).
    pub(crate) fn shifted(&self, shift: &[f64]) -> Self {
        debug_assert_eq!(shift.len(), self.diag.len());
        let mut out = self.clone();
        for (d, s) in out.diag.iter_mut().zip(shift) {
            *d += s;
        }
        out
    }

    pub(crate) fn build(p: &Problem) -> Result<Self, SolveError> {
        // tsc-analyze: allow(no-wallclock-numeric): feeds SolverStats wall-time only, never the numerics
        let t0 = Instant::now();
        let bottom = p.bottom_heatsink();
        let top = p.top_heatsink();
        if bottom.is_none() && top.is_none() {
            return Err(SolveError::NoBoundary);
        }
        let dim = p.dim();
        let (nx, ny, nz) = (dim.nx, dim.ny, dim.nz);
        let mut gx = vec![0.0; (nx.saturating_sub(1)) * ny * nz];
        let mut gy = vec![0.0; nx * ny.saturating_sub(1) * nz];
        let mut gz = vec![0.0; nx * ny * nz.saturating_sub(1)];
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    if i + 1 < nx {
                        gx[(k * ny + j) * (nx - 1) + i] = p.gx(i, j, k);
                    }
                    if j + 1 < ny {
                        gy[(k * (ny - 1) + j) * nx + i] = p.gy(i, j, k);
                    }
                    if k + 1 < nz {
                        gz[(k * ny + j) * nx + i] = p.gz(i, j, k);
                    }
                }
            }
        }
        let mut g_bottom = vec![0.0; nx * ny];
        let mut g_top = vec![0.0; nx * ny];
        for j in 0..ny {
            for i in 0..nx {
                g_bottom[j * nx + i] = p.g_bottom(i, j);
                g_top[j * nx + i] = p.g_top(i, j);
            }
        }
        let mut t_bottom = vec![0.0; nx * ny];
        let mut t_top = vec![0.0; nx * ny];
        for j in 0..ny {
            for i in 0..nx {
                t_bottom[j * nx + i] = p.bottom_ambient_at(i, j);
                t_top[j * nx + i] = p.top_ambient_at(i, j);
            }
        }

        let n = dim.len();
        let mut diag = vec![0.0; n];
        let mut rhs_boundary = vec![0.0; n];
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let c = dim.flat(i, j, k);
                    let mut d = 0.0;
                    if i + 1 < nx {
                        d += gx[(k * ny + j) * (nx - 1) + i];
                    }
                    if i > 0 {
                        d += gx[(k * ny + j) * (nx - 1) + i - 1];
                    }
                    if j + 1 < ny {
                        d += gy[(k * (ny - 1) + j) * nx + i];
                    }
                    if j > 0 {
                        d += gy[(k * (ny - 1) + j - 1) * nx + i];
                    }
                    if k + 1 < nz {
                        d += gz[(k * ny + j) * nx + i];
                    }
                    if k > 0 {
                        d += gz[((k - 1) * ny + j) * nx + i];
                    }
                    if k == 0 {
                        let g = g_bottom[j * nx + i];
                        d += g;
                        rhs_boundary[c] += g * t_bottom[j * nx + i];
                    }
                    if k == nz - 1 {
                        let g = g_top[j * nx + i];
                        d += g;
                        rhs_boundary[c] += g * t_top[j * nx + i];
                    }
                    diag[c] = d;
                }
            }
        }
        let rhs: Vec<f64> = p
            .power_flat()
            .iter()
            .zip(&rhs_boundary)
            .map(|(q, b)| q + b)
            .collect();
        // Scalar-ambient problems keep the historical guess (the sink's
        // ambient); per-column maps seed from the map's mean instead.
        let reference = |hs: Option<crate::heatsink::Heatsink>, t: &[f64], mapped: bool| {
            hs.map(|hs| {
                if mapped {
                    t.iter().sum::<f64>() / t.len() as f64
                } else {
                    hs.ambient.kelvin()
                }
            })
        };
        let initial_guess = reference(bottom, &t_bottom, p.bottom_ambient_map().is_some())
            .or_else(|| reference(top, &t_top, p.top_ambient_map().is_some()))
            .unwrap_or(0.0);
        Ok(Self {
            dim,
            gx,
            gy,
            gz,
            g_bottom,
            g_top,
            diag,
            rhs_boundary,
            rhs,
            t_bottom,
            t_top,
            initial_guess,
            assembly_seconds: t0.elapsed().as_secs_f64(),
        })
    }

    /// `y[range] = (A + diag(shift))·x` over one slab-aligned band —
    /// [`stencil_matvec`] on this operator's conductances.
    pub(crate) fn matvec_range(
        &self,
        x: &[f64],
        out: &mut [f64],
        range: std::ops::Range<usize>,
        shift: Option<&[f64]>,
    ) {
        let faces = Faces {
            dim: self.dim,
            diag: &self.diag,
            gx: &self.gx,
            gy: &self.gy,
            gz: &self.gz,
        };
        stencil_matvec(&faces, shift, x, out, range);
    }

    /// Relative true residual `‖b − (A + diag(shift))·x‖ / bnorm`,
    /// reduced per-slab so the value is independent of the thread count.
    /// `ax` receives `(A + diag(shift))·x`; `parts` (one slot per slab)
    /// is scratch for the per-slab partials.
    #[allow(clippy::too_many_arguments)] // scratch buffers, not an API
    pub(crate) fn residual_norm(
        &self,
        plan: &ExecPlan,
        x: &[f64],
        b: &[f64],
        b_norm: f64,
        ax: &mut [f64],
        parts: &mut [f64],
        shift: Option<&[f64]>,
    ) -> f64 {
        let slab = self.dim.nx * self.dim.ny;
        plan.map_mut_slabs(ax, parts, |range, chunk, p| {
            self.matvec_range(x, chunk, range.clone(), shift);
            slab_norm2_diff_into(&b[range], chunk, slab, p);
        });
        ordered_sum(parts.iter().copied()).sqrt() / b_norm
    }

    /// Jacobi-preconditioned CG on `(A + diag(shift))·x = rhs`,
    /// warm-started from `x` — the f64 oracle of every solve entry, and
    /// the finish of a mixed solve whose refinement stalls.
    ///
    /// Three fused regions per iteration run under the execution plan:
    /// `ap = A·pv` with `⟨pv, ap⟩`; the `x`/`r`/`z` update with
    /// `⟨r, z⟩` and `⟨r, r⟩`; and the direction update
    /// `pv = z + β·pv`. All reductions are per-slab ordered sums, so
    /// results are bitwise identical across thread counts.
    pub(crate) fn cg_core(
        &self,
        shift: Option<&[f64]>,
        rhs: &[f64],
        x: &mut [f64],
        params: &CgParams,
    ) -> Result<SolverStats, SolveError> {
        // tsc-analyze: allow(no-wallclock-numeric): feeds SolverStats wall-time only, never the numerics
        let t0 = Instant::now();
        let n = self.dim.len();
        let slab = self.dim.nx * self.dim.ny;
        debug_assert_eq!(rhs.len(), n);
        debug_assert_eq!(x.len(), n);
        #[cfg(feature = "fault-inject")]
        let max_iter = {
            crate::fault::begin_solve();
            crate::fault::poison_field(x);
            crate::fault::truncated_budget(params.max_iter)
        };
        #[cfg(not(feature = "fault-inject"))]
        let max_iter = params.max_iter;
        let plan = ExecPlan::new(self.dim, params.threads, params.crossover);
        let b_norm = norm(rhs).max(f64::MIN_POSITIVE);
        let shifted_diag: Vec<f64>;
        let diag: &[f64] = match shift {
            Some(s) => {
                debug_assert_eq!(s.len(), n);
                shifted_diag = self.diag.iter().zip(s).map(|(d, sv)| d + sv).collect();
                &shifted_diag
            }
            None => &self.diag,
        };

        let mut r = vec![0.0; n];
        let mut z = vec![0.0; n];
        let mut pv = vec![0.0; n];
        let mut ap = vec![0.0; n];
        let mut matvecs = 0_usize;

        plan.map_mut(&mut ap, |range, chunk| {
            self.matvec_range(x, chunk, range, shift);
        });
        matvecs += 1;
        for (((rv, zv), pvv), ((bv, av), dv)) in r
            .iter_mut()
            .zip(&mut z)
            .zip(&mut pv)
            .zip(rhs.iter().zip(&ap).zip(diag))
        {
            *rv = bv - av;
            *zv = *rv / dv;
            *pvv = *zv;
        }
        let mut rz = dot(&r, &z);
        let mut residual = norm(&r) / b_norm;
        let mut iterations = 0_usize;
        let mut trajectory = vec![(0, residual)];

        while residual > params.tol && residual.is_finite() && iterations < max_iter {
            // Region 1: ap = (A + shift)·pv, then ⟨pv, ap⟩ as a
            // streaming slab dot (same per-slab accumulation order as
            // the historical fused closure — bitwise identical).
            let parts = plan.map_mut(&mut ap, |range, chunk| {
                self.matvec_range(&pv, chunk, range.clone(), shift);
                slab_dot_parts(&pv[range], chunk, slab)
            });
            matvecs += 1;
            let p_ap = ordered_sum(parts.into_iter().flatten());
            let alpha = rz / p_ap;

            // Region 2: x += α·pv, r -= α·ap, z = M⁻¹r as straight-line
            // zips, then ⟨r, z⟩ and ⟨r, r⟩.
            let parts = plan.map3_mut(x, &mut r, &mut z, |range, xs, rs, zs| {
                for (xv, p) in xs.iter_mut().zip(&pv[range.clone()]) {
                    *xv += alpha * p;
                }
                for (rv, av) in rs.iter_mut().zip(&ap[range.clone()]) {
                    *rv -= alpha * av;
                }
                for ((zv, rv), dv) in zs.iter_mut().zip(rs.iter()).zip(&diag[range]) {
                    *zv = rv / dv;
                }
                (slab_dot_parts(rs, zs, slab), slab_dot_parts(rs, rs, slab))
            });
            let rz_next = ordered_sum(parts.iter().flat_map(|(a, _)| a.iter().copied()));
            let rr = ordered_sum(parts.iter().flat_map(|(_, b)| b.iter().copied()));
            let beta = rz_next / rz;
            rz = rz_next;

            // Region 3: pv = z + β·pv.
            plan.map_mut(&mut pv, |range, chunk| {
                for (o, zv) in chunk.iter_mut().zip(&z[range]) {
                    *o = zv + beta * *o;
                }
            });

            residual = rr.sqrt() / b_norm;
            iterations += 1;
            #[cfg(feature = "fault-inject")]
            {
                residual = crate::fault::corrupt_residual(iterations, residual);
            }
            if iterations.is_multiple_of(params.traj_stride) {
                trajectory.push((iterations, residual));
            }
        }

        if trajectory.last().map(|&(it, _)| it) != Some(iterations) {
            trajectory.push((iterations, residual));
        }
        if !residual.is_finite() || !x.iter().all(|v| v.is_finite()) {
            return Err(SolveError::Diverged {
                iterations,
                residual,
            });
        }
        if residual > params.tol {
            return Err(SolveError::NotConverged {
                iterations,
                residual,
            });
        }
        Ok(SolverStats {
            iterations,
            residual,
            matvecs,
            cycles: 0,
            level_residuals: Vec::new(),
            precision: Precision::F64,
            refinements: 0,
            assembly_seconds: self.assembly_seconds,
            solve_seconds: t0.elapsed().as_secs_f64(),
            threads: plan.threads(),
            trajectory,
        })
    }

    /// One red-black SOR sweep: the even-parity cells (`(i+j+k) % 2 == 0`)
    /// update first, then the odd. Every stencil neighbour of a cell has
    /// opposite parity, so within one colour pass all writes are
    /// independent — bands update concurrently and the result is
    /// identical for any thread count.
    fn sor_sweep(&self, plan: &ExecPlan, x: &mut [f64], omega: f64) {
        let (nx, ny, nz) = (self.dim.nx, self.dim.ny, self.dim.nz);
        let slab = nx * ny;
        let rhs = &self.rhs;
        for colour in [0, 1] {
            plan.for_each_shared(x, |range, shared| {
                let (k_lo, k_hi) = (range.start / slab, range.end / slab);
                for k in k_lo..k_hi {
                    for j in 0..ny {
                        let i0 = (colour + j + k) % 2;
                        for i in (i0..nx).step_by(2) {
                            let c = (k * ny + j) * nx + i;
                            // SAFETY: `c` has the active colour inside this
                            // worker's own band (exclusive writer); every
                            // index read below is a stencil neighbour of
                            // `c` and therefore of the *other* colour — no
                            // concurrent pass writes it.
                            unsafe {
                                let mut sigma = 0.0;
                                if i > 0 {
                                    sigma += self.gx[(k * ny + j) * (nx - 1) + i - 1]
                                        * shared.get(c - 1);
                                }
                                if i + 1 < nx {
                                    sigma +=
                                        self.gx[(k * ny + j) * (nx - 1) + i] * shared.get(c + 1);
                                }
                                if j > 0 {
                                    sigma += self.gy[(k * (ny - 1) + j - 1) * nx + i]
                                        * shared.get(c - nx);
                                }
                                if j + 1 < ny {
                                    sigma +=
                                        self.gy[(k * (ny - 1) + j) * nx + i] * shared.get(c + nx);
                                }
                                if k > 0 {
                                    sigma +=
                                        self.gz[((k - 1) * ny + j) * nx + i] * shared.get(c - slab);
                                }
                                if k + 1 < nz {
                                    sigma += self.gz[(k * ny + j) * nx + i] * shared.get(c + slab);
                                }
                                let old = shared.get(c);
                                let gs = (rhs[c] + sigma) / self.diag[c];
                                shared.set(c, old + omega * (gs - old));
                            }
                        }
                    }
                }
            });
        }
    }

    fn energy_balance(&self, t: &[f64], injected: f64) -> EnergyBalance {
        let (nx, ny, nz) = (self.dim.nx, self.dim.ny, self.dim.nz);
        let mut extracted = 0.0;
        for j in 0..ny {
            for i in 0..nx {
                let cb = self.dim.flat(i, j, 0);
                extracted += self.g_bottom[j * nx + i] * (t[cb] - self.t_bottom[j * nx + i]);
                let ct = self.dim.flat(i, j, nz - 1);
                extracted += self.g_top[j * nx + i] * (t[ct] - self.t_top[j * nx + i]);
            }
        }
        EnergyBalance {
            injected: Power::from_watts(injected),
            extracted: Power::from_watts(extracted),
        }
    }

    /// Packages a converged iterate without consuming the operator, so
    /// repeated solves (transient stepping, electrothermal fixed point)
    /// reuse one assembly.
    pub(crate) fn solution(&self, t: &[f64], stats: SolverStats, injected: f64) -> Solution {
        let energy = self.energy_balance(t, injected);
        let mut grid = Grid3::filled(self.dim, 0.0);
        grid.as_mut_slice().copy_from_slice(t);
        Solution {
            temperatures: TemperatureField::from_kelvin(grid),
            stats,
            energy,
        }
    }
}

/// One operator level's stencil in face-conductance form, borrowed from
/// an [`Assembled`] (f64) or its f32 shadow: `gx` is `(nx−1)·ny·nz`,
/// x-major; `gy` is `nx·(ny−1)·nz`; `gz` is `nx·ny·(nz−1)`.
pub(crate) struct Faces<'a, T> {
    pub(crate) dim: Dim3,
    pub(crate) diag: &'a [T],
    pub(crate) gx: &'a [T],
    pub(crate) gy: &'a [T],
    pub(crate) gz: &'a [T],
}

/// `out[c − range.start] = ((A + diag(shift))·x)[c]` for `c` in the
/// slab-aligned `range` — the seven-point matvec of both precisions.
///
/// Each slab is swept in whole-slab passes, one per stencil term: the
/// diagonal, then `gx` row by row (its rows are `nx − 1` long, so they
/// do not tile the slab), then `gy` and each `gz` neighbour as one
/// contiguous zip over the slab (a `gy` face row lines up with the cell
/// row it feeds, and a `gz` slab with the cell slab). Every output
/// element still accumulates its terms in one fixed order — `diag`,
/// `−gx⁺`, `−gx⁻`, `−gy⁺`, `−gy⁻`, `−gz⁺`, `−gz⁻`, `+shift` — the order
/// of the scalar gather loop, so the result is bitwise identical to it,
/// to any other pass schedule with the same per-element order, and to
/// any banding (bands never write outside themselves).
pub(crate) fn stencil_matvec<T>(
    op: &Faces<'_, T>,
    shift: Option<&[T]>,
    x: &[T],
    out: &mut [T],
    range: std::ops::Range<usize>,
) where
    T: Copy + Mul<Output = T> + SubAssign + AddAssign,
{
    let (nx, ny, nz) = (op.dim.nx, op.dim.ny, op.dim.nz);
    let slab = nx * ny;
    debug_assert_eq!(range.start % slab, 0, "bands must be slab-aligned");
    debug_assert_eq!(range.end % slab, 0, "bands must be slab-aligned");
    let x_span = (nx - 1) * ny;
    let y_span = nx * (ny - 1);
    for (k, o) in (range.start / slab..range.end / slab).zip(out.chunks_exact_mut(slab)) {
        let c0 = k * slab;
        let xs = &x[c0..c0 + slab];
        for ((ov, &d), &xv) in o.iter_mut().zip(&op.diag[c0..c0 + slab]).zip(xs) {
            *ov = d * xv;
        }
        if nx > 1 {
            let gxs = &op.gx[k * x_span..(k + 1) * x_span];
            for ((orow, xrow), grow) in o
                .chunks_exact_mut(nx)
                .zip(xs.chunks_exact(nx))
                .zip(gxs.chunks_exact(nx - 1))
            {
                for ((ov, &g), &xn) in orow[..nx - 1].iter_mut().zip(grow).zip(&xrow[1..]) {
                    *ov -= g * xn;
                }
                for ((ov, &g), &xp) in orow[1..].iter_mut().zip(grow).zip(xrow) {
                    *ov -= g * xp;
                }
            }
        }
        if ny > 1 {
            let gys = &op.gy[k * y_span..(k + 1) * y_span];
            for ((ov, &g), &xn) in o[..y_span].iter_mut().zip(gys).zip(&xs[nx..]) {
                *ov -= g * xn;
            }
            for ((ov, &g), &xp) in o[nx..].iter_mut().zip(gys).zip(&xs[..y_span]) {
                *ov -= g * xp;
            }
        }
        if k + 1 < nz {
            let gzs = &op.gz[c0..c0 + slab];
            for ((ov, &g), &xn) in o.iter_mut().zip(gzs).zip(&x[c0 + slab..c0 + 2 * slab]) {
                *ov -= g * xn;
            }
        }
        if k > 0 {
            let gzs = &op.gz[c0 - slab..c0];
            for ((ov, &g), &xp) in o.iter_mut().zip(gzs).zip(&x[c0 - slab..c0]) {
                *ov -= g * xp;
            }
        }
        if let Some(s) = shift {
            for ((ov, &sv), &xv) in o.iter_mut().zip(&s[c0..c0 + slab]).zip(xs) {
                *ov += sv * xv;
            }
        }
    }
}

/// Sequential left-to-right sum — the deterministic final reduction over
/// per-slab partials.
pub(crate) fn ordered_sum(parts: impl Iterator<Item = f64>) -> f64 {
    parts.fold(0.0, |acc, v| acc + v)
}

/// Per-slab partial dots of two equally-banded slices — sequential
/// accumulation per slab (bitwise-compatible with the historical fused
/// per-element closure form), written as a slice zip so the loads
/// stream. Per-slab partials keep reductions independent of the band
/// partitioning (see the module docs).
pub(crate) fn slab_dot_parts(a: &[f64], b: &[f64], slab: usize) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len());
    debug_assert!(a.len().is_multiple_of(slab.max(1)));
    a.chunks_exact(slab)
        .zip(b.chunks_exact(slab))
        .map(|(ca, cb)| ca.iter().zip(cb).fold(0.0, |acc, (x, y)| acc + x * y))
        .collect()
}

/// Per-slab partials of `Σ (a − b)²` into `out` (one slot per slab)
/// without touching either input — the residual-norm reduction (`b`
/// keeps holding `A·x` for the caller).
pub(crate) fn slab_norm2_diff_into(a: &[f64], b: &[f64], slab: usize, out: &mut [f64]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), slab * out.len());
    for ((o, ca), cb) in out
        .iter_mut()
        .zip(a.chunks_exact(slab))
        .zip(b.chunks_exact(slab))
    {
        *o = ca.iter().zip(cb).fold(0.0, |acc, (x, y)| {
            let d = x - y;
            acc + d * d
        });
    }
}

/// Per-slab partial dots of two f32 slices into `out` (one slot per
/// slab), accumulated in f64 in the same sequential per-slab order as
/// [`slab_dot_parts`].
pub(crate) fn slab_dot_wide_into(a: &[f32], b: &[f32], slab: usize, out: &mut [f64]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), slab * out.len());
    for ((o, ca), cb) in out
        .iter_mut()
        .zip(a.chunks_exact(slab))
        .zip(b.chunks_exact(slab))
    {
        *o = ca
            .iter()
            .zip(cb)
            .fold(0.0, |acc, (&x, &y)| acc + f64::from(x) * f64::from(y));
    }
}

pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

pub(crate) fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Conjugate-gradient solver: f64 Jacobi-CG (the oracle, the default)
/// or the mixed-precision multigrid path (production), per
/// [`CgSolver::with_precision`].
///
/// ```
/// use tsc_thermal::CgSolver;
/// let solver = CgSolver::new().with_tolerance(1e-10).with_max_iterations(20_000);
/// assert!(solver.tolerance() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgSolver {
    tol: f64,
    max_iter: usize,
    threads: usize,
    crossover: usize,
    traj_stride: usize,
    precision: Precision,
}

impl CgSolver {
    /// Default solver: relative tolerance `1e-9`, generous iteration cap,
    /// one worker per available core above the parallel crossover,
    /// f64 Jacobi-CG.
    #[must_use]
    pub fn new() -> Self {
        Self {
            tol: 1e-9,
            max_iter: 50_000,
            threads: default_threads(),
            crossover: DEFAULT_PARALLEL_CROSSOVER,
            traj_stride: 100,
            precision: Precision::F64,
        }
    }

    /// Builder: selects the floating-point scheme.
    /// [`Precision::Mixed`] runs f64-corrected iterative refinement over
    /// an f32 inner MG-PCG (cache-blocked SoA kernels, see
    /// `crate::kernels`): each outer pass computes the true residual in
    /// f64, solves the correction equation in f32 to a loose inner
    /// tolerance, and applies the correction in f64 — the requested
    /// tolerance (down to `1e-11` and beyond) is met against the f64
    /// residual. If refinement stalls the solve finishes on f64
    /// Jacobi-CG from the refined iterate.
    #[must_use]
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Configured floating-point scheme.
    #[must_use]
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Builder: sets the relative residual tolerance.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < tol < 1`.
    #[must_use]
    pub fn with_tolerance(mut self, tol: f64) -> Self {
        assert!(tol > 0.0 && tol < 1.0, "tolerance must be in (0, 1)");
        self.tol = tol;
        self
    }

    /// Builder: sets the iteration cap.
    ///
    /// # Panics
    ///
    /// Panics if `max_iter` is zero.
    #[must_use]
    pub fn with_max_iterations(mut self, max_iter: usize) -> Self {
        assert!(max_iter > 0, "iteration cap must be positive");
        self.max_iter = max_iter;
        self
    }

    /// Builder: caps the worker threads (default: one per available
    /// core). `1` forces the serial path regardless of problem size.
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

    /// Builder: problem size (cells) below which the solve stays serial
    /// even when multiple threads are configured. `0` parallelises
    /// everything (useful for testing), large values force serial.
    #[must_use]
    pub fn with_parallel_crossover(mut self, cells: usize) -> Self {
        self.crossover = cells;
        self
    }

    /// Builder: records the residual into
    /// [`SolverStats::trajectory`] every `stride` iterations (the
    /// initial and final residuals are always recorded).
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    #[must_use]
    pub fn with_trajectory_stride(mut self, stride: usize) -> Self {
        assert!(stride > 0, "trajectory stride must be positive");
        self.traj_stride = stride;
        self
    }

    /// Configured tolerance.
    #[must_use]
    pub fn tolerance(&self) -> f64 {
        self.tol
    }

    pub(crate) fn params(&self) -> CgParams {
        CgParams {
            tol: self.tol,
            max_iter: self.max_iter,
            threads: self.threads,
            crossover: self.crossover,
            traj_stride: self.traj_stride,
        }
    }

    /// Solves the problem.
    ///
    /// # Errors
    ///
    /// [`SolveError::NoBoundary`] when no heatsink is attached;
    /// [`SolveError::NotConverged`] when the residual stalls above the
    /// tolerance; [`SolveError::Diverged`] when the iteration turns
    /// non-finite (never `Ok` with a NaN temperature).
    pub fn solve(&self, p: &Problem) -> Result<Solution, SolveError> {
        let asm = Assembled::build(p)?;
        let mut x = vec![asm.initial_guess; asm.dim.len()];
        let mut shadow = Shadow::for_precision(self.precision);
        let stats = asm.solve_system(None, &asm.rhs, &mut x, &self.params(), shadow.as_mut())?;
        let injected = p.total_power().watts();
        Ok(asm.solution(&x, stats, injected))
    }
}

impl Default for CgSolver {
    fn default() -> Self {
        Self::new()
    }
}

/// Red-black successive over-relaxation (Gauss-Seidel with relaxation
/// factor ω, odd-even ordering).
///
/// Slower than CG on large meshes but algorithmically independent — used
/// to cross-check CG solutions as the paper cross-checks PACT against
/// COMSOL and Celsius. The red-black ordering makes each half-sweep
/// embarrassingly parallel and thread-count independent (see the module
/// docs).
///
/// The true residual `‖b − A·x‖ / ‖b‖` is evaluated every
/// [`SorSolver::with_check_interval`] sweeps **and unconditionally after
/// the final sweep**, so the reported residual always describes the
/// returned field — convergence can never be declared (or a budget
/// exhausted) against a stale checkpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SorSolver {
    omega: f64,
    tol: f64,
    max_sweeps: usize,
    check_interval: usize,
    threads: usize,
    crossover: usize,
}

impl SorSolver {
    /// Default: ω = 1.9, tolerance 1e-9, residual check every 10 sweeps.
    #[must_use]
    pub fn new() -> Self {
        Self {
            omega: 1.9,
            tol: 1e-9,
            max_sweeps: 200_000,
            check_interval: 10,
            threads: default_threads(),
            crossover: DEFAULT_PARALLEL_CROSSOVER,
        }
    }

    /// Builder: relative residual tolerance.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < tol < 1`.
    #[must_use]
    pub fn with_tolerance(mut self, tol: f64) -> Self {
        assert!(tol > 0.0 && tol < 1.0, "tolerance must be in (0, 1)");
        self.tol = tol;
        self
    }

    /// Builder: sweep cap.
    ///
    /// # Panics
    ///
    /// Panics if `max_sweeps` is zero.
    #[must_use]
    pub fn with_max_sweeps(mut self, max_sweeps: usize) -> Self {
        assert!(max_sweeps > 0, "sweep cap must be positive");
        self.max_sweeps = max_sweeps;
        self
    }

    /// Builder: sweeps between true-residual evaluations. The final
    /// sweep is always followed by a residual check regardless of the
    /// interval.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    #[must_use]
    pub fn with_check_interval(mut self, interval: usize) -> Self {
        assert!(interval > 0, "check interval must be positive");
        self.check_interval = interval;
        self
    }

    /// Builder: caps the worker threads (default: one per available
    /// core). See [`CgSolver::with_threads`].
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

    /// Builder: serial/parallel crossover in cells. See
    /// [`CgSolver::with_parallel_crossover`].
    #[must_use]
    pub fn with_parallel_crossover(mut self, cells: usize) -> Self {
        self.crossover = cells;
        self
    }

    /// Solves the problem.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`CgSolver::solve`].
    pub fn solve(&self, p: &Problem) -> Result<Solution, SolveError> {
        // tsc-analyze: allow(no-wallclock-numeric): feeds SolverStats wall-time only, never the numerics
        let t0 = Instant::now();
        let asm = Assembled::build(p)?;
        let n = asm.dim.len();
        let plan = ExecPlan::new(asm.dim, self.threads, self.crossover);
        let b_norm = norm(&asm.rhs).max(f64::MIN_POSITIVE);
        let mut x = vec![asm.initial_guess; n];
        #[cfg(feature = "fault-inject")]
        let max_sweeps = {
            crate::fault::begin_solve();
            crate::fault::poison_field(&mut x);
            crate::fault::truncated_budget(self.max_sweeps)
        };
        #[cfg(not(feature = "fault-inject"))]
        let max_sweeps = self.max_sweeps;
        let mut scratch = vec![0.0; n];
        let mut parts = vec![0.0; asm.dim.nz];
        let mut sweeps = 0_usize;
        let mut matvecs = 0_usize;
        let mut trajectory = Vec::new();

        let residual = loop {
            asm.sor_sweep(&plan, &mut x, self.omega);
            sweeps += 1;
            let last = sweeps == max_sweeps;
            if sweeps.is_multiple_of(self.check_interval) || last {
                #[cfg(not(feature = "fault-inject"))]
                let r =
                    asm.residual_norm(&plan, &x, &asm.rhs, b_norm, &mut scratch, &mut parts, None);
                #[cfg(feature = "fault-inject")]
                let r = crate::fault::corrupt_residual(
                    sweeps,
                    asm.residual_norm(&plan, &x, &asm.rhs, b_norm, &mut scratch, &mut parts, None),
                );
                matvecs += 1;
                trajectory.push((sweeps, r));
                if !r.is_finite() || r <= self.tol || last {
                    break r;
                }
            }
        };

        if !residual.is_finite() {
            return Err(SolveError::Diverged {
                iterations: sweeps,
                residual,
            });
        }
        if residual > self.tol {
            return Err(SolveError::NotConverged {
                iterations: sweeps,
                residual,
            });
        }
        let injected = p.total_power().watts();
        let stats = SolverStats {
            iterations: sweeps,
            residual,
            matvecs,
            cycles: 0,
            level_residuals: Vec::new(),
            precision: Precision::F64,
            refinements: 0,
            assembly_seconds: asm.assembly_seconds,
            solve_seconds: t0.elapsed().as_secs_f64() - asm.assembly_seconds,
            threads: plan.threads(),
            trajectory,
        };
        Ok(asm.solution(&x, stats, injected))
    }
}

impl Default for SorSolver {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heatsink::Heatsink;
    use tsc_units::{HeatFlux, HeatTransferCoefficient, Length, Temperature, ThermalConductivity};

    fn slab(nx: usize, ny: usize, nz: usize, k: f64) -> Problem {
        Problem::uniform_block(
            nx,
            ny,
            nz,
            Length::from_millimeters(1.0),
            Length::from_millimeters(1.0),
            Length::from_micrometers(100.0),
            ThermalConductivity::new(k),
        )
    }

    #[test]
    fn no_boundary_is_singular() {
        let p = slab(4, 4, 4, 100.0);
        assert_eq!(
            CgSolver::new().solve(&p).unwrap_err(),
            SolveError::NoBoundary
        );
        assert_eq!(
            SorSolver::new().solve(&p).unwrap_err(),
            SolveError::NoBoundary
        );
    }

    /// Analytic 1-D check: uniform flux q'' through a slab of thickness L,
    /// conductivity k, into a sink of coefficient h:
    /// `T_top = T_amb + q''/h + q''·L/k` (within half-cell discretization).
    #[test]
    fn one_dimensional_slab_matches_analytic() {
        let mut p = slab(4, 4, 32, 10.0);
        p.set_bottom_heatsink(Heatsink::new(
            HeatTransferCoefficient::new(1e5),
            Temperature::from_celsius(25.0),
        ));
        let q = HeatFlux::from_watts_per_square_cm(100.0);
        p.add_uniform_top_flux(q);
        let sol = CgSolver::new().solve(&p).expect("converges");
        let t_top = sol.temperatures.layer_max(31).celsius();
        // Source sits at the top cell *center*, so conduction spans
        // L - dz/2 of the slab.
        let l_eff = 100e-6 * (1.0 - 0.5 / 32.0);
        let expected = 25.0 + 1e6 / 1e5 + 1e6 * l_eff / 10.0;
        assert!(
            (t_top - expected).abs() < 0.05,
            "expected {expected:.3} °C, got {t_top:.3} °C"
        );
    }

    #[test]
    fn energy_is_conserved() {
        let mut p = slab(8, 8, 8, 50.0);
        p.set_bottom_heatsink(Heatsink::two_phase());
        p.add_power(3, 4, 7, tsc_units::Power::from_watts(2.5));
        p.add_power(1, 1, 3, tsc_units::Power::from_watts(0.5));
        let sol = CgSolver::new().solve(&p).expect("converges");
        assert!(
            sol.energy.relative_error() < 1e-6,
            "balance error {}",
            sol.energy.relative_error()
        );
    }

    #[test]
    fn maximum_principle_holds() {
        // With all heat injected and a single sink, every temperature sits
        // at or above ambient and the peak is at a heated cell.
        let mut p = slab(8, 8, 6, 20.0);
        p.set_bottom_heatsink(Heatsink::microfluidic());
        p.add_power(4, 4, 5, tsc_units::Power::from_watts(1.0));
        let sol = CgSolver::new().solve(&p).expect("converges");
        let ambient = Temperature::from_celsius(25.0);
        assert!(sol.temperatures.min_temperature() >= ambient - tsc_units::TempDelta::new(1e-9));
        assert_eq!(
            sol.temperatures.hottest_cell(),
            tsc_geometry::Index3::new(4, 4, 5)
        );
    }

    #[test]
    fn cg_and_sor_agree() {
        let mut p = slab(6, 6, 6, 5.0);
        p.set_bottom_heatsink(Heatsink::two_phase());
        p.add_power(2, 3, 5, tsc_units::Power::from_watts(1.0));
        p.set_layer_conductivity(
            3,
            ThermalConductivity::new(0.5),
            ThermalConductivity::new(2.0),
        );
        let a = CgSolver::new().solve(&p).expect("cg");
        let b = SorSolver::new()
            .with_tolerance(1e-10)
            .solve(&p)
            .expect("sor");
        let ta = a.temperatures.max_temperature().kelvin();
        let tb = b.temperatures.max_temperature().kelvin();
        assert!(
            (ta - tb).abs() < 1e-3,
            "solvers disagree: {ta:.6} vs {tb:.6}"
        );
    }

    #[test]
    fn top_heatsink_works_alone() {
        let mut p = slab(4, 4, 4, 100.0);
        p.set_top_heatsink(Heatsink::forced_air());
        p.add_power(0, 0, 0, tsc_units::Power::from_watts(0.1));
        let sol = CgSolver::new().solve(&p).expect("converges");
        assert!(sol.energy.relative_error() < 1e-6);
        // Heat must flow up: bottom is hotter than top.
        assert!(sol.temperatures.layer_max(0) > sol.temperatures.layer_max(3));
    }

    #[test]
    fn hotter_with_more_power() {
        let mut p1 = slab(6, 6, 4, 10.0);
        p1.set_bottom_heatsink(Heatsink::two_phase());
        p1.add_power(3, 3, 3, tsc_units::Power::from_watts(1.0));
        let mut p2 = p1.clone();
        p2.add_power(3, 3, 3, tsc_units::Power::from_watts(1.0));
        let t1 = CgSolver::new()
            .solve(&p1)
            .expect("p1")
            .temperatures
            .max_temperature();
        let t2 = CgSolver::new()
            .solve(&p2)
            .expect("p2")
            .temperatures
            .max_temperature();
        assert!(t2 > t1);
    }

    #[test]
    fn cooler_with_pillar_inclusion() {
        // A poor-conductivity stack heated at the top; blending a 10%
        // high-k column under the source must reduce the peak.
        let make = |with_pillar: bool| {
            let mut p = slab(6, 6, 8, 0.5);
            p.set_bottom_heatsink(Heatsink::two_phase());
            p.add_power(3, 3, 7, tsc_units::Power::from_watts(0.5));
            if with_pillar {
                for k in 0..8 {
                    p.blend_vertical_inclusion(3, 3, k, 0.1, ThermalConductivity::new(105.0));
                }
            }
            CgSolver::new()
                .solve(&p)
                .expect("solve")
                .temperatures
                .max_temperature()
        };
        let without = make(false);
        let with = make(true);
        assert!(
            with.kelvin() + 1.0 < without.kelvin(),
            "pillar must cool: {with} vs {without}"
        );
    }

    #[test]
    fn unconverged_reports_stats() {
        let mut p = slab(8, 8, 8, 0.2);
        p.set_bottom_heatsink(Heatsink::two_phase());
        p.add_power(4, 4, 7, tsc_units::Power::from_watts(1.0));
        let err = CgSolver::new()
            .with_max_iterations(1)
            .solve(&p)
            .unwrap_err();
        match err {
            SolveError::NotConverged {
                iterations,
                residual,
            } => {
                assert_eq!(iterations, 1);
                assert!(residual > 0.0);
            }
            other => panic!("expected NotConverged, got {other:?}"),
        }
    }

    #[test]
    fn nan_power_is_reported_as_divergence() {
        // A NaN heat source poisons the right-hand side; both solvers
        // must refuse with `Diverged` rather than return garbage or spin
        // out their entire iteration budget.
        let mut p = slab(4, 4, 4, 50.0);
        p.set_bottom_heatsink(Heatsink::two_phase());
        p.add_power(1, 1, 1, tsc_units::Power::from_watts(f64::NAN));
        match CgSolver::new().solve(&p).unwrap_err() {
            SolveError::Diverged { residual, .. } => assert!(residual.is_nan()),
            other => panic!("expected Diverged, got {other:?}"),
        }
        match SorSolver::new().solve(&p).unwrap_err() {
            SolveError::Diverged {
                iterations,
                residual,
            } => {
                assert!(!residual.is_finite());
                // Detected at the first residual checkpoint, not after
                // the 200 000-sweep budget.
                assert!(iterations <= 10, "took {iterations} sweeps to notice");
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn poisoned_operator_diverges_instead_of_converging() {
        // Zero out the diagonal after assembly: the Jacobi preconditioner
        // divides by it, so the first iteration turns non-finite. The
        // kernel must bail out immediately with `Diverged`.
        let mut p = slab(4, 4, 4, 50.0);
        p.set_bottom_heatsink(Heatsink::two_phase());
        p.add_power(1, 1, 1, tsc_units::Power::from_watts(1.0));
        let mut asm = Assembled::build(&p).expect("well-posed");
        asm.diag.iter_mut().for_each(|d| *d = 0.0);
        let mut x = vec![asm.initial_guess; asm.dim.len()];
        let err = asm
            .cg_core(None, &asm.rhs.clone(), &mut x, &CgSolver::new().params())
            .unwrap_err();
        match err {
            SolveError::Diverged { iterations, .. } => {
                assert!(iterations <= 1, "bail-out must be immediate")
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn stats_record_work_and_trajectory() {
        let mut p = slab(8, 8, 8, 20.0);
        p.set_bottom_heatsink(Heatsink::two_phase());
        p.add_power(4, 4, 7, tsc_units::Power::from_watts(1.0));
        let sol = CgSolver::new()
            .with_trajectory_stride(5)
            .solve(&p)
            .expect("converges");
        let s = &sol.stats;
        assert!(s.iterations > 0);
        assert_eq!(s.matvecs, s.iterations + 1);
        assert!(s.assembly_seconds >= 0.0);
        assert!(s.solve_seconds > 0.0);
        assert!(s.threads >= 1);
        assert_eq!(s.trajectory.first().map(|t| t.0), Some(0));
        assert_eq!(s.trajectory.last().map(|t| t.0), Some(s.iterations));
        assert!(
            s.trajectory.windows(2).all(|w| w[0].0 < w[1].0),
            "trajectory iterations must be strictly increasing"
        );
        assert!(s.trajectory.last().map(|t| t.1) <= Some(1e-9));
    }

    #[test]
    fn forced_parallel_cg_is_bitwise_identical_to_serial() {
        let mut p = slab(6, 6, 7, 15.0);
        p.set_bottom_heatsink(Heatsink::two_phase());
        p.add_power(3, 2, 6, tsc_units::Power::from_watts(0.8));
        p.set_layer_conductivity(
            2,
            ThermalConductivity::new(1.5),
            ThermalConductivity::new(4.0),
        );
        let serial = CgSolver::new().with_threads(1).solve(&p).expect("serial");
        let parallel = CgSolver::new()
            .with_threads(3)
            .with_parallel_crossover(0)
            .solve(&p)
            .expect("parallel");
        // Per-slab ordered reductions make the parallel path reproduce
        // the serial arithmetic exactly, not just approximately.
        assert_eq!(serial.stats.iterations, parallel.stats.iterations);
        for (a, b) in serial
            .temperatures
            .iter_kelvin()
            .zip(parallel.temperatures.iter_kelvin())
        {
            assert_eq!(a, b, "parallel CG must match serial bitwise");
        }
        assert!(parallel.stats.threads > 1, "plan must actually fan out");
    }

    #[test]
    fn forced_parallel_sor_is_bitwise_identical_to_serial() {
        let mut p = slab(5, 7, 6, 8.0);
        p.set_bottom_heatsink(Heatsink::two_phase());
        p.add_power(2, 3, 5, tsc_units::Power::from_watts(0.4));
        let serial = SorSolver::new().with_threads(1).solve(&p).expect("serial");
        let parallel = SorSolver::new()
            .with_threads(3)
            .with_parallel_crossover(0)
            .solve(&p)
            .expect("parallel");
        assert_eq!(serial.stats.iterations, parallel.stats.iterations);
        for (a, b) in serial
            .temperatures
            .iter_kelvin()
            .zip(parallel.temperatures.iter_kelvin())
        {
            assert_eq!(a, b, "parallel SOR must match serial bitwise");
        }
    }

    #[test]
    fn sor_final_residual_describes_returned_field() {
        // Pick a sweep budget that is NOT a multiple of the check
        // interval: the final sweep must still get a true residual
        // check, and the reported value must match an independent
        // recomputation against the returned field.
        let mut p = slab(6, 6, 4, 30.0);
        p.set_bottom_heatsink(Heatsink::two_phase());
        p.add_power(3, 3, 3, tsc_units::Power::from_watts(1.0));
        let err = SorSolver::new()
            .with_check_interval(10)
            .with_max_sweeps(7)
            .solve(&p)
            .unwrap_err();
        match err {
            SolveError::NotConverged {
                iterations,
                residual,
            } => {
                assert_eq!(iterations, 7);
                assert!(
                    residual.is_finite() && residual > 0.0,
                    "stale or sentinel residual leaked: {residual}"
                );
            }
            other => panic!("expected NotConverged, got {other:?}"),
        }
    }
}
