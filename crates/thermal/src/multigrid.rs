//! Geometric multigrid for the finite-volume thermal system.
//!
//! The hot loops of the flow (pillar-density bisection, placement
//! verification, dielectric sweeps) re-solve `A·T = b` on the same mesh
//! dozens of times, and Jacobi-CG iteration counts grow with mesh size
//! and with the extreme vertical/lateral anisotropy of a thinned 3D tier
//! stack. This module builds a grid hierarchy once and then solves in a
//! handful of V-cycles:
//!
//! * **Semicoarsening-aware aggregation.** Each level halves only the
//!   directions whose mean face conductance is within a factor of the
//!   strongest — on a tier stack where `g_z / g_x ~ 10³…10⁵`, that means
//!   z-only coarsening until the vertical coupling is resolved, then
//!   lateral coarsening of the remaining quasi-2D problem. This is the
//!   classic rule for point smoothers: relaxation only smooths error
//!   along strongly coupled directions, so only those directions may be
//!   coarsened.
//! * **Galerkin coarse operators in stencil form.** Restriction is
//!   aggregate summation and prolongation is piecewise-constant
//!   injection (`R = Pᵀ`), so `Pᵀ·A·P` of a face-conductance Laplacian
//!   is again a face-conductance Laplacian: a coarse face conductance is
//!   the sum of the fine interface conductances between the two
//!   aggregates (intra-aggregate faces cancel), and boundary
//!   conductances sum laterally. Every level is therefore a plain
//!   [`Assembled`] operator and reuses the gather-form matvec, the
//!   red-black sweep and the [`ExecPlan`] engine unchanged.
//! * **Symmetric red-black Gauss-Seidel smoothing.** Pre-smoothing runs
//!   the colours `[0, 1]`, post-smoothing `[1, 0]`, with equal sweep
//!   counts — the V-cycle is then a symmetric positive-definite
//!   operator, i.e. a valid CG preconditioner.
//! * **Dense Cholesky at the coarsest level** (≤ a few hundred cells):
//!   exact, dependency-free, factored once per hierarchy.
//!
//! Determinism: smoothing passes have colour-disjoint writes, matvecs
//! are gather-form over slab bands, transfers and the direct solve are
//! serial, and all inner products are serial or per-slab ordered sums —
//! so MG and MG-preconditioned CG results are **bitwise identical for
//! every thread count**, like the PR-1 solvers.

use crate::engine::ExecPlan;
use crate::problem::Problem;
use crate::solver::{
    default_threads, dot, norm, ordered_sum, slab_dot_parts, Assembled, CgParams, Precision,
    Preconditioner, Solution, SolveError, SolverStats, DEFAULT_PARALLEL_CROSSOVER,
};
use std::time::Instant;
use tsc_geometry::Dim3;

/// A direction is coarsened when its mean face conductance is at least
/// this fraction of the strongest coarsenable direction's mean.
const SEMI_THRESHOLD: f64 = 0.25;

/// Polynomial degree of one Chebyshev smoothing application — three
/// matvecs per application, comparable work to the two colour passes of
/// a red-black sweep but expressed as branch-free streaming loops.
pub(crate) const CHEB_DEGREE: usize = 3;

/// Which relaxation the multigrid levels smooth with (selected by
/// [`crate::CgSolver::with_smoother`] / [`MgSolver::with_smoother`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Smoother {
    /// Symmetric red-black Gauss-Seidel: colours `[0, 1]` before the
    /// coarse correction, `[1, 0]` after — the PR-2 default.
    #[default]
    RedBlack,
    /// Fixed-degree Chebyshev polynomial in `D⁻¹A` on the upper quarter
    /// of its spectrum: matvec + AXPY only, no inner reductions and no
    /// coloured scatter, so it autovectorizes and has no cross-band
    /// coupling. `D⁻¹A` is self-adjoint in the `A`-inner product, so
    /// identical pre/post applications keep the V-cycle a symmetric
    /// operator — still a valid CG preconditioner.
    Chebyshev,
}

impl core::fmt::Display for Smoother {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Self::RedBlack => "redblack",
            Self::Chebyshev => "chebyshev",
        })
    }
}

/// Hierarchy construction and cycling knobs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MgParams {
    /// Pre-smoothing sweeps per level (colour order `[0, 1]`).
    pub(crate) nu_pre: usize,
    /// Post-smoothing sweeps per level (colour order `[1, 0]`).
    pub(crate) nu_post: usize,
    /// Relaxation factor for the smoothing sweeps (1.0 = Gauss-Seidel;
    /// over-relaxation would break the symmetric-preconditioner
    /// property unless mirrored exactly, so keep it at 1).
    pub(crate) omega: f64,
    /// Coarsening stops at or below this many cells; the coarsest level
    /// is solved directly (dense Cholesky).
    pub(crate) coarse_max: usize,
    pub(crate) threads: usize,
    pub(crate) crossover: usize,
    /// Relaxation family for every level's smoothing passes.
    pub(crate) smoother: Smoother,
}

impl MgParams {
    /// Default cycling parameters bound to an execution configuration.
    pub(crate) fn with_exec(threads: usize, crossover: usize) -> Self {
        Self {
            nu_pre: 1,
            nu_post: 1,
            omega: 1.0,
            coarse_max: 512,
            threads,
            crossover,
            smoother: Smoother::RedBlack,
        }
    }

    /// Returns the parameters with a different smoother.
    pub(crate) fn with_smoother(mut self, smoother: Smoother) -> Self {
        self.smoother = smoother;
        self
    }
}

/// Per-direction coarsening factors for one level transition (1 = keep,
/// 2 = aggregate pairs; ceil sizing, so odd extents leave a lone
/// trailing aggregate).
pub(crate) type Factors = [usize; 3];

/// Chooses which directions to coarsen based on the mean face
/// conductance per direction: only directions within
/// [`SEMI_THRESHOLD`] of the strongest coarsenable direction coarsen
/// (semicoarsening), and `None` means no direction can coarsen (all
/// extents are already 1).
fn coarsen_factors(op: &Assembled) -> Option<Factors> {
    coarsen_factors_with(op, SEMI_THRESHOLD)
}

/// [`coarsen_factors`] with an explicit lateral-join threshold — the
/// f32 shadow hierarchy coarsens more aggressively than the f64 one
/// (see [`crate::kernels::HierarchyF32::build`]).
pub(crate) fn coarsen_factors_with(op: &Assembled, threshold: f64) -> Option<Factors> {
    let d = op.dim;
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let means = [mean(&op.gx), mean(&op.gy), mean(&op.gz)];
    let ns = [d.nx, d.ny, d.nz];
    if ns.iter().all(|&n| n < 2) {
        return None;
    }
    let max_mean = (0..3)
        .filter(|&a| ns[a] >= 2)
        .map(|a| means[a])
        .fold(0.0_f64, f64::max);
    let mut f = [1_usize; 3];
    for a in 0..3 {
        if ns[a] >= 2 && means[a] >= threshold * max_mean {
            f[a] = 2;
        }
    }
    if f == [1, 1, 1] {
        // Degenerate conductances (zero/NaN means) — coarsen everything
        // coarsenable so hierarchy construction always terminates.
        for a in 0..3 {
            if ns[a] >= 2 {
                f[a] = 2;
            }
        }
    }
    Some(f)
}

/// Coarse extent under ceil aggregation: pairs, plus a lone trailing
/// cell when the extent is odd.
fn coarse_extent(n: usize, f: usize) -> usize {
    if f == 2 {
        n.div_ceil(2)
    } else {
        n
    }
}

/// Galerkin coarsening of a face-conductance operator under pairwise
/// aggregation: inter-aggregate fine face conductances sum into the
/// coarse face between the owning aggregates, intra-aggregate faces
/// vanish, and boundary conductances sum over each aggregate's footprint
/// on the boundary slab. With piecewise-constant transfer operators this
/// reproduces `Pᵀ·A·P` exactly (verified by the unit tests below).
pub(crate) fn coarsen(op: &Assembled, f: Factors) -> Assembled {
    let (nx, ny, nz) = (op.dim.nx, op.dim.ny, op.dim.nz);
    let (ncx, ncy, ncz) = (
        coarse_extent(nx, f[0]),
        coarse_extent(ny, f[1]),
        coarse_extent(nz, f[2]),
    );
    let cdim = Dim3::new(ncx, ncy, ncz);
    let mut gx = vec![0.0; ncx.saturating_sub(1) * ncy * ncz];
    let mut gy = vec![0.0; ncx * ncy.saturating_sub(1) * ncz];
    let mut gz = vec![0.0; ncx * ncy * ncz.saturating_sub(1)];
    for k in 0..nz {
        let ck = k / f[2];
        for j in 0..ny {
            let cj = j / f[1];
            for i in 0..nx {
                let ci = i / f[0];
                if i + 1 < nx && (i + 1) / f[0] != ci {
                    gx[(ck * ncy + cj) * (ncx - 1) + ci] += op.gx[(k * ny + j) * (nx - 1) + i];
                }
                if j + 1 < ny && (j + 1) / f[1] != cj {
                    gy[(ck * (ncy - 1) + cj) * ncx + ci] += op.gy[(k * (ny - 1) + j) * nx + i];
                }
                if k + 1 < nz && (k + 1) / f[2] != ck {
                    gz[(ck * ncy + cj) * ncx + ci] += op.gz[(k * ny + j) * nx + i];
                }
            }
        }
    }
    let mut g_bottom = vec![0.0; ncx * ncy];
    let mut g_top = vec![0.0; ncx * ncy];
    for j in 0..ny {
        let cj = j / f[1];
        for i in 0..nx {
            let ci = i / f[0];
            // The fine bottom (k = 0) and top (k = nz-1) slabs always land
            // in the coarse bottom and top aggregates respectively, so the
            // boundary conductance aggregates laterally.
            g_bottom[cj * ncx + ci] += op.g_bottom[j * nx + i];
            g_top[cj * ncx + ci] += op.g_top[j * nx + i];
        }
    }
    Assembled::from_parts(cdim, gx, gy, gz, g_bottom, g_top)
}

/// Restriction `b_c = Pᵀ·r`: sums each aggregate's fine values (serial —
/// transfer cost is negligible next to smoothing and must stay
/// deterministic). Generic over the scalar so the f32 hierarchy in
/// `crate::kernels` reuses the same transfer.
pub(crate) fn restrict<T>(fd: Dim3, cd: Dim3, f: Factors, fine: &[T], coarse: &mut [T])
where
    T: Copy + Default + core::ops::AddAssign,
{
    coarse.fill(T::default());
    for k in 0..fd.nz {
        let ck = k / f[2];
        for j in 0..fd.ny {
            let cj = j / f[1];
            for i in 0..fd.nx {
                let ci = i / f[0];
                coarse[(ck * cd.ny + cj) * cd.nx + ci] += fine[(k * fd.ny + j) * fd.nx + i];
            }
        }
    }
}

/// Prolongation `x += P·x_c`: piecewise-constant injection of each
/// aggregate's correction into its fine cells.
pub(crate) fn prolong_add<T>(fd: Dim3, cd: Dim3, f: Factors, coarse: &[T], fine: &mut [T])
where
    T: Copy + core::ops::AddAssign,
{
    for k in 0..fd.nz {
        let ck = k / f[2];
        for j in 0..fd.ny {
            let cj = j / f[1];
            for i in 0..fd.nx {
                let ci = i / f[0];
                fine[(k * fd.ny + j) * fd.nx + i] += coarse[(ck * cd.ny + cj) * cd.nx + ci];
            }
        }
    }
}

/// Chebyshev interval of `D⁻¹A` for one level: a deterministic power
/// iteration (serial, f64, all-ones start) estimates the largest
/// eigenvalue, padded by 10 % and clamped to the Gershgorin bound of 2
/// (the diagonal is the sum of the incident off-diagonals plus a
/// non-negative boundary conductance, so every row sum of `D⁻¹A` is at
/// most 2). The smoother targets the upper three quarters of the
/// spectrum, `[λ_hi/4, λ_hi]`; the coarse grids handle the rest.
pub(crate) fn cheb_bounds(op: &Assembled) -> (f64, f64) {
    let n = op.dim.len();
    let mut v = vec![1.0; n];
    let mut av = vec![0.0; n];
    let mut est = 2.0;
    for _ in 0..12 {
        let nv = norm(&v);
        if !nv.is_finite() || nv <= 0.0 {
            est = 2.0;
            break;
        }
        for val in v.iter_mut() {
            *val /= nv;
        }
        op.matvec_range(&v, &mut av, 0..n, None);
        for (a, dv) in av.iter_mut().zip(&op.diag) {
            *a /= dv;
        }
        est = norm(&av);
        std::mem::swap(&mut v, &mut av);
    }
    if !est.is_finite() || est <= 0.0 {
        est = 2.0;
    }
    let hi = (est * 1.1).min(2.0);
    (hi * 0.25, hi)
}

/// One Chebyshev smoothing application of degree [`CHEB_DEGREE`] on
/// `A·x = b` over the interval `[lo, hi]` of `D⁻¹A` — the standard
/// three-term recurrence in difference form (`d` is the running
/// direction, `r` the freshly recomputed residual). Every pass is a
/// banded matvec or element-wise update with **no reductions**, so the
/// result is bitwise independent of the band schedule and thread count.
#[allow(clippy::too_many_arguments)] // level-local scratch, not an API
pub(crate) fn cheb_smooth(
    op: &Assembled,
    plan: &ExecPlan,
    lo: f64,
    hi: f64,
    b: &[f64],
    x: &mut [f64],
    r: &mut [f64],
    d: &mut [f64],
) {
    let theta = 0.5 * (hi + lo);
    let delta = 0.5 * (hi - lo);
    let sigma = theta / delta;
    let mut rho = 1.0 / sigma;
    plan.map_mut(r, |range, chunk| {
        op.matvec_range(x, chunk, range.clone(), None);
        for (o, bv) in chunk.iter_mut().zip(&b[range]) {
            *o = bv - *o;
        }
    });
    plan.map2_mut(x, d, |range, xs, ds| {
        let rr = &r[range.clone()];
        let dg = &op.diag[range];
        for (((xv, dv), rv), dgv) in xs.iter_mut().zip(ds.iter_mut()).zip(rr).zip(dg) {
            let v = rv / (theta * dgv);
            *dv = v;
            *xv += v;
        }
    });
    for _ in 1..CHEB_DEGREE {
        let rho_next = 1.0 / (2.0 * sigma - rho);
        plan.map_mut(r, |range, chunk| {
            op.matvec_range(x, chunk, range.clone(), None);
            for (o, bv) in chunk.iter_mut().zip(&b[range]) {
                *o = bv - *o;
            }
        });
        let gain = 2.0 * rho_next / delta;
        plan.map2_mut(x, d, |range, xs, ds| {
            let rr = &r[range.clone()];
            let dg = &op.diag[range];
            for (((xv, dv), rv), dgv) in xs.iter_mut().zip(ds.iter_mut()).zip(rr).zip(dg) {
                let v = rho_next * rho * *dv + gain * rv / dgv;
                *dv = v;
                *xv += v;
            }
        });
        rho = rho_next;
    }
}

/// Dense Cholesky factorization of the coarsest-level operator — exact,
/// dependency-free, and tiny (≤ [`MgParams::coarse_max`] unknowns).
#[derive(Debug, Clone)]
pub(crate) struct DenseCholesky {
    n: usize,
    /// Row-major lower-triangular factor (upper triangle unused).
    l: Vec<f64>,
}

impl DenseCholesky {
    /// Expands the stencil operator into a dense matrix and factors it.
    ///
    /// # Errors
    ///
    /// [`SolveError::Diverged`] when a pivot is non-positive or
    /// non-finite — the operator is not SPD (poisoned conductances).
    pub(crate) fn factor(op: &Assembled) -> Result<Self, SolveError> {
        let n = op.dim.len();
        let (nx, ny, nz) = (op.dim.nx, op.dim.ny, op.dim.nz);
        let slab = nx * ny;
        let mut a = vec![0.0; n * n];
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let c = (k * ny + j) * nx + i;
                    a[c * n + c] = op.diag[c];
                    if i + 1 < nx {
                        a[(c + 1) * n + c] = -op.gx[(k * ny + j) * (nx - 1) + i];
                    }
                    if j + 1 < ny {
                        a[(c + nx) * n + c] = -op.gy[(k * (ny - 1) + j) * nx + i];
                    }
                    if k + 1 < nz {
                        a[(c + slab) * n + c] = -op.gz[(k * ny + j) * nx + i];
                    }
                }
            }
        }
        // In-place Cholesky on the lower triangle: A = L·Lᵀ.
        for i in 0..n {
            for j in 0..=i {
                let mut s = a[i * n + j];
                for k in 0..j {
                    s -= a[i * n + k] * a[j * n + k];
                }
                if i == j {
                    if s <= 0.0 || !s.is_finite() {
                        return Err(SolveError::Diverged {
                            iterations: 0,
                            residual: f64::NAN,
                        });
                    }
                    a[i * n + i] = s.sqrt();
                } else {
                    a[i * n + j] = s / a[j * n + j];
                }
            }
        }
        Ok(Self { n, l: a })
    }

    /// Solves `A·x = b` by forward/backward substitution.
    pub(crate) fn solve(&self, b: &[f64], x: &mut [f64]) {
        let n = self.n;
        debug_assert_eq!(b.len(), n);
        debug_assert_eq!(x.len(), n);
        for i in 0..n {
            let mut s = b[i];
            for (k, xv) in x.iter().enumerate().take(i) {
                s -= self.l[i * n + k] * xv;
            }
            x[i] = s / self.l[i * n + i];
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            for (k, xv) in x.iter().enumerate().skip(i + 1) {
                s -= self.l[k * n + i] * xv;
            }
            x[i] = s / self.l[i * n + i];
        }
    }
}

/// Per-level scratch vectors of one V-cycle (`d` is the Chebyshev
/// direction buffer, idle under red-black smoothing).
#[derive(Debug, Clone)]
struct LevelBufs {
    x: Vec<f64>,
    b: Vec<f64>,
    r: Vec<f64>,
    d: Vec<f64>,
}

/// Reusable scratch space for V-cycles over one [`MgHierarchy`] — kept
/// separate from the (immutable, cacheable) hierarchy so a cached
/// hierarchy can serve many solves.
#[derive(Debug, Clone)]
pub(crate) struct MgWorkspace {
    /// Finest-level residual buffer.
    r0: Vec<f64>,
    /// Finest-level Chebyshev direction buffer.
    d0: Vec<f64>,
    /// Buffers for levels `1..L` (the finest level's `x`/`b` are the
    /// caller's slices).
    tail: Vec<LevelBufs>,
}

/// The immutable grid hierarchy: coarse operators, transfer factors,
/// per-level execution plans and the factored coarsest level. Built once
/// per operator (geometry + conductivity) and reused across every solve
/// on it — see [`crate::SolveContext`].
#[derive(Debug)]
pub(crate) struct MgHierarchy {
    /// Mesh dimensions per level, finest first.
    dims: Vec<Dim3>,
    /// `factors[l]` maps level `l` to level `l + 1`.
    factors: Vec<Factors>,
    /// Operators for levels `1..L` (level 0 is the caller's fine
    /// operator, passed by reference to every cycle).
    coarse_ops: Vec<Assembled>,
    plans: Vec<ExecPlan>,
    chol: DenseCholesky,
    nu_pre: usize,
    nu_post: usize,
    omega: f64,
    smoother: Smoother,
    /// Per-level Chebyshev interval `(λ_lo, λ_hi)` of `D⁻¹A` (empty when
    /// the smoother is red-black — the bounds are only computed when
    /// they are needed).
    cheb: Vec<(f64, f64)>,
}

impl MgHierarchy {
    /// Builds the hierarchy for `fine`: repeatedly choose semicoarsening
    /// factors, Galerkin-coarsen, and stop once the level fits the
    /// direct solver.
    ///
    /// # Errors
    ///
    /// [`SolveError::Diverged`] when the coarsest operator fails the
    /// Cholesky SPD check (non-finite or non-positive pivots).
    pub(crate) fn build(fine: &Assembled, params: &MgParams) -> Result<Self, SolveError> {
        let mut dims = vec![fine.dim];
        let mut factors = Vec::new();
        let mut coarse_ops: Vec<Assembled> = Vec::new();
        loop {
            let cur = coarse_ops.last().unwrap_or(fine);
            if cur.dim.len() <= params.coarse_max {
                break;
            }
            let Some(f) = coarsen_factors(cur) else {
                break;
            };
            let coarse = coarsen(cur, f);
            dims.push(coarse.dim);
            factors.push(f);
            coarse_ops.push(coarse);
        }
        let chol = DenseCholesky::factor(coarse_ops.last().unwrap_or(fine))?;
        let plans = dims
            .iter()
            .map(|&d| ExecPlan::new(d, params.threads, params.crossover))
            .collect();
        let cheb = if params.smoother == Smoother::Chebyshev {
            (0..dims.len())
                .map(|l| cheb_bounds(if l == 0 { fine } else { &coarse_ops[l - 1] }))
                .collect()
        } else {
            Vec::new()
        };
        Ok(Self {
            dims,
            factors,
            coarse_ops,
            plans,
            chol,
            nu_pre: params.nu_pre,
            nu_post: params.nu_post,
            omega: params.omega,
            smoother: params.smoother,
            cheb,
        })
    }

    /// Number of levels including the finest.
    pub(crate) fn levels(&self) -> usize {
        self.dims.len()
    }

    /// Mesh dimensions per level, finest first.
    pub(crate) fn dims(&self) -> &[Dim3] {
        &self.dims
    }

    /// Level-to-level coarsening factors (`factors[l]`: level `l` →
    /// level `l + 1`).
    pub(crate) fn factors(&self) -> &[Factors] {
        &self.factors
    }

    /// Per-level execution plans, finest first.
    pub(crate) fn plans(&self) -> &[ExecPlan] {
        &self.plans
    }

    /// The factored coarsest-level direct solver.
    pub(crate) fn chol(&self) -> &DenseCholesky {
        &self.chol
    }

    /// The smoother family this hierarchy was built for.
    pub(crate) fn smoother(&self) -> Smoother {
        self.smoother
    }

    /// `(nu_pre, nu_post)` smoothing sweeps per level.
    pub(crate) fn sweeps(&self) -> (usize, usize) {
        (self.nu_pre, self.nu_post)
    }

    /// Relaxation factor of the red-black smoother.
    pub(crate) fn relax_omega(&self) -> f64 {
        self.omega
    }

    /// Fresh scratch space sized for this hierarchy.
    pub(crate) fn workspace(&self) -> MgWorkspace {
        let n0 = self.dims[0].len();
        MgWorkspace {
            r0: vec![0.0; n0],
            d0: vec![0.0; n0],
            tail: self.dims[1..]
                .iter()
                .map(|d| LevelBufs {
                    x: vec![0.0; d.len()],
                    b: vec![0.0; d.len()],
                    r: vec![0.0; d.len()],
                    d: vec![0.0; d.len()],
                })
                .collect(),
        }
    }

    pub(crate) fn op<'a>(&'a self, fine: &'a Assembled, level: usize) -> &'a Assembled {
        if level == 0 {
            fine
        } else {
            &self.coarse_ops[level - 1]
        }
    }

    /// Per-level Chebyshev intervals (empty unless built with
    /// [`Smoother::Chebyshev`]).
    pub(crate) fn cheb_intervals(&self) -> &[(f64, f64)] {
        &self.cheb
    }

    /// One V-cycle on `A·x = b` at the finest level: `x` is improved in
    /// place (pass zeros to apply the cycle as a preconditioner). The
    /// cycle is a fixed symmetric linear operator — safe inside CG.
    pub(crate) fn v_cycle(&self, fine: &Assembled, ws: &mut MgWorkspace, b: &[f64], x: &mut [f64]) {
        let MgWorkspace { r0, d0, tail } = ws;
        self.cycle(fine, 0, b, x, r0, d0, tail, false);
    }

    /// [`Self::v_cycle`] with a line search on every coarse-grid
    /// correction: each prolongated correction is scaled by the
    /// energy-norm-optimal step before it is added. Piecewise-constant
    /// aggregation underestimates smooth error by a level-dependent
    /// spectral factor, and the nested misscaling makes the unscaled
    /// cycle stall as a stationary iteration on deep high-contrast
    /// stacks; the per-level steps remove it. The scaling makes the
    /// cycle nonlinear, so this variant is for standalone iteration
    /// only — never use it as a CG preconditioner.
    pub(crate) fn v_cycle_scaled(
        &self,
        fine: &Assembled,
        ws: &mut MgWorkspace,
        b: &[f64],
        x: &mut [f64],
    ) {
        let MgWorkspace { r0, d0, tail } = ws;
        self.cycle(fine, 0, b, x, r0, d0, tail, true);
    }

    /// Smoothing passes at one level: `nu` red-black sweeps in the given
    /// colour order, or `nu` Chebyshev applications (self-adjoint, so
    /// the colour order is irrelevant and pre/post are identical).
    #[allow(clippy::too_many_arguments)] // recursion state, not an API
    fn smooth(
        &self,
        op: &Assembled,
        plan: &ExecPlan,
        level: usize,
        b: &[f64],
        x: &mut [f64],
        r: &mut [f64],
        d: &mut [f64],
        nu: usize,
        colours: [usize; 2],
    ) {
        match self.smoother {
            Smoother::RedBlack => {
                for _ in 0..nu {
                    op.rb_sweep(plan, x, b, self.omega, colours);
                }
            }
            Smoother::Chebyshev => {
                let (lo, hi) = self.cheb[level];
                for _ in 0..nu {
                    cheb_smooth(op, plan, lo, hi, b, x, r, d);
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // recursion state, not an API
    fn cycle(
        &self,
        fine: &Assembled,
        level: usize,
        b: &[f64],
        x: &mut [f64],
        r: &mut [f64],
        d: &mut [f64],
        tail: &mut [LevelBufs],
        scaled: bool,
    ) {
        let op = self.op(fine, level);
        if level + 1 == self.levels() {
            self.chol.solve(b, x);
            return;
        }
        let plan = &self.plans[level];
        self.smooth(op, plan, level, b, x, r, d, self.nu_pre, [0, 1]);
        plan.map_mut(r, |range, chunk| {
            op.matvec_range(x, chunk, range.clone(), None);
            for (o, bv) in chunk.iter_mut().zip(&b[range]) {
                *o = bv - *o;
            }
        });
        // The workspace is built with one buffer per hierarchy level, so
        // the tail cannot run out while recursing within the depth.
        let (next, rest) = tail
            .split_first_mut()
            .expect("workspace depth matches hierarchy"); // tsc-analyze: allow(no-unwrap): one buffer per level
        restrict(
            self.dims[level],
            self.dims[level + 1],
            self.factors[level],
            r,
            &mut next.b,
        );
        next.x.fill(0.0);
        let LevelBufs {
            x: cx,
            b: cb,
            r: cr,
            d: cd,
        } = next;
        self.cycle(fine, level + 1, cb, cx, cr, cd, rest, scaled);
        if scaled && level + 2 < self.levels() {
            // Energy-optimal step for the prolongated correction
            // `e = P·cx`, computed entirely on the coarse level through
            // the Galerkin identities `⟨e, r⟩ = ⟨cx, R·r⟩ = ⟨cx, cb⟩`
            // and `⟨e, A·e⟩ = ⟨cx, (Pᵀ·A·P)·cx⟩ = ⟨cx, A_c·cx⟩`. The
            // matvec and dots are serial, preserving thread-count
            // independence; when the child level is the direct solve
            // the step is exactly 1, so it is skipped.
            let cop = self.op(fine, level + 1);
            cop.matvec_range(cx, cr, 0..cx.len(), None);
            let den = dot(cx, cr);
            if den > 0.0 {
                let alpha = dot(cx, cb) / den;
                for v in cx.iter_mut() {
                    *v *= alpha;
                }
            }
        }
        prolong_add(
            self.dims[level],
            self.dims[level + 1],
            self.factors[level],
            cx,
            x,
        );
        self.smooth(op, plan, level, b, x, r, d, self.nu_post, [1, 0]);
    }

    /// 2-norm of the residual restricted to each level, finest first —
    /// the [`SolverStats::level_residuals`] diagnostic.
    pub(crate) fn level_norms(&self, r: &[f64], ws: &mut MgWorkspace) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.levels());
        out.push(norm(r));
        for l in 0..self.levels() - 1 {
            let (done, rest) = ws.tail.split_at_mut(l);
            let src: &[f64] = if l == 0 { r } else { &done[l - 1].r };
            restrict(
                self.dims[l],
                self.dims[l + 1],
                self.factors[l],
                src,
                &mut rest[0].r,
            );
            out.push(norm(&rest[0].r));
        }
        out
    }
}

/// An [`MgHierarchy`] and its scratch, built on first use. The f64
/// multigrid path asks for it on every solve; the mixed path asks only
/// when a refinement pass stalls (or the f32 shadow has to mirror it),
/// so a healthy mixed solve never pays for the f64 chain and its dense
/// coarsest Cholesky.
#[derive(Debug, Default)]
pub(crate) struct LazyHierarchy(Option<(MgHierarchy, MgWorkspace)>);

impl LazyHierarchy {
    /// Whether the hierarchy has been built.
    pub(crate) fn is_built(&self) -> bool {
        self.0.is_some()
    }

    /// The smoother of the built hierarchy, if any.
    pub(crate) fn smoother(&self) -> Option<Smoother> {
        self.0.as_ref().map(|(mg, _)| mg.smoother())
    }

    /// The hierarchy for `fine`, building it with `params` on first use.
    ///
    /// # Errors
    ///
    /// Those of [`MgHierarchy::build`]; nothing is cached on failure.
    pub(crate) fn get(
        &mut self,
        fine: &Assembled,
        params: &MgParams,
    ) -> Result<(&MgHierarchy, &mut MgWorkspace), SolveError> {
        let (mg, ws) = match &mut self.0 {
            Some(built) => built,
            empty => {
                let mg = MgHierarchy::build(fine, params)?;
                let ws = mg.workspace();
                empty.insert((mg, ws))
            }
        };
        Ok((mg, ws))
    }
}

impl Assembled {
    /// Multigrid-preconditioned CG on `A·x = rhs`, warm-started from
    /// `x`: the twin of [`Assembled::cg_core`] with one V-cycle in place
    /// of the diagonal scaling. `⟨r, z⟩` products are serial (the cost
    /// is negligible next to a V-cycle) and everything else reuses the
    /// per-slab ordered reductions, so results stay bitwise identical
    /// across thread counts.
    pub(crate) fn cg_core_mg(
        &self,
        rhs: &[f64],
        x: &mut [f64],
        params: &CgParams,
        mg: &MgHierarchy,
        ws: &mut MgWorkspace,
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

        let mut r = vec![0.0; n];
        let mut z = vec![0.0; n];
        let mut pv = vec![0.0; n];
        let mut ap = vec![0.0; n];
        let mut matvecs = 0_usize;
        let mut cycles = 0_usize;

        plan.map_mut(&mut ap, |range, chunk| {
            self.matvec_range(x, chunk, range, None);
        });
        matvecs += 1;
        for ((rv, bv), av) in r.iter_mut().zip(rhs).zip(&ap) {
            *rv = bv - av;
        }
        let mut residual = norm(&r) / b_norm;
        let mut iterations = 0_usize;
        let mut trajectory = vec![(0, residual)];
        let mut rz = 0.0;
        if residual > params.tol && residual.is_finite() {
            mg.v_cycle(self, ws, &r, &mut z);
            cycles += 1;
            pv.copy_from_slice(&z);
            rz = dot(&r, &z);
        }

        while residual > params.tol && residual.is_finite() && iterations < max_iter {
            // Region 1: ap = A·pv, then ⟨pv, ap⟩ as a streaming slab dot
            // (same per-slab accumulation order as the historical fused
            // closure — bitwise identical).
            let parts = plan.map_mut(&mut ap, |range, chunk| {
                self.matvec_range(&pv, chunk, range.clone(), None);
                slab_dot_parts(&pv[range], chunk, slab)
            });
            matvecs += 1;
            let p_ap = ordered_sum(parts.into_iter().flatten());
            let alpha = rz / p_ap;

            // Region 2: x += α·pv, r -= α·ap as zips, then ⟨r, r⟩.
            let parts = plan.map2_mut(x, &mut r, |range, xs, rs| {
                for (xv, p) in xs.iter_mut().zip(&pv[range.clone()]) {
                    *xv += alpha * p;
                }
                for (rv, av) in rs.iter_mut().zip(&ap[range]) {
                    *rv -= alpha * av;
                }
                slab_dot_parts(rs, rs, slab)
            });
            let rr = ordered_sum(parts.into_iter().flatten());
            residual = rr.sqrt() / b_norm;
            iterations += 1;
            #[cfg(feature = "fault-inject")]
            {
                residual = crate::fault::corrupt_residual(iterations, residual);
            }
            if iterations.is_multiple_of(params.traj_stride) {
                trajectory.push((iterations, residual));
            }
            if residual <= params.tol || !residual.is_finite() || iterations >= max_iter {
                break;
            }

            // z = M⁻¹·r (one V-cycle from zero), then the direction update.
            z.fill(0.0);
            mg.v_cycle(self, ws, &r, &mut z);
            cycles += 1;
            let rz_next = dot(&r, &z);
            let beta = rz_next / rz;
            rz = rz_next;
            plan.map_mut(&mut pv, |range, chunk| {
                for (o, zv) in chunk.iter_mut().zip(&z[range]) {
                    *o = zv + beta * *o;
                }
            });
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
        let level_residuals = mg.level_norms(&r, ws);
        Ok(SolverStats {
            iterations,
            residual,
            matvecs,
            cycles,
            level_residuals,
            preconditioner: Preconditioner::Multigrid,
            precision: Precision::F64,
            refinements: 0,
            assembly_seconds: self.assembly_seconds,
            solve_seconds: t0.elapsed().as_secs_f64(),
            threads: plan.threads(),
            trajectory,
        })
    }
}

/// Standalone geometric-multigrid solver: iterate `x += α·V(b − A·x)`
/// until the relative residual meets the tolerance, where `α` is the
/// energy-norm-optimal step `⟨e,r⟩/⟨e,A·e⟩` for the cycle output `e`
/// (preconditioned steepest descent — plain `x += e` stalls under the
/// constant spectral misscaling of aggregation transfers).
///
/// For production solves prefer MG-preconditioned CG
/// ([`crate::CgSolver::with_preconditioner`]) — CG absorbs the modest
/// spectral misscaling of piecewise-constant aggregation and converges
/// in fewer fine-grid passes; the standalone cycle is the algorithmically
/// independent cross-check and the building block the preconditioner
/// reuses.
///
/// ```
/// use tsc_thermal::MgSolver;
/// let solver = MgSolver::new().with_tolerance(1e-8).with_max_cycles(500);
/// assert!(solver.tolerance() > 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MgSolver {
    tol: f64,
    max_cycles: usize,
    coarse_max: usize,
    threads: usize,
    crossover: usize,
    smoother: Smoother,
}

impl MgSolver {
    /// Default: relative tolerance `1e-9`, 1000-cycle budget, direct
    /// solve at ≤ 512 cells, one worker per core above the crossover.
    #[must_use]
    pub fn new() -> Self {
        Self {
            tol: 1e-9,
            max_cycles: 1000,
            coarse_max: 512,
            threads: default_threads(),
            crossover: DEFAULT_PARALLEL_CROSSOVER,
            smoother: Smoother::RedBlack,
        }
    }

    /// Builder: relaxation family for every level of the hierarchy.
    #[must_use]
    pub fn with_smoother(mut self, smoother: Smoother) -> Self {
        self.smoother = smoother;
        self
    }

    /// Configured smoother.
    #[must_use]
    pub fn smoother(&self) -> Smoother {
        self.smoother
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

    /// Builder: V-cycle budget.
    ///
    /// # Panics
    ///
    /// Panics if `max_cycles` is zero.
    #[must_use]
    pub fn with_max_cycles(mut self, max_cycles: usize) -> Self {
        assert!(max_cycles > 0, "cycle budget must be positive");
        self.max_cycles = max_cycles;
        self
    }

    /// Builder: cell count at which coarsening stops and the level is
    /// solved directly. Small values force deeper hierarchies (useful
    /// for testing the multilevel path on small meshes).
    ///
    /// # Panics
    ///
    /// Panics if `cells` is zero.
    #[must_use]
    pub fn with_coarse_limit(mut self, cells: usize) -> Self {
        assert!(cells > 0, "coarse limit must be positive");
        self.coarse_max = cells;
        self
    }

    /// Builder: caps the worker threads. See
    /// [`crate::CgSolver::with_threads`].
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
    /// [`crate::CgSolver::with_parallel_crossover`].
    #[must_use]
    pub fn with_parallel_crossover(mut self, cells: usize) -> Self {
        self.crossover = cells;
        self
    }

    /// Configured tolerance.
    #[must_use]
    pub fn tolerance(&self) -> f64 {
        self.tol
    }

    pub(crate) fn mg_params(&self) -> MgParams {
        MgParams {
            coarse_max: self.coarse_max,
            smoother: self.smoother,
            ..MgParams::with_exec(self.threads, self.crossover)
        }
    }

    /// Solves the problem.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`crate::CgSolver::solve`]; additionally,
    /// a non-SPD coarsest level surfaces as [`SolveError::Diverged`]
    /// during hierarchy construction.
    pub fn solve(&self, p: &Problem) -> Result<Solution, SolveError> {
        // tsc-analyze: allow(no-wallclock-numeric): feeds SolverStats wall-time only, never the numerics
        let t0 = Instant::now();
        let asm = Assembled::build(p)?;
        let mg = MgHierarchy::build(&asm, &self.mg_params())?;
        let mut ws = mg.workspace();
        let n = asm.dim.len();
        let plan = ExecPlan::new(asm.dim, self.threads, self.crossover);
        let b_norm = norm(&asm.rhs).max(f64::MIN_POSITIVE);
        let mut x = vec![asm.initial_guess; n];
        #[cfg(feature = "fault-inject")]
        let max_cycles = {
            crate::fault::begin_solve();
            crate::fault::poison_field(&mut x);
            crate::fault::truncated_budget(self.max_cycles)
        };
        #[cfg(not(feature = "fault-inject"))]
        let max_cycles = self.max_cycles;
        let mut r = vec![0.0; n];
        let mut e = vec![0.0; n];
        let mut ax = vec![0.0; n];
        let mut ae = vec![0.0; n];
        let mut cycles = 0_usize;
        let mut matvecs = 0_usize;

        let mut residual = asm.residual_norm(&plan, &x, &asm.rhs, b_norm, &mut ax);
        matvecs += 1;
        let mut trajectory = vec![(0, residual)];
        while residual > self.tol && residual.is_finite() && cycles < max_cycles {
            for ((rv, bv), av) in r.iter_mut().zip(&asm.rhs).zip(&ax) {
                *rv = bv - av;
            }
            e.fill(0.0);
            mg.v_cycle_scaled(&asm, &mut ws, &r, &mut e);
            // Line-searched correction `x += α·e` with
            // `α = ⟨e,r⟩ / ⟨e,A·e⟩`: piecewise-constant aggregation
            // misscales the coarse correction by a roughly constant
            // spectral factor, which stalls the plain `x += e` iteration
            // on large meshes; the optimal step makes the cycle a
            // preconditioned steepest-descent step, which converges for
            // every SPD operator. The dots are serial, so thread-count
            // independence is preserved.
            plan.map_mut(&mut ae, |range, chunk| {
                asm.matvec_range(&e, chunk, range, None);
            });
            matvecs += 1;
            let den = dot(&e, &ae);
            let alpha = if den > 0.0 { dot(&e, &r) / den } else { 1.0 };
            for (xv, ev) in x.iter_mut().zip(&e) {
                *xv += alpha * ev;
            }
            cycles += 1;
            residual = asm.residual_norm(&plan, &x, &asm.rhs, b_norm, &mut ax);
            matvecs += 1;
            #[cfg(feature = "fault-inject")]
            {
                residual = crate::fault::corrupt_residual(cycles, residual);
            }
            trajectory.push((cycles, residual));
        }

        if !residual.is_finite() || !x.iter().all(|v| v.is_finite()) {
            return Err(SolveError::Diverged {
                iterations: cycles,
                residual,
            });
        }
        if residual > self.tol {
            return Err(SolveError::NotConverged {
                iterations: cycles,
                residual,
            });
        }
        for ((rv, bv), av) in r.iter_mut().zip(&asm.rhs).zip(&ax) {
            *rv = bv - av;
        }
        let level_residuals = mg.level_norms(&r, &mut ws);
        let stats = SolverStats {
            iterations: cycles,
            residual,
            matvecs,
            cycles,
            level_residuals,
            preconditioner: Preconditioner::Multigrid,
            precision: Precision::F64,
            refinements: 0,
            assembly_seconds: asm.assembly_seconds,
            solve_seconds: t0.elapsed().as_secs_f64() - asm.assembly_seconds,
            threads: plan.threads(),
            trajectory,
        };
        Ok(asm.solution(&x, stats, p.total_power().watts()))
    }
}

impl Default for MgSolver {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heatsink::Heatsink;
    use crate::CgSolver;
    use tsc_rng::Rng64;
    use tsc_units::{HeatTransferCoefficient, Length, Power, Temperature, ThermalConductivity};

    /// A heterogeneous problem with a bottom sink and scattered sources.
    fn hetero(nx: usize, ny: usize, nz: usize, seed: u64) -> Problem {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut p = Problem::uniform_block(
            nx,
            ny,
            nz,
            Length::from_millimeters(1.0),
            Length::from_millimeters(1.0),
            Length::from_micrometers(50.0),
            ThermalConductivity::new(30.0),
        );
        for k in 0..nz {
            p.set_layer_conductivity(
                k,
                ThermalConductivity::new(rng.gen_range_f64(0.5..150.0)),
                ThermalConductivity::new(rng.gen_range_f64(0.5..150.0)),
            );
        }
        p.set_bottom_heatsink(Heatsink::new(
            HeatTransferCoefficient::new(rng.gen_range_f64(1e4..1e6)),
            Temperature::from_celsius(25.0),
        ));
        for _ in 0..4 {
            p.add_power(
                rng.gen_range(0..nx),
                rng.gen_range(0..ny),
                rng.gen_range(0..nz),
                Power::from_watts(rng.gen_range_f64(0.05..2.0)),
            );
        }
        p
    }

    /// `Pᵀ·A·P` exactness: applying the coarsened stencil to a coarse
    /// vector must equal restrict(A(prolong(v))) on the fine grid.
    #[test]
    fn coarse_operator_is_exactly_galerkin() {
        let p = hetero(7, 5, 6, 0x11);
        let asm = Assembled::build(&p).expect("well-posed");
        let mut rng = Rng64::seed_from_u64(0x12);
        for f in [[2, 1, 1], [1, 2, 1], [1, 1, 2], [2, 2, 2], [2, 1, 2]] {
            let coarse = coarsen(&asm, f);
            let nc = coarse.dim.len();
            let v: Vec<f64> = (0..nc).map(|_| rng.gen_range_f64(-1.0..1.0)).collect();
            // Direct application of the coarse stencil.
            let mut direct = vec![0.0; nc];
            coarse.matvec_range(&v, &mut direct, 0..nc, None);
            // R·A·P applied on the fine grid.
            let nf = asm.dim.len();
            let mut pv = vec![0.0; nf];
            prolong_add(asm.dim, coarse.dim, f, &v, &mut pv);
            let mut apv = vec![0.0; nf];
            asm.matvec_range(&pv, &mut apv, 0..nf, None);
            let mut rap = vec![0.0; nc];
            restrict(asm.dim, coarse.dim, f, &apv, &mut rap);
            for (a, b) in direct.iter().zip(&rap) {
                assert!(
                    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-12),
                    "Galerkin mismatch for factors {f:?}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn semicoarsening_picks_the_strong_direction() {
        // 50 µm layers vs 1 mm lateral pitch: g_z/g_x ≈ 400, so only z
        // may coarsen.
        let p = hetero(6, 6, 6, 0x21);
        let asm = Assembled::build(&p).expect("well-posed");
        assert_eq!(coarsen_factors(&asm), Some([1, 1, 2]));
        // An isotropic cube coarsens every direction.
        let mut iso = Problem::uniform_block(
            4,
            4,
            4,
            Length::from_millimeters(1.0),
            Length::from_millimeters(1.0),
            Length::from_millimeters(1.0),
            ThermalConductivity::new(10.0),
        );
        iso.set_bottom_heatsink(Heatsink::two_phase());
        let asm = Assembled::build(&iso).expect("well-posed");
        assert_eq!(coarsen_factors(&asm), Some([2, 2, 2]));
    }

    #[test]
    fn hierarchy_terminates_at_the_coarse_limit() {
        let p = hetero(8, 8, 12, 0x31);
        let asm = Assembled::build(&p).expect("well-posed");
        let params = MgParams {
            coarse_max: 32,
            ..MgParams::with_exec(1, usize::MAX)
        };
        let mg = MgHierarchy::build(&asm, &params).expect("SPD");
        assert!(mg.levels() > 2, "expected a real multilevel hierarchy");
        let dims = mg.dims();
        for w in dims.windows(2) {
            assert!(w[1].len() < w[0].len(), "levels must strictly shrink");
        }
        assert!(dims.last().expect("nonempty").len() <= 32);
    }

    #[test]
    fn dense_cholesky_matches_cg() {
        let p = hetero(4, 3, 5, 0x41);
        let asm = Assembled::build(&p).expect("well-posed");
        let chol = DenseCholesky::factor(&asm).expect("SPD");
        let n = asm.dim.len();
        let mut direct = vec![0.0; n];
        chol.solve(&asm.rhs, &mut direct);
        let cg = CgSolver::new().with_tolerance(1e-12).solve(&p).expect("cg");
        for (a, b) in direct.iter().zip(cg.temperatures.iter_kelvin()) {
            assert!((a - b).abs() < 1e-6, "direct {a} vs cg {b}");
        }
    }

    #[test]
    fn v_cycles_contract_the_residual() {
        let p = hetero(9, 9, 10, 0x51);
        let sol = MgSolver::new()
            .with_tolerance(1e-10)
            .with_coarse_limit(24)
            .solve(&p)
            .expect("mg converges");
        let traj = &sol.stats.trajectory;
        assert!(traj.len() >= 3, "expected several cycles, got {traj:?}");
        for w in traj.windows(2) {
            assert!(
                w[1].1 < w[0].1 * 0.95,
                "cycle failed to contract: {:?}",
                traj
            );
        }
        assert_eq!(sol.stats.cycles, sol.stats.iterations);
        assert_eq!(sol.stats.preconditioner, Preconditioner::Multigrid);
        assert!(
            sol.stats.level_residuals.len() >= 3,
            "expected a multilevel diagnostic, got {:?}",
            sol.stats.level_residuals
        );
    }

    #[test]
    fn mg_pcg_matches_jacobi_cg_closely() {
        let p = hetero(10, 8, 9, 0x61);
        let jacobi = CgSolver::new().with_tolerance(1e-10).solve(&p).expect("cg");
        let mg = CgSolver::new()
            .with_tolerance(1e-10)
            .with_preconditioner(Preconditioner::Multigrid)
            .solve(&p)
            .expect("mg-pcg");
        let max_diff = jacobi
            .temperatures
            .iter_kelvin()
            .zip(mg.temperatures.iter_kelvin())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f64, f64::max);
        assert!(max_diff <= 1e-6, "solutions deviate by {max_diff} K");
        assert_eq!(mg.stats.preconditioner, Preconditioner::Multigrid);
        assert!(mg.stats.cycles > 0);
    }

    #[test]
    fn poisoned_operator_fails_cholesky_not_nan() {
        let mut p = hetero(4, 4, 4, 0x71);
        p.add_power(1, 1, 1, Power::from_watts(f64::NAN));
        // NaN power only poisons the RHS; the operator stays SPD, so the
        // failure must surface as Diverged from the iteration, not Ok.
        match MgSolver::new().solve(&p).unwrap_err() {
            SolveError::Diverged { residual, .. } => assert!(!residual.is_finite()),
            other => panic!("expected Diverged, got {other:?}"),
        }
    }
}
