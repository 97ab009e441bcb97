//! Mixed-precision solver kernels: an f32 multigrid-preconditioned CG
//! wrapped in f64 iterative refinement — the production solve path —
//! and [`Assembled::solve_system`], the one entry that picks between it
//! and f64 Jacobi-CG.
//!
//! The speed of this path comes from the multigrid preconditioner — a
//! handful of iterations where Jacobi-CG needs hundreds — more than
//! from the narrower type. f32 halves the bytes per cell, which pays on
//! meshes whose vectors spill the cache. On the service meshes (a few
//! thousand cells, resident in L2) a kernel's cost is the instructions
//! it executes, and the f32 matvec is only ~1.4× faster than the f64
//! one (`kernels::tests::kernel_profile`). A raw f32 solve cannot
//! reach the 1e-11 relative tolerance the golden flows pin. The classic
//! fix is iterative refinement: the **outer** loop computes the true
//! residual `r = b − A·x` in f64, normalises it to unit norm (so the
//! inner problem always sits in the well-scaled centre of the f32
//! range), solves the correction equation `A·d ≈ r/‖r‖` entirely in f32
//! with MG-PCG to a loose inner tolerance, and accumulates
//! `x += ‖r‖·d` back in f64. Every convergence decision is made on the
//! f64 residual, so the reported tolerance is honest; each pass
//! contracts the residual by roughly the inner tolerance, so a handful
//! of passes reach 1e-11. If a pass fails to contract (f32 has hit its
//! accuracy floor on a pathological operator) the solve finishes on f64
//! Jacobi-CG — the oracle — *continuing from the refined iterate*, so
//! the mixed path is never less robust than f64, only faster.
//!
//! The inner solve preconditions with [`HierarchyF32`], the workspace's
//! one multigrid hierarchy: a fully coarsened Galerkin chain
//! ([`crate::multigrid`]) smoothed by z-line Jacobi, built from the fine
//! operator alone. Should its coarsest Cholesky fail (poisoned
//! conductances), solves on that operator run Jacobi-CG outright.
//!
//! The f32 operator is stored structure-of-arrays ([`OpF32`]) and both
//! precisions apply it through one kernel,
//! [`crate::solver::stencil_matvec`]: per z-slab, one pass per stencil
//! term, each a straight zip the autovectorizer packs (`gy` and `gz` as
//! one zip over the whole slab, only `gx` row by row). A V-cycle starts
//! from a zero guess, so its pre-smooth skips the `A·0` matvec, and the
//! transfers index aggregates by shifts rather than divisions. Every
//! one of these keeps each element's arithmetic in the order of the
//! scalar loop it replaces, so the solves are bitwise what they were.
//!
//! Determinism: the inner f32 kernels use the same per-slab ordered
//! reductions and band-disjoint writes as the f64 path, and the z-line
//! solve and coarse levels run serially, so the mixed path is also
//! bitwise independent of the thread count — verified by the
//! race-check harness.

use crate::engine::ExecPlan;
use crate::multigrid::{galerkin_chain, prolong_add, restrict, DenseCholesky, Factors};
use crate::solver::{
    norm, ordered_sum, slab_dot_wide_into, stencil_matvec, Assembled, CgParams, Faces, Precision,
    SolveError, SolverStats,
};
use std::time::Instant;
use tsc_geometry::Dim3;

/// Outer refinement passes before the solve is declared stuck. Each
/// pass contracts the residual by roughly [`INNER_TOL`], so a healthy
/// solve needs ~3; the budget only exists to bound pathological cases
/// (which finish on Jacobi-CG long before exhausting it).
const MAX_REFINE: usize = 60;

/// Relative tolerance of the inner f32 correction solve. The *outer*
/// contraction an f32 correction can deliver is floored at roughly
/// `κ(A)·ε_f32` (≈ 1e-2 on the high-contrast production stacks)
/// regardless of how far the inner residual is pushed below it, so the
/// inner solve stops at that floor — solving deeper burns iterations
/// without improving the outer trajectory. The refinement loop simply
/// runs more cheap passes; total inner iterations stay close to what
/// one f64 solve would need.
const INNER_TOL: f64 = 1e-2;

/// Iteration budget of one inner f32 MG-PCG solve. MG-PCG reaches
/// [`INNER_TOL`] in well under 20 iterations on every mesh in the test
/// fleet; the cap converts an inner stall into a prompt Jacobi-CG
/// finish.
const INNER_MAX_ITER: usize = 200;

/// An outer pass must contract the f64 residual to at most this factor,
/// or the mixed path is declared stalled and finishes on Jacobi-CG.
const STALL_FACTOR: f64 = 0.25;

/// Damping of the z-line Jacobi smoother. The line solve absorbs the
/// dominant z coupling exactly, leaving a weakly coupled lateral
/// Jacobi iteration, which is well damped just under 1.
const LINE_OMEGA: f32 = 0.9;

/// Structure-of-arrays f32 copy of one [`Assembled`] operator level.
///
/// Same face-conductance indexing as [`Assembled`] (`gx` is
/// `(nx−1)·ny·nz`, x-major; `gy` is `nx·(ny−1)·nz`; `gz` is
/// `nx·ny·(nz−1)`).
#[derive(Debug, Clone)]
pub(crate) struct OpF32 {
    dim: Dim3,
    gx: Vec<f32>,
    gy: Vec<f32>,
    gz: Vec<f32>,
    diag: Vec<f32>,
}

fn narrow(v: &[f64]) -> Vec<f32> {
    v.iter().map(|&x| x as f32).collect()
}

impl OpF32 {
    pub(crate) fn from_assembled(op: &Assembled) -> Self {
        Self {
            dim: op.dim,
            gx: narrow(&op.gx),
            gy: narrow(&op.gy),
            gz: narrow(&op.gz),
            diag: narrow(&op.diag),
        }
    }

    fn faces(&self) -> Faces<'_, f32> {
        Faces {
            dim: self.dim,
            diag: &self.diag,
            gx: &self.gx,
            gy: &self.gy,
            gz: &self.gz,
        }
    }

    /// `out[c − range.start] = (A·x)[c]` for `c` in the slab-aligned
    /// `range` — [`stencil_matvec`] in f32.
    pub(crate) fn matvec_range(&self, x: &[f32], out: &mut [f32], range: std::ops::Range<usize>) {
        stencil_matvec(&self.faces(), None, x, out, range);
    }
}

/// Thomas factorization of one level's z-line tridiagonal part: for
/// every (i, j) column, the tridiagonal matrix with the operator's full
/// diagonal on the diagonal and `−gz` on the off-diagonals. All
/// `nx·ny` columns share the same elimination recurrence, so both the
/// factorization and the solve run as straight slab-wise vector passes
/// (a "vectorized Thomas" over the lateral plane) instead of per-column
/// scalar loops.
///
/// `w[c] = 1 / (diag[c] − gz[c−slab]·c[c−slab])` is the reciprocal
/// pivot and `c[c] = gz[c]·w[c]` the elimination multiplier (zero on
/// the last slab).
#[derive(Debug, Clone)]
struct LineZ {
    w: Vec<f32>,
    c: Vec<f32>,
}

impl LineZ {
    fn factor(op: &OpF32) -> Self {
        let (slab, nz) = (op.dim.nx * op.dim.ny, op.dim.nz);
        let n = slab * nz;
        let mut w = vec![0.0f32; n];
        let mut c = vec![0.0f32; n];
        for k in 0..nz {
            for s in 0..slab {
                let idx = k * slab + s;
                let denom = if k == 0 {
                    op.diag[idx]
                } else {
                    op.diag[idx] - op.gz[idx - slab] * c[idx - slab]
                };
                w[idx] = 1.0 / denom;
                if k + 1 < nz {
                    c[idx] = op.gz[idx] * w[idx];
                }
            }
        }
        Self { w, c }
    }

    /// `d = T⁻¹·r` for the factored tridiagonal `T`, as slab-wise
    /// forward substitution then back substitution. Serial over slabs
    /// (the recurrence runs along z, the banding direction), so the
    /// result is trivially thread-count independent; each pass is a
    /// straight zip the autovectorizer packs.
    fn solve(&self, dim: Dim3, gz: &[f32], r: &[f32], d: &mut [f32]) {
        let (slab, nz) = (dim.nx * dim.ny, dim.nz);
        for ((dv, rv), wv) in d[..slab].iter_mut().zip(&r[..slab]).zip(&self.w[..slab]) {
            *dv = rv * wv;
        }
        for k in 1..nz {
            let (prev, cur) = d.split_at_mut(k * slab);
            let prev = &prev[(k - 1) * slab..];
            let cur = &mut cur[..slab];
            let row = k * slab..(k + 1) * slab;
            let gzr = &gz[(k - 1) * slab..k * slab];
            for ((((dv, pv), gv), rv), wv) in cur
                .iter_mut()
                .zip(prev)
                .zip(gzr)
                .zip(&r[row.clone()])
                .zip(&self.w[row])
            {
                *dv = (rv + gv * pv) * wv;
            }
        }
        for k in (0..nz.saturating_sub(1)).rev() {
            let (cur, next) = d.split_at_mut((k + 1) * slab);
            let cur = &mut cur[k * slab..];
            let next = &next[..slab];
            for ((dv, nv), cv) in cur
                .iter_mut()
                .zip(next)
                .zip(&self.c[k * slab..(k + 1) * slab])
            {
                *dv += cv * nv;
            }
        }
    }
}

/// Per-level f32 scratch of one inner V-cycle.
#[derive(Debug, Clone)]
struct LevelBufs32 {
    x: Vec<f32>,
    b: Vec<f32>,
    r: Vec<f32>,
    d: Vec<f32>,
}

/// Reusable scratch of one mixed solve, sized once per hierarchy: the
/// outer refinement loop's vectors and execution plan, and the inner
/// solve's [`InnerF32`].
#[derive(Debug, Clone)]
pub(crate) struct WorkspaceF32 {
    /// Outer residual `rhs − A·x` (f64).
    r: Vec<f64>,
    /// `A·x` of the outer residual check (f64).
    ax: Vec<f64>,
    /// Inner right-hand side `r/‖r‖`, narrowed.
    r32: Vec<f32>,
    /// Inner correction `d ≈ A⁻¹·r32`.
    d32: Vec<f32>,
    /// Per-slab partials of the finest level's reductions.
    parts: Vec<f64>,
    /// The outer loop's plan over the finest level, with the
    /// `(threads, crossover)` it was built for.
    plan: Option<((usize, usize), ExecPlan)>,
    inner: InnerF32,
}

/// Scratch of the inner f32 MG-PCG: the finest-level CG vectors, the
/// finest level's V-cycle buffers, per-level buffers below it and the
/// f64 staging pair for the (f64) coarsest direct solve.
#[derive(Debug, Clone)]
struct InnerF32 {
    r0: Vec<f32>,
    d0: Vec<f32>,
    tail: Vec<LevelBufs32>,
    coarse_b: Vec<f64>,
    coarse_x: Vec<f64>,
    cg_r: Vec<f32>,
    cg_z: Vec<f32>,
    cg_p: Vec<f32>,
    cg_ap: Vec<f32>,
}

/// The f32 preconditioner hierarchy of a mixed solve: every level's
/// operator narrowed to [`OpF32`] on the fully coarsened Galerkin chain,
/// a z-line factorization per level, and a (still f64) coarsest-level
/// Cholesky factor — the direct solve is a negligible fraction of the
/// cycle, and keeping it in f64 costs nothing while anchoring the
/// cycle's coarse corrections.
#[derive(Debug)]
pub(crate) struct HierarchyF32 {
    ops: Vec<OpF32>,
    dims: Vec<Dim3>,
    factors: Vec<Factors>,
    plans: Vec<ExecPlan>,
    chol: DenseCholesky,
    line: Vec<LineZ>,
}

impl HierarchyF32 {
    /// Builds the hierarchy for `A + diag(shift)` (`shift` is the
    /// transient stepper's `C/Δt`; `None` for steady solves). The inner
    /// cycle is only a preconditioner, so it trades spectral detail for
    /// a cheap, fully coarsened chain — a weaker cycle merely costs
    /// inner CG iterations. The finest level runs under the
    /// `threads`/`crossover` execution plan; coarse-level plans are
    /// serial: those grids are small, and a fixed serial schedule is
    /// trivially thread-count independent.
    ///
    /// # Errors
    ///
    /// [`SolveError::Diverged`] when the coarsest operator fails the
    /// Cholesky SPD check. It cannot, mathematically — Galerkin
    /// aggregation of an SPD operator is SPD — but poisoned
    /// conductances can.
    pub(crate) fn build(
        fine: &Assembled,
        shift: Option<&[f64]>,
        threads: usize,
        crossover: usize,
    ) -> Result<Self, SolveError> {
        let shifted = shift.map(|s| fine.shifted(s));
        let fine = shifted.as_ref().unwrap_or(fine);
        let chain = galerkin_chain(fine, shift);
        let chol = DenseCholesky::factor(chain.last().map_or(fine, |(_, op)| op))?;
        let levels = || std::iter::once(fine).chain(chain.iter().map(|(_, op)| op));
        let dims: Vec<Dim3> = levels().map(Assembled::dim).collect();
        let plans = dims
            .iter()
            .enumerate()
            .map(|(l, &d)| {
                if l == 0 {
                    ExecPlan::new(d, threads, crossover)
                } else {
                    ExecPlan::new(d, 1, usize::MAX)
                }
            })
            .collect();
        let ops: Vec<OpF32> = levels().map(OpF32::from_assembled).collect();
        let line = ops.iter().map(LineZ::factor).collect();
        Ok(Self {
            ops,
            dims,
            factors: chain.iter().map(|&(f, _)| f).collect(),
            plans,
            chol,
            line,
        })
    }

    /// 2-norm of the f64 residual `r` restricted down this hierarchy's
    /// chain, finest first — [`SolverStats::level_residuals`] of a
    /// mixed solve.
    fn level_norms(&self, r: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.dims.len());
        out.push(norm(r));
        let mut src = Vec::new();
        for l in 0..self.dims.len() - 1 {
            let mut coarse = vec![0.0; self.dims[l + 1].len()];
            let fine = if l == 0 { r } else { &src };
            restrict(
                self.dims[l],
                self.dims[l + 1],
                self.factors[l],
                fine,
                &mut coarse,
            );
            out.push(norm(&coarse));
            src = coarse;
        }
        out
    }

    /// Fresh scratch sized for this hierarchy.
    pub(crate) fn workspace(&self) -> WorkspaceF32 {
        let n0 = self.dims[0].len();
        let nc = self.dims[self.dims.len() - 1].len();
        WorkspaceF32 {
            r: vec![0.0; n0],
            ax: vec![0.0; n0],
            r32: vec![0.0; n0],
            d32: vec![0.0; n0],
            parts: vec![0.0; self.dims[0].nz],
            plan: None,
            inner: InnerF32 {
                r0: vec![0.0; n0],
                d0: vec![0.0; n0],
                tail: self.dims[1..]
                    .iter()
                    .map(|d| LevelBufs32 {
                        x: vec![0.0; d.len()],
                        b: vec![0.0; d.len()],
                        r: vec![0.0; d.len()],
                        d: vec![0.0; d.len()],
                    })
                    .collect(),
                coarse_b: vec![0.0; nc],
                coarse_x: vec![0.0; nc],
                cg_r: vec![0.0; n0],
                cg_z: vec![0.0; n0],
                cg_p: vec![0.0; n0],
                cg_ap: vec![0.0; n0],
            },
        }
    }

    /// One damped z-line Jacobi pass at `level`: `x += ω·T⁻¹·(b − A·x)`.
    fn smooth(&self, level: usize, b: &[f32], x: &mut [f32], r: &mut [f32], d: &mut [f32]) {
        self.residual(level, b, x, r);
        self.line[level].solve(self.dims[level], &self.ops[level].gz, r, d);
        self.plans[level].map_mut(x, |range, chunk| {
            for (o, dv) in chunk.iter_mut().zip(&d[range]) {
                *o += LINE_OMEGA * dv;
            }
        });
    }

    /// [`Self::smooth`] from `x = 0`, without the `A·0` matvec: the
    /// residual of a zero guess is `b` itself, so the pass is
    /// `x = 0 + ω·T⁻¹·b`. The `0 +` is kept on purpose — it is the add
    /// the generic pass performs on the zeroed `x`, and it maps a `−0`
    /// correction to `+0` exactly as that pass does — so for an
    /// operator with finite, non-negative entries (where `A·0` is `+0`
    /// and `b − 0` is `b`) the result is bitwise the generic pass's.
    fn smooth_from_zero(&self, level: usize, b: &[f32], x: &mut [f32], d: &mut [f32]) {
        self.line[level].solve(self.dims[level], &self.ops[level].gz, b, d);
        self.plans[level].map_mut(x, |range, chunk| {
            for (o, dv) in chunk.iter_mut().zip(&d[range]) {
                *o = 0.0 + LINE_OMEGA * dv;
            }
        });
    }

    /// `r = b − A·x` at `level`.
    fn residual(&self, level: usize, b: &[f32], x: &[f32], r: &mut [f32]) {
        let op = &self.ops[level];
        self.plans[level].map_mut(r, |range, chunk| {
            op.matvec_range(x, chunk, range.clone());
            for (o, bv) in chunk.iter_mut().zip(&b[range]) {
                *o = bv - *o;
            }
        });
    }

    /// One V-cycle on `A·x = b` at `level` from a zero initial guess,
    /// which it never reads: `x` is overwritten. Pre-smooth (from zero),
    /// restrict the residual, recurse, prolong the correction,
    /// post-smooth; the coarsest level solves directly.
    #[allow(clippy::too_many_arguments)] // recursion state, not an API
    fn cycle(
        &self,
        level: usize,
        b: &[f32],
        x: &mut [f32],
        r: &mut [f32],
        d: &mut [f32],
        tail: &mut [LevelBufs32],
        cb64: &mut [f64],
        cx64: &mut [f64],
    ) {
        if level + 1 == self.dims.len() {
            for (wide, v) in cb64.iter_mut().zip(b.iter()) {
                *wide = f64::from(*v);
            }
            self.chol.solve(cb64, cx64);
            for (xv, v) in x.iter_mut().zip(cx64.iter()) {
                *xv = *v as f32;
            }
            return;
        }
        self.smooth_from_zero(level, b, x, d);
        self.residual(level, b, x, r);
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
        let LevelBufs32 {
            x: cx,
            b: cb,
            r: cr,
            d: cd,
        } = next;
        self.cycle(level + 1, cb, cx, cr, cd, rest, cb64, cx64);
        prolong_add(
            self.dims[level],
            self.dims[level + 1],
            self.factors[level],
            cx,
            x,
        );
        self.smooth(level, b, x, r, d);
    }

    /// Inner f32 MG-PCG on `A·x = b`, starting from `x = 0`, run to
    /// [`INNER_TOL`] relative. All dot products accumulate in f64 over
    /// the per-slab ordered partials (`parts`, one slot per slab), so
    /// the iteration is bitwise thread-count independent like the f64
    /// path. Returns `(iterations, matvecs, cycles,
    /// converged-and-finite)` — the caller treats `false` as a signal to
    /// finish on Jacobi-CG, never as an error.
    fn solve_correction(
        &self,
        ws: &mut InnerF32,
        b: &[f32],
        x: &mut [f32],
        parts: &mut [f64],
    ) -> (usize, usize, usize, bool) {
        let op = &self.ops[0];
        let plan = &self.plans[0];
        let slab = self.dims[0].nx * self.dims[0].ny;
        let InnerF32 {
            r0,
            d0,
            tail,
            coarse_b,
            coarse_x,
            cg_r,
            cg_z,
            cg_p,
            cg_ap,
        } = ws;

        x.fill(0.0);
        cg_r.copy_from_slice(b);
        // The caller hands over `b = r/‖r‖` scaled to unit f64 norm, so
        // the narrowed ‖b‖ is 1 up to f32 rounding — close enough for a
        // 1e-2 inner tolerance check, and skipping the reduction saves a
        // full pass per refinement. A non-finite b still trips the
        // p_ap/residual guards below.
        let b_norm = 1.0f64;
        let mut residual = 1.0f64;
        let mut iterations = 0_usize;
        let mut matvecs = 0_usize;
        let mut cycles = 0_usize;

        self.cycle(0, cg_r, cg_z, r0, d0, tail, coarse_b, coarse_x);
        cycles += 1;
        cg_p.copy_from_slice(cg_z);
        let mut rz = cg_r
            .iter()
            .zip(cg_z.iter())
            .map(|(&r, &z)| f64::from(r) * f64::from(z))
            .sum::<f64>();

        while residual > INNER_TOL && residual.is_finite() && iterations < INNER_MAX_ITER {
            plan.map_mut_slabs(cg_ap, parts, |range, chunk, p| {
                op.matvec_range(cg_p, chunk, range.clone());
                slab_dot_wide_into(&cg_p[range], chunk, slab, p);
            });
            matvecs += 1;
            let p_ap = ordered_sum(parts.iter().copied());
            if p_ap <= 0.0 || !p_ap.is_finite() {
                return (iterations, matvecs, cycles, false);
            }
            let alpha = rz / p_ap;
            let alpha32 = alpha as f32;
            plan.map_mut_slabs(cg_r, parts, |range, rs, p| {
                for (rv, av) in rs.iter_mut().zip(&cg_ap[range]) {
                    *rv -= alpha32 * av;
                }
                slab_dot_wide_into(rs, rs, slab, p);
            });
            plan.map_mut(x, |range, xs| {
                for (xv, p) in xs.iter_mut().zip(&cg_p[range]) {
                    *xv += alpha32 * p;
                }
            });
            let rr = ordered_sum(parts.iter().copied());
            residual = rr.sqrt() / b_norm;
            iterations += 1;
            if residual <= INNER_TOL || !residual.is_finite() {
                break;
            }
            self.cycle(0, cg_r, cg_z, r0, d0, tail, coarse_b, coarse_x);
            cycles += 1;
            let rz_new = cg_r
                .iter()
                .zip(cg_z.iter())
                .map(|(&r, &z)| f64::from(r) * f64::from(z))
                .sum::<f64>();
            let beta = rz_new / rz;
            rz = rz_new;
            let beta32 = beta as f32;
            plan.map_mut(cg_p, |range, chunk| {
                for (o, zv) in chunk.iter_mut().zip(&cg_z[range]) {
                    *o = zv + beta32 * *o;
                }
            });
        }

        let ok = residual.is_finite() && residual <= INNER_TOL && x.iter().all(|v| v.is_finite());
        (iterations, matvecs, cycles, ok)
    }
}

/// The mixed path's per-operator state: the f32 shadow hierarchy, built
/// on first use, and what the solves through it did. Whoever owns the
/// operator owns its shadow — a [`crate::SolveContext`], a transient
/// run, one electrothermal loop, one [`crate::CgSolver::solve`] — and
/// drops it with the operator. The hierarchy is built for the diagonal
/// shift of the first solve, so one slot serves one shifted operator.
#[derive(Debug, Default)]
pub(crate) struct Shadow {
    state: ShadowState,
    /// Shadow hierarchies built.
    pub(crate) builds: usize,
    /// Mixed solves that finished on Jacobi-CG: a refinement pass
    /// stalled, or the shadow could not be factored.
    pub(crate) f64_fallbacks: usize,
}

impl Shadow {
    /// A fresh slot for a [`Precision::Mixed`] solve; `None` — f64
    /// Jacobi-CG — for [`Precision::F64`].
    pub(crate) fn for_precision(precision: Precision) -> Option<Self> {
        (precision == Precision::Mixed).then(Self::default)
    }
}

#[derive(Debug, Default)]
enum ShadowState {
    #[default]
    Unbuilt,
    Ready(Box<(HierarchyF32, WorkspaceF32)>),
    /// The coarsest Cholesky failed (poisoned operator).
    Unfactorable,
}

impl Assembled {
    /// The one solve entry, behind [`crate::CgSolver::solve`],
    /// [`crate::SolveContext::solve`],
    /// [`crate::transient::TransientRun::step`] and the electrothermal
    /// loop: `(A + diag(shift))·x = rhs` from the warm start in `x`.
    /// Without a shadow it runs f64 Jacobi-CG, the oracle. With one it
    /// runs the mixed path over the shadow's hierarchy, building it on
    /// first use; an operator whose hierarchy cannot be factored runs
    /// Jacobi-CG instead.
    pub(crate) fn solve_system(
        &self,
        shift: Option<&[f64]>,
        rhs: &[f64],
        x: &mut [f64],
        params: &CgParams,
        shadow: Option<&mut Shadow>,
    ) -> Result<SolverStats, SolveError> {
        let Some(Shadow {
            state,
            builds,
            f64_fallbacks,
        }) = shadow
        else {
            return self.cg_core(shift, rhs, x, params);
        };
        if matches!(state, ShadowState::Unbuilt) {
            *state = match HierarchyF32::build(self, shift, params.threads, params.crossover) {
                Ok(h32) => {
                    *builds += 1;
                    let ws = h32.workspace();
                    ShadowState::Ready(Box::new((h32, ws)))
                }
                Err(_) => ShadowState::Unfactorable,
            };
        }
        match state {
            ShadowState::Ready(built) => {
                let (h32, ws) = &mut **built;
                self.cg_core_mixed(shift, rhs, x, params, h32, ws, f64_fallbacks)
            }
            _ => {
                *f64_fallbacks += 1;
                self.cg_core(shift, rhs, x, params)
            }
        }
    }

    /// Mixed-precision solve of `(A + diag(shift))·x = rhs` to
    /// `params.tol` relative: f64 iterative refinement (see the module
    /// docs) around [`HierarchyF32::solve_correction`]. When an outer
    /// pass stalls it counts a fallback and finishes on
    /// [`Assembled::cg_core`] from the refined iterate, so the error
    /// contract is exactly the f64 solver's.
    #[allow(clippy::too_many_arguments)] // internal kernel behind solve_system
    fn cg_core_mixed(
        &self,
        shift: Option<&[f64]>,
        rhs: &[f64],
        x: &mut [f64],
        params: &CgParams,
        h32: &HierarchyF32,
        ws32: &mut WorkspaceF32,
        f64_fallbacks: &mut usize,
    ) -> Result<SolverStats, SolveError> {
        // tsc-analyze: allow(no-wallclock-numeric): feeds SolverStats wall-time only, never the numerics
        let t0 = Instant::now();
        let n = self.dim.len();
        debug_assert_eq!(rhs.len(), n);
        debug_assert_eq!(x.len(), n);
        #[cfg(feature = "fault-inject")]
        let max_refine = {
            crate::fault::begin_solve();
            crate::fault::poison_field(x);
            crate::fault::truncated_budget(MAX_REFINE)
        };
        #[cfg(not(feature = "fault-inject"))]
        let max_refine = MAX_REFINE;
        let key = (params.threads, params.crossover);
        if ws32.plan.as_ref().is_none_or(|(k, _)| *k != key) {
            ws32.plan = Some((key, ExecPlan::new(self.dim, key.0, key.1)));
        }
        let b_norm = norm(rhs).max(f64::MIN_POSITIVE);

        let mut matvecs = 0_usize;
        let mut cycles = 0_usize;
        let mut inner_iterations = 0_usize;
        let mut refinements = 0_usize;
        let mut stalled = false;

        let WorkspaceF32 {
            r,
            ax,
            r32,
            d32,
            parts,
            plan,
            inner,
        } = ws32;
        let plan = &plan.as_ref().expect("plan set above").1; // tsc-analyze: allow(no-unwrap): filled just above
        let mut residual = self.residual_norm(plan, x, rhs, b_norm, ax, parts, shift);
        matvecs += 1;
        let mut trajectory = vec![(0, residual)];

        while residual > params.tol && residual.is_finite() && refinements < max_refine {
            for ((rv, bv), av) in r.iter_mut().zip(rhs).zip(ax.iter()) {
                *rv = bv - av;
            }
            // ‖r‖ from the already-reduced relative residual; the scaling
            // puts the inner right-hand side at unit norm, dead centre of
            // the f32 dynamic range whatever the outer residual magnitude.
            let r_norm = residual * b_norm;
            let scale = 1.0 / r_norm;
            for (s, rv) in r32.iter_mut().zip(r.iter()) {
                *s = (rv * scale) as f32;
            }
            let (it32, mv32, cy32, ok) = h32.solve_correction(inner, r32, d32, parts);
            inner_iterations += it32;
            matvecs += mv32;
            cycles += cy32;
            if !ok {
                stalled = true;
                break;
            }
            let d32 = &*d32;
            plan.map_mut(x, |range, chunk| {
                for (o, dv) in chunk.iter_mut().zip(&d32[range]) {
                    *o += r_norm * f64::from(*dv);
                }
            });
            refinements += 1;
            let previous = residual;
            residual = self.residual_norm(plan, x, rhs, b_norm, ax, parts, shift);
            matvecs += 1;
            #[cfg(feature = "fault-inject")]
            {
                residual = crate::fault::corrupt_residual(refinements, residual);
            }
            trajectory.push((refinements, residual));
            if residual.is_finite() && residual > params.tol && residual > previous * STALL_FACTOR {
                stalled = true;
                break;
            }
        }

        if stalled || (residual > params.tol && residual.is_finite()) {
            // f32 hit its accuracy floor (or an inner solve failed):
            // finish on Jacobi-CG from the refined iterate. Robustness is
            // therefore never worse than the f64 oracle — only the speed
            // advantage is lost.
            *f64_fallbacks += 1;
            let mut fb = self.cg_core(shift, rhs, x, params)?;
            fb.precision = Precision::Mixed;
            fb.refinements = refinements;
            fb.iterations += inner_iterations;
            fb.matvecs += matvecs;
            fb.cycles += cycles;
            fb.solve_seconds = t0.elapsed().as_secs_f64();
            let mut merged = trajectory;
            merged.extend(
                fb.trajectory
                    .iter()
                    .filter(|&&(it, _)| it > 0)
                    .map(|&(it, res)| (it + refinements, res)),
            );
            fb.trajectory = merged;
            return Ok(fb);
        }

        if !residual.is_finite() || !x.iter().all(|v| v.is_finite()) {
            return Err(SolveError::Diverged {
                iterations: refinements,
                residual,
            });
        }
        if residual > params.tol {
            return Err(SolveError::NotConverged {
                iterations: refinements,
                residual,
            });
        }
        for ((rv, bv), av) in r.iter_mut().zip(rhs).zip(ax.iter()) {
            *rv = bv - av;
        }
        let level_residuals = h32.level_norms(r);
        Ok(SolverStats {
            iterations: inner_iterations,
            residual,
            matvecs,
            cycles,
            level_residuals,
            precision: Precision::Mixed,
            refinements,
            assembly_seconds: self.assembly_seconds,
            solve_seconds: t0.elapsed().as_secs_f64(),
            threads: plan.threads(),
            trajectory,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heatsink::Heatsink;
    use crate::problem::Problem;
    use crate::CgSolver;
    use std::ops::{AddAssign, Mul, SubAssign};
    use tsc_rng::Rng64;
    use tsc_units::{HeatFlux, Length, ThermalConductivity};

    fn test_problem(nx: usize, ny: usize, nz: usize) -> Problem {
        let mut p = Problem::uniform_block(
            nx,
            ny,
            nz,
            Length::from_millimeters(1.0),
            Length::from_millimeters(1.0),
            Length::from_micrometers(50.0),
            ThermalConductivity::new(120.0),
        );
        p.set_bottom_heatsink(Heatsink::two_phase());
        p.add_uniform_top_flux(HeatFlux::from_watts_per_square_cm(150.0));
        p
    }

    fn mixed_solve(p: &Problem, tol: f64) -> (Vec<f64>, SolverStats) {
        let asm = Assembled::build(p).expect("assembly");
        let params = CgParams {
            tol,
            max_iter: 50_000,
            threads: 1,
            crossover: usize::MAX,
            traj_stride: 1,
        };
        let mut shadow = Shadow::default();
        let mut x = vec![asm.initial_guess; asm.dim.len()];
        let stats = asm
            .solve_system(None, &asm.rhs, &mut x, &params, Some(&mut shadow))
            .expect("mixed solve");
        assert_eq!(shadow.builds, 1);
        assert_eq!(
            shadow.f64_fallbacks, 0,
            "a healthy mixed solve needs no f64"
        );
        let ShadowState::Ready(built) = &shadow.state else {
            panic!("the shadow factors");
        };
        let h32 = &built.0;
        assert_eq!(
            stats.level_residuals.len(),
            h32.dims.len(),
            "level residuals follow the shadow chain"
        );
        (x, stats)
    }

    /// The service's default mesh in shape: 8 tiers of 12×12 cells, four
    /// slabs per tier over a handle slab (`1 + 8·4 = 33` slabs), each
    /// tier a silicon device slab under three low-k BEOL slabs, on a
    /// two-phase heatsink. Kernel cost depends on the extents, not on
    /// the stack's exact conductances.
    fn service_mesh() -> Problem {
        let mut p = test_problem(12, 12, 33);
        for k in 1..33 {
            let (kz, kxy) = if k % 4 == 1 {
                (148.0, 148.0)
            } else {
                (0.6, 5.0)
            };
            p.set_layer_conductivity(
                k,
                ThermalConductivity::new(kz),
                ThermalConductivity::new(kxy),
            );
        }
        p
    }

    /// (minimum, median) wall time of `f` in µs over 301 batches of
    /// `reps` calls.
    fn time_us(reps: usize, mut f: impl FnMut()) -> (f64, f64) {
        f();
        let mut t: Vec<f64> = (0..301)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..reps {
                    f();
                }
                t0.elapsed().as_secs_f64() * 1e6 / reps as f64
            })
            .collect();
        t.sort_by(f64::total_cmp);
        (t[0], t[t.len() / 2])
    }

    /// Per-kernel wall time of the mixed path on the service mesh: both
    /// matvecs, the z-line solve, the transfers, the coarse direct
    /// solve, one V-cycle and one warm mixed solve. Ignored by default
    /// (it measures, it asserts nothing):
    ///
    /// `cargo test --release -p tsc-thermal --lib kernel_profile -- --ignored --nocapture`
    #[test]
    #[ignore]
    fn kernel_profile() {
        let p = service_mesh();
        let asm = Assembled::build(&p).expect("assembly");
        let h32 = HierarchyF32::build(&asm, None, 1, usize::MAX).expect("shadow");
        let mut ws = h32.workspace();
        let (d0, d1) = (h32.dims[0], h32.dims[1]);
        let (n0, n1) = (d0.len(), d1.len());
        let x64: Vec<f64> = (0..n0)
            .map(|i| 1.0 + ((i * 37 % 101) as f64) / 101.0)
            .collect();
        let x32: Vec<f32> = x64.iter().map(|&v| v as f32).collect();
        let (mut y64, mut y32, mut c32) = (vec![0.0; n0], vec![0.0f32; n0], vec![0.0f32; n1]);
        let (mut r32, mut z32) = (vec![0.0f32; n0], vec![0.0f32; n0]);
        let mut cx = vec![0.0; h32.dims[h32.dims.len() - 1].len()];
        let cb = cx.clone();
        println!("service mesh {d0:?}, levels {:?}", h32.dims);
        let rows = [
            (
                "f64 matvec",
                time_us(50, || asm.matvec_range(&x64, &mut y64, 0..n0, None)),
            ),
            (
                "f32 matvec",
                time_us(50, || h32.ops[0].matvec_range(&x32, &mut y32, 0..n0)),
            ),
            (
                "z-line solve",
                time_us(50, || h32.line[0].solve(d0, &h32.ops[0].gz, &x32, &mut y32)),
            ),
            (
                "restrict",
                time_us(50, || restrict(d0, d1, h32.factors[0], &x32, &mut c32)),
            ),
            (
                "prolong",
                time_us(50, || prolong_add(d0, d1, h32.factors[0], &c32, &mut y32)),
            ),
            ("coarse solve", time_us(50, || h32.chol.solve(&cb, &mut cx))),
            (
                "V-cycle",
                time_us(20, || {
                    let InnerF32 {
                        r0,
                        d0,
                        tail,
                        coarse_b,
                        coarse_x,
                        ..
                    } = &mut ws.inner;
                    h32.cycle(0, &x32, &mut z32, r0, d0, tail, coarse_b, coarse_x);
                }),
            ),
        ];
        for (name, (min, median)) in rows {
            println!("{name:14} {median:9.2} µs median {min:9.2} µs min");
        }
        r32.copy_from_slice(&x32);
        let params = CgParams {
            tol: 1e-8,
            max_iter: 50_000,
            threads: 1,
            crossover: usize::MAX,
            traj_stride: 1,
        };
        let mut shadow = Shadow::default();
        let mut x = vec![asm.initial_guess; n0];
        asm.solve_system(None, &asm.rhs, &mut x, &params, Some(&mut shadow))
            .expect("cold");
        let rhs: Vec<f64> = asm
            .rhs
            .iter()
            .zip(&asm.rhs_boundary)
            .map(|(b, bb)| bb + 0.8 * (b - bb))
            .collect();
        let start = x.clone();
        let mut stats = None;
        let (_, warm) = time_us(5, || {
            let mut xw = start.clone();
            stats = Some(
                asm.solve_system(None, &rhs, &mut xw, &params, Some(&mut shadow))
                    .expect("warm"),
            );
        });
        let st = stats.expect("ran");
        println!(
            "{:14} {warm:9.2} µs  ({} refinements, {} inner iterations, {} cycles, {} matvecs)",
            "warm solve", st.refinements, st.iterations, st.cycles, st.matvecs
        );
    }

    #[test]
    fn line_z_solve_inverts_the_tridiagonal_part() {
        // d = T⁻¹·r must satisfy T·d = r, where T couples each (i, j)
        // column along z with the operator's full diagonal and −gz
        // off-diagonals.
        let p = test_problem(5, 4, 7);
        let asm = Assembled::build(&p).expect("assembly");
        let op = OpF32::from_assembled(&asm);
        let line = LineZ::factor(&op);
        let (nx, ny, nz) = (asm.dim.nx, asm.dim.ny, asm.dim.nz);
        let slab = nx * ny;
        let n = asm.dim.len();
        let r: Vec<f32> = (0..n)
            .map(|i| ((i * 31 % 53) as f32) / 53.0 - 0.4)
            .collect();
        let mut d = vec![0.0f32; n];
        line.solve(asm.dim, &op.gz, &r, &mut d);
        for c in 0..n {
            let k = c / slab;
            let mut td = f64::from(op.diag[c]) * f64::from(d[c]);
            if k > 0 {
                td -= f64::from(op.gz[c - slab]) * f64::from(d[c - slab]);
            }
            if k + 1 < nz {
                td -= f64::from(op.gz[c]) * f64::from(d[c + slab]);
            }
            let rv = f64::from(r[c]);
            assert!(
                (td - rv).abs() <= 1e-4 * f64::from(op.diag[c]).max(1.0),
                "cell {c}: T·d = {td} vs r = {rv}"
            );
        }
    }

    #[test]
    fn shadow_hierarchy_uses_the_fully_coarsened_chain() {
        // The aggressive chain must coarsen laterally from the very
        // first level (the line smoother makes that affordable) and be
        // paired with a line factorization per level.
        let p = test_problem(16, 16, 13);
        let asm = Assembled::build(&p).expect("assembly");
        let h32 = HierarchyF32::build(&asm, None, 1, usize::MAX).expect("shadow");
        assert!(h32.dims.len() >= 2, "expected a multi-level chain");
        assert!(
            h32.dims[1].nx < h32.dims[0].nx && h32.dims[1].nz < h32.dims[0].nz,
            "first coarsening must be in all directions: {:?}",
            h32.dims
        );
        assert_eq!(h32.line.len(), h32.ops.len());
    }

    #[test]
    fn unfactorable_shadow_runs_jacobi_cg() {
        // A NaN face conductance poisons every coarse diagonal it
        // aggregates into: the shadow's coarsest Cholesky refuses it,
        // and the entry runs Jacobi-CG instead, which surfaces the
        // poison as a typed divergence.
        let p = test_problem(16, 16, 13);
        let mut asm = Assembled::build(&p).expect("assembly");
        // The face between slabs 1 and 2 joins two z-aggregates.
        asm.gz[asm.dim.nx * asm.dim.ny + 7] = f64::NAN;
        assert!(HierarchyF32::build(&asm, None, 1, usize::MAX).is_err());
        let params = CgSolver::new().params();
        let mut shadow = Shadow::default();
        for round in 1..=2 {
            let mut x = vec![asm.initial_guess; asm.dim.len()];
            let result = asm.solve_system(None, &asm.rhs, &mut x, &params, Some(&mut shadow));
            assert!(matches!(shadow.state, ShadowState::Unfactorable));
            assert_eq!((shadow.builds, shadow.f64_fallbacks), (0, round));
            assert!(
                matches!(result, Err(SolveError::Diverged { .. })),
                "round {round}: {result:?}"
            );
        }
    }

    #[test]
    fn f32_matvec_matches_f64_to_single_precision() {
        let p = test_problem(7, 5, 6);
        let asm = Assembled::build(&p).expect("assembly");
        let op = OpF32::from_assembled(&asm);
        let n = asm.dim.len();
        let x64: Vec<f64> = (0..n)
            .map(|i| ((i * 37 % 101) as f64) / 101.0 - 0.5)
            .collect();
        let x32: Vec<f32> = x64.iter().map(|&v| v as f32).collect();
        let mut y64 = vec![0.0; n];
        asm.matvec_range(&x64, &mut y64, 0..n, None);
        let mut y32 = vec![0.0f32; n];
        op.matvec_range(&x32, &mut y32, 0..n);
        let scale = asm.diag.iter().cloned().fold(0.0f64, f64::max);
        for (c, (&a, &b)) in y64.iter().zip(&y32).enumerate() {
            assert!(
                (a - f64::from(b)).abs() <= 1e-5 * scale,
                "cell {c}: f64 {a} vs f32 {b}"
            );
        }
    }

    /// The scalar gather loop every matvec pass schedule must reproduce
    /// bit for bit: per cell `diag`, `−gx⁺`, `−gx⁻`, `−gy⁺`, `−gy⁻`,
    /// `−gz⁺`, `−gz⁻`, `+shift`, in that order.
    fn gather_reference<T>(op: &Faces<'_, T>, shift: Option<&[T]>, x: &[T]) -> Vec<T>
    where
        T: Copy + Mul<Output = T> + SubAssign + AddAssign,
    {
        let (nx, ny, nz) = (op.dim.nx, op.dim.ny, op.dim.nz);
        let slab = nx * ny;
        let mut out = Vec::with_capacity(op.dim.len());
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let c = (k * ny + j) * nx + i;
                    let mut o = op.diag[c] * x[c];
                    if i + 1 < nx {
                        o -= op.gx[(k * ny + j) * (nx - 1) + i] * x[c + 1];
                    }
                    if i > 0 {
                        o -= op.gx[(k * ny + j) * (nx - 1) + i - 1] * x[c - 1];
                    }
                    if j + 1 < ny {
                        o -= op.gy[(k * (ny - 1) + j) * nx + i] * x[c + nx];
                    }
                    if j > 0 {
                        o -= op.gy[(k * (ny - 1) + j - 1) * nx + i] * x[c - nx];
                    }
                    if k + 1 < nz {
                        o -= op.gz[c] * x[c + slab];
                    }
                    if k > 0 {
                        o -= op.gz[c - slab] * x[c - slab];
                    }
                    if let Some(s) = shift {
                        o += s[c] * x[c];
                    }
                    out.push(o);
                }
            }
        }
        out
    }

    /// A random operator on `dim` with conductances spread over six
    /// decades, so a changed summation order shows in the low bits.
    fn random_operator(dim: Dim3, rng: &mut Rng64) -> Assembled {
        let (nx, ny, nz) = (dim.nx, dim.ny, dim.nz);
        let mut g = |len: usize| -> Vec<f64> {
            (0..len)
                .map(|_| 10f64.powf(rng.gen_range_f64(-3.0..3.0)))
                .collect()
        };
        let (gx, gy, gz) = (
            g((nx - 1) * ny * nz),
            g(nx * (ny - 1) * nz),
            g(nx * ny * (nz - 1)),
        );
        let (gb, gt) = (g(nx * ny), g(nx * ny));
        Assembled::from_parts(dim, gx, gy, gz, gb, gt)
    }

    /// Slab-aligned band splits of `nz` slabs: whole, one band per
    /// slab, and an uneven two-way split.
    fn bandings(dim: Dim3) -> Vec<Vec<std::ops::Range<usize>>> {
        let slab = dim.nx * dim.ny;
        let n = dim.len();
        let mut out = vec![
            vec![0..n],
            (0..dim.nz).map(|k| k * slab..(k + 1) * slab).collect(),
        ];
        if dim.nz > 2 {
            let mid = (dim.nz / 3 + 1) * slab;
            out.push(vec![0..mid, mid..n]);
        }
        out
    }

    #[test]
    fn matvecs_equal_the_scalar_gather_bitwise() {
        let mut rng = Rng64::seed_from_u64(0x5eed);
        let dims = [
            Dim3::new(7, 5, 6),
            Dim3::new(12, 12, 33),
            Dim3::new(3, 9, 4),
            Dim3::new(1, 5, 4),
            Dim3::new(6, 1, 3),
            Dim3::new(5, 4, 1),
            Dim3::new(1, 1, 7),
            Dim3::new(1, 1, 1),
        ];
        for dim in dims {
            let asm = random_operator(dim, &mut rng);
            let op32 = OpF32::from_assembled(&asm);
            let n = dim.len();
            let x64: Vec<f64> = (0..n).map(|_| rng.gen_range_f64(-2.0..2.0)).collect();
            let s64: Vec<f64> = (0..n).map(|_| rng.gen_range_f64(0.0..50.0)).collect();
            let x32: Vec<f32> = x64.iter().map(|&v| v as f32).collect();
            let s32: Vec<f32> = s64.iter().map(|&v| v as f32).collect();
            let faces64 = Faces {
                dim,
                diag: &asm.diag,
                gx: &asm.gx,
                gy: &asm.gy,
                gz: &asm.gz,
            };
            for shifted in [false, true] {
                let (sh64, sh32) = if shifted {
                    (Some(&s64[..]), Some(&s32[..]))
                } else {
                    (None, None)
                };
                let want64 = gather_reference(&faces64, sh64, &x64);
                let want32 = gather_reference(&op32.faces(), sh32, &x32);
                for bands in bandings(dim) {
                    let mut y64 = vec![f64::NAN; n];
                    let mut y32 = vec![f32::NAN; n];
                    for band in &bands {
                        asm.matvec_range(&x64, &mut y64[band.clone()], band.clone(), sh64);
                        if shifted {
                            stencil_matvec(
                                &op32.faces(),
                                sh32,
                                &x32,
                                &mut y32[band.clone()],
                                band.clone(),
                            );
                        } else {
                            op32.matvec_range(&x32, &mut y32[band.clone()], band.clone());
                        }
                    }
                    let bits64 = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let bits32 = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits64(&y64),
                        bits64(&want64),
                        "f64 {dim:?} shift {shifted} bands {bands:?}"
                    );
                    assert_eq!(
                        bits32(&y32),
                        bits32(&want32),
                        "f32 {dim:?} shift {shifted} bands {bands:?}"
                    );
                }
            }
        }
    }

    /// The V-cycle as it ran before the zero-guess pre-smooth: zero the
    /// level's `x`, then the generic smooth (with its `A·0` matvec).
    #[allow(clippy::too_many_arguments)] // mirrors `HierarchyF32::cycle`
    fn cycle_reference(
        h: &HierarchyF32,
        level: usize,
        b: &[f32],
        x: &mut [f32],
        r: &mut [f32],
        d: &mut [f32],
        tail: &mut [LevelBufs32],
        cb64: &mut [f64],
        cx64: &mut [f64],
    ) {
        if level + 1 == h.dims.len() {
            h.cycle(level, b, x, r, d, tail, cb64, cx64);
            return;
        }
        x.fill(0.0);
        h.smooth(level, b, x, r, d);
        h.residual(level, b, x, r);
        let (next, rest) = tail.split_first_mut().expect("one buffer per level");
        restrict(
            h.dims[level],
            h.dims[level + 1],
            h.factors[level],
            r,
            &mut next.b,
        );
        let LevelBufs32 {
            x: cx,
            b: cb,
            r: cr,
            d: cd,
        } = next;
        cycle_reference(h, level + 1, cb, cx, cr, cd, rest, cb64, cx64);
        prolong_add(h.dims[level], h.dims[level + 1], h.factors[level], cx, x);
        h.smooth(level, b, x, r, d);
    }

    #[test]
    fn zero_guess_cycle_equals_the_generic_smooth_from_zero() {
        let mut rng = Rng64::seed_from_u64(0xc1c1e);
        for (nx, ny, nz, shifted) in [(20, 20, 13, false), (12, 12, 33, false), (17, 11, 25, true)]
        {
            let p = test_problem(nx, ny, nz);
            let asm = Assembled::build(&p).expect("assembly");
            let n = asm.dim.len();
            let shift: Vec<f64> = (0..n).map(|_| rng.gen_range_f64(1.0..100.0)).collect();
            let h = HierarchyF32::build(&asm, shifted.then_some(&shift[..]), 1, usize::MAX)
                .expect("shadow");
            assert!(h.dims.len() >= 3, "want a real recursion: {:?}", h.dims);
            let b: Vec<f32> = (0..n)
                .map(|_| rng.gen_range_f64(-1.0..1.0) as f32)
                .collect();
            let run = |reference: bool| {
                let mut ws = h.workspace();
                // Garbage in every buffer: neither cycle may read a stale x.
                for lv in &mut ws.inner.tail {
                    lv.x.fill(f32::NAN);
                }
                let mut x = vec![f32::NAN; n];
                let InnerF32 {
                    r0,
                    d0,
                    tail,
                    coarse_b,
                    coarse_x,
                    ..
                } = &mut ws.inner;
                if reference {
                    cycle_reference(&h, 0, &b, &mut x, r0, d0, tail, coarse_b, coarse_x);
                } else {
                    h.cycle(0, &b, &mut x, r0, d0, tail, coarse_b, coarse_x);
                }
                x.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(run(false), run(true), "{nx}x{ny}x{nz} shifted {shifted}");
        }
    }

    #[test]
    fn mixed_reaches_f64_tolerance() {
        let p = test_problem(12, 10, 9);
        let tol = 1e-11;
        let (x, stats) = mixed_solve(&p, tol);
        assert!(stats.residual <= tol, "residual {}", stats.residual);
        assert_eq!(stats.precision, Precision::Mixed);
        assert!(stats.refinements >= 1, "expected refinement passes");
        assert!(x.iter().all(|v| v.is_finite()));
        // Cross-check against the f64 Jacobi-CG oracle.
        let sol = CgSolver::new()
            .with_tolerance(tol)
            .solve(&p)
            .expect("f64 solve");
        let y = sol.temperatures.as_kelvin().as_slice();
        let max_dev = x
            .iter()
            .zip(y)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_dev < 1e-8, "mixed vs f64 deviation {max_dev} K");
    }

    #[test]
    fn mixed_stats_count_refinements_and_work() {
        let p = test_problem(10, 10, 6);
        let (_, stats) = mixed_solve(&p, 1e-11);
        assert!(stats.iterations > 0, "inner iterations recorded");
        assert!(stats.matvecs > stats.refinements);
        assert!(stats.cycles > 0);
        assert_eq!(
            stats.trajectory.first().map(|&(it, _)| it),
            Some(0),
            "trajectory starts at the initial residual"
        );
        let indices: Vec<usize> = stats.trajectory.iter().map(|&(it, _)| it).collect();
        assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "trajectory indices must be strictly increasing: {indices:?}"
        );
    }
}
