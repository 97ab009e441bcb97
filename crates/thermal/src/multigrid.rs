//! Geometric multigrid building blocks for the finite-volume thermal
//! system: the coarsening rule, Galerkin coarse operators, the
//! aggregation transfers and the dense coarsest-level solve. The one
//! hierarchy built from them is the f32 shadow of the mixed-precision
//! path ([`crate::kernels::HierarchyF32`]).
//!
//! * **Full coarsening.** Each level halves every extent of two or more
//!   cells. On a tier stack, where `g_z / g_x ~ 10³…10⁵`, a point
//!   smoother could not damp the laterally oscillatory, z-smooth modes
//!   that full coarsening stops representing; the shadow's z-line
//!   smoother solves each column's z coupling exactly, which is what
//!   makes full coarsening (grid complexity ≈ 1.15× the fine mesh)
//!   affordable.
//! * **Galerkin coarse operators in stencil form.** Restriction is
//!   aggregate summation and prolongation is piecewise-constant
//!   injection (`R = Pᵀ`), so `Pᵀ·A·P` of a face-conductance Laplacian
//!   is again a face-conductance Laplacian: a coarse face conductance is
//!   the sum of the fine interface conductances between the two
//!   aggregates (intra-aggregate faces cancel), and boundary
//!   conductances sum laterally. Every level is therefore a plain
//!   [`Assembled`] operator. A diagonal shift the faces do not carry
//!   (the transient stepper's `C/Δt`) aggregates the same way.
//! * **Dense Cholesky at the coarsest level** (≤ [`COARSE_MAX`] cells):
//!   exact, dependency-free, factored once per hierarchy.
//!
//! Determinism: transfers, coarsening and the direct solve are serial,
//! so they add no thread-count dependence to the cycle.

use crate::solver::{Assembled, SolveError};
use tsc_geometry::Dim3;

/// Coarsening stops at or below this many cells; the coarsest level is
/// solved directly (dense Cholesky).
pub(crate) const COARSE_MAX: usize = 512;

/// Per-direction coarsening factors for one level transition (1 = keep,
/// 2 = aggregate pairs; ceil sizing, so odd extents leave a lone
/// trailing aggregate).
pub(crate) type Factors = [usize; 3];

/// Halves every extent of two or more cells; `None` once every extent
/// is 1.
fn coarsen_factors(d: Dim3) -> Option<Factors> {
    let f = [d.nx, d.ny, d.nz].map(|n| if n >= 2 { 2 } else { 1 });
    (f != [1, 1, 1]).then_some(f)
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

/// The Galerkin chain below `fine`, coarsest last: each entry is the
/// factors that produced a level and its operator. Coarsening stops
/// once a level fits [`COARSE_MAX`] cells. `shift` is a diagonal term of
/// `fine` that its face conductances do not carry (the transient
/// stepper's `C/Δt`); it is summed over every aggregate into the coarse
/// diagonals, so each level is exactly `Pᵀ·(A + diag(shift))·P`.
pub(crate) fn galerkin_chain(fine: &Assembled, shift: Option<&[f64]>) -> Vec<(Factors, Assembled)> {
    let mut chain: Vec<(Factors, Assembled)> = Vec::new();
    let mut shift = shift.map(<[f64]>::to_vec);
    loop {
        let cur = chain.last().map_or(fine, |(_, op)| op);
        if cur.dim.len() <= COARSE_MAX {
            break;
        }
        let Some(f) = coarsen_factors(cur.dim) else {
            break;
        };
        let mut coarse = coarsen(cur, f);
        if let Some(s) = &mut shift {
            let mut cs = vec![0.0; coarse.dim.len()];
            restrict(cur.dim, coarse.dim, f, s, &mut cs);
            for (d, v) in coarse.diag.iter_mut().zip(&cs) {
                *d += v;
            }
            *s = cs;
        }
        chain.push((f, coarse));
    }
    chain
}

/// Per-direction index shifts of `f`: fine index `i` lies in coarse
/// aggregate `i >> shift` (every factor is 1 or 2).
fn shifts(f: Factors) -> [u32; 3] {
    debug_assert!(f.iter().all(|&v| v == 1 || v == 2), "factors {f:?}");
    f.map(usize::trailing_zeros)
}

/// Galerkin coarsening of a face-conductance operator under pairwise
/// aggregation: inter-aggregate fine face conductances sum into the
/// coarse face between the owning aggregates, intra-aggregate faces
/// vanish, and boundary conductances sum over each aggregate's footprint
/// on the boundary slab. With piecewise-constant transfer operators this
/// reproduces `Pᵀ·A·P` exactly (verified by the unit tests below).
fn coarsen(op: &Assembled, f: Factors) -> Assembled {
    let (nx, ny, nz) = (op.dim.nx, op.dim.ny, op.dim.nz);
    let [sx, sy, sz] = shifts(f);
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
        let ck = k >> sz;
        let z_face = k + 1 < nz && (k + 1) >> sz != ck;
        for j in 0..ny {
            let cj = j >> sy;
            let y_face = j + 1 < ny && (j + 1) >> sy != cj;
            for i in 0..nx {
                let ci = i >> sx;
                if i + 1 < nx && (i + 1) >> sx != ci {
                    gx[(ck * ncy + cj) * (ncx - 1) + ci] += op.gx[(k * ny + j) * (nx - 1) + i];
                }
                if y_face {
                    gy[(ck * (ncy - 1) + cj) * ncx + ci] += op.gy[(k * (ny - 1) + j) * nx + i];
                }
                if z_face {
                    gz[(ck * ncy + cj) * ncx + ci] += op.gz[(k * ny + j) * nx + i];
                }
            }
        }
    }
    let mut g_bottom = vec![0.0; ncx * ncy];
    let mut g_top = vec![0.0; ncx * ncy];
    for j in 0..ny {
        let cj = j >> sy;
        for i in 0..nx {
            let ci = i >> sx;
            // The fine bottom (k = 0) and top (k = nz-1) slabs always land
            // in the coarse bottom and top aggregates respectively, so the
            // boundary conductance aggregates laterally.
            g_bottom[cj * ncx + ci] += op.g_bottom[j * nx + i];
            g_top[cj * ncx + ci] += op.g_top[j * nx + i];
        }
    }
    Assembled::from_parts(cdim, gx, gy, gz, g_bottom, g_top)
}

/// Restriction `b_c = Pᵀ·r`: sums each aggregate's fine values, row by
/// row in fine order (serial — transfer cost is negligible next to
/// smoothing and must stay deterministic). Generic over the scalar: the
/// f32 cycle and the f64 shift aggregation share it.
pub(crate) fn restrict<T>(fd: Dim3, cd: Dim3, f: Factors, fine: &[T], coarse: &mut [T])
where
    T: Copy + Default + core::ops::AddAssign,
{
    let [sx, sy, sz] = shifts(f);
    coarse.fill(T::default());
    for k in 0..fd.nz {
        for j in 0..fd.ny {
            let frow = &fine[(k * fd.ny + j) * fd.nx..][..fd.nx];
            let crow = &mut coarse[((k >> sz) * cd.ny + (j >> sy)) * cd.nx..][..cd.nx];
            if sx == 0 {
                for (c, &v) in crow.iter_mut().zip(frow) {
                    *c += v;
                }
            } else {
                let (pairs, lone) = frow.as_chunks::<2>();
                for (c, &[a, b]) in crow.iter_mut().zip(pairs) {
                    *c += a;
                    *c += b;
                }
                if let [v] = lone {
                    crow[pairs.len()] += *v;
                }
            }
        }
    }
}

/// Prolongation `x += P·x_c`: piecewise-constant injection of each
/// aggregate's correction into its fine cells, row by row.
pub(crate) fn prolong_add<T>(fd: Dim3, cd: Dim3, f: Factors, coarse: &[T], fine: &mut [T])
where
    T: Copy + core::ops::AddAssign,
{
    let [sx, sy, sz] = shifts(f);
    for k in 0..fd.nz {
        for j in 0..fd.ny {
            let frow = &mut fine[(k * fd.ny + j) * fd.nx..][..fd.nx];
            let crow = &coarse[((k >> sz) * cd.ny + (j >> sy)) * cd.nx..][..cd.nx];
            if sx == 0 {
                for (o, &c) in frow.iter_mut().zip(crow) {
                    *o += c;
                }
            } else {
                let (pairs, lone) = frow.as_chunks_mut::<2>();
                let np = pairs.len();
                for (pair, &c) in pairs.iter_mut().zip(crow) {
                    pair[0] += c;
                    pair[1] += c;
                }
                if let [v] = lone {
                    *v += crow[np];
                }
            }
        }
    }
}

/// Dense Cholesky factorization of the coarsest-level operator — exact,
/// dependency-free, and tiny (≤ [`COARSE_MAX`] unknowns).
#[derive(Debug, Clone)]
pub(crate) struct DenseCholesky {
    n: usize,
    /// Rows of the lower-triangular factor `L`, packed: row `i` holds
    /// `L[i][0..=i]`.
    l: Vec<f64>,
    /// Rows of `Lᵀ`, packed: row `i` holds `L[i..n][i]` — the column of
    /// `L` that back substitution walks, stored contiguously.
    lt: Vec<f64>,
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
        let packed = n * (n + 1) / 2;
        let (mut l, mut lt) = (Vec::with_capacity(packed), Vec::with_capacity(packed));
        for i in 0..n {
            l.extend_from_slice(&a[i * n..=i * n + i]);
            lt.extend((i..n).map(|k| a[k * n + i]));
        }
        Ok(Self { n, l, lt })
    }

    /// Solves `A·x = b` by forward then backward substitution, each
    /// reading its factor rows contiguously.
    pub(crate) fn solve(&self, b: &[f64], x: &mut [f64]) {
        let n = self.n;
        debug_assert_eq!(b.len(), n);
        debug_assert_eq!(x.len(), n);
        let mut row = 0;
        for i in 0..n {
            let li = &self.l[row..=row + i];
            let mut s = b[i];
            for (lv, xv) in li.iter().zip(&x[..i]) {
                s -= lv * xv;
            }
            x[i] = s / li[i];
            row += i + 1;
        }
        let mut row = self.lt.len();
        for i in (0..n).rev() {
            row -= n - i;
            let ui = &self.lt[row..row + n - i];
            let mut s = x[i];
            for (uv, xv) in ui[1..].iter().zip(&x[i + 1..]) {
                s -= uv * xv;
            }
            x[i] = s / ui[0];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heatsink::Heatsink;
    use crate::problem::Problem;
    use crate::{CgSolver, Precision};
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

    /// The shifted chain is Galerkin too: its first coarse level applied
    /// to `v` equals `R·(A + diag(s))·P·v`.
    #[test]
    fn shifted_chain_is_exactly_galerkin() {
        let p = hetero(16, 12, 6, 0x13);
        let asm = Assembled::build(&p).expect("well-posed");
        let nf = asm.dim.len();
        let shift: Vec<f64> = (0..nf).map(|c| 0.01 * (1 + c % 7) as f64).collect();
        let shifted = asm.shifted(&shift);
        let chain = galerkin_chain(&shifted, Some(&shift));
        let (f, coarse) = &chain[0];
        let nc = coarse.dim.len();
        let v: Vec<f64> = (0..nc)
            .map(|c| ((c * 13 % 17) as f64) / 17.0 - 0.3)
            .collect();
        let mut direct = vec![0.0; nc];
        coarse.matvec_range(&v, &mut direct, 0..nc, None);
        let mut pv = vec![0.0; nf];
        prolong_add(asm.dim, coarse.dim, *f, &v, &mut pv);
        let mut apv = vec![0.0; nf];
        asm.matvec_range(&pv, &mut apv, 0..nf, Some(&shift));
        let mut rap = vec![0.0; nc];
        restrict(asm.dim, coarse.dim, *f, &apv, &mut rap);
        for (a, b) in direct.iter().zip(&rap) {
            assert!(
                (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-12),
                "shifted Galerkin mismatch: {a} vs {b}"
            );
        }
    }

    /// The transfers as they indexed before: one division per cell.
    fn restrict_by_division<T>(fd: Dim3, cd: Dim3, f: Factors, fine: &[T]) -> Vec<T>
    where
        T: Copy + Default + core::ops::AddAssign,
    {
        let mut coarse = vec![T::default(); cd.len()];
        for k in 0..fd.nz {
            for j in 0..fd.ny {
                for i in 0..fd.nx {
                    let c = ((k / f[2]) * cd.ny + j / f[1]) * cd.nx + i / f[0];
                    coarse[c] += fine[(k * fd.ny + j) * fd.nx + i];
                }
            }
        }
        coarse
    }

    fn prolong_by_division<T>(fd: Dim3, cd: Dim3, f: Factors, coarse: &[T], fine: &mut [T])
    where
        T: Copy + core::ops::AddAssign,
    {
        for k in 0..fd.nz {
            for j in 0..fd.ny {
                for i in 0..fd.nx {
                    let c = ((k / f[2]) * cd.ny + j / f[1]) * cd.nx + i / f[0];
                    fine[(k * fd.ny + j) * fd.nx + i] += coarse[c];
                }
            }
        }
    }

    /// The coarse face conductances as [`coarsen`] summed them before:
    /// one division per cell and neighbour.
    fn coarse_faces_by_division(op: &Assembled, f: Factors, cd: Dim3) -> [Vec<f64>; 3] {
        let (nx, ny, nz) = (op.dim.nx, op.dim.ny, op.dim.nz);
        let (ncx, ncy, ncz) = (cd.nx, cd.ny, cd.nz);
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
        [gx, gy, gz]
    }

    /// Every factor pattern the chain can produce (each direction 1 or
    /// 2, not all 1), on even, odd and unit extents: the shift-indexed
    /// transfers and coarsening equal the division form bit for bit
    /// (transfers in f32 and f64).
    #[test]
    fn transfers_equal_the_division_form_bitwise() {
        let mut rng = Rng64::seed_from_u64(0x7a);
        let mut patterns = Vec::new();
        for fx in [1, 2] {
            for fy in [1, 2] {
                for fz in [1, 2] {
                    if [fx, fy, fz] != [1, 1, 1] {
                        patterns.push([fx, fy, fz]);
                    }
                }
            }
        }
        // The chains below must only ever use these patterns.
        for dim in [(50, 50, 3), (1, 5, 2), (7, 1, 9), (20, 20, 20)] {
            let asm = Assembled::build(&hetero(dim.0, dim.1, dim.2, 0x7b)).expect("well-posed");
            for (f, _) in galerkin_chain(&asm, None) {
                assert!(patterns.contains(&f), "unexpected factors {f:?}");
            }
        }
        for f in patterns {
            for fd in [
                Dim3::new(7, 5, 6),
                Dim3::new(8, 6, 4),
                Dim3::new(1, 3, 5),
                Dim3::new(9, 1, 1),
            ] {
                let cd = Dim3::new(
                    coarse_extent(fd.nx, f[0]),
                    coarse_extent(fd.ny, f[1]),
                    coarse_extent(fd.nz, f[2]),
                );
                let asm = Assembled::build(&hetero(fd.nx, fd.ny, fd.nz, 0x7c)).expect("well-posed");
                let c = coarsen(&asm, f);
                assert_eq!(c.dim, cd);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let want = coarse_faces_by_division(&asm, f, cd);
                for (got, want) in [&c.gx, &c.gy, &c.gz].into_iter().zip(&want) {
                    assert_eq!(bits(got), bits(want), "coarsen {f:?} {fd:?}");
                }

                let fine: Vec<f64> = (0..fd.len())
                    .map(|_| rng.gen_range_f64(-1e3..1e3))
                    .collect();
                let fine32: Vec<f32> = fine.iter().map(|&v| v as f32).collect();
                let coarse: Vec<f64> = (0..cd.len())
                    .map(|_| rng.gen_range_f64(-1.0..1.0))
                    .collect();
                let coarse32: Vec<f32> = coarse.iter().map(|&v| v as f32).collect();

                let mut got = vec![f64::NAN; cd.len()];
                restrict(fd, cd, f, &fine, &mut got);
                let want = restrict_by_division(fd, cd, f, &fine);
                assert!(
                    got.iter()
                        .zip(&want)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "restrict f64 {f:?} {fd:?}"
                );
                let mut got32 = vec![f32::NAN; cd.len()];
                restrict(fd, cd, f, &fine32, &mut got32);
                let want32 = restrict_by_division(fd, cd, f, &fine32);
                assert!(
                    got32
                        .iter()
                        .zip(&want32)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "restrict f32 {f:?} {fd:?}"
                );

                let (mut got, mut want) = (fine.clone(), fine.clone());
                prolong_add(fd, cd, f, &coarse, &mut got);
                prolong_by_division(fd, cd, f, &coarse, &mut want);
                assert!(
                    got.iter()
                        .zip(&want)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "prolong f64 {f:?} {fd:?}"
                );
                let (mut got32, mut want32) = (fine32.clone(), fine32.clone());
                prolong_add(fd, cd, f, &coarse32, &mut got32);
                prolong_by_division(fd, cd, f, &coarse32, &mut want32);
                assert!(
                    got32
                        .iter()
                        .zip(&want32)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "prolong f32 {f:?} {fd:?}"
                );
            }
        }
    }

    /// The packed forward rows and transposed back-substitution rows
    /// reproduce the column-reading substitution on the full factor bit
    /// for bit.
    #[test]
    fn packed_cholesky_solve_equals_the_column_form_bitwise() {
        let asm = Assembled::build(&hetero(6, 5, 7, 0x42)).expect("well-posed");
        let chol = DenseCholesky::factor(&asm).expect("SPD");
        let n = chol.n;
        let mut full = vec![0.0; n * n];
        let mut row = 0;
        for i in 0..n {
            full[i * n..=i * n + i].copy_from_slice(&chol.l[row..=row + i]);
            row += i + 1;
        }
        let mut rng = Rng64::seed_from_u64(0x43);
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range_f64(-1.0..1.0)).collect();
        let mut want = vec![0.0; n];
        for i in 0..n {
            let mut s = b[i];
            for k in 0..i {
                s -= full[i * n + k] * want[k];
            }
            want[i] = s / full[i * n + i];
        }
        for i in (0..n).rev() {
            let mut s = want[i];
            for k in i + 1..n {
                s -= full[k * n + i] * want[k];
            }
            want[i] = s / full[i * n + i];
        }
        let mut got = vec![0.0; n];
        chol.solve(&b, &mut got);
        assert!(got
            .iter()
            .zip(&want)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn coarsening_halves_every_extent_of_two_or_more() {
        // Strong vertical anisotropy no longer restricts coarsening to
        // z: the z-line smoother handles it, so every direction halves.
        assert_eq!(coarsen_factors(Dim3::new(6, 6, 6)), Some([2, 2, 2]));
        assert_eq!(coarsen_factors(Dim3::new(1, 5, 2)), Some([1, 2, 2]));
        assert_eq!(coarsen_factors(Dim3::new(1, 1, 1)), None);
        let p = hetero(50, 50, 3, 0x21);
        let asm = Assembled::build(&p).expect("well-posed");
        let chain = galerkin_chain(&asm, None);
        let dims: Vec<Dim3> = chain.iter().map(|(_, op)| op.dim).collect();
        assert_eq!(dims, [Dim3::new(25, 25, 2), Dim3::new(13, 13, 1)]);
    }

    #[test]
    fn hierarchy_terminates_at_the_coarse_limit() {
        let p = hetero(20, 20, 20, 0x31);
        let asm = Assembled::build(&p).expect("well-posed");
        let chain = galerkin_chain(&asm, None);
        assert!(chain.len() > 1, "expected a real multilevel hierarchy");
        let mut sizes = vec![asm.dim.len()];
        sizes.extend(chain.iter().map(|(_, op)| op.dim.len()));
        for w in sizes.windows(2) {
            assert!(w[1] < w[0], "levels must strictly shrink: {sizes:?}");
        }
        assert!(*sizes.last().expect("nonempty") <= COARSE_MAX);
        assert!(
            sizes[sizes.len() - 2] > COARSE_MAX,
            "stops at the first fit"
        );
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
    fn mg_pcg_matches_jacobi_cg_closely() {
        // The mixed path's inner solve is MG-PCG over the f32 shadow.
        let p = hetero(10, 8, 9, 0x61);
        let jacobi = CgSolver::new().with_tolerance(1e-10).solve(&p).expect("cg");
        let mixed = CgSolver::new()
            .with_tolerance(1e-10)
            .with_precision(Precision::Mixed)
            .solve(&p)
            .expect("mixed mg-pcg");
        let max_diff = jacobi
            .temperatures
            .iter_kelvin()
            .zip(mixed.temperatures.iter_kelvin())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f64, f64::max);
        assert!(max_diff <= 1e-6, "solutions deviate by {max_diff} K");
        assert_eq!(mixed.stats.precision, Precision::Mixed);
        assert!(mixed.stats.cycles > 0);
    }

    #[test]
    fn poisoned_operator_fails_cholesky_not_nan() {
        // Poisoned conductances make the operator non-SPD: the
        // factorization refuses instead of producing NaN factors.
        let p = hetero(4, 4, 4, 0x71);
        let mut asm = Assembled::build(&p).expect("well-posed");
        asm.diag[5] = f64::NAN;
        assert!(matches!(
            DenseCholesky::factor(&asm),
            Err(SolveError::Diverged { .. })
        ));
        asm.diag[5] = -1.0;
        assert!(DenseCholesky::factor(&asm).is_err());
        // NaN power only poisons the RHS; the operator stays SPD, so the
        // mixed solve must surface Diverged from the iteration, not Ok.
        let mut p = hetero(4, 4, 4, 0x71);
        p.add_power(1, 1, 1, Power::from_watts(f64::NAN));
        let solver = CgSolver::new().with_precision(Precision::Mixed);
        match solver.solve(&p).unwrap_err() {
            SolveError::Diverged { residual, .. } => assert!(!residual.is_finite()),
            other => panic!("expected Diverged, got {other:?}"),
        }
    }
}
