//! Cross-solve reuse cache for repeated solves on one geometry.
//!
//! The placement and codesign flows re-solve the same mesh dozens of
//! times in a row (pillar-density bisection, placement verification,
//! dielectric sweeps), usually changing *only* the power map or only
//! the conductivity field between solves. A [`SolveContext`] keeps the
//! expensive per-geometry state alive across those solves:
//!
//! * the assembled operator (face-conductance arrays + diagonal),
//! * on the mixed-precision path, the f32 multigrid hierarchy and its
//!   factored coarsest level,
//! * a short history of recent (right-hand side, solution) pairs on the
//!   cached operator, from which the next solve starts.
//!
//! # Projected starts
//!
//! The steady problem `A·x = b` is linear, so a solution for a
//! right-hand side in the affine span of earlier right-hand sides is
//! the same affine combination of their solutions (Fischer, "Projection
//! techniques for iterative solution of Ax = b with successive
//! right-hand sides", CMAME 163, 1998). The history holds a reference
//! pair `(b₀, x₀)` — the newest solve that needed refinement — and an
//! orthonormal basis `qᵢ` of right-hand-side differences `bᵢ − b₀`, with
//! the matching solution differences `yᵢ` (`A·yᵢ ≈ qᵢ`). A new solve
//! starts from `x₀ + Σ cᵢ·yᵢ` with `cᵢ = qᵢ·(b − b₀)`: the least-squares
//! best match of `b` within the span. A power-only utilization change
//! lies in that span after two solves, so it starts converged. The
//! solver's outer residual test still certifies every answer.
//!
//! With no stored direction, or when `b` equals `b₀` bitwise, the start
//! is the previous field `x₀` — the plain warm start. A solve whose
//! start already met the tolerance changes nothing. A refined solve
//! becomes the reference pair, and its right-hand side either adds a
//! direction or, when it already lay in the span, corrects the stored
//! solution differences by a rank-one secant update (its start missed
//! only through their errors). The basis holds at most
//! [`MAX_DIRECTIONS`]; a new direction beyond that restarts it from the
//! newest pair. Every dot product runs serially in index order, so
//! starts are bitwise independent of the thread count.
//!
//! # Invalidation rules
//!
//! Before each solve the context compares the incoming [`Problem`]
//! against a snapshot of the cached operator's inputs:
//!
//! | change between solves            | action                                  |
//! |----------------------------------|-----------------------------------------|
//! | power map only                   | full reuse: new RHS, projected start    |
//! | conductivity / heatsink / mesh   | re-assemble operator + hierarchy; the   |
//! |                                  | history clears, but the warm field      |
//! |                                  | survives if the cell count is unchanged |
//! |                                  | (a nearby design's field is still an    |
//! |                                  | excellent initial guess)                |
//! | cell count                       | cold start                              |
//! | solver configuration (tolerance, | history and warm field dropped: a field |
//! | precision)                       | converged under looser arithmetic (f32  |
//! |                                  | inner) or a looser tolerance must never |
//! |                                  | seed a stricter solve                   |
//! | any failed solve                 | history and warm field dropped (never   |
//! |                                  | seed from a possibly-poisoned iterate)  |
//! | [`SolveContext::invalidate`]     | everything dropped                      |
//! | warm starting disabled           | nothing kept: every solve starts cold   |
//!
//! Only mixed solves build the hierarchy; f64 Jacobi-CG needs none. A
//! mixed solve whose refinement stalls finishes on Jacobi-CG, which
//! needs no extra state either.
//!
//! The snapshot covers everything [`crate::Problem`]'s conductance
//! assembly reads — mesh dimensions, cell pitches, layer thicknesses,
//! both heatsinks and both conductivity grids — so a cached operator can
//! never be silently stale.

use crate::kernels::Shadow;
use crate::problem::Problem;
use crate::solver::{dot, Assembled, CgSolver, Precision, Solution, SolveError};
use tsc_geometry::Dim3;
use tsc_units::Length;

use crate::heatsink::Heatsink;

/// Snapshot of every [`Problem`] input the assembled operator depends
/// on; the cached operator is valid exactly while these match.
#[derive(Debug)]
struct OperatorKey {
    dim: Dim3,
    dx: Length,
    dy: Length,
    dz: Vec<Length>,
    bottom: Option<Heatsink>,
    top: Option<Heatsink>,
    /// Per-column ambient overrides (the cached `rhs_boundary` bakes
    /// them in, so a changed map must invalidate the operator).
    bottom_ambient: Option<Vec<f64>>,
    top_ambient: Option<Vec<f64>>,
    kz: Vec<f64>,
    kxy: Vec<f64>,
}

impl OperatorKey {
    fn snapshot(p: &Problem) -> Self {
        Self {
            dim: p.dim(),
            dx: p.dx(),
            dy: p.dy(),
            dz: p.dz().to_vec(),
            bottom: p.bottom_heatsink(),
            top: p.top_heatsink(),
            bottom_ambient: p.bottom_ambient_map().map(|m| m.as_slice().to_vec()),
            top_ambient: p.top_ambient_map().map(|m| m.as_slice().to_vec()),
            kz: p.kz_flat().to_vec(),
            kxy: p.kxy_flat().to_vec(),
        }
    }

    /// Allocation-free validity check against an incoming problem.
    fn matches(&self, p: &Problem) -> bool {
        self.dim == p.dim()
            && self.dx == p.dx()
            && self.dy == p.dy()
            && self.dz.as_slice() == p.dz()
            && self.bottom == p.bottom_heatsink()
            && self.top == p.top_heatsink()
            && self.bottom_ambient.as_deref() == p.bottom_ambient_map().map(|m| m.as_slice())
            && self.top_ambient.as_deref() == p.top_ambient_map().map(|m| m.as_slice())
            && self.kz.as_slice() == p.kz_flat()
            && self.kxy.as_slice() == p.kxy_flat()
    }
}

/// Work counters accumulated across every solve through one context —
/// the observability record behind the cache-effectiveness tests and
/// the `BENCH_SOLVER.json` entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ContextStats {
    /// Solves requested through the context.
    pub solves: usize,
    /// Operator (re-)assemblies actually performed.
    pub assemblies: usize,
    /// Multigrid hierarchy constructions actually performed (mixed
    /// solves only).
    pub hierarchy_builds: usize,
    /// Mixed solves that finished on f64 Jacobi-CG, because a
    /// refinement pass stalled or the hierarchy could not be factored.
    /// Zero while refinement stays healthy.
    pub f64_fallbacks: usize,
    /// Solves that reused the cached operator as-is.
    pub operator_reuses: usize,
    /// Solves started from the history rather than the cold initial
    /// guess: the previous field or a projection (see
    /// `projected_starts`).
    pub warm_starts: usize,
    /// Warm starts that combined stored solutions — the projection of
    /// the right-hand side onto at least one stored direction — rather
    /// than copying the previous field.
    pub projected_starts: usize,
    /// Total solver iterations across all solves.
    pub total_iterations: usize,
    /// Total fine-grid matrix-vector products across all solves.
    pub total_matvecs: usize,
    /// Total multigrid V-cycles across all solves.
    pub total_cycles: usize,
}

/// Reuse cache for repeated [`CgSolver`] solves over one geometry (see
/// the module docs for the invalidation rules).
///
/// ```
/// use tsc_thermal::{CgSolver, Heatsink, Precision, Problem, SolveContext};
/// use tsc_units::{Length, Power, ThermalConductivity};
///
/// let mut p = Problem::uniform_block(
///     8, 8, 6,
///     Length::from_millimeters(1.0), Length::from_millimeters(1.0),
///     Length::from_micrometers(60.0),
///     ThermalConductivity::new(120.0),
/// );
/// p.set_bottom_heatsink(Heatsink::two_phase());
/// p.add_power(4, 4, 5, Power::from_watts(1.0));
///
/// let solver = CgSolver::new().with_precision(Precision::Mixed);
/// let mut ctx = SolveContext::new();
/// let first = ctx.solve(&p, &solver)?;
/// p.add_power(2, 2, 5, Power::from_watts(0.5)); // power-only delta
/// let second = ctx.solve(&p, &solver)?;
/// assert!(second.temperatures.max_temperature() > first.temperatures.max_temperature());
/// assert_eq!(ctx.stats().assemblies, 1); // operator reused
/// # Ok::<(), tsc_thermal::SolveError>(())
/// ```
#[derive(Debug, Default)]
pub struct SolveContext {
    key: Option<OperatorKey>,
    asm: Option<Assembled>,
    /// f32 hierarchy of the cached operator, for mixed solves.
    shadow: Shadow,
    history: History,
    warm_start: bool,
    stats: ContextStats,
}

/// Validity key of the cached warm-start field: the solver
/// configuration the field was converged under. A field from a looser
/// tolerance or the f32-inner mixed path must never silently seed a
/// solve with stricter (or merely different) convergence semantics — reusing it across configurations
/// would make the second solve's iteration count, trajectory, and
/// (for golden flows) bit pattern depend on unrelated earlier solves.
#[derive(Debug, Clone, Copy, PartialEq)]
struct WarmKey {
    tol: f64,
    precision: Precision,
}

impl WarmKey {
    fn of(solver: &CgSolver) -> Self {
        Self {
            tol: solver.tolerance(),
            precision: solver.precision(),
        }
    }
}

/// Right-hand-side directions the projection basis holds; a refined
/// solve that would add one more restarts the basis from its own pair.
const MAX_DIRECTIONS: usize = 3;

/// Where a solve's initial iterate came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Start {
    /// The operator's uniform initial guess.
    Cold,
    /// The previous field, copied.
    Warm,
    /// The projection onto at least one stored direction.
    Projected,
}

/// The recent solves of one operator under one [`WarmKey`]: the
/// reference pair `(b₀, x₀)` and the orthonormal basis of right-hand-side
/// differences with their solution differences (see the module docs).
/// Holds at most `(2·MAX_DIRECTIONS + 3)·n` f64, and a solve through it
/// allocates nothing once the buffers have their size.
#[derive(Debug, Default)]
struct History {
    /// Configuration the stored solutions converged under; `None` while
    /// the history is empty.
    key: Option<WarmKey>,
    /// Right-hand side of the reference pair; empty while unknown (after
    /// a re-assembly only the warm field survives).
    b0: Vec<f64>,
    /// Solution of the reference pair: the warm field.
    x0: Vec<f64>,
    /// Orthonormal right-hand-side directions, `n` values each.
    q: Vec<f64>,
    /// Solution differences matching `q`: `A·yᵢ ≈ qᵢ`.
    y: Vec<f64>,
    /// Scratch for `b − b₀`.
    db: Vec<f64>,
    /// Directions stored in `q` and `y`.
    directions: usize,
}

impl History {
    /// Forgets everything.
    fn clear(&mut self) {
        self.key = None;
        self.b0.clear();
        self.x0.clear();
        self.directions = 0;
    }

    /// Forgets what ties the history to the old operator — the
    /// reference right-hand side and the basis — keeping the warm field.
    fn forget_operator(&mut self) {
        self.b0.clear();
        self.directions = 0;
    }

    /// The start for `rhs`: the projection onto the stored directions,
    /// the warm field, or — with nothing usable under `key` — the cold
    /// `initial_guess`.
    fn start(&mut self, key: WarmKey, rhs: &[f64], initial_guess: f64) -> (Start, Vec<f64>) {
        let n = rhs.len();
        if self.key != Some(key) || self.x0.len() != n {
            self.clear();
            return (Start::Cold, vec![initial_guess; n]);
        }
        let mut x = self.x0.clone();
        if self.directions == 0 || self.b0 == rhs {
            return (Start::Warm, x);
        }
        self.db.resize(n, 0.0);
        for ((d, b), b0) in self.db.iter_mut().zip(rhs).zip(&self.b0) {
            *d = b - b0;
        }
        for (q, y) in self
            .q
            .chunks_exact(n)
            .zip(self.y.chunks_exact(n))
            .take(self.directions)
        {
            let c = dot(q, &self.db);
            for (xv, yv) in x.iter_mut().zip(y) {
                *xv += c * yv;
            }
        }
        (Start::Projected, x)
    }

    /// Records the converged pair `(rhs, x)` of a solve under `key`. A
    /// solve whose start already met the tolerance (`refined` false)
    /// leaves the history as it is; a refined one updates the basis and
    /// becomes the reference pair. After a cold start or a re-assembly
    /// the pair becomes the reference.
    fn record(&mut self, key: WarmKey, rhs: Vec<f64>, x: Vec<f64>, refined: bool) {
        if self.b0.is_empty() {
            self.key = Some(key);
            self.directions = 0;
        } else if !refined {
            return;
        } else {
            self.update_basis(&rhs, &x, key.tol);
        }
        self.b0 = rhs;
        self.x0 = x;
    }

    /// Folds a refined pair into the basis. `rhs − b₀` is orthogonalized
    /// against the basis (modified Gram–Schmidt, run twice), with
    /// `x − x₀` carried through the same steps; both are formed in the
    /// reference pair's own buffers, which the new pair replaces.
    ///
    /// - What is left is within the solver tolerance of the span: `rhs`
    ///   already lay in it, and the start missed only through the stored
    ///   differences' own errors. A rank-one secant update corrects them
    ///   so that `x₀ + Σ hᵢ·yᵢ` reproduces `x` (`hᵢ` the span
    ///   coordinates of `rhs − b₀`). Storing the leftover as a direction
    ///   would only amplify those errors.
    /// - Otherwise it is a new direction; a full basis restarts from the
    ///   new pair instead.
    fn update_basis(&mut self, rhs: &[f64], x: &[f64], tol: f64) {
        let n = rhs.len();
        let k = self.directions;
        let Self {
            b0: w, x0: v, q, y, ..
        } = self;
        for (wv, b) in w.iter_mut().zip(rhs) {
            *wv = b - *wv;
        }
        for (vv, xv) in v.iter_mut().zip(x) {
            *vv = xv - *vv;
        }
        let mut h = [0.0; MAX_DIRECTIONS];
        for _ in 0..2 {
            for ((qi, yi), hi) in q.chunks_exact(n).zip(y.chunks_exact(n)).zip(&mut h).take(k) {
                let c = dot(qi, w);
                *hi += c;
                for (wv, qv) in w.iter_mut().zip(qi) {
                    *wv -= c * qv;
                }
                for (vv, yv) in v.iter_mut().zip(yi) {
                    *vv -= c * yv;
                }
            }
        }
        let w_norm = dot(w, w).sqrt();
        if w_norm <= tol * dot(rhs, rhs).sqrt() {
            let hh = dot(&h, &h);
            if hh > 0.0 {
                for (yi, hi) in y.chunks_exact_mut(n).zip(h).take(k) {
                    let s = hi / hh;
                    for (yv, vv) in yi.iter_mut().zip(v.iter()) {
                        *yv += s * vv;
                    }
                }
            }
        } else if k == MAX_DIRECTIONS {
            self.directions = 0;
        } else {
            q.resize(MAX_DIRECTIONS * n, 0.0);
            y.resize(MAX_DIRECTIONS * n, 0.0);
            let scale = 1.0 / w_norm;
            for (qv, wv) in q[k * n..(k + 1) * n].iter_mut().zip(w.iter()) {
                *qv = scale * wv;
            }
            for (yv, vv) in y[k * n..(k + 1) * n].iter_mut().zip(v.iter()) {
                *yv = scale * vv;
            }
            self.directions += 1;
        }
    }
}

impl SolveContext {
    /// An empty context with warm-starting enabled.
    #[must_use]
    pub fn new() -> Self {
        Self {
            warm_start: true,
            ..Self::default()
        }
    }

    /// Builder: enables/disables starting each solve from the history
    /// of earlier solves — the previous field and the projection onto
    /// recent solutions alike (enabled by default; disabling is mainly
    /// for A/B measurements of the benefit). Disabled, every solve
    /// starts from the cold initial guess and nothing is stored.
    #[must_use]
    pub fn with_warm_start(mut self, enabled: bool) -> Self {
        self.warm_start = enabled;
        if !enabled {
            self.history = History::default();
        }
        self
    }

    /// Accumulated work counters.
    #[must_use]
    pub fn stats(&self) -> ContextStats {
        self.stats
    }

    /// Drops every cached artifact (operator, hierarchy, history).
    /// The next solve pays full assembly cost; counters are kept.
    pub fn invalidate(&mut self) {
        self.key = None;
        self.asm = None;
        self.shadow = Shadow::default();
        self.history = History::default();
    }

    /// Solves `p` with `solver`'s tolerance and precision, reusing
    /// whatever cached state is still valid (see the module docs).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`CgSolver::solve`]. A failed solve drops
    /// the history but keeps the cached operator (it is not implicated
    /// by an RHS-driven divergence).
    pub fn solve(&mut self, p: &Problem, solver: &CgSolver) -> Result<Solution, SolveError> {
        self.stats.solves += 1;
        let reuse = match (&self.key, &self.asm) {
            (Some(key), Some(_)) => key.matches(p),
            _ => false,
        };
        if reuse {
            self.stats.operator_reuses += 1;
        } else {
            let asm = Assembled::build(p)?;
            self.key = Some(OperatorKey::snapshot(p));
            self.asm = Some(asm);
            self.shadow = Shadow::default();
            self.history.forget_operator();
            self.stats.assemblies += 1;
        }

        let params = solver.params();
        let warm_key = WarmKey::of(solver);
        let Self {
            asm,
            shadow,
            history,
            warm_start,
            stats,
            ..
        } = self;
        // tsc-analyze: allow(no-unwrap): the caller populated the cache
        // in the branch directly above; None is unreachable here.
        let asm = asm.as_ref().expect("operator cached above");
        let rhs = asm.rhs_with_power(p.power_flat());
        let (start, mut x) = if *warm_start {
            history.start(warm_key, &rhs, asm.initial_guess)
        } else {
            (Start::Cold, vec![asm.initial_guess; rhs.len()])
        };
        match start {
            Start::Cold => {}
            Start::Warm => stats.warm_starts += 1,
            Start::Projected => {
                stats.warm_starts += 1;
                stats.projected_starts += 1;
            }
        }

        let before = (shadow.builds, shadow.f64_fallbacks);
        let mixed = (solver.precision() == Precision::Mixed).then_some(&mut *shadow);
        let result = asm.solve_system(None, &rhs, &mut x, &params, mixed);
        stats.hierarchy_builds += shadow.builds - before.0;
        stats.f64_fallbacks += shadow.f64_fallbacks - before.1;

        match result {
            Ok(solver_stats) => {
                stats.total_iterations += solver_stats.iterations;
                stats.total_matvecs += solver_stats.matvecs;
                stats.total_cycles += solver_stats.cycles;
                let refined = solver_stats.iterations > 0 || solver_stats.refinements > 0;
                let solution = asm.solution(&x, solver_stats, p.total_power().watts());
                if *warm_start {
                    history.record(warm_key, rhs, x, refined);
                }
                Ok(solution)
            }
            Err(e) => {
                // Never seed a later solve from a possibly-poisoned field.
                history.clear();
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heatsink::Heatsink;
    use tsc_units::{Power, ThermalConductivity};

    fn problem() -> Problem {
        let mut p = Problem::uniform_block(
            8,
            8,
            8,
            Length::from_millimeters(1.0),
            Length::from_millimeters(1.0),
            Length::from_micrometers(80.0),
            ThermalConductivity::new(60.0),
        );
        p.set_bottom_heatsink(Heatsink::two_phase());
        p.add_power(4, 4, 7, Power::from_watts(1.0));
        p
    }

    fn mg_solver() -> CgSolver {
        CgSolver::new()
            .with_tolerance(1e-9)
            .with_precision(Precision::Mixed)
    }

    #[test]
    fn power_only_delta_reuses_operator_and_hierarchy() {
        let mut p = problem();
        let mut ctx = SolveContext::new();
        let solver = mg_solver();
        ctx.solve(&p, &solver).expect("first");
        p.add_power(2, 2, 7, Power::from_watts(0.5));
        ctx.solve(&p, &solver).expect("second");
        let s = ctx.stats();
        assert_eq!(s.solves, 2);
        assert_eq!(s.assemblies, 1);
        assert_eq!(s.hierarchy_builds, 1);
        assert_eq!(s.operator_reuses, 1);
        assert_eq!(s.warm_starts, 1);
    }

    #[test]
    fn conductivity_delta_reassembles() {
        let mut p = problem();
        let mut ctx = SolveContext::new();
        let solver = mg_solver();
        ctx.solve(&p, &solver).expect("first");
        p.set_layer_conductivity(
            3,
            ThermalConductivity::new(5.0),
            ThermalConductivity::new(5.0),
        );
        ctx.solve(&p, &solver).expect("second");
        let s = ctx.stats();
        assert_eq!(s.assemblies, 2);
        assert_eq!(s.hierarchy_builds, 2);
        assert_eq!(s.operator_reuses, 0);
        // Same cell count: the previous field still warm-starts.
        assert_eq!(s.warm_starts, 1);
    }

    #[test]
    fn context_matches_direct_solve() {
        let p = problem();
        let mut ctx = SolveContext::new();
        let via_ctx = ctx.solve(&p, &mg_solver()).expect("ctx");
        let direct = mg_solver().solve(&p).expect("direct");
        let max_diff = via_ctx
            .temperatures
            .iter_kelvin()
            .zip(direct.temperatures.iter_kelvin())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f64, f64::max);
        assert_eq!(max_diff, 0.0, "first context solve must be identical");
    }

    #[test]
    fn warm_start_cuts_iterations_on_repeat_solves() {
        let p = problem();
        let solver = mg_solver();
        let mut warm = SolveContext::new();
        let mut cold = SolveContext::new().with_warm_start(false);
        for ctx in [&mut warm, &mut cold] {
            for _ in 0..3 {
                ctx.solve(&p, &solver).expect("converges");
            }
        }
        assert_eq!(cold.stats().warm_starts, 0);
        assert_eq!(warm.stats().warm_starts, 2);
        assert!(
            warm.stats().total_iterations < cold.stats().total_iterations,
            "warm {} vs cold {}",
            warm.stats().total_iterations,
            cold.stats().total_iterations
        );
    }

    #[test]
    fn failed_solve_drops_warm_field_but_recovers() {
        let mut p = problem();
        let mut ctx = SolveContext::new();
        let solver = mg_solver();
        ctx.solve(&p, &solver).expect("clean solve");
        p.add_power(1, 1, 1, Power::from_watts(f64::NAN));
        assert!(ctx.solve(&p, &solver).is_err());
        // Rebuild a clean problem: the poisoned warm field must be gone
        // and the context must still produce a correct solution.
        let clean = problem();
        let sol = ctx.solve(&clean, &solver).expect("recovered");
        assert!(sol.stats.residual.is_finite());
        assert!(sol.temperatures.iter_kelvin().all(f64::is_finite));
    }

    /// Whether solving `changed` right after the base [`problem`] makes
    /// a context re-assemble its operator.
    fn reassembles(changed: &Problem) -> bool {
        let solver = mg_solver();
        let mut ctx = SolveContext::new();
        ctx.solve(&problem(), &solver).expect("base");
        ctx.solve(changed, &solver).expect("changed");
        ctx.stats().assemblies == 2
    }

    #[test]
    fn fingerprint_tracks_exactly_the_operator_key() {
        // The context's operator key is the only operator identity a
        // pool relies on: every operator input below must make the next
        // solve re-assemble, while a power-only change must reuse the
        // operator.
        let mut powered = problem();
        powered.add_power(1, 1, 7, Power::from_watts(3.0));
        assert!(!reassembles(&powered), "power only");

        let mut layer = problem();
        layer.set_layer_conductivity(
            2,
            ThermalConductivity::new(5.0),
            ThermalConductivity::new(5.0),
        );
        assert!(reassembles(&layer), "layer conductivity");
        let mut hs = problem();
        hs.set_top_heatsink(Heatsink::forced_air());
        assert!(reassembles(&hs), "heatsink");
        // Same cell count, thinner layers.
        let mut mesh = Problem::uniform_block(
            8,
            8,
            8,
            Length::from_millimeters(1.0),
            Length::from_millimeters(1.0),
            Length::from_micrometers(70.0),
            ThermalConductivity::new(60.0),
        );
        mesh.set_bottom_heatsink(Heatsink::two_phase());
        mesh.add_power(4, 4, 7, Power::from_watts(1.0));
        assert!(reassembles(&mesh), "mesh");
    }

    #[test]
    fn fingerprint_sees_the_lowest_mantissa_bit_of_any_conductivity() {
        // One ulp of one conductivity anywhere in either grid is a new
        // operator.
        let dim = problem().dim();
        let cells = [
            (0, 0, 0),
            (dim.nx / 2, dim.ny / 2, dim.nz / 2),
            (dim.nx - 1, dim.ny - 1, dim.nz - 1),
        ];
        let ulp = |k: ThermalConductivity| {
            ThermalConductivity::new(f64::from_bits(k.get().to_bits() ^ 1))
        };
        for (i, j, k) in cells {
            let mut vertical = problem();
            let (kz, kxy) = (vertical.kz_at(i, j, k), vertical.kxy_at(i, j, k));
            vertical.set_conductivity(i, j, k, ulp(kz), kxy);
            assert!(reassembles(&vertical), "kz at ({i}, {j}, {k})");
            let mut lateral = problem();
            lateral.set_conductivity(i, j, k, kz, ulp(kxy));
            assert!(reassembles(&lateral), "kxy at ({i}, {j}, {k})");
        }
    }

    #[test]
    fn solver_config_switch_invalidates_warm_field() {
        // Regression (stale warm-start field): the warm field used to
        // survive *any* solve with a matching cell count, so an
        // f32-converged mixed solve could seed a subsequent strict-f64
        // solve. The warm key now pins tolerance and precision.
        let p = problem();
        let mut ctx = SolveContext::new();
        let f64_solver = CgSolver::new().with_tolerance(1e-9);
        let mixed_solver = mg_solver();

        ctx.solve(&p, &mixed_solver).expect("mixed cold");
        ctx.solve(&p, &f64_solver).expect("f64 after mixed");
        assert_eq!(
            ctx.stats().warm_starts,
            0,
            "precision switch must not warm-start"
        );
        ctx.solve(&p, &f64_solver).expect("f64 repeat");
        assert_eq!(ctx.stats().warm_starts, 1, "same config warm-starts");

        let loose = f64_solver.with_tolerance(1e-6);
        ctx.solve(&p, &loose).expect("loose");
        assert_eq!(
            ctx.stats().warm_starts,
            1,
            "tolerance switch must not warm-start"
        );
    }

    #[test]
    fn mixed_solves_reuse_cached_f32_hierarchy() {
        let mut p = problem();
        let mut ctx = SolveContext::new();
        let solver = mg_solver();
        let first = ctx.solve(&p, &solver).expect("first mixed");
        assert_eq!(first.stats.precision, Precision::Mixed);
        p.add_power(2, 2, 7, Power::from_watts(0.5));
        let second = ctx.solve(&p, &solver).expect("second mixed");
        assert_eq!(second.stats.precision, Precision::Mixed);
        let s = ctx.stats();
        assert_eq!(s.assemblies, 1, "operator reused across power delta");
        assert_eq!(s.hierarchy_builds, 1, "hierarchy reused");
        assert_eq!(s.warm_starts, 1, "same mixed config warm-starts");
        // The context path must agree with the direct solver.
        let direct = solver.solve(&p).expect("direct mixed");
        let max_diff = second
            .temperatures
            .iter_kelvin()
            .zip(direct.temperatures.iter_kelvin())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f64, f64::max)
            / direct.temperatures.max_temperature().kelvin();
        assert!(max_diff < 1e-9, "relative deviation {max_diff}");
    }

    #[test]
    fn clean_mixed_solves_build_no_f64_hierarchy() {
        let mut p = problem();
        let mut ctx = SolveContext::new();
        let solver = mg_solver();
        for _ in 0..2 {
            let sol = ctx.solve(&p, &solver).expect("mixed");
            assert_eq!(sol.stats.precision, Precision::Mixed);
            p.add_power(3, 3, 7, Power::from_watts(0.25));
        }
        assert_eq!(ctx.shadow.builds, 1, "the f32 hierarchy is cached");
        let s = ctx.stats();
        assert_eq!(s.hierarchy_builds, 1);
        assert_eq!(s.f64_fallbacks, 0, "no Jacobi-CG finish without a stall");
    }

    /// `problem()`'s geometry with its two sources scaled by `u`: a
    /// utilization family, affine in `u` on one operator.
    fn utilization(u: f64) -> Problem {
        let mut p = problem();
        p.add_power(4, 4, 7, Power::from_watts(u - 1.0));
        p.add_power(2, 2, 7, Power::from_watts(0.5 * u));
        p
    }

    fn max_abs_diff(a: &Solution, b: &Solution) -> f64 {
        a.temperatures
            .iter_kelvin()
            .zip(b.temperatures.iter_kelvin())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0_f64, f64::max)
    }

    #[test]
    fn third_utilization_starts_in_span_without_iterating() {
        let solver = mg_solver();
        let mut ctx = SolveContext::new();
        ctx.solve(&utilization(1.0), &solver).expect("seed");
        ctx.solve(&utilization(0.6), &solver).expect("seed");
        assert_eq!(ctx.history.directions, 1, "one refined power change");
        let third = utilization(0.85);
        let projected = ctx.solve(&third, &solver).expect("projected");
        let s = &projected.stats;
        assert_eq!(
            (s.iterations, s.refinements, s.cycles, s.matvecs),
            (0, 0, 0, 1)
        );
        assert!(s.residual <= solver.tolerance());
        assert_eq!(ctx.stats().projected_starts, 1);
        assert_eq!(ctx.stats().warm_starts, 2);
        let direct = solver.solve(&third).expect("direct");
        let dev = max_abs_diff(&projected, &direct);
        assert!(dev < 1e-6, "projected vs direct {dev} K");
    }

    #[test]
    fn exact_repeats_add_no_direction() {
        let solver = mg_solver();
        let mut ctx = SolveContext::new();
        ctx.solve(&utilization(1.0), &solver).expect("seed");
        let mut previous = ctx.solve(&utilization(0.5), &solver).expect("seed");
        for _ in 0..3 {
            let repeat = ctx.solve(&utilization(0.5), &solver).expect("repeat");
            assert_eq!(repeat.stats.iterations, 0);
            assert_eq!(repeat.stats.refinements, 0);
            assert_eq!(
                max_abs_diff(&repeat, &previous),
                0.0,
                "repeat starts at the field"
            );
            previous = repeat;
        }
        assert_eq!(ctx.history.directions, 1);
        assert_eq!(
            ctx.stats().projected_starts,
            0,
            "a repeat is a plain warm start"
        );
        assert_eq!(ctx.stats().warm_starts, 4);
    }

    #[test]
    fn one_pair_history_is_the_plain_warm_start_bitwise() {
        let solver = mg_solver();
        let (first, second) = (utilization(1.0), utilization(0.7));
        let mut ctx = SolveContext::new();
        let cold = ctx.solve(&first, &solver).expect("cold");
        let warm = ctx.solve(&second, &solver).expect("warm");
        assert_eq!(ctx.stats().projected_starts, 0);

        // The warm start as a bare solve from the previous field.
        let asm = Assembled::build(&second).expect("assembles");
        let mut x: Vec<f64> = cold.temperatures.iter_kelvin().collect();
        let mut shadow = Shadow::default();
        let rhs = asm.rhs_with_power(second.power_flat());
        asm.solve_system(None, &rhs, &mut x, &solver.params(), Some(&mut shadow))
            .expect("bare warm solve");
        let mismatch = warm
            .temperatures
            .iter_kelvin()
            .zip(&x)
            .position(|(a, b)| a.to_bits() != b.to_bits());
        assert_eq!(mismatch, None, "fields differ bitwise");
    }

    #[test]
    fn history_clears_on_reassembly_failure_and_key_change() {
        let solver = mg_solver();
        let seeded = || {
            let mut ctx = SolveContext::new();
            ctx.solve(&utilization(1.0), &solver).expect("seed");
            ctx.solve(&utilization(0.6), &solver).expect("seed");
            assert_eq!(ctx.history.directions, 1);
            ctx
        };

        // Re-assembly: basis and reference right-hand side go, the warm
        // field stays and still warm-starts the next solve.
        let mut ctx = seeded();
        let mut k = utilization(0.8);
        k.set_layer_conductivity(
            3,
            ThermalConductivity::new(5.0),
            ThermalConductivity::new(5.0),
        );
        ctx.solve(&k, &solver).expect("reassembled");
        assert_eq!(ctx.stats().assemblies, 2);
        assert_eq!(ctx.history.directions, 0);
        assert_eq!(ctx.stats().warm_starts, 2);
        assert_eq!(ctx.stats().projected_starts, 0);

        // A failed (NaN) solve drops everything.
        let mut ctx = seeded();
        let mut poisoned = utilization(0.8);
        poisoned.add_power(1, 1, 1, Power::from_watts(f64::NAN));
        assert!(ctx.solve(&poisoned, &solver).is_err());
        assert_eq!(ctx.history.directions, 0);
        assert!(ctx.history.x0.is_empty() && ctx.history.key.is_none());
        let warm_before = ctx.stats().warm_starts;
        ctx.solve(&utilization(0.8), &solver)
            .expect("recovers cold");
        assert_eq!(
            ctx.stats().warm_starts,
            warm_before,
            "the recovery starts cold"
        );

        // A WarmKey change (here the tolerance) starts cold and clears.
        let mut ctx = seeded();
        let loose = solver.with_tolerance(1e-6);
        ctx.solve(&utilization(0.8), &loose).expect("loose");
        assert_eq!(ctx.stats().warm_starts, 1);
        assert_eq!(ctx.stats().projected_starts, 0);
        assert_eq!(ctx.history.directions, 0);

        // Disabling warm starts keeps nothing.
        let ctx = seeded().with_warm_start(false);
        assert!(ctx.history.x0.is_empty() && ctx.history.directions == 0);
    }

    #[test]
    fn in_span_refinement_corrects_the_stored_difference() {
        // A family on one line, b(t) = b₁ + t·d, whose seeding solutions
        // carry an error: the pair at t = 3 is refined, lies in the span
        // and so adds no direction, but its correction is folded into the
        // stored difference (a secant update), so extrapolating from it
        // follows the two newest pairs.
        let key = WarmKey::of(&mg_solver());
        let b = |t: f64| vec![1.0 + t, 2.0 - t, 3.0 + 2.0 * t];
        let x = |t: f64, err: f64| vec![10.0 + 4.0 * t + err, 5.0 - t, 7.0 + t * t];
        let mut h = History::default();
        h.record(key, b(0.0), x(0.0, 0.0), true);
        h.record(key, b(1.0), x(1.0, 0.5), true);
        assert_eq!(h.directions, 1);
        h.record(key, b(3.0), x(3.0, 0.0), true);
        assert_eq!(h.directions, 1, "an in-span pair adds no direction");
        let (start, guess) = h.start(key, &b(5.0), 0.0);
        assert_eq!(start, Start::Projected);
        let (x1, x3) = (x(1.0, 0.5), x(3.0, 0.0));
        for ((g, a), c) in guess.iter().zip(&x1).zip(&x3) {
            let secant = c + (c - a);
            assert!((g - secant).abs() < 1e-12, "{g} vs {secant}");
        }
    }

    #[test]
    fn full_basis_restarts_from_the_newest_pair() {
        // Power changes in independent directions: each refined solve
        // adds one until the basis is full, then the next restarts it.
        let solver = mg_solver();
        let mut ctx = SolveContext::new();
        let mut p = problem();
        ctx.solve(&p, &solver).expect("seed");
        for (step, (i, j)) in [(1, 1), (6, 2), (2, 6), (5, 5)].into_iter().enumerate() {
            p.add_power(i, j, 7, Power::from_watts(0.3));
            let sol = ctx.solve(&p, &solver).expect("new direction");
            assert!(sol.stats.refinements > 0, "step {step} is out of span");
            let expected = if step < MAX_DIRECTIONS { step + 1 } else { 0 };
            assert_eq!(ctx.history.directions, expected, "step {step}");
        }
    }

    #[test]
    fn jacobi_solves_work_through_the_context_too() {
        let p = problem();
        let mut ctx = SolveContext::new();
        let solver = CgSolver::new().with_tolerance(1e-9);
        ctx.solve(&p, &solver).expect("first");
        ctx.solve(&p, &solver).expect("second");
        let s = ctx.stats();
        assert_eq!(s.assemblies, 1);
        assert_eq!(s.hierarchy_builds, 0, "no hierarchy for Jacobi");
        assert!(s.total_cycles == 0);
    }
}
