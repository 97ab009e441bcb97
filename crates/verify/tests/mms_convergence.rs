//! Manufactured-solution convergence: every solver in the workspace —
//! f64 Jacobi-CG, the mixed-precision multigrid path and SOR — must
//! reproduce the analytic fields of `tsc_verify::mms` at the FV
//! scheme's design order (~2; asserted ≥ 1.8 in L2 to leave room for
//! pre-asymptotic wobble, and the absolute error on the finest mesh
//! must be small in kelvin terms).

use tsc_thermal::{CgSolver, Precision, Problem, Solution, SolveError, SorSolver};
use tsc_verify::mms::{observed_orders, MmsCase};

const CASES: [fn() -> MmsCase; 2] = [MmsCase::trig_smooth, MmsCase::contrast_slab];

fn assert_second_order(
    label: &str,
    meshes: &[usize],
    solve: impl FnMut(&Problem) -> Result<Solution, SolveError> + Copy,
) {
    for case in CASES {
        let case = case();
        let errors = case
            .refine(meshes, solve)
            .unwrap_or_else(|e| panic!("{label}/{}: solve failed: {e:?}", case.name()));
        let orders = observed_orders(&errors);
        // The finest-mesh error must be decisively sub-kelvin so the
        // order is measured against a meaningful signal, not noise.
        let finest = errors.last().expect("non-empty refinement");
        assert!(
            finest.l2 < 0.1 && finest.linf < 0.5,
            "{label}/{}: finest-mesh error too large (l2 {:.3e} K, linf {:.3e} K)",
            case.name(),
            finest.l2,
            finest.linf,
        );
        for (step, order) in orders.iter().enumerate() {
            assert!(
                order.l2 >= 1.8,
                "{label}/{}: observed L2 order {:.3} < 1.8 at refinement {step} \
                 (errors: {:?})",
                case.name(),
                order.l2,
                errors.iter().map(|e| e.l2).collect::<Vec<_>>(),
            );
            assert!(
                order.linf >= 1.5,
                "{label}/{}: observed L∞ order {:.3} < 1.5 at refinement {step}",
                case.name(),
                order.linf,
            );
        }
    }
}

#[test]
fn cg_jacobi_is_second_order() {
    assert_second_order("cg-jacobi", &[8, 16, 32], |p| {
        CgSolver::new().with_tolerance(1e-10).solve(p)
    });
}

#[test]
fn cg_mixed_is_second_order() {
    // The f32-inner / f64-refined path must hit the same discretization
    // order as the pure-f64 solvers: the refinement loop, not the f32
    // arithmetic, owns the solver tolerance, so any order loss here
    // means single-precision error is leaking into the answer.
    assert_second_order("cg-mixed", &[8, 16, 32], |p| {
        CgSolver::new()
            .with_precision(Precision::Mixed)
            .with_tolerance(1e-10)
            .solve(p)
    });
}

#[test]
fn sor_is_second_order() {
    // SOR converges slowly at fine meshes; a slightly coarser ladder
    // keeps the (debug-build) runtime in check without changing what is
    // verified: two successive halvings of the pitch.
    assert_second_order("sor", &[6, 12, 24], |p| {
        SorSolver::new().with_tolerance(1e-10).solve(p)
    });
}
