//! Quick wall-clock comparison of the solver configurations — f64
//! Jacobi-CG and the mixed-precision multigrid path — on the Gemmini
//! 64×64×49 mesh: a faster inner loop than the full solver bench when
//! iterating on kernels. Ignored by default:
//!
//! `cargo test --release -p tsc-bench --test kernel_profile -- --ignored --nocapture`

use std::time::Instant;
use tsc_core::beol::BeolProperties;
use tsc_core::stack::{build, StackConfig};
use tsc_designs::gemmini;
use tsc_thermal::{CgSolver, Heatsink, Precision};

#[test]
#[ignore]
fn profile_solvers() {
    let cfg = StackConfig::uniform(12, BeolProperties::scaffolded(), Heatsink::two_phase())
        .with_lateral_cells(64);
    let p = build(&gemmini::design(), &cfg).problem;

    for (name, solver) in [
        ("f64 jacobi-cg", CgSolver::new().with_tolerance(1e-11)),
        (
            "mixed",
            CgSolver::new()
                .with_tolerance(1e-11)
                .with_precision(Precision::Mixed),
        ),
    ] {
        let t = Instant::now();
        let sol = solver.solve(&p).expect("solve");
        println!(
            "{name:16} {:8.3}s  it {:5}  cycles {:5}  refine {:2}  res {:.2e}",
            t.elapsed().as_secs_f64(),
            sol.stats.iterations,
            sol.stats.cycles,
            sol.stats.refinements,
            sol.stats.residual,
        );
    }
}
