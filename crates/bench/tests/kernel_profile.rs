//! Quick wall-clock comparison of the solver configurations — f64
//! Jacobi-CG and the mixed-precision multigrid path — on the Gemmini
//! 64×64×49 mesh, and the cold, warm and projected production solve on
//! the service's default mesh: a faster inner loop than the full solver
//! bench when iterating on kernels. Ignored by default:
//!
//! `cargo test --release -p tsc-bench --test kernel_profile -- --ignored --nocapture`
//!
//! The per-kernel split of the mixed path (both matvecs, z-line solve,
//! restrict, prolong, coarse solve, V-cycle) needs the crate-private
//! kernels, so it lives in `tsc-thermal` as the ignored test
//! `kernels::tests::kernel_profile`, on a mesh of the same extents:
//!
//! `cargo test --release -p tsc-thermal --lib kernel_profile -- --ignored --nocapture`

use std::time::Instant;
use tsc_core::beol::BeolProperties;
use tsc_core::pillars;
use tsc_core::stack::{build, hot_loop_solver, StackConfig};
use tsc_designs::gemmini;
use tsc_thermal::{CgSolver, Heatsink, Precision, Problem, SolveContext, SolverStats};
use tsc_units::Ratio;

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

/// Cold, warm and projected production solves on the `sweep` operator
/// (Gemmini, 8 tiers of 12×12 cells, scaffolding, 10 % pillar budget,
/// two-phase), as in the solver bench: warm is the 55 % solve of a
/// context seeded at 70 %, projected the 85 % solve of one seeded at 70
/// and 55 %, each sample on a freshly seeded context. Prints median and
/// quartiles of each, with the work counts of the last warm and
/// projected solve.
#[test]
#[ignore]
fn profile_service_mesh() {
    let design = gemmini::design();
    let problem = |utilization: f64| {
        let cfg = StackConfig::uniform(8, BeolProperties::scaffolded(), Heatsink::two_phase())
            .with_lateral_cells(12)
            .with_utilizations(vec![Ratio::from_percent(utilization); 8])
            .with_pillar_map(pillars::uniform_routable_map(
                &design,
                Ratio::from_percent(10.0),
                12,
            ));
        build(&design, &cfg).problem
    };
    let (p70, p55, p85) = (problem(70.0), problem(55.0), problem(85.0));
    let solver = hot_loop_solver();
    let quartiles = |mut t: Vec<f64>| {
        t.sort_by(f64::total_cmp);
        let n = t.len();
        (t[n / 4], t[n / 2], t[n * 3 / 4])
    };
    let cold: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            SolveContext::new().solve(&p70, &solver).expect("cold");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    // Times the solve of `p` on a context seeded with `seeds`, keeping
    // the last solve's stats.
    let timed = |seeds: &[&Problem], p: &Problem, last: &mut Option<SolverStats>| {
        (0..1000)
            .map(|_| {
                let mut ctx = SolveContext::new();
                for seed in seeds {
                    ctx.solve(seed, &solver).expect("seed");
                }
                let t = Instant::now();
                let sol = ctx.solve(p, &solver).expect("solve");
                let ms = t.elapsed().as_secs_f64() * 1e3;
                *last = Some(sol.stats);
                ms
            })
            .collect::<Vec<f64>>()
    };
    let (mut warm_stats, mut projected_stats) = (None, None);
    let warm = timed(&[&p70], &p55, &mut warm_stats);
    let projected = timed(&[&p70, &p55], &p85, &mut projected_stats);
    for (name, t) in [
        ("cold solve", cold),
        ("warm solve", warm),
        ("projected solve", projected),
    ] {
        let (q1, median, q3) = quartiles(t);
        println!("{name:15} median {median:.3} ms  quartiles {q1:.3}–{q3:.3} ms");
    }
    for (name, stats) in [("warm", warm_stats), ("projected", projected_stats)] {
        let s = stats.expect("ran");
        println!(
            "{name} solve: {} inner iterations, {} refinements, {} cycles, {} matvecs",
            s.iterations, s.refinements, s.cycles, s.matvecs
        );
    }
}
