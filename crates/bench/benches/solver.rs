//! Benches of the finite-volume thermal solvers — f64 Jacobi-CG (the
//! oracle), the mixed-precision multigrid path (production) and SOR
//! (the cross-check) — including the serial-vs-parallel comparison on
//! the paper's Gemmini 12-tier stack, and cold, warm and projected
//! production solves on the service's default mesh (the `sweep`
//! operator), beside the cost of fingerprinting that operator.
//!
//! Run with `cargo bench -p tsc-bench --bench solver`; set
//! `BENCH_FAST=1` for a smoke pass on a smaller mesh. Results are
//! recorded in `EXPERIMENTS.md` and `BENCH_SOLVER.json`.

use tsc_bench::json::Json;
use tsc_bench::timing::Bench;
use tsc_bench::timing::Measurement;
use tsc_core::beol::BeolProperties;
use tsc_core::pillars;
use tsc_core::stack::{build, hot_loop_solver, StackConfig};
use tsc_designs::gemmini;
use tsc_thermal::{CgSolver, Heatsink, Precision, Problem, Solution, SolveContext, SorSolver};
use tsc_units::{Length, Power, Ratio, ThermalConductivity};

fn slab(n: usize, nz: usize) -> Problem {
    let mut p = Problem::uniform_block(
        n,
        n,
        nz,
        Length::from_millimeters(1.0),
        Length::from_millimeters(1.0),
        Length::from_micrometers(100.0),
        ThermalConductivity::new(10.0),
    );
    p.set_bottom_heatsink(Heatsink::two_phase());
    p.add_power(n / 2, n / 2, nz - 1, Power::from_watts(1.0));
    p
}

/// The paper's end-to-end fixture: the Gemmini accelerator stacked 12
/// tiers high on a two-phase heatsink, scaffolded BEOL. `lateral` cells
/// per die edge; the mesh has `1 + 12·4 = 49` z-slabs.
fn gemmini_12_tier(lateral: usize) -> Problem {
    let cfg = StackConfig::uniform(12, BeolProperties::scaffolded(), Heatsink::two_phase())
        .with_lateral_cells(lateral);
    build(&gemmini::design(), &cfg).problem
}

fn bench_cg_scaling(b: &Bench) {
    for n in [8usize, 16, 24] {
        let p = slab(n, 16);
        b.run(&format!("lateral_cells/{n}"), 10, || {
            CgSolver::new().solve(&p).expect("converges")
        });
    }
}

fn bench_cg_vs_sor(b: &Bench) {
    let p = slab(12, 12);
    b.run("cg", 10, || CgSolver::new().solve(&p).expect("converges"));
    b.run("sor", 10, || {
        SorSolver::new()
            .with_tolerance(1e-8)
            .solve(&p)
            .expect("converges")
    });
}

/// The hard case: ultra-low-k layers against silicon (3 orders of
/// magnitude contrast) — what the 3D-IC stacks actually look like.
fn high_contrast_slab() -> Problem {
    let mut p = slab(16, 24);
    for k in (0..24).step_by(4) {
        p.set_layer_conductivity(
            k,
            ThermalConductivity::new(0.31),
            ThermalConductivity::new(5.47),
        );
    }
    p
}

fn bench_high_contrast(b: &Bench) {
    let p = high_contrast_slab();
    b.run("cg_high_contrast_stack", 10, || {
        CgSolver::new().solve(&p).expect("converges")
    });
}

/// Serial vs parallel on the Gemmini 12-tier mesh: the tentpole
/// comparison. Also cross-checks that the parallel CG and the red-black
/// SOR land on the same temperature field (≤ 1e-3 K) and that parallel
/// CG reproduces serial CG exactly.
fn bench_parallel_gemmini(b: &Bench) {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let fast = std::env::var_os("BENCH_FAST").is_some();
    let lateral = if fast { 32 } else { 64 };
    let p = gemmini_12_tier(lateral);
    let cells = lateral * lateral * 49;
    println!(
        "  gemmini 12-tier mesh: {lateral}x{lateral}x49 = {cells} cells, host threads: {threads}"
    );

    let serial_solver = CgSolver::new().with_tolerance(1e-8).with_threads(1);
    let parallel_solver = CgSolver::new()
        .with_tolerance(1e-8)
        .with_threads(threads)
        .with_parallel_crossover(0);

    let serial = b.run("cg_serial", 5, || serial_solver.solve(&p).expect("serial"));
    let parallel = b.run("cg_parallel", 5, || {
        parallel_solver.solve(&p).expect("parallel")
    });
    println!(
        "  cg speedup: {:.2}x on {} threads",
        serial.seconds() / parallel.seconds(),
        threads
    );

    // Correctness cross-checks ride along with the timing run.
    let s = serial_solver.solve(&p).expect("serial");
    let q = parallel_solver.solve(&p).expect("parallel");
    let max_diff = s
        .temperatures
        .iter_kelvin()
        .zip(q.temperatures.iter_kelvin())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0_f64, f64::max);
    assert!(
        max_diff <= 1e-9,
        "parallel CG deviates from serial by {max_diff} K"
    );
    println!(
        "  parallel vs serial CG: max |dT| = {max_diff:.3e} K, \
         {} iterations, {} matvecs, solve {:.3}s (assembly {:.3}s)",
        q.stats.iterations, q.stats.matvecs, q.stats.solve_seconds, q.stats.assembly_seconds
    );

    // SOR cross-check on a smaller mesh (SOR converges far slower on the
    // full fixture; the cross-check is about agreement, not speed).
    let p_small = gemmini_12_tier(16);
    let cg = CgSolver::new()
        .with_tolerance(1e-10)
        .solve(&p_small)
        .expect("cg");
    let sor = SorSolver::new()
        .with_tolerance(1e-9)
        .with_threads(threads)
        .with_parallel_crossover(0)
        .solve(&p_small)
        .expect("sor");
    let tj_cg = cg.temperatures.max_temperature().kelvin();
    let tj_sor = sor.temperatures.max_temperature().kelvin();
    assert!(
        (tj_cg - tj_sor).abs() <= 1e-3,
        "CG/SOR cross-check failed: {tj_cg} vs {tj_sor}"
    );
    println!(
        "  cg/sor cross-check (16x16x49): |dTj| = {:.3e} K",
        (tj_cg - tj_sor).abs()
    );
}

/// The operator the `sweep` workload re-solves: Gemmini stacked 8 tiers
/// high at the service's default 12×12 lateral cells, scaffolded BEOL
/// with a 10 % pillar budget on a two-phase heatsink (`1 + 8·4 = 33`
/// z-slabs, 4,752 cells), at `utilization_percent` on every tier.
fn service_mesh(utilization_percent: f64) -> Problem {
    let (tiers, lateral) = (8, 12);
    let design = gemmini::design();
    let cfg = StackConfig::uniform(tiers, BeolProperties::scaffolded(), Heatsink::two_phase())
        .with_lateral_cells(lateral)
        .with_utilizations(vec![Ratio::from_percent(utilization_percent); tiers])
        .with_pillar_map(pillars::uniform_routable_map(
            &design,
            Ratio::from_percent(10.0),
            lateral,
        ));
    build(&design, &cfg).problem
}

fn timing_ms(m: &Measurement) -> Json {
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    Json::object()
        .field("median_ms", ms(m.median))
        .field("q1_ms", ms(m.q1))
        .field("q3_ms", ms(m.q3))
        .field("samples", m.samples)
}

/// Cold, warm and projected production solves on the `sweep` operator.
/// Cold is the first solve of a fresh [`SolveContext`] (assembly, shadow
/// hierarchy build, solve from the initial guess). Warm is the first
/// re-solve of a context seeded once at 70 %, at 55 %: it starts from
/// the previous field. Projected is the third solve of a context seeded
/// at 70 and 55 %, at 85 %: it starts from the projection onto the two
/// stored solutions, the start `sweep` requests get once a pooled
/// context has seen two utilizations. Every warm and projected sample
/// times a freshly seeded context, and both solves' work counts are
/// asserted, so a kernel or history change that alters either shows
/// here. The operator fingerprint — what the service hashes once per
/// built stack to key its context pool — must cost less than the
/// projected solve it routes to.
fn bench_service_mesh(b: &Bench) -> Json {
    let solver = hot_loop_solver();
    let (p70, p55, p85) = (service_mesh(70.0), service_mesh(55.0), service_mesh(85.0));
    let cells = p70.dim().len();
    let cold = b.run("cold_solve", 200, || {
        SolveContext::new().solve(&p70, &solver).expect("cold")
    });
    let seeded = |seeds: &[&Problem]| {
        let mut ctx = SolveContext::new();
        for p in seeds {
            ctx.solve(p, &solver).expect("seed");
        }
        ctx
    };
    let counts = |sol: &Solution| {
        let s = &sol.stats;
        (s.iterations, s.refinements, s.cycles, s.matvecs)
    };
    let (warm_counts, projected_counts) = ((4, 2, 4, 7), (0, 0, 0, 1));
    let warm = b.run_with_setup(
        "warm_solve",
        1000,
        || seeded(&[&p70]),
        |mut ctx| {
            let sol = ctx.solve(&p55, &solver).expect("warm");
            assert_eq!(
                counts(&sol),
                warm_counts,
                "warm solve (inner iterations, refinements, cycles, matvecs) changed"
            );
            (ctx, sol)
        },
    );
    let projected = b.run_with_setup(
        "projected_solve",
        1000,
        || seeded(&[&p70, &p55]),
        |mut ctx| {
            let sol = ctx.solve(&p85, &solver).expect("projected");
            assert_eq!(
                counts(&sol),
                projected_counts,
                "projected solve (inner iterations, refinements, cycles, matvecs) changed"
            );
            assert_eq!(ctx.stats().projected_starts, 1, "the start was projected");
            (ctx, sol)
        },
    );
    let with_counts =
        |m: &Measurement, utilization: &str, (iterations, refinements, cycles, matvecs)| {
            timing_ms(m)
                .field("utilization_percent", utilization)
                .field("inner_iterations", iterations)
                .field("refinements", refinements)
                .field("cycles", cycles)
                .field("matvecs", matvecs)
        };
    Json::object()
        .field("mesh", "gemmini_8_tier/12x12x33")
        .field("cells", cells)
        .field(
            "operator",
            "sweep: gemmini, 8 tiers, 12x12 lateral cells, scaffolding, 10 % pillar budget, two-phase",
        )
        .field("command", "cargo bench -p tsc-bench --bench solver")
        .field("cold_solve", timing_ms(&cold))
        .field(
            "warm_solve",
            with_counts(&warm, "70 -> 55, a context seeded once", warm_counts),
        )
        .field(
            "projected_solve",
            with_counts(
                &projected,
                "70, 55 -> 85, a context seeded twice",
                projected_counts,
            ),
        )
}

fn max_dev_kelvin(a: &Solution, b: &Solution) -> f64 {
    a.temperatures
        .iter_kelvin()
        .zip(b.temperatures.iter_kelvin())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0_f64, f64::max)
}

fn record(mesh: &str, cells: usize, solver: &str, tol: f64, sol: &Solution, seconds: f64) -> Json {
    Json::object()
        .field("mesh", mesh)
        .field("cells", cells)
        .field("solver", solver)
        .field("precision", sol.stats.precision.to_string())
        .field("tolerance", tol)
        .field("iterations", sol.stats.iterations)
        .field("refinements", sol.stats.refinements)
        .field("matvecs", sol.stats.matvecs)
        .field("cycles", sol.stats.cycles)
        .field("wall_seconds_median", seconds)
}

/// Jacobi-CG vs the mixed-precision multigrid path on the Gemmini
/// 12-tier mesh at the golden flows' 1e-11 tolerance, plus all three
/// solvers on the high-contrast slab (SOR is too slow for the full
/// fixture; on the slab it cross-checks the other two). Asserts the
/// mixed path's targets — ≥ 3× wall clock and ≥ 3× fewer iterations
/// than Jacobi-CG, within 1e-6 K of it — and emits `BENCH_SOLVER.json`
/// at the repo root with one machine-readable entry per solve.
fn bench_mixed_gemmini(b: &Bench, service_mesh: Json) {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let fast = std::env::var_os("BENCH_FAST").is_some();
    let lateral = if fast { 32 } else { 64 };
    let p = gemmini_12_tier(lateral);
    let cells = lateral * lateral * 49;
    let mesh = format!("gemmini_12_tier/{lateral}x{lateral}x49");
    let tol = 1e-11;
    println!("  mesh: {mesh} = {cells} cells");

    let jacobi = CgSolver::new().with_tolerance(tol).with_threads(threads);
    let mixed = jacobi.with_precision(Precision::Mixed);

    let samples = 5;
    let t_jacobi = b.run("cg_jacobi", samples, || jacobi.solve(&p).expect("jacobi"));
    let t_mixed = b.run("cg_mixed", samples, || mixed.solve(&p).expect("mixed"));
    let s_jacobi = jacobi.solve(&p).expect("jacobi");
    let s_mixed = mixed.solve(&p).expect("mixed");

    let dev_mixed = max_dev_kelvin(&s_jacobi, &s_mixed);
    assert!(
        dev_mixed <= 1e-6,
        "mixed path deviates from Jacobi-CG by {dev_mixed} K"
    );
    let reduction = s_jacobi.stats.iterations as f64 / s_mixed.stats.iterations as f64;
    assert!(
        reduction >= 3.0,
        "mixed iteration reduction below 3x: jacobi {} vs mixed {}",
        s_jacobi.stats.iterations,
        s_mixed.stats.iterations
    );
    let speedup = t_jacobi.seconds() / t_mixed.seconds();
    assert!(
        speedup >= 3.0,
        "mixed wall-clock speedup below 3x vs Jacobi-CG: {speedup:.2}x"
    );
    println!(
        "  jacobi-cg: {} iterations, {} matvecs; mixed: {} refinements, {} inner \
         iterations, {} V-cycles, {} matvecs",
        s_jacobi.stats.iterations,
        s_jacobi.stats.matvecs,
        s_mixed.stats.refinements,
        s_mixed.stats.iterations,
        s_mixed.stats.cycles,
        s_mixed.stats.matvecs,
    );
    println!(
        "  mixed vs jacobi-cg: {speedup:.1}x wall clock, {reduction:.1}x fewer iterations, \
         max |dT| = {dev_mixed:.3e} K"
    );

    // All three solvers on the high-contrast slab.
    let hc = high_contrast_slab();
    let hc_cells = hc.dim().len();
    let sor = SorSolver::new().with_tolerance(tol).with_threads(threads);
    let t_hc_jacobi = b.run("hc_cg_jacobi", samples, || {
        jacobi.solve(&hc).expect("jacobi")
    });
    let t_hc_mixed = b.run("hc_cg_mixed", samples, || mixed.solve(&hc).expect("mixed"));
    let t_hc_sor = b.run("hc_sor", samples, || sor.solve(&hc).expect("sor"));
    let s_hc_jacobi = jacobi.solve(&hc).expect("jacobi");
    let s_hc_mixed = mixed.solve(&hc).expect("mixed");
    let s_hc_sor = sor.solve(&hc).expect("sor");
    for (name, sol) in [("mixed", &s_hc_mixed), ("sor", &s_hc_sor)] {
        let dev = max_dev_kelvin(&s_hc_jacobi, sol);
        assert!(
            dev <= 1e-6,
            "{name} deviates from Jacobi-CG by {dev} K on the slab"
        );
        println!("  high-contrast 16x16x24: {name} vs jacobi-cg max |dT| = {dev:.3e} K");
    }

    let hc_mesh = "high_contrast_slab/16x16x24";
    let doc = Json::object()
        .field("bench", "solver")
        .field("fast_mode", fast)
        .field("threads", threads)
        .field(
            "entries",
            vec![
                record(&mesh, cells, "cg", tol, &s_jacobi, t_jacobi.seconds()),
                record(&mesh, cells, "cg", tol, &s_mixed, t_mixed.seconds()),
                record(
                    hc_mesh,
                    hc_cells,
                    "cg",
                    tol,
                    &s_hc_jacobi,
                    t_hc_jacobi.seconds(),
                ),
                record(
                    hc_mesh,
                    hc_cells,
                    "cg",
                    tol,
                    &s_hc_mixed,
                    t_hc_mixed.seconds(),
                ),
                record(hc_mesh, hc_cells, "sor", tol, &s_hc_sor, t_hc_sor.seconds()),
            ],
        )
        .field(
            "mixed_vs_jacobi",
            Json::object()
                .field("wall_clock_speedup", speedup)
                .field("iteration_reduction", reduction)
                .field("max_abs_dt_kelvin", dev_mixed),
        )
        .field("service_mesh", service_mesh);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_SOLVER.json");
    std::fs::write(path, doc.pretty()).expect("write BENCH_SOLVER.json");
    println!("  wrote {path}");
}

fn main() {
    let b = Bench::group("cg_solver");
    bench_cg_scaling(&b);
    let b = Bench::group("cg_vs_sor");
    bench_cg_vs_sor(&b);
    let b = Bench::group("high_contrast");
    bench_high_contrast(&b);
    let b = Bench::group("parallel_gemmini");
    bench_parallel_gemmini(&b);
    let b = Bench::group("service_mesh");
    let service = bench_service_mesh(&b);
    let b = Bench::group("mixed_gemmini");
    bench_mixed_gemmini(&b, service);
}
