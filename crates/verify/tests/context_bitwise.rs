//! Property tests for the [`SolveContext`] reuse cache: with warm
//! starting disabled, a context-mediated solve must be *bitwise*
//! identical to a direct [`CgSolver::solve`] — across mesh dimensions,
//! power perturbations, and repeated cache hits — because the cache may
//! only skip redundant assembly work, never change arithmetic. The warm
//! path is also checked (to physical tolerance, plus its stats
//! contract), since a warm start legitimately changes the iterate
//! sequence; a sequence of projected starts must still be bitwise
//! independent of the thread count.

use tsc_rng::Rng64;
use tsc_thermal::{CgSolver, Heatsink, Precision, Problem, SolveContext};
use tsc_units::{Length, Power, ThermalConductivity};
use tsc_verify::assert_close;

fn problem(nx: usize, ny: usize, nz: usize, powers: &[(usize, usize, usize, f64)]) -> Problem {
    let mut p = Problem::uniform_block(
        nx,
        ny,
        nz,
        Length::from_millimeters(1.0),
        Length::from_millimeters(1.0),
        Length::from_micrometers(10.0 * nz as f64),
        ThermalConductivity::new(110.0),
    );
    p.set_bottom_heatsink(Heatsink::two_phase());
    for &(i, j, k, w) in powers {
        p.add_power(i, j, k, Power::from_watts(w));
    }
    p
}

fn random_powers(
    rng: &mut Rng64,
    nx: usize,
    ny: usize,
    nz: usize,
    count: usize,
) -> Vec<(usize, usize, usize, f64)> {
    (0..count)
        .map(|_| {
            (
                rng.gen_range(0..nx),
                rng.gen_range(0..ny),
                rng.gen_range(0..nz),
                0.2 + rng.gen_f64() * 2.0,
            )
        })
        .collect()
}

fn assert_bitwise_equal(a: &tsc_thermal::Solution, b: &tsc_thermal::Solution, what: &str) {
    let mismatch = a
        .temperatures
        .iter_kelvin()
        .zip(b.temperatures.iter_kelvin())
        .position(|(x, y)| x.to_bits() != y.to_bits());
    assert!(
        mismatch.is_none(),
        "{what}: fields differ bitwise at flat cell {mismatch:?}"
    );
}

#[test]
fn cold_context_solves_match_direct_solves_bitwise() {
    let solver = CgSolver::new();
    let mut rng = Rng64::seed_from_u64(0x5eed);
    for (nx, ny, nz) in [(6, 6, 4), (9, 5, 3), (4, 12, 6)] {
        let mut ctx = SolveContext::new().with_warm_start(false);
        for round in 0..3 {
            let powers = random_powers(&mut rng, nx, ny, nz, 5);
            let p = problem(nx, ny, nz, &powers);
            let via_ctx = ctx.solve(&p, &solver).expect("context solve");
            let direct = solver.solve(&p).expect("direct solve");
            assert_bitwise_equal(&via_ctx, &direct, &format!("{nx}x{ny}x{nz} round {round}"));
        }
        let stats = ctx.stats();
        assert_eq!(stats.solves, 3);
        assert_eq!(stats.warm_starts, 0, "warm starting was disabled");
    }
}

#[test]
fn power_only_changes_reuse_the_operator_and_stay_bitwise() {
    // Same geometry, power deltas only: the operator must be reused
    // (assembled once) and the fields must still match direct solves
    // bitwise with warm starting off.
    let solver = CgSolver::new();
    let mut rng = Rng64::seed_from_u64(0xcafe);
    let (nx, ny, nz) = (8, 8, 5);
    let mut ctx = SolveContext::new().with_warm_start(false);
    for round in 0..4 {
        let powers = random_powers(&mut rng, nx, ny, nz, 3 + round);
        let p = problem(nx, ny, nz, &powers);
        let via_ctx = ctx.solve(&p, &solver).expect("context solve");
        let direct = solver.solve(&p).expect("direct solve");
        assert_bitwise_equal(&via_ctx, &direct, &format!("power delta round {round}"));
    }
    let stats = ctx.stats();
    assert_eq!(stats.solves, 4);
    assert_eq!(stats.assemblies, 1, "power deltas must not re-assemble");
    assert_eq!(stats.operator_reuses, 3);
}

#[test]
fn warm_started_solves_agree_physically_and_count_in_stats() {
    let solver = CgSolver::new();
    let (nx, ny, nz) = (8, 8, 5);
    let mut ctx = SolveContext::new(); // warm starting on (default)
    let p1 = problem(nx, ny, nz, &[(4, 4, 4, 1.5)]);
    let p2 = problem(nx, ny, nz, &[(4, 4, 4, 1.6)]);
    let first = ctx.solve(&p1, &solver).expect("first solve");
    let second = ctx.solve(&p2, &solver).expect("warm solve");
    let direct = solver.solve(&p2).expect("direct solve");
    // Warm starting changes the iterate path, so only physical
    // agreement is required — to well under a millikelvin at the
    // solver's tolerance.
    for ((w, d), cell) in second
        .temperatures
        .iter_kelvin()
        .zip(direct.temperatures.iter_kelvin())
        .zip(0..)
    {
        assert_close!(w, d, abs = 1e-3, "warm vs direct at flat cell {}", cell);
    }
    assert!(
        first.temperatures.max_temperature() < second.temperatures.max_temperature(),
        "more power, hotter stack"
    );
    let stats = ctx.stats();
    assert_eq!(stats.solves, 2);
    assert_eq!(stats.warm_starts, 1);
    assert_eq!(stats.assemblies, 1);
}

#[test]
fn ambient_map_changes_invalidate_the_cached_operator() {
    // The PR's MMS boundary hook feeds per-column ambient maps into the
    // operator key: changing the map must re-assemble, not silently
    // reuse stale boundary data.
    let solver = CgSolver::new();
    let (nx, ny, nz) = (6, 6, 4);
    let mut ctx = SolveContext::new().with_warm_start(false);
    let mut p = problem(nx, ny, nz, &[(3, 3, 3, 1.0)]);
    let base = ctx.solve(&p, &solver).expect("base solve");
    p.set_bottom_ambient_map(tsc_geometry::Grid2::from_fn(nx, ny, |i, _| {
        300.0 + 5.0 * i as f64
    }));
    let tilted = ctx.solve(&p, &solver).expect("tilted solve");
    let stats = ctx.stats();
    assert_eq!(stats.assemblies, 2, "ambient-map change must re-assemble");
    let direct = solver.solve(&p).expect("direct solve");
    assert_bitwise_equal(&tilted, &direct, "tilted ambient");
    assert!(
        (tilted.temperatures.max_temperature().kelvin()
            - base.temperatures.max_temperature().kelvin())
        .abs()
            > 0.1,
        "the tilted ambient visibly changes the field"
    );
}

#[test]
fn projected_sequences_are_bitwise_identical_parallel_vs_serial() {
    // A utilization family on one operator: from the third solve on,
    // each start is the projection onto the stored solutions. Its dots
    // run in index order, so forcing multi-band execution plans must not
    // move a bit of any answer.
    let (nx, ny, nz) = (10, 10, 6);
    let family = |u: f64| problem(nx, ny, nz, &[(2, 3, 5, 1.2 * u), (7, 6, 5, 0.8 * u)]);
    let mixed = CgSolver::new()
        .with_tolerance(1e-9)
        .with_precision(Precision::Mixed);
    let serial = mixed.with_threads(1);
    let parallel = mixed.with_threads(4).with_parallel_crossover(0);
    let (mut ctx_serial, mut ctx_parallel) = (SolveContext::new(), SolveContext::new());
    for (step, u) in [1.0, 0.6, 0.85, 0.3, 0.95, 0.6, 0.45]
        .into_iter()
        .enumerate()
    {
        let p = family(u);
        let a = ctx_serial.solve(&p, &serial).expect("serial");
        let b = ctx_parallel.solve(&p, &parallel).expect("parallel");
        assert_eq!(b.stats.threads, 4, "the plan must engage its bands");
        assert_bitwise_equal(&a, &b, &format!("step {step} (u = {u})"));
        assert_eq!(a.stats.iterations, b.stats.iterations);
    }
    assert_eq!(ctx_serial.stats(), ctx_parallel.stats());
    assert!(
        ctx_serial.stats().projected_starts >= 4,
        "{:?}",
        ctx_serial.stats()
    );
}
