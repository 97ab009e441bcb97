//! Property tests for the mixed-precision solve path: the f32 inner
//! multigrid-CG wrapped in f64 iterative refinement must land on the
//! same answer as the f64 Jacobi-CG oracle, for *any* well-posed heterogeneous
//! problem — the refinement loop, not the f32 arithmetic, owns the
//! final tolerance.
//!
//! Cases come from a deterministic [`Rng64`] stream per test, with
//! per-cell conductivity scatter and a buried low-k slab so the
//! operator has real contrast (the regime where f32 rounding would
//! show if the refinement were broken).

use tsc_rng::Rng64;
use tsc_thermal::{CgSolver, Heatsink, Precision, Problem, Solution};
use tsc_units::{
    HeatFlux, HeatTransferCoefficient, Length, Power, Temperature, ThermalConductivity,
};

/// A random heterogeneous stack: moderate mesh (large enough for a real
/// multigrid hierarchy), a buried low-k slab, per-cell lateral scatter,
/// a point source and a uniform top flux.
#[derive(Debug, Clone)]
struct RandomCase {
    nx: usize,
    ny: usize,
    nz: usize,
    k_base: f64,
    k_slab: f64,
    slab: usize,
    scatter_seed: u64,
    hot_i: usize,
    hot_j: usize,
    watts: f64,
    flux: f64,
    h: f64,
}

impl RandomCase {
    fn sample(rng: &mut Rng64) -> Self {
        let nx = rng.gen_range(8..17);
        let ny = rng.gen_range(8..17);
        let nz = rng.gen_range(6..13);
        Self {
            nx,
            ny,
            nz,
            k_base: rng.gen_range_f64(50.0..200.0),
            k_slab: rng.gen_range_f64(0.5..5.0),
            slab: rng.gen_range(1..nz - 1),
            scatter_seed: rng.next_u64(),
            hot_i: rng.gen_range(0..nx),
            hot_j: rng.gen_range(0..ny),
            watts: rng.gen_range_f64(0.05..2.0),
            flux: rng.gen_range_f64(20.0..150.0),
            h: rng.gen_range_f64(5e4..5e5),
        }
    }
}

fn build(case: &RandomCase) -> Problem {
    let mut p = Problem::uniform_block(
        case.nx,
        case.ny,
        case.nz,
        Length::from_millimeters(1.0),
        Length::from_millimeters(1.0),
        Length::from_micrometers(40.0),
        ThermalConductivity::new(case.k_base),
    );
    p.set_layer_conductivity(
        case.slab,
        ThermalConductivity::new(case.k_slab),
        ThermalConductivity::new(2.0 * case.k_slab),
    );
    // Per-cell scatter in the top layer (±50%), so no two rows of the
    // operator are alike.
    let mut scatter = Rng64::seed_from_u64(case.scatter_seed);
    for j in 0..case.ny {
        for i in 0..case.nx {
            let f = 0.5 + scatter.gen_range_f64(0.0..1.0);
            p.set_conductivity(
                i,
                j,
                case.nz - 1,
                ThermalConductivity::new(case.k_base * f),
                ThermalConductivity::new(case.k_base * f),
            );
        }
    }
    p.set_bottom_heatsink(Heatsink::new(
        HeatTransferCoefficient::new(case.h),
        Temperature::from_celsius(25.0),
    ));
    p.add_power(
        case.hot_i,
        case.hot_j,
        case.nz - 1,
        Power::from_watts(case.watts),
    );
    p.add_uniform_top_flux(HeatFlux::from_watts_per_square_cm(case.flux));
    p
}

fn max_deviation_kelvin(a: &Solution, b: &Solution) -> f64 {
    a.temperatures
        .iter_kelvin()
        .zip(b.temperatures.iter_kelvin())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0_f64, f64::max)
}

/// The refinement loop owns the tolerance: at 1e-11 relative residual the
/// mixed and f64 Jacobi-CG solutions must agree far below any physical
/// scale.
#[test]
fn mixed_matches_f64_on_random_heterogeneous_meshes() {
    let mut rng = Rng64::seed_from_u64(0x6101);
    for round in 0..6 {
        let case = RandomCase::sample(&mut rng);
        let p = build(&case);
        let f64_sol = CgSolver::new()
            .with_tolerance(1e-11)
            .solve(&p)
            .expect("f64 solve");
        let mixed_sol = CgSolver::new()
            .with_tolerance(1e-11)
            .with_precision(Precision::Mixed)
            .solve(&p)
            .expect("mixed solve");
        assert_eq!(mixed_sol.stats.precision, Precision::Mixed);
        assert!(
            mixed_sol.stats.refinements >= 1,
            "round {round}: mixed solve reported no refinement passes"
        );
        assert!(mixed_sol.stats.residual <= 1e-11, "round {round}");
        let dev = max_deviation_kelvin(&f64_sol, &mixed_sol);
        assert!(
            dev < 1e-7,
            "round {round} ({case:?}): mixed deviates from f64 by {dev} K"
        );
    }
}

/// Mixed solves keep the engine's determinism guarantee: the f32 inner
/// kernels use the same per-slab ordered reductions as the f64 path, so
/// any thread count reproduces the serial bits.
#[test]
fn mixed_is_bitwise_thread_count_independent() {
    let mut rng = Rng64::seed_from_u64(0x6104);
    for round in 0..4 {
        let case = RandomCase::sample(&mut rng);
        let p = build(&case);
        let solve = |threads: usize| {
            CgSolver::new()
                .with_tolerance(1e-11)
                .with_precision(Precision::Mixed)
                .with_threads(threads)
                .with_parallel_crossover(0)
                .solve(&p)
                .expect("mixed solve")
        };
        let serial: Vec<u64> = solve(1)
            .temperatures
            .iter_kelvin()
            .map(f64::to_bits)
            .collect();
        for threads in [2, 4] {
            let parallel: Vec<u64> = solve(threads)
                .temperatures
                .iter_kelvin()
                .map(f64::to_bits)
                .collect();
            assert_eq!(
                serial, parallel,
                "round {round}: {threads} threads changed the mixed-path bits"
            );
        }
    }
}
