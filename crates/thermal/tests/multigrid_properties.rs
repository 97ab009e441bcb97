//! Randomized property tests for the multigrid path — f64 iterative
//! refinement over the f32 multigrid-preconditioned CG, for steady
//! solves and transient steps: agreement with the plain Jacobi-CG
//! reference, per-pass residual contraction, and the bitwise
//! parallel-equivalence guarantee inherited from the stencil engine.
//!
//! Meshes here are larger and more heterogeneous than the plain-solver
//! property suite so the hierarchy always has several levels to work
//! with: per-layer conductivity contrast, random sink strength, and a
//! handful of scattered sources.

use tsc_geometry::Grid3;
use tsc_rng::Rng64;
use tsc_thermal::transient::{capacity, TransientRun};
use tsc_thermal::{CgSolver, Heatsink, Precision, Problem};
use tsc_units::{HeatTransferCoefficient, Length, Power, Temperature, ThermalConductivity};

/// A random heterogeneous stack: every layer gets its own conductivity
/// (up to ~300x contrast), the sink strength spans two decades, and a
/// few point sources land anywhere in the volume.
#[derive(Debug, Clone)]
struct HeteroCase {
    nx: usize,
    ny: usize,
    nz: usize,
    layer_k: Vec<f64>,
    h: f64,
    ambient_c: f64,
    sources: Vec<(usize, usize, usize, f64)>,
}

impl HeteroCase {
    fn sample(rng: &mut Rng64) -> Self {
        let nx = rng.gen_range(3..10);
        let ny = rng.gen_range(3..10);
        let nz = rng.gen_range(4..9);
        let layer_k = (0..nz).map(|_| rng.gen_range_f64(0.5..150.0)).collect();
        let sources = (0..4)
            .map(|_| {
                (
                    rng.gen_range(0..nx),
                    rng.gen_range(0..ny),
                    rng.gen_range(0..nz),
                    rng.gen_range_f64(0.05..3.0),
                )
            })
            .collect();
        Self {
            nx,
            ny,
            nz,
            layer_k,
            h: rng.gen_range_f64(1e4..1e6),
            ambient_c: rng.gen_range_f64(20.0..110.0),
            sources,
        }
    }
}

fn build(case: &HeteroCase) -> Problem {
    let mut p = Problem::uniform_block(
        case.nx,
        case.ny,
        case.nz,
        Length::from_millimeters(1.0),
        Length::from_millimeters(1.0),
        Length::from_micrometers(50.0),
        ThermalConductivity::new(case.layer_k[0]),
    );
    for (layer, &k) in case.layer_k.iter().enumerate() {
        p.set_layer_conductivity(
            layer,
            ThermalConductivity::new(k),
            ThermalConductivity::new(k),
        );
    }
    p.set_bottom_heatsink(Heatsink::new(
        HeatTransferCoefficient::new(case.h),
        Temperature::from_celsius(case.ambient_c),
    ));
    for &(i, j, k, w) in &case.sources {
        p.add_power(i, j, k, Power::from_watts(w));
    }
    p
}

fn max_dev_kelvin(a: &tsc_thermal::Solution, b: &tsc_thermal::Solution) -> f64 {
    a.temperatures
        .iter_kelvin()
        .zip(b.temperatures.iter_kelvin())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0_f64, f64::max)
}

fn mixed() -> CgSolver {
    CgSolver::new().with_precision(Precision::Mixed)
}

/// The mixed path's MG-preconditioned inner solve, refined in f64, must
/// land on the same temperature field as the plain Jacobi-CG reference.
#[test]
fn mixed_mg_pcg_agrees_with_plain_cg() {
    let mut rng = Rng64::seed_from_u64(0x7001);
    for _ in 0..10 {
        let case = HeteroCase::sample(&mut rng);
        let p = build(&case);
        let reference = CgSolver::new().solve(&p).expect("jacobi cg");
        let pcg = mixed().solve(&p).expect("mixed mg-pcg");
        let dev_pcg = max_dev_kelvin(&pcg, &reference);
        assert!(dev_pcg < 1e-6, "mixed MG-PCG deviates by {dev_pcg} K");
        assert_eq!(pcg.stats.precision, Precision::Mixed);
        assert!(pcg.stats.cycles > 0, "MG-PCG must report V-cycle count");
        assert!(
            !pcg.stats.level_residuals.is_empty(),
            "per-level residuals must be recorded"
        );
    }
}

/// Every refinement pass — one inner MG-PCG solve — contracts the f64
/// residual: the trajectory is strictly decreasing.
#[test]
fn every_refinement_pass_contracts_the_residual() {
    let mut rng = Rng64::seed_from_u64(0x7002);
    for _ in 0..10 {
        let case = HeteroCase::sample(&mut rng);
        let p = build(&case);
        let sol = mixed()
            .with_tolerance(1e-11)
            .solve(&p)
            .expect("mixed solves");
        let traj = &sol.stats.trajectory;
        assert!(traj.len() >= 2, "trajectory too short: {traj:?}");
        assert_eq!(sol.stats.refinements + 1, traj.len(), "one sample per pass");
        for pair in traj.windows(2) {
            let (_, before) = pair[0];
            let (_, after) = pair[1];
            assert!(
                after < before,
                "refinement pass failed to contract: {before} -> {after} (case {case:?})"
            );
        }
    }
}

/// Transient stepping on the multigrid path keeps the engine's
/// determinism: a mesh at the parallel crossover bands its finest level
/// across threads, and every thread count reproduces the serial bits.
#[test]
fn forced_parallel_mg_is_bitwise_identical_to_serial() {
    let mut p = Problem::uniform_block(
        32,
        32,
        32,
        Length::from_millimeters(0.5),
        Length::from_millimeters(0.5),
        Length::from_micrometers(20.0),
        ThermalConductivity::new(148.0),
    );
    assert_eq!(p.dim().len(), tsc_thermal::DEFAULT_PARALLEL_CROSSOVER);
    p.set_layer_conductivity(
        9,
        ThermalConductivity::new(1.2),
        ThermalConductivity::new(2.4),
    );
    p.set_bottom_heatsink(Heatsink::two_phase());
    p.add_power(20, 11, 31, Power::from_watts(2.0));
    p.add_power(4, 27, 20, Power::from_watts(0.5));
    let caps = Grid3::filled(p.dim(), capacity::SILICON);
    let trajectory = |threads: usize| {
        let mut run = TransientRun::new(&p, &caps, 1e-4, Heatsink::two_phase().ambient)
            .expect("well-posed")
            .with_threads(threads)
            .with_multigrid();
        let mut bits = Vec::new();
        for _ in 0..3 {
            let stats = run.step().expect("step");
            assert_eq!(stats.threads, threads, "the finest level must band");
            assert_eq!(stats.precision, Precision::Mixed);
            bits.extend(run.temperatures().iter_kelvin().map(f64::to_bits));
        }
        bits
    };
    let serial = trajectory(1);
    for threads in [2, 4] {
        assert!(
            trajectory(threads) == serial,
            "transient MG stepping not bitwise thread-independent at {threads} threads"
        );
    }
}

#[test]
fn forced_parallel_mg_pcg_is_bitwise_identical_to_serial() {
    let mut rng = Rng64::seed_from_u64(0x7004);
    for _ in 0..8 {
        let case = HeteroCase::sample(&mut rng);
        let p = build(&case);
        for threads in [3, 4] {
            let serial = mixed().with_threads(1).solve(&p).expect("serial mixed");
            let parallel = mixed()
                .with_threads(threads)
                .with_parallel_crossover(0)
                .solve(&p)
                .expect("parallel mixed");
            let identical = serial
                .temperatures
                .iter_kelvin()
                .zip(parallel.temperatures.iter_kelvin())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(
                identical,
                "mixed MG-PCG not bitwise thread-independent at {threads} threads"
            );
            assert_eq!(serial.stats.iterations, parallel.stats.iterations);
            assert_eq!(serial.stats.cycles, parallel.stats.cycles);
        }
    }
}

/// The preconditioner actually earns its keep: on these heterogeneous
/// meshes the mixed path's inner MG-PCG must never need more
/// iterations than plain Jacobi CG, and must win clearly on aggregate.
#[test]
fn mg_pcg_needs_fewer_iterations_than_jacobi() {
    let mut rng = Rng64::seed_from_u64(0x7005);
    let (mut total_jacobi, mut total_mg) = (0usize, 0usize);
    for _ in 0..10 {
        let case = HeteroCase::sample(&mut rng);
        let p = build(&case);
        let jacobi = CgSolver::new().solve(&p).expect("jacobi");
        let mg = mixed().solve(&p).expect("mixed");
        assert!(
            mg.stats.iterations <= jacobi.stats.iterations,
            "MG-PCG took {} iterations vs Jacobi's {} (case {case:?})",
            mg.stats.iterations,
            jacobi.stats.iterations
        );
        total_jacobi += jacobi.stats.iterations;
        total_mg += mg.stats.iterations;
    }
    assert!(
        2 * total_mg <= total_jacobi,
        "MG-PCG must at least halve aggregate iterations: {total_mg} vs {total_jacobi}"
    );
}
