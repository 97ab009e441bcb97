//! Degenerate-limit tests for the solvers, boundaries, and the compact
//! ladder network: cases where the exact answer is known in closed form
//! (zero power, a single cell, an infinite film coefficient, a zero
//! heatsink rise), so any drift is a bug rather than a tolerance
//! question.

use tsc_thermal::network::{Ladder, TierRung};
use tsc_thermal::{CgSolver, Heatsink, Precision, Problem, SorSolver};
use tsc_units::{
    AreaThermalResistance, HeatFlux, HeatTransferCoefficient, Length, Power, Temperature,
    ThermalConductivity,
};

fn block(nx: usize, ny: usize, nz: usize) -> Problem {
    Problem::uniform_block(
        nx,
        ny,
        nz,
        Length::from_millimeters(1.0),
        Length::from_millimeters(1.0),
        Length::from_micrometers(10.0 * nz as f64),
        ThermalConductivity::new(140.0),
    )
}

#[test]
fn zero_power_stack_sits_at_ambient_everywhere() {
    // No sources: the exact solution is T ≡ ambient in every cell, for
    // every solver, to solver tolerance around a ~300 K scale.
    let mut p = block(6, 6, 5);
    p.set_bottom_heatsink(Heatsink::two_phase());
    let ambient = Heatsink::two_phase().ambient.kelvin();
    for (label, solution) in [
        ("cg", CgSolver::new().solve(&p).expect("cg")),
        ("sor", SorSolver::new().solve(&p).expect("sor")),
        (
            "mixed",
            CgSolver::new()
                .with_precision(Precision::Mixed)
                .solve(&p)
                .expect("mixed"),
        ),
    ] {
        for (cell, t) in solution.temperatures.iter_kelvin().enumerate() {
            assert!(
                (t - ambient).abs() < 1e-6,
                "{label}: cell {cell} at {t} K, expected ambient {ambient} K"
            );
        }
    }
}

#[test]
fn single_cell_mesh_matches_the_series_resistance_formula() {
    // One cell over a Robin film: T = T_amb + P·(half-cell + film)
    // resistance. The discrete operator must reproduce this exactly.
    let dx = 1e-3;
    let dz = 100e-6;
    let k = 50.0;
    let h = 2.0e5;
    let watts = 0.75;
    let mut p = Problem::uniform_block(
        1,
        1,
        1,
        Length::from_meters(dx),
        Length::from_meters(dx),
        Length::from_meters(dz),
        ThermalConductivity::new(k),
    );
    let ambient = 300.0;
    p.set_bottom_heatsink(Heatsink {
        h: HeatTransferCoefficient::new(h),
        ambient: Temperature::from_kelvin(ambient),
    });
    p.add_power(0, 0, 0, Power::from_watts(watts));
    let area = dx * dx;
    let expected = ambient + watts * ((dz / 2.0) / (k * area) + 1.0 / (h * area));
    let solution = CgSolver::new().solve(&p).expect("single cell");
    let got = solution.temperatures.at(0, 0, 0).kelvin();
    assert!(
        (got - expected).abs() < 1e-9,
        "single-cell analytic mismatch: {got} vs {expected}"
    );
}

#[test]
fn infinite_film_coefficient_is_the_dirichlet_limit() {
    // h → ∞ collapses the Robin series conductance to pure half-cell
    // conduction: the solve must (a) succeed with h = ∞ exactly, and
    // (b) approach the h = 1e12 result (whose residual film resistance
    // still contributes ~10 µK per watt-column, so the comparison is a
    // limit check, not a bitwise one).
    let build = |h: f64| {
        let mut p = block(5, 5, 4);
        p.set_bottom_heatsink(Heatsink {
            h: HeatTransferCoefficient::new(h),
            ambient: Temperature::from_kelvin(300.0),
        });
        p.add_power(2, 2, 3, Power::from_watts(1.2));
        p
    };
    let exact = CgSolver::new()
        .solve(&build(f64::INFINITY))
        .expect("h = ∞ must solve");
    let huge = CgSolver::new().solve(&build(1e12)).expect("h = 1e12");
    for ((t_inf, t_huge), cell) in exact
        .temperatures
        .iter_kelvin()
        .zip(huge.temperatures.iter_kelvin())
        .zip(0..)
    {
        assert!(
            (t_inf - t_huge).abs() < 1e-3,
            "cell {cell}: Dirichlet limit {t_inf} vs near-limit {t_huge}"
        );
    }
    // And the face itself is pinned: the bottom layer sits within the
    // half-cell conduction rise of ambient, far below the top.
    assert!(exact.temperatures.layer_max(0) < exact.temperatures.layer_max(3));
}

#[test]
fn ladder_with_zero_flux_rungs_stays_at_ambient() {
    let rung = TierRung::new(HeatFlux::ZERO, AreaThermalResistance::new(3.3e-6));
    let ladder = Ladder::uniform(Heatsink::two_phase(), rung, 7);
    let ambient = Heatsink::two_phase().ambient;
    assert_eq!(ladder.len(), 7);
    assert!(!ladder.is_empty());
    assert!((ladder.heatsink_rise().kelvin()).abs() < 1e-12);
    for t in ladder.node_temperatures() {
        assert!(
            (t.kelvin() - ambient.kelvin()).abs() < 1e-9,
            "zero-flux node at {t}, expected ambient"
        );
    }
    assert_eq!(ladder.conduction_fraction().fraction(), 0.0);
}

#[test]
fn single_rung_ladder_is_the_two_resistor_formula() {
    let q = HeatFlux::from_watts_per_square_cm(50.0);
    let r = AreaThermalResistance::new(4.0e-6);
    let sink = Heatsink::two_phase();
    let ladder = Ladder::new(sink, vec![TierRung::new(q, r)]);
    let expected = sink.ambient.kelvin() + (q / sink.h).kelvin() + (q * r).kelvin();
    let tj = ladder.junction_temperature().kelvin();
    assert!(
        (tj - expected).abs() < 1e-9,
        "one-rung ladder: {tj} vs analytic {expected}"
    );
}

#[test]
fn max_tiers_within_is_zero_when_one_tier_already_violates() {
    let hot = TierRung::new(
        HeatFlux::from_watts_per_square_cm(500.0),
        AreaThermalResistance::new(1e-4),
    );
    let n = Ladder::max_tiers_within(
        Heatsink::forced_air(),
        hot,
        Temperature::from_celsius(125.0),
        16,
    );
    assert_eq!(n, 0, "an uncoolable tier must report zero tiers");
}
