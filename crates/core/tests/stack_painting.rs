//! Bitwise checks of the stack painters against the straightforward
//! algorithms they replace: the pillar map against an all-macros ×
//! all-cells intersection, and the shared per-tier power maps against
//! painting every tier on its own.

use tsc_core::beol::BeolProperties;
use tsc_core::pillars::uniform_routable_map;
use tsc_core::stack::{build_hetero, repower_hetero, Stack3d, StackConfig};
use tsc_designs::{fujitsu, gemmini, rocket, Design};
use tsc_geometry::Grid2;
use tsc_thermal::Heatsink;
use tsc_units::Ratio;

/// The O(cells × macros) pillar map: every macro intersected with every
/// cell.
fn reference_routable_map(design: &Design, budget: Ratio, cells: usize) -> Grid2<f64> {
    let mesh = Grid2::<f64>::filled(cells, cells, 0.0);
    let routable = Grid2::from_fn(cells, cells, |i, j| {
        let cell = mesh.cell_rect(&design.die, i, j);
        let covered: f64 = design
            .units
            .iter()
            .filter(|u| u.is_macro)
            .filter_map(|u| u.rect.intersection(&cell))
            .map(|ov| ov.area().square_meters())
            .sum();
        (1.0 - covered / cell.area().square_meters()).max(0.0)
    });
    let total_routable: f64 = routable.iter().sum();
    let scale = budget.fraction() * (cells * cells) as f64 / total_routable;
    routable.map(|&r| (r * scale).min(0.95))
}

fn assert_bitwise(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (n, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {n}: {x} vs {y}");
    }
}

#[test]
fn routable_map_matches_brute_force_bitwise() {
    let designs = [
        ("gemmini", gemmini::design()),
        ("gemmini-memory", gemmini::memory_tier()),
        ("fujitsu", fujitsu::design()),
        ("rocket", rocket::design()),
    ];
    for (name, design) in &designs {
        assert!(
            design.units.iter().any(|u| u.is_macro),
            "{name} must exercise the macro overlaps"
        );
        for cells in [4, 7, 12, 13, 16, 31, 64] {
            for percent in [0.0, 2.5, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0] {
                let budget = Ratio::from_percent(percent);
                let fast = uniform_routable_map(design, budget, cells);
                let slow = reference_routable_map(design, budget, cells);
                assert_eq!((fast.nx(), fast.ny()), (cells, cells));
                assert_bitwise(
                    fast.as_slice(),
                    slow.as_slice(),
                    &format!("{name} {cells}x{cells} at {percent} %"),
                );
            }
        }
    }
}

fn config(tiers: usize) -> StackConfig {
    StackConfig::uniform(tiers, BeolProperties::scaffolded(), Heatsink::two_phase())
        .with_lateral_cells(12)
        .with_pillar_map(Grid2::filled(12, 12, 0.08))
}

/// Power as painted tier by tier: every tier rasterizes its own map.
fn per_tier_power(stack: &Stack3d, designs: &[&Design], config: &StackConfig) -> Vec<f64> {
    let n = config.lateral_cells;
    let mut problem = stack.problem.clone();
    problem.clear_power();
    for (t, &dev_k) in stack.layout.device_layers.iter().enumerate() {
        let map = designs[t]
            .power_map(n, n, config.utilization[t])
            .map(|&f| f * config.power_scale);
        problem.add_flux_map(dev_k, &map);
    }
    problem.power_flat().to_vec()
}

/// Builds `designs` under `config`, and repowers a stack built at full
/// utilization without dilution to `config`; both must carry exactly the
/// per-tier painted power.
fn assert_painted_per_tier(designs: &[&Design], config: &StackConfig, what: &str) {
    let built = build_hetero(designs, config);
    let expected = per_tier_power(&built, designs, config);
    assert!(expected.iter().any(|&w| w > 0.0), "{what}: no power");
    assert_bitwise(
        built.problem.power_flat(),
        &expected,
        &format!("{what}: build"),
    );

    let mut base = config
        .clone()
        .with_utilizations(vec![Ratio::ONE; config.tiers]);
    base.power_scale = 1.0;
    let mut repowered = build_hetero(designs, &base);
    repower_hetero(&mut repowered, designs, config);
    assert_bitwise(
        repowered.problem.power_flat(),
        &expected,
        &format!("{what}: repower"),
    );
}

#[test]
fn alternating_logic_and_memory_tiers_paint_per_tier() {
    let logic = gemmini::design();
    let memory = gemmini::memory_tier();
    let designs: Vec<&Design> = (0..8)
        .map(|t| if t % 2 == 0 { &logic } else { &memory })
        .collect();
    let cfg = config(8).with_utilizations(vec![Ratio::from_percent(72.0); 8]);
    assert_painted_per_tier(&designs, &cfg, "alternating");
}

#[test]
fn distinct_per_tier_utilizations_paint_per_tier() {
    let logic = gemmini::design();
    let designs = vec![&logic; 6];
    let utils = [100.0, 72.0, 100.0, 40.0, 72.0, 0.0]
        .map(Ratio::from_percent)
        .to_vec();
    assert_painted_per_tier(
        &designs,
        &config(6).with_utilizations(utils),
        "utilizations",
    );
}

#[test]
fn aba_tier_pattern_paints_per_tier() {
    let logic = gemmini::design();
    let memory = gemmini::memory_tier();
    let designs = vec![&logic, &memory, &logic];
    let same = config(3).with_utilizations(vec![Ratio::from_percent(85.0); 3]);
    assert_painted_per_tier(&designs, &same, "A-B-A");
    // The outer A tiers at different utilizations must not share a map.
    let differ = config(3).with_utilizations([85.0, 85.0, 60.0].map(Ratio::from_percent).to_vec());
    assert_painted_per_tier(&designs, &differ, "A-B-A, outer tiers differ");
}

#[test]
fn diluted_power_paints_per_tier() {
    let logic = gemmini::design();
    let memory = gemmini::memory_tier();
    let designs = vec![&logic, &logic, &memory, &logic];
    let cfg = config(4)
        .with_area_dilution(Ratio::from_percent(10.0))
        .with_utilizations([100.0, 90.0, 90.0, 100.0].map(Ratio::from_percent).to_vec());
    assert!(cfg.power_scale < 1.0);
    assert_painted_per_tier(&designs, &cfg, "power_scale < 1");
}

#[test]
fn equal_but_distinct_designs_paint_per_tier() {
    // Two separately built copies of one design are different objects:
    // each gets its own map, and the result is the same as per tier.
    let a = gemmini::design();
    let b = gemmini::design();
    let designs = vec![&a, &b, &a, &b];
    assert_painted_per_tier(&designs, &config(4), "equal copies");
}
