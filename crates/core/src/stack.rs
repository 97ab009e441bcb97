//! Assembling the `N`-tier 3D-IC thermal problem.
//!
//! Stack order (bottom = heatsink side, Fig. 1): 10 µm handle silicon,
//! then per tier — 100 nm device silicon (the heat source), 1 µm lumped
//! V0–V7 BEOL, 240 nm M8/V8/M9 upper BEOL, 100 nm ILV/bond interface.
//! Tier `t`'s device layer rests on tier `t−1`'s ILV interface, so heat
//! from upper tiers crosses every BEOL below it — the thermal ladder.
//!
//! Pillars enter as a per-cell areal-density map: each BEOL/ILV cell
//! under a pillar column gets its vertical conductivity blended toward
//! the pillar conductivity by the parallel rule (the same abstraction
//! the paper applies after COMSOL pillar characterization).

use crate::beol::{self, BeolProperties};
use tsc_designs::Design;
use tsc_geometry::Grid2;
use tsc_homogenize::pillar::PillarDesign;
use tsc_materials::{BULK_SILICON, DEVICE_SILICON_THIN};
use tsc_thermal::{CgSolver, Heatsink, Precision, Problem, Solution, SolveContext, SolveError};
use tsc_units::{Length, Ratio, Temperature, ThermalConductivity};

/// Configuration of a stacked-chip thermal simulation.
#[derive(Debug, Clone)]
pub struct StackConfig {
    /// Number of stacked tiers.
    pub tiers: usize,
    /// Lumped BEOL properties (per cooling strategy).
    pub beol: BeolProperties,
    /// The attached heatsink (bottom face).
    pub heatsink: Heatsink,
    /// Per-tier utilization; uniform workloads replicate one value.
    pub utilization: Vec<Ratio>,
    /// Lateral mesh resolution (cells per die edge).
    pub lateral_cells: usize,
    /// Pillar areal-density map over the die (fraction of each cell's
    /// footprint occupied by pillar copper); `None` = no pillars.
    pub pillar_map: Option<Grid2<f64>>,
    /// Effective vertical conductivity of the pillar columns.
    pub pillar_k: ThermalConductivity,
    /// Multiplier applied to every power map — the flux dilution caused
    /// by spreading the same design over a grown (1 + area penalty)
    /// footprint.
    pub power_scale: f64,
    /// Optional second heatsink on the *top* face (double-sided
    /// cooling — a future-work configuration the FVM supports natively).
    pub top_heatsink: Option<Heatsink>,
    /// Pitch of the pillar constellations. Pillars are not smeared
    /// uniformly through the routed area: they cluster along PDN
    /// stripes/unit boundaries (Fig. 8a), so heat must first converge
    /// laterally — through the upper dielectric — to reach a cluster.
    /// This pitch sets how much that *gathering* resistance derates the
    /// pillar blend (see [`pillar_efficiency`]).
    pub pillar_pitch: Length,
}

impl StackConfig {
    /// A uniform-utilization configuration.
    ///
    /// # Panics
    ///
    /// Panics if `tiers` is zero.
    #[must_use]
    pub fn uniform(tiers: usize, beol: BeolProperties, heatsink: Heatsink) -> Self {
        assert!(tiers > 0, "need at least one tier");
        Self {
            tiers,
            beol,
            heatsink,
            utilization: vec![Ratio::ONE; tiers],
            lateral_cells: 24,
            pillar_map: None,
            pillar_k: PillarDesign::asap7_100nm().effective_vertical_k(),
            power_scale: 1.0,
            top_heatsink: None,
            pillar_pitch: Length::from_micrometers(5.0),
        }
    }

    /// Builder: attaches a second heatsink to the top of the stack.
    #[must_use]
    pub fn with_top_heatsink(mut self, hs: Heatsink) -> Self {
        self.top_heatsink = Some(hs);
        self
    }

    /// Builder: dilutes the power maps by `1/(1 + area_penalty)` —
    /// a grown footprint spreads the same watts thinner.
    ///
    /// # Panics
    ///
    /// Panics if `area_penalty` is negative.
    #[must_use]
    pub fn with_area_dilution(mut self, area_penalty: Ratio) -> Self {
        assert!(
            area_penalty.fraction() >= 0.0,
            "area penalty cannot be negative"
        );
        self.power_scale = 1.0 / (1.0 + area_penalty.fraction());
        self
    }

    /// Builder: sets the lateral mesh resolution.
    ///
    /// # Panics
    ///
    /// Panics if `cells` is zero.
    #[must_use]
    pub fn with_lateral_cells(mut self, cells: usize) -> Self {
        assert!(cells > 0, "resolution must be positive");
        self.lateral_cells = cells;
        self
    }

    /// Builder: installs a pillar density map.
    #[must_use]
    pub fn with_pillar_map(mut self, map: Grid2<f64>) -> Self {
        self.pillar_map = Some(map);
        self
    }

    /// Builder: per-tier utilizations (length must equal `tiers`).
    ///
    /// # Panics
    ///
    /// Panics if the length mismatches.
    #[must_use]
    pub fn with_utilizations(mut self, utils: Vec<Ratio>) -> Self {
        assert_eq!(utils.len(), self.tiers, "one utilization per tier");
        self.utilization = utils;
        self
    }

    /// Die-average pillar density (zero without a map).
    #[must_use]
    pub fn average_pillar_density(&self) -> Ratio {
        match &self.pillar_map {
            None => Ratio::ZERO,
            Some(m) => Ratio::from_fraction(m.mean()),
        }
    }
}

/// Gathering efficiency of a pillar constellation at areal density `f`
/// and pitch `pitch`: the fraction of the ideal (parallel-rule) pillar
/// conductance that survives once heat must converge laterally to the
/// cluster through the sheet formed by the upper dielectric, the device
/// film and the bond layer.
///
/// `η = R_column / (R_column + R_gather)` with
/// `R_column = L / (k_p · a²)` (the cluster column, side `a = √f·pitch`)
/// and `R_gather = ln(pitch/a) / (2π · Σ k_lat·t)` (radial convergence).
///
/// Sparse constellations are column-limited (`η → 1`); dense ones over a
/// poor lateral dielectric are gathering-limited — the reason pillars
/// without the thermal dielectric need ~3× the footprint (Table I).
///
/// # Panics
///
/// Panics if `f` is outside `(0, 1]` or geometry is non-positive.
#[must_use]
pub fn pillar_efficiency(
    f: f64,
    pitch: Length,
    pillar_k: ThermalConductivity,
    beol: &BeolProperties,
) -> f64 {
    assert!(f > 0.0 && f <= 1.0, "density must be in (0, 1], got {f}");
    assert!(pitch.meters() > 0.0, "pitch must be positive");
    let a = f.sqrt() * pitch.meters();
    let l_tier =
        (beol::lower_thickness() + beol::upper_thickness() + beol::ilv_thickness()).meters();
    let r_column = l_tier / (pillar_k.get() * a * a);
    // Lateral gathering sheet: upper dielectric + 100 nm device film +
    // bond layer.
    let k_sheet = beol.upper.lateral.get() * beol::upper_thickness().meters()
        + 65.0 * 100.0e-9
        + beol.ilv.lateral.get() * beol::ilv_thickness().meters();
    let r_gather = (1.0 / f.sqrt()).ln().max(0.05) / (2.0 * core::f64::consts::PI * k_sheet);
    r_column / (r_column + r_gather)
}

/// Index bookkeeping of the built mesh.
#[derive(Debug, Clone)]
pub struct StackLayout {
    /// Mesh z-index of each tier's device layer.
    pub device_layers: Vec<usize>,
    /// Mesh z-indices of every BEOL/ILV layer (pillar-bearing).
    pub beol_layers: Vec<usize>,
}

/// A built (and optionally solved) stack.
#[derive(Debug, Clone)]
pub struct Stack3d {
    /// The finite-volume problem.
    pub problem: Problem,
    /// Mesh bookkeeping.
    pub layout: StackLayout,
}

/// Builds the finite-volume problem for `design` stacked per `config`
/// (homogeneous tiers — the paper's `N` copies of one design).
///
/// # Panics
///
/// Panics on inconsistent configuration (zero tiers, mismatched
/// utilization length).
#[must_use]
pub fn build(design: &Design, config: &StackConfig) -> Stack3d {
    let designs = vec![design; config.tiers.max(1)];
    build_hetero(&designs, config)
}

/// Builds a *heterogeneous* stack: one design per tier, bottom first —
/// the Fig. 1 picture of logic tiers interleaved with silicon-memory
/// tiers, and the setting of the Observation-4c misalignment concern.
///
/// All designs must share the die footprint (iso-footprint stacking).
///
/// # Panics
///
/// Panics if `designs.len() != config.tiers`, the utilization length
/// mismatches, or the dies differ.
#[must_use]
pub fn build_hetero(designs: &[&Design], config: &StackConfig) -> Stack3d {
    assert!(config.tiers > 0, "need at least one tier");
    assert_eq!(designs.len(), config.tiers, "one design per tier");
    assert_eq!(
        config.utilization.len(),
        config.tiers,
        "one utilization per tier"
    );
    let design = designs[0];
    for d in designs {
        assert_eq!(
            d.die, design.die,
            "heterogeneous tiers must share the die footprint"
        );
    }
    let n = config.lateral_cells;
    let die_w = design.die.width();
    let die_h = design.die.height();

    // Slab list, bottom to top.
    let mut dz: Vec<Length> = vec![Length::from_micrometers(10.0)];
    let mut device_layers = Vec::new();
    let mut beol_layers = Vec::new();
    for _ in 0..config.tiers {
        let base = dz.len();
        dz.push(Length::from_nanometers(100.0)); // device Si
        dz.push(beol::lower_thickness());
        dz.push(beol::upper_thickness());
        dz.push(beol::ilv_thickness());
        device_layers.push(base);
        beol_layers.extend([base + 1, base + 2, base + 3]);
    }

    let mut p = Problem::new(
        n,
        n,
        die_w / n as f64,
        die_h / n as f64,
        dz,
        ThermalConductivity::new(1.0),
    );
    // Handle silicon.
    p.set_layer_conductivity(
        0,
        BULK_SILICON.conductivity.vertical,
        BULK_SILICON.conductivity.lateral,
    );
    // Per-tier slabs.
    for &dev_k in &device_layers {
        p.set_layer_conductivity(
            dev_k,
            DEVICE_SILICON_THIN.conductivity.vertical,
            DEVICE_SILICON_THIN.conductivity.lateral,
        );
        p.set_layer_conductivity(
            dev_k + 1,
            config.beol.lower.vertical,
            config.beol.lower.lateral,
        );
        p.set_layer_conductivity(
            dev_k + 2,
            config.beol.upper.vertical,
            config.beol.upper.lateral,
        );
        p.set_layer_conductivity(dev_k + 3, config.beol.ilv.vertical, config.beol.ilv.lateral);
    }
    paint_power(&mut p, &device_layers, designs, config);
    // Pillars: vertical-inclusion blend in every BEOL/ILV cell.
    if let Some(map) = &config.pillar_map {
        let resampled;
        let map = if map.nx() == n && map.ny() == n {
            map
        } else {
            resampled = map.resampled(n, n);
            &resampled
        };
        // The derated pillar fraction of each column, once for all of
        // its BEOL/ILV layers.
        let fractions = map.map(|&f| {
            let f = f.clamp(0.0, 1.0);
            (f > 0.0).then(|| {
                f * pillar_efficiency(f, config.pillar_pitch, config.pillar_k, &config.beol)
            })
        });
        for &k in &beol_layers {
            for j in 0..n {
                for i in 0..n {
                    if let Some(fraction) = fractions[(i, j)] {
                        p.blend_vertical_inclusion(i, j, k, fraction, config.pillar_k);
                    }
                }
            }
        }
    }
    p.set_bottom_heatsink(config.heatsink);
    if let Some(top) = config.top_heatsink {
        p.set_top_heatsink(top);
    }
    Stack3d {
        problem: p,
        layout: StackLayout {
            device_layers,
            beol_layers,
        },
    }
}

/// Repaints a built stack's power maps in place for a *power-only*
/// reconfiguration — same design, tier count, lateral resolution,
/// BEOL/pillar/heatsink geometry, different per-tier `utilization` /
/// `power_scale`.  This is the batch-endpoint fast path: the operator
/// identity (geometry, conductivity, sinks) is untouched, so re-solving
/// the repowered problem through a pooled `SolveContext` is a warm
/// power-delta solve instead of a rebuild plus cold solve.
///
/// The caller is responsible for the "same geometry" contract beyond
/// what is asserted here (tier count and mesh footprint are checked;
/// conductivity knobs are not re-derived).
///
/// # Panics
///
/// Panics if `config.tiers`/`config.utilization` disagree with the
/// stack's layout or the mesh resolution differs.
pub fn repower(stack: &mut Stack3d, design: &Design, config: &StackConfig) {
    repower_hetero(stack, &vec![design; config.tiers.max(1)], config);
}

/// Heterogeneous-stack twin of [`repower`]: one design per tier.
///
/// Only the power maps are repainted, one rasterization per distinct
/// (design, utilization) pair among the tiers: a uniform-utilization
/// repower of a stack of one design costs a single map, bitwise equal
/// to painting every tier separately. The config's pillar map and
/// conductivity knobs are not read.
///
/// # Panics
///
/// See [`repower`].
pub fn repower_hetero(stack: &mut Stack3d, designs: &[&Design], config: &StackConfig) {
    assert_eq!(
        stack.layout.device_layers.len(),
        config.tiers,
        "repower must keep the tier count"
    );
    assert_eq!(designs.len(), config.tiers, "one design per tier");
    assert_eq!(
        config.utilization.len(),
        config.tiers,
        "one utilization per tier"
    );
    let n = config.lateral_cells;
    let dim = stack.problem.dim();
    assert!(
        dim.nx == n && dim.ny == n,
        "repower must keep the lateral resolution ({n} vs {}x{})",
        dim.nx,
        dim.ny
    );
    stack.problem.clear_power();
    paint_power(
        &mut stack.problem,
        &stack.layout.device_layers,
        designs,
        config,
    );
}

/// Adds each tier's power map (diluted by `config.power_scale` when the
/// footprint grew) to its device layer. A map is rasterized once per
/// distinct (design, utilization) pair and reused for every tier that
/// repeats the pair, so a uniform stack paints one map however tall it
/// is. Designs compare by identity; utilizations by their bits.
fn paint_power(
    problem: &mut Problem,
    device_layers: &[usize],
    designs: &[&Design],
    config: &StackConfig,
) {
    let n = config.lateral_cells;
    let mut painted: Vec<(&Design, u64, Grid2<f64>)> = Vec::new();
    for ((&dev_k, &design), &utilization) in
        device_layers.iter().zip(designs).zip(&config.utilization)
    {
        let bits = utilization.fraction().to_bits();
        let slot = match painted
            .iter()
            .position(|(d, b, _)| core::ptr::eq(*d, design) && *b == bits)
        {
            Some(slot) => slot,
            None => {
                let map = design
                    .power_map(n, n, utilization)
                    .map(|&f| f * config.power_scale);
                painted.push((design, bits, map));
                painted.len() - 1
            }
        };
        problem.add_flux_map(dev_k, &painted[slot].2);
    }
}

/// A solved stack with junction bookkeeping.
#[derive(Debug, Clone)]
pub struct StackSolution {
    /// The raw solver output.
    pub solution: Solution,
    /// Mesh bookkeeping.
    pub layout: StackLayout,
}

impl StackSolution {
    /// Junction temperature: the hottest device-layer cell.
    #[must_use]
    pub fn junction_temperature(&self) -> Temperature {
        self.layout
            .device_layers
            .iter()
            .map(|&k| self.solution.temperatures.layer_max(k))
            .fold(Temperature::ABSOLUTE_ZERO, Temperature::max)
    }

    /// Peak temperature of one tier's device layer.
    ///
    /// # Panics
    ///
    /// Panics if `tier` is out of range.
    #[must_use]
    pub fn tier_max(&self, tier: usize) -> Temperature {
        self.solution
            .temperatures
            .layer_max(self.layout.device_layers[tier])
    }

    /// Per-tier peak temperatures, bottom to top.
    #[must_use]
    pub fn tier_profile(&self) -> Vec<Temperature> {
        (0..self.layout.device_layers.len())
            .map(|t| self.tier_max(t))
            .collect()
    }
}

/// Builds and solves in one step.
///
/// # Errors
///
/// Propagates [`SolveError`] from the finite-volume solve.
pub fn solve(design: &Design, config: &StackConfig) -> Result<StackSolution, SolveError> {
    let stack = build(design, config);
    let solution = CgSolver::new().with_tolerance(1e-8).solve(&stack.problem)?;
    Ok(StackSolution {
        solution,
        layout: stack.layout,
    })
}

/// The production solver configuration, shared by every cached solve
/// (`/v1/solve`, `/v1/batch`, jobs, flows, pillar placement): mixed
/// precision at the same tolerance as [`solve`]. f64 iterative
/// refinement wraps an f32 multigrid-preconditioned CG on the fully
/// coarsened hierarchy; a refinement pass that stalls finishes on f64
/// Jacobi-CG. [`solve`] stays on Jacobi-CG as the independent
/// reference.
#[must_use]
pub fn hot_loop_solver() -> CgSolver {
    CgSolver::new()
        .with_tolerance(1e-8)
        .with_precision(Precision::Mixed)
}

/// Builds and solves through a [`SolveContext`]: repeated solves over
/// the same mesh geometry (density bisection, placement escalation,
/// codesign sweeps) reuse the assembled operator and multigrid
/// hierarchy, and warm-start from the previous temperature field.
///
/// # Errors
///
/// Propagates [`SolveError`] from the finite-volume solve.
pub fn solve_with(
    design: &Design,
    config: &StackConfig,
    ctx: &mut SolveContext,
) -> Result<StackSolution, SolveError> {
    let stack = build(design, config);
    let solution = ctx.solve(&stack.problem, &hot_loop_solver())?;
    Ok(StackSolution {
        solution,
        layout: stack.layout,
    })
}

/// Builds and solves a heterogeneous stack in one step.
///
/// # Errors
///
/// Propagates [`SolveError`] from the finite-volume solve.
pub fn solve_hetero(
    designs: &[&Design],
    config: &StackConfig,
) -> Result<StackSolution, SolveError> {
    let stack = build_hetero(designs, config);
    let solution = CgSolver::new().with_tolerance(1e-8).solve(&stack.problem)?;
    Ok(StackSolution {
        solution,
        layout: stack.layout,
    })
}

/// The compact ladder twin of a stack configuration: per-tier average
/// flux and pillar-blended tier resistance. Fast enough for penalty
/// sweeps; the FVM path is authoritative for hotspots.
#[must_use]
pub fn compact_ladder(design: &Design, config: &StackConfig) -> tsc_thermal::network::Ladder {
    use tsc_thermal::network::{Ladder, TierRung};
    let f_raw = config.average_pillar_density().fraction();
    let f_pillar = if f_raw > 0.0 {
        f_raw * pillar_efficiency(f_raw, config.pillar_pitch, config.pillar_k, &config.beol)
    } else {
        0.0
    };
    let blend = |k: ThermalConductivity| {
        ThermalConductivity::new((1.0 - f_pillar) * k.get() + f_pillar * config.pillar_k.get())
    };
    let r = blend(config.beol.lower.vertical).slab_resistance(beol::lower_thickness())
        + blend(config.beol.upper.vertical).slab_resistance(beol::upper_thickness())
        + blend(config.beol.ilv.vertical).slab_resistance(beol::ilv_thickness());
    let rungs: Vec<TierRung> = config
        .utilization
        .iter()
        .map(|&u| TierRung::new(design.average_flux(u) * config.power_scale, r))
        .collect();
    Ladder::new(config.heatsink, rungs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsc_designs::gemmini;

    fn quick(tiers: usize, beol: BeolProperties) -> StackConfig {
        StackConfig::uniform(tiers, beol, Heatsink::two_phase()).with_lateral_cells(12)
    }

    #[test]
    fn mesh_bookkeeping() {
        let d = gemmini::design();
        let s = build(&d, &quick(3, BeolProperties::conventional()));
        assert_eq!(s.layout.device_layers, vec![1, 5, 9]);
        assert_eq!(s.layout.beol_layers.len(), 9);
        assert_eq!(s.problem.dim().nz, 13);
    }

    #[test]
    fn single_tier_is_cool() {
        let d = gemmini::design();
        let sol = solve(&d, &quick(1, BeolProperties::conventional())).expect("solves");
        let tj = sol.junction_temperature();
        assert!(
            tj.celsius() > 100.0 && tj.celsius() < 106.0,
            "one tier on two-phase cooling: {tj}"
        );
    }

    #[test]
    fn upper_tiers_run_hotter() {
        let d = gemmini::design();
        let sol = solve(&d, &quick(4, BeolProperties::conventional())).expect("solves");
        let profile = sol.tier_profile();
        for w in profile.windows(2) {
            assert!(w[1] > w[0], "tier temperatures must ascend: {profile:?}");
        }
    }

    #[test]
    fn conventional_three_tiers_near_limit() {
        // The paper's anchor: conventional 3D thermal supports ~3 Gemmini
        // tiers below 125 °C and fails well before 6.
        let d = gemmini::design();
        let t3 = solve(&d, &quick(3, BeolProperties::conventional()))
            .expect("3 tiers")
            .junction_temperature();
        let t6 = solve(&d, &quick(6, BeolProperties::conventional()))
            .expect("6 tiers")
            .junction_temperature();
        assert!(t3.celsius() < 130.0, "3 tiers: {t3}");
        assert!(t6.celsius() > 125.0, "6 tiers must bust the limit: {t6}");
    }

    #[test]
    fn pillars_plus_dielectric_enable_twelve_tiers() {
        // The headline: scaffolding (thermal dielectric + ~10% pillars)
        // holds 12 tiers under 125 °C.
        let d = gemmini::design();
        let n = 12;
        let pillar_map = Grid2::filled(12, 12, 0.10);
        let cfg = quick(n, BeolProperties::scaffolded()).with_pillar_map(pillar_map);
        let tj = solve(&d, &cfg).expect("solves").junction_temperature();
        assert!(tj.celsius() < 125.0, "scaffolded 12-tier Gemmini: {tj}");
        // And conventional at 12 tiers is catastrophic (paper: >353 °C).
        let conv = solve(&d, &quick(n, BeolProperties::conventional()))
            .expect("solves")
            .junction_temperature();
        // Paper reports >353 °C; our slightly less resistive lower BEOL
        // (0.41 vs 0.31 W/m/K) lands ~270 °C — equally catastrophic.
        assert!(conv.celsius() > 250.0, "conventional 12 tiers: {conv}");
    }

    #[test]
    fn compact_ladder_tracks_fvm_within_hotspot_factor() {
        let d = gemmini::design();
        let cfg = quick(3, BeolProperties::conventional());
        let fvm = solve(&d, &cfg).expect("solves").junction_temperature();
        let ladder = compact_ladder(&d, &cfg).junction_temperature();
        // The ladder uses die-average flux, so it under-predicts the
        // hotspot; the ratio of rises stays within ~2.5x.
        let amb = Heatsink::two_phase().ambient;
        let ratio = (fvm - amb).kelvin() / (ladder - amb).kelvin();
        assert!(
            (1.0..2.5).contains(&ratio),
            "hotspot factor {ratio} (fvm {fvm}, ladder {ladder})"
        );
    }

    #[test]
    fn interleaved_memory_tiers_run_cooler() {
        // The Fig. 1 picture: logic tiers interleaved with cool SRAM
        // tiers beat an all-logic stack of the same height.
        let logic = gemmini::design();
        let memory = gemmini::memory_tier();
        let cfg = quick(8, BeolProperties::scaffolded())
            .with_pillar_map(tsc_geometry::Grid2::filled(12, 12, 0.08));
        let all_logic: Vec<&tsc_designs::Design> = vec![&logic; 8];
        let interleaved: Vec<&tsc_designs::Design> = (0..8)
            .map(|t| if t % 2 == 0 { &logic } else { &memory })
            .collect();
        let t_all = solve_hetero(&all_logic, &cfg)
            .expect("solves")
            .junction_temperature();
        let t_mix = solve_hetero(&interleaved, &cfg)
            .expect("solves")
            .junction_temperature();
        assert!(
            t_mix.kelvin() + 1.0 < t_all.kelvin(),
            "interleaving memory must cool: {t_all} -> {t_mix}"
        );
    }

    #[test]
    #[should_panic(expected = "share the die footprint")]
    fn hetero_requires_matching_dies() {
        let logic = gemmini::design();
        let rocket = tsc_designs::rocket::design();
        let cfg = quick(2, BeolProperties::scaffolded());
        let _ = build_hetero(&[&logic, &rocket], &cfg);
    }

    #[test]
    fn double_sided_cooling_helps() {
        let d = gemmini::design();
        let single = quick(8, BeolProperties::scaffolded());
        let double =
            quick(8, BeolProperties::scaffolded()).with_top_heatsink(Heatsink::microfluidic());
        let t1 = solve(&d, &single).expect("single").junction_temperature();
        let t2 = solve(&d, &double).expect("double").junction_temperature();
        assert!(
            t2.kelvin() + 1.0 < t1.kelvin(),
            "a top sink must cool the stack: {t1} -> {t2}"
        );
    }

    #[test]
    fn gated_tiers_dissipate_nothing() {
        let d = gemmini::design();
        let cfg = quick(2, BeolProperties::conventional())
            .with_utilizations(vec![Ratio::ONE, Ratio::ZERO]);
        let stack = build(&d, &cfg);
        // Tier 1 device layer only leaks (SRAM leakage floor), so its
        // injected power is well below tier 0's.
        let p0: f64 = {
            let k = stack.layout.device_layers[0];
            (0..12)
                .flat_map(|j| (0..12).map(move |i| (i, j)))
                .map(|(i, j)| stack.problem.cell_power(i, j, k).watts())
                .sum()
        };
        let p1: f64 = {
            let k = stack.layout.device_layers[1];
            (0..12)
                .flat_map(|j| (0..12).map(move |i| (i, j)))
                .map(|(i, j)| stack.problem.cell_power(i, j, k).watts())
                .sum()
        };
        assert!(p1 < 0.25 * p0, "gated tier leaks only: {p1} vs {p0}");
    }

    #[test]
    fn repower_matches_a_fresh_build() {
        let d = gemmini::design();
        let base = quick(3, BeolProperties::scaffolded())
            .with_pillar_map(Grid2::filled(12, 12, 0.08))
            .with_utilizations(vec![Ratio::ONE; 3]);
        let target = {
            let mut cfg = base.clone();
            cfg.utilization = vec![
                Ratio::from_fraction(0.25),
                Ratio::ONE,
                Ratio::from_fraction(0.5),
            ];
            cfg.power_scale = 0.8;
            cfg
        };
        let mut repowered = build(&d, &base);
        repower(&mut repowered, &d, &target);
        let fresh = build(&d, &target);
        let dim = fresh.problem.dim();
        assert!(
            (repowered.problem.total_power().watts() - fresh.problem.total_power().watts()).abs()
                < 1e-12
        );
        for k in 0..dim.nz {
            for j in 0..dim.ny {
                for i in 0..dim.nx {
                    let a = repowered.problem.cell_power(i, j, k).watts();
                    let b = fresh.problem.cell_power(i, j, k).watts();
                    assert!((a - b).abs() < 1e-15, "cell ({i},{j},{k}): {a} vs {b}");
                }
            }
        }
        // The operator must survive the repaint bitwise — that is the
        // whole point of the fast path.
        for k in 0..dim.nz {
            for j in 0..dim.ny {
                for i in 0..dim.nx {
                    let (a, b) = (&repowered.problem, &fresh.problem);
                    assert_eq!(
                        a.kz_at(i, j, k).get().to_bits(),
                        b.kz_at(i, j, k).get().to_bits(),
                        "kz at ({i},{j},{k})"
                    );
                    assert_eq!(
                        a.kxy_at(i, j, k).get().to_bits(),
                        b.kxy_at(i, j, k).get().to_bits(),
                        "kxy at ({i},{j},{k})"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "keep the tier count")]
    fn repower_rejects_tier_count_changes() {
        let d = gemmini::design();
        let mut stack = build(&d, &quick(3, BeolProperties::conventional()));
        repower(&mut stack, &d, &quick(2, BeolProperties::conventional()));
    }

    #[test]
    #[should_panic(expected = "one utilization per tier")]
    fn mismatched_utilizations_rejected() {
        let d = gemmini::design();
        let cfg = quick(3, BeolProperties::conventional()).with_utilizations(vec![Ratio::ONE; 2]);
        let _ = build(&d, &cfg);
    }
}
