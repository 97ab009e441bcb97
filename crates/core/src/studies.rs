//! Observation-4 studies: hard-macro hotspots and inter-tier pillar
//! misalignment.
//!
//! * **Macro hotspot** (Obs. 4b): pillars cannot enter a hard macro, so
//!   a 25 µm × 25 µm SRAM block relies on its four surrounding pillars.
//!   With ultra-low-k upper layers the macro center rises ~15 °C above
//!   the well-pillared surroundings; the thermal dielectric's lateral
//!   conduction cuts that to ~5 °C.
//! * **Misalignment** (Obs. 4c): heterogeneous tiers cannot always stack
//!   their pillars perfectly. Without the dielectric, an adjacent-tier
//!   pillar must sit within ~300 nm to keep the per-tier rise within
//!   3 °C of the aligned case; the dielectric relaxes the tolerance to
//!   ~1 µm (Fig. 2a).

use crate::beol::{self, BeolProperties};
use tsc_geometry::{Grid2, Point, Rect};
use tsc_homogenize::pillar::PillarDesign;
use tsc_materials::Anisotropic;
use tsc_thermal::{CgSolver, Heatsink, Precision, Problem, SolveContext, SolveError};
use tsc_units::{HeatFlux, Length, Ratio, TempDelta, ThermalConductivity};

/// The mixed-precision solver the study hot loops share (see
/// [`crate::stack::hot_loop_solver`]), at a tighter tolerance.
fn study_solver() -> CgSolver {
    CgSolver::new()
        .with_tolerance(1e-9)
        .with_precision(Precision::Mixed)
}

// ---------------------------------------------------------------------
// Macro hotspot study
// ---------------------------------------------------------------------

/// Configuration of the macro-hotspot study.
#[derive(Debug, Clone)]
pub struct MacroStudyConfig {
    /// Side of the (square) hard macro.
    pub macro_side: Length,
    /// Tier count of the surrounding stack.
    pub tiers: usize,
    /// Pillar density in the pillared (non-macro) region.
    pub pillar_density: Ratio,
    /// Uniform dissipated flux (macro and logic alike).
    pub flux: HeatFlux,
    /// Domain side (macro centered within).
    pub domain: Length,
    /// Lateral cells.
    pub cells: usize,
}

impl Default for MacroStudyConfig {
    fn default() -> Self {
        Self {
            macro_side: Length::from_micrometers(25.0),
            tiers: 6,
            pillar_density: Ratio::from_percent(10.0),
            flux: HeatFlux::from_watts_per_square_cm(53.0),
            domain: Length::from_micrometers(100.0),
            cells: 40,
        }
    }
}

/// Builds and solves the macro study for a given upper dielectric;
/// returns the macro-center excess rise over the pillared surroundings.
///
/// # Errors
///
/// Propagates solver failures.
pub fn macro_hotspot(cfg: &MacroStudyConfig, upper: Anisotropic) -> Result<TempDelta, SolveError> {
    macro_hotspot_with(cfg, upper, &mut SolveContext::new())
}

/// [`macro_hotspot`] against a caller-owned [`SolveContext`]: the two
/// dielectric variants share the mesh, so the second solve warm-starts
/// from the first.
///
/// # Errors
///
/// Propagates solver failures.
pub fn macro_hotspot_with(
    cfg: &MacroStudyConfig,
    upper: Anisotropic,
    ctx: &mut SolveContext,
) -> Result<TempDelta, SolveError> {
    let n = cfg.cells;
    let beol = BeolProperties {
        upper,
        ..BeolProperties::conventional()
    };
    let heatsink = Heatsink::two_phase();
    // Slabs: handle + tiers * (device, lower, upper, ilv).
    let mut dz = vec![Length::from_micrometers(10.0)];
    let mut device_layers = Vec::new();
    let mut beol_layers = Vec::new();
    for _ in 0..cfg.tiers {
        let base = dz.len();
        dz.push(Length::from_nanometers(100.0));
        dz.push(beol::lower_thickness());
        dz.push(beol::upper_thickness());
        dz.push(beol::ilv_thickness());
        device_layers.push(base);
        beol_layers.extend([base + 1, base + 2, base + 3]);
    }
    let mut p = Problem::new(
        n,
        n,
        cfg.domain / n as f64,
        cfg.domain / n as f64,
        dz,
        ThermalConductivity::new(1.0),
    );
    p.set_layer_conductivity(
        0,
        tsc_materials::BULK_SILICON.conductivity.vertical,
        tsc_materials::BULK_SILICON.conductivity.lateral,
    );
    for &k in &device_layers {
        p.set_layer_conductivity(
            k,
            tsc_materials::DEVICE_SILICON_THIN.conductivity.vertical,
            tsc_materials::DEVICE_SILICON_THIN.conductivity.lateral,
        );
        p.set_layer_conductivity(k + 1, beol.lower.vertical, beol.lower.lateral);
        p.set_layer_conductivity(k + 2, beol.upper.vertical, beol.upper.lateral);
        p.set_layer_conductivity(k + 3, beol.ilv.vertical, beol.ilv.lateral);
    }
    // Uniform flux on every device layer.
    let flux_map = Grid2::filled(n, n, cfg.flux.watts_per_square_meter());
    for &k in &device_layers {
        p.add_flux_map(k, &flux_map);
    }
    // Pillars everywhere except the centered macro (plus four corner
    // pillar clusters hugging the macro, per the placement rule).
    let domain_rect = Rect::from_origin_size(Length::ZERO, Length::ZERO, cfg.domain, cfg.domain);
    let c = cfg.domain / 2.0;
    let macro_rect = Rect::centered(Point::new(c, c), cfg.macro_side, cfg.macro_side);
    let mut density = Grid2::filled(n, n, cfg.pillar_density.fraction());
    density.paint_rect(&domain_rect, &macro_rect, 0.0);
    let k_pillar = PillarDesign::asap7_100nm().effective_vertical_k();
    for &k in &beol_layers {
        for j in 0..n {
            for i in 0..n {
                let f = density[(i, j)];
                if f > 0.0 {
                    p.blend_vertical_inclusion(i, j, k, f, k_pillar);
                }
            }
        }
    }
    p.set_bottom_heatsink(heatsink);
    let sol = ctx.solve(&p, &study_solver())?;

    // Excess of the macro center over the far-field pillared region, on
    // the top tier (worst case).
    // tsc-analyze: allow(no-unwrap): the stack builder above always
    // registers at least one device layer.
    let top = *device_layers.last().expect("tiers > 0");
    let layer = sol.temperatures.layer_kelvin(top);
    let center = layer[(n / 2, n / 2)];
    let far = layer[(2, 2)];
    Ok(TempDelta::new(center - far))
}

/// Runs the macro study for both dielectrics and reports
/// `(ultra-low-k excess, thermal-dielectric excess)`.
///
/// # Errors
///
/// Propagates solver failures.
pub fn macro_hotspot_pair(cfg: &MacroStudyConfig) -> Result<(TempDelta, TempDelta), SolveError> {
    let mut ctx = SolveContext::new();
    Ok((
        macro_hotspot_with(cfg, beol::upper_ultra_low_k(), &mut ctx)?,
        macro_hotspot_with(cfg, beol::upper_thermal_dielectric(), &mut ctx)?,
    ))
}

// ---------------------------------------------------------------------
// Misalignment study
// ---------------------------------------------------------------------

/// Configuration of the pillar-misalignment study.
#[derive(Debug, Clone)]
pub struct MisalignConfig {
    /// Pillar block side (a small pillar constellation).
    pub pillar_side: Length,
    /// Heat flux crossing the misaligned interface — for a 12-tier
    /// stack, every tier boundary near the sink carries the combined
    /// flux of the tiers above (≈636 W/cm² at the Gemmini design point).
    pub flux: HeatFlux,
    /// Domain side.
    pub domain: Length,
    /// Lateral cells (fine: sub-100 nm resolution advised).
    pub cells: usize,
}

impl Default for MisalignConfig {
    fn default() -> Self {
        Self {
            pillar_side: Length::from_nanometers(800.0),
            flux: HeatFlux::from_watts_per_square_cm(636.0),
            domain: Length::from_micrometers(4.0),
            cells: 50,
        }
    }
}

/// Three-tier stack: the top tier dissipates, its heat descends through
/// tier 2's pillar (offset by `offset` along +x) and then tier 1's
/// centered pillar — the heat must jog sideways between the two columns
/// through the inter-tier layers. Returns the junction rise above
/// ambient.
///
/// The `scaffolded` flag swaps the upper dielectric *and* the bond
/// encapsulation to thermal dielectric ("thermal dielectric between
/// tiers"), which is what carries the jog.
///
/// # Errors
///
/// Propagates solver failures.
pub fn misaligned_rise(
    cfg: &MisalignConfig,
    scaffolded: bool,
    offset: Length,
) -> Result<TempDelta, SolveError> {
    misaligned_rise_with(cfg, scaffolded, offset, &mut SolveContext::new())
}

/// [`misaligned_rise`] against a caller-owned [`SolveContext`]: offset
/// scans move a pillar block over a fixed mesh, so each solve
/// warm-starts from the previous offset's field.
///
/// # Errors
///
/// Propagates solver failures.
pub fn misaligned_rise_with(
    cfg: &MisalignConfig,
    scaffolded: bool,
    offset: Length,
    ctx: &mut SolveContext,
) -> Result<TempDelta, SolveError> {
    let n = cfg.cells;
    let beol = if scaffolded {
        BeolProperties::scaffolded()
    } else {
        BeolProperties::conventional()
    };
    let heatsink = Heatsink::two_phase();
    let mut dz = vec![Length::from_micrometers(10.0)];
    let mut device_layers = Vec::new();
    let mut tier_beols = Vec::new();
    for _ in 0..3 {
        let base = dz.len();
        dz.push(Length::from_nanometers(100.0));
        dz.push(beol::lower_thickness());
        dz.push(beol::upper_thickness());
        dz.push(beol::ilv_thickness());
        device_layers.push(base);
        tier_beols.push([base + 1, base + 2, base + 3]);
    }
    let mut p = Problem::new(
        n,
        n,
        cfg.domain / n as f64,
        cfg.domain / n as f64,
        dz,
        ThermalConductivity::new(1.0),
    );
    p.set_layer_conductivity(
        0,
        tsc_materials::BULK_SILICON.conductivity.vertical,
        tsc_materials::BULK_SILICON.conductivity.lateral,
    );
    for (t, &dev) in device_layers.iter().enumerate() {
        p.set_layer_conductivity(
            dev,
            tsc_materials::DEVICE_SILICON_THIN.conductivity.vertical,
            tsc_materials::DEVICE_SILICON_THIN.conductivity.lateral,
        );
        let [lo, up, ilv] = tier_beols[t];
        p.set_layer_conductivity(lo, beol.lower.vertical, beol.lower.lateral);
        p.set_layer_conductivity(up, beol.upper.vertical, beol.upper.lateral);
        p.set_layer_conductivity(ilv, beol.ilv.vertical, beol.ilv.lateral);
    }
    // Only the top tier dissipates: its heat must descend through both
    // pillar columns below.
    let flux_map = Grid2::filled(n, n, cfg.flux.watts_per_square_meter());
    // tsc-analyze: allow(no-unwrap): this study builds a fixed
    // three-tier stack, so device_layers is never empty.
    p.add_flux_map(*device_layers.last().expect("three tiers"), &flux_map);
    // Pillar blocks: tier 0 centered, tier 1 offset; the top tier's own
    // BEOL carries no heat downward and needs no pillar.
    let domain_rect = Rect::from_origin_size(Length::ZERO, Length::ZERO, cfg.domain, cfg.domain);
    let c = cfg.domain / 2.0;
    let k_pillar = PillarDesign::asap7_100nm().effective_vertical_k();
    let blocks = [
        (
            0usize,
            Rect::centered(Point::new(c, c), cfg.pillar_side, cfg.pillar_side),
        ),
        (
            1usize,
            Rect::centered(Point::new(c + offset, c), cfg.pillar_side, cfg.pillar_side),
        ),
    ];
    for (tier, rect) in blocks {
        let mut bm = Grid2::filled(n, n, 0.0);
        bm.paint_rect(&domain_rect, &rect, 1.0);
        for &k in &tier_beols[tier] {
            for j in 0..n {
                for i in 0..n {
                    if bm[(i, j)] > 0.0 {
                        p.blend_vertical_inclusion(i, j, k, bm[(i, j)], k_pillar);
                    }
                }
            }
        }
    }
    p.set_bottom_heatsink(heatsink);
    let sol = ctx.solve(&p, &study_solver())?;
    // tsc-analyze: allow(no-unwrap): this study builds a fixed
    // three-tier stack, so device_layers is never empty.
    let top = *device_layers.last().expect("three tiers");
    Ok(sol.temperatures.layer_max(top) - heatsink.ambient)
}

/// The extra rise caused by misalignment relative to the aligned case.
///
/// # Errors
///
/// Propagates solver failures.
pub fn misalignment_penalty(
    cfg: &MisalignConfig,
    scaffolded: bool,
    offset: Length,
) -> Result<TempDelta, SolveError> {
    let mut ctx = SolveContext::new();
    let aligned = misaligned_rise_with(cfg, scaffolded, Length::ZERO, &mut ctx)?;
    let shifted = misaligned_rise_with(cfg, scaffolded, offset, &mut ctx)?;
    Ok(shifted - aligned)
}

/// The largest offset whose misalignment penalty stays within `budget`,
/// scanned over `offsets` (ascending). Returns the last tolerable one.
///
/// # Errors
///
/// Propagates solver failures.
pub fn tolerable_misalignment(
    cfg: &MisalignConfig,
    scaffolded: bool,
    offsets: &[Length],
    budget: TempDelta,
) -> Result<Length, SolveError> {
    let mut ctx = SolveContext::new();
    let aligned = misaligned_rise_with(cfg, scaffolded, Length::ZERO, &mut ctx)?;
    let mut best = Length::ZERO;
    for &off in offsets {
        let rise = misaligned_rise_with(cfg, scaffolded, off, &mut ctx)?;
        if (rise - aligned).kelvin() <= budget.kelvin() {
            best = off;
        } else {
            break;
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thermal_dielectric_shrinks_macro_hotspot() {
        let cfg = MacroStudyConfig {
            cells: 30,
            ..MacroStudyConfig::default()
        };
        let (ulk, td) = macro_hotspot_pair(&cfg).expect("solves");
        assert!(
            ulk.kelvin() > 2.0 * td.kelvin(),
            "dielectric must cut the macro excess substantially: {ulk} -> {td}"
        );
        assert!(ulk.kelvin() > 1.0, "a 25 µm macro hole matters: {ulk}");
        assert!(td.kelvin() > 0.0, "some excess remains: {td}");
    }

    #[test]
    fn macro_excess_grows_with_macro_size() {
        let small = MacroStudyConfig {
            macro_side: Length::from_micrometers(10.0),
            cells: 30,
            ..MacroStudyConfig::default()
        };
        let big = MacroStudyConfig {
            macro_side: Length::from_micrometers(40.0),
            cells: 30,
            ..MacroStudyConfig::default()
        };
        let s = macro_hotspot(&small, beol::upper_ultra_low_k()).expect("solves");
        let b = macro_hotspot(&big, beol::upper_ultra_low_k()).expect("solves");
        assert!(b.kelvin() > s.kelvin());
    }

    #[test]
    fn misalignment_penalty_grows_with_offset() {
        let cfg = MisalignConfig {
            cells: 30,
            ..MisalignConfig::default()
        };
        let p300 =
            misalignment_penalty(&cfg, false, Length::from_nanometers(300.0)).expect("solves");
        let p1000 =
            misalignment_penalty(&cfg, false, Length::from_micrometers(1.0)).expect("solves");
        assert!(
            p1000.kelvin() > p300.kelvin(),
            "larger offsets must cost more: {p300} vs {p1000}"
        );
        assert!(p300.kelvin() >= 0.0);
    }

    #[test]
    fn dielectric_relaxes_alignment_tolerance() {
        // The Fig. 2a claim: tolerance grows from ~300 nm to ~1 µm.
        let cfg = MisalignConfig {
            cells: 30,
            ..MisalignConfig::default()
        };
        let offsets: Vec<Length> = [0.1, 0.3, 0.6, 1.0, 1.4]
            .iter()
            .map(|&um| Length::from_micrometers(um))
            .collect();
        let budget = TempDelta::new(1.0);
        let tol_ulk = tolerable_misalignment(&cfg, false, &offsets, budget).expect("solves");
        let tol_td = tolerable_misalignment(&cfg, true, &offsets, budget).expect("solves");
        assert!(
            tol_td.micrometers() > 2.0 * tol_ulk.micrometers(),
            "dielectric must relax tolerance substantially: {tol_ulk} vs {tol_td}"
        );
        // The paper's anchors: ~300 nm without vs ~1 µm with the
        // dielectric.
        assert!(
            (0.1..=0.6).contains(&tol_ulk.micrometers()),
            "ULK tolerance ≈ 300 nm, got {tol_ulk}"
        );
        assert!(
            tol_td.micrometers() >= 1.0,
            "dielectric tolerance ≈ 1 µm, got {tol_td}"
        );
    }
}
