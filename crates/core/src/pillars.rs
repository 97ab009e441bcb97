//! Thermal-pillar placement (Sec. IIIA).
//!
//! Pillars must sit outside hard-macro boundaries and are placed between
//! floorplan initialization and detailed place-and-route. The paper's
//! algorithm, per heat source of area `A`:
//!
//! 1. thermally simulate the *optimistic uniform covering* for an
//!    increasing pillar count `P` until `Tj < T_target`, giving the
//!    minimum thermally required count `P_min`;
//! 2. compute the required pitch `(A / P_min)^0.5`; macros are spaced at
//!    gaps close to that pitch;
//! 3. place `P_min` pillars on a grid at that pitch inside the source
//!    (and between macro gaps); if uniformity problems leave the target
//!    unmet, escalate the fill past `P_min`.
//!
//! Two products come out: the explicit pillar coordinates (for layout
//! export and the misalignment study) and the per-cell areal-density map
//! consumed by the chip-scale solver.

use crate::beol::BeolProperties;
use crate::stack::{solve_with, StackConfig};
use tsc_designs::Design;
use tsc_geometry::{Grid2, Point, Rect};
use tsc_homogenize::pillar::PillarDesign;
use tsc_thermal::{Heatsink, SolveContext, SolveError};
use tsc_units::{Area, Length, Ratio, Temperature};

/// A complete pillar plan for one tier (replicated across tiers, since
/// pillars are vertically aligned).
#[derive(Debug, Clone)]
pub struct PillarPlan {
    /// Explicit pillar center positions (for tiled plans: the positions
    /// of one unit pattern).
    pub positions: Vec<Point>,
    /// How many times the position pattern repeats (1 for direct
    /// placements; tiles × tiles for [`tile_pattern`] on large arrays).
    pub replicas: usize,
    /// The pillar geometry used.
    pub design: PillarDesign,
    /// Per-cell areal density map over the die.
    pub density_map: Grid2<f64>,
    /// Die-average areal density = footprint penalty attributable to
    /// pillars.
    pub area_penalty: Ratio,
}

impl PillarPlan {
    /// Number of placed pillars (pattern positions × replicas).
    #[must_use]
    pub fn count(&self) -> usize {
        self.positions.len() * self.replicas
    }
}

/// The budget-driven map used inside large sweeps: pillars spread over
/// the *routable* (non-macro) share of each cell so the die-average
/// density equals `budget`. A cell 40 % covered by SRAM banks receives
/// pillars only in its remaining 60 % — the bank gaps, exactly where the
/// placer threads them.
///
/// Costs O(cells² + touched cells): each macro visits only the index
/// range of cells its rect spans, widened by one cell per side so float
/// rounding at a cell edge cannot drop an overlap, and the exact
/// [`Rect::intersection`] test decides each one. Overlap areas
/// accumulate per cell in unit order, so every sum is the same float sum
/// as intersecting every macro with every cell.
///
/// # Panics
///
/// Panics if `budget` is not within `[0, 1)` or macros cover the die.
#[must_use]
pub fn uniform_routable_map(design: &Design, budget: Ratio, cells: usize) -> Grid2<f64> {
    assert!(
        budget.fraction() >= 0.0 && budget.fraction() < 1.0,
        "pillar budget must be within [0, 1), got {budget}"
    );
    let die = &design.die;
    let mut covered = Grid2::filled(cells, cells, 0.0);
    let cell_rects = Grid2::from_fn(cells, cells, |i, j| covered.cell_rect(die, i, j));
    // Index range of the cells a macro's [lo, hi] extent can touch along
    // one axis, one cell wider on each side.
    let span = |lo: f64, hi: f64, origin: f64, extent: f64| {
        let cell = |v: f64| ((v - origin) / extent * cells as f64).floor();
        let first = (cell(lo) - 1.0).max(0.0) as usize;
        let last = ((cell(hi) + 2.0).max(0.0) as usize).min(cells);
        first..last
    };
    for u in design.units.iter().filter(|u| u.is_macro) {
        let r = &u.rect;
        let xs = span(
            r.min_x().meters(),
            r.max_x().meters(),
            die.min_x().meters(),
            die.width().meters(),
        );
        let ys = span(
            r.min_y().meters(),
            r.max_y().meters(),
            die.min_y().meters(),
            die.height().meters(),
        );
        for j in ys {
            for i in xs.clone() {
                if let Some(ov) = r.intersection(&cell_rects[(i, j)]) {
                    covered[(i, j)] += ov.area().square_meters();
                }
            }
        }
    }
    // Per-cell routable fraction = 1 − macro coverage.
    let cell_area = cell_rects[(0, 0)].area().square_meters();
    let routable = covered.map(|&c| (1.0 - c / cell_area).max(0.0));
    let total_routable: f64 = routable.iter().sum();
    assert!(total_routable > 0.0, "macros cover the entire die");
    // Scale so the die-average equals the budget.
    let scale = budget.fraction() * (cells * cells) as f64 / total_routable;
    routable.map(|&r| (r * scale).min(0.95))
}

/// Configuration of the Sec. IIIA placement run.
#[derive(Debug, Clone)]
pub struct PlacementConfig {
    /// Tier count the stack must support.
    pub tiers: usize,
    /// Junction-temperature target.
    pub t_target: Temperature,
    /// Heatsink.
    pub heatsink: Heatsink,
    /// BEOL property set (scaffolded or conventional).
    pub beol: BeolProperties,
    /// Pillar geometry.
    pub pillar: PillarDesign,
    /// Lateral mesh resolution for the placement-time simulations.
    pub lateral_cells: usize,
    /// Hard cap on per-source density during escalation.
    pub max_density: Ratio,
}

impl PlacementConfig {
    /// The paper's design point: 12 tiers, 125 °C, two-phase cooling,
    /// scaffolded BEOL, 100 nm pillars.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            tiers: 12,
            t_target: Temperature::from_celsius(125.0),
            heatsink: Heatsink::two_phase(),
            beol: BeolProperties::scaffolded(),
            pillar: PillarDesign::asap7_100nm(),
            lateral_cells: 12,
            max_density: Ratio::from_percent(60.0),
        }
    }
}

/// Step 1 of Sec. IIIA for one heat source: the minimum *uniform-cover*
/// pillar density (as a fraction of the source area) that brings the
/// stack junction below target, found by bisection on density (the
/// continuous equivalent of "increase P until Tj < T_target").
///
/// Returns `None` when even `max_density` cannot meet the target.
///
/// # Errors
///
/// Propagates solver failures.
pub fn minimum_source_density(
    design: &Design,
    source: &Rect,
    config: &PlacementConfig,
) -> Result<Option<Ratio>, SolveError> {
    minimum_source_density_with(design, source, config, &mut SolveContext::new())
}

/// [`minimum_source_density`] against a caller-owned [`SolveContext`].
///
/// Every bisection probe solves the same mesh with a slightly different
/// pillar map, so the context warm-starts each solve from the previous
/// density's temperature field — the probes differ by a perturbation,
/// and CG converges in a fraction of the cold iteration count. Callers
/// sweeping many sources ([`place`]) share one context across all of
/// them.
///
/// # Errors
///
/// Propagates solver failures.
pub fn minimum_source_density_with(
    design: &Design,
    source: &Rect,
    config: &PlacementConfig,
    ctx: &mut SolveContext,
) -> Result<Option<Ratio>, SolveError> {
    let cells = config.lateral_cells;
    // The target is the peak *within this source's own footprint* — the
    // per-source decomposition of Sec. IIIA (other sources get their own
    // pillar searches).
    let mut tj_at = |density: f64| -> Result<Temperature, SolveError> {
        let mut map = Grid2::filled(cells, cells, 0.0);
        map.paint_rect(&design.die, source, density);
        let cfg = StackConfig::uniform(config.tiers, config.beol, config.heatsink)
            .with_lateral_cells(cells)
            .with_pillar_map(map);
        let sol = solve_with(design, &cfg, ctx)?;
        let mut peak = Temperature::ABSOLUTE_ZERO;
        let probe = Grid2::<f64>::filled(cells, cells, 0.0);
        for &dev in &sol.layout.device_layers {
            let layer = sol.solution.temperatures.layer_kelvin(dev);
            for j in 0..cells {
                for i in 0..cells {
                    if source.contains(probe.cell_center(&design.die, i, j)) {
                        peak = peak.max(Temperature::from_kelvin(layer[(i, j)]));
                    }
                }
            }
        }
        Ok(peak)
    };
    let max = config.max_density.fraction();
    if tj_at(max)? > config.t_target {
        return Ok(None);
    }
    if tj_at(0.0)? <= config.t_target {
        return Ok(Some(Ratio::ZERO));
    }
    let (mut lo, mut hi) = (0.0_f64, max);
    for _ in 0..12 {
        let mid = 0.5 * (lo + hi);
        if tj_at(mid)? <= config.t_target {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(Some(Ratio::from_fraction(hi)))
}

/// Pillar count equivalent to a uniform density over a source area.
#[must_use]
pub fn count_for_density(density: Ratio, source_area: Area, pillar: &PillarDesign) -> usize {
    (density.fraction() * source_area.square_meters() / pillar.area().square_meters()).ceil()
        as usize
}

/// Step 2–3 of Sec. IIIA: grid placement of `p_min` pillars at pitch
/// `(A/P)^0.5` inside `source`, skipping hard macros; pillars displaced
/// by macros relocate to the gap rings around those macros (the "macros
/// are placed with gaps close to this pitch" rule).
#[must_use]
pub fn grid_place(
    source: &Rect,
    p_min: usize,
    pillar: &PillarDesign,
    macros: &[Rect],
) -> Vec<Point> {
    if p_min == 0 {
        return Vec::new();
    }
    let pitch_m = (source.area().square_meters() / p_min as f64).sqrt();
    let pitch = Length::from_meters(pitch_m);
    let mut placed = Vec::new();
    let mut displaced = 0usize;
    let margin = pillar.footprint / 2.0;
    let mut y = source.min_y() + pitch / 2.0;
    while y < source.max_y() {
        let mut x = source.min_x() + pitch / 2.0;
        while x < source.max_x() {
            let p = Point::new(x, y);
            let foot = Rect::centered(p, pillar.footprint, pillar.footprint);
            if macros.iter().any(|m| m.inflated(margin).intersects(&foot)) {
                displaced += 1;
            } else {
                placed.push(p);
            }
            x += pitch;
        }
        y += pitch;
    }
    // Displaced pillars move to the macro gap rings.
    'outer: for m in macros {
        if displaced == 0 {
            break;
        }
        let ring = m.inflated(pitch / 2.0);
        let mut x = ring.min_x();
        while x <= ring.max_x() {
            for p in [Point::new(x, ring.min_y()), Point::new(x, ring.max_y())] {
                if displaced == 0 {
                    break 'outer;
                }
                let inside_macro = macros.iter().any(|mm| mm.inflated(margin).contains(p));
                if source.contains(p) && !inside_macro {
                    placed.push(p);
                    displaced -= 1;
                }
            }
            x += pitch;
        }
    }
    placed
}

/// Runs the full Sec. IIIA placement over every heat source of the
/// design. Macro sources receive no internal pillars (their cooling
/// comes from surrounding gap pillars and the dielectric's lateral
/// spreading, the Observation-4 mechanism).
///
/// Returns `Ok(None)` when some source cannot be cooled within
/// `max_density` (the configuration is infeasible at this tier count).
///
/// # Errors
///
/// Propagates solver failures.
pub fn place(design: &Design, config: &PlacementConfig) -> Result<Option<PillarPlan>, SolveError> {
    // One context for the whole run: every density probe and every
    // escalation verify solves the same mesh geometry, so warm starts
    // carry across sources and attempts.
    place_with(design, config, &mut SolveContext::new())
}

/// [`place`] against a caller-owned [`SolveContext`]: long-running
/// callers (the solve service, repeated placement sweeps) keep the
/// assembled operator, multigrid hierarchy and warm-start field alive
/// across whole placement runs, not just within one.
///
/// # Errors
///
/// Propagates solver failures.
pub fn place_with(
    design: &Design,
    config: &PlacementConfig,
    ctx: &mut SolveContext,
) -> Result<Option<PillarPlan>, SolveError> {
    // Step 1: per-source minimum uniform-cover densities.
    let mut source_densities = Vec::new();
    for rect in placement_sources(design) {
        let Some(density) = minimum_source_density_with(design, &rect, config, ctx)? else {
            return Ok(None);
        };
        if density.fraction() > 0.0 {
            source_densities.push((rect, density));
        }
    }

    // Steps 2-3 with escalation: grid-place P_min per source; if the
    // realized (non-uniform, macro-displaced) placement misses the
    // target, increase the fill past P_min and retry.
    let mut escalation = 1.0_f64;
    for _attempt in 0..MAX_ESCALATIONS {
        if let Some(plan) = place_attempt_with(design, config, &source_densities, escalation, ctx)?
        {
            return Ok(Some(plan));
        }
        escalation *= ESCALATION_FACTOR;
    }
    // Even escalated fill could not reach the target: infeasible.
    Ok(None)
}

/// Escalation attempts [`place_with`] makes before declaring the design
/// infeasible.
pub const MAX_ESCALATIONS: usize = 5;

/// Per-attempt fill escalation factor past `P_min`.
pub const ESCALATION_FACTOR: f64 = 1.3;

/// The heat sources step 1 searches: every non-macro source rect, in
/// design order. Step-sliced callers fan one
/// [`minimum_source_density_with`] per rect across workers.
#[must_use]
pub fn placement_sources(design: &Design) -> Vec<Rect> {
    design
        .heat_sources(Ratio::ONE)
        .iter()
        .filter(|s| !s.is_macro)
        .map(|s| s.rect)
        .collect()
}

/// One escalation attempt of steps 2–3: grid-place each source's
/// density escalated by `escalation` (clamped at the config cap), then
/// verify the realized map against the junction target. Returns
/// `Ok(Some(plan))` when the attempt meets the target, `Ok(None)` when
/// the next escalation should run. Attempts are sequential by
/// construction (attempt `n+1` only exists because `n` failed), so
/// step-sliced callers run one attempt per slice.
///
/// # Errors
///
/// Propagates solver failures.
pub fn place_attempt_with(
    design: &Design,
    config: &PlacementConfig,
    source_densities: &[(Rect, Ratio)],
    escalation: f64,
    ctx: &mut SolveContext,
) -> Result<Option<PillarPlan>, SolveError> {
    let macros: Vec<Rect> = design
        .units
        .iter()
        .filter(|u| u.is_macro)
        .map(|u| u.rect)
        .collect();
    let cells = config.lateral_cells.max(24);
    let mut positions = Vec::new();
    for (rect, density) in source_densities {
        let escalated = Ratio::from_fraction(
            (density.fraction() * escalation).min(config.max_density.fraction()),
        );
        let p_min = count_for_density(escalated, rect.area(), &config.pillar);
        positions.extend(grid_place(rect, p_min, &config.pillar, &macros));
    }
    let density_map = rasterize(design, &positions, &config.pillar, cells);
    let verify = StackConfig::uniform(config.tiers, config.beol, config.heatsink)
        .with_lateral_cells(config.lateral_cells)
        .with_pillar_map(density_map.clone());
    let tj = solve_with(design, &verify, ctx)?.junction_temperature();
    if tj <= config.t_target || source_densities.is_empty() {
        let area_penalty = Ratio::from_fraction(
            positions.len() as f64 * config.pillar.area().square_meters()
                / design.die_area().square_meters(),
        );
        return Ok(Some(PillarPlan {
            positions,
            replicas: 1,
            design: config.pillar.clone(),
            density_map,
            area_penalty,
        }));
    }
    Ok(None)
}

/// The scaled-design shortcut of Sec. IIIA: run the placement on a
/// *single multiply-accumulate cell* of a large systolic array and tile
/// the resulting pattern across the whole array — how the paper handles
/// the 160×160-PE Fujitsu Research design without re-running placement
/// per PE.
///
/// `array` is the full array region, `unit` one MAC cell anchored at the
/// array's lower-left corner; the unit pattern is repeated at the unit
/// pitch over the array. Returns `Ok(None)` if even `max_density` cannot
/// cool the array.
///
/// # Errors
///
/// Propagates solver failures.
///
/// # Panics
///
/// Panics if `unit` does not sit at the array's lower-left corner or is
/// larger than the array.
pub fn tile_pattern(
    design: &Design,
    array: &Rect,
    unit: &Rect,
    config: &PlacementConfig,
) -> Result<Option<PillarPlan>, SolveError> {
    assert!(
        unit.min_x() == array.min_x() && unit.min_y() == array.min_y(),
        "unit cell must be anchored at the array corner"
    );
    assert!(
        unit.width() <= array.width() && unit.height() <= array.height(),
        "unit cell must fit inside the array"
    );
    // Step 1 on the whole array (the unit's thermal environment is the
    // array, not an isolated cell).
    let Some(density) = minimum_source_density(design, array, config)? else {
        return Ok(None);
    };
    // Steps 2-3 on the unit cell only. Nanoscale pillars on millimetre
    // arrays run to billions, so the pattern is kept implicit: one unit
    // cell of positions plus a replica count, with the density map
    // painted analytically (the grid pattern is uniform at cell scale).
    let p_unit = count_for_density(density, unit.area(), &config.pillar).max(1);
    let unit_positions = grid_place(unit, p_unit.min(100_000), &config.pillar, &[]);
    let nx = (array.width() / unit.width()).floor() as usize;
    let ny = (array.height() / unit.height()).floor() as usize;
    let replicas = nx * ny;
    // Realized density of the unit pattern (grid rounding included).
    let realized = Ratio::from_fraction(
        p_unit as f64 * config.pillar.area().square_meters() / unit.area().square_meters(),
    );
    let cells = config.lateral_cells.max(24);
    let mut density_map = Grid2::filled(cells, cells, 0.0);
    density_map.paint_rect(&design.die, array, realized.fraction().min(0.95));
    let area_penalty = Ratio::from_fraction(
        (p_unit * replicas) as f64 * config.pillar.area().square_meters()
            / design.die_area().square_meters(),
    );
    Ok(Some(PillarPlan {
        positions: unit_positions,
        replicas,
        design: config.pillar.clone(),
        density_map,
        area_penalty,
    }))
}

/// Rasterizes explicit pillar positions into a per-cell density map.
#[must_use]
pub fn rasterize(
    design: &Design,
    positions: &[Point],
    pillar: &PillarDesign,
    cells: usize,
) -> Grid2<f64> {
    let mut map = Grid2::filled(cells, cells, 0.0);
    let cell_area = design.die_area().square_meters() / (cells * cells) as f64;
    let pa = pillar.area().square_meters();
    for p in positions {
        if let Some(ij) = map.locate(&design.die, *p) {
            map[ij] += pa / cell_area;
        }
    }
    map.map(|&v| v.min(0.95))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsc_designs::gemmini;

    #[test]
    fn uniform_routable_map_respects_macros_and_budget() {
        let d = gemmini::design();
        let budget = Ratio::from_percent(10.0);
        let map = uniform_routable_map(&d, budget, 24);
        assert!((map.mean() - 0.10).abs() < 0.01, "mean {}", map.mean());
        // A cell containing an LLC bank keeps pillars only in its gap
        // share, so its density sits below the open-area cells'.
        let llc = &d
            .units
            .iter()
            .find(|u| u.name == "llc0")
            .expect("llc0")
            .rect;
        let ij = map.locate(&d.die, llc.center()).expect("inside");
        let open = map.max_value();
        assert!(
            map[ij] < 0.75 * open,
            "bank cell {} vs open cell {open}",
            map[ij]
        );
        // The scratchpad macro spans whole cells: fully covered -> zero.
        let sp = &d
            .units
            .iter()
            .find(|u| u.name == "scratchpad0")
            .expect("scratchpad")
            .rect;
        let sp_ij = map.locate(&d.die, sp.center()).expect("inside");
        assert!(map[sp_ij] < open, "macro-center cell is depleted");
    }

    #[test]
    fn grid_place_hits_requested_count_without_macros() {
        let source = Rect::from_origin_size(
            Length::ZERO,
            Length::ZERO,
            Length::from_micrometers(100.0),
            Length::from_micrometers(100.0),
        );
        let pillar = PillarDesign::asap7_100nm();
        let placed = grid_place(&source, 100, &pillar, &[]);
        assert_eq!(placed.len(), 100);
        for p in &placed {
            assert!(source.contains(*p));
        }
    }

    #[test]
    fn grid_place_avoids_macro_interiors() {
        let source = Rect::from_origin_size(
            Length::ZERO,
            Length::ZERO,
            Length::from_micrometers(100.0),
            Length::from_micrometers(100.0),
        );
        let blocker = Rect::from_origin_size(
            Length::from_micrometers(30.0),
            Length::from_micrometers(30.0),
            Length::from_micrometers(40.0),
            Length::from_micrometers(40.0),
        );
        let pillar = PillarDesign::asap7_100nm();
        let placed = grid_place(&source, 100, &pillar, &[blocker]);
        let strictly_inside = blocker.inflated(-pillar.footprint);
        for p in &placed {
            assert!(!strictly_inside.contains(*p), "pillar {p} inside macro");
        }
        assert!(!placed.is_empty());
        // Some displaced pillars land on the macro's gap ring.
        let near_ring = placed
            .iter()
            .filter(|p| {
                blocker
                    .inflated(Length::from_micrometers(6.0))
                    .contains(**p)
            })
            .count();
        assert!(near_ring > 0, "expected gap-ring pillars");
    }

    #[test]
    fn rasterized_density_integrates_to_count() {
        let d = gemmini::design();
        let pillar = PillarDesign::asap7_100nm();
        let positions = grid_place(&d.units[0].rect, 400, &pillar, &[]);
        let map = rasterize(&d, &positions, &pillar, 24);
        let cell_area = d.die_area().square_meters() / (24.0 * 24.0);
        let total_pillar_area: f64 = map.iter().map(|f| f * cell_area).sum();
        let expected = positions.len() as f64 * pillar.area().square_meters();
        assert!(
            (total_pillar_area - expected).abs() / expected < 1e-6,
            "{total_pillar_area} vs {expected}"
        );
    }

    #[test]
    fn count_density_round_trip() {
        let pillar = PillarDesign::asap7_100nm();
        let a = Area::from_square_micrometers(10_000.0);
        let n = count_for_density(Ratio::from_percent(10.0), a, &pillar);
        // 10% of 10,000 µm² at 0.01 µm² per pillar = 100,000 pillars.
        assert_eq!(n, 100_000);
    }

    #[test]
    fn minimum_density_search_brackets() {
        // At 8 tiers scaffolded, the array needs some pillars but far
        // less than the 60% cap.
        let d = gemmini::design();
        let config = PlacementConfig {
            tiers: 8,
            lateral_cells: 8,
            ..PlacementConfig::paper_default()
        };
        let array = d.units[0].rect;
        let density = minimum_source_density(&d, &array, &config)
            .expect("solves")
            .expect("feasible");
        assert!(
            density.fraction() > 0.0 && density.fraction() < 0.5,
            "array density {density}"
        );
    }

    #[test]
    fn warm_started_bisection_cuts_matvecs() {
        // The whole point of threading a SolveContext through the
        // bisection: consecutive density probes differ by a perturbation,
        // so warm-started solves need measurably fewer fine-grid matvecs
        // than cold ones — at the same solve count and (essentially) the
        // same answer.
        let d = gemmini::design();
        let config = PlacementConfig {
            tiers: 8,
            lateral_cells: 8,
            ..PlacementConfig::paper_default()
        };
        let array = d.units[0].rect;
        let mut warm = SolveContext::new();
        let a = minimum_source_density_with(&d, &array, &config, &mut warm)
            .expect("solves")
            .expect("feasible");
        let mut cold = SolveContext::new().with_warm_start(false);
        let b = minimum_source_density_with(&d, &array, &config, &mut cold)
            .expect("solves")
            .expect("feasible");
        // Identical bisection path up to one resolution step (a probe
        // landing exactly on the target could flip under the ~1e-8
        // solver tolerance).
        assert!(
            (a.fraction() - b.fraction()).abs() <= config.max_density.fraction() / 4096.0 + 1e-12,
            "warm {a} vs cold {b}"
        );
        let (sw, sc) = (warm.stats(), cold.stats());
        assert_eq!(sw.solves, sc.solves, "same probe count");
        assert_eq!(sw.warm_starts, sw.solves - 1, "all but the first warm");
        assert_eq!(sc.warm_starts, 0);
        assert!(
            5 * sw.total_matvecs <= 4 * sc.total_matvecs,
            "warm starts must cut matvecs by >=20%: {} vs {}",
            sw.total_matvecs,
            sc.total_matvecs
        );
        assert!(sw.total_iterations < sc.total_iterations);
    }

    #[test]
    fn tiled_mac_pattern_matches_direct_density() {
        // Tiling a single-MAC pattern across the array yields the same
        // pillar budget as placing over the whole array directly.
        let d = gemmini::design();
        let array = d.units[0].rect;
        let unit = Rect::from_origin_size(
            array.min_x(),
            array.min_y(),
            array.width() / 8.0,
            array.height() / 8.0,
        );
        let config = PlacementConfig {
            tiers: 6,
            lateral_cells: 8,
            ..PlacementConfig::paper_default()
        };
        let tiled = tile_pattern(&d, &array, &unit, &config)
            .expect("solves")
            .expect("feasible");
        let density = minimum_source_density(&d, &array, &config)
            .expect("solves")
            .expect("feasible");
        let direct_count = count_for_density(density, array.area(), &config.pillar);
        let ratio = tiled.count() as f64 / direct_count as f64;
        assert!(
            (0.8..1.3).contains(&ratio),
            "tiled {} vs direct {direct_count}",
            tiled.count()
        );
        // All tiled pillars stay inside the array.
        for p in &tiled.positions {
            assert!(array.contains(*p));
        }
    }

    #[test]
    #[should_panic(expected = "anchored at the array corner")]
    fn tile_pattern_requires_anchored_unit() {
        let d = gemmini::design();
        let array = d.units[0].rect;
        let unit = Rect::from_origin_size(
            array.min_x() + Length::from_micrometers(5.0),
            array.min_y(),
            array.width() / 8.0,
            array.height() / 8.0,
        );
        let _ = tile_pattern(&d, &array, &unit, &PlacementConfig::paper_default());
    }

    #[test]
    fn impossible_targets_reported_infeasible() {
        let d = gemmini::design();
        let config = PlacementConfig {
            tiers: 16,
            t_target: Temperature::from_celsius(101.0),
            lateral_cells: 8,
            max_density: Ratio::from_percent(30.0),
            ..PlacementConfig::paper_default()
        };
        let result = minimum_source_density(&d, &d.units[0].rect, &config).expect("solves");
        assert!(result.is_none());
    }
}
