//! Free functions encoding multi-step physical laws that do not fit a
//! single operator impl.

use crate::{
    Area, AreaThermalResistance, HeatFlux, HeatTransferCoefficient, Length, Ratio, TempDelta,
    Temperature, ThermalConductivity, ThermalResistance,
};

/// Junction temperature of a uniform `n`-tier stack in closed form.
///
/// Models the 1-D "thermal ladder" of Fig. 1: each of the `n` tiers
/// dissipates `per_tier_flux`, heat flows down through an inter-tier
/// area-resistance `tier_resistance` and exits through a heatsink with
/// coefficient `h` into `ambient`. Tier `i`'s boundary carries the heat of
/// all tiers above it, giving the quadratic tier-count law
/// `ΔT_stack = q₁·R·n(n+1)/2` that makes many-tier stacks so hard to cool.
///
/// This closed form is the fast path used inside floorplanning cost
/// functions and the sanity check for the full finite-volume solver.
///
/// ```
/// use tsc_units::{ops, HeatFlux, HeatTransferCoefficient, Temperature, AreaThermalResistance};
/// let tj = ops::stack_junction_temperature(
///     3,
///     HeatFlux::from_watts_per_square_cm(53.0),
///     AreaThermalResistance::new(3.3e-6),
///     HeatTransferCoefficient::TWO_PHASE,
///     Temperature::from_celsius(100.0),
/// );
/// assert!(tj.celsius() > 100.0 && tj.celsius() < 125.0);
/// ```
#[must_use]
pub fn stack_junction_temperature(
    n: usize,
    per_tier_flux: HeatFlux,
    tier_resistance: AreaThermalResistance,
    h: HeatTransferCoefficient,
    ambient: Temperature,
) -> Temperature {
    let n_f = n as f64;
    let heatsink_rise = (per_tier_flux * n_f) / h;
    let ladder_rise = per_tier_flux * tier_resistance * (n_f * (n_f + 1.0) / 2.0);
    ambient + heatsink_rise + ladder_rise
}

/// Fraction of the total junction rise contributed by inter-tier conduction
/// (as opposed to the heatsink) in the uniform-stack model.
///
/// Sec. I reports this to be ~85 % for a 3-tier stack on an advanced
/// two-phase heatsink — the motivation for attacking tier resistance.
#[must_use]
pub fn ladder_fraction_of_rise(
    n: usize,
    per_tier_flux: HeatFlux,
    tier_resistance: AreaThermalResistance,
    h: HeatTransferCoefficient,
) -> Ratio {
    let n_f = n as f64;
    let heatsink = ((per_tier_flux * n_f) / h).kelvin();
    let ladder = (per_tier_flux * tier_resistance * (n_f * (n_f + 1.0) / 2.0)).kelvin();
    Ratio::from_fraction(ladder / (ladder + heatsink))
}

/// Effective conductivity of a parallel composite: volume-weighted
/// arithmetic mean (Voigt bound). Exact for heat flowing *along* layers.
///
/// ```
/// use tsc_units::{ops, Ratio, ThermalConductivity};
/// let k = ops::parallel_rule(
///     ThermalConductivity::new(105.0),
///     ThermalConductivity::new(0.2),
///     Ratio::from_percent(10.0),
/// );
/// assert!((k.get() - (0.1 * 105.0 + 0.9 * 0.2)).abs() < 1e-9);
/// ```
#[must_use]
pub fn parallel_rule(
    k_a: ThermalConductivity,
    k_b: ThermalConductivity,
    fraction_a: Ratio,
) -> ThermalConductivity {
    let f = fraction_a.fraction();
    ThermalConductivity::new(f * k_a.get() + (1.0 - f) * k_b.get())
}

/// Effective conductivity of a series composite: volume-weighted harmonic
/// mean (Reuss bound). Exact for heat flowing *across* layers.
///
/// ```
/// use tsc_units::{ops, Ratio, ThermalConductivity};
/// let k = ops::series_rule(
///     ThermalConductivity::new(100.0),
///     ThermalConductivity::new(1.0),
///     Ratio::from_percent(50.0),
/// );
/// // Dominated by the poor layer: 1/(0.5/100 + 0.5/1) ≈ 1.98 W/m/K.
/// assert!((k.get() - 1.9802).abs() < 1e-3);
/// ```
#[must_use]
pub fn series_rule(
    k_a: ThermalConductivity,
    k_b: ThermalConductivity,
    fraction_a: Ratio,
) -> ThermalConductivity {
    let f = fraction_a.fraction();
    ThermalConductivity::new(1.0 / (f / k_a.get() + (1.0 - f) / k_b.get()))
}

/// Spreading resistance of a small square heat source of side `source_side`
/// on a half-space-like spreading layer of conductivity `k` and thickness
/// `t`, flowing into a plane held by a much better conductor.
///
/// Uses the classic series truncation for a square source: the
/// constriction term `1/(2k·a)` (with `a = side/√π` the equivalent radius)
/// capped by the slab term `t/(k·A)` — an engineering closed form adequate
/// for floorplanning cost functions; the FVM solver is authoritative.
#[must_use]
pub fn spreading_resistance(
    k: ThermalConductivity,
    source_side: Length,
    layer_thickness: Length,
) -> ThermalResistance {
    let a = source_side.meters() / core::f64::consts::PI.sqrt();
    let constriction = 1.0 / (2.0 * k.get() * 2.0 * a);
    let slab = layer_thickness.meters() / (k.get() * source_side.squared().square_meters());
    ThermalResistance::new(constriction.min(slab))
}

/// Area penalty of inserting `count` structures of footprint
/// `unit_area` into a region of `base_area`.
#[must_use]
pub fn insertion_penalty(count: usize, unit_area: Area, base_area: Area) -> Ratio {
    Ratio::from_fraction(count as f64 * unit_area.get() / base_area.get())
}

/// Temperature margin remaining below a limit; negative when violated.
#[must_use]
pub fn margin(tj: Temperature, limit: Temperature) -> TempDelta {
    limit - tj
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_grows_quadratically() {
        let q = HeatFlux::from_watts_per_square_cm(53.0);
        let r = AreaThermalResistance::new(3.3e-6);
        let h = HeatTransferCoefficient::TWO_PHASE;
        let amb = Temperature::from_celsius(100.0);
        let t3 = stack_junction_temperature(3, q, r, h, amb);
        let t6 = stack_junction_temperature(6, q, r, h, amb);
        let t12 = stack_junction_temperature(12, q, r, h, amb);
        // Rise above ambient ~ n(n+1)/2 -> 6 : 21 : 78 plus a linear heatsink term.
        let r3 = (t3 - amb).kelvin();
        let r6 = (t6 - amb).kelvin();
        let r12 = (t12 - amb).kelvin();
        assert!(r6 / r3 > 2.5 && r6 / r3 < 4.0);
        assert!(r12 / r6 > 3.0 && r12 / r6 < 4.5);
    }

    #[test]
    fn three_tier_conventional_stack_is_ladder_dominated() {
        // Sec. I: ~85% of Tj rise from tier resistance with an advanced heatsink.
        let frac = ladder_fraction_of_rise(
            3,
            HeatFlux::from_watts_per_square_cm(53.0),
            AreaThermalResistance::new(3.3e-6),
            HeatTransferCoefficient::TWO_PHASE,
        );
        assert!(frac.percent() > 75.0 && frac.percent() < 95.0, "got {frac}");
    }

    #[test]
    fn parallel_rule_bounds_series_rule() {
        let hi = ThermalConductivity::new(105.0);
        let lo = ThermalConductivity::new(0.2);
        for pct in [1.0, 10.0, 50.0, 90.0] {
            let f = Ratio::from_percent(pct);
            let par = parallel_rule(hi, lo, f);
            let ser = series_rule(hi, lo, f);
            assert!(par.get() >= ser.get(), "Voigt must bound Reuss at {pct}%");
            assert!(par.get() <= hi.get() && ser.get() >= lo.get());
        }
    }

    #[test]
    fn pillar_fraction_transforms_beol() {
        // 10% pillars at 105 W/m/K in 0.31 W/m/K BEOL: ~30x improvement.
        let k = parallel_rule(
            ThermalConductivity::new(105.0),
            ThermalConductivity::new(0.31),
            Ratio::from_percent(10.0),
        );
        assert!(k.get() / 0.31 > 25.0);
    }

    #[test]
    fn insertion_penalty_scales_with_count() {
        let pillar = Length::from_nanometers(100.0).squared();
        let region = Length::from_micrometers(10.0).squared();
        let p1 = insertion_penalty(100, pillar, region);
        let p2 = insertion_penalty(200, pillar, region);
        assert!((p2.fraction() / p1.fraction() - 2.0).abs() < 1e-9);
        assert!((p1.percent() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn margin_sign() {
        let limit = Temperature::from_celsius(125.0);
        assert!(margin(Temperature::from_celsius(120.0), limit).kelvin() > 0.0);
        assert!(margin(Temperature::from_celsius(130.0), limit).kelvin() < 0.0);
    }

    #[test]
    fn spreading_resistance_improves_with_k() {
        let side = Length::from_micrometers(5.0);
        let t = Length::from_nanometers(240.0);
        let r_low = spreading_resistance(ThermalConductivity::new(0.2), side, t);
        let r_high = spreading_resistance(ThermalConductivity::new(105.0), side, t);
        assert!(r_low.get() > r_high.get() * 100.0);
    }
}
