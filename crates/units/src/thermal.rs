//! Heat-conduction quantities: conductivity, conductance, resistance, and
//! convective heat-transfer coefficients.

use crate::length::{Area, Length};
use crate::power::{HeatFlux, Power};
use crate::temperature::TempDelta;

quantity! {
    /// Bulk thermal conductivity `k`, stored in W/m/K.
    ///
    /// This is the central material quantity of the paper: porous
    /// ultra-low-k dielectric sits at ≈0.2 W/m/K while the proposed
    /// nanocrystalline-diamond thermal dielectric reaches 105.7–500 W/m/K —
    /// the "500× increase" of Fig. 4.
    ///
    /// ```
    /// use tsc_units::ThermalConductivity;
    /// let ultra_low_k = ThermalConductivity::new(0.2);
    /// let diamond = ThermalConductivity::new(100.0);
    /// assert!((diamond / ultra_low_k - 500.0).abs() < 1e-9);
    /// ```
    ThermalConductivity, "W/m/K", "Creates a thermal conductivity from W/m/K."
}

quantity! {
    /// Lumped thermal conductance `G = k·A/L`, stored in W/K.
    ///
    /// ```
    /// use tsc_units::{Power, TempDelta, ThermalConductance};
    /// let g = ThermalConductance::new(2.0);
    /// let q: Power = g * TempDelta::new(3.0);
    /// assert_eq!(q.watts(), 6.0);
    /// ```
    ThermalConductance, "W/K", "Creates a thermal conductance from W/K."
}

quantity! {
    /// Lumped thermal resistance `R = 1/G`, stored in K/W.
    ///
    /// ```
    /// use tsc_units::{Power, ThermalResistance};
    /// let r = ThermalResistance::new(0.5);
    /// let rise = r * Power::from_watts(10.0);
    /// assert_eq!(rise.kelvin(), 5.0);
    /// ```
    ThermalResistance, "K/W", "Creates a thermal resistance from K/W."
}

quantity! {
    /// Area-specific thermal resistance, stored in m²·K/W.
    ///
    /// Grain-boundary resistance in the effective-thermal-conductivity model
    /// (Eq. 1) is expressed in this unit: the paper extracts
    /// `R = 1.15 m²K/GW = 1.15e-9 m²K/W`.
    ///
    /// ```
    /// use tsc_units::AreaThermalResistance;
    /// let r = AreaThermalResistance::from_m2_kelvin_per_gigawatt(1.15);
    /// assert!((r.get() - 1.15e-9).abs() < 1e-21);
    /// ```
    AreaThermalResistance, "m^2*K/W", "Creates an area-specific thermal resistance from m²·K/W."
}

quantity! {
    /// Convective heat-transfer coefficient `h`, stored in W/m²/K.
    ///
    /// The paper's heatsinks are abstracted to exactly this number:
    /// two-phase porous-copper cooling reaches `h = 10⁶ W/m²/K` (with a
    /// 100 °C ambient) and Si-integrated microfluidics `h = 10⁵ W/m²/K`
    /// (room-temperature water).
    ///
    /// ```
    /// use tsc_units::{HeatFlux, HeatTransferCoefficient};
    /// let h = HeatTransferCoefficient::TWO_PHASE;
    /// let q = HeatFlux::from_watts_per_square_cm(1000.0);
    /// assert!(((q / h).kelvin() - 10.0).abs() < 1e-9); // 1000 W/cm² at 10 °C rise
    /// ```
    HeatTransferCoefficient, "W/m^2/K", "Creates a heat-transfer coefficient from W/m²/K."
}

impl AreaThermalResistance {
    /// Creates a value from the paper's m²·K/GW unit.
    #[must_use]
    pub fn from_m2_kelvin_per_gigawatt(r: f64) -> Self {
        Self::new(r * 1e-9)
    }
}

impl HeatTransferCoefficient {
    /// Two-phase porous-copper heatsink of Palko et al. (ITherm 2016),
    /// `h = 10⁶ W/m²/K`; requires boiling water, i.e. a 100 °C ambient.
    pub const TWO_PHASE: Self = Self::new(1.0e6);

    /// Si-integrated microfluidic heatsink (Tuckerman & Pease),
    /// `h = 10⁵ W/m²/K`; works with room-temperature water.
    pub const MICROFLUIDIC: Self = Self::new(1.0e5);
}

impl ThermalConductivity {
    /// Conductance of a prism of cross-section `area` and length `length`:
    /// `G = k·A/L`.
    ///
    /// # Panics
    ///
    /// Panics if `length` is zero or negative.
    #[must_use]
    pub fn conductance(self, area: Area, length: Length) -> ThermalConductance {
        assert!(
            length.get() > 0.0,
            "conductance requires a positive path length, got {length}"
        );
        ThermalConductance::new(self.get() * area.get() / length.get())
    }

    /// Area-specific resistance of a slab of the given thickness:
    /// `R'' = t/k`.
    #[must_use]
    pub fn slab_resistance(self, thickness: Length) -> AreaThermalResistance {
        AreaThermalResistance::new(thickness.get() / self.get())
    }
}

impl ThermalConductance {
    /// The reciprocal resistance `R = 1/G`.
    #[must_use]
    pub fn to_resistance(self) -> ThermalResistance {
        ThermalResistance::new(1.0 / self.get())
    }
}

impl ThermalResistance {
    /// The reciprocal conductance `G = 1/R`.
    #[must_use]
    pub fn to_conductance(self) -> ThermalConductance {
        ThermalConductance::new(1.0 / self.get())
    }

    /// Series combination (sum of resistances).
    #[must_use]
    pub fn in_series(self, other: Self) -> Self {
        self + other
    }

    /// Parallel combination `R₁R₂/(R₁+R₂)`.
    #[must_use]
    pub fn in_parallel(self, other: Self) -> Self {
        Self::new(self.get() * other.get() / (self.get() + other.get()))
    }
}

impl AreaThermalResistance {
    /// The slab conductivity that would produce this resistance at the
    /// given thickness: `k = t/R''`.
    #[must_use]
    pub fn to_conductivity(self, thickness: Length) -> ThermalConductivity {
        ThermalConductivity::new(thickness.get() / self.get())
    }
}

// --- Physical-law operators -------------------------------------------------

impl core::ops::Mul<TempDelta> for ThermalConductance {
    type Output = Power;
    /// Fourier's law in lumped form: `q = G·ΔT`.
    fn mul(self, rhs: TempDelta) -> Power {
        Power::new(self.get() * rhs.get())
    }
}

impl core::ops::Mul<Power> for ThermalResistance {
    type Output = TempDelta;
    /// Temperature rise across a lumped resistance: `ΔT = R·q`.
    fn mul(self, rhs: Power) -> TempDelta {
        TempDelta::new(self.get() * rhs.get())
    }
}

impl core::ops::Mul<ThermalResistance> for Power {
    type Output = TempDelta;
    fn mul(self, rhs: ThermalResistance) -> TempDelta {
        rhs * self
    }
}

impl core::ops::Div<ThermalConductance> for Power {
    type Output = TempDelta;
    /// `ΔT = q / G`.
    fn div(self, rhs: ThermalConductance) -> TempDelta {
        TempDelta::new(self.get() / rhs.get())
    }
}

impl core::ops::Div<HeatTransferCoefficient> for HeatFlux {
    type Output = TempDelta;
    /// Newton's law of cooling: `ΔT = q'' / h`.
    fn div(self, rhs: HeatTransferCoefficient) -> TempDelta {
        TempDelta::new(self.get() / rhs.get())
    }
}

impl core::ops::Mul<Area> for HeatTransferCoefficient {
    type Output = ThermalConductance;
    /// Convective boundary conductance: `G = h·A`.
    fn mul(self, rhs: Area) -> ThermalConductance {
        ThermalConductance::new(self.get() * rhs.get())
    }
}

impl core::ops::Mul<AreaThermalResistance> for HeatFlux {
    type Output = TempDelta;
    /// `ΔT = q'' · R''`.
    fn mul(self, rhs: AreaThermalResistance) -> TempDelta {
        TempDelta::new(self.get() * rhs.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conductance_of_prism() {
        // 100 nm x 100 nm pillar, 1 µm tall, k = 105 W/m/K.
        let k = ThermalConductivity::new(105.0);
        let g = k.conductance(
            Length::from_nanometers(100.0).squared(),
            Length::from_micrometers(1.0),
        );
        assert!((g.get() - 105.0 * 1e-14 / 1e-6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive path length")]
    fn conductance_rejects_zero_length() {
        let _ = ThermalConductivity::new(1.0).conductance(Area::new(1.0), Length::ZERO);
    }

    #[test]
    fn series_parallel_resistance() {
        let a = ThermalResistance::new(2.0);
        let b = ThermalResistance::new(2.0);
        assert!((a.in_series(b).get() - 4.0).abs() < 1e-12);
        assert!((a.in_parallel(b).get() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn resistance_conductance_round_trip() {
        let g = ThermalConductance::new(4.0);
        assert!((g.to_resistance().to_conductance().get() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn slab_resistance_and_back() {
        // 1 µm of V0-V7 BEOL at k=0.31: R'' = 3.2e-6 m²K/W.
        let k = ThermalConductivity::new(0.31);
        let t = Length::from_micrometers(1.0);
        let r = k.slab_resistance(t);
        assert!((r.get() - 1e-6 / 0.31).abs() < 1e-12);
        assert!((r.to_conductivity(t).get() - 0.31).abs() < 1e-12);
    }

    #[test]
    fn newtons_law_of_cooling() {
        // The headline heatsink claim: 1000 W/cm² with a 10 °C rise at h=1e6.
        let rise = HeatFlux::from_watts_per_square_cm(1000.0) / HeatTransferCoefficient::TWO_PHASE;
        assert!((rise.kelvin() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn flux_through_slab() {
        let q = HeatFlux::from_watts_per_square_cm(53.0);
        let r = ThermalConductivity::new(0.31).slab_resistance(Length::from_micrometers(1.0));
        let dt = q * r;
        assert!((dt.kelvin() - 53.0e4 * 1e-6 / 0.31).abs() < 1e-9);
    }

    #[test]
    fn named_heatsinks() {
        assert_eq!(HeatTransferCoefficient::TWO_PHASE.get(), 1.0e6);
        assert_eq!(HeatTransferCoefficient::MICROFLUIDIC.get(), 1.0e5);
    }
}
