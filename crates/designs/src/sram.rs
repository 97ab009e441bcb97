//! Analytical SRAM area/energy model — the FinCACTI \[33\] substitute.
//!
//! The flows need three things from a cache model: macro footprints for
//! floorplanning, power density for the thermal map, and bandwidth-ish
//! energy numbers for sanity checks. A 7 nm-class bitcell with array
//! overheads reproduces those within the fidelity the thermal study
//! needs.

use tsc_units::{Area, Frequency, HeatFlux, Length, Power};

/// 7 nm-class 6T SRAM bitcell area (high-density cell ≈ 0.027 µm²).
pub const BITCELL_AREA_UM2: f64 = 0.027;

/// Array efficiency: periphery (decoders, sense amps, ECC) roughly
/// doubles the bitcell footprint at the macro level.
pub const ARRAY_EFFICIENCY: f64 = 0.5;

/// Read energy per bit at 7 nm (≈ 5 fJ/bit including periphery).
pub const READ_ENERGY_PER_BIT_J: f64 = 5.0e-15;

/// Leakage per bit at 7 nm, 125 °C corner (≈ 15 pW/bit).
pub const LEAKAGE_PER_BIT_W: f64 = 15.0e-12;

/// An SRAM macro sized from a capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramMacro {
    /// Capacity in bytes.
    pub bytes: usize,
}

impl SramMacro {
    /// Creates a macro of the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    #[must_use]
    pub fn with_capacity(bytes: usize) -> Self {
        assert!(bytes > 0, "capacity must be positive");
        Self { bytes }
    }

    /// Macro area from bitcell area and array efficiency.
    #[must_use]
    pub fn area(&self) -> Area {
        let bits = self.bytes as f64 * 8.0;
        Area::from_square_micrometers(bits * BITCELL_AREA_UM2 / ARRAY_EFFICIENCY)
    }

    /// Side of a square macro of this capacity.
    #[must_use]
    pub fn square_side(&self) -> Length {
        self.area().side_of_square()
    }

    /// Leakage power of the macro.
    #[must_use]
    pub fn leakage(&self) -> Power {
        Power::from_watts(self.bytes as f64 * 8.0 * LEAKAGE_PER_BIT_W)
    }

    /// Dynamic power at an access rate of `accesses_per_cycle` words of
    /// `word_bits` at `clock`.
    ///
    /// # Panics
    ///
    /// Panics if `word_bits` is zero.
    #[must_use]
    pub fn dynamic_power(
        &self,
        accesses_per_cycle: f64,
        word_bits: usize,
        clock: Frequency,
    ) -> Power {
        assert!(word_bits > 0, "word width must be positive");
        let joules_per_cycle = accesses_per_cycle * word_bits as f64 * READ_ENERGY_PER_BIT_J;
        Power::from_watts(joules_per_cycle * clock.get())
    }

    /// Average power density of the macro under the given activity.
    #[must_use]
    pub fn power_density(
        &self,
        accesses_per_cycle: f64,
        word_bits: usize,
        clock: Frequency,
    ) -> HeatFlux {
        let total = self.leakage() + self.dynamic_power(accesses_per_cycle, word_bits, clock);
        total / self.area()
    }

    /// How many macros of `self`'s size tile a total capacity (rounded
    /// up).
    #[must_use]
    pub fn count_for_total(&self, total_bytes: usize) -> usize {
        total_bytes.div_ceil(self.bytes)
    }
}

/// Sanity ratio used by tests and the LLC builders: density in
/// MB per mm².
#[must_use]
pub fn megabytes_per_mm2() -> f64 {
    let one_mb = SramMacro::with_capacity(1 << 20);
    1.0 / one_mb.area().square_millimeters()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_megabyte_llc_fits_in_a_millimeter_die() {
        // The Gemmini LLC (4 MB) must fit a ~1 mm² tier — the premise of
        // the interleaved-LLC design.
        let llc = SramMacro::with_capacity(4 << 20);
        let a = llc.area().square_millimeters();
        assert!((1.0..2.5).contains(&a), "4 MB LLC = {a} mm²");
    }

    #[test]
    fn density_is_seven_nanometer_class() {
        let d = megabytes_per_mm2();
        assert!(
            (1.5..5.0).contains(&d),
            "7nm-class SRAM ≈ 2-3 MB/mm², got {d}"
        );
    }

    #[test]
    fn area_scales_linearly_with_capacity() {
        let a1 = SramMacro::with_capacity(1 << 20).area().square_meters();
        let a4 = SramMacro::with_capacity(4 << 20).area().square_meters();
        assert!((a4 / a1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn power_density_in_sram_class_range() {
        // A 3D LLC slice serving the ultra-dense bandwidth the paper
        // motivates (several concurrent bank accesses per cycle) lands
        // in the Fig. 8 SRAM band, far below logic.
        let m = SramMacro::with_capacity(256 << 10);
        let d = m.power_density(4.0, 512, Frequency::from_gigahertz(1.0));
        let w = d.watts_per_square_cm();
        assert!((5.0..50.0).contains(&w), "{w} W/cm²");
    }

    #[test]
    fn leakage_grows_with_capacity() {
        let small = SramMacro::with_capacity(16 << 10).leakage();
        let big = SramMacro::with_capacity(4 << 20).leakage();
        assert!(big.watts() > 100.0 * small.watts());
    }

    #[test]
    fn tiling_rounds_up() {
        let m = SramMacro::with_capacity(256 << 10);
        assert_eq!(m.count_for_total(1 << 20), 4);
        assert_eq!(m.count_for_total((1 << 20) + 1), 5);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = SramMacro::with_capacity(0);
    }
}
