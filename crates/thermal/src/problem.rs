//! The discretized thermal problem: mesh, conductivities, sources,
//! boundary conditions.

use crate::heatsink::Heatsink;
use tsc_geometry::{Dim3, Grid2, Grid3};
use tsc_units::{HeatFlux, Length, Power, ThermalConductivity};

/// A steady-state conduction problem on a structured mesh.
///
/// The mesh is uniform laterally (cells of `dx × dy`) and non-uniform
/// vertically (per-layer thickness `dz[k]`, bottom `k = 0` to top).
/// Conductivity is anisotropic per cell: `kz` cross-plane, `kxy` in-plane.
/// Heat sources are stored as watts per cell. Side walls are adiabatic;
/// the bottom and top faces may carry a convective [`Heatsink`], whose
/// ambient may optionally vary per column via
/// [`Problem::set_bottom_ambient_map`] /
/// [`Problem::set_top_ambient_map`] (the manufactured-solution
/// verification hook: combined with an `h → ∞` heatsink it prescribes
/// Dirichlet face data).
///
/// Build one directly, via [`Problem::uniform_block`], or from a layer
/// stack with [`StackMeshBuilder`](crate::StackMeshBuilder).
#[derive(Debug, Clone)]
pub struct Problem {
    dim: Dim3,
    dx: Length,
    dy: Length,
    dz: Vec<Length>,
    /// Cross-plane conductivity per cell (W/m/K).
    kz: Grid3<f64>,
    /// In-plane conductivity per cell (W/m/K).
    kxy: Grid3<f64>,
    /// Heat injected per cell (W).
    power: Grid3<f64>,
    bottom: Option<Heatsink>,
    top: Option<Heatsink>,
    /// Per-column ambient override (K) for the bottom Robin boundary.
    bottom_ambient: Option<Grid2<f64>>,
    /// Per-column ambient override (K) for the top Robin boundary.
    top_ambient: Option<Grid2<f64>>,
}

impl Problem {
    /// Creates a problem over an `nx × ny` lateral grid with the given
    /// per-layer thicknesses, initialized to the given isotropic
    /// conductivity and zero power.
    ///
    /// # Panics
    ///
    /// Panics if `dz` is empty, any thickness or pitch is non-positive,
    /// or `k` is non-positive.
    #[must_use]
    pub fn new(
        nx: usize,
        ny: usize,
        dx: Length,
        dy: Length,
        dz: Vec<Length>,
        k: ThermalConductivity,
    ) -> Self {
        assert!(!dz.is_empty(), "at least one z layer required");
        assert!(
            dx.meters() > 0.0 && dy.meters() > 0.0,
            "lateral pitch must be positive"
        );
        assert!(
            dz.iter().all(|t| t.meters() > 0.0),
            "layer thicknesses must be positive"
        );
        assert!(k.get() > 0.0, "conductivity must be positive, got {k}");
        let dim = Dim3::new(nx, ny, dz.len());
        Self {
            dim,
            dx,
            dy,
            dz,
            kz: Grid3::filled(dim, k.get()),
            kxy: Grid3::filled(dim, k.get()),
            power: Grid3::filled(dim, 0.0),
            bottom: None,
            top: None,
            bottom_ambient: None,
            top_ambient: None,
        }
    }

    /// Convenience: a homogeneous block of total thickness `height` split
    /// into `nz` equal layers.
    ///
    /// # Panics
    ///
    /// As for [`Problem::new`]; additionally if `nz == 0`. `width` and
    /// `depth` are the *total* lateral extents, divided into `nx`/`ny`
    /// cells.
    #[must_use]
    pub fn uniform_block(
        nx: usize,
        ny: usize,
        nz: usize,
        width: Length,
        depth: Length,
        height: Length,
        k: ThermalConductivity,
    ) -> Self {
        assert!(nz > 0, "nz must be positive");
        let dz = vec![height / nz as f64; nz];
        Self::new(nx, ny, width / nx as f64, depth / ny as f64, dz, k)
    }

    /// Mesh dimensions.
    #[must_use]
    pub fn dim(&self) -> Dim3 {
        self.dim
    }

    /// Lateral cell pitch in x.
    #[must_use]
    pub fn dx(&self) -> Length {
        self.dx
    }

    /// Lateral cell pitch in y.
    #[must_use]
    pub fn dy(&self) -> Length {
        self.dy
    }

    /// Per-layer thicknesses, bottom to top.
    #[must_use]
    pub fn dz(&self) -> &[Length] {
        &self.dz
    }

    /// Total stack height.
    #[must_use]
    pub fn height(&self) -> Length {
        self.dz.iter().copied().sum()
    }

    /// Bottom heatsink, if any.
    #[must_use]
    pub fn bottom_heatsink(&self) -> Option<Heatsink> {
        self.bottom
    }

    /// Top heatsink, if any.
    #[must_use]
    pub fn top_heatsink(&self) -> Option<Heatsink> {
        self.top
    }

    /// Attaches a heatsink to the bottom face (`k = 0`).
    pub fn set_bottom_heatsink(&mut self, hs: Heatsink) {
        self.bottom = Some(hs);
    }

    /// Attaches a heatsink to the top face (`k = nz − 1`).
    pub fn set_top_heatsink(&mut self, hs: Heatsink) {
        self.top = Some(hs);
    }

    /// Prescribes a per-column ambient temperature (kelvin) for the
    /// bottom Robin boundary, overriding the bottom [`Heatsink`]'s
    /// scalar ambient. With an `h → ∞` film the boundary degenerates to
    /// Dirichlet face data — the analytic-boundary injection hook used
    /// by the `tsc-verify` manufactured-solution oracle. Ignored until a
    /// bottom heatsink is attached.
    ///
    /// # Panics
    ///
    /// Panics when the map's dimensions differ from the lateral mesh or
    /// any entry is non-finite.
    pub fn set_bottom_ambient_map(&mut self, map: Grid2<f64>) {
        assert!(
            map.nx() == self.dim.nx && map.ny() == self.dim.ny,
            "ambient map must be {}x{}, got {}x{}",
            self.dim.nx,
            self.dim.ny,
            map.nx(),
            map.ny()
        );
        assert!(
            map.iter().all(|t| t.is_finite()),
            "ambient map entries must be finite"
        );
        self.bottom_ambient = Some(map);
    }

    /// Prescribes a per-column ambient temperature (kelvin) for the top
    /// Robin boundary. See [`Problem::set_bottom_ambient_map`].
    ///
    /// # Panics
    ///
    /// Panics when the map's dimensions differ from the lateral mesh or
    /// any entry is non-finite.
    pub fn set_top_ambient_map(&mut self, map: Grid2<f64>) {
        assert!(
            map.nx() == self.dim.nx && map.ny() == self.dim.ny,
            "ambient map must be {}x{}, got {}x{}",
            self.dim.nx,
            self.dim.ny,
            map.nx(),
            map.ny()
        );
        assert!(
            map.iter().all(|t| t.is_finite()),
            "ambient map entries must be finite"
        );
        self.top_ambient = Some(map);
    }

    /// The bottom-boundary ambient override, if one is set.
    #[must_use]
    pub fn bottom_ambient_map(&self) -> Option<&Grid2<f64>> {
        self.bottom_ambient.as_ref()
    }

    /// The top-boundary ambient override, if one is set.
    #[must_use]
    pub fn top_ambient_map(&self) -> Option<&Grid2<f64>> {
        self.top_ambient.as_ref()
    }

    /// Ambient temperature (K) seen by the bottom face of column
    /// `(i, j)`: the per-column override when present, else the bottom
    /// heatsink's scalar ambient. Zero without a bottom heatsink.
    pub(crate) fn bottom_ambient_at(&self, i: usize, j: usize) -> f64 {
        match (&self.bottom_ambient, self.bottom) {
            (Some(map), Some(_)) => map[(i, j)],
            (None, Some(hs)) => hs.ambient.kelvin(),
            _ => 0.0,
        }
    }

    /// Ambient temperature (K) seen by the top face of column `(i, j)`.
    pub(crate) fn top_ambient_at(&self, i: usize, j: usize) -> f64 {
        match (&self.top_ambient, self.top) {
            (Some(map), Some(_)) => map[(i, j)],
            (None, Some(hs)) => hs.ambient.kelvin(),
            _ => 0.0,
        }
    }

    /// Sets the anisotropic conductivity of one cell.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds or either conductivity is non-positive.
    pub fn set_conductivity(
        &mut self,
        i: usize,
        j: usize,
        k: usize,
        vertical: ThermalConductivity,
        lateral: ThermalConductivity,
    ) {
        assert!(
            vertical.get() > 0.0 && lateral.get() > 0.0,
            "conductivity must be positive"
        );
        self.kz[(i, j, k)] = vertical.get();
        self.kxy[(i, j, k)] = lateral.get();
    }

    /// Sets the conductivity of an entire z layer.
    ///
    /// # Panics
    ///
    /// Panics when `k` is out of bounds or either conductivity is
    /// non-positive.
    pub fn set_layer_conductivity(
        &mut self,
        k: usize,
        vertical: ThermalConductivity,
        lateral: ThermalConductivity,
    ) {
        for j in 0..self.dim.ny {
            for i in 0..self.dim.nx {
                self.set_conductivity(i, j, k, vertical, lateral);
            }
        }
    }

    /// Blends a vertical high-conductivity inclusion (e.g. a pillar
    /// occupying `fraction` of the cell footprint) into cell `(i, j, k)`
    /// using the parallel rule vertically and leaving the lateral value
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds, `fraction` outside `[0, 1]`, or
    /// `k_inclusion` non-positive.
    pub fn blend_vertical_inclusion(
        &mut self,
        i: usize,
        j: usize,
        k: usize,
        fraction: f64,
        k_inclusion: ThermalConductivity,
    ) {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "inclusion fraction must be within [0, 1], got {fraction}"
        );
        assert!(k_inclusion.get() > 0.0, "conductivity must be positive");
        let base = self.kz[(i, j, k)];
        self.kz[(i, j, k)] = (1.0 - fraction) * base + fraction * k_inclusion.get();
    }

    /// Adds heat to one cell.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn add_power(&mut self, i: usize, j: usize, k: usize, p: Power) {
        self.power[(i, j, k)] += p.watts();
    }

    /// Distributes a uniform heat flux over the entire top layer.
    pub fn add_uniform_top_flux(&mut self, flux: HeatFlux) {
        let per_cell = flux * (self.dx * self.dy);
        let top = self.dim.nz - 1;
        for j in 0..self.dim.ny {
            for i in 0..self.dim.nx {
                self.add_power(i, j, top, per_cell);
            }
        }
    }

    /// Paints a lateral power-density map (W/cell aggregated from W/m²)
    /// onto z layer `k`. The map is resampled to the mesh resolution if
    /// needed.
    ///
    /// # Panics
    ///
    /// Panics when `k` is out of bounds.
    pub fn add_flux_map(&mut self, k: usize, map: &Grid2<f64>) {
        assert!(k < self.dim.nz, "layer {k} out of range");
        let cell_area = (self.dx * self.dy).square_meters();
        let resampled;
        let map = if map.nx() == self.dim.nx && map.ny() == self.dim.ny {
            map
        } else {
            resampled = map.resampled(self.dim.nx, self.dim.ny);
            &resampled
        };
        for j in 0..self.dim.ny {
            for i in 0..self.dim.nx {
                self.power[(i, j, k)] += map[(i, j)] * cell_area;
            }
        }
    }

    /// Zeroes every cell's injected power while leaving geometry,
    /// conductivity and boundary conditions untouched.  The operator
    /// (which power never enters) is preserved, so a repowered problem
    /// re-solved through a [`crate::SolveContext`] is a pure power-delta:
    /// operator and hierarchy reuse plus a warm start.
    pub fn clear_power(&mut self) {
        for p in self.power.as_mut_slice() {
            *p = 0.0;
        }
    }

    /// Total injected power.
    #[must_use]
    pub fn total_power(&self) -> Power {
        Power::from_watts(self.power.iter().sum())
    }

    /// Power injected in one cell (W).
    #[must_use]
    pub fn cell_power(&self, i: usize, j: usize, k: usize) -> Power {
        Power::from_watts(self.power[(i, j, k)])
    }

    /// Cross-plane conductivity of a cell.
    #[must_use]
    pub fn kz_at(&self, i: usize, j: usize, k: usize) -> ThermalConductivity {
        ThermalConductivity::new(self.kz[(i, j, k)])
    }

    /// In-plane conductivity of a cell.
    #[must_use]
    pub fn kxy_at(&self, i: usize, j: usize, k: usize) -> ThermalConductivity {
        ThermalConductivity::new(self.kxy[(i, j, k)])
    }

    // --- assembly helpers used by the solvers ---------------------------

    /// Face conductance between laterally adjacent cells (x direction).
    pub(crate) fn gx(&self, i: usize, j: usize, k: usize) -> f64 {
        // Between (i,j,k) and (i+1,j,k): area dy*dz, distance dx/2 each side.
        let area = (self.dy * self.dz[k]).square_meters();
        let half = self.dx.meters() / 2.0;
        let k1 = self.kxy[(i, j, k)];
        let k2 = self.kxy[(i + 1, j, k)];
        area / (half / k1 + half / k2)
    }

    /// Face conductance between laterally adjacent cells (y direction).
    pub(crate) fn gy(&self, i: usize, j: usize, k: usize) -> f64 {
        let area = (self.dx * self.dz[k]).square_meters();
        let half = self.dy.meters() / 2.0;
        let k1 = self.kxy[(i, j, k)];
        let k2 = self.kxy[(i, j + 1, k)];
        area / (half / k1 + half / k2)
    }

    /// Face conductance between vertically adjacent cells.
    pub(crate) fn gz(&self, i: usize, j: usize, k: usize) -> f64 {
        let area = (self.dx * self.dy).square_meters();
        let h1 = self.dz[k].meters() / 2.0;
        let h2 = self.dz[k + 1].meters() / 2.0;
        let k1 = self.kz[(i, j, k)];
        let k2 = self.kz[(i, j, k + 1)];
        area / (h1 / k1 + h2 / k2)
    }

    /// Boundary conductance of the bottom face of cell `(i, j, 0)`:
    /// half-cell conduction in series with the convective film.
    pub(crate) fn g_bottom(&self, i: usize, j: usize) -> f64 {
        let Some(hs) = self.bottom else { return 0.0 };
        let area = (self.dx * self.dy).square_meters();
        let half = self.dz[0].meters() / 2.0;
        let k1 = self.kz[(i, j, 0)];
        1.0 / (half / (k1 * area) + 1.0 / (hs.h.get() * area))
    }

    /// Boundary conductance of the top face of cell `(i, j, nz − 1)`.
    pub(crate) fn g_top(&self, i: usize, j: usize) -> f64 {
        let Some(hs) = self.top else { return 0.0 };
        let area = (self.dx * self.dy).square_meters();
        let top = self.dim.nz - 1;
        let half = self.dz[top].meters() / 2.0;
        let k1 = self.kz[(i, j, top)];
        1.0 / (half / (k1 * area) + 1.0 / (hs.h.get() * area))
    }

    /// Raw power slice (W per cell) in flat order.
    ///
    /// Public so batch planners can fingerprint a family of repainted
    /// loads (see [`crate::affine_family`]) without re-deriving the
    /// staging order.
    pub fn power_flat(&self) -> &[f64] {
        self.power.as_slice()
    }

    /// Raw cross-plane conductivity slice in flat order — the
    /// [`crate::SolveContext`] compares it to detect operator changes.
    pub(crate) fn kz_flat(&self) -> &[f64] {
        self.kz.as_slice()
    }

    /// Raw in-plane conductivity slice in flat order.
    pub(crate) fn kxy_flat(&self) -> &[f64] {
        self.kxy.as_slice()
    }

    /// Heat flowing *out* through the bottom heatsink for a given solved
    /// field (positive = extracted). Zero when no bottom sink is attached.
    ///
    /// Used by homogenization to measure the through-flux between two
    /// fixed-temperature faces.
    #[must_use]
    pub fn boundary_power_bottom(&self, field: &crate::TemperatureField) -> Power {
        if self.bottom.is_none() {
            return Power::ZERO;
        }
        let mut w = 0.0;
        for j in 0..self.dim.ny {
            for i in 0..self.dim.nx {
                w += self.g_bottom(i, j)
                    * (field.at(i, j, 0).kelvin() - self.bottom_ambient_at(i, j));
            }
        }
        Power::from_watts(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsc_units::Temperature;

    fn simple() -> Problem {
        Problem::uniform_block(
            4,
            4,
            2,
            Length::from_millimeters(1.0),
            Length::from_millimeters(1.0),
            Length::from_micrometers(10.0),
            ThermalConductivity::new(100.0),
        )
    }

    #[test]
    fn geometry_accessors() {
        let p = simple();
        assert_eq!(p.dim(), Dim3::new(4, 4, 2));
        assert!((p.dx().micrometers() - 250.0).abs() < 1e-9);
        assert!((p.height().micrometers() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn power_accumulates() {
        let mut p = simple();
        p.add_power(1, 1, 0, Power::from_watts(2.0));
        p.add_power(1, 1, 0, Power::from_watts(3.0));
        assert!((p.cell_power(1, 1, 0).watts() - 5.0).abs() < 1e-12);
        assert!((p.total_power().watts() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_top_flux_total() {
        let mut p = simple();
        p.add_uniform_top_flux(HeatFlux::from_watts_per_square_cm(100.0));
        // 1 mm² die at 100 W/cm² -> 1 W.
        assert!((p.total_power().watts() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn flux_map_resamples() {
        let mut p = simple();
        let map = Grid2::filled(8, 8, 1e6); // 100 W/cm² as W/m², finer than mesh
        p.add_flux_map(1, &map);
        assert!((p.total_power().watts() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn face_conductances_symmetric_for_uniform_k() {
        let p = simple();
        let g1 = p.gx(0, 0, 0);
        let g2 = p.gx(2, 3, 1);
        assert!((g1 - g2).abs() < 1e-18);
        // Analytic: k*A/d with A = dy*dz = 250e-6 * 5e-6, d = dx = 250e-6.
        let expected = 100.0 * 250e-6 * 5e-6 / 250e-6;
        assert!((g1 - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn vertical_conductance_uses_harmonic_mean() {
        let mut p = simple();
        p.set_layer_conductivity(
            1,
            ThermalConductivity::new(1.0),
            ThermalConductivity::new(1.0),
        );
        let g = p.gz(0, 0, 0);
        let area = 250e-6_f64 * 250e-6;
        let expected = area / (2.5e-6 / 100.0 + 2.5e-6 / 1.0);
        assert!((g - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn boundary_conductance_includes_film_and_half_cell() {
        let mut p = simple();
        assert_eq!(p.g_bottom(0, 0), 0.0);
        p.set_bottom_heatsink(Heatsink::new(
            tsc_units::HeatTransferCoefficient::new(1e6),
            Temperature::from_celsius(100.0),
        ));
        let area = 250e-6_f64 * 250e-6;
        let expected = 1.0 / (2.5e-6 / (100.0 * area) + 1.0 / (1e6 * area));
        assert!((p.g_bottom(0, 0) - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn pillar_blend_raises_kz_only() {
        let mut p = simple();
        let kxy_before = p.kxy_at(1, 1, 0);
        p.blend_vertical_inclusion(1, 1, 0, 0.1, ThermalConductivity::new(1000.0));
        assert!((p.kz_at(1, 1, 0).get() - (0.9 * 100.0 + 0.1 * 1000.0)).abs() < 1e-9);
        assert_eq!(p.kxy_at(1, 1, 0), kxy_before);
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn blend_rejects_bad_fraction() {
        let mut p = simple();
        p.blend_vertical_inclusion(0, 0, 0, 1.5, ThermalConductivity::new(1.0));
    }

    #[test]
    #[should_panic(expected = "at least one z layer")]
    fn empty_stack_rejected() {
        let _ = Problem::new(
            2,
            2,
            Length::from_micrometers(1.0),
            Length::from_micrometers(1.0),
            vec![],
            ThermalConductivity::new(1.0),
        );
    }
}
