//! The metal stack: layers, groups, and dielectric assignment.

use tsc_materials::Material;
use tsc_units::{Delay, Length, RelativePermittivity};

/// Which group of the BEOL a layer belongs to — the thermal abstraction
/// boundary of the paper (M8–M9 modeled separately from V0–V7, which \[5\]
/// shows is necessary for 5 % accuracy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerGroup {
    /// Local/intermediate routing lumped as V0–V7.
    Lower,
    /// The uppermost group M8/V8/M9 — the scaffolding dielectric target.
    Upper,
}

/// One interconnect layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Name, e.g. `"M8"` or `"V3"`.
    pub name: &'static str,
    /// Layer thickness.
    pub thickness: Length,
    /// Minimum wire width (vias: via dimension).
    pub width: Length,
    /// Minimum wire pitch (width + spacing).
    pub pitch: Length,
    /// `true` for via layers.
    pub is_via: bool,
    /// Group for thermal lumping.
    pub group: LayerGroup,
}

impl Layer {
    /// Minimum spacing between wires on this layer.
    #[must_use]
    pub fn spacing(&self) -> Length {
        self.pitch - self.width
    }
}

/// A 7 nm-class metal stack with per-group dielectric assignment.
///
/// The default [`MetalStack::asap7`] uses published ASAP7-class numbers:
/// 1× metals M1–M3 (36 nm pitch class), 2× M4–M5, 4× M6–M7, and the
/// thick top metals M8–M9 at 80 nm with 80 nm vias — the uppermost
/// 240 nm that scaffolding re-fabricates in thermal dielectric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetalStack {
    layers: Vec<Layer>,
    lower_dielectric: Material,
    upper_dielectric: Material,
}

impl MetalStack {
    /// The ASAP7-class stack with ultra-low-k dielectric everywhere
    /// (the conventional baseline).
    #[must_use]
    pub fn asap7() -> Self {
        let nm = Length::from_nanometers;
        let m = |name, t, w, p, group| Layer {
            name,
            thickness: nm(t),
            width: nm(w),
            pitch: nm(p),
            is_via: false,
            group,
        };
        let v = |name, t, w, group| Layer {
            name,
            thickness: nm(t),
            width: nm(w),
            pitch: nm(2.0 * w),
            is_via: true,
            group,
        };
        use LayerGroup::{Lower, Upper};
        let layers = vec![
            m("M1", 36.0, 18.0, 36.0, Lower),
            v("V1", 39.0, 18.0, Lower),
            m("M2", 36.0, 18.0, 36.0, Lower),
            v("V2", 39.0, 18.0, Lower),
            m("M3", 36.0, 18.0, 36.0, Lower),
            v("V3", 39.0, 18.0, Lower),
            m("M4", 48.0, 24.0, 48.0, Lower),
            v("V4", 52.0, 24.0, Lower),
            m("M5", 48.0, 24.0, 48.0, Lower),
            v("V5", 52.0, 24.0, Lower),
            m("M6", 96.0, 48.0, 96.0, Lower),
            v("V6", 104.0, 48.0, Lower),
            m("M7", 96.0, 48.0, 96.0, Lower),
            v("V7", 104.0, 48.0, Lower),
            m("M8", 80.0, 40.0, 80.0, Upper),
            v("V8", 80.0, 40.0, Upper),
            m("M9", 80.0, 40.0, 80.0, Upper),
        ];
        Self {
            layers,
            lower_dielectric: tsc_materials::ULTRA_LOW_K_ILD,
            upper_dielectric: tsc_materials::ULTRA_LOW_K_ILD,
        }
    }

    /// The scaffolding modification: the upper group (M8/V8/M9) is
    /// fabricated with the thermal dielectric at its design point.
    #[must_use]
    pub fn with_thermal_dielectric_upper(mut self) -> Self {
        self.upper_dielectric = tsc_materials::THERMAL_DIELECTRIC_DESIGN;
        self
    }

    /// All layers, bottom to top.
    #[must_use]
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Looks up a layer by name.
    #[must_use]
    pub fn layer(&self, name: &str) -> Option<&Layer> {
        self.layers.iter().find(|l| l.name == name)
    }

    /// Dielectric of a group.
    #[must_use]
    pub fn dielectric(&self, group: LayerGroup) -> &Material {
        match group {
            LayerGroup::Lower => &self.lower_dielectric,
            LayerGroup::Upper => &self.upper_dielectric,
        }
    }

    /// Total thickness of a group.
    #[must_use]
    pub fn group_thickness(&self, group: LayerGroup) -> Length {
        self.layers
            .iter()
            .filter(|l| l.group == group)
            .map(|l| l.thickness)
            .sum()
    }

    /// Total BEOL thickness.
    #[must_use]
    pub fn total_thickness(&self) -> Length {
        self.layers.iter().map(|l| l.thickness).sum()
    }

    /// Signal-wire capacitance per length on the upper metals (M8/M9)
    /// with the assigned upper dielectric.
    #[must_use]
    pub fn upper_wire_capacitance_per_length(&self) -> f64 {
        // tsc-analyze: allow(no-unwrap): every constructor of this stack
        // lays down the full M1..M9 ladder, so M8 is always present.
        let layer = self.layer("M8").expect("M8 exists");
        let eps = self
            .upper_dielectric
            .permittivity
            .unwrap_or(RelativePermittivity::ULTRA_LOW_K);
        crate::wire::capacitance_per_length(layer, eps)
    }

    /// Signal-wire capacitance per length on a representative lower metal
    /// (M2) with the assigned lower dielectric.
    #[must_use]
    pub fn lower_wire_capacitance_per_length(&self) -> f64 {
        // tsc-analyze: allow(no-unwrap): every constructor of this stack
        // lays down the full M1..M9 ladder, so M2 is always present.
        let layer = self.layer("M2").expect("M2 exists");
        let eps = self
            .lower_dielectric
            .permittivity
            .unwrap_or(RelativePermittivity::ULTRA_LOW_K);
        crate::wire::capacitance_per_length(layer, eps)
    }

    /// Repeatered (buffered) signal delay per length on the upper metals.
    #[must_use]
    pub fn upper_repeatered_delay_per_length(&self) -> f64 {
        // tsc-analyze: allow(no-unwrap): every constructor of this stack
        // lays down the full M1..M9 ladder, so M8 is always present.
        let layer = self.layer("M8").expect("M8 exists");
        let eps = self
            .upper_dielectric
            .permittivity
            .unwrap_or(RelativePermittivity::ULTRA_LOW_K);
        crate::wire::repeatered_delay_per_length(layer, eps)
    }

    /// Repeatered delay per length on a representative lower metal.
    #[must_use]
    pub fn lower_repeatered_delay_per_length(&self) -> f64 {
        // tsc-analyze: allow(no-unwrap): every constructor of this stack
        // lays down the full M1..M9 ladder, so M2 is always present.
        let layer = self.layer("M2").expect("M2 exists");
        let eps = self
            .lower_dielectric
            .permittivity
            .unwrap_or(RelativePermittivity::ULTRA_LOW_K);
        crate::wire::repeatered_delay_per_length(layer, eps)
    }

    /// Unbuffered Elmore delay of a wire of the given length on `layer`
    /// with that group's dielectric — exposed for spot checks against the
    /// repeatered model.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a metal layer of this stack.
    #[must_use]
    pub fn elmore_delay(&self, name: &str, length: Length) -> Delay {
        // tsc-analyze: allow(no-unwrap): documented panic contract above
        // (`# Panics`); callers pass layer names they own.
        let layer = self.layer(name).expect("layer exists");
        assert!(!layer.is_via, "vias do not route signals");
        let eps = self
            .dielectric(layer.group)
            .permittivity
            .unwrap_or(RelativePermittivity::ULTRA_LOW_K);
        let r = crate::wire::resistance_per_length(layer);
        let c = crate::wire::capacitance_per_length(layer, eps);
        let l = length.meters();
        // Distributed RC: 0.5·r·c·L².
        Delay::new(0.5 * r * c * l * l)
    }
}

impl Default for MetalStack {
    fn default() -> Self {
        Self::asap7()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upper_group_is_240nm() {
        let s = MetalStack::asap7();
        assert!(
            (s.group_thickness(LayerGroup::Upper).nanometers() - 240.0).abs() < 1e-9,
            "M8+V8+M9 must be the paper's 240 nm scaffolding target"
        );
    }

    #[test]
    fn lower_group_is_about_a_micron() {
        let s = MetalStack::asap7();
        let t = s.group_thickness(LayerGroup::Lower).micrometers();
        assert!((0.7..1.3).contains(&t), "lower BEOL ≈ 1 µm, got {t}");
    }

    #[test]
    fn dielectric_swap_only_touches_upper() {
        let s = MetalStack::asap7().with_thermal_dielectric_upper();
        assert_eq!(
            s.dielectric(LayerGroup::Upper).name,
            "thermal dielectric (design point)"
        );
        assert_eq!(s.dielectric(LayerGroup::Lower).name, "ultra-low-k ILD");
    }

    #[test]
    fn capacitance_doubles_with_epsilon() {
        let base = MetalStack::asap7();
        let scaf = MetalStack::asap7().with_thermal_dielectric_upper();
        let ratio =
            scaf.upper_wire_capacitance_per_length() / base.upper_wire_capacitance_per_length();
        assert!((ratio - 2.0).abs() < 1e-9);
        // Lower layers untouched.
        assert_eq!(
            base.lower_wire_capacitance_per_length(),
            scaf.lower_wire_capacitance_per_length()
        );
    }

    #[test]
    fn layer_lookup() {
        let s = MetalStack::asap7();
        assert!(s.layer("M8").is_some());
        assert!(s.layer("V8").expect("V8").is_via);
        assert!(s.layer("M17").is_none());
        assert_eq!(s.layers().len(), 17);
    }

    #[test]
    fn elmore_grows_quadratically() {
        let s = MetalStack::asap7();
        let d1 = s.elmore_delay("M8", Length::from_micrometers(100.0));
        let d2 = s.elmore_delay("M8", Length::from_micrometers(200.0));
        assert!((d2 / d1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn upper_wires_are_faster_per_length() {
        // Thick top metals beat thin lower metals for global routes.
        let s = MetalStack::asap7();
        assert!(s.upper_repeatered_delay_per_length() < s.lower_repeatered_delay_per_length());
    }

    #[test]
    #[should_panic(expected = "vias do not route")]
    fn via_layers_reject_signal_delay() {
        let _ = MetalStack::asap7().elmore_delay("V8", Length::from_micrometers(1.0));
    }
}
