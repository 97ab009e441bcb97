//! Geometric quantities: [`Length`], [`Area`], [`Volume`].

quantity! {
    /// A length, stored in meters.
    ///
    /// Chip dimensions span nine orders of magnitude — from ~10 nm via
    /// openings to ~1 cm dies — so convenience constructors/accessors are
    /// provided for nm, µm and mm.
    ///
    /// ```
    /// use tsc_units::Length;
    /// let pitch = Length::from_nanometers(100.0);
    /// assert!((pitch.micrometers() - 0.1).abs() < 1e-12);
    /// ```
    Length, "m", "Creates a length from meters."
}

quantity! {
    /// An area, stored in square meters.
    ///
    /// ```
    /// use tsc_units::{Area, Length};
    /// let a = Length::from_micrometers(25.0) * Length::from_micrometers(25.0);
    /// assert!((a.square_micrometers() - 625.0).abs() < 1e-9);
    /// ```
    Area, "m^2", "Creates an area from square meters."
}

quantity! {
    /// A volume, stored in cubic meters.
    ///
    /// ```
    /// use tsc_units::{Length, Volume};
    /// let v = Volume::new(1e-18);
    /// assert!((v.cubic_micrometers() - 1.0).abs() < 1e-9);
    /// # let _ = Length::from_nanometers(1.0);
    /// ```
    Volume, "m^3", "Creates a volume from cubic meters."
}

impl Length {
    /// Creates a length from meters (alias of [`Length::new`]).
    #[must_use]
    pub const fn from_meters(m: f64) -> Self {
        Self::new(m)
    }

    /// Creates a length from millimeters.
    #[must_use]
    pub fn from_millimeters(mm: f64) -> Self {
        Self::new(mm * 1e-3)
    }

    /// Creates a length from micrometers.
    #[must_use]
    pub fn from_micrometers(um: f64) -> Self {
        Self::new(um * 1e-6)
    }

    /// Creates a length from nanometers.
    #[must_use]
    pub fn from_nanometers(nm: f64) -> Self {
        Self::new(nm * 1e-9)
    }

    /// Value in meters.
    #[must_use]
    pub const fn meters(self) -> f64 {
        self.get()
    }

    /// Value in millimeters.
    #[must_use]
    pub fn millimeters(self) -> f64 {
        self.get() * 1e3
    }

    /// Value in micrometers.
    #[must_use]
    pub fn micrometers(self) -> f64 {
        self.get() * 1e6
    }

    /// Value in nanometers.
    #[must_use]
    pub fn nanometers(self) -> f64 {
        self.get() * 1e9
    }

    /// The square of this length as an [`Area`].
    #[must_use]
    pub fn squared(self) -> Area {
        Area::new(self.get() * self.get())
    }
}

impl Area {
    /// Creates an area from square micrometers.
    #[must_use]
    pub fn from_square_micrometers(um2: f64) -> Self {
        Self::new(um2 * 1e-12)
    }

    /// Creates an area from square centimeters.
    #[must_use]
    pub fn from_square_cm(cm2: f64) -> Self {
        Self::new(cm2 * 1e-4)
    }

    /// Value in square meters.
    #[must_use]
    pub const fn square_meters(self) -> f64 {
        self.get()
    }

    /// Value in square micrometers.
    #[must_use]
    pub fn square_micrometers(self) -> f64 {
        self.get() * 1e12
    }

    /// Value in square millimeters.
    #[must_use]
    pub fn square_millimeters(self) -> f64 {
        self.get() * 1e6
    }

    /// Side length of a square with this area.
    ///
    /// Used by the pillar-placement algorithm: the required pillar pitch
    /// within a heat source of area `A` covered by `P` pillars is
    /// `(A / P).side_of_square()`.
    #[must_use]
    pub fn side_of_square(self) -> Length {
        Length::new(self.get().sqrt())
    }
}

impl Volume {
    /// Value in cubic micrometers.
    #[must_use]
    pub fn cubic_micrometers(self) -> f64 {
        self.get() * 1e18
    }
}

impl core::ops::Mul for Length {
    type Output = Area;
    fn mul(self, rhs: Self) -> Area {
        Area::new(self.get() * rhs.get())
    }
}

impl core::ops::Mul<Length> for Area {
    type Output = Volume;
    fn mul(self, rhs: Length) -> Volume {
        Volume::new(self.get() * rhs.get())
    }
}

impl core::ops::Mul<Area> for Length {
    type Output = Volume;
    fn mul(self, rhs: Area) -> Volume {
        Volume::new(self.get() * rhs.get())
    }
}

impl core::ops::Div<Length> for Area {
    type Output = Length;
    fn div(self, rhs: Length) -> Length {
        Length::new(self.get() / rhs.get())
    }
}

impl core::ops::Div<Length> for Volume {
    type Output = Area;
    fn div(self, rhs: Length) -> Area {
        Area::new(self.get() / rhs.get())
    }
}

impl core::ops::Div<Area> for Volume {
    type Output = Length;
    fn div(self, rhs: Area) -> Length {
        Length::new(self.get() / rhs.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions_round_trip() {
        let l = Length::from_nanometers(240.0);
        assert!((l.micrometers() - 0.24).abs() < 1e-12);
        assert!((l.meters() - 240e-9).abs() < 1e-21);
        assert!((Length::from_millimeters(10.0).meters() - 0.01).abs() < 1e-15);
    }

    #[test]
    fn length_times_length_is_area() {
        let a = Length::from_micrometers(2.0) * Length::from_micrometers(3.0);
        assert!((a.square_micrometers() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn area_div_length_is_length() {
        let a = Area::from_square_micrometers(6.0);
        let l = a / Length::from_micrometers(2.0);
        assert!((l.micrometers() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn volume_chain() {
        let v = Length::from_micrometers(1.0).squared() * Length::from_micrometers(5.0);
        assert!((v.cubic_micrometers() - 5.0).abs() < 1e-9);
        let back = v / Length::from_micrometers(5.0);
        assert!((back.square_micrometers() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn side_of_square() {
        let a = Area::from_square_micrometers(625.0);
        assert!((a.side_of_square().micrometers() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn square_cm_conversion() {
        // 1 cm^2 chip is 1e-4 m^2.
        let a = Area::from_square_cm(1.0);
        assert!((a.square_meters() - 1e-4).abs() < 1e-18);
        assert!((a.square_millimeters() - 100.0).abs() < 1e-9);
    }
}
