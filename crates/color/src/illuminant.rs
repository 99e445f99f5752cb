//! Standard illuminants used as ambient light sources and reference whites.
//!
//! The optical channel mixes the LED's signal with ambient light; the
//! ambient's chromaticity shifts every received symbol, which is exactly the
//! channel change the paper's periodic calibration packets (Section 6) are
//! designed to track.

use crate::chromaticity::Chromaticity;
use crate::xyz::Xyz;

/// A standard illuminant: a named white point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Illuminant {
    /// Equal-energy white (CIE illuminant E).
    E,
    /// Average daylight (CIE D65) — also the sRGB reference white.
    D65,
    /// Horizon daylight (CIE D50), warmer than D65.
    D50,
    /// Incandescent tungsten (CIE A), strongly orange.
    A,
    /// Cool-white fluorescent (CIE F2), typical office lighting.
    F2,
}

impl Illuminant {
    /// Chromaticity coordinates of the illuminant (CIE 1931 2° observer).
    pub fn chromaticity(self) -> Chromaticity {
        match self {
            Illuminant::E => Chromaticity::EQUAL_ENERGY,
            Illuminant::D65 => Chromaticity::new(0.3127, 0.3290),
            Illuminant::D50 => Chromaticity::new(0.3457, 0.3585),
            Illuminant::A => Chromaticity::new(0.4476, 0.4074),
            Illuminant::F2 => Chromaticity::new(0.3721, 0.3751),
        }
    }

    /// White point as XYZ with the given luminance.
    pub fn white_point(self, luminance: f64) -> Xyz {
        self.chromaticity().with_luminance(luminance)
    }

    /// All defined illuminants, for sweep experiments.
    pub const ALL: [Illuminant; 5] = [
        Illuminant::E,
        Illuminant::D65,
        Illuminant::D50,
        Illuminant::A,
        Illuminant::F2,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_illuminants_are_physical() {
        // Inside the unit simplex, where the spectral locus lies.
        for ill in Illuminant::ALL {
            let c = ill.chromaticity();
            assert!(c.x > 0.0 && c.y > 0.0 && c.x + c.y < 1.0, "{ill:?}");
        }
    }

    #[test]
    fn d65_matches_xyz_constant() {
        let w = Illuminant::D65.white_point(1.0);
        assert!(w.to_vec3().max_abs_diff(Xyz::D65_WHITE.to_vec3()) < 2e-3);
    }

    #[test]
    fn tungsten_is_warmer_than_daylight() {
        // Illuminant A sits toward red (larger x) relative to D65.
        assert!(Illuminant::A.chromaticity().x > Illuminant::D65.chromaticity().x);
    }

    #[test]
    fn white_point_luminance_is_respected() {
        let w = Illuminant::F2.white_point(0.42);
        assert!((w.y - 0.42).abs() < 1e-12);
    }
}
