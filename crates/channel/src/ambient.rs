//! Ambient (background) illumination at the sensor.
//!
//! Every pixel receives the LED's signal *plus* whatever the room
//! contributes. Ambient light desaturates received color symbols (shifts
//! their chromaticity toward the ambient white point), and a change in
//! ambient — lights switched, daylight fading — is the channel drift the
//! paper's periodic calibration packets exist to absorb.

use colorbars_color::{Illuminant, Xyz};

/// A constant ambient light source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmbientLight {
    irradiance: Xyz,
}

impl AmbientLight {
    /// No ambient light (dark room / ideal tests).
    pub fn none() -> AmbientLight {
        AmbientLight {
            irradiance: Xyz::BLACK,
        }
    }

    /// Ambient from a standard illuminant at a relative level, where level
    /// `1.0` is comparable to the LED's own full-drive luminance at the
    /// reference distance.
    pub fn from_illuminant(ill: Illuminant, level: f64) -> AmbientLight {
        assert!(
            level.is_finite() && level >= 0.0,
            "ambient level must be ≥ 0"
        );
        AmbientLight {
            irradiance: ill.white_point(level),
        }
    }

    /// Dim indoor ambient: a little D65 spill, ~4% of the signal level.
    /// Matches the paper's close-range setup where the LED dominates.
    pub fn dim_indoor() -> AmbientLight {
        AmbientLight::from_illuminant(Illuminant::D65, 0.04)
    }

    /// The constant irradiance this ambient contributes to every exposure.
    pub fn irradiance(&self) -> Xyz {
        self.irradiance
    }

    /// `true` if this ambient contributes no light.
    pub fn is_dark(&self) -> bool {
        self.irradiance.y <= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_dark() {
        assert!(AmbientLight::none().is_dark());
        assert_eq!(AmbientLight::none().irradiance(), Xyz::BLACK);
    }

    #[test]
    fn dim_indoor_is_lit_but_faint() {
        let dim = AmbientLight::dim_indoor();
        let full = AmbientLight::from_illuminant(Illuminant::D65, 1.0);
        assert!(!dim.is_dark());
        assert!(full.irradiance().y > dim.irradiance().y);
    }

    #[test]
    fn illuminant_chromaticity_is_preserved() {
        let a = AmbientLight::from_illuminant(Illuminant::A, 0.5);
        let c = a.irradiance().chromaticity();
        let expect = Illuminant::A.chromaticity();
        assert!((c.x - expect.x).abs() < 1e-9 && (c.y - expect.y).abs() < 1e-9);
        assert!((a.irradiance().y - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "ambient level must be")]
    fn negative_level_panics() {
        let _ = AmbientLight::from_illuminant(Illuminant::D65, -0.1);
    }
}
