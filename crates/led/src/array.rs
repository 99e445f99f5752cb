//! Tri-LED arrays — the paper's stated future work (Section 10): "utilize
//! an array of tri-LEDs to provide high lumens and enable communication
//! from farther distances."
//!
//! An array gangs N identical tri-LEDs driven by the same PWM signals: the
//! emitted chromaticity is unchanged while the luminous flux scales by N.
//! Against inverse-square path loss, an N-element array extends the
//! distance at which the receiver sees a given irradiance by √N — the
//! quantitative version of the paper's claim, exercised end-to-end by the
//! `ext_distance_sweep` bench.

use crate::tri_led::TriLed;
use colorbars_color::Xyz;

/// An array of `count` identical tri-LEDs driven in lockstep.
///
/// Modeled as a single [`TriLed`] with per-die flux multiplied by the
/// element count — valid as long as the array's extent is small relative to
/// the link distance (the elements superpose onto the same image region).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TriLedArray {
    element: TriLed,
    count: usize,
}

impl TriLedArray {
    /// Gang `count` copies of `element`.
    ///
    /// # Panics
    /// Panics for a zero-element array.
    pub fn new(element: TriLed, count: usize) -> TriLedArray {
        assert!(count >= 1, "array needs at least one element");
        TriLedArray { element, count }
    }

    /// Number of elements.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The single element's model.
    pub fn element(&self) -> &TriLed {
        self.element_ref()
    }

    fn element_ref(&self) -> &TriLed {
        &self.element
    }

    /// The array as an equivalent single [`TriLed`] with scaled flux —
    /// drop-in for every API that takes a `TriLed`.
    pub fn as_equivalent_led(&self) -> TriLed {
        let g = self.element.gamut();
        let scale = self.count as f64;
        // Rebuild with per-die peak luminance multiplied by the count.
        let r = self
            .element
            .emit(crate::tri_led::DriveLevels::new(1.0, 0.0, 0.0))
            .y;
        let gl = self
            .element
            .emit(crate::tri_led::DriveLevels::new(0.0, 1.0, 0.0))
            .y;
        let b = self
            .element
            .emit(crate::tri_led::DriveLevels::new(0.0, 0.0, 1.0))
            .y;
        TriLed::new(g.red, g.green, g.blue, [r * scale, gl * scale, b * scale])
            .expect("scaling flux preserves well-formedness")
    }

    /// Total white-point output of the array at full drive.
    pub fn full_drive_white(&self) -> Xyz {
        self.element.full_drive_white().scale(self.count as f64)
    }

    /// The array's gamut (same as the element's: chromaticity is unchanged).
    pub fn gamut(&self) -> colorbars_color::GamutTriangle {
        self.element.gamut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tri_led::DriveLevels;

    #[test]
    fn flux_scales_with_count_chromaticity_does_not() {
        let single = TriLed::typical();
        let array = TriLedArray::new(single, 4);
        let eq = array.as_equivalent_led();
        let d = DriveLevels::new(0.4, 0.7, 0.2);
        let one = single.emit(d);
        let four = eq.emit(d);
        assert!((four.y / one.y - 4.0).abs() < 1e-9, "4× flux");
        let c1 = one.chromaticity();
        let c4 = four.chromaticity();
        assert!(c1.distance(c4) < 1e-12, "chromaticity unchanged");
    }

    #[test]
    fn equivalent_led_solves_same_chromaticities() {
        let single = TriLed::typical();
        let eq = TriLedArray::new(single, 4).as_equivalent_led();
        let target = single.gamut().centroid();
        let d1 = single.solve_constant_power(target, 1.0).unwrap();
        let d4 = eq.solve_constant_power(target, 1.0).unwrap();
        // Same duty cycles (the solve is scale-invariant)…
        assert!((d1.r - d4.r).abs() < 1e-9);
        assert!((d1.g - d4.g).abs() < 1e-9);
        // …but 4× the light.
        assert!((eq.emit(d4).y / single.emit(d1).y - 4.0).abs() < 1e-9);
    }

    #[test]
    fn single_element_array_is_identity() {
        let single = TriLed::typical();
        let eq = TriLedArray::new(single, 1).as_equivalent_led();
        let d = DriveLevels::new(0.3, 0.3, 0.3);
        assert!(eq.emit(d).to_vec3().max_abs_diff(single.emit(d).to_vec3()) < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one element")]
    fn zero_elements_panics() {
        let _ = TriLedArray::new(TriLed::typical(), 0);
    }
}
