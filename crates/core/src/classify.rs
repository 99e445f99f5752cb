//! Band classification: CIELAB color matching (paper Section 7, Step 3).
//!
//! Each detected band's trimmed-mean Lab feature is matched against the
//! calibration references by Euclidean distance in the `(a, b)` plane,
//! after first checking for the two special symbols: OFF (lightness below
//! the adaptive threshold) and white (closest to the white reference).
//! The paper matches with the ΔE ≥ 2.3 noticeability threshold; for data
//! symbols nearest-reference always wins (RS absorbs residual errors), but
//! the white/color decision uses an explicit margin so illumination
//! symbols are never confused with desaturated data colors.

use crate::calibration::ReferenceStore;
use colorbars_color::Lab;

/// The receiver's verdict on one band.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    /// LED-off band (delimiter/flag component).
    Off,
    /// White illumination band.
    White,
    /// Data color band with constellation index (`u16` for the high-order
    /// extension, DESIGN.md §15).
    Color(u16),
}

impl Label {
    /// `true` for OFF.
    pub fn is_off(self) -> bool {
        matches!(self, Label::Off)
    }

    /// `true` for white.
    pub fn is_white(self) -> bool {
        matches!(self, Label::White)
    }
}

/// The nearest constellation color index for a feature, ignoring the White
/// and OFF classes entirely. Data-slot demodulation uses this (illumination
/// whites are removed by position, paper Section 7 Step 2), so near-white
/// constellation points remain demodulable.
pub fn nearest_color(feature: Lab, store: &ReferenceStore) -> u16 {
    let (fa, fb) = feature.ab();
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for i in 0..store.len() {
        let (a, b) = store.reference(i);
        let d = (fa - a).powi(2) + (fb - b).powi(2);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best as u16
}

/// Classify one band feature against the current references.
pub fn classify(feature: Lab, store: &ReferenceStore) -> Label {
    // OFF: dark *and* near the ambient tint. Lightness alone is not enough
    // — dim saturated data colors can be as dark as an ambient-lit OFF
    // band, but nowhere near it in the (a, b) plane.
    if store.is_off(feature) {
        return Label::Off;
    }
    let (fa, fb) = feature.ab();
    let dist = |(a, b): (f64, f64)| ((fa - a).powi(2) + (fb - b).powi(2)).sqrt();

    let white_d = dist(store.white());
    let mut best_idx = 0usize;
    let mut best_d = f64::INFINITY;
    for i in 0..store.len() {
        let d = dist(store.reference(i));
        if d < best_d {
            best_d = d;
            best_idx = i;
        }
    }
    // White wins only when it is strictly the better explanation; ties go
    // to data (a misread white costs one RS correction, a misread data
    // symbol in the white slot costs nothing — it is stripped anyway).
    if white_d < best_d {
        Label::White
    } else {
        Label::Color(best_idx as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::ReferenceStore;
    use crate::constellation::{Constellation, CskOrder};
    use crate::symbol::SymbolMapper;
    use colorbars_led::TriLed;

    fn setup(order: CskOrder) -> (ReferenceStore, SymbolMapper) {
        let led = TriLed::typical();
        let cons = Constellation::ieee_style(order, led.gamut());
        let mapper = SymbolMapper::new(led, cons);
        (ReferenceStore::ideal(&mapper), mapper)
    }

    #[test]
    fn exact_references_classify_to_themselves() {
        let (store, _) = setup(CskOrder::Csk16);
        for i in 0..16 {
            let (a, b) = store.reference(i);
            let label = classify(Lab::new(50.0, a, b), &store);
            assert_eq!(label, Label::Color(i as u16), "ref {i}");
        }
    }

    #[test]
    fn white_feature_classifies_white() {
        let (store, _) = setup(CskOrder::Csk8);
        let (a, b) = store.white();
        assert_eq!(classify(Lab::new(80.0, a, b), &store), Label::White);
    }

    #[test]
    fn dark_feature_classifies_off() {
        let (store, _) = setup(CskOrder::Csk8);
        assert_eq!(classify(Lab::new(0.2, 0.0, 0.0), &store), Label::Off);
        // A dark but saturated band is a dim data color, NOT the dark
        // symbol — the chroma guard must keep it out of OFF.
        assert_ne!(classify(Lab::new(0.2, 25.0, -30.0), &store), Label::Off);
    }

    #[test]
    fn perturbed_features_still_classify_correctly() {
        // Noise far below the inter-symbol distance must not flip labels.
        let (store, _) = setup(CskOrder::Csk8);
        for i in 0..8 {
            let (a, b) = store.reference(i);
            let label = classify(Lab::new(45.0, a + 1.0, b - 1.0), &store);
            assert_eq!(label, Label::Color(i as u16), "ref {i} with ±1 noise");
        }
    }

    #[test]
    fn midpoint_between_two_colors_picks_nearest() {
        let (store, _) = setup(CskOrder::Csk4);
        let (a0, b0) = store.reference(0);
        let (a1, b1) = store.reference(1);
        // 85/15 mix toward ref 0: decisively nearer ref 0 than either ref 1
        // or the white point sitting between them.
        let f = Lab::new(50.0, 0.85 * a0 + 0.15 * a1, 0.85 * b0 + 0.15 * b1);
        assert_eq!(classify(f, &store), Label::Color(0));
    }

    #[test]
    fn label_predicates() {
        assert!(Label::Off.is_off());
        assert!(Label::White.is_white());
        assert!(!Label::Color(3).is_white());
    }
}
