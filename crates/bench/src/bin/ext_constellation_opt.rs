//! Extension (paper Section 10 future work): constellation design
//! optimized for the rolling-shutter receiver.
//!
//! The 802.15.7 constellation maximizes spacing in the CIE (x, y) plane,
//! but the receiver demodulates in CIELAB (a, b) *after* the camera
//! pipeline, which warps distances. This bench optimizes the 16- and
//! 32-CSK constellations under the receiver's ideal forward model and
//! prints, for each, the worst-pair (a, b) margin of the standard and the
//! optimized design under that same model, and the minimum separation of
//! the receiver's ideal reference table for the optimized design. It runs
//! no link: no SER is measured.

use colorbars_bench::Reporter;
use colorbars_core::calibration::ReferenceStore;
use colorbars_core::{Constellation, CskOrder, SymbolMapper};
use colorbars_led::TriLed;
use colorbars_obs::Value;

fn main() {
    colorbars_bench::flags(&[]);
    let mut reporter = Reporter::new("ext_constellation_opt");
    let led = TriLed::typical();
    let gamut = led.gamut();

    // Perceptual map: chromaticity → ideal receiver (a, b), built from the
    // same forward model that seeds the receiver's references.
    let perceptual = |c: colorbars_color::Chromaticity| -> (f64, f64) {
        // Emit the color at constant power and run it through the ideal
        // reference model via a single-point constellation.
        let lum = led.max_luminance_at(c).unwrap_or(0.01);
        let xyz = c.with_luminance(lum * 0.5);
        // Scale as the reference store does: white at 0.6 linear.
        let white_y = led.full_drive_white().y / 3.0; // constant-power white
        let scaled = xyz.scale(0.6 / white_y.max(1e-9) * (1.0 / xyz.y.max(1e-9)) * xyz.y);
        let srgb = colorbars_color::RgbSpace::srgb()
            .from_xyz(scaled)
            .compress_into_gamut();
        let clipped =
            colorbars_color::LinearRgb::new(srgb.r.min(1.0), srgb.g.min(1.0), srgb.b.min(1.0));
        let back = colorbars_color::RgbSpace::srgb().to_xyz(clipped);
        colorbars_color::Lab::from_xyz(back, colorbars_color::Xyz::D65_WHITE).ab()
    };

    reporter.header(
        "Extension: receiver-perceptual constellation optimization",
        &["order", "std min ΔE(a,b)", "optimized min ΔE(a,b)", "gain"],
    );
    for order in [CskOrder::Csk16, CskOrder::Csk32] {
        let standard = Constellation::ieee_style(order, gamut);
        let optimized = Constellation::perceptually_optimized(order, gamut, perceptual);
        let before = standard.min_perceptual_distance(perceptual);
        let after = optimized.min_perceptual_distance(perceptual);
        reporter.add_value(Value::object([
            ("order", Value::from(order.points() as i64)),
            ("std_min_delta_e", Value::from(before)),
            ("optimized_min_delta_e", Value::from(after)),
            ("gain_pct", Value::from((after / before - 1.0) * 100.0)),
        ]));
        reporter.say(format!(
            "{order}\t{before:.2}\t{after:.2}\t{:+.0}%",
            (after / before - 1.0) * 100.0
        ));
    }

    // Sanity: the optimized sets remain drivable and their ideal references
    // remain distinct for the receiver.
    for order in [CskOrder::Csk16, CskOrder::Csk32] {
        let optimized = Constellation::perceptually_optimized(order, gamut, perceptual);
        let mapper = SymbolMapper::new(led, optimized);
        let store = ReferenceStore::ideal(&mapper);
        let mut min_ref = f64::INFINITY;
        for i in 0..store.len() {
            for j in (i + 1)..store.len() {
                let (ai, bi) = store.reference(i);
                let (aj, bj) = store.reference(j);
                min_ref = min_ref.min(((ai - aj).powi(2) + (bi - bj).powi(2)).sqrt());
            }
        }
        reporter.say(format!(
            "{order}: optimized reference table min separation = {min_ref:.2} ΔE"
        ));
    }
    reporter.say("");
    reporter.say("(Optimizing spacing in the receiver's demodulation plane — rather than");
    reporter.say("the CIE xy plane the 802.15.7 tables use — widens the worst symbol");
    reporter.say("pair's margin, the quantity that bounds dense-constellation SER.)");
    reporter.finish();
}
