//! Fig 8(b): per-position color variance in RGB vs CIELAB color space.
//!
//! The paper's point (Section 7 Step 1): brightness is non-uniform across
//! the frame (vignetting, Fig 8(a)), so raw RGB values of pixels inside one
//! color band vary considerably; converting to CIELAB and dropping the
//! lightness channel removes most of that variation. The harness captures a
//! frame of a single color band under strong vignetting and reports, per
//! scanline position, the variance of pixel colors around the scanline mean
//! in both spaces — the paper's Fig 8(b) series.

use colorbars_bench::Reporter;
use colorbars_camera::{CameraRig, CaptureConfig, DeviceProfile, Vignette};
use colorbars_channel::OpticalChannel;
use colorbars_color::{Lab, RgbSpace, Srgb, Xyz};
use colorbars_led::{LedEmitter, ScheduledColor, TriLed};
use colorbars_obs::Value;

fn main() {
    colorbars_bench::flags(&[]);
    let mut reporter = Reporter::new("fig8b_lab_variance");
    let device = DeviceProfile::nexus5();
    let led = TriLed::typical();
    // A single saturated color filling the frame, as in the paper's example.
    let target = led.gamut().centroid().lerp(led.gamut().green, 0.6);
    let drive = led
        .solve_constant_power(target, 1.0)
        .expect("in-gamut color");
    let emitter = LedEmitter::new(
        led,
        200_000.0,
        &[ScheduledColor {
            drive,
            duration: 1.0,
        }],
    );

    let mut rig = CameraRig::new(
        device.clone(),
        OpticalChannel::paper_setup(),
        CaptureConfig {
            roi_width: 48,
            vignette: Vignette::new(0.5),
            seed: 13,
            ..Default::default()
        },
    );
    rig.settle_exposure(&emitter, 15);
    let frame = rig.capture_frame(&emitter, 0.3);

    let srgb_space = RgbSpace::srgb();
    reporter.header(
        "Fig 8(b): color variance at each scanline, RGB vs CIELAB (a, b)",
        &["row", "RGB variance", "CIELab (a,b) variance"],
    );
    let mut rgb_total = 0.0;
    let mut lab_total = 0.0;
    let rows = frame.height();
    let step = rows / 24; // print a manageable series
    for r in (0..rows).step_by(step.max(1)) {
        // Per-pixel colors in both spaces.
        let pixels: Vec<([f64; 3], (f64, f64))> = frame
            .row(r)
            .iter()
            .map(|&px| {
                let srgb = Srgb::from_bytes(px);
                let lin = srgb.decode();
                let lab = Lab::from_xyz(srgb_space.to_xyz(lin), Xyz::D65_WHITE);
                ([srgb.r * 255.0, srgb.g * 255.0, srgb.b * 255.0], lab.ab())
            })
            .collect();
        let n = pixels.len() as f64;
        let rgb_mean = [
            pixels.iter().map(|p| p.0[0]).sum::<f64>() / n,
            pixels.iter().map(|p| p.0[1]).sum::<f64>() / n,
            pixels.iter().map(|p| p.0[2]).sum::<f64>() / n,
        ];
        let ab_mean = (
            pixels.iter().map(|p| p.1 .0).sum::<f64>() / n,
            pixels.iter().map(|p| p.1 .1).sum::<f64>() / n,
        );
        // Variance of euclidean distance from each pixel to the mean color,
        // as the paper computes it.
        let rgb_var = pixels
            .iter()
            .map(|p| {
                (p.0[0] - rgb_mean[0]).powi(2)
                    + (p.0[1] - rgb_mean[1]).powi(2)
                    + (p.0[2] - rgb_mean[2]).powi(2)
            })
            .sum::<f64>()
            / n;
        let lab_var = pixels
            .iter()
            .map(|p| (p.1 .0 - ab_mean.0).powi(2) + (p.1 .1 - ab_mean.1).powi(2))
            .sum::<f64>()
            / n;
        reporter.add_value(Value::object([
            ("row", Value::from(r as i64)),
            ("rgb_variance", Value::from(rgb_var)),
            ("lab_ab_variance", Value::from(lab_var)),
        ]));
        reporter.say(format!("{r}\t{rgb_var:.2}\t{lab_var:.2}"));
        rgb_total += rgb_var;
        lab_total += lab_var;
    }
    reporter.say("");
    reporter.say(format!(
        "mean variance: RGB = {:.2}, CIELab (a,b) = {:.2} (ratio {:.1}×)",
        rgb_total / 24.0,
        lab_total / 24.0,
        rgb_total / lab_total.max(1e-9)
    ));
    reporter.say("(Paper: CIELab shows much smaller variance because dropping the");
    reporter.say("lightness dimension removes most of the vignetting brightness effect.)");
    reporter.finish();
}
