//! Fig 6: receiver diversity.
//!
//! * Fig 6(a): the same 8-CSK symbols received by Nexus 5 vs iPhone 5S —
//!   measured `(a, b)` of each transmitted reference color on both devices.
//! * Fig 6(b): perceived color of a fixed symbol (pure blue) vs exposure
//!   time (ISO fixed).
//! * Fig 6(c): perceived color of the same symbol vs ISO (exposure fixed).
//!
//! Uses locked exposure controllers for the sweeps, mirroring how the paper
//! isolates each camera parameter.

use colorbars_bench::{devices, Reporter};
use colorbars_camera::{AutoExposure, CameraRig, CaptureConfig, DeviceProfile, ExposureSettings};
use colorbars_channel::OpticalChannel;
use colorbars_core::segmentation::{row_signal, segment, SegmentationConfig};
use colorbars_core::{CskOrder, LinkConfig, Transmitter};
use colorbars_led::{LedEmitter, ScheduledColor, TriLed};
use colorbars_obs::Value;

fn main() {
    colorbars_bench::flags(&[]);
    let mut reporter = Reporter::new("fig6_diversity");
    fig6a(&mut reporter);
    fig6bc(&mut reporter);
    reporter.finish();
}

/// Fig 6(a): measured (a, b) per 8-CSK reference color, both devices.
fn fig6a(reporter: &mut Reporter) {
    reporter.header(
        "Fig 6(a): same 8-CSK symbols as perceived by two cameras",
        &[
            "symbol",
            "Nexus 5 (a, b)",
            "iPhone 5S (a, b)",
            "ΔE between devices",
        ],
    );
    let mut per_device = Vec::new();
    for (_, device) in devices() {
        let cfg = LinkConfig::paper_default(CskOrder::Csk8, 3000.0, device.loss_ratio());
        let tx = Transmitter::new(cfg.clone()).unwrap();
        let data = vec![0x5Au8; tx.budget().k_bytes * 20];
        let tr = tx.transmit(&data);
        let emitter = tx.schedule(&tr);
        let mut rig = CameraRig::new(
            device.clone(),
            OpticalChannel::paper_setup(),
            CaptureConfig {
                seed: 21,
                ..CaptureConfig::default()
            },
        );
        rig.settle_exposure(&emitter, 12);
        let frames = rig.capture_video(&emitter, 0.002, 25);
        let mut rx = colorbars_core::Receiver::new(cfg, device.row_time()).unwrap();
        for f in &frames {
            rx.process_frame(f);
        }
        assert!(rx.store().calibrations() > 0, "{} calibrated", device.name);
        per_device.push((0..8).map(|i| rx.store().reference(i)).collect::<Vec<_>>());
    }
    for (i, ((na, nb), (ia, ib))) in per_device[0].iter().zip(&per_device[1]).enumerate() {
        let de = ((na - ia).powi(2) + (nb - ib).powi(2)).sqrt();
        reporter.add_value(Value::object([
            ("panel", Value::from("fig6a")),
            ("symbol", Value::from(i as i64)),
            ("nexus5_a", Value::from(*na)),
            ("nexus5_b", Value::from(*nb)),
            ("iphone5s_a", Value::from(*ia)),
            ("iphone5s_b", Value::from(*ib)),
            ("delta_e", Value::from(de)),
        ]));
        reporter.say(format!(
            "C{i}\t({na:.1}, {nb:.1})\t({ia:.1}, {ib:.1})\t{de:.1}"
        ));
    }
    reporter.say("(Paper: a noticeable difference in how the same color is perceived by");
    reporter.say("two different cameras, attributed to their color filters/ISP.)");
}

/// Fig 6(b)/(c): perceived (a, b) of a pure-blue symbol under exposure and
/// ISO sweeps on the Nexus 5.
fn fig6bc(reporter: &mut Reporter) {
    let device = DeviceProfile::nexus5();
    let led = TriLed::typical();
    // The paper's probe symbol: pure blue (the LED's blue primary).
    let drive = led
        .solve_constant_power(led.gamut().blue, 1.0)
        .expect("blue vertex drivable");
    let emitter = LedEmitter::new(
        led,
        200_000.0,
        &[ScheduledColor {
            drive,
            duration: 1.0,
        }],
    );

    let measure = |settings: ExposureSettings| -> (f64, f64, f64) {
        let mut rig = CameraRig::new(
            device.clone(),
            OpticalChannel::paper_setup(),
            CaptureConfig {
                seed: 5,
                ..CaptureConfig::default()
            },
        );
        rig.set_exposure_controller(AutoExposure::locked(settings));
        let frame = rig.capture_frame(&emitter, 0.2);
        let signal = row_signal(&frame);
        let cfg = SegmentationConfig::for_band_width(frame.height() as f64);
        let bands = segment(&signal, &cfg);
        let lab = bands[bands.len() / 2].feature;
        (lab.l, lab.a, lab.b)
    };

    reporter.header(
        "Fig 6(b): perceived color of pure blue vs exposure time (ISO 100)",
        &["exposure (µs)", "L", "a", "b"],
    );
    for exposure_us in [25.0, 50.0, 100.0, 200.0, 400.0, 800.0] {
        let (l, a, b) = measure(ExposureSettings {
            exposure: exposure_us * 1e-6,
            iso: 100.0,
        });
        reporter.add_value(Value::object([
            ("panel", Value::from("fig6b")),
            ("exposure_us", Value::from(exposure_us)),
            ("iso", Value::from(100.0)),
            ("l", Value::from(l)),
            ("a", Value::from(a)),
            ("b", Value::from(b)),
        ]));
        reporter.say(format!("{exposure_us:.0}\t{l:.1}\t{a:.1}\t{b:.1}"));
    }

    reporter.header(
        "Fig 6(c): perceived color of pure blue vs ISO (exposure 100 µs)",
        &["ISO", "L", "a", "b"],
    );
    for iso in [100.0, 200.0, 400.0, 800.0, 1600.0] {
        let (l, a, b) = measure(ExposureSettings {
            exposure: 100e-6,
            iso,
        });
        reporter.add_value(Value::object([
            ("panel", Value::from("fig6c")),
            ("exposure_us", Value::from(100.0)),
            ("iso", Value::from(iso)),
            ("l", Value::from(l)),
            ("a", Value::from(a)),
            ("b", Value::from(b)),
        ]));
        reporter.say(format!("{iso:.0}\t{l:.1}\t{a:.1}\t{b:.1}"));
    }
    reporter.say("(Paper: the same transmitted symbol is perceived differently as the");
    reporter.say("camera's exposure time and ISO vary — channel saturation desaturates");
    reporter.say("and hue-shifts the color, which periodic calibration must track.)");
}
