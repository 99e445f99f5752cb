//! Fig 3(c): width of the color bands in the captured frame at different
//! symbol rates (the paper shows 1000 vs 3000 sym/s), plus the paper's
//! empirical 10-pixel minimum-width rule.
//!
//! Two views: the analytic width `1/(S · row_time)` per device, and a
//! measured width from actual captured frames (mean detected band width),
//! which also exercises segmentation.

use colorbars_bench::{devices, Reporter};
use colorbars_camera::{CameraRig, CaptureConfig};
use colorbars_channel::OpticalChannel;
use colorbars_core::segmentation::{row_signal, segment, SegmentationConfig};
use colorbars_core::{CskOrder, LinkConfig, Transmitter};
use colorbars_obs::Value;

fn main() {
    colorbars_bench::flags(&[]);
    let mut reporter = Reporter::new("fig3c_bandwidth");
    reporter.header(
        "Fig 3(c): color band width vs symbol rate",
        &[
            "device",
            "rate (sym/s)",
            "analytic width (px)",
            "measured width (px)",
            ">= 10 px rule",
        ],
    );
    for (name, device) in devices() {
        for rate in [1000.0, 2000.0, 3000.0, 4000.0] {
            let analytic = device.band_width_px(rate);

            // Measure from an actual capture.
            let cfg = LinkConfig::paper_default(CskOrder::Csk8, rate, device.loss_ratio());
            let tx = Transmitter::new(cfg.clone()).unwrap();
            let data = vec![0xA7u8; tx.budget().k_bytes * 15];
            let tr = tx.transmit(&data);
            let emitter = tx.schedule(&tr);
            let mut rig = CameraRig::new(
                device.clone(),
                OpticalChannel::paper_setup(),
                CaptureConfig {
                    seed: 11,
                    ..CaptureConfig::default()
                },
            );
            rig.settle_exposure(&emitter, 12);
            let frame = rig.capture_frame(&emitter, 0.1);
            let signal = row_signal(&frame);
            let bands = segment(&signal, &SegmentationConfig::for_band_width(analytic));
            // Interior bands only: frame-edge bands are truncated.
            let widths: Vec<f64> = bands
                .iter()
                .skip(1)
                .take(bands.len().saturating_sub(2))
                .map(|b| b.width() as f64)
                .collect();
            let measured = widths.iter().sum::<f64>() / widths.len().max(1) as f64;

            reporter.add_value(Value::object([
                ("device", Value::from(name)),
                ("rate_hz", Value::from(rate)),
                ("analytic_width_px", Value::from(analytic)),
                ("measured_width_px", Value::from(measured)),
                ("meets_10px_rule", Value::Bool(analytic >= 10.0)),
            ]));
            reporter.say(format!(
                "{name}\t{rate:.0}\t{analytic:.1}\t{measured:.1}\t{}",
                if analytic >= 10.0 { "ok" } else { "VIOLATED" }
            ));
        }
    }
    reporter.say("");
    reporter.say("(Paper: bands at 3000 sym/s are a third the width of 1000 sym/s;");
    reporter.say("below ~10 px symbol detection becomes unreliable.)");
    reporter.finish();
}
