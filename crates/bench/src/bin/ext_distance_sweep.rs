//! Extension (paper Section 10 future work): tri-LED arrays for longer
//! working distance.
//!
//! The prototype's single low-lumen LED forces the phone within ~3 cm. An
//! N-element array multiplies flux by N, which against inverse-square path
//! loss buys √N× distance. This bench sweeps the receiver distance for a
//! single LED and a 4- and 9-element array and reports goodput, showing the
//! working-range extension end to end (auto-exposure included).

use colorbars_bench::{mean_std, Reporter};
use colorbars_camera::{CaptureConfig, DeviceProfile};
use colorbars_channel::{AmbientLight, BlurKernel, OpticalChannel, PathLoss};
use colorbars_core::{CskOrder, LinkConfig, LinkSimulator};
use colorbars_led::TriLedArray;
use colorbars_obs::Value;

fn main() {
    let mut reporter = Reporter::new("ext_distance_sweep");
    let device = DeviceProfile::nexus5();
    let distances_cm = [3.0, 4.0, 5.0, 6.0, 8.0, 10.0];
    let arrays = [1usize, 4, 9];

    reporter.header(
        "Extension: goodput (bps) vs distance for tri-LED arrays (Nexus 5, 8CSK, 3 kHz)",
        &["distance (cm)", "1 LED", "4-LED array", "9-LED array"],
    );
    // The farthest distance at which each array still delivers.
    let mut reach = arrays.map(|_| 0.0);
    for &d_cm in &distances_cm {
        let mut row = vec![format!("{d_cm:.0}")];
        for (i, &n) in arrays.iter().enumerate() {
            let goodput = goodput_at(&device, d_cm / 100.0, n);
            reporter.add_value(Value::object([
                ("distance_cm", Value::from(d_cm)),
                ("array_elements", Value::from(n as i64)),
                ("goodput_bps", Value::from(goodput)),
            ]));
            row.push(format!("{goodput:.0}"));
            if goodput > 0.0 {
                reach[i] = d_cm;
            }
        }
        reporter.say(row.join("\t"));
    }
    reporter.say("");
    reporter.say("Paper (future work): an N-element array buys √N× working distance.");
    reporter.say(format!(
        "Measured: the link still delivers at {} / {} / {} cm with 1 / 4 / 9 LEDs \
         (sweep ends at {} cm).",
        reach[0],
        reach[1],
        reach[2],
        distances_cm[distances_cm.len() - 1]
    ));
    reporter.finish();
}

/// Mean goodput over three seeds of a coded 8-CSK 3 kHz link from an
/// `elements`-LED array at `distance_m`.
fn goodput_at(device: &DeviceProfile, distance_m: f64, elements: usize) -> f64 {
    let array = TriLedArray::new(colorbars_led::TriLed::typical(), elements);
    let mut cfg = LinkConfig::paper_default(CskOrder::Csk8, 3000.0, device.loss_ratio());
    cfg.led = array.as_equivalent_led();
    let Ok(budget) = cfg.packet_budget() else {
        return 0.0;
    };
    let data: Vec<u8> = (0..budget.k_bytes * 40)
        .map(|i| (i * 29 + 11) as u8)
        .collect();
    let channel = OpticalChannel::new(
        PathLoss::new(0.03, distance_m),
        AmbientLight::dim_indoor(),
        BlurKernel::gaussian(3.0, 10),
    );
    let goodputs = [7u64, 21, 63].into_iter().filter_map(|seed| {
        let capture = CaptureConfig {
            seed,
            ..CaptureConfig::default()
        };
        let sim = LinkSimulator::new(cfg.clone(), device.clone(), channel.clone(), capture).ok()?;
        Some(sim.run_data(&data).ok()?.goodput_bps)
    });
    mean_std(goodputs).0
}
