//! The paper's RS-coded sweep, run once: Fig 11(a)/(b), and the headline
//! comparison of ColorBars against the FSK and OOK prior art.
//!
//! * **Fig 11** — goodput with Reed–Solomon error correction enabled,
//!   counting only correctly received or recovered data (here:
//!   verified-correct recovered chunks), Nexus 5 and iPhone 5S ×
//!   4/8/16/32-CSK × 1–4 kHz. Unlike raw throughput, higher-order CSK does
//!   not always win — at 32-CSK the symbol error rate starts to defeat the
//!   parity budget.
//! * **Baseline comparison** — the paper quotes the FSK baselines at
//!   11.32 bytes/s (\[1\], RollingLight) and 1.25 bytes/s (\[2\]) and
//!   reports ColorBars at kilobits per second. FSK and OOK are measured
//!   here on the same simulated Nexus 5; the ColorBars row is Fig 11's
//!   Nexus 5 16-CSK 4 kHz cell.

use colorbars_bench::{
    device_peaks, measure_paper_grid, print_grid_tables, Reporter, SweepMode, CODED_SECONDS,
};
use colorbars_camera::{CameraRig, CaptureConfig, DeviceProfile};
use colorbars_channel::OpticalChannel;
use colorbars_core::baseline::{decode_ook, FskModulator, OokModulator};
use colorbars_core::CskOrder;
use colorbars_led::TriLed;
use colorbars_obs::Value;
use rand::{Rng, SeedableRng};

fn main() {
    colorbars_bench::flags(&[]);
    let mut reporter = Reporter::new("coded_grid");
    let grid = measure_paper_grid(&mut reporter, CODED_SECONDS, SweepMode::Coded);
    print_grid_tables(
        &mut reporter,
        &grid,
        "Fig 11",
        "goodput (bps)",
        |m| m.goodput_bps,
        0,
    );
    reporter.say("");
    reporter.say("Paper: goodput peaks at 16-CSK, 4 kHz — ≈5.2 kbps on Nexus 5 and ≈2.5 kbps");
    reporter.say("on iPhone 5S; the iPhone's larger inter-frame loss ratio forces a lower-rate");
    reporter.say("RS code, bounding its goodput.");
    let peaks: Vec<String> = device_peaks(&grid, |m| m.goodput_bps)
        .into_iter()
        .map(|(point, m)| {
            format!(
                "{point} {:.0} ± {:.0} bps",
                m.goodput_bps, m.goodput_bps_std
            )
        })
        .collect();
    reporter.say(format!(
        "Measured: peaks (± seed std) {}.",
        peaks.join(", ")
    ));

    let device = DeviceProfile::nexus5();
    reporter.header(
        "Baseline comparison (Nexus 5): correct data received per second",
        &["scheme", "throughput", "notes"],
    );

    // --- FSK, the paper's [1]-class baseline: 3 bits per camera frame.
    let fsk = fsk_throughput(&device);
    reporter.add_value(Value::object([
        ("scheme", Value::from("fsk")),
        ("throughput_bps", Value::from(fsk)),
    ]));
    reporter.say(format!(
        "FSK (8 freqs, 1 sym/frame)\t{:.1} bps ({:.2} B/s)\tpaper cites [1] ≈ 11.32 B/s",
        fsk,
        fsk / 8.0
    ));

    // --- OOK at a conservative bit rate (long runs flicker; the paper's
    //     OOK citations run even slower for reliability).
    let ook = ook_throughput(&device);
    reporter.add_value(Value::object([
        ("scheme", Value::from("ook")),
        ("throughput_bps", Value::from(ook)),
    ]));
    reporter.say(format!(
        "OOK (300 bps slots)\t{:.1} bps ({:.2} B/s)\tambient-sensitive, flickers",
        ook,
        ook / 8.0
    ));

    // --- ColorBars at the paper's goodput peak: Fig 11's cell.
    let csk = grid
        .iter()
        .find(|(p, _)| {
            p.device.name == device.name && p.order == CskOrder::Csk16 && p.rate_hz == 4000.0
        })
        .and_then(|(_, m)| m.as_ref())
        .expect("Fig 11 measures the Nexus 5 16-CSK 4 kHz cell")
        .goodput_bps;
    reporter.say(format!(
        "ColorBars (16CSK @ 4 kHz)\t{csk:.0} bps ({:.0} B/s)\tRS-verified goodput (Fig 11 cell)",
        csk / 8.0
    ));
    reporter.say("");
    reporter.say("Paper: a CSK band carries log2(M) bits where an FSK symbol needs many bands —");
    reporter.say("two to three orders of magnitude in data rate.");
    reporter.say(format!(
        "Measured: ColorBars is {:.0}× FSK and {:.0}× OOK.",
        csk / fsk,
        csk / ook
    ));
    reporter.finish();
}

/// Measured FSK throughput: symbols decoded correctly per second × bits.
fn fsk_throughput(device: &DeviceProfile) -> f64 {
    let modem = FskModulator::paper_baseline(TriLed::typical());
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let symbols: Vec<usize> = (0..90).map(|_| rng.gen_range(0..8)).collect();
    let emitter = modem.schedule(&symbols);
    let mut rig = CameraRig::new(
        device.clone(),
        OpticalChannel::paper_setup(),
        CaptureConfig {
            seed: 21,
            ..CaptureConfig::default()
        },
    );
    rig.settle_exposure(&emitter, 10);
    let mut correct_bits = 0.0;
    for (i, &truth) in symbols.iter().enumerate() {
        let frame = rig.capture_frame(&emitter, i as f64 * modem.symbol_duration);
        if modem.decode_frame(&frame) == Some(truth) {
            correct_bits += modem.bits_per_symbol() as f64;
        }
    }
    correct_bits / (symbols.len() as f64 * modem.symbol_duration)
}

/// Measured OOK throughput: correctly decoded bits per second.
fn ook_throughput(device: &DeviceProfile) -> f64 {
    let modem = OokModulator::new(TriLed::typical(), 300.0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let bits: Vec<bool> = (0..600).map(|_| rng.gen()).collect();
    let emitter = modem.schedule(&bits);
    let mut rig = CameraRig::new(
        device.clone(),
        OpticalChannel::paper_setup(),
        CaptureConfig {
            seed: 21,
            ..CaptureConfig::default()
        },
    );
    rig.settle_exposure(&emitter, 10);
    let seconds = bits.len() as f64 / modem.bit_rate;
    let frames = rig.capture_video(&emitter, 0.0, (seconds * device.fps) as usize);
    let mut correct = 0usize;
    for f in &frames {
        for (idx, bit) in decode_ook(f, modem.bit_rate) {
            if bits.get(idx) == Some(&bit) {
                correct += 1;
            }
        }
    }
    correct as f64 / seconds
}
