//! Ablation studies for the design choices DESIGN.md §4 calls out:
//!
//! 1. **Calibration** (Section 6): receiver on ideal-geometry references
//!    only (calibration rate 0) vs the full system.
//! 2. **Erasure decoding** (Section 5): gap losses presented to RS as
//!    unknown-location errors vs known-location erasures.
//! 3. **Frame-locked packet sizing** (Section 5's "natural choice"):
//!    packets deliberately mis-sized (+25% of a frame period) vs locked.
//!
//! Each ablation reports the metric the design choice protects.

use colorbars_bench::{mean_std, run_point, Reporter, SweepMode, RAW_SECONDS, SEEDS};
use colorbars_camera::{CaptureConfig, DeviceProfile};
use colorbars_channel::OpticalChannel;
use colorbars_core::{CskOrder, LinkConfig, LinkSimulator, Symbol};
use colorbars_obs::Value;

fn main() {
    colorbars_bench::flags(&[]);
    let mut reporter = Reporter::new("ablations");
    ablate_calibration(&mut reporter);
    ablate_erasures(&mut reporter);
    ablate_frame_lock(&mut reporter);
    reporter.finish();
}

/// The paper's link for `device` at `cfg`, capturing from a `seed`-derived
/// phase, as the paper grid's runs do.
fn simulator(cfg: LinkConfig, device: &DeviceProfile, seed: u64) -> Option<LinkSimulator> {
    let capture = CaptureConfig {
        seed,
        ..CaptureConfig::default()
    };
    LinkSimulator::new(cfg, device.clone(), OpticalChannel::paper_setup(), capture).ok()
}

/// SER with vs without transmitter-assisted calibration. The "with" arm
/// is Fig 9's cell, measured by the same [`run_point`].
fn ablate_calibration(reporter: &mut Reporter) {
    reporter.header(
        "Ablation 1: transmitter-assisted calibration (SER, Nexus 5, 3 kHz)",
        &["order", "with calibration", "without (ideal refs only)"],
    );
    let device = DeviceProfile::nexus5();
    for order in [CskOrder::Csk8, CskOrder::Csk16, CskOrder::Csk32] {
        let with = run_point(order, 3000.0, &device, RAW_SECONDS, SweepMode::Raw)
            .expect("Fig 9 measures every order at 3 kHz")
            .ser;
        let without = uncalibrated_ser(order, &device);
        reporter.add_value(Value::object([
            ("ablation", Value::from("calibration")),
            ("order", Value::from(order.points() as i64)),
            ("ser_with_calibration", Value::from(with)),
            ("ser_without_calibration", Value::from(without)),
        ]));
        reporter.say(format!("{order}\t{with:.4}\t{without:.4}"));
    }
    reporter.say("(Without calibration the receiver matches against ideal-geometry");
    reporter.say("references; the device's color distortion then lands many symbols");
    reporter.say("nearer a *wrong* reference — the paper's receiver-diversity problem.)");
}

/// Mean SER over [`SEEDS`] of Fig 9's raw run at 3 kHz with no
/// calibration packets. No band is ever calibrated, so every color band
/// is scored, not only those after the first calibration lock.
fn uncalibrated_ser(order: CskOrder, device: &DeviceProfile) -> f64 {
    let mut cfg = LinkConfig::paper_default(order, 3000.0, device.loss_ratio());
    cfg.calibration_rate = 0.0;
    let sers = SEEDS.iter().filter_map(|&seed| {
        let sim = simulator(cfg.clone(), device, seed)?;
        let run = sim.prepare_raw(RAW_SECONDS, seed ^ 0xABCD).ok()?;
        let bands = sim.decode(&run, sim.receiver_raw().ok()?).report.bands;
        // One entry per color band: whether it was misclassified.
        let errors: Vec<bool> = bands
            .iter()
            .filter_map(|band| {
                match run
                    .transmission
                    .symbol_at(band.timestamp, cfg.symbol_rate)?
                {
                    Symbol::Color(truth) => Some(band.color_idx != truth),
                    _ => None,
                }
            })
            .collect();
        let wrong = errors.iter().filter(|&&wrong| wrong).count();
        (!errors.is_empty()).then(|| wrong as f64 / errors.len() as f64)
    });
    mean_std(sers).0
}

/// Packet delivery with erasure decoding vs error-only decoding.
fn ablate_erasures(reporter: &mut Reporter) {
    reporter.header(
        "Ablation 2: known-location erasure decoding (packet delivery, Nexus 5, 3 kHz, 8CSK)",
        &["mode", "packets ok", "rs failures", "delivery"],
    );
    let device = DeviceProfile::nexus5();
    let cfg = LinkConfig::paper_default(CskOrder::Csk8, 3000.0, device.loss_ratio());
    let k_bytes = cfg
        .packet_budget()
        .expect("8-CSK 3 kHz is realizable")
        .k_bytes;
    let data: Vec<u8> = (0..k_bytes * 40).map(|i| (i * 17 + 3) as u8).collect();
    for (label, erasures) in [("erasures (paper)", true), ("errors only", false)] {
        let (mut ok, mut fail, mut deliveries) = (0usize, 0usize, Vec::new());
        for &seed in &SEEDS {
            let sim = simulator(cfg.clone(), &device, seed).expect("8-CSK 3 kHz is realizable");
            let run = sim.prepare_data(&data).expect("link runs");
            let mut rx = sim.receiver().expect("coded receiver");
            rx.set_erasures_enabled(erasures);
            let m = sim.decode(&run, rx);
            ok += m.report.stats.packets_ok;
            fail += m.report.stats.packets_rs_failed;
            deliveries.push(m.packet_delivery);
        }
        // Every seed sends the same packets, so the mean per-seed delivery
        // is the pooled one.
        let delivery = mean_std(deliveries).0;
        reporter.add_value(Value::object([
            ("ablation", Value::from("erasures")),
            ("mode", Value::from(label)),
            ("packets_ok", Value::from(ok as i64)),
            ("rs_failures", Value::from(fail as i64)),
            ("delivery", Value::from(delivery)),
        ]));
        reporter.say(format!("{label}\t{ok}\t{fail}\t{delivery:.2}"));
    }
    reporter.say("(Every packet loses a gap's worth of symbols; with their positions");
    reporter.say("known from the size header each costs one parity byte — as unknown");
    reporter.say("errors they cost two, overwhelming the budget.)");
}

/// Goodput with frame-locked vs mis-sized packets.
fn ablate_frame_lock(reporter: &mut Reporter) {
    reporter.header(
        "Ablation 3: frame-locked packet sizing (goodput bps, Nexus 5, 2 kHz, 8CSK)",
        &["packet sizing", "goodput (bps)"],
    );
    let device = DeviceProfile::nexus5();
    for (label, over) in [
        ("frame-locked (paper)", None),
        ("+25% of a frame", Some(84usize)),
    ] {
        let mut acc = 0.0;
        let mut n = 0;
        for &seed in &SEEDS {
            let mut cfg = LinkConfig::paper_default(CskOrder::Csk8, 2000.0, device.loss_ratio());
            cfg.packet_wire_override = over;
            let Some(sim) = simulator(cfg, &device, seed) else {
                continue;
            };
            if let Ok(m) = sim.run_random(2.0, seed ^ 0x1234) {
                acc += m.goodput_bps;
                n += 1;
            }
        }
        reporter.add_value(Value::object([
            ("ablation", Value::from("frame_lock")),
            ("sizing", Value::from(label)),
            ("goodput_bps", Value::from(acc / n.max(1) as f64)),
        ]));
        reporter.say(format!("{label}\t{:.0}", acc / n.max(1) as f64));
    }
    reporter.say("(Mis-sized packets drift through the inter-frame gap phase, so the");
    reporter.say("gap periodically lands on headers and on more than one packet at");
    reporter.say("once; the paper's one-frame-period sizing pins it to a fixed spot.)");
}
