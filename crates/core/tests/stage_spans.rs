//! `Receiver::process_frame` splits each frame's time over nested stage
//! spans, so a trace shows where a frame's decode went, and each span's
//! timings land in the global registry's histogram of that name.
//!
//! A test binary of its own: it turns the global obs switch on, which must
//! not leak into tests that decode frames on other threads.

use colorbars_camera::{CaptureConfig, DeviceProfile, Vignette};
use colorbars_channel::OpticalChannel;
use colorbars_core::{CskOrder, LinkConfig, LinkSimulator};
use colorbars_obs as obs;

#[test]
fn process_frame_records_one_nested_span_per_stage() {
    let mut device = DeviceProfile::ideal();
    device.rows = 512;
    let capture = CaptureConfig {
        roi_width: 8,
        vignette: Vignette::none(),
        seed: 7,
        threads: 1,
        ..Default::default()
    };
    let config = LinkConfig::paper_default(CskOrder::Csk8, 1000.0, device.loss_ratio());
    let sim = LinkSimulator::new(config, device, OpticalChannel::ideal(), capture).unwrap();
    let data: Vec<u8> = (0..64u8).collect();
    let run = sim.prepare_data(&data).unwrap();
    let mut rx = sim.receiver().unwrap();

    obs::init(obs::ObsConfig::default());
    obs::reset();
    for frame in &run.frames {
        rx.process_frame(frame);
    }
    let histograms = obs::live::global().snapshot().histograms;
    obs::disable();

    let span = |name: &str| {
        histograms
            .iter()
            .find(|h| h.id.name == name && h.id.labels.is_empty())
            .unwrap_or_else(|| panic!("no {name} histogram in {histograms:?}"))
    };
    let frame = span("rx.process_frame");
    assert_eq!(frame.count, run.frames.len() as u64);
    let mut stages_ms = 0.0;
    for stage in ["rx.row_signal", "rx.segment", "rx.classify", "rx.depacket"] {
        assert_eq!(span(stage).count, frame.count, "{stage}");
        stages_ms += span(stage).sum_ms;
    }
    assert!(
        stages_ms <= frame.sum_ms,
        "stages ({stages_ms} ms) must nest inside process_frame ({} ms)",
        frame.sum_ms
    );
}
