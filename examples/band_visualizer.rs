//! Render captured frames as viewable images — the rolling-shutter color
//! bands of the paper's Fig 1(b) and Fig 3(c), straight from the simulated
//! camera.
//!
//! ```sh
//! cargo run --release --example band_visualizer
//! # then open colorbars_*.ppm in the system temporary directory ($TMPDIR,
//! # else /tmp on Unix) in any image viewer
//! ```
//!
//! Writes three PPM frames: 8-CSK at 1 kHz (wide bands), 8-CSK at 3 kHz
//! (narrow bands — the Fig 3(c) comparison), and a calibration-slot frame
//! where the reference color blocks are clearly visible.

use colorbars::camera::{CameraRig, CaptureConfig, DeviceProfile};
use colorbars::channel::OpticalChannel;
use colorbars::core::{CskOrder, LinkConfig, Transmitter};

fn main() -> std::io::Result<()> {
    let device = DeviceProfile::nexus5();
    for (label, rate, frame_idx) in [
        ("1khz", 1000.0, 3usize),
        ("3khz", 3000.0, 3),
        ("calibration_slot", 3000.0, 0),
    ] {
        let cfg = LinkConfig::paper_default(CskOrder::Csk8, rate, device.loss_ratio());
        let tx = Transmitter::new(cfg.clone()).expect("valid operating point");
        let data: Vec<u8> = (0..tx.budget().k_bytes * 20)
            .map(|i| (i * 97 + 13) as u8)
            .collect();
        let tr = tx.transmit(&data);
        let emitter = tx.schedule(&tr);

        let mut rig = CameraRig::new(
            device.clone(),
            OpticalChannel::paper_setup(),
            // A wider ROI makes a nicer image.
            CaptureConfig {
                roi_width: 96,
                ..CaptureConfig::default()
            },
        );
        rig.settle_exposure(&emitter, 12);
        let frames = rig.capture_video(&emitter, 0.0, frame_idx + 1);
        let frame = &frames[frame_idx];

        let path = std::env::temp_dir().join(format!("colorbars_{label}.ppm"));
        frame.save_ppm(&path)?;
        println!(
            "wrote {}  ({}x{}, exposure {:.0} µs, band width ≈ {:.0} px)",
            path.display(),
            frame.width(),
            frame.height(),
            frame.meta.exposure * 1e6,
            device.band_width_px(rate)
        );
    }
    println!("\nOpen the PPMs side by side: the 3 kHz frame's bands are a third the");
    println!("width of the 1 kHz frame's (paper Fig 3(c)); the calibration frame");
    println!("shows the owowowo flag and the chroma-ordered reference blocks.");
    Ok(())
}
