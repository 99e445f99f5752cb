//! Golden digests of captured frame bytes.
//!
//! The rig's other tests compare captures of one build with each other
//! (across seeds and entry points), and the obs-diff gates compare
//! SER/goodput bands and counters — neither pins what a capture stores.
//! These digests do: each case settles auto-exposure, captures a short
//! video and hashes every stored byte with FNV-1a. A change to the capture
//! loop that moves a single byte (noise draw order, float evaluation order,
//! blur, demosaic, gamma, 4:2:0) fails here. So does a change to the
//! settle's preview meter that moves its reading: every scene here ends its
//! settle above the shutter floor, where the exposure follows the exact
//! metered luma.

use colorbars_camera::{CameraRig, CaptureConfig, DeviceProfile, Frame};
use colorbars_channel::OpticalChannel;
use colorbars_led::{DriveLevels, LedEmitter, ScheduledColor, TriLed};

/// FNV-1a (64-bit) over every stored byte of every frame, row-major.
/// Also checks the frames are exposed in the meter's informative range, so
/// a digest never pins a black or clipped image.
fn digest(frames: &[Frame]) -> u64 {
    for frame in frames {
        let luma = frame.mean_luma();
        assert!((0.1..=0.9).contains(&luma), "frame luma {luma}");
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for frame in frames {
        for row in frame.rows() {
            for &byte in row.iter().flatten() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// A 3 kHz symbol stream over an 8-color palette, long enough to cover
/// exposure settling plus the captured video.
fn symbol_emitter() -> LedEmitter {
    const PALETTE: [(f64, f64, f64); 8] = [
        (0.30, 0.02, 0.02),
        (0.02, 0.30, 0.02),
        (0.02, 0.02, 0.30),
        (0.20, 0.20, 0.02),
        (0.02, 0.20, 0.20),
        (0.20, 0.02, 0.20),
        (0.12, 0.12, 0.12),
        (0.25, 0.10, 0.05),
    ];
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let schedule: Vec<ScheduledColor> = (0..1800)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let (r, g, b) = PALETTE[(state >> 61) as usize];
            ScheduledColor {
                drive: DriveLevels::new(r, g, b),
                duration: 1.0 / 3000.0,
            }
        })
        .collect();
    LedEmitter::new(TriLed::typical(), 200_000.0, &schedule)
}

fn config(chroma_subsample: bool) -> CaptureConfig {
    CaptureConfig {
        roi_width: 24,
        seed: 0x601D,
        chroma_subsample,
        ..Default::default()
    }
}

/// Settle auto-exposure on one emitter, then capture three video frames.
fn single_emitter(device: &DeviceProfile, chroma_subsample: bool) -> u64 {
    let emitter = symbol_emitter();
    let mut rig = CameraRig::new(
        device.clone(),
        OpticalChannel::paper_setup(),
        config(chroma_subsample),
    );
    rig.settle_exposure(&emitter, 12);
    digest(&rig.capture_video(&emitter, 0.002, 3))
}

#[test]
fn nexus5_single_emitter_bytes_are_pinned() {
    let device = DeviceProfile::nexus5();
    for (chroma, want) in [
        (false, 0xe2df_5b5d_394d_feb5),
        (true, 0xc7db_69c2_266e_5e56),
    ] {
        let got = single_emitter(&device, chroma);
        assert_eq!(got, want, "Nexus 5, 4:2:0 {chroma}: digest {got:#018x}");
    }
}

#[test]
fn iphone5s_single_emitter_bytes_are_pinned() {
    let device = DeviceProfile::iphone5s();
    for (chroma, want) in [
        (false, 0x8e8f_45a8_2274_cdc9),
        (true, 0x1313_e8ee_ead5_7144),
    ] {
        let got = single_emitter(&device, chroma);
        assert_eq!(got, want, "iPhone 5S, 4:2:0 {chroma}: digest {got:#018x}");
    }
}
