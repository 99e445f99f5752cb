//! Golden digests of captured frame bytes.
//!
//! The rig's other tests compare captures of one build with each other
//! (across seeds and entry points), and the obs-diff gates compare
//! SER/goodput bands and counters — neither pins what a capture stores.
//! These digests do: each case settles auto-exposure, captures a short
//! video and hashes every stored byte with FNV-1a. A change to the capture
//! loop that moves a single byte (noise draw order, float evaluation order,
//! blur, demosaic, gamma, 4:2:0) fails here.

use colorbars_camera::{CameraRig, CaptureConfig, DeviceProfile, Frame, SceneRadiance};
use colorbars_channel::{AmbientLight, BlurKernel, OpticalChannel, PathLoss};
use colorbars_color::Xyz;
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
/// exposure settling plus the captured video. `offset` shifts the palette
/// walk so two emitters carry different streams.
fn symbol_emitter(offset: u64) -> LedEmitter {
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
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ offset;
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

fn config(chroma_subsample: bool, roi_width: usize) -> CaptureConfig {
    CaptureConfig {
        roi_width,
        seed: 0x601D,
        chroma_subsample,
        ..Default::default()
    }
}

/// Settle auto-exposure on one emitter, then capture three video frames.
fn single_emitter(device: &DeviceProfile, chroma_subsample: bool) -> u64 {
    let emitter = symbol_emitter(0);
    let mut rig = CameraRig::new(
        device.clone(),
        OpticalChannel::paper_setup(),
        config(chroma_subsample, 24),
    );
    rig.settle_exposure(&emitter, 12);
    digest(&rig.capture_video(&emitter, 0.002, 3))
}

#[test]
fn nexus5_single_emitter_bytes_are_pinned() {
    let device = DeviceProfile::nexus5();
    for (chroma, want) in [
        (false, 0xf13a_ba62_81fa_8da4),
        (true, 0x7ad4_6ffe_92b9_836d),
    ] {
        let got = single_emitter(&device, chroma);
        assert_eq!(got, want, "Nexus 5, 4:2:0 {chroma}: digest {got:#018x}");
    }
}

#[test]
fn iphone5s_single_emitter_bytes_are_pinned() {
    let device = DeviceProfile::iphone5s();
    for (chroma, want) in [
        (false, 0x6870_0366_b89b_6cea),
        (true, 0x82ab_936a_2df7_46db),
    ] {
        let got = single_emitter(&device, chroma);
        assert_eq!(got, want, "iPhone 5S, 4:2:0 {chroma}: digest {got:#018x}");
    }
}

/// Two transmitters behind different channels plus an ambient-only
/// background, interleaved across the ROI in runs of five columns — every
/// region owns several non-adjacent runs, runs straddle Bayer parity, and
/// the 67-column ROI crosses a noise-lane chunk boundary mid-run.
struct ThreeRegionScene {
    emitters: [LedEmitter; 2],
    channels: [OpticalChannel; 2],
    background: Xyz,
    background_blur: BlurKernel,
}

impl ThreeRegionScene {
    fn new() -> ThreeRegionScene {
        ThreeRegionScene {
            emitters: [symbol_emitter(0), symbol_emitter(0x5EED)],
            channels: [
                OpticalChannel::paper_setup(),
                OpticalChannel::new(
                    PathLoss::new(0.03, 0.04),
                    AmbientLight::dim_indoor(),
                    BlurKernel::gaussian(1.5, 5),
                ),
            ],
            background: AmbientLight::dim_indoor().irradiance(),
            background_blur: BlurKernel::identity(),
        }
    }
}

impl SceneRadiance for ThreeRegionScene {
    fn region_count(&self) -> usize {
        3
    }

    fn region_of_column(&self, col: usize, _width: usize) -> usize {
        (col / 5) % 3
    }

    fn region_mean(&self, region: usize, t0: f64, t1: f64) -> Xyz {
        match region {
            0 | 1 => self.channels[region].received_mean(&self.emitters[region], t0, t1),
            _ => self.background,
        }
    }

    fn region_blur(&self, region: usize) -> &BlurKernel {
        match region {
            0 | 1 => self.channels[region].blur(),
            _ => &self.background_blur,
        }
    }
}

#[test]
fn three_region_scene_bytes_are_pinned() {
    let scene = ThreeRegionScene::new();
    for (chroma, want) in [
        (false, 0xae9c_448a_4065_8de5),
        (true, 0xf62a_bff5_d765_ed38),
    ] {
        let mut rig = CameraRig::new(
            DeviceProfile::iphone5s(),
            OpticalChannel::paper_setup(),
            config(chroma, 67),
        );
        rig.settle_exposure_scene(&scene, 12);
        let got = digest(&rig.capture_video_scene(&scene, 0.002, 2));
        assert_eq!(
            got, want,
            "three-region scene, 4:2:0 {chroma}: digest {got:#018x}"
        );
    }
}
