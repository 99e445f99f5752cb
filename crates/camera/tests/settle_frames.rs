//! Auto-exposure settling meters preview frames without rendering them,
//! yet each one still counts as a frame: it advances the frame index that
//! keys the noise streams, and `camera.frames` counts it, so the counter
//! and the index agree.
//!
//! A test binary of its own: it turns the global obs switch on.

use colorbars_camera::{AutoExposure, CameraRig, CaptureConfig, DeviceProfile, ExposureSettings};
use colorbars_channel::OpticalChannel;
use colorbars_led::{DriveLevels, LedEmitter, ScheduledColor, TriLed};
use colorbars_obs as obs;

fn constant_emitter(drive: DriveLevels) -> LedEmitter {
    LedEmitter::new(
        TriLed::typical(),
        200_000.0,
        &[ScheduledColor {
            drive,
            duration: 1.0,
        }],
    )
}

#[test]
fn a_settle_of_n_steps_advances_the_frame_index_and_camera_frames_by_n() {
    // A locked controller never moves, so a settle whose readings sit in
    // the meter's informative range stops at its second step, and a dark
    // one runs all six.
    let lit = constant_emitter(DriveLevels::new(0.15, 0.15, 0.15));
    let dark = constant_emitter(DriveLevels::OFF);
    obs::init(obs::ObsConfig::default());
    for (emitter, steps) in [(&lit, 2), (&dark, 6)] {
        let mut rig = CameraRig::new(
            DeviceProfile::nexus5(),
            OpticalChannel::ideal(),
            CaptureConfig::default(),
        );
        rig.set_exposure_controller(AutoExposure::locked(ExposureSettings {
            exposure: 100e-6,
            iso: 100.0,
        }));
        obs::reset();
        rig.settle_exposure(emitter, 6);
        let frames = rig.capture_video(emitter, 0.5, 2);
        let counted = obs::snapshot()
            .counters
            .iter()
            .find(|c| c.id.name == "camera.frames")
            .map_or(0, |c| c.value);
        assert_eq!(frames[0].meta.index, steps);
        assert_eq!(frames[1].meta.index, steps + 1);
        assert_eq!(
            counted,
            steps as u64 + 2,
            "camera.frames after {steps} steps"
        );
    }
    obs::disable();
}
