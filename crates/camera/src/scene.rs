//! Spatial scenes: what the sensor sees when the frame is *not* filled by
//! one uniform emitter.
//!
//! The classic ColorBars setup points the camera at a single tri-LED that
//! fills the ROI, so every column of a scanline integrates the same light
//! and the capture loop samples irradiance once per row. A *scene*
//! generalizes this to a column-partitioned image plane: each contiguous
//! span of columns (a **region**) carries its own time-varying radiance —
//! one LED transmitter per span, dark guard gaps between spans, background
//! ambient elsewhere.
//!
//! [`SceneRadiance`] is the substrate contract and the only thing the
//! rig's capture loop renders: the rig asks the scene how many distinct
//! radiance regions exist, which region each ROI column belongs to, the
//! mean irradiance of a region over an exposure window, and the row-axis
//! blur kernel to apply to that region's band structure, then samples
//! per-(row, region).
//!
//! [`UniformScene`] adapts the single emitter + channel pair to a
//! one-region scene. It is the single-emitter capture path:
//! [`crate::CameraRig::capture_frame`], [`crate::CameraRig::capture_video`]
//! and [`crate::CameraRig::settle_exposure`] wrap their emitter and the
//! rig's channel in one and capture it.

use colorbars_channel::{BlurKernel, OpticalChannel};
use colorbars_color::Xyz;
use colorbars_led::LedEmitter;

/// A column-partitioned source of sensor-plane irradiance.
///
/// Implementors describe a static spatial layout (regions never move
/// during a capture) with time-varying radiance per region. All methods
/// must be pure with respect to time so that row-parallel capture can
/// evaluate them concurrently.
pub trait SceneRadiance: Sync {
    /// Number of distinct radiance regions (≥ 1).
    fn region_count(&self) -> usize;

    /// The region index for ROI column `col` of a `width`-column capture.
    ///
    /// Must return a value below [`SceneRadiance::region_count`] for every
    /// `col < width`.
    fn region_of_column(&self, col: usize, width: usize) -> usize;

    /// Mean light arriving at the sensor plane over `[t0, t1]` within
    /// `region` — the same quantity as
    /// [`OpticalChannel::received_mean`] for a uniform emitter.
    fn region_mean(&self, region: usize, t0: f64, t1: f64) -> Xyz;

    /// The row-axis PSF blur to apply to `region`'s scanline signal.
    fn region_blur(&self, region: usize) -> &BlurKernel;
}

/// The trivial one-region scene: a single emitter behind a single optical
/// channel filling every column — the classic ColorBars geometry expressed
/// through the scene interface, and what the rig's single-emitter entry
/// points capture. Its region integrates `channel.received_mean(emitter,
/// ..)` once per row and blurs with the channel's kernel.
#[derive(Debug, Clone, Copy)]
pub struct UniformScene<'a> {
    emitter: &'a LedEmitter,
    channel: &'a OpticalChannel,
}

impl<'a> UniformScene<'a> {
    /// Wrap an emitter + channel pair as a one-region scene.
    pub fn new(emitter: &'a LedEmitter, channel: &'a OpticalChannel) -> UniformScene<'a> {
        UniformScene { emitter, channel }
    }

    /// The wrapped emitter.
    pub fn emitter(&self) -> &LedEmitter {
        self.emitter
    }

    /// The wrapped channel.
    pub fn channel(&self) -> &OpticalChannel {
        self.channel
    }
}

impl SceneRadiance for UniformScene<'_> {
    fn region_count(&self) -> usize {
        1
    }

    fn region_of_column(&self, _col: usize, _width: usize) -> usize {
        0
    }

    fn region_mean(&self, _region: usize, t0: f64, t1: f64) -> Xyz {
        self.channel.received_mean(self.emitter, t0, t1)
    }

    fn region_blur(&self, _region: usize) -> &BlurKernel {
        self.channel.blur()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colorbars_led::{DriveLevels, ScheduledColor, TriLed};

    fn emitter() -> LedEmitter {
        LedEmitter::new(
            TriLed::typical(),
            200_000.0,
            &[ScheduledColor {
                drive: DriveLevels::new(0.4, 0.2, 0.6),
                duration: 0.01,
            }],
        )
    }

    #[test]
    fn uniform_scene_is_one_region_everywhere() {
        let e = emitter();
        let ch = OpticalChannel::ideal();
        let scene = UniformScene::new(&e, &ch);
        assert_eq!(scene.region_count(), 1);
        for col in [0usize, 3, 23] {
            assert_eq!(scene.region_of_column(col, 24), 0);
        }
    }

    #[test]
    fn uniform_scene_matches_channel_received_mean_bitwise() {
        let e = emitter();
        let ch = OpticalChannel::paper_setup();
        let scene = UniformScene::new(&e, &ch);
        for &(t0, t1) in &[(0.0, 40e-6), (0.0031, 0.0032), (0.0095, 0.0105)] {
            let via_scene = scene.region_mean(0, t0, t1);
            let direct = ch.received_mean(&e, t0, t1);
            // Bitwise, not approximate: single-emitter captures render
            // exactly this region.
            assert_eq!(via_scene.to_vec3().0, direct.to_vec3().0);
        }
        assert_eq!(scene.region_blur(0).taps(), ch.blur().taps());
    }
}
