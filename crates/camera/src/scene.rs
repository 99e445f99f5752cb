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
//! mean irradiance of a region over every row's exposure window, and the
//! row-axis blur kernel to apply to that region's band structure, then
//! samples per-(row, region).
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
/// must be pure with respect to time: the rig evaluates every row's window
/// afresh for each frame, and exposure settling meters again from `t = 0`.
pub trait SceneRadiance {
    /// Number of distinct radiance regions (≥ 1).
    fn region_count(&self) -> usize;

    /// The region index for ROI column `col` of a `width`-column capture.
    ///
    /// Must return a value below [`SceneRadiance::region_count`] for every
    /// `col < width`.
    fn region_of_column(&self, col: usize, width: usize) -> usize;

    /// Mean light arriving at the sensor plane within `region` over each
    /// row's exposure window: `out[r]` covers `[t0, t0 + exposure]` with
    /// `t0 = start + r·row_time` — for a uniform emitter, the quantity
    /// [`OpticalChannel::received_rows`] fills. The rows' windows are
    /// evenly spaced, so an emitter-backed region can walk its schedule
    /// from one row to the next instead of searching it per row.
    fn region_rows(&self, region: usize, start: f64, row_time: f64, exposure: f64, out: &mut [Xyz]);

    /// The row-axis PSF blur to apply to `region`'s scanline signal.
    fn region_blur(&self, region: usize) -> &BlurKernel;
}

/// The trivial one-region scene: a single emitter behind a single optical
/// channel filling every column — the classic ColorBars geometry expressed
/// through the scene interface, and what the rig's single-emitter entry
/// points capture. Its region fills `channel.received_rows(emitter, ..)`
/// and blurs with the channel's kernel.
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

    fn region_rows(
        &self,
        _region: usize,
        start: f64,
        row_time: f64,
        exposure: f64,
        out: &mut [Xyz],
    ) {
        self.channel
            .received_rows(self.emitter, start, row_time, exposure, out);
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
        // Rows that straddle slot edges, run off the schedule's end, and
        // begin before it.
        for &(start, row_time, exposure) in &[
            (0.0, 1e-5, 40e-6),
            (0.0031, 2e-6, 1e-4),
            (0.0095, 3e-5, 1e-3),
            (-2e-4, 7e-5, 6e-5),
        ] {
            let mut via_scene = [Xyz::BLACK; 40];
            scene.region_rows(0, start, row_time, exposure, &mut via_scene);
            for (r, got) in via_scene.iter().enumerate() {
                let t0 = start + r as f64 * row_time;
                let direct = ch.received_mean(&e, t0, t0 + exposure);
                // Bitwise, not approximate: single-emitter captures render
                // exactly this region.
                assert_eq!(got.to_vec3().0, direct.to_vec3().0, "row {r}");
            }
        }
        assert_eq!(scene.region_blur(0).taps(), ch.blur().taps());
    }
}
