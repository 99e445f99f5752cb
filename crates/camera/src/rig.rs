//! The rolling-shutter capture loop: LED → channel → sensor → frame.
//!
//! This is where the paper's Fig 1(a)/2(a) mechanics live. Each frame:
//!
//! 1. Rows begin exposing at staggered times `start + r·row_time` and each
//!    integrates the channel's light over its own exposure window — the
//!    rolling shutter. Symbols spanning several rows appear as color bands.
//! 2. Rows are convolved with the channel's PSF (band-edge mixing → ISI).
//! 3. Each photosite samples one Bayer channel with shot/read noise and ISO
//!    gain, the plane is demosaiced, the device's (imperfect) color
//!    transform maps to linear sRGB, gamma encoding and 8-bit quantization
//!    produce the stored frame.
//! 4. The next frame starts one frame period later; rows stop `readout`
//!    into the period, so symbols emitted in the remaining *inter-frame
//!    gap* are never captured — the loss the paper's RS coding recovers.
//!
//! A narrow region of interest (ROI) of columns is simulated rather than
//! the full sensor width: the LED fills the frame uniformly up to
//! vignetting, so extra columns add cost but no information. The ROI width
//! is configurable; receivers average across it exactly as the paper's app
//! averages across the full width.
//!
//! ## One capture loop
//!
//! Every capture renders a [`SceneRadiance`]: the ROI's columns are
//! partitioned into radiance regions, and steps 1–2 run per (row, region).
//! The single-emitter entry points ([`CameraRig::capture_frame`],
//! [`CameraRig::capture_video`], [`CameraRig::settle_exposure`]) capture a
//! one-region [`UniformScene`] of the emitter behind the rig's own channel;
//! the `*_scene` entry points capture any scene. There is one photosite
//! loop, in `f64`, and it is built for speed without changing a stored byte:
//!
//! * **Per-row noise streams.** Rows are independent under the rolling
//!   shutter, and each row draws its sensor noise from its own
//!   *counter-derived RNG stream* (seeded by a splitmix64 mix of
//!   `(seed, frame_index, row)`), so a row's bytes are a function of the
//!   seed, the frame and the row alone. A capture runs on its caller's
//!   thread; independent link runs are what run in parallel, one level up
//!   in the bench's sweep pool.
//! * **Hoisted per-pixel constants.** The radial vignetting factor
//!   decomposes into cached row + column profiles
//!   ([`Vignette::profiles`]), gamma encoding uses the exact
//!   threshold-table quantizer ([`SrgbQuantizer`]) instead of a `powf` per
//!   channel per pixel, and each row walks the ROI as *runs* of columns
//!   that share a region, so the device color transform and the run's two
//!   CFA channels are computed once per (row, run) — once per row for a
//!   uniform scene.
//! * **One noise draw per photosite, drawn ahead of the loop.** Shot and
//!   read noise combine into a single Gaussian with `σ = sqrt(electrons +
//!   read²)` ([`crate::sensor::SensorModel::expose_with_noise`]). Each row
//!   first fills its raw plane with normals from [`fill_normals`], then
//!   exposes every photosite in place — the RNG never appears inside the
//!   per-pixel loop, and the draw order (pairs in sequence, odd row tail
//!   discards the sine branch) is exactly the scalar spare-keeping order.
//!   `fill_normals` transforms eight Box–Muller pairs per step through the
//!   sensor module's own `ln` and `sin_cos` kernels, with no libm call
//!   (see [`crate::sensor`]).
//! * **Zero allocations at steady state.** Raw planes, row-irradiance
//!   scratch and the stored pixel buffer all cycle through a
//!   [`FramePool`], and the column-run map lives in the rig; a captured
//!   [`Frame`] returns its pixels to the pool on drop, so a warmed-up
//!   capture→decode pipeline performs no per-frame heap allocation (the
//!   gateway smoke run asserts zero pool misses).

use crate::bayer::{demosaic_bilinear_with, CfaChannel};
use crate::device::DeviceProfile;
use crate::exposure::{AutoExposure, ExposureSettings};
use crate::frame::{Frame, FrameMeta};
use crate::pool::FramePool;
use crate::scene::{SceneRadiance, UniformScene};
use crate::sensor::fill_normals;
use crate::vignette::Vignette;
use colorbars_channel::OpticalChannel;
use colorbars_color::{LinearRgb, SrgbQuantizer, Xyz};
use colorbars_led::LedEmitter;
use colorbars_obs as obs;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Capture configuration independent of the device profile.
#[derive(Debug, Clone, Copy)]
pub struct CaptureConfig {
    /// Number of sensor columns to simulate (the ROI). The receiver's
    /// column averaging divides noise by √width like the real full-width
    /// average does; 24 columns keeps that benefit at simulation speed.
    pub roi_width: usize,
    /// Lens vignetting model.
    pub vignette: Vignette,
    /// RNG seed for sensor noise (captures are deterministic per seed).
    pub seed: u64,
    /// Apply 4:2:0 chroma subsampling to stored frames, as phone video
    /// encoders do — relevant to the paper's iPhone flow, which recorded
    /// video and decoded offline. Halves chroma resolution in both axes.
    pub chroma_subsample: bool,
    /// Ignored: every capture runs on its caller's thread. The field is
    /// kept only because the `linkbench` benchmark's sources still name
    /// it, and goes when they next change.
    pub threads: usize,
}

impl Default for CaptureConfig {
    fn default() -> Self {
        CaptureConfig {
            roi_width: 24,
            vignette: Vignette::typical(),
            seed: 0xC01_0B52,
            chroma_subsample: false,
            threads: 1,
        }
    }
}

/// Cached vignette row/column profiles. The vignette model and frame
/// geometry are fixed for the life of a rig, so these are computed on the
/// first capture and reused — the steady-state frame loop allocates nothing
/// for them.
#[derive(Debug, Default)]
struct VigCache {
    rows: usize,
    width: usize,
    vrows: Vec<f64>,
    vcols: Vec<f64>,
}

/// A maximal span `start..end` of adjacent ROI columns in one scene region.
#[derive(Debug, Clone, Copy)]
struct ColumnRun {
    region: usize,
    start: usize,
    end: usize,
}

/// A camera rig: one device filming one LED through one optical channel.
#[derive(Debug)]
pub struct CameraRig {
    channel: OpticalChannel,
    camera: Camera,
}

/// Everything in a rig but the optical channel: the device, its exposure
/// controller and the capture scratch. Kept apart so the single-emitter
/// entry points can lend the rig's channel to a [`UniformScene`] while the
/// capture loop borrows the rest mutably.
#[derive(Debug)]
struct Camera {
    device: DeviceProfile,
    config: CaptureConfig,
    ae: AutoExposure,
    quant: SrgbQuantizer,
    pool: FramePool,
    vig: VigCache,
    runs: Vec<ColumnRun>,
    frames_captured: usize,
}

impl CameraRig {
    /// Build a rig with auto-exposure enabled (the paper's configuration).
    /// The rig draws its frame and scratch buffers from the process-global
    /// [`FramePool`]; see [`CameraRig::set_pool`] for a dedicated one.
    pub fn new(device: DeviceProfile, channel: OpticalChannel, config: CaptureConfig) -> CameraRig {
        assert!(
            config.roi_width >= 2,
            "ROI must be at least 2 columns for a Bayer tile"
        );
        let ae = AutoExposure::new(&device);
        CameraRig {
            channel,
            camera: Camera {
                device,
                config,
                ae,
                quant: SrgbQuantizer::new(),
                pool: FramePool::global().clone(),
                vig: VigCache::default(),
                runs: Vec::new(),
                frames_captured: 0,
            },
        }
    }

    /// Replace the exposure controller (e.g. [`AutoExposure::locked`] for
    /// the Fig 6 sweeps).
    pub fn set_exposure_controller(&mut self, ae: AutoExposure) {
        self.camera.ae = ae;
    }

    /// The buffer pool this rig's captures draw from and recycle into.
    pub fn pool(&self) -> &FramePool {
        &self.camera.pool
    }

    /// Use a dedicated buffer pool instead of the process-global one
    /// (isolated tests, memory-bounded embedders).
    pub fn set_pool(&mut self, pool: FramePool) {
        self.camera.pool = pool;
    }

    /// The device being simulated.
    pub fn device(&self) -> &DeviceProfile {
        &self.camera.device
    }

    /// Mutable access to the channel (ambient/distance changes mid-capture).
    pub fn channel_mut(&mut self) -> &mut OpticalChannel {
        &mut self.channel
    }

    /// Capture `n` consecutive frames of `emitter`, starting at time
    /// `start_time`. Frames are spaced by the device frame period; the
    /// auto-exposure controller adapts between frames.
    pub fn capture_video(&mut self, emitter: &LedEmitter, start_time: f64, n: usize) -> Vec<Frame> {
        let scene = UniformScene::new(emitter, &self.channel);
        self.camera.capture_video(&scene, start_time, n)
    }

    /// Capture a single frame beginning at `start_time`.
    ///
    /// The frame's bytes depend only on the configuration (seed included)
    /// and the capture history.
    pub fn capture_frame(&mut self, emitter: &LedEmitter, start_time: f64) -> Frame {
        let scene = UniformScene::new(emitter, &self.channel);
        self.camera.capture_frame(&scene, start_time)
    }

    /// Warm the auto-exposure controller on a scene until it settles
    /// (real apps do this during the first second of preview). Captures
    /// and discards up to `max_frames` frames.
    pub fn settle_exposure(&mut self, emitter: &LedEmitter, max_frames: usize) {
        let scene = UniformScene::new(emitter, &self.channel);
        self.camera.settle_exposure(&scene, max_frames);
    }

    /// Capture `n` consecutive frames of a column-partitioned scene —
    /// the multi-transmitter counterpart of [`CameraRig::capture_video`].
    pub fn capture_video_scene<S: SceneRadiance + ?Sized>(
        &mut self,
        scene: &S,
        start_time: f64,
        n: usize,
    ) -> Vec<Frame> {
        self.camera.capture_video(scene, start_time, n)
    }

    /// Capture a single frame of a column-partitioned scene beginning at
    /// `start_time`: every ROI column belongs to one of the scene's
    /// radiance regions, irradiance is integrated per (row, region), and
    /// each region's scanline signal gets its own PSF blur. Noise derives
    /// from `(seed, frame, row)`, never from the spatial layout. The rig's
    /// own channel plays no part — each region brings its own.
    pub fn capture_frame_scene<S: SceneRadiance + ?Sized>(
        &mut self,
        scene: &S,
        start_time: f64,
    ) -> Frame {
        self.camera.capture_frame(scene, start_time)
    }

    /// Warm the auto-exposure controller on a column-partitioned scene —
    /// the multi-transmitter counterpart of [`CameraRig::settle_exposure`].
    pub fn settle_exposure_scene<S: SceneRadiance + ?Sized>(
        &mut self,
        scene: &S,
        max_frames: usize,
    ) {
        self.camera.settle_exposure(scene, max_frames);
    }
}

impl Camera {
    fn capture_video<S: SceneRadiance + ?Sized>(
        &mut self,
        scene: &S,
        start_time: f64,
        n: usize,
    ) -> Vec<Frame> {
        let _span = obs::span!("camera.capture_video");
        let mut frames = Vec::with_capacity(n);
        for k in 0..n {
            let t = start_time + k as f64 * self.device.frame_period();
            let frame = self.capture_frame(scene, t);
            self.ae.observe(frame.mean_luma(), &self.device);
            frames.push(frame);
        }
        frames
    }

    fn settle_exposure<S: SceneRadiance + ?Sized>(&mut self, scene: &S, max_frames: usize) {
        let _span = obs::span!("camera.settle_exposure");
        let mut last = f64::NAN;
        for k in 0..max_frames {
            let t = k as f64 * self.device.frame_period();
            let frame = self.capture_frame(scene, t);
            let luma = frame.mean_luma();
            self.ae.observe(luma, &self.device);
            // Converged only once the meter is in its informative range —
            // a clipped reading that hasn't moved is not convergence.
            if (0.1..=0.9).contains(&luma) && (luma - last).abs() < 0.01 {
                break;
            }
            last = luma;
        }
    }

    /// The one capture loop: render `scene` as a frame beginning at
    /// `start_time`.
    fn capture_frame<S: SceneRadiance + ?Sized>(&mut self, scene: &S, start_time: f64) -> Frame {
        let _span = obs::span!("camera.capture_frame");
        obs::counter!("camera.frames");
        let rows = self.device.rows;
        let width = self.config.roi_width;
        let settings = self.ae.settings();
        let row_time = self.device.row_time();
        let frame_index = self.frames_captured;
        let regions = scene.region_count();
        assert!(regions >= 1, "a scene must have at least one region");
        self.map_column_runs(scene, width, regions);

        // Step 1: per-(row, region) mean irradiance over each row's
        // exposure window, region-major (`light[k * rows + r]`). Scratch
        // buffers come from the frame pool; every element is overwritten,
        // so reuse needs no clearing.
        let mut light = self.pool.take_row_light(regions * rows);
        {
            let _stage = obs::span!("camera.rows_integrate");
            for (k, region) in light.chunks_mut(rows).enumerate() {
                for (r, out) in region.iter_mut().enumerate() {
                    let t0 = start_time + r as f64 * row_time;
                    *out = scene.region_mean(k, t0, t0 + settings.exposure);
                }
            }
        }

        // Step 2: each region's PSF blur across rows (band-edge ISI) into a
        // second pooled buffer; the pre-blur buffer goes straight back to
        // the pool.
        let mut blurred = self.pool.take_row_light(regions * rows);
        for (k, (src, dst)) in light.chunks(rows).zip(blurred.chunks_mut(rows)).enumerate() {
            scene.region_blur(k).convolve_rows_into(src, dst);
        }
        self.pool.recycle_row_light(light);
        let light = &blurred;

        // Step 3: per-photosite capture. The device sees the scene through
        // its own color transform; noise applies per photosite in the
        // mosaic domain; demosaic reconstructs RGB; gamma+quantize stores.
        self.ensure_vig_cache(rows, width);
        let mut pixels: Vec<[u8; 3]> = self.pool.take_pixels(rows * width);
        let mut raw = self.pool.take_raw_f64(rows * width);
        {
            let _stage = obs::span!("camera.mosaic");
            self.expose_mosaic(&mut raw, light, frame_index, settings);
        }
        // Demosaic and gamma encoding fuse into one streaming pass — the
        // full-RGB plane never materializes.
        {
            let _stage = obs::span!("camera.encode");
            let quant = &self.quant;
            demosaic_bilinear_with(&raw, width, rows, self.device.cfa, |px| {
                pixels.push(quant.encode_pixel(px));
            });
        }
        self.pool.recycle_raw_f64(raw);
        self.pool.recycle_row_light(blurred);
        if self.config.chroma_subsample {
            chroma_subsample_420(&mut pixels, width, rows);
        }

        let meta = FrameMeta {
            index: self.frames_captured,
            start_time,
            exposure: settings.exposure,
            iso: settings.iso,
            row_time,
        };
        self.frames_captured += 1;
        Frame::new_pooled(width, rows, pixels, meta, self.pool.clone())
    }

    /// The photosite loop of step 3 over a `rows × width` raw plane. Each
    /// row draws its normals from its own RNG stream keyed on (seed, frame,
    /// row) into the plane, then exposes every photosite of each column run
    /// in place; vignetting uses the cached row/column profiles. `raw`
    /// comes in as a parameter of its own: written inline in
    /// `capture_frame`, this loop made `linkbench`'s `capture_frame_ms`
    /// about 15% slower, presumably because the optimizer could no longer
    /// tell that stores into the plane alias nothing the loop reads.
    fn expose_mosaic(
        &self,
        raw: &mut [f64],
        light: &[Xyz],
        frame_index: usize,
        settings: ExposureSettings,
    ) {
        let rows = self.device.rows;
        let width = self.config.roi_width;
        let m = self.device.xyz_to_linear_srgb();
        let device = &self.device;
        let (vrows, vcols) = (&self.vig.vrows[..], &self.vig.vcols[..]);
        // The mosaic channel depends only on (row % 2, col % 2); hoist the
        // CFA dispatch into a parity table so the photosite loop indexes
        // instead of matching per pixel.
        let cfa_parity = {
            let idx = |r: usize, c: usize| -> usize {
                match device.cfa.channel_at(r, c) {
                    CfaChannel::R => 0,
                    CfaChannel::G => 1,
                    CfaChannel::B => 2,
                }
            };
            [[idx(0, 0), idx(0, 1)], [idx(1, 0), idx(1, 1)]]
        };
        for (r, row_raw) in raw.chunks_mut(width).enumerate() {
            // The row's normals land in its raw plane first and are
            // exposed in place below.
            let mut rng = StdRng::seed_from_u64(row_stream_seed(self.config.seed, frame_index, r));
            fill_normals(&mut rng, row_raw);
            let cfa_row = &cfa_parity[r & 1];
            let vrow = vrows[r];
            for run in &self.runs {
                // ISP gamut mapping: scene colors more saturated than the
                // output space are desaturated toward neutral, not
                // hard-clipped (hard clipping would collapse distinct
                // saturated colors).
                let rgb = LinearRgb::from_vec3(m.mul_vec(light[run.region * rows + r].to_vec3()))
                    .compress_into_gamut();
                let channels = [rgb.r, rgb.g, rgb.b];
                // Only the mosaic-selected channel is scaled by the vignette
                // factor — the other two never leave the sensor.
                let mosaic = [channels[cfa_row[0]], channels[cfa_row[1]]];
                let cols = run.start..run.end;
                let photosites = row_raw[cols.clone()].iter_mut().zip(&vcols[cols.clone()]);
                for (c, (out, vcol)) in cols.zip(photosites) {
                    let sample = (mosaic[c & 1] * (vrow + vcol)).max(0.0);
                    *out = device.sensor.expose_with_noise(
                        sample,
                        settings.exposure,
                        settings.iso,
                        *out,
                    );
                }
            }
        }
    }

    /// Rebuild the ROI's column-run map for `scene` into the reused
    /// scratch vector (allocation-free once warm).
    fn map_column_runs<S: SceneRadiance + ?Sized>(
        &mut self,
        scene: &S,
        width: usize,
        regions: usize,
    ) {
        self.runs.clear();
        for c in 0..width {
            let k = scene.region_of_column(c, width);
            assert!(k < regions, "column {c} mapped to out-of-range region {k}");
            match self.runs.last_mut() {
                Some(run) if run.region == k => run.end = c + 1,
                _ => self.runs.push(ColumnRun {
                    region: k,
                    start: c,
                    end: c + 1,
                }),
            }
        }
    }

    /// Fill the vignette-profile cache for a `rows × width` frame if the
    /// geometry changed (or on first use).
    fn ensure_vig_cache(&mut self, rows: usize, width: usize) {
        if self.vig.rows == rows && self.vig.width == width && !self.vig.vrows.is_empty() {
            return;
        }
        let (vrows, vcols) = self.config.vignette.profiles(rows, width);
        self.vig = VigCache {
            rows,
            width,
            vrows,
            vcols,
        };
    }
}

/// Seed for the per-row noise stream: a chained splitmix64 finalizer over
/// `(seed, frame, row)`. Distinct inputs land in well-separated streams, so
/// no row's noise depends on another row's draws.
fn row_stream_seed(seed: u64, frame: usize, row: usize) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    mix(mix(mix(seed) ^ frame as u64) ^ row as u64)
}

/// 4:2:0 chroma subsampling in BT.601 YCbCr: every 2×2 block shares the
/// mean chroma while keeping per-pixel luma — what phone video encoders do
/// before compression. Operates in place on 8-bit sRGB pixels.
fn chroma_subsample_420(pixels: &mut [[u8; 3]], width: usize, height: usize) {
    let to_ycbcr = |p: [u8; 3]| -> (f64, f64, f64) {
        let (r, g, b) = (p[0] as f64, p[1] as f64, p[2] as f64);
        (
            0.299 * r + 0.587 * g + 0.114 * b,
            128.0 - 0.168_736 * r - 0.331_264 * g + 0.5 * b,
            128.0 + 0.5 * r - 0.418_688 * g - 0.081_312 * b,
        )
    };
    let to_rgb = |y: f64, cb: f64, cr: f64| -> [u8; 3] {
        let r = y + 1.402 * (cr - 128.0);
        let g = y - 0.344_136 * (cb - 128.0) - 0.714_136 * (cr - 128.0);
        let b = y + 1.772 * (cb - 128.0);
        [
            r.round().clamp(0.0, 255.0) as u8,
            g.round().clamp(0.0, 255.0) as u8,
            b.round().clamp(0.0, 255.0) as u8,
        ]
    };
    // Fixed scratch for the (at most four) pixel indices of a block — this
    // runs per 2×2 block over every frame, so no per-block allocation.
    let mut coords = [0usize; 4];
    for by in (0..height).step_by(2) {
        for bx in (0..width).step_by(2) {
            let mut n = 0usize;
            for dy in 0..2 {
                for dx in 0..2 {
                    let (y, x) = (by + dy, bx + dx);
                    if y < height && x < width {
                        coords[n] = y * width + x;
                        n += 1;
                    }
                }
            }
            let coords = &coords[..n];
            let (mut cb_sum, mut cr_sum) = (0.0, 0.0);
            for &i in coords {
                let (_, cb, cr) = to_ycbcr(pixels[i]);
                cb_sum += cb;
                cr_sum += cr;
            }
            let (cb, cr) = (cb_sum / n as f64, cr_sum / n as f64);
            for &i in coords {
                let (y, _, _) = to_ycbcr(pixels[i]);
                pixels[i] = to_rgb(y, cb, cr);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colorbars_led::{DriveLevels, ScheduledColor, TriLed};

    /// An emitter holding one drive for the whole duration.
    fn constant_emitter(drive: DriveLevels, seconds: f64) -> LedEmitter {
        LedEmitter::new(
            TriLed::typical(),
            200_000.0,
            &[ScheduledColor {
                drive,
                duration: seconds,
            }],
        )
    }

    /// A small fast device for unit tests: few rows, ideal color/noise.
    fn test_device(rows: usize) -> DeviceProfile {
        let mut d = DeviceProfile::ideal();
        d.rows = rows;
        // Keep readout and gap proportions of the Nexus.
        d
    }

    fn quiet_rig(rows: usize) -> CameraRig {
        let cfg = CaptureConfig {
            roi_width: 8,
            vignette: Vignette::none(),
            seed: 1,
            ..Default::default()
        };
        CameraRig::new(test_device(rows), OpticalChannel::ideal(), cfg)
    }

    #[test]
    fn white_led_fills_frame_with_gray() {
        let e = constant_emitter(DriveLevels::new(1.0, 1.0, 1.0), 1.0);
        let mut rig = quiet_rig(64);
        rig.settle_exposure(&e, 10);
        let f = rig.capture_frame(&e, 0.5);
        let m = f.row_mean_srgb(32);
        // Near-achromatic: channels within a fraction of each other.
        let spread = (m.r - m.g)
            .abs()
            .max((m.g - m.b).abs())
            .max((m.r - m.b).abs());
        assert!(
            spread < 0.25,
            "white LED should look roughly neutral: {m:?}"
        );
        assert!(m.g > 0.2, "scene should not be black");
    }

    #[test]
    fn dark_led_gives_dark_frame() {
        let e = constant_emitter(DriveLevels::OFF, 1.0);
        let mut rig = quiet_rig(32);
        let f = rig.capture_frame(&e, 0.0);
        assert!(f.mean_luma() < 0.05, "luma {}", f.mean_luma());
    }

    #[test]
    fn two_symbol_schedule_produces_two_bands() {
        // Red for the first half of the readout, green for the second.
        let mut d = test_device(128);
        d.readout_time = 1.0e-3;
        let led = TriLed::typical();
        let red = led.solve_drive(led.gamut().red, 0.08).unwrap();
        let green = led.solve_drive(led.gamut().green, 0.08).unwrap();
        let e = LedEmitter::new(
            led,
            200_000.0,
            &[
                ScheduledColor {
                    drive: red,
                    duration: 0.5e-3,
                },
                ScheduledColor {
                    drive: green,
                    duration: 0.5e-3,
                },
            ],
        );
        let cfg = CaptureConfig {
            roi_width: 8,
            vignette: Vignette::none(),
            seed: 2,
            ..Default::default()
        };
        let mut rig = CameraRig::new(d, OpticalChannel::ideal(), cfg);
        // The schedule only spans 1 ms, so auto-exposure settling (which
        // captures frames 33 ms apart) would meter darkness; lock instead.
        rig.set_exposure_controller(AutoExposure::locked(crate::exposure::ExposureSettings {
            exposure: 40e-6,
            iso: 100.0,
        }));
        let f = rig.capture_frame(&e, 0.0);
        // Row 20 is inside the red band; row 100 inside the green band.
        let top = f.row_mean_srgb(20);
        let bottom = f.row_mean_srgb(100);
        assert!(top.r > top.g, "top band should be red-ish: {top:?}");
        assert!(
            bottom.g > bottom.r,
            "bottom band should be green-ish: {bottom:?}"
        );
    }

    #[test]
    fn capture_is_deterministic_per_seed() {
        let e = constant_emitter(DriveLevels::new(0.5, 0.5, 0.5), 1.0);
        let frame = |seed| {
            let cfg = CaptureConfig {
                roi_width: 8,
                vignette: Vignette::none(),
                seed,
                ..Default::default()
            };
            let mut rig = CameraRig::new(DeviceProfile::nexus5(), OpticalChannel::ideal(), cfg);
            rig.camera.device.rows = 64;
            rig.set_exposure_controller(AutoExposure::locked(crate::exposure::ExposureSettings {
                exposure: 40e-6,
                iso: 100.0,
            }));
            rig.capture_frame(&e, 0.0)
        };
        assert_eq!(frame(7), frame(7));
        assert_ne!(frame(7), frame(8), "different seeds give different noise");
    }

    #[test]
    fn scene_regions_partition_the_frame() {
        // A two-region scene: left half red emitter, right half dark. The
        // column partition must be visible in the stored pixels.
        use colorbars_channel::BlurKernel;
        use colorbars_color::Xyz;
        struct HalfScene {
            emitter: LedEmitter,
            channel: OpticalChannel,
            dark_blur: BlurKernel,
        }
        impl SceneRadiance for HalfScene {
            fn region_count(&self) -> usize {
                2
            }
            fn region_of_column(&self, col: usize, width: usize) -> usize {
                usize::from(col >= width / 2)
            }
            fn region_mean(&self, region: usize, t0: f64, t1: f64) -> Xyz {
                if region == 0 {
                    self.channel.received_mean(&self.emitter, t0, t1)
                } else {
                    Xyz::BLACK
                }
            }
            fn region_blur(&self, region: usize) -> &BlurKernel {
                if region == 0 {
                    self.channel.blur()
                } else {
                    &self.dark_blur
                }
            }
        }
        let led = TriLed::typical();
        let red = led.solve_drive(led.gamut().red, 0.08).unwrap();
        let scene = HalfScene {
            emitter: LedEmitter::new(
                led,
                200_000.0,
                &[ScheduledColor {
                    drive: red,
                    duration: 1.0,
                }],
            ),
            channel: OpticalChannel::ideal(),
            dark_blur: BlurKernel::identity(),
        };
        let cfg = CaptureConfig {
            roi_width: 16,
            vignette: Vignette::none(),
            seed: 5,
            ..Default::default()
        };
        let mut rig = CameraRig::new(test_device(64), OpticalChannel::ideal(), cfg);
        rig.set_exposure_controller(AutoExposure::locked(crate::exposure::ExposureSettings {
            exposure: 40e-6,
            iso: 100.0,
        }));
        let f = rig.capture_frame_scene(&scene, 0.1);
        // Sample interior columns away from the demosaic boundary.
        let lit = f.pixel(32, 2)[0] as i32;
        let dark = f.pixel(32, 13)[0] as i32;
        assert!(
            lit > dark + 30,
            "left region lit ({lit}) vs right region dark ({dark})"
        );
    }

    #[test]
    fn pool_recycles_buffers_across_rigs() {
        // One warm pool serves successive rigs (sessions) without any new
        // allocation: the second rig's captures must be all pool hits.
        let e = constant_emitter(DriveLevels::new(0.5, 0.5, 0.5), 1.0);
        let pool = crate::FramePool::new();
        let mk = |seed: u64| {
            let cfg = CaptureConfig {
                roi_width: 8,
                vignette: Vignette::none(),
                seed,
                ..Default::default()
            };
            let mut rig = CameraRig::new(test_device(32), OpticalChannel::ideal(), cfg);
            rig.set_pool(pool.clone());
            rig
        };
        let frames = mk(1).capture_video(&e, 0.0, 3);
        assert!(pool.misses() > 0, "cold pool must have allocated");
        drop(frames); // pixel buffers return to the pool
        let warm_misses = pool.misses();
        let frames = mk(2).capture_video(&e, 0.0, 3);
        assert_eq!(
            pool.misses(),
            warm_misses,
            "a warm pool serves a new rig with zero allocations"
        );
        assert_eq!(frames.len(), 3);
    }

    #[test]
    fn row_streams_are_distinct() {
        // Adjacent (seed, frame, row) triples must not collide — collisions
        // would correlate noise across rows.
        let mut seen = std::collections::HashSet::new();
        for seed in [0u64, 1, 99] {
            for frame in 0..4usize {
                for row in 0..64usize {
                    assert!(seen.insert(row_stream_seed(seed, frame, row)));
                }
            }
        }
    }

    #[test]
    fn video_frames_are_spaced_by_frame_period() {
        let e = constant_emitter(DriveLevels::new(1.0, 1.0, 1.0), 1.0);
        let mut rig = quiet_rig(16);
        let frames = rig.capture_video(&e, 0.0, 3);
        assert_eq!(frames.len(), 3);
        let dt = frames[1].meta.start_time - frames[0].meta.start_time;
        assert!((dt - rig.device().frame_period()).abs() < 1e-12);
        assert_eq!(frames[0].meta.index, 0);
        assert_eq!(frames[2].meta.index, 2);
    }

    #[test]
    fn auto_exposure_settles_to_sane_luma() {
        // A scene at typical link brightness (constant-power symbols run
        // well below full drive). Full drive would pin the exposure at the
        // device's shutter floor and saturate — also correct behaviour,
        // but not what this test probes.
        let e = constant_emitter(DriveLevels::new(0.15, 0.15, 0.15), 2.0);
        let mut rig = quiet_rig(64);
        rig.settle_exposure(&e, 20);
        let f = rig.capture_frame(&e, 1.0);
        let luma = f.mean_luma();
        assert!(luma > 0.2 && luma < 0.8, "settled luma {luma}");
    }

    #[test]
    fn shutter_floor_saturates_on_overbright_scenes() {
        // The flip side: a full-drive LED through a camera that cannot
        // shutter below its floor ends up overexposed — the Fig 6(b)
        // saturation regime.
        let e = constant_emitter(DriveLevels::new(1.0, 1.0, 1.0), 2.0);
        let mut rig = quiet_rig(64);
        rig.settle_exposure(&e, 20);
        let f = rig.capture_frame(&e, 1.0);
        assert!(
            f.mean_luma() > 0.9,
            "overbright scene saturates: {}",
            f.mean_luma()
        );
        assert!(
            (f.meta.exposure - rig.device().min_exposure).abs() < 1e-9,
            "exposure pinned at the floor"
        );
    }

    #[test]
    fn chroma_subsampling_preserves_flat_colors_and_luma() {
        // A flat field is invariant; a sharp chroma edge gets blended only
        // within its 2×2 block.
        let mut flat = vec![[200u8, 60, 100]; 16];
        let before = flat.clone();
        chroma_subsample_420(&mut flat, 4, 4);
        for (a, b) in flat.iter().zip(&before) {
            for k in 0..3 {
                assert!(
                    (a[k] as i16 - b[k] as i16).abs() <= 1,
                    "flat field preserved"
                );
            }
        }
        // Luma of individual pixels survives across an (unsaturated)
        // chroma edge; fully saturated primaries can clip on reconstruction,
        // which real 4:2:0 also does.
        let mut edge = vec![[180u8, 60, 60], [60, 180, 60], [180, 60, 60], [60, 180, 60]];
        let luma = |p: [u8; 3]| 0.299 * p[0] as f64 + 0.587 * p[1] as f64 + 0.114 * p[2] as f64;
        let before: Vec<f64> = edge.iter().map(|&p| luma(p)).collect();
        chroma_subsample_420(&mut edge, 2, 2);
        for (p, want) in edge.iter().zip(before) {
            assert!((luma(*p) - want).abs() < 3.0, "luma per pixel preserved");
        }
    }

    #[test]
    fn subsampled_capture_still_shows_bands() {
        let mut d = test_device(128);
        d.readout_time = 1.0e-3;
        let led = TriLed::typical();
        let red = led.solve_drive(led.gamut().red, 0.08).unwrap();
        let green = led.solve_drive(led.gamut().green, 0.08).unwrap();
        let e = LedEmitter::new(
            led,
            200_000.0,
            &[
                ScheduledColor {
                    drive: red,
                    duration: 0.5e-3,
                },
                ScheduledColor {
                    drive: green,
                    duration: 0.5e-3,
                },
            ],
        );
        let cfg = CaptureConfig {
            roi_width: 8,
            vignette: Vignette::none(),
            seed: 2,
            chroma_subsample: true,
            ..Default::default()
        };
        let mut rig = CameraRig::new(d, OpticalChannel::ideal(), cfg);
        rig.set_exposure_controller(AutoExposure::locked(crate::exposure::ExposureSettings {
            exposure: 40e-6,
            iso: 100.0,
        }));
        let f = rig.capture_frame(&e, 0.0);
        let top = f.row_mean_srgb(20);
        let bottom = f.row_mean_srgb(100);
        assert!(top.r > top.g, "red band survives subsampling: {top:?}");
        assert!(
            bottom.g > bottom.r,
            "green band survives subsampling: {bottom:?}"
        );
    }

    #[test]
    fn vignette_darkens_borders() {
        let e = constant_emitter(DriveLevels::new(1.0, 1.0, 1.0), 1.0);
        let cfg = CaptureConfig {
            roi_width: 16,
            vignette: Vignette::new(0.5),
            seed: 3,
            ..Default::default()
        };
        let mut rig = CameraRig::new(test_device(128), OpticalChannel::ideal(), cfg);
        rig.settle_exposure(&e, 10);
        let f = rig.capture_frame(&e, 0.5);
        let center = f.pixel_srgb(64, 8).decode().g;
        let corner = f.pixel_srgb(0, 0).decode().g;
        assert!(corner < center * 0.8, "corner {corner} vs center {center}");
    }
}
