//! Composing multiple LED transmitters into one optical scene.
//!
//! The image plane is partitioned into column spans: each transmitter
//! occupies one span behind its own [`OpticalChannel`] (so per-transmitter
//! distance attenuation, ambient and blur all apply), spans are separated
//! by dark **guard gaps** showing only background ambient, and an optional
//! **bleed** fraction leaks each transmitter's attenuated signal into its
//! adjacent transmitters' spans — the optical crosstalk of imperfectly
//! focused neighboring sources.
//!
//! [`Scene`] implements [`SceneRadiance`], so a
//! [`colorbars_camera::CameraRig`] renders it through the full sensor
//! model via `capture_video_scene`. The degenerate one-transmitter,
//! zero-guard, zero-bleed scene performs exactly the per-row operations of
//! the [`colorbars_camera::UniformScene`] that the rig's single-emitter
//! entry points capture, and is pinned byte-identical by tests.

use colorbars_camera::SceneRadiance;
use colorbars_channel::{AmbientLight, BlurKernel, OpticalChannel};
use colorbars_color::Xyz;
use colorbars_led::LedEmitter;

/// One transmitter of a scene: an emitter behind its own optical channel.
#[derive(Debug, Clone)]
pub struct SceneTransmitter {
    /// The scheduled LED.
    pub emitter: LedEmitter,
    /// The free-space channel between this LED and the sensor.
    pub channel: OpticalChannel,
}

/// Spatial layout of the transmitters on the image plane.
#[derive(Debug, Clone, Copy)]
pub struct SceneLayout {
    /// Columns each transmitter's span occupies (≥ 2 for a Bayer tile).
    pub cols_per_tx: usize,
    /// Dark guard columns between adjacent spans (0 = spans touch).
    pub guard_cols: usize,
    /// Fraction of each neighbor's attenuated signal leaking into a
    /// transmitter's span (`0.0` = perfectly separated sources). Must be
    /// in `[0, 1)`.
    pub bleed: f64,
}

impl Default for SceneLayout {
    fn default() -> Self {
        SceneLayout {
            cols_per_tx: 12,
            guard_cols: 4,
            bleed: 0.0,
        }
    }
}

/// Scene composition errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SceneError {
    /// A scene needs at least one transmitter.
    NoTransmitters,
    /// Transmitter spans must be at least two columns wide (one Bayer tile).
    SpanTooNarrow,
    /// Bleed must lie in `[0, 1)`.
    InvalidBleed,
}

impl std::fmt::Display for SceneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SceneError::NoTransmitters => write!(f, "scene needs at least one transmitter"),
            SceneError::SpanTooNarrow => {
                write!(f, "transmitter spans must be at least 2 columns wide")
            }
            SceneError::InvalidBleed => write!(f, "bleed fraction must be in [0, 1)"),
        }
    }
}

impl std::error::Error for SceneError {}

/// What one radiance region of the scene shows.
#[derive(Debug, Clone, Copy)]
enum RegionKind {
    /// Transmitter `k`'s span.
    Tx(usize),
    /// A guard gap: background ambient only.
    Gap,
}

#[derive(Debug, Clone)]
struct Region {
    kind: RegionKind,
    /// Column span `[start, end)`.
    start: usize,
    end: usize,
}

/// A composed optical scene: N transmitters sharded across the ROI columns.
#[derive(Debug, Clone)]
pub struct Scene {
    txs: Vec<SceneTransmitter>,
    regions: Vec<Region>,
    layout: SceneLayout,
    width: usize,
    background: AmbientLight,
    gap_blur: BlurKernel,
}

impl Scene {
    /// Compose a scene: transmitters left to right, each spanning
    /// [`SceneLayout::cols_per_tx`] columns, guard gaps between them,
    /// background ambient in the gaps.
    pub fn compose(
        txs: Vec<SceneTransmitter>,
        layout: SceneLayout,
        background: AmbientLight,
    ) -> Result<Scene, SceneError> {
        if txs.is_empty() {
            return Err(SceneError::NoTransmitters);
        }
        if layout.cols_per_tx < 2 {
            return Err(SceneError::SpanTooNarrow);
        }
        if !(0.0..1.0).contains(&layout.bleed) {
            return Err(SceneError::InvalidBleed);
        }
        let mut regions = Vec::with_capacity(2 * txs.len() - 1);
        let mut col = 0usize;
        for k in 0..txs.len() {
            if k > 0 && layout.guard_cols > 0 {
                regions.push(Region {
                    kind: RegionKind::Gap,
                    start: col,
                    end: col + layout.guard_cols,
                });
                col += layout.guard_cols;
            }
            regions.push(Region {
                kind: RegionKind::Tx(k),
                start: col,
                end: col + layout.cols_per_tx,
            });
            col += layout.cols_per_tx;
        }
        Ok(Scene {
            txs,
            regions,
            layout,
            width: col,
            background,
            gap_blur: BlurKernel::identity(),
        })
    }

    /// Number of transmitters in the scene.
    pub fn tx_count(&self) -> usize {
        self.txs.len()
    }

    /// Total ROI columns the scene occupies.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The layout the scene was composed with.
    pub fn layout(&self) -> &SceneLayout {
        &self.layout
    }

    /// Column span `[start, end)` of transmitter `k`.
    pub fn tx_span(&self, k: usize) -> (usize, usize) {
        self.regions
            .iter()
            .find_map(|r| match r.kind {
                RegionKind::Tx(i) if i == k => Some((r.start, r.end)),
                _ => None,
            })
            .expect("transmitter index in range")
    }
}

impl SceneRadiance for Scene {
    fn region_count(&self) -> usize {
        self.regions.len()
    }

    fn region_of_column(&self, col: usize, width: usize) -> usize {
        debug_assert_eq!(
            width, self.width,
            "capture ROI width must match the scene width"
        );
        // Regions are contiguous and sorted; find the first whose end is
        // past the column. Columns beyond the last region clamp to it.
        let idx = self.regions.partition_point(|r| r.end <= col);
        idx.min(self.regions.len() - 1)
    }

    fn region_rows(
        &self,
        region: usize,
        start: f64,
        row_time: f64,
        exposure: f64,
        out: &mut [Xyz],
    ) {
        let k = match self.regions[region].kind {
            RegionKind::Gap => return out.fill(self.background.irradiance()),
            RegionKind::Tx(k) => k,
        };
        // The transmitter's own channel: attenuated emission plus that
        // channel's ambient — identical operations to a single-emitter
        // capture, which keeps the one-region scene byte-exact.
        let own = &self.txs[k];
        own.channel
            .received_rows(&own.emitter, start, row_time, exposure, out);
        if self.layout.bleed == 0.0 {
            return;
        }
        // Optical crosstalk: adjacent spans leak a fraction of their
        // attenuated *signal* (ambient is not double-counted), left
        // neighbor first.
        let neighbors = [
            k.checked_sub(1),
            Some(k + 1).filter(|&n| n < self.txs.len()),
        ];
        for tx in neighbors.into_iter().flatten().map(|n| &self.txs[n]) {
            let gain = tx.channel.path().gain();
            let signal = tx.emitter.row_means(start, row_time, exposure);
            for (acc, mean) in out.iter_mut().zip(signal) {
                *acc = acc.add(mean.scale(gain).scale(self.layout.bleed));
            }
        }
    }

    fn region_blur(&self, region: usize) -> &BlurKernel {
        match self.regions[region].kind {
            RegionKind::Gap => &self.gap_blur,
            RegionKind::Tx(k) => self.txs[k].channel.blur(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colorbars_camera::{CameraRig, CaptureConfig, DeviceProfile};
    use colorbars_led::{DriveLevels, ScheduledColor, TriLed};

    fn emitter(drive: DriveLevels, seconds: f64) -> LedEmitter {
        LedEmitter::new(
            TriLed::typical(),
            200_000.0,
            &[ScheduledColor {
                drive,
                duration: seconds,
            }],
        )
    }

    /// A region's mean over the one window `[t0, t1]`.
    fn window_mean(scene: &Scene, region: usize, t0: f64, t1: f64) -> Xyz {
        let mut out = [Xyz::BLACK];
        scene.region_rows(region, t0, 0.0, t1 - t0, &mut out);
        out[0]
    }

    fn tx(drive: DriveLevels) -> SceneTransmitter {
        SceneTransmitter {
            emitter: emitter(drive, 1.0),
            channel: OpticalChannel::ideal(),
        }
    }

    #[test]
    fn compose_rejects_bad_inputs() {
        let layout = SceneLayout::default();
        assert_eq!(
            Scene::compose(vec![], layout, AmbientLight::none()).unwrap_err(),
            SceneError::NoTransmitters
        );
        let narrow = SceneLayout {
            cols_per_tx: 1,
            ..layout
        };
        assert_eq!(
            Scene::compose(vec![tx(DriveLevels::OFF)], narrow, AmbientLight::none()).unwrap_err(),
            SceneError::SpanTooNarrow
        );
        let bad_bleed = SceneLayout {
            bleed: 1.0,
            ..layout
        };
        assert_eq!(
            Scene::compose(vec![tx(DriveLevels::OFF)], bad_bleed, AmbientLight::none())
                .unwrap_err(),
            SceneError::InvalidBleed
        );
    }

    #[test]
    fn spans_and_gaps_tile_the_width() {
        let layout = SceneLayout {
            cols_per_tx: 8,
            guard_cols: 3,
            bleed: 0.0,
        };
        let txs = vec![
            tx(DriveLevels::new(1.0, 0.0, 0.0)),
            tx(DriveLevels::new(0.0, 1.0, 0.0)),
            tx(DriveLevels::new(0.0, 0.0, 1.0)),
        ];
        let scene = Scene::compose(txs, layout, AmbientLight::none()).unwrap();
        assert_eq!(scene.width(), 3 * 8 + 2 * 3);
        assert_eq!(scene.tx_span(0), (0, 8));
        assert_eq!(scene.tx_span(1), (11, 19));
        assert_eq!(scene.tx_span(2), (22, 30));
        // Every column maps into a region, in order.
        let w = scene.width();
        let mut last = 0;
        for c in 0..w {
            let r = scene.region_of_column(c, w);
            assert!(r >= last, "regions are monotone left to right");
            last = r;
        }
        assert_eq!(scene.region_count(), 5, "3 spans + 2 gaps");
    }

    #[test]
    fn gap_regions_show_background_only() {
        let layout = SceneLayout {
            cols_per_tx: 4,
            guard_cols: 2,
            bleed: 0.0,
        };
        let txs = vec![
            tx(DriveLevels::new(1.0, 1.0, 1.0)),
            tx(DriveLevels::new(1.0, 1.0, 1.0)),
        ];
        let bg = AmbientLight::dim_indoor();
        let scene = Scene::compose(txs, layout, bg).unwrap();
        let gap_region = scene.region_of_column(5, scene.width());
        let got = window_mean(&scene, gap_region, 0.0, 40e-6);
        assert!(got.to_vec3().max_abs_diff(bg.irradiance().to_vec3()) < 1e-15);
    }

    #[test]
    fn bleeding_rows_equal_per_window_sums_bitwise() {
        // Three transmitters with symbol schedules behind different
        // channels, bleed on: each transmitter region's rows are its own
        // channel's `received_mean` plus each neighbor's attenuated
        // `mean` times the bleed, left neighbor first, window by window.
        let led = TriLed::typical();
        let schedule = |phase: usize| -> Vec<ScheduledColor> {
            (0..40)
                .map(|i| ScheduledColor {
                    drive: DriveLevels::new(
                        ((i + phase) % 3) as f64 / 2.0,
                        ((i + phase) % 5) as f64 / 4.0,
                        ((i * 7 + phase) % 4) as f64 / 3.0,
                    ),
                    duration: 1.0 / 3000.0,
                })
                .collect()
        };
        let txs: Vec<SceneTransmitter> = (0..3)
            .map(|k| SceneTransmitter {
                emitter: LedEmitter::new(led, 200_000.0, &schedule(k)),
                channel: OpticalChannel::new(
                    colorbars_channel::PathLoss::new(0.03 + 0.01 * k as f64, 0.03),
                    AmbientLight::dim_indoor(),
                    BlurKernel::identity(),
                ),
            })
            .collect();
        let layout = SceneLayout {
            cols_per_tx: 4,
            guard_cols: 2,
            bleed: 0.2,
        };
        let scene = Scene::compose(txs.clone(), layout, AmbientLight::none()).unwrap();
        let (start, row_time, exposure) = (-1e-4, 9.5e-6, 60e-6);
        for k in 0..txs.len() {
            let region = scene.region_of_column(scene.tx_span(k).0, scene.width());
            let mut rows = [Xyz::BLACK; 1500];
            scene.region_rows(region, start, row_time, exposure, &mut rows);
            for (r, got) in rows.iter().enumerate() {
                let t0 = start + r as f64 * row_time;
                let t1 = t0 + exposure;
                let mut want = txs[k].channel.received_mean(&txs[k].emitter, t0, t1);
                for n in [k.wrapping_sub(1), k + 1] {
                    if let Some(tx) = txs.get(n) {
                        let signal = tx.emitter.mean(t0, t1).scale(tx.channel.path().gain());
                        want = want.add(signal.scale(layout.bleed));
                    }
                }
                assert_eq!(got.to_vec3().0, want.to_vec3().0, "tx {k} row {r}");
            }
        }
    }

    #[test]
    fn bleed_leaks_neighbor_signal_into_adjacent_spans_only() {
        let layout = SceneLayout {
            cols_per_tx: 4,
            guard_cols: 2,
            bleed: 0.25,
        };
        // TX0 bright red, TX1 dark, TX2 dark: TX1 sees 25% of TX0's signal,
        // TX2 (not adjacent to TX0) sees nothing.
        let txs = vec![
            tx(DriveLevels::new(1.0, 0.0, 0.0)),
            tx(DriveLevels::OFF),
            tx(DriveLevels::OFF),
        ];
        let scene = Scene::compose(txs, layout, AmbientLight::none()).unwrap();
        let w = scene.width();
        let r0 = scene.region_of_column(0, w);
        let r1 = scene.region_of_column(6, w);
        let r2 = scene.region_of_column(12, w);
        let own = window_mean(&scene, r0, 0.0, 1e-3);
        let leaked = window_mean(&scene, r1, 0.0, 1e-3);
        let far = window_mean(&scene, r2, 0.0, 1e-3);
        assert!(own.y > 0.0);
        assert!(
            (leaked.y - 0.25 * own.y).abs() < 1e-12,
            "adjacent span sees the bleed fraction: {} vs {}",
            leaked.y,
            own.y
        );
        assert_eq!(far.y, 0.0, "non-adjacent span sees nothing");
    }

    #[test]
    fn one_region_scene_is_byte_identical_to_classic_capture() {
        // The single-transmitter equivalence guarantee, via the real Scene
        // type: zero guard columns, zero bleed, one transmitter spanning
        // the whole ROI must reproduce CameraRig::capture_video exactly.
        let led = TriLed::typical();
        let red = led.solve_drive(led.gamut().red, 0.08).unwrap();
        let green = led.solve_drive(led.gamut().green, 0.08).unwrap();
        let e = LedEmitter::new(
            led,
            200_000.0,
            &[
                ScheduledColor {
                    drive: red,
                    duration: 0.05,
                },
                ScheduledColor {
                    drive: green,
                    duration: 0.05,
                },
            ],
        );
        let channel = OpticalChannel::paper_setup();
        let mut device = DeviceProfile::nexus5();
        device.rows = 96;
        let layout = SceneLayout {
            cols_per_tx: 8,
            guard_cols: 0,
            bleed: 0.0,
        };
        let scene = Scene::compose(
            vec![SceneTransmitter {
                emitter: e.clone(),
                channel: channel.clone(),
            }],
            layout,
            AmbientLight::none(),
        )
        .unwrap();
        assert_eq!(scene.region_count(), 1);

        let capture = CaptureConfig {
            roi_width: 8,
            seed: 4242,
            ..Default::default()
        };
        let mut classic = CameraRig::new(device.clone(), channel.clone(), capture);
        classic.settle_exposure(&e, 4);
        let reference = classic.capture_video(&e, 0.0, 2);
        let mut rig = CameraRig::new(device, channel, capture);
        rig.settle_exposure_scene(&scene, 4);
        let frames = rig.capture_video_scene(&scene, 0.0, 2);
        assert_eq!(frames, reference, "one-region Scene diverged");
    }
}
