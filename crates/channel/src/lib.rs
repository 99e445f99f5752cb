//! # colorbars-channel — the free-space optical channel
//!
//! Between the tri-LED and the camera sensor sit three physical effects the
//! ColorBars paper has to engineer around, each modeled here:
//!
//! * [`attenuation`] — inverse-square path loss plus lens collection
//!   efficiency. The prototype's LED is dim, forcing the phone within ~3 cm
//!   (paper Section 8); the attenuation model is what enforces that
//!   trade-off in simulation.
//! * [`ambient`] — background illumination mixing into every pixel. Ambient
//!   shifts the received chromaticity of *every* symbol, which is the
//!   channel drift that periodic calibration packets (Section 6) track.
//! * [`blur`] — the lens point-spread function projected onto the rolling-
//!   shutter row axis. Row-axis blur mixes adjacent color bands and is the
//!   physical source of inter-symbol interference; its interaction with
//!   band width is why SER grows with symbol frequency (Fig 9).
//!
//! [`OpticalChannel`] composes the three into the quantity the camera
//! substrate consumes: the light arriving at the sensor, integrable over an
//! arbitrary exposure window.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ambient;
pub mod attenuation;
pub mod blur;

pub use ambient::AmbientLight;
pub use attenuation::PathLoss;
pub use blur::BlurKernel;

use colorbars_color::Xyz;
use colorbars_led::LedEmitter;

/// The composed optical channel between one LED transmitter and one camera.
#[derive(Debug, Clone)]
pub struct OpticalChannel {
    path: PathLoss,
    ambient: AmbientLight,
    blur: BlurKernel,
}

impl OpticalChannel {
    /// Compose a channel from its parts.
    pub fn new(path: PathLoss, ambient: AmbientLight, blur: BlurKernel) -> OpticalChannel {
        OpticalChannel {
            path,
            ambient,
            blur,
        }
    }

    /// The paper's experimental setup: phone within 3 cm of a low-lumen
    /// tri-LED, dim indoor ambient, mild defocus blur.
    pub fn paper_setup() -> OpticalChannel {
        OpticalChannel {
            path: PathLoss::new(0.03, 0.03),
            ambient: AmbientLight::dim_indoor(),
            blur: BlurKernel::gaussian(3.0, 10),
        }
    }

    /// A noise-free, blur-free, ambient-free channel for unit tests.
    pub fn ideal() -> OpticalChannel {
        OpticalChannel {
            path: PathLoss::new(0.03, 0.03),
            ambient: AmbientLight::none(),
            blur: BlurKernel::identity(),
        }
    }

    /// Path-loss component.
    pub fn path(&self) -> &PathLoss {
        &self.path
    }

    /// Ambient component.
    pub fn ambient(&self) -> &AmbientLight {
        &self.ambient
    }

    /// Row-axis blur kernel.
    pub fn blur(&self) -> &BlurKernel {
        &self.blur
    }

    /// Replace the ambient light (channel condition change mid-experiment).
    pub fn set_ambient(&mut self, ambient: AmbientLight) {
        self.ambient = ambient;
    }

    /// Replace the distance (movement of the receiver).
    pub fn set_distance(&mut self, meters: f64) {
        self.path.set_distance(meters);
    }

    /// Mean light arriving at the sensor plane over each row window of a
    /// rolling shutter: attenuated LED emission plus ambient, where
    /// `out[r]` covers `[t0, t0 + exposure]` with `t0 = start + r·row_time`.
    /// The emitter walks each row's boundary slots on from the previous
    /// row's ([`LedEmitter::row_means`]). Blur is *not* applied here — it
    /// is a spatial effect across scanlines, applied by the camera via
    /// [`BlurKernel::convolve_rows_into`].
    pub fn received_rows(
        &self,
        emitter: &LedEmitter,
        start: f64,
        row_time: f64,
        exposure: f64,
        out: &mut [Xyz],
    ) {
        let (gain, ambient) = (self.path.gain(), self.ambient.irradiance());
        for (out, mean) in out
            .iter_mut()
            .zip(emitter.row_means(start, row_time, exposure))
        {
            *out = mean.scale(gain).add(ambient);
        }
    }
}

/// One window's mean, for the tests: attenuated LED emission plus ambient
/// over `[t0, t1]`, which `received_rows` must reproduce bit for bit.
#[cfg(test)]
impl OpticalChannel {
    fn received_mean(&self, emitter: &LedEmitter, t0: f64, t1: f64) -> Xyz {
        let signal = emitter.mean(t0, t1).scale(self.path.gain());
        signal.add(self.ambient.irradiance())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colorbars_led::{DriveLevels, ScheduledColor, TriLed};

    fn white_emitter() -> LedEmitter {
        LedEmitter::new(
            TriLed::typical(),
            200_000.0,
            &[ScheduledColor {
                drive: DriveLevels::new(1.0, 1.0, 1.0),
                duration: 0.01,
            }],
        )
    }

    #[test]
    fn ideal_channel_at_reference_distance_is_transparent() {
        let ch = OpticalChannel::ideal();
        let e = white_emitter();
        let got = ch.received_mean(&e, 0.0, 0.01);
        let expect = e.mean(0.0, 0.01);
        assert!(got.to_vec3().max_abs_diff(expect.to_vec3()) < 1e-12);
    }

    #[test]
    fn moving_away_dims_the_signal() {
        let mut ch = OpticalChannel::ideal();
        let e = white_emitter();
        let near = ch.received_mean(&e, 0.0, 0.01).y;
        ch.set_distance(0.06); // double the reference distance
        let far = ch.received_mean(&e, 0.0, 0.01).y;
        assert!(
            (far - near / 4.0).abs() < 1e-9,
            "inverse square: {near} → {far}"
        );
    }

    #[test]
    fn ambient_adds_light_even_when_led_is_dark() {
        let mut ch = OpticalChannel::ideal();
        ch.set_ambient(AmbientLight::dim_indoor());
        let e = white_emitter();
        // After the schedule ends the LED is dark; only ambient remains.
        let got = ch.received_mean(&e, 0.02, 0.03);
        assert!(got.y > 0.0);
        assert!(
            got.to_vec3()
                .max_abs_diff(ch.ambient().irradiance().to_vec3())
                < 1e-12
        );
    }

    #[test]
    fn received_rows_is_received_mean_per_row_bitwise() {
        let e = LedEmitter::new(
            TriLed::typical(),
            200_000.0,
            &[ScheduledColor {
                drive: DriveLevels::new(0.4, 0.2, 0.6),
                duration: 0.01,
            }],
        );
        let ch = OpticalChannel::paper_setup();
        // Rows that straddle slot edges, run off the schedule's end, and
        // begin before it.
        for &(start, row_time, exposure) in &[
            (0.0, 1e-5, 40e-6),
            (0.0031, 2e-6, 1e-4),
            (0.0095, 3e-5, 1e-3),
            (-2e-4, 7e-5, 6e-5),
        ] {
            let mut rows = [Xyz::BLACK; 40];
            ch.received_rows(&e, start, row_time, exposure, &mut rows);
            for (r, got) in rows.iter().enumerate() {
                let t0 = start + r as f64 * row_time;
                let direct = ch.received_mean(&e, t0, t0 + exposure);
                assert_eq!(got.to_vec3().0, direct.to_vec3().0, "row {r}");
            }
        }
    }

    #[test]
    fn paper_setup_is_constructible() {
        let ch = OpticalChannel::paper_setup();
        assert!(!ch.blur().is_empty());
        assert!(ch.path().gain() > 0.0);
    }
}
