//! # colorbars-camera — rolling-shutter camera simulation
//!
//! The ColorBars receiver is an unmodified smartphone camera. Everything the
//! paper has to engineer around on the receive side originates in how CMOS
//! image sensors work, and this crate models that machinery end to end:
//!
//! * [`frame`] — the captured image: 8-bit sRGB pixels plus the capture
//!   metadata (start time, exposure, ISO, per-row timing).
//! * [`device`] — per-device profiles. The two phones the paper evaluates
//!   (Nexus 5 and iPhone 5S) differ in resolution, readout speed (hence
//!   inter-frame loss ratio), color response (hence receiver diversity) and
//!   noise floor. Profiles are fit to the paper's published numbers.
//! * [`sensor`] — the photosite model: exposure integration, shot noise,
//!   read noise, ISO gain, full-well clipping, and the Box–Muller lanes
//!   that draw the noise.
//! * [`bayer`] — the color filter array: mosaic sampling and bilinear
//!   demosaicing (Section 6.1's source of per-device color differences).
//! * [`vignette`] — radial lens falloff: the non-uniform brightness of the
//!   paper's Fig 8(a), which motivates demodulating in CIELAB.
//! * [`exposure`] — the auto-exposure/auto-ISO controller that commodity
//!   phones run (the paper deliberately leaves it enabled, Section 8).
//! * [`rig`] — the rolling-shutter capture loop tying everything to an LED
//!   emitter through an optical channel: each scanline integrates light over
//!   its own staggered exposure window, frames are separated by the
//!   inter-frame gap, and every captured frame reports exactly when each of
//!   its rows saw the scene.
//!
//! The simulation is deterministic given an RNG seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bayer;
pub mod device;
pub mod exposure;
pub mod frame;
pub mod pool;
pub mod rig;
pub mod sensor;
pub mod vignette;

pub use bayer::{BayerPattern, CfaChannel};
pub use device::DeviceProfile;
pub use exposure::{AutoExposure, ExposureSettings};
pub use frame::{Frame, FrameMeta};
pub use pool::FramePool;
pub use rig::{CameraRig, CaptureConfig};
pub use sensor::SensorModel;
pub use vignette::Vignette;
