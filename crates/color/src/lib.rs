//! # colorbars-color — CIE color science substrate
//!
//! ColorBars (CoNEXT 2015) modulates data as *colors*: the transmitter picks
//! constellation points in the CIE 1931 chromaticity plane, a tri-LED
//! synthesizes them, a smartphone camera captures them as RGB pixels, and the
//! receiver demodulates in the CIELAB `(a, b)` plane using the ΔE color
//! difference metric.
//!
//! This crate is the color-math substrate shared by every other crate in the
//! workspace. It provides, from scratch (no external color libraries):
//!
//! * [`Xyz`] — CIE 1931 tristimulus values, the device-independent hub space.
//! * [`Chromaticity`] — the CIE `(x, y)` chromaticity coordinates in which the
//!   CSK constellation is designed, plus [`GamutTriangle`] for the triangle
//!   spanned by the tri-LED primaries (Fig 1(d) of the paper).
//! * [`LinearRgb`] / [`Srgb`] / [`RgbSpace`] — linear-light RGB with arbitrary
//!   primaries (the LED's primaries, the camera's effective primaries, or
//!   sRGB), and the sRGB transfer function used when a camera encodes frames.
//! * [`Lab`] — CIELAB with the ΔE*ab (CIE76) difference metric. The paper
//!   matches each received symbol to the nearest calibration reference by
//!   CIE76 distance in the `(a, b)` plane.
//! * [`Illuminant`] — standard white points (E, D65) used for constellation
//!   white-balance and Lab normalization.
//!
//! ## Conventions
//!
//! All component values are `f64`. Linear RGB and XYZ are *open-range*
//! physical quantities (exposure can exceed 1.0 before the sensor clips);
//! only [`Srgb`] is clamped to `[0, 1]` on encode. Conversions are exact
//! matrix algebra — round-trip accuracy is enforced by property tests.
//!
//! ```
//! use colorbars_color::{Chromaticity, GamutTriangle, Lab, Xyz};
//!
//! // The tri-LED gamut triangle used throughout the paper's figures.
//! let tri = GamutTriangle::typical_tri_led();
//! let white = tri.centroid();
//! assert!(tri.contains(white));
//!
//! // A chromaticity becomes a full color once given a luminance.
//! let xyz = white.with_luminance(1.0);
//! let lab = Lab::from_xyz(xyz, Xyz::D65_WHITE);
//! assert!(lab.l > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::should_implement_trait)] // named math methods (add, scale) on value types are a deliberate API

pub mod chromaticity;
pub mod illuminant;
pub mod lab;
pub mod matrix;
pub mod rgb;
pub mod xyz;

pub use chromaticity::{Chromaticity, GamutTriangle};
pub use illuminant::Illuminant;
pub use lab::{delta_e76, Lab};
pub use matrix::{Mat3, Vec3};
pub use rgb::{LinearRgb, RgbSpace, Srgb, SrgbQuantizer, SrgbToXyzLut};
pub use xyz::Xyz;
