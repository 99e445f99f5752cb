//! # colorbars-led — tri-LED transmitter hardware substrate
//!
//! The ColorBars prototype drives an off-the-shelf RGB tri-LED from a
//! BeagleBone Black: three PWM channels set the duty cycles of the red,
//! green and blue dies, and the duty-cycle mix determines the emitted color
//! (paper Section 2.2, "Pulse Width Modulation"). This crate models that
//! hardware path faithfully enough that a simulated rolling-shutter camera
//! integrating the optical waveform sees exactly what a real sensor would:
//!
//! * [`pwm`] — a PWM channel as a square-wave generator with an **exact
//!   analytic integral** over arbitrary time windows. Camera scanlines
//!   integrate light over their exposure window; point-sampling would alias,
//!   the closed-form integral cannot.
//! * [`tri_led`] — the tri-LED itself: three primaries with chromaticities
//!   and luminous flux, and the solver that turns a target chromaticity +
//!   luminance into the three duty cycles (a 3×3 linear solve in CIE XYZ).
//! * [`emitter`] — the symbol-schedule emitter: turns a timed schedule of
//!   color targets into the LED's optical output `XYZ(t)`, integrable over
//!   any window (the interface the camera substrate consumes).
//! * [`platform`] — transmitter platform limits (the paper measured the
//!   BeagleBone Black topping out below 4.5 kHz color changes).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod emitter;
pub mod platform;
pub mod pwm;
pub mod tri_led;

pub use array::TriLedArray;
pub use emitter::{LedEmitter, RowMeans, ScheduledColor};
pub use platform::Platform;
pub use pwm::PwmChannel;
pub use tri_led::{DriveError, DriveLevels, TriLed};
