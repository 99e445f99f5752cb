//! # ColorBars — LED-to-camera communication with Color Shift Keying
//!
//! A from-scratch Rust reproduction of *ColorBars: Increasing Data Rate of
//! LED-to-Camera Communication using Color Shift Keying* (CoNEXT 2015).
//!
//! This facade crate re-exports the whole workspace under one name:
//!
//! * [`color`] — CIE color science (XYZ, chromaticity, CIELAB, ΔE).
//! * [`rs`] — Reed–Solomon coding over GF(2⁸).
//! * [`led`] — tri-LED transmitter hardware model (PWM, chromaticity mixing).
//! * [`camera`] — rolling-shutter camera simulation with device profiles.
//! * [`channel`] — optical channel (attenuation, ambient light, blur).
//! * [`flicker`] — human flicker-perception model (Bloch's law).
//! * [`core`] — the ColorBars system itself: constellations, packets,
//!   transmitter, receiver, calibration, and the end-to-end link simulator.
//! * [`obs`] — observability: timing spans, pipeline-stage counters, the
//!   live telemetry registry, and machine-readable run reports.
//!
//! See `examples/quickstart.rs` for a complete transmit→capture→decode loop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use colorbars_camera as camera;
pub use colorbars_channel as channel;
pub use colorbars_color as color;
pub use colorbars_core as core;
pub use colorbars_flicker as flicker;
pub use colorbars_led as led;
pub use colorbars_obs as obs;
pub use colorbars_rs as rs;
