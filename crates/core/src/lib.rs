//! # colorbars-core — the ColorBars CSK LED-to-camera communication system
//!
//! This crate is the paper's primary contribution: a complete transmitter
//! and receiver for Color Shift Keying over the rolling-shutter LED-to-
//! camera channel, built on the substrate crates (`colorbars-color`,
//! `colorbars-rs`, `colorbars-led`, `colorbars-camera`, `colorbars-channel`,
//! `colorbars-flicker`).
//!
//! ## Pipeline (paper Fig 2(b))
//!
//! **Transmit** — [`transmitter::Transmitter`]:
//! data bytes → Reed–Solomon blocks ([`colorbars_rs::RsPlan`]) → packets
//! ([`packet`]: `owo`-style delimiters/flags, size header) → CSK symbols
//! ([`constellation`]) → white illumination symbols interleaved
//! ([`illumination`]) → tri-LED drive schedule ([`symbol::SymbolMapper`]).
//!
//! **Receive** — [`receiver::Receiver`]:
//! camera frames → per-row CIELAB reduction ([`segmentation`], Section 7
//! Step 1–2) → band segmentation with the minimum-width rule → symbol
//! classification against calibration references ([`calibration`],
//! [`classify`]) → packet reassembly across frames with inter-frame-gap
//! erasure placement ([`depacket`]) → RS errors-and-erasures decoding.
//!
//! **Evaluate** — [`link::LinkSimulator`] wires a transmitter, the optical
//! channel, a camera rig and a receiver together and measures the paper's
//! three metrics: symbol error rate, raw throughput and goodput (Section 8).
//!
//! ## Wire format
//!
//! The concrete realization of the paper's Fig 4 packet structure is
//! documented in [`packet`]; the 802.15.7-style constellation construction
//! and its substitution rationale are documented in [`constellation`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod calibration;
pub mod classify;
pub mod config;
pub mod constellation;
pub mod depacket;
pub mod equalizer;
pub mod error;
pub mod illumination;
pub mod link;
pub mod packet;
pub mod receiver;
pub mod replay;
pub mod segmentation;
pub mod session;
pub mod symbol;
pub mod transmitter;

pub use calibration::ReferenceStore;
pub use classify::Label;
pub use config::LinkConfig;
pub use constellation::{Constellation, CskOrder};
pub use equalizer::{EqualizerKind, TrainedEqualizer};
pub use error::LinkError;
pub use illumination::{is_white_position, WhiteRatioTable};
pub use link::{compute_metrics, start_phase, CapturedRun, LinkMetrics, LinkSimulator};
pub use packet::{Packet, PacketKind};
pub use receiver::{Receiver, ReceiverReport};
pub use replay::ReplayLink;
pub use session::{LinkSession, SessionConfig, DEFAULT_QUEUE_CAPACITY};
pub use symbol::{Symbol, SymbolMapper};
pub use transmitter::{Transmission, Transmitter};
