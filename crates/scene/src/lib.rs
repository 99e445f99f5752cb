//! # colorbars-scene — multi-transmitter spatial scenes
//!
//! ColorBars (CoNEXT '15) evaluates one tri-LED filling the camera's ROI.
//! A real deployment points a phone at a scene containing *several*
//! independent LED transmitters — the multiple-access setting of Yang et
//! al. (arXiv:1802.09705) — and decodes N concurrent CSK links sharded
//! across one rolling-shutter sensor. This crate supplies that layer:
//!
//! * [`scene`] — compose N [`colorbars_led::LedEmitter`]s into one optical
//!   [`Scene`]: each transmitter occupies a column span of the image plane
//!   behind its own [`colorbars_channel::OpticalChannel`] (distance
//!   attenuation, ambient), with guard gaps and optional bleed between
//!   adjacent spans. `Scene` implements the camera substrate's
//!   [`colorbars_camera::SceneRadiance`] contract, so
//!   [`colorbars_camera::CameraRig::capture_video_scene`] renders it with
//!   the full sensor model. A one-transmitter, zero-guard, zero-bleed
//!   scene is byte-identical to capturing its emitter through the rig's
//!   single-emitter entry points.
//! * [`segment`] — the receive-side column segmentation stage: temporal
//!   variance across a frame window locates each transmitter's column
//!   span, without knowledge of the layout.
//! * [`multilink`] — [`MultiLinkSimulator`] runs the whole chain: N
//!   transmitters → scene capture → column segmentation → one
//!   [`colorbars_core::Receiver`] per detected region — and merges the
//!   per-region reports into [`MultiLinkMetrics`] (per-TX SER/goodput,
//!   aggregate throughput, cross-talk error attribution).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod multilink;
pub mod scene;
pub mod segment;

pub use multilink::{MultiLinkMetrics, MultiLinkSimulator, SceneMode, TxOutcome};
pub use scene::{Scene, SceneError, SceneLayout, SceneTransmitter};
pub use segment::{segment_columns, ColumnRegion, ColumnSegmenterConfig};
