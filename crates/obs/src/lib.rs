//! # colorbars-obs — observability for the ColorBars pipeline
//!
//! A lightweight, **dependency-free** (std only) tracing-and-metrics layer
//! the whole workspace instruments itself with. It exists so the paper's
//! per-stage accounting (where symbols are lost between the tri-LED
//! schedule and the depacketizer — Table 1's inter-frame loss, Fig 9's SER,
//! Fig 11's goodput) is observable *inside* a run, not only as end-of-run
//! aggregates, and so every bench binary leaves a machine-readable
//! `results/<experiment>.json` trajectory behind for perf regression work.
//!
//! Four pieces:
//!
//! * **Spans** ([`span!`], [`mod@span`]) — hierarchically named wall-clock
//!   timers (`"rx.process_frame"`, `"camera.capture_frame"`), each
//!   recording into the unlabeled latency histogram of its name on the
//!   [`live::global`] registry: count / sum / min / max / p50 / p99.
//! * **Counters** ([`counter!`]) — typed pipeline-stage accounting on the
//!   process-wide [`live::global`] registry: bands segmented → classified
//!   → calibrated → depacketized, packets ok / RS-failed / header-lost /
//!   overrun, and per-stage drop reasons.
//! * **Run reports** ([`RunReport`]) — a serializer every bench binary uses
//!   to write `results/<experiment>.json`: result rows + stage counters +
//!   gauges + span timings + config + seeds, alongside the existing stdout
//!   table.
//! * **Live telemetry** ([`mod@live`]) — the one [`Registry`]
//!   implementation of counters, gauges and latency histograms,
//!   snapshot-able mid-run without stopping writers; a [`LiveSnapshot`]
//!   serializes as one JSON line of the gateway's `COLORBARS_OBS_LIVE`
//!   stream.
//!
//! ## Zero cost when disabled
//!
//! The layer is globally gated by one relaxed atomic load ([`is_enabled`]).
//! Every macro and recording function checks it first and returns
//! immediately when observability is off (the default), so instrumented
//! hot paths pay one predictable branch — verified at <2% end-to-end
//! overhead by the `obs_overhead` criterion benchmark in `colorbars-bench`.
//!
//! ## Naming scheme
//!
//! Dotted lowercase paths, `<subsystem>.<stage>[.<detail>]`:
//! `tx.packets.data`, `rx.bands.segmented`, `rx.packets.rs_failed`,
//! `link.capture`, `camera.capture_frame`, `channel.blur_rows`. See
//! DESIGN.md §7 for the full inventory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod doctor;
pub mod flight;
pub mod journey;
pub mod json;
pub mod live;
pub mod report;
pub mod span;
pub mod trace;

pub use json::Value;
pub use live::{CounterSample, GaugeSample, HistogramSample, LiveSnapshot, Registry};
pub use report::RunReport;

use std::sync::atomic::{AtomicBool, Ordering};

/// Global observability switch. Off by default: libraries never turn it on
/// by themselves; harnesses opt in via [`init`].
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Configuration for the observability layer.
#[derive(Debug, Clone, Default)]
pub struct ObsConfig {
    /// Record a span timeline and export it as Chrome/Perfetto trace JSON
    /// to this path on every [`flush`] (see [`mod@trace`]).
    pub trace_path: Option<String>,
    /// Record per-packet journey provenance (see [`mod@journey`]).
    pub journey: bool,
    /// Arm the failure flight recorder: dumps land in this directory as
    /// `<flight_run>.fdr.json` on [`flush`] (see [`mod@flight`]). Implies
    /// `journey`.
    pub flight_dir: Option<String>,
    /// Run name for the flight dump file (default `"run"`).
    pub flight_run: Option<String>,
}

impl ObsConfig {
    /// Read the configuration from the environment:
    /// `COLORBARS_OBS_TRACE=<path>` enables the span timeline trace,
    /// `COLORBARS_OBS_JOURNEY=1` enables journey provenance, and
    /// `COLORBARS_OBS_FLIGHT=<dir>` arms the failure flight recorder
    /// (`COLORBARS_OBS_FLIGHT_RUN` names the dump, default `"run"`).
    pub fn from_env() -> ObsConfig {
        ObsConfig {
            trace_path: std::env::var("COLORBARS_OBS_TRACE")
                .ok()
                .filter(|p| !p.is_empty()),
            journey: std::env::var("COLORBARS_OBS_JOURNEY")
                .is_ok_and(|v| !v.is_empty() && v != "0"),
            flight_dir: std::env::var("COLORBARS_OBS_FLIGHT")
                .ok()
                .filter(|p| !p.is_empty()),
            flight_run: std::env::var("COLORBARS_OBS_FLIGHT_RUN")
                .ok()
                .filter(|p| !p.is_empty()),
        }
    }
}

/// Whether the observability layer is recording. One relaxed atomic load —
/// this is the *only* cost instrumented code pays when observability is
/// disabled.
#[inline(always)]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enable recording with the given configuration. Idempotent;
/// re-initialising keeps accumulated metrics (call [`reset`] for a clean
/// slate).
pub fn init(config: ObsConfig) {
    // An absent trace path keeps any previously configured trace
    // destination; an unwritable one warns and leaves tracing off.
    if let Some(path) = &config.trace_path {
        trace::configure(Some(path));
    }
    // Same convention for journeys and the flight recorder: absent config
    // keeps any previously enabled state, present config turns them on.
    if config.journey {
        journey::set_enabled(true);
    }
    if let Some(dir) = &config.flight_dir {
        flight::configure(Some(dir), config.flight_run.as_deref().unwrap_or("run"));
    }
    ENABLED.store(true, Ordering::Relaxed);
}

/// Disable recording. Already-accumulated metrics are kept and remain
/// snapshottable.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Clear the global registry's instruments (its counter sources stay),
/// span histograms among them, and the trace tracks, journey records, and
/// flight-recorder triggers. The enabled/disabled state is unchanged.
pub fn reset() {
    live::global().clear();
    trace::reset();
    journey::reset();
    flight::reset();
}

/// Flush every configured sink: the Chrome trace file when tracing is
/// active, and the flight-recorder dump when armed and at least one
/// failure trigger fired. Harnesses call this at end of run; it is safe to
/// call repeatedly.
pub fn flush() {
    trace::flush_to_configured();
    flight::flush_to_configured();
}

/// A consistent snapshot of the global registry's unlabeled instruments:
/// the stage counters, gauges and [`span!`] timings a run report or flight
/// dump records. Labeled instruments (per-session ledgers and histograms)
/// belong to the live plane and are left out.
pub fn snapshot() -> LiveSnapshot {
    let mut snap = live::global().snapshot();
    snap.counters.retain(|c| c.id.labels.is_empty());
    snap.gauges.retain(|g| g.id.labels.is_empty());
    snap.histograms.retain(|h| h.id.labels.is_empty());
    snap
}

#[cfg(test)]
pub(crate) mod test_lock {
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// The obs registries are global, so tests that assert on them must be
    /// serialized. Every test touching global state takes this lock.
    pub fn hold() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_until_init() {
        let _guard = test_lock::hold();
        disable();
        assert!(!is_enabled());
        init(ObsConfig::default());
        assert!(is_enabled());
        disable();
        assert!(!is_enabled());
    }

    #[test]
    fn snapshot_is_empty_after_reset() {
        let _guard = test_lock::hold();
        init(ObsConfig::default());
        crate::counter!("test.lib.snapshot", 3);
        reset();
        let snap = snapshot();
        assert!(snap
            .counters
            .iter()
            .all(|c| c.id.name != "test.lib.snapshot"));
        disable();
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _guard = test_lock::hold();
        disable();
        reset();
        crate::counter!("test.lib.noop");
        {
            let _span = crate::span!("test.lib.noop_span");
        }
        let snap = snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }
}
