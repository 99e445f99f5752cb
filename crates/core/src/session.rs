//! Streaming decode sessions: frames pushed one at a time through a
//! bounded channel onto a dedicated worker, with per-session live
//! telemetry.
//!
//! [`LinkSimulator`](crate::link::LinkSimulator) demodulates a whole
//! captured clip in one batch. A gateway multiplexing many camera feeds
//! cannot do that: frames arrive one at a time, per link, and decode
//! state (segmentation, calibration references, packet reassembly) must
//! persist *across* frames per session. [`LinkSession`] provides exactly
//! that: `push_frame` enqueues onto a bounded channel (applying
//! backpressure when the decoder falls behind), a worker thread runs the
//! unchanged [`Receiver`] pipeline, and `finish` joins the worker and
//! returns the same [`ReceiverReport`] a batch decode of the identical
//! frames would produce — the two paths are byte-identical by
//! construction and asserted equal in tests.
//!
//! ## Telemetry
//!
//! When built with a [`Registry`], a session maintains (labels
//! `session="<name>"`):
//!
//! * `session.frames` / `session.symbols` — sliding-window rates
//!   (frames/sec and detected bands/sec over 1 s and 10 s windows).
//! * `session.frame_latency_ms` — enqueue-to-decoded latency histogram
//!   (p50/p99), plus an unlabeled aggregate across all sessions.
//! * `session.queue_depth` gauge and `session.backpressure_stalls`
//!   counter — how far the decoder trails the feed.
//! * The link doctor's per-stage ledger: every
//!   [`ReceiverStats::COUNTERS`] name (`rx.frames`, `rx.bands.*`,
//!   `rx.packets.*`, `rx.rs.*`, …), published from [`Receiver::stats`]
//!   after every frame by [`ReceiverStats::publish`], so `doctor --live`
//!   can attribute losses per session mid-run. A counter appears once it
//!   is non-zero.
//! * A shared unlabeled `sessions.active` gauge.
//!
//! All recording funnels through `colorbars-obs`'s global gate: with
//! observability disabled every instrument write is a no-op and the
//! session costs one relaxed atomic load per frame beyond the decode
//! itself.

use crate::receiver::{Receiver, ReceiverReport, ReceiverStats};
use colorbars_camera::Frame;
use colorbars_obs as obs;
use colorbars_obs::live::{Counter, Gauge, LatencyHistogram, Registry, WindowRate};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default bounded-queue capacity (frames in flight per session).
pub const DEFAULT_QUEUE_CAPACITY: usize = 8;

/// Construction options for a [`LinkSession`].
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Session name, used as the `session` label on every per-session
    /// metric.
    pub label: String,
    /// Bounded channel capacity; `push_frame` blocks (after counting a
    /// backpressure stall) once this many frames are in flight.
    pub capacity: usize,
    /// Evict the session when no frame arrives for this long: the worker
    /// flushes trailing packets and exits, `rx.session.evicted` counts
    /// one, and later `push_frame` calls drop their frames. `None`
    /// (the default) keeps the worker alive until [`LinkSession::finish`].
    pub idle_timeout: Option<Duration>,
    /// Live-telemetry registry. `None` runs the session uninstrumented.
    pub registry: Option<Registry>,
}

impl SessionConfig {
    /// Configuration for a named session on a registry.
    pub fn new(label: impl Into<String>, registry: Registry) -> SessionConfig {
        SessionConfig {
            label: label.into(),
            capacity: DEFAULT_QUEUE_CAPACITY,
            idle_timeout: None,
            registry: Some(registry),
        }
    }

    /// Configuration for an uninstrumented session.
    pub fn unobserved(label: impl Into<String>) -> SessionConfig {
        SessionConfig {
            label: label.into(),
            capacity: DEFAULT_QUEUE_CAPACITY,
            idle_timeout: None,
            registry: None,
        }
    }

    /// Override the bounded-queue capacity (clamped to ≥ 1).
    pub fn capacity(mut self, capacity: usize) -> SessionConfig {
        self.capacity = capacity.max(1);
        self
    }

    /// Evict the session after this much feed silence (a gateway's guard
    /// against camera feeds that die without closing their session).
    pub fn idle_timeout(mut self, timeout: Duration) -> SessionConfig {
        self.idle_timeout = Some(timeout);
        self
    }
}

/// Per-session instrument handles, created once at spawn so the worker's
/// per-frame path is pure atomic writes (no registry map lookups).
struct Instruments {
    registry: Registry,
    frames: WindowRate,
    symbols: WindowRate,
    latency: LatencyHistogram,
    latency_all: LatencyHistogram,
    queue_depth: Gauge,
    stalls: Counter,
    evicted: Counter,
    active: Gauge,
}

impl Instruments {
    fn new(registry: Registry, label: &str) -> Instruments {
        let l: &[(&str, &str)] = &[("session", label)];
        Instruments {
            frames: registry.rate("session.frames", l),
            symbols: registry.rate("session.symbols", l),
            latency: registry.histogram_ms("session.frame_latency_ms", l),
            latency_all: registry.histogram_ms("session.frame_latency_ms", &[]),
            queue_depth: registry.gauge("session.queue_depth", l),
            stalls: registry.counter("session.backpressure_stalls", l),
            evicted: registry.counter("rx.session.evicted", l),
            active: registry.gauge("sessions.active", &[]),
            registry,
        }
    }

    /// Record the rates, latency and queue drain of one decoded frame that
    /// held `bands` bands.
    fn on_frame(&self, bands: usize, enqueued_at: Instant) {
        self.registry.rate_record(&self.frames, 1);
        if bands > 0 {
            self.registry.rate_record(&self.symbols, bands as u64);
        }
        let latency = enqueued_at.elapsed();
        self.latency.record(latency);
        self.latency_all.record(latency);
        self.queue_depth.add(-1.0);
    }
}

/// A frame in flight, stamped at enqueue time for latency measurement.
struct Job {
    frame: Frame,
    enqueued_at: Instant,
}

/// A streaming decode session: a bounded queue in front of a dedicated
/// worker thread running the [`Receiver`] pipeline, instrumented per
/// session. See the [module docs](self) for the metric inventory.
#[derive(Debug)]
pub struct LinkSession {
    sender: Option<SyncSender<Job>>,
    worker: Option<JoinHandle<ReceiverReport>>,
    frames_processed: Arc<AtomicU64>,
    queue_depth: Option<Gauge>,
    stalls: Option<Counter>,
    label: String,
}

impl LinkSession {
    /// Spawn the session's worker thread around `rx`.
    pub fn spawn(rx: Receiver, config: SessionConfig) -> LinkSession {
        let (sender, receiver) = sync_channel::<Job>(config.capacity.max(1));
        let frames_processed = Arc::new(AtomicU64::new(0));
        let instruments = config
            .registry
            .map(|registry| Instruments::new(registry, &config.label));
        let queue_depth = instruments.as_ref().map(|i| i.queue_depth.clone());
        let stalls = instruments.as_ref().map(|i| i.stalls.clone());
        if let Some(i) = &instruments {
            i.active.add(1.0);
        }

        let processed = Arc::clone(&frames_processed);
        let idle_timeout = config.idle_timeout;
        let thread_label = config.label.clone();
        let worker = std::thread::Builder::new()
            .name(format!("link-session-{thread_label}"))
            .spawn(move || {
                // Journeys recorded by this worker (and the replay context
                // it publishes) carry the session label as their namespace,
                // so a fleet dump attributes every record to its session.
                obs::journey::set_namespace(&thread_label);
                let labels: &[(&str, &str)] = &[("session", &thread_label)];
                let mut rx = rx;
                let mut published = ReceiverStats::default();
                loop {
                    let job = match idle_timeout {
                        None => match receiver.recv() {
                            Ok(job) => job,
                            Err(_) => break,
                        },
                        Some(timeout) => match receiver.recv_timeout(timeout) {
                            Ok(job) => job,
                            Err(RecvTimeoutError::Disconnected) => break,
                            Err(RecvTimeoutError::Timeout) => {
                                // Feed went silent: evict. Trailing
                                // packets are flushed below; frames
                                // pushed after this point are dropped.
                                obs::flight::trigger(
                                    "session_evicted",
                                    0,
                                    obs::Value::object([
                                        ("stage", obs::Value::from("session")),
                                        ("frames_decoded", obs::Value::from(rx.stats().frames)),
                                    ]),
                                );
                                if let Some(i) = &instruments {
                                    i.evicted.inc();
                                }
                                break;
                            }
                        },
                    };
                    let bands_before = rx.stats().bands;
                    rx.process_frame(&job.frame);
                    if let Some(i) = &instruments {
                        let stats = rx.stats();
                        i.on_frame(stats.bands - bands_before, job.enqueued_at);
                        stats.publish(&mut published, &i.registry, labels);
                    }
                    processed.fetch_add(1, Ordering::Release);
                }
                let report = rx.finish();
                if let Some(i) = &instruments {
                    // `finish` flushes trailing packets; publish them
                    // before the session disappears.
                    report.stats.publish(&mut published, &i.registry, labels);
                    i.active.add(-1.0);
                }
                report
            })
            .expect("spawning a session worker thread");

        LinkSession {
            sender: Some(sender),
            worker: Some(worker),
            frames_processed,
            queue_depth,
            stalls,
            label: config.label,
        }
    }

    /// The session's label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Frames fully decoded so far. Tracked independently of the
    /// observability gate, so callers can synchronize on decode progress
    /// (e.g. "scrape once every session has processed a frame") even with
    /// telemetry off.
    pub fn frames_processed(&self) -> u64 {
        self.frames_processed.load(Ordering::Acquire)
    }

    /// Enqueue one frame for decoding. Applies backpressure: when the
    /// bounded queue is full this counts a `session.backpressure_stalls`
    /// and blocks until the worker drains a slot. If the worker already
    /// evicted the session (idle timeout elapsed) the frame is dropped —
    /// [`finish`](LinkSession::finish) still returns the report for
    /// everything decoded before eviction.
    pub fn push_frame(&self, frame: Frame) {
        let sender = self
            .sender
            .as_ref()
            .expect("push_frame after finish() is unreachable by construction");
        let mut job = Job {
            frame,
            enqueued_at: Instant::now(),
        };
        match sender.try_send(job) {
            Ok(()) => {}
            Err(TrySendError::Full(back)) => {
                if let Some(stalls) = &self.stalls {
                    stalls.inc();
                }
                job = back;
                // Re-stamp after the stall is counted: latency measures
                // queue wait + decode, not the caller's blocked time.
                job.enqueued_at = Instant::now();
                if sender.send(job).is_err() {
                    // Evicted while we were blocked: frame dropped.
                    return;
                }
            }
            Err(TrySendError::Disconnected(_)) => {
                // Session evicted: frame dropped.
                return;
            }
        }
        if let Some(depth) = &self.queue_depth {
            depth.add(1.0);
        }
    }

    /// Close the feed, drain the queue, join the worker, and return the
    /// finished report — identical to what a batch decode of the same
    /// frames would produce.
    pub fn finish(mut self) -> ReceiverReport {
        drop(self.sender.take());
        self.worker
            .take()
            .expect("finish() consumes the session")
            .join()
            .expect("session worker must not panic")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LinkConfig;
    use crate::constellation::CskOrder;
    use crate::link::LinkSimulator;
    use colorbars_camera::{CaptureConfig, DeviceProfile, Vignette};
    use colorbars_channel::OpticalChannel;

    fn tiny_sim(rate: f64, seed: u64) -> LinkSimulator {
        let mut device = DeviceProfile::ideal();
        device.rows = 512;
        let capture = CaptureConfig {
            roi_width: 8,
            vignette: Vignette::none(),
            seed,
            ..Default::default()
        };
        let config = LinkConfig::paper_default(CskOrder::Csk8, rate, device.loss_ratio());
        LinkSimulator::new(config, device, OpticalChannel::ideal(), capture).unwrap()
    }

    #[test]
    fn streaming_decode_matches_batch_decode() {
        let sim = tiny_sim(1000.0, 42);
        let data = sim.random_payload(0.1, 7).unwrap();
        let run = sim.prepare_data(&data).unwrap();
        assert!(run.frames.len() > 1, "need a multi-frame run");

        let batch = sim.decode(&run, sim.receiver().unwrap());

        let session = LinkSession::spawn(
            sim.receiver().unwrap(),
            SessionConfig::unobserved("t").capacity(2),
        );
        for f in &run.frames {
            session.push_frame(f.clone());
        }
        let streamed = session.finish();
        assert_eq!(
            streamed, batch.report,
            "streaming and batch decodes must be byte-identical"
        );
        assert_eq!(streamed.data(), batch.report.data());
    }

    /// Full-pipeline simulator in interleaved mode on a real device
    /// profile (the tiny 512-row rig never completes a packet, which
    /// would leave the deinterleave stage untested).
    fn fec_sim(rate: f64, seed: u64, depth: usize) -> LinkSimulator {
        let device = DeviceProfile::nexus5();
        let capture = CaptureConfig {
            roi_width: 8,
            vignette: Vignette::none(),
            seed,
            ..Default::default()
        };
        let config =
            LinkConfig::paper_default(CskOrder::Csk8, rate, device.loss_ratio()).with_fec(depth);
        LinkSimulator::new(config, device, OpticalChannel::ideal(), capture).unwrap()
    }

    #[test]
    fn streaming_interleaved_decode_matches_batch_decode() {
        let sim = fec_sim(3000.0, 177, 4);
        let k = sim.config().packet_budget().unwrap().k_bytes;
        // Two full interleave groups of payload.
        let data: Vec<u8> = (0..8 * k).map(|i| (i * 11 + 5) as u8).collect();
        let run = sim.prepare_data(&data).unwrap();
        assert!(run.frames.len() > 1, "need a multi-frame run");

        let batch = sim.decode(&run, sim.receiver().unwrap());

        let session = LinkSession::spawn(
            sim.receiver().unwrap(),
            SessionConfig::unobserved("ilv").capacity(2),
        );
        for f in &run.frames {
            session.push_frame(f.clone());
        }
        let streamed = session.finish();
        assert_eq!(
            streamed, batch.report,
            "interleaved streaming and batch decodes must be byte-identical"
        );
        assert!(
            streamed.stats.fec_groups > 0,
            "the run must actually exercise the deinterleave stage: {:?}",
            streamed.stats
        );
    }

    #[test]
    fn idle_session_is_evicted_and_later_frames_drop() {
        let _guard = obs_guard();
        colorbars_obs::init(colorbars_obs::ObsConfig::default());

        let sim = tiny_sim(1000.0, 42);
        let run = sim.prepare_raw(0.05, 3).unwrap();
        assert!(run.frames.len() >= 2);
        let registry = Registry::new();
        let session = LinkSession::spawn(
            sim.receiver_raw().unwrap(),
            SessionConfig::new("idle", registry.clone())
                .idle_timeout(std::time::Duration::from_millis(25)),
        );
        session.push_frame(run.frames[0].clone());
        // Wait until the worker has decoded the frame, then go silent
        // long enough for the idle timer to fire.
        while session.frames_processed() < 1 {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(120));
        // The evicted worker is gone; these frames drop without panicking.
        for f in &run.frames[1..] {
            session.push_frame(f.clone());
        }
        let report = session.finish();
        colorbars_obs::disable();

        assert_eq!(
            report.stats.frames, 1,
            "only the pre-eviction frame decoded"
        );
        let snap = registry.snapshot();
        let evicted = snap
            .counters
            .iter()
            .find(|c| c.id.name == "rx.session.evicted")
            .expect("eviction counter registered");
        assert_eq!(evicted.value, 1);
        // The active-session gauge was released at eviction time.
        let active = snap
            .gauges
            .iter()
            .find(|g| g.id.name == "sessions.active")
            .unwrap();
        assert_eq!(active.value, 0.0);
    }

    #[test]
    fn frames_processed_counts_without_telemetry() {
        let sim = tiny_sim(1000.0, 21);
        let run = sim.prepare_raw(0.05, 3).unwrap();
        let session = LinkSession::spawn(
            sim.receiver_raw().unwrap(),
            SessionConfig::unobserved("raw"),
        );
        for f in &run.frames {
            session.push_frame(f.clone());
        }
        let n = run.frames.len() as u64;
        let report = session.finish();
        assert_eq!(report.stats.frames as u64, n);
    }

    #[test]
    fn tiny_capacity_applies_backpressure_not_loss() {
        let _guard = obs_guard();
        colorbars_obs::init(colorbars_obs::ObsConfig::default());

        let sim = tiny_sim(1000.0, 105);
        let run = sim.prepare_raw(0.08, 9).unwrap();
        let registry = Registry::new();
        let session = LinkSession::spawn(
            sim.receiver_raw().unwrap(),
            SessionConfig::new("bp", registry.clone()).capacity(1),
        );
        for f in &run.frames {
            session.push_frame(f.clone());
        }
        let report = session.finish();
        colorbars_obs::disable();

        // Every frame decoded despite the 1-slot queue.
        assert_eq!(report.stats.frames, run.frames.len());
        // Stalls may legitimately be zero on a fast machine; the counter
        // existing (registered at spawn) is the contract.
        let snap = registry.snapshot();
        assert!(snap
            .counters
            .iter()
            .any(|c| c.id.name == "session.backpressure_stalls"));
    }

    /// Serialize tests that flip the global obs switch (mirrors the obs
    /// crate's internal test lock, which is not exported).
    fn obs_guard() -> std::sync::MutexGuard<'static, ()> {
        use std::sync::{Mutex, OnceLock};
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}
