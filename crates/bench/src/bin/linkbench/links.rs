//! The links the workloads run, and how their inputs are made.
//!
//! Each link's channel realization (capture seed: sensor noise and the
//! camera's clock phase against the transmitter) is part of the workload's
//! definition. The phase alone sets where the inter-frame gap cuts every
//! packet, and with it most of the link's goodput, so a seed-drawn phase
//! would make goodput differ by a fifth from one seed to the next. The
//! workload seed draws the data: payloads through
//! [`LinkSimulator::random_payload`], raw symbol streams through
//! [`Transmitter::transmit_raw`].
//!
//! The first set-up repetition captures through the simulator's own
//! `prepare_*`; later ones redo its capture step from outside (transmit,
//! settle exposure, one `capture_video` call per frame) so each camera
//! call can be timed. Both must produce identical frames.

use crate::trace::Trace;
use colorbars_camera::{CameraRig, CaptureConfig, DeviceProfile, Frame};
use colorbars_channel::OpticalChannel;
use colorbars_core::{
    start_phase, CapturedRun, LinkConfig, LinkSimulator, Receiver, Transmission, Transmitter,
};
use colorbars_led::LedEmitter;

/// Symbol rate of every link (the paper's mid-grid point).
pub const RATE_HZ: f64 = 3000.0;

/// Frames `LinkSimulator` lets auto-exposure settle for before capturing.
const SETTLE_FRAMES: usize = 12;

/// One transmitter → channel → camera → receiver chain.
#[derive(Debug)]
pub struct Link {
    pub label: &'static str,
    /// Position in the workload; per-link statistics are grouped by it.
    pub slot: u64,
    pub sim: LinkSimulator,
    pub capture: CaptureConfig,
    /// Raw mode: no RS at either end (the paper's SER measurement).
    pub raw: bool,
}

impl Link {
    pub fn new(
        label: &'static str,
        slot: u64,
        device: DeviceProfile,
        config: LinkConfig,
        capture_seed: u64,
        raw: bool,
    ) -> Result<Link, String> {
        // Single-threaded capture, as `LinkSimulator::paper_setup`: the
        // benchmark's timings should not depend on what else the machine runs.
        let capture = CaptureConfig {
            seed: capture_seed,
            threads: 1,
            ..CaptureConfig::default()
        };
        let sim = LinkSimulator::new(config, device, OpticalChannel::paper_setup(), capture)
            .map_err(|e| format!("link {label}: {e}"))?;
        Ok(Link {
            label,
            slot,
            sim,
            capture,
            raw,
        })
    }

    /// A fresh receiver of the link's mode.
    pub fn receiver(&self) -> Result<Receiver, String> {
        if self.raw {
            self.sim.receiver_raw()
        } else {
            self.sim.receiver()
        }
        .map_err(|e| format!("link {}: {e}", self.label))
    }
}

/// splitmix64 of `seed` and a salt: independent sub-seeds per input.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The two links of the decode workloads.
///
/// * A: Nexus 5, 8-CSK, 3 kHz, per-packet RS.
/// * B: iPhone 5S, 16-CSK, 3 kHz, interleaved RS at depth 8.
///
/// Their capture seeds are two of the bench harness's standard seeds,
/// chosen because their goodput sits near the median over phases.
pub fn decode_links() -> Result<[Link; 2], String> {
    use colorbars_core::CskOrder;
    let nexus = DeviceProfile::nexus5();
    let iphone = DeviceProfile::iphone5s();
    let a = LinkConfig::paper_default(CskOrder::Csk8, RATE_HZ, nexus.loss_ratio());
    let b = LinkConfig::paper_default(CskOrder::Csk16, RATE_HZ, iphone.loss_ratio()).with_fec(8);
    Ok([
        Link::new("A", 0, nexus, a, 177, false)?,
        Link::new("B", 1, iphone, b, 63, false)?,
    ])
}

/// A coded clip of ~`airtime` seconds of random payload.
pub fn capture_clip(
    link: &Link,
    airtime: f64,
    payload_seed: u64,
    outside: bool,
    trace: &mut Trace,
    parent: Option<usize>,
) -> Result<CapturedRun, String> {
    let fail = |e: colorbars_core::LinkError| format!("link {}: {e}", link.label);
    let payload = link
        .sim
        .random_payload(airtime, payload_seed)
        .map_err(fail)?;
    if !outside {
        return link.sim.prepare_data(&payload).map_err(fail);
    }
    let sent = trace.time("transmitter.transmit", 0, parent, || {
        let tx = Transmitter::new(link.sim.config().clone())?;
        let transmission = tx.transmit(&payload);
        let emitter = tx.schedule(&transmission);
        Ok((transmission, emitter))
    });
    let (transmission, emitter) = sent.map_err(fail)?;
    Ok(capture_outside(link, transmission, &emitter, trace, parent))
}

/// A raw (uncoded) run of `airtime` seconds of random symbols.
pub fn capture_raw(
    link: &Link,
    airtime: f64,
    symbol_seed: u64,
    outside: bool,
    trace: &mut Trace,
    parent: Option<usize>,
) -> Result<CapturedRun, String> {
    let fail = |e: colorbars_core::LinkError| format!("link {}: {e}", link.label);
    if !outside {
        return link.sim.prepare_raw(airtime, symbol_seed).map_err(fail);
    }
    let config = link.sim.config();
    let sent = trace.time("transmitter.transmit", 0, parent, || {
        let transmission = Transmitter::transmit_raw(config, airtime, symbol_seed)?;
        let emitter = Transmitter::schedule_for(config, &transmission);
        Ok((transmission, emitter))
    });
    let (transmission, emitter) = sent.map_err(fail)?;
    Ok(capture_outside(link, transmission, &emitter, trace, parent))
}

/// `LinkSimulator`'s capture step, redone from outside: settle exposure,
/// then capture at the seed's clock phase. `capture_video(t, 1)` per frame
/// computes the same frame times as one `capture_video(phase, n)` call.
fn capture_outside(
    link: &Link,
    transmission: Transmission,
    emitter: &LedEmitter,
    trace: &mut Trace,
    parent: Option<usize>,
) -> CapturedRun {
    let device = link.sim.device();
    let airtime = transmission.duration(link.sim.config().symbol_rate);
    let mut rig = CameraRig::new(device.clone(), OpticalChannel::paper_setup(), link.capture);
    trace.time("camera.settle_exposure", 0, parent, || {
        rig.settle_exposure(emitter, SETTLE_FRAMES)
    });
    let period = device.frame_period();
    let phase = start_phase(link.capture.seed, period);
    let n = ((airtime * device.fps).ceil() as usize).max(1);
    let mut frames = Vec::with_capacity(n);
    for k in 0..n {
        let t = phase + k as f64 * period;
        let mut one = trace.time("camera.capture_frame", k as u64, parent, || {
            rig.capture_video(emitter, t, 1)
        });
        frames.extend(one.pop());
    }
    CapturedRun {
        transmission,
        frames,
        airtime,
    }
}

/// FNV-1a digest of each frame's metadata and pixels: what `Frame ==`
/// compares, without keeping two captures alive to compare them.
pub fn digest(frames: &[Frame]) -> Vec<u64> {
    frames
        .iter()
        .map(|f| {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            let mut eat = |bytes: &[u8]| {
                for &b in bytes {
                    h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
                }
            };
            let m = &f.meta;
            eat(&(m.index as u64).to_le_bytes());
            for x in [m.start_time, m.exposure, m.iso, m.row_time] {
                eat(&x.to_bits().to_le_bytes());
            }
            eat(&(f.width() as u64).to_le_bytes());
            for row in f.rows() {
                for px in row {
                    eat(px);
                }
            }
            h
        })
        .collect()
}
