//! End-to-end link simulation and the paper's evaluation metrics.
//!
//! [`LinkSimulator`] wires the full chain: transmitter → tri-LED schedule →
//! optical channel → rolling-shutter camera rig → receiver, and measures
//! the three quantities of Section 8:
//!
//! * **Symbol error rate** — each demodulated band's center row has a known
//!   mid-exposure timestamp; the transmission schedule gives the symbol that
//!   was on air at that instant; mismatches on color bands are symbol
//!   errors (no error correction involved).
//! * **Raw throughput** — data symbols received inside parsed data packets
//!   (illumination whites excluded) × bits/symbol / airtime. No RS credit.
//! * **Goodput** — RS-recovered *and verified-correct* chunk bytes × 8 /
//!   airtime. Failed or misdecoded packets contribute nothing.
//!
//! The simulator also measures the realized inter-frame loss ratio the way
//! Table 1 does: symbols received per second vs symbols transmitted.

use crate::config::LinkConfig;
use crate::error::LinkError;
use crate::receiver::{Receiver, ReceiverReport};
use crate::symbol::Symbol;
use crate::transmitter::{Transmission, Transmitter};
use colorbars_camera::{CameraRig, CaptureConfig, DeviceProfile};
use colorbars_channel::OpticalChannel;
use colorbars_led::LedEmitter;
use colorbars_obs as obs;

/// Metrics from one link run.
#[derive(Debug, Clone)]
pub struct LinkMetrics {
    /// Symbol error rate over color bands with known ground truth.
    pub ser: f64,
    /// Color bands compared for SER.
    pub ser_bands: usize,
    /// Counterfactual SER of the plain nearest-neighbor classifier over
    /// the same bands. Equals `ser` when no equalizer is active; the gap
    /// is the equalizer's net win (DESIGN.md §15).
    pub ser_nn: f64,
    /// Bands the active classifier got wrong but nearest-neighbor got
    /// right — errors *introduced* by the equalizer (doctor attribution:
    /// equalizer-miss).
    pub eq_misses: usize,
    /// Bands the active classifier got right but nearest-neighbor got
    /// wrong — errors the equalizer *fixed* (doctor attribution:
    /// equalizer-rescue).
    pub eq_rescues: usize,
    /// Bands both classifiers got wrong — residual channel loss no
    /// classifier choice can recover (doctor attribution: channel loss).
    pub channel_losses: usize,
    /// Raw throughput, bits/second.
    pub throughput_bps: f64,
    /// Goodput, bits/second (verified-correct recovered bytes).
    pub goodput_bps: f64,
    /// Bands of any kind detected per second — Table 1's "symbols received
    /// per second".
    pub symbols_received_per_sec: f64,
    /// Implied inter-frame loss ratio: `1 − received/transmitted`.
    pub loss_ratio: f64,
    /// Airtime of the transmission, seconds.
    pub airtime: f64,
    /// Data packets decoded / total data packets transmitted.
    pub packet_delivery: f64,
    /// The raw receiver report for deeper inspection.
    pub report: ReceiverReport,
}

/// One transmission captured through the channel and camera, not yet
/// demodulated: the decode-side half of a link run.
///
/// [`LinkSimulator::prepare_data`] / [`LinkSimulator::prepare_raw`] produce
/// one; [`LinkSimulator::decode`] consumes it through a batch receiver,
/// while streaming consumers ([`crate::session::LinkSession`]) push
/// `frames` one at a time and score the resulting report with
/// [`LinkSimulator::score`]. Both paths see byte-identical frames, so
/// their reports are comparable with `==`.
#[derive(Debug)]
pub struct CapturedRun {
    /// The ground-truth transmission (schedule, packets, data chunks).
    pub transmission: Transmission,
    /// Every captured frame, in order.
    pub frames: Vec<colorbars_camera::Frame>,
    /// Wire duration of the transmission, seconds.
    pub airtime: f64,
}

/// One transmitter + channel + camera + receiver, ready to run workloads.
#[derive(Debug)]
pub struct LinkSimulator {
    config: LinkConfig,
    device: DeviceProfile,
    channel: OpticalChannel,
    capture: CaptureConfig,
}

impl LinkSimulator {
    /// Assemble a simulator. The link's RS plan is sized for the device's
    /// actual loss ratio (the transmitter would be configured with the
    /// measured Table-1 value in deployment).
    pub fn new(
        mut config: LinkConfig,
        device: DeviceProfile,
        channel: OpticalChannel,
        capture: CaptureConfig,
    ) -> Result<LinkSimulator, LinkError> {
        // Keep the plan honest: the configured loss ratio should match the
        // receiver actually in use.
        config.loss_ratio = device.loss_ratio();
        config.validate()?;
        Ok(LinkSimulator {
            config,
            device,
            channel,
            capture,
        })
    }

    /// The paper's bench setup for a device at an operating point.
    pub fn paper_setup(
        order: crate::constellation::CskOrder,
        symbol_rate: f64,
        device: DeviceProfile,
        seed: u64,
    ) -> Result<LinkSimulator, LinkError> {
        let config = LinkConfig::paper_default(order, symbol_rate, device.loss_ratio());
        let capture = CaptureConfig {
            seed,
            ..CaptureConfig::default()
        };
        LinkSimulator::new(config, device, OpticalChannel::paper_setup(), capture)
    }

    /// Link configuration in force.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Device profile in use.
    pub fn device(&self) -> &DeviceProfile {
        &self.device
    }

    /// Transmit `data` and capture/demodulate the whole airtime.
    ///
    /// Auto-exposure is settled on the live signal before capture starts
    /// (phones run their preview loop before an app starts decoding), by
    /// replaying the transmission's first portion.
    pub fn run_data(&self, data: &[u8]) -> Result<LinkMetrics, LinkError> {
        let _span = obs::span!("link.run_data");
        let run = self.prepare_data(data)?;
        let rx = self.receiver()?;
        Ok(self.decode(&run, rx))
    }

    /// Convenience: run a pseudorandom payload of ~`seconds` airtime.
    pub fn run_random(&self, seconds: f64, seed: u64) -> Result<LinkMetrics, LinkError> {
        let data = self.random_payload(seconds, seed)?;
        self.run_data(&data)
    }

    /// The pseudorandom payload [`run_random`] transmits: one k-byte data
    /// packet per non-calibration frame slot over ~`seconds` of airtime.
    /// Exposed so streaming harnesses can transmit the identical payload
    /// and compare recovered bytes against it.
    ///
    /// [`run_random`]: LinkSimulator::run_random
    pub fn random_payload(&self, seconds: f64, seed: u64) -> Result<Vec<u8>, LinkError> {
        use rand::{Rng, SeedableRng};
        let tx = Transmitter::new(self.config.clone())?;
        // One data packet per frame period, k bytes each; calibration
        // packets take ~5 frame slots per second.
        let budget = tx.budget();
        let packets_per_sec = (self.config.frame_rate - self.config.calibration_rate).max(1.0);
        let data_bytes = (packets_per_sec * seconds) as usize * budget.k_bytes;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Ok((0..data_bytes.max(budget.k_bytes))
            .map(|_| rng.gen())
            .collect())
    }

    /// Run the paper's *uncoded* measurement (Figs 9–10): random symbols,
    /// no error correction at either end. Returns metrics whose SER and
    /// raw throughput are meaningful; goodput is always 0 here. Works at
    /// every operating point, including RS-unrealizable ones.
    pub fn run_raw(&self, seconds: f64, seed: u64) -> Result<LinkMetrics, LinkError> {
        let _span = obs::span!("link.run_raw");
        let run = self.prepare_raw(seconds, seed)?;
        let rx = self.receiver_raw()?;
        Ok(self.decode(&run, rx))
    }

    /// Transmit `data` and capture the whole airtime, returning the frames
    /// *without* demodulating them — the capture half of [`run_data`],
    /// split out so streaming consumers can feed the identical frames
    /// through a [`crate::session::LinkSession`] one at a time.
    ///
    /// [`run_data`]: LinkSimulator::run_data
    pub fn prepare_data(&self, data: &[u8]) -> Result<CapturedRun, LinkError> {
        let tx = Transmitter::new(self.config.clone())?;
        let transmission = tx.transmit(data);
        let emitter = tx.schedule(&transmission);
        Ok(self.capture_run(transmission, &emitter))
    }

    /// The capture half of [`run_raw`]: random symbols, no coding, frames
    /// returned undemodulated.
    ///
    /// [`run_raw`]: LinkSimulator::run_raw
    pub fn prepare_raw(&self, seconds: f64, seed: u64) -> Result<CapturedRun, LinkError> {
        let transmission = Transmitter::transmit_raw(&self.config, seconds, seed)?;
        let emitter = Transmitter::schedule_for(&self.config, &transmission);
        Ok(self.capture_run(transmission, &emitter))
    }

    /// A coded-mode receiver for this link (the decode side of
    /// [`LinkSimulator::run_data`]).
    pub fn receiver(&self) -> Result<Receiver, LinkError> {
        Receiver::new(self.config.clone(), self.device.row_time())
    }

    /// A raw-mode receiver for this link (the decode side of
    /// [`LinkSimulator::run_raw`]).
    pub fn receiver_raw(&self) -> Result<Receiver, LinkError> {
        Receiver::new_raw(self.config.clone(), self.device.row_time())
    }

    /// Demodulate a captured run through `rx` in one batch and score it.
    pub fn decode(&self, run: &CapturedRun, mut rx: Receiver) -> LinkMetrics {
        {
            let _demod = obs::span!("link.demodulate");
            for f in &run.frames {
                rx.process_frame(f);
            }
        }
        self.score(run, rx.finish())
    }

    /// Score any receive report (batch or streaming) against a captured
    /// run's ground truth with the paper's metric semantics.
    pub fn score(&self, run: &CapturedRun, report: ReceiverReport) -> LinkMetrics {
        compute_metrics(
            &self.config,
            self.device.fps,
            &run.transmission,
            report,
            run.airtime,
        )
    }

    /// The shared settle/capture body behind [`prepare_data`] and
    /// [`prepare_raw`] — the single integration point a scene-aware caller
    /// replaces when the emitter is one of several on the sensor.
    ///
    /// Auto-exposure is settled on the live signal first (phones run their
    /// preview loop before an app starts decoding), then the whole airtime
    /// is captured.
    ///
    /// [`prepare_data`]: LinkSimulator::prepare_data
    /// [`prepare_raw`]: LinkSimulator::prepare_raw
    fn capture_run(&self, transmission: Transmission, emitter: &LedEmitter) -> CapturedRun {
        let airtime = transmission.duration(self.config.symbol_rate);
        let mut rig = CameraRig::new(self.device.clone(), self.channel.clone(), self.capture);
        rig.settle_exposure(emitter, 12);

        // Transmitter and camera clocks are unsynchronized: the capture
        // starts at a seed-derived phase within one frame period. With the
        // frame-locked packet sizing the inter-frame gap then sits at a
        // random but *fixed* offset inside every packet, exactly as on the
        // prototype (whose independent oscillators drift only slowly).
        // Experiments average over seeds to sample the phase distribution.
        let phase = self.start_phase();
        let frames_needed = (airtime * self.device.fps).ceil() as usize;
        let frames = {
            let _capture = obs::span!("link.capture");
            rig.capture_video(emitter, phase, frames_needed.max(1))
        };
        CapturedRun {
            transmission,
            frames,
            airtime,
        }
    }

    /// Seed-derived capture phase in `[0, frame period)` (see the module
    /// function [`start_phase`]).
    fn start_phase(&self) -> f64 {
        start_phase(self.capture.seed, self.device.frame_period())
    }
}

/// Seed-derived capture phase in `[0, frame_period)`: a SplitMix64 hash of
/// the capture seed mapped onto one frame period, so different seeds sample
/// different transmitter/camera clock offsets. Shared by the single-link
/// simulator and the multi-transmitter scene harness so both sample the
/// same phase distribution for the same seed.
pub fn start_phase(seed: u64, frame_period: f64) -> f64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z as f64 / u64::MAX as f64) * frame_period
}

/// Compute the paper's evaluation metrics for one receive run against the
/// transmission's ground truth.
///
/// This is the measurement half of [`LinkSimulator`], exposed as a free
/// function so per-region reports of a multi-transmitter scene can be
/// scored with exactly the single-link semantics. `fps` is the capturing
/// device's frame rate (the Table-1 counters are per realized capture
/// second); `airtime` is the transmission's wire duration.
pub fn compute_metrics(
    config: &LinkConfig,
    fps: f64,
    transmission: &Transmission,
    report: ReceiverReport,
    airtime: f64,
) -> LinkMetrics {
    // --- SER: band center timestamps vs the schedule. Bands whose
    // center exposure window straddles a symbol boundary are still
    // compared (the paper's receiver faces the same ambiguity).
    let mut ser_bands = 0usize;
    let mut ser_errors = 0usize;
    let mut nn_errors = 0usize;
    let mut eq_misses = 0usize;
    let mut eq_rescues = 0usize;
    let mut channel_losses = 0usize;
    for b in &report.bands {
        // The paper's receivers start demodulating only after the first
        // calibration packet (Section 6); bootstrap bands are excluded.
        if !b.calibrated {
            continue;
        }
        let Some(truth) = transmission.symbol_at(b.timestamp, config.symbol_rate) else {
            continue;
        };
        if let Symbol::Color(truth_idx) = truth {
            // The demodulated value for a data band is its nearest
            // constellation color (whites are removed by position, so
            // the White class never shadows near-white data colors).
            ser_bands += 1;
            let eq_wrong = b.color_idx != truth_idx;
            let nn_wrong = b.nn_idx != truth_idx;
            if eq_wrong {
                ser_errors += 1;
            }
            if nn_wrong {
                nn_errors += 1;
            }
            // Doctor attribution: the always-computed nearest-neighbor
            // counterfactual splits every symbol error three ways.
            match (eq_wrong, nn_wrong) {
                (true, false) => eq_misses += 1,
                (false, true) => eq_rescues += 1,
                (true, true) => channel_losses += 1,
                (false, false) => {}
            }
        }
    }
    let rate = |errors: usize| {
        if ser_bands > 0 {
            errors as f64 / ser_bands as f64
        } else {
            0.0
        }
    };
    let ser = rate(ser_errors);
    let ser_nn = rate(nn_errors);

    // --- Raw throughput (Section 8: "the number of symbols received
    // excluding the illumination symbols of white light", no error
    // correction): every received non-OFF band, discounted by the
    // white-illumination ratio, at C bits per symbol.
    let c = config.order.bits_per_symbol() as f64;
    let off_bands = report.bands.iter().filter(|b| b.label.is_off()).count();
    let received_non_off = report.stats.bands.saturating_sub(off_bands) as f64;
    let data_share = 1.0 - config.white_ratio();
    let throughput_bps = received_non_off * data_share * c / airtime;

    // --- Goodput: verified-correct recovered chunks. Each transmitted
    // chunk can be credited at most once (`matched`), so duplicate payloads
    // in the data cannot be double-counted by repeated receptions.
    let truth_chunks = transmission.data_chunks();
    let mut correct_bytes = 0usize;
    let mut matched = vec![false; truth_chunks.len()];
    for chunk in &report.chunks {
        if let Some(pos) = truth_chunks
            .iter()
            .enumerate()
            .position(|(i, t)| !matched[i] && *t == &chunk[..])
        {
            matched[pos] = true;
            correct_bytes += chunk.len();
        }
    }
    let goodput_bps = correct_bytes as f64 * 8.0 / airtime;

    // --- Table-1 style counters, over the *realized* capture duration
    // (frames actually captured / fps). The capture rounds the airtime up
    // to whole frames, so normalizing by airtime would overstate the rate
    // of short runs; zero captured frames yields zero received symbols
    // rather than a divide-by-epsilon artifact.
    let capture_duration = report.stats.frames as f64 / fps;
    let symbols_received_per_sec = if capture_duration > 0.0 {
        report.stats.bands as f64 / capture_duration
    } else {
        0.0
    };
    let transmitted_per_sec = config.symbol_rate;
    let loss_ratio = (1.0 - symbols_received_per_sec / transmitted_per_sec).clamp(0.0, 1.0);

    let data_packets_sent = transmission
        .packets
        .iter()
        .filter(|p| p.chunk.is_some())
        .count();
    let packet_delivery = if data_packets_sent > 0 {
        report.stats.packets_ok as f64 / data_packets_sent as f64
    } else {
        0.0
    };

    LinkMetrics {
        ser,
        ser_bands,
        ser_nn,
        eq_misses,
        eq_rescues,
        channel_losses,
        throughput_bps,
        goodput_bps,
        symbols_received_per_sec,
        loss_ratio,
        airtime,
        packet_delivery,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constellation::CskOrder;
    use colorbars_camera::Vignette;

    /// A small, fast, low-noise setup for unit tests: ideal camera scaled
    /// down to 256 rows, ideal channel.
    fn tiny_sim(order: CskOrder, rate: f64) -> LinkSimulator {
        let mut device = DeviceProfile::ideal();
        device.rows = 512;
        let capture = CaptureConfig {
            roi_width: 8,
            vignette: Vignette::none(),
            seed: 42,
            ..Default::default()
        };
        let config = LinkConfig::paper_default(order, rate, device.loss_ratio());
        LinkSimulator::new(config, device, OpticalChannel::ideal(), capture).unwrap()
    }

    /// An empty report with just the Table-1 counters set.
    fn report_with(frames: usize, bands: usize) -> ReceiverReport {
        ReceiverReport {
            stats: crate::receiver::ReceiverStats {
                frames,
                bands,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn loss_ratio_is_inherited_from_device() {
        let sim = tiny_sim(CskOrder::Csk8, 2000.0);
        assert!((sim.config().loss_ratio - sim.device().loss_ratio()).abs() < 1e-12);
    }

    #[test]
    fn start_phase_stays_inside_frame_period() {
        let period = 1.0 / 30.0;
        for seed in 0..512u64 {
            let phase = start_phase(seed, period);
            assert!(
                (0.0..period).contains(&phase),
                "seed {seed}: phase {phase} outside [0, {period})"
            );
        }
    }

    #[test]
    fn start_phase_is_stable_and_seed_sensitive() {
        let period = 1.0 / 30.0;
        // Fixed seed: identical across calls (captures are reproducible).
        assert_eq!(start_phase(42, period), start_phase(42, period));
        // Distinct seeds sample distinct phases — the whole point of
        // averaging experiments over seeds.
        let phases: std::collections::BTreeSet<u64> = (0..64u64)
            .map(|seed| start_phase(seed, period).to_bits())
            .collect();
        assert_eq!(phases.len(), 64, "64 seeds must give 64 distinct phases");
    }

    #[test]
    fn start_phase_scales_with_frame_period() {
        // The hash maps seed → fraction of one period; the same seed lands
        // at the same fraction of any period.
        let f30 = start_phase(7, 1.0 / 30.0) * 30.0;
        let f60 = start_phase(7, 1.0 / 60.0) * 60.0;
        assert!((f30 - f60).abs() < 1e-12);
    }

    #[test]
    fn symbols_received_per_sec_uses_realized_capture_duration() {
        // Hand-computed Table-1 arithmetic: 900 bands over 45 frames at
        // 30 fps is 1.5 s of realized capture → 600 symbols/s. At a 2 kHz
        // symbol rate the implied loss ratio is 1 − 600/2000 = 0.7.
        let cfg = LinkConfig::paper_default(CskOrder::Csk8, 2000.0, 0.2312);
        let transmission = Transmitter::transmit_raw(&cfg, 0.1, 1).unwrap();
        let report = report_with(45, 900);
        let m = compute_metrics(&cfg, 30.0, &transmission, report, 0.1);
        assert!((m.symbols_received_per_sec - 600.0).abs() < 1e-9);
        assert!((m.loss_ratio - 0.7).abs() < 1e-12, "loss {}", m.loss_ratio);

        // Zero captured frames: no symbols and total loss, not a
        // divide-by-epsilon artifact.
        let empty = ReceiverReport::default();
        let transmission = Transmitter::transmit_raw(&cfg, 0.1, 1).unwrap();
        let m = compute_metrics(&cfg, 30.0, &transmission, empty, 0.1);
        assert_eq!(m.symbols_received_per_sec, 0.0);
        assert_eq!(m.loss_ratio, 1.0);

        // A receiver that sees every transmitted symbol clamps at 0 loss.
        let transmission = Transmitter::transmit_raw(&cfg, 0.1, 1).unwrap();
        let m = compute_metrics(&cfg, 30.0, &transmission, report_with(30, 2000), 0.1);
        assert_eq!(m.loss_ratio, 0.0);
    }

    #[test]
    fn duplicate_payload_chunks_are_each_credited_once() {
        // Two transmitted packets carry byte-identical chunks. Three
        // received copies must credit goodput for exactly two — the
        // `matched[]` bookkeeping may not double-spend a truth chunk.
        let cfg = LinkConfig::paper_default(CskOrder::Csk8, 2000.0, 0.2312);
        let tx = Transmitter::new(cfg.clone()).unwrap();
        let k = tx.budget().k_bytes;
        let chunk: Vec<u8> = (0..k).map(|i| (i % 251) as u8).collect();
        let mut data = chunk.clone();
        data.extend_from_slice(&chunk);
        let transmission = tx.transmit(&data);
        assert_eq!(transmission.data_chunks().len(), 2, "two identical chunks");

        let report = ReceiverReport {
            chunks: vec![chunk.clone(), chunk.clone(), chunk.clone()],
            ..Default::default()
        };
        let airtime = transmission.duration(cfg.symbol_rate);
        let m = compute_metrics(&cfg, 30.0, &transmission, report, airtime);
        let want = (2 * k) as f64 * 8.0 / airtime;
        assert!(
            (m.goodput_bps - want).abs() < 1e-9,
            "goodput {} want {want} (third copy must not be credited)",
            m.goodput_bps
        );

        // One received copy credits exactly one of the duplicates.
        let report = ReceiverReport {
            chunks: vec![chunk.clone()],
            ..Default::default()
        };
        let transmission = tx.transmit(&data);
        let m = compute_metrics(&cfg, 30.0, &transmission, report, airtime);
        let want = k as f64 * 8.0 / airtime;
        assert!((m.goodput_bps - want).abs() < 1e-9);
    }

    // End-to-end decode behaviour is exercised by the (release-mode)
    // integration tests in /tests; the debug-mode unit tests here check
    // wiring and metric arithmetic on a tiny configuration.
    #[test]
    fn tiny_link_runs_and_reports() {
        let sim = tiny_sim(CskOrder::Csk8, 1000.0);
        let plan = Transmitter::new(sim.config().clone()).unwrap();
        let k = plan.budget().k_bytes;
        let data: Vec<u8> = (0..k as u8).collect();
        let m = sim.run_data(&data).unwrap();
        assert!(m.airtime > 0.0);
        assert!(m.report.stats.frames > 0);
        assert!(m.ser >= 0.0 && m.ser <= 1.0);
        assert!(m.loss_ratio >= 0.0 && m.loss_ratio <= 1.0);
    }
}
