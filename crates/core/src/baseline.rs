//! The baselines ColorBars is compared against (paper Sections 2.1 and 9):
//! On-Off Keying and Frequency Shift Keying over the same rolling-shutter
//! camera channel.
//!
//! * **OOK** — one bit per symbol slot: LED ON (white) = 1, OFF = 0
//!   (Fig 1(b) left). Simple, but ambient-noise sensitive and flickery for
//!   long runs of equal bits; the paper cites it as the least robust.
//! * **FSK** — one of M frequencies per symbol slot: the LED blinks at
//!   `f_k` for the whole slot, and the camera sees a frame region striped
//!   at that frequency (Fig 1(b) middle). This is the scheme of the
//!   paper's quantitative baselines (\[1\] RollingLight ≈ 11.32 bytes/s,
//!   \[2\] ≈ 1.25 bytes/s): robust, but each symbol needs *many* bands, so
//!   the symbol duration is long and throughput low — exactly the
//!   limitation CSK removes by carrying `log2(M)` bits in a *single* band.
//!
//! Both are implemented against the same `LedEmitter`/`CameraRig`
//! substrate as ColorBars, so the `coded_grid` bench compares all
//! three under identical physics.

use crate::segmentation::row_signal;
use colorbars_camera::Frame;
use colorbars_led::{DriveLevels, LedEmitter, ScheduledColor, TriLed};

/// On-Off Keying modulator: one bit per slot of `1/bit_rate` seconds.
#[derive(Debug, Clone)]
pub struct OokModulator {
    led: TriLed,
    /// Bits per second.
    pub bit_rate: f64,
    /// PWM carrier for the ON state.
    pub pwm_frequency: f64,
}

impl OokModulator {
    /// Build a modulator around a tri-LED (driven white for ON).
    pub fn new(led: TriLed, bit_rate: f64) -> OokModulator {
        assert!(
            bit_rate.is_finite() && bit_rate > 0.0,
            "bit rate must be positive"
        );
        OokModulator {
            led,
            bit_rate,
            pwm_frequency: 200_000.0,
        }
    }

    /// Schedule a bit sequence.
    ///
    /// # Panics
    /// Panics on an empty bit sequence.
    pub fn schedule(&self, bits: &[bool]) -> LedEmitter {
        assert!(!bits.is_empty(), "cannot schedule zero bits");
        let duration = 1.0 / self.bit_rate;
        let on = DriveLevels::new(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0);
        let slots: Vec<ScheduledColor> = bits
            .iter()
            .map(|&b| ScheduledColor {
                drive: if b { on } else { DriveLevels::OFF },
                duration,
            })
            .collect();
        LedEmitter::new(self.led, self.pwm_frequency, &slots)
    }
}

/// Demodulate OOK from a captured frame: sample the lightness at each bit
/// slot's center row and threshold at the midpoint of the frame's dark and
/// bright levels. Returns `(bit_index, bit)` pairs for the bits whose
/// center fell inside this frame's readout.
pub fn decode_ook(frame: &Frame, bit_rate: f64) -> Vec<(usize, bool)> {
    let signal = row_signal(frame);
    if signal.is_empty() {
        return Vec::new();
    }
    let lmin = signal.iter().map(|l| l.l).fold(f64::INFINITY, f64::min);
    let lmax = signal.iter().map(|l| l.l).fold(f64::NEG_INFINITY, f64::max);
    if lmax - lmin < 5.0 {
        return Vec::new(); // no modulation visible
    }
    let threshold = 0.5 * (lmin + lmax);
    let meta = &frame.meta;
    let mut out = Vec::new();
    let rows = signal.len();
    // Which bit slots have their center inside this frame's row span?
    let t_first = meta.row_timestamp(0);
    let t_last = meta.row_timestamp(rows - 1);
    let first_bit = (t_first * bit_rate).ceil() as usize;
    let last_bit = (t_last * bit_rate).floor() as usize;
    for bit_idx in first_bit..=last_bit {
        let t_center = (bit_idx as f64 + 0.5) / bit_rate;
        let row =
            ((t_center - meta.start_time - meta.exposure / 2.0) / meta.row_time).round() as i64;
        if row < 0 || row as usize >= rows {
            continue;
        }
        out.push((bit_idx, signal[row as usize].l > threshold));
    }
    out
}

/// Frequency Shift Keying modulator: each symbol blinks the LED at one of
/// `frequencies` for `symbol_duration` seconds (a 50% duty square wave).
#[derive(Debug, Clone)]
pub struct FskModulator {
    led: TriLed,
    /// The frequency alphabet, Hz (one symbol = `log2(len)` bits).
    pub frequencies: Vec<f64>,
    /// Symbol slot length, seconds. The paper's baselines use about one
    /// camera frame per symbol.
    pub symbol_duration: f64,
    /// PWM carrier for the ON half-cycles.
    pub pwm_frequency: f64,
}

impl FskModulator {
    /// The configuration of the paper's primary baseline (\[1\],
    /// RollingLight-class): 8 frequencies (3 bits/symbol), one symbol per
    /// 30 fps camera frame → 90 bps ≈ 11 bytes/s.
    pub fn paper_baseline(led: TriLed) -> FskModulator {
        FskModulator {
            led,
            // Spaced so adjacent symbols differ by ≥ 2 bands per frame and
            // every band stays ≥ 10 px on the Nexus 5 (≤ ~4 kHz edges).
            frequencies: vec![600.0, 800.0, 1000.0, 1250.0, 1550.0, 1900.0, 2300.0, 2800.0],
            symbol_duration: 1.0 / 30.0,
            pwm_frequency: 200_000.0,
        }
    }

    /// Bits per FSK symbol.
    pub fn bits_per_symbol(&self) -> u32 {
        (self.frequencies.len() as f64).log2().floor() as u32
    }

    /// Schedule a symbol-index sequence. Each index selects a frequency;
    /// the slot is filled with ON/OFF half-cycles of that frequency.
    ///
    /// # Panics
    /// Panics on an empty sequence or out-of-range index.
    pub fn schedule(&self, symbols: &[usize]) -> LedEmitter {
        assert!(!symbols.is_empty(), "cannot schedule zero symbols");
        let on = DriveLevels::new(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0);
        let mut slots = Vec::new();
        for &s in symbols {
            let f = self.frequencies[s];
            let half = 1.0 / (2.0 * f);
            let cycles = (self.symbol_duration * f).floor() as usize;
            for _ in 0..cycles {
                slots.push(ScheduledColor {
                    drive: on,
                    duration: half,
                });
                slots.push(ScheduledColor {
                    drive: DriveLevels::OFF,
                    duration: half,
                });
            }
            // Pad the slot remainder with ON (keeps mean brightness up).
            let used = cycles as f64 / f;
            let rest = self.symbol_duration - used;
            if rest > 1e-9 {
                slots.push(ScheduledColor {
                    drive: on,
                    duration: rest,
                });
            }
        }
        LedEmitter::new(self.led, self.pwm_frequency, &slots)
    }

    /// Demodulate the FSK symbol visible in a frame: count dark↔bright
    /// transitions of the row-lightness signal and convert to a blink
    /// frequency via the row clock; pick the nearest alphabet entry.
    ///
    /// Returns `None` when no clean modulation is visible (e.g. the frame
    /// straddles two symbols with very different frequencies).
    pub fn decode_frame(&self, frame: &Frame) -> Option<usize> {
        let signal = row_signal(frame);
        if signal.len() < 16 {
            return None;
        }
        let lmin = signal.iter().map(|l| l.l).fold(f64::INFINITY, f64::min);
        let lmax = signal.iter().map(|l| l.l).fold(f64::NEG_INFINITY, f64::max);
        if lmax - lmin < 5.0 {
            return None;
        }
        let threshold = 0.5 * (lmin + lmax);
        // Hysteresis’d transition count.
        let band = 0.15 * (lmax - lmin);
        let mut state = signal[0].l > threshold;
        let mut transitions = 0usize;
        for l in &signal {
            if state && l.l < threshold - band {
                state = false;
                transitions += 1;
            } else if !state && l.l > threshold + band {
                state = true;
                transitions += 1;
            }
        }
        // Each blink cycle is two transitions; rows span readout seconds.
        let readout = frame.meta.row_time * signal.len() as f64;
        let est_freq = transitions as f64 / (2.0 * readout);
        let (best, _) = self
            .frequencies
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                (est_freq - **a)
                    .abs()
                    .partial_cmp(&(est_freq - **b).abs())
                    .unwrap()
            })?;
        // Reject wildly off estimates (mixed-symbol frames).
        let chosen = self.frequencies[best];
        if (est_freq - chosen).abs() / chosen > 0.12 {
            return None;
        }
        Some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colorbars_camera::{
        AutoExposure, CameraRig, CaptureConfig, DeviceProfile, ExposureSettings, Vignette,
    };
    use colorbars_channel::OpticalChannel;

    fn quiet_rig() -> CameraRig {
        let mut rig = CameraRig::new(
            DeviceProfile::ideal(),
            OpticalChannel::ideal(),
            CaptureConfig {
                roi_width: 8,
                vignette: Vignette::none(),
                seed: 5,
                ..Default::default()
            },
        );
        rig.set_exposure_controller(AutoExposure::locked(ExposureSettings {
            exposure: 60e-6,
            iso: 100.0,
        }));
        rig
    }

    #[test]
    fn ook_round_trips_over_the_camera() {
        // 300 bps on a 30 fps camera: ~7-8 bits land inside each readout.
        let led = TriLed::typical();
        let modem = OokModulator::new(led, 300.0);
        let bits: Vec<bool> = (0..300).map(|i| (i * 7 + 2) % 3 != 0).collect();
        let emitter = modem.schedule(&bits);
        let mut rig = quiet_rig();
        let frames = rig.capture_video(&emitter, 0.0, 8);
        let mut decoded = std::collections::BTreeMap::new();
        for f in &frames {
            for (idx, bit) in decode_ook(f, 300.0) {
                decoded.insert(idx, bit);
            }
        }
        assert!(
            decoded.len() > 40,
            "enough bits received: {}",
            decoded.len()
        );
        let errors = decoded
            .iter()
            .filter(|(idx, bit)| bits.get(**idx).map(|b| b != *bit).unwrap_or(false))
            .count();
        assert!(
            (errors as f64) < 0.02 * decoded.len() as f64,
            "{errors} errors in {} bits",
            decoded.len()
        );
    }

    #[test]
    fn fsk_symbols_round_trip_per_frame() {
        let led = TriLed::typical();
        let modem = FskModulator::paper_baseline(led);
        assert_eq!(modem.bits_per_symbol(), 3);
        // One symbol per frame period; frames aligned to symbol slots.
        let symbols = vec![0usize, 7, 3, 5, 1, 6, 2, 4];
        let emitter = modem.schedule(&symbols);
        let mut rig = quiet_rig();
        let mut correct = 0;
        let mut seen = 0;
        for (i, &truth) in symbols.iter().enumerate() {
            let frame = rig.capture_frame(&emitter, i as f64 * modem.symbol_duration);
            if let Some(got) = modem.decode_frame(&frame) {
                seen += 1;
                if got == truth {
                    correct += 1;
                }
            }
        }
        assert!(seen >= 6, "most frames decode: {seen}");
        assert!(correct >= seen - 1, "{correct}/{seen} correct");
    }

    #[test]
    fn fsk_rejects_unmodulated_frames() {
        let led = TriLed::typical();
        let modem = FskModulator::paper_baseline(led);
        // Steady white: no frequency visible.
        let on = DriveLevels::new(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0);
        let emitter = LedEmitter::new(
            led,
            200_000.0,
            &[ScheduledColor {
                drive: on,
                duration: 1.0,
            }],
        );
        let mut rig = quiet_rig();
        let frame = rig.capture_frame(&emitter, 0.1);
        assert_eq!(modem.decode_frame(&frame), None);
    }

    #[test]
    fn fsk_band_widths_respect_the_10px_rule() {
        // Every alphabet frequency must produce bands ≥ 10 px on both
        // devices (half-cycle duration / row time).
        let modem = FskModulator::paper_baseline(TriLed::typical());
        for dev in [DeviceProfile::nexus5(), DeviceProfile::iphone5s()] {
            for &f in &modem.frequencies {
                let band_px = 1.0 / (2.0 * f * dev.row_time());
                assert!(band_px >= 10.0, "{} at {f} Hz: {band_px:.1} px", dev.name);
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot schedule zero bits")]
    fn empty_ook_panics() {
        let _ = OokModulator::new(TriLed::typical(), 100.0).schedule(&[]);
    }
}
