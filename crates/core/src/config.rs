//! Shared link configuration: the parameters transmitter and receiver agree
//! on out of band.
//!
//! In the prototype these are compile-time constants of the LED firmware
//! and the phone app (symbol rate, modulation order); here they live in one
//! struct that both ends of a simulated link share. The two that every link
//! shares stay constants: the transmitter platform
//! ([`Platform::BEAGLEBONE_BLACK`]) and the white-ratio table
//! ([`WhiteRatioTable::paper_fig3b`]). Everything else the receiver
//! needs — the actual colors as *it* sees them — arrives in-band via
//! calibration packets.

use crate::constellation::{Constellation, CskOrder};
use crate::equalizer::EqualizerKind;
use crate::error::LinkError;
use crate::illumination::{white_count, WhiteRatioTable};
use crate::packet::{max_group_pos, size_field_len, DATA_FLAG, GROUP_POS_DIGITS, IL_FLAG};
use colorbars_led::{Platform, TriLed};
use colorbars_rs::ReedSolomon;

/// Cross-packet interleaving parameters (DESIGN.md §13).
///
/// When set, the transmitter stripes `depth` consecutive packets across
/// `depth` RS codewords ([`colorbars_fec::Interleaver`]) and the budget
/// switches from the paper's error-margin parity (`2t` bits — sized for
/// unknown-location errors) to **erasure-aware** parity: the receiver
/// declares the gap's location, so one erased bit costs one parity bit,
/// not two. The reservation is the gap's data-byte loss plus a
/// [`FEC_ERASURE_MARGIN`] slack plus `n / depth` bytes so a whole lost
/// packet (header destroyed by the gap) stays recoverable per group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FecConfig {
    /// Interleave depth: packets (= RS codewords) per group.
    pub depth: usize,
}

/// Slack multiplier on the expected per-codeword gap erasures, covering
/// byte-boundary straddle and white-position jitter of the gap's
/// data-slot share.
pub const FEC_ERASURE_MARGIN: f64 = 0.25;

/// The agreed link parameters.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// CSK modulation order.
    pub order: CskOrder,
    /// Symbol rate in Hz.
    pub symbol_rate: f64,
    /// The tri-LED transmitter hardware.
    pub led: TriLed,
    /// Camera frame rate the RS plan is sized for.
    pub frame_rate: f64,
    /// Inter-frame loss ratio the RS plan is sized for (measured per
    /// receiver device; the paper notes the *worst* supported device bounds
    /// the whole link).
    pub loss_ratio: f64,
    /// Calibration packets per second (the paper sends 5).
    pub calibration_rate: f64,
    /// Override the data-packet wire length (symbols). `None` (default)
    /// uses the paper's frame-locked sizing, round(S/F). Used by the
    /// packet-sizing ablation bench.
    pub packet_wire_override: Option<usize>,
    /// Use the Gray-like symbol-to-bit mapping (extension; the paper uses
    /// plain binary). Halves the bit errors each symbol error causes.
    pub gray_mapping: bool,
    /// Cross-packet interleaved FEC (extension; `None` = the paper's
    /// per-packet RS framing).
    pub fec: Option<FecConfig>,
    /// Demodulation classifier (extension; DESIGN.md §15).
    /// [`EqualizerKind::NearestNeighbor`] is the paper's classifier; the
    /// learned kinds train a per-link channel correction on each absorbed
    /// calibration preamble and fall back to nearest-neighbor when the
    /// preamble is too degenerate to fit.
    pub equalizer: EqualizerKind,
}

impl LinkConfig {
    /// The paper's default operating point on a given device loss ratio:
    /// typical tri-LED, 5 calibration packets/s, 30 fps.
    pub fn paper_default(order: CskOrder, symbol_rate: f64, loss_ratio: f64) -> LinkConfig {
        LinkConfig {
            order,
            symbol_rate,
            led: TriLed::typical(),
            frame_rate: 30.0,
            loss_ratio,
            calibration_rate: 5.0,
            packet_wire_override: None,
            gray_mapping: false,
            fec: None,
            equalizer: EqualizerKind::NearestNeighbor,
        }
    }

    /// The same operating point with cross-packet interleaving enabled.
    pub fn with_fec(mut self, depth: usize) -> LinkConfig {
        self.fec = Some(FecConfig { depth });
        self
    }

    /// The same operating point with a different demodulation classifier.
    pub fn with_equalizer(mut self, kind: EqualizerKind) -> LinkConfig {
        self.equalizer = kind;
        self
    }

    /// Largest interleave depth this order's wire format can express
    /// (bounded by the group-position field and the interleaver cap).
    pub fn max_fec_depth(&self) -> usize {
        (max_group_pos(self.order) + 1).min(colorbars_fec::MAX_DEPTH)
    }

    /// The constellation for this link (with the Gray bit mapping applied
    /// when configured — both ends derive it identically).
    pub fn constellation(&self) -> Constellation {
        let c = Constellation::ieee_style(self.order, self.led.gamut());
        if self.gray_mapping {
            c.with_gray_mapping()
        } else {
            c
        }
    }

    /// White ratio at the configured symbol rate, from the paper's
    /// Fig 3(b) table.
    pub fn white_ratio(&self) -> f64 {
        WhiteRatioTable::paper_fig3b().ratio_at(self.symbol_rate)
    }

    /// Symbol period in seconds.
    pub fn symbol_period(&self) -> f64 {
        1.0 / self.symbol_rate
    }

    /// Derive the frame-locked packet budget for this configuration.
    pub fn packet_budget(&self) -> Result<PacketBudget, LinkError> {
        PacketBudget::derive(self)
    }

    /// Validate the configuration against the prototype's platform.
    pub fn validate(&self) -> Result<(), LinkError> {
        let platform = Platform::BEAGLEBONE_BLACK;
        if !platform.supports_symbol_rate(self.symbol_rate) {
            return Err(LinkError::UnsupportedSymbolRate {
                platform: platform.name.to_string(),
                rate_hz: self.symbol_rate,
                max_hz: platform.max_symbol_rate,
            });
        }
        if !(0.0..1.0).contains(&self.loss_ratio) {
            return Err(LinkError::LossRatioOutOfRange(self.loss_ratio));
        }
        if self.frame_rate <= 0.0 || !self.frame_rate.is_finite() {
            return Err(LinkError::NonPositiveFrameRate(self.frame_rate));
        }
        if self.calibration_rate < 0.0 {
            return Err(LinkError::NegativeCalibrationRate(self.calibration_rate));
        }
        if let Some(fec) = &self.fec {
            if fec.depth == 0 || fec.depth > self.max_fec_depth() {
                return Err(LinkError::FecDepthUnrealizable {
                    depth: fec.depth,
                    max: self.max_fec_depth(),
                });
            }
        }
        Ok(())
    }
}

/// The frame-locked packet sizing (paper Section 5): "a natural choice of
/// size of the packet \[is\] the total size of a frame and inter-frame gap".
///
/// One data packet occupies exactly one camera frame period on the wire, so
/// the inter-frame gap falls at a *fixed phase* inside every packet: either
/// the header region survives every frame or the receiver notices total
/// loss — it never drifts through headers packet by packet. Given the wire
/// budget, the RS(n, k) dimensions follow: `n` fills the packet's data
/// slots; the parity reserves the paper's `2t = 2·α_S·C·L_S` bits so one
/// full gap's loss is always recoverable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketBudget {
    /// Total wire symbols per data packet (= round(S / F)).
    pub wire_symbols: usize,
    /// Header symbols (flag + size field).
    pub header_symbols: usize,
    /// Payload symbols (data slots + illumination whites).
    pub payload_symbols: usize,
    /// Data-carrying payload slots (payload − whites).
    pub data_slots: usize,
    /// RS codeword bytes `n`.
    pub n_bytes: usize,
    /// RS message bytes `k`.
    pub k_bytes: usize,
    /// Symbols transmitted during one inter-frame gap, `L_S`.
    pub gap_symbols: f64,
}

impl PacketBudget {
    /// Derive the budget from a link configuration. Fails when the
    /// operating point cannot host a realizable RS code (e.g. very low
    /// symbol rates with high loss, where parity would exceed the packet).
    pub fn derive(config: &LinkConfig) -> Result<PacketBudget, LinkError> {
        let per_frame = config.symbol_rate / config.frame_rate;
        let wire_symbols = config
            .packet_wire_override
            .unwrap_or(per_frame.round() as usize);
        let header_symbols = match &config.fec {
            // Interleaved framing: longer flag + group-position digits.
            Some(_) => IL_FLAG.len() + size_field_len(config.order) + GROUP_POS_DIGITS,
            None => DATA_FLAG.len() + size_field_len(config.order),
        };
        if wire_symbols <= header_symbols + 4 {
            return Err(LinkError::PacketBudgetUnrealizable { wire_symbols });
        }
        let w = config.white_ratio();
        let payload_symbols = wire_symbols - header_symbols;
        let data_slots = payload_symbols - white_count(payload_symbols, w);
        let c = config.order.bits_per_symbol() as f64;
        let n_bytes = ((data_slots as f64 * c) / 8.0).floor() as usize;

        let gap_symbols = config.loss_ratio * per_frame;
        let alpha = 1.0 - w;
        let parity_bytes = match &config.fec {
            Some(fec) => {
                if fec.depth == 0 || fec.depth > config.max_fec_depth() {
                    return Err(LinkError::FecDepthUnrealizable {
                        depth: fec.depth,
                        max: config.max_fec_depth(),
                    });
                }
                // Erasure-aware parity: the receiver *declares* the gap's
                // positions, so one erased bit costs one parity bit (not the
                // paper's two for unknown-location errors). Reserve the
                // expected per-codeword gap loss with margin, plus n/depth so
                // one wholly-lost packet per group stays recoverable.
                let gap_bytes = (alpha * c * gap_symbols) / 8.0;
                (gap_bytes * (1.0 + FEC_ERASURE_MARGIN) - 1e-9).ceil() as usize
                    + n_bytes.div_ceil(fec.depth)
            }
            // Paper parity: 2t = 2 · α_S · C · L_S bits.
            None => ((2.0 * alpha * c * gap_symbols) / 8.0 - 1e-9).ceil() as usize,
        };
        // Degraded mode: when the paper's parity reservation would leave no
        // message bytes (low symbol rates with high loss), keep a 1-byte
        // message rather than declaring the point unusable — matching the
        // paper's own Section 5 arithmetic, which yields k of a few bits at
        // these points (Fig 11(b)'s near-zero but nonzero 1 kHz goodputs).
        // Packets hit by a full gap then simply fail RS decoding.
        let k_bytes = n_bytes.saturating_sub(parity_bytes).max(1);
        if !(2..=255).contains(&n_bytes) || k_bytes >= n_bytes {
            return Err(LinkError::RsUnrealizable {
                n: n_bytes,
                k: k_bytes,
            });
        }
        Ok(PacketBudget {
            wire_symbols,
            header_symbols,
            payload_symbols,
            data_slots,
            n_bytes,
            k_bytes,
            gap_symbols,
        })
    }

    /// Instantiate the RS codec for this budget.
    pub fn code(&self) -> ReedSolomon {
        ReedSolomon::new(self.n_bytes, self.k_bytes)
            .expect("derive() only returns realizable dimensions")
    }

    /// Code rate `k / n`.
    pub fn rate(&self) -> f64 {
        self.k_bytes as f64 / self.n_bytes as f64
    }

    /// Parity bytes.
    pub fn parity_bytes(&self) -> usize {
        self.n_bytes - self.k_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid_at_all_operating_points() {
        for order in CskOrder::ALL {
            for rate in [1000.0, 2000.0, 3000.0, 4000.0] {
                for loss in [0.2312, 0.3727] {
                    let c = LinkConfig::paper_default(order, rate, loss);
                    c.validate().expect("valid config");
                }
            }
        }
    }

    #[test]
    fn excessive_rate_fails_validation() {
        let c = LinkConfig::paper_default(CskOrder::Csk8, 6000.0, 0.23);
        assert!(c.validate().is_err(), "BeagleBone tops out below 4.5 kHz");
    }

    #[test]
    fn packet_budget_reflects_white_table() {
        let c = LinkConfig::paper_default(CskOrder::Csk8, 3000.0, 0.2312);
        let b = c.packet_budget().unwrap();
        // Fig 3(b): w at 3 kHz is 0.27, so α = 0.73 of the payload is data.
        assert!((c.white_ratio() - 0.27).abs() < 1e-12);
        assert_eq!(
            b.payload_symbols - b.data_slots,
            white_count(b.payload_symbols, 0.27)
        );
        assert!(b.rate() > 0.3 && b.rate() < 0.7);
    }

    #[test]
    fn parity_is_the_papers_two_bits_per_gap_bit() {
        // Paper Section 5: at 4.5 kHz the table's 20% white leaves
        // α_S = 0.8, a 0.2 loss ratio at 30 fps loses L_S = 0.2 · 150 = 30
        // symbols per gap, and 8-CSK (C = 3) reserves
        // 2t = 2·α_S·C·L_S = 144 bits = 18 parity bytes.
        let c = LinkConfig::paper_default(CskOrder::Csk8, 4500.0, 0.2);
        c.validate().unwrap();
        assert!((1.0 - c.white_ratio() - 0.8).abs() < 1e-12);
        let b = c.packet_budget().unwrap();
        assert!((b.gap_symbols - 30.0).abs() < 1e-9);
        assert_eq!(b.parity_bytes(), 18);
        assert_eq!(b.parity_bytes() * 8, (2.0 * 0.8 * 3.0 * 30.0) as usize);
    }

    #[test]
    fn constellation_matches_order() {
        let c = LinkConfig::paper_default(CskOrder::Csk16, 2000.0, 0.23);
        assert_eq!(c.constellation().points().len(), 16);
    }

    #[test]
    fn packet_budget_fills_exactly_one_frame_period() {
        for order in CskOrder::ALL {
            for rate in [2000.0, 3000.0, 4000.0] {
                let c = LinkConfig::paper_default(order, rate, 0.2312);
                let b = c.packet_budget().unwrap();
                assert_eq!(
                    b.wire_symbols,
                    (rate / 30.0).round() as usize,
                    "{order} {rate}"
                );
                assert_eq!(
                    b.header_symbols + b.payload_symbols,
                    b.wire_symbols,
                    "{order} {rate}"
                );
                assert!(b.k_bytes >= 1 && b.n_bytes <= 255);
                // Codeword bits fit in the data slots.
                let c_bits = order.bits_per_symbol() as usize;
                assert!(b.n_bytes * 8 <= b.data_slots * c_bits, "{order} {rate}");
            }
        }
    }

    #[test]
    fn packet_budget_parity_covers_one_gap() {
        let c = LinkConfig::paper_default(CskOrder::Csk16, 4000.0, 0.2312);
        let b = c.packet_budget().unwrap();
        // Bits lost in one gap (data share only).
        let alpha = 1.0 - c.white_ratio();
        let lost_bits = alpha * 4.0 * b.gap_symbols;
        assert!(
            b.parity_bytes() as f64 * 8.0 >= 2.0 * lost_bits - 8.0,
            "parity {} bytes vs 2×{lost_bits} bits",
            b.parity_bytes()
        );
        let code = b.code();
        assert_eq!(code.n(), b.n_bytes);
        assert_eq!(code.k(), b.k_bytes);
    }

    #[test]
    fn parity_starved_budget_degrades_to_k1() {
        // iPhone-level loss at 1 kHz with 4CSK: the paper parity would
        // leave no message bytes; the budget degrades to a 1-byte message
        // rather than failing (Fig 11(b)'s near-zero 1 kHz goodputs).
        let c = LinkConfig::paper_default(CskOrder::Csk4, 1000.0, 0.3727);
        let b = c.packet_budget().unwrap();
        assert_eq!(b.k_bytes, 1);
        assert!(b.n_bytes >= 2);
    }

    #[test]
    fn unrealizable_budgets_error_cleanly() {
        // Absurdly low rate: no room for even a header.
        let c = LinkConfig::paper_default(CskOrder::Csk8, 300.0, 0.2312);
        assert!(c.packet_budget().is_err());
    }

    #[test]
    fn fec_budget_is_erasure_aware_and_outrates_the_paper_parity() {
        // At the iPhone 5S loss ratio the paper's 2t parity reservation
        // dominates the codeword; declaring the gap as erasures halves it
        // (plus margins), so the interleaved code rate must come out well
        // above the per-packet baseline.
        let base = LinkConfig::paper_default(CskOrder::Csk8, 3000.0, 0.3727);
        let fec = base.clone().with_fec(8);
        let bb = base.packet_budget().unwrap();
        let fb = fec.packet_budget().unwrap();
        assert_eq!(
            fb.header_symbols,
            IL_FLAG.len() + size_field_len(CskOrder::Csk8) + GROUP_POS_DIGITS
        );
        assert!(
            fb.rate() > 1.5 * bb.rate(),
            "fec rate {} vs baseline {}",
            fb.rate(),
            bb.rate()
        );
        // Parity still covers one gap's data loss when declared as erasures,
        // plus a whole lost segment.
        let alpha = 1.0 - fec.white_ratio();
        let gap_bytes = alpha * 3.0 * fb.gap_symbols / 8.0;
        assert!(fb.parity_bytes() as f64 >= gap_bytes + (fb.n_bytes as f64 / 8.0));
    }

    #[test]
    fn fec_depth_bounds_are_enforced() {
        let base = LinkConfig::paper_default(CskOrder::Csk8, 3000.0, 0.3727);
        assert!(base.clone().with_fec(0).validate().is_err());
        assert!(base.clone().with_fec(0).packet_budget().is_err());
        let too_deep = base.max_fec_depth() + 1;
        assert!(matches!(
            base.clone().with_fec(too_deep).validate(),
            Err(LinkError::FecDepthUnrealizable { .. })
        ));
        assert!(base.with_fec(4).validate().is_ok());
    }
}
