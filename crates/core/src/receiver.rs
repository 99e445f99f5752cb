//! The ColorBars receiver pipeline (paper Fig 2(b), right side; Section 7).
//!
//! For every captured frame: reduce to a 1-D per-scanline CIELAB signal,
//! segment into color bands, classify each band against the live
//! calibration references, and feed the classified band stream to the
//! depacketizer, which reassembles packets across the inter-frame gap and
//! runs RS errors-and-erasures decoding. Calibration packets found in the
//! stream refresh the references on the fly; packet flags opportunistically
//! refresh the white reference and OFF threshold.

use crate::calibration::ReferenceStore;
use crate::classify::{classify, nearest_color, Label};
use crate::config::LinkConfig;
use crate::depacket::{Depacketizer, FailReason, ObservedBand, ParsedPacket};
use crate::equalizer::{EqualizerKind, TrainedEqualizer};
use crate::error::LinkError;
use crate::segmentation::{row_signal, segment, Band, SegmentationConfig};
use crate::symbol::SymbolMapper;
use colorbars_camera::Frame;
use colorbars_color::Lab;
use colorbars_obs as obs;
use colorbars_obs::live::Registry;

/// One demodulated band with enough context to compare against the ground
/// truth schedule (used for SER measurement, paper Fig 9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemodulatedBand {
    /// Frame the band was seen in.
    pub frame_index: usize,
    /// Center row of the band within the frame.
    pub center_row: usize,
    /// The mid-exposure timestamp of the center row.
    pub timestamp: f64,
    /// Classification verdict.
    pub label: Label,
    /// Demodulated data value: the active classifier's color verdict
    /// (nearest neighbor, or the learned equalizer when one is trained).
    pub color_idx: u16,
    /// The plain nearest-neighbor verdict, always computed — when an
    /// equalizer is active this is the counterfactual the doctor uses to
    /// attribute symbol errors to equalizer-miss vs channel loss.
    pub nn_idx: u16,
    /// Whether the receiver had absorbed at least one calibration packet
    /// when this band was demodulated. The paper's receivers "wait till the
    /// reception of the first calibration packet to start demodulating"
    /// (Section 6), so SER is measured over calibrated bands only.
    pub calibrated: bool,
}

/// Aggregated receive statistics — the one place decode counts live.
/// Observers read them through [`ReceiverStats::publish`] instead of
/// keeping counters of their own.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReceiverStats {
    /// Frames processed.
    pub frames: usize,
    /// Bands detected (all kinds).
    pub bands: usize,
    /// Bands that passed classification (the `rx.bands.classified` stage).
    pub bands_classified: usize,
    /// Classified bands demodulated after the first calibration packet
    /// locked the color reference (the `rx.bands.calibrated` annotation).
    pub bands_calibrated: usize,
    /// Bands handed to the depacketizer (the `rx.bands.depacketized` stage).
    pub bands_depacketized: usize,
    /// Data packets decoded successfully.
    pub packets_ok: usize,
    /// Data packets that failed RS decoding.
    pub packets_rs_failed: usize,
    /// Data packets discarded for damaged headers.
    pub packets_header_lost: usize,
    /// Data packets dropped for framing overrun.
    pub packets_overrun: usize,
    /// Data packets parsed but not decoded (raw mode).
    pub packets_undecoded: usize,
    /// Interleaved data packets whose codeword was unrecoverable — the
    /// burst exceeded the interleave budget (`depth × parity`).
    pub packets_burst_lost: usize,
    /// Total data packets observed (every parsed data packet lands in
    /// exactly one of the six outcome counters above; see
    /// [`ReceiverStats::data_packets_observed`]).
    pub packets_data_total: usize,
    /// Calibration packets absorbed.
    pub calibrations: usize,
    /// Calibration packets discarded.
    pub calibrations_failed: usize,
    /// Total erasure bytes filled by RS.
    pub erasures_recovered: usize,
    /// Total error bytes corrected by RS.
    pub errors_corrected: usize,
    /// Data symbols received inside parsed data packets (whites excluded) —
    /// the paper's raw-throughput numerator.
    pub data_symbols_received: usize,
    /// Interleave groups closed by the deinterleave stage.
    pub fec_groups: usize,
    /// Codewords the deinterleave stage attempted (`groups × depth`).
    pub fec_codewords: usize,
    /// Interleaved codewords decoded successfully (these are the
    /// `packets_ok` packets that arrived via the interleaved framing).
    pub fec_codewords_ok: usize,
    /// Group segments never observed (whole packets swallowed by bursts),
    /// reconstructed as declared erasures.
    pub fec_segments_missing: usize,
    /// Interleaved codewords that needed RS corrections to decode — the
    /// packets the interleaver actively rescued from a burst.
    pub fec_recovered_by_interleave: usize,
    /// Equalizer (re)trainings that succeeded (`rx.eq.trained`): one per
    /// absorbed calibration when a learned classifier is configured.
    pub eq_trained: usize,
    /// Equalizer trainings that hit a degenerate preamble and fell back to
    /// nearest-neighbor classification (`rx.eq.fallback`).
    pub eq_fallbacks: usize,
}

/// Reads one [`ReceiverStats`] field.
type StatsField = fn(&ReceiverStats) -> usize;

impl ReceiverStats {
    /// The registry name of every published field: the one table both the
    /// process-wide ledger (each [`Receiver`]'s) and every
    /// [`LinkSession`](crate::session::LinkSession)'s `session`-labeled
    /// ledger are written from, and the names the link doctor reads.
    pub const COUNTERS: &[(&str, StatsField)] = &[
        ("rx.frames", |s| s.frames),
        ("rx.bands.segmented", |s| s.bands),
        ("rx.bands.classified", |s| s.bands_classified),
        ("rx.bands.calibrated", |s| s.bands_calibrated),
        ("rx.bands.depacketized", |s| s.bands_depacketized),
        ("rx.packets.ok", |s| s.packets_ok),
        ("rx.packets.header_lost", |s| s.packets_header_lost),
        ("rx.packets.rs_failed", |s| s.packets_rs_failed),
        ("rx.packets.overrun", |s| s.packets_overrun),
        ("rx.packets.undecoded", |s| s.packets_undecoded),
        ("rx.packets.unrecoverable_burst", |s| s.packets_burst_lost),
        ("rx.calibrations.ok", |s| s.calibrations),
        ("rx.calibrations.failed", |s| s.calibrations_failed),
        ("rx.rs.erasures_recovered", |s| s.erasures_recovered),
        ("rx.rs.errors_corrected", |s| s.errors_corrected),
        ("rx.fec.groups", |s| s.fec_groups),
        ("rx.fec.codewords", |s| s.fec_codewords),
        ("rx.fec.codewords_ok", |s| s.fec_codewords_ok),
        ("rx.fec.segments_missing", |s| s.fec_segments_missing),
        ("rx.fec.recovered_by_interleave", |s| {
            s.fec_recovered_by_interleave
        }),
        ("rx.eq.trained", |s| s.eq_trained),
        ("rx.eq.fallback", |s| s.eq_fallbacks),
    ];

    /// Add every [`COUNTERS`](ReceiverStats::COUNTERS) entry's growth since
    /// `since` to `registry` under `labels`, then advance `since` to these
    /// stats. A no-op while observability is disabled: nothing is
    /// registered and nothing cloned.
    pub fn publish(&self, since: &mut ReceiverStats, registry: &Registry, labels: &[(&str, &str)]) {
        if !obs::is_enabled() {
            return;
        }
        for (name, field) in Self::COUNTERS {
            let delta = field(self).saturating_sub(field(since));
            if delta > 0 {
                registry.counter(name, labels).add(delta as u64);
            }
        }
        since.clone_from(self);
    }

    /// Sum of the six mutually exclusive data-packet outcome counters.
    /// Always equals [`ReceiverStats::packets_data_total`]: every parsed
    /// data packet is exactly one of ok / RS-failed / header-lost /
    /// overrun / undecoded / burst-lost.
    pub fn data_packets_observed(&self) -> usize {
        self.packets_ok
            + self.packets_rs_failed
            + self.packets_header_lost
            + self.packets_overrun
            + self.packets_undecoded
            + self.packets_burst_lost
    }
}

/// Everything a receive run produces.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReceiverReport {
    /// Recovered data chunks, in arrival order (each k bytes).
    pub chunks: Vec<Vec<u8>>,
    /// Per-band demodulation record for SER analysis.
    pub bands: Vec<DemodulatedBand>,
    /// Aggregate counters.
    pub stats: ReceiverStats,
}

impl ReceiverReport {
    /// Concatenated recovered payload bytes.
    pub fn data(&self) -> Vec<u8> {
        self.chunks.concat()
    }
}

/// The receiver: per-device segmentation config + live calibration store +
/// streaming depacketizer.
#[derive(Debug)]
pub struct Receiver {
    config: LinkConfig,
    seg: SegmentationConfig,
    store: ReferenceStore,
    depacketizer: Depacketizer,
    report: ReceiverReport,
    /// The trained channel correction, when a learned classifier is
    /// configured *and* the last training succeeded. `None` = plain
    /// nearest-neighbor demodulation (the paper's classifier).
    equalizer: Option<TrainedEqualizer>,
    /// Calibration preamble samples accumulated across absorbed
    /// calibrations (bounded; the training set).
    cal_samples: Vec<(usize, Lab)>,
    /// The stats as last published to the process-wide ledger.
    published: ReceiverStats,
}

impl Receiver {
    /// Build a receiver for a link configuration and a device's row time
    /// (which fixes the expected band width in pixels).
    pub fn new(config: LinkConfig, row_time: f64) -> Result<Receiver, LinkError> {
        let budget = config.packet_budget()?;
        Self::build(config, row_time, Some(budget.code()))
    }

    /// Build a *raw-mode* receiver: parses packets and tracks calibration
    /// but performs no RS decoding — the configuration of the paper's SER
    /// and raw-throughput measurements (Figs 9–10). Works at operating
    /// points whose RS budget is unrealizable.
    pub fn new_raw(config: LinkConfig, row_time: f64) -> Result<Receiver, LinkError> {
        Self::build(config, row_time, None)
    }

    fn build(
        config: LinkConfig,
        row_time: f64,
        code: Option<colorbars_rs::ReedSolomon>,
    ) -> Result<Receiver, LinkError> {
        config.validate()?;
        let constellation = config.constellation();
        let mapper = SymbolMapper::new(config.led, constellation.clone());
        let store = ReferenceStore::ideal(&mapper);
        let expected_band_px = 1.0 / (config.symbol_rate * row_time);
        let seg = SegmentationConfig::for_band_width(expected_band_px);
        let gap_symbols = config.loss_ratio * config.symbol_rate / config.frame_rate;
        let cal_copies = crate::transmitter::cal_copies(&config);
        // Interleaved framing shares the per-packet RS code: the depth-N
        // group assembler lives inside the depacketizer so batch and
        // streaming consumption stay byte-identical.
        let interleaver = match (config.fec, &code) {
            (Some(fec), Some(rs)) => Some(
                colorbars_fec::Interleaver::new(fec.depth, rs.clone()).ok_or(
                    LinkError::FecDepthUnrealizable {
                        depth: fec.depth,
                        max: config.max_fec_depth(),
                    },
                )?,
            ),
            _ => None,
        };
        let mut depacketizer = Depacketizer::new(
            constellation,
            code,
            config.white_ratio(),
            gap_symbols,
            cal_copies,
        );
        if let Some(interleaver) = interleaver {
            depacketizer = depacketizer.with_fec(interleaver);
        }
        Ok(Receiver {
            config,
            seg,
            store,
            depacketizer,
            report: ReceiverReport::default(),
            equalizer: None,
            cal_samples: Vec::new(),
            published: ReceiverStats::default(),
        })
    }

    /// Ablation switch: disable known-location erasure decoding (see
    /// [`Depacketizer::set_erasures_enabled`]).
    pub fn set_erasures_enabled(&mut self, enabled: bool) {
        self.depacketizer.set_erasures_enabled(enabled);
    }

    /// The link configuration this receiver was built for.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// The live reference store (inspectable for calibration experiments).
    pub fn store(&self) -> &ReferenceStore {
        &self.store
    }

    /// The currently trained equalizer, if a learned classifier is
    /// configured and the last training succeeded.
    pub fn equalizer(&self) -> Option<&TrainedEqualizer> {
        self.equalizer.as_ref()
    }

    /// Segmentation configuration in force.
    pub fn segmentation(&self) -> &SegmentationConfig {
        &self.seg
    }

    /// The counters accumulated so far. The receiver publishes them to the
    /// process-wide ledger as it goes, and a
    /// [`LinkSession`](crate::session::LinkSession) worker publishes them
    /// to its `session`-labeled ledger after every frame (both through
    /// [`ReceiverStats::publish`]), so neither waits for [`finish`].
    ///
    /// [`finish`]: Receiver::finish
    pub fn stats(&self) -> &ReceiverStats {
        &self.report.stats
    }

    /// Publish the decode-relevant state as this namespace's flight-recorder
    /// replay context — everything `postmortem` needs to rebuild the decode
    /// pipeline byte-identically (no-op while the recorder is disarmed).
    /// Refreshed whenever a calibration packet moves the references.
    fn record_replay_context(&self) {
        if !obs::flight::is_active() {
            return;
        }
        let ctx = crate::replay::context_json(
            &self.config,
            self.depacketizer.is_coded(),
            self.depacketizer.erasures_enabled(),
            &self.store,
            self.equalizer.as_ref(),
        );
        obs::flight::set_context(&obs::journey::namespace(), ctx);
    }

    /// Process one captured frame.
    ///
    /// Besides `rx.process_frame`, the frame's time is split over four
    /// nested stage spans: `rx.row_signal`, `rx.segment`, `rx.classify`
    /// (OFF re-anchoring, band classification, flag-driven reference
    /// refresh) and `rx.depacket` (packet parsing, RS/interleave decode,
    /// calibration absorption).
    pub fn process_frame(&mut self, frame: &Frame) {
        let _span = obs::span!("rx.process_frame");
        if self.report.stats.frames == 0 {
            self.record_replay_context();
        }
        let stage = obs::span!("rx.row_signal");
        let signal = row_signal(frame);
        stage.end();
        let stage = obs::span!("rx.segment");
        let bands = segment(&signal, &self.seg);
        stage.end();
        self.report.stats.frames += 1;
        self.report.stats.bands += bands.len();

        let stage = obs::span!("rx.classify");
        // Re-anchor the OFF detector from this frame's extremes before
        // classifying (sudden ambient changes move the dark floor).
        if let Some(darkest) = bands
            .iter()
            .min_by(|a, b| a.feature.l.total_cmp(&b.feature.l))
        {
            let brightest = bands
                .iter()
                .map(|b| b.feature.l)
                .fold(f64::NEG_INFINITY, f64::max);
            self.store.observe_extremes(darkest.feature, brightest);
        }

        let observed = self.classify_bands(frame, &bands);
        self.report.stats.bands_classified += observed.len();
        self.refresh_from_flags(&observed);
        stage.end();

        let calibrated = self.store.calibrations() > 0;
        if calibrated {
            self.report.stats.bands_calibrated += observed.len();
        }
        for b in &observed {
            self.report.bands.push(DemodulatedBand {
                frame_index: frame.meta.index,
                center_row: b.center_row,
                timestamp: frame.meta.row_timestamp(b.center_row),
                label: b.band.label,
                color_idx: b.band.color_idx,
                nn_idx: b.band.nn_idx,
                calibrated,
            });
        }
        let parser_input: Vec<ObservedBand> = observed.iter().map(|b| b.band).collect();
        self.report.stats.bands_depacketized += parser_input.len();
        let _stage = obs::span!("rx.depacket");
        let packets = self.depacketizer.push_frame(&parser_input);
        self.absorb(packets);
    }

    /// Flush trailing state at the end of a capture and take the report.
    pub fn finish(mut self) -> ReceiverReport {
        let packets = self.depacketizer.finish();
        self.absorb(packets);
        self.report
    }

    fn classify_bands(&self, frame: &Frame, bands: &[Band]) -> Vec<ClassifiedBand> {
        bands
            .iter()
            .map(|b| {
                // The label (framing: flags, padding, white-stripping) always
                // comes from the paper's classifier so packet boundaries are
                // identical regardless of equalizer choice; only the *data*
                // verdict switches to the learned correction.
                let nn = nearest_color(b.feature, &self.store);
                let color_idx = match &self.equalizer {
                    Some(eq) => eq.classify(b.feature),
                    None => nn,
                };
                ClassifiedBand {
                    center_row: b.center(),
                    band: ObservedBand {
                        label: classify(b.feature, &self.store),
                        color_idx,
                        nn_idx: nn,
                        feature: b.feature,
                        frame_index: frame.meta.index,
                    },
                }
            })
            .collect()
    }

    /// Retrain the configured equalizer on the calibration samples
    /// accumulated so far. A degenerate preamble demotes the classifier to
    /// plain nearest-neighbor (typed error, counted — never NaN weights).
    fn train_equalizer(&mut self, features: &[(usize, Lab)]) {
        if self.config.equalizer == EqualizerKind::NearestNeighbor {
            return;
        }
        self.cal_samples.extend_from_slice(features);
        // Bound the training set to the most recent preambles so a
        // long-running session tracks channel drift instead of averaging
        // over it (and memory stays constant).
        let cap = 4 * self.store.len().max(1);
        if self.cal_samples.len() > cap {
            let excess = self.cal_samples.len() - cap;
            self.cal_samples.drain(..excess);
        }
        let ideal: Vec<(f64, f64)> = (0..self.store.len())
            .map(|i| self.store.ideal_reference(i))
            .collect();
        match TrainedEqualizer::fit(self.config.equalizer, &self.cal_samples, &ideal) {
            Ok(eq) => {
                self.equalizer = eq;
                self.report.stats.eq_trained += 1;
            }
            Err(_) => {
                self.equalizer = None;
                self.report.stats.eq_fallbacks += 1;
            }
        }
    }

    /// Packet flags alternate OFF and white bands: every frame offers free
    /// updates to the white reference and the OFF threshold (Section 6's
    /// "adapt to changing channel conditions" without waiting for a full
    /// calibration packet).
    fn refresh_from_flags(&mut self, observed: &[ClassifiedBand]) {
        let mut whites = Vec::new();
        let mut offs = Vec::new();
        for w in observed.windows(3) {
            let labels = [w[0].band.label, w[1].band.label, w[2].band.label];
            if labels[0].is_off() && labels[1].is_white() && labels[2].is_off() {
                whites.push(w[1].band.feature);
                offs.push(w[0].band.feature);
                offs.push(w[2].band.feature);
            }
        }
        if !whites.is_empty() {
            self.store.observe_flag(&whites, &offs);
        }
    }

    /// Feed already-parsed packets into the receiver's bookkeeping —
    /// calibration absorption (including equalizer training), chunk
    /// collection, and the outcome counters — then mirror the
    /// depacketizer's interleave-group counts and publish the stats to the
    /// process-wide ledger. The frame pipeline calls this once per frame;
    /// it is public so failure drills and tests can inject hostile packet
    /// streams (e.g. a degenerate calibration preamble) without fabricating
    /// whole captures.
    pub fn absorb(&mut self, packets: Vec<ParsedPacket>) {
        for p in packets {
            match p {
                ParsedPacket::Data {
                    chunk,
                    erasures_recovered,
                    errors_corrected,
                    data_symbols_received,
                    via_interleave,
                } => {
                    self.report.stats.packets_ok += 1;
                    self.report.stats.packets_data_total += 1;
                    self.report.stats.erasures_recovered += erasures_recovered;
                    self.report.stats.errors_corrected += errors_corrected;
                    self.report.stats.data_symbols_received += data_symbols_received;
                    if via_interleave {
                        self.report.stats.fec_codewords_ok += 1;
                        if erasures_recovered + errors_corrected > 0 {
                            self.report.stats.fec_recovered_by_interleave += 1;
                        }
                    }
                    self.report.chunks.push(chunk);
                }
                ParsedPacket::DataFailed {
                    reason,
                    data_symbols_received,
                } => {
                    self.report.stats.packets_data_total += 1;
                    self.report.stats.data_symbols_received += data_symbols_received;
                    match reason {
                        FailReason::BadHeader => self.report.stats.packets_header_lost += 1,
                        FailReason::Overrun => self.report.stats.packets_overrun += 1,
                        FailReason::RsCapacityExceeded => self.report.stats.packets_rs_failed += 1,
                        FailReason::DecoderDisabled => self.report.stats.packets_undecoded += 1,
                        FailReason::UnrecoverableBurst => self.report.stats.packets_burst_lost += 1,
                    }
                }
                ParsedPacket::Calibration { features } => {
                    let seq = self.depacketizer.constellation().calibration_sequence();
                    // A hostile or corrupt packet can name an index past the
                    // constellation, which neither check below accepts.
                    let in_range = features.iter().all(|&(idx, _)| idx < self.store.len());
                    if in_range && self.store.calibration_consistent(&features, &seq) {
                        self.store.absorb_calibration(&features);
                        self.report.stats.calibrations += 1;
                        self.train_equalizer(&features);
                        // The references (and possibly the equalizer) moved:
                        // the replay context must track them or the
                        // post-mortem's verdicts would reflect stale state.
                        self.record_replay_context();
                    } else {
                        self.report.stats.calibrations_failed += 1;
                    }
                }
                ParsedPacket::CalibrationFailed => self.report.stats.calibrations_failed += 1,
            }
        }
        let stats = &mut self.report.stats;
        debug_assert_eq!(
            stats.data_packets_observed(),
            stats.packets_data_total,
            "data-packet outcome counters must be exhaustive and disjoint"
        );
        stats.fec_groups = self.depacketizer.fec_groups();
        stats.fec_codewords = self.depacketizer.fec_codewords();
        stats.fec_segments_missing = self.depacketizer.fec_segments_missing();
        stats.publish(&mut self.published, obs::live::global(), &[]);
    }
}

struct ClassifiedBand {
    center_row: usize,
    band: ObservedBand,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constellation::CskOrder;

    #[test]
    fn receiver_construction_matches_device_geometry() {
        let cfg = LinkConfig::paper_default(CskOrder::Csk8, 2000.0, 0.2312);
        let row_time = 7.85e-6; // Nexus-like
        let rx = Receiver::new(cfg, row_time).unwrap();
        // Band width at 2 kHz ≈ 63.7 rows.
        assert!((rx.segmentation().expected_band_px - 63.7).abs() < 1.0);
        assert_eq!(rx.store().len(), 8);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let cfg = LinkConfig::paper_default(CskOrder::Csk8, 9000.0, 0.2312);
        assert!(Receiver::new(cfg, 7.85e-6).is_err());
    }

    #[test]
    fn raw_receiver_works_at_rs_unrealizable_points() {
        // 8CSK at 300 Hz leaves no room for packets at all…
        let cfg = LinkConfig::paper_default(CskOrder::Csk8, 300.0, 0.2312);
        assert!(Receiver::new(cfg.clone(), 1e-5).is_err());
        // …but the raw-mode receiver (paper's SER measurement) still runs.
        assert!(Receiver::new_raw(cfg, 1e-5).is_ok());
    }

    #[test]
    fn empty_run_produces_empty_report() {
        let cfg = LinkConfig::paper_default(CskOrder::Csk4, 2000.0, 0.2312);
        let rx = Receiver::new(cfg, 1e-5).unwrap();
        let report = rx.finish();
        assert!(report.chunks.is_empty());
        assert_eq!(report.stats.frames, 0);
        assert!(report.data().is_empty());
    }

    fn test_receiver() -> Receiver {
        let cfg = LinkConfig::paper_default(CskOrder::Csk8, 2000.0, 0.2312);
        Receiver::new(cfg, 7.85e-6).unwrap()
    }

    fn failed(reason: FailReason) -> ParsedPacket {
        ParsedPacket::DataFailed {
            reason,
            data_symbols_received: 11,
        }
    }

    #[test]
    fn packet_outcome_counters_are_exhaustive() {
        let mut rx = test_receiver();
        let k = rx.config().packet_budget().unwrap().k_bytes;
        rx.absorb(vec![
            ParsedPacket::Data {
                chunk: vec![0u8; k],
                erasures_recovered: 2,
                errors_corrected: 1,
                data_symbols_received: 40,
                via_interleave: false,
            },
            failed(FailReason::BadHeader),
            failed(FailReason::Overrun),
            failed(FailReason::RsCapacityExceeded),
            failed(FailReason::DecoderDisabled),
            failed(FailReason::UnrecoverableBurst),
            ParsedPacket::CalibrationFailed,
        ]);
        let report = rx.finish();
        let s = &report.stats;
        assert_eq!(
            s.packets_data_total, 6,
            "calibration outcomes are not data packets"
        );
        assert_eq!(
            s.packets_ok
                + s.packets_rs_failed
                + s.packets_header_lost
                + s.packets_overrun
                + s.packets_undecoded
                + s.packets_burst_lost,
            s.packets_data_total,
            "every data packet lands in exactly one outcome counter"
        );
        assert_eq!(s.data_packets_observed(), s.packets_data_total);
    }

    // One test per FailReason variant: absorbing a single failure must
    // increment the matching stage counter exactly once and leave every
    // other data-packet outcome counter untouched.
    fn assert_single_failure(reason: FailReason, counter: impl Fn(&ReceiverStats) -> usize) {
        let mut rx = test_receiver();
        rx.absorb(vec![failed(reason)]);
        let report = rx.finish();
        let s = &report.stats;
        assert_eq!(counter(s), 1, "{reason} counter increments exactly once");
        assert_eq!(s.packets_data_total, 1);
        assert_eq!(
            s.data_packets_observed(),
            1,
            "no other outcome counter moved"
        );
        assert_eq!(s.data_symbols_received, 11, "partial symbols still counted");
    }

    #[test]
    fn bad_header_increments_header_lost() {
        assert_single_failure(FailReason::BadHeader, |s| s.packets_header_lost);
    }

    #[test]
    fn overrun_increments_packets_overrun() {
        assert_single_failure(FailReason::Overrun, |s| s.packets_overrun);
    }

    #[test]
    fn rs_capacity_exceeded_increments_rs_failed() {
        assert_single_failure(FailReason::RsCapacityExceeded, |s| s.packets_rs_failed);
    }

    #[test]
    fn decoder_disabled_increments_undecoded() {
        assert_single_failure(FailReason::DecoderDisabled, |s| s.packets_undecoded);
    }

    #[test]
    fn unrecoverable_burst_increments_burst_lost() {
        assert_single_failure(FailReason::UnrecoverableBurst, |s| s.packets_burst_lost);
    }

    /// A calibration packet of `pairs` pairs whose last index is one past
    /// the constellation.
    fn out_of_range_calibration(rx: &Receiver, pairs: usize) -> ParsedPacket {
        let m = rx.store().len();
        let features = (0..pairs)
            .map(|i| {
                let idx = if i + 1 == pairs { m } else { i % m };
                (idx, Lab::new(50.0, 10.0 * i as f64, -5.0))
            })
            .collect();
        ParsedPacket::Calibration { features }
    }

    fn assert_rejects_out_of_range_calibration(mut rx: Receiver, pairs: usize) {
        let before = rx.store().clone();
        let packet = out_of_range_calibration(&rx, pairs);
        rx.absorb(vec![packet]);
        assert!(rx.equalizer().is_none(), "no equalizer trained");
        assert_eq!(rx.store(), &before, "references untouched");
        let report = rx.finish();
        let s = &report.stats;
        assert_eq!((s.calibrations, s.calibrations_failed), (0, 1));
        assert_eq!(s.eq_trained + s.eq_fallbacks, 0);
    }

    #[test]
    fn short_calibration_with_out_of_range_index_is_rejected() {
        // Under six pairs the consistency check passes unchecked, so the
        // absorb's own index assert used to fire.
        assert_rejects_out_of_range_calibration(test_receiver(), 3);
    }

    #[test]
    fn full_calibration_with_out_of_range_index_is_rejected() {
        // From six pairs the consistency check indexes its inverse table
        // by the packet's indices.
        assert_rejects_out_of_range_calibration(test_receiver(), 8);
    }

    #[test]
    fn ridge_receiver_rejects_out_of_range_calibration() {
        let mut cfg = LinkConfig::paper_default(CskOrder::Csk8, 2000.0, 0.2312);
        cfg.equalizer = EqualizerKind::Ridge;
        for pairs in [3, 8] {
            let rx = Receiver::new(cfg.clone(), 7.85e-6).unwrap();
            assert_rejects_out_of_range_calibration(rx, pairs);
        }
    }

    #[test]
    fn interleaved_recoveries_feed_the_fec_counters() {
        let mut rx = test_receiver();
        let k = rx.config().packet_budget().unwrap().k_bytes;
        rx.absorb(vec![
            // Clean interleaved codeword: ok but not a rescue.
            ParsedPacket::Data {
                chunk: vec![1u8; k],
                erasures_recovered: 0,
                errors_corrected: 0,
                data_symbols_received: 40,
                via_interleave: true,
            },
            // Corrected interleaved codeword: an interleave rescue.
            ParsedPacket::Data {
                chunk: vec![2u8; k],
                erasures_recovered: 3,
                errors_corrected: 0,
                data_symbols_received: 35,
                via_interleave: true,
            },
            // Legacy framing never touches the fec counters.
            ParsedPacket::Data {
                chunk: vec![3u8; k],
                erasures_recovered: 5,
                errors_corrected: 0,
                data_symbols_received: 40,
                via_interleave: false,
            },
        ]);
        let report = rx.finish();
        let s = &report.stats;
        assert_eq!(s.packets_ok, 3);
        assert_eq!(s.fec_codewords_ok, 2);
        assert_eq!(s.fec_recovered_by_interleave, 1);
    }
}
