//! Packet reassembly and decoding from the classified band stream.
//!
//! The receiver's band labels arrive one frame at a time; packets routinely
//! straddle the inter-frame gap (paper Section 5). This module:
//!
//! 1. Scans the label stream for packet flags — maximal alternating
//!    OFF/white runs (`owo` = bare delimiter, `owowo` = data, `owowowo` =
//!    calibration).
//! 2. Treats the labels between consecutive flags as one packet body,
//!    remembering at which body positions a frame boundary fell.
//! 3. For data packets, decodes the size field, compares against the
//!    received count to learn how many symbols the gap swallowed, marks the
//!    corresponding byte positions as **erasures** at the recorded frame
//!    boundary, strips illumination whites by the shared position rule, and
//!    runs RS errors-and-erasures decoding.
//! 4. For calibration packets, hands the per-band Lab features to the
//!    reference store (exactly M bands expected; gap-damaged calibration
//!    packets are discarded).
//!
//! Packets whose flag or size header was damaged are discarded, as in the
//! paper ("if either the delimiter or the packet header is lost in the
//! inter-frame gap, the packet is discarded").

use crate::classify::Label;
use crate::constellation::Constellation;
use crate::illumination::is_white_position;
#[cfg(test)]
use crate::packet::PacketKind;
use crate::packet::{decode_group_pos, decode_size, size_field_len, GROUP_POS_DIGITS};
use colorbars_color::Lab;
use colorbars_fec::{Interleaver, SegmentObservation};
use colorbars_obs as obs;
use colorbars_rs::ReedSolomon;

/// One classified band, as fed to the parser.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObservedBand {
    /// The classification verdict (used for framing: flags, padding).
    pub label: Label,
    /// Nearest constellation color index regardless of the White/Off
    /// verdict. Data slots demodulate with this: illumination whites are
    /// removed *by position* (the shared white-position rule), so a
    /// near-white constellation point can never be shadowed by the White
    /// class (paper Section 7 Step 2 removes whites after packet split).
    pub color_idx: u16,
    /// The plain nearest-neighbor verdict, always computed. Equal to
    /// `color_idx` unless a learned equalizer is active, in which case
    /// `color_idx` is the equalizer's verdict and this is the
    /// counterfactual the doctor uses to attribute symbol errors to
    /// equalizer-miss vs channel loss (DESIGN.md §15).
    pub nn_idx: u16,
    /// The band's Lab feature (needed for calibration packets).
    pub feature: Lab,
    /// Which captured frame the band came from.
    pub frame_index: usize,
}

/// Outcome of one parsed packet.
#[derive(Debug, Clone, PartialEq)]
pub enum ParsedPacket {
    /// A data packet that RS-decoded successfully.
    Data {
        /// Recovered k-byte chunk.
        chunk: Vec<u8>,
        /// Erasure bytes filled by the decoder.
        erasures_recovered: usize,
        /// Error bytes corrected by the decoder.
        errors_corrected: usize,
        /// Payload symbols actually received (excl. whites).
        data_symbols_received: usize,
        /// True when the chunk came out of a deinterleaved group
        /// codeword (cross-packet FEC) rather than per-packet RS.
        via_interleave: bool,
    },
    /// A data packet that could not be recovered.
    DataFailed {
        /// Why it failed.
        reason: FailReason,
        /// Payload symbols actually received (excl. whites).
        data_symbols_received: usize,
    },
    /// A calibration packet successfully parsed (possibly partially, when
    /// the inter-frame gap swallowed some reference bands at a known
    /// position).
    Calibration {
        /// `(constellation index, measured Lab feature)` pairs.
        features: Vec<(usize, Lab)>,
    },
    /// A calibration packet damaged by the gap (discarded).
    CalibrationFailed,
}

/// Failure reasons for data packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailReason {
    /// Size header lost or invalid.
    BadHeader,
    /// More symbols received than the header promised (framing slip).
    Overrun,
    /// Loss exceeded the RS parity budget.
    RsCapacityExceeded,
    /// Receiver running in raw mode (no RS decoding requested).
    DecoderDisabled,
    /// An interleave group's burst exceeded the `depth × parity` budget:
    /// this codeword could not be recovered even with deinterleaving.
    UnrecoverableBurst,
}

impl FailReason {
    /// Stable machine-readable identifier, used as the obs counter suffix
    /// (`rx.packets.<reason>`) for per-stage drop accounting.
    pub fn as_str(&self) -> &'static str {
        match self {
            FailReason::BadHeader => "header_lost",
            FailReason::Overrun => "overrun",
            FailReason::RsCapacityExceeded => "rs_failed",
            FailReason::DecoderDisabled => "undecoded",
            FailReason::UnrecoverableBurst => "unrecoverable_burst",
        }
    }
}

impl std::fmt::Display for FailReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Streaming parser + decoder.
#[derive(Debug)]
pub struct Depacketizer {
    constellation: Constellation,
    /// RS codec; `None` for raw-mode reception (the paper's SER and
    /// raw-throughput measurements run without error correction).
    code: Option<ReedSolomon>,
    white_ratio: f64,
    /// Expected symbols lost per inter-frame gap (sanity bound for partial
    /// calibration absorption).
    gap_symbols: f64,
    /// Reference-block copies per calibration slot (see
    /// [`crate::transmitter::cal_copies`]).
    cal_copies: usize,
    /// Use known-location erasures in RS decoding (true = paper behaviour;
    /// false = ablation: gap losses become unknown-location errors).
    use_erasures: bool,
    /// Bands not yet consumed by a complete packet.
    buffer: Vec<ObservedBand>,
    /// Cross-packet deinterleave state (`None` = per-packet framing).
    fec: Option<FecState>,
    /// Stray OFF labels dropped from packet bodies (noise indicator).
    pub stray_offs: usize,
}

/// Assembly state for the interleave group currently on the wire. Lives
/// inside the [`Depacketizer`] so the batch and streaming paths share it
/// byte-for-byte (the session worker runs the same `Receiver`).
#[derive(Debug)]
struct FecState {
    interleaver: Interleaver,
    /// Segments of the currently assembling group.
    pending: Vec<SegmentObservation>,
    /// `(group position, data symbols received)` per observed segment.
    pending_symbols: Vec<(usize, usize)>,
    /// `(group position, journey correlation id)` per observed segment
    /// (ids are 0 when journey recording is off).
    pending_journeys: Vec<(usize, u64)>,
    /// Highest group position seen in the current group.
    last_pos: Option<usize>,
    /// Data symbols from witnessed-but-unplaceable interleaved bodies
    /// (header destroyed): folded into the next closed group's tally.
    orphan_symbols: usize,
    /// Groups closed (decoded) so far.
    groups: usize,
    /// Codewords decoded so far (`groups × depth`).
    codewords: usize,
    /// Segments that never arrived across all closed groups.
    segments_missing: usize,
}

impl FecState {
    fn new(interleaver: Interleaver) -> FecState {
        FecState {
            interleaver,
            pending: Vec::new(),
            pending_symbols: Vec::new(),
            pending_journeys: Vec::new(),
            last_pos: None,
            orphan_symbols: 0,
            groups: 0,
            codewords: 0,
            segments_missing: 0,
        }
    }

    /// Deinterleave and decode the pending group (no-op when empty).
    fn close_group(&mut self, use_erasures: bool) -> Vec<ParsedPacket> {
        if self.pending.is_empty() && self.orphan_symbols == 0 {
            return Vec::new();
        }
        if self.pending.is_empty() {
            // Only unplaceable bodies were witnessed: nothing to decode,
            // but don't let the symbol tally leak into a later group.
            self.orphan_symbols = 0;
            self.pending_journeys.clear();
            return Vec::new();
        }
        if !use_erasures {
            // Ablation mode: drop declared positions, keeping only values.
            for seg in &mut self.pending {
                seg.erased.clear();
            }
        }
        let decode = self.interleaver.decode_group(&self.pending);
        self.record_group_journey(&decode);
        self.groups += 1;
        self.codewords += decode.codewords.len();
        self.segments_missing += decode.segments_missing;
        let mut out = Vec::with_capacity(decode.codewords.len());
        for (c, cw) in decode.codewords.iter().enumerate() {
            // Codeword c's message is the chunk the packet at group
            // position c carried, so its symbol tally attributes there.
            let mut ds = self
                .pending_symbols
                .iter()
                .find(|(p, _)| *p == c)
                .map(|(_, s)| *s)
                .unwrap_or(0);
            if c == 0 {
                ds += std::mem::take(&mut self.orphan_symbols);
            }
            out.push(match cw {
                colorbars_fec::CodewordOutcome::Recovered {
                    data,
                    corrected_errors,
                    corrected_erasures,
                } => ParsedPacket::Data {
                    chunk: data.clone(),
                    erasures_recovered: *corrected_erasures,
                    errors_corrected: *corrected_errors,
                    data_symbols_received: ds,
                    via_interleave: true,
                },
                colorbars_fec::CodewordOutcome::Unrecoverable { .. } => ParsedPacket::DataFailed {
                    reason: FailReason::UnrecoverableBurst,
                    data_symbols_received: ds,
                },
            });
        }
        self.pending.clear();
        self.pending_symbols.clear();
        self.pending_journeys.clear();
        self.last_pos = None;
        self.orphan_symbols = 0;
        out
    }

    /// Journey + flight-recorder hook for a closed group: one record
    /// carrying the segment observations, the per-codeword erasure maps,
    /// and each codeword's outcome — the replay inputs for an interleaved
    /// failure. Unrecoverable codewords fire `unrecoverable_burst`
    /// triggers referencing the group record. No-op when journeys are off.
    fn record_group_journey(&mut self, decode: &colorbars_fec::GroupDecode) {
        if !obs::journey::is_active() {
            return;
        }
        let maps = self.interleaver.build_erasure_maps(&self.pending);
        let segments: Vec<obs::Value> = self
            .pending
            .iter()
            .map(|seg| {
                let journey = self
                    .pending_journeys
                    .iter()
                    .find(|(p, _)| *p == seg.position)
                    .map_or(0, |(_, id)| *id);
                obs::Value::object([
                    ("position", obs::Value::from(seg.position)),
                    ("bytes", bytes_json(&seg.bytes)),
                    ("erased", indices_json(&seg.erased)),
                    ("journey", obs::Value::from(journey)),
                ])
            })
            .collect();
        let outcomes: Vec<obs::Value> = decode
            .codewords
            .iter()
            .map(|cw| match cw {
                colorbars_fec::CodewordOutcome::Recovered {
                    data,
                    corrected_errors,
                    corrected_erasures,
                } => obs::Value::object([
                    ("recovered", obs::Value::from(true)),
                    ("chunk", bytes_json(data)),
                    ("corrected_errors", obs::Value::from(*corrected_errors)),
                    ("corrected_erasures", obs::Value::from(*corrected_erasures)),
                ]),
                colorbars_fec::CodewordOutcome::Unrecoverable { erasures } => obs::Value::object([
                    ("recovered", obs::Value::from(false)),
                    ("erasures", obs::Value::from(*erasures)),
                ]),
            })
            .collect();
        let all_ok = decode.codewords.iter().all(|c| c.is_recovered());
        let id = obs::journey::record(obs::journey::JourneyRecord {
            id: 0,
            namespace: String::new(),
            stage: "rx.fec_group".to_string(),
            verdict: if all_ok { "ok" } else { "unrecoverable_burst" }.to_string(),
            frames: Vec::new(),
            bands: Vec::new(),
            fields: obs::Value::object([
                ("depth", obs::Value::from(self.interleaver.depth())),
                ("n", obs::Value::from(self.interleaver.code().n())),
                ("k", obs::Value::from(self.interleaver.code().k())),
                ("segments", obs::Value::Array(segments)),
                (
                    "erasure_maps",
                    obs::Value::Array(maps.erasures.iter().map(|e| indices_json(e)).collect()),
                ),
                ("segments_missing", obs::Value::from(maps.segments_missing)),
                ("outcomes", obs::Value::Array(outcomes)),
            ]),
        });
        for (c, cw) in decode.codewords.iter().enumerate() {
            if let colorbars_fec::CodewordOutcome::Unrecoverable { erasures } = cw {
                obs::flight::trigger(
                    "unrecoverable_burst",
                    id,
                    obs::Value::object([
                        ("stage", obs::Value::from("rx.fec_group")),
                        ("codeword", obs::Value::from(c)),
                        ("erasures", obs::Value::from(*erasures)),
                    ]),
                );
            }
        }
    }
}

/// What a flag run announces: the wire-level packet framing that follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WireKind {
    Data,
    Calibration,
    DataInterleaved,
}

impl Depacketizer {
    /// Build a parser for the agreed link parameters. `code = None` parses
    /// packets and absorbs calibration but skips data decoding.
    pub fn new(
        constellation: Constellation,
        code: Option<ReedSolomon>,
        white_ratio: f64,
        gap_symbols: f64,
        cal_copies: usize,
    ) -> Depacketizer {
        assert!(cal_copies >= 1, "at least one calibration copy");
        Depacketizer {
            constellation,
            code,
            white_ratio,
            gap_symbols,
            cal_copies,
            use_erasures: true,
            buffer: Vec::new(),
            fec: None,
            stray_offs: 0,
        }
    }

    /// Enable the cross-packet deinterleave stage (DESIGN.md §13): packets
    /// framed with the interleaved flag are assembled into groups and
    /// decoded through `interleaver` instead of per-packet RS.
    pub fn with_fec(mut self, interleaver: Interleaver) -> Depacketizer {
        self.fec = Some(FecState::new(interleaver));
        self
    }

    /// Interleave groups closed (deinterleaved + decoded) so far.
    pub fn fec_groups(&self) -> usize {
        self.fec.as_ref().map_or(0, |f| f.groups)
    }

    /// Group codewords decoded so far (`groups × depth`).
    pub fn fec_codewords(&self) -> usize {
        self.fec.as_ref().map_or(0, |f| f.codewords)
    }

    /// Group segments that never arrived (wholly lost packets), across all
    /// closed groups.
    pub fn fec_segments_missing(&self) -> usize {
        self.fec.as_ref().map_or(0, |f| f.segments_missing)
    }

    /// Ablation switch: disable erasure placement so inter-frame-gap losses
    /// are presented to the RS decoder as unknown-location corruption.
    pub fn set_erasures_enabled(&mut self, enabled: bool) {
        self.use_erasures = enabled;
    }

    /// Whether known-location erasure decoding is in force (recorded into
    /// the flight-recorder replay context).
    pub fn erasures_enabled(&self) -> bool {
        self.use_erasures
    }

    /// Whether this parser RS-decodes data packets (false = raw mode).
    pub fn is_coded(&self) -> bool {
        self.code.is_some()
    }

    /// The constellation this parser demodulates against.
    pub fn constellation(&self) -> &Constellation {
        &self.constellation
    }

    /// Feed one frame's bands; returns any packets completed by this frame.
    pub fn push_frame(&mut self, bands: &[ObservedBand]) -> Vec<ParsedPacket> {
        self.buffer.extend_from_slice(bands);
        self.drain(false)
    }

    /// Flush at end of capture: parses the final packet even without a
    /// trailing flag, and closes any partially assembled interleave group
    /// (missing trailing segments become declared erasures).
    pub fn finish(&mut self) -> Vec<ParsedPacket> {
        let mut out = self.drain(true);
        if let Some(fec) = &mut self.fec {
            out.extend(fec.close_group(self.use_erasures));
        }
        out
    }

    /// Parse as many complete packets as the buffer allows. A packet is
    /// complete when the *next* flag has fully arrived (or at flush).
    fn drain(&mut self, flush: bool) -> Vec<ParsedPacket> {
        let mut out = Vec::new();
        loop {
            let flags = find_flags(&self.buffer);
            // Need at least a starting flag.
            let Some(first) = flags.first().copied() else {
                if flush {
                    self.buffer.clear();
                }
                return out;
            };
            // Body runs from the end of the first flag to the start of the
            // second flag (or buffer end at flush).
            let body_end = match flags.get(1) {
                Some(second) => second.start,
                None => {
                    if !flush {
                        return out;
                    }
                    self.buffer.len()
                }
            };
            if flags.len() < 2 && !flush {
                return out;
            }
            let body: Vec<ObservedBand> = self.buffer[first.end..body_end].to_vec();
            if let Some(kind) = first.kind {
                out.extend(self.decode_packet(kind, &body));
            }
            // Consume everything up to the start of the next flag.
            self.buffer.drain(..body_end);
            if flush && flags.len() < 2 {
                self.buffer.clear();
                return out;
            }
        }
    }

    fn decode_packet(&mut self, kind: WireKind, body: &[ObservedBand]) -> Vec<ParsedPacket> {
        // Drop stray OFF labels (classification noise inside a body).
        let mut clean: Vec<ObservedBand> = Vec::with_capacity(body.len());
        for b in body {
            if b.label.is_off() {
                self.stray_offs += 1;
            } else {
                clean.push(*b);
            }
        }
        match kind {
            WireKind::Calibration => {
                let packet = self.decode_calibration(&clean);
                if obs::journey::is_active() {
                    let verdict = if matches!(packet, ParsedPacket::Calibration { .. }) {
                        "ok"
                    } else {
                        "cal_failed"
                    };
                    obs::journey::record(obs::journey::JourneyRecord {
                        id: 0,
                        namespace: String::new(),
                        stage: "rx.calibration".to_string(),
                        verdict: verdict.to_string(),
                        frames: distinct_frames(&clean),
                        bands: band_records(&clean),
                        fields: obs::Value::Null,
                    });
                }
                vec![packet]
            }
            WireKind::Data => vec![self.decode_data(&clean)],
            WireKind::DataInterleaved => self.decode_interleaved(&clean),
        }
    }

    fn decode_calibration(&self, body: &[ObservedBand]) -> ParsedPacket {
        let m = self.constellation.points().len();
        let expected = self.cal_copies * m;
        // Padding is white runs of length >= 3 (the transmitter clamps its
        // padding away from shorter runs); isolated whites inside the
        // reference blocks are misread reference colors — an uncalibrated
        // receiver can misread near-white references, and calibration only
        // needs their positions and measured features, so they are kept.
        let kept = collapse_padding(body);
        if kept.len() > expected {
            return ParsedPacket::CalibrationFailed;
        }

        let seq = self.constellation.calibration_sequence();
        // Position -> constellation index: the reference sequence repeats
        // once per copy.
        let index_at = |pos: usize| seq[pos % m] as usize;

        if kept.len() == expected {
            // Everything arrived: absorb all copies (later copies smooth
            // over earlier ones in the store).
            let features = kept
                .iter()
                .enumerate()
                .map(|(i, b)| (index_at(i), b.feature))
                .collect();
            return ParsedPacket::Calibration { features };
        }

        // Some references were lost. The loss position is the inter-frame
        // gap, visible as a frame boundary between adjacent retained bands
        // of the *original* body (padding included, so the boundary is
        // almost always witnessed). The prefix is anchored at the body
        // start, the suffix at the body end.
        let Some(split) = body
            .windows(2)
            .position(|w| w[1].frame_index != w[0].frame_index)
            .map(|p| p + 1)
        else {
            return ParsedPacket::CalibrationFailed;
        };
        let prefix = collapse_padding(&body[..split]);
        let suffix = collapse_padding(&body[split..]);
        if prefix.len() + suffix.len() > expected {
            return ParsedPacket::CalibrationFailed;
        }
        let missing = (expected - prefix.len() - suffix.len()) as f64;
        if missing > self.gap_symbols + 4.0 {
            return ParsedPacket::CalibrationFailed;
        }
        if prefix.len() + suffix.len() < m / 2 {
            return ParsedPacket::CalibrationFailed;
        }
        let mut features: Vec<(usize, Lab)> = Vec::with_capacity(prefix.len() + suffix.len());
        for (i, b) in prefix.iter().enumerate() {
            features.push((index_at(i), b.feature));
        }
        let s_len = suffix.len();
        for (j, b) in suffix.iter().enumerate() {
            features.push((index_at(expected - s_len + j), b.feature));
        }
        ParsedPacket::Calibration { features }
    }

    /// Decode one data-packet body through the pure decode path, then
    /// record the packet's journey and fire flight-recorder triggers on
    /// the failure classes worth a post-mortem.
    fn decode_data(&self, body: &[ObservedBand]) -> ParsedPacket {
        let decode = decode_data_body(
            &self.constellation,
            self.code.as_ref(),
            self.white_ratio,
            self.use_erasures,
            body,
        );
        if obs::journey::is_active() {
            let (verdict, fields) = match &decode.packet {
                ParsedPacket::Data {
                    chunk,
                    erasures_recovered,
                    errors_corrected,
                    data_symbols_received,
                    ..
                } => (
                    "ok",
                    obs::Value::object([
                        ("chunk", bytes_json(chunk)),
                        ("erasures", indices_json(&decode.erasures)),
                        ("erasures_recovered", obs::Value::from(*erasures_recovered)),
                        ("errors_corrected", obs::Value::from(*errors_corrected)),
                        (
                            "data_symbols_received",
                            obs::Value::from(*data_symbols_received),
                        ),
                    ]),
                ),
                ParsedPacket::DataFailed {
                    reason,
                    data_symbols_received,
                } => (
                    reason.as_str(),
                    obs::Value::object([
                        ("erasures", indices_json(&decode.erasures)),
                        (
                            "data_symbols_received",
                            obs::Value::from(*data_symbols_received),
                        ),
                    ]),
                ),
                _ => ("ok", obs::Value::Null),
            };
            let id = obs::journey::record(obs::journey::JourneyRecord {
                id: 0,
                namespace: String::new(),
                stage: "rx.data".to_string(),
                verdict: verdict.to_string(),
                frames: distinct_frames(body),
                bands: band_records(body),
                fields,
            });
            if let ParsedPacket::DataFailed { reason, .. } = &decode.packet {
                if matches!(
                    reason,
                    FailReason::BadHeader | FailReason::RsCapacityExceeded
                ) {
                    obs::flight::trigger(
                        reason.as_str(),
                        id,
                        obs::Value::object([("stage", obs::Value::from("rx.data"))]),
                    );
                }
            }
        }
        decode.packet
    }

    /// One interleaved data packet: parse the size + group-position header,
    /// reconstruct the packet's wire-byte segment with declared erasures,
    /// and stash it in the group assembler. A position wrap (a new group
    /// starting) or the group's final position closes the group and emits
    /// its `depth` codeword outcomes.
    fn decode_interleaved(&mut self, body: &[ObservedBand]) -> Vec<ParsedPacket> {
        let order = self.constellation.order();
        let sf_len = size_field_len(order);
        let hdr_len = sf_len + GROUP_POS_DIGITS;
        let count_data =
            |bands: &[ObservedBand]| bands.iter().filter(|b| !b.label.is_white()).count();
        let body_symbols = count_data(&body[hdr_len.min(body.len())..]);

        // Without the shared FEC config (or in raw mode) the interleaved
        // framing cannot be decoded: report reception statistics only.
        let (Some(fec), Some(code)) = (self.fec.as_mut(), self.code.as_ref()) else {
            return vec![ParsedPacket::DataFailed {
                reason: FailReason::DecoderDisabled,
                data_symbols_received: body_symbols,
            }];
        };
        let depth = fec.interleaver.depth();
        let use_erasures = self.use_erasures;

        // Parse the header. A gap through it, an unparsable field, or a
        // framing slip leaves the segment unplaceable: the group assembler
        // will see its position as a missing (fully erased) segment, and
        // its received symbols fold into the group tally as orphans.
        let header_intact = body.len() >= hdr_len
            && !body[..hdr_len]
                .windows(2)
                .any(|w| w[1].frame_index != w[0].frame_index);
        let parsed = if header_intact {
            let to_symbol = |b: &ObservedBand| match b.label {
                Label::Color(i) => crate::symbol::Symbol::Color(i),
                Label::White => crate::symbol::Symbol::White,
                Label::Off => crate::symbol::Symbol::Off,
            };
            let size_syms: Vec<_> = body[..sf_len].iter().map(to_symbol).collect();
            let pos_syms: Vec<_> = body[sf_len..hdr_len].iter().map(to_symbol).collect();
            match (
                decode_size(order, &size_syms),
                decode_group_pos(order, &pos_syms),
            ) {
                (Some(len), Some(pos)) => Some((len, pos)),
                _ => None,
            }
        } else {
            None
        };
        let placeable = parsed
            .filter(|&(expected_len, pos)| pos < depth && body.len() - hdr_len <= expected_len);
        let Some((expected_len, pos)) = placeable else {
            fec.orphan_symbols += body_symbols;
            if obs::journey::is_active() {
                let id = obs::journey::record(obs::journey::JourneyRecord {
                    id: 0,
                    namespace: String::new(),
                    stage: "rx.segment".to_string(),
                    verdict: "header_lost".to_string(),
                    frames: distinct_frames(body),
                    bands: band_records(body),
                    fields: obs::Value::object([(
                        "data_symbols_received",
                        obs::Value::from(body_symbols),
                    )]),
                });
                obs::flight::trigger(
                    "header_lost",
                    id,
                    obs::Value::object([("stage", obs::Value::from("rx.segment"))]),
                );
            }
            return Vec::new();
        };

        let (bytes, erased) = reconstruct_codeword(
            &self.constellation,
            self.white_ratio,
            body,
            hdr_len,
            expected_len,
            code.n(),
        );
        let journey_id = if obs::journey::is_active() {
            obs::journey::record(obs::journey::JourneyRecord {
                id: 0,
                namespace: String::new(),
                stage: "rx.segment".to_string(),
                verdict: "ok".to_string(),
                frames: distinct_frames(body),
                bands: band_records(body),
                fields: obs::Value::object([
                    ("group_pos", obs::Value::from(pos)),
                    ("expected_len", obs::Value::from(expected_len)),
                    ("bytes", bytes_json(&bytes)),
                    ("erased", indices_json(&erased)),
                ]),
            })
        } else {
            0
        };
        let mut out = Vec::new();
        if fec.last_pos.is_some_and(|last| pos <= last) {
            // Position wrapped (or regressed): the previous group is as
            // complete as it will ever get.
            out.extend(fec.close_group(use_erasures));
        }
        fec.pending
            .push(SegmentObservation::new(pos, bytes, erased));
        fec.pending_symbols.push((pos, body_symbols));
        fec.pending_journeys.push((pos, journey_id));
        fec.last_pos = Some(pos);
        if pos + 1 == depth {
            out.extend(fec.close_group(use_erasures));
        }
        out
    }
}

/// Outcome of the pure per-packet data decode ([`decode_data_body`]):
/// the verdict plus the byte-level erasure list handed to the RS decoder
/// — exactly what a flight-recorder replay must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct DataDecode {
    /// The decode verdict ([`ParsedPacket::Data`] or
    /// [`ParsedPacket::DataFailed`]).
    pub packet: ParsedPacket,
    /// Byte positions declared erased to the RS decoder (empty when the
    /// decode failed before codeword reconstruction, or when erasure
    /// placement is disabled).
    pub erasures: Vec<usize>,
}

/// The pure per-packet data decode: body bands in, verdict out. This is
/// the *replay determinism contract* (DESIGN.md §14): it reads nothing but
/// its arguments, so re-running it on the bands recorded in a journey —
/// with the same constellation, code, white ratio and erasure policy —
/// reproduces the live verdict byte-for-byte. Both the live
/// [`Depacketizer`] path and the `postmortem` bench bin call this
/// function.
pub fn decode_data_body(
    constellation: &Constellation,
    code: Option<&ReedSolomon>,
    white_ratio: f64,
    use_erasures: bool,
    body: &[ObservedBand],
) -> DataDecode {
    let sf_len = size_field_len(constellation.order());
    if body.len() < sf_len {
        return DataDecode {
            packet: ParsedPacket::DataFailed {
                reason: FailReason::BadHeader,
                data_symbols_received: 0,
            },
            erasures: Vec::new(),
        };
    }
    // A gap inside the size field makes it unusable.
    let header = &body[..sf_len];
    let header_spans_gap = header
        .windows(2)
        .any(|w| w[1].frame_index != w[0].frame_index);
    let header_syms: Vec<crate::symbol::Symbol> = header
        .iter()
        .map(|b| match b.label {
            Label::Color(i) => crate::symbol::Symbol::Color(i),
            Label::White => crate::symbol::Symbol::White,
            Label::Off => crate::symbol::Symbol::Off,
        })
        .collect();
    let Some(expected_len) =
        decode_size(constellation.order(), &header_syms).filter(|_| !header_spans_gap)
    else {
        return DataDecode {
            packet: ParsedPacket::DataFailed {
                reason: FailReason::BadHeader,
                data_symbols_received: 0,
            },
            erasures: Vec::new(),
        };
    };

    let payload = &body[sf_len..];
    let data_symbols_received = payload.iter().filter(|b| !b.label.is_white()).count();
    if payload.len() > expected_len {
        return DataDecode {
            packet: ParsedPacket::DataFailed {
                reason: FailReason::Overrun,
                data_symbols_received,
            },
            erasures: Vec::new(),
        };
    }

    // Raw mode: no decoder — report reception statistics only.
    let Some(code) = code else {
        return DataDecode {
            packet: ParsedPacket::DataFailed {
                reason: FailReason::DecoderDisabled,
                data_symbols_received,
            },
            erasures: Vec::new(),
        };
    };

    let (codeword, erasures) = reconstruct_codeword(
        constellation,
        white_ratio,
        body,
        sf_len,
        expected_len,
        code.n(),
    );
    let erasures = if use_erasures { erasures } else { Vec::new() };
    let packet = match code.decode(&codeword, &erasures) {
        Ok(d) => ParsedPacket::Data {
            chunk: d.data,
            erasures_recovered: d.corrected_erasures,
            errors_corrected: d.corrected_errors,
            data_symbols_received,
            via_interleave: false,
        },
        Err(_) => ParsedPacket::DataFailed {
            reason: FailReason::RsCapacityExceeded,
            data_symbols_received,
        },
    };
    DataDecode { packet, erasures }
}

/// Rebuild a packet's RS codeword bytes and byte-level erasure list
/// from its body: place the inter-frame-gap loss at the witnessed
/// frame boundary, strip illumination whites by the shared position
/// rule, and fold bits into `n` bytes (lost bits erase their byte).
///
/// `hdr_len` is the number of already-parsed header symbols at the
/// start of `body`; `expected_len` is the advertised payload length
/// (must be ≥ the received payload). Pure — part of the replay contract.
fn reconstruct_codeword(
    constellation: &Constellation,
    white_ratio: f64,
    body: &[ObservedBand],
    hdr_len: usize,
    expected_len: usize,
    n: usize,
) -> (Vec<u8>, Vec<usize>) {
    let payload = &body[hdr_len..];
    let received = payload.len();
    let missing = expected_len - received;

    // Where did the gap fall? First frame-boundary position within the
    // *body* (header included): a gap that swallowed the payload's
    // leading run shows up as a boundary between the last header band
    // and the first received payload band, i.e. payload position 0.
    // If no boundary is visible (e.g. narrow frame-edge bands dropped
    // without a full gap), attribute the loss to the payload end.
    let split_at = body
        .windows(2)
        .position(|w| w[1].frame_index != w[0].frame_index)
        .map(|p| (p + 1).saturating_sub(hdr_len))
        .unwrap_or(received);

    // Reconstruct the full payload slot sequence with None = lost.
    // Each received slot carries its nearest-color index: illumination
    // whites are removed by *position* below, so a data symbol whose
    // color happens to sit near white still demodulates to a color.
    let mut slots: Vec<Option<u16>> = Vec::with_capacity(expected_len);
    slots.extend(payload[..split_at].iter().map(|b| Some(b.color_idx)));
    slots.extend(std::iter::repeat_n(None, missing));
    slots.extend(payload[split_at..].iter().map(|b| Some(b.color_idx)));
    debug_assert_eq!(slots.len(), expected_len);

    // Strip whites by the shared position rule; surviving slots are
    // data symbols (or erasures).
    let c = constellation.bits_per_symbol() as usize;
    let mut bits: Vec<Option<bool>> = Vec::with_capacity(expected_len * c);
    for (i, slot) in slots.iter().enumerate() {
        if is_white_position(i, white_ratio) {
            continue;
        }
        // Map the wire index back to its bit group (inverse of the
        // transmitter's optional Gray mapping). An index past the
        // constellation — only a hostile or corrupted flight dump carries
        // one — has no bit group and is erased like a lost slot.
        match slot.and_then(|idx| constellation.bit_group_of(idx)) {
            None => bits.extend(std::iter::repeat_n(None, c)),
            Some(v) => {
                for k in (0..c).rev() {
                    bits.push(Some((v >> k) & 1 == 1));
                }
            }
        }
    }

    // Bits → bytes with byte-level erasures.
    let mut codeword = vec![0u8; n];
    let mut erasures: Vec<usize> = Vec::new();
    for (byte_idx, cw) in codeword.iter_mut().enumerate().take(n) {
        let mut v = 0u8;
        let mut erased = false;
        for bit in 0..8 {
            match bits.get(byte_idx * 8 + bit) {
                Some(Some(true)) => v |= 1 << (7 - bit),
                Some(Some(false)) => {}
                // Lost or beyond the received bits (trailing padding
                // symbols lost): erased.
                Some(None) | None => erased = true,
            }
        }
        *cw = v;
        if erased {
            erasures.push(byte_idx);
        }
    }
    (codeword, erasures)
}

/// Distinct captured-frame indices touched by a body, in first-seen order.
fn distinct_frames(bands: &[ObservedBand]) -> Vec<u64> {
    let mut out: Vec<u64> = Vec::new();
    for b in bands {
        let f = b.frame_index as u64;
        if !out.contains(&f) {
            out.push(f);
        }
    }
    out
}

/// Reduce observed bands to journey [`obs::journey::BandRecord`]s.
fn band_records(bands: &[ObservedBand]) -> Vec<obs::journey::BandRecord> {
    bands
        .iter()
        .map(|b| obs::journey::BandRecord {
            label: match b.label {
                Label::Off => obs::journey::LABEL_OFF,
                Label::White => obs::journey::LABEL_WHITE,
                Label::Color(_) => obs::journey::LABEL_COLOR,
            },
            color_idx: b.color_idx,
            nn_idx: b.nn_idx,
            l: b.feature.l,
            a: b.feature.a,
            b: b.feature.b,
            frame_index: b.frame_index as u64,
        })
        .collect()
}

/// Rebuild an [`ObservedBand`] from a journey band record — the inverse
/// of the reduction above, used by the post-mortem replay.
pub fn band_from_record(r: &obs::journey::BandRecord) -> ObservedBand {
    ObservedBand {
        label: match r.label {
            obs::journey::LABEL_OFF => Label::Off,
            obs::journey::LABEL_WHITE => Label::White,
            _ => Label::Color(r.color_idx),
        },
        color_idx: r.color_idx,
        nn_idx: r.nn_idx,
        feature: Lab::new(r.l, r.a, r.b),
        frame_index: r.frame_index as usize,
    }
}

fn bytes_json(bytes: &[u8]) -> obs::Value {
    obs::Value::Array(bytes.iter().map(|&b| obs::Value::from(b as u64)).collect())
}

fn indices_json(ix: &[usize]) -> obs::Value {
    obs::Value::Array(ix.iter().map(|&i| obs::Value::from(i)).collect())
}

/// Remove calibration padding from a band sequence: white runs of length
/// >= 3 are padding; shorter white runs are kept (misread reference
/// > colors). OFF bands never appear here (stripped earlier as stray noise).
fn collapse_padding(bands: &[ObservedBand]) -> Vec<ObservedBand> {
    let mut out: Vec<ObservedBand> = Vec::with_capacity(bands.len());
    let mut i = 0;
    while i < bands.len() {
        if bands[i].label.is_white() {
            let mut j = i;
            while j < bands.len() && bands[j].label.is_white() {
                j += 1;
            }
            if j - i < 3 {
                out.extend_from_slice(&bands[i..j]);
            }
            i = j;
        } else {
            out.push(bands[i]);
            i += 1;
        }
    }
    out
}

/// A flag (or delimiter) occurrence in the band stream.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FlagSpan {
    start: usize,
    end: usize,
    /// `None` for the bare `owo` delimiter.
    kind: Option<WireKind>,
}

/// Find maximal alternating OFF/white runs that start and end with OFF.
/// Run length 3 → delimiter, 5 → data flag, 7 → calibration flag, 9 or
/// longer → interleaved data flag (the protocol-version marker); other
/// odd lengths ≥ 3 are treated as their largest valid prefix.
fn find_flags(bands: &[ObservedBand]) -> Vec<FlagSpan> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < bands.len() {
        if !bands[i].label.is_off() {
            i += 1;
            continue;
        }
        // Extend the alternating run o w o w o ...
        let mut j = i;
        let mut expect_off = true;
        while j < bands.len() {
            let ok = if expect_off {
                bands[j].label.is_off()
            } else {
                bands[j].label.is_white()
            };
            if !ok {
                break;
            }
            expect_off = !expect_off;
            j += 1;
        }
        // Trim to end on an OFF (odd length).
        let mut len = j - i;
        if len % 2 == 0 {
            len -= 1;
        }
        if len >= 3 {
            let kind = match len {
                3 | 4 => None,
                5 | 6 => Some(WireKind::Data),
                7 | 8 => Some(WireKind::Calibration),
                _ => Some(WireKind::DataInterleaved),
            };
            out.push(FlagSpan {
                start: i,
                end: i + len,
                kind,
            });
            i += len;
        } else {
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LinkConfig;
    use crate::constellation::CskOrder;
    use crate::symbol::Symbol;
    use crate::transmitter::Transmitter;

    /// Turn a wire symbol stream into perfectly observed bands, split into
    /// "frames" at the given wire indices, with symbols in `lost` ranges
    /// dropped (simulated inter-frame gap).
    fn observe(
        symbols: &[Symbol],
        frame_splits: &[usize],
        lost: &[std::ops::Range<usize>],
    ) -> Vec<Vec<ObservedBand>> {
        let mut frames: Vec<Vec<ObservedBand>> = vec![Vec::new()];
        let mut frame_idx = 0usize;
        for (i, &s) in symbols.iter().enumerate() {
            if frame_splits.contains(&i) {
                frame_idx += 1;
                frames.push(Vec::new());
            }
            if lost.iter().any(|r| r.contains(&i)) {
                continue;
            }
            let label = match s {
                Symbol::Off => Label::Off,
                Symbol::White => Label::White,
                Symbol::Color(c) => Label::Color(c),
            };
            // Feature values don't matter for data decoding; encode the
            // index into L so calibration tests can check ordering.
            let feature = Lab::new(
                match s {
                    Symbol::Off => 0.0,
                    Symbol::White => 90.0,
                    Symbol::Color(c) => 40.0 + c as f64,
                },
                0.0,
                0.0,
            );
            let color_idx = match s {
                Symbol::Color(c) => c,
                _ => 0,
            };
            frames[frame_idx].push(ObservedBand {
                label,
                color_idx,
                nn_idx: color_idx,
                feature,
                frame_index: frame_idx,
            });
        }
        frames
    }

    fn setup(order: CskOrder, rate: f64) -> (Transmitter, Depacketizer) {
        let cfg = LinkConfig::paper_default(order, rate, 0.2312);
        let tx = Transmitter::new(cfg.clone()).unwrap();
        let gap_symbols = cfg.loss_ratio * cfg.symbol_rate / cfg.frame_rate;
        let de = Depacketizer::new(
            tx.constellation().clone(),
            Some(tx.budget().code()),
            cfg.white_ratio(),
            gap_symbols,
            crate::transmitter::cal_copies(&cfg),
        );
        (tx, de)
    }

    #[test]
    fn lossless_stream_decodes_every_chunk() {
        let (tx, mut de) = setup(CskOrder::Csk8, 2000.0);
        let data: Vec<u8> = (0..60).map(|i| (i * 3 + 1) as u8).collect();
        let tr = tx.transmit(&data);
        let frames = observe(&tr.symbols, &[], &[]);
        let mut packets = Vec::new();
        for f in &frames {
            packets.extend(de.push_frame(f));
        }
        packets.extend(de.finish());
        let chunks: Vec<&Vec<u8>> = packets
            .iter()
            .filter_map(|p| match p {
                ParsedPacket::Data { chunk, .. } => Some(chunk),
                _ => None,
            })
            .collect();
        let expected = tr.data_chunks();
        assert_eq!(chunks.len(), expected.len(), "{packets:?}");
        for (got, want) in chunks.iter().zip(expected) {
            assert_eq!(&got[..], want);
        }
        // Calibration packet was absorbed too.
        assert!(packets
            .iter()
            .any(|p| matches!(p, ParsedPacket::Calibration { .. })));
    }

    #[test]
    fn calibration_features_arrive_in_index_order() {
        let (tx, mut de) = setup(CskOrder::Csk8, 2000.0);
        let tr = tx.transmit(&[1, 2, 3]);
        let frames = observe(&tr.symbols, &[], &[]);
        let mut packets = Vec::new();
        for f in &frames {
            packets.extend(de.push_frame(f));
        }
        packets.extend(de.finish());
        let feats = packets
            .iter()
            .find_map(|p| match p {
                ParsedPacket::Calibration { features } => Some(features.clone()),
                _ => None,
            })
            .expect("calibration parsed");
        // Calibration slots carry two copies of the 8 references.
        assert_eq!(feats.len(), 16);
        // Every absorbed feature must be the band that carried that
        // constellation index (observe() encodes the wire index in L).
        let mut count = vec![0usize; 8];
        for (idx, f) in &feats {
            assert!(
                (f.l - (40.0 + *idx as f64)).abs() < 1e-9,
                "index {idx} got wrong feature"
            );
            count[*idx] += 1;
        }
        assert!(
            count.iter().all(|&c| c == 2),
            "each index calibrated twice: {count:?}"
        );
    }

    #[test]
    fn mid_payload_gap_is_recovered_as_erasures() {
        let (tx, mut de) = setup(CskOrder::Csk8, 4000.0);
        let k = tx.budget().k_bytes;
        let data: Vec<u8> = (0..k as u8).collect();
        let tr = tx.transmit(&data);
        // Locate the single data packet's payload on the wire.
        let span = tr
            .packets
            .iter()
            .find(|p| p.kind == PacketKind::Data)
            .unwrap();
        let payload_start = span.start + 5 + size_field_len(CskOrder::Csk8);
        // Lose a run in the middle of the payload, splitting frames there —
        // exactly the inter-frame-gap pattern. Budget: the plan recovers a
        // gap of l·S/F symbols ≈ 0.2312 · 133 ≈ 30; lose 12.
        let gap_start = payload_start + 20;
        let gap = gap_start..gap_start + 12;
        let frames = observe(&tr.symbols, &[gap.end], &[gap]);
        let mut packets = Vec::new();
        for f in &frames {
            packets.extend(de.push_frame(f));
        }
        packets.extend(de.finish());
        let decoded = packets
            .iter()
            .find_map(|p| match p {
                ParsedPacket::Data {
                    chunk,
                    erasures_recovered,
                    ..
                } => Some((chunk.clone(), *erasures_recovered)),
                _ => None,
            })
            .expect("data packet recovered: {packets:?}");
        assert_eq!(&decoded.0[..], &data[..]);
        assert!(decoded.1 > 0, "erasures must have been filled");
    }

    #[test]
    fn gap_through_header_discards_packet() {
        let (tx, mut de) = setup(CskOrder::Csk8, 4000.0);
        let k = tx.budget().k_bytes;
        let data: Vec<u8> = vec![7; k];
        let tr = tx.transmit(&data);
        let span = tr
            .packets
            .iter()
            .find(|p| p.kind == PacketKind::Data)
            .unwrap();
        // Lose the flag + size field region.
        let gap = span.start..span.start + 10;
        let frames = observe(&tr.symbols, &[gap.end], &[gap]);
        let mut packets = Vec::new();
        for f in &frames {
            packets.extend(de.push_frame(f));
        }
        packets.extend(de.finish());
        assert!(
            !packets
                .iter()
                .any(|p| matches!(p, ParsedPacket::Data { .. })),
            "header-damaged packet must not decode: {packets:?}"
        );
    }

    #[test]
    fn gap_through_calibration_yields_partial_indexed_features() {
        let (tx, mut de) = setup(CskOrder::Csk16, 3000.0);
        let tr = tx.transmit(&[0u8; 8]);
        let span = tr
            .packets
            .iter()
            .find(|p| p.kind == PacketKind::Calibration)
            .unwrap();
        // Lose two reference bands mid-calibration: payload starts after
        // the 7-symbol flag, so bands 2 and 3 of the sequence vanish.
        let gap = (span.start + 9)..(span.start + 11);
        let frames = observe(&tr.symbols, &[gap.end], std::slice::from_ref(&gap));
        let mut packets = Vec::new();
        for f in &frames {
            packets.extend(de.push_frame(f));
        }
        packets.extend(de.finish());
        let feats = packets
            .iter()
            .find_map(|p| match p {
                ParsedPacket::Calibration { features } => Some(features.clone()),
                _ => None,
            })
            .expect("partial calibration absorbed");
        assert_eq!(feats.len(), 30, "two of the 2×16 reference bands lost");
        // The dual-copy design means even the lost sequence positions are
        // still covered by the other copy: every index retains at least one
        // valid measurement, and every surviving feature carries the value
        // of its own index (L = 40 + idx in `observe`).
        let mut count = vec![0usize; 16];
        for (idx, f) in &feats {
            assert!(
                (f.l - (40.0 + *idx as f64)).abs() < 1e-9,
                "index {idx} got wrong feature (L = {})",
                f.l
            );
            count[*idx] += 1;
        }
        assert!(
            count.iter().all(|&c| c >= 1),
            "dual copies cover the gap: {count:?}"
        );
    }

    #[test]
    fn gap_damaged_calibration_without_known_split_is_discarded() {
        let (tx, mut de) = setup(CskOrder::Csk16, 3000.0);
        let tr = tx.transmit(&[0u8; 8]);
        let span = tr
            .packets
            .iter()
            .find(|p| p.kind == PacketKind::Calibration)
            .unwrap();
        // Drop two bands *without* a frame boundary (e.g. both below the
        // minimum band width): the loss position is unknowable.
        let gap = (span.start + 9)..(span.start + 11);
        let frames = observe(&tr.symbols, &[], &[gap]);
        let mut packets = Vec::new();
        for f in &frames {
            packets.extend(de.push_frame(f));
        }
        packets.extend(de.finish());
        assert!(packets
            .iter()
            .any(|p| matches!(p, ParsedPacket::CalibrationFailed)));
        assert!(!packets
            .iter()
            .any(|p| matches!(p, ParsedPacket::Calibration { .. })));
    }

    #[test]
    fn symbol_errors_within_t_are_corrected() {
        let (tx, mut de) = setup(CskOrder::Csk8, 3000.0);
        let k = tx.budget().k_bytes;
        let data: Vec<u8> = (0..k as u8).map(|b| b ^ 0x5C).collect();
        let tr = tx.transmit(&data);
        let span = tr
            .packets
            .iter()
            .find(|p| p.kind == PacketKind::Data)
            .unwrap();
        let payload_start = span.start + 5 + size_field_len(CskOrder::Csk8);
        let frames = observe(&tr.symbols, &[], &[]);
        // Corrupt two color bands' labels (as classification errors would).
        let mut flat: Vec<ObservedBand> = frames.into_iter().flatten().collect();
        let mut corrupted = 0;
        for b in flat.iter_mut().skip(payload_start) {
            if corrupted == 2 {
                break;
            }
            if let Label::Color(c) = b.label {
                b.label = Label::Color(c ^ 0x7);
                b.color_idx = c ^ 0x7;
                corrupted += 1;
            }
        }
        let mut packets = de.push_frame(&flat);
        packets.extend(de.finish());
        let ok = packets.iter().find_map(|p| match p {
            ParsedPacket::Data {
                chunk,
                errors_corrected,
                ..
            } => Some((chunk.clone(), *errors_corrected)),
            _ => None,
        });
        let (chunk, errors) = ok.expect("packet should decode");
        assert_eq!(&chunk[..], &data[..]);
        assert!(errors >= 1, "decoder must have corrected something");
    }

    #[test]
    fn catastrophic_loss_reports_rs_failure() {
        let (tx, mut de) = setup(CskOrder::Csk8, 4000.0);
        let k = tx.budget().k_bytes;
        let data = vec![0xEE; k];
        let tr = tx.transmit(&data);
        let span = tr
            .packets
            .iter()
            .find(|p| p.kind == PacketKind::Data)
            .unwrap();
        let payload_start = span.start + 5 + size_field_len(CskOrder::Csk8);
        // Lose far more than the parity budget.
        let gap = payload_start..(payload_start + 90).min(span.end);
        let frames = observe(&tr.symbols, &[gap.end], &[gap]);
        let mut packets = Vec::new();
        for f in &frames {
            packets.extend(de.push_frame(f));
        }
        packets.extend(de.finish());
        assert!(packets.iter().any(|p| matches!(
            p,
            ParsedPacket::DataFailed {
                reason: FailReason::RsCapacityExceeded,
                ..
            }
        )));
    }

    #[test]
    fn incomplete_trailing_packet_waits_for_flush() {
        let (tx, mut de) = setup(CskOrder::Csk8, 2000.0);
        let tr = tx.transmit(&[5u8; 10]);
        // Feed everything except the final delimiter: no data packet should
        // complete yet.
        let n = tr.symbols.len();
        let frames = observe(&tr.symbols[..n - 3], &[], &[]);
        let mut packets = Vec::new();
        for f in &frames {
            packets.extend(de.push_frame(f));
        }
        let data_before_flush = packets
            .iter()
            .filter(|p| matches!(p, ParsedPacket::Data { .. }))
            .count();
        let flushed = de.finish();
        let data_after_flush = flushed
            .iter()
            .filter(|p| matches!(p, ParsedPacket::Data { .. }))
            .count();
        let total_sent = tr.packets.iter().filter(|p| p.chunk.is_some()).count();
        assert_eq!(data_before_flush + data_after_flush, total_sent);
        assert_eq!(data_after_flush, 1, "last packet completes only at flush");
    }

    // ---- interleaved (FEC) framing ----

    /// Build a transmitter + depacketizer pair in interleaved mode.
    fn setup_fec(
        order: CskOrder,
        rate: f64,
        loss: f64,
        depth: usize,
    ) -> (Transmitter, Depacketizer) {
        let cfg = LinkConfig::paper_default(order, rate, loss).with_fec(depth);
        let tx = Transmitter::new(cfg.clone()).unwrap();
        let gap_symbols = cfg.loss_ratio * cfg.symbol_rate / cfg.frame_rate;
        let code = tx.budget().code();
        let de = Depacketizer::new(
            tx.constellation().clone(),
            Some(code.clone()),
            cfg.white_ratio(),
            gap_symbols,
            crate::transmitter::cal_copies(&cfg),
        )
        .with_fec(Interleaver::new(depth, code).unwrap());
        (tx, de)
    }

    fn run(de: &mut Depacketizer, frames: &[Vec<ObservedBand>]) -> Vec<ParsedPacket> {
        let mut packets = Vec::new();
        for f in frames {
            packets.extend(de.push_frame(f));
        }
        packets.extend(de.finish());
        packets
    }

    fn data_chunks_of(packets: &[ParsedPacket]) -> Vec<Vec<u8>> {
        packets
            .iter()
            .filter_map(|p| match p {
                ParsedPacket::Data { chunk, .. } => Some(chunk.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn interleaved_lossless_stream_round_trips_groups() {
        let depth = 4;
        let (tx, mut de) = setup_fec(CskOrder::Csk8, 3000.0, 0.3727, depth);
        let k = tx.budget().k_bytes;
        // Two full groups of payload.
        let data: Vec<u8> = (0..(2 * depth * k) as u16)
            .map(|i| (i % 251) as u8)
            .collect();
        let tr = tx.transmit(&data);
        let packets = run(&mut de, &observe(&tr.symbols, &[], &[]));
        let chunks = data_chunks_of(&packets);
        let expected = tr.data_chunks();
        assert_eq!(chunks.len(), expected.len(), "{packets:?}");
        for (got, want) in chunks.iter().zip(expected) {
            assert_eq!(&got[..], want);
        }
        assert!(packets.iter().all(|p| !matches!(
            p,
            ParsedPacket::Data {
                via_interleave: false,
                ..
            }
        )));
        assert_eq!(de.fec_groups(), 2);
        assert_eq!(de.fec_codewords(), 2 * depth);
        assert_eq!(de.fec_segments_missing(), 0);
    }

    #[test]
    fn whole_lost_packet_is_rebuilt_from_the_other_segments() {
        let depth = 4;
        let (tx, mut de) = setup_fec(CskOrder::Csk8, 3000.0, 0.3727, depth);
        let k = tx.budget().k_bytes;
        let data: Vec<u8> = (0..(depth * k) as u8).collect();
        let tr = tx.transmit(&data);
        // Drop the second data packet in its entirety (flag included):
        // a burst that swallows a whole packet, the failure mode that
        // defeats per-packet RS outright.
        let victim = tr
            .packets
            .iter()
            .filter(|p| p.kind == PacketKind::Data)
            .nth(1)
            .unwrap();
        // One lost *span* (not a vec of indices), hence the lint override.
        #[allow(clippy::single_range_in_vec_init)]
        let lost = [victim.start..victim.end];
        let packets = run(&mut de, &observe(&tr.symbols, &[victim.end], &lost));
        let chunks = data_chunks_of(&packets);
        let expected = tr.data_chunks();
        assert_eq!(chunks.len(), expected.len(), "{packets:?}");
        for (got, want) in chunks.iter().zip(expected) {
            assert_eq!(&got[..], want);
        }
        assert_eq!(de.fec_segments_missing(), 1);
        // The missing segment's bytes were filled by RS: at least one
        // codeword reports recovered erasures.
        assert!(packets.iter().any(|p| matches!(
            p,
            ParsedPacket::Data {
                erasures_recovered: e,
                via_interleave: true,
                ..
            } if *e > 0
        )));
    }

    #[test]
    fn burst_beyond_the_interleave_budget_fails_loud() {
        let depth = 8;
        let (tx, mut de) = setup_fec(CskOrder::Csk8, 3000.0, 0.3727, depth);
        let k = tx.budget().k_bytes;
        let n = tx.budget().n_bytes;
        let parity = n - k;
        let data: Vec<u8> = (0..(depth * k) as u8).collect();
        let tr = tx.transmit(&data);
        // Drop enough whole packets that every codeword carries more
        // declared erasures than the parity can absorb.
        let drop = parity / n.div_ceil(depth) + 1;
        assert!(drop < depth, "test needs at least one surviving packet");
        let spans: Vec<std::ops::Range<usize>> = tr
            .packets
            .iter()
            .filter(|p| p.kind == PacketKind::Data)
            .skip(1)
            .take(drop)
            .map(|p| p.start..p.end)
            .collect();
        let packets = run(&mut de, &observe(&tr.symbols, &[], &spans));
        let bursts = packets
            .iter()
            .filter(|p| {
                matches!(
                    p,
                    ParsedPacket::DataFailed {
                        reason: FailReason::UnrecoverableBurst,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(
            bursts, depth,
            "all codewords of the group are unrecoverable: {packets:?}"
        );
        assert_eq!(de.fec_segments_missing(), drop);
        assert_eq!(de.fec_codewords(), depth);
    }

    #[test]
    fn streamed_interleaved_frames_match_single_shot() {
        let depth = 3;
        let (tx, mut de) = setup_fec(CskOrder::Csk8, 3000.0, 0.3727, depth);
        let k = tx.budget().k_bytes;
        let data: Vec<u8> = (0..(2 * depth * k) as u8)
            .map(|i| i.wrapping_mul(7))
            .collect();
        let tr = tx.transmit(&data);
        // Cut the stream every 40 symbols and feed it frame by frame;
        // the single-shot decode of the *same* observed bands (one big
        // push) must produce byte-identical packets.
        let splits: Vec<usize> = (1..tr.symbols.len() / 40).map(|i| i * 40).collect();
        let frames = observe(&tr.symbols, &splits, &[]);
        let streamed = run(&mut de, &frames);
        let (_, mut de2) = setup_fec(CskOrder::Csk8, 3000.0, 0.3727, depth);
        let all: Vec<ObservedBand> = frames.concat();
        let batch = run(&mut de2, std::slice::from_ref(&all));
        assert_eq!(streamed, batch);
        assert!(!data_chunks_of(&streamed).is_empty());
    }

    /// A receiver built without the shared interleaver cannot place
    /// interleaved segments: every data packet of an interleaved
    /// transmission comes back `DecoderDisabled`, carrying the count of
    /// data symbols its body delivered after the header.
    #[test]
    fn interleaved_packets_without_an_interleaver_report_decoder_disabled() {
        let depth = 4;
        let cfg = LinkConfig::paper_default(CskOrder::Csk8, 3000.0, 0.3727).with_fec(depth);
        let tx = Transmitter::new(cfg.clone()).unwrap();
        let mut de = Depacketizer::new(
            tx.constellation().clone(),
            Some(tx.budget().code()),
            cfg.white_ratio(),
            cfg.loss_ratio * cfg.symbol_rate / cfg.frame_rate,
            crate::transmitter::cal_copies(&cfg),
        );
        let k = tx.budget().k_bytes;
        let data: Vec<u8> = (0..depth * k).map(|i| (i % 251) as u8).collect();
        let tr = tx.transmit(&data);
        let header =
            crate::packet::IL_FLAG.len() + size_field_len(CskOrder::Csk8) + GROUP_POS_DIGITS;
        let want: Vec<ParsedPacket> = tr
            .packets
            .iter()
            .filter(|p| p.kind == PacketKind::Data)
            .map(|p| ParsedPacket::DataFailed {
                reason: FailReason::DecoderDisabled,
                data_symbols_received: tr.symbols[p.start + header..p.end]
                    .iter()
                    .filter(|s| !s.is_white())
                    .count(),
            })
            .collect();
        assert_eq!(want.len(), depth);
        let splits: Vec<usize> = (1..tr.symbols.len() / 40).map(|i| i * 40).collect();
        let got: Vec<ParsedPacket> = run(&mut de, &observe(&tr.symbols, &splits, &[]))
            .into_iter()
            .filter(|p| !matches!(p, ParsedPacket::Calibration { .. }))
            .collect();
        assert_eq!(got, want);
        assert_eq!(de.fec_groups(), 0);
    }
}
