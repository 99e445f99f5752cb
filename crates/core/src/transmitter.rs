//! The ColorBars transmitter pipeline (paper Fig 2(b), left side).
//!
//! data bytes → RS(n, k) codewords → bits → CSK symbol indices → payload
//! with interleaved white illumination symbols → packets with flag + size
//! header → symbol stream with periodic calibration packets → tri-LED
//! drive schedule.

use crate::config::{LinkConfig, PacketBudget};
use crate::constellation::Constellation;
use crate::error::LinkError;
use crate::illumination::is_white_position;
use crate::packet::{Packet, PacketKind, CAL_FLAG, DELIMITER};
use crate::symbol::{Symbol, SymbolMapper};
use colorbars_led::{LedEmitter, Platform};
use colorbars_obs as obs;
use colorbars_rs::ReedSolomon;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One packet's position within a transmission, with its ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketSpan {
    /// Data or calibration.
    pub kind: PacketKind,
    /// Start index (inclusive) in the wire symbol stream.
    pub start: usize,
    /// End index (exclusive) in the wire symbol stream.
    pub end: usize,
    /// For data packets: the k-byte plaintext chunk this packet carries.
    pub chunk: Option<Vec<u8>>,
}

/// A complete transmission: the wire symbol stream plus ground truth.
#[derive(Debug, Clone)]
pub struct Transmission {
    /// Every symbol on the wire, in order.
    pub symbols: Vec<Symbol>,
    /// Packet spans with their plaintext chunks.
    pub packets: Vec<PacketSpan>,
    /// The packet budget used (`None` for raw/uncoded streams).
    pub budget: Option<PacketBudget>,
    /// White ratio used for illumination interleaving.
    pub white_ratio: f64,
}

impl Transmission {
    /// All data chunks in transmission order (each exactly k bytes,
    /// zero-padded).
    pub fn data_chunks(&self) -> Vec<&[u8]> {
        self.packets
            .iter()
            .filter_map(|p| p.chunk.as_deref())
            .collect()
    }

    /// Wire duration at a symbol rate, in seconds.
    pub fn duration(&self, symbol_rate: f64) -> f64 {
        self.symbols.len() as f64 / symbol_rate
    }

    /// The scheduled symbol at time `t` (ground truth for SER measurement).
    pub fn symbol_at(&self, t: f64, symbol_rate: f64) -> Option<Symbol> {
        if t < 0.0 {
            return None;
        }
        let idx = (t * symbol_rate).floor() as usize;
        self.symbols.get(idx).copied()
    }
}

/// The transmitter: owns the link configuration and RS codec.
#[derive(Debug, Clone)]
pub struct Transmitter {
    config: LinkConfig,
    constellation: Constellation,
    budget: PacketBudget,
    code: ReedSolomon,
}

impl Transmitter {
    /// Build a transmitter. Fails when the configuration is invalid or the
    /// frame-locked packet budget is unrealizable at this operating point.
    pub fn new(config: LinkConfig) -> Result<Transmitter, LinkError> {
        config.validate()?;
        let budget = config.packet_budget()?;
        let code = budget.code();
        let constellation = config.constellation();
        Ok(Transmitter {
            config,
            constellation,
            budget,
            code,
        })
    }

    /// The link configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// The frame-locked packet budget in force.
    pub fn budget(&self) -> &PacketBudget {
        &self.budget
    }

    /// The constellation in use.
    pub fn constellation(&self) -> &Constellation {
        &self.constellation
    }

    /// Encode `data` into a complete wire symbol stream.
    ///
    /// The stream starts with a calibration packet (receiver bootstrap),
    /// interleaves further calibration packets at the configured rate, and
    /// ends with a bare delimiter so the final packet is bounded. Every
    /// packet — calibration included — occupies exactly one frame period on
    /// the wire (padded with white illumination symbols where necessary),
    /// so the inter-frame gap keeps a fixed phase inside every packet
    /// (Section 5's packet-sizing argument). The final data chunk is
    /// zero-padded to the RS message size.
    pub fn transmit(&self, data: &[u8]) -> Transmission {
        let _span = obs::span!("tx.transmit");
        let k = self.budget.k_bytes;
        let w = self.config.white_ratio();
        let mut stream = StreamBuilder::new(self.config.clone());

        if let Some(fec) = &self.config.fec {
            // Interleaved framing (DESIGN.md §13): accumulate depth chunks,
            // stripe them across depth RS codewords, and send each wire
            // segment as one frame-locked packet tagged with its group
            // position. Chunk `c` of the group is codeword `c`'s message, so
            // the per-packet ground truth (goodput scoring) is unchanged.
            let il = colorbars_fec::Interleaver::new(fec.depth, self.code.clone())
                .expect("validate() bounds the interleave depth");
            let group_len = il.group_data_len();
            for group_bytes in data.chunks(group_len.max(1)) {
                let mut group = group_bytes.to_vec();
                group.resize(group_len, 0);
                let segments = il
                    .encode_group(&group)
                    .expect("group is exactly depth×k bytes by construction");
                for (pos, segment) in segments.iter().enumerate() {
                    stream.maybe_calibration(self.budget.wire_symbols);
                    let payload = self.payload_symbols(segment, w);
                    let chunk = group[pos * k..(pos + 1) * k].to_vec();
                    stream.push(&Packet::data_interleaved(pos, payload), Some(chunk));
                }
            }
        } else {
            for chunk_bytes in data.chunks(k.max(1)) {
                stream.maybe_calibration(self.budget.wire_symbols);
                let mut chunk = chunk_bytes.to_vec();
                chunk.resize(k, 0);
                let codeword = self
                    .code
                    .encode(&chunk)
                    .expect("chunk is exactly k bytes by construction");
                let payload = self.payload_symbols(&codeword, w);
                stream.push(&Packet::data(payload), Some(chunk));
            }
        }
        let tr = stream.finish(Some(self.budget), w);
        self.record_emit_journeys(&tr);
        tr
    }

    /// Journey hook: one `tx.emit` record per scheduled data packet —
    /// the wire span, the plaintext chunk, the scheduled symbols, and (for
    /// interleaved framing) the FEC group/position the chunk rides in.
    /// No-op when journey recording is off.
    fn record_emit_journeys(&self, tr: &Transmission) {
        if !obs::journey::is_active() {
            return;
        }
        let depth = self.config.fec.map(|f| f.depth);
        let mut data_index = 0usize;
        for span in &tr.packets {
            if span.kind != PacketKind::Data {
                continue;
            }
            // Symbols encoded compactly: 0..=65533 color index, 65534
            // white, 65535 off (sentinels sit above the u16 index range so
            // no constellation order can collide with them).
            let symbols: Vec<obs::Value> = tr.symbols[span.start..span.end]
                .iter()
                .map(|s| {
                    obs::Value::from(match s {
                        Symbol::Color(i) => *i as u64,
                        Symbol::White => 65534u64,
                        Symbol::Off => 65535u64,
                    })
                })
                .collect();
            let chunk: Vec<obs::Value> = span
                .chunk
                .iter()
                .flat_map(|c| c.iter().map(|&b| obs::Value::from(b as u64)))
                .collect();
            let mut fields = obs::Value::object([
                ("wire_start", obs::Value::from(span.start)),
                ("wire_end", obs::Value::from(span.end)),
                ("chunk", obs::Value::Array(chunk)),
                ("symbols", obs::Value::Array(symbols)),
            ]);
            if let Some(depth) = depth {
                fields.insert("fec_group", obs::Value::from(data_index / depth));
                fields.insert("fec_pos", obs::Value::from(data_index % depth));
            }
            obs::journey::record(obs::journey::JourneyRecord {
                id: 0,
                namespace: String::new(),
                stage: "tx.emit".to_string(),
                verdict: "scheduled".to_string(),
                frames: Vec::new(),
                bands: Vec::new(),
                fields,
            });
            data_index += 1;
        }
    }

    /// Build an *uncoded* stream of `seconds` airtime carrying random
    /// symbols: the configuration used for the paper's SER and raw-
    /// throughput measurements (Figs 9–10), where "we do not perform any
    /// error correction at the receiver". Packets still carry flags and
    /// size fields so framing statistics stay realistic, but payload
    /// symbols are drawn uniformly from the constellation and there is no
    /// RS structure. Works at every operating point, including ones whose
    /// RS budget is unrealizable.
    pub fn transmit_raw(
        config: &LinkConfig,
        seconds: f64,
        seed: u64,
    ) -> Result<Transmission, LinkError> {
        let _span = obs::span!("tx.transmit_raw");
        config.validate()?;
        let w = config.white_ratio();
        let per_frame = (config.symbol_rate / config.frame_rate).round() as usize;
        let header = crate::packet::DATA_FLAG.len() + crate::packet::size_field_len(config.order);
        if per_frame <= header + 2 {
            return Err(LinkError::RawFramePeriodTooShort);
        }
        let payload_len = per_frame - header;
        let m = config.order.points() as u16;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stream = StreamBuilder::new(config.clone());
        let total_symbols = (seconds * config.symbol_rate) as usize;
        while stream.len() < total_symbols {
            stream.maybe_calibration(per_frame);
            let payload: Vec<Symbol> = (0..payload_len)
                .map(|i| {
                    if is_white_position(i, w) {
                        Symbol::White
                    } else {
                        Symbol::Color(rng.gen_range(0..m))
                    }
                })
                .collect();
            stream.push(&Packet::data(payload), None);
        }
        Ok(stream.finish(None, w))
    }

    /// Expand one RS codeword into exactly `payload_symbols` payload slots:
    /// whites at the shared positions, codeword bits in the data slots,
    /// white padding in any leftover data slots past the codeword.
    fn payload_symbols(&self, codeword: &[u8], w: f64) -> Vec<Symbol> {
        let bits: Vec<bool> = codeword
            .iter()
            .flat_map(|&byte| (0..8).rev().map(move |k| (byte >> k) & 1 == 1))
            .collect();
        let indices = self.constellation.bits_to_indices(&bits);
        let total = self.budget.payload_symbols;
        let mut out = Vec::with_capacity(total);
        let mut next_data = 0usize;
        for i in 0..total {
            if is_white_position(i, w) || next_data >= indices.len() {
                out.push(Symbol::White);
            } else {
                out.push(Symbol::Color(indices[next_data]));
                next_data += 1;
            }
        }
        debug_assert_eq!(next_data, indices.len(), "all data symbols placed");
        out
    }

    /// Build the LED drive schedule for a transmission.
    pub fn schedule(&self, t: &Transmission) -> LedEmitter {
        let mapper = SymbolMapper::new(self.config.led, self.constellation.clone());
        mapper.schedule(
            &t.symbols,
            self.config.symbol_rate,
            Platform::BEAGLEBONE_BLACK.pwm_frequency,
        )
    }

    /// Build the LED drive schedule for any transmission under a config
    /// (usable with [`Transmitter::transmit_raw`] streams).
    pub fn schedule_for(config: &LinkConfig, t: &Transmission) -> LedEmitter {
        let mapper = SymbolMapper::new(config.led, config.constellation());
        mapper.schedule(
            &t.symbols,
            config.symbol_rate,
            Platform::BEAGLEBONE_BLACK.pwm_frequency,
        )
    }
}

/// Accumulates packets into a wire stream with calibration cadence and
/// frame-slot padding.
struct StreamBuilder {
    config: LinkConfig,
    constellation: Constellation,
    symbols: Vec<Symbol>,
    packets: Vec<PacketSpan>,
    next_cal_at: f64,
    cal_period: f64,
    cal_count: usize,
}

impl StreamBuilder {
    fn new(config: LinkConfig) -> StreamBuilder {
        let cal_period = if config.calibration_rate > 0.0 {
            1.0 / config.calibration_rate
        } else {
            f64::INFINITY
        };
        let constellation = config.constellation();
        StreamBuilder {
            config,
            constellation,
            symbols: Vec::new(),
            packets: Vec::new(),
            next_cal_at: 0.0, // transmit one immediately
            cal_period,
            cal_count: 0,
        }
    }

    fn len(&self) -> usize {
        self.symbols.len()
    }

    fn push(&mut self, p: &Packet, chunk: Option<Vec<u8>>) {
        let start = self.symbols.len();
        self.symbols.extend(p.serialize(self.config.order));
        match p.kind {
            PacketKind::Data => obs::counter!("tx.packets.data"),
            PacketKind::Calibration => obs::counter!("tx.packets.calibration"),
        }
        self.packets.push(PacketSpan {
            kind: p.kind,
            start,
            end: self.symbols.len(),
            chunk,
        });
    }

    /// Emit a calibration packet when one is due.
    ///
    /// Two deliberate design touches make calibration robust against the
    /// frame-locked gap phase (Section 5 sizes packets to one frame period,
    /// so the gap sits at a *fixed* offset inside every packet — if the
    /// reference colors always occupied the same offset, one unlucky phase
    /// would destroy every calibration packet forever):
    ///
    /// 1. **In-slot rotation** — the reference colors are placed at a
    ///    rotating offset inside the calibration packet's frame slot, the
    ///    rest padded with information-free white symbols (the receiver
    ///    strips whites from calibration bodies before positional
    ///    matching). Successive calibration packets thus expose their
    ///    colors to different gap offsets.
    /// 2. **Epoch phase advance** — after each calibration packet the slot
    ///    is over-padded by a rotating quarter-slot, advancing the gap
    ///    phase of *all* subsequent packets. Across the 5 calibration
    ///    epochs per second the link samples the whole phase cycle, so no
    ///    single unlucky alignment can persist.
    fn maybe_calibration(&mut self, frame_slot: usize) {
        let now = self.symbols.len() as f64 * self.config.symbol_period();
        if now < self.next_cal_at {
            return;
        }
        let m = self.config.order.points();
        let sequence = self.constellation.calibration_sequence();
        let copies = cal_copies(&self.config);
        // Epoch phase advance: after each calibration the slot is
        // over-padded by a rotating ~golden-ratio step, advancing the gap
        // phase of all subsequent packets so no single unlucky alignment
        // (gap permanently over headers or reference colors) can persist.
        let shift = (self.cal_count * (frame_slot * 38 / 100 + 1)) % frame_slot;
        let payload_len = frame_slot.saturating_sub(CAL_FLAG.len()) + shift;
        let payload = if copies == 2 {
            // Two copies of the reference block, separated by at least one
            // inter-frame gap's worth of padding: whatever phase the gap
            // has, at most one copy is damaged. Padding runs are kept at
            // length 0 or >= 3 so the receiver can tell padding (long white
            // runs) from isolated misread references.
            let half = payload_len / 2;
            let lead_room = half.saturating_sub(m);
            let lead = pad_clamp((self.cal_count * (lead_room * 38 / 100 + 1)) % (lead_room + 1));
            let mut p: Vec<Symbol> = Vec::with_capacity(payload_len);
            p.extend(std::iter::repeat_n(Symbol::White, lead));
            p.extend(sequence.iter().map(|&i| Symbol::Color(i)));
            let mid = pad_clamp(half.saturating_sub(lead + m).max(3));
            p.extend(std::iter::repeat_n(Symbol::White, mid));
            p.extend(sequence.iter().map(|&i| Symbol::Color(i)));
            let used = lead + m + mid + m;
            p.extend(std::iter::repeat_n(
                Symbol::White,
                pad_clamp(payload_len.saturating_sub(used)),
            ));
            p
        } else if CAL_FLAG.len() + m < frame_slot {
            // One copy with rotating in-slot offset.
            let room = payload_len - m;
            let lead = pad_clamp((self.cal_count * (room * 38 / 100 + 1)) % (room + 1));
            let mut p: Vec<Symbol> = Vec::with_capacity(payload_len);
            p.extend(std::iter::repeat_n(Symbol::White, lead.min(room)));
            p.extend(sequence.iter().map(|&i| Symbol::Color(i)));
            p.extend(std::iter::repeat_n(
                Symbol::White,
                pad_clamp(room - lead.min(room)),
            ));
            p
        } else {
            // The calibration packet itself exceeds a frame slot (very low
            // rates with large constellations): send bare.
            sequence.iter().map(|&i| Symbol::Color(i)).collect()
        };
        let cal = Packet {
            kind: PacketKind::Calibration,
            group_pos: None,
            payload,
        };
        self.push(&cal, None);
        self.cal_count += 1;
        self.next_cal_at = now + self.cal_period;
    }

    fn finish(mut self, budget: Option<PacketBudget>, white_ratio: f64) -> Transmission {
        // Terminal delimiter bounds the last packet.
        self.symbols.extend_from_slice(&DELIMITER);
        obs::counter!("tx.symbols", self.symbols.len());
        Transmission {
            symbols: self.symbols,
            packets: self.packets,
            budget,
            white_ratio,
        }
    }
}

/// Number of reference-block copies a calibration slot carries: two when a
/// frame slot has room for both plus separating padding, one otherwise.
/// Transmitter and receiver derive this identically from the shared config.
pub fn cal_copies(config: &LinkConfig) -> usize {
    let frame_slot = (config.symbol_rate / config.frame_rate).round() as usize;
    let m = config.order.points();
    if frame_slot.saturating_sub(CAL_FLAG.len()) >= 2 * m + 3 {
        2
    } else {
        1
    }
}

/// Clamp a white padding run length away from {1, 2}: the receiver treats
/// white runs of length >= 3 as padding and shorter runs as misread
/// reference colors, so padding must never be 1-2 symbols long.
fn pad_clamp(n: usize) -> usize {
    if n == 1 || n == 2 {
        3
    } else {
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constellation::CskOrder;
    use crate::packet::{size_field_len, CAL_FLAG, DATA_FLAG};

    fn tx(order: CskOrder, rate: f64) -> Transmitter {
        Transmitter::new(LinkConfig::paper_default(order, rate, 0.2312)).unwrap()
    }

    #[test]
    fn transmission_roundtrip_structure() {
        let t = tx(CskOrder::Csk8, 2000.0);
        let data: Vec<u8> = (0..100).collect();
        let tr = t.transmit(&data);
        // First packet is calibration, then data packets follow.
        assert_eq!(tr.packets[0].kind, PacketKind::Calibration);
        let data_packets: Vec<_> = tr
            .packets
            .iter()
            .filter(|p| p.kind == PacketKind::Data)
            .collect();
        let k = t.budget().k_bytes;
        assert_eq!(data_packets.len(), 100usize.div_ceil(k));
        // Chunks reassemble the padded input.
        let mut reassembled: Vec<u8> = Vec::new();
        for p in &data_packets {
            reassembled.extend_from_slice(p.chunk.as_deref().unwrap());
        }
        assert_eq!(&reassembled[..100], &data[..]);
        assert!(reassembled[100..].iter().all(|&b| b == 0), "zero padding");
    }

    #[test]
    fn wire_stream_has_flags_at_packet_starts() {
        let t = tx(CskOrder::Csk16, 3000.0);
        let tr = t.transmit(&[7u8; 64]);
        for p in &tr.packets {
            match p.kind {
                PacketKind::Data => {
                    assert_eq!(&tr.symbols[p.start..p.start + 5], &DATA_FLAG);
                }
                PacketKind::Calibration => {
                    assert_eq!(&tr.symbols[p.start..p.start + 7], &CAL_FLAG);
                }
            }
        }
        // Stream ends with the bare delimiter.
        let n = tr.symbols.len();
        assert_eq!(&tr.symbols[n - 3..], &crate::packet::DELIMITER);
    }

    #[test]
    fn payload_white_fraction_matches_table() {
        let t = tx(CskOrder::Csk8, 1000.0); // w = 0.45 at 1 kHz
        let tr = t.transmit(&[0xAB; 40]);
        let p = tr
            .packets
            .iter()
            .find(|p| p.kind == PacketKind::Data)
            .unwrap();
        let payload =
            &tr.symbols[p.start + DATA_FLAG.len() + size_field_len(CskOrder::Csk8)..p.end];
        let whites = payload.iter().filter(|s| s.is_white()).count();
        let frac = whites as f64 / payload.len() as f64;
        assert!((frac - 0.45).abs() < 0.05, "white fraction {frac}");
    }

    #[test]
    fn no_off_symbols_inside_payloads() {
        let t = tx(CskOrder::Csk32, 4000.0);
        let tr = t.transmit(&[0x5A; 120]);
        for p in &tr.packets {
            let header = match p.kind {
                PacketKind::Data => DATA_FLAG.len() + size_field_len(CskOrder::Csk32),
                PacketKind::Calibration => CAL_FLAG.len(),
            };
            for s in &tr.symbols[p.start + header..p.end] {
                assert!(!s.is_off(), "OFF inside payload of {:?}", p.kind);
            }
        }
    }

    #[test]
    fn calibration_rate_is_respected() {
        let t = tx(CskOrder::Csk8, 4000.0);
        // Enough data for ~2 seconds of air time.
        let k = t.budget().k_bytes;
        let data = vec![1u8; k * 60];
        let tr = t.transmit(&data);
        let secs = tr.duration(4000.0);
        let cals = tr
            .packets
            .iter()
            .filter(|p| p.kind == PacketKind::Calibration)
            .count();
        let rate = cals as f64 / secs;
        assert!(
            (rate - 5.0).abs() < 1.5,
            "calibration rate {rate}/s over {secs}s ({cals} packets)"
        );
    }

    #[test]
    fn symbol_at_returns_ground_truth() {
        let t = tx(CskOrder::Csk8, 1000.0);
        let tr = t.transmit(&[1, 2, 3]);
        assert_eq!(tr.symbol_at(0.0, 1000.0), Some(tr.symbols[0]));
        assert_eq!(tr.symbol_at(0.0025, 1000.0), Some(tr.symbols[2]));
        assert_eq!(tr.symbol_at(-1.0, 1000.0), None);
        assert_eq!(tr.symbol_at(1e9, 1000.0), None);
    }

    #[test]
    fn schedule_covers_whole_stream() {
        let t = tx(CskOrder::Csk4, 2000.0);
        let tr = t.transmit(&[9u8; 16]);
        let e = t.schedule(&tr);
        assert!((e.duration() - tr.duration(2000.0)).abs() < 1e-9);
    }

    #[test]
    fn cal_copies_depends_on_slot_room() {
        // 8CSK at 4 kHz: slot 133, room for 2×8+3 → dual copies.
        let roomy = LinkConfig::paper_default(CskOrder::Csk8, 4000.0, 0.2312);
        assert_eq!(cal_copies(&roomy), 2);
        // 32CSK at 1 kHz: slot 33 < flag + 2×32 → single copy.
        let tight = LinkConfig::paper_default(CskOrder::Csk32, 1000.0, 0.2312);
        assert_eq!(cal_copies(&tight), 1);
    }

    #[test]
    fn calibration_slots_rotate_phase_across_epochs() {
        // Successive calibration packets must start at different offsets
        // modulo the frame slot (the epoch phase advance), so no fixed gap
        // phase can kill every calibration.
        let t = tx(CskOrder::Csk8, 3000.0);
        let k = t.budget().k_bytes;
        let data = vec![7u8; k * 40]; // several calibration epochs
        let tr = t.transmit(&data);
        let slot = t.budget().wire_symbols;
        let offsets: Vec<usize> = tr
            .packets
            .iter()
            .filter(|p| p.kind == PacketKind::Calibration)
            .map(|p| p.start % slot)
            .collect();
        assert!(offsets.len() >= 3, "need several epochs: {offsets:?}");
        let distinct: std::collections::HashSet<usize> = offsets.iter().cloned().collect();
        assert!(
            distinct.len() >= offsets.len() - 1,
            "epoch offsets must vary: {offsets:?}"
        );
    }

    #[test]
    fn calibration_padding_runs_are_never_one_or_two() {
        // The receiver treats white runs of length >= 3 as padding; the
        // transmitter must never emit 1-2-long padding runs inside a
        // calibration slot.
        let t = tx(CskOrder::Csk8, 3000.0);
        let k = t.budget().k_bytes;
        let tr = t.transmit(&vec![3u8; k * 40]);
        for p in tr
            .packets
            .iter()
            .filter(|p| p.kind == PacketKind::Calibration)
        {
            let body = &tr.symbols[p.start + CAL_FLAG.len()..p.end];
            let mut run = 0usize;
            let mut runs = Vec::new();
            for s in body {
                if s.is_white() {
                    run += 1;
                } else if run > 0 {
                    runs.push(run);
                    run = 0;
                }
            }
            if run > 0 {
                runs.push(run);
            }
            for r in runs {
                assert!(r == 0 || r >= 3, "padding run of {r} whites in cal slot");
            }
        }
    }

    #[test]
    fn invalid_config_is_rejected() {
        let cfg = LinkConfig::paper_default(CskOrder::Csk8, 9000.0, 0.23);
        assert!(Transmitter::new(cfg).is_err());
    }

    #[test]
    fn interleaved_transmission_cycles_group_positions() {
        use crate::packet::{decode_group_pos, GROUP_POS_DIGITS, IL_FLAG};
        let depth = 4;
        let cfg = LinkConfig::paper_default(CskOrder::Csk8, 3000.0, 0.3727).with_fec(depth);
        let t = Transmitter::new(cfg).unwrap();
        let k = t.budget().k_bytes;
        let data: Vec<u8> = (0..(depth * k * 3) as u32).map(|i| (i * 7) as u8).collect();
        let tr = t.transmit(&data);

        let mut positions = Vec::new();
        for p in tr.packets.iter().filter(|p| p.kind == PacketKind::Data) {
            // Interleaved framing on the wire: IL flag, size, group position.
            assert_eq!(&tr.symbols[p.start..p.start + IL_FLAG.len()], &IL_FLAG);
            let sf = size_field_len(CskOrder::Csk8);
            let pos_at = p.start + IL_FLAG.len() + sf;
            let pos = decode_group_pos(
                CskOrder::Csk8,
                &tr.symbols[pos_at..pos_at + GROUP_POS_DIGITS],
            )
            .expect("well-formed position field");
            positions.push(pos);
        }
        assert_eq!(positions.len(), 3 * depth);
        for (i, pos) in positions.iter().enumerate() {
            assert_eq!(*pos, i % depth, "positions cycle through the group");
        }
        // Ground-truth chunks still reassemble the (padded) input in order.
        let reassembled: Vec<u8> = tr.data_chunks().concat();
        assert_eq!(&reassembled[..data.len()], &data[..]);
    }
}
