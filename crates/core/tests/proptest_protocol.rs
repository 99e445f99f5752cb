//! Property-based tests for the ColorBars protocol layer: bit↔symbol
//! mappings, packet framing, illumination positions, the transmit→
//! parse round-trip under lossless and gap-lossy observation, and the
//! parser's behaviour on hostile band streams.

use colorbars_color::{GamutTriangle, Lab};
use colorbars_core::depacket::{Depacketizer, ObservedBand, ParsedPacket};
use colorbars_core::packet::{CAL_FLAG, DATA_FLAG, IL_FLAG};
use colorbars_core::{
    is_white_position, Constellation, CskOrder, EqualizerKind, Label, LinkConfig, Receiver, Symbol,
    Transmitter,
};
use colorbars_fec::Interleaver;
use proptest::prelude::*;

fn any_order() -> impl Strategy<Value = CskOrder> {
    prop_oneof![
        Just(CskOrder::Csk4),
        Just(CskOrder::Csk8),
        Just(CskOrder::Csk16),
        Just(CskOrder::Csk32),
    ]
}

/// Turn a wire stream into perfectly observed bands with an optional lost
/// range (simulated inter-frame gap at a frame boundary).
fn observe(symbols: &[Symbol], lost: Option<std::ops::Range<usize>>) -> Vec<ObservedBand> {
    let mut out = Vec::with_capacity(symbols.len());
    for (i, &s) in symbols.iter().enumerate() {
        let frame_index = match &lost {
            Some(r) if i >= r.end => 1,
            _ => 0,
        };
        if let Some(r) = &lost {
            if r.contains(&i) {
                continue;
            }
        }
        let (label, color_idx) = match s {
            Symbol::Off => (Label::Off, 0),
            Symbol::White => (Label::White, 0),
            Symbol::Color(c) => (Label::Color(c), c),
        };
        let feature = Lab::new(
            match s {
                Symbol::Off => 0.0,
                Symbol::White => 90.0,
                Symbol::Color(c) => 40.0 + c as f64,
            },
            0.0,
            0.0,
        );
        out.push(ObservedBand {
            label,
            color_idx,
            nn_idx: color_idx,
            feature,
            frame_index,
        });
    }
    out
}

/// A run of bands as a hostile or corrupted capture could hand the
/// parser: one band with any label, color indices in and past every
/// constellation, a feature that need not be finite, and a frame index
/// that is 0 three times in four and arbitrary otherwise (the caller adds
/// the frame's own index), preceded one time in eight by a whole flag run
/// of a random kind. Small indices and color labels are common enough
/// that headers parse, so packets of every framing open and close
/// throughout the stream.
fn hostile_bands() -> impl Strategy<Value = Vec<ObservedBand>> {
    let index = || prop_oneof![0u16..4, 0u16..40, any::<u16>()];
    let coord = || {
        prop_oneof![
            -150.0f64..150.0,
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
        ]
    };
    let label = prop_oneof![
        Just(Label::Off),
        Just(Label::White),
        index().prop_map(Label::Color),
        index().prop_map(Label::Color),
    ];
    let band = (
        label,
        index(),
        index(),
        (coord(), coord(), coord()),
        prop_oneof![Just(0usize), Just(0), Just(0), any::<usize>()],
    )
        .prop_map(
            |(label, color_idx, nn_idx, (l, a, b), frame_index)| ObservedBand {
                label,
                color_idx,
                nn_idx,
                feature: Lab::new(l, a, b),
                frame_index,
            },
        );
    (0u8..24, band).prop_map(|(flag, band)| {
        let flag: &[Symbol] = match flag {
            0 => &DATA_FLAG,
            1 => &CAL_FLAG,
            2 => &IL_FLAG,
            _ => &[],
        };
        let flag_band = |s: &Symbol| ObservedBand {
            label: if s.is_off() { Label::Off } else { Label::White },
            ..band
        };
        flag.iter().map(flag_band).chain([band]).collect()
    })
}

fn depacketizer_for(cfg: &LinkConfig, tx: &Transmitter) -> Depacketizer {
    let gap_symbols = cfg.loss_ratio * cfg.symbol_rate / cfg.frame_rate;
    Depacketizer::new(
        tx.constellation().clone(),
        Some(tx.budget().code()),
        cfg.white_ratio(),
        gap_symbols,
        colorbars_core::transmitter::cal_copies(cfg),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bits_symbols_round_trip(order in any_order(), bytes in proptest::collection::vec(any::<u8>(), 1..64)) {
        let cons = Constellation::ieee_style(order, GamutTriangle::typical_tri_led());
        let bits: Vec<bool> = bytes
            .iter()
            .flat_map(|&b| (0..8).rev().map(move |k| (b >> k) & 1 == 1))
            .collect();
        let idx = cons.bits_to_indices(&bits);
        for &i in &idx {
            prop_assert!((i as usize) < order.points());
        }
        let back = cons.indices_to_bits(&idx);
        prop_assert_eq!(&back[..bits.len()], &bits[..]);
    }

    #[test]
    fn white_positions_are_prefix_consistent(w in 0.0f64..0.9, n in 1usize..400) {
        // Count of whites among 0..n equals ⌊n·w⌋ — no drift, ever.
        let count = (0..n).filter(|&i| is_white_position(i, w)).count();
        prop_assert_eq!(count, (n as f64 * w).floor() as usize);
    }

    #[test]
    fn lossless_transmit_parse_round_trip(
        order in any_order(),
        rate in prop_oneof![Just(2000.0f64), Just(3000.0), Just(4000.0)],
        data in proptest::collection::vec(any::<u8>(), 1..120),
    ) {
        let cfg = LinkConfig::paper_default(order, rate, 0.2312);
        let Ok(tx) = Transmitter::new(cfg.clone()) else {
            return Ok(()); // unrealizable operating point
        };
        let tr = tx.transmit(&data);
        let mut de = depacketizer_for(&cfg, &tx);
        let mut packets = de.push_frame(&observe(&tr.symbols, None));
        packets.extend(de.finish());

        let decoded: Vec<Vec<u8>> = packets
            .iter()
            .filter_map(|p| match p {
                ParsedPacket::Data { chunk, .. } => Some(chunk.clone()),
                _ => None,
            })
            .collect();
        let expected = tr.data_chunks();
        prop_assert_eq!(decoded.len(), expected.len());
        for (got, want) in decoded.iter().zip(expected) {
            prop_assert_eq!(&got[..], want);
        }
    }

    #[test]
    fn single_gap_in_payload_is_recovered(
        order in prop_oneof![Just(CskOrder::Csk8), Just(CskOrder::Csk16)],
        gap_offset in 0usize..40,
        seed in any::<u8>(),
    ) {
        // One packet; lose a gap-sized run inside its payload at an
        // arbitrary offset. The plan guarantees recovery of one full gap.
        let cfg = LinkConfig::paper_default(order, 4000.0, 0.2312);
        let tx = Transmitter::new(cfg.clone()).unwrap();
        let budget = *tx.budget();
        let data: Vec<u8> = (0..budget.k_bytes).map(|i| (i as u8) ^ seed).collect();
        let tr = tx.transmit(&data);
        let span = tr
            .packets
            .iter()
            .find(|p| p.chunk.is_some())
            .expect("one data packet");
        let payload_start = span.start + budget.header_symbols;
        let gap_len = budget.gap_symbols.floor() as usize;
        let start = payload_start + (gap_offset % (budget.payload_symbols - gap_len));
        let lost = start..start + gap_len;
        prop_assume!(lost.end <= span.end);

        let mut de = depacketizer_for(&cfg, &tx);
        let mut packets = de.push_frame(&observe(&tr.symbols, Some(lost)));
        packets.extend(de.finish());
        let ok = packets.iter().any(|p| matches!(
            p,
            ParsedPacket::Data { chunk, .. } if chunk == &data
        ));
        prop_assert!(ok, "gap of {gap_len} symbols at payload offset must be recovered: {packets:?}");
    }

    #[test]
    fn absorb_never_panics_on_arbitrary_calibrations(
        order in any_order(),
        ridge in any::<bool>(),
        packets in proptest::collection::vec(
            proptest::collection::vec(
                (
                    prop_oneof![0usize..40, any::<usize>()],
                    (any::<f64>(), -150.0f64..150.0, -150.0f64..150.0),
                ),
                0..40,
            ),
            1..4,
        ),
    ) {
        // Hostile calibration packets: indices in and past the
        // constellation, any number of pairs, colors anywhere. Each one is
        // absorbed or counted as a failed calibration, and one that names
        // an index past the constellation never trains anything.
        let mut cfg = LinkConfig::paper_default(order, 2000.0, 0.2312);
        if ridge {
            cfg.equalizer = EqualizerKind::Ridge;
        }
        let mut rx = Receiver::new_raw(cfg, 7.85e-6).unwrap();
        let m = order.points();
        let mut hostile = 0;
        for pairs in &packets {
            let before = rx.stats().calibrations;
            let out_of_range = pairs.iter().any(|&(idx, _)| idx >= m);
            let features = pairs.iter().map(|&(idx, (l, a, b))| (idx, Lab::new(l, a, b))).collect();
            rx.absorb(vec![ParsedPacket::Calibration { features }]);
            if out_of_range {
                hostile += 1;
                prop_assert_eq!(rx.stats().calibrations, before);
            }
        }
        let stats = rx.stats();
        prop_assert_eq!(stats.calibrations + stats.calibrations_failed, packets.len());
        prop_assert!(stats.calibrations_failed >= hostile);
    }

    #[test]
    fn calibration_sequence_is_always_a_permutation(order in any_order()) {
        let cons = Constellation::ieee_style(order, GamutTriangle::typical_tri_led());
        let seq = cons.calibration_sequence();
        let mut seen = vec![false; order.points()];
        for &i in &seq {
            prop_assert!(!seen[i as usize]);
            seen[i as usize] = true;
        }
        prop_assert!(seen.into_iter().all(|s| s));
    }
}

proptest! {
    // Few random streams parse a header intact, so this property runs
    // more cases than the others.
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn hostile_band_streams_never_panic_the_parser(
        order in any_order(),
        gray in any::<bool>(),
        framing in 0u8..3,
        depth in 2usize..9,
        frames in proptest::collection::vec(
            proptest::collection::vec(hostile_bands(), 0..301),
            1..7,
        ),
    ) {
        // Raw (framing 0), per-packet RS (1) or interleaved (2) parsing of
        // 1–6 frames of up to 300 arbitrary bands: every packet comes back
        // as a typed outcome, and neither `push_frame` nor `finish` panics.
        let mut cfg = LinkConfig::paper_default(order, 3000.0, 0.2312);
        cfg.gray_mapping = gray;
        if framing == 2 {
            cfg = cfg.with_fec(depth);
        }
        let code = match framing {
            0 => None,
            _ => Some(cfg.packet_budget().expect("3 kHz budgets are realizable").code()),
        };
        let gap_symbols = cfg.loss_ratio * cfg.symbol_rate / cfg.frame_rate;
        let mut de = Depacketizer::new(
            cfg.constellation(),
            code.clone(),
            cfg.white_ratio(),
            gap_symbols,
            colorbars_core::transmitter::cal_copies(&cfg),
        );
        if let Some(code) = code.filter(|_| framing == 2) {
            de = de.with_fec(Interleaver::new(depth, code).expect("depth within the wire limit"));
        }
        let mut packets = Vec::new();
        for (k, frame) in frames.iter().enumerate() {
            let bands: Vec<ObservedBand> = frame
                .iter()
                .flatten()
                .map(|&b| ObservedBand { frame_index: b.frame_index.wrapping_add(k), ..b })
                .take(300)
                .collect();
            packets.extend(de.push_frame(&bands));
        }
        packets.extend(de.finish());
        let m = order.points();
        for p in &packets {
            if let ParsedPacket::Calibration { features } = p {
                prop_assert!(features.iter().all(|&(i, _)| i < m));
            }
        }
    }
}
