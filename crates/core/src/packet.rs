//! Packet structure: delimiters, flags, size header, payload (paper Fig 4,
//! Sections 5–6).
//!
//! The paper describes packets delimited by an `owo` sequence ("o" = LED
//! OFF, "w" = white), a data-packet flag of `owowo`, a calibration-packet
//! flag of `owowowo`, and a 3-data-symbol size field. We concretize that
//! into the following wire format (the flag doubles as the delimiter, since
//! every flag begins and ends with the `owo` pattern the paper separates
//! packets with):
//!
//! ```text
//! data packet : O W O W O | size (base-M digits) | payload symbols
//! cal  packet : O W O W O W O | the M constellation colors in index order
//! ilv  packet : O W O W O W O W O | size | group position (2 digits) | payload
//! stream end  : O W O                           (bare delimiter)
//! ```
//!
//! OFF symbols never occur in payloads (payloads are colors + whites), so
//! scanning for OFF-anchored alternating runs finds every packet boundary.
//!
//! The 9-symbol interleaved flag doubles as the **protocol version
//! marker**: legacy receivers classify any ≥7-symbol alternating run as a
//! calibration flag and ignore the unknown payload shape, while
//! FEC-aware receivers treat ≥9 as "version 1: interleaved data" (see
//! DESIGN.md §13). The group-position field — two base-M digits after
//! the size field — names which of the `depth` segments of the current
//! interleave group this packet carries.
//!
//! The size field counts *payload symbols* and uses base-M digits, MSB
//! first. The paper uses 3 digits; 3 base-4 digits cannot express a frame's
//! worth of 4-CSK symbols, so the field is `max(3, ⌈9 / log2(M)⌉)` digits —
//! exactly 3 for 8/16/32-CSK as in the paper, 5 for 4-CSK (documented
//! deviation). The receiver uses the size to place inter-frame-gap erasures
//! (Section 5: "the size of the packet … allows the receiver to determine
//! how many bits were lost").

use crate::constellation::CskOrder;
use crate::symbol::Symbol;

/// Packet kinds on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// Carries RS-coded user data.
    Data,
    /// Carries the constellation reference colors (Section 6).
    Calibration,
}

/// The data-packet flag: `owowo`.
pub const DATA_FLAG: [Symbol; 5] = [
    Symbol::Off,
    Symbol::White,
    Symbol::Off,
    Symbol::White,
    Symbol::Off,
];

/// The calibration-packet flag: `owowowo`.
pub const CAL_FLAG: [Symbol; 7] = [
    Symbol::Off,
    Symbol::White,
    Symbol::Off,
    Symbol::White,
    Symbol::Off,
    Symbol::White,
    Symbol::Off,
];

/// The interleaved-data flag (protocol version 1): `owowowowo`.
pub const IL_FLAG: [Symbol; 9] = [
    Symbol::Off,
    Symbol::White,
    Symbol::Off,
    Symbol::White,
    Symbol::Off,
    Symbol::White,
    Symbol::Off,
    Symbol::White,
    Symbol::Off,
];

/// The bare inter-packet / end-of-stream delimiter: `owo`.
pub const DELIMITER: [Symbol; 3] = [Symbol::Off, Symbol::White, Symbol::Off];

/// Base-M digits in the interleaved group-position field. Two digits
/// bound the wire-expressible interleave depth at `M²` (16 even for
/// 4-CSK — comfortably above useful depths on this link).
pub const GROUP_POS_DIGITS: usize = 2;

/// Largest group position expressible on the wire for a CSK order.
pub fn max_group_pos(order: CskOrder) -> usize {
    order.points().pow(GROUP_POS_DIGITS as u32) - 1
}

/// Encode a group position as [`GROUP_POS_DIGITS`] base-M digits, MSB
/// first.
///
/// # Panics
/// Panics when `pos` exceeds [`max_group_pos`].
pub fn encode_group_pos(order: CskOrder, pos: usize) -> Vec<Symbol> {
    assert!(
        pos <= max_group_pos(order),
        "group position {pos} exceeds field capacity {}",
        max_group_pos(order)
    );
    let m = order.points();
    vec![
        Symbol::Color((pos / m) as u16),
        Symbol::Color((pos % m) as u16),
    ]
}

/// Decode a group-position field. Returns `None` on wrong length,
/// non-color symbols, or out-of-range digits.
pub fn decode_group_pos(order: CskOrder, field: &[Symbol]) -> Option<usize> {
    if field.len() != GROUP_POS_DIGITS {
        return None;
    }
    let m = order.points();
    let mut pos = 0usize;
    for &s in field {
        let Symbol::Color(d) = s else { return None };
        if d as usize >= m {
            return None;
        }
        pos = pos * m + d as usize;
    }
    Some(pos)
}

/// Number of base-M digits in the size field for a CSK order.
pub fn size_field_len(order: CskOrder) -> usize {
    let c = order.bits_per_symbol() as usize;
    3.max(9usize.div_ceil(c))
}

/// Largest payload length expressible in the size field.
pub fn max_payload_len(order: CskOrder) -> usize {
    let m = order.points();
    m.pow(size_field_len(order) as u32) - 1
}

/// Encode a payload length into size-field color symbols (base-M digits,
/// MSB first).
///
/// # Panics
/// Panics when `len` exceeds [`max_payload_len`].
pub fn encode_size(order: CskOrder, len: usize) -> Vec<Symbol> {
    assert!(
        len <= max_payload_len(order),
        "payload length {len} exceeds size field capacity {}",
        max_payload_len(order)
    );
    let m = order.points();
    let digits = size_field_len(order);
    let mut out = vec![Symbol::Color(0); digits];
    let mut rest = len;
    for d in (0..digits).rev() {
        out[d] = Symbol::Color((rest % m) as u16);
        rest /= m;
    }
    out
}

/// Decode a size field back to a payload length. Returns `None` if any
/// symbol is not a color symbol or a digit is out of range.
pub fn decode_size(order: CskOrder, field: &[Symbol]) -> Option<usize> {
    if field.len() != size_field_len(order) {
        return None;
    }
    let m = order.points();
    let mut len = 0usize;
    for &s in field {
        let Symbol::Color(d) = s else { return None };
        if d as usize >= m {
            return None;
        }
        len = len * m + d as usize;
    }
    Some(len)
}

/// A fully formed packet, pre-serialization.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Data or calibration.
    pub kind: PacketKind,
    /// Interleave group position for interleaved data packets (`None`
    /// for legacy per-packet framing and calibration packets). Presence
    /// selects the [`IL_FLAG`] wire framing.
    pub group_pos: Option<usize>,
    /// Payload symbols (colors + illumination whites for data packets; the
    /// M reference colors for calibration packets).
    pub payload: Vec<Symbol>,
}

impl Packet {
    /// A data packet around the given payload.
    pub fn data(payload: Vec<Symbol>) -> Packet {
        Packet {
            kind: PacketKind::Data,
            group_pos: None,
            payload,
        }
    }

    /// An interleaved data packet carrying segment `group_pos` of its
    /// interleave group.
    pub fn data_interleaved(group_pos: usize, payload: Vec<Symbol>) -> Packet {
        Packet {
            kind: PacketKind::Data,
            group_pos: Some(group_pos),
            payload,
        }
    }

    /// The calibration packet for a constellation: all M reference colors
    /// in the constellation's chroma-ordered calibration sequence (see
    /// [`crate::constellation::Constellation::calibration_sequence`]).
    pub fn calibration(constellation: &crate::constellation::Constellation) -> Packet {
        let payload = constellation
            .calibration_sequence()
            .into_iter()
            .map(Symbol::Color)
            .collect();
        Packet {
            kind: PacketKind::Calibration,
            group_pos: None,
            payload,
        }
    }

    /// Serialize onto the wire: flag, size field (data packets only),
    /// payload.
    ///
    /// # Panics
    /// Panics when a data payload exceeds the size field capacity or when a
    /// payload contains OFF symbols (which would corrupt framing).
    pub fn serialize(&self, order: CskOrder) -> Vec<Symbol> {
        assert!(
            !self.payload.iter().any(|s| s.is_off()),
            "payload must not contain OFF symbols"
        );
        let mut out = Vec::with_capacity(self.payload.len() + 16);
        match (self.kind, self.group_pos) {
            (PacketKind::Data, None) => {
                out.extend_from_slice(&DATA_FLAG);
                out.extend(encode_size(order, self.payload.len()));
            }
            (PacketKind::Data, Some(pos)) => {
                out.extend_from_slice(&IL_FLAG);
                out.extend(encode_size(order, self.payload.len()));
                out.extend(encode_group_pos(order, pos));
            }
            (PacketKind::Calibration, _) => {
                out.extend_from_slice(&CAL_FLAG);
            }
        }
        out.extend_from_slice(&self.payload);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_field_matches_paper_for_dense_orders() {
        assert_eq!(size_field_len(CskOrder::Csk8), 3);
        assert_eq!(size_field_len(CskOrder::Csk16), 3);
        assert_eq!(size_field_len(CskOrder::Csk32), 3);
        // Documented deviation: 4-CSK digits are too small for a frame's
        // worth of symbols with 3 digits.
        assert_eq!(size_field_len(CskOrder::Csk4), 5);
        assert!(max_payload_len(CskOrder::Csk4) >= 511);
    }

    #[test]
    fn size_round_trips() {
        for order in CskOrder::ALL {
            for len in [0usize, 1, 7, 63, 200, max_payload_len(order)] {
                if len > max_payload_len(order) {
                    continue;
                }
                let field = encode_size(order, len);
                assert_eq!(field.len(), size_field_len(order));
                assert_eq!(decode_size(order, &field), Some(len), "{order} len={len}");
            }
        }
    }

    #[test]
    fn decode_size_rejects_bad_fields() {
        let order = CskOrder::Csk8;
        // Wrong length.
        assert_eq!(decode_size(order, &[Symbol::Color(0); 2]), None);
        // Non-color symbol.
        assert_eq!(
            decode_size(order, &[Symbol::Color(0), Symbol::White, Symbol::Color(1)]),
            None
        );
        // Out-of-range digit.
        assert_eq!(
            decode_size(
                order,
                &[Symbol::Color(0), Symbol::Color(9), Symbol::Color(1)]
            ),
            None
        );
    }

    #[test]
    #[should_panic(expected = "exceeds size field capacity")]
    fn oversize_payload_panics() {
        let _ = encode_size(CskOrder::Csk8, max_payload_len(CskOrder::Csk8) + 1);
    }

    #[test]
    fn data_packet_serialization_layout() {
        let order = CskOrder::Csk8;
        let payload = vec![Symbol::Color(1), Symbol::White, Symbol::Color(5)];
        let wire = Packet::data(payload.clone()).serialize(order);
        assert_eq!(&wire[..5], &DATA_FLAG);
        assert_eq!(decode_size(order, &wire[5..8]), Some(3));
        assert_eq!(&wire[8..], &payload[..]);
    }

    #[test]
    fn calibration_packet_carries_all_colors_in_sequence_order() {
        let order = CskOrder::Csk16;
        let cons = crate::constellation::Constellation::ieee_style(
            order,
            colorbars_color::GamutTriangle::typical_tri_led(),
        );
        let p = Packet::calibration(&cons);
        let wire = p.serialize(order);
        assert_eq!(&wire[..7], &CAL_FLAG);
        assert_eq!(wire.len(), 7 + 16);
        let seq = cons.calibration_sequence();
        for (i, s) in wire[7..].iter().enumerate() {
            assert_eq!(*s, Symbol::Color(seq[i]));
        }
    }

    #[test]
    #[should_panic(expected = "must not contain OFF")]
    fn off_in_payload_panics() {
        let _ = Packet::data(vec![Symbol::Off]).serialize(CskOrder::Csk8);
    }

    #[test]
    fn flags_start_and_end_with_off() {
        assert!(DATA_FLAG[0].is_off() && DATA_FLAG[4].is_off());
        assert!(CAL_FLAG[0].is_off() && CAL_FLAG[6].is_off());
        assert!(IL_FLAG[0].is_off() && IL_FLAG[8].is_off());
        assert!(DELIMITER[0].is_off() && DELIMITER[2].is_off());
    }

    #[test]
    fn group_pos_round_trips() {
        for order in CskOrder::ALL {
            for pos in [0usize, 1, 3, 7, max_group_pos(order)] {
                let field = encode_group_pos(order, pos);
                assert_eq!(field.len(), GROUP_POS_DIGITS);
                assert_eq!(decode_group_pos(order, &field), Some(pos), "{order} {pos}");
            }
        }
    }

    #[test]
    fn decode_group_pos_rejects_bad_fields() {
        let order = CskOrder::Csk8;
        assert_eq!(decode_group_pos(order, &[Symbol::Color(0)]), None);
        assert_eq!(
            decode_group_pos(order, &[Symbol::Color(0), Symbol::White]),
            None
        );
        assert_eq!(
            decode_group_pos(order, &[Symbol::Color(0), Symbol::Color(8)]),
            None
        );
    }

    #[test]
    #[should_panic(expected = "exceeds field capacity")]
    fn oversize_group_pos_panics() {
        let _ = encode_group_pos(CskOrder::Csk8, max_group_pos(CskOrder::Csk8) + 1);
    }

    #[test]
    fn interleaved_packet_serialization_layout() {
        let order = CskOrder::Csk8;
        let payload = vec![Symbol::Color(2), Symbol::White, Symbol::Color(4)];
        let p = Packet::data_interleaved(5, payload.clone());
        let wire = p.serialize(order);
        assert_eq!(&wire[..9], &IL_FLAG);
        assert_eq!(decode_size(order, &wire[9..12]), Some(3));
        assert_eq!(decode_group_pos(order, &wire[12..14]), Some(5));
        assert_eq!(&wire[14..], &payload[..]);
    }
}
