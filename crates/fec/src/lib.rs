//! # colorbars-fec — cross-packet block interleaving for burst erasures
//!
//! The dominant structured loss on the rolling-shutter link is the
//! inter-frame gap: a *contiguous* run of symbols deleted from every
//! frame (paper Section 5, loss ratios 0.23/0.37). Per-packet
//! Reed–Solomon is the worst possible shape for that loss — the whole
//! burst lands in one codeword — so this crate stripes `depth`
//! consecutive packets' payloads across `depth` RS codewords.
//!
//! ## Layout
//!
//! A **group** is `depth` packets × `n` wire bytes. Wire byte `t` of the
//! group (packet `t / n`, byte `t % n` of that packet) carries symbol
//! `t / depth` of codeword `t % depth`:
//!
//! ```text
//! wire:      [ packet 0 ........ ][ packet 1 ........ ] ...
//! byte t:     0  1  2  3  4  5 ...
//! codeword:   0  1  2  0  1  2 ...        (depth = 3)
//! position:   0  0  0  1  1  1 ...
//! ```
//!
//! A contiguous wire burst of `B` bytes therefore lands on each codeword
//! as at most `ceil(B / depth)` erasures: a burst of up to
//! `depth × parity` bytes spreads into ≤ `parity` erasures per codeword
//! and is always recoverable by the errors-and-erasures decoder. A
//! wholly-lost packet contributes exactly `n / depth` (±1) erasures to
//! every codeword instead of destroying one codeword outright.
//!
//! ## Erasure maps
//!
//! The receiver *knows* where the gap fell (frame boundaries plus the
//! per-symbol `FailReason` ledger), so lost bytes are declared as
//! erasures — worth twice as much corrective power as unknown-location
//! errors. [`Interleaver::build_erasure_maps`] converts per-segment
//! observations (received bytes + within-segment erased byte indices +
//! segments that never arrived) into per-codeword received arrays and
//! declared erasure positions for [`colorbars_rs::code::ReedSolomon::decode`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use colorbars_rs::code::ReedSolomon;

/// Upper bound on the interleave depth. Deeper striping buys nothing on
/// this link (the gap repeats every frame, i.e. every packet) but costs
/// latency: a group cannot decode until all `depth` packets arrived.
pub const MAX_DEPTH: usize = 64;

/// One received packet's contribution to a group: which group position
/// it claims, the `n` wire bytes recovered for it (erased positions
/// zero-filled or arbitrary — they are ignored), and the within-segment
/// byte indices the receiver knows were destroyed by the gap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentObservation {
    /// Group position in `0..depth`, parsed from the packet header.
    pub position: usize,
    /// The segment's `n` wire bytes (values at erased indices ignored).
    pub bytes: Vec<u8>,
    /// Within-segment byte indices known lost (gap symbols, partial bytes).
    pub erased: Vec<usize>,
}

impl SegmentObservation {
    /// Convenience constructor.
    pub fn new(position: usize, bytes: Vec<u8>, erased: Vec<usize>) -> Self {
        SegmentObservation {
            position,
            bytes,
            erased,
        }
    }
}

/// Outcome of decoding one codeword of a group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodewordOutcome {
    /// The codeword decoded; `data` is its `k` data bytes.
    Recovered {
        /// The recovered data bytes (length `k`).
        data: Vec<u8>,
        /// Errors corrected at unknown positions.
        corrected_errors: usize,
        /// Declared erasures filled in.
        corrected_erasures: usize,
    },
    /// The burst exceeded the codeword's erasure budget.
    Unrecoverable {
        /// Erasures that were declared on this codeword.
        erasures: usize,
    },
}

impl CodewordOutcome {
    /// True when the codeword decoded.
    pub fn is_recovered(&self) -> bool {
        matches!(self, CodewordOutcome::Recovered { .. })
    }
}

/// Result of [`Interleaver::decode_group`]: one outcome per codeword
/// plus how many of the group's segments never arrived at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupDecode {
    /// Per-codeword outcomes, index = codeword = wire byte `t % depth`.
    pub codewords: Vec<CodewordOutcome>,
    /// Group positions with no surviving segment observation.
    pub segments_missing: usize,
}

impl GroupDecode {
    /// Codewords that decoded successfully.
    pub fn recovered(&self) -> usize {
        self.codewords.iter().filter(|c| c.is_recovered()).count()
    }
}

/// Per-codeword received arrays + declared erasure positions, built from
/// the receiver's gap-location knowledge. See [`Interleaver::build_erasure_maps`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErasureMaps {
    /// `depth` codewords × `n` received symbols (erased positions zeroed).
    pub received: Vec<Vec<u8>>,
    /// `depth` sorted, deduplicated erasure-position lists.
    pub erasures: Vec<Vec<usize>>,
    /// Group positions no observation claimed.
    pub segments_missing: usize,
}

/// A depth-N block interleaver over one Reed–Solomon code.
#[derive(Debug, Clone)]
pub struct Interleaver {
    depth: usize,
    code: ReedSolomon,
}

impl Interleaver {
    /// Build an interleaver of the given depth. Returns `None` when
    /// `depth` is 0 or exceeds [`MAX_DEPTH`].
    pub fn new(depth: usize, code: ReedSolomon) -> Option<Self> {
        if depth == 0 || depth > MAX_DEPTH {
            return None;
        }
        Some(Interleaver { depth, code })
    }

    /// Interleave depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The underlying code.
    pub fn code(&self) -> &ReedSolomon {
        &self.code
    }

    /// Data bytes carried per group: `depth × k`.
    pub fn group_data_len(&self) -> usize {
        self.depth * self.code.k()
    }

    /// Wire bytes per group: `depth × n`.
    pub fn group_wire_len(&self) -> usize {
        self.depth * self.code.n()
    }

    /// Encode one group: `depth × k` data bytes → `depth` wire segments
    /// of `n` bytes each (segment `p` is packet `p`'s payload).
    /// Codeword `c` carries data bytes `[c·k, (c+1)·k)`.
    ///
    /// Returns `Err(expected_len)` when `data` is not `depth × k` long.
    pub fn encode_group(&self, data: &[u8]) -> Result<Vec<Vec<u8>>, usize> {
        let (k, n) = (self.code.k(), self.code.n());
        if data.len() != self.group_data_len() {
            return Err(self.group_data_len());
        }
        let mut codewords = Vec::with_capacity(self.depth);
        for c in 0..self.depth {
            let cw = self
                .code
                .encode(&data[c * k..(c + 1) * k])
                .expect("chunk length is exactly k");
            codewords.push(cw);
        }
        let mut segments = vec![vec![0u8; n]; self.depth];
        for t in 0..self.group_wire_len() {
            segments[t / n][t % n] = codewords[t % self.depth][t / self.depth];
        }
        Ok(segments)
    }

    /// The erasure-map builder: convert per-segment observations into
    /// per-codeword received arrays and declared erasure positions.
    ///
    /// Group positions with no observation are fully erased. Duplicate
    /// observations of the same position keep the first. Observations
    /// with an out-of-range position or a wrong-length byte vector are
    /// treated as missing (their position stays erased).
    pub fn build_erasure_maps(&self, segments: &[SegmentObservation]) -> ErasureMaps {
        let (n, depth) = (self.code.n(), self.depth);
        let mut seen: Vec<Option<&SegmentObservation>> = vec![None; depth];
        for obs in segments {
            if obs.position < depth && obs.bytes.len() == n && seen[obs.position].is_none() {
                seen[obs.position] = Some(obs);
            }
        }
        let mut received = vec![vec![0u8; n]; depth];
        let mut erasures: Vec<Vec<usize>> = vec![Vec::new(); depth];
        let mut segments_missing = 0usize;
        for (p, slot) in seen.iter().enumerate() {
            match slot {
                Some(obs) => {
                    let mut erased = vec![false; n];
                    for &j in &obs.erased {
                        if j < n {
                            erased[j] = true;
                        }
                    }
                    for (j, &gone) in erased.iter().enumerate() {
                        let t = p * n + j;
                        let (cw, idx) = (t % depth, t / depth);
                        if gone {
                            erasures[cw].push(idx);
                        } else {
                            received[cw][idx] = obs.bytes[j];
                        }
                    }
                }
                None => {
                    segments_missing += 1;
                    for j in 0..n {
                        let t = p * n + j;
                        erasures[t % depth].push(t / depth);
                    }
                }
            }
        }
        for list in &mut erasures {
            list.sort_unstable();
            list.dedup();
        }
        ErasureMaps {
            received,
            erasures,
            segments_missing,
        }
    }

    /// Deinterleave and decode one group from whatever segments arrived.
    pub fn decode_group(&self, segments: &[SegmentObservation]) -> GroupDecode {
        let maps = self.build_erasure_maps(segments);
        let codewords = maps
            .received
            .iter()
            .zip(&maps.erasures)
            .map(|(cw, erasures)| match self.code.decode(cw, erasures) {
                Ok(d) => CodewordOutcome::Recovered {
                    data: d.data,
                    corrected_errors: d.corrected_errors,
                    corrected_erasures: d.corrected_erasures,
                },
                Err(_) => CodewordOutcome::Unrecoverable {
                    erasures: erasures.len(),
                },
            })
            .collect();
        GroupDecode {
            codewords,
            segments_missing: maps.segments_missing,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(depth: usize, n: usize, k: usize) -> (Interleaver, Vec<u8>, Vec<Vec<u8>>) {
        let code = ReedSolomon::new(n, k).unwrap();
        let il = Interleaver::new(depth, code).unwrap();
        let data: Vec<u8> = (0..il.group_data_len())
            .map(|i| (i * 37 + 11) as u8)
            .collect();
        let segments = il.encode_group(&data).unwrap();
        (il, data, segments)
    }

    fn observe_all(segments: &[Vec<u8>]) -> Vec<SegmentObservation> {
        segments
            .iter()
            .enumerate()
            .map(|(p, s)| SegmentObservation::new(p, s.clone(), Vec::new()))
            .collect()
    }

    fn recovered_data(decode: &GroupDecode) -> Vec<u8> {
        decode
            .codewords
            .iter()
            .flat_map(|c| match c {
                CodewordOutcome::Recovered { data, .. } => data.clone(),
                CodewordOutcome::Unrecoverable { .. } => panic!("unrecoverable codeword"),
            })
            .collect()
    }

    /// Erase a contiguous run of `len` wire bytes starting at `start`,
    /// spanning segment boundaries, by marking within-segment erasures.
    fn erase_wire_burst(obs: &mut [SegmentObservation], n: usize, start: usize, len: usize) {
        for t in start..start + len {
            let (p, j) = (t / n, t % n);
            if let Some(o) = obs.iter_mut().find(|o| o.position == p) {
                o.erased.push(j);
                o.bytes[j] = 0xAA; // garbage where the gap fell
            }
        }
    }

    #[test]
    fn wire_layout_is_byte_mod_depth() {
        let (il, _, segments) = setup(3, 12, 8);
        // Re-derive each codeword from the wire layout and check it decodes.
        let n = il.code().n();
        let mut cws = vec![vec![0u8; n]; 3];
        for t in 0..il.group_wire_len() {
            cws[t % 3][t / 3] = segments[t / n][t % n];
        }
        for cw in &cws {
            il.code().decode(cw, &[]).unwrap();
        }
    }

    #[test]
    fn clean_group_round_trips() {
        let (il, data, segments) = setup(4, 20, 12);
        let decode = il.decode_group(&observe_all(&segments));
        assert_eq!(decode.segments_missing, 0);
        assert_eq!(decode.recovered(), 4);
        assert_eq!(recovered_data(&decode), data);
    }

    #[test]
    fn whole_lost_packet_costs_each_codeword_n_over_depth_erasures() {
        let (il, data, segments) = setup(4, 20, 12);
        let mut obs = observe_all(&segments);
        obs.remove(2); // packet 2 never arrived (header in the gap)
        let maps = il.build_erasure_maps(&obs);
        assert_eq!(maps.segments_missing, 1);
        for list in &maps.erasures {
            assert_eq!(list.len(), 20 / 4); // n / depth each
        }
        let decode = il.decode_group(&obs);
        assert_eq!(recovered_data(&decode), data);
    }

    #[test]
    fn burst_of_depth_times_parity_spreads_and_recovers() {
        let (il, data, segments) = setup(4, 20, 12);
        let (n, parity) = (20, 8);
        // The largest contiguous wire burst guaranteed recoverable when
        // declared as erasures: depth × parity.
        let budget = 4 * parity;
        // Try the worst-case burst at several alignments.
        for start in [0usize, 3, 17, 40] {
            let mut obs = observe_all(&segments);
            let len = budget.min(il.group_wire_len() - start);
            erase_wire_burst(&mut obs, n, start, len);
            let maps = il.build_erasure_maps(&obs);
            for list in &maps.erasures {
                assert!(
                    list.len() <= parity,
                    "burst at {start} overloaded a codeword"
                );
            }
            let decode = il.decode_group(&obs);
            assert_eq!(recovered_data(&decode), data, "burst at {start}");
        }
    }

    #[test]
    fn burst_beyond_budget_is_unrecoverable_not_corrupt() {
        let (il, _, segments) = setup(4, 20, 12);
        let mut obs = observe_all(&segments);
        // depth × parity + depth bytes ⇒ parity + 1 erasures per codeword.
        erase_wire_burst(&mut obs, 20, 0, 4 * 8 + 4);
        let decode = il.decode_group(&obs);
        assert_eq!(decode.recovered(), 0);
        for cw in &decode.codewords {
            assert_eq!(*cw, CodewordOutcome::Unrecoverable { erasures: 9 });
        }
    }

    #[test]
    fn gap_erasures_combine_with_random_errors() {
        let (il, data, segments) = setup(2, 22, 12); // parity 10 per codeword
        let mut obs = observe_all(&segments);
        erase_wire_burst(&mut obs, 22, 5, 12); // 6 erasures per codeword
                                               // Two unknown-position errors (one per codeword): 2·1 + 6 ≤ 10.
        obs[0].bytes[1] ^= 0x5C;
        obs[1].bytes[2] ^= 0x21;
        let decode = il.decode_group(&obs);
        assert_eq!(recovered_data(&decode), data);
        for cw in &decode.codewords {
            match cw {
                CodewordOutcome::Recovered {
                    corrected_errors,
                    corrected_erasures,
                    ..
                } => {
                    assert_eq!(*corrected_errors, 1);
                    assert_eq!(*corrected_erasures, 6);
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn bogus_observations_are_ignored() {
        let (il, data, segments) = setup(3, 15, 9);
        let mut obs = observe_all(&segments);
        obs.push(SegmentObservation::new(7, vec![0; 15], Vec::new())); // position out of range
        obs.push(SegmentObservation::new(1, vec![0; 3], Vec::new())); // wrong length
        obs.push(SegmentObservation::new(0, vec![0xFF; 15], Vec::new())); // duplicate, first wins
        let decode = il.decode_group(&obs);
        assert_eq!(decode.segments_missing, 0);
        assert_eq!(recovered_data(&decode), data);
    }

    #[test]
    fn depth_bounds_are_enforced() {
        let code = ReedSolomon::new(20, 12).unwrap();
        assert!(Interleaver::new(0, code.clone()).is_none());
        assert!(Interleaver::new(MAX_DEPTH + 1, code.clone()).is_none());
        assert!(Interleaver::new(1, code.clone()).is_some());
        assert!(Interleaver::new(MAX_DEPTH, code).is_some());
    }

    #[test]
    fn encode_rejects_wrong_group_length() {
        let (il, data, _) = setup(4, 20, 12);
        assert_eq!(il.encode_group(&data[1..]), Err(il.group_data_len()));
    }

    #[test]
    fn depth_one_degenerates_to_per_packet_rs() {
        let (il, data, segments) = setup(1, 20, 12);
        assert_eq!(segments.len(), 1);
        // A depth-1 "group" is exactly the plain codeword.
        let cw = il.code().encode(&data).unwrap();
        assert_eq!(segments[0], cw);
        let decode = il.decode_group(&observe_all(&segments));
        assert_eq!(recovered_data(&decode), data);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Wire → codeword → wire identity over arbitrary (depth,
            /// payload length): wire byte `t` is codeword `t % depth`
            /// position `t / depth`, re-deriving every codeword from the
            /// wire layout matches a direct per-chunk encode, and the
            /// clean decode returns the padded payload byte-for-byte.
            #[test]
            fn wire_codeword_wire_identity(
                depth in 1usize..=8,
                k in 2usize..=30,
                parity in 2usize..=12,
                payload_len in 0usize..=240,
            ) {
                let n = k + parity;
                let code = ReedSolomon::new(n, k).unwrap();
                let il = Interleaver::new(depth, code).unwrap();
                // Arbitrary payload, transmitter-style zero-padded (or
                // truncated) to the group size.
                let mut data: Vec<u8> =
                    (0..payload_len).map(|i| (i * 29 + 3) as u8).collect();
                data.resize(il.group_data_len(), 0);
                let segments = il.encode_group(&data).unwrap();

                // Identity 1: wire byte t belongs to codeword t % depth at
                // position t / depth, and those codewords are exactly the
                // per-chunk RS encodes.
                let mut rebuilt = vec![vec![0u8; n]; depth];
                for t in 0..il.group_wire_len() {
                    rebuilt[t % depth][t / depth] = segments[t / n][t % n];
                }
                for (c, cw) in rebuilt.iter().enumerate() {
                    let direct = il.code().encode(&data[c * k..(c + 1) * k]).unwrap();
                    prop_assert_eq!(cw, &direct);
                }

                // Identity 2: the clean decode round-trips the payload.
                let decode = il.decode_group(&observe_all(&segments));
                prop_assert_eq!(decode.segments_missing, 0);
                prop_assert_eq!(recovered_data(&decode), data);
            }

            /// A contiguous wire burst of B bytes spreads across the
            /// group: every codeword receives at most ⌈B/depth⌉ declared
            /// erasures, and whenever ⌈B/depth⌉ fits the parity budget the
            /// whole group decodes back to the original bytes.
            #[test]
            fn burst_erasures_bounded_by_ceil_b_over_depth(
                depth in 1usize..=8,
                k in 2usize..=30,
                parity in 2usize..=12,
                start_frac in 0.0f64..1.0,
                len_frac in 0.0f64..1.0,
            ) {
                let n = k + parity;
                let code = ReedSolomon::new(n, k).unwrap();
                let il = Interleaver::new(depth, code).unwrap();
                let data: Vec<u8> = (0..il.group_data_len())
                    .map(|i| (i * 53 + 7) as u8)
                    .collect();
                let segments = il.encode_group(&data).unwrap();
                let wire_len = il.group_wire_len();
                let start = ((start_frac * wire_len as f64) as usize).min(wire_len - 1);
                let burst = ((len_frac * (wire_len - start) as f64) as usize)
                    .min(wire_len - start);

                let mut obs = observe_all(&segments);
                erase_wire_burst(&mut obs, n, start, burst);
                let maps = il.build_erasure_maps(&obs);
                prop_assert_eq!(maps.segments_missing, 0);
                let bound = burst.div_ceil(depth.max(1));
                for (c, list) in maps.erasures.iter().enumerate() {
                    prop_assert!(
                        list.len() <= bound,
                        "codeword {} got {} erasures, bound ⌈{}/{}⌉ = {}",
                        c, list.len(), burst, depth, bound
                    );
                }

                if bound <= parity {
                    let decode = il.decode_group(&obs);
                    prop_assert_eq!(decode.recovered(), depth);
                    prop_assert_eq!(recovered_data(&decode), data);
                }
            }
        }
    }
}
