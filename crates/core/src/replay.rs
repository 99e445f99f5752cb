//! Deterministic post-mortem replay of flight-recorder dumps (DESIGN.md §14).
//!
//! A journey record carries the depacketizer's *inputs* (classified bands
//! or interleaved segment observations); the flight dump carries the
//! receiver's *replay context* — the handful of link parameters the decode
//! verdict depends on. This module closes the loop: [`ReplayLink`] rebuilds
//! the exact decode configuration from a recorded context, and its decode
//! entry points call the same pure functions the live receiver ran
//! ([`decode_data_body`], [`colorbars_fec::Interleaver::decode_group`]),
//! so the replayed verdict is byte-identical to the recorded one. The
//! `postmortem` bench binary is the consumer.

use crate::calibration::ReferenceStore;
use crate::config::LinkConfig;
use crate::constellation::{Constellation, CskOrder};
use crate::depacket::{decode_data_body, DataDecode, ObservedBand};
use crate::equalizer::{EqualizerKind, TrainedEqualizer};
use crate::error::LinkError;
use colorbars_fec::{GroupDecode, Interleaver, SegmentObservation};
use colorbars_obs as obs;
use colorbars_rs::ReedSolomon;

/// Serialize the receiver's decode-relevant state as the flight-recorder
/// replay context. `coded` distinguishes the RS-decoding receiver from the
/// raw-mode one (paper SER measurements), `use_erasures` records the
/// erasure-ablation switch, and the live reference chromaticities are
/// included so the post-mortem can rank nearest-constellation distances
/// exactly as the classifier saw them. When a trained equalizer is active
/// its kind, flat weights, and ideal-reference geometry are included too,
/// so the replayed demodulation verdict is byte-identical to the live one.
pub fn context_json(
    config: &LinkConfig,
    coded: bool,
    use_erasures: bool,
    store: &ReferenceStore,
    equalizer: Option<&TrainedEqualizer>,
) -> obs::Value {
    let references: Vec<obs::Value> = (0..store.len())
        .map(|i| {
            let (a, b) = store.reference(i);
            obs::Value::Array(vec![
                obs::Value::from(i),
                obs::Value::from(a),
                obs::Value::from(b),
            ])
        })
        .collect();
    let (wa, wb) = store.white();
    let eq_kind = equalizer.map_or(EqualizerKind::NearestNeighbor, |e| e.kind());
    let eq_weights: Vec<obs::Value> = equalizer
        .map(|e| e.weights().into_iter().map(obs::Value::from).collect())
        .unwrap_or_default();
    let eq_ideal: Vec<obs::Value> = equalizer
        .map(|e| {
            e.ideal()
                .iter()
                .map(|&(a, b)| obs::Value::Array(vec![obs::Value::from(a), obs::Value::from(b)]))
                .collect()
        })
        .unwrap_or_default();
    obs::Value::object([
        ("order_points", obs::Value::from(config.order.points())),
        ("symbol_rate", obs::Value::from(config.symbol_rate)),
        ("loss_ratio", obs::Value::from(config.loss_ratio)),
        ("frame_rate", obs::Value::from(config.frame_rate)),
        ("gray_mapping", obs::Value::from(config.gray_mapping)),
        (
            "packet_wire_override",
            obs::Value::from(config.packet_wire_override.unwrap_or(0)),
        ),
        (
            "fec_depth",
            obs::Value::from(config.fec.map_or(0, |f| f.depth)),
        ),
        ("coded", obs::Value::from(coded)),
        ("use_erasures", obs::Value::from(use_erasures)),
        ("white_ratio", obs::Value::from(config.white_ratio())),
        ("calibrations", obs::Value::from(store.calibrations())),
        ("references", obs::Value::Array(references)),
        (
            "white",
            obs::Value::Array(vec![obs::Value::from(wa), obs::Value::from(wb)]),
        ),
        ("equalizer_kind", obs::Value::from(eq_kind.as_str())),
        ("equalizer_weights", obs::Value::Array(eq_weights)),
        ("equalizer_ideal", obs::Value::Array(eq_ideal)),
    ])
}

/// A decode pipeline rebuilt from a recorded replay context: the same
/// constellation, RS code, white ratio, and erasure policy the live
/// receiver ran with.
#[derive(Debug)]
pub struct ReplayLink {
    constellation: Constellation,
    code: Option<ReedSolomon>,
    white_ratio: f64,
    use_erasures: bool,
    fec_depth: usize,
    references: Vec<(usize, f64, f64)>,
    equalizer: Option<TrainedEqualizer>,
}

impl ReplayLink {
    /// Rebuild the decode configuration from a flight-dump context object.
    /// Fails with a description when the context is missing fields or
    /// holds one of the wrong type, names an unknown modulation order,
    /// describes a link the live receiver would have refused or cannot
    /// realize, or records references or equalizer state that do not fit
    /// the constellation.
    pub fn from_context(ctx: &obs::Value) -> Result<ReplayLink, String> {
        let u = |key: &str| -> Result<u64, String> {
            ctx.get(key)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("replay context missing integer field `{key}`"))
        };
        let f = |key: &str| -> Result<f64, String> {
            ctx.get(key)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("replay context missing number field `{key}`"))
        };
        let b = |key: &str| -> Result<bool, String> {
            match ctx.get(key) {
                Some(obs::Value::Bool(v)) => Ok(*v),
                _ => Err(format!("replay context missing bool field `{key}`")),
            }
        };
        let points = u("order_points")? as usize;
        let order = *CskOrder::EXTENDED
            .iter()
            .find(|o| o.points() == points)
            .ok_or_else(|| format!("unknown CSK order with {points} points"))?;
        let mut config = LinkConfig::paper_default(order, f("symbol_rate")?, f("loss_ratio")?);
        config.frame_rate = f("frame_rate")?;
        config.gray_mapping = b("gray_mapping")?;
        let wire_override = u("packet_wire_override")? as usize;
        if wire_override > 0 {
            config.packet_wire_override = Some(wire_override);
        }
        let fec_depth = u("fec_depth")? as usize;
        if fec_depth > 0 {
            config = config.with_fec(fec_depth);
        }
        config
            .validate()
            .map_err(|e| format!("context describes an invalid link: {e}"))?;
        let coded = b("coded")?;
        let code = if coded {
            Some(
                config
                    .packet_budget()
                    .map_err(|e: LinkError| format!("context describes an unrealizable link: {e}"))?
                    .code(),
            )
        } else {
            None
        };
        let white_ratio = config.white_ratio();
        let recorded_ratio = f("white_ratio")?;
        if (white_ratio - recorded_ratio).abs() > 1e-9 {
            return Err(format!(
                "white-ratio mismatch: derived {white_ratio}, recorded {recorded_ratio} \
                 — the dump was written by an incompatible build"
            ));
        }
        let references = ctx
            .get("references")
            .and_then(|v| v.as_array())
            .ok_or("replay context missing array field `references`")?
            .iter()
            .map(|row| {
                let row = row.as_array()?;
                let i = row.first()?.as_u64()? as usize;
                let (a, b) = (row.get(1)?.as_f64()?, row.get(2)?.as_f64()?);
                (i < points && !a.is_nan() && !b.is_nan()).then_some((i, a, b))
            })
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| {
                format!(
                    "replay context has a `references` row that is not [index < {points}, a*, b*]"
                )
            })?;
        // Equalizer fields are optional: pre-equalizer dumps carry none of
        // them and replay as nearest-neighbor. A kind that is missing while
        // weights are recorded, or present but unknown, is refused —
        // replaying it as nearest-neighbor would silently drop the weights.
        let eq_kind = match ctx.get("equalizer_kind") {
            None if ctx.get("equalizer_weights").is_none() => EqualizerKind::NearestNeighbor,
            None => return Err("replay context records equalizer weights but no kind".into()),
            Some(v) => v
                .as_str()
                .and_then(EqualizerKind::from_name)
                .ok_or_else(|| {
                    format!(
                        "unknown equalizer kind {} in replay context",
                        v.to_compact()
                    )
                })?,
        };
        let equalizer = if eq_kind == EqualizerKind::NearestNeighbor {
            None
        } else {
            let floats = |key: &str| -> Vec<f64> {
                ctx.get(key)
                    .and_then(|v| v.as_array())
                    .map(|a| a.iter().filter_map(|v| v.as_f64()).collect())
                    .unwrap_or_default()
            };
            let weights = floats("equalizer_weights");
            let ideal: Vec<(f64, f64)> = ctx
                .get("equalizer_ideal")
                .and_then(|v| v.as_array())
                .map(|rows| {
                    rows.iter()
                        .filter_map(|row| {
                            let row = row.as_array()?;
                            Some((row.first()?.as_f64()?, row.get(1)?.as_f64()?))
                        })
                        .collect()
                })
                .unwrap_or_default();
            let equalizer = (ideal.len() == points)
                .then(|| TrainedEqualizer::from_weights(eq_kind, &weights, ideal))
                .flatten();
            Some(equalizer.ok_or_else(|| {
                format!("malformed {} equalizer in replay context", eq_kind.as_str())
            })?)
        };
        Ok(ReplayLink {
            constellation: config.constellation(),
            code,
            white_ratio,
            use_erasures: b("use_erasures")?,
            fec_depth,
            references,
            equalizer,
        })
    }

    /// The rebuilt constellation.
    pub fn constellation(&self) -> &Constellation {
        &self.constellation
    }

    /// The rebuilt RS code (`None` = raw mode).
    pub fn code(&self) -> Option<&ReedSolomon> {
        self.code.as_ref()
    }

    /// Whether this link decodes (has an RS code).
    pub fn is_coded(&self) -> bool {
        self.code.is_some()
    }

    /// Interleave depth (0 = per-packet framing).
    pub fn fec_depth(&self) -> usize {
        self.fec_depth
    }

    /// The receiver's live reference chromaticities at dump time:
    /// `(wire index, a*, b*)` rows.
    pub fn references(&self) -> &[(usize, f64, f64)] {
        &self.references
    }

    /// The trained equalizer at dump time (`None` = plain nearest-neighbor
    /// demodulation, or a pre-equalizer dump).
    pub fn equalizer(&self) -> Option<&TrainedEqualizer> {
        self.equalizer.as_ref()
    }

    /// Squared CIELAB a*b* distance from a band feature to each recorded
    /// reference, ascending — the post-mortem's "nearest constellation
    /// points" ranking. Empty when the dump carried no references.
    pub fn nearest_references(&self, a: f64, b: f64) -> Vec<(usize, f64)> {
        let mut d: Vec<(usize, f64)> = self
            .references
            .iter()
            .map(|&(i, ra, rb)| (i, ((a - ra).powi(2) + (b - rb).powi(2)).sqrt()))
            .collect();
        // A hostile dump can carry `1e999` (+inf) coordinates, whose
        // differences are NaN: `total_cmp` orders those too.
        d.sort_by(|x, y| x.1.total_cmp(&y.1));
        d
    }

    /// Replay a per-packet data decode from recorded bands — calls the same
    /// [`decode_data_body`] the live depacketizer ran.
    pub fn decode_data(&self, body: &[ObservedBand]) -> DataDecode {
        decode_data_body(
            &self.constellation,
            self.code.as_ref(),
            self.white_ratio,
            self.use_erasures,
            body,
        )
    }

    /// Replay an interleaved group decode from recorded segment
    /// observations — rebuilds the [`Interleaver`] and re-runs
    /// [`Interleaver::decode_group`]. Errors in raw mode or when the
    /// recorded depth is unrealizable for the code.
    pub fn decode_group(&self, segments: &[SegmentObservation]) -> Result<GroupDecode, String> {
        let code = self
            .code
            .as_ref()
            .ok_or("raw-mode context has no interleaver")?;
        let il = Interleaver::new(self.fec_depth, code.clone())
            .ok_or_else(|| format!("unrealizable interleave depth {}", self.fec_depth))?;
        let mut segs = segments.to_vec();
        if !self.use_erasures {
            for s in &mut segs {
                s.erased.clear();
            }
        }
        Ok(il.decode_group(&segs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depacket::ParsedPacket;

    fn roundtrip(config: &LinkConfig, coded: bool, use_erasures: bool) -> ReplayLink {
        let mapper = crate::symbol::SymbolMapper::new(config.led, config.constellation());
        let store = ReferenceStore::ideal(&mapper);
        let ctx = context_json(config, coded, use_erasures, &store, None);
        // Through JSON text, as the dump file does.
        let text = ctx.to_compact();
        let parsed = obs::Value::parse(&text).expect("valid json");
        ReplayLink::from_context(&parsed).expect("context round-trips")
    }

    #[test]
    fn context_roundtrip_rebuilds_the_link() {
        let config = LinkConfig::paper_default(CskOrder::Csk8, 2000.0, 0.2312);
        let link = roundtrip(&config, true, true);
        assert!(link.is_coded());
        assert_eq!(link.fec_depth(), 0);
        assert_eq!(link.constellation().points().len(), 8);
        assert_eq!(link.references().len(), 8);
        let budget = config.packet_budget().unwrap();
        assert_eq!(link.code.as_ref().unwrap().n(), budget.n_bytes);
        assert_eq!(link.code.as_ref().unwrap().k(), budget.k_bytes);
    }

    #[test]
    fn context_roundtrip_preserves_fec_and_gray() {
        let config = LinkConfig::paper_default(CskOrder::Csk16, 3000.0, 0.3727).with_fec(6);
        let mut config = config;
        config.gray_mapping = true;
        let link = roundtrip(&config, true, false);
        assert_eq!(link.fec_depth(), 6);
        assert!(link.constellation().has_gray_mapping());
        assert!(!link.use_erasures);
        // The group replay path is available.
        let il_code = link.code.as_ref().unwrap().clone();
        let il = Interleaver::new(6, il_code).unwrap();
        let data = vec![7u8; il.group_data_len()];
        let wire = il.encode_group(&data).unwrap();
        let segs: Vec<SegmentObservation> = wire
            .iter()
            .enumerate()
            .map(|(i, b)| SegmentObservation::new(i, b.clone(), Vec::new()))
            .collect();
        let decode = link.decode_group(&segs).unwrap();
        assert!(decode.codewords.iter().all(|c| c.is_recovered()));
    }

    #[test]
    fn raw_context_has_no_code() {
        let config = LinkConfig::paper_default(CskOrder::Csk8, 300.0, 0.2312);
        let link = roundtrip(&config, false, true);
        assert!(!link.is_coded());
        assert!(link.decode_group(&[]).is_err());
    }

    #[test]
    fn malformed_context_is_rejected_with_a_description() {
        let err = ReplayLink::from_context(&obs::Value::object([(
            "order_points",
            obs::Value::from(5u64),
        )]))
        .unwrap_err();
        assert!(err.contains("unknown CSK order") || err.contains("missing"));
    }

    /// A valid context that exercises every field the replay reads: a
    /// coded, Gray-mapped, interleaved 16-CSK link with a trained ridge
    /// equalizer.
    fn full_context() -> obs::Value {
        let mut config = LinkConfig::paper_default(CskOrder::Csk16, 3000.0, 0.2312)
            .with_fec(4)
            .with_equalizer(EqualizerKind::Ridge);
        config.gray_mapping = true;
        let mapper = crate::symbol::SymbolMapper::new(config.led, config.constellation());
        let store = ReferenceStore::ideal(&mapper);
        let ideal: Vec<(f64, f64)> = (0..store.len()).map(|i| store.ideal_reference(i)).collect();
        let samples: Vec<(usize, colorbars_color::Lab)> = (0..2 * ideal.len())
            .map(|k| {
                let (a, b) = ideal[k % ideal.len()];
                let lab = colorbars_color::Lab::new(50.0, 0.9 * a + 2.0, 0.85 * b - 1.0);
                (k % ideal.len(), lab)
            })
            .collect();
        let eq = TrainedEqualizer::fit(EqualizerKind::Ridge, &samples, &ideal)
            .unwrap()
            .unwrap();
        let text = context_json(&config, true, true, &store, Some(&eq)).to_compact();
        obs::Value::parse(&text).expect("valid json")
    }

    #[test]
    fn hostile_context_fields_are_rejected_without_panicking() {
        let base = full_context();
        ReplayLink::from_context(&base).expect("the unmutated context replays");
        let fields = base.as_object().expect("a context is an object").clone();
        let with = |key: &str, value: Option<obs::Value>| {
            let mut fields = fields.clone();
            match value {
                Some(value) => fields.insert(key.to_string(), value),
                None => fields.remove(key),
            };
            obs::Value::Object(fields)
        };
        let references = |rows: Vec<(obs::Value, f64, f64)>| {
            obs::Value::Array(
                rows.into_iter()
                    .map(|(i, a, b)| obs::Value::Array(vec![i, a.into(), b.into()]))
                    .collect(),
            )
        };
        let weights = fields["equalizer_weights"].as_array().unwrap();
        let mut cases: Vec<(String, obs::Value)> = Vec::new();
        // Every field the replay reads, dropped or given the wrong type.
        // (`calibrations` and `white` are recorded for the reader only.)
        for key in [
            "order_points",
            "symbol_rate",
            "loss_ratio",
            "frame_rate",
            "gray_mapping",
            "packet_wire_override",
            "fec_depth",
            "coded",
            "use_erasures",
            "white_ratio",
            "references",
            "equalizer_kind",
            "equalizer_weights",
            "equalizer_ideal",
        ] {
            cases.push((format!("{key} dropped"), with(key, None)));
            let wrong = if key == "equalizer_kind" {
                obs::Value::from(7u64)
            } else {
                obs::Value::from("7")
            };
            cases.push((format!("{key} of the wrong type"), with(key, Some(wrong))));
        }
        let hostile: Vec<(&str, obs::Value)> = vec![
            ("order_points", 5u64.into()),
            ("order_points", 0u64.into()),
            ("order_points", 128u64.into()),
            ("fec_depth", 65u64.into()),
            ("fec_depth", u64::MAX.into()),
            ("symbol_rate", 0.0.into()),
            ("symbol_rate", (-3000.0).into()),
            ("symbol_rate", f64::NAN.into()),
            (
                "references",
                references(vec![(16u64.into(), 1.0, 2.0), (0u64.into(), 3.0, 4.0)]),
            ),
            ("references", references(vec![(3u64.into(), f64::NAN, 2.0)])),
            ("references", references(vec![(3u64.into(), 1.0, f64::NAN)])),
            (
                "equalizer_weights",
                obs::Value::Array(weights[1..].to_vec()),
            ),
            (
                "equalizer_weights",
                obs::Value::Array([weights, &[0.0.into()]].concat()),
            ),
        ];
        for (key, value) in hostile {
            let name = format!("{key} = {}", value.to_compact());
            cases.push((name, with(key, Some(value))));
        }
        for (name, ctx) in cases {
            let replay = std::panic::catch_unwind(|| ReplayLink::from_context(&ctx));
            match replay {
                Ok(Err(_)) => {}
                Ok(Ok(_)) => panic!("{name}: the context was accepted"),
                Err(_) => panic!("{name}: from_context panicked"),
            }
        }
    }

    #[test]
    fn out_of_range_wire_index_in_a_dump_is_an_erasure() {
        // A flight dump's band records carry `color_idx` verbatim, so a
        // hostile or corrupted dump can name a wire index past the
        // constellation. Under Gray mapping no bit group maps to it: the
        // slot must decode as an erasure, not index past the inverse map.
        let mut config = LinkConfig::paper_default(CskOrder::Csk8, 3000.0, 0.2312);
        config.gray_mapping = true;
        let link = roundtrip(&config, true, true);
        let tx = crate::transmitter::Transmitter::new(config.clone()).unwrap();
        let data: Vec<u8> = (0..tx.budget().k_bytes).map(|i| i as u8 ^ 0x5A).collect();
        let tr = tx.transmit(&data);
        let span = tr
            .packets
            .iter()
            .find(|p| p.chunk.is_some())
            .expect("one data packet");
        let mut body: Vec<ObservedBand> = tr.symbols
            [span.start + crate::packet::DATA_FLAG.len()..span.end]
            .iter()
            .map(|&s| {
                let (label, idx) = match s {
                    crate::symbol::Symbol::Color(c) => (crate::classify::Label::Color(c), c),
                    crate::symbol::Symbol::White => (crate::classify::Label::White, 0),
                    crate::symbol::Symbol::Off => (crate::classify::Label::Off, 0),
                };
                ObservedBand {
                    label,
                    color_idx: idx,
                    nn_idx: idx,
                    feature: colorbars_color::Lab::new(50.0, 0.0, 0.0),
                    frame_index: 0,
                }
            })
            .collect();
        let clean = link.decode_data(&body);
        assert!(clean.erasures.is_empty());
        assert!(matches!(&clean.packet, ParsedPacket::Data { chunk, .. } if chunk == &data));
        // Payload slot 0 is a data slot, and its bits open byte 0.
        let header = crate::packet::size_field_len(config.order);
        assert!(!crate::illumination::is_white_position(
            0,
            config.white_ratio()
        ));
        body[header].color_idx = config.order.points() as u16;
        let decode = link.decode_data(&body);
        assert_eq!(decode.erasures, [0]);
        assert!(
            matches!(&decode.packet, ParsedPacket::Data { chunk, erasures_recovered: 1, .. } if chunk == &data),
            "{:?}",
            decode.packet
        );
    }

    #[test]
    fn context_roundtrip_rebuilds_the_equalizer_bit_identically() {
        let config = LinkConfig::paper_default(CskOrder::Csk64, 3000.0, 0.2312)
            .with_equalizer(EqualizerKind::Ridge);
        let mapper = crate::symbol::SymbolMapper::new(config.led, config.constellation());
        let store = ReferenceStore::ideal(&mapper);
        // Train on a slightly sheared ideal preamble.
        let ideal: Vec<(f64, f64)> = (0..store.len()).map(|i| store.ideal_reference(i)).collect();
        let samples: Vec<(usize, colorbars_color::Lab)> = ideal
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| {
                (
                    i,
                    colorbars_color::Lab::new(50.0, 0.9 * a + 2.0, 0.85 * b - 1.0),
                )
            })
            .collect();
        let eq = TrainedEqualizer::fit(EqualizerKind::Ridge, &samples, &ideal)
            .unwrap()
            .unwrap();
        let ctx = context_json(&config, false, true, &store, Some(&eq));
        let parsed = obs::Value::parse(&ctx.to_compact()).expect("valid json");
        let link = ReplayLink::from_context(&parsed).expect("context round-trips");
        let rebuilt = link.equalizer().expect("equalizer survives the dump");
        assert_eq!(rebuilt, &eq, "weights and geometry are bit-identical");
        for (i, (_, f)) in samples.iter().enumerate() {
            assert_eq!(
                rebuilt.classify(*f),
                eq.classify(*f),
                "verdict {i} must replay byte-identically"
            );
        }
    }

    #[test]
    fn unknown_equalizer_kind_is_refused() {
        // A real ridge context with its kind rewritten: replaying it as
        // nearest-neighbor would drop the recorded weights, so it must fail
        // and name the kind.
        let text = full_context().to_compact();
        assert!(text.contains(r#""equalizer_kind":"ridge""#));
        let parsed = obs::Value::parse(
            &text.replace(r#""equalizer_kind":"ridge""#, r#""equalizer_kind":"mlp""#),
        )
        .expect("valid json");
        let err = ReplayLink::from_context(&parsed).unwrap_err();
        assert!(
            err.contains("unknown equalizer kind") && err.contains("mlp"),
            "{err}"
        );
    }

    #[test]
    fn nearest_references_rank_ascending() {
        let config = LinkConfig::paper_default(CskOrder::Csk4, 2000.0, 0.2312);
        let link = roundtrip(&config, true, true);
        let (i0, a0, b0) = link.references()[0];
        let ranked = link.nearest_references(a0, b0);
        assert_eq!(ranked.first().map(|r| r.0), Some(i0));
        assert!(ranked.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn infinite_coordinates_rank_without_panicking() {
        // A hostile dump's `1e999` parses as +inf, and inf − inf is NaN: a
        // ranking must still come back, ordered by `total_cmp`.
        let config = LinkConfig::paper_default(CskOrder::Csk4, 2000.0, 0.2312);
        let mapper = crate::symbol::SymbolMapper::new(config.led, config.constellation());
        let text =
            context_json(&config, true, true, &ReferenceStore::ideal(&mapper), None).to_compact();
        let start = text.find("\"references\":").expect("references recorded");
        let end = start + text[start..].find("]]").expect("references close") + 2;
        let hostile = format!(
            "{}\"references\":[[0,1e999,0],[1,1e999,1e999],[2,-5,3],[3,4,-2]]{}",
            &text[..start],
            &text[end..]
        );
        let parsed = obs::Value::parse(&hostile).expect("valid json");
        let link = ReplayLink::from_context(&parsed).expect("context parses");
        let ranked = link.nearest_references(f64::INFINITY, 0.0);
        let mut indices: Vec<usize> = ranked.iter().map(|r| r.0).collect();
        indices.sort_unstable();
        assert_eq!(indices, [0, 1, 2, 3]);
        assert!(
            ranked.iter().any(|r| r.1.is_nan()),
            "inf − inf reached the sort"
        );
        assert!(ranked.windows(2).all(|w| w[0].1.total_cmp(&w[1].1).is_le()));
    }
}
