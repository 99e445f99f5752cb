//! Flight-dump replay with a trained equalizer (DESIGN.md §14 + §15): a
//! dump captured from a live equalized link must rebuild the *same*
//! trained classifier from its serialized weights, and every recorded
//! `rx.data` decode must replay byte-identically from the dump alone —
//! no captured frames, no RNG, no retraining.
//!
//! Kept in its own integration binary: the flight recorder is process
//! globals, and sharing it with unrelated tests would interleave journeys.

use colorbars::camera::{CaptureConfig, DeviceProfile};
use colorbars::channel::OpticalChannel;
use colorbars::core::depacket::{band_from_record, DataDecode, ParsedPacket};
use colorbars::core::{CskOrder, EqualizerKind, LinkConfig, LinkSimulator, ReplayLink};
use colorbars::obs;
use colorbars::obs::journey::JourneyRecord;
use colorbars::obs::Value;

fn u64_list(fields: &Value, key: &str) -> Vec<u64> {
    fields
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(Value::as_u64)
        .collect()
}

#[test]
fn flight_dump_rebuilds_equalizer_and_replays_byte_identically() {
    let dir = std::env::temp_dir().join("colorbars-eq-replay-test");
    obs::flight::configure(Some(dir.to_string_lossy().as_ref()), "eq-replay");
    assert!(obs::flight::is_active(), "recorder must arm in a temp dir");

    // A coded 16-CSK link with the ridge equalizer: calibration fits one
    // frame slot at this order, so the preamble reliably trains.
    let device = DeviceProfile::nexus5();
    let cfg = LinkConfig::paper_default(CskOrder::Csk16, 3000.0, device.loss_ratio())
        .with_equalizer(EqualizerKind::Ridge);
    let sim = LinkSimulator::new(
        cfg,
        device,
        OpticalChannel::paper_setup(),
        CaptureConfig {
            seed: 105,
            ..CaptureConfig::default()
        },
    )
    .unwrap();
    let payload = sim.random_payload(1.0, 9).unwrap();
    let m = sim.run_data(&payload).unwrap();
    assert!(
        m.report.stats.eq_trained > 0,
        "the live run must have trained the equalizer"
    );

    let dump = obs::flight::to_json();
    obs::flight::configure(None, ""); // disarm before any assertion can bail

    // The last-published replay context must carry the trained classifier…
    let contexts = dump
        .get("contexts")
        .and_then(Value::as_object)
        .expect("dump carries replay contexts");
    let (_, ctx) = contexts
        .iter()
        .next()
        .expect("receiver published no context");
    let ctx_weights: Vec<f64> = ctx
        .get("equalizer_weights")
        .and_then(Value::as_array)
        .expect("context carries equalizer weights")
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    assert_eq!(
        ctx.get("equalizer_kind").and_then(Value::as_str),
        Some("ridge")
    );
    assert!(!ctx_weights.is_empty());

    // …and ReplayLink must rebuild it bit for bit from the dump alone.
    let link = ReplayLink::from_context(ctx).expect("context rebuilds");
    let eq = link
        .equalizer()
        .expect("replay link rebuilds the trained equalizer");
    assert_eq!(eq.kind(), EqualizerKind::Ridge);
    let rebuilt = eq.weights();
    assert_eq!(rebuilt.len(), ctx_weights.len());
    for (a, b) in rebuilt.iter().zip(&ctx_weights) {
        assert_eq!(a.to_bits(), b.to_bits(), "weights must survive the dump");
    }

    // Every recorded rx.data journey replays to the recorded verdict,
    // erasure map, and chunk bytes — the postmortem --replay contract,
    // now with the equalizer in the loop.
    let journeys: Vec<JourneyRecord> = dump
        .get("journeys")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(JourneyRecord::from_json)
        .filter(|j| j.stage == "rx.data")
        .collect();
    assert!(!journeys.is_empty(), "run must record rx.data journeys");

    let mut divergent_bands = 0usize;
    for journey in &journeys {
        divergent_bands += journey
            .bands
            .iter()
            .filter(|b| b.color_idx != b.nn_idx)
            .count();
        let body: Vec<_> = journey.bands.iter().map(band_from_record).collect();
        let DataDecode { packet, erasures } = link.decode_data(&body);
        let verdict = match &packet {
            ParsedPacket::Data { .. } => "ok".to_string(),
            ParsedPacket::DataFailed { reason, .. } => reason.as_str().to_string(),
            other => format!("{other:?}"),
        };
        assert_eq!(
            verdict, journey.verdict,
            "journey {} verdict must replay byte-identically",
            journey.id
        );
        let erasures: Vec<u64> = erasures.iter().map(|&e| e as u64).collect();
        assert_eq!(erasures, u64_list(&journey.fields, "erasures"));
        if let ParsedPacket::Data { chunk, .. } = &packet {
            let chunk: Vec<u64> = chunk.iter().map(|&b| b as u64).collect();
            assert_eq!(chunk, u64_list(&journey.fields, "chunk"));
        }
    }
    // The equalizer really was in the decode loop: at least one recorded
    // band's active verdict disagrees with plain nearest-neighbor, and the
    // replay above still reproduced every packet outcome.
    assert!(
        divergent_bands > 0,
        "expected at least one equalizer-divergent band in the journey ring"
    );
}
