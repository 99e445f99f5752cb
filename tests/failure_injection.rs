//! Failure injection: the receiver must degrade cleanly — never decode
//! wrong data silently, never panic — under corrupted inputs and hostile
//! channel conditions.

use colorbars::camera::{AutoExposure, CameraRig, CaptureConfig, DeviceProfile, ExposureSettings};
use colorbars::channel::{AmbientLight, BlurKernel, OpticalChannel, PathLoss};
use colorbars::color::Lab;
use colorbars::core::depacket::{Depacketizer, ObservedBand, ParsedPacket};
use colorbars::core::{
    CskOrder, EqualizerKind, Label, LinkConfig, LinkError, LinkSimulator, Receiver, Symbol,
    TrainedEqualizer, Transmitter,
};

fn observe_all(symbols: &[Symbol]) -> Vec<ObservedBand> {
    symbols
        .iter()
        .map(|&s| {
            let (label, color_idx) = match s {
                Symbol::Off => (Label::Off, 0),
                Symbol::White => (Label::White, 0),
                Symbol::Color(c) => (Label::Color(c), c),
            };
            ObservedBand {
                label,
                color_idx,
                nn_idx: color_idx,
                feature: Lab::new(50.0, 0.0, 0.0),
                frame_index: 0,
            }
        })
        .collect()
}

fn depacketizer(cfg: &LinkConfig, tx: &Transmitter) -> Depacketizer {
    Depacketizer::new(
        tx.constellation().clone(),
        Some(tx.budget().code()),
        cfg.white_ratio(),
        cfg.loss_ratio * cfg.symbol_rate / cfg.frame_rate,
        colorbars::core::transmitter::cal_copies(cfg),
    )
}

/// Corrupt every size-field symbol: packets must be discarded as
/// bad-header, never mis-decoded.
#[test]
fn corrupted_size_fields_discard_cleanly() {
    let cfg = LinkConfig::paper_default(CskOrder::Csk8, 3000.0, 0.2312);
    let tx = Transmitter::new(cfg.clone()).unwrap();
    let data: Vec<u8> = (0..tx.budget().k_bytes * 4).map(|i| i as u8).collect();
    let tr = tx.transmit(&data);
    let mut symbols = tr.symbols.clone();
    for span in tr.packets.iter().filter(|p| p.chunk.is_some()) {
        // Size field sits right after the 5-symbol data flag.
        for s in &mut symbols[span.start + 5..span.start + 8] {
            *s = Symbol::White; // invalid size digits
        }
    }
    let mut de = depacketizer(&cfg, &tx);
    let mut packets = de.push_frame(&observe_all(&symbols));
    packets.extend(de.finish());
    assert!(
        !packets
            .iter()
            .any(|p| matches!(p, ParsedPacket::Data { .. })),
        "no packet may decode with a destroyed size field"
    );
}

/// Random label corruption at 10%: decoded chunks must still be verbatim
/// transmitted chunks (RS verification rejects everything else).
#[test]
fn random_symbol_corruption_never_fabricates_data() {
    use rand::{Rng, SeedableRng};
    let cfg = LinkConfig::paper_default(CskOrder::Csk16, 3000.0, 0.2312);
    let tx = Transmitter::new(cfg.clone()).unwrap();
    let data: Vec<u8> = (0..tx.budget().k_bytes * 10)
        .map(|i| (i * 41 + 9) as u8)
        .collect();
    let tr = tx.transmit(&data);
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let mut bands = observe_all(&tr.symbols);
    for b in &mut bands {
        if rng.gen_bool(0.10) {
            if let Label::Color(c) = b.label {
                let flip = rng.gen_range(1..16u16);
                b.label = Label::Color((c ^ flip) % 16);
                b.color_idx = (c ^ flip) % 16;
            }
        }
    }
    let mut de = depacketizer(&cfg, &tx);
    let mut packets = de.push_frame(&bands);
    packets.extend(de.finish());
    let truth = tr.data_chunks();
    for p in &packets {
        if let ParsedPacket::Data { chunk, .. } = p {
            assert!(
                truth.iter().any(|t| *t == &chunk[..]),
                "decoded chunk must be a transmitted chunk"
            );
        }
    }
}

/// A grossly overexposed capture (locked long exposure): the link may fail,
/// but must fail with failure statistics, not wrong data or panics.
#[test]
fn overexposure_fails_cleanly() {
    let device = DeviceProfile::nexus5();
    let cfg = LinkConfig::paper_default(CskOrder::Csk8, 3000.0, device.loss_ratio());
    let tx = Transmitter::new(cfg.clone()).unwrap();
    let data: Vec<u8> = (0..tx.budget().k_bytes * 10).map(|i| i as u8).collect();
    let tr = tx.transmit(&data);
    let emitter = tx.schedule(&tr);
    let mut rig = CameraRig::new(
        device.clone(),
        OpticalChannel::paper_setup(),
        CaptureConfig {
            seed: 4,
            ..CaptureConfig::default()
        },
    );
    rig.set_exposure_controller(AutoExposure::locked(ExposureSettings {
        exposure: 2e-3, // 10× sane
        iso: 1600.0,
    }));
    let frames = rig.capture_video(&emitter, 0.0, 10);
    let mut rx = Receiver::new(cfg, device.row_time()).unwrap();
    for f in &frames {
        rx.process_frame(f);
    }
    let report = rx.finish();
    let truth = tr.data_chunks();
    for chunk in &report.chunks {
        assert!(truth.iter().any(|t| *t == &chunk[..]), "no fabricated data");
    }
}

/// Extreme blur (badly defocused lens): same clean-degradation contract.
#[test]
fn heavy_defocus_degrades_not_corrupts() {
    let device = DeviceProfile::nexus5();
    let channel = OpticalChannel::new(
        PathLoss::new(0.03, 0.03),
        AmbientLight::dim_indoor(),
        BlurKernel::gaussian(12.0, 30),
    );
    let cfg = LinkConfig::paper_default(CskOrder::Csk8, 4000.0, device.loss_ratio());
    let sim = LinkSimulator::new(
        cfg,
        device,
        channel,
        CaptureConfig {
            seed: 21,
            ..CaptureConfig::default()
        },
    )
    .unwrap();
    let m = sim.run_random(0.8, 3).unwrap();
    // Bands at 4 kHz are ~32 rows; σ=12 blur erodes them badly. Whatever
    // decodes must be correct (goodput counts verified bytes only).
    assert!(m.goodput_bps >= 0.0);
    assert!(m.ser <= 1.0);
}

/// Zero-length input data: transmit/receive still behave.
#[test]
fn empty_payload_is_fine() {
    let cfg = LinkConfig::paper_default(CskOrder::Csk8, 3000.0, 0.2312);
    let tx = Transmitter::new(cfg.clone()).unwrap();
    let tr = tx.transmit(&[]);
    // Only the bootstrap calibration packet and the final delimiter.
    assert!(tr.packets.iter().all(|p| p.chunk.is_none()));
    let mut de = depacketizer(&cfg, &tx);
    let mut packets = de.push_frame(&observe_all(&tr.symbols));
    packets.extend(de.finish());
    assert!(packets
        .iter()
        .all(|p| !matches!(p, ParsedPacket::Data { .. })));
}

/// A degenerate calibration preamble — every reference band measured as
/// the *same* Lab point (a saturated or occluded sensor), or a sample that
/// is not a number at all — must demote the learned equalizer to plain
/// nearest-neighbor through the typed error path: counted fallback, no
/// trained classifier, never NaN weights and never a panic.
#[test]
fn degenerate_calibration_falls_back_to_nearest_neighbor() {
    let cfg = LinkConfig::paper_default(CskOrder::Csk64, 3000.0, 0.2312)
        .with_equalizer(EqualizerKind::Ridge);

    // The fit itself refuses the preamble with a typed, attributable error.
    let flat: Vec<(usize, Lab)> = (0..64).map(|i| (i, Lab::new(50.0, 4.0, -3.0))).collect();
    let ideal: Vec<(f64, f64)> = (0..64).map(|i| (i as f64, -(i as f64))).collect();
    match TrainedEqualizer::fit(EqualizerKind::Ridge, &flat, &ideal) {
        Err(LinkError::EqualizerDegenerate { samples, cause }) => {
            assert_eq!(samples, 64);
            assert_eq!(cause, "rank_deficient");
        }
        other => panic!("zero-variance preamble must be typed-degenerate, got {other:?}"),
    }

    // Injected into a live receiver, the same preamble must demote the
    // classifier (counted), not poison it.
    let device = DeviceProfile::nexus5();
    let mut rx = Receiver::new_raw(cfg, device.row_time()).unwrap();
    rx.absorb(vec![ParsedPacket::Calibration {
        features: flat.clone(),
    }]);
    assert!(rx.equalizer().is_none(), "no classifier may train on this");
    assert_eq!(rx.stats().eq_fallbacks, 1);
    assert_eq!(rx.stats().eq_trained, 0);

    // A healthy preamble afterwards recovers the learned classifier with
    // finite weights — the fallback is a demotion, not a latch.
    let healthy: Vec<(usize, Lab)> = (0..64)
        .map(|i| {
            let (a, b) = rx.store().ideal_reference(i);
            (i, Lab::new(55.0, 1.05 * a + 2.0, 0.95 * b - 1.0))
        })
        .collect();
    rx.absorb(vec![ParsedPacket::Calibration { features: healthy }]);
    let eq = rx.equalizer().expect("healthy preamble must retrain");
    assert!(eq.weights().iter().all(|w| w.is_finite()), "no NaN weights");
    assert_eq!(rx.stats().eq_trained, 1);
    assert_eq!(rx.stats().eq_fallbacks, 1);

    // A non-finite sample is refused by the fit with its own typed cause.
    let ideal8: Vec<(f64, f64)> = (0..8)
        .map(|i| {
            let t = i as f64 * std::f64::consts::PI / 4.0;
            (40.0 * t.cos(), 40.0 * t.sin())
        })
        .collect();
    let mut poisoned: Vec<(usize, Lab)> = (0..16)
        .map(|k| {
            let (a, b) = ideal8[k % 8];
            (k % 8, Lab::new(50.0, 0.9 * a + 2.0, 0.85 * b - 1.0))
        })
        .collect();
    poisoned[5].1.a = f64::NAN;
    match TrainedEqualizer::fit(EqualizerKind::Ridge, &poisoned, &ideal8) {
        Err(LinkError::EqualizerDegenerate { samples, cause }) => {
            assert_eq!(samples, 16);
            assert_eq!(cause, "non_finite");
        }
        other => panic!("a NaN sample must be typed-degenerate, got {other:?}"),
    }

    // Through a live 8-CSK receiver: two short calibration packets, the
    // second carrying one NaN a*. Together they pass the sample floor, so
    // the fit runs on the NaN — and must demote, not panic.
    let cfg8 = LinkConfig::paper_default(CskOrder::Csk8, 3000.0, 0.2312)
        .with_equalizer(EqualizerKind::Ridge);
    let mut rx = Receiver::new_raw(cfg8, device.row_time()).unwrap();
    let packet = |indices: std::ops::Range<usize>| -> Vec<(usize, Lab)> {
        indices
            .map(|k| {
                let (a, b) = rx.store().ideal_reference(k % 8);
                (k % 8, Lab::new(55.0, 1.05 * a + 2.0, 0.95 * b - 1.0))
            })
            .collect()
    };
    let first = packet(0..5);
    let mut second = packet(5..10);
    second[2].1.a = f64::NAN;
    rx.absorb(vec![ParsedPacket::Calibration { features: first }]);
    let fallbacks = rx.stats().eq_fallbacks;
    rx.absorb(vec![ParsedPacket::Calibration { features: second }]);
    assert_eq!(rx.stats().eq_fallbacks, fallbacks + 1);
    assert_eq!(rx.stats().eq_trained, 0);
    assert!(rx.equalizer().is_none(), "no classifier may train on a NaN");
}

/// Truncated capture mid-packet: the flush path must not panic and must
/// not fabricate.
#[test]
fn truncated_stream_flushes_cleanly() {
    let cfg = LinkConfig::paper_default(CskOrder::Csk32, 4000.0, 0.2312);
    let tx = Transmitter::new(cfg.clone()).unwrap();
    let data: Vec<u8> = (0..tx.budget().k_bytes * 3).map(|i| i as u8).collect();
    let tr = tx.transmit(&data);
    for cut in [1usize, 7, 50, tr.symbols.len() / 2, tr.symbols.len() - 1] {
        let mut de = depacketizer(&cfg, &tx);
        let mut packets = de.push_frame(&observe_all(&tr.symbols[..cut]));
        packets.extend(de.finish());
        let truth = tr.data_chunks();
        for p in &packets {
            if let ParsedPacket::Data { chunk, .. } = p {
                assert!(truth.iter().any(|t| *t == &chunk[..]));
            }
        }
    }
}
