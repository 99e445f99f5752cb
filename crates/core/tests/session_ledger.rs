//! A session's live telemetry, and the decode ledger it publishes: every
//! `rx.*` ledger name must equal its [`ReceiverStats`] field, both in the
//! session's `session`-labeled counters and in the process-wide unlabeled
//! ones every [`Receiver`](colorbars_core::Receiver) publishes.
//!
//! A test binary of its own: it reads the process-global registry, which
//! decodes in other tests would add to while observability is on.

use colorbars_camera::{CaptureConfig, DeviceProfile, Vignette};
use colorbars_channel::OpticalChannel;
use colorbars_color::Lab;
use colorbars_core::depacket::{FailReason, ParsedPacket};
use colorbars_core::receiver::ReceiverStats;
use colorbars_core::{
    CskOrder, EqualizerKind, LinkConfig, LinkSession, LinkSimulator, SessionConfig,
};
use colorbars_obs as obs;
use colorbars_obs::live::{LiveSnapshot, Registry};

/// A coded Nexus 5 link with depth-4 interleaving and the ridge
/// equalizer: a real run that moves the FEC and equalizer counters.
fn ledger_sim() -> LinkSimulator {
    let device = DeviceProfile::nexus5();
    let capture = CaptureConfig {
        roi_width: 8,
        vignette: Vignette::none(),
        seed: 177,
        ..Default::default()
    };
    let config = LinkConfig::paper_default(CskOrder::Csk8, 3000.0, device.loss_ratio())
        .with_fec(4)
        .with_equalizer(EqualizerKind::Ridge);
    LinkSimulator::new(config, device, OpticalChannel::ideal(), capture).unwrap()
}

/// Outcomes no clean capture produces, each field's total distinct from
/// every other's (1 equalizer fallback, 2 trainings, 3 calibrations,
/// 5 interleave rescues, … 16 corrected errors), so that swapping two
/// names in the table changes what the registry shows.
fn injected_outcomes(k: usize, rx: &colorbars_core::Receiver) -> Vec<ParsedPacket> {
    let data = |via_interleave: bool, erasures_recovered: usize, errors_corrected: usize| {
        ParsedPacket::Data {
            chunk: vec![0u8; k],
            erasures_recovered,
            errors_corrected,
            data_symbols_received: 40,
            via_interleave,
        }
    };
    let points = rx.store().len();
    // A zero-variance preamble is absorbed, but the equalizer refuses it.
    let flat = (0..points)
        .map(|i| (i, Lab::new(50.0, 4.0, -3.0)))
        .collect();
    let healthy = || ParsedPacket::Calibration {
        features: (0..points)
            .map(|i| {
                let (a, b) = rx.store().ideal_reference(i);
                (i, Lab::new(55.0, 1.05 * a + 2.0, 0.95 * b - 1.0))
            })
            .collect(),
    };
    let mut out = vec![
        ParsedPacket::Calibration { features: flat },
        healthy(),
        healthy(),
        data(false, 0, 16),
        data(true, 0, 0),
    ];
    out.extend((0..5).map(|_| data(true, 3, 0)));
    for (reason, n) in [
        (FailReason::BadHeader, 8),
        (FailReason::Overrun, 9),
        (FailReason::RsCapacityExceeded, 10),
        (FailReason::DecoderDisabled, 11),
        (FailReason::UnrecoverableBurst, 12),
    ] {
        out.extend((0..n).map(|_| ParsedPacket::DataFailed {
            reason,
            data_symbols_received: 11,
        }));
    }
    out.extend((0..13).map(|_| ParsedPacket::CalibrationFailed));
    out
}

/// The ledger names the link doctor reads, each with the field it must
/// carry — written out apart from [`ReceiverStats::COUNTERS`], so that a
/// dropped or swapped entry there fails this test.
fn expected_ledger(s: &ReceiverStats) -> [(&'static str, usize); 22] {
    [
        ("rx.frames", s.frames),
        ("rx.bands.segmented", s.bands),
        ("rx.bands.classified", s.bands_classified),
        ("rx.bands.calibrated", s.bands_calibrated),
        ("rx.bands.depacketized", s.bands_depacketized),
        ("rx.packets.ok", s.packets_ok),
        ("rx.packets.header_lost", s.packets_header_lost),
        ("rx.packets.rs_failed", s.packets_rs_failed),
        ("rx.packets.overrun", s.packets_overrun),
        ("rx.packets.undecoded", s.packets_undecoded),
        ("rx.packets.unrecoverable_burst", s.packets_burst_lost),
        ("rx.calibrations.ok", s.calibrations),
        ("rx.calibrations.failed", s.calibrations_failed),
        ("rx.rs.erasures_recovered", s.erasures_recovered),
        ("rx.rs.errors_corrected", s.errors_corrected),
        ("rx.fec.groups", s.fec_groups),
        ("rx.fec.codewords", s.fec_codewords),
        ("rx.fec.codewords_ok", s.fec_codewords_ok),
        ("rx.fec.segments_missing", s.fec_segments_missing),
        (
            "rx.fec.recovered_by_interleave",
            s.fec_recovered_by_interleave,
        ),
        ("rx.eq.trained", s.eq_trained),
        ("rx.eq.fallback", s.eq_fallbacks),
    ]
}

fn counter(snap: &LiveSnapshot, name: &str, label: Option<&str>) -> u64 {
    snap.counters
        .iter()
        .find(|c| c.id.name == name && c.id.label("session") == label)
        .map_or(0, |c| c.value)
}

#[test]
fn instrumented_session_populates_registry() {
    let sim = ledger_sim();
    let k = sim.config().packet_budget().unwrap().k_bytes;
    let data: Vec<u8> = (0..12 * k).map(|i| (i * 7 + 3) as u8).collect();
    let mut run = sim.prepare_data(&data).unwrap();
    // A frame lost a quarter of the way in swallows whole packets: the
    // deinterleaver must rebuild their segments as erasures.
    run.frames.remove(run.frames.len() / 4);

    // The registry gates writes on the global obs switch.
    obs::init(obs::ObsConfig::default());
    let global_before = obs::live::global().snapshot();
    let registry = Registry::new();
    // s0 decodes the capture; s1 decodes nothing but starts from a
    // receiver that already absorbed the injected outcomes.
    let s0 = LinkSession::spawn(
        sim.receiver().unwrap(),
        SessionConfig::new("s0", registry.clone()),
    );
    for f in &run.frames {
        s0.push_frame(f.clone());
    }
    let mut injected = sim.receiver().unwrap();
    injected.absorb(injected_outcomes(k, &injected));
    let s1 = LinkSession::spawn(injected, SessionConfig::new("s1", registry.clone()));
    let (r0, r1) = (s0.finish(), s1.finish());
    let global = obs::live::global().snapshot();
    obs::disable();

    let snap = registry.snapshot();
    let frames = run.frames.len() as u64;
    let hist = snap
        .histograms
        .iter()
        .find(|h| h.id.name == "session.frame_latency_ms" && h.id.label("session") == Some("s0"))
        .expect("latency histogram registered");
    assert_eq!(hist.count, frames);
    let aggregate = snap
        .histograms
        .iter()
        .find(|h| h.id.name == "session.frame_latency_ms" && h.id.labels.is_empty())
        .expect("aggregate latency histogram registered");
    assert_eq!(aggregate.count, frames);

    // The published ledger carries the reports' stats name for name: per
    // session under its label, and summed over both receivers in the
    // process-wide unlabeled counters.
    let (e0, e1) = (expected_ledger(&r0.stats), expected_ledger(&r1.stats));
    for (&(name, v0), &(_, v1)) in e0.iter().zip(&e1) {
        assert_eq!(counter(&snap, name, Some("s0")), v0 as u64, "{name} for s0");
        assert_eq!(counter(&snap, name, Some("s1")), v1 as u64, "{name} for s1");
        assert_eq!(
            counter(&global, name, None) - counter(&global_before, name, None),
            (v0 + v1) as u64,
            "{name} process-wide"
        );
    }
    // That only catches a dropped or swapped table entry if every name has
    // a non-zero value and no two names read the same pair of values.
    // Classification and depacketization see every segmented band, so
    // those three counts are equal by construction.
    let same_by_construction = [
        "rx.bands.segmented",
        "rx.bands.classified",
        "rx.bands.depacketized",
    ];
    let columns: Vec<(&str, (usize, usize))> = e0
        .iter()
        .zip(&e1)
        .map(|(&(name, v0), &(_, v1))| (name, (v0, v1)))
        .collect();
    for (i, &(a, va)) in columns.iter().enumerate() {
        assert_ne!(va, (0, 0), "{a} is zero in both sessions");
        for &(b, vb) in &columns[i + 1..] {
            let exempt = same_by_construction.contains(&a) && same_by_construction.contains(&b);
            assert!(exempt || va != vb, "{a} and {b} both read {va:?}");
        }
    }

    // Queue depth drains to zero; the active gauge returns to zero.
    let gauge = |name: &str| {
        snap.gauges
            .iter()
            .find(|g| g.id.name == name)
            .map(|g| g.value)
            .unwrap_or(f64::NAN)
    };
    assert_eq!(gauge("session.queue_depth"), 0.0);
    assert_eq!(gauge("sessions.active"), 0.0);
}
