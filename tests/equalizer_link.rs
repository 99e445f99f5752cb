//! End-to-end contract of the learned equalizer at high order
//! (DESIGN.md §15): on a full simulated 64-CSK link the ridge classifier
//! must do no worse than the plain nearest-neighbor it replaces, and the
//! doctor attribution counters must reconcile exactly with the SER gap.

use colorbars::camera::{CaptureConfig, DeviceProfile};
use colorbars::channel::OpticalChannel;
use colorbars::core::{CskOrder, EqualizerKind, LinkConfig, LinkMetrics, LinkSimulator};

/// One raw-mode 64-CSK run on the iPhone 5S profile — the scenario where
/// the ext_highorder bench shows the clearest equalizer margin.
fn run_64csk(kind: EqualizerKind, seed: u64) -> LinkMetrics {
    let device = DeviceProfile::iphone5s();
    let cfg = LinkConfig::paper_default(CskOrder::Csk64, 3000.0, device.loss_ratio())
        .with_equalizer(kind);
    let sim = LinkSimulator::new(
        cfg,
        device,
        OpticalChannel::paper_setup(),
        CaptureConfig {
            seed,
            ..CaptureConfig::default()
        },
    )
    .unwrap();
    sim.run_raw(1.2, seed ^ 0xABCD).unwrap()
}

/// The paired comparison: `ser` vs `ser_nn` are measured over the *same*
/// demodulated bands of the *same* run, so framing and channel noise are
/// identical — the gap is purely the classifier swap. The equalizer must
/// rescue at least as many bands as it misclassifies.
#[test]
fn ridge_is_not_worse_than_nearest_neighbor_at_64csk() {
    let m = run_64csk(EqualizerKind::Ridge, 7);
    assert!(
        m.report.stats.eq_trained > 0,
        "calibration preamble must train the ridge equalizer"
    );
    assert!(m.ser_bands > 0, "run must yield SER-eligible bands");
    assert!(
        m.ser <= m.ser_nn,
        "ridge SER {} must not exceed nearest-neighbor SER {} on the same bands \
         (rescued {}, missed {})",
        m.ser,
        m.ser_nn,
        m.eq_rescues,
        m.eq_misses
    );
}

/// Without an equalizer the counterfactual collapses: `ser == ser_nn` and
/// every attribution counter that implies a disagreement stays zero.
#[test]
fn nearest_neighbor_baseline_has_no_attribution_gap() {
    let m = run_64csk(EqualizerKind::NearestNeighbor, 7);
    assert_eq!(m.report.stats.eq_trained, 0);
    assert_eq!(m.ser, m.ser_nn);
    assert_eq!(m.eq_misses, 0);
    assert_eq!(m.eq_rescues, 0);
}

/// The three attribution buckets plus agreements must account for every
/// compared band: rescues and misses are disjoint by construction, and
/// `ser − ser_nn` must equal `(misses − rescues) / bands` exactly.
#[test]
fn attribution_counters_reconcile_with_the_ser_gap() {
    let m = run_64csk(EqualizerKind::Ridge, 21);
    assert!(m.ser_bands > 0);
    let bands = m.ser_bands as f64;
    let gap = m.ser - m.ser_nn;
    let implied = (m.eq_misses as f64 - m.eq_rescues as f64) / bands;
    assert!(
        (gap - implied).abs() < 1e-12,
        "SER gap {gap} must equal (misses − rescues)/bands = {implied}"
    );
    assert!(
        m.eq_misses + m.eq_rescues + m.channel_losses <= m.ser_bands,
        "attribution buckets cannot exceed compared bands"
    );
}
