//! Where auto-exposure settling leaves each benchmark link.
//!
//! Every link settles exposure before it captures, and the settle decides
//! two things the data capture inherits: how many preview frames advanced
//! the frame counter (and so which noise streams the data frames draw),
//! and the exposure the first data frame is taken at. Both are read off
//! the first captured frame's metadata: its `meta.index` is the number of
//! settle steps, and its `meta.exposure` the exposure the settle ended at.
//!
//! The links and their inputs are linkbench's at its default seed 7: the
//! four `sweep_fig9` grid points through `prepare_raw` at 3 kHz and capture
//! seed 7, the iPhone 5S 8-CSK point at capture seed 63 as well, and the
//! two decode links through `prepare_data`. A meter change that bends one
//! of these trajectories fails here. Links whose settle ends at the shutter
//! floor are pinned exactly; the one that ends above it gets a band.

use colorbars_camera::{CaptureConfig, DeviceProfile};
use colorbars_channel::OpticalChannel;
use colorbars_core::{CapturedRun, CskOrder, EqualizerKind, LinkConfig, LinkSimulator};

const RATE_HZ: f64 = 3000.0;

/// linkbench's sub-seed derivation: splitmix64 of `seed` and a salt.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn simulator(device: DeviceProfile, config: LinkConfig, capture_seed: u64) -> LinkSimulator {
    let capture = CaptureConfig {
        seed: capture_seed,
        ..CaptureConfig::default()
    };
    LinkSimulator::new(config, device, OpticalChannel::paper_setup(), capture).unwrap()
}

/// Run `capture_seed` of `sweep_fig9`'s grid point `point`: 0.4 s of raw
/// symbols.
fn sweep_run(point: u64, capture_seed: u64) -> CapturedRun {
    let (device, order, classifier) = match point {
        0 => (
            DeviceProfile::nexus5(),
            CskOrder::Csk8,
            EqualizerKind::NearestNeighbor,
        ),
        1 => (
            DeviceProfile::nexus5(),
            CskOrder::Csk32,
            EqualizerKind::Ridge,
        ),
        2 => (
            DeviceProfile::iphone5s(),
            CskOrder::Csk8,
            EqualizerKind::NearestNeighbor,
        ),
        _ => (
            DeviceProfile::iphone5s(),
            CskOrder::Csk32,
            EqualizerKind::Ridge,
        ),
    };
    let config =
        LinkConfig::paper_default(order, RATE_HZ, device.loss_ratio()).with_equalizer(classifier);
    let symbols = mix(7, 1000 * point + capture_seed);
    simulator(device, config, capture_seed)
        .prepare_raw(0.4, symbols)
        .unwrap()
}

/// Decode link `link` (0 for A, 1 for B). linkbench sends 10 s clips;
/// settling sees only the first 12 frame periods, so 0.5 s of the same
/// payload seed settles the same way.
fn decode_run(
    link: u64,
    device: DeviceProfile,
    config: LinkConfig,
    capture_seed: u64,
) -> CapturedRun {
    let sim = simulator(device, config, capture_seed);
    let payload = sim.random_payload(0.5, mix(7, 10 + link)).unwrap();
    sim.prepare_data(&payload).unwrap()
}

/// Settle steps and the exposure the data capture starts at.
fn settled(run: &CapturedRun) -> (usize, f64) {
    let first = &run.frames[0].meta;
    (first.index, first.exposure)
}

fn assert_at_floor(run: &CapturedRun, device: &DeviceProfile, steps: usize, link: &str) {
    let (index, exposure) = settled(run);
    assert_eq!(index, steps, "{link}: settle steps");
    assert_eq!(
        exposure, device.min_exposure,
        "{link}: exposure at the floor"
    );
}

#[test]
fn nexus5_sweep_links_settle_at_the_shutter_floor() {
    let nexus = DeviceProfile::nexus5();
    assert_at_floor(&sweep_run(0, 7), &nexus, 5, "Nexus 5 8-CSK");
    assert_at_floor(&sweep_run(1, 7), &nexus, 7, "Nexus 5 32-CSK");
}

#[test]
fn iphone5s_sweep_links_settle_where_they_did() {
    let iphone = DeviceProfile::iphone5s();
    assert_at_floor(&sweep_run(2, 7), &iphone, 9, "iPhone 5S 8-CSK");
    assert_at_floor(&sweep_run(3, 7), &iphone, 11, "iPhone 5S 32-CSK");

    // Above the floor, the exposure follows the exact metered luma. The
    // settle that rendered its preview frames ended at 87.27 µs; this one
    // is held to ±1% of that, clear of the 85 µs floor.
    let (steps, exposure) = settled(&sweep_run(2, 63));
    assert_eq!(steps, 7, "iPhone 5S 8-CSK, capture seed 63: settle steps");
    assert!(
        (86.40e-6..=88.15e-6).contains(&exposure),
        "iPhone 5S 8-CSK, capture seed 63: settled at {exposure:e} s"
    );
}

#[test]
fn decode_links_settle_at_their_floors() {
    let nexus = DeviceProfile::nexus5();
    let a = LinkConfig::paper_default(CskOrder::Csk8, RATE_HZ, nexus.loss_ratio());
    assert_at_floor(&decode_run(0, nexus.clone(), a, 177), &nexus, 7, "link A");

    let iphone = DeviceProfile::iphone5s();
    let b = LinkConfig::paper_default(CskOrder::Csk16, RATE_HZ, iphone.loss_ratio()).with_fec(8);
    assert_at_floor(&decode_run(1, iphone.clone(), b, 63), &iphone, 11, "link B");
}
