//! A [`LinkSession`] worker records packet journeys under its session
//! label, so a fleet's journeys and flight dumps attribute every record to
//! the session that decoded it.
//!
//! A test binary of its own: the journey ring is process-global, and
//! decodes in other tests would add records to it while journeys are on.

use colorbars_camera::{CaptureConfig, DeviceProfile, Vignette};
use colorbars_channel::OpticalChannel;
use colorbars_core::{CskOrder, LinkConfig, LinkSession, LinkSimulator, SessionConfig};
use colorbars_obs::journey;
use std::collections::BTreeSet;

#[test]
fn session_workers_namespace_their_journeys() {
    let mut device = DeviceProfile::ideal();
    device.rows = 512;
    let capture = CaptureConfig {
        roi_width: 8,
        vignette: Vignette::none(),
        seed: 7,
        threads: 1,
        ..Default::default()
    };
    let config = LinkConfig::paper_default(CskOrder::Csk8, 1000.0, device.loss_ratio());
    let sim = LinkSimulator::new(config, device, OpticalChannel::ideal(), capture).unwrap();
    let data: Vec<u8> = (0..64u8).collect();
    // Transmit before journeys go on: only the sessions' receive-side
    // records may reach the ring.
    let run = sim.prepare_data(&data).unwrap();

    let labels = ["left", "right"];
    journey::reset();
    journey::set_enabled(true);
    let sessions: Vec<LinkSession> = labels
        .iter()
        .map(|&label| LinkSession::spawn(sim.receiver().unwrap(), SessionConfig::unobserved(label)))
        .collect();
    for frame in &run.frames {
        for session in &sessions {
            session.push_frame(frame.clone());
        }
    }
    for session in sessions {
        session.finish();
    }
    journey::set_enabled(false);
    let records = journey::snapshot();
    journey::reset();

    let namespaces: BTreeSet<&str> = records.iter().map(|r| r.namespace.as_str()).collect();
    assert_eq!(
        namespaces,
        BTreeSet::from(labels),
        "every journey carries one of the two session labels, and both appear"
    );
}
