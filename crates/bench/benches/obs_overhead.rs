//! Overhead of the observability layer on the hot path.
//!
//! The `colorbars-obs` spans and counters are compiled into the
//! transmitter, receiver, and link simulator unconditionally; the contract
//! (DESIGN.md §7) is that a *disabled* collector costs less than 2% on an
//! end-to-end `LinkSimulator` run — a single relaxed atomic load per
//! instrumentation site. This bench measures three configurations on the
//! same tiny simulation:
//!
//! * `disabled` — obs never initialised (the default for library users),
//! * `enabled`  — spans/counters recorded into the in-memory registry,
//! * `enabled+trace` — as `enabled`, with the per-thread span timeline
//!   buffers recording too (a trace destination is configured),
//!
//! and prints the relative cost so the <2% disabled-overhead budget can be
//! checked in CI output.
//!
//! The `registry_write` group measures the live-telemetry plane's
//! per-write cost (counter increment, latency histogram record) in both
//! states. The disabled path of every live
//! instrument is contractually a single relaxed atomic load — the group
//! asserts the no-op behaviorally (no state changes) and prints the
//! disabled-vs-enabled timing so the claim is auditable in CI output.
//!
//! The `journey_record` group extends the same contract to packet-journey
//! provenance (DESIGN.md §14): with journeys disabled, every recording
//! entry point is one relaxed atomic load of the journey enable flag (the
//! bench asserts behaviorally that nothing lands in the ring and the
//! end-to-end `link_run_data/journeys_off` case shows the decode pipeline
//! paying no more than the disabled-obs baseline); enabled, the cost of a
//! full record (bands clone + ring push) is printed for comparison.

use colorbars_camera::{CaptureConfig, DeviceProfile, Vignette};
use colorbars_channel::OpticalChannel;
use colorbars_core::{CskOrder, LinkConfig, LinkSimulator, Transmitter};
use colorbars_obs as obs;
use colorbars_obs::live::Registry;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn tiny_sim() -> LinkSimulator {
    let mut device = DeviceProfile::ideal();
    device.rows = 512;
    let capture = CaptureConfig {
        roi_width: 8,
        vignette: Vignette::none(),
        seed: 42,
        ..Default::default()
    };
    let config = LinkConfig::paper_default(CskOrder::Csk8, 1000.0, device.loss_ratio());
    LinkSimulator::new(config, device, OpticalChannel::ideal(), capture).unwrap()
}

fn run_once(sim: &LinkSimulator, data: &[u8]) -> f64 {
    sim.run_data(black_box(data)).unwrap().airtime
}

fn obs_overhead(c: &mut Criterion) {
    let sim = tiny_sim();
    let plan = Transmitter::new(sim.config().clone()).unwrap();
    let data: Vec<u8> = (0..plan.budget().k_bytes as u8).collect();

    let mut g = c.benchmark_group("obs_overhead");
    g.sample_size(30);

    obs::disable();
    obs::reset();
    g.bench_function("link_run_data/disabled", |b| {
        b.iter(|| run_once(&sim, &data))
    });

    // Same fully-disabled collector, measured with the journey gate spelled
    // out: every journey site in the tx/rx pipeline must reduce to its one
    // relaxed `journey::is_active()` load, so this case must be
    // indistinguishable from `disabled` above.
    obs::journey::set_enabled(false);
    g.bench_function("link_run_data/journeys_off", |b| {
        b.iter(|| run_once(&sim, &data))
    });
    let (recorded, dropped, retained) = obs::journey::stats();
    assert_eq!(
        (recorded, dropped, retained),
        (0, 0, 0),
        "disabled journey recording must be a no-op"
    );

    obs::init(obs::ObsConfig::default());
    g.bench_function("link_run_data/enabled", |b| {
        b.iter(|| run_once(&sim, &data))
    });

    // With the span timeline recording as well (trace destination set; the
    // file is only written on `flush`, so the bench measures recording).
    let trace_path = std::env::temp_dir().join("colorbars_obs_overhead_trace.json");
    obs::reset();
    obs::init(obs::ObsConfig {
        trace_path: Some(trace_path.display().to_string()),
        ..obs::ObsConfig::default()
    });
    obs::trace::register_thread("bench");
    g.bench_function("link_run_data/enabled+trace", |b| {
        b.iter(|| run_once(&sim, &data))
    });
    obs::disable();
    obs::reset();
    let _ = std::fs::remove_file(&trace_path);

    g.finish();
}

fn registry_writes(c: &mut Criterion) {
    let registry = Registry::new();
    let counter = registry.counter("bench.live.counter", &[("session", "0")]);
    let hist = registry.histogram_ms("bench.live.hist", &[("session", "0")]);

    let mut g = c.benchmark_group("registry_write");

    obs::disable();
    g.bench_function("counter_inc/disabled", |b| b.iter(|| counter.inc()));
    g.bench_function("histogram_record/disabled", |b| {
        b.iter(|| hist.record_ms(black_box(1.5)))
    });
    // The disabled path is one relaxed load of the global enable flag and
    // nothing else: millions of benchmark iterations must leave every
    // instrument untouched.
    assert_eq!(counter.get(), 0, "disabled counter write must be a no-op");
    assert_eq!(hist.count(), 0, "disabled histogram record must be a no-op");

    obs::init(obs::ObsConfig::default());
    g.bench_function("counter_inc/enabled", |b| b.iter(|| counter.inc()));
    g.bench_function("histogram_record/enabled", |b| {
        b.iter(|| hist.record_ms(black_box(1.5)))
    });
    assert!(counter.get() > 0, "enabled counter writes must land");
    assert!(hist.count() > 0, "enabled histogram records must land");
    obs::disable();
    obs::reset();

    g.finish();
}

fn journey_records(c: &mut Criterion) {
    let make = || obs::journey::JourneyRecord {
        id: 0,
        namespace: String::new(),
        stage: "rx.data".to_string(),
        verdict: "ok".to_string(),
        frames: vec![1, 2],
        bands: vec![
            obs::journey::BandRecord {
                label: obs::journey::LABEL_COLOR,
                color_idx: 3,
                nn_idx: 3,
                l: 50.0,
                a: 10.0,
                b: -20.0,
                frame_index: 1,
            };
            32
        ],
        fields: obs::Value::Null,
    };

    let mut g = c.benchmark_group("journey_record");

    obs::journey::set_enabled(false);
    obs::journey::reset();
    // Disabled: `record` bails on the relaxed `is_active` load before
    // touching the ring (the caller-side band clone dominates here, which
    // is why instrumented code guards the clone on `is_active` too).
    g.bench_function("record/disabled", |b| {
        b.iter(|| obs::journey::record(black_box(make())))
    });
    g.bench_function("is_active/disabled", |b| b.iter(obs::journey::is_active));
    assert_eq!(
        obs::journey::stats(),
        (0, 0, 0),
        "disabled journey record must leave the ring untouched"
    );

    obs::journey::set_enabled(true);
    g.bench_function("record/enabled", |b| {
        b.iter(|| obs::journey::record(black_box(make())))
    });
    let (recorded, _, retained) = obs::journey::stats();
    assert!(recorded > 0 && retained > 0, "enabled records must land");
    obs::journey::set_enabled(false);
    obs::journey::reset();

    g.finish();
}

criterion_group!(benches, obs_overhead, registry_writes, journey_records);
criterion_main!(benches);
