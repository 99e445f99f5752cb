//! Wall-clock probe of the capture path, driven by `scripts/bench.sh` to
//! record its report in `BENCH_2.json`.
//!
//! Every number it prints divides two times taken in this process, so a
//! host's speed cancels as far as it slows both sides alike:
//!
//! * six `*_speedup` ratios, each an optimized capture component against
//!   the reference path it replaced: prefix-sum vs walking emitter
//!   integration over the Fig 3(b) observer panel's critical-duration
//!   windows, threshold-table vs `powf` gamma encode, profile vs per-pixel
//!   vignetting, lane-kernel vs libm Box–Muller normals, row-lane vs
//!   per-row noise streams, and a frame's row windows by slot walk vs
//!   per-row binary search. Samples of the two sides alternate, so drift
//!   in the host's speed reaches both alike. Code generation does not
//!   cancel: a change that compiles either side differently moves its
//!   ratio. Nor does contention for a resource only one side is bound by:
//!   `vignette_speedup`'s profile side writes a frame-sized plane while
//!   its reference computes, and it spreads most between runs of one
//!   build;
//! * where a real Nexus 5 capture's time goes, from the camera's own stage
//!   spans: each stage's share of `camera.capture_frame`, and
//!   `capture_closure`, the shares' sum. The probe exits nonzero when the
//!   closure leaves [`CLOSURE_BAND`], that is, when time inside a capture
//!   goes unaccounted by its stages (or is counted twice).
//!
//! Absolute per-frame and per-run times belong to linkbench: its end-to-end
//! rates at reference host speed and the per-layer times of its traced
//! runs. README's benchmark section names the one instrument that owns
//! each timed fact. `--smoke` shrinks the sample count so CI can run the
//! probe in seconds.

use colorbars_camera::sensor::{fill_normals, fill_row_normals, gaussian_pair_reference};
use colorbars_camera::{
    AutoExposure, CameraRig, CaptureConfig, DeviceProfile, ExposureSettings, Vignette,
};
use colorbars_channel::OpticalChannel;
use colorbars_color::Xyz;
use colorbars_color::{LinearRgb, Srgb, SrgbQuantizer};
use colorbars_flicker::{perceived_windows, ObserverPanel};
use colorbars_led::{DriveLevels, LedEmitter, ScheduledColor, TriLed};
use colorbars_obs::{self as obs, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;
use std::time::Instant;

/// The capture's stage spans, in pipeline order, and the report field of
/// each one's share of `camera.capture_frame`.
const CAPTURE_STAGES: [(&str, &str); 4] = [
    ("camera.rows_integrate", "share_rows_integrate"),
    ("channel.blur_rows", "share_blur_rows"),
    ("camera.mosaic", "share_mosaic"),
    ("camera.encode", "share_encode"),
];

/// The range `capture_closure` must fall in: the stage spans cover a
/// capture's time to within 5%.
const CLOSURE_BAND: std::ops::RangeInclusive<f64> = 0.95..=1.05;

/// How many times faster `fast` runs than `reference`: the ratio of their
/// median wall times over `runs` samples of each, taken alternately.
fn speedup<A: FnMut(), B: FnMut()>(runs: usize, mut fast: A, mut reference: B) -> f64 {
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    for _ in 0..runs.max(1) {
        ta.push(sample(&mut fast));
        tb.push(sample(&mut reference));
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    median(tb) / median(ta)
}

/// One wall-clock sample of `f`. Never inlined, so each timed body is
/// compiled into its own copy of this function, whatever code surrounds
/// the call.
#[inline(never)]
fn sample<F: FnMut()>(f: &mut F) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// The long irregular schedule `run_raw` would feed the emitter at 3 kHz.
fn long_schedule(symbols: usize) -> LedEmitter {
    let mut schedule = Vec::new();
    let mut state = 0x1234_5678_u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % 1000) as f64 / 1000.0
    };
    for _ in 0..symbols {
        let (r, g) = (next(), next());
        schedule.push(ScheduledColor {
            drive: DriveLevels::new(r, g, 0.5),
            duration: 1.0 / 3000.0,
        });
    }
    LedEmitter::new(TriLed::typical(), 200_000.0, &schedule)
}

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reps = if smoke { 5 } else { 51 };
    let mut fields: Vec<(&str, Value)> = vec![("smoke", Value::from(smoke))];

    // Emitter integration: prefix-sum vs the retained walking reference,
    // on a 1 s schedule, over the 733 windows the Fig 3(b) observer panel
    // integrates: each member's critical duration (40–100 ms, 120–301
    // slots at 3 kHz) slid a fifth of itself at a time, as
    // `Observer::max_excursion` slides it. These are the multi-slot
    // windows `integrate` serves; a capture's row windows go through
    // `row_means`, timed below.
    let emitter = long_schedule(3000);
    let windows: Vec<(f64, f64)> = ObserverPanel::fig3b_volunteers()
        .members()
        .iter()
        .flat_map(|o| {
            let cd = o.critical_duration;
            perceived_windows(&emitter, cd, cd / 5.0)
                .into_iter()
                .map(move |w| (w.start, w.start + cd))
        })
        .collect();
    let ratio = speedup(
        reps,
        || {
            for &(t0, t1) in &windows {
                std::hint::black_box(emitter.integrate(t0, t1));
            }
        },
        || {
            for &(t0, t1) in &windows {
                std::hint::black_box(emitter.integrate_reference(t0, t1));
            }
        },
    );
    fields.push(("integrate_speedup", Value::from(ratio)));

    // Gamma encode: threshold-table quantizer vs powf encode.
    let quant = SrgbQuantizer::new();
    let pixels: Vec<LinearRgb> = (0..100_000)
        .map(|i| {
            let v = i as f64 / 100_000.0;
            LinearRgb::new(v, 1.0 - v, (v * 7.0).fract())
        })
        .collect();
    let ratio = speedup(
        reps,
        || {
            for &px in &pixels {
                std::hint::black_box(quant.encode_pixel(px));
            }
        },
        || {
            for &px in &pixels {
                std::hint::black_box(Srgb::encode(px).to_bytes());
            }
        },
    );
    fields.push(("encode_speedup", Value::from(ratio)));

    // Vignetting: cached profiles vs the per-pixel radial formula, one
    // factor per photosite of a Nexus 5 frame, written out as the mosaic
    // loop consumes them. Not summed: one accumulator's serial adds take
    // as long as either path and would hide the difference.
    let nexus5 = DeviceProfile::nexus5();
    let v = Vignette::typical();
    let (h, w) = (nexus5.rows, 24usize);
    let (mut by_profiles, mut by_factor) = (vec![0.0f64; h * w], vec![0.0f64; h * w]);
    let ratio = speedup(
        reps,
        || {
            let (rows, cols) = v.profiles(h, w);
            for (out, row) in by_profiles.chunks_mut(w).zip(&rows) {
                for (o, col) in out.iter_mut().zip(&cols) {
                    *o = row + col;
                }
            }
            std::hint::black_box(&by_profiles);
        },
        || {
            for (r, out) in by_factor.chunks_mut(w).enumerate() {
                for (c, o) in out.iter_mut().enumerate() {
                    *o = v.factor(r, c, h, w);
                }
            }
            std::hint::black_box(&by_factor);
        },
    );
    fields.push(("vignette_speedup", Value::from(ratio)));

    // Sensor noise: one Nexus 5 frame's normals, drawn row by row through
    // the lane kernels, and through the libm transform in the same pair
    // order.
    let (mut by_kernels, mut by_libm) = (vec![0.0f64; h * w], vec![0.0f64; h * w]);
    let ratio = speedup(
        reps,
        || {
            let mut rng = StdRng::seed_from_u64(1);
            for row in by_kernels.chunks_mut(w) {
                fill_normals(&mut rng, row);
            }
            std::hint::black_box(&by_kernels);
        },
        || {
            let mut rng = StdRng::seed_from_u64(1);
            for pair in by_libm.chunks_exact_mut(2) {
                (pair[0], pair[1]) = gaussian_pair_reference(&mut rng);
            }
            std::hint::black_box(&by_libm);
        },
    );
    fields.push(("normals_speedup", Value::from(ratio)));

    // The same frame's normals with every row on its own stream, as the
    // capture draws them: eight rows' streams in lanes against one row's
    // stream after another.
    let row_seed = |r: usize| 0x5EED_0000 ^ r as u64;
    let (mut by_lanes, mut by_rows) = (vec![0.0f64; h * w], vec![0.0f64; h * w]);
    let ratio = speedup(
        reps,
        || {
            fill_row_normals(&mut by_lanes, w, row_seed);
            std::hint::black_box(&by_lanes);
        },
        || {
            for (r, row) in by_rows.chunks_mut(w).enumerate() {
                fill_normals(&mut StdRng::seed_from_u64(row_seed(r)), row);
            }
            std::hint::black_box(&by_rows);
        },
    );
    fields.push(("row_normals_speedup", Value::from(ratio)));

    // One Nexus 5 frame's row windows on the 1 s schedule: each row's
    // boundary slots walked on from the previous row's, against a binary
    // search per row.
    let (row_time, exposure, start) = (nexus5.row_time(), 60e-6, 0.02);
    let (mut by_walk, mut by_search) =
        (vec![Xyz::BLACK; nexus5.rows], vec![Xyz::BLACK; nexus5.rows]);
    let ratio = speedup(
        reps,
        || {
            let windows = emitter.row_means(start, row_time, exposure);
            for (out, mean) in by_walk.iter_mut().zip(windows) {
                *out = mean;
            }
            std::hint::black_box(&by_walk);
        },
        || {
            for (r, out) in by_search.iter_mut().enumerate() {
                let t0 = start + r as f64 * row_time;
                *out = emitter.mean(t0, t0 + exposure);
            }
            std::hint::black_box(&by_search);
        },
    );
    fields.push(("row_integrate_speedup", Value::from(ratio)));

    // Where a capture's time goes, from the camera's own spans over
    // consecutive Nexus 5 frames inside the schedule (a frame past its end
    // would integrate nothing): each stage's share of
    // `camera.capture_frame`, and the closure, the shares' sum. One capture
    // runs first, untraced, so the frame pool's buffers and the rig's
    // vignetting profiles exist before the spans record.
    let mut rig = CameraRig::new(
        nexus5.clone(),
        OpticalChannel::paper_setup(),
        CaptureConfig::default(),
    );
    rig.set_exposure_controller(AutoExposure::locked(ExposureSettings {
        exposure,
        iso: 200.0,
    }));
    std::hint::black_box(rig.capture_frame(&emitter, start));
    obs::init(obs::ObsConfig::default());
    obs::reset();
    let frames = ((emitter.duration() - start) / nexus5.frame_period()) as usize;
    for k in 0..reps.min(frames) {
        let t = start + k as f64 * nexus5.frame_period();
        std::hint::black_box(rig.capture_frame(&emitter, t));
    }
    let spans = obs::snapshot().histograms;
    obs::disable();
    let span_ms = |name: &str| {
        spans
            .iter()
            .find(|h| h.id.name == name)
            .map_or(0.0, |h| h.sum_ms)
    };
    let frame_ms = span_ms("camera.capture_frame");
    let mut closure = 0.0;
    for (span, field) in CAPTURE_STAGES {
        let share = span_ms(span) / frame_ms;
        closure += share;
        fields.push((field, Value::from(share)));
    }
    fields.push(("capture_closure", Value::from(closure)));

    println!("{}", Value::object(fields).to_compact());
    if !CLOSURE_BAND.contains(&closure) {
        eprintln!(
            "perf_probe: capture_closure {closure:.3} is outside [{}, {}]: the stage spans \
             do not account for camera.capture_frame's time",
            CLOSURE_BAND.start(),
            CLOSURE_BAND.end()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
