//! Wall-clock probe for the fast capture path, driven by
//! `scripts/bench.sh` to record the before/after trajectory in
//! `BENCH_2.json`.
//!
//! Unlike the criterion benches (`benches/capture.rs`), this bin needs no
//! bench harness: it times each component with `Instant`, compares the
//! optimized path against the retained reference path where one exists
//! (prefix-sum vs walking emitter integration, threshold-table vs `powf`
//! gamma encode, profile vs per-pixel vignetting, lane-kernel vs libm
//! Box–Muller normals, row-lane vs per-row noise streams, a frame's row
//! windows by slot walk vs per-row binary search, pooled vs fresh frame
//! buffers), times one full frame capture, and prints one JSON object. The
//! `*_speedup` ratios compare two paths timed in the same process, so host
//! drift cancels in them; the absolute times shift with the host's load
//! and compare only between back-to-back runs.
//!
//! It also breaks a few real Nexus 5 captures down by the camera's own
//! stage spans: each stage's share of `camera.capture_frame`, and
//! `capture_closure`, the stage shares' sum. The probe exits nonzero when
//! the closure leaves [`CLOSURE_BAND`], that is, when time inside a capture
//! goes unaccounted by its stages (or is counted twice). `--smoke` shrinks
//! every repetition count so CI can run it in seconds.

use colorbars_bench::{run_point, SweepMode};
use colorbars_camera::sensor::{fill_normals, fill_row_normals, gaussian_pair_reference};
use colorbars_camera::{
    AutoExposure, CameraRig, CaptureConfig, DeviceProfile, ExposureSettings, FramePool, Vignette,
};
use colorbars_channel::OpticalChannel;
use colorbars_color::Xyz;
use colorbars_color::{LinearRgb, Srgb, SrgbQuantizer};
use colorbars_core::CskOrder;
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

/// Median-of-runs wall time for `f`, in seconds.
fn time<F: FnMut()>(runs: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..runs.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median wall times of `a` and `b`, in seconds, over `runs` samples of
/// each taken alternately, so that drift in the host's speed reaches both
/// alike and cancels in their ratio.
fn time_pair<A: FnMut(), B: FnMut()>(runs: usize, mut a: A, mut b: B) -> (f64, f64) {
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    for _ in 0..runs.max(1) {
        ta.push(time(1, &mut a));
        tb.push(time(1, &mut b));
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    (median(ta), median(tb))
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
    let (reps, sweep_secs) = if smoke { (3, 0.15) } else { (9, 0.4) };
    let mut fields: Vec<(&str, Value)> = vec![("smoke", Value::from(smoke))];

    // Emitter integration: prefix-sum vs the retained walking reference,
    // over rolling-shutter-sized windows on a 1 s schedule.
    let emitter = long_schedule(3000);
    let windows: Vec<(f64, f64)> = (0..512)
        .map(|i| {
            let t0 = i as f64 * 1.95e-3;
            (t0, t0 + 60e-6)
        })
        .collect();
    let fast = time(reps, || {
        for &(t0, t1) in &windows {
            std::hint::black_box(emitter.integrate(t0, t1));
        }
    });
    let slow = time(reps, || {
        for &(t0, t1) in &windows {
            std::hint::black_box(emitter.integrate_reference(t0, t1));
        }
    });
    fields.push(("integrate_prefix_sum_s", Value::from(fast)));
    fields.push(("integrate_reference_s", Value::from(slow)));
    fields.push(("integrate_speedup", Value::from(slow / fast)));

    // Gamma encode: threshold-table quantizer vs powf encode.
    let quant = SrgbQuantizer::new();
    let pixels: Vec<LinearRgb> = (0..100_000)
        .map(|i| {
            let v = i as f64 / 100_000.0;
            LinearRgb::new(v, 1.0 - v, (v * 7.0).fract())
        })
        .collect();
    let fast = time(reps, || {
        for &px in &pixels {
            std::hint::black_box(quant.encode_pixel(px));
        }
    });
    let slow = time(reps, || {
        for &px in &pixels {
            std::hint::black_box(Srgb::encode(px).to_bytes());
        }
    });
    fields.push(("encode_quantizer_s", Value::from(fast)));
    fields.push(("encode_powf_s", Value::from(slow)));
    fields.push(("encode_speedup", Value::from(slow / fast)));

    // Vignetting: cached profiles vs the per-pixel radial formula,
    // at Nexus 5 frame dimensions.
    let v = Vignette::typical();
    let (h, w) = (3264usize, 24usize);
    let fast = time(reps, || {
        let (rows, cols) = v.profiles(h, w);
        let mut acc = 0.0;
        for row in &rows {
            for col in &cols {
                acc += row + col;
            }
        }
        std::hint::black_box(acc);
    });
    let slow = time(reps, || {
        let mut acc = 0.0;
        for r in 0..h {
            for c in 0..w {
                acc += v.factor(r, c, h, w);
            }
        }
        std::hint::black_box(acc);
    });
    fields.push(("vignette_profiles_s", Value::from(fast)));
    fields.push(("vignette_factor_s", Value::from(slow)));
    fields.push(("vignette_speedup", Value::from(slow / fast)));

    // Sensor noise: one Nexus 5 frame's normals, drawn row by row through
    // the lane kernels as the capture draws them, and through the libm
    // transform in the same pair order.
    let mut plane = vec![0.0f64; h * w];
    let fast = time(reps, || {
        let mut rng = StdRng::seed_from_u64(1);
        for row in plane.chunks_mut(w) {
            fill_normals(&mut rng, row);
        }
        std::hint::black_box(&plane);
    });
    let slow = time(reps, || {
        let mut rng = StdRng::seed_from_u64(1);
        for pair in plane.chunks_exact_mut(2) {
            (pair[0], pair[1]) = gaussian_pair_reference(&mut rng);
        }
        std::hint::black_box(&plane);
    });
    fields.push(("normals_s", Value::from(fast)));
    fields.push(("normals_reference_s", Value::from(slow)));
    fields.push(("normals_speedup", Value::from(slow / fast)));

    // The same frame's normals with every row on its own stream, as the
    // capture draws them: eight rows' streams in lanes against one row's
    // stream after another. These are cheap, so take more samples.
    let frame_reps = if smoke { 5 } else { 51 };
    let row_seed = |r: usize| 0x5EED_0000 ^ r as u64;
    let (mut by_lanes, mut by_rows) = (vec![0.0f64; h * w], vec![0.0f64; h * w]);
    let (lanes, per_row) = time_pair(
        frame_reps,
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
    fields.push(("row_normals_speedup", Value::from(per_row / lanes)));

    // One Nexus 5 frame's row windows on the 1 s schedule: each row's
    // boundary slots walked on from the previous row's, against a binary
    // search per row.
    let nexus5 = DeviceProfile::nexus5();
    let (row_time, exposure, start) = (nexus5.row_time(), 60e-6, 0.02);
    let (mut by_walk, mut by_search) =
        (vec![Xyz::BLACK; nexus5.rows], vec![Xyz::BLACK; nexus5.rows]);
    let (walked, searched) = time_pair(
        frame_reps,
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
    fields.push(("row_integrate_speedup", Value::from(searched / walked)));

    // Full frame at Nexus 5 row count. Every capture runs on its caller's
    // thread; the field keeps its name so the BENCH_2.json trajectory
    // stays comparable.
    let mut rig = CameraRig::new(
        DeviceProfile::nexus5(),
        OpticalChannel::paper_setup(),
        CaptureConfig::default(),
    );
    rig.set_exposure_controller(AutoExposure::locked(ExposureSettings {
        exposure: 60e-6,
        iso: 200.0,
    }));
    let capture_s = time(reps, || {
        std::hint::black_box(rig.capture_frame(&emitter, 0.02));
    });
    fields.push(("capture_frame_threads1_s", Value::from(capture_s)));

    // Steady-state pool pressure: the capture loop above warmed the global
    // arena, so further captures must recycle every buffer — any miss here
    // is a per-frame allocation the zero-allocation pipeline failed to
    // eliminate.
    let pool = FramePool::global();
    let (hits0, misses0) = (pool.hits(), pool.misses());
    for _ in 0..reps.max(2) {
        std::hint::black_box(rig.capture_frame(&emitter, 0.02));
    }
    fields.push(("pool_hits_steady", Value::from(pool.hits() - hits0)));
    fields.push(("pool_misses_steady", Value::from(pool.misses() - misses0)));

    // Where a capture's time goes, from the camera's own spans over a few
    // consecutive frames: each stage's share of `camera.capture_frame`, and
    // the closure, the shares' sum.
    obs::init(obs::ObsConfig::default());
    obs::reset();
    for k in 0..reps {
        let t = 0.02 + k as f64 * nexus5.frame_period();
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

    // One full operating point through the sweep pool.
    let point_s = time(1, || {
        std::hint::black_box(run_point(
            CskOrder::Csk8,
            3000.0,
            &nexus5,
            sweep_secs,
            SweepMode::Raw,
        ));
    });
    fields.push(("run_point_csk8_3khz_s", Value::from(point_s)));

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
