//! Wall-clock probe for the fast capture path, driven by
//! `scripts/bench.sh` to record the before/after trajectory in
//! `BENCH_2.json`.
//!
//! Unlike the criterion benches (`benches/capture.rs`), this bin needs no
//! bench harness: it times each component with `Instant`, compares the
//! optimized path against the retained reference path where one exists
//! (prefix-sum vs walking emitter integration, threshold-table vs `powf`
//! gamma encode, profile vs per-pixel vignetting, lane-kernel vs libm
//! Box–Muller normals, pooled vs fresh frame buffers), times one full
//! frame capture, and prints one JSON object. `--smoke` shrinks every
//! repetition count so CI can run it in seconds.

use colorbars_bench::{run_point, SweepMode};
use colorbars_camera::sensor::{fill_normals, gaussian_pair_reference};
use colorbars_camera::{
    AutoExposure, CameraRig, CaptureConfig, DeviceProfile, ExposureSettings, FramePool, Vignette,
};
use colorbars_channel::OpticalChannel;
use colorbars_color::{LinearRgb, Srgb, SrgbQuantizer};
use colorbars_core::CskOrder;
use colorbars_led::{DriveLevels, LedEmitter, ScheduledColor, TriLed};
use colorbars_obs::Value;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

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

fn main() {
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

    // One full operating point through the sweep pool.
    let device = DeviceProfile::nexus5();
    let point_s = time(1, || {
        std::hint::black_box(run_point(
            CskOrder::Csk8,
            3000.0,
            &device,
            sweep_secs,
            SweepMode::Raw,
        ));
    });
    fields.push(("run_point_csk8_3khz_s", Value::from(point_s)));

    println!("{}", Value::object(fields).to_compact());
}
