//! Criterion benches for the fast capture path: prefix-sum emitter
//! integration and one full operating point. `scripts/bench.sh` records
//! the same quantities, and a full frame capture, with a plain wall-clock
//! probe (`perf_probe`) into `BENCH_2.json`; these benches are the
//! statistically careful version for local iteration.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// A long irregular drive schedule — the shape `run_raw` feeds the emitter
/// at 3 kHz symbols.
fn long_schedule() -> colorbars_led::LedEmitter {
    use colorbars_led::{DriveLevels, LedEmitter, ScheduledColor, TriLed};
    let mut schedule = Vec::new();
    let mut state = 0x1234_5678_u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % 1000) as f64 / 1000.0
    };
    for _ in 0..3000 {
        let (r, g) = (next(), next());
        schedule.push(ScheduledColor {
            drive: DriveLevels::new(r, g, 0.5),
            duration: 1.0 / 3000.0,
        });
    }
    LedEmitter::new(TriLed::typical(), 200_000.0, &schedule)
}

fn emitter_integrate(c: &mut Criterion) {
    let emitter = long_schedule();
    // Short exposure windows scattered across the schedule, like the
    // rolling shutter's per-row windows.
    let windows: Vec<(f64, f64)> = (0..256)
        .map(|i| {
            let t0 = i as f64 * 3.9e-3;
            (t0, t0 + 60e-6)
        })
        .collect();

    let mut g = c.benchmark_group("emitter");
    g.bench_function("integrate_prefix_sum_256_windows", |b| {
        b.iter(|| {
            for &(t0, t1) in black_box(&windows) {
                black_box(emitter.integrate(t0, t1));
            }
        })
    });
    g.bench_function("integrate_reference_256_windows", |b| {
        b.iter(|| {
            for &(t0, t1) in black_box(&windows) {
                black_box(emitter.integrate_reference(t0, t1));
            }
        })
    });
    g.finish();
}

fn operating_point(c: &mut Criterion) {
    use colorbars_bench::{run_point, SweepMode};
    use colorbars_camera::DeviceProfile;
    use colorbars_core::CskOrder;

    let device = DeviceProfile::nexus5();
    let mut g = c.benchmark_group("sweep");
    g.sample_size(10);
    g.bench_function("run_point_csk8_3khz_0.3s", |b| {
        b.iter(|| {
            run_point(
                black_box(CskOrder::Csk8),
                3000.0,
                &device,
                0.3,
                SweepMode::Raw,
            )
        })
    });
    g.finish();
}

criterion_group!(benches, emitter_integrate, operating_point);
criterion_main!(benches);
