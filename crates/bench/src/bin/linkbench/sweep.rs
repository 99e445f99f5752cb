//! `sweep_fig9`: closed loop, sequential, one thread. The researcher's
//! path of fig9_ser / ext_highorder: {Nexus 5, iPhone 5S} × {8-CSK nearest
//! neighbor, 32-CSK ridge equalizer} at 3 kHz in raw mode, each run
//! transmitting, capturing and decoding 0.4 s of random symbols. Capture
//! dominates; there is no RS, and the equalizer trains and classifies.
//!
//! A pass runs every grid point over a fixed set of seeds; passes repeat
//! until the time is up, and each must reproduce the first pass's reports.

use crate::batch::set_no_session;
use crate::decode::{decode, set_capture_layers, set_receiver_layers, set_rs_layers, Quality};
use crate::links::{capture_raw, digest, mix, Link, RATE_HZ};
use crate::metrics::{median, normalized_rate, Outcome, Units};
use crate::reference::Reference;
use crate::trace::Trace;
use crate::Options;
use colorbars_camera::{DeviceProfile, FramePool};
use colorbars_core::{CskOrder, EqualizerKind, LinkConfig, ReceiverReport};
use std::time::{Duration, Instant};

/// A grid point: label, device, order, classifier.
type Point = (&'static str, fn() -> DeviceProfile, CskOrder, EqualizerKind);

const GRID: [Point; 4] = [
    (
        "nexus-8nn",
        DeviceProfile::nexus5,
        CskOrder::Csk8,
        EqualizerKind::NearestNeighbor,
    ),
    (
        "nexus-32ridge",
        DeviceProfile::nexus5,
        CskOrder::Csk32,
        EqualizerKind::Ridge,
    ),
    (
        "iphone-8nn",
        DeviceProfile::iphone5s,
        CskOrder::Csk8,
        EqualizerKind::NearestNeighbor,
    ),
    (
        "iphone-32ridge",
        DeviceProfile::iphone5s,
        CskOrder::Csk32,
        EqualizerKind::Ridge,
    ),
];

/// Capture seeds of each grid point's runs: the bench harness's standard
/// seeds, as fig9_ser and ext_highorder average over them. They fix the
/// channel realizations; the workload seed draws the symbols.
const CAPTURE_SEEDS: [u64; 4] = [7, 21, 63, 105];
/// Airtime of one run, seconds.
const RUN_S: f64 = 0.4;

fn grid_link(point: usize, capture_seed: u64) -> Result<Link, String> {
    let (label, device, order, classifier) = GRID[point];
    let device = device();
    let config =
        LinkConfig::paper_default(order, RATE_HZ, device.loss_ratio()).with_equalizer(classifier);
    Link::new(label, point as u64, device, config, capture_seed, true)
}

pub fn run(opts: &Options, trace: &mut Trace) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let seeds = if opts.smoke { 1 } else { CAPTURE_SEEDS.len() };
    // (grid point, capture seed, symbol seed) of every run of a pass.
    let plan: Vec<(usize, u64, u64)> = (0..GRID.len())
        .flat_map(|p| {
            CAPTURE_SEEDS[..seeds]
                .iter()
                .map(move |&c| (p, c, mix(opts.seed, 1000 * p as u64 + c)))
        })
        .collect();

    // Set-up: build each grid point's first link and capture its first
    // run, once through `prepare_raw` and then through the outside copy,
    // which must give identical frames; then decode once to warm caches.
    let mut times = Vec::new();
    let mut first_digests: Vec<Vec<u64>> = Vec::new();
    let mut warm = Vec::new();
    for rep in 0..opts.setup_reps() {
        warm.clear();
        let span = trace.open("setup", rep, None);
        let t0 = Instant::now();
        for (p, &(_, capture, symbols)) in plan.iter().step_by(seeds).enumerate() {
            let link = grid_link(p, capture)?;
            let run = capture_raw(&link, RUN_S, symbols, rep > 0, trace, span)?;
            warm.push((link, run));
        }
        times.push(t0.elapsed().as_secs_f64());
        trace.close(span);
        for (p, (link, run)) in warm.iter().enumerate() {
            let d = digest(&run.frames);
            match first_digests.get(p) {
                None => first_digests.push(d),
                Some(first) if *first != d => out.fail(
                    1,
                    format!(
                        "set-up {rep}: {} frames differ from prepare_raw's",
                        link.label
                    ),
                ),
                Some(_) => {}
            }
        }
    }
    for (link, run) in &warm {
        decode(link, run, None)?;
    }
    drop(warm);

    let pool = FramePool::global();
    let mut misses = pool.misses();
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut quality = Quality::default();
    let mut first: Vec<Option<ReceiverReport>> = Vec::new();
    let kernel = Reference::default();
    let mut units = Units::default();
    let mut frames = 0usize;
    let mut frame_ms = vec![Vec::new(); GRID.len()];
    let mut pass = 0u64;
    // In a traced run, odd passes capture through the outside copy and are
    // traced; even passes stay untraced.
    while pass < 2 || Instant::now() < deadline {
        let traced = trace.enabled() && pass % 2 == 1;
        // Each run is a unit, with the reference kernel after it.
        let mut rep = Vec::new();
        for (r, &(p, capture, symbols)) in plan.iter().enumerate() {
            out.attempted += 1;
            let span = if traced {
                trace.open("run", r as u64, None)
            } else {
                None
            };
            let t0 = Instant::now();
            let outcome = grid_link(p, capture).and_then(|link| {
                let run = capture_raw(&link, RUN_S, symbols, traced, trace, span)?;
                let d = decode(&link, &run, traced.then_some((&mut *trace, span)))?;
                Ok((link, run, d))
            });
            let seconds = t0.elapsed().as_secs_f64();
            trace.close(span);
            if !traced {
                rep.push((seconds, kernel.time()));
            }
            let (link, run, d) = match outcome {
                Ok(x) => x,
                Err(e) => {
                    out.fail(1, format!("pass {pass} run {r}: {e}"));
                    if pass == 0 {
                        first.push(None);
                    }
                    continue;
                }
            };
            if pass == 0 {
                frames += run.frames.len();
                quality.add(&d.metrics, &run, true);
                first.push(Some(d.metrics.report));
            } else if first[r].as_ref() != Some(&d.metrics.report) {
                out.fail(
                    1,
                    format!("pass {pass}: {} run {r} differs from pass 0", link.label),
                );
            }
            if !traced {
                frame_ms[p].extend(d.frame_ms);
            }
        }
        if !traced {
            units.push_rep(&rep);
        }
        if pass == 0 {
            misses = pool.misses();
        }
        pass += 1;
    }
    eprintln!("sweep_fig9: {pass} passes of {} runs", plan.len());

    out.set("setup_s", median(&times));
    out.set("frames_per_s", normalized_rate(frames, &[units]));
    out.set("goodput_bps", quality.goodput_mean());
    out.set("packet_delivery", quality.delivery());

    out.set("camera.pool_misses_steady", (pool.misses() - misses) as f64);
    set_capture_layers(trace, &mut out);
    set_receiver_layers(trace, &frame_ms, &mut out);
    quality.set_layers(&mut out);
    let links = (0..GRID.len())
        .map(|p| grid_link(p, CAPTURE_SEEDS[0]))
        .collect::<Result<Vec<_>, _>>()?;
    let passes: Vec<_> = links
        .iter()
        .zip(quality.stats.iter().step_by(seeds))
        .collect();
    set_rs_layers(&passes, &mut out)?;
    set_no_session(&mut out);
    Ok(out)
}
