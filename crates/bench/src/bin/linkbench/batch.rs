//! `decode_batch`: closed loop, one thread, no session. The paper's offline
//! decode flow: each round decodes link A's clip then link B's, each
//! through a fresh `Receiver` (`process_frame` per frame, `finish`,
//! `score`). Capture happens in set-up, so the timed part is pure decode.

use crate::decode::{
    decode, decode_units, set_capture_layers, set_receiver_layers, set_rs_layers, Quality,
};
use crate::links::{capture_clip, decode_links, digest, mix, Link};
use crate::metrics::{median, normalized_rate, Outcome, Units};
use crate::reference::Reference;
use crate::trace::Trace;
use crate::Options;
use colorbars_camera::FramePool;
use colorbars_core::CapturedRun;
use std::time::{Duration, Instant};

/// Airtime of each decode clip, seconds (325 frames of A, 333 of B).
const CLIP_S: f64 = 10.0;
const SMOKE_CLIP_S: f64 = 1.0;

/// Both decode links with their captured clips.
pub struct Clips {
    pub links: [Link; 2],
    pub runs: Vec<CapturedRun>,
    /// Median wall time of one set-up repetition, seconds.
    pub setup_s: f64,
}

/// Build both links and capture their clips, `opts.setup_reps()` times.
/// Repetition 0 captures through `LinkSimulator::prepare_data`, the others
/// through the outside copy; every repetition must give identical frames.
pub fn setup_clips(opts: &Options, trace: &mut Trace, out: &mut Outcome) -> Result<Clips, String> {
    let airtime = if opts.smoke { SMOKE_CLIP_S } else { CLIP_S };
    let mut times = Vec::new();
    let mut first_digests: Option<Vec<Vec<u64>>> = None;
    let mut last = None;
    for rep in 0..opts.setup_reps() {
        // Free the previous repetition's frames before capturing again.
        drop(last.take());
        let span = trace.open("setup", rep, None);
        let t0 = Instant::now();
        let links = decode_links()?;
        let mut runs = Vec::new();
        for (i, link) in links.iter().enumerate() {
            let payload_seed = mix(opts.seed, 10 + i as u64);
            runs.push(capture_clip(
                link,
                airtime,
                payload_seed,
                rep > 0,
                trace,
                span,
            )?);
        }
        times.push(t0.elapsed().as_secs_f64());
        trace.close(span);
        let digests: Vec<Vec<u64>> = runs.iter().map(|r| digest(&r.frames)).collect();
        match &first_digests {
            None => first_digests = Some(digests),
            Some(first) => {
                for (i, (a, b)) in first.iter().zip(&digests).enumerate() {
                    if a != b {
                        out.fail(
                            b.len() as u64,
                            format!(
                                "set-up {rep}: link {} frames differ from prepare_data's",
                                links[i].label
                            ),
                        );
                    }
                }
            }
        }
        last = Some((links, runs));
    }
    let (links, runs) = last.ok_or("no set-up repetition ran")?;
    Ok(Clips {
        links,
        runs,
        setup_s: median(&times),
    })
}

pub fn run(opts: &Options, trace: &mut Trace) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let clips = setup_clips(opts, trace, &mut out)?;

    // Round 0 warms the receiver's caches, and its reports are the
    // reference every later round must reproduce.
    let mut quality = Quality::default();
    let mut reference = Vec::new();
    for (link, run) in clips.links.iter().zip(&clips.runs) {
        let d = decode(link, run, None)?;
        quality.add(&d.metrics, run, false);
        reference.push(d.metrics.report);
    }

    let pool = FramePool::global();
    let misses = pool.misses();
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let kernel = Reference::default();
    let mut units = vec![Units::default(); clips.links.len()];
    let mut frame_ms = vec![Vec::new(); clips.links.len()];
    let mut round = 0u64;
    // In a traced run, odd rounds are traced and even rounds stay untraced,
    // so the two can be compared.
    while round < 2 || Instant::now() < deadline {
        let traced = trace.enabled() && round % 2 == 1;
        let span = if traced {
            trace.open("round", round, None)
        } else {
            None
        };
        for (i, (link, run)) in clips.links.iter().zip(&clips.runs).enumerate() {
            let n = run.frames.len();
            out.attempted += n as u64;
            let d = if traced {
                decode(link, run, Some((&mut *trace, span)))
            } else {
                decode_units(link, run, &kernel)
            };
            let d = match d {
                Ok(d) => d,
                Err(e) => {
                    out.fail(n as u64, format!("round {round}: {e}"));
                    continue;
                }
            };
            if d.metrics.report != reference[i] {
                out.fail(
                    n as u64,
                    format!(
                        "round {round}: link {} report differs from round 0",
                        link.label
                    ),
                );
            }
            if !traced {
                units[i].push_rep(&d.units);
                frame_ms[i].extend(d.frame_ms);
            }
        }
        trace.close(span);
        round += 1;
    }
    eprintln!("decode_batch: {round} rounds");

    out.set("setup_s", clips.setup_s);
    let frames = clips.runs.iter().map(|r| r.frames.len()).sum();
    out.set("frames_per_s", normalized_rate(frames, &units));
    out.set("goodput_bps", quality.goodput_sum());
    out.set("packet_delivery", quality.delivery());

    out.set("camera.pool_misses_steady", (pool.misses() - misses) as f64);
    set_capture_layers(trace, &mut out);
    set_receiver_layers(trace, &frame_ms, &mut out);
    quality.set_layers(&mut out);
    let passes: Vec<_> = clips.links.iter().zip(&quality.stats).collect();
    set_rs_layers(&passes, &mut out)?;
    set_no_session(&mut out);
    Ok(out)
}

/// The session-path metrics of a workload that runs no session.
pub fn set_no_session(out: &mut Outcome) {
    for name in [
        "session.latency_p50",
        "session.latency_p99",
        "session.queue_wait_p50",
        "session.queue_wait_p99",
        "session.service_p50",
        "session.push_blocked",
        "bench.generator_lag_p99",
    ] {
        out.set(name, 0.0);
    }
}
