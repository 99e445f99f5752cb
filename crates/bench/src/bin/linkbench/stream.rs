//! `stream_realtime`: the deployment path through `LinkSession`. An open
//! loop first: one generator thread releases the decode clips at camera
//! rate, 30 fps per link, into two unobserved sessions, link B half a frame
//! period after link A. When a session has decoded a whole clip it is
//! finished and a fresh one takes the clip from the start. Then a closed
//! loop measures the sessions' saturated rate.
//!
//! Frame latency runs from when a frame was due to when the generator sees
//! the session's `frames_processed()` pass it; the generator polls every
//! 100 µs. From the same outside timestamps a frame's service starts at
//! `max(push, previous frame done)`; the time before that is queue wait.

use crate::batch::{setup_clips, Clips};
use crate::decode::{decode, set_capture_layers, set_receiver_layers, set_rs_layers, Quality};
use crate::links::Link;
use crate::metrics::{normalized_rate, per_link, percentile, Outcome, Units, SEGMENT_FRAMES};
use crate::reference::Reference;
use crate::trace::{ms, Trace};
use crate::Options;
use colorbars_camera::{Frame, FramePool};
use colorbars_core::DEFAULT_QUEUE_CAPACITY;
use colorbars_core::{CapturedRun, LinkSession, ReceiverReport, SessionConfig};
use std::time::{Duration, Instant};

const FRAME_PERIOD: Duration = Duration::from_nanos(1_000_000_000 / 30);
/// Share of the measured time spent in the open loop; closed-loop capacity
/// rounds take the rest. The open loop gives the traced run's session
/// metrics, the capacity rounds the untraced run's `frames_per_s`, so each
/// run spends most of its time on what it reports.
fn open_loop_share(traced: bool) -> f64 {
    if traced {
        0.75
    } else {
        0.25
    }
}

/// The generator's `k`-th poll interval: 50–150 µs, 100 µs on average.
/// A fixed interval would lock the polls to the frame schedule (each poll
/// train starts at a push) and snap every measured latency to a multiple
/// of it.
fn poll_interval(k: u64) -> Duration {
    Duration::from_micros(50 + (k * 37) % 101)
}

/// Outside timestamps of one streamed frame.
#[derive(Debug)]
struct Pushed {
    due: Instant,
    push: Instant,
    returned: Instant,
    done: Option<Instant>,
    /// First frame of its session (no previous frame to wait behind).
    first: bool,
    /// The push began with the queue full as far as the generator can see:
    /// more than the queue's capacity of frames not yet seen decoded.
    blocked: bool,
}

/// One link's feed: its clip, the live session and every frame's timestamps.
struct Feed<'a> {
    link: &'a Link,
    run: &'a CapturedRun,
    offset: Duration,
    session: Option<LinkSession>,
    /// Frames released so far (sets the next due time).
    released: u32,
    /// Clip position of the next frame.
    pos: usize,
    /// Frames pushed to and seen decoded by the current session.
    pushed: usize,
    seen: usize,
    /// Index in `frames` of the current session's first frame.
    session_start: usize,
    /// The next frame, cloned ahead of its due time.
    ready: Option<Frame>,
    frames: Vec<Pushed>,
    /// Every finished session: frames it was given and its report.
    reports: Vec<(usize, ReceiverReport)>,
}

impl<'a> Feed<'a> {
    fn new(link: &'a Link, run: &'a CapturedRun, offset: Duration) -> Feed<'a> {
        Feed {
            link,
            run,
            offset,
            session: None,
            released: 0,
            pos: 0,
            pushed: 0,
            seen: 0,
            session_start: 0,
            ready: None,
            frames: Vec::new(),
            reports: Vec::new(),
        }
    }

    fn spawn(&mut self) -> Result<(), String> {
        let config = SessionConfig::unobserved(format!("stream-{}", self.link.label));
        self.session = Some(LinkSession::spawn(self.link.receiver()?, config));
        self.pushed = 0;
        self.seen = 0;
        self.session_start = self.frames.len();
        Ok(())
    }

    fn finish(&mut self) {
        if let Some(session) = self.session.take() {
            let report = session.finish();
            if self.pushed > 0 {
                self.reports.push((self.pushed, report));
            }
        }
    }

    fn due(&self, t0: Instant) -> Instant {
        t0 + self.offset + FRAME_PERIOD * self.released
    }

    /// Stamp every frame the session finished since the last poll.
    fn poll(&mut self, now: Instant) {
        let processed = self
            .session
            .as_ref()
            .map_or(0, |s| s.frames_processed() as usize);
        while self.seen < processed {
            self.frames[self.session_start + self.seen].done = Some(now);
            self.seen += 1;
        }
    }

    fn push(&mut self, due: Instant) {
        let frame = self
            .ready
            .take()
            .unwrap_or_else(|| self.run.frames[self.pos].clone());
        let blocked = self.pushed - self.seen > DEFAULT_QUEUE_CAPACITY;
        let session = self.session.as_ref().expect("a live session");
        let push = Instant::now();
        session.push_frame(frame);
        let returned = Instant::now();
        self.frames.push(Pushed {
            due,
            push,
            returned,
            done: None,
            first: self.pushed == 0,
            blocked,
        });
        self.pushed += 1;
        self.released += 1;
        self.pos = (self.pos + 1) % self.run.frames.len();
        self.ready = Some(self.run.frames[self.pos].clone());
    }
}

pub fn run(opts: &Options, trace: &mut Trace) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let Clips {
        links,
        runs,
        setup_s,
    } = setup_clips(opts, trace, &mut out)?;

    // The batch reports each streamed session must reproduce.
    let mut quality = Quality::default();
    let mut reference = Vec::new();
    let mut untraced_ms = Vec::new();
    for (link, run) in links.iter().zip(&runs) {
        let d = decode(link, run, None)?;
        quality.add(&d.metrics, run, false);
        untraced_ms.push(d.frame_ms);
        reference.push(d.metrics.report);
    }

    // Warm the shared pixel arena for each session's frames in flight:
    // queue, the frame decoding, the clone waiting to go, and slack.
    let pool = FramePool::global();
    for run in &runs {
        let px = run.frames.first().map_or(0, |f| f.width() * f.height());
        pool.prefill_pixels(DEFAULT_QUEUE_CAPACITY + 4, px);
    }
    let misses = pool.misses();

    let mut feeds: Vec<Feed> = links
        .iter()
        .zip(&runs)
        .zip([Duration::ZERO, FRAME_PERIOD / 2])
        .map(|((link, run), offset)| Feed::new(link, run, offset))
        .collect();
    for feed in &mut feeds {
        feed.spawn()?;
    }
    let started = Instant::now();
    let t0 = started + Duration::from_millis(20);
    let end = t0 + Duration::from_secs_f64(opts.seconds * open_loop_share(trace.enabled()));
    for k in 0.. {
        let now = Instant::now();
        let mut active = false;
        let mut wake = now + poll_interval(k);
        for feed in &mut feeds {
            feed.poll(now);
            let clip = feed.run.frames.len();
            if feed.pushed == clip && feed.seen == clip {
                feed.finish();
                feed.spawn()?;
            }
            let due = feed.due(t0);
            if due < end {
                active = true;
                if now >= due && feed.pushed < clip {
                    feed.push(due);
                } else {
                    wake = wake.min(due);
                }
            } else if feed.seen < feed.pushed {
                active = true;
            }
        }
        if !active {
            break;
        }
        let now = Instant::now();
        if wake > now {
            std::thread::sleep(wake - now);
        }
    }
    for feed in &mut feeds {
        feed.finish();
    }
    let steady_misses = pool.misses() - misses;

    // Per link: frame latency, queue wait, service, generator lateness.
    let mut latency = vec![Vec::new(); feeds.len()];
    let mut queue_wait = vec![Vec::new(); feeds.len()];
    let mut service = vec![Vec::new(); feeds.len()];
    let mut lag = Vec::new();
    let mut blocked = 0usize;
    for (i, feed) in feeds.iter().enumerate() {
        let lane = i as u32 + 1;
        trace.lane(lane, &format!("session {}", feed.link.label));
        let mut previous: Option<Instant> = None;
        for (k, f) in feed.frames.iter().enumerate() {
            let done = f.done.ok_or("a streamed frame was never seen decoded")?;
            let start = match previous {
                Some(p) if !f.first => f.push.max(p),
                _ => f.push,
            };
            previous = Some(done);
            latency[i].push(ms(done - f.due));
            queue_wait[i].push(ms(start - f.push));
            service[i].push(ms(done - start));
            lag.push(ms(f.push - f.due));
            blocked += usize::from(f.blocked);
            let id = k as u64;
            trace.record("session.push", id, None, (f.push, f.returned), 0);
            let frame = trace.record("stream.frame", id, None, (f.due, done), lane);
            trace.record("session.queue_wait", id, frame, (f.push, start), lane);
            trace.record("session.service", id, frame, (start, done), lane);
        }
    }
    eprintln!(
        "stream_realtime: {} frames streamed, {} sessions",
        lag.len(),
        feeds.iter().map(|f| f.reports.len()).sum::<usize>()
    );

    // Capacity: each clip pushed through a fresh session as fast as its
    // bounded queue admits (`push_frame` blocks while the queue is full),
    // one link after the other. This saturated rate is the highest frame
    // rate a session sustains without a growing backlog. Unlike the
    // open-loop latencies above, it does not hinge on how fast an idle
    // core wakes up, which on a shared machine drifts by a tenth between
    // runs minutes apart.
    //
    // Once the queue is full, a push returns when the worker takes a frame
    // off it to decode, so the returns mark the worker's progress without
    // polling. The units of `frames_per_s` are the spans between every
    // `SEGMENT_FRAMES`-th return, from spawn to the first and from the last
    // to `finish`. The reference kernel runs on this thread after each
    // mark, while the worker has a full queue ahead of it.
    let deadline = started + Duration::from_secs_f64(opts.seconds);
    let kernel = Reference::default();
    let mut units = vec![Units::default(); links.len()];
    let mut rounds = 0;
    while rounds < 2 || Instant::now() < deadline {
        rounds += 1;
        for (i, (link, run)) in links.iter().zip(&runs).enumerate() {
            let n = run.frames.len();
            let config = SessionConfig::unobserved(format!("capacity-{}", link.label));
            let mut rep = Vec::new();
            let mut mark = Instant::now();
            let session = LinkSession::spawn(link.receiver()?, config);
            for (k, frame) in run.frames.iter().enumerate() {
                session.push_frame(frame.clone());
                if k > DEFAULT_QUEUE_CAPACITY && k % SEGMENT_FRAMES == 0 {
                    let now = Instant::now();
                    rep.push(((now - mark).as_secs_f64(), kernel.time()));
                    mark = now;
                }
            }
            let report = session.finish();
            rep.push((mark.elapsed().as_secs_f64(), kernel.time()));
            units[i].push_rep(&rep);
            out.attempted += n as u64;
            if report != reference[i] {
                out.fail(
                    n as u64,
                    format!(
                        "link {}: a saturated session differs from batch",
                        link.label
                    ),
                );
            }
        }
    }

    // Output check: every session's report equals the batch report of the
    // frames it was given.
    for (i, feed) in feeds.iter().enumerate() {
        for (n, report) in &feed.reports {
            out.attempted += *n as u64;
            let expected = if *n == feed.run.frames.len() {
                reference[i].clone()
            } else {
                let mut rx = feed.link.receiver()?;
                for frame in &feed.run.frames[..*n] {
                    rx.process_frame(frame);
                }
                rx.finish()
            };
            if *report != expected {
                out.fail(
                    *n as u64,
                    format!(
                        "link {}: a streamed session of {n} frames differs from batch",
                        feed.link.label
                    ),
                );
            }
        }
    }

    out.set("setup_s", setup_s);
    let frames = runs.iter().map(|r| r.frames.len()).sum();
    out.set("frames_per_s", normalized_rate(frames, &units));
    out.set("goodput_bps", quality.goodput_sum());
    out.set("packet_delivery", quality.delivery());

    // In frame periods: the share of the frame budget each one takes.
    let frames = |ms: f64| ms / (FRAME_PERIOD.as_secs_f64() * 1e3);
    out.set("session.latency_p50", frames(per_link(&latency, 0.5)));
    out.set(
        "session.latency_p99",
        frames(percentile(&latency.concat(), 0.99)),
    );
    out.set("session.queue_wait_p50", frames(per_link(&queue_wait, 0.5)));
    out.set(
        "session.queue_wait_p99",
        frames(percentile(&queue_wait.concat(), 0.99)),
    );
    out.set("session.service_p50", frames(per_link(&service, 0.5)));
    out.set("session.push_blocked", blocked as f64);
    out.set("bench.generator_lag_p99", frames(percentile(&lag, 0.99)));
    out.set("camera.pool_misses_steady", steady_misses as f64);
    // The sessions' receivers run on their own threads, out of reach; the
    // stage budget comes from traced batch decodes of the clips.
    if trace.enabled() {
        for (link, run) in links.iter().zip(&runs) {
            if let Err(e) = decode(link, run, Some((&mut *trace, None))) {
                out.fail(run.frames.len() as u64, e);
            }
        }
    }
    set_capture_layers(trace, &mut out);
    set_receiver_layers(trace, &untraced_ms, &mut out);
    quality.set_layers(&mut out);
    let passes: Vec<_> = links.iter().zip(&quality.stats).collect();
    set_rs_layers(&passes, &mut out)?;
    Ok(out)
}
