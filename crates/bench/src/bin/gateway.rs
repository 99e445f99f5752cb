//! `gateway` — the streaming link-gateway benchmark.
//!
//! Multiplexes N simulated LED-to-camera feeds through concurrent
//! streaming [`LinkSession`]s sharing the process-wide live-telemetry
//! registry ([`colorbars_obs::live::global`]), snapshots it mid-run and
//! again after the run, and reports sessions/sec/core plus p99
//! frame-to-bytes latency in a `results/gateway.json` run report. Every
//! streamed decode is checked byte-identical against the batch
//! [`LinkSimulator`] decode of the same captured frames — the gateway
//! proves the streaming path changes *when* bytes arrive, never *which*
//! bytes arrive.
//!
//! ```text
//! gateway --smoke [--record] [--flight]
//! gateway [--sessions N] [--seconds S] [--flight]
//! ```
//!
//! `--smoke` is the CI scenario: 4 concurrent sessions on the standard
//! smoke operating point (Nexus 5, 8-CSK, 3 kHz, coded, 0.4 s payloads,
//! one standard seed per session). `--record` copies the finished run
//! report to `results/baselines/gateway_smoke.json`, which `obs-diff`
//! gates CI's smoke run against: the link metrics and counters by
//! identity, the p99 latency within its noise band (the one wall-clock
//! fact gated). With `COLORBARS_OBS_LIVE=<path>` set, the gateway creates
//! that file at the start of the run and writes its two snapshots there as
//! JSON lines: the mid-run one, flushed before the feeders drain, then the
//! final one. `doctor --live` reviews the stream.
//!
//! `--flight` arms the failure flight recorder
//! (`results/flight/gateway.fdr.json`) and deterministically corrupts a
//! mid-run stretch of session 0's captured frames **before** the batch
//! reference decode — both decode paths see identical frames, so the
//! streamed-vs-batch byte-identity gate still holds while the injected
//! decode failure exercises the trigger → dump → `postmortem --replay`
//! round trip. The registry reads the journey-ring and trigger totals
//! (`journey.*` / `flight.*`), like the frame pool's `camera.pool.*`, at
//! snapshot time.
//!
//! Exit codes: 0 — all sessions matched batch and were live at the mid-run
//! snapshot (and, with `--flight`, the dump was written); 1 — a mismatch,
//! a session not live mid-run, a steady-state pool miss under `--smoke`,
//! or a missing flight dump; 2 — usage or I/O error (an unwritable
//! `COLORBARS_OBS_LIVE` stream among them).

use colorbars_bench::{devices, mean_std, Reporter, SEEDS};
use colorbars_camera::{Frame, FramePool};
use colorbars_core::{
    CapturedRun, CskOrder, LinkMetrics, LinkSession, LinkSimulator, ReceiverReport, SessionConfig,
    DEFAULT_QUEUE_CAPACITY,
};
use colorbars_obs::{LiveSnapshot, Value};
use std::fs::File;
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Barrier;
use std::time::Instant;

/// The smoke operating point (the standard CI smoke scenario).
const SMOKE_ORDER: CskOrder = CskOrder::Csk8;
const SMOKE_RATE_HZ: f64 = 3000.0;
const SMOKE_SESSIONS: usize = 4;
const SMOKE_SECONDS: f64 = 0.4;
/// Where `--record` saves the baseline for the obs-diff gate.
const BASELINE_PATH: &str = "results/baselines/gateway_smoke.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(err) => {
            eprintln!("gateway: {err}");
            eprintln!("usage: gateway --smoke [--record] [--flight]");
            eprintln!("       gateway [--sessions N] [--seconds S] [--flight]");
            return ExitCode::from(2);
        }
    };
    match run_gateway(&options) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(err) => {
            eprintln!("gateway: {err}");
            ExitCode::from(2)
        }
    }
}

struct Options {
    sessions: usize,
    seconds: f64,
    smoke: bool,
    record: bool,
    flight: bool,
}

/// The command line's options, or what is wrong with it.
fn parse(args: &[String]) -> Result<Options, String> {
    let mut sessions = SMOKE_SESSIONS;
    let mut seconds = SMOKE_SECONDS;
    let mut smoke = false;
    let mut record = false;
    let mut flight = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--record" => record = true,
            "--flight" => flight = true,
            "--sessions" => {
                sessions = it
                    .next()
                    .ok_or("--sessions needs a count")?
                    .parse()
                    .map_err(|_| "--sessions needs an unsigned integer".to_string())?;
            }
            "--seconds" => {
                seconds = it
                    .next()
                    .ok_or("--seconds needs a duration")?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_string())?;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }

    if smoke {
        sessions = SMOKE_SESSIONS;
        seconds = SMOKE_SECONDS;
    }
    if sessions == 0 {
        return Err("--sessions must be at least 1".to_string());
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Options {
        sessions,
        seconds,
        smoke,
        record,
        flight,
    })
}

/// What one feeder thread hands back after its session drains.
struct SessionOutcome {
    label: String,
    metrics: LinkMetrics,
    matched_batch: bool,
    frames: usize,
}

fn run_gateway(options: &Options) -> Result<bool, String> {
    let mut reporter = Reporter::new("gateway");
    let registry = colorbars_obs::live::global();
    let mut live = match std::env::var("COLORBARS_OBS_LIVE") {
        Ok(path) if !path.is_empty() => {
            let file = File::create(&path)
                .map_err(|e| format!("cannot create live snapshot file {path}: {e}"))?;
            Some((path, file))
        }
        _ => None,
    };

    // --flight: arm the failure flight recorder (which also turns on
    // journey provenance) and enable the global obs ledger so the dump's
    // counter snapshot can be cross-checked against the journey ring.
    let flight_dump = if options.flight {
        colorbars_obs::reset();
        let dir = format!("{}/flight", colorbars_bench::results_dir());
        colorbars_obs::init(colorbars_obs::ObsConfig {
            journey: true,
            flight_dir: Some(dir),
            flight_run: Some("gateway".to_string()),
            ..Default::default()
        });
        let path = colorbars_obs::flight::dump_path()
            .ok_or("cannot arm flight recorder (results/flight unwritable)")?;
        let _ = std::fs::remove_file(&path);
        Some(path)
    } else {
        None
    };

    let (device_name, device) = &devices()[0];
    reporter.header(
        &format!(
            "gateway: {} concurrent sessions, {device_name}, {}-CSK @ {} Hz, {} s payloads",
            options.sessions,
            SMOKE_ORDER.points(),
            SMOKE_RATE_HZ,
            options.seconds
        ),
        &[
            "session",
            "seed",
            "frames",
            "ser",
            "goodput_bps",
            "p99_ms",
            "batch_match",
        ],
    );

    // One feeder thread per session: capture, batch-decode, then stream
    // the same frames through a LinkSession. Three rendezvous order the
    // feeders against the shared frame pool and the mid-run snapshot
    // (DESIGN.md §11); every feeder reaches all three on its error paths
    // too.
    let gates = Gates {
        captured: Barrier::new(options.sessions),
        live: Barrier::new(options.sessions + 1),
        snapshotted: Barrier::new(options.sessions + 1),
    };
    let started = Instant::now();

    let mut warmup_misses = 0u64;
    let mut outcomes: Vec<Result<SessionOutcome, String>> = Vec::new();
    let mut mid_run_live = true;
    let mut mid_run_written = Ok(());
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(options.sessions);
        for i in 0..options.sessions {
            let seed = SEEDS[i % SEEDS.len()] + 1000 * (i / SEEDS.len()) as u64;
            let gates = &gates;
            // Failure injection targets exactly one session: the rest stay
            // healthy so the smoke gates (batch match, mid-run liveness)
            // keep their meaning.
            let corrupt = options.flight && i == 0;
            handles.push(
                scope.spawn(move || feed_session(i, seed, device, options.seconds, corrupt, gates)),
            );
        }

        // Rendezvous: every feeder has a live session with ≥1 decoded
        // frame (or has failed) — snapshot now, while the feeders wait at
        // the next gate, so no session can finish before it is seen live.
        // Capture and session warmup are over: from here on the pixel
        // arena must serve every checkout from its freelist, so this
        // snapshot is the zero-point for the steady-state miss assertion.
        gates.live.wait();
        let snap = registry.snapshot();
        warmup_misses = unlabeled_counter(&snap, "camera.pool.misses");
        mid_run_live = check_mid_run(&snap, options.sessions);
        mid_run_written = append_line(&mut live, &snap);
        gates.snapshotted.wait();

        outcomes = handles.into_iter().map(|h| h.join().unwrap()).collect();
    });
    let elapsed = started.elapsed().as_secs_f64();
    mid_run_written?;

    // The final snapshot is the stream's second line. The report rows and
    // the steady-state assertion take the pool ledger from it, so they
    // describe the same instant it does.
    let final_snap = registry.snapshot();
    append_line(&mut live, &final_snap)?;
    let pool_hits = unlabeled_counter(&final_snap, "camera.pool.hits");
    let pool_misses = unlabeled_counter(&final_snap, "camera.pool.misses");
    let steady_misses = pool_misses - warmup_misses;

    let mut sessions_ok = true;
    let mut per_session: Vec<SessionOutcome> = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(o) => per_session.push(o),
            Err(e) => {
                eprintln!("gateway: session failed: {e}");
                sessions_ok = false;
            }
        }
    }
    for o in &per_session {
        if !o.matched_batch {
            eprintln!(
                "gateway: session {} streamed decode DIVERGED from batch decode",
                o.label
            );
            sessions_ok = false;
        }
    }

    // Per-session table rows. obs-diff holds their link metrics by
    // identity and skips their wall-clock p99s.
    let mut p99s: Vec<f64> = Vec::new();
    for (i, o) in per_session.iter().enumerate() {
        let seed = SEEDS[i % SEEDS.len()] + 1000 * (i / SEEDS.len()) as u64;
        let p99 = session_p99_ms(&final_snap, &o.label).unwrap_or(0.0);
        p99s.push(p99);
        reporter.say(format!(
            "{}\t{}\t{}\t{:.4}\t{:.1}\t{:.3}\t{}",
            o.label,
            seed,
            o.frames,
            o.metrics.ser,
            o.metrics.goodput_bps,
            p99,
            if o.matched_batch { "yes" } else { "NO" }
        ));
        reporter.add_value(Value::object([
            ("experiment", Value::from("gateway")),
            ("session", Value::from(o.label.as_str())),
            ("seed", Value::from(seed)),
            ("frames", Value::from(o.frames)),
            ("ser", Value::from(o.metrics.ser)),
            ("goodput_bps", Value::from(o.metrics.goodput_bps)),
            ("p99_frame_latency_ms", Value::from(p99)),
            ("batch_match", Value::from(o.matched_batch)),
        ]));
    }

    // The aggregate row. Its p99 and the session spread of the p99s are
    // what obs-diff's latency band judges. The pool totals are the
    // report's `camera.pool.*` counters; only the steady-state misses,
    // which the smoke run requires to be 0, are a row fact.
    let (ser_mean, ser_std) = mean_std(per_session.iter().map(|o| o.metrics.ser));
    let (tput_mean, tput_std) = mean_std(per_session.iter().map(|o| o.metrics.throughput_bps));
    let (good_mean, good_std) = mean_std(per_session.iter().map(|o| o.metrics.goodput_bps));
    let (p99_mean, p99_std) = mean_std(p99s.iter().copied());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let sessions_per_sec_per_core = per_session.len() as f64 / (elapsed * cores);
    reporter.say(format!(
        "aggregate\t{} sessions in {elapsed:.2} s on {cores} core(s): \
         {sessions_per_sec_per_core:.3} sessions/s/core, p99 latency {p99_mean:.3} ms, \
         {steady_misses} steady-state pool misses ({pool_hits} hits / {pool_misses} \
         misses total)",
        per_session.len(),
    ));
    reporter.add_value(Value::object([
        ("experiment", Value::from("gateway")),
        ("device", Value::from(*device_name)),
        ("order", Value::from(SMOKE_ORDER.points())),
        ("rate_hz", Value::from(SMOKE_RATE_HZ)),
        ("pool_misses_steady", Value::from(steady_misses)),
        (
            "metrics",
            Value::object([
                ("ser", Value::from(ser_mean)),
                ("ser_std", Value::from(ser_std)),
                ("throughput_bps", Value::from(tput_mean)),
                ("throughput_bps_std", Value::from(tput_std)),
                ("goodput_bps", Value::from(good_mean)),
                ("goodput_bps_std", Value::from(good_std)),
                ("p99_frame_latency_ms", Value::from(p99_mean)),
                ("p99_frame_latency_ms_std", Value::from(p99_std)),
                (
                    "sessions_per_sec_per_core",
                    Value::from(sessions_per_sec_per_core),
                ),
                ("runs", Value::from(per_session.len())),
            ]),
        ),
    ]));

    let report_path = reporter.finish();
    if options.record {
        let report_path = report_path.ok_or("no run report to record as baseline")?;
        if let Some(dir) = std::path::Path::new(BASELINE_PATH).parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        }
        std::fs::copy(&report_path, BASELINE_PATH)
            .map_err(|e| format!("cannot record baseline {BASELINE_PATH}: {e}"))?;
        println!("baseline recorded: {BASELINE_PATH}");
    }

    if !mid_run_live {
        eprintln!("gateway: mid-run snapshot did not show every session live");
    }
    // The zero-allocation claim the frame pool exists for: once every
    // session is past warmup, the drain phase must never allocate a pixel
    // buffer. Enforced in the CI smoke scenario, reported everywhere.
    let pool_ok = !options.smoke || steady_misses == 0;
    if !pool_ok {
        eprintln!("gateway: {steady_misses} frame-pool misses after warmup (want 0)");
    }
    // --flight: the injected failure must have fired at least one trigger
    // and left a replayable dump behind.
    let mut flight_ok = true;
    if let Some(path) = &flight_dump {
        colorbars_obs::flush();
        let (kept, dropped) = colorbars_obs::flight::stats();
        if kept == 0 {
            eprintln!("gateway: --flight injected a failure but no trigger fired");
            flight_ok = false;
        } else if !std::path::Path::new(path).exists() {
            eprintln!("gateway: flight dump missing at {path}");
            flight_ok = false;
        } else {
            println!("flight dump: {path} ({kept} trigger(s), {dropped} dropped)");
        }
    }
    Ok(
        sessions_ok
            && mid_run_live
            && pool_ok
            && flight_ok
            && per_session.len() == options.sessions,
    )
}

/// The rendezvous between the feeders and the mid-run snapshot.
struct Gates {
    /// Every feeder has captured (feeders only). Captured frames keep
    /// their pixel buffers for the whole run, so a session still capturing
    /// would take the buffers another session prefilled for its in-flight
    /// frames: prefill waits for this gate.
    captured: Barrier,
    /// Every session is live with ≥ 1 decoded frame: the mid-run snapshot
    /// may be taken.
    live: Barrier,
    /// The mid-run snapshot and the warmup miss count are taken: feeders
    /// may drain. Without it a short session can finish before it is seen
    /// live.
    snapshotted: Barrier,
}

/// One feeder thread's whole life: capture a coded transmission, decode
/// it in batch, then stream the identical frames through a [`LinkSession`]
/// and compare. Every gate is reached on the error paths too — a
/// deadlocked gate would hang the whole gateway on one bad session.
fn feed_session(
    index: usize,
    seed: u64,
    device: &colorbars_camera::DeviceProfile,
    seconds: f64,
    corrupt: bool,
    gates: &Gates,
) -> Result<SessionOutcome, String> {
    let label = format!("s{index}");
    let captured = capture(seed, device, seconds, corrupt);
    gates.captured.wait();
    let prep = captured.and_then(|(sim, run)| start_session(&label, sim, run));
    gates.live.wait();
    gates.snapshotted.wait();
    let (sim, run, session, batch_report, fed) = prep.map_err(|e| format!("{label}: {e}"))?;

    for frame in &run.frames[fed..] {
        session.push_frame(frame.clone());
    }
    let streamed_report = session.finish();
    let matched_batch = streamed_report == batch_report;
    let frames = run.frames.len();
    let metrics = sim.score(&run, streamed_report);
    Ok(SessionOutcome {
        label,
        metrics,
        matched_batch,
        frames,
    })
}

type PreparedSession = (
    LinkSimulator,
    CapturedRun,
    LinkSession,
    ReceiverReport,
    usize,
);

/// Capture one session's coded transmission (and, with `corrupt`, inject
/// the `--flight` failure).
fn capture(
    seed: u64,
    device: &colorbars_camera::DeviceProfile,
    seconds: f64,
    corrupt: bool,
) -> Result<(LinkSimulator, CapturedRun), String> {
    let sim = LinkSimulator::paper_setup(SMOKE_ORDER, SMOKE_RATE_HZ, device.clone(), seed)
        .map_err(|e| format!("operating point unrealizable: {e}"))?;
    let payload = sim
        .random_payload(seconds, seed ^ 0xABCD)
        .map_err(|e| format!("payload: {e}"))?;
    let mut run = sim
        .prepare_data(&payload)
        .map_err(|e| format!("capture: {e}"))?;
    if corrupt {
        // Before the batch reference decode: both the batch and streamed
        // receivers must see the same corrupted frames or the gateway's
        // byte-identity gate would report the injection as a divergence.
        inject_decode_failure(&mut run.frames);
    }
    Ok((sim, run))
}

/// Everything between the capture and live gates: the pool prefill,
/// per-session `tx.*` ground-truth counters, the batch reference decode,
/// and a spawned session that has decoded at least one frame.
fn start_session(
    label: &str,
    sim: LinkSimulator,
    run: CapturedRun,
) -> Result<PreparedSession, String> {
    // Warm the shared arena with this session's worth of in-flight clone
    // buffers: queue depth, the frame being decoded, the clone waiting to
    // enqueue, plus slack for recycle lag between the worker dropping one
    // frame and popping the next. Additive because every session draws on
    // the one global pool.
    let frame_px = run.frames.first().map_or(0, |f| f.width() * f.height());
    FramePool::global().prefill_pixels(DEFAULT_QUEUE_CAPACITY + 4, frame_px);

    // Ground-truth transmit-side counters, labeled like the session's
    // rx ledger, so the doctor can balance each session's books from the
    // live JSONL stream alone.
    let registry = colorbars_obs::live::global();
    let labels: &[(&str, &str)] = &[("session", label)];
    registry
        .counter("tx.symbols", labels)
        .add(run.transmission.symbols.len() as u64);
    let data_packets = run
        .transmission
        .packets
        .iter()
        .filter(|p| p.kind == colorbars_core::PacketKind::Data)
        .count();
    registry
        .counter("tx.packets.data", labels)
        .add(data_packets as u64);

    let mut batch_rx = sim.receiver().map_err(|e| format!("receiver: {e}"))?;
    for frame in &run.frames {
        batch_rx.process_frame(frame);
    }
    let batch_report = batch_rx.finish();

    let stream_rx = sim.receiver().map_err(|e| format!("receiver: {e}"))?;
    let session = LinkSession::spawn(
        stream_rx,
        SessionConfig::new(label.to_string(), registry.clone()),
    );
    let fed = run.frames.len().min(2);
    for frame in &run.frames[..fed] {
        session.push_frame(frame.clone());
    }
    while session.frames_processed() == 0 {
        std::thread::yield_now();
    }
    Ok((sim, run, session, batch_report, fed))
}

/// `--flight` failure injection: deterministically corrupt a mid-run
/// stretch of captured frames so the decoder hits a failure class worth a
/// post-mortem (RS capacity exceeded, or header loss when the corruption
/// lands on a size field). Channel-rotating a band of rows moves every
/// symbol in it to a different-but-plausible chromaticity — exactly the
/// kind of wrong-color classification a real channel produces — without
/// touching frame timing, so the replay stays deterministic (no RNG).
fn inject_decode_failure(frames: &mut [Frame]) {
    let mid = frames.len() / 2;
    for frame in frames.iter_mut().skip(mid).take(2) {
        *frame = channel_rotated(frame);
    }
}

/// Copy of `frame` with the middle band of rows channel-rotated
/// (`[r, g, b]` → `[g, b, r]`). The copy is unpooled on purpose: injected
/// frames must not perturb the shared arena's steady-state miss ledger.
fn channel_rotated(frame: &Frame) -> Frame {
    let (w, h) = (frame.width(), frame.height());
    let band = (h / 3)..(h / 3 + h / 4);
    let mut pixels = Vec::with_capacity(w * h);
    for (r, row) in frame.rows().enumerate() {
        if band.contains(&r) {
            pixels.extend(row.iter().map(|&[cr, cg, cb]| [cg, cb, cr]));
        } else {
            pixels.extend_from_slice(row);
        }
    }
    Frame::new(w, h, pixels, frame.meta)
}

/// Mid-run health: every session live (a non-zero `rx.frames` counter)
/// with its queue-depth gauge registered, and the active-session gauge at
/// the session count.
fn check_mid_run(snap: &LiveSnapshot, sessions: usize) -> bool {
    let mut ok = true;
    let active = snap
        .gauges
        .iter()
        .find(|g| g.id.name == "sessions.active")
        .map_or(0.0, |g| g.value);
    if (active - sessions as f64).abs() > f64::EPSILON {
        eprintln!("gateway: mid-run snapshot shows {active} active sessions, want {sessions}");
        ok = false;
    }
    for i in 0..sessions {
        let label = format!("s{i}");
        let ours = |id: &colorbars_obs::live::MetricId, name: &str| {
            id.name == name && id.label("session") == Some(&label)
        };
        if !snap
            .counters
            .iter()
            .any(|c| ours(&c.id, "rx.frames") && c.value > 0)
        {
            eprintln!("gateway: mid-run snapshot shows no decoded frame for session {label}");
            ok = false;
        }
        if !snap
            .gauges
            .iter()
            .any(|g| ours(&g.id, "session.queue_depth"))
        {
            eprintln!("gateway: mid-run snapshot has no queue-depth gauge for session {label}");
            ok = false;
        }
    }
    ok
}

/// Append one snapshot to the `COLORBARS_OBS_LIVE` stream, when set, as a
/// JSON line. `File` keeps no buffer of its own, so a reader of the file
/// sees the whole line once this returns.
fn append_line(live: &mut Option<(String, File)>, snap: &LiveSnapshot) -> Result<(), String> {
    let Some((path, file)) = live else {
        return Ok(());
    };
    let line = format!("{}\n", snap.to_json().to_compact());
    file.write_all(line.as_bytes())
        .map_err(|e| format!("cannot write live snapshot to {path}: {e}"))
}

/// Per-session p99 from the final snapshot's labeled latency histogram.
fn session_p99_ms(snap: &LiveSnapshot, label: &str) -> Option<f64> {
    snap.histograms
        .iter()
        .find(|h| h.id.name == "session.frame_latency_ms" && h.id.label("session") == Some(label))
        .map(|h| h.p99_ms)
}

/// An unlabeled counter's value in a snapshot (0 when absent).
fn unlabeled_counter(snap: &LiveSnapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|c| c.id.name == name && c.id.labels.is_empty())
        .map_or(0, |c| c.value)
}
