//! `doctor` — the link doctor CLI.
//!
//! Reads a `results/<experiment>.json` run report and prints a ranked
//! root-cause attribution of where the link lost data (inter-frame gap vs
//! exposure/blur segmentation vs calibration bootstrap vs header loss vs
//! RS failures vs multi-TX cross-talk — see DESIGN.md §10). Optionally
//! validates an exported Chrome `trace.json` against the same run, or
//! reviews a live-telemetry JSONL stream (the gateway's
//! `COLORBARS_OBS_LIVE` file): every line must parse, no counter may fall
//! or vanish from one line to the next, and the last line is reviewed
//! fleet-wide, flagging sessions whose loss attribution diverges from the
//! fleet median:
//!
//! ```text
//! doctor <report.json> [--trace <trace.json>] [--min-tracks N]
//!        [--fec-results <path>]
//! doctor --live <live.jsonl> [--threshold X]
//! ```
//!
//! The gap-loss advisory mines a recorded `ext_fec` sweep for the best
//! interleave depth; `--fec-results` points it at a non-default sweep
//! report (default `results/ext_fec.json`). A flight dump's journey/ledger
//! agreement is `postmortem --replay`'s check.
//!
//! Exit codes: 0 — diagnosis consistent (and trace valid, when given; no
//! fleet outliers or counter regressions, when `--live`); 1 — an invariant
//! violated (attributed losses don't sum to totals, the trace is malformed
//! / has fewer tracks than `--min-tracks`, a live session diverges from
//! the fleet, or a live counter fell or vanished between lines); 2 —
//! usage or I/O error, or a live line that does not parse.

use colorbars_obs::doctor::{review_live_jsonl, Doctor};
use colorbars_obs::Value;
use std::process::ExitCode;

/// Default absolute loss-share divergence that flags a session in
/// `--live` mode.
const DEFAULT_LIVE_THRESHOLD: f64 = 0.25;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let task = match parse(&args) {
        Ok(task) => task,
        Err(err) => {
            eprintln!("doctor: {err}");
            eprintln!(
                "usage: doctor <report.json> [--trace <trace.json>] [--min-tracks N] \
                 [--fec-results <path>]"
            );
            eprintln!("       doctor --live <live.jsonl> [--threshold X]");
            return ExitCode::from(2);
        }
    };
    let outcome = match task {
        Task::Live { path, threshold } => review_live(path, threshold),
        Task::Report {
            path,
            trace,
            min_tracks,
            fec_results,
        } => diagnose(path, trace, min_tracks, fec_results),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(err) => {
            eprintln!("doctor: {err}");
            ExitCode::from(2)
        }
    }
}

/// What a command line asks the doctor to do.
enum Task<'a> {
    /// Review a live JSONL stream.
    Live { path: &'a str, threshold: f64 },
    /// Diagnose a run report, and validate a trace of it when given.
    Report {
        path: &'a str,
        trace: Option<&'a str>,
        min_tracks: usize,
        fec_results: Option<&'a str>,
    },
}

/// The command line's task, or what is wrong with it.
fn parse(args: &[String]) -> Result<Task<'_>, String> {
    let mut report_path: Option<&str> = None;
    let mut trace_path: Option<&str> = None;
    let mut live_path: Option<&str> = None;
    let mut fec_results: Option<&str> = None;
    let mut min_tracks: usize = 1;
    let mut threshold = DEFAULT_LIVE_THRESHOLD;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace" => {
                trace_path = Some(it.next().ok_or("--trace needs a path")?);
            }
            "--live" => {
                live_path = Some(it.next().ok_or("--live needs a path")?);
            }
            "--fec-results" => {
                fec_results = Some(it.next().ok_or("--fec-results needs a path")?);
            }
            "--min-tracks" => {
                min_tracks = it
                    .next()
                    .ok_or("--min-tracks needs a count")?
                    .parse()
                    .map_err(|_| "--min-tracks needs an unsigned integer".to_string())?;
            }
            "--threshold" => {
                threshold = it
                    .next()
                    .ok_or("--threshold needs a share")?
                    .parse()
                    .map_err(|_| "--threshold needs a number".to_string())?;
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag:?}"));
            }
            path => {
                if report_path.replace(path).is_some() {
                    return Err("more than one report path given".to_string());
                }
            }
        }
    }

    if let Some(path) = live_path {
        if report_path.is_some() || trace_path.is_some() {
            return Err("--live reviews a snapshot stream on its own".to_string());
        }
        return Ok(Task::Live { path, threshold });
    }
    Ok(Task::Report {
        path: report_path.ok_or("no run report given")?,
        trace: trace_path,
        min_tracks,
        fec_results,
    })
}

/// Report mode: the ranked diagnosis of a run report, its gap-loss
/// advisory, and the trace check when a trace is given.
fn diagnose(
    report_path: &str,
    trace_path: Option<&str>,
    min_tracks: usize,
    fec_results: Option<&str>,
) -> Result<bool, String> {
    let report = parse_file(report_path)?;
    let doctor = Doctor::from_report(&report)?;
    let diagnosis = doctor.diagnose();
    print!("{}", diagnosis.render_text());
    if diagnosis
        .dominant()
        .is_some_and(|a| a.category == "packets-lost-to-gap")
    {
        let default_fec = std::path::Path::new(&colorbars_bench::results_dir())
            .join("ext_fec.json")
            .to_string_lossy()
            .to_string();
        let fec_path = fec_results.unwrap_or(&default_fec);
        match fec_depth_advisory(fec_path) {
            Some(line) => println!("{line}"),
            None => println!(
                "advisory: whole-packet gap losses dominate — cross-packet \
                 interleaving recovers these as declared erasures; run the \
                 ext_fec sweep to size a depth (no readable sweep report at \
                 {fec_path})"
            ),
        }
    }

    let mut healthy = diagnosis.is_consistent();
    if let Some(trace_path) = trace_path {
        let tracks = validate_trace(trace_path, min_tracks)?;
        match tracks {
            Ok(n) => println!("trace: ok ({n} thread tracks)"),
            Err(why) => {
                println!("trace: INVALID — {why}");
                healthy = false;
            }
        }
    }
    println!("doctor: {}", if healthy { "ok" } else { "UNHEALTHY" });
    Ok(healthy)
}

/// `--live` mode: check a live JSONL stream's counters line to line and
/// fleet-review its last snapshot.
fn review_live(path: &str, threshold: f64) -> Result<bool, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let review = review_live_jsonl(&body, threshold).map_err(|e| format!("{path}: {e}"))?;
    print!("{}", review.render_text());
    let healthy = review.is_healthy();
    println!("doctor: {}", if healthy { "ok" } else { "UNHEALTHY" });
    Ok(healthy)
}

/// Mine a recorded `ext_fec` sweep report (when readable) for the
/// goodput-maximal interleave depth: the actionable fix when whole-packet
/// gap losses dominate the packet ledger. Rows encode the depth in the
/// device key (`"iPhone 5S+d8"`; no suffix = the per-packet baseline).
fn fec_depth_advisory(path: &str) -> Option<String> {
    let doc = parse_file(path).ok()?;
    let rows = doc.get("rows").and_then(Value::as_array)?;
    // (base device, depth, order, goodput) per row.
    let mut points: Vec<(String, usize, u64, f64)> = Vec::new();
    for row in rows {
        let Some(device) = row.get("device").and_then(Value::as_str) else {
            continue;
        };
        let Some(order) = row.get("order").and_then(Value::as_u64) else {
            continue;
        };
        let Some(goodput) = row
            .get("metrics")
            .and_then(|m| m.get("goodput_bps"))
            .and_then(Value::as_f64)
        else {
            continue;
        };
        let (base, depth) = match device.rsplit_once("+d") {
            Some((base, d)) => match d.parse::<usize>() {
                Ok(depth) => (base.to_string(), depth),
                Err(_) => (device.to_string(), 0),
            },
            None => (device.to_string(), 0),
        };
        points.push((base, depth, order, goodput));
    }
    // The depth worth advising is the one with the best goodput *uplift*
    // over its own per-packet baseline (same device and order) — a lossier
    // device gains from interleaving even when an easier device's baseline
    // tops the absolute goodput chart.
    let mut best: Option<(f64, usize, &str, u64, f64)> = None;
    for &(ref base, depth, order, goodput) in &points {
        if depth == 0 {
            continue;
        }
        let Some(&(_, _, _, baseline)) = points
            .iter()
            .find(|(b, d, o, _)| b == base && *d == 0 && *o == order)
        else {
            continue;
        };
        if baseline <= 0.0 {
            continue;
        }
        let uplift = goodput / baseline;
        if best.as_ref().is_none_or(|(u, ..)| uplift > *u) {
            best = Some((uplift, depth, base, order, goodput));
        }
    }
    match best {
        Some((uplift, depth, base, order, goodput)) if uplift > 1.0 => Some(format!(
            "advisory: whole-packet gap losses dominate — cross-packet interleaving \
             re-enters them as declared erasures; the recorded ext_fec sweep peaks at \
             depth {depth} on {base} {order}-CSK with {goodput:.0} bps goodput \
             ({uplift:.2}x over per-packet RS)"
        )),
        _ => Some(
            "advisory: gap losses dominate, but the recorded ext_fec sweep found no \
             interleave depth beating per-packet RS at its operating points"
                .to_string(),
        ),
    }
}

fn parse_file(path: &str) -> Result<Value, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Value::parse(&body).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// Structural validation of a Chrome trace export: outer `Ok` is an I/O
/// success, the inner result carries the verdict so callers can distinguish
/// "unreadable" (usage error) from "invalid" (gate failure).
fn validate_trace(path: &str, min_tracks: usize) -> Result<Result<usize, String>, String> {
    let doc = parse_file(path)?;
    let Some(events) = doc.get("traceEvents").and_then(Value::as_array) else {
        return Ok(Err("no \"traceEvents\" array".to_string()));
    };
    let mut tracks = 0usize;
    let mut spans = 0usize;
    for ev in events {
        match ev.get("ph").and_then(Value::as_str) {
            Some("M") if ev.get("name").and_then(Value::as_str) == Some("thread_name") => {
                if ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    .is_none()
                {
                    return Ok(Err("thread_name metadata without a name".to_string()));
                }
                tracks += 1;
            }
            Some("X") => {
                let complete = ev.get("ts").and_then(Value::as_f64).is_some()
                    && ev.get("dur").and_then(Value::as_f64).is_some()
                    && ev.get("tid").and_then(Value::as_u64).is_some();
                if !complete {
                    return Ok(Err("complete event missing ts/dur/tid".to_string()));
                }
                spans += 1;
            }
            _ => {}
        }
    }
    if tracks < min_tracks {
        return Ok(Err(format!(
            "{tracks} thread tracks, need at least {min_tracks}"
        )));
    }
    if spans == 0 {
        return Ok(Err("no span events".to_string()));
    }
    Ok(Ok(tracks))
}
