//! `obs-diff` — the run-report regression gate.
//!
//! Compares two run reports (or a fresh smoke run against the committed
//! baseline under `results/baselines/`) with [`diff_reports`]: every row
//! value and counter must be identical, and only the gateway's p99 frame
//! latency is judged against a noise band (DESIGN.md §10).
//!
//! ```text
//! obs-diff <baseline.json> <candidate.json> [--inject-latency-regression]
//! obs-diff --smoke [--record] [--inject-ser-regression]
//!          [--baseline <path>] [--write-report <path>]
//! ```
//!
//! `--inject-latency-regression` doubles the candidate's
//! `p99_frame_latency_ms` before the diff — CI's negative test for the
//! gateway latency gate (a report without that metric is an error).
//! `--smoke` runs the deterministic smoke scenario (Nexus 5, 8-CSK,
//! 3 kHz, 0.4 s raw sweep over the standard seeds) and gates it against
//! `results/baselines/smoke.json`. `--record` rewrites that baseline
//! instead of gating. `--inject-ser-regression` corrupts the candidate's
//! SER before the diff — CI's negative test. `--write-report` also saves
//! the candidate report (rows + counters) for the doctor to consume.
//!
//! Exit codes: 0 — gate passed; 1 — a changed fact or a latency
//! regression; 2 — usage or I/O error.

use colorbars_bench::{devices, run_point, ResultRow, SweepMode};
use colorbars_core::CskOrder;
use colorbars_obs::diff::diff_reports;
use colorbars_obs::{self as obs, Value};
use std::process::ExitCode;

const DEFAULT_BASELINE: &str = "results/baselines/smoke.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(err) => {
            eprintln!("obs-diff: {err}");
            eprintln!(
                "usage: obs-diff <baseline.json> <candidate.json> [--inject-latency-regression]"
            );
            eprintln!(
                "       obs-diff --smoke [--record] [--inject-ser-regression] \
                 [--baseline <path>] [--write-report <path>]"
            );
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut smoke = false;
    let mut record = false;
    let mut inject = false;
    let mut inject_latency = false;
    let mut baseline_path: Option<String> = None;
    let mut write_report: Option<String> = None;
    let mut paths: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--record" => record = true,
            "--inject-ser-regression" => inject = true,
            "--inject-latency-regression" => inject_latency = true,
            "--baseline" => {
                baseline_path = Some(it.next().ok_or("--baseline needs a path")?.clone());
            }
            "--write-report" => {
                write_report = Some(it.next().ok_or("--write-report needs a path")?.clone());
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
            path => paths.push(path.to_string()),
        }
    }

    let (baseline, candidate) = if smoke {
        if !paths.is_empty() {
            return Err("--smoke takes no positional report paths".to_string());
        }
        if inject_latency {
            return Err("--inject-latency-regression needs two report paths".to_string());
        }
        let baseline_path = baseline_path.unwrap_or_else(|| DEFAULT_BASELINE.to_string());
        let mut report = smoke_run()?;
        if inject {
            worsen_metric(&mut report, "ser", |ser| ser * 10.0 + 0.25)?;
            eprintln!("obs-diff: injected a synthetic SER regression into the candidate");
        }
        if let Some(path) = &write_report {
            write_json(path, &report)?;
            eprintln!("obs-diff: candidate report written to {path}");
        }
        if record {
            if let Some(dir) = std::path::Path::new(&baseline_path).parent() {
                std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
            }
            write_json(&baseline_path, &report)?;
            println!("baseline recorded: {baseline_path}");
            return Ok(true);
        }
        let baseline = parse_file(&baseline_path)
            .map_err(|e| format!("{e} (run `obs-diff --smoke --record` to create the baseline)"))?;
        (baseline, report)
    } else {
        if record || inject || write_report.is_some() || baseline_path.is_some() {
            return Err(
                "--record/--inject-ser-regression/--write-report/--baseline need --smoke"
                    .to_string(),
            );
        }
        let [baseline, candidate] = paths.as_slice() else {
            return Err("need exactly a baseline and a candidate report".to_string());
        };
        let mut candidate = parse_file(candidate)?;
        if inject_latency {
            worsen_metric(&mut candidate, "p99_frame_latency_ms", |ms| 2.0 * ms)?;
            eprintln!("obs-diff: doubled the candidate's p99 frame latency");
        }
        (parse_file(baseline)?, candidate)
    };
    let diff = diff_reports(&baseline, &candidate)?;
    print!("{}", diff.render_text());
    Ok(diff.passed())
}

/// One deterministic operating point through the real sweep pool: the
/// simulation is seed-deterministic, so a rerun on unchanged code produces
/// an identical report.
fn smoke_run() -> Result<Value, String> {
    obs::init(obs::ObsConfig::from_env());
    obs::reset();
    obs::trace::register_thread("main");
    let (name, device) = &devices()[0];
    let order = CskOrder::Csk8;
    let rate = 3000.0;
    let metrics = run_point(order, rate, device, 0.4, SweepMode::Raw)
        .ok_or("smoke operating point is unrealizable")?;
    let row = ResultRow {
        experiment: "smoke".to_string(),
        device: name.to_string(),
        order: order.points(),
        rate_hz: rate,
        metrics,
    };
    let mut report = obs::RunReport::new("smoke");
    report.set_config(Value::object([
        ("mode", Value::from("raw")),
        ("seconds", Value::from(0.4)),
    ]));
    report.set_seeds(colorbars_bench::SEEDS);
    report.push_row(row.to_value());
    let doc = report.to_json();
    obs::flush();
    Ok(doc)
}

/// Rewrite `metric` in every row that carries it — the negative tests'
/// synthetic regressions. Errors when no row does, so a drill cannot pass
/// by injecting into nothing.
fn worsen_metric(report: &mut Value, metric: &str, worsen: fn(f64) -> f64) -> Result<(), String> {
    let Value::Object(map) = report else {
        return Err("candidate report is not an object".to_string());
    };
    let Some(Value::Array(rows)) = map.get_mut("rows") else {
        return Err("candidate report has no rows".to_string());
    };
    let mut rewritten = 0;
    for row in rows {
        let Value::Object(row) = row else { continue };
        let Some(Value::Object(metrics)) = row.get_mut("metrics") else {
            continue;
        };
        if let Some(value) = metrics.get(metric).and_then(Value::as_f64) {
            metrics.insert(metric.to_string(), Value::from(worsen(value)));
            rewritten += 1;
        }
    }
    if rewritten == 0 {
        return Err(format!("candidate report has no {metric} to inject into"));
    }
    Ok(())
}

fn parse_file(path: &str) -> Result<Value, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Value::parse(&body).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn write_json(path: &str, doc: &Value) -> Result<(), String> {
    let mut body = doc.to_pretty();
    body.push('\n');
    std::fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))
}
