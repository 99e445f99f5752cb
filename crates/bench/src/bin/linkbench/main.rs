//! linkbench: the ColorBars frame-to-bytes benchmark, with a per-layer
//! decode budget.
//!
//! ```text
//! linkbench --workload <decode_batch|stream_realtime|sweep_fig9|all>
//!           [--seed <u64>] [--seconds <s>] [--trace [0|1]] [--smoke]
//! ```
//!
//! Each workload runs in its own process (`all` runs this program once per
//! workload) and prints, as its last line of standard output, one JSON
//! object: `correct`, `attempted`, `failed`, and `metrics` — every
//! end-to-end metric, or with `--trace 1` every per-layer metric, each with
//! its unit. The traced run also writes its spans to
//! `$COLORBARS_RESULTS_DIR/linkbench/<workload>.trace.json` (default
//! `results/`). The program exits non-zero when an output check fails.
//! README.md in this directory defines every workload and metric.

#![forbid(unsafe_code)]

mod batch;
mod decode;
mod links;
mod metrics;
mod reference;
mod stream;
mod sweep;
mod trace;

use metrics::{peak_rss_mb, Outcome, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use trace::Trace;

const WORKLOADS: [&str; 3] = ["decode_batch", "stream_realtime", "sweep_fig9"];
/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 7;
const DEFAULT_SECONDS: f64 = 24.0;
const SMOKE_SECONDS: f64 = 0.5;

const USAGE: &str = "usage: linkbench --workload <decode_batch|stream_realtime|sweep_fig9|all> \
                     [--seed <u64>] [--seconds <s>] [--trace [0|1]] [--smoke]";

/// How one workload run is sized.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    /// How long the timed part runs, seconds.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    /// Tiny inputs: all three workloads finish within seconds.
    pub smoke: bool,
}

impl Options {
    /// Set-up repetitions; `setup_s` is their median.
    pub fn setup_reps(&self) -> u64 {
        if self.smoke {
            2
        } else {
            3
        }
    }
}

fn parse(args: &[String]) -> Result<(String, Options), String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?.clone()),
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} out of range (0, 3600]"));
                }
                seconds = Some(s);
            }
            // `--trace` alone means `--trace 1`.
            "--trace" => {
                trace = it
                    .next_if(|v| *v == "0" || *v == "1")
                    .is_none_or(|v| v == "1")
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let default = if smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    };
    let options = Options {
        seed,
        seconds: seconds.unwrap_or(default),
        trace,
        smoke,
    };
    Ok((workload, options))
}

/// Run one workload in this process.
pub fn run_workload(name: &str, opts: &Options) -> Result<(Outcome, Trace), String> {
    let mut trace = Trace::new(opts.trace);
    let mut out = match name {
        "decode_batch" => batch::run(opts, &mut trace)?,
        "stream_realtime" => stream::run(opts, &mut trace)?,
        "sweep_fig9" => sweep::run(opts, &mut trace)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    out.set("peak_rss_mb", peak_rss_mb()?);
    Ok((out, trace))
}

fn trace_path(workload: &str) -> PathBuf {
    let results = std::env::var("COLORBARS_RESULTS_DIR").unwrap_or_else(|_| "results".into());
    PathBuf::from(results)
        .join("linkbench")
        .join(format!("{workload}.trace.json"))
}

fn run_one(workload: &str, opts: &Options) -> Result<bool, String> {
    let (out, trace) = run_workload(workload, opts)?;
    if opts.trace {
        trace.write_chrome(&trace_path(workload))?;
    }
    for why in &out.failures {
        eprintln!("linkbench {workload}: check failed: {why}");
    }
    println!(
        "{}",
        out.to_json(if opts.trace { PER_LAYER } else { END_TO_END })?
    );
    Ok(out.correct())
}

/// `--workload all`: this program once per workload, each in its own process.
fn run_all(opts: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate linkbench: {e}"))?;
    let mut ok = true;
    for workload in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }]);
        if opts.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd
            .status()
            .map_err(|e| format!("cannot run {workload}: {e}"))?;
        ok &= status.success();
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("linkbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Inputs come from the seed alone: pin the capture path to the
    // program's default rather than whatever the environment selects.
    std::env::remove_var("COLORBARS_CAPTURE_F32");
    let result = if workload == "all" {
        run_all(&opts)
    } else {
        run_one(&workload, &opts)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("linkbench {workload}: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colorbars_obs::Value;

    /// `(name, unit)` of every metric of one kind in BENCHMARK.json.
    fn declared(kind: &str) -> Vec<(String, String)> {
        let doc = Value::parse(include_str!("../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let field = |m: &Value, key: &str| {
            m.get(key)
                .and_then(Value::as_str)
                .unwrap_or_else(|| panic!("{kind} entry without {key}"))
                .to_string()
        };
        doc.get(kind)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {kind}"))
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    fn smoke(workload: &str, seed: u64, trace: bool) -> (Outcome, Trace) {
        let opts = Options {
            seed,
            seconds: SMOKE_SECONDS,
            trace,
            smoke: true,
        };
        let (out, trace) = run_workload(workload, &opts).expect("smoke run");
        assert!(out.correct(), "{workload}: {:?}", out.failures);
        assert!(out.attempted > 0 && out.failed == 0, "{workload}");
        (out, trace)
    }

    #[test]
    fn smoke_reports_every_declared_metric_with_its_unit() {
        for (kind, traced, ours) in [
            ("end_to_end", false, END_TO_END),
            ("per_layer", true, PER_LAYER),
        ] {
            let declared = declared(kind);
            let ours: Vec<(String, String)> = ours
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(
                declared, ours,
                "BENCHMARK.json {kind} and linkbench disagree"
            );
            for (name, _) in &declared {
                assert!(
                    name.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "metric name {name:?}"
                );
            }
            for workload in WORKLOADS {
                let (out, trace) = smoke(workload, DEFAULT_SEED, traced);
                let line = out.to_json(if traced { PER_LAYER } else { END_TO_END });
                let line = Value::parse(&line.expect("every metric measured")).expect("JSON");
                let metrics = line.get("metrics").expect("metrics object");
                for (name, unit) in &declared {
                    let m = metrics
                        .get(name)
                        .unwrap_or_else(|| panic!("{workload}: {name} missing"));
                    let value = m.get("value").and_then(Value::as_f64);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{workload}: {name} = {value:?}"
                    );
                    assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
                }
                if traced {
                    let name = format!("linkbench-{}-{workload}.json", std::process::id());
                    let path = std::env::temp_dir().join(name);
                    trace.write_chrome(&path).expect("trace written");
                    let doc = Value::parse(&std::fs::read_to_string(&path).expect("trace read"))
                        .expect("trace is JSON");
                    let events = doc
                        .get("traceEvents")
                        .and_then(Value::as_array)
                        .expect("events");
                    assert!(events
                        .iter()
                        .any(|e| e.get("name").and_then(Value::as_str) == Some("thread_name")));
                    let _ = std::fs::remove_file(path);
                }
            }
        }
    }

    #[test]
    fn seed_fixes_the_exact_metrics_and_another_seed_passes_the_checks() {
        let exact = |out: &Outcome| -> Vec<f64> {
            ["goodput_bps", "packet_delivery", "classify.ser"]
                .iter()
                .map(|n| out.values[n])
                .collect()
        };
        let (a, _) = smoke("decode_batch", DEFAULT_SEED, false);
        let (b, _) = smoke("decode_batch", DEFAULT_SEED, false);
        assert_eq!(exact(&a), exact(&b), "same seed, same exact metrics");
        smoke("decode_batch", DEFAULT_SEED + 1, false);
    }

    #[test]
    fn arguments_parse_in_both_trace_forms() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let (w, o) = parse(&args(
            "--workload sweep_fig9 --seed 9 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (w.as_str(), o.seed, o.seconds, o.trace),
            ("sweep_fig9", 9, 3.0, true)
        );
        let (_, o) = parse(&args("--workload all --trace --smoke")).unwrap();
        assert!(o.trace && o.smoke && o.seconds == SMOKE_SECONDS);
        let (_, o) = parse(&args("--workload decode_batch --trace 0")).unwrap();
        assert!(!o.trace && o.seed == DEFAULT_SEED);
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--seed 1")).is_err());
    }
}
