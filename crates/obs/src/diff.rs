//! Structural run-report diffing: the regression gate behind `obs-diff`.
//!
//! Two `results/<experiment>.json` run reports (see [`crate::report`]) are
//! compared row by row. Rows are matched on their operating point —
//! `(experiment, device, order, rate_hz)` — and each gated metric's delta
//! is classified as **improvement**, **noise**, or **regression** against a
//! statistically derived noise band.
//!
//! ## Noise-band policy
//!
//! The sweep harness averages every operating point over its seed set and
//! records per-seed sample standard deviations (`ser_std`,
//! `throughput_bps_std`, `goodput_bps_std`) plus the run count. The noise
//! band for a delta of means is
//!
//! ```text
//! band = max( sigma * sqrt(s_base² + s_cand²) / sqrt(runs),
//!             rel_floor * max(|base|, |cand|),
//!             abs_floor(metric) )
//! ```
//!
//! i.e. `sigma` standard errors of the difference of means, floored both
//! relatively (formatting/rounding jitter) and absolutely (metrics near
//! zero, where a relative band collapses). The simulation itself is
//! deterministic per seed, so a same-code rerun produces *identical* means
//! and always lands in the band; the band exists to absorb legitimate
//! numeric drift (reordered float accumulation, changed seed pools) without
//! letting a real shift through.
//!
//! Deltas outside the band are classified by direction: SER and loss move
//! *up* for a regression; throughput and goodput move *down*. A row present
//! in the baseline but missing from the candidate is a regression (coverage
//! loss); a new row is reported but never fails the gate.

use crate::json::Value;
use std::collections::{BTreeMap, BTreeSet};

/// Gated metrics: `(metric key, std key, higher_is_better)`.
const GATED_METRICS: &[(&str, &str, bool)] = &[
    ("ser", "ser_std", false),
    ("throughput_bps", "throughput_bps_std", true),
    ("goodput_bps", "goodput_bps_std", true),
    ("p99_frame_latency_ms", "p99_frame_latency_ms_std", false),
];

/// Noise-band parameters.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Band width in standard errors of the difference of means.
    pub sigma: f64,
    /// Relative floor on the band, as a fraction of the larger magnitude.
    pub rel_floor: f64,
    /// Absolute floor for rate-like metrics (bits/s).
    pub abs_floor_bps: f64,
    /// Absolute floor for ratio-like metrics (SER).
    pub abs_floor_ratio: f64,
    /// Absolute floor for latency-like metrics (milliseconds). Wall-clock
    /// tail latency jitters far more than the deterministic link metrics:
    /// ten `gateway --smoke` runs on a 2-vCPU VM read a p99 of 20.2–29.1 ms
    /// (interquartile range 3.7 ms), so the floor is 1.7 times that whole
    /// range, and a doubled p99 (~23 ms more) still fails the gate.
    pub abs_floor_ms: f64,
}

impl Default for DiffConfig {
    fn default() -> DiffConfig {
        DiffConfig {
            sigma: 4.0,
            rel_floor: 0.02,
            abs_floor_bps: 5.0,
            abs_floor_ratio: 0.002,
            abs_floor_ms: 15.0,
        }
    }
}

impl DiffConfig {
    fn abs_floor(&self, metric: &str) -> f64 {
        if metric.ends_with("_bps") {
            self.abs_floor_bps
        } else if metric.ends_with("_ms") {
            self.abs_floor_ms
        } else {
            self.abs_floor_ratio
        }
    }
}

/// Verdict for one metric at one operating point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaClass {
    /// Outside the noise band, in the good direction.
    Improvement,
    /// Within the noise band.
    Noise,
    /// Outside the noise band, in the bad direction.
    Regression,
}

impl DeltaClass {
    fn as_str(self) -> &'static str {
        match self {
            DeltaClass::Improvement => "improvement",
            DeltaClass::Noise => "noise",
            DeltaClass::Regression => "regression",
        }
    }
}

/// One classified metric delta.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    /// Operating-point key (`device/M-CSK/rate`).
    pub row: String,
    /// Metric name (`ser`, `throughput_bps`, `goodput_bps`).
    pub metric: &'static str,
    /// Baseline mean.
    pub baseline: f64,
    /// Candidate mean.
    pub candidate: f64,
    /// The noise band the delta was judged against.
    pub band: f64,
    /// The verdict.
    pub class: DeltaClass,
}

impl MetricDelta {
    /// Candidate − baseline.
    pub fn delta(&self) -> f64 {
        self.candidate - self.baseline
    }

    fn to_json(&self) -> Value {
        Value::object([
            ("row", Value::from(self.row.as_str())),
            ("metric", Value::from(self.metric)),
            ("baseline", Value::from(self.baseline)),
            ("candidate", Value::from(self.candidate)),
            ("delta", Value::from(self.delta())),
            ("band", Value::from(self.band)),
            ("class", Value::from(self.class.as_str())),
        ])
    }
}

/// The full structural diff of two run reports.
#[derive(Debug, Clone)]
pub struct ReportDiff {
    /// Experiment name (from the candidate report).
    pub experiment: String,
    /// All classified metric deltas, in row order.
    pub deltas: Vec<MetricDelta>,
    /// Operating points present only in the baseline (coverage loss —
    /// fails the gate).
    pub rows_only_in_baseline: Vec<String>,
    /// Operating points present only in the candidate (reported, never
    /// fails the gate).
    pub rows_only_in_candidate: Vec<String>,
    /// Rows skipped because they lack the `(device, order, rate_hz,
    /// metrics)` shape (free-form rows).
    pub rows_skipped: usize,
}

impl ReportDiff {
    /// Deltas classified as regressions.
    pub fn regressions(&self) -> impl Iterator<Item = &MetricDelta> {
        self.deltas
            .iter()
            .filter(|d| d.class == DeltaClass::Regression)
    }

    /// Whether the gate fails: any metric regression or any baseline row
    /// missing from the candidate.
    pub fn has_regressions(&self) -> bool {
        self.regressions().next().is_some() || !self.rows_only_in_baseline.is_empty()
    }

    /// Serialize the verdict.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("experiment", Value::from(self.experiment.as_str())),
            (
                "deltas",
                Value::Array(self.deltas.iter().map(MetricDelta::to_json).collect()),
            ),
            (
                "rows_only_in_baseline",
                Value::Array(
                    self.rows_only_in_baseline
                        .iter()
                        .map(|r| Value::from(r.as_str()))
                        .collect(),
                ),
            ),
            (
                "rows_only_in_candidate",
                Value::Array(
                    self.rows_only_in_candidate
                        .iter()
                        .map(|r| Value::from(r.as_str()))
                        .collect(),
                ),
            ),
            ("rows_skipped", Value::from(self.rows_skipped)),
            (
                "regressions",
                Value::from(self.regressions().count() as u64),
            ),
            ("gate_passed", Value::from(!self.has_regressions())),
        ])
    }

    /// Human-readable verdict table.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "obs-diff — {}", self.experiment);
        for d in &self.deltas {
            let marker = match d.class {
                DeltaClass::Regression => "REGRESSION",
                DeltaClass::Improvement => "improved",
                DeltaClass::Noise => "ok",
            };
            let _ = writeln!(
                out,
                "  {:<10} {:<28} {:<16} {:>12.4} -> {:>12.4}  (delta {:+.4}, band {:.4})",
                marker,
                d.row,
                d.metric,
                d.baseline,
                d.candidate,
                d.delta(),
                d.band
            );
        }
        for row in &self.rows_only_in_baseline {
            let _ = writeln!(out, "  REGRESSION {row:<28} row missing from candidate");
        }
        for row in &self.rows_only_in_candidate {
            let _ = writeln!(out, "  note       {row:<28} new row in candidate");
        }
        if self.rows_skipped > 0 {
            let _ = writeln!(out, "  ({} free-form rows not gated)", self.rows_skipped);
        }
        let verdict = if self.has_regressions() {
            "FAIL"
        } else {
            "PASS"
        };
        let _ = writeln!(
            out,
            "  gate: {} ({} regressions over {} gated deltas)",
            verdict,
            self.regressions().count() + self.rows_only_in_baseline.len(),
            self.deltas.len()
        );
        out
    }
}

/// One keyed row's gated metrics.
struct KeyedRow {
    key: String,
    metrics: BTreeMap<&'static str, (f64, f64)>, // metric -> (mean, std)
    runs: f64,
}

fn keyed_rows(report: &Value) -> (Vec<KeyedRow>, usize) {
    let mut rows = Vec::new();
    let mut skipped = 0;
    let Some(items) = report.get("rows").and_then(Value::as_array) else {
        return (rows, skipped);
    };
    for item in items {
        let device = item.get("device").and_then(Value::as_str);
        let order = item.get("order").and_then(Value::as_u64);
        let rate = item.get("rate_hz").and_then(Value::as_f64);
        let metrics = item.get("metrics");
        let (Some(device), Some(order), Some(rate), Some(metrics)) = (device, order, rate, metrics)
        else {
            skipped += 1;
            continue;
        };
        let mut gated = BTreeMap::new();
        for &(metric, std_key, _) in GATED_METRICS {
            let mean = metrics.get(metric).and_then(Value::as_f64);
            let std = metrics.get(std_key).and_then(Value::as_f64).unwrap_or(0.0);
            if let Some(mean) = mean {
                gated.insert(metric, (mean, std));
            }
        }
        let runs = metrics
            .get("runs")
            .and_then(Value::as_f64)
            .unwrap_or(1.0)
            .max(1.0);
        rows.push(KeyedRow {
            key: format!("{device}/{order}-CSK/{rate}Hz"),
            metrics: gated,
            runs,
        });
    }
    (rows, skipped)
}

/// Structurally diff two parsed run reports.
///
/// Errors when either document is not a run report (no `rows` array), or
/// when the two reports are for different experiments.
pub fn diff_reports(
    baseline: &Value,
    candidate: &Value,
    config: &DiffConfig,
) -> Result<ReportDiff, String> {
    let base_exp = baseline
        .get("experiment")
        .and_then(Value::as_str)
        .ok_or("baseline is not a run report (no \"experiment\")")?;
    let cand_exp = candidate
        .get("experiment")
        .and_then(Value::as_str)
        .ok_or("candidate is not a run report (no \"experiment\")")?;
    if base_exp != cand_exp {
        return Err(format!(
            "reports are for different experiments: {base_exp:?} vs {cand_exp:?}"
        ));
    }

    let (base_rows, base_skipped) = keyed_rows(baseline);
    let (cand_rows, cand_skipped) = keyed_rows(candidate);
    let base_by_key: BTreeMap<&str, &KeyedRow> =
        base_rows.iter().map(|r| (r.key.as_str(), r)).collect();
    let cand_by_key: BTreeMap<&str, &KeyedRow> =
        cand_rows.iter().map(|r| (r.key.as_str(), r)).collect();

    let mut deltas = Vec::new();
    let mut rows_only_in_baseline = Vec::new();
    for base in &base_rows {
        let Some(cand) = cand_by_key.get(base.key.as_str()) else {
            rows_only_in_baseline.push(base.key.clone());
            continue;
        };
        for &(metric, _, higher_is_better) in GATED_METRICS {
            let (Some(&(b_mean, b_std)), Some(&(c_mean, c_std))) =
                (base.metrics.get(metric), cand.metrics.get(metric))
            else {
                continue;
            };
            let runs = base.runs.min(cand.runs);
            let stderr = (b_std * b_std + c_std * c_std).sqrt() / runs.sqrt();
            let band = (config.sigma * stderr)
                .max(config.rel_floor * b_mean.abs().max(c_mean.abs()))
                .max(config.abs_floor(metric));
            let delta = c_mean - b_mean;
            let class = if delta.abs() <= band {
                DeltaClass::Noise
            } else if (delta > 0.0) == higher_is_better {
                DeltaClass::Improvement
            } else {
                DeltaClass::Regression
            };
            deltas.push(MetricDelta {
                row: base.key.clone(),
                metric,
                baseline: b_mean,
                candidate: c_mean,
                band,
                class,
            });
        }
    }
    let rows_only_in_candidate = cand_rows
        .iter()
        .filter(|r| !base_by_key.contains_key(r.key.as_str()))
        .map(|r| r.key.clone())
        .collect();

    Ok(ReportDiff {
        experiment: cand_exp.to_string(),
        deltas,
        rows_only_in_baseline,
        rows_only_in_candidate,
        rows_skipped: base_skipped + cand_skipped,
    })
}

/// Every counter whose value differs between two run reports, as
/// `name: baseline -> candidate` lines; an absent key counts as 0, and
/// names starting with `skip` are not compared. The stage ledgers of a
/// deterministic run must not move, so the smoke gate requires this empty.
pub fn counter_mismatches(
    baseline: &Value,
    candidate: &Value,
    skip: &str,
) -> Result<Vec<String>, String> {
    let base = crate::report::counters(baseline)?;
    let cand = crate::report::counters(candidate)?;
    let names: BTreeSet<&String> = base.keys().chain(cand.keys()).collect();
    Ok(names
        .into_iter()
        .filter(|name| !name.starts_with(skip))
        .filter_map(|name| {
            let b = base.get(name).copied().unwrap_or(0);
            let c = cand.get(name).copied().unwrap_or(0);
            (b != c).then(|| format!("{name}: {b} -> {c}"))
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(ser: f64, tput: f64, good: f64) -> Value {
        Value::object([
            ("ser", Value::from(ser)),
            ("throughput_bps", Value::from(tput)),
            ("goodput_bps", Value::from(good)),
            ("ser_std", Value::from(0.01)),
            ("throughput_bps_std", Value::from(20.0)),
            ("goodput_bps_std", Value::from(20.0)),
            ("runs", Value::from(5u64)),
        ])
    }

    fn row(device: &str, order: u64, rate: f64, m: Value) -> Value {
        Value::object([
            ("experiment", Value::from("unit")),
            ("device", Value::from(device)),
            ("order", Value::from(order)),
            ("rate_hz", Value::from(rate)),
            ("metrics", m),
        ])
    }

    fn report(rows: Vec<Value>) -> Value {
        Value::object([
            ("experiment", Value::from("unit")),
            ("rows", Value::Array(rows)),
        ])
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let r = report(vec![row(
            "Nexus 5",
            8,
            3000.0,
            metrics(0.02, 9000.0, 7000.0),
        )]);
        let diff = diff_reports(&r, &r, &DiffConfig::default()).unwrap();
        assert!(!diff.has_regressions());
        assert_eq!(diff.deltas.len(), 3);
        assert!(diff.deltas.iter().all(|d| d.class == DeltaClass::Noise));
        assert!(diff.render_text().contains("gate: PASS"));
    }

    #[test]
    fn ser_jump_is_a_regression_and_drop_an_improvement() {
        let base = report(vec![row(
            "Nexus 5",
            8,
            3000.0,
            metrics(0.02, 9000.0, 7000.0),
        )]);
        let worse = report(vec![row(
            "Nexus 5",
            8,
            3000.0,
            metrics(0.20, 9000.0, 7000.0),
        )]);
        let diff = diff_reports(&base, &worse, &DiffConfig::default()).unwrap();
        let ser = diff.deltas.iter().find(|d| d.metric == "ser").unwrap();
        assert_eq!(ser.class, DeltaClass::Regression);
        assert!(diff.has_regressions());
        assert!(diff.render_text().contains("REGRESSION"));

        // The same magnitude in the other direction is an improvement,
        // not a regression: the gate is direction-aware.
        let better = diff_reports(&worse, &base, &DiffConfig::default()).unwrap();
        let ser = better.deltas.iter().find(|d| d.metric == "ser").unwrap();
        assert_eq!(ser.class, DeltaClass::Improvement);
        assert!(!better.has_regressions());
    }

    #[test]
    fn throughput_drop_is_a_regression() {
        let base = report(vec![row(
            "Nexus 5",
            8,
            3000.0,
            metrics(0.02, 9000.0, 7000.0),
        )]);
        let cand = report(vec![row(
            "Nexus 5",
            8,
            3000.0,
            metrics(0.02, 7500.0, 7000.0),
        )]);
        let diff = diff_reports(&base, &cand, &DiffConfig::default()).unwrap();
        let tput = diff
            .deltas
            .iter()
            .find(|d| d.metric == "throughput_bps")
            .unwrap();
        assert_eq!(tput.class, DeltaClass::Regression);
    }

    #[test]
    fn per_seed_stddev_widens_the_band() {
        // Delta of 0.05 on SER: a regression with tight per-seed spread,
        // noise with a wide one.
        let tight = DiffConfig::default();
        let mut noisy_metrics = metrics(0.07, 9000.0, 7000.0);
        let base = report(vec![row(
            "Nexus 5",
            8,
            3000.0,
            metrics(0.02, 9000.0, 7000.0),
        )]);
        let cand_tight = report(vec![row("Nexus 5", 8, 3000.0, noisy_metrics.clone())]);
        let d = diff_reports(&base, &cand_tight, &tight).unwrap();
        assert!(d.has_regressions(), "0.05 over a ~0.018 band must fail");

        // Same means, per-seed std of 0.05 → band ≈ 4*sqrt(2*0.0025/5) ≈ 0.126.
        if let Value::Object(m) = &mut noisy_metrics {
            m.insert("ser_std".into(), Value::from(0.05));
        }
        let base_noisy = {
            let mut m = metrics(0.02, 9000.0, 7000.0);
            if let Value::Object(obj) = &mut m {
                obj.insert("ser_std".into(), Value::from(0.05));
            }
            report(vec![row("Nexus 5", 8, 3000.0, m)])
        };
        let cand_noisy = report(vec![row("Nexus 5", 8, 3000.0, noisy_metrics)]);
        let d = diff_reports(&base_noisy, &cand_noisy, &tight).unwrap();
        assert!(
            !d.has_regressions(),
            "wide per-seed spread absorbs the same delta: {}",
            d.render_text()
        );
    }

    #[test]
    fn missing_row_fails_the_gate_and_new_row_does_not() {
        let two = report(vec![
            row("Nexus 5", 8, 3000.0, metrics(0.02, 9000.0, 7000.0)),
            row("iPhone 5S", 8, 3000.0, metrics(0.03, 8000.0, 6000.0)),
        ]);
        let one = report(vec![row(
            "Nexus 5",
            8,
            3000.0,
            metrics(0.02, 9000.0, 7000.0),
        )]);
        let shrink = diff_reports(&two, &one, &DiffConfig::default()).unwrap();
        assert!(shrink.has_regressions());
        assert_eq!(shrink.rows_only_in_baseline, vec!["iPhone 5S/8-CSK/3000Hz"]);

        let grow = diff_reports(&one, &two, &DiffConfig::default()).unwrap();
        assert!(!grow.has_regressions());
        assert_eq!(grow.rows_only_in_candidate, vec!["iPhone 5S/8-CSK/3000Hz"]);
    }

    #[test]
    fn free_form_rows_are_skipped_not_fatal() {
        let r = report(vec![
            row("Nexus 5", 8, 3000.0, metrics(0.02, 9000.0, 7000.0)),
            Value::object([("note", Value::from("free-form"))]),
        ]);
        let diff = diff_reports(&r, &r, &DiffConfig::default()).unwrap();
        assert!(!diff.has_regressions());
        assert_eq!(diff.rows_skipped, 2); // one per side
        assert!(diff.render_text().contains("not gated"));
    }

    #[test]
    fn p99_latency_is_gated_lower_is_better_with_a_wide_floor() {
        let with_latency = |ms: f64| {
            let mut m = metrics(0.02, 9000.0, 7000.0);
            if let Value::Object(obj) = &mut m {
                obj.insert("p99_frame_latency_ms".into(), Value::from(ms));
                obj.insert("p99_frame_latency_ms_std".into(), Value::from(1.0));
            }
            report(vec![row("Nexus 5", 8, 3000.0, m)])
        };
        let base = with_latency(40.0);

        // A jump well past the absolute millisecond floor is a regression;
        // the same magnitude downward is an improvement.
        let slow = with_latency(40.0 + 2.0 * DiffConfig::default().abs_floor_ms);
        let diff = diff_reports(&base, &slow, &DiffConfig::default()).unwrap();
        let lat = diff
            .deltas
            .iter()
            .find(|d| d.metric == "p99_frame_latency_ms")
            .unwrap();
        assert_eq!(lat.class, DeltaClass::Regression);
        let diff = diff_reports(&slow, &base, &DiffConfig::default()).unwrap();
        let lat = diff
            .deltas
            .iter()
            .find(|d| d.metric == "p99_frame_latency_ms")
            .unwrap();
        assert_eq!(lat.class, DeltaClass::Improvement);

        // Wall-clock jitter inside the millisecond floor is noise, even
        // though the same relative move on SER would fail the gate.
        let jitter = with_latency(40.0 + 0.5 * DiffConfig::default().abs_floor_ms);
        let diff = diff_reports(&base, &jitter, &DiffConfig::default()).unwrap();
        let lat = diff
            .deltas
            .iter()
            .find(|d| d.metric == "p99_frame_latency_ms")
            .unwrap();
        assert_eq!(lat.class, DeltaClass::Noise);
        assert!(!diff.has_regressions());

        // Reports without the latency column still diff cleanly (the
        // metric is optional, not required).
        let plain = report(vec![row(
            "Nexus 5",
            8,
            3000.0,
            metrics(0.02, 9000.0, 7000.0),
        )]);
        let diff = diff_reports(&plain, &plain, &DiffConfig::default()).unwrap();
        assert_eq!(diff.deltas.len(), 3);
    }

    #[test]
    fn mismatched_or_malformed_reports_error() {
        let a = report(vec![]);
        let mut b = report(vec![]);
        if let Value::Object(m) = &mut b {
            m.insert("experiment".into(), Value::from("other"));
        }
        assert!(diff_reports(&a, &b, &DiffConfig::default())
            .unwrap_err()
            .contains("different experiments"));
        assert!(diff_reports(&Value::Null, &a, &DiffConfig::default()).is_err());
    }

    #[test]
    fn counter_mismatches_treat_absent_as_zero_and_honor_the_skip_prefix() {
        let with = |counters: Value| {
            Value::object([("experiment", Value::from("unit")), ("counters", counters)])
        };
        let base = with(Value::object([
            ("rx.frames", Value::from(65u64)),
            ("rx.rs.errors_corrected", Value::from(0u64)),
            ("camera.pool.misses", Value::from(30u64)),
        ]));
        let same = with(Value::object([
            ("rx.frames", Value::from(65u64)),
            ("camera.pool.misses", Value::from(41u64)),
            ("camera.pool.hits", Value::from(300u64)),
        ]));
        assert!(counter_mismatches(&base, &same, "camera.pool.")
            .unwrap()
            .is_empty());
        let moved = with(Value::object([
            ("rx.frames", Value::from(64u64)),
            ("rx.eq.trained", Value::from(1u64)),
        ]));
        assert_eq!(
            counter_mismatches(&base, &moved, "camera.pool.").unwrap(),
            ["rx.eq.trained: 0 -> 1", "rx.frames: 65 -> 64"]
        );
        assert!(counter_mismatches(&base, &report(vec![]), "camera.pool.").is_err());
    }

    #[test]
    fn diff_serializes_with_verdict() {
        let base = report(vec![row(
            "Nexus 5",
            8,
            3000.0,
            metrics(0.02, 9000.0, 7000.0),
        )]);
        let cand = report(vec![row(
            "Nexus 5",
            8,
            3000.0,
            metrics(0.30, 9000.0, 7000.0),
        )]);
        let diff = diff_reports(&base, &cand, &DiffConfig::default()).unwrap();
        let doc = diff.to_json().to_pretty();
        let parsed = Value::parse(&doc).unwrap();
        assert_eq!(parsed.get("gate_passed"), Some(&Value::Bool(false)));
        assert_eq!(parsed.get("regressions").and_then(Value::as_u64), Some(1));
    }
}
