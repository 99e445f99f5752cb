//! Run-report diffing: the regression gate behind `obs-diff`.
//!
//! Every simulated run is seed-deterministic (DESIGN.md §1): a rerun of
//! unchanged code reproduces its report exactly. So [`diff_reports`]
//! compares two `results/<experiment>.json` run reports (see
//! [`crate::report`]) by identity. Every value in `rows`, numbers as exact
//! `f64`s, and every counter (an absent one counts as 0) must match. A
//! value that changed, appeared or disappeared fails the gate, whichever
//! way it moved, because an unchanged simulation cannot move it.
//!
//! Identity skips what the clock or the scheduler decides:
//! - the counters under `camera.pool.`, since frame-pool traffic depends
//!   on thread scheduling;
//! - the row fields in `WALL_CLOCK_FIELDS`, at any depth of a row. Only
//!   their values are skipped: one that appears or disappears still fails.
//!
//! The gateway's p99 frame latency is the one wall-clock fact with a
//! gate. A row whose `metrics` carry `p99_frame_latency_ms` fails when the
//! candidate's p99 exceeds the baseline's by more than
//!
//! ```text
//! band = max( 4 · sqrt(s_base² + s_cand²) / sqrt(runs),   // session spread
//!             0.02 · max(|base|, |cand|),                 // relative floor
//!             15 ms )                                     // absolute floor
//! ```
//!
//! where `s` is the row's `p99_frame_latency_ms_std` across its `runs`
//! sessions. A faster candidate never fails.

use crate::json::Value;
use std::collections::BTreeSet;

/// Row fields whose values the wall clock decides: the gateway's latency
/// and session rate. Identity skips their values; the p99 has its band.
const WALL_CLOCK_FIELDS: &[&str] = &[
    "p99_frame_latency_ms",
    "p99_frame_latency_ms_std",
    "sessions_per_sec_per_core",
];

/// Counters whose values depend on thread scheduling.
const SCHEDULED_COUNTERS: &str = "camera.pool.";

/// The latency band, in standard errors of the difference of the two
/// session-averaged p99s.
const LATENCY_SIGMA: f64 = 4.0;
/// The latency band's floor relative to the larger p99.
const LATENCY_REL_FLOOR: f64 = 0.02;
/// The latency band's absolute floor. Ten `gateway --smoke` runs on a
/// 2-vCPU VM read a p99 of 20.2–29.1 ms (interquartile range 3.7 ms), so
/// the floor is 1.7 times that whole range, and a doubled p99 still fails.
const LATENCY_FLOOR_MS: f64 = 15.0;

/// The latency band's verdict on one row.
#[derive(Debug, Clone)]
struct LatencyDelta {
    row: usize,
    baseline: f64,
    candidate: f64,
    band: f64,
}

impl LatencyDelta {
    fn delta(&self) -> f64 {
        self.candidate - self.baseline
    }

    fn regressed(&self) -> bool {
        self.delta() > self.band
    }
}

/// The comparison of two run reports.
#[derive(Debug, Clone)]
pub struct ReportDiff {
    experiment: String,
    /// Each deterministic fact that differs, as `path: baseline -> candidate`.
    changed: Vec<String>,
    /// How many row values and counters identity compared.
    compared: usize,
    latency: Vec<LatencyDelta>,
}

impl ReportDiff {
    /// Whether the gate passes: no deterministic fact moved, and no p99
    /// rose past its band.
    pub fn passed(&self) -> bool {
        self.changed.is_empty() && !self.latency.iter().any(LatencyDelta::regressed)
    }

    /// Record every leaf under `path` where the two sides differ.
    fn compare(&mut self, path: &str, base: Option<&Value>, cand: Option<&Value>) {
        match (base, cand) {
            (Some(Value::Object(b)), Some(Value::Object(c))) => {
                for key in b.keys().chain(c.keys()).collect::<BTreeSet<_>>() {
                    let (bv, cv) = (b.get(key), c.get(key));
                    if WALL_CLOCK_FIELDS.contains(&key.as_str()) && bv.is_some() == cv.is_some() {
                        continue;
                    }
                    self.compare(&format!("{path}.{key}"), bv, cv);
                }
            }
            (Some(Value::Array(b)), Some(Value::Array(c))) => {
                for i in 0..b.len().max(c.len()) {
                    self.compare(&format!("{path}[{i}]"), b.get(i), c.get(i));
                }
            }
            _ => {
                self.compared += 1;
                if base != cand {
                    let show = |v: Option<&Value>| v.map_or("absent".into(), Value::to_compact);
                    self.changed
                        .push(format!("{path}: {} -> {}", show(base), show(cand)));
                }
            }
        }
    }

    /// Human-readable verdict.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "obs-diff — {}", self.experiment);
        for line in &self.changed {
            let _ = writeln!(out, "  CHANGED    {line}");
        }
        for d in &self.latency {
            let marker = if d.regressed() {
                "REGRESSION"
            } else if -d.delta() > d.band {
                "improved"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "  {marker:<10} rows[{}] p99 latency {:.3} -> {:.3} ms (delta {:+.3}, band {:.3})",
                d.row,
                d.baseline,
                d.candidate,
                d.delta(),
                d.band
            );
        }
        let _ = writeln!(
            out,
            "  gate: {} ({} of {} row values and counters changed; {} of {} p99s past the band)",
            if self.passed() { "PASS" } else { "FAIL" },
            self.changed.len(),
            self.compared,
            self.latency.iter().filter(|d| d.regressed()).count(),
            self.latency.len()
        );
        out
    }
}

/// Compare two parsed run reports.
///
/// Errors when either document is not a run report (no `"experiment"`, or
/// no `"counters"` object), or when the two are for different experiments.
pub fn diff_reports(baseline: &Value, candidate: &Value) -> Result<ReportDiff, String> {
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

    let mut diff = ReportDiff {
        experiment: cand_exp.to_string(),
        changed: Vec::new(),
        compared: 0,
        latency: Vec::new(),
    };
    let (base_rows, cand_rows) = (baseline.get("rows"), candidate.get("rows"));
    diff.compare("rows", base_rows, cand_rows);

    let base = crate::report::counters(baseline)?;
    let cand = crate::report::counters(candidate)?;
    let names: BTreeSet<&String> = base.keys().chain(cand.keys()).collect();
    for name in names {
        if name.starts_with(SCHEDULED_COUNTERS) {
            continue;
        }
        diff.compared += 1;
        let b = base.get(name).copied().unwrap_or(0);
        let c = cand.get(name).copied().unwrap_or(0);
        if b != c {
            diff.changed.push(format!("counters.{name}: {b} -> {c}"));
        }
    }

    let base_rows = base_rows.and_then(Value::as_array).unwrap_or_default();
    let cand_rows = cand_rows.and_then(Value::as_array).unwrap_or_default();
    for (row, (b, c)) in base_rows.iter().zip(cand_rows).enumerate() {
        if let (Some(b), Some(c)) = (b.get("metrics"), c.get("metrics")) {
            diff.latency.extend(latency_delta(row, b, c));
        }
    }
    Ok(diff)
}

/// The band verdict on one row's p99, when both sides' metrics carry one.
fn latency_delta(row: usize, base: &Value, cand: &Value) -> Option<LatencyDelta> {
    let num = |m: &Value, key: &str| m.get(key).and_then(Value::as_f64);
    let (baseline, candidate) = (
        num(base, "p99_frame_latency_ms")?,
        num(cand, "p99_frame_latency_ms")?,
    );
    let spread = |m: &Value| num(m, "p99_frame_latency_ms_std").unwrap_or(0.0);
    let runs = |m: &Value| num(m, "runs").unwrap_or(1.0).max(1.0);
    let stderr = spread(base).hypot(spread(cand)) / runs(base).min(runs(cand)).sqrt();
    let band = (LATENCY_SIGMA * stderr)
        .max(LATENCY_REL_FLOOR * baseline.abs().max(candidate.abs()))
        .max(LATENCY_FLOOR_MS);
    Some(LatencyDelta {
        row,
        baseline,
        candidate,
        band,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(ser: f64, goodput: f64) -> Value {
        Value::object([
            ("ser", Value::from(ser)),
            ("goodput_bps", Value::from(goodput)),
            ("ser_std", Value::from(0.01)),
            ("runs", Value::from(5u64)),
        ])
    }

    fn row(device: &str, m: Value) -> Value {
        Value::object([
            ("experiment", Value::from("unit")),
            ("device", Value::from(device)),
            ("order", Value::from(8u64)),
            ("rate_hz", Value::from(3000.0)),
            ("metrics", m),
        ])
    }

    fn report_with(rows: Vec<Value>, counters: Value) -> Value {
        Value::object([
            ("experiment", Value::from("unit")),
            ("rows", Value::Array(rows)),
            ("counters", counters),
        ])
    }

    fn report(rows: Vec<Value>) -> Value {
        report_with(
            rows,
            Value::object([
                ("rx.frames", Value::from(65u64)),
                ("camera.pool.misses", Value::from(30u64)),
            ]),
        )
    }

    fn nexus(ser: f64) -> Value {
        report(vec![row("Nexus 5", metrics(ser, 7000.0))])
    }

    /// A gateway-shaped report: one per-session row and the aggregate row.
    fn gateway(p99: f64, p99_std: f64, rate: Option<f64>, pool_misses: u64) -> Value {
        let mut m = metrics(0.0, 695.7);
        m.insert("p99_frame_latency_ms", Value::from(p99));
        m.insert("p99_frame_latency_ms_std", Value::from(p99_std));
        if let Some(rate) = rate {
            m.insert("sessions_per_sec_per_core", Value::from(rate));
        }
        let session = Value::object([
            ("session", Value::from("s0")),
            ("p99_frame_latency_ms", Value::from(p99 + 1.0)),
        ]);
        report_with(
            vec![session, row("Nexus 5", m)],
            Value::object([
                ("rx.frames", Value::from(104u64)),
                ("camera.pool.hits", Value::from(300 - pool_misses)),
                ("camera.pool.misses", Value::from(pool_misses)),
            ]),
        )
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let r = nexus(0.02);
        let diff = diff_reports(&r, &r).unwrap();
        assert!(diff.passed());
        assert!(diff.changed.is_empty());
        // Eight row leaves plus one counter; the pool counter is skipped.
        assert_eq!(diff.compared, 9);
        assert!(diff.render_text().contains("gate: PASS"));
    }

    #[test]
    fn a_nested_value_moved_by_its_last_bit_fails_either_way() {
        let ser = 0.02_f64;
        let next = f64::from_bits(ser.to_bits() + 1);
        for (base, cand) in [(ser, next), (next, ser)] {
            let diff = diff_reports(&nexus(base), &nexus(cand)).unwrap();
            assert!(!diff.passed());
            assert_eq!(
                diff.changed,
                [format!("rows[0].metrics.ser: {base} -> {cand}")]
            );
            let text = diff.render_text();
            assert!(text.contains("CHANGED    rows[0].metrics.ser"), "{text}");
            assert!(text.contains("gate: FAIL"), "{text}");
        }
    }

    #[test]
    fn a_changed_or_new_counter_fails_and_absent_counts_as_zero() {
        let with = |counters: Value| report_with(vec![], counters);
        let base = with(Value::object([
            ("rx.frames", Value::from(65u64)),
            ("rx.rs.errors_corrected", Value::from(0u64)),
        ]));
        let same = with(Value::object([("rx.frames", Value::from(65u64))]));
        assert!(diff_reports(&base, &same).unwrap().passed());
        let moved = with(Value::object([
            ("rx.frames", Value::from(64u64)),
            ("rx.eq.trained", Value::from(1u64)),
        ]));
        let diff = diff_reports(&base, &moved).unwrap();
        assert!(!diff.passed());
        assert_eq!(
            diff.changed,
            [
                "counters.rx.eq.trained: 0 -> 1",
                "counters.rx.frames: 65 -> 64"
            ]
        );
    }

    #[test]
    fn an_added_or_removed_row_fails() {
        let one = nexus(0.02);
        let two = report(vec![
            row("Nexus 5", metrics(0.02, 7000.0)),
            row("iPhone 5S", metrics(0.03, 6000.0)),
        ]);
        for (base, cand) in [(&two, &one), (&one, &two)] {
            let diff = diff_reports(base, cand).unwrap();
            assert!(!diff.passed());
            assert_eq!(diff.changed.len(), 1, "{}", diff.render_text());
            assert!(diff.changed[0].starts_with("rows[1]: "));
        }
        // A row of any shape is compared like any other.
        let note = |text: &str| report(vec![Value::object([("note", Value::from(text))])]);
        assert!(diff_reports(&note("a"), &note("a")).unwrap().passed());
        assert!(!diff_reports(&note("a"), &note("b")).unwrap().passed());
    }

    #[test]
    fn pool_counters_and_wall_clock_values_are_ignored() {
        let diff = diff_reports(
            &gateway(22.8, 5.5, Some(6.5), 54),
            &gateway(24.1, 3.2, Some(12.4), 62),
        )
        .unwrap();
        assert!(diff.passed(), "{}", diff.render_text());
        assert!(diff.changed.is_empty());
        assert_eq!(diff.latency.len(), 1);

        // A wall-clock field that disappears is a changed fact.
        let diff = diff_reports(
            &gateway(22.8, 5.5, Some(6.5), 54),
            &gateway(22.8, 5.5, None, 54),
        )
        .unwrap();
        assert_eq!(
            diff.changed,
            ["rows[1].metrics.sessions_per_sec_per_core: 6.5 -> absent"]
        );
    }

    #[test]
    fn p99_latency_is_gated_lower_is_better_with_a_wide_floor() {
        let verdict = |base: f64, cand: f64, std: f64| {
            let diff = diff_reports(
                &gateway(base, std, Some(6.5), 54),
                &gateway(cand, std, Some(6.5), 54),
            )
            .unwrap();
            assert!(diff.changed.is_empty(), "{}", diff.render_text());
            assert_eq!(diff.latency.len(), 1);
            diff
        };

        // A jump well past the absolute millisecond floor is a regression;
        // the same magnitude downward is an improvement.
        let slow = 40.0 + 2.0 * LATENCY_FLOOR_MS;
        let diff = verdict(40.0, slow, 1.0);
        assert!(!diff.passed());
        assert!(diff.render_text().contains("REGRESSION rows[1] p99"));
        let diff = verdict(slow, 40.0, 1.0);
        assert!(diff.passed());
        assert!(diff.render_text().contains("improved   rows[1] p99"));

        // Wall-clock jitter inside the millisecond floor passes, although
        // any move of a deterministic metric fails.
        let diff = verdict(40.0, 40.0 + 0.5 * LATENCY_FLOOR_MS, 1.0);
        assert!(diff.passed());
        assert!(diff.render_text().contains("ok         rows[1] p99"));

        // The session-spread term widens the band past the floor:
        // 4 · sqrt(2 · 10²) / sqrt(5) ≈ 25.3 ms.
        assert!(verdict(40.0, 65.0, 10.0).passed());
        assert!(!verdict(40.0, 66.0, 10.0).passed());

        // Reports without the latency column have nothing to band.
        let plain = nexus(0.02);
        assert!(diff_reports(&plain, &plain).unwrap().latency.is_empty());
    }

    #[test]
    fn mismatched_or_malformed_reports_error() {
        let a = report(vec![]);
        let mut b = report(vec![]);
        b.insert("experiment", Value::from("other"));
        assert!(diff_reports(&a, &b)
            .unwrap_err()
            .contains("different experiments"));
        assert!(diff_reports(&Value::Null, &a).is_err());
        let no_counters = Value::object([("experiment", Value::from("unit"))]);
        assert!(diff_reports(&a, &no_counters).is_err());
    }
}
