//! Machine-readable run reports: `results/<experiment>.json`.
//!
//! Every bench binary builds one [`RunReport`] per run and writes it next
//! to its stdout table. The file carries everything a later session needs
//! to diff two runs or chase a regression: the experiment's result rows,
//! the configuration and seeds it ran with, the full pipeline-stage counter
//! set, and the span timing histograms. This is the `BENCH_*.json`-style
//! perf trajectory the roadmap requires before any optimization PR can
//! prove its claims.
//!
//! ## Schema (version 2)
//!
//! ```json
//! {
//!   "schema_version": 2,
//!   "experiment": "raw_grid",
//!   "created_unix_ms": 1754512345678,
//!   "config": { ... },              // free-form experiment parameters
//!   "seeds": [7, 21, 63, 105, 177],
//!   "rows": [ ... ],                // one object per printed table cell/row
//!   "spans": [ {"name", "labels", "count", "sum_ms", "min_ms",
//!               "max_ms", "p50_ms", "p99_ms"} ],  // unlabeled histograms
//!   "counters": { "rx.packets.ok": 123, ... },   // unlabeled, global registry
//!   "gauges": { "bench.pool.threads": 2, ... }    // unlabeled, global registry
//! }
//! ```

use crate::json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Current report schema version.
pub const SCHEMA_VERSION: u64 = 2;

/// A run report under construction.
#[derive(Debug, Clone)]
pub struct RunReport {
    experiment: String,
    config: Value,
    seeds: Vec<u64>,
    rows: Vec<Value>,
}

impl RunReport {
    /// Start a report for `experiment` (the `results/<experiment>.json`
    /// stem).
    pub fn new(experiment: &str) -> RunReport {
        RunReport {
            experiment: experiment.to_string(),
            config: Value::object::<&str, _>([]),
            seeds: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// The experiment name.
    pub fn experiment(&self) -> &str {
        &self.experiment
    }

    /// Attach the experiment's configuration (free-form object).
    pub fn set_config(&mut self, config: Value) {
        self.config = config;
    }

    /// Record the capture seeds the run averaged over.
    pub fn set_seeds<I: IntoIterator<Item = u64>>(&mut self, seeds: I) {
        self.seeds = seeds.into_iter().collect();
    }

    /// Append one result row (one object per printed table row/cell).
    pub fn push_row(&mut self, row: Value) {
        self.rows.push(row);
    }

    /// Number of rows recorded so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether any rows have been recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Assemble the full report document: rows + config + a snapshot of
    /// the global registry.
    pub fn to_json(&self) -> Value {
        let snap = crate::snapshot();
        Value::object([
            ("schema_version", Value::from(SCHEMA_VERSION)),
            ("experiment", Value::from(self.experiment.as_str())),
            ("created_unix_ms", Value::from(unix_ms())),
            ("config", self.config.clone()),
            (
                "seeds",
                Value::Array(self.seeds.iter().map(|&s| Value::from(s)).collect()),
            ),
            ("rows", Value::Array(self.rows.clone())),
            (
                "spans",
                Value::Array(snap.histograms.iter().map(|h| h.to_json()).collect()),
            ),
            (
                "counters",
                Value::object(
                    snap.counters
                        .iter()
                        .map(|c| (c.id.name.as_str(), Value::from(c.value))),
                ),
            ),
            (
                "gauges",
                Value::object(
                    snap.gauges
                        .iter()
                        .map(|g| (g.id.name.as_str(), Value::from(g.value))),
                ),
            ),
        ])
    }

    /// Write `dir/<experiment>.json` (pretty-printed, trailing newline) and
    /// return the path. Creates `dir` if needed.
    pub fn write_to_dir<P: AsRef<Path>>(&self, dir: P) -> std::io::Result<PathBuf> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.experiment));
        let mut body = self.to_json().to_pretty();
        body.push('\n');
        std::fs::write(&path, body)?;
        Ok(path)
    }
}

/// A parsed run report's `"counters"` member, by name.
pub fn counters(report: &Value) -> Result<BTreeMap<String, u64>, String> {
    let counters = report
        .get("counters")
        .and_then(Value::as_object)
        .ok_or("report has no \"counters\" object")?;
    counters
        .iter()
        .map(|(name, value)| {
            let v = value
                .as_u64()
                .ok_or_else(|| format!("counter {name:?} is not a non-negative integer"))?;
            Ok((name.clone(), v))
        })
        .collect()
}

fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;
    use std::collections::BTreeSet;

    #[test]
    fn report_includes_rows_config_and_registries() {
        let _guard = test_lock::hold();
        crate::init(crate::ObsConfig::default());
        crate::reset();
        crate::counter!("test.report.counter", 5);
        {
            let _s = crate::span!("test.report.span");
        }

        let mut report = RunReport::new("unit_report");
        report.set_config(Value::object([("rate_hz", Value::from(3000u64))]));
        report.set_seeds([7, 21]);
        report.push_row(Value::object([("ser", Value::from(0.01))]));
        assert_eq!(report.len(), 1);

        let doc = report.to_json().to_pretty();
        assert!(doc.contains("\"schema_version\": 2"));
        assert!(doc.contains("\"experiment\": \"unit_report\""));
        assert!(doc.contains("\"test.report.counter\": 5"));
        assert!(doc.contains("\"test.report.span\""));
        assert!(doc.contains("\"rate_hz\": 3000"));
        assert!(doc.contains("\"ser\": 0.01"));
        crate::disable();
    }

    #[test]
    fn report_writes_results_file() {
        let _guard = test_lock::hold();
        crate::init(crate::ObsConfig::default());
        crate::reset();
        let dir = std::env::temp_dir().join("colorbars_obs_report_test");
        let report = RunReport::new("write_test");
        let path = report.write_to_dir(&dir).expect("report written");
        assert!(path.ends_with("write_test.json"));
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with('{'));
        assert!(body.ends_with("}\n"));
        let _ = std::fs::remove_dir_all(&dir);
        crate::disable();
    }

    #[test]
    fn report_keys_are_exactly_the_documented_schema() {
        let doc = RunReport::new("schema").to_json();
        let keys: BTreeSet<&str> = doc
            .as_object()
            .expect("report is an object")
            .keys()
            .map(String::as_str)
            .collect();
        let documented = BTreeSet::from([
            "schema_version",
            "experiment",
            "created_unix_ms",
            "config",
            "seeds",
            "rows",
            "spans",
            "counters",
            "gauges",
        ]);
        assert_eq!(keys, documented);
        assert_eq!(doc.get("schema_version").and_then(Value::as_u64), Some(2));
    }
}
