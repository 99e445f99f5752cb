//! Metric names, units and the one-line JSON result.

use crate::reference::REFERENCE_S;
use colorbars_obs::Value;
use std::collections::BTreeMap;

/// Metrics of an untraced run (`--trace 0`): what a user of the link sees.
/// Every workload reports every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("frames_per_s", "frames/s"),
    ("goodput_bps", "bit/s"),
    ("packet_delivery", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Metrics of a traced run (`--trace 1`): one layer each. The open-loop
/// session metrics are in frame periods (33.3 ms), and read 0 in the
/// workloads that run no session.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("transmitter.transmit_ms", "ms"),
    ("camera.settle_exposure_ms", "ms"),
    ("camera.capture_frame_ms", "ms"),
    ("camera.pool_misses_steady", "count"),
    ("receiver.process_frame_p50_ms", "ms"),
    ("receiver.process_frame_p99_ms", "ms"),
    ("segmentation.row_signal_ms", "ms"),
    ("segmentation.segment_ms", "ms"),
    ("classify.frame_ms", "ms"),
    ("classify.ser", "ratio"),
    ("equalizer.fit_ms", "ms"),
    ("equalizer.fits", "count"),
    ("depacket.push_frame_ms", "ms"),
    ("rscode.decode_us", "us"),
    ("rscode.erasures_per_codeword", "count"),
    ("fec.codewords", "count"),
    ("fec.recovered_by_interleave", "count"),
    ("receiver.packet_ok_ratio", "ratio"),
    ("receiver.calibration_ok_ratio", "ratio"),
    ("receiver.bands_per_frame", "count"),
    ("receiver.closure_ratio", "ratio"),
    ("receiver.unattributed_ms", "ms"),
    ("session.latency_p50", "frame"),
    ("session.latency_p99", "frame"),
    ("session.queue_wait_p50", "frame"),
    ("session.queue_wait_p99", "frame"),
    ("session.service_p50", "frame"),
    ("session.push_blocked", "count"),
    ("bench.generator_lag_p99", "frame"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Units of work tried: frames (decode workloads) or link runs (sweep).
    pub attempted: u64,
    /// Units whose output check failed.
    pub failed: u64,
    /// Every failed output check, for stderr.
    pub failures: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Count `units` of work as failed with a reason.
    pub fn fail(&mut self, units: u64, why: String) {
        self.failed += units;
        self.failures.push(why);
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The result line: every metric of `wanted` with its unit. Errors if
    /// the workload did not measure one of them (a bug in the benchmark).
    pub fn to_json(&self, wanted: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = Value::object(Vec::<(String, Value)>::new());
        for (name, unit) in wanted {
            let value = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            metrics.insert(
                *name,
                Value::object([("value", Value::from(value)), ("unit", Value::from(*unit))]),
            );
        }
        Ok(Value::object([
            ("correct", Value::from(self.correct())),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            ("metrics", metrics),
        ])
        .to_compact())
    }
}

/// Frames a decode unit spans: a clip's frames are timed in segments of
/// this many, and each segment is a unit of [`Units`].
pub const SEGMENT_FRAMES: usize = 8;

/// Work repeated identically, cut into units (a clip segment, a sweep
/// run) that every repetition times in the same order, each beside a run
/// of the [reference kernel](crate::reference).
#[derive(Debug, Clone, Default)]
pub struct Units {
    /// Per unit, per repetition: the unit's time over the reference time.
    scaled: Vec<Vec<f64>>,
}

impl Units {
    /// Add one repetition: each unit's seconds and the reference kernel's
    /// seconds beside it.
    pub fn push_rep(&mut self, rep: &[(f64, f64)]) {
        if self.scaled.len() < rep.len() {
            self.scaled.resize_with(rep.len(), Vec::new);
        }
        for (unit, &(seconds, reference)) in self.scaled.iter_mut().zip(rep) {
            unit.push(seconds / reference);
        }
    }

    /// One repetition's time at the reference host speed, seconds: the sum
    /// over units of each unit's median scaled time.
    pub fn seconds(&self) -> f64 {
        let scaled: f64 = self.scaled.iter().map(|s| median(s)).sum();
        scaled * REFERENCE_S
    }
}

/// Frames per second at the reference host speed: `frames` per repetition
/// over the sum of every unit's median time, each unit's time first scaled
/// by the reference kernel's time beside it. The scaling cancels the host's
/// speed, which on a shared machine drifts by half between minutes; a
/// change to this program's code moves the unit times and not the
/// reference. Across ten runs the scaled rate spread by about 0.04 where
/// raw rates spread by 0.14–0.28 (README.md, Measured noise).
pub fn normalized_rate(frames: usize, units: &[Units]) -> f64 {
    ratio(frames as f64, units.iter().map(Units::seconds).sum())
}

/// Nearest-rank percentile (`q` in 0..=1); 0 for no samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The mean over links of each link's percentile. Links differ in frame
/// height, so their frame times form separate modes; a percentile of the
/// pooled samples would jump between modes.
pub fn per_link(samples: &[Vec<f64>], q: f64) -> f64 {
    let filled: Vec<f64> = samples
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| percentile(s, q))
        .collect();
    ratio(filled.iter().sum(), filled.len() as f64)
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
