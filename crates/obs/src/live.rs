//! Live telemetry plane: lock-cheap registries you can read mid-run.
//!
//! This is the crate's one counter/gauge/histogram implementation. The
//! process-wide [`global`] registry backs [`counter!`](crate::counter)
//! and [`span!`](crate::span!) and is what run reports, flight dumps and
//! the gateway's snapshots read; a streaming gateway reads it *while*
//! decode sessions are in flight, without stopping the writers. The plane:
//!
//! * [`Registry`] — a clonable handle store of named, labeled instruments.
//!   Instrument handles ([`Counter`], [`Gauge`], [`LatencyHistogram`]) are
//!   resolved once (one mutex hit) and from then on every write is a
//!   handful of relaxed atomic operations. Writes are gated on
//!   [`crate::is_enabled`], so the disabled path is exactly one relaxed
//!   atomic load — the same contract as `counter!`. Counter *sources*
//!   ([`Registry::counter_source`]) are read at snapshot time from state
//!   that lives elsewhere (the camera pool's hit/miss atomics, the journey
//!   ring's totals), so no code copies those facts in.
//! * Latency histograms — log-spaced buckets (4 per octave, ≤ ~19 %
//!   quantile error) with exact count/sum/min/max, for p50/p99
//!   frame-to-bytes latency and per-stage span timings.
//! * [`LiveSnapshot`] — a consistent point-in-time read of every
//!   instrument, taken without blocking writers. Its one serialization,
//!   [`LiveSnapshot::to_json`], is the line format of the gateway's
//!   `COLORBARS_OBS_LIVE` stream, which `doctor --live` reads.

use crate::json::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Latency histogram bucket count: 4 buckets per octave over
/// 2^-10 ms (≈1 µs) … 2^30 ms, clamped at the ends.
const HIST_BUCKETS: usize = 160;
/// Sub-buckets per octave (power of two) in the latency histogram.
const HIST_PER_OCTAVE: f64 = 4.0;
/// Index offset so bucket 0 starts at 2^-10 ms.
const HIST_OFFSET: f64 = 40.0;

// --- Metric identity ------------------------------------------------------

/// A metric's identity: dotted name plus sorted `(label, value)` pairs.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MetricId {
    /// Dotted lowercase metric name (`rx.frames`).
    pub name: String,
    /// Label pairs, kept sorted by label name.
    pub labels: Vec<(String, String)>,
}

impl MetricId {
    /// Build an id; labels are sorted so `[("a","1"),("b","2")]` and
    /// `[("b","2"),("a","1")]` are the same metric.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> MetricId {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricId {
            name: name.to_string(),
            labels,
        }
    }

    /// The value of a label, if present.
    pub fn label(&self, name: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn labels_json(&self) -> Value {
        Value::object(
            self.labels
                .iter()
                .map(|(k, v)| (k.as_str(), Value::from(v.as_str()))),
        )
    }
}

// --- Instruments ----------------------------------------------------------

/// A monotonic counter. Clonable handle; all clones share one cell.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add 1 (no-op while observability is disabled).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n` (no-op while observability is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if !crate::is_enabled() {
            return;
        }
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge holding one `f64` (stored as bits in an atomic). Clonable.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the gauge (no-op while observability is disabled).
    #[inline]
    pub fn set(&self, v: f64) {
        if !crate::is_enabled() {
            return;
        }
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add `delta` (no-op while observability is disabled).
    #[inline]
    pub fn add(&self, delta: f64) {
        if !crate::is_enabled() {
            return;
        }
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + delta).to_bits())
            });
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A latency histogram with log-spaced buckets (milliseconds domain).
/// Clonable handle; all clones share the buckets.
#[derive(Debug, Clone)]
pub struct LatencyHistogram(Arc<HistInner>);

#[derive(Debug)]
struct HistInner {
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    /// f64 bits, CAS-accumulated.
    sum_ms: AtomicU64,
    /// f64 bits.
    min_ms: AtomicU64,
    /// f64 bits.
    max_ms: AtomicU64,
}

fn hist_bucket(ms: f64) -> usize {
    if ms.is_nan() || ms <= 0.0 {
        return 0;
    }
    let idx = (ms.log2() * HIST_PER_OCTAVE).floor() + HIST_OFFSET;
    idx.clamp(0.0, (HIST_BUCKETS - 1) as f64) as usize
}

/// Geometric midpoint of a bucket, in ms.
fn hist_representative(bucket: usize) -> f64 {
    2f64.powf((bucket as f64 - HIST_OFFSET + 0.5) / HIST_PER_OCTAVE)
}

impl LatencyHistogram {
    fn new() -> LatencyHistogram {
        LatencyHistogram(Arc::new(HistInner {
            counts: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_ms: AtomicU64::new(0f64.to_bits()),
            min_ms: AtomicU64::new(f64::INFINITY.to_bits()),
            max_ms: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }))
    }

    /// Record one latency in milliseconds (no-op while observability is
    /// disabled). Non-finite and negative values are clamped to 0.
    #[inline]
    pub fn record_ms(&self, ms: f64) {
        if !crate::is_enabled() {
            return;
        }
        let ms = if ms.is_finite() && ms > 0.0 { ms } else { 0.0 };
        let inner = &*self.0;
        inner.counts[hist_bucket(ms)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        let _ = inner
            .sum_ms
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + ms).to_bits())
            });
        let _ = inner
            .min_ms
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                (ms < f64::from_bits(bits)).then(|| ms.to_bits())
            });
        let _ = inner
            .max_ms
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                (ms > f64::from_bits(bits)).then(|| ms.to_bits())
            });
    }

    /// Record a [`Duration`] latency.
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_ms(d.as_secs_f64() * 1e3);
    }

    /// Recorded sample count.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    fn sample(&self, id: MetricId) -> HistogramSample {
        let inner = &*self.0;
        let counts: Vec<u64> = inner
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        let min = f64::from_bits(inner.min_ms.load(Ordering::Relaxed));
        let max = f64::from_bits(inner.max_ms.load(Ordering::Relaxed));
        let (min, max) = if count == 0 { (0.0, 0.0) } else { (min, max) };
        let quantile = |q: f64| -> f64 {
            if count == 0 {
                return 0.0;
            }
            let target = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (bucket, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= target {
                    // Clamping into [min, max] makes single-sample and
                    // single-bucket histograms exact.
                    return hist_representative(bucket).clamp(min, max);
                }
            }
            max
        };
        HistogramSample {
            id,
            count,
            sum_ms: f64::from_bits(inner.sum_ms.load(Ordering::Relaxed)),
            min_ms: min,
            max_ms: max,
            p50_ms: quantile(0.50),
            p99_ms: quantile(0.99),
        }
    }
}

// --- Registry -------------------------------------------------------------

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Mutex<HashMap<MetricId, Counter>>,
    /// Counters whose value lives outside the registry, read per snapshot.
    sources: Mutex<HashMap<MetricId, fn() -> u64>>,
    gauges: Mutex<HashMap<MetricId, Gauge>>,
    histograms: Mutex<HashMap<MetricId, LatencyHistogram>>,
}

/// A set of live instruments. Clonable (all clones share state); resolve
/// handles once, then write through them lock-free.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
    /// Time zero of [`LiveSnapshot::t_ns`], set by the first snapshot.
    epoch: Arc<OnceLock<Instant>>,
}

fn resolve<T: Clone>(
    map: &Mutex<HashMap<MetricId, T>>,
    name: &str,
    labels: &[(&str, &str)],
    new: impl FnOnce() -> T,
) -> T {
    let id = MetricId::new(name, labels);
    map.lock()
        .unwrap_or_else(|p| p.into_inner())
        .entry(id)
        .or_insert_with(new)
        .clone()
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Resolve (creating if absent) a counter handle. Creation registers
    /// the metric even while observability is disabled, so gauges and
    /// counters appear (at zero) in snapshots; only *writes* are gated.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        resolve(&self.inner.counters, name, labels, || {
            Counter(Arc::new(AtomicU64::new(0)))
        })
    }

    /// Register a counter whose value lives elsewhere (the camera pool's
    /// hit count, the journey ring's totals): `read` is called at every
    /// snapshot, and the counter appears once it reads non-zero. Sources
    /// survive [`crate::reset`], since the registry does not own their
    /// state; registering an identity again replaces its reader.
    pub fn counter_source(&self, name: &str, labels: &[(&str, &str)], read: fn() -> u64) {
        self.inner
            .sources
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(MetricId::new(name, labels), read);
    }

    /// Drop every instrument this registry owns (sources stay). Handles
    /// resolved earlier keep working but are no longer snapshotted.
    pub(crate) fn clear(&self) {
        fn drain<T>(map: &Mutex<HashMap<MetricId, T>>) {
            map.lock().unwrap_or_else(|p| p.into_inner()).clear();
        }
        drain(&self.inner.counters);
        drain(&self.inner.gauges);
        drain(&self.inner.histograms);
    }

    /// Resolve (creating if absent) a gauge handle.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        resolve(&self.inner.gauges, name, labels, || {
            Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
        })
    }

    /// Resolve (creating if absent) a latency histogram handle.
    pub fn histogram_ms(&self, name: &str, labels: &[(&str, &str)]) -> LatencyHistogram {
        resolve(&self.inner.histograms, name, labels, LatencyHistogram::new)
    }

    /// Snapshot every instrument, stamped with the nanoseconds since this
    /// registry's first snapshot.
    pub fn snapshot(&self) -> LiveSnapshot {
        let t_ns = self
            .epoch
            .get_or_init(Instant::now)
            .elapsed()
            .as_nanos()
            .min(u64::MAX as u128) as u64;
        // Each map is locked once, just long enough to clone the (cheap,
        // Arc-backed) handles; the actual reads happen lock-free.
        fn handles<T: Clone>(map: &Mutex<HashMap<MetricId, T>>) -> Vec<(MetricId, T)> {
            let mut pairs: Vec<(MetricId, T)> = map
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .iter()
                .map(|(id, h)| (id.clone(), h.clone()))
                .collect();
            pairs.sort_by(|a, b| a.0.cmp(&b.0));
            pairs
        }

        let mut counters: Vec<CounterSample> = handles(&self.inner.counters)
            .into_iter()
            .map(|(id, h)| CounterSample { value: h.get(), id })
            .collect();
        counters.extend(
            handles(&self.inner.sources)
                .into_iter()
                .map(|(id, read)| CounterSample { value: read(), id })
                .filter(|c| c.value > 0),
        );
        counters.sort_by(|a, b| a.id.cmp(&b.id));
        let gauges = handles(&self.inner.gauges)
            .into_iter()
            .map(|(id, h)| GaugeSample { value: h.get(), id })
            .collect();
        let histograms = handles(&self.inner.histograms)
            .into_iter()
            .map(|(id, h)| h.sample(id))
            .collect();

        LiveSnapshot {
            t_ns,
            counters,
            gauges,
            histograms,
        }
    }
}

// --- The global registry --------------------------------------------------

/// The process-wide registry. [`counter!`](crate::counter) writes its
/// unlabeled counters and [`span!`](crate::span!) its unlabeled
/// histograms, [`crate::snapshot`] reads them for run reports and flight
/// dumps, and the gateway's sessions publish their labeled ledgers into
/// it. It carries the journey and flight-recorder totals as sources.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let registry = Registry::new();
        registry.counter_source("journey.recorded", &[], || crate::journey::stats().0);
        registry.counter_source("journey.dropped", &[], || crate::journey::stats().1);
        registry.counter_source("flight.triggers", &[], || {
            let (kept, dropped) = crate::flight::stats();
            kept as u64 + dropped
        });
        registry
    })
}

/// Add `n` to the unlabeled counter `name` on the [`global`] registry
/// (the [`counter!`](crate::counter) macro calls this). The enable flag is
/// checked before the registry is touched, so the disabled path is one
/// relaxed atomic load and registers nothing.
#[inline]
pub fn count(name: &str, n: u64) {
    if crate::is_enabled() {
        global().counter(name, &[]).add(n);
    }
}

/// Increment an unlabeled counter on the [`global`] registry:
/// `counter!("rx.frames")` adds 1, `counter!("tx.symbols", n)` adds `n`.
/// No-op when observability is disabled.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::live::count($name, 1)
    };
    ($name:expr, $n:expr) => {
        $crate::live::count($name, $n as u64)
    };
}

// --- Snapshots ------------------------------------------------------------

/// A counter reading.
#[derive(Debug, Clone)]
pub struct CounterSample {
    /// Metric identity.
    pub id: MetricId,
    /// Counter value.
    pub value: u64,
}

/// A gauge reading.
#[derive(Debug, Clone)]
pub struct GaugeSample {
    /// Metric identity.
    pub id: MetricId,
    /// Gauge value.
    pub value: f64,
}

/// A latency histogram reading.
#[derive(Debug, Clone)]
pub struct HistogramSample {
    /// Metric identity.
    pub id: MetricId,
    /// Recorded sample count.
    pub count: u64,
    /// Sum of all samples (ms).
    pub sum_ms: f64,
    /// Smallest sample (ms; 0 when empty).
    pub min_ms: f64,
    /// Largest sample (ms; 0 when empty).
    pub max_ms: f64,
    /// Median estimate (ms).
    pub p50_ms: f64,
    /// 99th-percentile estimate (ms).
    pub p99_ms: f64,
}

impl HistogramSample {
    /// Serialize as one JSON object — the shape of a live JSONL snapshot's
    /// `histograms` entries and of a run report's `spans` entries.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("name", Value::from(self.id.name.as_str())),
            ("labels", self.id.labels_json()),
            ("count", Value::from(self.count)),
            ("sum_ms", Value::from(self.sum_ms)),
            ("min_ms", Value::from(self.min_ms)),
            ("max_ms", Value::from(self.max_ms)),
            ("p50_ms", Value::from(self.p50_ms)),
            ("p99_ms", Value::from(self.p99_ms)),
        ])
    }
}

/// A consistent point-in-time view of a [`Registry`].
#[derive(Debug, Clone)]
pub struct LiveSnapshot {
    /// Nanoseconds since the registry's first snapshot.
    pub t_ns: u64,
    /// Counters, sorted by identity.
    pub counters: Vec<CounterSample>,
    /// Gauges, sorted by identity.
    pub gauges: Vec<GaugeSample>,
    /// Histograms, sorted by identity.
    pub histograms: Vec<HistogramSample>,
}

impl LiveSnapshot {
    /// Serialize as one JSON object (the JSONL snapshot line format).
    pub fn to_json(&self) -> Value {
        let reading = |id: &MetricId, value: Value| {
            Value::object([
                ("name", Value::from(id.name.as_str())),
                ("labels", id.labels_json()),
                ("value", value),
            ])
        };
        Value::object([
            ("t_ns", Value::from(self.t_ns)),
            (
                "counters",
                Value::Array(
                    self.counters
                        .iter()
                        .map(|c| reading(&c.id, Value::from(c.value)))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Value::Array(
                    self.gauges
                        .iter()
                        .map(|g| reading(&g.id, Value::from(g.value)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Value::Array(
                    self.histograms
                        .iter()
                        .map(HistogramSample::to_json)
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    fn enabled_registry() -> Registry {
        crate::init(crate::ObsConfig::default());
        Registry::new()
    }

    #[test]
    fn counters_and_gauges_round_trip() {
        let _guard = test_lock::hold();
        let reg = enabled_registry();
        let c = reg.counter("test.live.counter", &[("session", "0")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same identity resolves to the same cell; label order is
        // irrelevant.
        let c2 = reg.counter("test.live.counter", &[("session", "0")]);
        c2.inc();
        assert_eq!(c.get(), 6);

        let g = reg.gauge("test.live.gauge", &[]);
        g.set(2.5);
        g.add(-1.0);
        assert!((g.get() - 1.5).abs() < 1e-12);
        crate::disable();
    }

    #[test]
    fn disabled_writes_are_no_ops() {
        let _guard = test_lock::hold();
        crate::disable();
        let reg = Registry::new();
        let c = reg.counter("test.live.disabled", &[]);
        let g = reg.gauge("test.live.disabled_g", &[]);
        let h = reg.histogram_ms("test.live.disabled_h", &[]);
        c.inc();
        g.set(3.0);
        h.record_ms(1.0);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(h.count(), 0);
        // The instruments still appear (at zero) in snapshots, so a
        // reader sees the full metric surface.
        let snap = reg.snapshot();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.gauges.len(), 1);
        assert_eq!(snap.histograms.len(), 1);
    }

    #[test]
    fn histogram_quantiles_are_close() {
        let _guard = test_lock::hold();
        let reg = enabled_registry();
        let h = reg.histogram_ms("test.live.hist", &[]);
        for i in 1..=100 {
            h.record_ms(i as f64);
        }
        let snap = reg.snapshot();
        let s = &snap.histograms[0];
        assert_eq!(s.count, 100);
        assert!((s.sum_ms - 5050.0).abs() < 1e-6);
        assert_eq!(s.min_ms, 1.0);
        assert_eq!(s.max_ms, 100.0);
        // Log-bucketed: ≤ ~19 % relative error tolerated.
        assert!((s.p50_ms - 50.0).abs() / 50.0 < 0.2, "p50={}", s.p50_ms);
        assert!((s.p99_ms - 99.0).abs() / 99.0 < 0.2, "p99={}", s.p99_ms);
        crate::disable();
    }

    #[test]
    fn histogram_single_sample_is_exact() {
        let _guard = test_lock::hold();
        let reg = enabled_registry();
        let h = reg.histogram_ms("test.live.hist_one", &[]);
        h.record_ms(7.25);
        let snap = reg.snapshot();
        let s = &snap.histograms[0];
        assert_eq!(s.p50_ms, 7.25);
        assert_eq!(s.p99_ms, 7.25);
        crate::disable();
    }

    #[test]
    fn snapshot_orders_and_serializes() {
        let _guard = test_lock::hold();
        let reg = enabled_registry();
        reg.counter("test.live.b", &[]).inc();
        reg.counter("test.live.a", &[("session", "1")]).add(2);
        let first = reg.snapshot();
        let snap = reg.snapshot();
        assert!(snap.t_ns >= first.t_ns, "snapshot times never run back");
        assert_eq!(snap.counters[0].id.name, "test.live.a");
        assert_eq!(snap.counters[1].id.name, "test.live.b");
        let json = snap.to_json().to_compact();
        assert!(json.contains("\"session\":\"1\""));
        let parsed = Value::parse(&json).expect("snapshot JSON parses");
        assert_eq!(parsed.get("t_ns").and_then(Value::as_u64), Some(snap.t_ns));
        assert_eq!(
            parsed
                .get("counters")
                .and_then(Value::as_array)
                .map(|a| a.len()),
            Some(2)
        );
        crate::disable();
    }

    #[test]
    fn counter_macro_writes_the_global_registry_only_when_enabled() {
        let _guard = test_lock::hold();
        crate::disable();
        crate::reset();
        crate::counter!("test.live.global_off", 5);
        let shown = |name: &str| {
            global()
                .snapshot()
                .counters
                .iter()
                .any(|c| c.id.name == name)
        };
        assert!(
            !shown("test.live.global_off"),
            "disabled counter! registers nothing"
        );
        crate::init(crate::ObsConfig::default());
        crate::counter!("test.live.global");
        crate::counter!("test.live.global", 41);
        let snap = global().snapshot();
        let c = snap
            .counters
            .iter()
            .find(|c| c.id.name == "test.live.global")
            .expect("enabled counter! lands in the global registry");
        assert_eq!(c.value, 42);
        crate::reset();
        assert!(!shown("test.live.global"), "reset drops owned counters");
        crate::disable();
    }

    #[test]
    fn counter_sources_are_read_at_snapshot_and_survive_clear() {
        static CELL: AtomicU64 = AtomicU64::new(0);
        let reg = Registry::new();
        reg.counter_source("test.live.source", &[("k", "v")], || {
            CELL.load(Ordering::Relaxed)
        });
        assert!(reg.snapshot().counters.is_empty(), "zero sources hide");
        CELL.store(7, Ordering::Relaxed);
        reg.counter("test.live.owned", &[]);
        reg.clear();
        let snap = reg.snapshot();
        assert_eq!(snap.counters.len(), 1, "clear keeps only the source");
        assert_eq!(snap.counters[0].value, 7);
        assert_eq!(snap.counters[0].id.label("k"), Some("v"));
    }

    #[test]
    fn metric_id_sorts_labels() {
        let a = MetricId::new("m", &[("b", "2"), ("a", "1")]);
        let b = MetricId::new("m", &[("a", "1"), ("b", "2")]);
        assert_eq!(a, b);
        assert_eq!(a.label("a"), Some("1"));
        assert_eq!(a.label("missing"), None);
    }
}
