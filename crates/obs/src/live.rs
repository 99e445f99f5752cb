//! Live telemetry plane: lock-cheap registries you can scrape mid-run.
//!
//! This is the crate's one counter/gauge/histogram implementation. The
//! process-wide [`global`] registry backs [`counter!`](crate::counter)
//! and [`span!`](crate::span!) and is what run reports, flight dumps and
//! the gateway's scrapes read; a streaming gateway reads it *while*
//! decode sessions are in flight, without stopping the writers. The plane:
//!
//! * [`Registry`] — a clonable handle store of named, labeled instruments.
//!   Instrument handles ([`Counter`], [`Gauge`], [`WindowRate`],
//!   [`LatencyHistogram`]) are resolved once (one mutex hit) and from then
//!   on every write is a handful of relaxed atomic operations. Writes are
//!   gated on [`crate::is_enabled`], so the disabled path is exactly one
//!   relaxed atomic load — the same contract as `counter!`. Counter
//!   *sources* ([`Registry::counter_source`]) are read at snapshot time
//!   from state that lives elsewhere (the camera pool's hit/miss atomics,
//!   the journey ring's totals), so no code copies those facts in.
//! * Sliding-window rates — each [`WindowRate`] keeps two bucket rings
//!   (10 × 100 ms = 1 s and 10 × 1 s = 10 s) plus an EWMA, so frames/sec
//!   and symbols/sec read as *current* rates that decay to zero when a
//!   session goes idle, not lifetime averages.
//! * Time-bucketed latency histograms — log-spaced buckets (4 per octave,
//!   ≤ ~19 % quantile error) with exact count/sum/min/max, for p50/p99
//!   frame-to-bytes latency and per-stage span timings.
//! * [`LiveSnapshot`] — a consistent point-in-time read of every
//!   instrument, taken without blocking writers, serializable as JSON
//!   ([`LiveSnapshot::to_json`]) or Prometheus text format
//!   ([`LiveSnapshot::render_prometheus`]).
//! * [`SnapshotWriter`] — a periodic JSONL sink (`COLORBARS_OBS_LIVE`
//!   path, `COLORBARS_OBS_LIVE_INTERVAL_MS` cadence) that degrades
//!   gracefully: an unwritable path warns once and disables itself, never
//!   failing the run.
//! * [`validate_exposition`] — a strict parser for the Prometheus text
//!   format, used by CI to prove scrapes are well-formed and counters are
//!   monotone across scrapes.
//!
//! ## Clocks
//!
//! Every instrument has a deterministic `*_at(…, t_ns)` variant taking
//! nanoseconds relative to the registry's epoch, and a convenience variant
//! using the process clock. Tests drive the `_at` forms with synthetic
//! clocks; live code uses the wall-clock forms.

use crate::json::Value;
use std::collections::HashMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Buckets per ring. Both windows use the same bucket count; only the
/// bucket width differs.
const RING_BUCKETS: usize = 10;
/// Bucket width of the short (1 s) window.
const SHORT_BUCKET_NS: u64 = 100_000_000;
/// Bucket width of the long (10 s) window.
const LONG_BUCKET_NS: u64 = 1_000_000_000;
/// EWMA time constant: ~3 s, a compromise between smoothing and
/// responsiveness for a human-watched one-line summary.
const EWMA_TAU_NS: f64 = 3.0e9;
/// Epoch value meaning "this bucket has never been written".
const EPOCH_NEVER: u64 = u64::MAX;

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
    /// Dotted lowercase metric name (`session.frames`).
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

/// One ring of time buckets. Each bucket remembers which epoch (bucket
/// index since the registry epoch) last wrote it; stale buckets are
/// re-zeroed lazily by the next writer, so idle windows decay to zero
/// without a background thread.
#[derive(Debug)]
struct BucketRing {
    bucket_ns: u64,
    epochs: [AtomicU64; RING_BUCKETS],
    counts: [AtomicU64; RING_BUCKETS],
}

impl BucketRing {
    fn new(bucket_ns: u64) -> BucketRing {
        BucketRing {
            bucket_ns,
            epochs: std::array::from_fn(|_| AtomicU64::new(EPOCH_NEVER)),
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, n: u64, t_ns: u64) {
        let epoch = t_ns / self.bucket_ns;
        let slot = (epoch % RING_BUCKETS as u64) as usize;
        let seen = self.epochs[slot].load(Ordering::Relaxed);
        if seen != epoch {
            // First write into this bucket for this epoch: one writer wins
            // the CAS and zeroes the stale count. A concurrent recorder in
            // the same epoch may race the reset and lose its increment;
            // rates are statistical, and the window is re-filled within one
            // bucket width, so the error is bounded and acceptable.
            if self.epochs[slot]
                .compare_exchange(seen, epoch, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                self.counts[slot].store(0, Ordering::Relaxed);
            }
        }
        self.counts[slot].fetch_add(n, Ordering::Relaxed);
    }

    /// Events within the window ending at `t_ns`.
    fn sum_at(&self, t_ns: u64) -> u64 {
        let now_epoch = t_ns / self.bucket_ns;
        let oldest = now_epoch.saturating_sub(RING_BUCKETS as u64 - 1);
        let mut sum = 0u64;
        for slot in 0..RING_BUCKETS {
            let epoch = self.epochs[slot].load(Ordering::Relaxed);
            if epoch != EPOCH_NEVER && epoch >= oldest && epoch <= now_epoch {
                sum += self.counts[slot].load(Ordering::Relaxed);
            }
        }
        sum
    }

    /// Window length in seconds.
    fn window_secs(&self) -> f64 {
        (RING_BUCKETS as u64 * self.bucket_ns) as f64 / 1e9
    }
}

/// EWMA state, touched only at snapshot time (never on the write path).
#[derive(Debug, Default)]
struct EwmaState {
    initialized: bool,
    last_t_ns: u64,
    value: f64,
}

/// A sliding-window event rate: 1 s and 10 s windows plus an EWMA.
/// Clonable handle; all clones share the rings.
#[derive(Debug, Clone)]
pub struct WindowRate(Arc<RateInner>);

#[derive(Debug)]
struct RateInner {
    total: AtomicU64,
    short: BucketRing,
    long: BucketRing,
    ewma: Mutex<EwmaState>,
}

impl WindowRate {
    fn new() -> WindowRate {
        WindowRate(Arc::new(RateInner {
            total: AtomicU64::new(0),
            short: BucketRing::new(SHORT_BUCKET_NS),
            long: BucketRing::new(LONG_BUCKET_NS),
            ewma: Mutex::new(EwmaState::default()),
        }))
    }

    /// Record `n` events at explicit registry-relative time `t_ns`
    /// (no-op while observability is disabled).
    #[inline]
    pub fn record_at(&self, n: u64, t_ns: u64) {
        if !crate::is_enabled() {
            return;
        }
        self.0.total.fetch_add(n, Ordering::Relaxed);
        self.0.short.record(n, t_ns);
        self.0.long.record(n, t_ns);
    }

    /// Lifetime event count.
    pub fn total(&self) -> u64 {
        self.0.total.load(Ordering::Relaxed)
    }

    /// Read the rate at `t_ns`, updating the EWMA toward the 1 s-window
    /// rate. The EWMA mutex is only contended by concurrent snapshots,
    /// never by writers.
    fn sample_at(&self, t_ns: u64) -> (f64, f64, f64) {
        let rate_1s = self.0.short.sum_at(t_ns) as f64 / self.0.short.window_secs();
        let rate_10s = self.0.long.sum_at(t_ns) as f64 / self.0.long.window_secs();
        let mut ewma = self.0.ewma.lock().unwrap_or_else(|p| p.into_inner());
        if !ewma.initialized {
            ewma.initialized = true;
            ewma.last_t_ns = t_ns;
            ewma.value = rate_1s;
        } else if t_ns > ewma.last_t_ns {
            let dt = (t_ns - ewma.last_t_ns) as f64;
            let alpha = 1.0 - (-dt / EWMA_TAU_NS).exp();
            ewma.value += alpha * (rate_1s - ewma.value);
            ewma.last_t_ns = t_ns;
        }
        (rate_1s, rate_10s, ewma.value)
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
    rates: Mutex<HashMap<MetricId, WindowRate>>,
    histograms: Mutex<HashMap<MetricId, LatencyHistogram>>,
}

/// A set of live instruments. Clonable (all clones share state); resolve
/// handles once, then write through them lock-free.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
    epoch: Arc<OnceInstant>,
}

/// `Instant` can't be `const`-constructed, so the registry epoch is
/// materialized on first use.
#[derive(Debug, Default)]
struct OnceInstant(std::sync::OnceLock<Instant>);

impl OnceInstant {
    fn get(&self) -> Instant {
        *self.0.get_or_init(Instant::now)
    }
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
    /// A fresh, empty registry. Its epoch (t = 0 for `*_at` calls and
    /// snapshots) is the first clock use.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Nanoseconds since the registry epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.get().elapsed().as_nanos().min(u64::MAX as u128) as u64
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
    /// resolved earlier keep working but are no longer scraped.
    pub(crate) fn clear(&self) {
        fn drain<T>(map: &Mutex<HashMap<MetricId, T>>) {
            map.lock().unwrap_or_else(|p| p.into_inner()).clear();
        }
        drain(&self.inner.counters);
        drain(&self.inner.gauges);
        drain(&self.inner.rates);
        drain(&self.inner.histograms);
    }

    /// Resolve (creating if absent) a gauge handle.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        resolve(&self.inner.gauges, name, labels, || {
            Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
        })
    }

    /// Resolve (creating if absent) a sliding-window rate handle.
    pub fn rate(&self, name: &str, labels: &[(&str, &str)]) -> WindowRate {
        resolve(&self.inner.rates, name, labels, WindowRate::new)
    }

    /// Record on a rate using the registry clock (convenience for code
    /// without a handle cached; hot paths should cache the handle).
    pub fn rate_record(&self, rate: &WindowRate, n: u64) {
        rate.record_at(n, self.now_ns());
    }

    /// Resolve (creating if absent) a latency histogram handle.
    pub fn histogram_ms(&self, name: &str, labels: &[(&str, &str)]) -> LatencyHistogram {
        resolve(&self.inner.histograms, name, labels, LatencyHistogram::new)
    }

    /// Snapshot every instrument at the current registry clock.
    pub fn snapshot(&self) -> LiveSnapshot {
        self.snapshot_at(self.now_ns())
    }

    /// Snapshot every instrument at explicit registry-relative `t_ns`
    /// (deterministic; used by tests).
    pub fn snapshot_at(&self, t_ns: u64) -> LiveSnapshot {
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
        let rates = handles(&self.inner.rates)
            .into_iter()
            .map(|(id, h)| {
                let (rate_1s, rate_10s, ewma) = h.sample_at(t_ns);
                RateSample {
                    id,
                    rate_1s,
                    rate_10s,
                    ewma,
                    total: h.total(),
                }
            })
            .collect();
        let histograms = handles(&self.inner.histograms)
            .into_iter()
            .map(|(id, h)| h.sample(id))
            .collect();

        LiveSnapshot {
            t_ns,
            counters,
            gauges,
            rates,
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

/// A sliding-window rate reading.
#[derive(Debug, Clone)]
pub struct RateSample {
    /// Metric identity.
    pub id: MetricId,
    /// Events/sec over the trailing 1 s window.
    pub rate_1s: f64,
    /// Events/sec over the trailing 10 s window.
    pub rate_10s: f64,
    /// Exponentially weighted moving average of the 1 s rate (τ ≈ 3 s).
    pub ewma: f64,
    /// Lifetime event count.
    pub total: u64,
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
    /// Registry-relative snapshot time (ns since epoch).
    pub t_ns: u64,
    /// Counters, sorted by identity.
    pub counters: Vec<CounterSample>,
    /// Gauges, sorted by identity.
    pub gauges: Vec<GaugeSample>,
    /// Rates, sorted by identity.
    pub rates: Vec<RateSample>,
    /// Histograms, sorted by identity.
    pub histograms: Vec<HistogramSample>,
}

impl LiveSnapshot {
    /// Serialize as one JSON object (the JSONL snapshot line format).
    pub fn to_json(&self) -> Value {
        Value::object([
            ("t_ns", Value::from(self.t_ns)),
            (
                "counters",
                Value::Array(
                    self.counters
                        .iter()
                        .map(|c| {
                            Value::object([
                                ("name", Value::from(c.id.name.as_str())),
                                ("labels", c.id.labels_json()),
                                ("value", Value::from(c.value)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "gauges",
                Value::Array(
                    self.gauges
                        .iter()
                        .map(|g| {
                            Value::object([
                                ("name", Value::from(g.id.name.as_str())),
                                ("labels", g.id.labels_json()),
                                ("value", Value::from(g.value)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "rates",
                Value::Array(
                    self.rates
                        .iter()
                        .map(|r| {
                            Value::object([
                                ("name", Value::from(r.id.name.as_str())),
                                ("labels", r.id.labels_json()),
                                ("rate_1s", Value::from(r.rate_1s)),
                                ("rate_10s", Value::from(r.rate_10s)),
                                ("ewma", Value::from(r.ewma)),
                                ("total", Value::from(r.total)),
                            ])
                        })
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

    /// Render the snapshot in Prometheus text exposition format.
    ///
    /// Dotted names are sanitized (`.` → `_`). Counters get a `_total`
    /// suffix; rates render as three gauge samples distinguished by a
    /// `window` label (`1s`, `10s`, `ewma`) on a `_per_sec` metric;
    /// histograms render as summaries (`quantile` label + `_sum` +
    /// `_count`).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        // Each metric family gets exactly one `# TYPE` line, with all its
        // samples (every label set) grouped under it — duplicate TYPE
        // lines for one family are rejected by real scrapers. Snapshot
        // vectors are sorted by identity (name first), so a family's
        // instruments are contiguous and a name-change test suffices.
        let mut last_type = String::new();
        let typed = |out: &mut String, last: &mut String, name: &str, kind: &str| {
            if last != name {
                out.push_str(&format!("# TYPE {name} {kind}\n"));
                *last = name.to_string();
            }
        };
        for c in &self.counters {
            let name = format!("{}_total", sanitize_metric_name(&c.id.name));
            typed(&mut out, &mut last_type, &name, "counter");
            out.push_str(&sample_line(&name, &c.id.labels, &[], c.value as f64));
        }
        for g in &self.gauges {
            let name = sanitize_metric_name(&g.id.name);
            typed(&mut out, &mut last_type, &name, "gauge");
            out.push_str(&sample_line(&name, &g.id.labels, &[], g.value));
        }
        // Rates expose two families per instrument (`_per_sec` gauge and
        // `_events_total` counter), so they take two passes to keep each
        // family's samples contiguous.
        for r in &self.rates {
            let name = format!("{}_per_sec", sanitize_metric_name(&r.id.name));
            typed(&mut out, &mut last_type, &name, "gauge");
            for (window, v) in [("1s", r.rate_1s), ("10s", r.rate_10s), ("ewma", r.ewma)] {
                out.push_str(&sample_line(&name, &r.id.labels, &[("window", window)], v));
            }
        }
        for r in &self.rates {
            let total = format!("{}_events_total", sanitize_metric_name(&r.id.name));
            typed(&mut out, &mut last_type, &total, "counter");
            out.push_str(&sample_line(&total, &r.id.labels, &[], r.total as f64));
        }
        for h in &self.histograms {
            let name = sanitize_metric_name(&h.id.name);
            typed(&mut out, &mut last_type, &name, "summary");
            for (q, v) in [("0.5", h.p50_ms), ("0.99", h.p99_ms)] {
                out.push_str(&sample_line(&name, &h.id.labels, &[("quantile", q)], v));
            }
            out.push_str(&sample_line(
                &format!("{name}_sum"),
                &h.id.labels,
                &[],
                h.sum_ms,
            ));
            out.push_str(&sample_line(
                &format!("{name}_count"),
                &h.id.labels,
                &[],
                h.count as f64,
            ));
        }
        out
    }
}

/// Map a dotted metric name onto the Prometheus charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// One exposition sample line, merging instrument labels with extra
/// synthetic labels (e.g. `window`, `quantile`).
fn sample_line(name: &str, labels: &[(String, String)], extra: &[(&str, &str)], v: f64) -> String {
    let mut pairs: Vec<(String, String)> = labels.to_vec();
    for (k, val) in extra {
        pairs.push((k.to_string(), val.to_string()));
    }
    pairs.sort();
    let mut line = String::from(name);
    if !pairs.is_empty() {
        line.push('{');
        for (i, (k, val)) in pairs.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&sanitize_metric_name(k));
            line.push_str("=\"");
            line.push_str(&escape_label_value(val));
            line.push('"');
        }
        line.push('}');
    }
    line.push(' ');
    line.push_str(&format_value(v));
    line.push('\n');
    line
}

/// Escape a label value per the exposition format: `\\`, `\"`, `\n`.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn format_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

// --- Exposition validation ------------------------------------------------

/// One parsed exposition sample: metric name, sorted labels, value.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpoSample {
    /// Metric name.
    pub name: String,
    /// Sorted `(label, value)` pairs.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl ExpoSample {
    /// A stable identity string (`name{k="v",…}`) for cross-scrape joins.
    pub fn key(&self) -> String {
        let mut k = self.name.clone();
        k.push('{');
        for (i, (name, value)) in self.labels.iter().enumerate() {
            if i > 0 {
                k.push(',');
            }
            k.push_str(name);
            k.push_str("=\"");
            k.push_str(&escape_label_value(value));
            k.push('"');
        }
        k.push('}');
        k
    }
}

fn valid_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars().enumerate().all(|(i, c)| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
        })
}

fn valid_label_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .enumerate()
            .all(|(i, c)| c.is_ascii_alphabetic() || c == '_' || (i > 0 && c.is_ascii_digit()))
}

/// Strictly parse Prometheus text exposition format, returning every
/// sample. Errors carry the offending line. Checks metric-name and
/// label-name charsets, label-value escaping, `#` comment forms, and that
/// values parse as floats (`NaN`/`+Inf`/`-Inf` allowed).
pub fn validate_exposition(text: &str) -> Result<Vec<ExpoSample>, String> {
    let mut samples = Vec::new();
    let mut typed_families: std::collections::HashSet<String> = std::collections::HashSet::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        let err = |msg: &str| format!("line {}: {msg}: {raw:?}", lineno + 1);
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(spec) = rest.strip_prefix("TYPE ") {
                let mut parts = spec.split_whitespace();
                let name = parts.next().ok_or_else(|| err("TYPE without name"))?;
                if !valid_metric_name(name) {
                    return Err(err("invalid metric name in TYPE"));
                }
                let kind = parts.next().ok_or_else(|| err("TYPE without kind"))?;
                if !matches!(
                    kind,
                    "counter" | "gauge" | "summary" | "histogram" | "untyped"
                ) {
                    return Err(err("unknown TYPE kind"));
                }
                if !typed_families.insert(name.to_string()) {
                    return Err(err("duplicate TYPE for metric family"));
                }
            } else if !rest.starts_with("HELP ") && !rest.is_empty() {
                return Err(err("unknown comment form (expected HELP/TYPE)"));
            }
            continue;
        }
        samples.push(parse_sample_line(line).map_err(|m| err(&m))?);
    }
    Ok(samples)
}

fn parse_sample_line(line: &str) -> Result<ExpoSample, String> {
    let bytes = line.as_bytes();
    let mut pos = 0usize;
    while pos < bytes.len() && bytes[pos] != b'{' && bytes[pos] != b' ' {
        pos += 1;
    }
    let name = &line[..pos];
    if !valid_metric_name(name) {
        return Err("invalid metric name".to_string());
    }
    let mut labels: Vec<(String, String)> = Vec::new();
    if pos < bytes.len() && bytes[pos] == b'{' {
        pos += 1;
        loop {
            if pos >= bytes.len() {
                return Err("unterminated label set".to_string());
            }
            if bytes[pos] == b'}' {
                pos += 1;
                break;
            }
            let start = pos;
            while pos < bytes.len() && bytes[pos] != b'=' {
                pos += 1;
            }
            let lname = &line[start..pos];
            if !valid_label_name(lname) {
                return Err(format!("invalid label name {lname:?}"));
            }
            if pos >= bytes.len() || bytes[pos] != b'=' {
                return Err("expected '=' after label name".to_string());
            }
            pos += 1;
            if pos >= bytes.len() || bytes[pos] != b'"' {
                return Err("expected '\"' after '='".to_string());
            }
            pos += 1;
            let mut value = String::new();
            loop {
                match bytes.get(pos) {
                    None => return Err("unterminated label value".to_string()),
                    Some(b'"') => {
                        pos += 1;
                        break;
                    }
                    Some(b'\\') => {
                        pos += 1;
                        match bytes.get(pos) {
                            Some(b'\\') => value.push('\\'),
                            Some(b'"') => value.push('"'),
                            Some(b'n') => value.push('\n'),
                            _ => return Err("invalid escape in label value".to_string()),
                        }
                        pos += 1;
                    }
                    Some(_) => {
                        let rest = &line[pos..];
                        let c = rest.chars().next().expect("in-bounds by get");
                        value.push(c);
                        pos += c.len_utf8();
                    }
                }
            }
            labels.push((lname.to_string(), value));
            match bytes.get(pos) {
                Some(b',') => pos += 1,
                Some(b'}') => {}
                _ => return Err("expected ',' or '}' in label set".to_string()),
            }
        }
    }
    if pos >= bytes.len() || bytes[pos] != b' ' {
        return Err("expected ' ' before value".to_string());
    }
    let rest = line[pos..].trim();
    let mut fields = rest.split_whitespace();
    let value_text = fields.next().ok_or_else(|| "missing value".to_string())?;
    let value = match value_text {
        "NaN" => f64::NAN,
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        v => v
            .parse::<f64>()
            .map_err(|_| format!("invalid value {v:?}"))?,
    };
    // An optional integer timestamp may follow; anything else is an error.
    if let Some(ts) = fields.next() {
        ts.parse::<i64>()
            .map_err(|_| format!("invalid timestamp {ts:?}"))?;
    }
    if fields.next().is_some() {
        return Err("trailing content after timestamp".to_string());
    }
    labels.sort();
    Ok(ExpoSample {
        name: name.to_string(),
        labels,
        value,
    })
}

/// Check that every `*_total` counter present in `earlier` is present in
/// `later` with a value that did not decrease.
pub fn check_monotone_counters(earlier: &[ExpoSample], later: &[ExpoSample]) -> Result<(), String> {
    let later_by_key: HashMap<String, f64> = later.iter().map(|s| (s.key(), s.value)).collect();
    for s in earlier {
        if !s.name.ends_with("_total") {
            continue;
        }
        let key = s.key();
        match later_by_key.get(&key) {
            None => return Err(format!("counter {key} missing from later scrape")),
            Some(&v) if v < s.value => {
                return Err(format!("counter {key} went backwards: {} -> {v}", s.value))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

// --- Periodic JSONL snapshot writer ---------------------------------------

/// Environment variable naming the live JSONL snapshot path.
pub const OBS_LIVE_ENV: &str = "COLORBARS_OBS_LIVE";
/// Environment variable setting the snapshot interval in milliseconds.
pub const OBS_LIVE_INTERVAL_ENV: &str = "COLORBARS_OBS_LIVE_INTERVAL_MS";
/// Default snapshot interval when `COLORBARS_OBS_LIVE_INTERVAL_MS` is
/// absent or unparsable.
pub const DEFAULT_SNAPSHOT_INTERVAL_MS: u64 = 1000;

/// Writes one JSON snapshot line per interval to a file. An unopenable or
/// unwritable path warns on stderr once and disables the writer, never
/// failing the run.
#[derive(Debug)]
pub struct SnapshotWriter {
    interval: Duration,
    last_write: Option<Instant>,
    lines_written: u64,
    sink: Option<(String, std::io::BufWriter<std::fs::File>)>,
}

impl SnapshotWriter {
    /// Build a writer for `path` with the given interval. Open failures
    /// degrade to a disabled writer (with one stderr warning).
    pub fn new(path: &str, interval: Duration) -> SnapshotWriter {
        let sink = match std::fs::File::create(path) {
            Ok(file) => Some((path.to_string(), std::io::BufWriter::new(file))),
            Err(e) => {
                eprintln!("colorbars-obs: cannot open live snapshot file {path:?}: {e}; live snapshots disabled");
                None
            }
        };
        SnapshotWriter {
            interval,
            last_write: None,
            lines_written: 0,
            sink,
        }
    }

    /// Build from `COLORBARS_OBS_LIVE` / `COLORBARS_OBS_LIVE_INTERVAL_MS`.
    /// Returns `None` when the path variable is unset or empty.
    pub fn from_env() -> Option<SnapshotWriter> {
        let path = std::env::var(OBS_LIVE_ENV).ok().filter(|p| !p.is_empty())?;
        let interval_ms = std::env::var(OBS_LIVE_INTERVAL_ENV)
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&ms| ms > 0)
            .unwrap_or(DEFAULT_SNAPSHOT_INTERVAL_MS);
        Some(SnapshotWriter::new(
            &path,
            Duration::from_millis(interval_ms),
        ))
    }

    /// Whether the sink is still writable (false after degradation or when
    /// construction failed).
    pub fn is_active(&self) -> bool {
        self.sink.is_some()
    }

    /// Snapshot lines successfully written so far.
    pub fn lines_written(&self) -> u64 {
        self.lines_written
    }

    /// Write a snapshot if at least one interval has elapsed since the
    /// last write (the first tick always writes). Returns whether a line
    /// was written.
    pub fn tick(&mut self, registry: &Registry) -> bool {
        if self.sink.is_none() {
            return false;
        }
        let now = Instant::now();
        if let Some(last) = self.last_write {
            if now.duration_since(last) < self.interval {
                return false;
            }
        }
        self.write_snapshot(registry, now)
    }

    /// Write a snapshot now, regardless of the interval. Returns whether a
    /// line was written.
    pub fn force(&mut self, registry: &Registry) -> bool {
        if self.sink.is_none() {
            return false;
        }
        self.write_snapshot(registry, Instant::now())
    }

    fn write_snapshot(&mut self, registry: &Registry, now: Instant) -> bool {
        let Some((path, writer)) = self.sink.as_mut() else {
            return false;
        };
        let line = registry.snapshot().to_json().to_compact();
        let result = writeln!(writer, "{line}").and_then(|()| writer.flush());
        match result {
            Ok(()) => {
                self.last_write = Some(now);
                self.lines_written += 1;
                true
            }
            Err(e) => {
                eprintln!(
                    "colorbars-obs: live snapshot write to {path:?} failed: {e}; live snapshots disabled"
                );
                self.sink = None;
                false
            }
        }
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

    const SEC: u64 = 1_000_000_000;

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
        let r = reg.rate("test.live.disabled_r", &[]);
        let h = reg.histogram_ms("test.live.disabled_h", &[]);
        c.inc();
        g.set(3.0);
        r.record_at(5, 0);
        h.record_ms(1.0);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(r.total(), 0);
        assert_eq!(h.count(), 0);
        // The instruments still appear (at zero) in snapshots, so a
        // scraper sees the full metric surface.
        let snap = reg.snapshot_at(0);
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.gauges.len(), 1);
        assert_eq!(snap.rates.len(), 1);
        assert_eq!(snap.histograms.len(), 1);
    }

    #[test]
    fn window_rate_counts_full_window() {
        let _guard = test_lock::hold();
        let reg = enabled_registry();
        let r = reg.rate("test.live.rate", &[]);
        // 30 events spread over the first second.
        for i in 0..30u64 {
            r.record_at(1, i * SEC / 30);
        }
        let snap = reg.snapshot_at(SEC - 1);
        let s = &snap.rates[0];
        assert!((s.rate_1s - 30.0).abs() < 1e-9, "rate_1s={}", s.rate_1s);
        assert!((s.rate_10s - 3.0).abs() < 1e-9, "rate_10s={}", s.rate_10s);
        assert_eq!(s.total, 30);
        crate::disable();
    }

    #[test]
    fn window_rate_straddles_bucket_edges() {
        let _guard = test_lock::hold();
        let reg = enabled_registry();
        let r = reg.rate("test.live.straddle", &[]);
        // One event just before a bucket boundary, one just after.
        r.record_at(1, SEC - 1);
        r.record_at(1, SEC + 1);
        // Just after the boundary both fall inside the trailing 1 s window.
        let (rate_1s, _, _) = r.sample_at(SEC + 2);
        assert!((rate_1s - 2.0).abs() < 1e-9, "both counted: {rate_1s}");
        // 950 ms later the early bucket has slid out; only one remains.
        let (rate_1s, _, _) = r.sample_at(SEC + 950_000_000);
        assert!((rate_1s - 1.0).abs() < 1e-9, "early one expired: {rate_1s}");
        crate::disable();
    }

    #[test]
    fn window_rate_decays_to_zero_when_idle() {
        let _guard = test_lock::hold();
        let reg = enabled_registry();
        let r = reg.rate("test.live.idle", &[]);
        for i in 0..10u64 {
            r.record_at(1, i * SHORT_BUCKET_NS);
        }
        let (rate_1s, rate_10s, _) = r.sample_at(SEC);
        assert!(rate_1s > 0.0 && rate_10s > 0.0);
        // 30 s of silence: both windows must read exactly zero (stale
        // buckets excluded by epoch, not merely aged down), and the total
        // must survive.
        let (rate_1s, rate_10s, ewma) = r.sample_at(31 * SEC);
        assert_eq!(rate_1s, 0.0);
        assert_eq!(rate_10s, 0.0);
        assert!(ewma < 0.01, "ewma decays toward zero: {ewma}");
        assert_eq!(r.total(), 10);
        crate::disable();
    }

    #[test]
    fn window_rate_bucket_reuse_resets_stale_counts() {
        let _guard = test_lock::hold();
        let reg = enabled_registry();
        let r = reg.rate("test.live.reuse", &[]);
        r.record_at(100, 0);
        // Same ring slot, ten short-buckets later: the stale count must not
        // leak into the fresh epoch.
        r.record_at(1, RING_BUCKETS as u64 * SHORT_BUCKET_NS);
        let sum = r.0.short.sum_at(RING_BUCKETS as u64 * SHORT_BUCKET_NS);
        assert_eq!(sum, 1);
        crate::disable();
    }

    #[test]
    fn ewma_tracks_rate_changes_smoothly() {
        let _guard = test_lock::hold();
        let reg = enabled_registry();
        let r = reg.rate("test.live.ewma", &[]);
        for i in 0..10u64 {
            r.record_at(10, i * SHORT_BUCKET_NS);
        }
        let (_, _, e0) = r.sample_at(SEC - 1);
        assert!((e0 - 100.0).abs() < 1e-9, "first sample seeds ewma: {e0}");
        // Silence for one second: the EWMA moves toward zero but is still
        // partway there (τ = 3 s), strictly between.
        let (_, _, e1) = r.sample_at(2 * SEC);
        assert!(e1 < e0 && e1 > 0.0, "decaying: {e1}");
        crate::disable();
    }

    #[test]
    fn histogram_quantiles_are_close() {
        let _guard = test_lock::hold();
        let reg = enabled_registry();
        let h = reg.histogram_ms("test.live.hist", &[]);
        for i in 1..=100 {
            h.record_ms(i as f64);
        }
        let snap = reg.snapshot_at(0);
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
        let snap = reg.snapshot_at(0);
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
        let snap = reg.snapshot_at(5);
        assert_eq!(snap.counters[0].id.name, "test.live.a");
        assert_eq!(snap.counters[1].id.name, "test.live.b");
        let json = snap.to_json().to_compact();
        assert!(json.contains("\"t_ns\":5"));
        assert!(json.contains("\"session\":\"1\""));
        let parsed = Value::parse(&json).expect("snapshot JSON parses");
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
    fn prometheus_rendering_is_valid_and_escaped() {
        let _guard = test_lock::hold();
        let reg = enabled_registry();
        reg.counter("test.live.frames", &[("session", "tx\"0\\\n")])
            .add(3);
        reg.gauge("test.live.queue_depth", &[("session", "0")])
            .set(2.0);
        let r = reg.rate("test.live.fps", &[("session", "0")]);
        r.record_at(30, 0);
        reg.histogram_ms("test.live.latency_ms", &[]).record_ms(4.0);
        let text = reg.snapshot_at(1).render_prometheus();
        // Dotted names sanitized; counter suffixed.
        assert!(text.contains("test_live_frames_total{session=\"tx\\\"0\\\\\\n\"} 3"));
        assert!(text.contains("# TYPE test_live_frames_total counter"));
        assert!(text.contains("test_live_fps_per_sec{session=\"0\",window=\"1s\"}"));
        assert!(text.contains("test_live_latency_ms{quantile=\"0.5\"}"));
        assert!(text.contains("test_live_latency_ms_count 1"));
        // And the strict validator accepts it, recovering the escaped value.
        let samples = validate_exposition(&text).expect("valid exposition");
        let frames = samples
            .iter()
            .find(|s| s.name == "test_live_frames_total")
            .expect("frames sample present");
        assert_eq!(frames.labels[0].1, "tx\"0\\\n");
        assert_eq!(frames.value, 3.0);
        crate::disable();
    }

    #[test]
    fn validator_rejects_malformed_exposition() {
        for bad in [
            "1bad_name 1\n",
            "name{2bad=\"x\"} 1\n",
            "name{l=\"x\"} notanumber\n",
            "name{l=\"unterminated} 1\n",
            "name{l=\"x\" 1\n",
            "name 1 2 3\n",
            "# TYPE name nonsense\n",
            "# WAT name\n",
            "name{l=\"bad\\q\"} 1\n",
            "# TYPE x gauge\nx 1\n# TYPE x gauge\nx{l=\"b\"} 2\n",
        ] {
            assert!(validate_exposition(bad).is_err(), "should reject {bad:?}");
        }
        // Valid corner cases.
        let ok = "# HELP x anything goes here\n# TYPE x gauge\nx 1.5\nplain_total 2 1234\n";
        let samples = validate_exposition(ok).expect("valid");
        assert_eq!(samples.len(), 2);
    }

    #[test]
    fn exposition_emits_one_type_line_per_family() {
        let _guard = test_lock::hold();
        let reg = enabled_registry();
        // Two label sets per family across every instrument kind.
        for session in ["s0", "s1"] {
            let l = [("session", session)];
            reg.counter("test.live.multi.frames", &l).inc();
            reg.gauge("test.live.multi.depth", &l).set(1.0);
            reg.rate("test.live.multi.fps", &l).record_at(1, 0);
            reg.histogram_ms("test.live.multi.lat_ms", &l)
                .record_ms(2.0);
        }
        let text = reg.snapshot_at(1).render_prometheus();
        for family in [
            "test_live_multi_frames_total",
            "test_live_multi_depth",
            "test_live_multi_fps_per_sec",
            "test_live_multi_fps_events_total",
            "test_live_multi_lat_ms",
        ] {
            let type_lines = text
                .lines()
                .filter(|l| {
                    l.strip_prefix("# TYPE ")
                        .is_some_and(|r| r.split(' ').next() == Some(family))
                })
                .count();
            assert_eq!(
                type_lines, 1,
                "family {family} must have exactly one TYPE line"
            );
        }
        // The strict validator (which rejects duplicate TYPEs) agrees.
        validate_exposition(&text).expect("valid exposition");
        crate::disable();
    }

    #[test]
    fn monotone_counter_check_catches_regressions() {
        let a = validate_exposition("m_total{s=\"0\"} 5\nother 1\n").unwrap();
        let b_ok = validate_exposition("m_total{s=\"0\"} 7\n").unwrap();
        let b_back = validate_exposition("m_total{s=\"0\"} 3\n").unwrap();
        let b_missing = validate_exposition("unrelated_total 9\n").unwrap();
        assert!(check_monotone_counters(&a, &b_ok).is_ok());
        assert!(check_monotone_counters(&a, &b_back).is_err());
        assert!(check_monotone_counters(&a, &b_missing).is_err());
        // Non-counter samples are not required to persist.
        let gauges_only = validate_exposition("other 0.5\n").unwrap();
        assert!(check_monotone_counters(&gauges_only, &b_ok).is_ok());
    }

    #[test]
    fn label_value_escaping_roundtrips_through_validation() {
        let _guard = test_lock::hold();
        let reg = enabled_registry();
        // The three characters the exposition format escapes, plus a mix.
        let values = [
            "back\\slash",
            "quo\"te",
            "new\nline",
            "all\\three\"at\nonce",
        ];
        for (i, value) in values.iter().enumerate() {
            reg.counter("test.live.escape", &[("v", value), ("i", &i.to_string())])
                .add(i as u64 + 1);
        }
        let text = reg.snapshot().render_prometheus();
        // The raw control characters never appear unescaped in the body…
        for line in text.lines() {
            assert!(!line.contains("new\nline"), "newline must be escaped");
        }
        assert!(text.contains("back\\\\slash"), "backslash doubled:\n{text}");
        assert!(text.contains("quo\\\"te"), "quote escaped:\n{text}");
        assert!(text.contains("new\\nline"), "newline as \\n:\n{text}");
        // …and strict validation parses the escapes back to the originals.
        let samples = validate_exposition(&text).expect("escaped exposition validates");
        for (i, value) in values.iter().enumerate() {
            let found = samples
                .iter()
                .find(|s| {
                    s.labels
                        .iter()
                        .any(|(k, v)| k == "i" && v == &i.to_string())
                })
                .unwrap_or_else(|| panic!("sample {i} present"));
            assert!(
                found.labels.iter().any(|(k, v)| k == "v" && v == value),
                "label value {value:?} round-trips, got {:?}",
                found.labels
            );
        }
        crate::disable();
    }

    #[test]
    fn monotone_check_catches_a_registry_reset() {
        let _guard = test_lock::hold();
        // A mid-run registry replacement (gateway restart, accidental
        // re-init) zeroes every counter: the cross-scrape monotone check
        // must flag the regression rather than treat it as a fresh world.
        let before = enabled_registry();
        before
            .counter("test.live.reset", &[("session", "s0")])
            .add(41);
        let first = validate_exposition(&before.snapshot().render_prometheus()).unwrap();
        assert!(first.iter().any(|s| s.name.ends_with("_total")));

        let after = Registry::new(); // the "reset": same names, zeroed
        let fresh = after.counter("test.live.reset", &[("session", "s0")]);
        fresh.add(3);
        let second = validate_exposition(&after.snapshot().render_prometheus()).unwrap();
        let err = check_monotone_counters(&first, &second)
            .expect_err("a reset registry must fail the monotone check");
        assert!(err.contains("went backwards"), "{err}");

        // Continuing the original registry still passes.
        before
            .counter("test.live.reset", &[("session", "s0")])
            .inc();
        let third = validate_exposition(&before.snapshot().render_prometheus()).unwrap();
        assert!(check_monotone_counters(&first, &third).is_ok());
        crate::disable();
    }

    #[test]
    fn snapshot_writer_writes_lines_and_respects_interval() {
        let _guard = test_lock::hold();
        let reg = enabled_registry();
        reg.counter("test.live.writer", &[]).inc();
        let dir = std::env::temp_dir().join("colorbars_obs_live_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("live.jsonl");
        let mut w = SnapshotWriter::new(path.to_str().unwrap(), Duration::from_secs(3600));
        assert!(w.is_active());
        assert!(w.tick(&reg), "first tick writes");
        assert!(!w.tick(&reg), "second tick inside interval skips");
        assert!(w.force(&reg), "force always writes");
        assert_eq!(w.lines_written(), 2);
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.lines().count(), 2);
        for line in body.lines() {
            let v = Value::parse(line).expect("each line is one JSON object");
            assert!(v.get("counters").is_some());
        }
        let _ = std::fs::remove_dir_all(&dir);
        crate::disable();
    }

    #[test]
    fn snapshot_writer_degrades_gracefully() {
        let _guard = test_lock::hold();
        let reg = enabled_registry();
        let mut w = SnapshotWriter::new(
            "/nonexistent-dir-for-colorbars/live.jsonl",
            Duration::from_millis(1),
        );
        assert!(!w.is_active(), "unopenable path disables the writer");
        assert!(!w.tick(&reg));
        assert!(!w.force(&reg));
        assert_eq!(w.lines_written(), 0);
        crate::disable();
    }

    #[test]
    fn from_env_reads_path_and_interval() {
        let _guard = test_lock::hold();
        // Serialized by the test lock: env mutation is process-global.
        std::env::remove_var(OBS_LIVE_ENV);
        assert!(SnapshotWriter::from_env().is_none());
        let dir = std::env::temp_dir().join("colorbars_obs_live_env_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("env.jsonl");
        std::env::set_var(OBS_LIVE_ENV, path.to_str().unwrap());
        std::env::set_var(OBS_LIVE_INTERVAL_ENV, "250");
        let w = SnapshotWriter::from_env().expect("configured writer");
        assert!(w.is_active());
        assert_eq!(w.interval, Duration::from_millis(250));
        std::env::remove_var(OBS_LIVE_ENV);
        std::env::remove_var(OBS_LIVE_INTERVAL_ENV);
        let _ = std::fs::remove_dir_all(&dir);
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
        assert!(reg.snapshot_at(0).counters.is_empty(), "zero sources hide");
        CELL.store(7, Ordering::Relaxed);
        reg.counter("test.live.owned", &[]);
        reg.clear();
        let snap = reg.snapshot_at(0);
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
