//! Per-packet journey provenance: correlation-ID records following every
//! packet end-to-end through the pipeline.
//!
//! The registry's counters and span histograms answer *how much* was lost
//! per stage and how long each stage took; the journey ring answers *what
//! happened to this packet*: which frames its symbols landed on, which
//! bands the classifier produced, what the depacketizer's verdict was and
//! why. Each record carries a process-unique correlation id plus a
//! per-thread namespace (a session label such as `"s3"`), so a fleet of
//! concurrent [`crate::live`] sessions keeps its journeys separable.
//!
//! Journeys are **off by default** and cost nothing when off: every
//! recording entry point checks [`is_active`] — one relaxed atomic load —
//! and returns immediately. Turn them on with `COLORBARS_OBS_JOURNEY=1`
//! (or [`crate::ObsConfig::journey`]), or programmatically with
//! [`set_enabled`]. Records land in a bounded ring of [`CAPACITY`]
//! entries; overflow evicts the oldest record and counts a drop, so a
//! long-running gateway retains the *recent* history a flight-recorder
//! dump ([`mod@crate::flight`]) needs without unbounded memory.
//!
//! A record's [`JourneyRecord::bands`] are the receiver's actual decode
//! inputs (label, nearest color index, CIELAB feature, frame index), which
//! is what makes the flight recorder's post-mortem replay deterministic:
//! re-running the pure decode on the recorded bands must reproduce the
//! recorded verdict byte-for-byte.

use crate::json::Value;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Maximum retained journey records (ring; overflow evicts oldest).
pub const CAPACITY: usize = 1024;

/// Maximum bands kept per record; excess is truncated and flagged so a
/// pathological mega-packet cannot balloon the ring.
pub const MAX_BANDS: usize = 4096;

/// One observed band as recorded in a journey — the receiver's decode
/// input for that symbol, reduced to primitives so the obs crate stays
/// dependency-free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandRecord {
    /// Classified label: 0 = OFF, 1 = white, 2 = data color.
    pub label: u8,
    /// Active demodulation verdict: nearest constellation point index, or
    /// the learned equalizer's verdict when one is trained (meaningful for
    /// any label).
    pub color_idx: u16,
    /// The plain nearest-neighbor verdict — equals `color_idx` unless a
    /// learned equalizer produced the active verdict. Lets the post-mortem
    /// doctor attribute symbol errors to equalizer-miss vs channel loss.
    pub nn_idx: u16,
    /// CIELAB L* of the band's feature vector.
    pub l: f64,
    /// CIELAB a* of the band's feature vector.
    pub a: f64,
    /// CIELAB b* of the band's feature vector.
    pub b: f64,
    /// Index of the captured frame this band was segmented from.
    pub frame_index: u64,
}

/// OFF label code in [`BandRecord::label`].
pub const LABEL_OFF: u8 = 0;
/// White label code in [`BandRecord::label`].
pub const LABEL_WHITE: u8 = 1;
/// Data-color label code in [`BandRecord::label`].
pub const LABEL_COLOR: u8 = 2;

impl BandRecord {
    /// Serialize as a compact JSON array
    /// `[label, color_idx, l, a, b, frame, nn_idx]`. The trailing `nn_idx`
    /// is elided when it equals `color_idx` (the no-equalizer common case),
    /// keeping dumps byte-identical with pre-equalizer builds.
    pub fn to_json(&self) -> Value {
        let mut v = vec![
            Value::from(self.label as u64),
            Value::from(self.color_idx as u64),
            Value::from(self.l),
            Value::from(self.a),
            Value::from(self.b),
            Value::from(self.frame_index),
        ];
        if self.nn_idx != self.color_idx {
            v.push(Value::from(self.nn_idx as u64));
        }
        Value::Array(v)
    }

    /// Parse the compact array form written by [`BandRecord::to_json`].
    /// Accepts the 6-element pre-equalizer form (`nn_idx` defaults to
    /// `color_idx`).
    pub fn from_json(v: &Value) -> Option<BandRecord> {
        let a = v.as_array()?;
        if a.len() != 6 && a.len() != 7 {
            return None;
        }
        let color_idx = a[1].as_u64()? as u16;
        Some(BandRecord {
            label: a[0].as_u64()? as u8,
            color_idx,
            l: a[2].as_f64()?,
            a: a[3].as_f64()?,
            b: a[4].as_f64()?,
            frame_index: a[5].as_u64()?,
            nn_idx: match a.get(6) {
                Some(x) => x.as_u64()? as u16,
                None => color_idx,
            },
        })
    }
}

/// One packet's journey through the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct JourneyRecord {
    /// Process-unique correlation id (monotone; see [`next_id`]).
    pub id: u64,
    /// The recording thread's namespace (session label; `"main"` default).
    pub namespace: String,
    /// Pipeline stage that produced the record: `"tx.emit"`, `"rx.data"`,
    /// `"rx.segment"`, `"rx.fec_group"`, `"rx.calibration"`.
    pub stage: String,
    /// Outcome: `"ok"`, `"scheduled"` (tx side), or a depacketizer
    /// [`FailReason`](crate) string such as `"rs_failed"`.
    pub verdict: String,
    /// Distinct captured-frame indices the packet's symbols touched.
    pub frames: Vec<u64>,
    /// The recorded decode inputs (empty on the tx side).
    pub bands: Vec<BandRecord>,
    /// Stage-specific extras: wire span, FEC group/position, erasure maps,
    /// corrected counts, chunk bytes — free-form but JSON-serializable.
    pub fields: Value,
}

impl JourneyRecord {
    /// Serialize the record as a JSON object.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("id", Value::from(self.id)),
            ("namespace", Value::from(self.namespace.as_str())),
            ("stage", Value::from(self.stage.as_str())),
            ("verdict", Value::from(self.verdict.as_str())),
            (
                "frames",
                Value::Array(self.frames.iter().map(|f| Value::from(*f)).collect()),
            ),
            (
                "bands",
                Value::Array(self.bands.iter().map(BandRecord::to_json).collect()),
            ),
            ("fields", self.fields.clone()),
        ])
    }

    /// Parse a record serialized by [`JourneyRecord::to_json`].
    pub fn from_json(v: &Value) -> Option<JourneyRecord> {
        Some(JourneyRecord {
            id: v.get("id")?.as_u64()?,
            namespace: v.get("namespace")?.as_str()?.to_string(),
            stage: v.get("stage")?.as_str()?.to_string(),
            verdict: v.get("verdict")?.as_str()?.to_string(),
            frames: v
                .get("frames")?
                .as_array()?
                .iter()
                .map(|f| f.as_u64())
                .collect::<Option<Vec<u64>>>()?,
            bands: v
                .get("bands")?
                .as_array()?
                .iter()
                .map(BandRecord::from_json)
                .collect::<Option<Vec<BandRecord>>>()?,
            fields: v.get("fields").cloned().unwrap_or(Value::Null),
        })
    }
}

#[derive(Debug, Default)]
struct State {
    ring: VecDeque<JourneyRecord>,
    recorded: u64,
    dropped: u64,
}

/// Whether journey recording is on. One relaxed atomic load — the only
/// cost instrumented code pays when journeys are disabled.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Correlation-id sequence (process-wide, never reset: ids stay unique
/// across [`reset`] so a flight dump can't alias two packets).
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Bumped on [`reset`] so thread-local namespaces survive but stale
/// cross-generation reads are detectable in tests.
static GENERATION: AtomicU64 = AtomicU64::new(0);

fn state() -> &'static Mutex<State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(State::default()))
}

fn lock() -> MutexGuard<'static, State> {
    state()
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

thread_local! {
    static NAMESPACE: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Whether journey recording is active. One relaxed atomic load.
#[inline(always)]
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Turn journey recording on or off (idempotent). Harnesses usually go
/// through [`crate::init`] with [`crate::ObsConfig::journey`] set.
pub fn set_enabled(on: bool) {
    ACTIVE.store(on, Ordering::Relaxed);
}

/// Clear the ring and drop counters (enabled state and the correlation-id
/// sequence are unchanged).
pub fn reset() {
    let mut s = lock();
    s.ring.clear();
    s.recorded = 0;
    s.dropped = 0;
    GENERATION.fetch_add(1, Ordering::Relaxed);
}

/// Allocate the next correlation id (monotone, process-unique).
pub fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Set the calling thread's journey namespace (a session label). Session
/// workers call this once at spawn; the default is `"main"`.
pub fn set_namespace(name: &str) {
    NAMESPACE.with(|ns| *ns.borrow_mut() = Some(name.to_string()));
}

/// The calling thread's journey namespace (`"main"` if never set).
pub fn namespace() -> String {
    NAMESPACE.with(|ns| {
        ns.borrow()
            .as_ref()
            .cloned()
            .unwrap_or_else(|| "main".to_string())
    })
}

/// Record one journey. Assigns a fresh correlation id when `record.id` is
/// zero and stamps the thread namespace when `record.namespace` is empty;
/// returns the record's id. No-op (returning 0) when journeys are off.
pub fn record(mut record: JourneyRecord) -> u64 {
    if !is_active() {
        return 0;
    }
    if record.id == 0 {
        record.id = next_id();
    }
    if record.namespace.is_empty() {
        record.namespace = namespace();
    }
    if record.bands.len() > MAX_BANDS {
        record.bands.truncate(MAX_BANDS);
        if !matches!(record.fields, Value::Object(_)) {
            record.fields = Value::Object(std::collections::BTreeMap::new());
        }
        record.fields.insert("bands_truncated", Value::Bool(true));
    }
    let id = record.id;
    let mut s = lock();
    if s.ring.len() >= CAPACITY {
        s.ring.pop_front();
        s.dropped += 1;
    }
    s.ring.push_back(record);
    s.recorded += 1;
    id
}

/// `(recorded, dropped, retained)` since the last [`reset`]. The global
/// registry reads the first two as `journey.recorded` / `journey.dropped`.
pub fn stats() -> (u64, u64, usize) {
    let s = lock();
    (s.recorded, s.dropped, s.ring.len())
}

/// Clone every retained record, oldest first.
pub fn snapshot() -> Vec<JourneyRecord> {
    lock().ring.iter().cloned().collect()
}

/// Clone the retained record with the given correlation id, if any.
pub fn find(id: u64) -> Option<JourneyRecord> {
    lock().ring.iter().find(|r| r.id == id).cloned()
}

/// Serialize the ring as a JSON array (oldest first).
pub fn to_json() -> Value {
    Value::Array(lock().ring.iter().map(JourneyRecord::to_json).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    fn sample(stage: &str, verdict: &str) -> JourneyRecord {
        JourneyRecord {
            id: 0,
            namespace: String::new(),
            stage: stage.to_string(),
            verdict: verdict.to_string(),
            frames: vec![3, 4],
            bands: vec![BandRecord {
                label: LABEL_COLOR,
                color_idx: 5,
                nn_idx: 5,
                l: 50.0,
                a: 1.5,
                b: -2.5,
                frame_index: 3,
            }],
            fields: Value::object([("group", Value::from(2u64))]),
        }
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _guard = test_lock::hold();
        set_enabled(false);
        reset();
        assert_eq!(record(sample("rx.data", "ok")), 0);
        assert_eq!(stats(), (0, 0, 0));
    }

    #[test]
    fn records_get_unique_ids_and_thread_namespace() {
        let _guard = test_lock::hold();
        crate::init(crate::ObsConfig::default());
        crate::reset();
        set_enabled(true);
        set_namespace("test-ns");
        let a = record(sample("rx.data", "ok"));
        let b = record(sample("rx.data", "rs_failed"));
        assert!(a != 0 && b != 0 && a != b);
        let snap = snapshot();
        assert_eq!(snap.len(), 2);
        assert!(snap.iter().all(|r| r.namespace == "test-ns"));
        assert_eq!(find(b).unwrap().verdict, "rs_failed");
        set_namespace("main");
        set_enabled(false);
        crate::disable();
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let _guard = test_lock::hold();
        crate::init(crate::ObsConfig::default());
        crate::reset();
        set_enabled(true);
        for _ in 0..(CAPACITY + 7) {
            record(sample("rx.data", "ok"));
        }
        let (recorded, dropped, retained) = stats();
        assert_eq!(recorded, (CAPACITY + 7) as u64);
        assert_eq!(dropped, 7);
        assert_eq!(retained, CAPACITY);
        set_enabled(false);
        crate::disable();
    }

    #[test]
    fn json_round_trip_preserves_records() {
        let _guard = test_lock::hold();
        crate::init(crate::ObsConfig::default());
        crate::reset();
        set_enabled(true);
        set_namespace("rt");
        record(sample("rx.fec_group", "unrecoverable_burst"));
        let doc = to_json().to_compact();
        let parsed = Value::parse(&doc).unwrap();
        let back: Vec<JourneyRecord> = parsed
            .as_array()
            .unwrap()
            .iter()
            .map(|v| JourneyRecord::from_json(v).unwrap())
            .collect();
        assert_eq!(back, snapshot());
        set_namespace("main");
        set_enabled(false);
        crate::disable();
    }

    #[test]
    fn oversized_band_lists_are_truncated_and_flagged() {
        let _guard = test_lock::hold();
        crate::init(crate::ObsConfig::default());
        crate::reset();
        set_enabled(true);
        let mut r = sample("rx.data", "ok");
        r.bands = vec![r.bands[0]; MAX_BANDS + 3];
        let id = record(r);
        let kept = find(id).unwrap();
        assert_eq!(kept.bands.len(), MAX_BANDS);
        assert_eq!(kept.fields.get("bands_truncated"), Some(&Value::Bool(true)));
        set_enabled(false);
        crate::disable();
    }
}
