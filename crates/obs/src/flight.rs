//! Failure flight recorder: on failure triggers, snapshot the implicated
//! packet journeys plus the decode state needed to replay them, and dump
//! everything as one self-contained `.fdr.json` file.
//!
//! The journey ring ([`mod@crate::journey`]) retains recent per-packet
//! provenance; this module decides *when that history matters*. Decode
//! stages call [`trigger`] on the failure classes worth a post-mortem —
//! RS decode failure, header loss, an unrecoverable interleaved burst, a
//! session eviction — and each trigger pins a clone of the implicated
//! journey so it survives ring eviction in long runs. [`flush_to_configured`]
//! (wired into [`crate::flush`]) then writes `<dir>/<run>.fdr.json`
//! containing the triggers, the retained journey ring, the per-namespace
//! replay contexts registered via [`set_context`], and a counter snapshot.
//!
//! The dump is **self-contained**: the `postmortem` bench bin re-runs the
//! decode from the recorded bands and contexts alone — no captured frames,
//! no RNG, no live session required — and asserts a byte-identical verdict.
//!
//! Like tracing, the recorder is off by default, costs one relaxed atomic
//! load when off, probes its output directory for writability up front,
//! and degrades to a warning (never a panic) on I/O failure. Configuring
//! the flight recorder also enables journey recording — a flight dump
//! without journeys would have nothing to replay.

use crate::journey::{self, JourneyRecord};
use crate::json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Maximum retained failure triggers per run (excess is counted, not kept).
pub const MAX_TRIGGERS: usize = 256;

/// Flight-dump format version (`version` field of the dump).
pub const DUMP_VERSION: u64 = 1;

/// One recorded failure trigger.
#[derive(Debug, Clone, PartialEq)]
pub struct Trigger {
    /// Failure class: `"rs_failed"`, `"header_lost"`,
    /// `"unrecoverable_burst"`, or `"session_evicted"`.
    pub reason: String,
    /// Namespace (session label) the failure happened in.
    pub namespace: String,
    /// Correlation id of the implicated journey (0 = none, e.g. eviction).
    pub journey: u64,
    /// A clone of the implicated journey pinned at trigger time, so it
    /// survives ring eviction before the dump is written.
    pub journey_record: Option<JourneyRecord>,
    /// Free-form extra context from the trigger site.
    pub detail: Value,
}

impl Trigger {
    fn to_json(&self) -> Value {
        Value::object([
            ("reason", Value::from(self.reason.as_str())),
            ("namespace", Value::from(self.namespace.as_str())),
            ("journey", Value::from(self.journey)),
            (
                "journey_record",
                self.journey_record
                    .as_ref()
                    .map_or(Value::Null, JourneyRecord::to_json),
            ),
            ("detail", self.detail.clone()),
        ])
    }
}

#[derive(Debug, Default)]
struct State {
    /// Output directory (dump lands at `<dir>/<run>.fdr.json`).
    dir: Option<String>,
    run: String,
    triggers: Vec<Trigger>,
    dropped: u64,
    /// Per-namespace replay context (link parameters, reference points).
    contexts: BTreeMap<String, Value>,
}

/// Whether the flight recorder is armed. One relaxed atomic load.
static ACTIVE: AtomicBool = AtomicBool::new(false);

fn state() -> &'static Mutex<State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(State::default()))
}

fn lock() -> MutexGuard<'static, State> {
    state()
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Whether the flight recorder is armed (configured with a writable
/// directory). One relaxed atomic load.
#[inline(always)]
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Arm the recorder: dumps land at `<dir>/<run>.fdr.json`. Probes the
/// directory for writability (a failed probe warns and leaves the recorder
/// off — never panics); `None` disarms. Arming also enables journey
/// recording, since a dump without journeys has nothing to replay.
pub fn configure(dir: Option<&str>, run: &str) {
    let mut s = lock();
    match dir {
        Some(d) => {
            let probe = std::path::Path::new(d).join(".fdr-probe");
            let probed = std::fs::create_dir_all(d)
                .and_then(|()| std::fs::write(&probe, "ok"))
                .map(|()| {
                    let _ = std::fs::remove_file(&probe);
                });
            if let Err(err) = probed {
                eprintln!(
                    "colorbars-obs: cannot open flight-recorder dir {d}: {err} (recorder disarmed)"
                );
                s.dir = None;
                ACTIVE.store(false, Ordering::Relaxed);
                return;
            }
            s.dir = Some(d.to_string());
            s.run = run.to_string();
            s.triggers.clear();
            s.dropped = 0;
            s.contexts.clear();
            ACTIVE.store(true, Ordering::Relaxed);
            journey::set_enabled(true);
        }
        None => {
            s.dir = None;
            ACTIVE.store(false, Ordering::Relaxed);
        }
    }
}

/// Clear recorded triggers and contexts (keeps the armed state and the
/// configured destination).
pub fn reset() {
    let mut s = lock();
    s.triggers.clear();
    s.dropped = 0;
    s.contexts.clear();
}

/// Register the replay context for a namespace (link parameters, current
/// calibration reference points, …). Latest call wins. No-op when the
/// recorder is off.
pub fn set_context(namespace: &str, context: Value) {
    if !is_active() {
        return;
    }
    lock().contexts.insert(namespace.to_string(), context);
}

/// Record a failure trigger. `journey_id` is the implicated journey's
/// correlation id (0 when none applies, e.g. a session eviction); the
/// journey is cloned out of the ring immediately so later eviction cannot
/// lose it. No-op when the recorder is off.
pub fn trigger(reason: &str, journey_id: u64, detail: Value) {
    if !is_active() {
        return;
    }
    let journey_record = if journey_id != 0 {
        journey::find(journey_id)
    } else {
        None
    };
    let t = Trigger {
        reason: reason.to_string(),
        namespace: journey::namespace(),
        journey: journey_id,
        journey_record,
        detail,
    };
    let mut s = lock();
    if s.triggers.len() >= MAX_TRIGGERS {
        s.dropped += 1;
    } else {
        s.triggers.push(t);
    }
}

/// `(triggers retained, triggers dropped)` since the last [`reset`]. The
/// global registry reads their sum as `flight.triggers`.
pub fn stats() -> (usize, u64) {
    let s = lock();
    (s.triggers.len(), s.dropped)
}

/// The dump path the recorder will write to, when armed.
pub fn dump_path() -> Option<String> {
    let s = lock();
    s.dir.as_ref().map(|d| {
        std::path::Path::new(d)
            .join(format!("{}.fdr.json", s.run))
            .to_string_lossy()
            .to_string()
    })
}

/// Build the self-contained flight dump document.
pub fn to_json() -> Value {
    let (recorded, journeys_dropped, _) = journey::stats();
    let counters = Value::object(
        crate::snapshot()
            .counters
            .into_iter()
            .map(|c| (c.id.name, Value::from(c.value))),
    );
    let s = lock();
    Value::object([
        ("version", Value::from(DUMP_VERSION)),
        ("run", Value::from(s.run.as_str())),
        (
            "triggers",
            Value::Array(s.triggers.iter().map(Trigger::to_json).collect()),
        ),
        ("triggers_dropped", Value::from(s.dropped)),
        ("journeys", journey::to_json()),
        ("journeys_recorded", Value::from(recorded)),
        ("journeys_dropped", Value::from(journeys_dropped)),
        (
            "contexts",
            Value::object(s.contexts.iter().map(|(k, v)| (k.clone(), v.clone()))),
        ),
        ("counters", counters),
    ])
}

/// Write the dump document to `path` (pretty JSON + trailing newline).
pub fn write_to(path: &str) -> std::io::Result<()> {
    let mut body = to_json().to_pretty();
    body.push('\n');
    std::fs::write(path, body)
}

/// Write the dump to the configured destination when armed **and** at
/// least one trigger fired (a clean run leaves no dump behind). Failures
/// warn — a full disk must not take down a finished run. Wired into
/// [`crate::flush`].
pub fn flush_to_configured() {
    if !is_active() {
        return;
    }
    if lock().triggers.is_empty() {
        return;
    }
    if let Some(path) = dump_path() {
        if let Err(err) = write_to(&path) {
            eprintln!("colorbars-obs: flight dump write failed ({path}): {err}");
        } else {
            eprintln!("colorbars-obs: flight dump written: {path}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journey::{BandRecord, LABEL_COLOR};
    use crate::test_lock;

    fn temp_dir(stem: &str) -> String {
        let dir = std::env::temp_dir().join(format!("colorbars_fdr_{stem}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir.to_string_lossy().to_string()
    }

    fn one_journey(verdict: &str) -> u64 {
        journey::record(JourneyRecord {
            id: 0,
            namespace: String::new(),
            stage: "rx.data".to_string(),
            verdict: verdict.to_string(),
            frames: vec![1],
            bands: vec![BandRecord {
                label: LABEL_COLOR,
                color_idx: 2,
                nn_idx: 2,
                l: 40.0,
                a: 3.0,
                b: 4.0,
                frame_index: 1,
            }],
            fields: Value::Null,
        })
    }

    #[test]
    fn disarmed_recorder_is_a_no_op() {
        let _guard = test_lock::hold();
        configure(None, "");
        reset();
        trigger("rs_failed", 0, Value::Null);
        set_context("main", Value::Null);
        assert_eq!(stats(), (0, 0));
        flush_to_configured();
    }

    #[test]
    fn trigger_pins_journey_and_dump_round_trips() {
        let _guard = test_lock::hold();
        crate::init(crate::ObsConfig::default());
        crate::reset();
        let dir = temp_dir("round_trip");
        configure(Some(&dir), "testrun");
        assert!(is_active());
        assert!(journey::is_active(), "arming enables journeys");
        let id = one_journey("rs_failed");
        trigger(
            "rs_failed",
            id,
            Value::object([("expected_len", Value::from(9u64))]),
        );
        set_context("main", Value::object([("order", Value::from(8u64))]));
        crate::flush();
        let path = dump_path().unwrap();
        let body = std::fs::read_to_string(&path).expect("dump written");
        let doc = Value::parse(&body).expect("dump parses");
        assert_eq!(
            doc.get("version").and_then(Value::as_u64),
            Some(DUMP_VERSION)
        );
        assert_eq!(doc.get("run").and_then(Value::as_str), Some("testrun"));
        let triggers = doc.get("triggers").and_then(Value::as_array).unwrap();
        assert_eq!(triggers.len(), 1);
        assert_eq!(triggers[0].get("journey").and_then(Value::as_u64), Some(id));
        let pinned = JourneyRecord::from_json(triggers[0].get("journey_record").unwrap()).unwrap();
        assert_eq!(pinned.verdict, "rs_failed");
        assert!(doc.get("contexts").and_then(|c| c.get("main")).is_some());
        assert!(doc.get("counters").is_some());
        configure(None, "");
        journey::set_enabled(false);
        crate::disable();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_runs_leave_no_dump() {
        let _guard = test_lock::hold();
        crate::init(crate::ObsConfig::default());
        crate::reset();
        let dir = temp_dir("clean");
        configure(Some(&dir), "clean");
        crate::flush();
        assert!(!std::path::Path::new(&dump_path().unwrap()).exists());
        configure(None, "");
        journey::set_enabled(false);
        crate::disable();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_dir_degrades_gracefully() {
        let _guard = test_lock::hold();
        configure(Some("/proc/definitely-not-writable/fdr"), "x");
        assert!(!is_active());
        trigger("rs_failed", 0, Value::Null);
        flush_to_configured();
    }

    #[test]
    fn trigger_cap_counts_overflow() {
        let _guard = test_lock::hold();
        crate::init(crate::ObsConfig::default());
        crate::reset();
        let dir = temp_dir("cap");
        configure(Some(&dir), "cap");
        for _ in 0..(MAX_TRIGGERS + 4) {
            trigger("header_lost", 0, Value::Null);
        }
        assert_eq!(stats(), (MAX_TRIGGERS, 4));
        configure(None, "");
        journey::set_enabled(false);
        crate::disable();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
