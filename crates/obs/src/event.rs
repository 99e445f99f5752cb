//! The structured event sink: a bounded ring buffer plus an optional JSONL
//! mirror.
//!
//! Events are discrete, timestamped facts a run wants to remember for
//! replay or diffing that no counter already holds — the per-seed metrics
//! of a sweep point, why an equalizer fell back, a channel change. The ring
//! buffer keeps the most recent 16384 events in memory for the run
//! report; setting `COLORBARS_OBS_JSONL=<path>` (or
//! [`crate::ObsConfig::jsonl_path`]) additionally streams every event to a
//! JSON-lines file as it happens, so even events the ring has dropped can
//! be replayed.

use crate::json::Value;
use std::collections::VecDeque;
use std::io::Write as _;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Events the ring buffer retains; each one past it evicts the oldest.
const CAPACITY: usize = 16_384;

/// One structured event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotonic sequence number (0-based since the last reset).
    pub seq: u64,
    /// Nanoseconds since the sink was created (process-relative clock).
    pub t_ns: u64,
    /// Event name (dotted path, like span/counter names).
    pub name: String,
    /// Structured payload.
    pub fields: Value,
}

impl Event {
    /// Serialize as a JSON object.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("seq", Value::from(self.seq)),
            ("t_ns", Value::from(self.t_ns)),
            ("name", Value::from(self.name.as_str())),
            ("fields", self.fields.clone()),
        ])
    }
}

struct Sink {
    epoch: Instant,
    ring: VecDeque<Event>,
    emitted: u64,
    dropped: u64,
    jsonl: Option<std::io::BufWriter<std::fs::File>>,
}

impl Sink {
    fn new() -> Sink {
        Sink {
            epoch: Instant::now(),
            ring: VecDeque::new(),
            emitted: 0,
            dropped: 0,
            jsonl: None,
        }
    }
}

fn sink() -> &'static Mutex<Sink> {
    static SINK: OnceLock<Mutex<Sink>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Sink::new()))
}

fn lock() -> std::sync::MutexGuard<'static, Sink> {
    sink()
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Apply the sink-related parts of an [`crate::ObsConfig`].
pub(crate) fn configure_sink(config: &crate::ObsConfig) {
    if let Some(path) = &config.jsonl_path {
        match std::fs::File::create(path) {
            Ok(file) => lock().jsonl = Some(std::io::BufWriter::new(file)),
            Err(err) => eprintln!("colorbars-obs: cannot open JSONL sink {path}: {err}"),
        }
    }
}

/// Emit an event with `(key, value)` payload pairs:
/// `obs::event("sweep.seed", [("seed", 7u64.into()), ("ser", ser.into())])`.
/// No-op when observability is disabled.
pub fn event<K, I>(name: &str, fields: I)
where
    K: Into<String>,
    I: IntoIterator<Item = (K, Value)>,
{
    if !crate::is_enabled() {
        return;
    }
    event_fields(name, Value::object(fields));
}

/// Emit an event whose payload is an already-built [`Value`]. No-op when
/// observability is disabled.
pub fn event_fields(name: &str, fields: Value) {
    if !crate::is_enabled() {
        return;
    }
    let mut s = lock();
    let seq = s.emitted;
    s.emitted += 1;
    let t_ns = s.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    let ev = Event {
        seq,
        t_ns,
        name: name.to_string(),
        fields,
    };
    let mut sink_failed = false;
    if let Some(writer) = &mut s.jsonl {
        // Flush per line: the sink lives in a static that is never dropped,
        // so bytes left in the buffer would be lost at process exit. A full
        // disk must not take down a simulation; surface and move on.
        let written =
            writeln!(writer, "{}", ev.to_json().to_compact()).and_then(|_| writer.flush());
        if let Err(err) = written {
            eprintln!("colorbars-obs: JSONL sink write failed: {err}");
            sink_failed = true;
        }
    }
    if sink_failed {
        s.jsonl = None;
    }
    if s.ring.len() >= CAPACITY {
        s.ring.pop_front();
        s.dropped += 1;
    }
    s.ring.push_back(ev);
}

/// Drain the buffered events (oldest first). Subsequent calls return only
/// events emitted after this one.
pub fn take_events() -> Vec<Event> {
    let mut s = lock();
    s.ring.drain(..).collect()
}

/// `(emitted, dropped)` counts since the last reset.
pub(crate) fn stats() -> (u64, u64) {
    let s = lock();
    (s.emitted, s.dropped)
}

/// Clear buffered events and counts; flushes and keeps any JSONL sink.
pub(crate) fn reset() {
    let mut s = lock();
    s.ring.clear();
    s.emitted = 0;
    s.dropped = 0;
    if let Some(writer) = &mut s.jsonl {
        let _ = writer.flush();
    }
}

/// Flush the JSONL sink (if any) to disk.
pub fn flush() {
    if let Some(writer) = &mut lock().jsonl {
        let _ = writer.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn events_carry_sequence_and_fields() {
        let _guard = test_lock::hold();
        crate::init(crate::ObsConfig::default());
        crate::reset();
        event("test.event.a", [("k", Value::from(1u64))]);
        event("test.event.b", [("k", Value::from(2u64))]);
        let evs = take_events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].seq, 0);
        assert_eq!(evs[1].seq, 1);
        assert_eq!(evs[0].name, "test.event.a");
        assert_eq!(evs[1].fields, Value::object([("k", Value::from(2u64))]));
        assert!(evs[1].t_ns >= evs[0].t_ns);
        crate::disable();
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let _guard = test_lock::hold();
        crate::init(crate::ObsConfig::default());
        crate::reset();
        let n = CAPACITY as u64 + 6;
        for i in 0..n {
            event("test.event.ring", [("i", Value::from(i))]);
        }
        let (emitted, dropped) = stats();
        assert_eq!(emitted, n);
        assert_eq!(dropped, 6);
        let evs = take_events();
        assert_eq!(evs.len(), CAPACITY);
        assert_eq!(evs[0].seq, 6, "oldest retained event");
        crate::disable();
    }

    #[test]
    fn jsonl_sink_mirrors_events() {
        let _guard = test_lock::hold();
        let path = std::env::temp_dir().join("colorbars_obs_event_test.jsonl");
        let path_str = path.to_string_lossy().to_string();
        crate::init(crate::ObsConfig {
            jsonl_path: Some(path_str),
            ..Default::default()
        });
        crate::reset();
        event("test.event.jsonl", [("v", Value::from(7u64))]);
        flush();
        let contents = std::fs::read_to_string(&path).expect("sink file exists");
        assert!(contents.contains("\"test.event.jsonl\""));
        assert!(contents.contains("\"v\":7"));
        assert!(contents.trim_end().lines().count() >= 1);
        // Detach the sink before deleting the file.
        crate::init(crate::ObsConfig::default());
        let _ = std::fs::remove_file(&path);
        crate::disable();
    }

    #[test]
    fn overflow_increments_dropped_exactly_at_the_boundary() {
        let _guard = test_lock::hold();
        crate::init(crate::ObsConfig::default());
        crate::reset();
        // Filling to exactly capacity drops nothing...
        for i in 0..CAPACITY as u64 {
            event("test.event.boundary", [("i", Value::from(i))]);
        }
        let full = CAPACITY as u64;
        assert_eq!(stats(), (full, 0));
        // ...and each event past it drops exactly one.
        event("test.event.boundary", [("i", Value::from(full))]);
        assert_eq!(stats(), (full + 1, 1));
        event("test.event.boundary", [("i", Value::from(full + 1))]);
        assert_eq!(stats(), (full + 2, 2));
        let evs = take_events();
        assert_eq!(evs.len(), CAPACITY);
        assert_eq!(evs[0].seq, 2, "exactly the two oldest were evicted");
        crate::disable();
    }

    #[test]
    fn unwritable_jsonl_path_degrades_gracefully() {
        let _guard = test_lock::hold();
        // A sink path that cannot be created must warn and keep the run
        // alive: events still reach the ring buffer, nothing panics.
        crate::init(crate::ObsConfig {
            jsonl_path: Some("/nonexistent-dir/colorbars/sink.jsonl".to_string()),
            ..Default::default()
        });
        crate::reset();
        event("test.event.unwritable", [("k", Value::from(1u64))]);
        flush();
        let evs = take_events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].name, "test.event.unwritable");
        assert_eq!(stats(), (1, 0));
        crate::init(crate::ObsConfig::default());
        crate::disable();
    }

    #[test]
    fn disabled_events_are_dropped() {
        let _guard = test_lock::hold();
        crate::disable();
        crate::reset();
        event("test.event.off", [("k", Value::Null)]);
        assert!(take_events().is_empty());
        assert_eq!(stats(), (0, 0));
    }
}
