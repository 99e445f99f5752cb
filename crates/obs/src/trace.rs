//! Timeline tracing: individual span begin/end timestamps on per-thread
//! tracks, exported as Chrome/Perfetto `trace.json`.
//!
//! A span's registry histogram ([`mod@crate::span`]) aggregates —
//! count/sum/p50 per name — which answers *how much* but not *when*. This
//! module records each span occurrence as a complete event (`ph: "X"`:
//! begin timestamp + duration) into a bounded buffer owned by the
//! recording thread, so a sweep-pool grid drain or a row-parallel capture
//! renders as an actual timeline with one track per worker thread in
//! `chrome://tracing` / [Perfetto](https://ui.perfetto.dev).
//!
//! Tracing is **off by default** and costs nothing when off: the
//! [`crate::span!`] guard consults one extra relaxed atomic only when the
//! obs layer itself is enabled. Turn it on with
//! `COLORBARS_OBS_TRACE=<path>` (or [`crate::ObsConfig::trace_path`]); the
//! trace file is (re)written on every [`crate::flush`]. An unwritable path
//! degrades to a warning — tracing never takes down a simulation.
//!
//! Buffers are bounded two ways: [`TRACK_CAPACITY`] events per thread
//! (excess increments the track's drop counter) and [`MAX_TRACKS`] tracks
//! per process (short-lived capture workers each get their own track;
//! beyond the cap their events are counted as dropped, not recorded).

use crate::json::Value;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Maximum recorded events per thread track.
pub const TRACK_CAPACITY: usize = 65_536;

/// Maximum thread tracks per process (row-parallel capture spawns
/// short-lived scoped workers every frame; each is its own track).
pub const MAX_TRACKS: usize = 512;

/// One recorded span occurrence (a Chrome `"X"` complete event).
#[derive(Debug, Clone, Copy)]
struct TraceEvent {
    name: &'static str,
    /// Begin timestamp, nanoseconds since the trace epoch.
    ts_ns: u64,
    dur_ns: u64,
}

#[derive(Debug)]
struct Track {
    tid: u64,
    name: String,
    events: Vec<TraceEvent>,
    dropped: u64,
}

#[derive(Debug, Default)]
struct TraceState {
    /// Export path (from `COLORBARS_OBS_TRACE` / `ObsConfig::trace_path`).
    path: Option<String>,
    tracks: Vec<Arc<Mutex<Track>>>,
    next_tid: u64,
    /// Events dropped because the process hit [`MAX_TRACKS`].
    trackless_dropped: u64,
}

/// Whether tracing is recording. One relaxed atomic load.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Bumped on configure/reset so thread-local track handles from a previous
/// trace session re-register instead of writing into cleared buffers.
static GENERATION: AtomicU64 = AtomicU64::new(0);

fn state() -> &'static Mutex<TraceState> {
    static STATE: OnceLock<Mutex<TraceState>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(TraceState::default()))
}

fn lock() -> MutexGuard<'static, TraceState> {
    state()
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The process-relative clock origin for trace timestamps. Shared by every
/// track so cross-thread ordering is meaningful.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// A thread's cached track handle: the generation it was created under,
/// and the track itself (`None` means "over the track cap — don't retry
/// per event").
type TrackHandle = (u64, Option<Arc<Mutex<Track>>>);

thread_local! {
    static TRACK: RefCell<Option<TrackHandle>> = const { RefCell::new(None) };
}

/// Whether tracing is active (configured with a destination and enabled).
#[inline]
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Configure tracing. `Some(path)` probes the path for writability and
/// activates recording (a failed probe warns and leaves tracing off —
/// never panics); `None` deactivates.
pub(crate) fn configure(path: Option<&str>) {
    let mut s = lock();
    match path {
        Some(p) => {
            // Probe writability up front so a typo'd path surfaces at init
            // time, not after a long run.
            if let Err(err) = std::fs::write(p, "[]") {
                eprintln!("colorbars-obs: cannot open trace sink {p}: {err} (tracing disabled)");
                s.path = None;
                ACTIVE.store(false, Ordering::Relaxed);
                return;
            }
            epoch(); // pin the clock origin before the first span
            s.path = Some(p.to_string());
            s.tracks.clear();
            s.next_tid = 0;
            s.trackless_dropped = 0;
            GENERATION.fetch_add(1, Ordering::Relaxed);
            ACTIVE.store(true, Ordering::Relaxed);
        }
        None => {
            s.path = None;
            ACTIVE.store(false, Ordering::Relaxed);
        }
    }
}

/// Clear recorded tracks (keeps the configured destination and active
/// state).
pub(crate) fn reset() {
    let mut s = lock();
    s.tracks.clear();
    s.next_tid = 0;
    s.trackless_dropped = 0;
    GENERATION.fetch_add(1, Ordering::Relaxed);
}

/// Name the calling thread's track (e.g. `"sweep-worker-3"`). Pool and
/// capture entry points call this when they spawn workers so the exported
/// timeline has meaningful track labels. No-op when tracing is inactive.
pub fn register_thread(name: &str) {
    if !is_active() {
        return;
    }
    if let Some(track) = current_track() {
        track
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .name = name.to_string();
    }
}

/// This thread's track, creating (and registering) it on first use in the
/// current generation. `None` once the process is over [`MAX_TRACKS`].
fn current_track() -> Option<Arc<Mutex<Track>>> {
    let generation = GENERATION.load(Ordering::Relaxed);
    TRACK.with(|slot| {
        let mut slot = slot.borrow_mut();
        if let Some((gen, handle)) = slot.as_ref() {
            if *gen == generation {
                return handle.clone();
            }
        }
        let mut s = lock();
        let handle = if s.tracks.len() >= MAX_TRACKS {
            None
        } else {
            let tid = s.next_tid;
            s.next_tid += 1;
            let name = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("thread-{tid}"));
            let track = Arc::new(Mutex::new(Track {
                tid,
                name,
                events: Vec::new(),
                dropped: 0,
            }));
            s.tracks.push(Arc::clone(&track));
            Some(track)
        };
        drop(s);
        *slot = Some((generation, handle.clone()));
        handle
    })
}

/// Record one completed span occurrence. Called by the [`crate::span!`]
/// guard on drop; `start` is the span's begin instant.
pub(crate) fn record_span(name: &'static str, start: Instant, dur_ns: u64) {
    if !is_active() {
        return;
    }
    let ts_ns = start
        .checked_duration_since(epoch())
        .map(|d| d.as_nanos().min(u64::MAX as u128) as u64)
        .unwrap_or(0);
    match current_track() {
        Some(track) => {
            let mut t = track
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            if t.events.len() < TRACK_CAPACITY {
                t.events.push(TraceEvent {
                    name,
                    ts_ns,
                    dur_ns,
                });
            } else {
                t.dropped += 1;
            }
        }
        None => {
            lock().trackless_dropped += 1;
        }
    }
}

/// `(tracks, events, dropped)` recorded so far — test/CI introspection.
pub fn stats() -> (usize, u64, u64) {
    let s = lock();
    let mut events = 0u64;
    let mut dropped = s.trackless_dropped;
    for track in &s.tracks {
        let t = track
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        events += t.events.len() as u64;
        dropped += t.dropped;
    }
    (s.tracks.len(), events, dropped)
}

/// Build the Chrome trace document: a `traceEvents` array of per-track
/// `thread_name` metadata (`ph: "M"`) followed by complete span events
/// (`ph: "X"`, microsecond `ts`/`dur`), all under one process.
pub fn to_json() -> Value {
    let s = lock();
    let mut events: Vec<Value> = Vec::new();
    let mut dropped = s.trackless_dropped;
    for track in &s.tracks {
        let t = track
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        dropped += t.dropped;
        events.push(Value::object([
            ("name", Value::from("thread_name")),
            ("ph", Value::from("M")),
            ("pid", Value::from(1u64)),
            ("tid", Value::from(t.tid)),
            (
                "args",
                Value::object([("name", Value::from(t.name.as_str()))]),
            ),
        ]));
        for ev in &t.events {
            events.push(Value::object([
                ("name", Value::from(ev.name)),
                ("cat", Value::from("span")),
                ("ph", Value::from("X")),
                ("pid", Value::from(1u64)),
                ("tid", Value::from(t.tid)),
                ("ts", Value::from(ev.ts_ns as f64 / 1000.0)),
                ("dur", Value::from(ev.dur_ns as f64 / 1000.0)),
            ]));
        }
    }
    Value::object([
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::from("ms")),
        (
            "otherData",
            Value::object([
                ("producer", Value::from("colorbars-obs")),
                ("events_dropped", Value::from(dropped)),
            ]),
        ),
    ])
}

/// Write the trace document to `path` (compact JSON + trailing newline).
pub fn write_to(path: &str) -> std::io::Result<()> {
    let mut body = to_json().to_compact();
    body.push('\n');
    std::fs::write(path, body)
}

/// Write the trace to the configured destination, if any. Failures warn —
/// a full disk must not take down a finished run.
pub(crate) fn flush_to_configured() {
    if !is_active() {
        return;
    }
    let path = lock().path.clone();
    if let Some(path) = path {
        if let Err(err) = write_to(&path) {
            eprintln!("colorbars-obs: trace sink write failed ({path}): {err}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    fn temp_path(stem: &str) -> String {
        std::env::temp_dir()
            .join(format!("colorbars_obs_{stem}.json"))
            .to_string_lossy()
            .to_string()
    }

    fn enable_with_trace(path: &str) {
        crate::init(crate::ObsConfig {
            trace_path: Some(path.to_string()),
            ..Default::default()
        });
        crate::reset();
    }

    #[test]
    fn spans_land_on_per_thread_tracks() {
        let _guard = test_lock::hold();
        let path = temp_path("trace_tracks");
        enable_with_trace(&path);
        {
            let _s = crate::span!("test.trace.main");
        }
        std::thread::scope(|scope| {
            for k in 0..2 {
                scope.spawn(move || {
                    register_thread(&format!("test-worker-{k}"));
                    let _s = crate::span!("test.trace.worker");
                });
            }
        });
        let (tracks, events, dropped) = stats();
        assert_eq!(tracks, 3, "main + 2 workers");
        assert_eq!(events, 3);
        assert_eq!(dropped, 0);

        let doc = to_json();
        let evs = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        let names: Vec<&str> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert!(names.contains(&"test-worker-0"), "{names:?}");
        assert!(names.contains(&"test-worker-1"), "{names:?}");
        let spans: Vec<&Value> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .collect();
        assert_eq!(spans.len(), 3);
        for s in spans {
            assert!(s.get("ts").and_then(Value::as_f64).is_some());
            assert!(s.get("dur").and_then(Value::as_f64).unwrap() >= 0.0);
        }
        configure(None);
        crate::disable();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flush_writes_parseable_chrome_trace() {
        let _guard = test_lock::hold();
        let path = temp_path("trace_flush");
        enable_with_trace(&path);
        {
            let _s = crate::span!("test.trace.flush");
        }
        crate::flush();
        let body = std::fs::read_to_string(&path).expect("trace file written");
        let doc = Value::parse(&body).expect("trace parses as JSON");
        let evs = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        assert!(
            evs.iter()
                .any(|e| e.get("name").and_then(Value::as_str) == Some("test.trace.flush")),
            "span event present"
        );
        configure(None);
        crate::disable();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn track_capacity_bounds_memory_and_counts_drops() {
        let _guard = test_lock::hold();
        let path = temp_path("trace_cap");
        enable_with_trace(&path);
        let t0 = Instant::now();
        for _ in 0..(TRACK_CAPACITY + 5) {
            record_span("test.trace.flood", t0, 1);
        }
        let (_, events, dropped) = stats();
        assert_eq!(events, TRACK_CAPACITY as u64);
        assert_eq!(dropped, 5);
        configure(None);
        crate::disable();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unwritable_trace_path_degrades_gracefully() {
        let _guard = test_lock::hold();
        // A path under a non-existent directory cannot be created; init
        // must warn and carry on with tracing off — no panic, and span
        // recording stays safe.
        crate::init(crate::ObsConfig {
            trace_path: Some("/nonexistent-colorbars-dir/sub/trace.json".to_string()),
            ..Default::default()
        });
        assert!(!is_active(), "tracing stays off on an unwritable path");
        {
            let _s = crate::span!("test.trace.unwritable");
        }
        crate::flush();
        crate::disable();
    }

    #[test]
    fn inactive_tracing_records_nothing() {
        let _guard = test_lock::hold();
        configure(None);
        crate::init(crate::ObsConfig::default());
        crate::reset();
        {
            let _s = crate::span!("test.trace.off");
        }
        let (tracks, events, _) = stats();
        assert_eq!((tracks, events), (0, 0));
        crate::disable();
    }
}
