//! The benchmark's own spans: intervals it measures around calls into each
//! layer's public functions, kept in memory and written out at the end in
//! Chrome trace-event format (loadable in Perfetto or `chrome://tracing`).
//!
//! The program's internal `obs` spans stay disabled; every number here is
//! taken from outside the call.

use colorbars_obs::Value;
use std::path::Path;
use std::time::Instant;

/// One measured interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    /// Index of the enclosing span in [`Trace::spans`].
    pub parent: Option<usize>,
    /// Round, run or frame number the interval belongs to.
    pub id: u64,
    /// Chrome thread lane: 0 is the benchmark thread, 1.. are session lanes.
    pub lane: u32,
}

impl Span {
    pub fn ms(&self) -> f64 {
        ms(self.end - self.start)
    }
}

/// Span store; a disabled one keeps nothing.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    lanes: Vec<(u32, String)>,
}

/// Milliseconds in a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Trace {
    pub fn new(enabled: bool) -> Trace {
        Trace {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            lanes: vec![(0, "linkbench".to_string())],
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Name a lane for the `thread_name` metadata.
    pub fn lane(&mut self, lane: u32, name: &str) {
        if !self.lanes.iter().any(|(l, _)| *l == lane) {
            self.lanes.push((lane, name.to_string()));
        }
    }

    /// Record an interval the caller timed itself.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        span: (Instant, Instant),
        lane: u32,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start: span.0,
            end: span.1,
            parent,
            id,
            lane,
        });
        Some(self.spans.len() - 1)
    }

    /// Open a span that will enclose others; [`Trace::close`] stamps its end.
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> Option<usize> {
        let now = Instant::now();
        self.record(name, id, parent, (now, now), 0)
    }

    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end = Instant::now();
        }
    }

    /// Run `f` inside a span on the benchmark lane.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, id, parent, (start, Instant::now()), 0);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time in ms: its duration minus the time its child
    /// spans cover (children of one parent never overlap here).
    pub fn self_ms(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.ms();
            }
        }
        out
    }

    /// Self times of every span called `name`.
    pub fn self_ms_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_ms())
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .collect()
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Write the spans as a Chrome trace-event JSON file.
    pub fn write_chrome(&self, path: &Path) -> Result<(), String> {
        let us = |t: Instant| (t - self.epoch).as_secs_f64() * 1e6;
        let mut events: Vec<Value> = self
            .lanes
            .iter()
            .map(|(lane, name)| {
                Value::object([
                    ("name", Value::from("thread_name")),
                    ("ph", Value::from("M")),
                    ("pid", Value::from(1u64)),
                    ("tid", Value::from(u64::from(*lane))),
                    (
                        "args",
                        Value::object([("name", Value::from(name.as_str()))]),
                    ),
                ])
            })
            .collect();
        for (i, (s, self_ms)) in self.spans.iter().zip(self.self_ms()).enumerate() {
            let mut args = Value::object([
                ("span", Value::from(i)),
                ("id", Value::from(s.id)),
                ("self_us", Value::from(self_ms * 1e3)),
            ]);
            if let Some(p) = s.parent {
                args.insert("parent", Value::from(p));
            }
            events.push(Value::object([
                ("name", Value::from(s.name)),
                ("cat", Value::from("linkbench")),
                ("ph", Value::from("X")),
                ("ts", Value::from(us(s.start))),
                ("dur", Value::from(us(s.end) - us(s.start))),
                ("pid", Value::from(1u64)),
                ("tid", Value::from(u64::from(s.lane))),
                ("args", args),
            ]));
        }
        let doc = Value::object([("traceEvents", Value::Array(events))]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        }
        std::fs::write(path, doc.to_compact()).map_err(|e| format!("cannot write {path:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Trace::new(true);
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = t.record("round", 0, None, (at(0), at(10)), 0);
        t.record("a", 0, root, (at(1), at(4)), 0);
        t.record("b", 0, root, (at(5), at(7)), 0);
        let self_ms = t.self_ms();
        assert!((self_ms[0] - 5.0).abs() < 1e-9, "{self_ms:?}");
        assert!((self_ms[1] - 3.0).abs() < 1e-9);
        assert_eq!(t.count("a"), 1);
    }
}
