//! Hierarchical timing spans.
//!
//! `let _s = obs::span!("rx.process_frame");` times the enclosing scope and
//! records the duration into the unlabeled latency histogram of that name
//! on the [`live::global`](crate::live::global) registry — the same
//! instrument kind as `session.frame_latency_ms`: exact count / sum / min /
//! max, log-bucket p50 / p99. Run reports, flight dumps and the gateway's
//! snapshots read span timings from there, like every other metric.
//! Hierarchy is by naming convention (dotted paths), not by runtime
//! nesting — aggregation stays O(1) per span and the histograms stay
//! stable across thread interleavings (seed sweeps run spans from several
//! threads at once).

use std::time::Instant;

/// Time a scope: `let _guard = span!("name");`. The span ends (and its
/// duration is recorded) when the guard drops. Resolves to a no-op guard
/// when observability is disabled.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::enter($name)
    };
}

/// RAII guard produced by [`span!`]. Records elapsed wall-clock time into
/// the global registry's histogram `name` on drop.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

impl SpanGuard {
    /// Start a span (no-op when observability is disabled).
    #[inline]
    pub fn enter(name: &'static str) -> SpanGuard {
        let start = if crate::is_enabled() {
            Some(Instant::now())
        } else {
            None
        };
        SpanGuard { name, start }
    }

    /// End the span early (otherwise it ends when dropped).
    pub fn end(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            let elapsed = start.elapsed();
            crate::live::global()
                .histogram_ms(self.name, &[])
                .record(elapsed);
            // Timeline tracing keeps the individual occurrence (begin
            // timestamp + duration) on this thread's track; one relaxed
            // atomic when tracing is off.
            let ns = elapsed.as_nanos().min(u64::MAX as u128) as u64;
            crate::trace::record_span(self.name, start, ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::live::{global, HistogramSample};
    use crate::test_lock;

    fn find(name: &str) -> Option<HistogramSample> {
        global()
            .snapshot()
            .histograms
            .into_iter()
            .find(|h| h.id.name == name && h.id.labels.is_empty())
    }

    #[test]
    fn span_guard_records_once_per_scope() {
        let _guard = test_lock::hold();
        crate::init(crate::ObsConfig::default());
        crate::reset();
        for _ in 0..3 {
            let _s = crate::span!("test.span.thrice");
        }
        let s = find("test.span.thrice").expect("span recorded");
        assert_eq!(s.count, 3);
        assert!(s.sum_ms >= s.min_ms);
        assert!(s.max_ms >= s.min_ms);
        crate::disable();
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = test_lock::hold();
        crate::disable();
        crate::reset();
        {
            let _s = crate::span!("test.span.disabled");
        }
        assert!(find("test.span.disabled").is_none());
    }

    #[test]
    fn threads_aggregate_into_one_registry() {
        let _guard = test_lock::hold();
        crate::init(crate::ObsConfig::default());
        crate::reset();
        // Four threads ending spans, and writing known durations into the
        // histogram a guard records into: no sample may be lost to a race.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let hist = global().histogram_ms("test.span.threads", &[]);
                    for _ in 0..100 {
                        let _s = crate::span!("test.span.threads_guard");
                        hist.record_ms(7.0);
                    }
                });
            }
        });
        assert_eq!(find("test.span.threads_guard").unwrap().count, 400);
        let s = find("test.span.threads").unwrap();
        assert_eq!(s.count, 400);
        assert_eq!(s.sum_ms, 2800.0);
        crate::disable();
    }
}
