//! Recycled capture buffers: the zero-allocation frame pipeline.
//!
//! Every captured frame needs three large buffers — the raw mosaic plane,
//! the stored pixel plane and the per-row irradiance scratch — and the
//! streaming gateway captures, clones and drops frames continuously. A
//! [`FramePool`] is a small arena of those buffers: the capture path checks
//! buffers out instead of allocating, and a pooled [`Frame`](crate::Frame)
//! returns its pixel buffer on drop, so a steady-state pipeline performs
//! **zero** per-frame heap allocations once the pool has warmed up.
//!
//! Ownership rules:
//!
//! * A buffer is owned by exactly one party at a time: the pool (idle), the
//!   capture loop (being filled), or a [`Frame`](crate::Frame) (pixels).
//! * Checked-out buffers come back arbitrary-length and arbitrary-content;
//!   `take_*` normalizes length/capacity, and callers must overwrite every
//!   element they read (the capture loop writes every photosite, so raw
//!   planes are *not* re-zeroed on reuse).
//! * The pool is `Clone` + thread-safe; clones share one arena, so frames
//!   recycled by a [`LinkSession`] worker thread become available to the
//!   capture thread. Dropping every handle drops the arena.
//!
//! Pool pressure is observable: [`FramePool::hits`] / [`FramePool::misses`]
//! count checkouts served from the arena vs. fresh allocations (the global
//! obs registry reads the [`FramePool::global`] pair at snapshot time as
//! `camera.pool.hits` / `camera.pool.misses`), and the gateway smoke run
//! asserts zero misses at steady state.
//!
//! [`LinkSession`]: ../../colorbars_core/session/struct.LinkSession.html

use colorbars_color::Xyz;
use colorbars_obs as obs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Buffers kept per kind: enough for a multi-session gateway's in-flight
/// frames; recycles beyond this are dropped so an accidental frame flood
/// cannot pin unbounded memory.
const MAX_IDLE_PER_KIND: usize = 64;

#[derive(Debug, Default)]
struct PoolInner {
    pixels: Mutex<Vec<Vec<[u8; 3]>>>,
    raw_f64: Mutex<Vec<Vec<f64>>>,
    row_light: Mutex<Vec<Vec<Xyz>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A shared arena of recycled capture buffers. See the module docs for the
/// ownership rules.
#[derive(Debug, Clone, Default)]
pub struct FramePool {
    inner: Arc<PoolInner>,
}

impl FramePool {
    /// A fresh, empty pool.
    pub fn new() -> FramePool {
        FramePool::default()
    }

    /// The process-wide pool every rig draws from, so frames captured
    /// anywhere in the process recycle into one arena — which is what lets
    /// the gateway observe pool pressure across all sessions.
    pub fn global() -> &'static FramePool {
        static GLOBAL: OnceLock<FramePool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let registry = obs::live::global();
            registry.counter_source("camera.pool.hits", &[], || FramePool::global().hits());
            registry.counter_source("camera.pool.misses", &[], || FramePool::global().misses());
            FramePool::new()
        })
    }

    fn note(&self, hit: bool) {
        if hit {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.inner.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn put<T>(stash: &Mutex<Vec<Vec<T>>>, mut buf: Vec<T>) {
        if buf.capacity() == 0 {
            return;
        }
        buf.clear();
        let mut stash = stash.lock().expect("frame pool poisoned");
        if stash.len() < MAX_IDLE_PER_KIND {
            stash.push(buf);
        }
    }

    /// Check out an empty pixel buffer with room for `capacity` pixels.
    pub fn take_pixels(&self, capacity: usize) -> Vec<[u8; 3]> {
        let got = self.inner.pixels.lock().expect("frame pool poisoned").pop();
        self.note(got.is_some());
        let mut buf = got.unwrap_or_default();
        buf.clear();
        buf.reserve(capacity);
        buf
    }

    /// Return a pixel buffer to the arena (done automatically when a pooled
    /// [`Frame`](crate::Frame) drops).
    pub fn recycle_pixels(&self, buf: Vec<[u8; 3]>) {
        Self::put(&self.inner.pixels, buf);
    }

    /// Check out an `f64` raw mosaic plane of exactly `len` elements.
    /// Contents are arbitrary on a pool hit — the capture loop writes every
    /// photosite, so nothing is re-zeroed.
    pub fn take_raw_f64(&self, len: usize) -> Vec<f64> {
        let got = self
            .inner
            .raw_f64
            .lock()
            .expect("frame pool poisoned")
            .pop();
        self.note(got.is_some());
        let mut buf = got.unwrap_or_default();
        buf.resize(len, 0.0);
        buf
    }

    /// Return an `f64` raw plane to the arena.
    pub fn recycle_raw_f64(&self, buf: Vec<f64>) {
        Self::put(&self.inner.raw_f64, buf);
    }

    /// Check out a per-row irradiance buffer of exactly `len` rows.
    /// Contents arbitrary on a hit — the row integrator writes every row.
    pub fn take_row_light(&self, len: usize) -> Vec<Xyz> {
        let got = self
            .inner
            .row_light
            .lock()
            .expect("frame pool poisoned")
            .pop();
        self.note(got.is_some());
        let mut buf = got.unwrap_or_default();
        buf.clear();
        buf.resize(len, Xyz::BLACK);
        buf
    }

    /// Return a row-irradiance buffer to the arena.
    pub fn recycle_row_light(&self, buf: Vec<Xyz>) {
        Self::put(&self.inner.row_light, buf);
    }

    /// Add `extra` idle pixel buffers of `capacity` pixels on top of
    /// whatever is already stashed (capped at the arena's idle limit), so a
    /// pipeline with a known in-flight depth never misses at steady state.
    /// Additive because concurrent sessions share one arena, each
    /// contributing its own depth. Counts as neither hits nor misses.
    pub fn prefill_pixels(&self, extra: usize, capacity: usize) {
        let mut stash = self.inner.pixels.lock().expect("frame pool poisoned");
        let target = stash.len().saturating_add(extra).min(MAX_IDLE_PER_KIND);
        while stash.len() < target {
            stash.push(Vec::with_capacity(capacity));
        }
    }

    /// Checkouts served from the arena since the pool was created.
    pub fn hits(&self) -> u64 {
        self.inner.hits.load(Ordering::Relaxed)
    }

    /// Checkouts that had to allocate fresh (the steady-state allocation
    /// count the gateway smoke run asserts to be zero after warmup).
    pub fn misses(&self) -> u64 {
        self.inner.misses.load(Ordering::Relaxed)
    }

    /// Idle buffers currently held, across all kinds.
    #[cfg(test)]
    pub(crate) fn idle_buffers(&self) -> usize {
        let i = &self.inner;
        i.pixels.lock().expect("frame pool poisoned").len()
            + i.raw_f64.lock().expect("frame pool poisoned").len()
            + i.row_light.lock().expect("frame pool poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn takes_miss_then_hit_after_recycle() {
        let pool = FramePool::new();
        assert_eq!((pool.hits(), pool.misses()), (0, 0));
        let buf = pool.take_pixels(16);
        assert_eq!((pool.hits(), pool.misses()), (0, 1));
        pool.recycle_pixels(buf);
        let buf = pool.take_pixels(16);
        assert!(buf.capacity() >= 16 && buf.is_empty());
        assert_eq!((pool.hits(), pool.misses()), (1, 1));
    }

    #[test]
    fn raw_planes_come_back_exactly_sized() {
        let pool = FramePool::new();
        let mut raw = pool.take_raw_f64(10);
        raw.iter_mut().for_each(|v| *v = 7.0);
        pool.recycle_raw_f64(raw);
        // Reuse at a different size: exact length, stale contents allowed.
        let raw = pool.take_raw_f64(4);
        assert_eq!(raw.len(), 4);
        pool.recycle_raw_f64(raw);
        assert_eq!(pool.take_raw_f64(12).len(), 12);
    }

    #[test]
    fn row_light_resizes_both_ways() {
        let pool = FramePool::new();
        let light = pool.take_row_light(8);
        assert_eq!(light.len(), 8);
        pool.recycle_row_light(light);
        assert_eq!(pool.take_row_light(3).len(), 3);
    }

    #[test]
    fn prefill_prewarms_without_counting() {
        let pool = FramePool::new();
        pool.prefill_pixels(3, 64);
        assert_eq!((pool.hits(), pool.misses()), (0, 0));
        for _ in 0..3 {
            let b = pool.take_pixels(64);
            assert!(b.capacity() >= 64);
        }
        assert_eq!(pool.hits(), 3);
        assert_eq!(pool.misses(), 0);
    }

    #[test]
    fn prefill_is_additive_and_capped() {
        let pool = FramePool::new();
        pool.prefill_pixels(3, 16);
        pool.prefill_pixels(3, 16);
        assert_eq!(pool.idle_buffers(), 6, "prefill must add, not ensure");
        assert_eq!((pool.hits(), pool.misses()), (0, 0));
        pool.prefill_pixels(usize::MAX, 16);
        assert_eq!(pool.idle_buffers(), MAX_IDLE_PER_KIND);
    }

    #[test]
    fn clones_share_the_arena() {
        let pool = FramePool::new();
        let clone = pool.clone();
        clone.recycle_pixels(Vec::with_capacity(8));
        let _ = pool.take_pixels(8);
        assert_eq!(pool.hits(), 1);
        assert_eq!(clone.hits(), 1, "handles observe the same counters");
    }

    #[test]
    fn idle_count_is_bounded() {
        let pool = FramePool::new();
        for _ in 0..(MAX_IDLE_PER_KIND + 10) {
            pool.recycle_pixels(Vec::with_capacity(4));
        }
        assert_eq!(pool.idle_buffers(), MAX_IDLE_PER_KIND);
    }

    #[test]
    fn empty_buffers_are_not_pooled() {
        let pool = FramePool::new();
        pool.recycle_pixels(Vec::new());
        assert_eq!(pool.idle_buffers(), 0, "zero-capacity buffers add nothing");
    }
}
