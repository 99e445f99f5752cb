//! The reference kernel: fixed work that belongs to the benchmark, timed
//! beside every unit of the program's work to tell how fast the host runs
//! at that moment.
//!
//! On a shared host the same decode runs up to half again as long from one
//! minute to the next, as other tenants come and go, and the slow stretches
//! last long enough to cover a whole run. Dividing each unit's time by the
//! reference time beside it cancels that: a unit that took twice as long
//! because the host ran at half speed also saw the reference take twice as
//! long. The kernel mimics the receiver's hot loop (one table lookup per
//! pixel into a table larger than L1, summed in floating point), so it
//! slows down with the host the way the decode does; a kernel that stays
//! in L1 tracked the host worse (README.md, Measured noise).

use std::hint::black_box;
use std::time::Instant;

/// The reference kernel's median time on the host where the benchmark was
/// calibrated (2 vCPUs of a 2.1 GHz Xeon). Normalized rates are per second
/// of a host that runs the kernel in this time.
pub const REFERENCE_S: f64 = 2.0e-4;

/// Pixels per pass: a frame's worth of lookups.
const PIXELS: usize = 40_000;
const PASSES: usize = 4;
/// Lookup table entries (512 KiB of `f64`); a power of two.
const TABLE: usize = 1 << 16;

pub struct Reference {
    pixels: Vec<u32>,
    table: Vec<f64>,
}

impl Default for Reference {
    fn default() -> Reference {
        // xorshift64: fixed inputs, independent of every seed.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let pixels = (0..PIXELS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u32
            })
            .collect();
        let table = (0..TABLE).map(|i| (i as f64).sqrt()).collect();
        Reference { pixels, table }
    }
}

impl Reference {
    /// Run the kernel once; its wall time, seconds.
    pub fn time(&self) -> f64 {
        let t0 = Instant::now();
        let pixels = black_box(&self.pixels);
        let mut sum = 0.0;
        for _ in 0..PASSES {
            for &p in pixels {
                sum += self.table[p as usize & (TABLE - 1)];
            }
        }
        black_box(sum);
        t0.elapsed().as_secs_f64()
    }
}
