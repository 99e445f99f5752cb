//! Lens point-spread blur along the rolling-shutter row axis.
//!
//! The LED's image on the sensor is not perfectly sharp: defocus and
//! diffraction spread each instant's light over several scanlines. Because
//! rows map to time under the rolling shutter, row-axis blur mixes adjacent
//! color *bands* — this is the dominant inter-symbol-interference mechanism,
//! and the reason the paper's symbol error rate climbs once bands shrink to
//! a few tens of pixels (Fig 9, Section 8).
//!
//! The kernel is discrete, normalized to unit sum, and applied to per-row
//! light values with clamp-to-edge boundary handling (the scene continues
//! beyond the frame's first and last rows).

use colorbars_color::Xyz;

/// A normalized symmetric 1-D convolution kernel over scanlines.
#[derive(Debug, Clone, PartialEq)]
pub struct BlurKernel {
    /// Kernel taps; always odd in length, normalized to sum 1.
    taps: Vec<f64>,
}

impl BlurKernel {
    /// The identity kernel (no blur).
    pub fn identity() -> BlurKernel {
        BlurKernel { taps: vec![1.0] }
    }

    /// A Gaussian kernel with standard deviation `sigma_rows` (in scanline
    /// units), truncated to `radius` taps on each side and renormalized.
    ///
    /// # Panics
    /// Panics for non-positive `sigma_rows`.
    pub fn gaussian(sigma_rows: f64, radius: usize) -> BlurKernel {
        assert!(
            sigma_rows.is_finite() && sigma_rows > 0.0,
            "sigma must be positive"
        );
        let mut taps = Vec::with_capacity(2 * radius + 1);
        for i in -(radius as i64)..=(radius as i64) {
            let x = i as f64 / sigma_rows;
            taps.push((-0.5 * x * x).exp());
        }
        let sum: f64 = taps.iter().sum();
        for t in &mut taps {
            *t /= sum;
        }
        BlurKernel { taps }
    }

    /// Number of taps.
    pub fn len(&self) -> usize {
        self.taps.len()
    }

    /// `true` for the identity kernel.
    pub fn is_empty(&self) -> bool {
        false // a kernel always has ≥ 1 tap; method exists to pair with len()
    }

    /// Kernel radius (taps each side of center).
    pub fn radius(&self) -> usize {
        self.taps.len() / 2
    }

    /// Raw taps (normalized).
    pub fn taps(&self) -> &[f64] {
        &self.taps
    }

    /// Convolve a sequence of per-row light values, clamp-to-edge at the
    /// boundaries, into a caller-provided slice of the same length — the
    /// zero-allocation capture path hands in a slice of a recycled buffer
    /// (one per scene region) instead of allocating per frame. Every
    /// element is overwritten, so a stale buffer is fine.
    pub fn convolve_rows_into(&self, rows: &[Xyz], out: &mut [Xyz]) {
        assert_eq!(out.len(), rows.len(), "blur output length mismatch");
        if rows.is_empty() || self.taps.len() == 1 {
            out.copy_from_slice(rows);
            return;
        }
        let _span = colorbars_obs::span!("channel.blur_rows");
        let r = self.radius();
        let n = rows.len();
        for (i, out) in out.iter_mut().enumerate() {
            let mut acc = Xyz::BLACK;
            if i >= r && i + r < n {
                // Interior row: the window lies inside the frame, so no
                // clamping — same taps, same order, same floats.
                for (&w, &x) in self.taps.iter().zip(&rows[i - r..=i + r]) {
                    acc = acc.add(x.scale(w));
                }
            } else {
                for (k, &w) in self.taps.iter().enumerate() {
                    let j = (i + k).saturating_sub(r).min(n - 1);
                    acc = acc.add(rows[j].scale(w));
                }
            }
            *out = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `k` applied to `rows`, written into a fresh buffer.
    fn blur(k: &BlurKernel, rows: &[Xyz]) -> Vec<Xyz> {
        let mut out = vec![Xyz::BLACK; rows.len()];
        k.convolve_rows_into(rows, &mut out);
        out
    }

    /// A one-channel signal carried in `x`.
    fn signal(values: &[f64]) -> Vec<Xyz> {
        values.iter().map(|&v| Xyz::new(v, 0.0, 0.0)).collect()
    }

    #[test]
    fn identity_kernel_is_noop() {
        let rows: Vec<Xyz> = (0..10).map(|i| Xyz::new(i as f64, 1.0, 0.5)).collect();
        assert_eq!(blur(&BlurKernel::identity(), &rows), rows);
    }

    #[test]
    fn kernels_are_normalized() {
        for k in [BlurKernel::gaussian(0.5, 3), BlurKernel::gaussian(2.0, 9)] {
            let sum: f64 = k.taps().iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "{k:?}");
            assert_eq!(k.len() % 2, 1, "odd tap count");
        }
    }

    #[test]
    fn constant_signal_is_preserved() {
        let rows = vec![Xyz::new(0.3, 0.4, 0.5); 32];
        for o in blur(&BlurKernel::gaussian(1.5, 5), &rows) {
            assert!(o.to_vec3().max_abs_diff(rows[0].to_vec3()) < 1e-12);
        }
    }

    #[test]
    fn step_edge_is_softened_monotonically() {
        // A hard band edge (red→green transition) becomes a monotone ramp.
        let mut rows = vec![Xyz::new(1.0, 0.0, 0.0); 20];
        rows.extend(vec![Xyz::new(0.0, 1.0, 0.0); 20]);
        let out = blur(&BlurKernel::gaussian(2.0, 6), &rows);
        for w in out.windows(2) {
            assert!(w[1].x <= w[0].x + 1e-12, "x must fall monotonically");
            assert!(w[1].y >= w[0].y - 1e-12, "y must rise monotonically");
        }
        // Energy is conserved (clamp boundary + symmetric kernel + constant
        // ends): midpoint is the 50/50 mix.
        let mid = out[19].x + out[20].x;
        assert!((mid - 1.0).abs() < 0.2);
    }

    #[test]
    fn edge_clamping_preserves_boundary_level() {
        // A kernel wider than the signal clamps at both ends of every row.
        for o in blur(&BlurKernel::gaussian(3.0, 7), &signal(&[2.0; 8])) {
            assert!((o.x - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_input_is_fine() {
        assert!(blur(&BlurKernel::gaussian(1.0, 3), &[]).is_empty());
    }

    #[test]
    fn stale_output_buffers_are_overwritten() {
        let rows: Vec<Xyz> = (0..16)
            .map(|i| Xyz::new(i as f64 * 0.1, 0.5, 0.2))
            .collect();
        for k in [BlurKernel::gaussian(1.5, 4), BlurKernel::identity()] {
            let mut out = vec![Xyz::new(9.0, 9.0, 9.0); rows.len()];
            k.convolve_rows_into(&rows, &mut out);
            assert_eq!(out, blur(&k, &rows));
        }
    }

    #[test]
    fn interior_fast_path_matches_clamped_walk_bit_exactly() {
        // Irregular rows, and lengths below, at and above the kernel width,
        // so every row can be a border row, an interior row, or both kinds
        // appear.
        let clamped = |k: &BlurKernel, rows: &[Xyz]| -> Vec<Xyz> {
            let (r, n) = (k.radius() as i64, rows.len() as i64);
            (0..n)
                .map(|i| {
                    k.taps()
                        .iter()
                        .enumerate()
                        .fold(Xyz::BLACK, |acc, (t, &w)| {
                            acc.add(rows[(i + t as i64 - r).clamp(0, n - 1) as usize].scale(w))
                        })
                })
                .collect()
        };
        for k in [BlurKernel::gaussian(1.5, 4), BlurKernel::gaussian(0.8, 2)] {
            for n in [1usize, 3, 8, 9, 10, 40] {
                let rows: Vec<Xyz> = (0..n)
                    .map(|i| Xyz::new(((i * 7919) % 101) as f64 / 7.0, 0.5 + i as f64, 0.2))
                    .collect();
                let fast = blur(&k, &rows);
                let want = clamped(&k, &rows);
                for (i, (a, b)) in fast.iter().zip(&want).enumerate() {
                    assert_eq!(
                        a.to_vec3().0.map(f64::to_bits),
                        b.to_vec3().0.map(f64::to_bits),
                        "n {n} row {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn wider_sigma_spreads_further() {
        let mut rows = vec![0.0; 41];
        rows[20] = 1.0;
        let rows = signal(&rows);
        let narrow = blur(&BlurKernel::gaussian(1.0, 10), &rows);
        let wide = blur(&BlurKernel::gaussian(4.0, 10), &rows);
        assert!(wide[14].x > narrow[14].x, "wide kernel reaches row 14 more");
        assert!(
            narrow[20].x > wide[20].x,
            "narrow kernel keeps more at center"
        );
    }
}
