//! The Bayer color filter array: mosaic sampling and demosaicing.
//!
//! A photodiode senses intensity, not color, so each photosite sits behind
//! one color filter; the full-color image is *estimated* by demosaicing
//! (paper Section 6.1, Fig 5(a)). Filter technology, arrangement and the
//! demosaicing algorithm all differ across devices — one of the two roots
//! of receiver diversity the calibration packets exist to absorb.
//!
//! This module implements the standard 2×2 Bayer patterns and bilinear
//! demosaicing, the baseline algorithm commodity ISPs start from.

use colorbars_color::LinearRgb;

/// Which color filter covers a photosite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CfaChannel {
    /// Red filter.
    R,
    /// Green filter.
    G,
    /// Blue filter.
    B,
}

/// The 2×2 Bayer tile layouts in row-major order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BayerPattern {
    /// `R G / G B` — the most common arrangement.
    Rggb,
    /// `B G / G R`.
    Bggr,
    /// `G R / B G`.
    Grbg,
    /// `G B / R G`.
    Gbrg,
}

impl BayerPattern {
    /// The filter at `(row, col)`.
    pub fn channel_at(self, row: usize, col: usize) -> CfaChannel {
        let (r, c) = (row % 2, col % 2);
        use CfaChannel::*;
        match self {
            BayerPattern::Rggb => match (r, c) {
                (0, 0) => R,
                (0, 1) | (1, 0) => G,
                _ => B,
            },
            BayerPattern::Bggr => match (r, c) {
                (0, 0) => B,
                (0, 1) | (1, 0) => G,
                _ => R,
            },
            BayerPattern::Grbg => match (r, c) {
                (0, 0) | (1, 1) => G,
                (0, 1) => R,
                _ => B,
            },
            BayerPattern::Gbrg => match (r, c) {
                (0, 0) | (1, 1) => G,
                (0, 1) => B,
                _ => R,
            },
        }
    }

    /// Sample a full-color pixel through this pattern: keep only the
    /// filtered channel's value.
    pub fn mosaic_sample(self, row: usize, col: usize, rgb: LinearRgb) -> f64 {
        match self.channel_at(row, col) {
            CfaChannel::R => rgb.r,
            CfaChannel::G => rgb.g,
            CfaChannel::B => rgb.b,
        }
    }
}

/// Bilinear demosaic of a raw mosaic plane into full RGB.
///
/// `raw` is row-major, `width × height`, each value the single filtered
/// channel at that site. Missing channels are estimated as the mean of the
/// available same-channel neighbors in the 3×3 neighborhood (clamped at the
/// borders) — classic bilinear interpolation.
pub fn demosaic_bilinear(
    raw: &[f64],
    width: usize,
    height: usize,
    pattern: BayerPattern,
) -> Vec<LinearRgb> {
    let mut out = Vec::with_capacity(raw.len());
    demosaic_bilinear_with(raw, width, height, pattern, |px| out.push(px));
    out
}

/// [`demosaic_bilinear`] in streaming form: `emit` receives each
/// reconstructed pixel in row-major order. The capture path fuses gamma
/// encoding into `emit`, which avoids materializing an intermediate
/// full-RGB plane (24 bytes per pixel) that would be read back exactly
/// once.
///
/// Every row but the first and last is walked without a branch on its
/// data or on a site's parity. Any Bayer row alternates G sites with sites
/// of one other channel X (R or B), and the third channel Y appears only
/// in the rows above and below, so the row's site order is resolved once
/// and its interior walked in fixed (G, X) or (X, G) pairs of
/// constant-offset loads from three row slices. The row's two edge pixels
/// are built from their known clamped columns (`[0, 0, 1]` on the left,
/// `[w − 2, w − 1, w − 1]` on the right). Each mean adds the same samples
/// in the same order as the clamped 3×3 walk, so every float matches that
/// walk bit for bit; the 2- and 4-count means multiply by an exact
/// power-of-two reciprocal, which is the same IEEE double as dividing by
/// the count. (The walk's sums start from +0.0, so a mean of `-0.0`
/// samples reads +0.0 there and `-0.0` here; both encode to byte 0, and
/// the sensor clips negative samples to +0.0.) The first and last rows,
/// whose windows clamp rows as well, and planes one column wide take that
/// walk itself.
pub fn demosaic_bilinear_with<F: FnMut(LinearRgb)>(
    raw: &[f64],
    width: usize,
    height: usize,
    pattern: BayerPattern,
    mut emit: F,
) {
    assert_eq!(raw.len(), width * height, "raw plane size mismatch");
    // The channel at a site depends only on (row % 2, col % 2); hoist the
    // pattern dispatch into a 2×2 index table.
    let ch_index = |r: usize, c: usize| -> usize {
        match pattern.channel_at(r, c) {
            CfaChannel::R => 0,
            CfaChannel::G => 1,
            CfaChannel::B => 2,
        }
    };
    let parity = [
        [ch_index(0, 0), ch_index(0, 1)],
        [ch_index(1, 0), ch_index(1, 1)],
    ];
    for row in 0..height {
        if row == 0 || row + 1 == height || width < 2 {
            for col in 0..width {
                emit(border_pixel(raw, width, height, &parity, row, col));
            }
            continue;
        }
        let base = row * width;
        let up = &raw[base - width..base];
        let mid = &raw[base..base + width];
        let down = &raw[base + width..base + 2 * width];
        let g_first = parity[row & 1][0] == 1;
        let x_is_r = parity[row & 1][usize::from(g_first)] == 0;
        let rgb = |(g, x, y): (f64, f64, f64)| {
            if x_is_r {
                LinearRgb::new(x, g, y)
            } else {
                LinearRgb::new(y, g, x)
            }
        };
        let (l, n) = (width - 1, width - 2);
        // Left edge, columns [0, 0, 1]. A G site's X is its one right
        // neighbor (a one-sample mean) and its Y the four samples of column
        // 0 above and below; an X site's G is five samples.
        emit(rgb(if g_first {
            (mid[0], mid[1], (up[0] + up[0] + down[0] + down[0]) * 0.25)
        } else {
            let g = (up[0] + up[0] + mid[1] + down[0] + down[0]) / 5.0;
            (g, mid[0], (up[1] + down[1]) * 0.5)
        }));
        // Interior columns 1..=n in pairs, each read through the four
        // columns around it; column 1 is a G site when column 0 is not.
        let around = |c: usize| (&up[c - 1..c + 3], &mid[c - 1..c + 3], &down[c - 1..c + 3]);
        if g_first {
            for (u, m, d) in (1..n).step_by(2).map(around) {
                emit(rgb(x_site(u, m, d, 1)));
                emit(rgb(g_site(u, m, d, 2)));
            }
        } else {
            for (u, m, d) in (1..n).step_by(2).map(around) {
                emit(rgb(g_site(u, m, d, 1)));
                emit(rgb(x_site(u, m, d, 2)));
            }
        }
        if n % 2 == 1 {
            // An odd interior ends on the first site of a pair.
            let (u, m, d) = (&up[n - 1..], &mid[n - 1..], &down[n - 1..]);
            emit(rgb(if g_first {
                x_site(u, m, d, 1)
            } else {
                g_site(u, m, d, 1)
            }));
        }
        // Right edge, columns [w − 2, w − 1, w − 1]: the mirror image. It
        // is a G site when it shares column 0's parity and column 0 is one,
        // or differs from it and column 0 is not.
        let g_last = (l % 2 == 0) == g_first;
        emit(rgb(if g_last {
            (mid[l], mid[n], (up[l] + up[l] + down[l] + down[l]) * 0.25)
        } else {
            let g = (up[l] + up[l] + mid[n] + down[l] + down[l]) / 5.0;
            (g, mid[l], (up[n] + down[n]) * 0.5)
        }));
    }
}

/// `(G, X, Y)` of the interior G site at offset `c` of the three row
/// windows `u`, `m`, `d` (above, on and below the site's row): X lives
/// left and right, Y above and below.
#[inline(always)]
fn g_site(u: &[f64], m: &[f64], d: &[f64], c: usize) -> (f64, f64, f64) {
    (m[c], (m[c - 1] + m[c + 1]) * 0.5, (u[c] + d[c]) * 0.5)
}

/// `(G, X, Y)` of the interior X site at offset `c` of the three row
/// windows: G on the 4-connected cross, Y on the diagonals, each added in
/// window order.
#[inline(always)]
fn x_site(u: &[f64], m: &[f64], d: &[f64], c: usize) -> (f64, f64, f64) {
    (
        (u[c] + m[c - 1] + m[c + 1] + d[c]) * 0.25,
        m[c],
        (u[c - 1] + u[c + 1] + d[c - 1] + d[c + 1]) * 0.25,
    )
}

/// Border-clamped bilinear reconstruction of one pixel: the 3×3 window is
/// clamped into the plane, so neighbor counts vary. The first and last
/// rows, and planes one column wide, take it.
fn border_pixel(
    raw: &[f64],
    width: usize,
    height: usize,
    parity: &[[usize; 2]; 2],
    row: usize,
    col: usize,
) -> LinearRgb {
    let mut sums = [0.0f64; 3];
    let mut counts = [0u32; 3];
    for dr in -1i64..=1 {
        for dc in -1i64..=1 {
            let r = (row as i64 + dr).clamp(0, height as i64 - 1) as usize;
            let c = (col as i64 + dc).clamp(0, width as i64 - 1) as usize;
            let ch = parity[r & 1][c & 1];
            sums[ch] += raw[r * width + c];
            counts[ch] += 1;
        }
    }
    // Prefer the site's own exact sample for its native channel.
    let own = raw[row * width + col];
    let own_ch = parity[row & 1][col & 1];
    let mut px = [0.0f64; 3];
    for ch in 0..3 {
        px[ch] = if ch == own_ch {
            own
        } else if counts[ch] > 0 {
            sums[ch] / counts[ch] as f64
        } else {
            0.0
        };
    }
    LinearRgb::new(px[0], px[1], px[2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rggb_tile_layout() {
        use CfaChannel::*;
        let p = BayerPattern::Rggb;
        assert_eq!(p.channel_at(0, 0), R);
        assert_eq!(p.channel_at(0, 1), G);
        assert_eq!(p.channel_at(1, 0), G);
        assert_eq!(p.channel_at(1, 1), B);
        // Periodicity.
        assert_eq!(p.channel_at(2, 2), R);
        assert_eq!(p.channel_at(3, 3), B);
    }

    #[test]
    fn every_pattern_has_half_green() {
        for p in [
            BayerPattern::Rggb,
            BayerPattern::Bggr,
            BayerPattern::Grbg,
            BayerPattern::Gbrg,
        ] {
            let mut counts = [0u32; 3];
            for r in 0..2 {
                for c in 0..2 {
                    match p.channel_at(r, c) {
                        CfaChannel::R => counts[0] += 1,
                        CfaChannel::G => counts[1] += 1,
                        CfaChannel::B => counts[2] += 1,
                    }
                }
            }
            assert_eq!(counts, [1, 2, 1], "{p:?}: green must dominate");
        }
    }

    #[test]
    fn mosaic_sample_picks_filtered_channel() {
        let rgb = LinearRgb::new(0.9, 0.5, 0.1);
        let p = BayerPattern::Rggb;
        assert_eq!(p.mosaic_sample(0, 0, rgb), 0.9);
        assert_eq!(p.mosaic_sample(0, 1, rgb), 0.5);
        assert_eq!(p.mosaic_sample(1, 1, rgb), 0.1);
    }

    #[test]
    fn demosaic_of_uniform_scene_is_exact() {
        // A flat color field mosaics and demosaics back to itself exactly —
        // bilinear interpolation is exact for constants.
        let (w, h) = (8, 8);
        let truth = LinearRgb::new(0.7, 0.4, 0.2);
        let p = BayerPattern::Rggb;
        let raw: Vec<f64> = (0..h)
            .flat_map(|r| (0..w).map(move |c| (r, c)))
            .map(|(r, c)| p.mosaic_sample(r, c, truth))
            .collect();
        let rgb = demosaic_bilinear(&raw, w, h, p);
        for px in rgb {
            assert!(px.to_vec3().max_abs_diff(truth.to_vec3()) < 1e-12);
        }
    }

    #[test]
    fn demosaic_of_horizontal_bands_blurs_only_the_boundary() {
        // Two color bands (the rolling-shutter geometry): interior rows stay
        // close to the truth, the boundary rows mix — the demosaic
        // contribution to inter-symbol interference.
        let (w, h) = (8, 16);
        let top = LinearRgb::new(0.8, 0.1, 0.1);
        let bottom = LinearRgb::new(0.1, 0.8, 0.1);
        let p = BayerPattern::Rggb;
        let truth = |r: usize| if r < 8 { top } else { bottom };
        let raw: Vec<f64> = (0..h)
            .flat_map(|r| (0..w).map(move |c| (r, c)))
            .map(|(r, c)| p.mosaic_sample(r, c, truth(r)))
            .collect();
        let rgb = demosaic_bilinear(&raw, w, h, p);
        // Interior rows exact.
        for &r in &[2usize, 4, 12, 14] {
            for c in 0..w {
                let px = rgb[r * w + c];
                assert!(
                    px.to_vec3().max_abs_diff(truth(r).to_vec3()) < 1e-9,
                    "row {r} col {c}: {px:?}"
                );
            }
        }
        // Boundary rows mixed.
        let boundary = rgb[7 * w + 3];
        assert!(boundary.g > top.g + 0.05 || boundary.r < top.r - 0.05);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn demosaic_size_mismatch_panics() {
        let _ = demosaic_bilinear(&[0.0; 10], 4, 4, BayerPattern::Rggb);
    }

    /// The uniformly clamped 3×3 walk the production code specializes. A
    /// channel with no site in the window (planes one site wide or high)
    /// reads 0.
    fn demosaic_reference(
        raw: &[f64],
        width: usize,
        height: usize,
        pattern: BayerPattern,
    ) -> Vec<LinearRgb> {
        let mut out = Vec::with_capacity(raw.len());
        for row in 0..height {
            for col in 0..width {
                let mut sums = [0.0f64; 3];
                let mut counts = [0u32; 3];
                for dr in -1i64..=1 {
                    for dc in -1i64..=1 {
                        let r = (row as i64 + dr).clamp(0, height as i64 - 1) as usize;
                        let c = (col as i64 + dc).clamp(0, width as i64 - 1) as usize;
                        let ch = match pattern.channel_at(r, c) {
                            CfaChannel::R => 0,
                            CfaChannel::G => 1,
                            CfaChannel::B => 2,
                        };
                        sums[ch] += raw[r * width + c];
                        counts[ch] += 1;
                    }
                }
                let own_ch = match pattern.channel_at(row, col) {
                    CfaChannel::R => 0,
                    CfaChannel::G => 1,
                    CfaChannel::B => 2,
                };
                let mut px = [0.0f64; 3];
                for ch in 0..3 {
                    px[ch] = if ch == own_ch {
                        raw[row * width + col]
                    } else if counts[ch] > 0 {
                        sums[ch] / counts[ch] as f64
                    } else {
                        0.0
                    };
                }
                out.push(LinearRgb::new(px[0], px[1], px[2]));
            }
        }
        out
    }

    #[test]
    fn interior_fast_path_matches_reference_bit_exactly() {
        // Every small plane, so each row parity, each interior length (even
        // and odd, empty and one site), and both edges meet every pattern;
        // then the two devices' capture planes in both orientations.
        let mut shapes: Vec<(usize, usize)> = (1..=33)
            .flat_map(|w| (1..=9).map(move |h| (w, h)))
            .collect();
        shapes.extend([(24, 3264), (24, 1920), (3264, 24), (1920, 24)]);
        for (w, h) in shapes {
            // Irregular data so any wrong offset, count, channel or
            // summation order shows up, clipped into [0, 1] the way the
            // sensor clips its samples: about one sample in twelve is
            // exactly 0.0 and one in twelve exactly 1.0.
            let raw: Vec<f64> = (0..w * h)
                .map(|i| {
                    let v = ((i * 2654435761usize) % 1200) as f64 / 1000.0 - 0.1;
                    v.clamp(0.0, 1.0)
                })
                .collect();
            for p in [
                BayerPattern::Rggb,
                BayerPattern::Bggr,
                BayerPattern::Grbg,
                BayerPattern::Gbrg,
            ] {
                let fast = demosaic_bilinear(&raw, w, h, p);
                let reference = demosaic_reference(&raw, w, h, p);
                assert_eq!(fast.len(), reference.len());
                for (i, (a, b)) in fast.iter().zip(&reference).enumerate() {
                    assert!(
                        a.r.to_bits() == b.r.to_bits()
                            && a.g.to_bits() == b.g.to_bits()
                            && a.b.to_bits() == b.b.to_bits(),
                        "{w}×{h} {p:?} pixel ({}, {}): {a:?} vs {b:?}",
                        i / w,
                        i % w
                    );
                }
            }
        }
    }
}
