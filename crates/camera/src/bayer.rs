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
pub fn demosaic_bilinear_with<F: FnMut(LinearRgb)>(
    raw: &[f64],
    width: usize,
    height: usize,
    pattern: BayerPattern,
    mut emit: F,
) {
    assert_eq!(raw.len(), width * height, "raw plane size mismatch");
    // The channel at a site depends only on (row % 2, col % 2); hoist the
    // pattern dispatch into a 2×2 index table so the neighbor loops do a
    // table lookup instead of a double match per sample.
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
    // Interior sites have a fixed 3×3 geometry per (row, col) parity, and
    // any Bayer row alternates G sites with R-or-B sites. The interior loop
    // below is specialized on that structure: constant-offset neighbor
    // loads from three row slices, fully unrolled — no offset tables, no
    // dynamic-length accumulation loops. Each sum is written in row-major
    // window order, so every float matches the general border path (and the
    // previous offset-plan implementation) bit for bit; the 2- and 4-count
    // means multiply by an exact power-of-two reciprocal, which is the same
    // IEEE double as dividing by the count.
    for row in 0..height {
        if row == 0 || row + 1 == height {
            for col in 0..width {
                emit(border_pixel(raw, width, height, &parity, row, col));
            }
            continue;
        }
        let base = row * width;
        let up = &raw[base - width..base];
        let mid = &raw[base..base + width];
        let down = &raw[base + width..base + 2 * width];
        let rp = row & 1;
        // Any Bayer row alternates G sites with sites of one other channel
        // X (R or B); the third channel Y only appears off-row. Resolve the
        // row's layout once, then reconstruct each pixel as three scalars —
        // no dynamic channel indexing inside the loop.
        let g_parity = if parity[rp][0] == 1 { 0 } else { 1 };
        let x_is_r = parity[rp][1 - g_parity] == 0;
        emit(border_pixel(raw, width, height, &parity, row, 0));
        for col in 1..width.saturating_sub(1) {
            let (g, xv, yv) = if col & 1 == g_parity {
                // G site: X lives left/right, Y above/below.
                (
                    mid[col],
                    (mid[col - 1] + mid[col + 1]) * 0.5,
                    (up[col] + down[col]) * 0.5,
                )
            } else {
                // X site: G on the 4-connected cross, Y on the diagonals.
                (
                    (up[col] + mid[col - 1] + mid[col + 1] + down[col]) * 0.25,
                    mid[col],
                    (up[col - 1] + up[col + 1] + down[col - 1] + down[col + 1]) * 0.25,
                )
            };
            let (r, b) = if x_is_r { (xv, yv) } else { (yv, xv) };
            emit(LinearRgb::new(r, g, b));
        }
        if width > 1 {
            emit(border_pixel(raw, width, height, &parity, row, width - 1));
        }
    }
}

/// Border-clamped bilinear reconstruction of one pixel — the general path
/// shared by frame edges, where the 3×3 window is clamped into the plane
/// and neighbor counts vary.
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

    /// The uniformly clamped 3×3 walk the production code specializes.
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
                    } else {
                        sums[ch] / counts[ch] as f64
                    };
                }
                out.push(LinearRgb::new(px[0], px[1], px[2]));
            }
        }
        out
    }

    #[test]
    fn interior_fast_path_matches_reference_bit_exactly() {
        // Irregular data so any wrong offset, count or channel shows up.
        let (w, h) = (9, 11);
        let raw: Vec<f64> = (0..w * h)
            .map(|i| ((i * 2654435761usize) % 1000) as f64 / 1000.0)
            .collect();
        for p in [
            BayerPattern::Rggb,
            BayerPattern::Bggr,
            BayerPattern::Grbg,
            BayerPattern::Gbrg,
        ] {
            let fast = demosaic_bilinear(&raw, w, h, p);
            let reference = demosaic_reference(&raw, w, h, p);
            for (i, (a, b)) in fast.iter().zip(&reference).enumerate() {
                assert!(
                    a.r.to_bits() == b.r.to_bits()
                        && a.g.to_bits() == b.g.to_bits()
                        && a.b.to_bits() == b.b.to_bits(),
                    "{p:?} pixel {i}: {a:?} vs {b:?}"
                );
            }
        }
    }
}
