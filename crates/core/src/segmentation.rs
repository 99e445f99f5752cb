//! Frame → 1-D CIELAB signal → color bands (paper Section 7, Steps 1–2).
//!
//! Step 1: every pixel is converted to CIELAB; dropping the lightness
//! channel removes most of the vignetting-induced variation (Fig 8).
//! Step 2: the 2-D frame is reduced to one Lab value per scanline by
//! averaging along the band direction, then the 1-D signal is segmented
//! into bands. Segmentation combines change-point detection (gradient
//! maxima of the ΔE between the windows before and after each row) with
//! the known expected band width: over-wide segments — two identical
//! symbols in a row — are split by width, and segments narrower than the
//! minimum-width rule (the paper found < 10 px undecodable) are dropped.
//!
//! Each band's feature is the *trimmed* interior mean: boundary rows are
//! contaminated by exposure smear, PSF blur and demosaicing, so only the
//! central portion of the band votes.

use colorbars_camera::Frame;
use colorbars_color::{Lab, SrgbToXyzLut};

/// One detected color band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    /// First row (inclusive).
    pub start: usize,
    /// Last row (exclusive).
    pub end: usize,
    /// Trimmed-mean Lab feature of the interior rows.
    pub feature: Lab,
}

impl Band {
    /// Band width in rows.
    pub fn width(&self) -> usize {
        self.end - self.start
    }

    /// Center row of the band.
    pub fn center(&self) -> usize {
        (self.start + self.end) / 2
    }
}

/// Segmentation tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct SegmentationConfig {
    /// Expected band width in rows (`1 / (symbol_rate · row_time)`).
    pub expected_band_px: f64,
    /// Bands narrower than this are dropped (paper: 10 px minimum; frame-
    /// edge truncations fall below it and are recovered as erasures).
    pub min_band_px: usize,
    /// ΔE (full Lab) change-score threshold for a boundary.
    pub boundary_threshold: f64,
    /// Fraction trimmed from each side of a band before averaging.
    pub trim_fraction: f64,
}

impl SegmentationConfig {
    /// Defaults for a symbol rate / device row time pair.
    pub fn for_band_width(expected_band_px: f64) -> SegmentationConfig {
        SegmentationConfig {
            expected_band_px,
            min_band_px: 8.min((expected_band_px * 0.4) as usize).max(3),
            boundary_threshold: 7.0,
            trim_fraction: 0.3,
        }
    }
}

/// Step 1–2a: reduce a frame to one Lab value per scanline.
///
/// Pixels are decoded from stored sRGB to XYZ and converted to Lab, then
/// averaged across the row — the same order as the paper (convert, then
/// average), so non-linear encoding effects match the prototype app.
///
/// Every pixel's Lab is computed exactly, with no cache, by
/// [`SrgbToXyzLut::row_lab_mean`]'s lane kernel: each row is bit-for-bit
/// the scalar fold of `Lab::from_xyz(lut.xyz_of(px), Xyz::D65_WHITE)` over
/// its pixels divided by the width, so every downstream decoded byte is
/// too, and a frame's decode time does not depend on how many distinct
/// colors it holds.
pub fn row_signal(frame: &Frame) -> Vec<Lab> {
    let lut = SrgbToXyzLut::srgb();
    frame.rows().map(|row| lut.row_lab_mean(row)).collect()
}

/// Step 2b: segment the 1-D Lab signal into bands.
pub fn segment(signal: &[Lab], cfg: &SegmentationConfig) -> Vec<Band> {
    if signal.is_empty() {
        return Vec::new();
    }
    let n = signal.len();
    // Window for the before/after means: a fraction of the band width, at
    // least 2 rows.
    let w = ((cfg.expected_band_px / 6.0).round() as usize).max(2);

    // Change score per row: ΔE between mean(before window) and mean(after).
    let mut score = vec![0.0f64; n];
    for i in w..n.saturating_sub(w) {
        let before = mean_lab(&signal[i - w..i]);
        let after = mean_lab(&signal[i..i + w]);
        score[i] = delta_full(before, after);
    }

    // Boundaries: local maxima above threshold with minimum separation.
    let min_sep = ((cfg.expected_band_px * 0.5) as usize).max(cfg.min_band_px.max(2));
    let mut boundaries: Vec<usize> = Vec::new();
    let mut i = w;
    while i + 1 < n.saturating_sub(w) {
        if score[i] >= cfg.boundary_threshold
            && score[i] >= score[i - 1]
            && score[i] >= score[i + 1]
        {
            if let Some(&last) = boundaries.last() {
                if i - last < min_sep {
                    // Keep the stronger of the two close maxima.
                    if score[i] > score[last] {
                        *boundaries.last_mut().expect("non-empty") = i;
                    }
                    i += 1;
                    continue;
                }
            }
            boundaries.push(i);
        }
        i += 1;
    }

    // Segments between boundaries (plus the frame edges).
    let mut edges = Vec::with_capacity(boundaries.len() + 2);
    edges.push(0);
    edges.extend(boundaries);
    edges.push(n);

    let mut bands = Vec::new();
    for pair in edges.windows(2) {
        let (s, e) = (pair[0], pair[1]);
        if e <= s {
            continue;
        }
        let len = e - s;
        // Split over-wide segments: repeated identical symbols produce no
        // internal boundary, but the symbol clock is known.
        let parts = ((len as f64 / cfg.expected_band_px).round() as usize).max(1);
        let part_len = len as f64 / parts as f64;
        for p in 0..parts {
            let ps = s + (p as f64 * part_len).round() as usize;
            let pe = s + ((p + 1) as f64 * part_len).round() as usize;
            if pe <= ps {
                continue;
            }
            if pe - ps < cfg.min_band_px {
                continue; // dropped; header-size arithmetic recovers it
            }
            bands.push(make_band(signal, ps, pe, cfg.trim_fraction));
        }
    }
    bands
}

fn make_band(signal: &[Lab], start: usize, end: usize, trim: f64) -> Band {
    let len = end - start;
    let t = ((len as f64 * trim) as usize).min((len - 1) / 2);
    let inner = &signal[start + t..end - t];
    Band {
        start,
        end,
        feature: mean_lab(inner),
    }
}

fn mean_lab(labs: &[Lab]) -> Lab {
    let n = labs.len().max(1) as f64;
    let (l, a, b) = labs
        .iter()
        .fold((0.0, 0.0, 0.0), |(l, a, b), x| (l + x.l, a + x.a, b + x.b));
    Lab::new(l / n, a / n, b / n)
}

fn delta_full(x: Lab, y: Lab) -> f64 {
    // Full-Lab distance: boundaries between colors differ in (a, b);
    // boundaries to/from OFF differ mostly in L. Weight L half as much so
    // vignetting gradients don't fire boundaries.
    let dl = 0.5 * (x.l - y.l);
    ((x.a - y.a).powi(2) + (x.b - y.b).powi(2) + dl * dl).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthesize a Lab row signal of bands with optional linear ramps at
    /// boundaries (exposure-smear stand-in).
    fn synth(bands: &[(Lab, usize)], ramp: usize) -> Vec<Lab> {
        let mut out: Vec<Lab> = Vec::new();
        for (idx, &(lab, len)) in bands.iter().enumerate() {
            for k in 0..len {
                if k < ramp && idx > 0 {
                    let prev = bands[idx - 1].0;
                    let t = (k + 1) as f64 / (ramp + 1) as f64;
                    out.push(Lab::new(
                        prev.l + t * (lab.l - prev.l),
                        prev.a + t * (lab.a - prev.a),
                        prev.b + t * (lab.b - prev.b),
                    ));
                } else {
                    out.push(lab);
                }
            }
        }
        out
    }

    const RED: Lab = Lab::new(50.0, 60.0, 40.0);
    const GREEN: Lab = Lab::new(60.0, -70.0, 50.0);
    const BLUE: Lab = Lab::new(30.0, 20.0, -60.0);

    #[test]
    fn clean_bands_are_found_exactly() {
        let signal = synth(&[(RED, 40), (GREEN, 40), (BLUE, 40)], 0);
        let cfg = SegmentationConfig::for_band_width(40.0);
        let bands = segment(&signal, &cfg);
        assert_eq!(bands.len(), 3, "{bands:?}");
        assert!(bands[0].feature.a > 30.0, "first band red-ish");
        assert!(bands[1].feature.a < -30.0, "second band green-ish");
        assert!(bands[2].feature.b < -30.0, "third band blue-ish");
        // Boundaries within a few rows of truth.
        assert!((bands[0].end as i64 - 40).unsigned_abs() <= 3);
        assert!((bands[1].end as i64 - 80).unsigned_abs() <= 3);
    }

    #[test]
    fn smeared_boundaries_still_detected_and_trimmed() {
        let signal = synth(&[(RED, 40), (GREEN, 40), (BLUE, 40)], 8);
        let cfg = SegmentationConfig::for_band_width(40.0);
        let bands = segment(&signal, &cfg);
        assert_eq!(bands.len(), 3, "{bands:?}");
        // Trimmed features stay close to the pure colors despite ramps.
        assert!((bands[1].feature.a - GREEN.a).abs() < 8.0, "{:?}", bands[1]);
    }

    #[test]
    fn repeated_symbol_is_split_by_width() {
        // red, red, green: only one detectable boundary, but widths give
        // three bands.
        let signal = synth(&[(RED, 80), (GREEN, 40)], 0);
        let cfg = SegmentationConfig::for_band_width(40.0);
        let bands = segment(&signal, &cfg);
        assert_eq!(bands.len(), 3, "{bands:?}");
        assert!(bands[0].feature.a > 30.0 && bands[1].feature.a > 30.0);
        assert!(bands[2].feature.a < -30.0);
    }

    #[test]
    fn narrow_edge_fragments_are_dropped() {
        // A 5-row truncated band at the frame edge (inter-frame cutoff).
        let signal = synth(&[(RED, 5), (GREEN, 40), (BLUE, 40)], 0);
        let cfg = SegmentationConfig::for_band_width(40.0);
        let bands = segment(&signal, &cfg);
        // The 5-row fragment is below min_band_px and must be dropped.
        assert!(bands.iter().all(|b| b.width() >= cfg.min_band_px));
        assert_eq!(bands.len(), 2, "{bands:?}");
    }

    #[test]
    fn off_to_white_boundary_is_detected_via_lightness() {
        let off = Lab::new(1.0, 0.0, 0.0);
        let white = Lab::new(80.0, 0.0, 0.0);
        let signal = synth(&[(off, 40), (white, 40), (off, 40)], 0);
        let cfg = SegmentationConfig::for_band_width(40.0);
        let bands = segment(&signal, &cfg);
        assert_eq!(bands.len(), 3, "{bands:?}");
        assert!(bands[0].feature.l < 5.0);
        assert!(bands[1].feature.l > 60.0);
    }

    #[test]
    fn constant_signal_gives_width_derived_bands() {
        let signal = vec![RED; 120];
        let cfg = SegmentationConfig::for_band_width(40.0);
        let bands = segment(&signal, &cfg);
        assert_eq!(bands.len(), 3, "{bands:?}");
        for b in bands {
            assert!((b.width() as f64 - 40.0).abs() <= 1.0);
        }
    }

    #[test]
    fn empty_signal_is_fine() {
        let cfg = SegmentationConfig::for_band_width(40.0);
        assert!(segment(&[], &cfg).is_empty());
    }

    /// The ROI width is a capture setting (8 or 16 columns in unit tests,
    /// 24 by default, 96 in `band_visualizer`), so every chunk tail of the
    /// row kernel must reproduce the scalar fold exactly, not just full
    /// rows of one width.
    #[test]
    fn row_signal_is_the_scalar_fold_at_every_width() {
        use colorbars_camera::FrameMeta;
        use colorbars_color::Xyz;
        let lut = SrgbToXyzLut::srgb();
        let meta = FrameMeta {
            index: 0,
            start_time: 0.0,
            exposure: 1e-4,
            iso: 100.0,
            row_time: 1e-5,
        };
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for width in [1, 2, 5, 7, 8, 9, 23, 24, 25] {
            let height = 16;
            let pixels: Vec<[u8; 3]> = (0..width * height)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let [r, g, b, ..] = (state >> 32).to_le_bytes();
                    [r, g, b]
                })
                .collect();
            let frame = Frame::new(width, height, pixels, meta);
            for (r, got) in row_signal(&frame).into_iter().enumerate() {
                let (mut l, mut a, mut b) = (0.0, 0.0, 0.0);
                for &px in frame.row(r) {
                    let lab = Lab::from_xyz(lut.xyz_of(px), Xyz::D65_WHITE);
                    l += lab.l;
                    a += lab.a;
                    b += lab.b;
                }
                let n = width as f64;
                assert_eq!(
                    [got.l, got.a, got.b].map(f64::to_bits),
                    [l / n, a / n, b / n].map(f64::to_bits),
                    "width {width}, row {r}"
                );
            }
        }
    }

    #[test]
    fn band_accessors() {
        let b = Band {
            start: 10,
            end: 30,
            feature: RED,
        };
        assert_eq!(b.width(), 20);
        assert_eq!(b.center(), 20);
    }
}
