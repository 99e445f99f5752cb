//! CIELAB color space and ΔE color difference metrics.
//!
//! The ColorBars receiver demodulates in CIELAB (paper Section 7): frames are
//! converted from RGB, the lightness channel `L` is discarded to remove
//! non-uniform brightness (vignetting), and received symbols are matched to
//! calibration references by Euclidean distance in the `(a, b)` plane — the
//! paper's ΔE metric with the classical just-noticeable-difference threshold
//! of 2.3.

use crate::xyz::Xyz;

/// The ΔE*ab value below which two colors are generally indistinguishable to
/// a human observer — the threshold the paper uses both for color matching in
/// demodulation and as the flicker-visibility criterion.
pub const JND_DELTA_E: f64 = 2.3;

/// A CIELAB color.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Lab {
    /// Lightness, `0` (black) to `100` (reference white).
    pub l: f64,
    /// Green(−) ↔ red(+) opponent axis.
    pub a: f64,
    /// Blue(−) ↔ yellow(+) opponent axis.
    pub b: f64,
}

impl Lab {
    /// Construct from components.
    pub const fn new(l: f64, a: f64, b: f64) -> Self {
        Lab { l, a, b }
    }

    /// Convert an XYZ color to Lab relative to `white` (normally
    /// [`Xyz::D65_WHITE`] scaled to the scene's reference luminance).
    pub fn from_xyz(xyz: Xyz, white: Xyz) -> Lab {
        let fx = lab_f(safe_div(xyz.x, white.x));
        let fy = lab_f(safe_div(xyz.y, white.y));
        let fz = lab_f(safe_div(xyz.z, white.z));
        Lab {
            l: 116.0 * fy - 16.0,
            a: 500.0 * (fx - fy),
            b: 200.0 * (fy - fz),
        }
    }

    /// Convert back to XYZ relative to `white`.
    pub fn to_xyz(self, white: Xyz) -> Xyz {
        let fy = (self.l + 16.0) / 116.0;
        let fx = fy + self.a / 500.0;
        let fz = fy - self.b / 200.0;
        Xyz::new(
            white.x * lab_f_inv(fx),
            white.y * lab_f_inv(fy),
            white.z * lab_f_inv(fz),
        )
    }

    /// The chroma component pair `(a, b)` with lightness removed — the
    /// representation the receiver reduces every pixel to (Section 7 Step 1).
    pub fn ab(self) -> (f64, f64) {
        (self.a, self.b)
    }

    /// Euclidean distance in the `(a, b)` plane only (lightness ignored).
    ///
    /// This is the color-matching distance of the paper's demodulator: after
    /// dropping `L`, `ΔE = sqrt(Δa² + Δb²)`.
    pub fn delta_e_ab_plane(self, o: Lab) -> f64 {
        ((self.a - o.a).powi(2) + (self.b - o.b).powi(2)).sqrt()
    }
}

/// CIE76 color difference: Euclidean distance in full Lab space.
pub fn delta_e76(x: Lab, y: Lab) -> f64 {
    ((x.l - y.l).powi(2) + (x.a - y.a).powi(2) + (x.b - y.b).powi(2)).sqrt()
}

/// CIE94 color difference (graphic-arts weights), a perceptually more uniform
/// refinement of CIE76. Provided for comparison experiments; the paper itself
/// uses CIE76.
pub fn delta_e94(x: Lab, y: Lab) -> f64 {
    let dl = x.l - y.l;
    let c1 = (x.a * x.a + x.b * x.b).sqrt();
    let c2 = (y.a * y.a + y.b * y.b).sqrt();
    let dc = c1 - c2;
    let da = x.a - y.a;
    let db = x.b - y.b;
    let dh2 = (da * da + db * db - dc * dc).max(0.0);
    let sl = 1.0;
    let sc = 1.0 + 0.045 * c1;
    let sh = 1.0 + 0.015 * c1;
    ((dl / sl).powi(2) + (dc / sc).powi(2) + dh2 / (sh * sh)).sqrt()
}

/// CIEDE2000 color difference — the current CIE recommendation, correcting
/// CIE76's non-uniformity in the blue region and for saturated colors.
///
/// Provided for demodulation-metric studies (the paper uses CIE76 with the
/// 2.3 JND; ΔE2000 is the natural "what if" upgrade). Implementation
/// follows the standard formulation (Sharma, Wu & Dalal 2005) with unit
/// parametric factors kL = kC = kH = 1.
pub fn delta_e2000(x: Lab, y: Lab) -> f64 {
    let (l1, a1, b1) = (x.l, x.a, x.b);
    let (l2, a2, b2) = (y.l, y.a, y.b);

    let c1 = (a1 * a1 + b1 * b1).sqrt();
    let c2 = (a2 * a2 + b2 * b2).sqrt();
    let c_bar = 0.5 * (c1 + c2);
    let c7 = c_bar.powi(7);
    let g = 0.5 * (1.0 - (c7 / (c7 + 25.0f64.powi(7))).sqrt());

    let ap1 = (1.0 + g) * a1;
    let ap2 = (1.0 + g) * a2;
    let cp1 = (ap1 * ap1 + b1 * b1).sqrt();
    let cp2 = (ap2 * ap2 + b2 * b2).sqrt();

    let hp = |ap: f64, b: f64| -> f64 {
        if ap == 0.0 && b == 0.0 {
            0.0
        } else {
            let h = b.atan2(ap).to_degrees();
            if h < 0.0 {
                h + 360.0
            } else {
                h
            }
        }
    };
    let hp1 = hp(ap1, b1);
    let hp2 = hp(ap2, b2);

    let dl = l2 - l1;
    let dc = cp2 - cp1;
    let dhp = if cp1 * cp2 == 0.0 {
        0.0
    } else {
        let mut d = hp2 - hp1;
        if d > 180.0 {
            d -= 360.0;
        } else if d < -180.0 {
            d += 360.0;
        }
        d
    };
    let dh = 2.0 * (cp1 * cp2).sqrt() * (dhp.to_radians() / 2.0).sin();

    let l_bar = 0.5 * (l1 + l2);
    let cp_bar = 0.5 * (cp1 + cp2);
    let hp_bar = if cp1 * cp2 == 0.0 {
        hp1 + hp2
    } else {
        let sum = hp1 + hp2;
        let diff = (hp1 - hp2).abs();
        if diff <= 180.0 {
            0.5 * sum
        } else if sum < 360.0 {
            0.5 * (sum + 360.0)
        } else {
            0.5 * (sum - 360.0)
        }
    };

    let t = 1.0 - 0.17 * (hp_bar - 30.0).to_radians().cos()
        + 0.24 * (2.0 * hp_bar).to_radians().cos()
        + 0.32 * (3.0 * hp_bar + 6.0).to_radians().cos()
        - 0.20 * (4.0 * hp_bar - 63.0).to_radians().cos();

    let l50 = (l_bar - 50.0).powi(2);
    let sl = 1.0 + 0.015 * l50 / (20.0 + l50).sqrt();
    let sc = 1.0 + 0.045 * cp_bar;
    let sh = 1.0 + 0.015 * cp_bar * t;

    let d_theta = 30.0 * (-((hp_bar - 275.0) / 25.0).powi(2)).exp();
    let cp7 = cp_bar.powi(7);
    let rc = 2.0 * (cp7 / (cp7 + 25.0f64.powi(7))).sqrt();
    let rt = -rc * (2.0 * d_theta).to_radians().sin();

    let (fl, fc, fh) = (dl / sl, dc / sc, dh / sh);
    (fl * fl + fc * fc + fh * fh + rt * fc * fh).sqrt()
}

const DELTA: f64 = 6.0 / 29.0;

fn lab_f(t: f64) -> f64 {
    if t > DELTA * DELTA * DELTA {
        t.cbrt()
    } else {
        t / (3.0 * DELTA * DELTA) + 4.0 / 29.0
    }
}

fn lab_f_inv(t: f64) -> f64 {
    if t > DELTA {
        t * t * t
    } else {
        3.0 * DELTA * DELTA * (t - 4.0 / 29.0)
    }
}

fn safe_div(n: f64, d: f64) -> f64 {
    if d.abs() < 1e-12 {
        0.0
    } else {
        n / d
    }
}

/// Lane width of the receiver's row kernel
/// ([`SrgbToXyzLut::row_lab_mean`](crate::rgb::SrgbToXyzLut::row_lab_mean)).
pub(crate) const LANES: usize = 8;

/// [`Lab::from_xyz`] against [`Xyz::D65_WHITE`] for [`LANES`] colors at
/// once, given as `[x, y, z]` lanes; returns `[l, a, b]` lanes.
///
/// Every lane is bit-identical to the scalar conversion on every input a
/// stored byte pixel produces: the white-point divisions, the linear toe
/// and the final affine steps are the same IEEE operations in the same
/// order, and there [`cbrt_lane`] and libm's `cbrt` both return the
/// correctly rounded root (the exhaustive test in `rgb.rs` checks all 2²⁴
/// pixels). Both branches of `lab_f` are computed in every lane and one is
/// selected, so the loops carry no data-dependent branch and vectorize.
#[inline]
pub(crate) fn lab_lanes_d65(xyz: &[[f64; LANES]; 3]) -> [[f64; LANES]; 3] {
    let white = [Xyz::D65_WHITE.x, Xyz::D65_WHITE.y, Xyz::D65_WHITE.z];
    let mut f = [[0.0; LANES]; 3];
    for c in 0..3 {
        for i in 0..LANES {
            let t = safe_div(xyz[c][i], white[c]);
            let toe = t / (3.0 * DELTA * DELTA) + 4.0 / 29.0;
            let root = cbrt_lane(t);
            f[c][i] = if t > DELTA * DELTA * DELTA { root } else { toe };
        }
    }
    let mut lab = [[0.0; LANES]; 3];
    for i in 0..LANES {
        let [fx, fy, fz] = [f[0][i], f[1][i], f[2][i]];
        lab[0][i] = 116.0 * fy - 16.0;
        lab[1][i] = 500.0 * (fx - fy);
        lab[2][i] = 200.0 * (fy - fz);
    }
    lab
}

/// Cube root of a positive normal `t`, branch-free and division-free,
/// correctly rounded except within 2⁻⁹⁸·t of a midpoint between doubles.
///
/// The iteration runs on `z ≈ t^(−1/3)`, whose updates need no division.
/// The seed subtracts a third of `t`'s high word from a constant, which
/// divides the exponent by −3 and interpolates linearly within each octave
/// (relative error ≤ 3.5%). With `ε = 1 − t·z³`, the exact root is
/// `z·(1 − ε)^(−1/3) = z·(1 + ε/3 + 2ε²/9 + 14ε³/81 + …)`; two steps of the
/// series cut at ε³ bring the error to about 2·10⁻⁵ and then to rounding
/// level, so `y = t·z²` is within three ulps of `∛t`. A last Newton step
/// for `y` evaluates the residual `t − y³` in double-double arithmetic with
/// `mul_add` (each one correctly rounded IEEE operation, so every product's
/// rounding error is captured exactly) and takes `z²/3` as the slope
/// `1/(3y²)`. It leaves `y + δ` within about 150·2⁻¹⁰⁶ (< 2⁻⁹⁸) of `∛t` in
/// relative terms, so rounding that sum once gives the correctly rounded
/// root unless `∛t` lies that close to a midpoint. None of the inputs a
/// stored byte pixel produces does (the exhaustive test in `rgb.rs`).
/// Other inputs (zero, negative, subnormal) return an unspecified value
/// that callers discard.
#[inline]
fn cbrt_lane(t: f64) -> f64 {
    // Minimizes the seed's worst relative error over whole octaves.
    const MAGIC: u64 = 0x553e_f0e8;
    let hi = t.to_bits() >> 32;
    // hi / 3, written as the multiply LLVM would emit for it, because that
    // form vectorizes (one 32×32→64-bit multiply per lane) and `/` does not.
    let third = (hi * 0xaaaa_aaab) >> 33;
    let mut z = f64::from_bits(MAGIC.wrapping_sub(third) << 32);
    for _ in 0..2 {
        let eps = (-t).mul_add(z * z * z, 1.0);
        let series = (14.0f64 / 81.0)
            .mul_add(eps, 2.0 / 9.0)
            .mul_add(eps, 1.0 / 3.0);
        z = z.mul_add(eps * series, z);
    }
    let zz = z * z;
    let y = t * zz;
    cube_residual(t, y).mul_add(zz * (1.0 / 3.0), y)
}

/// `t − y³` to a few units of 2⁻¹⁰⁶·t for `y` within a few ulps of `∛t`:
/// `y² = s + s_lo` and `s·y = p + p_lo` exactly, and `t − p` is exact
/// because `p` is within a factor of two of `t`.
#[inline]
fn cube_residual(t: f64, y: f64) -> f64 {
    let s = y * y;
    let s_lo = y.mul_add(y, -s);
    let p = s * y;
    let p_lo = s.mul_add(y, -p);
    (-s_lo).mul_add(y, (t - p) - p_lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube_root_is_exact_on_cubes_and_rounds_up_below_powers_of_eight() {
        for k in -3..=1 {
            assert_eq!(cbrt_lane(8f64.powi(k)), 2f64.powi(k), "8^{k}");
        }
        // ∛(8^k·(1 − 2⁻⁵³)) = 2^k·(1 − 2⁻⁵³/3 − …) is nearer 2^k than the
        // double below it: the last rounding must carry it up across the
        // binade end, where the spacing of doubles changes.
        for k in -3..=1 {
            let t = 8f64.powi(k) * (1.0 - f64::EPSILON / 2.0);
            assert_eq!(cbrt_lane(t), 2f64.powi(k), "below 8^{k}");
        }
    }

    #[test]
    fn white_maps_to_l100_a0_b0() {
        let lab = Lab::from_xyz(Xyz::D65_WHITE, Xyz::D65_WHITE);
        assert!((lab.l - 100.0).abs() < 1e-9);
        assert!(lab.a.abs() < 1e-9);
        assert!(lab.b.abs() < 1e-9);
    }

    #[test]
    fn black_maps_to_l0() {
        let lab = Lab::from_xyz(Xyz::BLACK, Xyz::D65_WHITE);
        assert!(lab.l.abs() < 1e-9);
    }

    #[test]
    fn xyz_round_trip() {
        let samples = [
            Xyz::new(0.2, 0.3, 0.4),
            Xyz::new(0.01, 0.005, 0.02),
            Xyz::new(0.9, 0.95, 1.0),
        ];
        for xyz in samples {
            let lab = Lab::from_xyz(xyz, Xyz::D65_WHITE);
            let back = lab.to_xyz(Xyz::D65_WHITE);
            assert!(back.to_vec3().max_abs_diff(xyz.to_vec3()) < 1e-9, "{xyz:?}");
        }
    }

    #[test]
    fn lightness_change_does_not_move_ab_much_for_same_chromaticity() {
        // The whole point of converting to Lab and dropping L (Section 7):
        // the same chromaticity at different brightness keeps most of its
        // difference in the L channel. Lab is not perfectly
        // luminance-invariant (the cube-root compressions of a and b scale
        // with luminance too), but discarding L must remove the majority of
        // a vignetting-sized (±30%) brightness variation.
        let c = crate::Chromaticity::new(0.45, 0.40);
        let dim = Lab::from_xyz(c.with_luminance(0.42), Xyz::D65_WHITE);
        let bright = Lab::from_xyz(c.with_luminance(0.6), Xyz::D65_WHITE);
        let full = delta_e76(dim, bright);
        let ab_only = dim.delta_e_ab_plane(bright);
        assert!(
            ab_only < 0.5 * full,
            "ab-plane distance {ab_only} vs full {full}"
        );
    }

    #[test]
    fn delta_e76_is_a_metric_on_samples() {
        let a = Lab::new(50.0, 10.0, -10.0);
        let b = Lab::new(55.0, -5.0, 20.0);
        let c = Lab::new(40.0, 0.0, 0.0);
        assert_eq!(delta_e76(a, a), 0.0);
        assert!((delta_e76(a, b) - delta_e76(b, a)).abs() < 1e-12);
        assert!(delta_e76(a, c) <= delta_e76(a, b) + delta_e76(b, c) + 1e-12);
    }

    #[test]
    fn delta_e94_close_to_e76_near_neutral() {
        let a = Lab::new(50.0, 1.0, -1.0);
        let b = Lab::new(52.0, -1.0, 1.5);
        let e76 = delta_e76(a, b);
        let e94 = delta_e94(a, b);
        assert!((e76 - e94).abs() < 0.25 * e76);
    }

    #[test]
    fn delta_e94_compresses_chroma_differences() {
        // For highly saturated colors, CIE94 down-weights chroma difference.
        let a = Lab::new(50.0, 80.0, 0.0);
        let b = Lab::new(50.0, 90.0, 0.0);
        assert!(delta_e94(a, b) < delta_e76(a, b));
    }

    #[test]
    fn delta_e2000_basics() {
        let a = Lab::new(50.0, 10.0, -10.0);
        let b = Lab::new(55.0, -5.0, 20.0);
        // Identity and symmetry.
        assert_eq!(delta_e2000(a, a), 0.0);
        assert!((delta_e2000(a, b) - delta_e2000(b, a)).abs() < 1e-9);
        // Small near-neutral differences agree with CIE76 within ~30%.
        let p = Lab::new(50.0, 1.0, 1.0);
        let q = Lab::new(51.0, 1.5, 0.5);
        let e76 = delta_e76(p, q);
        let e00 = delta_e2000(p, q);
        assert!((e00 - e76).abs() < 0.3 * e76, "e00 {e00} vs e76 {e76}");
    }

    #[test]
    fn delta_e2000_sharma_test_pair() {
        // Pair 1 of the Sharma–Wu–Dalal CIEDE2000 test data set.
        let a = Lab::new(50.0, 2.6772, -79.7751);
        let b = Lab::new(50.0, 0.0, -82.7485);
        let e = delta_e2000(a, b);
        assert!((e - 2.0425).abs() < 0.01, "got {e}");
    }

    #[test]
    fn delta_e2000_compresses_saturated_differences() {
        // Like CIE94, chroma differences between saturated colors count
        // for less than the same Euclidean step near neutral.
        let sat_a = Lab::new(50.0, 80.0, 0.0);
        let sat_b = Lab::new(50.0, 90.0, 0.0);
        let neu_a = Lab::new(50.0, 0.0, 0.0);
        let neu_b = Lab::new(50.0, 10.0, 0.0);
        assert!(delta_e2000(sat_a, sat_b) < delta_e2000(neu_a, neu_b));
    }

    #[test]
    fn f_and_inverse_are_mutual() {
        for i in 0..=100 {
            let t = i as f64 / 100.0;
            assert!((lab_f_inv(lab_f(t)) - t).abs() < 1e-12);
        }
    }
}
