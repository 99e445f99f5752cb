//! CIELAB color space and the CIE76 ΔE color difference.
//!
//! The ColorBars receiver demodulates in CIELAB (paper Section 7): frames are
//! converted from RGB, the lightness channel `L` is discarded to remove
//! non-uniform brightness (vignetting), and each received symbol is matched
//! to the nearest calibration reference by Euclidean distance in the
//! `(a, b)` plane — the paper's CIE76 ΔE with `L` dropped. The receiver
//! applies no ΔE threshold to that match.

use crate::xyz::Xyz;

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
    fn f_and_inverse_are_mutual() {
        for i in 0..=100 {
            let t = i as f64 / 100.0;
            assert!((lab_f_inv(lab_f(t)) - t).abs() < 1e-12);
        }
    }
}
