//! RGB color spaces with arbitrary primaries, and the sRGB transfer function.
//!
//! Three different RGB spaces appear in the ColorBars pipeline:
//!
//! 1. The **tri-LED drive space** — linear intensities of the three physical
//!    LEDs (primaries of the LED gamut).
//! 2. Each **camera's raw space** — linear photodiode responses behind the
//!    device-specific color filter array (the source of receiver diversity,
//!    paper Section 6.1).
//! 3. **sRGB** — what the phone ISP writes into the captured frame and what
//!    the receiver app reads back before converting to CIELAB.
//!
//! [`RgbSpace`] captures any linear RGB space by its primaries + white point
//! and provides the RGB↔XYZ matrices; [`Srgb`] adds the standard non-linear
//! transfer (gamma) encoding.

use crate::chromaticity::{Chromaticity, GamutTriangle};
use crate::lab::{lab_lanes_d65, Lab, LANES};
use crate::matrix::{Mat3, Vec3};
use crate::xyz::Xyz;

/// A linear-light RGB triple in some [`RgbSpace`]. Component range is open
/// (exposure may exceed 1 before clipping).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinearRgb {
    /// Red component.
    pub r: f64,
    /// Green component.
    pub g: f64,
    /// Blue component.
    pub b: f64,
}

impl LinearRgb {
    /// Construct from components.
    pub const fn new(r: f64, g: f64, b: f64) -> Self {
        LinearRgb { r, g, b }
    }

    /// All-zero (black).
    pub const BLACK: LinearRgb = LinearRgb {
        r: 0.0,
        g: 0.0,
        b: 0.0,
    };

    /// Component-wise addition.
    pub fn add(self, o: LinearRgb) -> LinearRgb {
        LinearRgb::new(self.r + o.r, self.g + o.g, self.b + o.b)
    }

    /// Scale all components.
    pub fn scale(self, s: f64) -> LinearRgb {
        LinearRgb::new(self.r * s, self.g * s, self.b * s)
    }

    /// Clamp all components into `[0, hi]` — models sensor full-well /
    /// 8-bit clipping.
    pub fn clamp(self, hi: f64) -> LinearRgb {
        LinearRgb::new(
            self.r.clamp(0.0, hi),
            self.g.clamp(0.0, hi),
            self.b.clamp(0.0, hi),
        )
    }

    /// Minimum component.
    pub fn min_component(self) -> f64 {
        self.r.min(self.g).min(self.b)
    }

    /// Compress an out-of-gamut color (negative components) toward its own
    /// achromatic axis until every component is non-negative.
    ///
    /// This is the standard ISP gamut-mapping move: a camera whose scene
    /// contains colors more saturated than its output space (a saturated
    /// LED primary vs. sRGB) desaturates them along the line to neutral
    /// rather than hard-clipping channels — hard clipping would collapse
    /// *distinct* saturated chromaticities onto the same encoded pixel,
    /// which real ISPs (and the ColorBars receiver) cannot afford.
    /// In-gamut colors are returned unchanged; non-positive-energy inputs
    /// become black.
    pub fn compress_into_gamut(self) -> LinearRgb {
        let min = self.min_component();
        if min >= 0.0 {
            return self;
        }
        let mean = (self.r + self.g + self.b) / 3.0;
        if mean <= 0.0 {
            return LinearRgb::BLACK;
        }
        // Scale the chroma vector (rgb − mean) so the most negative channel
        // lands exactly at 0.
        let t = mean / (mean - min);
        LinearRgb::new(
            mean + t * (self.r - mean),
            mean + t * (self.g - mean),
            mean + t * (self.b - mean),
        )
    }

    /// View as a vector.
    pub fn to_vec3(self) -> Vec3 {
        Vec3::new(self.r, self.g, self.b)
    }

    /// Build from a vector.
    pub fn from_vec3(v: Vec3) -> LinearRgb {
        LinearRgb::new(v.0[0], v.0[1], v.0[2])
    }
}

/// A linear RGB color space defined by three primaries and a white point,
/// with precomputed RGB→XYZ and XYZ→RGB matrices.
///
/// The matrices are derived the standard way: the primary matrix's columns
/// are scaled so that RGB `(1, 1, 1)` maps exactly to the white point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RgbSpace {
    gamut: GamutTriangle,
    white: Xyz,
    to_xyz: Mat3,
    from_xyz: Mat3,
}

impl RgbSpace {
    /// Build a space from its gamut triangle and white point (given as an
    /// XYZ with the desired white luminance, normally `Y = 1`).
    ///
    /// Returns `None` if the primaries are degenerate or the white point is
    /// not expressible as a positive mix of the primaries.
    pub fn new(gamut: GamutTriangle, white: Xyz) -> Option<Self> {
        // Columns proportional to each primary's XYZ (unit "amount").
        let p = Mat3::from_columns(
            primary_xyz(gamut.red),
            primary_xyz(gamut.green),
            primary_xyz(gamut.blue),
        );
        let scales = p.solve(white.to_vec3())?;
        if scales.0.iter().any(|&s| s <= 0.0) {
            return None;
        }
        let to_xyz = p.scale_columns(scales);
        let from_xyz = to_xyz.inverse()?;
        Some(RgbSpace {
            gamut,
            white,
            to_xyz,
            from_xyz,
        })
    }

    /// The standard sRGB space with D65 white.
    pub fn srgb() -> Self {
        RgbSpace::new(GamutTriangle::srgb(), Xyz::D65_WHITE)
            .expect("sRGB primaries are well-formed")
    }

    /// A space spanned by a typical tri-LED with equal-energy white.
    pub fn typical_tri_led() -> Self {
        RgbSpace::new(GamutTriangle::typical_tri_led(), Xyz::E_WHITE)
            .expect("tri-LED primaries are well-formed")
    }

    /// The gamut triangle of this space.
    pub fn gamut(&self) -> GamutTriangle {
        self.gamut
    }

    /// The white point (XYZ of RGB `(1,1,1)`).
    pub fn white(&self) -> Xyz {
        self.white
    }

    /// Linear RGB → XYZ.
    pub fn to_xyz(&self, rgb: LinearRgb) -> Xyz {
        Xyz::from_vec3(self.to_xyz.mul_vec(rgb.to_vec3()))
    }

    /// XYZ → linear RGB (may produce out-of-gamut negative components).
    pub fn from_xyz(&self, xyz: Xyz) -> LinearRgb {
        LinearRgb::from_vec3(self.from_xyz.mul_vec(xyz.to_vec3()))
    }

    /// The RGB→XYZ matrix (columns are the scaled primaries).
    pub fn rgb_to_xyz_matrix(&self) -> Mat3 {
        self.to_xyz
    }

    /// The XYZ→RGB matrix.
    pub fn xyz_to_rgb_matrix(&self) -> Mat3 {
        self.from_xyz
    }
}

/// Unit-amount XYZ of a primary: chromaticity `(x, y)` with `X + Y + Z = 1`.
fn primary_xyz(c: Chromaticity) -> Vec3 {
    Vec3::new(c.x, c.y, 1.0 - c.x - c.y)
}

/// A gamma-encoded sRGB triple with components in `[0, 1]`.
///
/// This is the representation of a pixel as the receiver app reads it from a
/// captured camera frame (paper Section 7, before conversion to CIELAB).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Srgb {
    /// Gamma-encoded red in `[0, 1]`.
    pub r: f64,
    /// Gamma-encoded green in `[0, 1]`.
    pub g: f64,
    /// Gamma-encoded blue in `[0, 1]`.
    pub b: f64,
}

impl Srgb {
    /// Construct (components are clamped to `[0, 1]`).
    pub fn new(r: f64, g: f64, b: f64) -> Self {
        Srgb {
            r: r.clamp(0.0, 1.0),
            g: g.clamp(0.0, 1.0),
            b: b.clamp(0.0, 1.0),
        }
    }

    /// Encode linear sRGB-space values with the standard sRGB transfer
    /// function (the piecewise linear/power curve), clamping to `[0, 1]`.
    pub fn encode(linear: LinearRgb) -> Srgb {
        Srgb {
            r: encode_channel(linear.r),
            g: encode_channel(linear.g),
            b: encode_channel(linear.b),
        }
    }

    /// Decode back to linear light.
    pub fn decode(self) -> LinearRgb {
        LinearRgb::new(
            decode_channel(self.r),
            decode_channel(self.g),
            decode_channel(self.b),
        )
    }

    /// Quantize to 8 bits per channel (what a real frame buffer stores).
    pub fn to_bytes(self) -> [u8; 3] {
        let q = |v: f64| (v * 255.0).round().clamp(0.0, 255.0) as u8;
        [q(self.r), q(self.g), q(self.b)]
    }

    /// Reconstruct from 8-bit channels.
    pub fn from_bytes(b: [u8; 3]) -> Srgb {
        Srgb {
            r: b[0] as f64 / 255.0,
            g: b[1] as f64 / 255.0,
            b: b[2] as f64 / 255.0,
        }
    }
}

/// Exact 8-bit sRGB encoder — the camera hot path's replacement for
/// `Srgb::encode(px).to_bytes()`.
///
/// Encoding a pixel costs three `powf` calls in the transfer function; a
/// simulated frame encodes tens of thousands of pixels, so the capture
/// loop replaces the arithmetic with a *decision table*: since the sRGB
/// transfer curve is strictly monotone, the linear-light interval that
/// quantizes to byte `b` is bounded by the decoded values of the half-step
/// codes `(b ± 0.5)/255`. The 255 precomputed thresholds plus a fine
/// bucket table turn encoding into a bucket lookup, one threshold load and
/// one comparison, with no transcendentals and no branch on the value
/// (noisy pixels would mispredict one), and the result is *bit-identical*
/// to the `powf` path — validated exhaustively by the unit tests rather
/// than approximated like an interpolating LUT.
#[derive(Debug, Clone)]
pub struct SrgbQuantizer {
    /// `thresholds[b - 1]` is the smallest linear value that rounds to
    /// byte `b`; values below `thresholds[0]` encode to 0. The last entry
    /// is NaN, and `NaN <= v` is false for every `v`, so a lookup from byte
    /// 255 stays at 255.
    thresholds: [f64; 256],
    /// `coarse[k]` is the byte code at the low edge of bucket `k`, the
    /// linear range `[(k − ½)/4096, (k + ½)/4096]` — the starting point for
    /// the threshold check. Thresholds are at least ~3.03e-4 apart (the
    /// linear toe of the gamma curve), so one 1/4096-wide bucket contains
    /// at most *one* of them and [`SrgbQuantizer::encode_byte`] needs a
    /// single comparison instead of a scan or a `partition_point` binary
    /// search.
    coarse: [u8; COARSE_BUCKETS + 1],
}

/// Resolution of the bucket index over the linear range `[0, 1]` — fine
/// enough (bucket width 2.44e-4 < the minimum threshold gap 3.03e-4) that
/// no bucket contains two quantization thresholds.
const COARSE_BUCKETS: usize = 4096;

/// 1.5 · 2⁵²: adding it to a value in `[0, 2⁵¹)` rounds the value to the
/// nearest integer (ties to even), which then sits in the sum's low
/// mantissa bits.
const ROUND_TO_INT: f64 = 6_755_399_441_055_744.0;

impl SrgbQuantizer {
    /// Build the threshold table (255 `powf` calls, done once).
    pub fn new() -> SrgbQuantizer {
        let mut thresholds = [f64::NAN; 256];
        for (i, t) in thresholds[..255].iter_mut().enumerate() {
            let b = (i + 1) as f64;
            *t = decode_channel((b - 0.5) / 255.0);
        }
        let mut coarse = [0u8; COARSE_BUCKETS + 1];
        for (k, start) in coarse.iter_mut().enumerate() {
            let low_edge = (k as f64 - 0.5) / COARSE_BUCKETS as f64;
            *start = thresholds[..255].partition_point(|&t| t <= low_edge) as u8;
        }
        SrgbQuantizer { thresholds, coarse }
    }

    /// Gamma-encode and quantize one linear channel to its 8-bit code.
    /// Equivalent to `(encode_channel(v) * 255).round()` clamped to `u8`.
    #[inline]
    pub fn encode_byte(&self, linear: f64) -> u8 {
        // The byte value is the number of thresholds at or below `linear`.
        // Scaling by 4096 is exact short of overflow, and clamping it to
        // [0, 4096] (NaN → 0) keeps every input in a bucket: negative
        // values and NaN in bucket 0, whose comparison fails (→ 0, like the
        // clamp in `encode_channel`), and values above 1.0 in the last
        // bucket (→ 255). Rounding to the nearest bucket puts `linear`
        // inside its bucket's closed range, so the bucket's count is short
        // by at most the one threshold the range can hold, and one
        // comparison finishes the job. The bucket's `min` never binds; it
        // only proves the index in bounds.
        let scaled = (linear * COARSE_BUCKETS as f64)
            .max(0.0)
            .min(COARSE_BUCKETS as f64);
        let bucket = ((scaled + ROUND_TO_INT).to_bits() as u32 as usize).min(COARSE_BUCKETS);
        let byte = self.coarse[bucket];
        byte + u8::from(self.thresholds[usize::from(byte)] <= linear)
    }

    /// Encode a linear sRGB pixel straight to its stored bytes.
    #[inline]
    pub fn encode_pixel(&self, px: LinearRgb) -> [u8; 3] {
        [
            self.encode_byte(px.r),
            self.encode_byte(px.g),
            self.encode_byte(px.b),
        ]
    }
}

impl Default for SrgbQuantizer {
    fn default() -> Self {
        SrgbQuantizer::new()
    }
}

/// Exact byte→XYZ decode table — the *receiver* hot path's replacement for
/// `space.to_xyz(Srgb::from_bytes(px).decode())`.
///
/// Decoding a stored pixel costs three `powf(2.4)` calls plus a 3×3
/// matrix–vector product; the receiver converts every pixel of every frame.
/// But the stored channels are bytes, so both steps are functions of at most
/// 256 inputs per channel: `lut[b] = decode_channel(b / 255)` is trivially
/// exact, and the matrix product distributes over the channels. The three
/// tables hold each channel's *XYZ contribution* — column `c` of the RGB→XYZ
/// matrix scaled by `lut[b]` — and a pixel's XYZ is the sum of its three
/// contributions.
///
/// The sum is **bit-identical** to the arithmetic path because
/// [`Mat3::mul_vec`] evaluates each row as
/// `(m[i][0]·v0 + m[i][1]·v1) + m[i][2]·v2` (Rust's left-associative `+`),
/// and [`SrgbToXyzLut::xyz_of`] performs the identical operation sequence
/// with the products precomputed. Validated exhaustively per channel (and on
/// a dense grid of mixed pixels) by the unit tests.
#[derive(Debug, Clone)]
pub struct SrgbToXyzLut {
    /// `red[b]` is `[m[0][0]·lut[b], m[1][0]·lut[b], m[2][0]·lut[b]]`.
    red: [[f64; 3]; 256],
    /// Green-channel contributions (matrix column 1).
    green: [[f64; 3]; 256],
    /// Blue-channel contributions (matrix column 2).
    blue: [[f64; 3]; 256],
}

impl SrgbToXyzLut {
    /// Build the contribution tables for a space (768 `powf`-derived entries,
    /// done once).
    pub fn new(space: &RgbSpace) -> SrgbToXyzLut {
        let m = space.rgb_to_xyz_matrix().0;
        let mut red = [[0.0f64; 3]; 256];
        let mut green = [[0.0f64; 3]; 256];
        let mut blue = [[0.0f64; 3]; 256];
        for b in 0..256usize {
            let lin = decode_channel(b as f64 / 255.0);
            for i in 0..3 {
                red[b][i] = m[i][0] * lin;
                green[b][i] = m[i][1] * lin;
                blue[b][i] = m[i][2] * lin;
            }
        }
        SrgbToXyzLut { red, green, blue }
    }

    /// The shared table for the standard sRGB space, built once per process.
    pub fn srgb() -> &'static SrgbToXyzLut {
        static LUT: std::sync::OnceLock<SrgbToXyzLut> = std::sync::OnceLock::new();
        LUT.get_or_init(|| SrgbToXyzLut::new(&RgbSpace::srgb()))
    }

    /// Decode a stored 8-bit pixel straight to XYZ. Bit-identical to
    /// `space.to_xyz(Srgb::from_bytes(px).decode())`.
    #[inline]
    pub fn xyz_of(&self, px: [u8; 3]) -> Xyz {
        let r = &self.red[px[0] as usize];
        let g = &self.green[px[1] as usize];
        let b = &self.blue[px[2] as usize];
        Xyz::new(r[0] + g[0] + b[0], r[1] + g[1] + b[1], r[2] + g[2] + b[2])
    }

    /// Mean CIELAB (against [`Xyz::D65_WHITE`]) of a row of stored pixels:
    /// the receiver's per-scanline reduction, computed exactly.
    ///
    /// The result equals summing `Lab::from_xyz(self.xyz_of(px),
    /// Xyz::D65_WHITE)` over the row in pixel order, starting from zero, and
    /// dividing each sum by the row length. For [`SrgbToXyzLut::srgb`] the
    /// unit tests check every one of the 2²⁴ pixels bit for bit. The
    /// conversion runs eight pixels at a time through a branch-free lane
    /// kernel with its own cube root, so the cost per pixel does not depend
    /// on how many distinct colors a frame holds. An empty row gives NaN
    /// components.
    pub fn row_lab_mean(&self, row: &[[u8; 3]]) -> Lab {
        let mut sum = [0.0; 3];
        let mut chunks = row.chunks_exact(LANES);
        for chunk in &mut chunks {
            let px = chunk.try_into().expect("chunks_exact yields LANES pixels");
            add_lanes(&mut sum, &self.lab_lanes(px), LANES);
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut px = [[0u8; 3]; LANES];
            px[..tail.len()].copy_from_slice(tail);
            add_lanes(&mut sum, &self.lab_lanes(&px), tail.len());
        }
        let n = row.len() as f64;
        Lab::new(sum[0] / n, sum[1] / n, sum[2] / n)
    }

    /// `[l, a, b]` lanes of [`LANES`] pixels.
    #[inline]
    fn lab_lanes(&self, px: &[[u8; 3]; LANES]) -> [[f64; LANES]; 3] {
        let mut xyz = [[0.0; LANES]; 3];
        for (i, &p) in px.iter().enumerate() {
            let v = self.xyz_of(p);
            xyz[0][i] = v.x;
            xyz[1][i] = v.y;
            xyz[2][i] = v.z;
        }
        lab_lanes_d65(&xyz)
    }
}

/// Add the first `n` of each of the `[l, a, b]` lanes to `sum`, in lane
/// (pixel) order.
#[inline]
fn add_lanes(sum: &mut [f64; 3], lab: &[[f64; LANES]; 3], n: usize) {
    for i in 0..n {
        for (s, lanes) in sum.iter_mut().zip(lab) {
            *s += lanes[i];
        }
    }
}

fn encode_channel(v: f64) -> f64 {
    let v = v.clamp(0.0, 1.0);
    if v <= 0.003_130_8 {
        12.92 * v
    } else {
        1.055 * v.powf(1.0 / 2.4) - 0.055
    }
}

fn decode_channel(v: f64) -> f64 {
    let v = v.clamp(0.0, 1.0);
    if v <= 0.040_45 {
        v / 12.92
    } else {
        ((v + 0.055) / 1.055).powf(2.4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn srgb_white_maps_to_d65() {
        let s = RgbSpace::srgb();
        let w = s.to_xyz(LinearRgb::new(1.0, 1.0, 1.0));
        assert!(w.to_vec3().max_abs_diff(Xyz::D65_WHITE.to_vec3()) < 1e-9);
    }

    #[test]
    fn rgb_xyz_round_trip() {
        let s = RgbSpace::srgb();
        let rgb = LinearRgb::new(0.25, 0.5, 0.75);
        let back = s.from_xyz(s.to_xyz(rgb));
        assert!(back.to_vec3().max_abs_diff(rgb.to_vec3()) < 1e-10);
    }

    #[test]
    fn srgb_to_xyz_matrix_matches_published_values() {
        // Reference matrix from IEC 61966-2-1 (4 decimal places).
        let m = RgbSpace::srgb().rgb_to_xyz_matrix();
        let expect = [
            [0.4124, 0.3576, 0.1805],
            [0.2126, 0.7152, 0.0722],
            [0.0193, 0.1192, 0.9505],
        ];
        for (i, (mrow, erow)) in m.0.iter().zip(expect.iter()).enumerate() {
            for (j, (got, want)) in mrow.iter().zip(erow.iter()).enumerate() {
                assert!(
                    (got - want).abs() < 5e-4,
                    "entry ({i},{j}): got {got} expected {want}"
                );
            }
        }
    }

    #[test]
    fn pure_primary_has_primary_chromaticity() {
        let s = RgbSpace::typical_tri_led();
        let r = s.to_xyz(LinearRgb::new(1.0, 0.0, 0.0)).chromaticity();
        let expect = s.gamut().red;
        assert!((r.x - expect.x).abs() < 1e-9 && (r.y - expect.y).abs() < 1e-9);
    }

    #[test]
    fn transfer_function_round_trip() {
        for i in 0..=100 {
            let v = i as f64 / 100.0;
            let lin = LinearRgb::new(v, v * 0.5, 1.0 - v);
            let back = Srgb::encode(lin).decode();
            assert!(back.to_vec3().max_abs_diff(lin.to_vec3()) < 1e-9, "v={v}");
        }
    }

    #[test]
    fn transfer_function_is_monotone_and_bounded() {
        let mut prev = -1.0;
        for i in 0..=1000 {
            let v = encode_channel(i as f64 / 1000.0);
            assert!(v >= prev);
            assert!((0.0..=1.0).contains(&v));
            prev = v;
        }
    }

    #[test]
    fn byte_quantization_round_trip() {
        let s = Srgb::new(0.2, 0.6, 0.9);
        let b = s.to_bytes();
        let back = Srgb::from_bytes(b);
        assert!((back.r - s.r).abs() < 1.0 / 255.0);
        assert!((back.g - s.g).abs() < 1.0 / 255.0);
        assert!((back.b - s.b).abs() < 1.0 / 255.0);
    }

    #[test]
    fn encode_clamps_hdr_values() {
        let hot = LinearRgb::new(4.0, -1.0, 0.5);
        let s = Srgb::encode(hot);
        assert!((s.r - 1.0).abs() < 1e-12);
        assert_eq!(s.g, 0.0);
        assert!(s.b > 0.0 && s.b < 1.0);
    }

    /// The quantizer must agree with the arithmetic path everywhere: dense
    /// grid over [−0.1, 1.1] (including out-of-range values the capture
    /// loop can produce before clamping) plus probes tight around every
    /// decision threshold.
    #[test]
    fn quantizer_matches_powf_encode_exhaustively() {
        let q = SrgbQuantizer::new();
        let reference = |v: f64| Srgb::encode(LinearRgb::new(v, v, v)).to_bytes()[0];
        for i in 0..=1_200_000u32 {
            let v = i as f64 / 1_000_000.0 - 0.1;
            assert_eq!(
                q.encode_byte(v),
                reference(v),
                "linear {v} disagrees with the powf path"
            );
        }
        // Near-threshold probes: one part in 1e12 on both sides of every
        // decision boundary must still agree. The *exact* threshold value
        // is ambiguous at the last ulp (encode(decode(x)) round-trips to
        // within 1 ulp, and the boundary sits exactly on a rounding
        // half-step), so there we only require the codes to touch.
        for b in 1..=255u32 {
            let t = decode_channel((b as f64 - 0.5) / 255.0);
            for v in [t * (1.0 - 1e-12), t * (1.0 + 1e-12)] {
                assert_eq!(q.encode_byte(v), reference(v), "threshold {b} probe {v}");
            }
            let diff = q.encode_byte(t) as i16 - reference(t) as i16;
            assert!(diff.abs() <= 1, "threshold {b}: codes differ by {diff}");
        }
    }

    #[test]
    fn quantizer_handles_extremes() {
        let q = SrgbQuantizer::new();
        assert_eq!(q.encode_byte(-1.0), 0);
        assert_eq!(q.encode_byte(0.0), 0);
        assert_eq!(q.encode_byte(1.0), 255);
        assert_eq!(q.encode_byte(42.0), 255);
        assert_eq!(q.encode_byte(f64::NAN), 0);
        assert_eq!(
            q.encode_pixel(LinearRgb::new(0.5, -0.2, 2.0)),
            Srgb::encode(LinearRgb::new(0.5, -0.2, 2.0)).to_bytes()
        );
    }

    /// The quantizer's earlier two-step form: a floor bucket of width
    /// 1/4096, an early return when the bucket already reads 255, and one
    /// threshold comparison.
    struct TwoStepQuantizer {
        thresholds: [f64; 255],
        coarse: [u8; COARSE_BUCKETS + 1],
    }

    impl TwoStepQuantizer {
        fn new() -> TwoStepQuantizer {
            let mut thresholds = [0.0f64; 255];
            for (i, t) in thresholds.iter_mut().enumerate() {
                let b = (i + 1) as f64;
                *t = decode_channel((b - 0.5) / 255.0);
            }
            let mut coarse = [0u8; COARSE_BUCKETS + 1];
            for (k, start) in coarse.iter_mut().enumerate() {
                let bucket_floor = k as f64 / COARSE_BUCKETS as f64;
                *start = thresholds.partition_point(|&t| t <= bucket_floor) as u8;
            }
            TwoStepQuantizer { thresholds, coarse }
        }

        fn encode_byte(&self, linear: f64) -> u8 {
            let bucket = ((linear * COARSE_BUCKETS as f64) as usize).min(COARSE_BUCKETS);
            let byte = self.coarse[bucket] as usize;
            if byte >= 255 {
                return 255;
            }
            byte as u8 + u8::from(self.thresholds[byte] <= linear)
        }
    }

    /// The rounded-bucket quantizer agrees with the two-step form on every
    /// input that can sit on a decision: ±4 ulps around every edge of both
    /// bucketings and every threshold, a 10⁶-point grid over [−0.1, 1.1],
    /// and the special values.
    #[test]
    fn quantizer_matches_two_step_form() {
        let q = SrgbQuantizer::new();
        let two_step = TwoStepQuantizer::new();
        let check = |v: f64| {
            assert_eq!(
                q.encode_byte(v),
                two_step.encode_byte(v),
                "linear {v:e} ({:#018x})",
                v.to_bits()
            );
        };
        let around = |center: f64| {
            check(center);
            let (mut up, mut down) = (center, center);
            for _ in 0..4 {
                up = up.next_up();
                down = down.next_down();
                check(up);
                check(down);
            }
        };
        let buckets = COARSE_BUCKETS as f64;
        for k in 0..=COARSE_BUCKETS {
            around(k as f64 / buckets);
            around((k as f64 - 0.5) / buckets);
            around((k as f64 + 0.5) / buckets);
        }
        for &t in &two_step.thresholds {
            around(t);
        }
        for i in 0..=1_000_000u32 {
            check(-0.1 + 1.2 * (i as f64 / 1_000_000.0));
        }
        for v in [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            -f64::MIN_POSITIVE / 2.0,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
        ] {
            check(v);
        }
    }

    /// The byte→XYZ table must agree with the arithmetic decode path to the
    /// last bit: exhaustively per channel, and on a dense pseudo-random grid
    /// of mixed pixels (the per-channel tables could each be exact while the
    /// summation order diverged).
    #[test]
    fn byte_to_xyz_lut_is_bit_identical() {
        let space = RgbSpace::srgb();
        let lut = SrgbToXyzLut::srgb();
        let reference = |px: [u8; 3]| space.to_xyz(Srgb::from_bytes(px).decode());
        let assert_same = |px: [u8; 3]| {
            let got = lut.xyz_of(px);
            let want = reference(px);
            assert_eq!(got.x.to_bits(), want.x.to_bits(), "{px:?}");
            assert_eq!(got.y.to_bits(), want.y.to_bits(), "{px:?}");
            assert_eq!(got.z.to_bits(), want.z.to_bits(), "{px:?}");
        };
        for v in 0..=255u8 {
            assert_same([v, 0, 0]);
            assert_same([0, v, 0]);
            assert_same([0, 0, v]);
            assert_same([v, v, v]);
        }
        // Mixed pixels from a deterministic LCG sweep.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..100_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let bits = state >> 32;
            assert_same([bits as u8, (bits >> 8) as u8, (bits >> 16) as u8]);
        }
    }

    /// The row kernel's Lab must equal the scalar conversion on every one of
    /// the 2²⁴ stored pixels. This pins the kernel's cube root to libm's on
    /// every input the receiver can produce.
    #[test]
    fn lab_lanes_match_scalar_lab_on_every_pixel() {
        let lut = SrgbToXyzLut::srgb();
        let mut px = [[0u8; 3]; LANES];
        for first in (0..1u32 << 24).step_by(LANES) {
            for (i, p) in px.iter_mut().enumerate() {
                let [_, r, g, b] = (first + i as u32).to_be_bytes();
                *p = [r, g, b];
            }
            let [l, a, b] = lut.lab_lanes(&px);
            for (i, &p) in px.iter().enumerate() {
                let want = Lab::from_xyz(lut.xyz_of(p), Xyz::D65_WHITE);
                let got = Lab::new(l[i], a[i], b[i]);
                assert!(
                    [got.l, got.a, got.b].map(f64::to_bits)
                        == [want.l, want.a, want.b].map(f64::to_bits),
                    "first mismatching pixel {p:?}: kernel {got:?}, scalar {want:?}"
                );
            }
        }
    }

    #[test]
    fn byte_to_xyz_lut_works_for_non_srgb_spaces() {
        let space = RgbSpace::typical_tri_led();
        let lut = SrgbToXyzLut::new(&space);
        for v in [0u8, 1, 17, 128, 200, 254, 255] {
            let px = [v, v.wrapping_mul(3), v.wrapping_add(91)];
            let want = space.to_xyz(Srgb::from_bytes(px).decode());
            let got = lut.xyz_of(px);
            assert_eq!(got.x.to_bits(), want.x.to_bits());
            assert_eq!(got.y.to_bits(), want.y.to_bits());
            assert_eq!(got.z.to_bits(), want.z.to_bits());
        }
    }

    #[test]
    fn gamut_compression_preserves_in_gamut_colors() {
        let c = LinearRgb::new(0.2, 0.5, 0.8);
        assert_eq!(c.compress_into_gamut(), c);
        assert_eq!(LinearRgb::BLACK.compress_into_gamut(), LinearRgb::BLACK);
    }

    #[test]
    fn gamut_compression_zeroes_most_negative_channel() {
        let c = LinearRgb::new(0.9, -0.2, 0.1);
        let g = c.compress_into_gamut();
        assert!((g.min_component()).abs() < 1e-12, "{g:?}");
        assert!(g.r > g.b, "hue ordering preserved");
        // Mean (achromatic level) is preserved by the chroma scaling.
        let mean_in = (0.9 - 0.2 + 0.1) / 3.0;
        let mean_out = (g.r + g.g + g.b) / 3.0;
        assert!((mean_in - mean_out).abs() < 1e-12);
    }

    #[test]
    fn gamut_compression_keeps_distinct_colors_distinct() {
        let a = LinearRgb::new(1.0, -0.15, 0.05).compress_into_gamut();
        let b = LinearRgb::new(0.9, -0.10, 0.25).compress_into_gamut();
        assert!(a.to_vec3().max_abs_diff(b.to_vec3()) > 0.01);
    }

    #[test]
    fn negative_energy_becomes_black() {
        let c = LinearRgb::new(-0.5, -0.1, -0.2);
        assert_eq!(c.compress_into_gamut(), LinearRgb::BLACK);
    }

    #[test]
    fn out_of_gamut_white_rejected() {
        // A white point outside the primaries' triangle cannot be formed by
        // positive mixing.
        let tri = GamutTriangle::typical_tri_led();
        let bad_white = Chromaticity::new(0.72, 0.27).with_luminance(1.0);
        assert!(RgbSpace::new(tri, bad_white).is_none());
    }
}
