//! The photosite model: exposure integration, noise, gain and clipping.
//!
//! A CMOS photosite converts incident photons to electrons during its
//! exposure window, up to a full-well capacity; readout adds electronic
//! noise, and the ISO setting is an analog gain applied before
//! quantization. The two phenomena the paper leans on are both here:
//!
//! * **Exposure time and ISO change the recorded color** (Fig 6(b)/(c)):
//!   channels saturate at different signal levels, so overexposure
//!   desaturates and hue-shifts symbols — modeled by the full-well clip.
//! * **Different sensors have different noise floors**: part of why the two
//!   phones disagree on symbol error rate.
//!
//! ## Box–Muller in lanes
//!
//! Every photosite of every frame takes one standard normal, so the normal
//! transform is a large share of capture time. [`fill_normals`] draws a
//! row's uniforms in the same order as a scalar loop over one pair at a
//! time and transforms eight pairs per step in `[f64; 8]` lanes, through two
//! branch-free kernels written here: fdlibm's `log`, and fdlibm's
//! `__sin`/`__cos` after its three-round Cody–Waite reduction by π/2. The
//! tests hold each kernel within one ulp of libm's `ln`, `sin` and `cos`
//! over 10⁶ uniform draws and the edges of each input range. The kernels
//! use only IEEE arithmetic, so the normals are the same on every host.
//! The tests' `gaussian_pair` applies the same kernels one pair at a time,
//! and [`gaussian_pair_reference`] keeps the libm transform for tests and
//! `perf_probe`.
//!
//! ## Rows in lanes
//!
//! The capture gives every row its own RNG stream, and a row's stream
//! drains serially: each draw depends on the one before. [`fill_row_normals`]
//! fills a whole raw plane by running eight rows' streams side by side
//! instead. Lane `j` of a step is row `j` of a group of eight, and holds
//! that row's xoshiro256++ state, so one step advances eight independent
//! generators with the same vector instructions, and the uniforms it yields
//! go straight into the Box–Muller lanes. Each lane draws exactly the
//! sequence [`fill_normals`] would draw from that row's `StdRng`, so the
//! plane is bit-identical to filling it row by row. The lanes stay in step
//! only while no lane has to redraw a `u1` of 0, which happens once in 2⁵³
//! draws; a group that meets one, and the last `rows % 8` rows, are filled
//! row by row through [`fill_normals`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::TAU;

/// Physical and electrical parameters of one sensor design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorModel {
    /// Full-well capacity in electrons.
    pub full_well_e: f64,
    /// Read noise standard deviation in electrons (per photosite, per read).
    pub read_noise_e: f64,
    /// Photons→electrons conversion scale: electrons accumulated per second
    /// of exposure per unit of scene luminance (after the lens).
    pub sensitivity: f64,
    /// Base ISO (gain 1.0).
    pub base_iso: f64,
}

impl SensorModel {
    /// Linear gain implied by an ISO setting.
    pub fn gain(&self, iso: f64) -> f64 {
        iso / self.base_iso
    }

    /// Expose one photosite: `luminance` is the mean scene signal reaching
    /// the site over `exposure_s` seconds and `normal` a standard-normal
    /// sample; returns the normalized raw value in `[0, 1]` after shot
    /// noise, read noise, ISO gain and clipping. Shot noise
    /// (`σ² = electrons`) and read noise (`σ = read_noise_e`) are
    /// independent Gaussians, so their sum is one Gaussian with
    /// `σ = sqrt(electrons + read_noise_e²)` — a single draw per photosite
    /// instead of two. The capture loop draws a row's normals ahead with
    /// [`fill_row_normals`] and hands them in here.
    pub fn expose_with_noise(&self, luminance: f64, exposure_s: f64, iso: f64, normal: f64) -> f64 {
        let electrons =
            (luminance.max(0.0) * exposure_s * self.sensitivity).min(self.full_well_e * 4.0); // photodiode itself saturates
        let noise_sigma = (electrons + self.read_noise_e * self.read_noise_e).sqrt();
        let noisy = electrons + normal * noise_sigma;
        let raw = noisy / self.full_well_e * self.gain(iso);
        raw.clamp(0.0, 1.0)
    }

    /// Noise-free version of [`SensorModel::expose_with_noise`]: the
    /// expected raw value. Auto-exposure settling meters each preview
    /// frame through it instead of rendering the frame with noise.
    pub fn expose_expected(&self, luminance: f64, exposure_s: f64, iso: f64) -> f64 {
        let electrons =
            (luminance.max(0.0) * exposure_s * self.sensitivity).min(self.full_well_e * 4.0);
        (electrons / self.full_well_e * self.gain(iso)).clamp(0.0, 1.0)
    }
}

/// One Box–Muller transform: two independent standard normals from one
/// pair of uniforms, through this module's `ln` and `sin_cos` kernels.
/// [`fill_normals`] applies the same kernels eight pairs at a time and
/// matches repeated calls of this bit for bit.
#[cfg(test)]
pub(crate) fn gaussian_pair<R: Rng>(rng: &mut R) -> (f64, f64) {
    let (u1, u2) = uniform_pair(rng);
    box_muller(u1, u2)
}

/// One Box–Muller transform through libm's `f64::ln` and `f64::sin_cos`:
/// the uniforms [`fill_normals`] draws for one pair, and normals that
/// differ from its kernels' by a few ulps at most. The capture never calls
/// it; tests and `perf_probe` compare against it.
pub fn gaussian_pair_reference<R: Rng>(rng: &mut R) -> (f64, f64) {
    let (u1, u2) = uniform_pair(rng);
    let radius = (-2.0 * u1.ln()).sqrt();
    let (sin, cos) = (TAU * u2).sin_cos();
    (radius * cos, radius * sin)
}

/// Fill `out` with standard normals, consuming `rng` exactly like a scalar
/// loop that transforms one pair at a time and keeps the spare for the next
/// sample: pairs land in order, and an odd-length tail takes the cosine
/// branch of a final pair whose sine branch is discarded — precisely what
/// the spare-keeping photosite loop did at end of row. This is the
/// definition of one row's noise: [`fill_row_normals`] reproduces it for
/// every row of a plane, and falls back to it for the rows its lanes do not
/// cover. Filling a row in even-width chunks instead would draw the same
/// sequence (only the last chunk of a row can be odd).
///
/// Each step draws up to eight pairs of uniforms in sequence, then
/// transforms all eight lanes at once; a short last step pads its unused
/// lanes and stores only the real ones.
pub fn fill_normals<R: Rng>(rng: &mut R, out: &mut [f64]) {
    for step in out.chunks_mut(2 * LANES) {
        let (mut u1, mut u2) = ([1.0; LANES], [0.0; LANES]);
        for lane in 0..step.len().div_ceil(2) {
            (u1[lane], u2[lane]) = uniform_pair(rng);
        }
        let (mut cos, mut sin) = ([0.0; LANES], [0.0; LANES]);
        for lane in 0..LANES {
            (cos[lane], sin[lane]) = box_muller(u1[lane], u2[lane]);
        }
        for (i, normal) in step.iter_mut().enumerate() {
            *normal = if i % 2 == 0 { cos[i / 2] } else { sin[i / 2] };
        }
    }
}

/// Fill a raw plane of `width`-column rows with standard normals: row `r`
/// gets exactly what [`fill_normals`] writes when it draws from
/// `StdRng::seed_from_u64(row_seed(r))`. Groups of eight rows draw in
/// lanes (see the module docs); the last `rows % 8` rows, and any group in
/// which a lane draws `u1 = 0`, are filled row by row.
pub fn fill_row_normals(raw: &mut [f64], width: usize, row_seed: impl Fn(usize) -> u64) {
    fill_rows_with(
        raw,
        width,
        |first| RowStreams::seed_from_u64(std::array::from_fn(|j| row_seed(first + j))),
        |row| StdRng::seed_from_u64(row_seed(row)),
    );
}

/// [`fill_row_normals`] over any stream source: `lanes(first)` yields the
/// eight streams of rows `first..first + 8`, and `row_rng(r)` row `r`'s
/// stream alone, for the rows the lanes do not fill. The two must draw the
/// same sequences.
fn fill_rows_with<S: LaneStreams, R: Rng>(
    raw: &mut [f64],
    width: usize,
    lanes: impl Fn(usize) -> S,
    row_rng: impl Fn(usize) -> R,
) {
    if width == 0 {
        return;
    }
    let laned_rows = raw.len() / (LANES * width) * LANES;
    let mut groups = raw.chunks_exact_mut(LANES * width);
    for (g, group) in (&mut groups).enumerate() {
        let first = g * LANES;
        if !fill_lane_group(&mut lanes(first), group, width) {
            for (j, row) in group.chunks_mut(width).enumerate() {
                fill_normals(&mut row_rng(first + j), row);
            }
        }
    }
    for (j, row) in groups.into_remainder().chunks_mut(width).enumerate() {
        fill_normals(&mut row_rng(laned_rows + j), row);
    }
}

/// Fill eight `width`-column rows, row `j` from lane `j`: each step draws
/// one pair of uniforms per lane and stores the pair's two normals in its
/// row, the sine dropped past an odd row's end. Returns `false`, leaving
/// the group part-written, when a lane draws `u1 = 0`: [`uniform_pair`]
/// would redraw it from that lane alone, and the lanes would fall out of
/// step.
fn fill_lane_group<S: LaneStreams>(streams: &mut S, group: &mut [f64], width: usize) -> bool {
    for col in (0..width).step_by(2) {
        let u1 = streams.next_uniforms();
        if u1.iter().any(|&u| u <= f64::MIN_POSITIVE) {
            return false;
        }
        let u2 = streams.next_uniforms();
        let (mut cos, mut sin) = ([0.0; LANES], [0.0; LANES]);
        for lane in 0..LANES {
            (cos[lane], sin[lane]) = box_muller(u1[lane], u2[lane]);
        }
        for (lane, row) in group.chunks_exact_mut(width).enumerate() {
            row[col] = cos[lane];
            if let Some(normal) = row.get_mut(col + 1) {
                *normal = sin[lane];
            }
        }
    }
    true
}

/// Eight streams of uniforms in `[0, 1)` that advance together.
trait LaneStreams {
    /// The next uniform of every stream.
    fn next_uniforms(&mut self) -> [f64; LANES];
}

/// Eight xoshiro256++ generators in lanes: lane `j` holds word `i` of its
/// state in `s[i][j]`, so each line of the step below runs on all eight
/// lanes at once. Seeded by [`RowStreams::seed_from_u64`], lane `j` draws
/// the sequence `StdRng::seed_from_u64(seeds[j])` draws, with its uniforms
/// converted as `Rng::gen::<f64>` converts them; a test pins both.
struct RowStreams {
    s: [[u64; LANES]; 4],
}

impl RowStreams {
    /// Seed each lane as `StdRng::seed_from_u64` seeds a generator: its
    /// four state words are successive SplitMix64 outputs from the seed.
    fn seed_from_u64(seeds: [u64; LANES]) -> RowStreams {
        let mut state = seeds;
        let mut splitmix64 = || -> [u64; LANES] {
            std::array::from_fn(|j| {
                state[j] = state[j].wrapping_add(0x9E37_79B9_7F4A_7C15);
                let z = state[j];
                let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            })
        };
        RowStreams {
            s: [splitmix64(), splitmix64(), splitmix64(), splitmix64()],
        }
    }
}

impl LaneStreams for RowStreams {
    #[inline(always)]
    fn next_uniforms(&mut self) -> [f64; LANES] {
        let [s0, s1, s2, s3] = &mut self.s;
        let mut out = [0.0; LANES];
        for j in 0..LANES {
            let word = s0[j]
                .wrapping_add(s3[j])
                .rotate_left(23)
                .wrapping_add(s0[j]);
            let t = s1[j] << 17;
            s2[j] ^= s0[j];
            s3[j] ^= s1[j];
            s1[j] ^= s2[j];
            s0[j] ^= s3[j];
            s2[j] ^= t;
            s3[j] = s3[j].rotate_left(45);
            // The top 53 bits, scaled into [0, 1).
            out[j] = (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        }
        out
    }
}

/// Box–Muller pairs per [`fill_normals`] step, and rows per
/// [`fill_row_normals`] lane step.
const LANES: usize = 8;

/// One pair of uniforms, in the order every transform here draws them:
/// `u1`, drawn again while it is not positive (only 0 among the values a
/// draw yields, and `ln 0 = −∞`), then `u2`.
#[inline]
fn uniform_pair<R: Rng>(rng: &mut R) -> (f64, f64) {
    loop {
        let u1: f64 = rng.gen();
        if u1 > f64::MIN_POSITIVE {
            return (u1, rng.gen());
        }
    }
}

/// `(r·cos θ, r·sin θ)` with `r = sqrt(−2 ln u1)` and `θ = 2π·u2`. It and
/// the kernels are inlined into the lane loops of [`fill_normals`] and
/// [`fill_lane_group`], which then vectorize.
#[inline(always)]
fn box_muller(u1: f64, u2: f64) -> (f64, f64) {
    let radius = (-2.0 * ln(u1)).sqrt();
    let (sin, cos) = sin_cos(TAU * u2);
    (radius * cos, radius * sin)
}

/// `ln x` for a positive normal `x`: fdlibm's `log`, in the branch-free
/// form FreeBSD and musl use for normal inputs, with error below one ulp.
/// It writes `x = 2^k·(1 + f)` with `1 + f` in `[√½, √2)`, takes
/// `s = f/(2 + f)`, so that `ln(1 + f) = f − f²/2 + s·(f²/2 + R(s²))` with
/// a minimax polynomial `R`, and adds `k·ln 2` in two parts whose high
/// part has 32 significant bits, so `k·LN2_HI` is exact. Zero, subnormal,
/// negative and non-finite inputs return an unspecified value.
#[inline(always)]
fn ln(x: f64) -> f64 {
    const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
    const LG1: f64 = f64::from_bits(0x3fe5_5555_5555_5593);
    const LG2: f64 = f64::from_bits(0x3fd9_9999_9997_fa04);
    const LG3: f64 = f64::from_bits(0x3fd2_4924_9422_9359);
    const LG4: f64 = f64::from_bits(0x3fcc_71c5_1d8e_78af);
    const LG5: f64 = f64::from_bits(0x3fc7_4664_96cb_03de);
    const LG6: f64 = f64::from_bits(0x3fc3_9a09_d078_c69f);
    const LG7: f64 = f64::from_bits(0x3fc2_f112_df3e_5244);
    // High word of √½ (0x3fe6a09e…). Adding 1.0's high word minus this
    // carries into the exponent field exactly when the significand is at
    // least √2's, so the field then holds k + 1023, and adding it back to
    // the low 20 bits rebuilds 1 + f in [√½, √2).
    const SQRT_HALF_HI: u64 = 0x3fe6_a09e;
    let bits = x.to_bits();
    let hx = (bits >> 32) + (0x3ff0_0000 - SQRT_HALF_HI);
    let k = f64::from((hx >> 20) as i32 - 0x3ff);
    let m = f64::from_bits((((hx & 0x000f_ffff) + SQRT_HALF_HI) << 32) | (bits & 0xffff_ffff));
    let f = m - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    s * (hfsq + (t2 + t1)) + k * LN2_LO - hfsq + f + k * LN2_HI
}

/// `(sin x, cos x)` for `0 ≤ x < 2π`: fdlibm's `__rem_pio2` reduces `x` to
/// `y0 + y1 = x − n·π/2` with `|y0 + y1| ≤ π/4`, and fdlibm's `__sin` and
/// `__cos` kernels (FreeBSD's branch-free forms) evaluate the reduced
/// argument. Each result has error below one ulp.
///
/// fdlibm runs its second and third Cody–Waite rounds only when
/// cancellation leaves `y0` with fewer significant bits than `x`, which
/// happens near multiples of π/2. Running all three unconditionally gives
/// the 151-bit-accurate reduction everywhere without a branch. One round
/// alone misses results near 10⁻¹⁶: at `x = 2π·(¼ − 2⁻⁵⁵)`, just below
/// π/2, its cosine is off by about 7·10⁵ ulps.
#[inline(always)]
fn sin_cos(x: f64) -> (f64, f64) {
    const INV_PIO2: f64 = f64::from_bits(0x3fe4_5f30_6dc9_c883);
    // π/2 = PIO2_1 + PIO2_2 + PIO2_3 + PIO2_3T to 204 bits. The first three
    // have 33 significant bits, so `n·PIO2_i` is exact for the small `n`
    // here, and PIO2_2T is PIO2_3 + PIO2_3T rounded to 53 bits.
    const PIO2_1: f64 = f64::from_bits(0x3ff9_21fb_5440_0000);
    const PIO2_2: f64 = f64::from_bits(0x3dd0_b461_1a60_0000);
    const PIO2_2T: f64 = f64::from_bits(0x3ba3_198a_2e03_7073);
    const PIO2_3: f64 = f64::from_bits(0x3ba3_198a_2e00_0000);
    const PIO2_3T: f64 = f64::from_bits(0x397b_839a_2520_49c1);
    // Adding 1.5·2⁵² rounds x·2/π to the nearest integer n, which then
    // fills the low bits of the sum's significand.
    const TO_INT: f64 = 1.5 / f64::EPSILON;
    let shifted = x * INV_PIO2 + TO_INT;
    let quadrant = shifted.to_bits() & 3;
    let n = shifted - TO_INT;
    // Round 1 is exact. Each later round subtracts the next part of π/2
    // from the head, and the tail it returns supersedes the previous one.
    let head = x - n * PIO2_1;
    let (head, _) = cody_waite(head, n, PIO2_2, PIO2_2T);
    let (head, tail) = cody_waite(head, n, PIO2_3, PIO2_3T);
    let y0 = head - tail;
    let y1 = (head - y0) - tail;
    let (s, c) = (sin_kernel(y0, y1), cos_kernel(y0, y1));
    // sin x = [s, c, −s, −c][n mod 4] and cos x = [c, −s, −c, s][n mod 4].
    let (sin, cos) = if quadrant & 1 == 0 { (s, c) } else { (c, -s) };
    let sign = (quadrant & 2) << 62;
    (
        f64::from_bits(sin.to_bits() ^ sign),
        f64::from_bits(cos.to_bits() ^ sign),
    )
}

/// One Cody–Waite round of fdlibm's `__rem_pio2`: the new head
/// `head − n·part`, and the tail `n·part_tail` less that subtraction's
/// rounding error.
#[inline(always)]
fn cody_waite(head: f64, n: f64, part: f64, part_tail: f64) -> (f64, f64) {
    let w = n * part;
    let r = head - w;
    (r, n * part_tail - ((head - r) - w))
}

/// fdlibm's `__sin(x, y, 1)`: `sin(x + y)` for `|x + y| ≤ π/4`, where `y`
/// is the tail of the reduced argument.
#[inline(always)]
fn sin_kernel(x: f64, y: f64) -> f64 {
    const S1: f64 = f64::from_bits(0xbfc5_5555_5555_5549);
    const S2: f64 = f64::from_bits(0x3f81_1111_1110_f8a6);
    const S3: f64 = f64::from_bits(0xbf2a_01a0_19c1_61d5);
    const S4: f64 = f64::from_bits(0x3ec7_1de3_57b1_fe7d);
    const S5: f64 = f64::from_bits(0xbe5a_e5e6_8a2b_9ceb);
    const S6: f64 = f64::from_bits(0x3de5_d93a_5acf_d57c);
    let z = x * x;
    let w = z * z;
    let r = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    let v = z * x;
    x - ((z * (0.5 * y - v * r) - y) - v * S1)
}

/// fdlibm's `__cos(x, y)`: `cos(x + y)` for `|x + y| ≤ π/4`, where `y` is
/// the tail of the reduced argument.
#[inline(always)]
fn cos_kernel(x: f64, y: f64) -> f64 {
    const C1: f64 = f64::from_bits(0x3fa5_5555_5555_554c);
    const C2: f64 = f64::from_bits(0xbf56_c16c_16c1_5177);
    const C3: f64 = f64::from_bits(0x3efa_01a0_19cb_1590);
    const C4: f64 = f64::from_bits(0xbe92_7e4f_809c_52ad);
    const C5: f64 = f64::from_bits(0x3e21_ee9e_bdb4_b1c4);
    const C6: f64 = f64::from_bits(0xbda8_fae9_be88_38d4);
    let z = x * x;
    let w = z * z;
    let r = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let w = 1.0 - hz;
    w + (((1.0 - w) - hz) + (z * r - x * y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn model() -> SensorModel {
        SensorModel {
            full_well_e: 5000.0,
            read_noise_e: 8.0,
            sensitivity: 1.0e8, // electrons per (luminance·second)
            base_iso: 100.0,
        }
    }

    #[test]
    fn expected_value_scales_linearly_below_clip() {
        let m = model();
        let a = m.expose_expected(0.5, 40e-6, 100.0);
        let b = m.expose_expected(0.25, 40e-6, 100.0);
        assert!((a - 2.0 * b).abs() < 1e-12);
        let c = m.expose_expected(0.5, 20e-6, 100.0);
        assert!((a - 2.0 * c).abs() < 1e-12);
        let d = m.expose_expected(0.5, 40e-6, 200.0);
        assert!((d - 2.0 * a).abs() < 1e-12);
    }

    #[test]
    fn clipping_at_one() {
        let m = model();
        assert_eq!(m.expose_expected(10.0, 1e-3, 800.0), 1.0);
    }

    #[test]
    fn zero_light_is_zero_expected() {
        let m = model();
        assert_eq!(m.expose_expected(0.0, 40e-6, 100.0), 0.0);
        assert_eq!(m.expose_expected(-1.0, 40e-6, 100.0), 0.0);
    }

    #[test]
    fn noisy_exposures_average_to_expected() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(7);
        let expected = m.expose_expected(0.4, 40e-6, 100.0);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| m.expose_with_noise(0.4, 40e-6, 100.0, gaussian_pair(&mut rng).0))
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean - expected).abs() < 0.01 * expected.max(0.05),
            "mean {mean} vs expected {expected}"
        );
    }

    #[test]
    fn higher_iso_amplifies_noise() {
        let m = model();
        let spread = |iso: f64, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            // Keep expected value equal by trading exposure for ISO.
            let exp_s = 40e-6 * 100.0 / iso;
            let vals: Vec<f64> = (0..5000)
                .map(|_| m.expose_with_noise(0.4, exp_s, iso, gaussian_pair(&mut rng).0))
                .collect();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64
        };
        assert!(spread(800.0, 1) > 2.0 * spread(100.0, 2));
    }

    #[test]
    fn zero_noise_exposure_matches_expected() {
        let m = model();
        for (lum, exp_s, iso) in [
            (0.4, 40e-6, 100.0),
            (0.05, 20e-6, 800.0),
            (2.0, 60e-6, 200.0),
        ] {
            let expected = m.expose_expected(lum, exp_s, iso);
            let got = m.expose_with_noise(lum, exp_s, iso, 0.0);
            assert!(
                (got - expected).abs() < 1e-15,
                "noise-free path diverged: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn gaussian_pair_components_are_standard_normals() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 50_000;
        let (mut cos_side, mut sin_side) = (Vec::new(), Vec::new());
        for _ in 0..n {
            let (a, b) = gaussian_pair(&mut rng);
            cos_side.push(a);
            sin_side.push(b);
        }
        for samples in [cos_side, sin_side] {
            let mean = samples.iter().sum::<f64>() / n as f64;
            let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
            assert!(mean.abs() < 0.02, "mean {mean}");
            assert!((var - 1.0).abs() < 0.04, "var {var}");
        }
    }

    /// Distance in ulps between two finite doubles of any sign.
    fn ulps(a: f64, b: f64) -> u64 {
        let ordered = |x: f64| {
            let bits = x.to_bits() as i64;
            if bits < 0 {
                i64::MIN - bits
            } else {
                bits
            }
        };
        ordered(a).abs_diff(ordered(b))
    }

    fn assert_ln_within_one_ulp(u1: f64) {
        let (got, libm) = (ln(u1), u1.ln());
        assert!(ulps(got, libm) <= 1, "ln({u1:e}) = {got:e}, libm {libm:e}");
    }

    fn assert_sin_cos_within_one_ulp(u2: f64) {
        let x = TAU * u2;
        let ((sin, cos), (libm_sin, libm_cos)) = (sin_cos(x), x.sin_cos());
        assert!(
            ulps(sin, libm_sin) <= 1 && ulps(cos, libm_cos) <= 1,
            "sin_cos(2π·{u2:e}) = ({sin:e}, {cos:e}), libm ({libm_sin:e}, {libm_cos:e})"
        );
    }

    #[test]
    fn kernels_stay_within_one_ulp_of_libm() {
        // The ends of u1's range, and both sides of the reduction's switch
        // points: the binade edge at ½ and the √½ boundary of 1 + f.
        let mut u1s = vec![2f64.powi(-53), 2f64.powi(-52), 1.0 - f64::EPSILON / 2.0];
        for edge in [0.5, std::f64::consts::FRAC_1_SQRT_2] {
            u1s.extend([edge.next_down(), edge, edge.next_up()]);
        }
        for u1 in u1s {
            assert_ln_within_one_ulp(u1);
        }
        // Every multiple of π/4 and its neighbours, where sin or cos is
        // near 0 or the quadrant changes; the up-neighbour of 0 and the
        // down-neighbour of 1 (1 − 2⁻⁵³) close the range.
        for k in 0..=8 {
            let edge = f64::from(k) / 8.0;
            for u2 in [edge.next_down(), edge, edge.next_up()] {
                if (0.0..1.0).contains(&u2) {
                    assert_sin_cos_within_one_ulp(u2);
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(19);
        for _ in 0..1_000_000 {
            let (u1, u2) = uniform_pair(&mut rng);
            assert_ln_within_one_ulp(u1);
            assert_sin_cos_within_one_ulp(u2);
        }
    }

    /// A generator that replays a fixed script of words.
    struct Scripted {
        words: Vec<u64>,
        pos: usize,
    }

    impl RngCore for Scripted {
        fn next_u64(&mut self) -> u64 {
            self.pos += 1;
            self.words[self.pos - 1]
        }
    }

    #[test]
    fn zero_u1_is_redrawn_by_both_transforms() {
        // Words below 2¹¹ draw u1 = 0. Three normals take two pairs: the
        // first skips word 0, the second skips words 3 and 4.
        let words = vec![
            0,
            0x9e37_79b9_7f4a_7c15,
            0x6a09_e667_f3bc_c908,
            0x7ff,
            0,
            0xbb67_ae85_84ca_a73b,
            0x3c6e_f372_fe94_f82b,
            0xa54f_f53a_5f1d_36f1,
        ];
        let mut lanes = Scripted {
            words: words.clone(),
            pos: 0,
        };
        let mut out = [0.0; 3];
        fill_normals(&mut lanes, &mut out);
        let mut libm = Scripted { words, pos: 0 };
        let (a, b) = gaussian_pair_reference(&mut libm);
        let (c, _) = gaussian_pair_reference(&mut libm);
        assert_eq!(lanes.pos, 7);
        assert_eq!(libm.pos, 7);
        for (got, want) in out.iter().zip([a, b, c]) {
            assert!(
                (got - want).abs() <= 1e-15 * want.abs().max(1.0),
                "{got} vs {want}"
            );
        }
        // The zeros were skipped, not transformed: the same pairs without
        // them give the same normals.
        let mut plain = Scripted {
            words: [1, 2, 5, 6].map(|i| lanes.words[i]).to_vec(),
            pos: 0,
        };
        let (p, q) = gaussian_pair(&mut plain);
        let (r, _) = gaussian_pair(&mut plain);
        assert_eq!(out.map(f64::to_bits), [p, q, r].map(f64::to_bits));
    }

    #[test]
    fn row_streams_draw_what_std_rng_draws() {
        // Each lane is its seed's `StdRng`, step for step, and converts
        // words to uniforms as `gen::<f64>` does.
        let seeds = [0, 1, 7, 0x5EED, u64::MAX, 1 << 63, 0xC01_0B52, 42];
        let mut lanes = RowStreams::seed_from_u64(seeds);
        let mut rows = seeds.map(StdRng::seed_from_u64);
        for step in 0..10_000 {
            let want = rows.each_mut().map(|rng| rng.gen::<f64>());
            assert_eq!(lanes.next_uniforms(), want, "step {step}");
        }
    }

    /// Eight generators stepped together: the plain lane source, over any
    /// generator.
    impl<R: RngCore> LaneStreams for [R; LANES] {
        fn next_uniforms(&mut self) -> [f64; LANES] {
            self.each_mut().map(|rng| rng.gen())
        }
    }

    #[test]
    fn a_zero_u1_sends_its_group_row_by_row() {
        // Nine rows of five normals: one lane group and one leftover row.
        // Row 3's second pair starts with a word that draws u1 = 0, so its
        // stream runs one word ahead of the others from there on.
        let (rows, width) = (9usize, 5usize);
        let words = |row: usize| -> Vec<u64> {
            let mut words: Vec<u64> = (0..16u64)
                .map(|i| (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ row as u64)
                .collect();
            if row == 3 {
                words.insert(2, 0x7ff);
            }
            words
        };
        let stream = |row: usize| Scripted {
            words: words(row),
            pos: 0,
        };
        let mut want = vec![0.0; rows * width];
        for (r, row) in want.chunks_mut(width).enumerate() {
            fill_normals(&mut stream(r), row);
        }
        let lanes =
            |first: usize| -> [Scripted; LANES] { std::array::from_fn(|j| stream(first + j)) };
        // The lane kernel alone stops at the zero …
        let mut group = vec![0.0; LANES * width];
        assert!(!fill_lane_group(&mut lanes(0), &mut group, width));
        // … and the plane it is part of comes out as row-by-row filling
        // draws it.
        let mut got = vec![0.0; rows * width];
        fill_rows_with(&mut got, width, lanes, stream);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
        // Without the zero, the lanes fill the group themselves.
        let clean = |row: usize| Scripted {
            words: words(row).into_iter().filter(|&w| w != 0x7ff).collect(),
            pos: 0,
        };
        assert!(fill_lane_group(
            &mut std::array::from_fn::<_, LANES, _>(clean),
            &mut group,
            width
        ));
    }

    /// The scalar spare-keeping pattern the photosite loop used before the
    /// lane kernels: the reference the batched fills must reproduce.
    fn scalar_normals(seed: u64, n: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut spare = None;
        (0..n)
            .map(|_| {
                spare.take().unwrap_or_else(|| {
                    let (a, b) = gaussian_pair(&mut rng);
                    spare = Some(b);
                    a
                })
            })
            .collect()
    }

    #[test]
    fn fill_normals_matches_scalar_spare_pattern_bit_exactly() {
        for n in [0usize, 1, 2, 7, 24, 63, 64, 67, 130] {
            for seed in [1u64, 9, 77] {
                let reference = scalar_normals(seed, n);
                let mut out = vec![0.0f64; n];
                let mut rng = StdRng::seed_from_u64(seed);
                fill_normals(&mut rng, &mut out);
                for (i, (a, b)) in out.iter().zip(&reference).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "seed {seed} n {n} sample {i}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn fill_normals_is_invariant_under_even_chunking() {
        // A row filled in even-width chunks must equal the row filled in
        // one call (as the capture loop fills it) — only the final chunk
        // may be odd.
        let n = 67usize;
        let mut whole = vec![0.0f64; n];
        let mut rng = StdRng::seed_from_u64(5);
        fill_normals(&mut rng, &mut whole);
        for lane_width in [2usize, 8, 64] {
            let mut chunked = vec![0.0f64; n];
            let mut rng = StdRng::seed_from_u64(5);
            for chunk in chunked.chunks_mut(lane_width) {
                fill_normals(&mut rng, chunk);
            }
            assert_eq!(
                whole.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                chunked.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "lane width {lane_width}"
            );
        }
    }
}
