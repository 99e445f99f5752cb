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

use rand::Rng;

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
    /// the site over `exposure_s` seconds; returns the normalized raw value
    /// in `[0, 1]` after shot noise, read noise, ISO gain and clipping.
    pub fn expose<R: Rng>(&self, luminance: f64, exposure_s: f64, iso: f64, rng: &mut R) -> f64 {
        self.expose_with_noise(luminance, exposure_s, iso, gaussian(rng))
    }

    /// [`SensorModel::expose`] with the standard-normal noise sample
    /// supplied by the caller. Shot noise (`σ² = electrons`) and read noise
    /// (`σ = read_noise_e`) are independent Gaussians, so their sum is one
    /// Gaussian with `σ = sqrt(electrons + read_noise_e²)` — a single draw
    /// per photosite instead of two. Callers on the hot path generate
    /// normals in pairs ([`gaussian_pair`]) and hand them in here.
    pub fn expose_with_noise(&self, luminance: f64, exposure_s: f64, iso: f64, normal: f64) -> f64 {
        let electrons =
            (luminance.max(0.0) * exposure_s * self.sensitivity).min(self.full_well_e * 4.0); // photodiode itself saturates
        let noise_sigma = (electrons + self.read_noise_e * self.read_noise_e).sqrt();
        let noisy = electrons + normal * noise_sigma;
        let raw = noisy / self.full_well_e * self.gain(iso);
        raw.clamp(0.0, 1.0)
    }

    /// Noise-free version of [`SensorModel::expose`] — the expected raw
    /// value, used by the auto-exposure controller's feed-forward term and
    /// by tests.
    pub fn expose_expected(&self, luminance: f64, exposure_s: f64, iso: f64) -> f64 {
        let electrons =
            (luminance.max(0.0) * exposure_s * self.sensitivity).min(self.full_well_e * 4.0);
        (electrons / self.full_well_e * self.gain(iso)).clamp(0.0, 1.0)
    }
}

/// Sample a standard normal via Box–Muller (the `rand` crate alone has no
/// normal distribution; this avoids pulling in `rand_distr`).
pub fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    gaussian_pair(rng).0
}

/// One Box–Muller transform yields two independent standard normals; the
/// naive [`gaussian`] throws the sine branch away. The capture hot path
/// calls this instead and consumes both, halving the `ln`/`sqrt`/trig cost
/// per noise sample (and `sin_cos` computes both branches in one call).
pub fn gaussian_pair<R: Rng>(rng: &mut R) -> (f64, f64) {
    loop {
        let u1: f64 = rng.gen();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen();
        let radius = (-2.0 * u1.ln()).sqrt();
        let (sin, cos) = (2.0 * std::f64::consts::PI * u2).sin_cos();
        return (radius * cos, radius * sin);
    }
}

/// Fill `out` with standard normals, consuming `rng` exactly like a scalar
/// loop that calls [`gaussian_pair`] and keeps the spare for the next
/// sample: pairs land in order, and an odd-length tail takes the cosine
/// branch of a final pair whose sine branch is discarded — precisely what
/// the spare-keeping photosite loop did at end of row. The capture loop
/// fills each row's raw plane in one call; filling it in even-width chunks
/// instead would draw the same sequence (only the last chunk of a row can
/// be odd), so every captured byte is independent of the chunking.
pub fn fill_normals<R: Rng>(rng: &mut R, out: &mut [f64]) {
    let mut pairs = out.chunks_exact_mut(2);
    for pair in &mut pairs {
        let (a, b) = gaussian_pair(rng);
        pair[0] = a;
        pair[1] = b;
    }
    if let [last] = pairs.into_remainder() {
        *last = gaussian_pair(rng).0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
            .map(|_| m.expose(0.4, 40e-6, 100.0, &mut rng))
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
                .map(|_| m.expose(0.4, exp_s, iso, &mut rng))
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

    #[test]
    fn gaussian_has_unit_variance() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
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
