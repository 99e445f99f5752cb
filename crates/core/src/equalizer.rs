//! The learned per-link equalizer (DESIGN.md §15).
//!
//! The paper's classifier is nearest-neighbor against the live calibration
//! references — a per-symbol *point* estimate of the channel. At high CSK
//! orders (64+) the inter-symbol distance shrinks below the channel's
//! *structured* distortion (chromatic crosstalk, saturation compression,
//! white-balance shear), which a point-per-symbol correction cannot
//! express. [`RidgeEqualizer`] instead learns a smooth map from measured
//! CIELAB features to the constellation's **ideal** `(a*, b*)` geometry,
//! fitted on the calibration preamble the link already transmits: a
//! closed-form ridge regression on quadratic polynomial features, solved by
//! normal equations (no external deps, deterministic to the last bit).
//!
//! Classification then becomes nearest *ideal* reference in the corrected
//! plane. When the preamble is too degenerate to fit (too few samples,
//! non-finite samples, rank-deficient features, non-finite solve) training
//! fails with [`LinkError::EqualizerDegenerate`] and the receiver falls
//! back to plain nearest-neighbor — never NaN weights, never a panic.

use crate::error::LinkError;
use colorbars_color::Lab;

/// Which demodulation classifier a link runs (selected out of band via
/// [`crate::config::LinkConfig::with_equalizer`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EqualizerKind {
    /// The paper's classifier: nearest live calibration reference.
    NearestNeighbor,
    /// Ridge regression on quadratic Lab features (closed form).
    Ridge,
}

impl EqualizerKind {
    /// Stable identifier used in replay contexts and bench output.
    pub fn as_str(self) -> &'static str {
        match self {
            EqualizerKind::NearestNeighbor => "nn",
            EqualizerKind::Ridge => "ridge",
        }
    }

    /// Inverse of [`as_str`](EqualizerKind::as_str).
    pub fn from_name(s: &str) -> Option<EqualizerKind> {
        match s {
            "nn" => Some(EqualizerKind::NearestNeighbor),
            "ridge" => Some(EqualizerKind::Ridge),
            _ => None,
        }
    }
}

/// Quadratic polynomial feature basis: `[1, a', b', a'², b'², a'b', L']`
/// with all channels pre-scaled by 1/100 for conditioning.
const NUM_FEATURES: usize = 7;

/// Ridge shrinkage on the (unit-scaled) normal equations.
const RIDGE_LAMBDA: f64 = 1e-3;

/// Minimum calibration samples before a fit is attempted.
pub const MIN_TRAIN_SAMPLES: usize = 8;

/// Feature scale: Lab channels are mapped to ~unit range before fitting.
const SCALE: f64 = 100.0;

fn features(feature: Lab) -> [f64; NUM_FEATURES] {
    let a = feature.a / SCALE;
    let b = feature.b / SCALE;
    let l = feature.l / SCALE;
    [1.0, a, b, a * a, b * b, a * b, l]
}

/// Degeneracy screen: the fit refuses preambles that cannot constrain a
/// channel map, so it never emits NaN weights. A non-finite sample (an
/// overflowed or corrupted feature) is refused outright — it would poison
/// every normal-equation sum.
fn check_degenerate(samples: &[(usize, Lab)]) -> Result<(), LinkError> {
    if samples.len() < MIN_TRAIN_SAMPLES {
        return Err(LinkError::EqualizerDegenerate {
            samples: samples.len(),
            cause: "too_few_samples",
        });
    }
    if samples
        .iter()
        .any(|(_, f)| !(f.l.is_finite() && f.a.is_finite() && f.b.is_finite()))
    {
        return Err(LinkError::EqualizerDegenerate {
            samples: samples.len(),
            cause: "non_finite",
        });
    }
    let n = samples.len() as f64;
    let (mut ma, mut mb) = (0.0, 0.0);
    for (_, f) in samples {
        ma += f.a;
        mb += f.b;
    }
    ma /= n;
    mb /= n;
    let mut var = 0.0;
    for (_, f) in samples {
        var += (f.a - ma).powi(2) + (f.b - mb).powi(2);
    }
    var /= n;
    let mut symbols: Vec<usize> = samples.iter().map(|(i, _)| *i).collect();
    symbols.sort_unstable();
    symbols.dedup();
    if var < 1e-6 || symbols.len() < 2 {
        return Err(LinkError::EqualizerDegenerate {
            samples: samples.len(),
            cause: "rank_deficient",
        });
    }
    Ok(())
}

/// Solve `A · X = Y` for square `A` (n×n) and multi-column `Y` (n×m) by
/// Gaussian elimination with partial pivoting — the n-dimensional sibling
/// of the calibration module's 3×3 solver. `None` on a vanishing pivot.
/// The pivot search is a total order, so a non-finite entry cannot panic
/// it; the caller's finiteness check refuses the resulting weights.
fn solve(mut a: Vec<Vec<f64>>, mut y: Vec<Vec<f64>>) -> Option<Vec<Vec<f64>>> {
    let n = a.len();
    for col in 0..n {
        let pivot_row = (col..n).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[pivot_row][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot_row);
        y.swap(col, pivot_row);
        let pivot_a = a[col].clone();
        let pivot_y = y[col].clone();
        for row in (col + 1)..n {
            let factor = a[row][col] / pivot_a[col];
            for (v, p) in a[row].iter_mut().zip(&pivot_a).skip(col) {
                *v -= factor * p;
            }
            for (v, p) in y[row].iter_mut().zip(&pivot_y) {
                *v -= factor * p;
            }
        }
    }
    // Back substitution.
    for col in (0..n).rev() {
        for k in 0..y[col].len() {
            let mut v = y[col][k];
            for j in (col + 1)..n {
                v -= a[col][j] * y[j][k];
            }
            y[col][k] = v / a[col][col];
        }
    }
    Some(y)
}

/// Closed-form ridge regression from quadratic Lab features to the ideal
/// `(a*, b*)` geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct RidgeEqualizer {
    /// `w[0]` predicts a*, `w[1]` predicts b* (both in unit scale).
    w: [[f64; NUM_FEATURES]; 2],
}

impl RidgeEqualizer {
    /// Fit on `(symbol index, measured feature)` pairs against the ideal
    /// reference geometry. Deterministic: same samples → same weights.
    pub fn fit(
        samples: &[(usize, Lab)],
        ideal: &[(f64, f64)],
    ) -> Result<RidgeEqualizer, LinkError> {
        check_degenerate(samples)?;
        let mut xtx = vec![vec![0.0f64; NUM_FEATURES]; NUM_FEATURES];
        let mut xty = vec![vec![0.0f64; 2]; NUM_FEATURES];
        for (idx, f) in samples {
            let phi = features(*f);
            let (ta, tb) = ideal[*idx];
            for i in 0..NUM_FEATURES {
                for j in 0..NUM_FEATURES {
                    xtx[i][j] += phi[i] * phi[j];
                }
                xty[i][0] += phi[i] * ta / SCALE;
                xty[i][1] += phi[i] * tb / SCALE;
            }
        }
        for (i, row) in xtx.iter_mut().enumerate() {
            row[i] += RIDGE_LAMBDA;
        }
        let sol = solve(xtx, xty).ok_or(LinkError::EqualizerDegenerate {
            samples: samples.len(),
            cause: "rank_deficient",
        })?;
        let mut w = [[0.0; NUM_FEATURES]; 2];
        for i in 0..NUM_FEATURES {
            w[0][i] = sol[i][0];
            w[1][i] = sol[i][1];
        }
        if w.iter().flatten().any(|v| !v.is_finite()) {
            return Err(LinkError::EqualizerDegenerate {
                samples: samples.len(),
                cause: "non_finite",
            });
        }
        Ok(RidgeEqualizer { w })
    }

    /// Rebuild from a flat weight vector (replay path).
    pub fn from_weights(flat: &[f64]) -> Option<RidgeEqualizer> {
        if flat.len() != 2 * NUM_FEATURES {
            return None;
        }
        let mut w = [[0.0; NUM_FEATURES]; 2];
        w[0].copy_from_slice(&flat[..NUM_FEATURES]);
        w[1].copy_from_slice(&flat[NUM_FEATURES..]);
        Some(RidgeEqualizer { w })
    }

    /// Corrected `(a*, b*)` for a measured feature.
    pub fn correct(&self, feature: Lab) -> (f64, f64) {
        let phi = features(feature);
        let dot = |w: &[f64; NUM_FEATURES]| -> f64 {
            let mut s = 0.0;
            for i in 0..NUM_FEATURES {
                s += w[i] * phi[i];
            }
            s * SCALE
        };
        (dot(&self.w[0]), dot(&self.w[1]))
    }

    /// Flat weight vector (replay-context serialization).
    pub fn weights(&self) -> Vec<f64> {
        self.w[0].iter().chain(self.w[1].iter()).copied().collect()
    }
}

/// A fitted equalizer plus the ideal reference geometry it classifies
/// against — everything the demodulator (live or replayed) needs.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainedEqualizer {
    ridge: RidgeEqualizer,
    ideal: Vec<(f64, f64)>,
}

impl TrainedEqualizer {
    /// Train `kind` on the accumulated calibration samples. `Ok(None)` for
    /// [`EqualizerKind::NearestNeighbor`] (nothing to train); a typed
    /// [`LinkError::EqualizerDegenerate`] when the preamble cannot
    /// constrain a fit — the caller falls back to nearest-neighbor.
    pub fn fit(
        kind: EqualizerKind,
        samples: &[(usize, Lab)],
        ideal: &[(f64, f64)],
    ) -> Result<Option<TrainedEqualizer>, LinkError> {
        match kind {
            EqualizerKind::NearestNeighbor => Ok(None),
            EqualizerKind::Ridge => RidgeEqualizer::fit(samples, ideal).map(|ridge| {
                Some(TrainedEqualizer {
                    ridge,
                    ideal: ideal.to_vec(),
                })
            }),
        }
    }

    /// Rebuild from serialized parts (the replay path). `None` when the
    /// kind/weight shape is inconsistent.
    pub fn from_weights(
        kind: EqualizerKind,
        flat: &[f64],
        ideal: Vec<(f64, f64)>,
    ) -> Option<TrainedEqualizer> {
        match kind {
            EqualizerKind::NearestNeighbor => None,
            EqualizerKind::Ridge => Some(TrainedEqualizer {
                ridge: RidgeEqualizer::from_weights(flat)?,
                ideal,
            }),
        }
    }

    /// Which learner this is.
    pub fn kind(&self) -> EqualizerKind {
        EqualizerKind::Ridge
    }

    /// The ideal reference geometry classified against.
    pub fn ideal(&self) -> &[(f64, f64)] {
        &self.ideal
    }

    /// Flat weight vector (replay-context serialization).
    pub fn weights(&self) -> Vec<f64> {
        self.ridge.weights()
    }

    /// Corrected `(a*, b*)` for a measured feature.
    pub fn correct(&self, feature: Lab) -> (f64, f64) {
        self.ridge.correct(feature)
    }

    /// Demodulate: nearest ideal reference to the corrected feature.
    pub fn classify(&self, feature: Lab) -> u16 {
        let (ca, cb) = self.correct(feature);
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (i, &(a, b)) in self.ideal.iter().enumerate() {
            let d = (ca - a).powi(2) + (cb - b).powi(2);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best as u16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic 8-point ideal geometry on a circle.
    fn ideal_octagon() -> Vec<(f64, f64)> {
        (0..8)
            .map(|i| {
                let t = i as f64 * std::f64::consts::PI / 4.0;
                (40.0 * t.cos(), 40.0 * t.sin())
            })
            .collect()
    }

    /// A linear channel distortion: shear + offset, exactly representable
    /// by the ridge basis.
    fn distort(a: f64, b: f64) -> Lab {
        Lab::new(50.0, 0.8 * a + 0.15 * b + 3.0, -0.1 * a + 0.7 * b - 2.0)
    }

    fn preamble(ideal: &[(f64, f64)], copies: usize) -> Vec<(usize, Lab)> {
        let mut out = Vec::new();
        for _ in 0..copies {
            for (i, &(a, b)) in ideal.iter().enumerate() {
                out.push((i, distort(a, b)));
            }
        }
        out
    }

    #[test]
    fn ridge_inverts_a_linear_channel() {
        let ideal = ideal_octagon();
        let eq = RidgeEqualizer::fit(&preamble(&ideal, 3), &ideal).unwrap();
        for (i, &(a, b)) in ideal.iter().enumerate() {
            let (ca, cb) = eq.correct(distort(a, b));
            assert!(
                (ca - a).abs() < 1.0 && (cb - b).abs() < 1.0,
                "point {i}: corrected ({ca:.2}, {cb:.2}) vs ideal ({a:.2}, {b:.2})"
            );
        }
    }

    #[test]
    fn ridge_is_deterministic() {
        let ideal = ideal_octagon();
        let p = preamble(&ideal, 2);
        let w1 = RidgeEqualizer::fit(&p, &ideal).unwrap().weights();
        let w2 = RidgeEqualizer::fit(&p, &ideal).unwrap().weights();
        assert_eq!(w1, w2, "same preamble must give bit-identical weights");
    }

    #[test]
    fn too_few_samples_is_typed_degenerate() {
        let ideal = ideal_octagon();
        let p = preamble(&ideal, 1);
        let err = RidgeEqualizer::fit(&p[..3], &ideal).unwrap_err();
        assert_eq!(err.kind(), "equalizer_degenerate");
        assert!(err.to_string().contains("too_few_samples"));
    }

    #[test]
    fn identical_samples_are_rank_deficient() {
        let ideal = ideal_octagon();
        let p: Vec<(usize, Lab)> = (0..16).map(|i| (i % 8, Lab::new(50.0, 5.0, 5.0))).collect();
        let err = RidgeEqualizer::fit(&p, &ideal).unwrap_err();
        assert!(err.to_string().contains("rank_deficient"));
    }

    #[test]
    fn single_symbol_preamble_is_rank_deficient() {
        let ideal = ideal_octagon();
        let p: Vec<(usize, Lab)> = (0..16)
            .map(|k| (0usize, Lab::new(50.0, 5.0 + k as f64, 5.0 - k as f64)))
            .collect();
        assert!(RidgeEqualizer::fit(&p, &ideal).is_err());
    }

    #[test]
    fn trained_classify_beats_shifted_nn_geometry() {
        // Under the shear the measured points move; classifying the
        // *distorted* feature against the ideal geometry directly (what NN
        // would do with stale references) errs, the equalizer does not.
        let ideal = ideal_octagon();
        let eq = TrainedEqualizer::fit(EqualizerKind::Ridge, &preamble(&ideal, 3), &ideal)
            .unwrap()
            .unwrap();
        for (i, &(a, b)) in ideal.iter().enumerate() {
            assert_eq!(eq.classify(distort(a, b)), i as u16);
        }
    }

    #[test]
    fn nearest_neighbor_kind_trains_to_none() {
        let ideal = ideal_octagon();
        let t = TrainedEqualizer::fit(EqualizerKind::NearestNeighbor, &preamble(&ideal, 2), &ideal)
            .unwrap();
        assert!(t.is_none());
    }

    #[test]
    fn kind_strings_roundtrip() {
        for k in [EqualizerKind::NearestNeighbor, EqualizerKind::Ridge] {
            assert_eq!(EqualizerKind::from_name(k.as_str()), Some(k));
        }
        assert_eq!(EqualizerKind::from_name("bogus"), None);
    }

    #[test]
    fn trained_roundtrip_through_flat_weights() {
        let ideal = ideal_octagon();
        let kind = EqualizerKind::Ridge;
        let eq = TrainedEqualizer::fit(kind, &preamble(&ideal, 3), &ideal)
            .unwrap()
            .unwrap();
        let rebuilt =
            TrainedEqualizer::from_weights(kind, &eq.weights(), eq.ideal().to_vec()).unwrap();
        assert_eq!(eq, rebuilt);
        let f = distort(25.0, 10.0);
        assert_eq!(eq.classify(f), rebuilt.classify(f));
    }
}
