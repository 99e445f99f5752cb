//! Receiver-side calibration: the reference-color store (paper Section 6).
//!
//! Different cameras perceive the same transmitted color differently
//! (color filters, ISP tuning — Fig 6(a)), and even one camera drifts as
//! auto-exposure/ISO react to ambient light (Fig 6(b)/(c)). ColorBars
//! solves both with transmitter-assisted calibration: periodic packets
//! carry every constellation color in index order; the receiver stores how
//! *it* perceives each color and matches data symbols against those live
//! references rather than against ideal geometry.
//!
//! [`ReferenceStore`] holds the per-symbol `(a, b)` references, the white
//! reference, and the adaptive OFF/lightness threshold. Before the first
//! calibration packet arrives the store is seeded with the *ideal forward
//! model* (what a perfectly calibrated camera would measure), so a receiver
//! can bootstrap and then refine.

use crate::symbol::{Symbol, SymbolMapper};
use colorbars_color::{Lab, LinearRgb, RgbSpace, Srgb, Xyz};

/// Per-link reference colors, as perceived by this receiver.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceStore {
    /// Reference `(a, b)` per constellation index.
    refs: Vec<(f64, f64)>,
    /// The ideal-geometry seeds, kept immutable for validating incoming
    /// calibration packets (the device distortion is affine-ish in (a, b),
    /// so genuine calibrations fit an affine map of the ideal geometry
    /// with small residuals — misaligned ones do not).
    ideal_refs: Vec<(f64, f64)>,
    /// Reference `(a, b)` for the white illumination symbol.
    white: (f64, f64),
    /// Lightness below which a band *may* be the OFF symbol.
    off_l_threshold: f64,
    /// Reference `(a, b)` of the OFF symbol (ambient light tint): OFF
    /// detection requires both low lightness and proximity to this point,
    /// so dim saturated data colors are never mistaken for the dark symbol.
    off_ab: (f64, f64),
    /// Number of calibration packets absorbed so far.
    calibrations: usize,
}

/// Maximum ab-plane distance from the OFF reference for a dark band to be
/// accepted as OFF. Ambient light is far less saturated than any
/// constellation color, so a generous radius is still unambiguous.
pub const OFF_CHROMA_RADIUS: f64 = 10.0;

impl ReferenceStore {
    /// Seed the store from the ideal forward model: each symbol's emitted
    /// light, exposed so that the white symbol lands at mid-scale, through
    /// the ideal sRGB encoding, to Lab — the same math the receiver applies
    /// to real pixels.
    pub fn ideal(mapper: &SymbolMapper) -> ReferenceStore {
        let white_y = mapper.emitted(Symbol::White).y.max(1e-9);
        // Exposure scale putting white at ~0.6 linear (bright but unclipped).
        let scale = 0.6 / white_y;
        let to_lab = |xyz: Xyz| -> Lab { forward_model(xyz.scale(scale)) };
        let refs: Vec<(f64, f64)> = (0..mapper.constellation().points().len())
            .map(|i| to_lab(mapper.emitted(Symbol::Color(i as u16))).ab())
            .collect();
        let ideal_refs = refs.clone();
        let white = to_lab(mapper.emitted(Symbol::White)).ab();
        let white_l = to_lab(mapper.emitted(Symbol::White)).l;
        ReferenceStore {
            refs,
            ideal_refs,
            white,
            // Generous initial threshold: the chroma guard keeps dim data
            // colors out, so this only needs to sit below the white level.
            off_l_threshold: white_l * 0.45,
            off_ab: (0.0, 0.0),
            calibrations: 0,
        }
    }

    /// Number of constellation references held.
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// `true` when the store holds no references (never constructed so).
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// Reference `(a, b)` for a symbol index.
    pub fn reference(&self, i: usize) -> (f64, f64) {
        self.refs[i]
    }

    /// The white reference `(a, b)`.
    pub fn white(&self) -> (f64, f64) {
        self.white
    }

    /// The OFF-symbol `(a, b)` reference (ambient tint).
    pub fn off_ab(&self) -> (f64, f64) {
        self.off_ab
    }

    /// The immutable ideal-geometry reference `(a, b)` for a symbol index —
    /// the regression target the learned equalizer maps measured features
    /// onto (DESIGN.md §15).
    pub fn ideal_reference(&self, i: usize) -> (f64, f64) {
        self.ideal_refs[i]
    }

    /// Is a band feature the OFF symbol? Requires both low lightness and
    /// proximity to the ambient tint in the `(a, b)` plane.
    pub fn is_off(&self, feature: Lab) -> bool {
        if feature.l >= self.off_l_threshold {
            return false;
        }
        let (oa, ob) = self.off_ab;
        let d = ((feature.a - oa).powi(2) + (feature.b - ob).powi(2)).sqrt();
        d < OFF_CHROMA_RADIUS
    }

    /// How many calibration packets have been absorbed.
    pub fn calibrations(&self) -> usize {
        self.calibrations
    }

    /// Absorb a calibration packet: each entry pairs a constellation index
    /// with the Lab feature of the band that carried that reference color.
    ///
    /// A complete packet provides all M indices; a gap-damaged packet whose
    /// loss position is known still provides correct (index, feature) pairs
    /// for the surviving prefix and suffix (the depacketizer reconstructs
    /// indices around the gap exactly as it places data erasures). Updates
    /// are strongly weighted toward the new measurement — the paper's
    /// receivers refresh their stored colors at every calibration packet to
    /// track ambient changes quickly — but keep a small memory so one noisy
    /// band cannot wreck a reference.
    ///
    /// # Panics
    /// Panics on an out-of-range index.
    ///
    /// (See [`ReferenceStore::calibration_consistent`] for pre-validation.)
    pub fn absorb_calibration(&mut self, measured: &[(usize, Lab)]) {
        self.absorb_calibration_inner(measured)
    }

    /// Validate a candidate calibration against the ideal geometry: fit an
    /// affine (a, b) map from the ideal references to the measurements and
    /// check the RMS residual. A correctly index-aligned calibration fits
    /// the device's (affine-ish) color distortion within a few ΔE; a
    /// misaligned one (e.g. a gap-split packet reassembled off by one)
    /// scatters wildly. Small packets (< 6 pairs) under-constrain the fit
    /// and are accepted as-is.
    pub fn calibration_consistent(&self, measured: &[(usize, Lab)], sequence: &[u16]) -> bool {
        if measured.len() < 6 {
            return true;
        }
        let m = sequence.len();
        // Inverse permutation: constellation index → sequence position.
        let mut inv = vec![0usize; m];
        for (pos, &idx) in sequence.iter().enumerate() {
            inv[idx as usize] = pos;
        }
        let rms_for_shift = |shift: usize| -> Option<f64> {
            let pairs: Vec<AbPair> = measured
                .iter()
                .map(|&(idx, lab)| {
                    let pos = (inv[idx] + shift) % m;
                    (self.ideal_refs[sequence[pos] as usize], lab.ab())
                })
                .collect();
            let xf = AffineAb::fit(&pairs)?;
            let mut sq = 0.0;
            for &(input, output) in &pairs {
                let (pa, pb) = xf.apply(input);
                sq += (pa - output.0).powi(2) + (pb - output.1).powi(2);
            }
            Some((sq / pairs.len() as f64).sqrt())
        };
        let Some(claimed) = rms_for_shift(0) else {
            return false;
        };
        // Genuine calibrations fit an affine map of the ideal geometry up to
        // the camera's nonlinearities (gamma, gamut compression, band-edge
        // smear); the absolute residual scales with conditions, so the test
        // is *relative*: the claimed index assignment must fit distinctly
        // better than every cyclic misassignment. A tiny absolute residual
        // short-circuits (nothing shifted can compete with a near-exact fit).
        if claimed < 6.0 {
            return true;
        }
        let mut best_alternative = f64::INFINITY;
        for shift in 1..m {
            if let Some(r) = rms_for_shift(shift) {
                best_alternative = best_alternative.min(r);
            }
        }
        claimed < 0.7 * best_alternative
    }

    fn absorb_calibration_inner(&mut self, measured: &[(usize, Lab)]) {
        const NEW_WEIGHT: f64 = 0.8;
        if measured.is_empty() {
            return;
        }
        for &(idx, _) in measured {
            assert!(
                idx < self.refs.len(),
                "calibration index {idx} out of range"
            );
        }
        if self.calibrations == 0 {
            // First calibration: the ideal seeds live in a different domain
            // (no device color distortion). A *partial* first packet must
            // not leave the store mixed-domain — measured references next
            // to ideal ones scramble nearest-neighbor classification — so
            // fit the device's global (a, b) transform from the measured
            // pairs and push every unmeasured reference through it.
            let pairs: Vec<AbPair> = measured
                .iter()
                .map(|&(idx, lab)| (self.ideal_refs[idx], lab.ab()))
                .collect();
            if let Some(xf) = AffineAb::fit(&pairs) {
                let covered: std::collections::HashSet<usize> =
                    measured.iter().map(|&(i, _)| i).collect();
                for (i, r) in self.refs.iter_mut().enumerate() {
                    if !covered.contains(&i) {
                        *r = xf.apply(*r);
                    }
                }
                // Map the white reference into the same domain; flags keep
                // refining it afterward.
                self.white = xf.apply(self.white);
            }
            for &(idx, lab) in measured {
                self.refs[idx] = lab.ab();
            }
        } else {
            for &(idx, lab) in measured {
                let (a, b) = lab.ab();
                let r = &mut self.refs[idx];
                r.0 = (1.0 - NEW_WEIGHT) * r.0 + NEW_WEIGHT * a;
                r.1 = (1.0 - NEW_WEIGHT) * r.1 + NEW_WEIGHT * b;
            }
        }
        self.calibrations += 1;
    }

    /// Re-anchor the OFF detector from per-frame band extremes: the darkest
    /// band in (almost) every frame is an OFF flag component, and the
    /// brightest is white-ish. This closes the adaptation deadlock after a
    /// sudden ambient change — flag *detection* needs the OFF threshold,
    /// but the threshold is normally only refined from detected flags.
    pub fn observe_extremes(&mut self, darkest: Lab, brightest_l: f64) {
        // Only a near-neutral dark band can be an OFF symbol; a saturated
        // dark band is a dim data color and must not move the anchor.
        let (oa, ob) = self.off_ab;
        let tint_dist = ((darkest.a - oa).powi(2) + (darkest.b - ob).powi(2)).sqrt();
        if tint_dist > 2.0 * OFF_CHROMA_RADIUS {
            return;
        }
        let target = darkest.l + 0.25 * (brightest_l - darkest.l).max(0.0);
        self.off_l_threshold = 0.85 * self.off_l_threshold + 0.15 * target.max(1.0);
        self.off_ab = (0.85 * oa + 0.15 * darkest.a, 0.85 * ob + 0.15 * darkest.b);
    }

    /// Update the white reference and OFF threshold from flag observations:
    /// every packet flag alternates OFF and white bands, giving fresh
    /// measurements for free.
    pub fn observe_flag(&mut self, white_bands: &[Lab], off_bands: &[Lab]) {
        if !white_bands.is_empty() {
            let n = white_bands.len() as f64;
            let (sa, sb, sl) = white_bands
                .iter()
                .fold((0.0, 0.0, 0.0), |(a, b, l), w| (a + w.a, b + w.b, l + w.l));
            // Exponential smoothing: flags arrive constantly, no need to
            // trust any single one.
            let (wa, wb) = (sa / n, sb / n);
            self.white = (0.7 * self.white.0 + 0.3 * wa, 0.7 * self.white.1 + 0.3 * wb);
            if !off_bands.is_empty() {
                let m = off_bands.len() as f64;
                let off_l = off_bands.iter().map(|o| o.l).sum::<f64>() / m;
                let white_l = sl / n;
                // Threshold a margin above the observed OFF level, but never
                // at/above the white level: OFF + 25% of the OFF→white gap.
                let target = off_l + 0.25 * (white_l - off_l).max(0.0);
                self.off_l_threshold = 0.7 * self.off_l_threshold + 0.3 * target.max(1.0);
                // Track the ambient tint for the chroma guard.
                let oa = off_bands.iter().map(|o| o.a).sum::<f64>() / m;
                let ob = off_bands.iter().map(|o| o.b).sum::<f64>() / m;
                self.off_ab = (
                    0.7 * self.off_ab.0 + 0.3 * oa,
                    0.7 * self.off_ab.1 + 0.3 * ob,
                );
            }
        }
    }
}

/// A 2-D affine transform in the `(a, b)` plane: `out = M·in + t`.
///
/// The receiver-diversity distortion (camera color filters + ISP, paper
/// Section 6.1) acts approximately affinely on the chroma plane, so a
/// least-squares fit from a few (ideal, measured) reference pairs lets the
/// receiver project its *unmeasured* references into the measured domain
/// after a partial first calibration packet.
/// An `(input (a, b), output (a, b))` correspondence for the affine fit.
type AbPair = ((f64, f64), (f64, f64));

#[derive(Debug, Clone, Copy, PartialEq)]
struct AffineAb {
    m: [[f64; 2]; 2],
    t: [f64; 2],
}

impl AffineAb {
    /// Least-squares fit from `(input, output)` pairs. Needs ≥ 3
    /// non-collinear pairs; returns `None` when the normal equations are
    /// singular.
    fn fit(pairs: &[AbPair]) -> Option<AffineAb> {
        if pairs.len() < 3 {
            return None;
        }
        // Normal equations for x' = p·a + q·b + r (and likewise b').
        // A^T A is the same 3×3 for both output components.
        let mut ata = [[0.0f64; 3]; 3];
        let mut atx = [0.0f64; 3];
        let mut aty = [0.0f64; 3];
        for &((a, b), (x, y)) in pairs {
            let row = [a, b, 1.0];
            for i in 0..3 {
                for j in 0..3 {
                    ata[i][j] += row[i] * row[j];
                }
                atx[i] += row[i] * x;
                aty[i] += row[i] * y;
            }
        }
        let m = colorbars_color::Mat3(ata);
        let sol_x = m.solve(colorbars_color::Vec3(atx))?;
        let sol_y = m.solve(colorbars_color::Vec3(aty))?;
        Some(AffineAb {
            m: [[sol_x.0[0], sol_x.0[1]], [sol_y.0[0], sol_y.0[1]]],
            t: [sol_x.0[2], sol_y.0[2]],
        })
    }

    fn apply(&self, (a, b): (f64, f64)) -> (f64, f64) {
        (
            self.m[0][0] * a + self.m[0][1] * b + self.t[0],
            self.m[1][0] * a + self.m[1][1] * b + self.t[1],
        )
    }
}

/// The receiver's forward model for reference seeding: scene light → ideal
/// sRGB camera → stored pixel → Lab. Matches `segmentation::row_signal`'s
/// pixel math.
fn forward_model(xyz: Xyz) -> Lab {
    let srgb_space = RgbSpace::srgb();
    // Same gamut mapping as the camera ISP: compress toward neutral, then
    // the encoder clamps the top end.
    let linear = srgb_space.from_xyz(xyz).compress_into_gamut();
    let stored = Srgb::encode(LinearRgb::new(
        linear.r.min(1.0),
        linear.g.min(1.0),
        linear.b.min(1.0),
    ));
    let back = srgb_space.to_xyz(stored.decode());
    Lab::from_xyz(back, Xyz::D65_WHITE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constellation::{Constellation, CskOrder};
    use colorbars_led::TriLed;

    fn store(order: CskOrder) -> (ReferenceStore, SymbolMapper) {
        let led = TriLed::typical();
        let cons = Constellation::ieee_style(order, led.gamut());
        let mapper = SymbolMapper::new(led, cons);
        (ReferenceStore::ideal(&mapper), mapper)
    }

    #[test]
    fn ideal_store_has_one_ref_per_symbol() {
        for order in CskOrder::ALL {
            let (s, _) = store(order);
            assert_eq!(s.len(), order.points());
            assert!(!s.is_empty());
            assert_eq!(s.calibrations(), 0);
        }
    }

    #[test]
    fn ideal_references_are_distinct() {
        let (s, _) = store(CskOrder::Csk8);
        for i in 0..8 {
            for j in (i + 1)..8 {
                let (ai, bi) = s.reference(i);
                let (aj, bj) = s.reference(j);
                let d = ((ai - aj).powi(2) + (bi - bj).powi(2)).sqrt();
                assert!(d > 3.0, "refs {i} and {j} nearly coincide (ΔE {d})");
            }
        }
    }

    #[test]
    fn white_reference_is_near_neutral() {
        let (s, _) = store(CskOrder::Csk4);
        let (a, b) = s.white();
        let mag = (a * a + b * b).sqrt();
        assert!(mag < 12.0, "white ab magnitude {mag}");
    }

    #[test]
    fn first_calibration_replaces_refs_outright() {
        let (mut s, _) = store(CskOrder::Csk4);
        let measured = vec![
            (0, Lab::new(50.0, 10.0, 20.0)),
            (1, Lab::new(50.0, -30.0, 15.0)),
            (2, Lab::new(30.0, 5.0, -40.0)),
            (3, Lab::new(60.0, 0.0, 0.0)),
        ];
        s.absorb_calibration(&measured);
        assert_eq!(s.reference(0), (10.0, 20.0));
        assert_eq!(s.reference(2), (5.0, -40.0));
        assert_eq!(s.calibrations(), 1);
    }

    #[test]
    fn later_calibrations_are_smoothed() {
        let (mut s, _) = store(CskOrder::Csk4);
        s.absorb_calibration(&[(0, Lab::new(50.0, 10.0, 10.0))]);
        s.absorb_calibration(&[(0, Lab::new(50.0, 20.0, 10.0))]);
        let (a, _) = s.reference(0);
        assert!(a > 10.0 && a < 20.0, "smoothed between old and new: {a}");
        assert!((a - 18.0).abs() < 1e-9, "0.2·10 + 0.8·20");
        assert_eq!(s.calibrations(), 2);
    }

    #[test]
    fn partial_calibration_touches_only_given_indices() {
        let (mut s, _) = store(CskOrder::Csk8);
        let before3 = s.reference(3);
        s.absorb_calibration(&[
            (0, Lab::new(40.0, 1.0, 2.0)),
            (7, Lab::new(40.0, -3.0, 4.0)),
        ]);
        assert_eq!(s.reference(0), (1.0, 2.0));
        assert_eq!(s.reference(7), (-3.0, 4.0));
        assert_eq!(s.reference(3), before3, "untouched index unchanged");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_calibration_index_panics() {
        let (mut s, _) = store(CskOrder::Csk8);
        s.absorb_calibration(&[(8, Lab::new(0.0, 0.0, 0.0))]);
    }

    #[test]
    fn off_detection_requires_low_light_and_neutral_tint() {
        let (s, _) = store(CskOrder::Csk8);
        // Dark and neutral: OFF.
        assert!(s.is_off(Lab::new(5.0, 0.5, -0.5)));
        // Dark but saturated (a dim blue data color): not OFF.
        assert!(!s.is_off(Lab::new(5.0, 20.0, -45.0)));
        // Bright and neutral (white band): not OFF.
        assert!(!s.is_off(Lab::new(80.0, 0.0, 0.0)));
    }

    #[test]
    fn flag_observation_nudges_white() {
        let (mut s, _) = store(CskOrder::Csk8);
        let before = s.white();
        let whites = vec![Lab::new(70.0, 14.0, 16.0); 3];
        let offs = vec![Lab::new(2.0, 0.0, 0.0); 2];
        s.observe_flag(&whites, &offs);
        let after = s.white();
        // The smoothed white must move toward the observed (14, 16).
        assert!((after.0 - 14.0).abs() < (before.0 - 14.0).abs());
        assert!((after.1 - 16.0).abs() < (before.1 - 16.0).abs());
        assert!(s.off_l_threshold > 0.0);
    }

    #[test]
    fn off_threshold_sits_between_dark_and_white() {
        let (s, mapper) = store(CskOrder::Csk8);
        // The white symbol's L in the ideal model is far above the threshold.
        let white_y = mapper.emitted(Symbol::White).y;
        assert!(white_y > 0.0);
        assert!(s.off_l_threshold > 0.5);
        assert!(s.off_l_threshold < 40.0);
    }
}
