//! Simulated observers and the observer panel.
//!
//! The paper calibrated its white-ratio table with ten human volunteers
//! watching the LED (Section 4). Our substitute observers implement the
//! same perceptual model the paper's analysis rests on: each observer
//! integrates light over their critical duration (Bloch's law) and reports
//! flicker when any window's chromatic excursion from the schedule's
//! long-run mean color exceeds their threshold, a ΔE in the CIELAB (a, b)
//! plane.
//!
//! The threshold is not the static-patch JND (ΔE ≈ 2.3): thresholds for
//! temporal chromatic modulation near the flicker-fusion rate are an order
//! of magnitude higher. Each panel's
//! thresholds are calibrated so the paper's own Fig 3(b) white ratios sit
//! at the no-flicker boundary (ΔE 42–55 for coded transmissions, 32–46 for
//! Fig 3(b)'s bare symbols). Humans vary: published critical durations
//! span roughly 40–100 ms. Panel members are spread deterministically
//! across both ranges so the *most sensitive* member gates the result,
//! exactly as the paper takes the minimum white percentage over its
//! volunteers.

use crate::bloch::perceived_windows;
use colorbars_color::{Lab, Xyz};
use colorbars_led::LedEmitter;

/// One simulated observer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observer {
    /// Temporal-summation window (critical duration), seconds.
    pub critical_duration: f64,
    /// Chromatic flicker threshold as a ΔE in the CIELAB (a, b) plane.
    pub delta_e_threshold: f64,
}

impl Observer {
    /// A median observer: 50 ms critical duration, temporal chromatic
    /// modulation threshold ΔE ≈ 40 (see [`ObserverPanel::ten_volunteers`]
    /// for the threshold calibration rationale).
    pub fn median() -> Observer {
        Observer {
            critical_duration: 0.050,
            delta_e_threshold: 40.0,
        }
    }

    /// Does this observer perceive color flicker watching `emitter`?
    ///
    /// Flicker is *temporal variation*: the eye adapts to the illumination's
    /// steady color (chromatic adaptation), so the reference is the
    /// schedule's own long-run mean color — a critical-duration window that
    /// departs visibly from that mean is perceived as a color swing. (A
    /// constant tint is an illumination-quality matter handled separately,
    /// by the constellation's white-mean symmetry.)
    pub fn sees_flicker(&self, emitter: &LedEmitter) -> bool {
        self.max_excursion(emitter) > self.delta_e_threshold
    }

    /// The largest chromatic excursion (ΔE in the (a, b) plane) of any
    /// critical-duration window from the schedule's long-run mean color.
    pub fn max_excursion(&self, emitter: &LedEmitter) -> f64 {
        let overall = emitter.mean(0.0, emitter.duration());
        if overall.y <= 1e-9 {
            return 0.0; // a dark schedule cannot show color flicker
        }
        let reference = white_ref(overall);
        let overall_lab = Lab::from_xyz(overall, reference);
        let step = self.critical_duration / 5.0;
        perceived_windows(emitter, self.critical_duration, step)
            .iter()
            .map(|w| {
                // Scale each window mean to the overall luminance so only
                // chromatic (not brightness) excursions register; the eye
                // tolerates luminance ripple far above the chromatic JND.
                let mean = w.mean;
                let scaled = if mean.y > 1e-9 {
                    mean.scale(overall.y / mean.y)
                } else {
                    mean
                };
                let lab = Lab::from_xyz(scaled, reference);
                // Salience: the color of a *dim* interval (e.g. the dark
                // OFF components of packet flags) is proportionally less
                // visible than the same chromatic excursion at full
                // brightness.
                let salience = (mean.y / overall.y).min(1.0);
                lab.delta_e_ab_plane(overall_lab) * salience
            })
            .fold(0.0, f64::max)
    }
}

fn white_ref(white: Xyz) -> Xyz {
    // CIELAB reference white: D65 shape scaled to the luminaire's luminance.
    Xyz::D65_WHITE.scale(white.y.max(1e-9))
}

/// A panel of observers; flicker is "seen" if *any* member sees it.
#[derive(Debug, Clone)]
pub struct ObserverPanel {
    members: Vec<Observer>,
}

impl ObserverPanel {
    /// Build a panel from explicit members.
    ///
    /// # Panics
    /// Panics on an empty panel.
    pub fn new(members: Vec<Observer>) -> ObserverPanel {
        assert!(!members.is_empty(), "panel needs at least one observer");
        ObserverPanel { members }
    }

    /// The paper's configuration: ten volunteers, spread deterministically
    /// over critical durations 40–100 ms and temporal-modulation thresholds
    /// ΔE 42–55.
    ///
    /// Threshold calibration: the classical static-patch JND (ΔE ≈ 2.3)
    /// does not apply to *temporal* chromatic modulation near the flicker
    /// fusion rate, where detection thresholds are an order of magnitude
    /// higher. Our panel is calibrated the way the substitution rule
    /// demands: so that transmissions using the paper's own Fig 3(b) white
    /// ratios sit right at the no-flicker boundary for the most sensitive
    /// member (measured worst-window excursion ≈ 41 for a 40 ms critical
    /// duration at 2 kHz with the table's 33% white, decreasing with rate).
    pub fn ten_volunteers() -> ObserverPanel {
        let members = (0..10)
            .map(|i| {
                let f = i as f64 / 9.0;
                Observer {
                    critical_duration: 0.040 + f * 0.060,
                    delta_e_threshold: 42.0 + f * 13.0,
                }
            })
            .collect();
        ObserverPanel { members }
    }

    /// The panel used for the Fig 3(b) white-ratio experiment, anchored so
    /// the most sensitive member reproduces the paper's 500 Hz data point
    /// (≈ 60% white needed for bare random constellation symbols). The
    /// [`ObserverPanel::ten_volunteers`] panel is calibrated against full
    /// *coded transmissions* (whose flags and calibration slots add
    /// structural excursions); the bare random-symbol stimulus of the
    /// Fig 3(b) experiment has smaller excursions, so its boundary panel
    /// is proportionally stricter.
    pub fn fig3b_volunteers() -> ObserverPanel {
        let members = (0..10)
            .map(|i| {
                let f = i as f64 / 9.0;
                Observer {
                    critical_duration: 0.040 + f * 0.060,
                    delta_e_threshold: 32.0 + f * 14.0,
                }
            })
            .collect();
        ObserverPanel { members }
    }

    /// Panel members.
    pub fn members(&self) -> &[Observer] {
        &self.members
    }

    /// `true` when at least one member sees flicker.
    pub fn anyone_sees_flicker(&self, emitter: &LedEmitter) -> bool {
        self.members.iter().any(|o| o.sees_flicker(emitter))
    }

    /// The worst (largest) threshold-normalized excursion across members:
    /// ≥ 1.0 means someone sees flicker.
    pub fn worst_normalized_excursion(&self, emitter: &LedEmitter) -> f64 {
        self.members
            .iter()
            .map(|o| o.max_excursion(emitter) / o.delta_e_threshold)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colorbars_led::{DriveLevels, ScheduledColor, TriLed};

    fn steady_white(seconds: f64) -> LedEmitter {
        LedEmitter::new(
            TriLed::typical(),
            200_000.0,
            &[ScheduledColor {
                drive: DriveLevels::new(1.0, 1.0, 1.0),
                duration: seconds,
            }],
        )
    }

    fn slow_color_swing() -> LedEmitter {
        // 5 Hz alternation between pure red and pure blue: flagrant flicker.
        let slots: Vec<ScheduledColor> = (0..10)
            .map(|i| ScheduledColor {
                drive: if i % 2 == 0 {
                    DriveLevels::new(1.0, 0.0, 0.0)
                } else {
                    DriveLevels::new(0.0, 0.0, 1.0)
                },
                duration: 0.1,
            })
            .collect();
        LedEmitter::new(TriLed::typical(), 200_000.0, &slots)
    }

    #[test]
    fn steady_white_shows_no_flicker() {
        let e = steady_white(1.0);
        assert!(!Observer::median().sees_flicker(&e));
        assert!(!ObserverPanel::ten_volunteers().anyone_sees_flicker(&e));
    }

    #[test]
    fn slow_color_swing_is_flagrant() {
        let e = slow_color_swing();
        assert!(Observer::median().sees_flicker(&e));
        assert!(ObserverPanel::ten_volunteers().anyone_sees_flicker(&e));
        assert!(ObserverPanel::ten_volunteers().worst_normalized_excursion(&e) > 1.0);
    }

    #[test]
    fn sensitive_observer_catches_what_tolerant_one_misses() {
        // Mild color bias: white with a small red offset a third of the time.
        let slots: Vec<ScheduledColor> = (0..60)
            .map(|i| ScheduledColor {
                drive: if i % 3 == 0 {
                    DriveLevels::new(1.0, 0.82, 0.82)
                } else {
                    DriveLevels::new(1.0, 1.0, 1.0)
                },
                duration: 0.01,
            })
            .collect();
        let e = LedEmitter::new(TriLed::typical(), 200_000.0, &slots);
        let sensitive = Observer {
            critical_duration: 0.05,
            delta_e_threshold: 0.4,
        };
        let tolerant = Observer {
            critical_duration: 0.05,
            delta_e_threshold: 8.0,
        };
        assert!(sensitive.sees_flicker(&e));
        assert!(!tolerant.sees_flicker(&e));
    }

    #[test]
    fn panel_members_are_distinct() {
        let p = ObserverPanel::ten_volunteers();
        assert_eq!(p.members().len(), 10);
        let first = p.members()[0];
        let last = p.members()[9];
        assert!(first.critical_duration < last.critical_duration);
        assert!(first.delta_e_threshold < last.delta_e_threshold);
    }

    #[test]
    fn excursion_of_steady_white_is_zero() {
        let e = steady_white(0.5);
        assert!(Observer::median().max_excursion(&e) < 1e-6);
    }

    #[test]
    #[should_panic(expected = "at least one observer")]
    fn empty_panel_panics() {
        let _ = ObserverPanel::new(vec![]);
    }
}
