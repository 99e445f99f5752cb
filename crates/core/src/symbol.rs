//! The transmitted symbol alphabet and its mapping to LED drive levels.
//!
//! ColorBars transmits three kinds of symbols (paper Sections 4–5):
//!
//! * **Color symbols** — constellation points carrying data.
//! * **White symbols** — dedicated illumination slots that keep the
//!   perceived light white (and double as the `w` of the `owo` delimiter).
//! * **OFF symbols** — the LED dark, used only in delimiters and flags
//!   because darkness is trivially distinguishable from any data color.
//!
//! Data symbols are driven at **constant radiated power** (the PWM duties
//! of the three dies sum to a fixed budget), the defining property of CSK:
//! the luminaire's output power never varies with the data, only its
//! color does. White symbols use the same power budget at the white point.

use crate::constellation::Constellation;
use colorbars_led::{DriveLevels, LedEmitter, ScheduledColor, TriLed};

/// One transmitted symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Symbol {
    /// LED off (delimiter/flag component `o`).
    Off,
    /// White illumination symbol (`w`).
    White,
    /// Constellation color symbol carrying `log2(M)` bits. The index is
    /// `u16`, wider than the 64-point ladder needs (DESIGN.md §15 says
    /// why).
    Color(u16),
}

impl Symbol {
    /// `true` for the OFF symbol.
    pub fn is_off(self) -> bool {
        matches!(self, Symbol::Off)
    }

    /// `true` for the white illumination symbol.
    pub fn is_white(self) -> bool {
        matches!(self, Symbol::White)
    }
}

/// Maps symbols to tri-LED drive levels and builds emitter schedules.
#[derive(Debug, Clone)]
pub struct SymbolMapper {
    led: TriLed,
    constellation: Constellation,
    /// Total duty budget shared by the three dies (constant-power CSK).
    power_budget: f64,
    /// Precomputed drive per constellation point.
    color_drives: Vec<DriveLevels>,
    white_drive: DriveLevels,
}

impl SymbolMapper {
    /// Default duty budget: the largest budget for which *every*
    /// constellation point of every supported order is realizable is 1.0
    /// (a gamut vertex needs its whole die).
    pub const DEFAULT_POWER_BUDGET: f64 = 1.0;

    /// Build a mapper for `led` and `constellation`.
    ///
    /// # Panics
    /// Panics if any constellation point cannot be driven at the power
    /// budget (cannot happen for in-gamut constellations with budget ≤ 1).
    pub fn new(led: TriLed, constellation: Constellation) -> SymbolMapper {
        let budget = Self::DEFAULT_POWER_BUDGET;
        let color_drives = constellation
            .points()
            .iter()
            .map(|&c| {
                solve_constant_power(&led, c, budget)
                    .unwrap_or_else(|| panic!("constellation point {c:?} not drivable"))
            })
            .collect();
        let white = led.full_drive_white().chromaticity();
        let white_drive =
            solve_constant_power(&led, white, budget).expect("white point is always drivable");
        SymbolMapper {
            led,
            constellation,
            power_budget: budget,
            color_drives,
            white_drive,
        }
    }

    /// The LED driven by this mapper.
    pub fn led(&self) -> &TriLed {
        &self.led
    }

    /// The constellation in use.
    pub fn constellation(&self) -> &Constellation {
        &self.constellation
    }

    /// Drive levels for one symbol.
    pub fn drive(&self, s: Symbol) -> DriveLevels {
        match s {
            Symbol::Off => DriveLevels::OFF,
            Symbol::White => self.white_drive,
            Symbol::Color(i) => self.color_drives[i as usize],
        }
    }

    /// Expected emitted light for one symbol (mean over its slot).
    pub fn emitted(&self, s: Symbol) -> colorbars_color::Xyz {
        self.led.emit(self.drive(s))
    }

    /// Build an LED emitter executing `symbols` at `symbol_rate` Hz.
    ///
    /// # Panics
    /// Panics if `symbol_rate` is not positive and finite, or the symbol
    /// list is empty.
    pub fn schedule(&self, symbols: &[Symbol], symbol_rate: f64, pwm_frequency: f64) -> LedEmitter {
        assert!(
            symbol_rate.is_finite() && symbol_rate > 0.0,
            "invalid symbol rate"
        );
        assert!(!symbols.is_empty(), "cannot schedule zero symbols");
        let duration = 1.0 / symbol_rate;
        let slots: Vec<ScheduledColor> = symbols
            .iter()
            .map(|&s| ScheduledColor {
                drive: self.drive(s),
                duration,
            })
            .collect();
        LedEmitter::new(self.led, pwm_frequency, &slots)
    }

    /// The duty budget shared by the three dies.
    pub fn power_budget(&self) -> f64 {
        self.power_budget
    }
}

/// Solve drive levels for chromaticity `c` such that the duties sum to
/// `budget` (constant radiated PWM power). Thin wrapper around
/// [`TriLed::solve_constant_power`], kept for API stability.
pub fn solve_constant_power(
    led: &TriLed,
    c: colorbars_color::Chromaticity,
    budget: f64,
) -> Option<DriveLevels> {
    led.solve_constant_power(c, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constellation::CskOrder;
    use colorbars_color::Chromaticity;

    fn mapper(order: CskOrder) -> SymbolMapper {
        let led = TriLed::typical();
        let cons = Constellation::ieee_style(order, led.gamut());
        SymbolMapper::new(led, cons)
    }

    #[test]
    fn off_is_dark_white_is_white() {
        let m = mapper(CskOrder::Csk8);
        assert!(m.emitted(Symbol::Off).is_dark(1e-9));
        let w = m.emitted(Symbol::White).chromaticity();
        let expect = m.led().full_drive_white().chromaticity();
        assert!(w.distance(expect) < 1e-9, "{w:?}");
    }

    #[test]
    fn color_drives_hit_constellation_chromaticities() {
        let m = mapper(CskOrder::Csk16);
        for i in 0..16u16 {
            let got = m.emitted(Symbol::Color(i)).chromaticity();
            let want = m.constellation().point(i as usize);
            assert!(got.distance(want) < 1e-6, "symbol {i}: {got:?} vs {want:?}");
        }
    }

    #[test]
    fn all_symbols_share_the_power_budget() {
        let m = mapper(CskOrder::Csk32);
        let budget = m.power_budget();
        for i in 0..32u16 {
            let d = m.drive(Symbol::Color(i));
            let sum = d.r + d.g + d.b;
            assert!((sum - budget).abs() < 1e-9, "symbol {i}: power {sum}");
            assert!(d.is_realizable(), "symbol {i}: {d:?}");
        }
        let dw = m.drive(Symbol::White);
        assert!((dw.r + dw.g + dw.b - budget).abs() < 1e-9);
    }

    #[test]
    fn schedule_has_right_duration() {
        let m = mapper(CskOrder::Csk4);
        let syms = vec![
            Symbol::Off,
            Symbol::White,
            Symbol::Color(0),
            Symbol::Color(3),
        ];
        let e = m.schedule(&syms, 2000.0, 200_000.0);
        assert!((e.duration() - 4.0 / 2000.0).abs() < 1e-12);
    }

    #[test]
    fn vertices_are_drivable_at_unit_budget() {
        let led = TriLed::typical();
        for v in [led.gamut().red, led.gamut().green, led.gamut().blue] {
            let d = solve_constant_power(&led, v, 1.0).expect("vertex drivable");
            assert!(d.is_realizable());
            assert!((d.r + d.g + d.b - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn out_of_gamut_is_not_drivable() {
        let led = TriLed::typical();
        assert!(solve_constant_power(&led, Chromaticity::new(0.9, 0.05), 1.0).is_none());
    }

    #[test]
    fn symbol_predicates() {
        assert!(Symbol::Off.is_off());
        assert!(Symbol::White.is_white());
        assert!(!Symbol::Color(7).is_white());
    }

    #[test]
    #[should_panic(expected = "cannot schedule zero symbols")]
    fn empty_schedule_panics() {
        let m = mapper(CskOrder::Csk4);
        let _ = m.schedule(&[], 1000.0, 200_000.0);
    }
}
