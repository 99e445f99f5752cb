//! Transmitter platform limits.
//!
//! The paper implements the transmitter on a BeagleBone Black and measures
//! the maximum rate at which the board can retarget the three PWM channels:
//! "we empirically find the maximum frequency of color change supported by
//! the BeagleBone board to be less than 4500 Hz" (Section 8). The platform
//! model enforces this ceiling so experiments cannot silently assume
//! hardware the prototype did not have.

/// A transmitter platform: what the controller driving the LED can do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Platform {
    /// Human-readable name.
    pub name: &'static str,
    /// Maximum color-change (symbol) rate in Hz.
    pub max_symbol_rate: f64,
    /// PWM carrier frequency in Hz.
    pub pwm_frequency: f64,
}

impl Platform {
    /// The BeagleBone Black used by the prototype: < 4.5 kHz color changes,
    /// with hardware PWM running near 200 kHz.
    pub const BEAGLEBONE_BLACK: Platform = Platform {
        name: "BeagleBone Black",
        max_symbol_rate: 4500.0,
        pwm_frequency: 200_000.0,
    };

    /// `true` when the platform can emit symbols at `rate` Hz.
    pub fn supports_symbol_rate(&self, rate: f64) -> bool {
        rate.is_finite() && rate > 0.0 && rate <= self.max_symbol_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beaglebone_supports_paper_operating_points() {
        let p = Platform::BEAGLEBONE_BLACK;
        for rate in [500.0, 1000.0, 2000.0, 3000.0, 4000.0] {
            assert!(p.supports_symbol_rate(rate), "{rate} Hz");
        }
        // The paper could not test 5000 Hz on the board.
        assert!(!p.supports_symbol_rate(5000.0));
    }

    #[test]
    fn invalid_rates_rejected() {
        let p = Platform::BEAGLEBONE_BLACK;
        assert!(!p.supports_symbol_rate(0.0));
        assert!(!p.supports_symbol_rate(-100.0));
        assert!(!p.supports_symbol_rate(f64::NAN));
        assert!(!p.supports_symbol_rate(f64::INFINITY));
    }
}
