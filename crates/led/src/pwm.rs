//! Pulse-width-modulation channel with exact windowed integration.
//!
//! A PWM channel drives one LED die: within each PWM period `T`, the output
//! is ON for `duty·T` seconds and OFF for the remainder. The perceived (and
//! camera-integrated) brightness is the *time integral* of this square wave.
//!
//! A rolling-shutter scanline exposes for a window `[t0, t1]` that is in
//! general not aligned to PWM periods. Sampling the wave at a fixed rate
//! would alias against both the PWM frequency and the scanline cadence, so
//! [`PwmChannel::integrate`] computes the closed-form integral instead:
//! whole periods contribute `duty·T` each, and the fractional head and tail
//! periods contribute `min(frac, duty·T)` of ON time.

/// One PWM output channel.
///
/// `frequency` is the carrier frequency in Hz (the prototype's PWM runs far
/// above the symbol rate — hundreds of kHz on the BeagleBone — so within any
/// one exposure window many periods elapse). `duty` is the ON fraction in
/// `[0, 1]`. The phase is taken as 0 at `t = 0` (ON-first within a period).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PwmChannel {
    frequency: f64,
    duty: f64,
}

impl PwmChannel {
    /// Create a channel. `frequency` must be positive and finite; `duty` is
    /// clamped into `[0, 1]`.
    ///
    /// # Panics
    /// Panics if `frequency` is not a positive finite number.
    pub fn new(frequency: f64, duty: f64) -> PwmChannel {
        assert!(
            frequency.is_finite() && frequency > 0.0,
            "PWM frequency must be positive, got {frequency}"
        );
        PwmChannel {
            frequency,
            duty: duty.clamp(0.0, 1.0),
        }
    }

    /// Carrier frequency in Hz.
    pub fn frequency(&self) -> f64 {
        self.frequency
    }

    /// Current duty cycle in `[0, 1]`.
    pub fn duty(&self) -> f64 {
        self.duty
    }

    /// Instantaneous output at time `t`: `1.0` when ON, `0.0` when OFF —
    /// the square wave the tests sample to check [`PwmChannel::integrate`].
    #[cfg(test)]
    pub(crate) fn level_at(&self, t: f64) -> f64 {
        if self.duty >= 1.0 {
            return 1.0;
        }
        if self.duty <= 0.0 {
            return 0.0;
        }
        let period = 1.0 / self.frequency;
        let phase = t.rem_euclid(period) / period;
        if phase < self.duty {
            1.0
        } else {
            0.0
        }
    }

    /// Exact integral of the output over `[t0, t1]`, in seconds of ON time.
    ///
    /// Returns 0 for empty or inverted windows.
    pub fn integrate(&self, t0: f64, t1: f64) -> f64 {
        if t1 <= t0 {
            return 0.0;
        }
        if self.duty >= 1.0 {
            return t1 - t0;
        }
        if self.duty <= 0.0 {
            return 0.0;
        }
        let period = 1.0 / self.frequency;
        let on_time = self.duty * period;
        // Integral of the wave from 0 to t: full periods plus the clipped
        // fractional remainder. Using a prefix function keeps the window
        // integral exact: ∫[t0,t1] = F(t1) − F(t0).
        let prefix = |t: f64| -> f64 {
            // Shift negative times into the periodic domain consistently.
            let whole = (t / period).floor();
            let frac = t - whole * period;
            whole * on_time + frac.min(on_time)
        };
        prefix(t1) - prefix(t0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_and_zero_duty() {
        let on = PwmChannel::new(1000.0, 1.0);
        let off = PwmChannel::new(1000.0, 0.0);
        assert_eq!(on.integrate(0.0, 0.5), 0.5);
        assert_eq!(off.integrate(0.0, 0.5), 0.0);
        assert_eq!(on.level_at(0.123), 1.0);
        assert_eq!(off.level_at(0.123), 0.0);
    }

    #[test]
    fn whole_period_integral_equals_duty() {
        let p = PwmChannel::new(200.0, 0.3);
        let period = 1.0 / 200.0;
        for k in 0..5 {
            let t0 = k as f64 * period;
            let got = p.integrate(t0, t0 + period);
            assert!((got - 0.3 * period).abs() < 1e-15, "k = {k}");
        }
    }

    #[test]
    fn partial_window_inside_on_phase() {
        // 100 Hz, 50% duty: ON during [0, 5 ms). Window [1 ms, 3 ms] is
        // entirely ON.
        let p = PwmChannel::new(100.0, 0.5);
        assert!((p.integrate(0.001, 0.003) - 0.002).abs() < 1e-15);
        // Window [6 ms, 9 ms] is entirely OFF.
        assert!(p.integrate(0.006, 0.009).abs() < 1e-15);
        // Window [4 ms, 6 ms] straddles: 1 ms ON.
        assert!((p.integrate(0.004, 0.006) - 0.001).abs() < 1e-15);
    }

    #[test]
    fn integral_is_additive() {
        let p = PwmChannel::new(333.0, 0.42);
        let a = p.integrate(0.0001, 0.0077);
        let b = p.integrate(0.0077, 0.0123);
        let whole = p.integrate(0.0001, 0.0123);
        assert!((a + b - whole).abs() < 1e-12);
    }

    #[test]
    fn integral_matches_dense_sampling() {
        let p = PwmChannel::new(517.0, 0.37);
        let (t0, t1) = (0.00031, 0.00972);
        let n = 2_000_000;
        let dt = (t1 - t0) / n as f64;
        let mut acc = 0.0;
        for i in 0..n {
            acc += p.level_at(t0 + (i as f64 + 0.5) * dt) * dt;
        }
        let exact = p.integrate(t0, t1);
        assert!((acc - exact).abs() < 1e-6, "sampled {acc} vs exact {exact}");
    }

    #[test]
    fn long_windows_average_to_the_duty() {
        let p = PwmChannel::new(100_000.0, 0.64);
        let mean = p.integrate(0.0, 0.05) / 0.05;
        assert!((mean - 0.64).abs() < 1e-3);
    }

    #[test]
    fn empty_and_inverted_windows() {
        let p = PwmChannel::new(1000.0, 0.5);
        assert_eq!(p.integrate(0.5, 0.5), 0.0);
        assert_eq!(p.integrate(0.6, 0.5), 0.0);
    }

    #[test]
    fn duty_is_clamped() {
        let p = PwmChannel::new(1000.0, 1.7);
        assert_eq!(p.duty(), 1.0);
        assert_eq!(PwmChannel::new(1000.0, -3.0).duty(), 0.0);
    }

    #[test]
    #[should_panic(expected = "PWM frequency must be positive")]
    fn zero_frequency_panics() {
        let _ = PwmChannel::new(0.0, 0.5);
    }

    #[test]
    fn negative_time_windows_are_consistent() {
        let p = PwmChannel::new(250.0, 0.25);
        // The prefix-function formulation must stay additive across t = 0.
        let a = p.integrate(-0.003, 0.0);
        let b = p.integrate(0.0, 0.003);
        let whole = p.integrate(-0.003, 0.003);
        assert!((a + b - whole).abs() < 1e-12);
    }
}
