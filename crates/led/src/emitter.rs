//! The symbol-schedule emitter: the LED's optical output as a function of
//! time, integrable over arbitrary windows.
//!
//! The ColorBars transmitter changes the tri-LED's color once per symbol
//! period. A rolling-shutter camera scanline then *integrates* the emitted
//! light over its exposure window — a window that generally straddles symbol
//! boundaries, which is precisely the inter-symbol-interference mechanism
//! the paper's Fig 9 measures. [`LedEmitter::integrate`] computes the exact
//! piecewise integral: within each symbol the drive is constant, and the
//! three PWM channels contribute their own analytic integrals.
//!
//! ## The fast path
//!
//! `integrate` is the hottest function of the whole harness: every scanline
//! of every simulated frame integrates one window, and a sweep renders
//! millions of scanlines. Two precomputations make a window O(1) in the
//! number of slots it spans, instead of a slot walk that re-derives per-die
//! colorimetry:
//!
//! * **Per-die peak XYZ.** Each die's duty-1.0 emission is a constant of
//!   the LED; it is computed once at construction instead of three matrix
//!   products per overlapped slot per scanline.
//! * **Per-die ON-time prefix sums.** `cum_on[i]` holds each die's
//!   accumulated PWM ON-seconds over slots `[0, i)`. Once the two boundary
//!   slots are known, a window integral needs only two partial-slot PWM
//!   terms and one prefix-sum difference for all interior slots —
//!   regardless of how many slots the window spans.
//!
//! The boundary slots are found in one of two ways. A single window
//! ([`LedEmitter::integrate`]) binary-searches the slot starts. A rolling
//! shutter's rows ([`LedEmitter::row_means`]) expose windows one
//! `row_time` apart, each starting where the last one did plus a small
//! step, so each row walks its head and tail slot on from the previous
//! row's, usually by zero or one slot. Both share one head/middle/tail
//! body, so they agree bit for bit.
//!
//! The original slot walk is retained as [`LedEmitter::integrate_reference`]
//! and the test suite asserts the two agree to ≈1e-12 on adversarial
//! windows (schedule edges, slot boundaries, duty-0 dies).

use crate::pwm::PwmChannel;
use crate::tri_led::{DriveLevels, TriLed};
use colorbars_color::Xyz;

/// One scheduled color: the drive levels to hold for `duration` seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledColor {
    /// PWM duty cycles for the three dies during this slot.
    pub drive: DriveLevels,
    /// Slot duration in seconds (one symbol period).
    pub duration: f64,
}

/// A tri-LED executing a drive schedule starting at `t = 0`.
///
/// Before the schedule starts and after it ends the LED is dark. Slot
/// boundaries are cumulative sums of durations. A window's integral costs
/// a binary search for its two boundary slots (`O(log n)`) plus constant
/// work, or, for a rolling shutter's rows, a walk from the previous row's
/// boundary slots plus constant work.
#[derive(Debug, Clone)]
pub struct LedEmitter {
    led: TriLed,
    pwm_frequency: f64,
    /// Slot start times; `starts[i]` is when slot `i` begins. One extra
    /// entry holds the schedule end time.
    starts: Vec<f64>,
    slots: Vec<DriveLevels>,
    /// Duty-1.0 emission of each die alone (r, g, b) — the colorimetric
    /// constants of the window integral, hoisted out of the per-row path.
    peak: [Xyz; 3],
    /// `cum_on[i][die]` = PWM ON-seconds die `die` accumulates over slots
    /// `[0, i)`. Length `slots.len() + 1`; `cum_on[0]` is all zeros.
    cum_on: Vec<[f64; 3]>,
}

impl LedEmitter {
    /// Build an emitter for `led` executing `schedule`, with all PWM
    /// channels running at `pwm_frequency` Hz.
    ///
    /// # Panics
    /// Panics if any slot duration is non-positive or non-finite, or the
    /// PWM frequency is invalid.
    pub fn new(led: TriLed, pwm_frequency: f64, schedule: &[ScheduledColor]) -> LedEmitter {
        assert!(
            pwm_frequency.is_finite() && pwm_frequency > 0.0,
            "PWM frequency must be positive"
        );
        let mut starts = Vec::with_capacity(schedule.len() + 1);
        let mut slots = Vec::with_capacity(schedule.len());
        let mut t = 0.0;
        for (i, s) in schedule.iter().enumerate() {
            assert!(
                s.duration.is_finite() && s.duration > 0.0,
                "slot {i} has invalid duration {}",
                s.duration
            );
            starts.push(t);
            slots.push(s.drive);
            t += s.duration;
        }
        starts.push(t);
        let peak = [
            led.emit(DriveLevels::new(1.0, 0.0, 0.0)),
            led.emit(DriveLevels::new(0.0, 1.0, 0.0)),
            led.emit(DriveLevels::new(0.0, 0.0, 1.0)),
        ];
        let mut cum_on = Vec::with_capacity(slots.len() + 1);
        let mut acc = [0.0f64; 3];
        cum_on.push(acc);
        for (i, d) in slots.iter().enumerate() {
            let (lo, hi) = (starts[i], starts[i + 1]);
            for (die, duty) in [d.r, d.g, d.b].into_iter().enumerate() {
                acc[die] += on_prefix(pwm_frequency, duty, hi) - on_prefix(pwm_frequency, duty, lo);
            }
            cum_on.push(acc);
        }
        LedEmitter {
            led,
            pwm_frequency,
            starts,
            slots,
            peak,
            cum_on,
        }
    }

    /// Total schedule duration in seconds.
    pub fn duration(&self) -> f64 {
        *self.starts.last().expect("starts always has an end entry")
    }

    /// The LED being driven.
    pub fn led(&self) -> &TriLed {
        &self.led
    }

    /// Exact integral of emitted light over `[t0, t1]`, in XYZ·seconds.
    ///
    /// This is the quantity a photodiode accumulates over an exposure
    /// window. Windows extending beyond the schedule integrate darkness
    /// there.
    ///
    /// Cost is `O(log n)` in the number of slots: two binary searches for
    /// the boundary slots, two partial-slot PWM terms, and one prefix-sum
    /// difference for the whole interior.
    /// [`LedEmitter::integrate_reference`] is the equivalent slot walk kept
    /// for verification.
    pub fn integrate(&self, t0: f64, t1: f64) -> Xyz {
        let Some((t0, t1)) = self.clip(t0, t1) else {
            return Xyz::BLACK;
        };
        // Boundary slots: the head contains t0; the tail contains t1 (when
        // t1 lands exactly on a slot start, the *previous* slot is the one
        // that contributes, which `s < t1` naturally selects).
        let slots = BoundarySlots {
            head: self.starts.partition_point(|&s| s <= t0) - 1,
            tail: (self.starts.partition_point(|&s| s < t1) - 1).min(self.slots.len() - 1),
        };
        self.integrate_between(t0, t1, slots)
    }

    /// Mean emitted light over each row window of a rolling shutter: item
    /// `r` is [`LedEmitter::mean`] over `[t0, t0 + exposure]` with
    /// `t0 = start + r·row_time`, bit for bit. The iterator never ends;
    /// zip it with the rows. Each window's boundary slots are found by
    /// walking from the previous window's, so rows one `row_time` apart
    /// cost constant work each; windows that repeat or move backwards
    /// (`row_time ≤ 0`) walk back and stay exact.
    pub fn row_means(&self, start: f64, row_time: f64, exposure: f64) -> RowMeans<'_> {
        RowMeans {
            emitter: self,
            start,
            row_time,
            exposure,
            row: 0,
            slots: BoundarySlots { head: 0, tail: 0 },
        }
    }

    /// `[t0, t1]` clipped to the schedule, or `None` when nothing of the
    /// window is lit.
    fn clip(&self, t0: f64, t1: f64) -> Option<(f64, f64)> {
        if t1 <= t0 || self.slots.is_empty() {
            return None;
        }
        let (t0, t1) = (t0.max(0.0), t1.min(self.duration()));
        (t1 > t0).then_some((t0, t1))
    }

    /// `slots` moved to the boundary slots of the clipped window
    /// `[t0, t1]`: the same slots `integrate`'s binary searches find.
    fn seek(&self, t0: f64, t1: f64, slots: BoundarySlots) -> BoundarySlots {
        BoundarySlots {
            head: self.walk(slots.head, self.slots.len(), |s| s <= t0),
            tail: self.walk(slots.tail, self.slots.len() - 1, |s| s < t1),
        }
    }

    /// The last index `j ≤ last` with `below(starts[j])`, found by walking
    /// from `from`. `below` must hold for `starts[0] = 0` and be monotone
    /// over the (non-decreasing) starts, as `partition_point` requires.
    fn walk(&self, from: usize, last: usize, below: impl Fn(f64) -> bool) -> usize {
        let mut j = from.min(last);
        while !below(self.starts[j]) {
            j -= 1;
        }
        while j < last && below(self.starts[j + 1]) {
            j += 1;
        }
        j
    }

    /// The integral over a clipped window `[t0, t1]` whose head slot
    /// contains `t0` and whose tail slot contains `t1`.
    fn integrate_between(&self, t0: f64, t1: f64, slots: BoundarySlots) -> Xyz {
        let BoundarySlots { head: j0, tail: j1 } = slots;
        let mut on = [0.0f64; 3];
        let d0 = self.slots[j0];
        if j0 == j1 {
            // Window inside a single slot: one pair of partial PWM terms.
            for (die, duty) in [d0.r, d0.g, d0.b].into_iter().enumerate() {
                on[die] = on_prefix(self.pwm_frequency, duty, t1)
                    - on_prefix(self.pwm_frequency, duty, t0);
            }
        } else {
            let d1 = self.slots[j1];
            let head_end = self.starts[j0 + 1];
            let tail_start = self.starts[j1];
            let duties = [(d0.r, d1.r), (d0.g, d1.g), (d0.b, d1.b)];
            for (die, out) in on.iter_mut().enumerate() {
                let (duty0, duty1) = duties[die];
                let head = on_prefix(self.pwm_frequency, duty0, head_end)
                    - on_prefix(self.pwm_frequency, duty0, t0);
                let middle = self.cum_on[j1][die] - self.cum_on[j0 + 1][die];
                let tail = on_prefix(self.pwm_frequency, duty1, t1)
                    - on_prefix(self.pwm_frequency, duty1, tail_start);
                *out = head + middle + tail;
            }
        }
        self.peak[0]
            .scale(on[0])
            .add(self.peak[1].scale(on[1]))
            .add(self.peak[2].scale(on[2]))
    }

    /// The original per-slot walk `integrate` replaced — kept as the
    /// reference implementation the equivalence tests (and benches) compare
    /// against. Prefer [`LedEmitter::integrate`] everywhere else.
    pub fn integrate_reference(&self, t0: f64, t1: f64) -> Xyz {
        if t1 <= t0 || self.slots.is_empty() {
            return Xyz::BLACK;
        }
        let t0 = t0.max(0.0);
        let t1 = t1.min(self.duration());
        if t1 <= t0 {
            return Xyz::BLACK;
        }
        // First slot overlapping the window.
        let mut i = self.starts.partition_point(|&s| s <= t0) - 1;
        let mut acc = Xyz::BLACK;
        while i < self.slots.len() && self.starts[i] < t1 {
            let lo = self.starts[i].max(t0);
            let hi = self.starts[i + 1].min(t1);
            if hi > lo {
                let d = self.slots[i];
                let on = |duty: f64| PwmChannel::new(self.pwm_frequency, duty).integrate(lo, hi);
                // Each die's contribution: peak emission × ON seconds.
                let contrib = self
                    .led
                    .emit(DriveLevels::new(1.0, 0.0, 0.0))
                    .scale(on(d.r))
                    .add(
                        self.led
                            .emit(DriveLevels::new(0.0, 1.0, 0.0))
                            .scale(on(d.g)),
                    )
                    .add(
                        self.led
                            .emit(DriveLevels::new(0.0, 0.0, 1.0))
                            .scale(on(d.b)),
                    );
                acc = acc.add(contrib);
            }
            i += 1;
        }
        acc
    }

    /// Mean emitted light over `[t0, t1]` (integral / window length).
    pub fn mean(&self, t0: f64, t1: f64) -> Xyz {
        if t1 <= t0 {
            return Xyz::BLACK;
        }
        self.integrate(t0, t1).scale(1.0 / (t1 - t0))
    }
}

/// The head and tail slot of an integration window: the slots containing
/// its start and its end.
#[derive(Debug, Clone, Copy)]
struct BoundarySlots {
    head: usize,
    tail: usize,
}

/// Iterator over a rolling shutter's row-window means; see
/// [`LedEmitter::row_means`]. It carries the previous row's boundary slots,
/// so the emitter itself holds no cursor.
#[derive(Debug, Clone)]
pub struct RowMeans<'a> {
    emitter: &'a LedEmitter,
    start: f64,
    row_time: f64,
    exposure: f64,
    row: usize,
    slots: BoundarySlots,
}

impl Iterator for RowMeans<'_> {
    type Item = Xyz;

    fn next(&mut self) -> Option<Xyz> {
        let t0 = self.start + self.row as f64 * self.row_time;
        let t1 = t0 + self.exposure;
        self.row += 1;
        // `mean`'s operations, with `integrate`'s searches replaced by the
        // walk from the previous row's slots.
        if t1 <= t0 {
            return Some(Xyz::BLACK);
        }
        let integral = match self.emitter.clip(t0, t1) {
            None => Xyz::BLACK,
            Some((c0, c1)) => {
                self.slots = self.emitter.seek(c0, c1, self.slots);
                self.emitter.integrate_between(c0, c1, self.slots)
            }
        };
        Some(integral.scale(1.0 / (t1 - t0)))
    }
}

/// Cumulative PWM ON-seconds from `t = 0` to `t`, for a square wave of the
/// given carrier frequency and duty (clamped to `[0, 1]` like
/// [`PwmChannel::new`] does). This is the same prefix function
/// [`PwmChannel::integrate`] evaluates — whole periods contribute
/// `duty·T` each, the fractional remainder is clipped at the ON time — so
/// the prefix-sum path is term-for-term identical to the slot walk.
#[inline]
fn on_prefix(frequency: f64, duty: f64, t: f64) -> f64 {
    let duty = duty.clamp(0.0, 1.0);
    if duty >= 1.0 {
        return t;
    }
    if duty <= 0.0 {
        return 0.0;
    }
    let period = 1.0 / frequency;
    let on_time = duty * period;
    let whole = (t / period).floor();
    let frac = t - whole * period;
    whole * on_time + frac.min(on_time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use colorbars_color::Chromaticity;

    fn emitter(slots: &[(f64, f64, f64, f64)]) -> LedEmitter {
        // (r, g, b, duration)
        let sched: Vec<ScheduledColor> = slots
            .iter()
            .map(|&(r, g, b, d)| ScheduledColor {
                drive: DriveLevels::new(r, g, b),
                duration: d,
            })
            .collect();
        LedEmitter::new(TriLed::typical(), 200_000.0, &sched)
    }

    #[test]
    fn duration_is_sum_of_slots() {
        let e = emitter(&[(1.0, 0.0, 0.0, 0.001), (0.0, 1.0, 0.0, 0.002)]);
        assert!((e.duration() - 0.003).abs() < 1e-15);
    }

    #[test]
    fn integral_of_constant_full_slot_matches_emit() {
        let e = emitter(&[(1.0, 1.0, 1.0, 0.01)]);
        let got = e.integrate(0.0, 0.01);
        let expect = e.led().full_drive_white().scale(0.01);
        assert!(got.to_vec3().max_abs_diff(expect.to_vec3()) < 1e-12);
    }

    #[test]
    fn window_straddling_two_slots_mixes_colors() {
        // 1 ms of pure red then 1 ms of pure green; a window covering the
        // boundary equally sees the average — the ISI mechanism.
        let e = emitter(&[(1.0, 0.0, 0.0, 0.001), (0.0, 1.0, 0.0, 0.001)]);
        let mixed = e.mean(0.0005, 0.0015);
        let red = e.led().emit(DriveLevels::new(1.0, 0.0, 0.0));
        let green = e.led().emit(DriveLevels::new(0.0, 1.0, 0.0));
        let expect = red.add(green).scale(0.5);
        assert!(mixed.to_vec3().max_abs_diff(expect.to_vec3()) < 1e-9);
    }

    #[test]
    fn windows_outside_schedule_are_dark() {
        let e = emitter(&[(1.0, 1.0, 1.0, 0.001)]);
        assert_eq!(e.integrate(0.002, 0.003), Xyz::BLACK);
        assert_eq!(e.integrate(-0.002, -0.001), Xyz::BLACK);
        // Window half inside: only the inside half accumulates.
        let half = e.integrate(0.0005, 0.0015);
        let expect = e.led().full_drive_white().scale(0.0005);
        assert!(half.to_vec3().max_abs_diff(expect.to_vec3()) < 1e-12);
    }

    #[test]
    fn integral_is_additive_across_many_slots() {
        let slots: Vec<(f64, f64, f64, f64)> = (0..20)
            .map(|i| {
                let f = i as f64 / 20.0;
                (f, 1.0 - f, 0.5, 0.0004)
            })
            .collect();
        let e = emitter(&slots);
        let a = e.integrate(0.0, 0.0031);
        let b = e.integrate(0.0031, e.duration());
        let whole = e.integrate(0.0, e.duration());
        assert!(a.add(b).to_vec3().max_abs_diff(whole.to_vec3()) < 1e-12);
    }

    #[test]
    fn half_duty_emits_half_light() {
        let full = emitter(&[(1.0, 1.0, 1.0, 0.01)]);
        let half = emitter(&[(0.5, 0.5, 0.5, 0.01)]);
        let f = full.integrate(0.0, 0.01);
        let h = half.integrate(0.0, 0.01);
        assert!(h.to_vec3().max_abs_diff(f.scale(0.5).to_vec3()) < 1e-9);
    }

    #[test]
    fn solved_color_integrates_to_target_chromaticity() {
        let led = TriLed::typical();
        let target = Chromaticity::new(0.3, 0.45);
        let drive = led.solve_drive(target, 0.05).unwrap();
        let e = LedEmitter::new(
            led,
            200_000.0,
            &[ScheduledColor {
                drive,
                duration: 0.01,
            }],
        );
        // Integrate over many whole PWM periods.
        let mean = e.mean(0.0, 0.01);
        let c = mean.chromaticity();
        assert!((c.x - target.x).abs() < 1e-6, "{c:?}");
        assert!((c.y - target.y).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn zero_duration_slot_panics() {
        let _ = emitter(&[(1.0, 0.0, 0.0, 0.0)]);
    }

    /// Deterministic pseudo-random f64 in [0, 1) for schedule fuzzing
    /// without pulling a fuzzer into the unit tests.
    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*state >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn prefix_sum_matches_reference_on_random_windows() {
        // A long, irregular schedule (mixed durations and duties, including
        // duty-0 and duty-1 dies) probed by windows of many scales.
        let mut s = 0x5EED_1234u64;
        let slots: Vec<(f64, f64, f64, f64)> = (0..500)
            .map(|i| {
                let duty = |v: f64| match i % 7 {
                    0 => 0.0,
                    1 => 1.0,
                    _ => v,
                };
                (
                    duty(lcg(&mut s)),
                    duty(lcg(&mut s)),
                    duty(lcg(&mut s)),
                    0.0001 + 0.0005 * lcg(&mut s),
                )
            })
            .collect();
        let e = emitter(&slots);
        let dur = e.duration();
        for _ in 0..400 {
            let a = lcg(&mut s) * dur * 1.2 - 0.1 * dur;
            let len = lcg(&mut s) * lcg(&mut s) * dur * 0.5;
            let (t0, t1) = (a, a + len);
            let fast = e.integrate(t0, t1);
            let slow = e.integrate_reference(t0, t1);
            assert!(
                fast.to_vec3().max_abs_diff(slow.to_vec3()) < 1e-12,
                "window [{t0}, {t1}]: fast {fast:?} vs reference {slow:?}"
            );
        }
    }

    #[test]
    fn prefix_sum_matches_reference_at_schedule_edges() {
        let e = emitter(&[
            (1.0, 0.0, 0.5, 0.001),
            (0.0, 1.0, 0.0, 0.002),
            (0.3, 0.3, 0.3, 0.0015),
        ]);
        let dur = e.duration();
        let b1 = 0.001;
        let b2 = 0.003;
        let cases: &[(f64, f64)] = &[
            // Exactly the whole schedule, and windows pinned to boundaries.
            (0.0, dur),
            (0.0, b1),
            (b1, b2),
            (b2, dur),
            (b1, dur),
            // Straddling a single boundary from both sides.
            (b1 - 1e-5, b1 + 1e-5),
            (b2 - 1e-7, b2 + 1e-7),
            // Spanning all boundaries at once.
            (b1 - 2e-4, dur - 1e-6),
            // Degenerate and out-of-schedule windows.
            (dur, dur + 0.01),
            (-0.01, 0.0),
            (-0.5, 2.0 * dur),
            (b1, b1),
        ];
        for &(t0, t1) in cases {
            let fast = e.integrate(t0, t1);
            let slow = e.integrate_reference(t0, t1);
            assert!(
                fast.to_vec3().max_abs_diff(slow.to_vec3()) < 1e-12,
                "window [{t0}, {t1}]"
            );
        }
    }

    #[test]
    fn prefix_sum_handles_duty_zero_dies() {
        // A die at duty 0 must contribute nothing, not even the instant
        // at the start of each PWM period.
        let e = emitter(&[(0.0, 0.7, 0.0, 0.002), (0.0, 0.0, 0.0, 0.001)]);
        let got = e.integrate(0.0, e.duration());
        let green_only = e.led().emit(DriveLevels::new(0.0, 1.0, 0.0));
        // Only the green die's ON time contributes; chromaticity matches
        // the green primary exactly.
        let c = got.chromaticity();
        let cg = green_only.chromaticity();
        assert!((c.x - cg.x).abs() < 1e-9 && (c.y - cg.y).abs() < 1e-9);
        // The all-off slot is dark under both paths.
        assert_eq!(e.integrate(0.002, 0.003), Xyz::BLACK);
        assert_eq!(e.integrate_reference(0.002, 0.003), Xyz::BLACK);
    }

    /// Assert that `row_means` yields `mean` over each of `rows` windows,
    /// bit for bit.
    fn assert_row_means_match(
        e: &LedEmitter,
        start: f64,
        row_time: f64,
        exposure: f64,
        rows: usize,
    ) {
        let walked = e.row_means(start, row_time, exposure).take(rows);
        for (r, got) in walked.enumerate() {
            let t0 = start + r as f64 * row_time;
            let want = e.mean(t0, t0 + exposure);
            assert_eq!(
                got.to_vec3().0.map(f64::to_bits),
                want.to_vec3().0.map(f64::to_bits),
                "row {r} of start {start}, row time {row_time}, exposure {exposure}"
            );
        }
    }

    #[test]
    fn row_means_match_mean_on_slot_aligned_windows() {
        // Slots 2⁻¹⁰ s long start on exact binary fractions, and rows 2⁻¹²
        // s apart with 2⁻¹¹ s exposures start and end exactly on a slot
        // start every fourth row. The rows begin before 0 and run past
        // `duration()`; backwards, from past the end to before 0; and
        // repeated, on one aligned window and on one straddling window.
        let slots: Vec<(f64, f64, f64, f64)> = (0..20)
            .map(|i| {
                let f = f64::from(i) / 20.0;
                (
                    f,
                    1.0 - f,
                    if i % 3 == 0 { 0.0 } else { 0.5 },
                    2f64.powi(-10),
                )
            })
            .collect();
        let e = emitter(&slots);
        let (slot, row, exposure) = (2f64.powi(-10), 2f64.powi(-12), 2f64.powi(-11));
        assert_row_means_match(&e, -8.0 * row, row, exposure, 100);
        assert_row_means_match(&e, e.duration() + 4.0 * row, -row, exposure, 100);
        assert_row_means_match(&e, 3.0 * slot, 0.0, exposure, 5);
        assert_row_means_match(&e, 3.5 * slot, 0.0, 2.0 * slot, 5);
        // Windows longer than a slot, and empty or negative exposures.
        assert_row_means_match(&e, -slot, row, 3.0 * slot, 120);
        assert_row_means_match(&e, 0.0, row, 0.0, 8);
        assert_row_means_match(&e, slot, row, -row, 8);
    }

    #[test]
    fn row_means_match_mean_on_irregular_schedules() {
        // Irregular slots probed by rolling shutters of many speeds: rows
        // that stay inside one slot for many steps, rows that cross
        // several slots per step, and the same rows in reverse.
        let mut s = 0x0DD_5EEDu64;
        let slots: Vec<(f64, f64, f64, f64)> = (0..300)
            .map(|_| {
                (
                    lcg(&mut s),
                    lcg(&mut s),
                    lcg(&mut s),
                    0.0001 + 0.0005 * lcg(&mut s),
                )
            })
            .collect();
        let e = emitter(&slots);
        let dur = e.duration();
        for _ in 0..60 {
            let start = lcg(&mut s) * dur * 1.2 - 0.1 * dur;
            let row_time = (lcg(&mut s) - 0.3) * 2e-4;
            let exposure = lcg(&mut s) * lcg(&mut s) * 2e-3;
            assert_row_means_match(&e, start, row_time, exposure, 400);
        }
    }

    #[test]
    fn row_means_of_an_empty_schedule_are_dark() {
        let e = LedEmitter::new(TriLed::typical(), 200_000.0, &[]);
        assert_row_means_match(&e, -1e-3, 1e-5, 4e-5, 10);
    }
}
