//! White illumination-symbol insertion (paper Section 4).
//!
//! A fraction `w` of every packet's payload slots is spent on dedicated
//! white symbols so the luminaire stays perceptually white regardless of
//! data. `w` depends on the symbol frequency (Fig 3(b)): faster symbols
//! average out within the eye's critical duration on their own, so less
//! white is needed.
//!
//! Two parts live here:
//!
//! * [`WhiteRatioTable`] — the frequency → minimum-white-ratio curve. The
//!   default table encodes the shape of the paper's Fig 3(b) (volunteers'
//!   minimum, decreasing from ~60% at 500 Hz to ~18% at 5 kHz); the
//!   `colorbars-flicker` crate regenerates this curve from the simulated
//!   observer panel (bench `fig3b_flicker`).
//! * [`is_white_position`] — the deterministic payload-position rule shared
//!   by transmitter and receiver, so the receiver can strip illumination
//!   symbols without any side channel: position `i` is white iff the
//!   accumulated white quota `⌊(i+1)·w⌋` increments at `i`.

/// A piecewise-linear frequency → white-ratio curve.
#[derive(Debug, Clone, PartialEq)]
pub struct WhiteRatioTable {
    /// `(symbol_rate_hz, white_ratio)` knots, sorted by rate.
    knots: &'static [(f64, f64)],
}

impl WhiteRatioTable {
    /// The paper's Fig 3(b) curve (shape transcribed from the figure: the
    /// minimum white percentage over ten volunteers at each frequency).
    pub fn paper_fig3b() -> WhiteRatioTable {
        WhiteRatioTable {
            knots: &[
                (500.0, 0.60),
                (1000.0, 0.45),
                (2000.0, 0.33),
                (3000.0, 0.27),
                (4000.0, 0.22),
                (5000.0, 0.18),
            ],
        }
    }

    /// White ratio at a symbol rate (linear interpolation, clamped at the
    /// table ends).
    pub fn ratio_at(&self, symbol_rate: f64) -> f64 {
        let k = self.knots;
        if symbol_rate <= k[0].0 {
            return k[0].1;
        }
        if symbol_rate >= k[k.len() - 1].0 {
            return k[k.len() - 1].1;
        }
        for w in k.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            if symbol_rate <= x1 {
                let t = (symbol_rate - x0) / (x1 - x0);
                return y0 + t * (y1 - y0);
            }
        }
        unreachable!("clamped ends cover all cases")
    }
}

/// The shared transmitter/receiver rule: is payload position `i` (0-based)
/// a white illumination symbol, at white ratio `w`?
///
/// Defined as "the cumulative white quota `⌊(i+1)·w⌋` increments at `i`",
/// which spaces whites periodically and gives exactly `⌊n·w⌋` whites among
/// any prefix of `n` positions.
pub fn is_white_position(i: usize, w: f64) -> bool {
    if w <= 0.0 {
        return false;
    }
    let before = ((i as f64) * w).floor();
    let after = ((i as f64 + 1.0) * w).floor();
    after > before
}

/// Count white positions among payload indices `0..n` at ratio `w`.
pub fn white_count(n: usize, w: f64) -> usize {
    if w <= 0.0 {
        0
    } else {
        ((n as f64) * w).floor() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table_is_monotone_decreasing() {
        let t = WhiteRatioTable::paper_fig3b();
        let mut prev = 1.0;
        for rate in [500.0, 1000.0, 1500.0, 2000.0, 3000.0, 4000.0, 5000.0] {
            let r = t.ratio_at(rate);
            assert!(r <= prev, "rate {rate}: {r} > {prev}");
            assert!(r > 0.0 && r < 1.0);
            prev = r;
        }
    }

    #[test]
    fn interpolation_hits_knots_exactly() {
        let t = WhiteRatioTable::paper_fig3b();
        assert!((t.ratio_at(1000.0) - 0.45).abs() < 1e-12);
        assert!((t.ratio_at(4000.0) - 0.22).abs() < 1e-12);
        // Midpoint between 1000 and 2000.
        assert!((t.ratio_at(1500.0) - 0.39).abs() < 1e-12);
    }

    #[test]
    fn clamping_at_ends() {
        let t = WhiteRatioTable::paper_fig3b();
        assert_eq!(t.ratio_at(100.0), 0.60);
        assert_eq!(t.ratio_at(9000.0), 0.18);
    }

    #[test]
    fn white_positions_match_quota_exactly() {
        for &w in &[0.0, 0.2, 1.0 / 3.0, 0.45, 0.5, 0.77] {
            for n in [1usize, 7, 33, 100, 1000] {
                let count = (0..n).filter(|&i| is_white_position(i, w)).count();
                assert_eq!(count, white_count(n, w), "w={w} n={n}");
            }
        }
    }

    #[test]
    fn whites_are_evenly_spread() {
        // At w = 1/3 every third slot is white; gaps never exceed ⌈1/w⌉.
        let w = 1.0 / 3.0;
        let positions: Vec<usize> = (0..60).filter(|&i| is_white_position(i, w)).collect();
        for pair in positions.windows(2) {
            let gap = pair[1] - pair[0];
            assert!(gap <= 3, "gap {gap}");
        }
    }

    #[test]
    fn zero_ratio_has_no_whites() {
        assert!(!(0..100).any(|i| is_white_position(i, 0.0)));
        assert_eq!(white_count(42, 0.0), 0);
    }
}
