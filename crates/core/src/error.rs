//! Typed errors for link construction and validation.
//!
//! Every way a [`crate::config::LinkConfig`] can fail to become a working
//! link is one variant here, so harnesses can branch on the cause (e.g. the
//! sweep benches skip RS-unrealizable operating points instead of treating
//! them as failures) and the obs layer can log a stable `kind` string
//! instead of a formatted message.

use std::fmt;

/// Why a link configuration could not be validated or instantiated.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkError {
    /// The platform cannot change LED colors at the requested symbol rate.
    UnsupportedSymbolRate {
        /// Platform name (e.g. "BeagleBone Black").
        platform: String,
        /// Requested symbol rate, Hz.
        rate_hz: f64,
        /// The platform's maximum symbol rate, Hz.
        max_hz: f64,
    },
    /// The configured inter-frame loss ratio is outside `[0, 1)`.
    LossRatioOutOfRange(f64),
    /// The configured camera frame rate is zero, negative, or non-finite.
    NonPositiveFrameRate(f64),
    /// The configured calibration rate is negative.
    NegativeCalibrationRate(f64),
    /// The frame period holds too few symbols to host a packet at all.
    PacketBudgetUnrealizable {
        /// Wire symbols available per frame period.
        wire_symbols: usize,
    },
    /// The frame-locked budget yields RS dimensions no codec can realize.
    RsUnrealizable {
        /// Codeword bytes `n` the budget produced.
        n: usize,
        /// Message bytes `k` the budget produced.
        k: usize,
    },
    /// The frame period is too short for the raw (uncoded) packet format.
    RawFramePeriodTooShort,
    /// The configured interleave depth cannot be realized (zero, above the
    /// interleaver's cap, or not expressible in the wire's group-position
    /// field at this CSK order).
    FecDepthUnrealizable {
        /// The requested interleave depth.
        depth: usize,
        /// The largest depth this operating point supports.
        max: usize,
    },
    /// The calibration preamble is too degenerate to train the learned
    /// equalizer (too few samples, rank-deficient features, or a
    /// non-finite solve). The receiver falls back to plain
    /// nearest-neighbor classification and counts `rx.eq.fallback`.
    EqualizerDegenerate {
        /// Calibration samples available when training was attempted.
        samples: usize,
        /// Human-readable degeneracy cause (stable set: "too_few_samples",
        /// "rank_deficient", "non_finite").
        cause: &'static str,
    },
}

impl LinkError {
    /// Stable machine-readable identifier for the error cause.
    pub fn kind(&self) -> &'static str {
        match self {
            LinkError::UnsupportedSymbolRate { .. } => "unsupported_symbol_rate",
            LinkError::LossRatioOutOfRange(_) => "loss_ratio_out_of_range",
            LinkError::NonPositiveFrameRate(_) => "non_positive_frame_rate",
            LinkError::NegativeCalibrationRate(_) => "negative_calibration_rate",
            LinkError::PacketBudgetUnrealizable { .. } => "packet_budget_unrealizable",
            LinkError::RsUnrealizable { .. } => "rs_unrealizable",
            LinkError::RawFramePeriodTooShort => "raw_frame_period_too_short",
            LinkError::FecDepthUnrealizable { .. } => "fec_depth_unrealizable",
            LinkError::EqualizerDegenerate { .. } => "equalizer_degenerate",
        }
    }
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::UnsupportedSymbolRate {
                platform,
                rate_hz,
                max_hz,
            } => {
                write!(
                    f,
                    "{platform} cannot change colors at {rate_hz} Hz (max {max_hz})"
                )
            }
            LinkError::LossRatioOutOfRange(r) => write!(f, "loss ratio {r} out of range"),
            LinkError::NonPositiveFrameRate(_) => write!(f, "frame rate must be positive"),
            LinkError::NegativeCalibrationRate(_) => {
                write!(f, "calibration rate must be non-negative")
            }
            LinkError::PacketBudgetUnrealizable { wire_symbols } => {
                write!(
                    f,
                    "frame period holds only {wire_symbols} symbols — no room for a packet"
                )
            }
            LinkError::RsUnrealizable { n, k } => {
                write!(f, "RS({n}, {k}) is not realizable at this operating point")
            }
            LinkError::RawFramePeriodTooShort => {
                write!(f, "frame period too short for raw packets")
            }
            LinkError::FecDepthUnrealizable { depth, max } => {
                write!(f, "interleave depth {depth} unrealizable (max {max})")
            }
            LinkError::EqualizerDegenerate { samples, cause } => {
                write!(
                    f,
                    "calibration preamble too degenerate to train the equalizer \
                     ({samples} samples, {cause})"
                )
            }
        }
    }
}

impl std::error::Error for LinkError {}

impl From<LinkError> for String {
    fn from(e: LinkError) -> String {
        e.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_the_operating_point() {
        let e = LinkError::UnsupportedSymbolRate {
            platform: "BeagleBone Black".into(),
            rate_hz: 6000.0,
            max_hz: 4500.0,
        };
        let msg = e.to_string();
        assert!(msg.contains("BeagleBone Black"));
        assert!(msg.contains("6000"));
        assert!(msg.contains("4500"));
    }

    #[test]
    fn kinds_are_distinct_and_stable() {
        let errors = [
            LinkError::UnsupportedSymbolRate {
                platform: String::new(),
                rate_hz: 0.0,
                max_hz: 0.0,
            },
            LinkError::LossRatioOutOfRange(1.5),
            LinkError::NonPositiveFrameRate(0.0),
            LinkError::NegativeCalibrationRate(-1.0),
            LinkError::PacketBudgetUnrealizable { wire_symbols: 3 },
            LinkError::RsUnrealizable { n: 1, k: 1 },
            LinkError::RawFramePeriodTooShort,
            LinkError::FecDepthUnrealizable { depth: 0, max: 64 },
            LinkError::EqualizerDegenerate {
                samples: 0,
                cause: "too_few_samples",
            },
        ];
        let kinds: std::collections::HashSet<&str> = errors.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds.len(), errors.len());
    }

    #[test]
    fn implements_std_error_and_string_conversion() {
        let e = LinkError::LossRatioOutOfRange(2.0);
        let dynamic: &dyn std::error::Error = &e;
        assert!(dynamic.to_string().contains("out of range"));
        let s: String = e.into();
        assert!(s.contains("loss ratio 2"));
    }
}
