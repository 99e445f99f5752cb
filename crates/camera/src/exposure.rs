//! The auto-exposure / auto-ISO controller.
//!
//! Commodity phones meter the scene and continuously retune exposure time
//! and ISO; the paper deliberately leaves this enabled ("We do not modify
//! the exposure time or ISO settings … as it happens in most practical
//! scenarios", Section 8), and shows the consequence: the *same* symbol is
//! recorded differently as the settings drift (Fig 6(b)/(c)).
//!
//! The controller here mirrors the common two-stage policy: adjust exposure
//! time first (least noise cost) within the device's limits, then trade ISO
//! once exposure saturates at either end. Updates are damped to avoid
//! oscillation, as real ISPs do.

use crate::device::DeviceProfile;

/// A concrete exposure-time + ISO operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExposureSettings {
    /// Per-row exposure duration in seconds.
    pub exposure: f64,
    /// Sensor gain as ISO.
    pub iso: f64,
}

/// Damped auto-exposure controller targeting a mean frame luma.
#[derive(Debug, Clone)]
pub struct AutoExposure {
    settings: ExposureSettings,
    enabled: bool,
}

impl AutoExposure {
    /// The metering target real phone ISPs aim for (mid-gray-ish).
    pub const TARGET_LUMA: f64 = 0.45;

    /// The exponent that damps each multiplicative correction.
    const DAMPING: f64 = 0.6;

    /// Create a controller for a device, starting from a middle-of-range
    /// operating point.
    pub fn new(device: &DeviceProfile) -> AutoExposure {
        let exposure = (device.min_exposure * device.max_exposure).sqrt();
        AutoExposure {
            settings: ExposureSettings {
                exposure,
                iso: device.min_iso,
            },
            enabled: true,
        }
    }

    /// Create a *locked* controller pinned at explicit settings (for sweep
    /// experiments like Fig 6(b)/(c) that vary exposure or ISO directly).
    pub fn locked(settings: ExposureSettings) -> AutoExposure {
        AutoExposure {
            settings,
            enabled: false,
        }
    }

    /// Current operating point.
    pub fn settings(&self) -> ExposureSettings {
        self.settings
    }

    /// Whether the controller adapts (`false` for locked controllers).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Feed the mean luma of the last captured frame; the controller moves
    /// its operating point for the next frame.
    pub fn observe(&mut self, mean_luma: f64, device: &DeviceProfile) {
        if !self.enabled {
            return;
        }
        // Desired multiplicative correction, damped and clamped: a frame
        // measured at half the target wants ×2 more light. A clipped meter
        // reading (all-white or all-black frame) carries no magnitude
        // information, so step aggressively instead of proportionally —
        // real ISPs do the same to escape blown-out scenes.
        let measured = mean_luma.max(1e-4);
        let correction = if measured >= 0.95 {
            0.3
        } else if measured <= 0.02 {
            3.5
        } else {
            (Self::TARGET_LUMA / measured)
                .powf(Self::DAMPING)
                .clamp(0.25, 4.0)
        };

        // Total "light budget" = exposure × gain; move exposure first.
        let want_exposure = self.settings.exposure * correction;
        let new_exposure = want_exposure.clamp(device.min_exposure, device.max_exposure);
        let leftover = want_exposure / new_exposure; // >1 → still too dark
        let new_iso = (self.settings.iso * leftover).clamp(device.min_iso, device.max_iso);
        self.settings = ExposureSettings {
            exposure: new_exposure,
            iso: new_iso,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceProfile;

    #[test]
    fn dark_scene_raises_exposure() {
        let dev = DeviceProfile::nexus5();
        let mut ae = AutoExposure::new(&dev);
        let before = ae.settings().exposure;
        ae.observe(0.05, &dev);
        assert!(ae.settings().exposure > before);
    }

    #[test]
    fn bright_scene_lowers_exposure() {
        let dev = DeviceProfile::nexus5();
        let mut ae = AutoExposure::new(&dev);
        let before = ae.settings().exposure;
        ae.observe(0.95, &dev);
        assert!(ae.settings().exposure < before);
    }

    #[test]
    fn exposure_respects_device_limits() {
        let dev = DeviceProfile::nexus5();
        let mut ae = AutoExposure::new(&dev);
        for _ in 0..50 {
            ae.observe(0.999, &dev); // scorching scene
        }
        assert!(ae.settings().exposure >= dev.min_exposure - 1e-12);
        let mut ae2 = AutoExposure::new(&dev);
        for _ in 0..50 {
            ae2.observe(0.001, &dev); // pitch black
        }
        assert!(ae2.settings().exposure <= dev.max_exposure + 1e-12);
        assert!(ae2.settings().iso <= dev.max_iso + 1e-9);
    }

    #[test]
    fn iso_rises_only_after_exposure_saturates() {
        let dev = DeviceProfile::nexus5();
        let mut ae = AutoExposure::new(&dev);
        // One mildly dark observation: exposure still has headroom, so ISO
        // must stay at base.
        ae.observe(0.30, &dev);
        assert_eq!(ae.settings().iso, dev.min_iso);
        // Keep starving it: exposure pegs at max, then ISO climbs.
        for _ in 0..60 {
            ae.observe(0.001, &dev);
        }
        assert!((ae.settings().exposure - dev.max_exposure).abs() < 1e-12);
        assert!(ae.settings().iso > dev.min_iso);
    }

    #[test]
    fn converges_to_steady_state_on_constant_scene() {
        // A scene whose luma is proportional to exposure: fixed point where
        // measured == target.
        let dev = DeviceProfile::nexus5();
        let mut ae = AutoExposure::new(&dev);
        let scene_gain = 2000.0; // luma per second of exposure
        let mut last = ae.settings().exposure;
        for _ in 0..100 {
            let luma = (ae.settings().exposure * scene_gain).min(1.0);
            ae.observe(luma, &dev);
            last = ae.settings().exposure;
        }
        let luma = last * scene_gain;
        assert!(
            (luma - AutoExposure::TARGET_LUMA).abs() < 0.02,
            "steady-state luma {luma}"
        );
    }

    #[test]
    fn locked_controller_never_moves() {
        let dev = DeviceProfile::iphone5s();
        let pinned = ExposureSettings {
            exposure: 120e-6,
            iso: 400.0,
        };
        let mut ae = AutoExposure::locked(pinned);
        ae.observe(0.01, &dev);
        ae.observe(0.99, &dev);
        assert_eq!(ae.settings(), pinned);
        assert!(!ae.is_enabled());
    }
}
