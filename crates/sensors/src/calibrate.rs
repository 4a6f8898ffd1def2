//! Online RSSI offset calibration across heterogeneous devices.
//!
//! The fingerprint database is collected with one phone; a user with a
//! different phone sees shifted RSSIs. The paper follows \[38\]: learn an
//! affine transfer `rssi_ref = alpha * rssi_dev + delta` online from paired
//! observations (the device's reading vs. the best-matching fingerprint
//! reading) and apply it before matching. Fig. 8d shows this recovering most
//! of the heterogeneity-induced error (1.9x at the 90th percentile).


/// An affine RSSI transfer function between a device and the reference
/// device.
///
/// # Examples
///
/// ```
/// use uniloc_sensors::RssiCalibration;
///
/// // Pairs of (device reading, reference reading) with a -5 dB offset.
/// let pairs: Vec<(f64, f64)> = (0..20)
///     .map(|i| {
///         let r = -40.0 - i as f64 * 2.0;
///         (r - 5.0, r)
///     })
///     .collect();
/// let cal = RssiCalibration::learn(&pairs).unwrap();
/// assert!((cal.apply(-65.0) - (-60.0)).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RssiCalibration {
    /// Multiplicative term (close to 1).
    pub alpha: f64,
    /// Additive term in dB.
    pub delta: f64,
}

impl RssiCalibration {
    /// The identity calibration (same device as the reference).
    pub fn identity() -> Self {
        RssiCalibration { alpha: 1.0, delta: 0.0 }
    }

    /// Learns `alpha` and `delta` by least squares from
    /// `(device_reading, reference_reading)` pairs.
    ///
    /// Returns `None` with fewer than two pairs or when all device readings
    /// are identical (the slope is then unidentifiable).
    pub fn learn(pairs: &[(f64, f64)]) -> Option<Self> {
        if pairs.len() < 2 {
            return None;
        }
        let n = pairs.len() as f64;
        let sx: f64 = pairs.iter().map(|p| p.0).sum();
        let sy: f64 = pairs.iter().map(|p| p.1).sum();
        let sxx: f64 = pairs.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = pairs.iter().map(|p| p.0 * p.1).sum();
        let denom = n * sxx - sx * sx;
        if denom.abs() < 1e-9 {
            return None;
        }
        let alpha = (n * sxy - sx * sy) / denom;
        let delta = (sy - alpha * sx) / n;
        Some(RssiCalibration { alpha, delta })
    }

    /// Maps a device reading into the reference-device RSSI space.
    pub fn apply(&self, device_rssi: f64) -> f64 {
        self.alpha * device_rssi + self.delta
    }
}

impl Default for RssiCalibration {
    fn default() -> Self {
        RssiCalibration::identity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceProfile;

    #[test]
    fn identity_is_noop() {
        let c = RssiCalibration::identity();
        assert_eq!(c.apply(-70.0), -70.0);
    }

    #[test]
    fn learns_exact_affine_map() {
        // Simulate the LG G3's transfer and invert it.
        let g3 = DeviceProfile::lg_g3();
        let pairs: Vec<(f64, f64)> =
            (0..30).map(|i| {
                let truth = -35.0 - i as f64 * 1.7;
                (g3.measure_rssi(truth), truth)
            }).collect();
        let cal = RssiCalibration::learn(&pairs).unwrap();
        for truth in [-40.0, -60.0, -85.0] {
            let recovered = cal.apply(g3.measure_rssi(truth));
            assert!((recovered - truth).abs() < 1e-9, "{recovered} vs {truth}");
        }
    }

    #[test]
    fn learns_under_noise() {
        let pairs: Vec<(f64, f64)> = (0..200)
            .map(|i| {
                let truth = -30.0 - (i % 60) as f64;
                let jitter = if i % 2 == 0 { 0.8 } else { -0.8 };
                (0.95 * truth - 6.0 + jitter, truth)
            })
            .collect();
        let cal = RssiCalibration::learn(&pairs).unwrap();
        // Inverse of (0.95, -6): alpha ~ 1.0526, delta ~ 6.3158.
        assert!((cal.alpha - 1.0 / 0.95).abs() < 0.01, "alpha {}", cal.alpha);
        assert!((cal.delta - 6.0 / 0.95).abs() < 0.3, "delta {}", cal.delta);
    }

    #[test]
    fn rejects_degenerate_input() {
        assert!(RssiCalibration::learn(&[]).is_none());
        assert!(RssiCalibration::learn(&[(-50.0, -50.0)]).is_none());
        // Constant device readings: slope unidentifiable.
        assert!(RssiCalibration::learn(&[(-50.0, -48.0), (-50.0, -52.0)]).is_none());
    }
}
