//! Phone device profiles and RSSI heterogeneity.
//!
//! "Two devices may have different RSSI measurements from the same wireless
//! signal, due to hardware heterogeneity. [...] We transfer their RSSI
//! readings of device A and B by an online-learned offset:
//! `RSSI_A = alpha * RSSI_B + delta`, where `alpha` is close to 1."
//! (paper, Section III-B)
//!
//! The reference device is the Google Nexus 5X (used for fingerprinting and
//! error-model training); the LG G3 plays the "different device" in
//! Table III and Fig. 8d; the Samsung Galaxy S2 is the power-measurement
//! phone of Table IV.


/// Phone models used in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DeviceModel {
    /// Google Nexus 5X (Qualcomm QCA6174a combo SoC) — the reference.
    Nexus5X,
    /// LG G3 (Broadcom BCM4339 combo chip) — the heterogeneous device.
    LgG3,
    /// Samsung Galaxy S2 i9100 — the power-measurement device.
    GalaxyS2,
}

impl std::fmt::Display for DeviceModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DeviceModel::Nexus5X => "Google Nexus 5X",
            DeviceModel::LgG3 => "LG G3",
            DeviceModel::GalaxyS2 => "Samsung Galaxy S2",
        };
        f.write_str(s)
    }
}

/// A device's measurement personality.
///
/// `rssi_alpha` / `rssi_delta` express how this device's RSSI relates to the
/// physical (reference) signal strength:
/// `measured = rssi_alpha * truth + rssi_delta`.
///
/// # Examples
///
/// ```
/// use uniloc_sensors::DeviceProfile;
///
/// let nexus = DeviceProfile::nexus_5x();
/// let g3 = DeviceProfile::lg_g3();
/// // The reference device reports the physical value.
/// assert_eq!(nexus.measure_rssi(-60.0), -60.0);
/// // The G3 reads a few dB differently.
/// assert!((g3.measure_rssi(-60.0) - (-60.0)).abs() > 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    /// Which phone this is.
    pub model: DeviceModel,
    /// Multiplicative RSSI factor (close to 1).
    pub rssi_alpha: f64,
    /// Additive RSSI offset in dB.
    pub rssi_delta: f64,
}

impl DeviceProfile {
    /// The reference device (fingerprints and error models are collected
    /// with it).
    pub fn nexus_5x() -> Self {
        DeviceProfile { model: DeviceModel::Nexus5X, rssi_alpha: 1.0, rssi_delta: 0.0 }
    }

    /// The heterogeneous device of Table III / Fig. 8d.
    pub fn lg_g3() -> Self {
        DeviceProfile { model: DeviceModel::LgG3, rssi_alpha: 0.96, rssi_delta: -5.5 }
    }

    /// The power-measurement device of Table IV.
    pub fn galaxy_s2() -> Self {
        DeviceProfile { model: DeviceModel::GalaxyS2, rssi_alpha: 0.94, rssi_delta: -7.0 }
    }

    /// The walking device a name selects: `nexus5x` or `lgg3`, the
    /// vocabulary of `uniloc run --device` and of the fleet's session
    /// specs. `None` for any other name.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "nexus5x" => Some(DeviceProfile::nexus_5x()),
            "lgg3" => Some(DeviceProfile::lg_g3()),
            _ => None,
        }
    }

    /// Applies the device's RSSI transfer function to a physical RSS value
    /// (dBm).
    pub fn measure_rssi(&self, truth_dbm: f64) -> f64 {
        self.rssi_alpha * truth_dbm + self.rssi_delta
    }
}

impl Default for DeviceProfile {
    fn default() -> Self {
        DeviceProfile::nexus_5x()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_device_is_identity() {
        let d = DeviceProfile::nexus_5x();
        for rss in [-30.0, -60.0, -90.0] {
            assert_eq!(d.measure_rssi(rss), rss);
        }
    }

    #[test]
    fn heterogeneous_devices_differ_consistently() {
        let g3 = DeviceProfile::lg_g3();
        // alpha close to 1, per the paper.
        assert!((g3.rssi_alpha - 1.0).abs() < 0.1);
        // Offset is several dB and affine (recoverable by calibration).
        let a = g3.measure_rssi(-50.0);
        let b = g3.measure_rssi(-80.0);
        assert!((a - b) > 25.0 && (a - b) < 35.0);
    }

    #[test]
    fn names_select_the_walking_devices() {
        assert_eq!(DeviceProfile::by_name("nexus5x"), Some(DeviceProfile::nexus_5x()));
        assert_eq!(DeviceProfile::by_name("lgg3"), Some(DeviceProfile::lg_g3()));
        assert_eq!(DeviceProfile::by_name("s7"), None);
    }

    #[test]
    fn default_is_reference() {
        assert_eq!(DeviceProfile::default(), DeviceProfile::nexus_5x());
    }

    #[test]
    fn display_names() {
        assert_eq!(DeviceModel::Nexus5X.to_string(), "Google Nexus 5X");
        assert_eq!(DeviceModel::GalaxyS2.to_string(), "Samsung Galaxy S2");
    }
}
