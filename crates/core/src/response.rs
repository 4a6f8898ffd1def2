//! Table V: the response-time decomposition for one location estimate.
//!
//! UniLoc offloads the per-scheme computation to a server; one fix costs
//! phone-side sensing/pre-processing, an upload, the slowest scheme's
//! server computation (schemes run in parallel), UniLoc's own additions
//! (error prediction + BMA — the only parts this paper adds, measured at
//! 6.0 ms and 0.1 ms), and the download. "The data transmissions of UniLoc
//! occupy 73% of the total response time."
//!
//! The scheme-compute, error-prediction and BMA entries can be replaced
//! with values measured on this machine (`table5_response_time` times
//! its own loops) via [`ResponseTimeModel::with_measured`].

use uniloc_schemes::SchemeId;

/// Per-stage response-time model (milliseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseTimeModel {
    /// Phone-side sensing + pre-processing (step model inference, scan
    /// collection).
    pub phone_ms: f64,
    /// Upload of pre-processed sensor data.
    pub upload_ms: f64,
    /// Server compute per scheme (they run in parallel; the slowest
    /// dominates).
    pub scheme_ms: Vec<(SchemeId, f64)>,
    /// Online error prediction for all schemes.
    pub error_prediction_ms: f64,
    /// The BMA combination itself.
    pub bma_ms: f64,
    /// Download of the fused result.
    pub download_ms: f64,
}

impl Default for ResponseTimeModel {
    fn default() -> Self {
        ResponseTimeModel {
            phone_ms: 7.5,
            upload_ms: 35.0,
            scheme_ms: vec![
                (SchemeId::Gps, 0.1),
                (SchemeId::Wifi, 1.2),
                (SchemeId::Cellular, 0.8),
                (SchemeId::Motion, 4.8),
                (SchemeId::Fusion, 5.6),
            ],
            error_prediction_ms: 6.0,
            bma_ms: 0.1,
            download_ms: 18.0,
        }
    }
}

/// The totals derived from a [`ResponseTimeModel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseTimeReport {
    /// The slowest scheme's server compute (ms).
    pub slowest_scheme_ms: f64,
    /// Total server compute including UniLoc's additions (ms).
    pub server_ms: f64,
    /// Total transmission time (ms).
    pub transmission_ms: f64,
    /// End-to-end response time (ms).
    pub total_ms: f64,
    /// Fraction of the total spent in transmissions.
    pub transmission_fraction: f64,
}

impl ResponseTimeModel {
    /// Replaces the UniLoc-added stages with values measured on this
    /// machine.
    pub fn with_measured(mut self, error_prediction_ms: f64, bma_ms: f64) -> Self {
        self.error_prediction_ms = error_prediction_ms;
        self.bma_ms = bma_ms;
        self
    }

    /// The computation UniLoc adds on top of the underlying schemes (ms) —
    /// the paper reports 6.1 ms.
    pub fn uniloc_added_ms(&self) -> f64 {
        self.error_prediction_ms + self.bma_ms
    }

    /// Derives the Table V totals.
    pub fn report(&self) -> ResponseTimeReport {
        let slowest = self
            .scheme_ms
            .iter()
            .map(|(_, ms)| *ms)
            .fold(0.0f64, f64::max);
        let server = slowest + self.uniloc_added_ms();
        let transmission = self.upload_ms + self.download_ms;
        let total = self.phone_ms + transmission + server;
        ResponseTimeReport {
            slowest_scheme_ms: slowest,
            server_ms: server,
            transmission_ms: transmission,
            total_ms: total,
            transmission_fraction: transmission / total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_shape() {
        let r = ResponseTimeModel::default().report();
        // Fusion is the slowest scheme at 5.6 ms.
        assert!((r.slowest_scheme_ms - 5.6).abs() < 1e-12);
        // Real-time: well under 100 ms end to end.
        assert!(r.total_ms < 100.0);
        // Transmissions dominate at ~73%.
        assert!(
            (r.transmission_fraction - 0.73).abs() < 0.02,
            "transmission fraction {}",
            r.transmission_fraction
        );
    }

    #[test]
    fn uniloc_addition_is_small() {
        let m = ResponseTimeModel::default();
        assert!((m.uniloc_added_ms() - 6.1).abs() < 1e-12);
    }

    #[test]
    fn measured_overrides() {
        let m = ResponseTimeModel::default().with_measured(0.5, 0.01);
        assert!((m.uniloc_added_ms() - 0.51).abs() < 1e-12);
        let r = m.report();
        assert!(r.total_ms < ResponseTimeModel::default().report().total_ms);
    }

    #[test]
    fn parallel_schemes_use_max_not_sum() {
        let m = ResponseTimeModel::default();
        let sum: f64 = m.scheme_ms.iter().map(|(_, ms)| ms).sum();
        let r = m.report();
        assert!(r.server_ms < sum, "schemes run in parallel");
    }
}
