//! Horus-style probabilistic WiFi fingerprinting (\[2\] in the paper).
//!
//! Where RADAR stores one RSSI sample per AP per location and matches by
//! Euclidean distance, Horus "handles the temporal variation of signals by
//! learning a distribution of RSSIs for every audible AP" and locates by
//! maximum likelihood. The paper notes the cost: "it requires hundreds of
//! samples to capture an accurate distribution at one location", which is
//! why its evaluation sticks with RADAR. We implement Horus as an optional
//! sixth scheme — it demonstrates the framework's generality and lets the
//! sample-count/accuracy trade-off be measured (see the
//! `horus_vs_radar` ablation in `uniloc-bench`).

use crate::estimate::{LocalizationScheme, LocationEstimate, SchemeId};
use crate::fingerprint::RssiLike;
use uniloc_env::ApId;
use uniloc_geom::Point;
use uniloc_sensors::{SensorFrame, SensorHub, WifiScan};

/// Scheme id assigned to Horus when used through the engine.
pub const HORUS_SCHEME_ID: SchemeId = SchemeId::Custom(2);

/// Default standard-deviation floor (dB): with few samples, the empirical
/// deviation underestimates the true one; Horus-style systems clamp it.
pub const MIN_STD_DB: f64 = 1.5;

/// Per-AP RSSI distribution at one survey location.
#[derive(Debug, Clone, PartialEq)]
struct ApDistribution {
    ap: ApId,
    mean_dbm: f64,
    std_db: f64,
    samples: u32,
}

/// One probabilistic fingerprint: a location plus per-AP Gaussians.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbFingerprint {
    position: Point,
    distributions: Vec<ApDistribution>,
}

impl ProbFingerprint {
    /// Log-likelihood of an online scan under this fingerprint.
    ///
    /// APs audible online but never seen here are charged a miss penalty;
    /// APs in the fingerprint but silent online are ignored (they may be
    /// masked by the body — the lenient convention Horus uses).
    fn log_likelihood(&self, scan: &WifiScan, miss_penalty: f64) -> Option<f64> {
        let mut ll = 0.0;
        let mut matched = 0usize;
        for &(ap, rssi) in &scan.readings {
            match self.distributions.iter().find(|d| d.ap == ap) {
                Some(d) => {
                    let z = (rssi - d.mean_dbm) / d.std_db;
                    ll += -0.5 * z * z - d.std_db.ln();
                    matched += 1;
                }
                None => ll -= miss_penalty,
            }
        }
        (matched > 0).then_some(ll)
    }
}

/// A probabilistic (Horus-style) WiFi fingerprint database.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbFingerprintDb {
    entries: Vec<ProbFingerprint>,
    /// Log-likelihood penalty per online AP unseen at a location.
    miss_penalty: f64,
}

uniloc_stats::impl_json_struct!(ApDistribution { ap, mean_dbm, std_db, samples });
uniloc_stats::impl_json_struct!(ProbFingerprint { position, distributions });
uniloc_stats::impl_json_struct!(ProbFingerprintDb { entries, miss_penalty });

impl ProbFingerprintDb {
    /// Surveys the venue at `points`, taking `samples_per_point` scans per
    /// location and fitting a Gaussian per audible AP.
    ///
    /// # Panics
    ///
    /// Panics if `samples_per_point == 0`.
    pub fn survey(
        hub: &mut SensorHub<'_>,
        points: &[Point],
        samples_per_point: u32,
    ) -> Self {
        assert!(samples_per_point > 0, "need at least one sample per point");
        let mut entries = Vec::with_capacity(points.len());
        for &p in points {
            // Accumulate per-AP statistics over repeated scans.
            let mut acc: Vec<(ApId, f64, f64, u32)> = Vec::new(); // (ap, sum, sum_sq, n)
            for _ in 0..samples_per_point {
                for &(ap, rssi) in &hub.scan_wifi(p).readings {
                    match acc.iter_mut().find(|(a, ..)| *a == ap) {
                        Some((_, s, ss, n)) => {
                            *s += rssi;
                            *ss += rssi * rssi;
                            *n += 1;
                        }
                        None => acc.push((ap, rssi, rssi * rssi, 1)),
                    }
                }
            }
            let distributions: Vec<ApDistribution> = acc
                .into_iter()
                // Require the AP to be audible in most samples: flickering
                // edge APs make poor evidence.
                .filter(|(_, _, _, n)| *n * 2 > samples_per_point)
                .map(|(ap, s, ss, n)| {
                    let mean = s / n as f64;
                    let var = (ss / n as f64 - mean * mean).max(0.0);
                    ApDistribution {
                        ap,
                        mean_dbm: mean,
                        std_db: var.sqrt().max(MIN_STD_DB),
                        samples: n,
                    }
                })
                .collect();
            if !distributions.is_empty() {
                entries.push(ProbFingerprint { position: p, distributions });
            }
        }
        ProbFingerprintDb { entries, miss_penalty: 6.0 }
    }

    /// Number of usable probabilistic fingerprints.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the survey produced nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maximum-likelihood location for an online scan, with the
    /// log-likelihood gap to the runner-up as a crude confidence proxy.
    pub fn locate(&self, scan: &WifiScan) -> Option<(Point, f64)> {
        if scan.is_empty() {
            return None;
        }
        let mut best: Option<(Point, f64)> = None;
        let mut second: Option<f64> = None;
        for e in &self.entries {
            if let Some(ll) = e.log_likelihood(scan, self.miss_penalty) {
                match best {
                    Some((_, b)) if ll <= b => {
                        if second.is_none_or(|s| ll > s) {
                            second = Some(ll);
                        }
                    }
                    _ => {
                        second = best.map(|(_, b)| b);
                        best = Some((e.position, ll));
                    }
                }
            }
        }
        best.map(|(p, ll)| (p, second.map_or(0.0, |s| ll - s)))
    }
}

/// The Horus scheme, usable anywhere a [`LocalizationScheme`] is.
#[derive(Debug, Clone)]
pub struct HorusScheme {
    db: ProbFingerprintDb,
}

impl HorusScheme {
    /// Creates the scheme over a probabilistic database. Like RADAR, it
    /// answers only scans with at least [`RssiLike::MIN_READINGS`] APs.
    pub fn new(db: ProbFingerprintDb) -> Self {
        HorusScheme { db }
    }
}

impl LocalizationScheme for HorusScheme {
    fn id(&self) -> SchemeId {
        HORUS_SCHEME_ID
    }

    fn update(&mut self, frame: &SensorFrame) -> Option<LocationEstimate> {
        let scan = frame.wifi.as_ref()?;
        if scan.len() < WifiScan::MIN_READINGS {
            return None;
        }
        let (p, _gap) = self.db.locate(scan)?;
        Some(LocationEstimate::at(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniloc_rng::Rng;
    use uniloc_env::{venues, GaitProfile, Walker};
    use uniloc_sensors::DeviceProfile;

    fn survey_db(samples: u32, seed: u64) -> (uniloc_env::Scenario, ProbFingerprintDb) {
        let scenario = venues::training_office(seed);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), seed + 1);
        let points = scenario.survey_points(3.0, 12.0);
        let db = ProbFingerprintDb::survey(&mut hub, &points, samples);
        (scenario, db)
    }

    fn mean_error(
        scenario: &uniloc_env::Scenario,
        scheme: &mut dyn LocalizationScheme,
        seed: u64,
    ) -> f64 {
        let mut walker = Walker::new(GaitProfile::average(), Rng::seed_from_u64(seed));
        let walk = walker.walk(&scenario.route);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), seed + 1);
        let errs: Vec<f64> = hub
            .sample_walk(&walk, 0.5)
            .iter()
            .filter_map(|f| scheme.update(f).map(|e| e.position.distance(f.true_position)))
            .collect();
        assert!(!errs.is_empty(), "Horus never produced an estimate");
        errs.iter().sum::<f64>() / errs.len() as f64
    }

    #[test]
    fn survey_builds_distributions() {
        let (_, db) = survey_db(8, 121);
        assert!(db.len() > 100, "db has only {} entries", db.len());
        assert!(!db.is_empty());
    }

    #[test]
    fn locates_accurately_with_enough_samples() {
        let (scenario, db) = survey_db(8, 123);
        let mut scheme = HorusScheme::new(db);
        let err = mean_error(&scenario, &mut scheme, 125);
        assert!(err < 6.0, "Horus office error {err:.2}");
    }

    #[test]
    fn more_samples_do_not_hurt() {
        // The paper's point: Horus needs many samples for its distributions.
        let (scenario, db1) = survey_db(1, 127);
        let (_, db8) = survey_db(8, 127);
        let e1 = mean_error(&scenario, &mut HorusScheme::new(db1), 129);
        let e8 = mean_error(&scenario, &mut HorusScheme::new(db8), 129);
        assert!(
            e8 <= e1 * 1.2 + 0.3,
            "8-sample survey ({e8:.2}) should not lose to 1-sample ({e1:.2})"
        );
    }

    #[test]
    fn empty_scan_and_weak_scan_yield_none() {
        let (_, db) = survey_db(4, 131);
        let mut scheme = HorusScheme::new(db);
        let frame = SensorFrame {
            t: 0.0,
            true_position: Point::origin(),
            wifi: Some(WifiScan::default()),
            cell: None,
            gps: None,
            steps: vec![],
            landmark: None,
            light_lux: 300.0,
            magnetic_variance: 0.5,
        };
        assert!(scheme.update(&frame).is_none());
        let weak = SensorFrame {
            wifi: Some(WifiScan { readings: vec![(ApId(0), -60.0)] }),
            ..frame
        };
        assert!(scheme.update(&weak).is_none(), "below the 3-AP gate");
    }

    #[test]
    fn foreign_scan_yields_none() {
        let (_, db) = survey_db(4, 133);
        let scan = WifiScan {
            readings: vec![
                (ApId(9_999), -50.0),
                (ApId(9_998), -55.0),
                (ApId(9_997), -60.0),
            ],
        };
        // No location matches any AP -> no likelihood -> None.
        assert!(db.locate(&scan).is_none());
    }

    #[test]
    fn scheme_identity() {
        let (_, db) = survey_db(2, 135);
        let s = HorusScheme::new(db);
        assert_eq!(s.id(), HORUS_SCHEME_ID);
    }

    #[test]
    fn json_roundtrip() {
        let (_, db) = survey_db(2, 137);
        let json = uniloc_stats::json::to_string(&db);
        let back: ProbFingerprintDb = uniloc_stats::json::from_str(&json).unwrap();
        assert_eq!(db.len(), back.len());
    }
}
