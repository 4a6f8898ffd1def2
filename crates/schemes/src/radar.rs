//! RADAR fingerprinting (\[1\]) over WiFi and cellular scans.
//!
//! "We calculate the Euclidean distances between an online measured RSSI
//! vector and all offline fingerprints, and find the location with the
//! shortest RSSI distance." The cellular scheme is the same algorithm —
//! "we use the same fingerprinting algorithm of RADAR on cellular GSM
//! signals" (Otsason et al. \[22\]): macro towers are far away and few, so
//! its accuracy is coarse, but it reaches places WiFi and GPS do not (the
//! paper's basement segment is where it wins 11.4% of all locations).
//! Heterogeneous devices first map their WiFi readings into the reference
//! device's RSSI space via an online-learned offset ([`RssiCalibration`]).

use crate::estimate::{LocalizationScheme, LocationEstimate, SchemeId};
use crate::fingerprint::{FingerprintDb, FingerprintMatch, RssiLike, TOP_K};
use uniloc_geom::Point;
use uniloc_sensors::{CellScan, RssiCalibration, SensorFrame, WifiScan};

/// The RADAR fingerprinting scheme over one radio's scans.
///
/// # Examples
///
/// ```no_run
/// use uniloc_env::campus;
/// use uniloc_schemes::{WifiFingerprintDb, WifiFingerprintScheme, LocalizationScheme};
/// use uniloc_sensors::{DeviceProfile, SensorHub};
///
/// let scenario = campus::daily_path(1);
/// let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 2);
/// let points = scenario.survey_points(3.0, 12.0);
/// let db = WifiFingerprintDb::survey_wifi(&mut hub, &points);
/// let scheme = WifiFingerprintScheme::new(db);
/// ```
#[derive(Debug, Clone)]
pub struct FingerprintScheme<S> {
    db: FingerprintDb<S>,
    /// The device calibration, when one is set.
    calibration: Option<RssiCalibration>,
    /// Top-k candidates of the latest match, for the posterior mean.
    last_matches: Vec<FingerprintMatch>,
    /// Calibrated-scan scratch, recycled across epochs so steady-state
    /// updates perform no heap allocation.
    calibrated: S,
}

/// The WiFi fingerprinting scheme (RADAR).
pub type WifiFingerprintScheme = FingerprintScheme<WifiScan>;

/// The cellular fingerprinting scheme.
pub type CellFingerprintScheme = FingerprintScheme<CellScan>;

impl<S: RssiLike> FingerprintScheme<S> {
    /// Creates the scheme over an offline fingerprint database. It
    /// answers only scans with at least [`RssiLike::MIN_READINGS`]
    /// readings (3 WiFi APs, 1 cell tower).
    pub fn new(db: FingerprintDb<S>) -> Self {
        FingerprintScheme {
            db,
            calibration: None,
            last_matches: Vec::new(),
            calibrated: S::default(),
        }
    }
}

impl WifiFingerprintScheme {
    /// Installs a device calibration (for phones other than the survey
    /// device).
    pub fn with_calibration(mut self, calibration: RssiCalibration) -> Self {
        self.calibration = Some(calibration);
        self
    }
}

impl<S: RssiLike> LocalizationScheme for FingerprintScheme<S> {
    fn id(&self) -> SchemeId {
        S::SCHEME
    }

    fn update(&mut self, frame: &SensorFrame) -> Option<LocationEstimate> {
        self.last_matches.clear();
        let scan = S::in_frame(frame)?;
        if scan.reading_count() < S::MIN_READINGS {
            return None;
        }
        let scan = match self.calibration {
            Some(calibration) => {
                scan.calibrated_into(calibration, &mut self.calibrated);
                &self.calibrated
            }
            None => scan,
        };
        self.db.match_scan_into(scan, TOP_K, &mut self.last_matches);
        let best = *self.last_matches.first()?;
        // Spread: scatter of the top-k candidate positions around the best.
        let spread = if self.last_matches.len() > 1 {
            let m = self
                .last_matches
                .iter()
                .skip(1)
                .map(|c| c.position.distance(best.position))
                .sum::<f64>()
                / (self.last_matches.len() - 1) as f64;
            Some(m)
        } else {
            None
        };
        Some(LocationEstimate { position: best.position, spread })
    }

    /// The mean of a softmax over the top-k candidates' RSSI distances
    /// relative to the best match: a candidate 3 dB worse carries ~37% of
    /// the best one's mass.
    fn posterior_mean(&self) -> Option<Point> {
        let d0 = self.last_matches.first()?.distance;
        let weight = |m: &FingerprintMatch| (-(m.distance - d0) / 3.0).exp();
        let w: f64 = self.last_matches.iter().map(weight).sum();
        if w > 0.0 {
            let x = self.last_matches.iter().map(|m| weight(m) * m.position.x).sum::<f64>() / w;
            let y = self.last_matches.iter().map(|m| weight(m) * m.position.y).sum::<f64>() / w;
            Some(Point::new(x, y))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::{CellFingerprintDb, WifiFingerprintDb};
    use uniloc_env::{campus, venues, EnvKind, GaitProfile, Walker};
    use uniloc_rng::Rng;
    use uniloc_sensors::{DeviceProfile, SensorHub};

    fn scheme_for(scenario: &campus::Scenario, seed: u64) -> WifiFingerprintScheme {
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), seed);
        let points = scenario.survey_points(3.0, 12.0);
        WifiFingerprintScheme::new(WifiFingerprintDb::survey_wifi(&mut hub, &points))
    }

    fn frames_for(
        scenario: &campus::Scenario,
        device: DeviceProfile,
        seed: u64,
    ) -> Vec<SensorFrame> {
        let mut walker = Walker::new(GaitProfile::average(), Rng::seed_from_u64(seed));
        let walk = walker.walk(&scenario.route);
        let mut hub = SensorHub::new(&scenario.world, device, seed + 1);
        hub.sample_walk(&walk, 0.5)
    }

    fn run_and_measure(
        scenario: &campus::Scenario,
        scheme: &mut WifiFingerprintScheme,
        device: DeviceProfile,
        seed: u64,
    ) -> Vec<(f64, Option<f64>)> {
        frames_for(scenario, device, seed)
            .iter()
            .map(|f| {
                let err = scheme
                    .update(f)
                    .map(|e| e.position.distance(f.true_position));
                (f.t, err)
            })
            .collect()
    }

    #[test]
    fn accurate_in_training_office() {
        let scenario = venues::training_office(41);
        let mut scheme = scheme_for(&scenario, 42);
        let results = run_and_measure(&scenario, &mut scheme, DeviceProfile::nexus_5x(), 43);
        let errs: Vec<f64> = results.iter().filter_map(|r| r.1).collect();
        assert!(errs.len() > results.len() / 2, "WiFi must be mostly available indoors");
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(mean < 8.0, "office WiFi mean error {mean}");
    }

    #[test]
    fn unavailable_in_basement() {
        let scenario = campus::daily_path(44);
        let mut scheme = scheme_for(&scenario, 45);
        let frames = frames_for(&scenario, DeviceProfile::nexus_5x(), 46);
        let mut basement_avail = 0usize;
        let mut basement_total = 0usize;
        for f in &frames {
            if scenario.world.kind_at(f.true_position) == EnvKind::Basement {
                basement_total += 1;
                basement_avail += usize::from(scheme.update(f).is_some());
            }
        }
        assert!(basement_total > 0);
        assert!(
            (basement_avail as f64) < 0.3 * basement_total as f64,
            "basement availability {basement_avail}/{basement_total}"
        );
    }

    #[test]
    fn heterogeneous_device_degrades_without_calibration() {
        let scenario = venues::training_office(48);
        let mut scheme = scheme_for(&scenario, 49);
        let nexus = run_and_measure(&scenario, &mut scheme, DeviceProfile::nexus_5x(), 50);
        let g3 = run_and_measure(&scenario, &mut scheme, DeviceProfile::lg_g3(), 50);
        let mean = |v: &[(f64, Option<f64>)]| {
            let e: Vec<f64> = v.iter().filter_map(|r| r.1).collect();
            e.iter().sum::<f64>() / e.len() as f64
        };
        assert!(
            mean(&g3) > mean(&nexus),
            "uncalibrated G3 ({}) should be worse than Nexus ({})",
            mean(&g3),
            mean(&nexus)
        );
    }

    #[test]
    fn calibration_recovers_heterogeneous_accuracy() {
        let scenario = venues::training_office(51);
        let base = scheme_for(&scenario, 52);
        // Learn the G3 -> Nexus transfer from paired observations.
        let mut nexus_hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 53);
        let mut g3_hub = SensorHub::new(&scenario.world, DeviceProfile::lg_g3(), 53);
        let mut pairs = Vec::new();
        for p in scenario.survey_points(6.0, 12.0) {
            let a = nexus_hub.scan_wifi(p);
            let b = g3_hub.scan_wifi(p);
            for (ra, rb) in a.readings.iter().zip(&b.readings) {
                if ra.0 == rb.0 {
                    pairs.push((rb.1, ra.1));
                }
            }
        }
        let cal = RssiCalibration::learn(&pairs).unwrap();
        let mut calibrated = base.clone().with_calibration(cal);
        let mut raw = base;
        let with_cal = run_and_measure(&scenario, &mut calibrated, DeviceProfile::lg_g3(), 54);
        let without = run_and_measure(&scenario, &mut raw, DeviceProfile::lg_g3(), 54);
        let mean = |v: &[(f64, Option<f64>)]| {
            let e: Vec<f64> = v.iter().filter_map(|r| r.1).collect();
            e.iter().sum::<f64>() / e.len() as f64
        };
        assert!(
            mean(&with_cal) < mean(&without),
            "calibrated ({}) must beat uncalibrated ({})",
            mean(&with_cal),
            mean(&without)
        );
    }

    #[test]
    fn identity_calibration_equals_none() {
        // Only a set calibration maps the scan, so a scheme without one
        // must answer bit for bit what the identity map answers: finite
        // readings pass through `1.0 * x + 0.0` unchanged, and `-0.0`
        // becomes `0.0`, whose squared difference to any reading is the
        // same.
        let scenario = venues::training_office(141);
        let mut plain = scheme_for(&scenario, 142);
        let mut identity = plain.clone().with_calibration(RssiCalibration::identity());
        let mut frames = frames_for(&scenario, DeviceProfile::nexus_5x(), 143);
        let mut signed_zero = frames[frames.len() / 2].clone();
        let scan = signed_zero.wifi.as_mut().expect("the office hears WiFi mid-walk");
        scan.readings[0].1 = -0.0;
        frames.push(signed_zero);
        let bits = |p: Point| (p.x.to_bits(), p.y.to_bits());
        let key = |e: LocationEstimate| (bits(e.position), e.spread.map(f64::to_bits));
        let mut estimates = 0;
        for f in &frames {
            let (a, b) = (plain.update(f), identity.update(f));
            assert_eq!(a.map(key), b.map(key), "estimate at t = {}", f.t);
            let (a_mean, b_mean) = (plain.posterior_mean(), identity.posterior_mean());
            assert_eq!(a_mean.map(bits), b_mean.map(bits), "posterior mean at t = {}", f.t);
            estimates += usize::from(a.is_some());
        }
        assert!(estimates > frames.len() / 2, "the walk must exercise the match");
        assert!(plain.update(frames.last().unwrap()).is_some(), "the -0.0 frame must match");
    }

    #[test]
    fn works_in_basement_where_wifi_dies() {
        let scenario = campus::daily_path(61);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 62);
        let points = scenario.survey_points(3.0, 12.0);
        let db = CellFingerprintDb::survey_cell(&mut hub, &points);
        let mut scheme = CellFingerprintScheme::new(db);
        let frames = frames_for(&scenario, DeviceProfile::nexus_5x(), 63);

        let mut basement_avail = 0usize;
        let mut basement_total = 0usize;
        let mut errors = Vec::new();
        for f in &frames {
            if scenario.world.kind_at(f.true_position) == EnvKind::Basement {
                basement_total += 1;
                if let Some(e) = scheme.update(f) {
                    basement_avail += 1;
                    errors.push(e.position.distance(f.true_position));
                }
            }
        }
        assert!(basement_total > 0);
        assert!(
            basement_avail as f64 > 0.5 * basement_total as f64,
            "cellular availability in basement {basement_avail}/{basement_total}"
        );
        let mean = errors.iter().sum::<f64>() / errors.len() as f64;
        // Coarse but bounded (the paper's cellular errors are tens of m).
        assert!(mean < 80.0, "basement cellular mean error {mean}");
    }

    #[test]
    fn coarser_than_wifi_overall() {
        let scenario = venues::training_office(65);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 66);
        let points = scenario.survey_points(3.0, 12.0);
        let cell_db = CellFingerprintDb::survey_cell(&mut hub, &points);
        let wifi_db = WifiFingerprintDb::survey_wifi(&mut hub, &points);
        let mut cell = CellFingerprintScheme::new(cell_db);
        let mut wifi = WifiFingerprintScheme::new(wifi_db);
        let frames = frames_for(&scenario, DeviceProfile::nexus_5x(), 67);
        let mut cell_err = Vec::new();
        let mut wifi_err = Vec::new();
        for f in &frames {
            if let Some(e) = cell.update(f) {
                cell_err.push(e.position.distance(f.true_position));
            }
            if let Some(e) = wifi.update(f) {
                wifi_err.push(e.position.distance(f.true_position));
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&cell_err) > mean(&wifi_err),
            "cellular ({}) should be coarser than WiFi ({})",
            mean(&cell_err),
            mean(&wifi_err)
        );
    }

    #[test]
    fn empty_scan_yields_none() {
        let scenario = campus::daily_path(69);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 70);
        let db = CellFingerprintDb::survey_cell(&mut hub, &scenario.survey_points(3.0, 12.0));
        let mut scheme = CellFingerprintScheme::new(db);
        let frame = SensorFrame {
            t: 0.0,
            true_position: Point::origin(),
            wifi: None,
            cell: Some(CellScan::default()),
            gps: None,
            steps: vec![],
            landmark: None,
            light_lux: 100.0,
            magnetic_variance: 0.5,
        };
        assert!(scheme.update(&frame).is_none());
    }
}
