//! The cellular RSSI fingerprinting scheme (Otsason et al. \[22\]).
//!
//! "We use the same fingerprinting algorithm of RADAR on cellular GSM
//! signals." Macro towers are far away and few, so accuracy is coarse —
//! but cellular reaches places WiFi and GPS do not (the paper's basement
//! segment is where this scheme wins 11.4% of all locations).

use crate::estimate::{LocalizationScheme, LocationEstimate, SchemeId};
use crate::fingerprint::CellFingerprintDb;
use uniloc_sensors::SensorFrame;

/// Number of top candidates for the spread statistic (k = 3, as for WiFi).
pub const TOP_K: usize = 3;

/// The cellular fingerprinting scheme.
#[derive(Debug, Clone)]
pub struct CellFingerprintScheme {
    db: CellFingerprintDb,
    last_matches: Vec<crate::fingerprint::FingerprintMatch>,
}

impl CellFingerprintScheme {
    /// Creates the scheme over an offline cellular fingerprint database.
    pub fn new(db: CellFingerprintDb) -> Self {
        CellFingerprintScheme { db, last_matches: Vec::new() }
    }

    /// The offline database (shared with UniLoc's feature extractor).
    pub fn db(&self) -> &CellFingerprintDb {
        &self.db
    }
}

impl LocalizationScheme for CellFingerprintScheme {
    fn id(&self) -> SchemeId {
        SchemeId::Cellular
    }

    fn update(&mut self, frame: &SensorFrame) -> Option<LocationEstimate> {
        self.last_matches.clear();
        let scan = frame.cell.as_ref()?;
        if scan.is_empty() {
            return None;
        }
        self.db.match_scan_into(scan, TOP_K, &mut self.last_matches);
        let best = *self.last_matches.first()?;
        let spread = if self.last_matches.len() > 1 {
            Some(
                self.last_matches
                    .iter()
                    .skip(1)
                    .map(|c| c.position.distance(best.position))
                    .sum::<f64>()
                    / (self.last_matches.len() - 1) as f64,
            )
        } else {
            None
        };
        Some(LocationEstimate { position: best.position, spread })
    }

    fn posterior(&self) -> Option<Vec<(uniloc_geom::Point, f64)>> {
        if self.last_matches.is_empty() {
            return None;
        }
        let d0 = self.last_matches[0].distance;
        Some(
            self.last_matches
                .iter()
                .map(|m| (m.position, (-(m.distance - d0) / 3.0).exp()))
                .collect(),
        )
    }

    fn posterior_mean(&self) -> Option<uniloc_geom::Point> {
        if self.last_matches.is_empty() {
            return None;
        }
        let d0 = self.last_matches[0].distance;
        let weight = |m: &crate::fingerprint::FingerprintMatch| (-(m.distance - d0) / 3.0).exp();
        let w: f64 = self.last_matches.iter().map(weight).sum();
        if w > 0.0 {
            let x = self.last_matches.iter().map(|m| weight(m) * m.position.x).sum::<f64>() / w;
            let y = self.last_matches.iter().map(|m| weight(m) * m.position.y).sum::<f64>() / w;
            Some(uniloc_geom::Point::new(x, y))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniloc_rng::Rng;
    use uniloc_env::{campus, EnvKind, GaitProfile, Walker};
    use uniloc_sensors::{DeviceProfile, SensorHub};

    #[test]
    fn works_in_basement_where_wifi_dies() {
        let scenario = campus::daily_path(61);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 62);
        let points = scenario.survey_points(3.0, 12.0);
        let db = CellFingerprintDb::survey_cell(&mut hub, &points);
        let mut scheme = CellFingerprintScheme::new(db);

        let mut walker = Walker::new(GaitProfile::average(), Rng::seed_from_u64(63));
        let walk = walker.walk(&scenario.route);
        let mut run_hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 64);
        let frames = run_hub.sample_walk(&walk, 0.5);

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
        let scenario = uniloc_env::venues::training_office(65);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 66);
        let points = scenario.survey_points(3.0, 12.0);
        let cell_db = CellFingerprintDb::survey_cell(&mut hub, &points);
        let wifi_db = crate::fingerprint::WifiFingerprintDb::survey_wifi(&mut hub, &points);
        let mut cell = CellFingerprintScheme::new(cell_db);
        let mut wifi = crate::wifi::WifiFingerprintScheme::new(wifi_db);

        let mut walker = Walker::new(GaitProfile::average(), Rng::seed_from_u64(67));
        let walk = walker.walk(&scenario.route);
        let mut run_hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 68);
        let frames = run_hub.sample_walk(&walk, 0.5);
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
            true_position: uniloc_geom::Point::origin(),
            wifi: None,
            cell: Some(uniloc_sensors::CellScan::default()),
            gps: None,
            steps: vec![],
            landmark: None,
            light_lux: 100.0,
            magnetic_variance: 0.5,
        };
        assert!(scheme.update(&frame).is_none());
    }
}
