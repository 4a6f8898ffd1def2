//! Crowdsourced radio-map construction (Zee \[9\] / LiFS \[10\] style).
//!
//! The paper *assumes* its fingerprint databases are kept fresh by "service
//! providers or crowdsourcing \[9\], \[10\]". This module implements that
//! assumption: instead of a surveyed grid, the WiFi database is built from
//! ordinary walks — each scan is stamped with the walker's *estimated*
//! position (e.g. from PDR) and a quality weight, nearby observations are
//! clustered into grid cells, and per-cell RSSI vectors are averaged.
//! Position error in the contributing estimates smears the map, so a
//! crowdsourced database is coarser than a surveyed one — which the
//! fingerprint-density feature (`beta_1`) then correctly reports.

use crate::fingerprint::{FingerprintDb, WifiFingerprintDb};
use uniloc_env::ApId;
use uniloc_geom::Point;
use uniloc_sensors::WifiScan;

/// One crowdsourced observation: a scan stamped with an estimated position.
#[derive(Debug, Clone, PartialEq)]
pub struct CrowdObservation {
    /// The contributor's position estimate when the scan was taken.
    pub position: Point,
    /// The scan itself.
    pub scan: WifiScan,
    /// Contributor confidence in `position` (0..=1]; e.g. higher right
    /// after a landmark calibration.
    pub weight: f64,
}

/// Accumulates crowdsourced observations into a radio map.
///
/// # Examples
///
/// ```no_run
/// use uniloc_schemes::crowdsource::RadioMapBuilder;
/// use uniloc_geom::Point;
/// use uniloc_sensors::WifiScan;
///
/// let mut builder = RadioMapBuilder::new(3.0);
/// // ... feed (estimated position, scan, weight) triples from walks ...
/// # let scan = WifiScan::default();
/// builder.observe(Point::new(12.0, 5.0), scan, 0.8);
/// let db = builder.build();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RadioMapBuilder {
    cell_m: f64,
    observations: Vec<CrowdObservation>,
}

uniloc_stats::impl_json_struct!(CrowdObservation { position, scan, weight });
uniloc_stats::impl_json_struct!(RadioMapBuilder { cell_m, observations });

impl RadioMapBuilder {
    /// Creates a builder with the given grid cell size (m).
    ///
    /// # Panics
    ///
    /// Panics if `cell_m <= 0`.
    pub fn new(cell_m: f64) -> Self {
        assert!(cell_m > 0.0, "cell size must be positive");
        RadioMapBuilder { cell_m, observations: Vec::new() }
    }

    /// Adds one observation. Zero/negative weights and empty scans are
    /// dropped (they cannot contribute).
    pub fn observe(&mut self, position: Point, scan: WifiScan, weight: f64) {
        if weight > 0.0 && !scan.is_empty() && position.is_finite() {
            self.observations.push(CrowdObservation { position, scan, weight: weight.min(1.0) });
        }
    }

    /// Number of accepted observations so far.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// Whether nothing has been contributed yet.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// Aggregates the observations into a [`WifiFingerprintDb`]: one
    /// fingerprint per grid cell, each AP's RSSI the weight-averaged reading
    /// over the cell's observations.
    pub fn build(&self) -> WifiFingerprintDb {
        use std::collections::BTreeMap;
        // cell -> (sum_w, sum_w*x, sum_w*y, ap -> (sum_w, sum_w*rssi))
        #[derive(Default)]
        struct Cell {
            w: f64,
            wx: f64,
            wy: f64,
            aps: BTreeMap<u32, (f64, f64)>,
        }
        let mut cells: BTreeMap<(i64, i64), Cell> = BTreeMap::new();
        for obs in &self.observations {
            let key = (
                (obs.position.x / self.cell_m).floor() as i64,
                (obs.position.y / self.cell_m).floor() as i64,
            );
            let cell = cells.entry(key).or_default();
            cell.w += obs.weight;
            cell.wx += obs.weight * obs.position.x;
            cell.wy += obs.weight * obs.position.y;
            for &(ap, rssi) in &obs.scan.readings {
                let e = cell.aps.entry(ap.0).or_insert((0.0, 0.0));
                e.0 += obs.weight;
                e.1 += obs.weight * rssi;
            }
        }
        let entries = cells.into_values().filter(|c| c.w > 0.0).map(|c| {
            let pos = Point::new(c.wx / c.w, c.wy / c.w);
            let readings: Vec<(ApId, f64)> = c
                .aps
                .iter()
                // Keep APs heard in a meaningful share of the cell's mass.
                .filter(|(_, (w, _))| *w >= 0.3 * c.w)
                .map(|(&ap, &(w, wr))| (ApId(ap), wr / w))
                .collect();
            (pos, WifiScan { readings })
        });
        FingerprintDb::from_entries(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radar::WifiFingerprintScheme;
    use crate::LocalizationScheme;
    use uniloc_rng::Rng;
    use uniloc_env::{venues, GaitProfile, Walker};
    use uniloc_sensors::{DeviceProfile, SensorHub};

    #[test]
    fn builder_validates_input() {
        let mut b = RadioMapBuilder::new(3.0);
        assert!(b.is_empty());
        b.observe(Point::new(1.0, 1.0), WifiScan::default(), 1.0); // empty scan dropped
        b.observe(Point::new(1.0, 1.0), scan(&[(0, -50.0)]), 0.0); // zero weight dropped
        b.observe(Point::new(f64::NAN, 1.0), scan(&[(0, -50.0)]), 1.0); // NaN dropped
        assert!(b.is_empty());
        b.observe(Point::new(1.0, 1.0), scan(&[(0, -50.0)]), 0.7);
        assert_eq!(b.len(), 1);
    }

    fn scan(pairs: &[(u32, f64)]) -> WifiScan {
        WifiScan { readings: pairs.iter().map(|&(a, r)| (ApId(a), r)).collect() }
    }

    #[test]
    fn aggregation_weight_averages_within_cells() {
        let mut b = RadioMapBuilder::new(10.0);
        // Two observations in the same cell with different weights.
        b.observe(Point::new(2.0, 2.0), scan(&[(0, -40.0)]), 1.0);
        b.observe(Point::new(4.0, 2.0), scan(&[(0, -60.0)]), 1.0);
        let db = b.build();
        assert_eq!(db.len(), 1);
        let (pos, fp) = db.entries().next().unwrap();
        assert!((pos.x - 3.0).abs() < 1e-9);
        assert!((fp.rssi(ApId(0)).unwrap() + 50.0).abs() < 1e-9);
    }

    #[test]
    fn rare_aps_filtered_from_cells() {
        let mut b = RadioMapBuilder::new(10.0);
        for _ in 0..10 {
            b.observe(Point::new(2.0, 2.0), scan(&[(0, -50.0)]), 1.0);
        }
        // One flickering AP observed once.
        b.observe(Point::new(2.5, 2.0), scan(&[(0, -50.0), (7, -85.0)]), 1.0);
        let db = b.build();
        let (_, fp) = db.entries().next().unwrap();
        assert!(fp.rssi(ApId(0)).is_some());
        assert!(fp.rssi(ApId(7)).is_none(), "1/11 of cell mass must be filtered");
    }

    #[test]
    fn crowdsourced_map_localizes_close_to_surveyed() {
        // Build a radio map from 3 noisy contributor walks, then localize a
        // fresh walk against it and against the surveyed map.
        let scenario = venues::training_office(141);
        let mut builder = RadioMapBuilder::new(3.0);
        let mut noise_rng = Rng::seed_from_u64(142);
        for walk_idx in 0..3u64 {
            let mut walker = Walker::new(
                GaitProfile::average(),
                Rng::seed_from_u64(143 + walk_idx),
            );
            let walk = walker.walk(&scenario.route);
            let mut hub =
                SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 150 + walk_idx);
            for f in hub.sample_walk(&walk, 0.5) {
                if let Some(scan) = f.wifi {
                    // Contributor position = truth + 1.5 m PDR-grade noise.
                    let noisy = Point::new(
                        f.true_position.x + noise_rng.gen_range(-1.5..1.5),
                        f.true_position.y + noise_rng.gen_range(-1.5..1.5),
                    );
                    builder.observe(noisy, scan, 0.8);
                }
            }
        }
        let crowd_db = builder.build();
        assert!(crowd_db.len() > 30, "crowd map too sparse: {}", crowd_db.len());

        let mut surveyed_hub =
            SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 160);
        let surveyed = WifiFingerprintDb::survey_wifi(
            &mut surveyed_hub,
            &scenario.survey_points(3.0, 12.0),
        );

        let mut crowd_scheme = WifiFingerprintScheme::new(crowd_db);
        let mut surveyed_scheme = WifiFingerprintScheme::new(surveyed);
        let mut walker = Walker::new(GaitProfile::average(), Rng::seed_from_u64(161));
        let walk = walker.walk(&scenario.route);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 162);
        let frames = hub.sample_walk(&walk, 0.5);
        let err = |s: &mut WifiFingerprintScheme| {
            let e: Vec<f64> = frames
                .iter()
                .filter_map(|f| s.update(f).map(|e| e.position.distance(f.true_position)))
                .collect();
            e.iter().sum::<f64>() / e.len() as f64
        };
        let crowd_err = err(&mut crowd_scheme);
        let surveyed_err = err(&mut surveyed_scheme);
        assert!(crowd_err < 10.0, "crowd-map error {crowd_err:.2}");
        assert!(
            crowd_err < surveyed_err * 3.0 + 2.0,
            "crowd map ({crowd_err:.2}) too far behind surveyed ({surveyed_err:.2})"
        );
    }

    #[test]
    #[should_panic(expected = "cell size must be positive")]
    fn zero_cell_panics() {
        RadioMapBuilder::new(0.0);
    }

    #[test]
    fn json_roundtrip() {
        let mut b = RadioMapBuilder::new(2.0);
        b.observe(Point::new(1.0, 2.0), scan(&[(3, -44.0)]), 0.9);
        let json = uniloc_stats::json::to_string(&b);
        let back: RadioMapBuilder = uniloc_stats::json::from_str(&json).unwrap();
        assert_eq!(b, back);
    }
}
