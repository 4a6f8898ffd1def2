//! Offline RSSI fingerprint databases.
//!
//! RADAR-style fingerprinting needs an offline survey: "we first build an
//! offline fingerprint database by collecting RSSIs from all audible APs at
//! different locations" — 1-3 m grids indoors, 12 m outdoors, "each offline
//! fingerprint has one sample from each audible AP". The same machinery
//! serves the cellular scheme over tower RSSIs.

use std::sync::Arc;

use crate::estimate::SchemeId;
use crate::index::SignalIndex;
use uniloc_geom::Point;
use uniloc_sensors::{CellScan, RssiCalibration, SensorFrame, SensorHub, WifiScan};

/// Penalty (dB) charged per AP audible in only one of two compared scans:
/// the signal index, the linear reference and fusion's reweight all charge
/// it.
pub const MISSING_PENALTY_DBM: f64 = 12.0;

/// Candidates a RADAR match keeps: the fingerprint scheme's spread and
/// posterior, and the RSSI distance deviation feature (the paper sets
/// `k = 3`).
pub const TOP_K: usize = 3;

/// One radio's scans, which support the RSSI fingerprint distance.
pub trait RssiLike: Clone + Default + Send + Sync {
    /// The scheme that fingerprints this radio.
    const SCHEME: SchemeId;
    /// Fewest readings a scan needs for a meaningful match. The RADAR
    /// scheme, Horus and the feature extractor's RADAR features all gate
    /// on it, so a scheme and its features agree on availability.
    const MIN_READINGS: usize;
    /// This radio's scan in `frame`, if the frame carries one.
    fn in_frame(frame: &SensorFrame) -> Option<&Self>;
    /// Fingerprint (Euclidean) distance, charging [`MISSING_PENALTY_DBM`]
    /// per unshared AP; `None` when no APs are shared.
    fn fingerprint_distance(&self, other: &Self) -> Option<f64>;
    /// Whether nothing was audible.
    fn no_signal(&self) -> bool;
    /// Number of raw `(id, RSSI)` readings in the scan.
    fn reading_count(&self) -> usize;
    /// The `i`-th reading as a plain `(u32 id, RSSI)` pair, in the scan's
    /// own reading order. The `u32` must order exactly like the typed id
    /// (true for `ApId`/`TowerId` newtypes over `u32`), so the flat index
    /// slabs reproduce the typed merge bit-for-bit.
    fn reading(&self, i: usize) -> (u32, f64);
    /// Writes this scan, every RSSI mapped through `calibration`, into
    /// `out`, reusing its buffer.
    fn calibrated_into(&self, calibration: RssiCalibration, out: &mut Self);
}

/// [`RssiLike`] for a scan type of `(id newtype over u32, RSSI)` readings
/// that `$scheme` fingerprints from at least `$min` readings and a frame
/// carries in `$field`.
macro_rules! impl_rssi_like {
    ($scan:ty, $scheme:expr, $min:expr, $field:ident) => {
        impl RssiLike for $scan {
            const SCHEME: SchemeId = $scheme;
            const MIN_READINGS: usize = $min;
            fn in_frame(frame: &SensorFrame) -> Option<&Self> {
                frame.$field.as_ref()
            }
            fn fingerprint_distance(&self, other: &Self) -> Option<f64> {
                self.distance(other, MISSING_PENALTY_DBM)
            }
            fn no_signal(&self) -> bool {
                self.is_empty()
            }
            fn reading_count(&self) -> usize {
                self.readings.len()
            }
            fn reading(&self, i: usize) -> (u32, f64) {
                let (id, r) = self.readings[i];
                (id.0, r)
            }
            fn calibrated_into(&self, calibration: RssiCalibration, out: &mut Self) {
                {
                    // Capacity growth is a warmup artifact (the buffer's
                    // high-water mark), not per-epoch work — keep it off
                    // the allocation meter.
                    let _pause = uniloc_obs::alloc::pause();
                    out.readings.clear();
                    out.readings.reserve(self.readings.len());
                }
                out.readings
                    .extend(self.readings.iter().map(|&(id, r)| (id, calibration.apply(r))));
            }
        }
    };
}

// "When the number of audible APs is less than 3, it is unlikely for the
// RSSI fingerprinting scheme to provide a meaningful result." Cellular
// gates at one tower: the basement, where it is the scheme that still
// works, hears about two.
impl_rssi_like!(WifiScan, SchemeId::Wifi, 3, wifi);
impl_rssi_like!(CellScan, SchemeId::Cellular, 1, cell);

/// One match candidate from a fingerprint lookup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FingerprintMatch {
    /// The fingerprint's survey position.
    pub position: Point,
    /// RSSI distance between the online scan and this fingerprint.
    pub distance: f64,
}

/// An offline fingerprint database over scans of type `S`.
///
/// Construction builds a [`SignalIndex`] (struct-of-arrays slabs, the
/// heard-id list and a nearest-neighbour table) over the entries once, so
/// [`match_scan`](Self::match_scan) and
/// [`local_density`](Self::local_density) run allocation-free top-k and
/// table-driven kernels — with output bit-identical to the retained
/// linear references (see the `index` module docs and
/// `tests/index_differential.rs`).
///
/// Clones share one survey: a session's context, its fingerprint schemes
/// and its fusion scheme all read the same entries and index.
#[derive(Debug, Clone, PartialEq)]
pub struct FingerprintDb<S> {
    survey: Arc<Survey<S>>,
}

/// What every clone of a [`FingerprintDb`] shares.
#[derive(Debug, Clone, PartialEq)]
struct Survey<S> {
    entries: Vec<(Point, S)>,
    index: SignalIndex,
}

/// WiFi fingerprint database.
pub type WifiFingerprintDb = FingerprintDb<WifiScan>;

/// Cellular fingerprint database.
pub type CellFingerprintDb = FingerprintDb<CellScan>;

impl<S: RssiLike> FingerprintDb<S> {
    /// Builds a database from raw `(position, scan)` pairs, dropping empty
    /// scans (a fingerprint without any audible AP cannot be matched).
    pub fn from_entries(entries: impl IntoIterator<Item = (Point, S)>) -> Self {
        let entries: Vec<(Point, S)> = entries
            .into_iter()
            .filter(|(_, s)| !s.no_signal())
            .collect();
        Self::with_entries(entries)
    }

    /// Internal constructor: every database goes through here so the
    /// signal index is always built from exactly the stored entries.
    fn with_entries(entries: Vec<(Point, S)>) -> Self {
        let index = SignalIndex::build(&entries);
        FingerprintDb { survey: Arc::new(Survey { entries, index }) }
    }

    /// Number of usable fingerprints.
    pub fn len(&self) -> usize {
        self.survey.entries.len()
    }

    /// Whether the survey produced no usable fingerprints.
    pub fn is_empty(&self) -> bool {
        self.survey.entries.is_empty()
    }

    /// Survey positions of all fingerprints.
    pub fn positions(&self) -> impl Iterator<Item = Point> + '_ {
        self.survey.entries.iter().map(|(p, _)| *p)
    }

    /// All `(position, fingerprint)` entries.
    pub fn entries(&self) -> impl Iterator<Item = (Point, &S)> + '_ {
        self.survey.entries.iter().map(|(p, s)| (*p, s))
    }

    /// The `i`-th fingerprint, in entry order.
    pub fn scan(&self, i: usize) -> &S {
        &self.survey.entries[i].1
    }

    /// The `k` fingerprints closest (in RSSI space) to an online scan,
    /// sorted by ascending distance. Empty when the scan or the database is
    /// empty or no fingerprint shares an AP with the scan.
    pub fn match_scan(&self, scan: &S, k: usize) -> Vec<FingerprintMatch> {
        let mut out = Vec::new();
        self.match_scan_into(scan, k, &mut out);
        out
    }

    /// [`match_scan`](Self::match_scan) into a caller-owned buffer — the
    /// hot-path form the per-epoch loop uses to stay allocation-free.
    pub fn match_scan_into(&self, scan: &S, k: usize, out: &mut Vec<FingerprintMatch>) {
        self.survey.index.match_into(scan, k, out);
    }

    /// Whether some fingerprint hears an AP (tower) id of `scan`. For a
    /// non-empty scan, with it and the fingerprints in id order (as every
    /// scan type keeps them), this is exactly
    /// `!match_scan(scan, k).is_empty()` for any `k >= 1`, without scoring
    /// anything — the fusion scheme's emptiness test.
    pub fn hears_any(&self, scan: &S) -> bool {
        self.survey.index.hears_any(scan)
    }

    /// The retained linear-scan reference implementation of
    /// [`match_scan`](Self::match_scan): scores every entry, ranks with the
    /// same stable `total_cmp` sort. The differential suite asserts the
    /// slab path returns exactly this on every input; it is not used on
    /// the hot path.
    pub fn match_scan_linear(&self, scan: &S, k: usize) -> Vec<FingerprintMatch> {
        if scan.no_signal() || k == 0 {
            return Vec::new();
        }
        let mut matches: Vec<FingerprintMatch> = self
            .entries()
            .filter_map(|(p, fp)| {
                scan.fingerprint_distance(fp).map(|d| FingerprintMatch { position: p, distance: d })
            })
            .collect();
        // `total_cmp` instead of `partial_cmp(..).expect(..)`: a NaN
        // distance (corrupt RSSI that slipped past upstream validation)
        // must sort deterministically, not panic mid-walk.
        matches.sort_by(|a, b| a.distance.total_cmp(&b.distance));
        matches.truncate(k);
        matches
    }

    /// Average spacing of fingerprints around `p`: the paper's spatial
    /// density feature (`beta_1`) — "measured by the average distance
    /// between two fingerprints around the location under consideration".
    ///
    /// Computed as the mean nearest-neighbor distance among fingerprints
    /// within `radius` of `p`. Returns `None` when fewer than two
    /// fingerprints are in range (density undefined — treat as very sparse).
    pub fn local_density(&self, p: Point, radius: f64) -> Option<f64> {
        self.survey.index.local_density(p, radius)
    }

    /// The retained reference implementation of
    /// [`local_density`](Self::local_density), which defines it: the
    /// in-radius set, stably sorted by squared distance to `p`, and the
    /// mean over its 40 closest points of the distance to their nearest
    /// other in-radius point. For dense surveys probing the points closest
    /// to `p` against the whole neighborhood gives the same estimate as
    /// the full O(n^2) pass (the local grid is homogeneous) at O(40·n).
    /// The differential suite asserts the table-driven path returns
    /// exactly this; it is not used on the hot path.
    pub fn local_density_linear(&self, p: Point, radius: f64) -> Option<f64> {
        const PROBES: usize = 40;
        let mut nearby: Vec<Point> = self.positions().filter(|q| q.distance(p) <= radius).collect();
        if nearby.len() < 2 {
            return None;
        }
        nearby.sort_by(|a, b| a.distance_sq(p).total_cmp(&b.distance_sq(p)));
        let probes = nearby.len().min(PROBES);
        let mut total = 0.0;
        for i in 0..probes {
            let a = nearby[i];
            let mut best = f64::INFINITY;
            for (j, b) in nearby.iter().enumerate() {
                if i != j {
                    best = best.min(a.distance_sq(*b));
                }
            }
            total += best.sqrt();
        }
        Some(total / probes as f64)
    }

    /// Thins the database so remaining fingerprints are at least
    /// `min_spacing` apart (greedy) — used for the paper's density sweep
    /// ("for larger fingerprint distances (e.g., 5 m, 10 m, and 15 m), we
    /// downsample the fine-grained fingerprint data").
    pub fn downsampled(&self, min_spacing: f64) -> Self {
        let mut kept: Vec<(Point, S)> = Vec::new();
        for (p, s) in self.entries() {
            if kept.iter().all(|(q, _)| q.distance(p) >= min_spacing) {
                kept.push((p, s.clone()));
            }
        }
        Self::with_entries(kept)
    }
}

impl WifiFingerprintDb {
    /// Surveys WiFi fingerprints at the given points with a device hub —
    /// the offline phase of RADAR.
    pub fn survey_wifi(hub: &mut SensorHub<'_>, points: &[Point]) -> Self {
        FingerprintDb::from_entries(points.iter().map(|&p| (p, hub.scan_wifi(p))))
    }
}

impl CellFingerprintDb {
    /// Surveys cellular fingerprints at the given points.
    pub fn survey_cell(hub: &mut SensorHub<'_>, points: &[Point]) -> Self {
        FingerprintDb::from_entries(points.iter().map(|&p| (p, hub.scan_cell(p))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniloc_env::campus;
    use uniloc_sensors::DeviceProfile;

    fn synthetic_db() -> WifiFingerprintDb {
        use uniloc_env::ApId;
        // Fingerprints along a line: RSSI of a single AP falls with x.
        let entries = (0..20).map(|i| {
            let p = Point::new(i as f64 * 2.0, 0.0);
            let scan = WifiScan { readings: vec![(ApId(0), -40.0 - i as f64 * 2.0)] };
            (p, scan)
        });
        FingerprintDb::from_entries(entries)
    }

    #[test]
    fn match_scan_finds_nearest_rssi() {
        use uniloc_env::ApId;
        let db = synthetic_db();
        let online = WifiScan { readings: vec![(ApId(0), -50.0)] };
        let m = db.match_scan(&online, 3);
        assert_eq!(m.len(), 3);
        // -50 dBm corresponds to i = 5 -> x = 10.
        assert_eq!(m[0].position, Point::new(10.0, 0.0));
        assert!(m[0].distance <= m[1].distance && m[1].distance <= m[2].distance);
    }

    #[test]
    fn empty_scan_matches_nothing() {
        let db = synthetic_db();
        assert!(db.match_scan(&WifiScan::default(), 3).is_empty());
        assert!(db.match_scan(db.scan(0), 0).is_empty());
    }

    #[test]
    fn empty_scans_dropped_at_build() {
        use uniloc_env::ApId;
        let db = FingerprintDb::from_entries(vec![
            (Point::origin(), WifiScan::default()),
            (Point::new(1.0, 0.0), WifiScan { readings: vec![(ApId(0), -50.0)] }),
        ]);
        assert_eq!(db.len(), 1);
        assert!(!db.is_empty());
    }

    #[test]
    fn local_density_reflects_spacing() {
        let db = synthetic_db(); // 2 m spacing
        let d = db.local_density(Point::new(10.0, 0.0), 10.0).unwrap();
        assert!((d - 2.0).abs() < 1e-9, "density {d}");
        let sparse = db.downsampled(6.0);
        let d6 = sparse.local_density(Point::new(10.0, 0.0), 12.0).unwrap();
        assert!(d6 >= 6.0, "downsampled density {d6}");
    }

    #[test]
    fn local_density_needs_two_neighbors() {
        let db = synthetic_db();
        assert!(db.local_density(Point::new(500.0, 0.0), 5.0).is_none());
    }

    #[test]
    fn downsampled_respects_spacing() {
        let db = synthetic_db();
        let thin = db.downsampled(5.0);
        let pts: Vec<Point> = thin.positions().collect();
        for (i, a) in pts.iter().enumerate() {
            for b in pts.iter().skip(i + 1) {
                assert!(a.distance(*b) >= 5.0);
            }
        }
        assert!(thin.len() < db.len());
    }

    #[test]
    fn survey_on_campus_produces_usable_db() {
        let scenario = campus::daily_path(21);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 22);
        let points = scenario.survey_points(3.0, 12.0);
        let db = WifiFingerprintDb::survey_wifi(&mut hub, &points);
        assert!(db.len() > 50, "db too small: {}", db.len());
        // An online scan in the office matches fingerprints near the truth.
        let p = scenario.route.point_at(25.0);
        let online = hub.scan_wifi(p);
        let m = db.match_scan(&online, 1);
        assert!(!m.is_empty());
        assert!(m[0].position.distance(p) < 15.0, "match {} m away", m[0].position.distance(p));
    }

    #[test]
    fn cell_survey_works() {
        let scenario = campus::daily_path(23);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 24);
        let points = scenario.survey_points(3.0, 12.0);
        let db = CellFingerprintDb::survey_cell(&mut hub, &points);
        assert!(!db.is_empty());
    }
}
