//! RF infrastructure and the log-distance path-loss channel.
//!
//! WiFi fingerprinting (RADAR \[1\]) and cellular fingerprinting (\[22\]) both
//! consume RSSI vectors. We generate them with the standard log-distance
//! path-loss model plus (a) spatially-stable lognormal shadowing (see
//! [`crate::noise`]), (b) per-wall attenuation from the floor plan, (c)
//! per-zone penetration loss, and (d) fast temporal fading drawn fresh at
//! every measurement. The receiver reports nothing below its sensitivity floor
//! — which is what makes the basement WiFi-dark and leaves "signals from two
//! cell towers on average" at the mall's basement floor, exactly the
//! conditions the paper's error models must recognize.

use uniloc_geom::Point;

/// Identifier of a WiFi access point (stable across surveys).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ApId(pub u32);

impl std::fmt::Display for ApId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ap{}", self.0)
    }
}

/// Identifier of a cellular tower.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TowerId(pub u32);

impl std::fmt::Display for TowerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cell{}", self.0)
    }
}

/// A WiFi access point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessPoint {
    /// Stable identifier (the BSSID stand-in).
    pub id: ApId,
    /// Position on the local map.
    pub position: Point,
    /// Transmit power in dBm.
    pub tx_power_dbm: f64,
}

impl AccessPoint {
    /// Creates an access point with the default 20 dBm transmit power.
    pub fn new(id: ApId, position: Point) -> Self {
        AccessPoint { id, position, tx_power_dbm: 20.0 }
    }
}

/// A cellular (GSM) tower.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellTower {
    /// Stable identifier (the cell-id stand-in).
    pub id: TowerId,
    /// Position on the local map (towers sit hundreds of meters away).
    pub position: Point,
    /// Transmit power in dBm (macro cells are ~43 dBm).
    pub tx_power_dbm: f64,
}

impl CellTower {
    /// Creates a tower with the default 43 dBm transmit power.
    pub fn new(id: TowerId, position: Point) -> Self {
        CellTower { id, position, tx_power_dbm: 43.0 }
    }
}

/// Channel parameters for the simulated world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PropagationConfig {
    /// Path-loss exponent for WiFi links (indoor-ish, ~3).
    pub wifi_exponent: f64,
    /// Reference path loss at 1 m for WiFi (dB).
    pub wifi_ref_loss_db: f64,
    /// Per-wall attenuation (dB) for WiFi links.
    pub wall_loss_db: f64,
    /// Cap on total wall attenuation (dB) — beyond a few walls, diffraction
    /// dominates.
    pub max_wall_loss_db: f64,
    /// WiFi receiver sensitivity floor (dBm).
    pub wifi_floor_dbm: f64,
    /// Lognormal shadowing sigma for WiFi (dB).
    pub wifi_shadowing_sigma_db: f64,
    /// Fast temporal fading sigma for WiFi indoors (dB), fresh per
    /// measurement.
    pub wifi_temporal_sigma_db: f64,
    /// Fast temporal fading sigma for WiFi outdoors (dB) — multipath from
    /// people and vehicles makes outdoor links flutter harder.
    pub wifi_temporal_outdoor_sigma_db: f64,
    /// Path-loss exponent for cellular links.
    pub cell_exponent: f64,
    /// Reference path loss at 1 m for cellular (dB).
    pub cell_ref_loss_db: f64,
    /// Cellular receiver sensitivity floor (dBm).
    pub cell_floor_dbm: f64,
    /// Lognormal shadowing sigma for cellular (dB).
    pub cell_shadowing_sigma_db: f64,
    /// Fast temporal fading sigma for cellular (dB).
    pub cell_temporal_sigma_db: f64,
}

impl Default for PropagationConfig {
    fn default() -> Self {
        PropagationConfig {
            wifi_exponent: 3.0,
            wifi_ref_loss_db: 40.0,
            wall_loss_db: 5.0,
            max_wall_loss_db: 20.0,
            wifi_floor_dbm: -90.0,
            wifi_shadowing_sigma_db: 4.5,
            wifi_temporal_sigma_db: 2.5,
            wifi_temporal_outdoor_sigma_db: 5.0,
            cell_exponent: 3.5,
            cell_ref_loss_db: 32.0,
            cell_floor_dbm: -112.0,
            cell_shadowing_sigma_db: 8.0,
            cell_temporal_sigma_db: 2.0,
        }
    }
}

impl PropagationConfig {
    /// Deterministic mean WiFi RSS at distance `d` meters through `walls`
    /// walls (before shadowing/fading), in dBm.
    pub fn wifi_mean_rss(&self, tx_power_dbm: f64, d: f64, walls: usize) -> f64 {
        let d = d.max(1.0);
        let wall_loss = (walls as f64 * self.wall_loss_db).min(self.max_wall_loss_db);
        tx_power_dbm - self.wifi_ref_loss_db - 10.0 * self.wifi_exponent * d.log10() - wall_loss
    }

    /// Deterministic mean cellular RSS at distance `d` meters with
    /// `penetration_db` building penetration loss, in dBm.
    pub fn cell_mean_rss(&self, tx_power_dbm: f64, d: f64, penetration_db: f64) -> f64 {
        let d = d.max(1.0);
        tx_power_dbm - self.cell_ref_loss_db - 10.0 * self.cell_exponent * d.log10()
            - penetration_db
    }
}

impl uniloc_stats::ToJson for ApId {
    fn to_json(&self) -> uniloc_stats::Json {
        uniloc_stats::ToJson::to_json(&self.0)
    }
}

impl uniloc_stats::FromJson for ApId {
    fn from_json(json: &uniloc_stats::Json) -> Result<Self, uniloc_stats::JsonError> {
        uniloc_stats::FromJson::from_json(json).map(ApId)
    }
}

impl uniloc_stats::ToJson for TowerId {
    fn to_json(&self) -> uniloc_stats::Json {
        uniloc_stats::ToJson::to_json(&self.0)
    }
}

impl uniloc_stats::FromJson for TowerId {
    fn from_json(json: &uniloc_stats::Json) -> Result<Self, uniloc_stats::JsonError> {
        uniloc_stats::FromJson::from_json(json).map(TowerId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wifi_rss_decreases_with_distance() {
        let c = PropagationConfig::default();
        let r1 = c.wifi_mean_rss(20.0, 1.0, 0);
        let r10 = c.wifi_mean_rss(20.0, 10.0, 0);
        let r100 = c.wifi_mean_rss(20.0, 100.0, 0);
        assert!(r1 > r10 && r10 > r100);
        // Log-distance: each decade costs 10 * n dB.
        assert!((r1 - r10 - 30.0).abs() < 1e-9);
        assert!((r10 - r100 - 30.0).abs() < 1e-9);
    }

    #[test]
    fn wifi_rss_at_reference_distance() {
        let c = PropagationConfig::default();
        assert_eq!(c.wifi_mean_rss(20.0, 1.0, 0), -20.0);
        // Distances below 1 m are clamped.
        assert_eq!(c.wifi_mean_rss(20.0, 0.1, 0), -20.0);
    }

    #[test]
    fn wall_attenuation_caps() {
        let c = PropagationConfig::default();
        let none = c.wifi_mean_rss(20.0, 10.0, 0);
        let two = c.wifi_mean_rss(20.0, 10.0, 2);
        let ten = c.wifi_mean_rss(20.0, 10.0, 10);
        assert_eq!(none - two, 10.0);
        assert_eq!(none - ten, c.max_wall_loss_db);
    }

    #[test]
    fn cell_rss_with_penetration() {
        let c = PropagationConfig::default();
        let outdoor = c.cell_mean_rss(43.0, 500.0, 0.0);
        let basement = c.cell_mean_rss(43.0, 500.0, 32.0);
        assert_eq!(outdoor - basement, 32.0);
        // A 500 m macro link is audible outdoors...
        assert!(outdoor > c.cell_floor_dbm);
    }

    #[test]
    fn typical_links_against_floor() {
        let c = PropagationConfig::default();
        // A WiFi AP 30 m away through 2 walls is audible...
        assert!(c.wifi_mean_rss(20.0, 30.0, 2) > c.wifi_floor_dbm);
        // ...but not at 200 m through many walls.
        assert!(c.wifi_mean_rss(20.0, 200.0, 6) < c.wifi_floor_dbm);
    }

    #[test]
    fn id_display() {
        assert_eq!(ApId(3).to_string(), "ap3");
        assert_eq!(TowerId(1).to_string(), "cell1");
    }

    #[test]
    fn constructors_use_default_power() {
        let ap = AccessPoint::new(ApId(0), Point::origin());
        assert_eq!(ap.tx_power_dbm, 20.0);
        let tower = CellTower::new(TowerId(0), Point::origin());
        assert_eq!(tower.tx_power_dbm, 43.0);
    }
}
