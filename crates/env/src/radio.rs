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

/// A WiFi access point, transmitting at [`AP_TX_POWER_DBM`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessPoint {
    /// Stable identifier (the BSSID stand-in).
    pub id: ApId,
    /// Position on the local map.
    pub position: Point,
}

impl AccessPoint {
    /// Creates an access point.
    pub fn new(id: ApId, position: Point) -> Self {
        AccessPoint { id, position }
    }
}

/// A cellular (GSM) tower, transmitting at [`TOWER_TX_POWER_DBM`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellTower {
    /// Stable identifier (the cell-id stand-in).
    pub id: TowerId,
    /// Position on the local map (towers sit hundreds of meters away).
    pub position: Point,
}

impl CellTower {
    /// Creates a tower.
    pub fn new(id: TowerId, position: Point) -> Self {
        CellTower { id, position }
    }
}

// The channel every venue shares: one log-distance path-loss model per
// radio, with lognormal shadowing and fresh temporal fading.

/// Access-point transmit power (dBm).
pub const AP_TX_POWER_DBM: f64 = 20.0;
/// Tower transmit power (dBm; macro cells are ~43 dBm).
pub const TOWER_TX_POWER_DBM: f64 = 43.0;
/// Path-loss exponent for WiFi links (indoor-ish, ~3).
pub const WIFI_EXPONENT: f64 = 3.0;
/// Reference path loss at 1 m for WiFi (dB).
pub const WIFI_REF_LOSS_DB: f64 = 40.0;
/// Per-wall attenuation (dB) for WiFi links.
pub const WALL_LOSS_DB: f64 = 5.0;
/// Cap on total wall attenuation (dB) — beyond a few walls, diffraction
/// dominates.
pub const MAX_WALL_LOSS_DB: f64 = 20.0;
/// WiFi receiver sensitivity floor (dBm).
pub const WIFI_FLOOR_DBM: f64 = -90.0;
/// Lognormal shadowing sigma for WiFi (dB).
pub const WIFI_SHADOWING_SIGMA_DB: f64 = 4.5;
/// Fast temporal fading sigma for WiFi indoors (dB), fresh per
/// measurement.
pub const WIFI_TEMPORAL_SIGMA_DB: f64 = 2.5;
/// Fast temporal fading sigma for WiFi outdoors (dB) — multipath from
/// people and vehicles makes outdoor links flutter harder.
pub const WIFI_TEMPORAL_OUTDOOR_SIGMA_DB: f64 = 5.0;
/// Path-loss exponent for cellular links.
pub const CELL_EXPONENT: f64 = 3.5;
/// Reference path loss at 1 m for cellular (dB).
pub const CELL_REF_LOSS_DB: f64 = 32.0;
/// Cellular receiver sensitivity floor (dBm).
pub const CELL_FLOOR_DBM: f64 = -112.0;
/// Lognormal shadowing sigma for cellular (dB).
pub const CELL_SHADOWING_SIGMA_DB: f64 = 8.0;
/// Fast temporal fading sigma for cellular (dB).
pub const CELL_TEMPORAL_SIGMA_DB: f64 = 2.0;

/// Deterministic mean WiFi RSS at distance `d` meters from an access point
/// through `walls` walls (before shadowing/fading), in dBm.
pub fn wifi_mean_rss(d: f64, walls: usize) -> f64 {
    let d = d.max(1.0);
    let wall_loss = (walls as f64 * WALL_LOSS_DB).min(MAX_WALL_LOSS_DB);
    AP_TX_POWER_DBM - WIFI_REF_LOSS_DB - 10.0 * WIFI_EXPONENT * d.log10() - wall_loss
}

/// Deterministic mean cellular RSS at distance `d` meters from a tower with
/// `penetration_db` building penetration loss, in dBm.
pub fn cell_mean_rss(d: f64, penetration_db: f64) -> f64 {
    let d = d.max(1.0);
    TOWER_TX_POWER_DBM - CELL_REF_LOSS_DB - 10.0 * CELL_EXPONENT * d.log10() - penetration_db
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
        let r1 = wifi_mean_rss(1.0, 0);
        let r10 = wifi_mean_rss(10.0, 0);
        let r100 = wifi_mean_rss(100.0, 0);
        assert!(r1 > r10 && r10 > r100);
        // Log-distance: each decade costs 10 * n dB.
        assert!((r1 - r10 - 30.0).abs() < 1e-9);
        assert!((r10 - r100 - 30.0).abs() < 1e-9);
    }

    #[test]
    fn wifi_rss_at_reference_distance() {
        assert_eq!(wifi_mean_rss(1.0, 0), -20.0);
        // Distances below 1 m are clamped.
        assert_eq!(wifi_mean_rss(0.1, 0), -20.0);
    }

    #[test]
    fn wall_attenuation_caps() {
        let none = wifi_mean_rss(10.0, 0);
        let two = wifi_mean_rss(10.0, 2);
        let ten = wifi_mean_rss(10.0, 10);
        assert_eq!(none - two, 10.0);
        assert_eq!(none - ten, MAX_WALL_LOSS_DB);
    }

    #[test]
    fn cell_rss_with_penetration() {
        let outdoor = cell_mean_rss(500.0, 0.0);
        let basement = cell_mean_rss(500.0, 32.0);
        assert_eq!(outdoor - basement, 32.0);
        // A 500 m macro link is audible outdoors...
        assert!(outdoor > CELL_FLOOR_DBM);
    }

    #[test]
    fn typical_links_against_floor() {
        // A WiFi AP 30 m away through 2 walls is audible...
        assert!(wifi_mean_rss(30.0, 2) > WIFI_FLOOR_DBM);
        // ...but not at 200 m through many walls.
        assert!(wifi_mean_rss(200.0, 6) < WIFI_FLOOR_DBM);
    }

    #[test]
    fn id_display() {
        assert_eq!(ApId(3).to_string(), "ap3");
        assert_eq!(TowerId(1).to_string(), "cell1");
    }
}
