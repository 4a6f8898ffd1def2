//! Zone taxonomy: the environment kinds the paper's daily path traverses.
//!
//! "The path is 320 meters and composed of different segments, including
//! indoors (office, basement passageway, semi-open corridor and car park)
//! and outdoors." Each [`EnvKind`] carries the physical properties that
//! drive sensor data quality: sky view (GPS satellite visibility), ambient
//! light and magnetic disturbance (IODetector inputs), and the penetration
//! loss cellular signals suffer inside.

use uniloc_geom::{Point, Polygon};

/// The kind of environment at a map location.
///
/// The paper "treat\[s\] all the places with roofs (e.g., corridors on the
/// edges of buildings) as indoor environment" — [`EnvKind::is_roofed`]
/// encodes exactly that split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum EnvKind {
    /// An office floor: dense APs, narrow corridors, stable signals.
    Office,
    /// An interior corridor.
    Corridor,
    /// A roofed corridor on the edge of a building (treated as indoor).
    SemiOpenCorridor,
    /// A basement passageway: no WiFi, no GPS, weak cellular.
    Basement,
    /// A covered car park.
    CarPark,
    /// An outdoor open space (grass, plaza).
    OpenSpace,
    /// An outdoor road / walkway.
    Road,
    /// A shopping-mall floor (the paper's mall floor is at basement level).
    MallFloor,
}

impl EnvKind {
    /// All kinds, for enumeration in tests and sweeps.
    pub const ALL: [EnvKind; 8] = [
        EnvKind::Office,
        EnvKind::Corridor,
        EnvKind::SemiOpenCorridor,
        EnvKind::Basement,
        EnvKind::CarPark,
        EnvKind::OpenSpace,
        EnvKind::Road,
        EnvKind::MallFloor,
    ];

    /// Whether the paper classifies this kind as indoor ("all the places
    /// with roofs").
    pub fn is_roofed(self) -> bool {
        !matches!(self, EnvKind::OpenSpace | EnvKind::Road)
    }

    /// Fraction of the sky visible to GNSS receivers (0 = none, 1 = open
    /// sky).
    pub fn sky_view(self) -> f64 {
        match self {
            EnvKind::Office => 0.05,
            EnvKind::Corridor => 0.08,
            EnvKind::SemiOpenCorridor => 0.30,
            EnvKind::Basement => 0.0,
            EnvKind::CarPark => 0.12,
            EnvKind::OpenSpace => 0.95,
            EnvKind::Road => 0.80,
            EnvKind::MallFloor => 0.0,
        }
    }

    /// Typical daytime ambient light in lux (IODetector's primary feature).
    pub fn base_light_lux(self) -> f64 {
        match self {
            EnvKind::Office => 400.0,
            EnvKind::Corridor => 300.0,
            EnvKind::SemiOpenCorridor => 2_000.0,
            EnvKind::Basement => 150.0,
            EnvKind::CarPark => 200.0,
            EnvKind::OpenSpace => 20_000.0,
            EnvKind::Road => 15_000.0,
            EnvKind::MallFloor => 500.0,
        }
    }

    /// Magnetic disturbance level in `[0, 1]` (steel structures disturb the
    /// magnetometer; IODetector's secondary feature, and heading noise for
    /// PDR).
    pub fn magnetic_disturbance(self) -> f64 {
        match self {
            EnvKind::Office => 0.55,
            EnvKind::Corridor => 0.50,
            EnvKind::SemiOpenCorridor => 0.35,
            EnvKind::Basement => 0.80,
            EnvKind::CarPark => 0.70,
            EnvKind::OpenSpace => 0.10,
            EnvKind::Road => 0.20,
            EnvKind::MallFloor => 0.75,
        }
    }

    /// Extra attenuation (dB) that macro-cell signals suffer at this kind of
    /// place. The mall floor "is at the basement floor and we can only
    /// receive the signals from two cell towers on average".
    pub fn cellular_penetration_loss_db(self) -> f64 {
        match self {
            EnvKind::Office => 14.0,
            EnvKind::Corridor => 12.0,
            EnvKind::SemiOpenCorridor => 6.0,
            EnvKind::Basement => 32.0,
            EnvKind::CarPark => 18.0,
            EnvKind::OpenSpace => 0.0,
            EnvKind::Road => 0.0,
            EnvKind::MallFloor => 28.0,
        }
    }

    /// Extra attenuation (dB) for WiFi signals crossing into/inside this
    /// kind (on top of per-wall losses). The basement has effectively no
    /// WiFi coverage.
    pub fn wifi_extra_loss_db(self) -> f64 {
        match self {
            EnvKind::Basement => 35.0,
            EnvKind::CarPark => 10.0,
            _ => 0.0,
        }
    }

    /// Default effective path width (m) when no corridor is mapped — the
    /// `beta_2` feature for motion/fusion schemes in open areas ("in outdoor
    /// environments [...] wider paths").
    pub fn default_path_width_m(self) -> f64 {
        match self {
            EnvKind::Office => 2.0,
            EnvKind::Corridor => 2.5,
            EnvKind::SemiOpenCorridor => 3.0,
            EnvKind::Basement => 2.5,
            EnvKind::CarPark => 8.0,
            EnvKind::OpenSpace => 15.0,
            EnvKind::Road => 10.0,
            EnvKind::MallFloor => 5.0,
        }
    }
}

impl std::fmt::Display for EnvKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EnvKind::Office => "office",
            EnvKind::Corridor => "corridor",
            EnvKind::SemiOpenCorridor => "semi-open corridor",
            EnvKind::Basement => "basement",
            EnvKind::CarPark => "car park",
            EnvKind::OpenSpace => "open space",
            EnvKind::Road => "road",
            EnvKind::MallFloor => "mall floor",
        };
        f.write_str(s)
    }
}

/// A named region of the map with a single [`EnvKind`].
#[derive(Debug, Clone, PartialEq)]
pub struct Zone {
    name: String,
    kind: EnvKind,
    polygon: Polygon,
    priority: i32,
}

impl Zone {
    /// Creates a zone. Higher `priority` wins where zones overlap (a
    /// building zone drawn over a campus-wide outdoor zone, say).
    pub fn new(name: impl Into<String>, kind: EnvKind, polygon: Polygon, priority: i32) -> Self {
        Zone { name: name.into(), kind, polygon, priority }
    }

    /// Zone name (for reporting).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Environment kind.
    pub fn kind(&self) -> EnvKind {
        self.kind
    }

    /// Zone outline.
    pub fn polygon(&self) -> &Polygon {
        &self.polygon
    }

    /// Overlap priority.
    pub fn priority(&self) -> i32 {
        self.priority
    }

    /// Whether the zone contains the point.
    pub fn contains(&self, p: Point) -> bool {
        self.polygon.contains(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniloc_geom::Rect;

    #[test]
    fn roofed_split_matches_paper() {
        // Everything except open space and road counts as indoor.
        assert!(EnvKind::Office.is_roofed());
        assert!(EnvKind::SemiOpenCorridor.is_roofed());
        assert!(EnvKind::CarPark.is_roofed());
        assert!(EnvKind::MallFloor.is_roofed());
        assert!(!EnvKind::OpenSpace.is_roofed());
        assert!(!EnvKind::Road.is_roofed());
    }

    #[test]
    fn basement_is_hostile_to_wifi_and_gps() {
        assert_eq!(EnvKind::Basement.sky_view(), 0.0);
        assert!(EnvKind::Basement.wifi_extra_loss_db() > 30.0);
        assert!(
            EnvKind::Basement.cellular_penetration_loss_db()
                > EnvKind::Office.cellular_penetration_loss_db()
        );
    }

    #[test]
    fn outdoor_light_dominates_indoor() {
        for kind in EnvKind::ALL {
            if kind.is_roofed() {
                assert!(kind.base_light_lux() < 5_000.0, "{kind} too bright");
            } else {
                assert!(kind.base_light_lux() > 10_000.0, "{kind} too dark");
            }
        }
    }

    #[test]
    fn outdoor_paths_are_wider() {
        assert!(
            EnvKind::OpenSpace.default_path_width_m() > EnvKind::Office.default_path_width_m()
        );
    }

    #[test]
    fn sky_view_in_unit_interval() {
        for kind in EnvKind::ALL {
            let s = kind.sky_view();
            assert!((0.0..=1.0).contains(&s));
            let m = kind.magnetic_disturbance();
            assert!((0.0..=1.0).contains(&m));
        }
    }

    #[test]
    fn zone_contains_and_accessors() {
        let poly = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0))
            .unwrap()
            .to_polygon();
        let z = Zone::new("office-a", EnvKind::Office, poly, 5);
        assert_eq!(z.name(), "office-a");
        assert_eq!(z.kind(), EnvKind::Office);
        assert_eq!(z.priority(), 5);
        assert!(z.contains(Point::new(5.0, 5.0)));
        assert!(!z.contains(Point::new(15.0, 5.0)));
    }

    #[test]
    fn display_names() {
        assert_eq!(EnvKind::SemiOpenCorridor.to_string(), "semi-open corridor");
        assert_eq!(EnvKind::CarPark.to_string(), "car park");
    }
}
