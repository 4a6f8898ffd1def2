//! The black-box scheme interface and its output type.

use uniloc_geom::Point;
use uniloc_sensors::SensorFrame;

/// Identifies one of the five built-in schemes (and leaves room for
/// user-integrated ones — UniLoc is "not constrained to any specific
/// localization schemes").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum SchemeId {
    /// Phone GPS module.
    Gps,
    /// WiFi RSSI fingerprinting (RADAR).
    Wifi,
    /// Cellular RSSI fingerprinting.
    Cellular,
    /// Motion-based pedestrian dead reckoning.
    Motion,
    /// WiFi + PDR sensor fusion (Travi-Navi).
    Fusion,
    /// A scheme integrated by a library user.
    Custom(u16),
}

impl SchemeId {
    /// The five built-in schemes, in the paper's order.
    pub const BUILTIN: [SchemeId; 5] = [
        SchemeId::Gps,
        SchemeId::Wifi,
        SchemeId::Cellular,
        SchemeId::Motion,
        SchemeId::Fusion,
    ];
}

/// Honors width, fill and alignment (`{id:<9}` pads like a `&str`).
impl std::fmt::Display for SchemeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemeId::Gps => f.pad("gps"),
            SchemeId::Wifi => f.pad("wifi"),
            SchemeId::Cellular => f.pad("cellular"),
            SchemeId::Motion => f.pad("motion"),
            SchemeId::Fusion => f.pad("fusion"),
            SchemeId::Custom(n) => f.pad(&format!("custom{n}")),
        }
    }
}

/// One scheme's output for one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocationEstimate {
    /// Estimated position in map coordinates (GPS results are converted
    /// from the geographic frame before reaching here).
    pub position: Point,
    /// The scheme's own spread/uncertainty statistic in meters (particle
    /// cloud deviation, HDOP-derived radius, candidate scatter), when it
    /// has one. UniLoc does **not** rely on this — its confidence comes
    /// from the trained error models — but exposes it for diagnostics.
    pub spread: Option<f64>,
}

impl LocationEstimate {
    /// An estimate with no spread information.
    pub fn at(position: Point) -> Self {
        LocationEstimate { position, spread: None }
    }

    /// An estimate with a spread statistic.
    pub fn with_spread(position: Point, spread: f64) -> Self {
        LocationEstimate { position, spread: Some(spread) }
    }
}

/// A localization scheme as UniLoc sees it: a black box consuming sensor
/// frames and emitting location estimates.
///
/// Returning `None` means the scheme is unavailable this epoch (no GPS fix,
/// no audible APs, ...) — UniLoc then "temporarily exclude\[s\]" it "by simply
/// setting its confidence as zero".
///
/// `Send` is a supertrait: under the fleet scheduler a session (and every
/// scheme inside it) migrates between worker threads across rounds.
pub trait LocalizationScheme: Send {
    /// Which scheme this is.
    fn id(&self) -> SchemeId;

    /// Consumes one epoch of sensor data and produces an estimate if the
    /// scheme is currently available.
    fn update(&mut self, frame: &SensorFrame) -> Option<LocationEstimate>;

    /// The mean of the scheme's posterior over locations for its *latest*
    /// estimate, `P(l = l_i | M_n, s_t)` in the paper's Eq. 3 — the
    /// component mean Eq. 4's mixture integrates. `None` for schemes that
    /// only produce a point (like GPS), or when the posterior's total
    /// weight is not positive; the ensemble then uses the point estimate.
    fn posterior_mean(&self) -> Option<Point> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_id_display() {
        assert_eq!(SchemeId::Gps.to_string(), "gps");
        assert_eq!(SchemeId::Fusion.to_string(), "fusion");
        assert_eq!(SchemeId::Custom(3).to_string(), "custom3");
    }

    #[test]
    fn scheme_id_display_pads_to_width() {
        assert_eq!(format!("[{:<9}]", SchemeId::Gps), "[gps      ]");
        assert_eq!(format!("[{:>6}]", SchemeId::Wifi), "[  wifi]");
        assert_eq!(format!("[{:^10}]", SchemeId::Custom(7)), "[ custom7  ]");
        assert_eq!(format!("[{:<3}]", SchemeId::Cellular), "[cellular]", "width never truncates");
    }

    /// The streaming canonical writer matches the document, built-in and
    /// custom variants alike.
    #[test]
    fn scheme_id_streams_its_canonical_json() {
        use uniloc_stats::ToJson;
        let custom = [SchemeId::Custom(0), SchemeId::Custom(7), SchemeId::Custom(u16::MAX)];
        for id in SchemeId::BUILTIN.into_iter().chain(custom) {
            let mut text = String::new();
            id.write_canonical(&mut text).unwrap();
            assert_eq!(text, id.to_json().canonical().to_string(), "{id}");
        }
    }

    #[test]
    fn builtin_lists_all_five() {
        assert_eq!(SchemeId::BUILTIN.len(), 5);
        let mut v = SchemeId::BUILTIN.to_vec();
        v.dedup();
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn estimate_constructors() {
        let p = Point::new(1.0, 2.0);
        assert_eq!(LocationEstimate::at(p).spread, None);
        assert_eq!(LocationEstimate::with_spread(p, 3.0).spread, Some(3.0));
    }
}

/// `SchemeId` serializes like an externally tagged serde enum: built-in
/// variants as their name string, `Custom(n)` as `{"Custom": n}`.
impl uniloc_stats::ToJson for SchemeId {
    fn to_json(&self) -> uniloc_stats::Json {
        use uniloc_stats::Json;
        match self {
            SchemeId::Custom(n) => {
                Json::Obj(vec![("Custom".to_owned(), Json::Int(i64::from(*n)))])
            }
            SchemeId::Gps => Json::Str("Gps".to_owned()),
            SchemeId::Wifi => Json::Str("Wifi".to_owned()),
            SchemeId::Cellular => Json::Str("Cellular".to_owned()),
            SchemeId::Motion => Json::Str("Motion".to_owned()),
            SchemeId::Fusion => Json::Str("Fusion".to_owned()),
        }
    }

    fn write_canonical(&self, out: &mut dyn std::fmt::Write) -> std::fmt::Result {
        match self {
            SchemeId::Custom(n) => write!(out, "{{\"Custom\":{n}}}"),
            SchemeId::Gps => out.write_str("\"Gps\""),
            SchemeId::Wifi => out.write_str("\"Wifi\""),
            SchemeId::Cellular => out.write_str("\"Cellular\""),
            SchemeId::Motion => out.write_str("\"Motion\""),
            SchemeId::Fusion => out.write_str("\"Fusion\""),
        }
    }
}

impl uniloc_stats::FromJson for SchemeId {
    fn from_json(json: &uniloc_stats::Json) -> Result<Self, uniloc_stats::JsonError> {
        use uniloc_stats::JsonError;
        if let Some(name) = json.as_str() {
            return match name {
                "Gps" => Ok(SchemeId::Gps),
                "Wifi" => Ok(SchemeId::Wifi),
                "Cellular" => Ok(SchemeId::Cellular),
                "Motion" => Ok(SchemeId::Motion),
                "Fusion" => Ok(SchemeId::Fusion),
                other => Err(JsonError::new(format!("unknown SchemeId `{other}`"))),
            };
        }
        match json.get("Custom") {
            Some(n) => uniloc_stats::FromJson::from_json(n).map(SchemeId::Custom),
            None => Err(JsonError::new("expected SchemeId string or Custom object")),
        }
    }
}

uniloc_stats::impl_json_struct!(LocationEstimate { position, spread });
