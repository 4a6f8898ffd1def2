//! Geographic <-> local map coordinate conversion.
//!
//! "GPS reports the absolute coordinate (i.e., latitude and longitude) in the
//! geographic coordinate system. [...] To combine the results of multiple
//! schemes, we convert the result of GPS to the map coordinate by the public
//! digital map information." (paper, Section IV-B). [`GeoFrame`] implements
//! that conversion with a local tangent-plane (equirectangular)
//! approximation, which is accurate to centimeters over a campus-sized map.

use crate::point::Point;
use crate::{GeomError, Result};

/// Mean Earth radius in meters (WGS-84 spherical approximation).
pub const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// A geographic coordinate in degrees.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GeoCoord {
    /// Latitude in degrees, positive north.
    pub lat: f64,
    /// Longitude in degrees, positive east.
    pub lon: f64,
}

uniloc_stats::impl_json_struct!(GeoCoord { lat, lon });

impl GeoCoord {
    /// Creates a coordinate.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::NonFinite`] for out-of-range or non-finite
    /// values (|lat| > 90, |lon| > 180).
    pub fn new(lat: f64, lon: f64) -> Result<Self> {
        if !lat.is_finite() || !lon.is_finite() || lat.abs() > 90.0 || lon.abs() > 180.0 {
            return Err(GeomError::NonFinite);
        }
        Ok(GeoCoord { lat, lon })
    }
}

/// A local tangent-plane frame anchored at a geographic origin.
///
/// Map `x` points east, map `y` points north, and the anchor geographic
/// coordinate maps to a chosen anchor map point (typically the origin).
///
/// # Examples
///
/// ```
/// use uniloc_geom::{GeoCoord, GeoFrame, Point};
///
/// // Anchor the campus map at NTU, Singapore.
/// let frame = GeoFrame::new(GeoCoord::new(1.3483, 103.6831)?, Point::origin());
/// let gps_fix = GeoCoord::new(1.3492, 103.6831)?; // ~100 m north
/// let local = frame.to_local(gps_fix);
/// assert!(local.x.abs() < 0.5);
/// assert!((local.y - 100.0).abs() < 1.0);
/// // Round trip.
/// let back = frame.to_geo(local);
/// assert!((back.lat - gps_fix.lat).abs() < 1e-9);
/// # Ok::<(), uniloc_geom::GeomError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoFrame {
    origin_geo: GeoCoord,
    origin_map: Point,
    /// Meters per degree of latitude at the anchor.
    m_per_deg_lat: f64,
    /// Meters per degree of longitude at the anchor.
    m_per_deg_lon: f64,
}

impl GeoFrame {
    /// Creates a frame mapping `origin_geo` to `origin_map`.
    pub fn new(origin_geo: GeoCoord, origin_map: Point) -> Self {
        let rad = std::f64::consts::PI / 180.0;
        let m_per_deg_lat = EARTH_RADIUS_M * rad;
        let m_per_deg_lon = EARTH_RADIUS_M * rad * (origin_geo.lat * rad).cos();
        GeoFrame { origin_geo, origin_map, m_per_deg_lat, m_per_deg_lon }
    }

    /// The geographic anchor.
    pub fn origin_geo(&self) -> GeoCoord {
        self.origin_geo
    }

    /// Converts a geographic coordinate to local map meters.
    pub fn to_local(&self, g: GeoCoord) -> Point {
        Point::new(
            self.origin_map.x + (g.lon - self.origin_geo.lon) * self.m_per_deg_lon,
            self.origin_map.y + (g.lat - self.origin_geo.lat) * self.m_per_deg_lat,
        )
    }

    /// Converts a local map point back to a geographic coordinate.
    pub fn to_geo(&self, p: Point) -> GeoCoord {
        GeoCoord {
            lat: self.origin_geo.lat + (p.y - self.origin_map.y) / self.m_per_deg_lat,
            lon: self.origin_geo.lon + (p.x - self.origin_map.x) / self.m_per_deg_lon,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn singapore_frame() -> GeoFrame {
        GeoFrame::new(GeoCoord::new(1.3483, 103.6831).unwrap(), Point::origin())
    }

    #[test]
    fn geocoord_validates_range() {
        assert!(GeoCoord::new(91.0, 0.0).is_err());
        assert!(GeoCoord::new(0.0, 181.0).is_err());
        assert!(GeoCoord::new(f64::NAN, 0.0).is_err());
        assert!(GeoCoord::new(-90.0, 180.0).is_ok());
    }

    #[test]
    fn north_displacement() {
        let f = singapore_frame();
        // One arcminute of latitude is one nautical mile ~ 1853.2 m (for the
        // mean-radius sphere; WGS84 gives ~1855 at the poles and 1843 at the
        // equator).
        let g = GeoCoord::new(1.3483 + 1.0 / 60.0, 103.6831).unwrap();
        let p = f.to_local(g);
        assert!(p.x.abs() < 1e-9);
        assert!((p.y - 1853.2).abs() < 1.0, "got {}", p.y);
    }

    #[test]
    fn east_displacement_scales_with_latitude() {
        let eq = GeoFrame::new(GeoCoord::new(0.0, 0.0).unwrap(), Point::origin());
        let mid = GeoFrame::new(GeoCoord::new(60.0, 0.0).unwrap(), Point::origin());
        let g_eq = GeoCoord::new(0.0, 0.001).unwrap();
        let g_mid = GeoCoord::new(60.0, 0.001).unwrap();
        let x_eq = eq.to_local(g_eq).x;
        let x_mid = mid.to_local(g_mid).x;
        // cos(60 deg) = 0.5.
        assert!((x_mid / x_eq - 0.5).abs() < 1e-6);
    }

    #[test]
    fn roundtrip_geo_local_geo() {
        let f = singapore_frame();
        for (dlat, dlon) in [(0.0, 0.0), (0.001, 0.002), (-0.003, 0.001)] {
            let g = GeoCoord::new(1.3483 + dlat, 103.6831 + dlon).unwrap();
            let back = f.to_geo(f.to_local(g));
            assert!((back.lat - g.lat).abs() < 1e-12);
            assert!((back.lon - g.lon).abs() < 1e-12);
        }
    }

    #[test]
    fn roundtrip_local_geo_local() {
        let f = GeoFrame::new(GeoCoord::new(1.3483, 103.6831).unwrap(), Point::new(100.0, 50.0));
        let p = Point::new(320.0, -45.0);
        let back = f.to_local(f.to_geo(p));
        assert!((back.x - p.x).abs() < 1e-9);
        assert!((back.y - p.y).abs() < 1e-9);
    }

    #[test]
    fn anchor_maps_to_anchor() {
        let f = GeoFrame::new(GeoCoord::new(1.3, 103.7).unwrap(), Point::new(10.0, 20.0));
        let p = f.to_local(f.origin_geo());
        assert_eq!(p, Point::new(10.0, 20.0));
    }
}
