//! Planar geometry substrate for the UniLoc reproduction.
//!
//! Everything in UniLoc happens on a 2-D local map: walkers follow paths,
//! fingerprints sit on grids, particle filters bounce off walls, and GPS
//! fixes arrive in a geographic frame that must be converted "to the map
//! coordinate by the public digital map information" (Section IV-B of the
//! paper). This crate provides:
//!
//! * [`Point`] / [`Vector2`] — positions and displacements in meters.
//! * [`Segment`], [`Rect`], [`Polygon`] — wall and zone geometry with
//!   point-in-polygon and distance queries.
//! * [`Polyline`] — arc-length parameterised paths: the eight daily campus
//!   paths of Fig. 4 are polylines, and walkers advance along them by
//!   distance-from-start ("station").
//! * [`FloorPlan`] — walls, corridors with widths, and landmarks (turns,
//!   doors, WiFi signatures) used by the PDR scheme's map constraints.
//! * [`GeoFrame`] — local-tangent-plane conversion between (latitude,
//!   longitude) and map meters, used by the GPS scheme.
//!
//! # Examples
//!
//! ```
//! use uniloc_geom::{Point, Polyline};
//!
//! let path = Polyline::new(vec![
//!     Point::new(0.0, 0.0),
//!     Point::new(10.0, 0.0),
//!     Point::new(10.0, 5.0),
//! ])?;
//! assert_eq!(path.length(), 15.0);
//! assert_eq!(path.point_at(12.0), Point::new(10.0, 2.0));
//! # Ok::<(), uniloc_geom::GeomError>(())
//! ```

pub mod floorplan;
pub mod frame;
pub mod point;
pub mod polyline;
pub mod shapes;

use std::error::Error;
use std::fmt;

/// Errors produced by geometric constructors and queries.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GeomError {
    /// A polyline needs at least two distinct vertices.
    DegeneratePolyline,
    /// A polygon needs at least three vertices.
    DegeneratePolygon,
    /// An input coordinate was NaN or infinite.
    NonFinite,
    /// A width/radius parameter must be positive.
    NonPositive(&'static str),
}

impl fmt::Display for GeomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeomError::DegeneratePolyline => {
                write!(f, "polyline requires at least two distinct vertices")
            }
            GeomError::DegeneratePolygon => write!(f, "polygon requires at least three vertices"),
            GeomError::NonFinite => write!(f, "coordinates must be finite"),
            GeomError::NonPositive(what) => write!(f, "{what} must be positive"),
        }
    }
}

impl Error for GeomError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GeomError>;

/// Orders two floats as `partial_cmp` does, with NaN after every number
/// (and equal to another NaN), so that `min_by`, `sort_by` and
/// `binary_search_by` over distances never panic. Unlike
/// [`f64::total_cmp`], `-0.0` and `0.0` stay equal (and a NaN with its
/// sign bit set still sorts last), so non-NaN inputs order exactly as
/// `partial_cmp` orders them.
///
/// ```
/// use std::cmp::Ordering;
/// use uniloc_geom::cmp_nan_last;
///
/// assert_eq!(cmp_nan_last(1.0, 2.0), Ordering::Less);
/// assert_eq!(cmp_nan_last(-0.0, 0.0), Ordering::Equal);
/// assert_eq!(cmp_nan_last(f64::NAN, f64::INFINITY), Ordering::Greater);
/// assert_eq!(cmp_nan_last(f64::NAN, -f64::NAN), Ordering::Equal);
/// ```
pub fn cmp_nan_last(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b).unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

pub use floorplan::{Corridor, FloorPlan, Landmark, LandmarkKind, Wall};
pub use frame::{GeoCoord, GeoFrame};
pub use point::{Point, Vector2};
pub use polyline::Polyline;
pub use shapes::{Polygon, Rect, Segment};
