//! Arc-length parameterised polylines.
//!
//! The paper's experiments walk fixed routes: the 320 m daily path of Fig. 2
//! and the eight campus paths of Fig. 4. A [`Polyline`] models such a route;
//! positions along it are addressed by *station* (distance from the start in
//! meters), which is also how the paper plots error ("Distance from the
//! start point (m)").

use crate::point::{Point, Vector2};
use crate::shapes::Segment;
use crate::{cmp_nan_last, GeomError, Result};

/// A connected series of segments with arc-length addressing.
///
/// # Examples
///
/// ```
/// use uniloc_geom::{Point, Polyline};
///
/// let p = Polyline::new(vec![
///     Point::new(0.0, 0.0),
///     Point::new(3.0, 4.0),   // 5 m
///     Point::new(3.0, 10.0),  // +6 m
/// ])?;
/// assert_eq!(p.length(), 11.0);
/// let (pt, station) = p.project(Point::new(4.0, 7.0));
/// assert_eq!(pt, Point::new(3.0, 7.0));
/// assert_eq!(station, 8.0);
/// # Ok::<(), uniloc_geom::GeomError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Polyline {
    vertices: Vec<Point>,
    /// Cumulative arc length at each vertex; `cum[0] == 0`.
    cum: Vec<f64>,
}

impl Polyline {
    /// Creates a polyline from an ordered vertex list.
    ///
    /// Consecutive duplicate vertices are dropped.
    ///
    /// # Errors
    ///
    /// * [`GeomError::DegeneratePolyline`] — fewer than two distinct
    ///   vertices.
    /// * [`GeomError::NonFinite`] — NaN/inf coordinates.
    pub fn new(vertices: Vec<Point>) -> Result<Self> {
        if vertices.iter().any(|v| !v.is_finite()) {
            return Err(GeomError::NonFinite);
        }
        let mut dedup: Vec<Point> = Vec::with_capacity(vertices.len());
        for v in vertices {
            if dedup.last().is_none_or(|last| last.distance(v) > 0.0) {
                dedup.push(v);
            }
        }
        if dedup.len() < 2 {
            return Err(GeomError::DegeneratePolyline);
        }
        let mut cum = Vec::with_capacity(dedup.len());
        cum.push(0.0);
        for w in dedup.windows(2) {
            let last = *cum.last().expect("cum is never empty");
            cum.push(last + w[0].distance(w[1]));
        }
        Ok(Polyline { vertices: dedup, cum })
    }

    /// Total length in meters.
    pub fn length(&self) -> f64 {
        *self.cum.last().expect("cum is never empty")
    }

    /// The ordered vertices.
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// First vertex.
    pub fn start(&self) -> Point {
        self.vertices[0]
    }

    /// Last vertex.
    pub fn end(&self) -> Point {
        *self.vertices.last().expect("polyline has >= 2 vertices")
    }

    /// Segments of the polyline in order.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.vertices.windows(2).map(|w| Segment::new(w[0], w[1]))
    }

    /// Position at station `s` (clamped to `[0, length]`). A NaN station
    /// has no position: the result is NaN.
    pub fn point_at(&self, s: f64) -> Point {
        if s.is_nan() {
            return Point::new(f64::NAN, f64::NAN);
        }
        let s = s.clamp(0.0, self.length());
        let i = match self.search(s) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        if i >= self.vertices.len() - 1 {
            return self.end();
        }
        let seg_len = self.cum[i + 1] - self.cum[i];
        let t = if seg_len > 0.0 { (s - self.cum[i]) / seg_len } else { 0.0 };
        self.vertices[i].lerp(self.vertices[i + 1], t)
    }

    /// Unit tangent direction at station `s` (direction of travel). A NaN
    /// station has no direction: the result is NaN.
    pub fn direction_at(&self, s: f64) -> Vector2 {
        if s.is_nan() {
            return Vector2::new(f64::NAN, f64::NAN);
        }
        let s = s.clamp(0.0, self.length());
        let i = match self.search(s) {
            Ok(i) => i.min(self.vertices.len() - 2),
            Err(i) => i - 1,
        };
        let i = i.min(self.vertices.len() - 2);
        (self.vertices[i + 1] - self.vertices[i])
            .normalized()
            .expect("polyline segments have positive length")
    }

    /// Where the clamped, non-NaN station `s` falls among the vertex
    /// stations. `cum[0]` is `0.0` and `s >= 0.0` (`-0.0` compares equal),
    /// so an `Err(i)` always has `i >= 1`.
    fn search(&self, s: f64) -> std::result::Result<usize, usize> {
        self.cum.binary_search_by(|c| cmp_nan_last(*c, s))
    }

    /// Compass heading of travel at station `s` (radians, 0 = north,
    /// clockwise).
    pub fn heading_at(&self, s: f64) -> f64 {
        self.direction_at(s).heading()
    }

    /// Projects `p` onto the polyline: returns the closest on-path point and
    /// its station.
    pub fn project(&self, p: Point) -> (Point, f64) {
        let mut best = (self.start(), 0.0);
        let mut best_d = f64::INFINITY;
        for (i, seg) in self.segments().enumerate() {
            let q = seg.closest_point(p);
            let d = q.distance(p);
            if d < best_d {
                best_d = d;
                let station = self.cum[i] + self.vertices[i].distance(q);
                best = (q, station);
            }
        }
        best
    }

    /// Samples the polyline every `step` meters from the start (both
    /// endpoints included).
    ///
    /// The paper samples schemes "every 3 m along the trajectories".
    ///
    /// # Panics
    ///
    /// Panics if `step <= 0`.
    pub fn sample_stations(&self, step: f64) -> Vec<f64> {
        assert!(step > 0.0, "sample step must be positive");
        let len = self.length();
        let mut out = Vec::with_capacity((len / step) as usize + 2);
        let mut s = 0.0;
        while s < len {
            out.push(s);
            s += step;
        }
        out.push(len);
        out
    }

    /// Reverses the direction of travel.
    pub fn reversed(&self) -> Polyline {
        let mut v = self.vertices.clone();
        v.reverse();
        Polyline::new(v).expect("reversal preserves validity")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_path() -> Polyline {
        Polyline::new(vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0), Point::new(10.0, 5.0)])
            .unwrap()
    }

    /// A NaN station has no position; `-0.0` still reads as the start,
    /// because the search compares like `partial_cmp` (where `total_cmp`
    /// would put `-0.0` before `cum[0]` and underflow the index).
    #[test]
    fn point_at_is_total_on_nan() {
        let p = l_path();
        let q = p.point_at(f64::NAN);
        assert!(q.x.is_nan() && q.y.is_nan());
        assert_eq!(p.point_at(-0.0), Point::new(0.0, 0.0));
        assert_eq!(p.point_at(f64::NEG_INFINITY), Point::new(0.0, 0.0));
        assert_eq!(p.point_at(f64::INFINITY), p.end());
    }

    /// A NaN station has no direction (nor heading); `-0.0` is the first
    /// segment's.
    #[test]
    fn direction_at_is_total_on_nan() {
        let p = l_path();
        let d = p.direction_at(f64::NAN);
        assert!(d.x.is_nan() && d.y.is_nan());
        assert!(p.heading_at(f64::NAN).is_nan());
        assert_eq!(p.direction_at(-0.0), Vector2::new(1.0, 0.0));
        assert_eq!(p.direction_at(f64::INFINITY), Vector2::new(0.0, 1.0));
    }

    #[test]
    fn rejects_degenerate() {
        assert!(matches!(
            Polyline::new(vec![Point::origin()]).unwrap_err(),
            GeomError::DegeneratePolyline
        ));
        // All-duplicate vertices collapse to one.
        assert!(Polyline::new(vec![Point::origin(), Point::origin()]).is_err());
    }

    #[test]
    fn dedups_consecutive_duplicates() {
        let p = Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(5.0, 0.0),
        ])
        .unwrap();
        assert_eq!(p.vertices().len(), 2);
        assert_eq!(p.length(), 5.0);
    }

    #[test]
    fn length_and_endpoints() {
        let p = l_path();
        assert_eq!(p.length(), 15.0);
        assert_eq!(p.start(), Point::new(0.0, 0.0));
        assert_eq!(p.end(), Point::new(10.0, 5.0));
    }

    #[test]
    fn point_at_stations() {
        let p = l_path();
        assert_eq!(p.point_at(0.0), Point::new(0.0, 0.0));
        assert_eq!(p.point_at(5.0), Point::new(5.0, 0.0));
        assert_eq!(p.point_at(10.0), Point::new(10.0, 0.0));
        assert_eq!(p.point_at(12.5), Point::new(10.0, 2.5));
        assert_eq!(p.point_at(15.0), Point::new(10.0, 5.0));
        // Clamping.
        assert_eq!(p.point_at(-3.0), p.start());
        assert_eq!(p.point_at(99.0), p.end());
    }

    #[test]
    fn direction_and_heading() {
        let p = l_path();
        // First leg travels east: heading pi/2.
        assert!((p.heading_at(3.0) - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        // Second leg travels north: heading 0.
        assert!(p.heading_at(12.0).abs() < 1e-12);
        // Exactly at the corner, the next segment's direction applies.
        assert!(p.heading_at(10.0).abs() < 1e-12);
    }

    #[test]
    fn project_interior_and_beyond() {
        let p = l_path();
        let (pt, s) = p.project(Point::new(4.0, -2.0));
        assert_eq!(pt, Point::new(4.0, 0.0));
        assert_eq!(s, 4.0);
        let (pt, s) = p.project(Point::new(20.0, 20.0));
        assert_eq!(pt, Point::new(10.0, 5.0));
        assert_eq!(s, 15.0);
    }

    #[test]
    fn sample_stations_cover_path() {
        let p = l_path();
        let st = p.sample_stations(4.0);
        assert_eq!(st, vec![0.0, 4.0, 8.0, 12.0, 15.0]);
    }

    #[test]
    #[should_panic(expected = "sample step must be positive")]
    fn sample_stations_rejects_zero_step() {
        l_path().sample_stations(0.0);
    }

    #[test]
    fn reversed_retraces_the_path() {
        let mut v = l_path().vertices().to_vec();
        v.push(Point::new(10.0, 10.0));
        let r = Polyline::new(v).unwrap().reversed();
        assert_eq!(r.start(), Point::new(10.0, 10.0));
        assert_eq!(r.length(), 20.0);
        assert_eq!(r.point_at(5.0), Point::new(10.0, 5.0));
    }

    #[test]
    fn segments_iterate_in_order() {
        let segs: Vec<Segment> = l_path().segments().collect();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].a, Point::new(0.0, 0.0));
        assert_eq!(segs[1].b, Point::new(10.0, 5.0));
    }
}
