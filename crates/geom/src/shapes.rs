//! Segments, rectangles and polygons — the building blocks of zones and
//! walls.

use crate::point::{Point, Vector2};
use crate::{GeomError, Result};

/// A line segment between two points.
///
/// Walls in a [`crate::FloorPlan`] are segments; the PDR particle filter
/// kills particles whose step crosses one.
///
/// # Examples
///
/// ```
/// use uniloc_geom::{Point, Segment};
///
/// let wall = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
/// assert_eq!(wall.distance_to(Point::new(5.0, 3.0)), 3.0);
/// let step = Segment::new(Point::new(5.0, -1.0), Point::new(5.0, 1.0));
/// assert!(wall.intersects(&step));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start point.
    pub a: Point,
    /// End point.
    pub b: Point,
}

impl Segment {
    /// Creates a segment from endpoints.
    pub fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Segment length.
    pub fn length(&self) -> f64 {
        self.a.distance(self.b)
    }

    /// Midpoint of the segment.
    pub fn midpoint(&self) -> Point {
        self.a.midpoint(self.b)
    }

    /// The point on the segment closest to `p`.
    pub fn closest_point(&self, p: Point) -> Point {
        let ab = self.b - self.a;
        let denom = ab.norm_sq();
        if denom == 0.0 {
            return self.a;
        }
        let t = ((p - self.a).dot(ab) / denom).clamp(0.0, 1.0);
        self.a + ab * t
    }

    /// Distance from `p` to the segment.
    pub fn distance_to(&self, p: Point) -> f64 {
        self.closest_point(p).distance(p)
    }

    /// Whether two segments properly intersect or touch.
    pub fn intersects(&self, other: &Segment) -> bool {
        self.intersection(other).is_some()
    }

    /// Intersection point of two segments, if any. Collinear overlapping
    /// segments report the first shared endpoint.
    pub fn intersection(&self, other: &Segment) -> Option<Point> {
        let r = self.b - self.a;
        let s = other.b - other.a;
        let denom = r.cross(s);
        let qp = other.a - self.a;
        if denom == 0.0 {
            // Parallel. Collinear if qp x r == 0.
            if qp.cross(r) != 0.0 {
                return None;
            }
            // Collinear: project other's endpoints onto self.
            let len_sq = r.norm_sq();
            if len_sq == 0.0 {
                return (self.a == other.a || self.a.distance(other.closest_point(self.a)) == 0.0)
                    .then_some(self.a);
            }
            let t0 = (other.a - self.a).dot(r) / len_sq;
            let t1 = (other.b - self.a).dot(r) / len_sq;
            let (lo, hi) = if t0 <= t1 { (t0, t1) } else { (t1, t0) };
            if hi < 0.0 || lo > 1.0 {
                return None;
            }
            let t = lo.max(0.0);
            return Some(self.a + r * t);
        }
        let t = qp.cross(s) / denom;
        let u = qp.cross(r) / denom;
        if (0.0..=1.0).contains(&t) && (0.0..=1.0).contains(&u) {
            Some(self.a + r * t)
        } else {
            None
        }
    }
}

/// An axis-aligned rectangle, used for room/zone footprints and fingerprint
/// survey extents.
///
/// # Examples
///
/// ```
/// use uniloc_geom::{Point, Rect};
///
/// // The paper's training office is 56 x 20 m^2.
/// let office = Rect::new(Point::new(0.0, 0.0), Point::new(56.0, 20.0))?;
/// assert_eq!(office.area(), 1120.0);
/// assert!(office.contains(Point::new(10.0, 10.0)));
/// # Ok::<(), uniloc_geom::GeomError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    min: Point,
    max: Point,
}

impl Rect {
    /// Creates a rectangle from two opposite corners (any order).
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::NonFinite`] for non-finite corners.
    pub fn new(a: Point, b: Point) -> Result<Self> {
        if !a.is_finite() || !b.is_finite() {
            return Err(GeomError::NonFinite);
        }
        Ok(Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        })
    }

    /// Lower-left corner.
    pub fn min(&self) -> Point {
        self.min
    }

    /// Upper-right corner.
    pub fn max(&self) -> Point {
        self.max
    }

    /// Width along x.
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height along y.
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area in square meters.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point.
    pub fn center(&self) -> Point {
        self.min.midpoint(self.max)
    }

    /// Whether `p` lies inside or on the boundary.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Clamps `p` into the rectangle.
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(p.x.clamp(self.min.x, self.max.x), p.y.clamp(self.min.y, self.max.y))
    }

    /// Grows the rectangle by `margin` on every side.
    pub fn expanded(&self, margin: f64) -> Rect {
        Rect {
            min: Point::new(self.min.x - margin, self.min.y - margin),
            max: Point::new(self.max.x + margin, self.max.y + margin),
        }
    }

    /// The polygon with the rectangle's four corners (counter-clockwise).
    pub fn to_polygon(&self) -> Polygon {
        Polygon::new(vec![
            self.min,
            Point::new(self.max.x, self.min.y),
            self.max,
            Point::new(self.min.x, self.max.y),
        ])
        .expect("rectangle corners always form a valid polygon")
    }

    /// Generates grid points with spacing `step`, inset by `step / 2` from
    /// the boundary — the layout used when surveying RSSI fingerprints.
    pub fn grid(&self, step: f64) -> Vec<Point> {
        assert!(step > 0.0, "grid step must be positive");
        let mut out = Vec::new();
        let mut y = self.min.y + step / 2.0;
        while y < self.max.y {
            let mut x = self.min.x + step / 2.0;
            while x < self.max.x {
                out.push(Point::new(x, y));
                x += step;
            }
            y += step;
        }
        out
    }
}

/// A simple polygon (no self-intersection expected) used for zone outlines.
///
/// # Examples
///
/// ```
/// use uniloc_geom::{Point, Polygon};
///
/// let tri = Polygon::new(vec![
///     Point::new(0.0, 0.0),
///     Point::new(4.0, 0.0),
///     Point::new(0.0, 3.0),
/// ])?;
/// assert!(tri.contains(Point::new(1.0, 1.0)));
/// assert!(!tri.contains(Point::new(3.0, 3.0)));
/// assert_eq!(tri.area(), 6.0);
/// # Ok::<(), uniloc_geom::GeomError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    vertices: Vec<Point>,
}

impl Polygon {
    /// Creates a polygon from at least three vertices.
    ///
    /// # Errors
    ///
    /// * [`GeomError::DegeneratePolygon`] — fewer than three vertices.
    /// * [`GeomError::NonFinite`] — NaN/inf coordinates.
    pub fn new(vertices: Vec<Point>) -> Result<Self> {
        if vertices.len() < 3 {
            return Err(GeomError::DegeneratePolygon);
        }
        if vertices.iter().any(|v| !v.is_finite()) {
            return Err(GeomError::NonFinite);
        }
        Ok(Polygon { vertices })
    }

    /// The vertices in order.
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Signed area (positive for counter-clockwise winding).
    pub fn signed_area(&self) -> f64 {
        let n = self.vertices.len();
        let mut s = 0.0;
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            s += p.x * q.y - q.x * p.y;
        }
        s / 2.0
    }

    /// Absolute area.
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// Even-odd point-in-polygon test (boundary points count as inside for
    /// horizontal-ray crossings in the standard way).
    pub fn contains(&self, p: Point) -> bool {
        let mut inside = false;
        let n = self.vertices.len();
        let mut j = n - 1;
        for i in 0..n {
            let vi = self.vertices[i];
            let vj = self.vertices[j];
            if ((vi.y > p.y) != (vj.y > p.y))
                && (p.x < (vj.x - vi.x) * (p.y - vi.y) / (vj.y - vi.y) + vi.x)
            {
                inside = !inside;
            }
            j = i;
        }
        inside
    }

    /// Axis-aligned bounding rectangle.
    pub fn bounding_rect(&self) -> Rect {
        let mut min = self.vertices[0];
        let mut max = self.vertices[0];
        for v in &self.vertices {
            min = Point::new(min.x.min(v.x), min.y.min(v.y));
            max = Point::new(max.x.max(v.x), max.y.max(v.y));
        }
        Rect::new(min, max).expect("finite vertices imply a finite rect")
    }

    /// Translates all vertices by `v`.
    pub fn translated(&self, v: Vector2) -> Polygon {
        Polygon { vertices: self.vertices.iter().map(|p| *p + v).collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_closest_point_clamps_to_endpoints() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        assert_eq!(s.closest_point(Point::new(-5.0, 2.0)), Point::new(0.0, 0.0));
        assert_eq!(s.closest_point(Point::new(15.0, 2.0)), Point::new(10.0, 0.0));
        assert_eq!(s.closest_point(Point::new(4.0, 2.0)), Point::new(4.0, 0.0));
    }

    #[test]
    fn segment_intersection_crossing() {
        let a = Segment::new(Point::new(0.0, 0.0), Point::new(4.0, 4.0));
        let b = Segment::new(Point::new(0.0, 4.0), Point::new(4.0, 0.0));
        let p = a.intersection(&b).unwrap();
        assert!((p.x - 2.0).abs() < 1e-12 && (p.y - 2.0).abs() < 1e-12);
    }

    #[test]
    fn segment_intersection_disjoint() {
        let a = Segment::new(Point::new(0.0, 0.0), Point::new(1.0, 0.0));
        let b = Segment::new(Point::new(2.0, 1.0), Point::new(3.0, 1.0));
        assert!(a.intersection(&b).is_none());
        assert!(!a.intersects(&b));
    }

    #[test]
    fn segment_intersection_parallel_non_collinear() {
        let a = Segment::new(Point::new(0.0, 0.0), Point::new(4.0, 0.0));
        let b = Segment::new(Point::new(0.0, 1.0), Point::new(4.0, 1.0));
        assert!(a.intersection(&b).is_none());
    }

    #[test]
    fn segment_intersection_collinear_overlap() {
        let a = Segment::new(Point::new(0.0, 0.0), Point::new(4.0, 0.0));
        let b = Segment::new(Point::new(2.0, 0.0), Point::new(6.0, 0.0));
        assert_eq!(a.intersection(&b), Some(Point::new(2.0, 0.0)));
        let c = Segment::new(Point::new(5.0, 0.0), Point::new(6.0, 0.0));
        assert!(a.intersection(&c).is_none());
    }

    #[test]
    fn segment_touching_endpoint_counts() {
        let a = Segment::new(Point::new(0.0, 0.0), Point::new(2.0, 0.0));
        let b = Segment::new(Point::new(2.0, 0.0), Point::new(2.0, 5.0));
        assert!(a.intersects(&b));
    }

    #[test]
    fn rect_basics() {
        let r = Rect::new(Point::new(5.0, 3.0), Point::new(1.0, 7.0)).unwrap();
        assert_eq!(r.min(), Point::new(1.0, 3.0));
        assert_eq!(r.max(), Point::new(5.0, 7.0));
        assert_eq!(r.width(), 4.0);
        assert_eq!(r.height(), 4.0);
        assert_eq!(r.center(), Point::new(3.0, 5.0));
        assert!(r.contains(Point::new(1.0, 3.0)));
        assert!(!r.contains(Point::new(0.9, 3.0)));
        assert_eq!(r.clamp(Point::new(-10.0, 100.0)), Point::new(1.0, 7.0));
    }

    #[test]
    fn rect_rejects_nan() {
        assert!(Rect::new(Point::new(f64::NAN, 0.0), Point::origin()).is_err());
    }

    #[test]
    fn rect_grid_spacing() {
        let r = Rect::new(Point::origin(), Point::new(10.0, 10.0)).unwrap();
        let g = r.grid(5.0);
        assert_eq!(g.len(), 4);
        assert!(g.contains(&Point::new(2.5, 2.5)));
        assert!(g.contains(&Point::new(7.5, 7.5)));
        // Finer grid has quadratically more points.
        assert_eq!(r.grid(2.5).len(), 16);
    }

    #[test]
    fn rect_expanded() {
        let r = Rect::new(Point::origin(), Point::new(2.0, 2.0)).unwrap();
        let e = r.expanded(1.0);
        assert_eq!(e.min(), Point::new(-1.0, -1.0));
        assert_eq!(e.max(), Point::new(3.0, 3.0));
    }

    #[test]
    fn polygon_requires_three_vertices() {
        assert!(matches!(
            Polygon::new(vec![Point::origin(), Point::new(1.0, 0.0)]).unwrap_err(),
            GeomError::DegeneratePolygon
        ));
    }

    #[test]
    fn polygon_contains_concave() {
        // L-shape.
        let l = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 2.0),
            Point::new(2.0, 2.0),
            Point::new(2.0, 4.0),
            Point::new(0.0, 4.0),
        ])
        .unwrap();
        assert!(l.contains(Point::new(1.0, 3.0)));
        assert!(l.contains(Point::new(3.0, 1.0)));
        assert!(!l.contains(Point::new(3.0, 3.0))); // in the notch
        assert_eq!(l.area(), 12.0);
    }

    #[test]
    fn polygon_area_sign() {
        let ccw = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
        ])
        .unwrap();
        assert!(ccw.signed_area() > 0.0);
        let cw = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 0.0),
        ])
        .unwrap();
        assert!(cw.signed_area() < 0.0);
        assert_eq!(cw.area(), ccw.area());
    }

    #[test]
    fn polygon_bounding_rect() {
        let sq = Rect::new(Point::origin(), Point::new(2.0, 2.0)).unwrap().to_polygon();
        let bb = sq.bounding_rect();
        assert_eq!(bb.min(), Point::origin());
        assert_eq!(bb.max(), Point::new(2.0, 2.0));
    }

    #[test]
    fn polygon_translation() {
        let tri = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
        ])
        .unwrap();
        let moved = tri.translated(Vector2::new(10.0, 5.0));
        assert_eq!(moved.vertices()[0], Point::new(10.0, 5.0));
        assert_eq!(moved.area(), tri.area());
    }
}
