//! Floor plans: walls, corridors and landmarks.
//!
//! The motion-based PDR scheme the paper implements ("Li et al. [7]")
//! "leverages the map to impose constraints on the user's possible
//! locations": particles die when they cross walls, corridor width bounds
//! lateral drift (error-model factor `beta_2`), and landmarks — "turns,
//! doors and signatures [12]" — reset the accumulated error (factor
//! `beta_1`, distance from the last landmark).

use crate::point::Point;
use crate::polyline::Polyline;
use crate::shapes::Segment;
use crate::{cmp_nan_last, GeomError, Result};

/// An opaque wall segment that blocks pedestrian movement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wall {
    /// Geometry of the wall.
    pub segment: Segment,
}

impl Wall {
    /// Creates a wall from two endpoints.
    pub fn new(a: Point, b: Point) -> Self {
        Wall { segment: Segment::new(a, b) }
    }
}

/// A walkable corridor: a centerline with a physical width.
///
/// The corridor width is the paper's `beta_2` feature for the motion and
/// fusion schemes — "if a corridor or path is wider, it has looser
/// constraint and the localization error is likely to be higher".
#[derive(Debug, Clone, PartialEq)]
pub struct Corridor {
    centerline: Polyline,
    width: f64,
}

impl Corridor {
    /// Creates a corridor.
    ///
    /// # Errors
    ///
    /// [`GeomError::NonPositive`] when `width <= 0`.
    pub fn new(centerline: Polyline, width: f64) -> Result<Self> {
        if width <= 0.0 || !width.is_finite() {
            return Err(GeomError::NonPositive("corridor width"));
        }
        Ok(Corridor { centerline, width })
    }

    /// The corridor centerline.
    pub fn centerline(&self) -> &Polyline {
        &self.centerline
    }

    /// The corridor width in meters.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Distance from `p` to the centerline.
    pub fn distance_to(&self, p: Point) -> f64 {
        let (q, _) = self.centerline.project(p);
        q.distance(p)
    }

    /// Whether `p` lies within the corridor (within half the width of the
    /// centerline).
    pub fn contains(&self, p: Point) -> bool {
        self.distance_to(p) <= self.width / 2.0
    }
}

/// The kinds of landmarks PDR can calibrate against.
///
/// Turns and doors come from the map; signatures are recognizable sensor
/// patterns (WiFi/magnetic) in the spirit of UnLoc [12].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum LandmarkKind {
    /// A sharp turn in a corridor.
    Turn,
    /// A doorway.
    Door,
    /// A sensor signature (e.g. a distinctive WiFi or magnetic pattern).
    Signature,
    /// An elevator bank (strong magnetic signature).
    Elevator,
    /// A staircase entrance.
    Stairs,
}

impl std::fmt::Display for LandmarkKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            LandmarkKind::Turn => "turn",
            LandmarkKind::Door => "door",
            LandmarkKind::Signature => "signature",
            LandmarkKind::Elevator => "elevator",
            LandmarkKind::Stairs => "stairs",
        };
        f.write_str(s)
    }
}

/// A calibration landmark at a known map position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Landmark {
    /// What kind of landmark this is.
    pub kind: LandmarkKind,
    /// Where it sits on the map.
    pub position: Point,
    /// Radius within which a walker reliably detects it (m).
    pub detection_radius: f64,
}

impl Landmark {
    /// Creates a landmark with a detection radius.
    ///
    /// # Errors
    ///
    /// [`GeomError::NonPositive`] when `detection_radius <= 0`.
    pub fn new(kind: LandmarkKind, position: Point, detection_radius: f64) -> Result<Self> {
        if detection_radius <= 0.0 || !detection_radius.is_finite() {
            return Err(GeomError::NonPositive("landmark detection radius"));
        }
        Ok(Landmark { kind, position, detection_radius })
    }

    /// Whether a walker at `p` detects the landmark.
    pub fn detects(&self, p: Point) -> bool {
        self.position.distance(p) <= self.detection_radius
    }
}

/// Walls, corridors and landmarks of one venue.
///
/// # Examples
///
/// ```
/// use uniloc_geom::{FloorPlan, Landmark, LandmarkKind, Point, Polyline, Corridor};
///
/// let mut plan = FloorPlan::new();
/// plan.add_wall(Point::new(0.0, 2.0), Point::new(20.0, 2.0));
/// plan.add_wall(Point::new(0.0, -2.0), Point::new(20.0, -2.0));
/// let center = Polyline::new(vec![Point::new(0.0, 0.0), Point::new(20.0, 0.0)])?;
/// plan.add_corridor(Corridor::new(center, 4.0)?);
/// plan.add_landmark(Landmark::new(LandmarkKind::Door, Point::new(10.0, 0.0), 2.0)?);
///
/// // A step across the north wall is blocked:
/// assert!(plan.blocks(Point::new(5.0, 1.0), Point::new(5.0, 3.0)));
/// // Walking along the corridor is not:
/// assert!(!plan.blocks(Point::new(5.0, 0.0), Point::new(6.0, 0.0)));
/// assert_eq!(plan.corridor_width_at(Point::new(5.0, 0.0)), Some(4.0));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FloorPlan {
    walls: Vec<Wall>,
    corridors: Vec<Corridor>,
    landmarks: Vec<Landmark>,
}

impl FloorPlan {
    /// Creates an empty floor plan (open space: no constraints).
    pub fn new() -> Self {
        FloorPlan::default()
    }

    /// Adds a wall between two points.
    pub fn add_wall(&mut self, a: Point, b: Point) -> &mut Self {
        self.walls.push(Wall::new(a, b));
        self
    }

    /// Adds a corridor.
    pub fn add_corridor(&mut self, c: Corridor) -> &mut Self {
        self.corridors.push(c);
        self
    }

    /// Adds a landmark.
    pub fn add_landmark(&mut self, l: Landmark) -> &mut Self {
        self.landmarks.push(l);
        self
    }

    /// All walls.
    pub fn walls(&self) -> &[Wall] {
        &self.walls
    }

    /// All corridors.
    pub fn corridors(&self) -> &[Corridor] {
        &self.corridors
    }

    /// All landmarks.
    pub fn landmarks(&self) -> &[Landmark] {
        &self.landmarks
    }

    /// Whether a straight move from `a` to `b` crosses any wall.
    pub fn blocks(&self, a: Point, b: Point) -> bool {
        let step = Segment::new(a, b);
        self.walls.iter().any(|w| w.segment.intersects(&step))
    }

    /// The first wall a straight move from `a` to `b` crosses (closest
    /// intersection to `a`), if any. Used by particle filters to slide
    /// blocked motion along the obstacle. A NaN distance ranks last.
    pub fn blocking_wall(&self, a: Point, b: Point) -> Option<&Wall> {
        let step = Segment::new(a, b);
        self.walls
            .iter()
            .filter_map(|w| w.segment.intersection(&step).map(|p| (w, a.distance_sq(p))))
            .min_by(|x, y| cmp_nan_last(x.1, y.1))
            .map(|(w, _)| w)
    }

    /// Width of the corridor containing `p`, or the nearest corridor if none
    /// contains it and one lies within `2 * width`; `None` in open space
    /// (and for a NaN `p`).
    pub fn corridor_width_at(&self, p: Point) -> Option<f64> {
        // Prefer a corridor that actually contains the point.
        if let Some(c) = self
            .corridors
            .iter()
            .filter(|c| c.contains(p))
            .min_by(|a, b| cmp_nan_last(a.distance_to(p), b.distance_to(p)))
        {
            return Some(c.width());
        }
        self.corridors
            .iter()
            .filter(|c| c.distance_to(p) <= 2.0 * c.width())
            .min_by(|a, b| cmp_nan_last(a.distance_to(p), b.distance_to(p)))
            .map(Corridor::width)
    }

    /// The landmark detectable from `p` (closest wins), if any; `None` for
    /// a NaN `p`.
    pub fn detected_landmark(&self, p: Point) -> Option<&Landmark> {
        self.landmarks
            .iter()
            .filter(|l| l.detects(p))
            .min_by(|a, b| cmp_nan_last(a.position.distance(p), b.position.distance(p)))
    }

    /// Merges another floor plan into this one (e.g. composing a campus from
    /// per-building plans).
    pub fn merge(&mut self, other: FloorPlan) -> &mut Self {
        self.walls.extend(other.walls);
        self.corridors.extend(other.corridors);
        self.landmarks.extend(other.landmarks);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corridor_plan() -> FloorPlan {
        let mut plan = FloorPlan::new();
        plan.add_wall(Point::new(0.0, 2.0), Point::new(20.0, 2.0));
        plan.add_wall(Point::new(0.0, -2.0), Point::new(20.0, -2.0));
        let center =
            Polyline::new(vec![Point::new(0.0, 0.0), Point::new(20.0, 0.0)]).unwrap();
        plan.add_corridor(Corridor::new(center, 4.0).unwrap());
        plan.add_landmark(
            Landmark::new(LandmarkKind::Turn, Point::new(0.0, 0.0), 1.5).unwrap(),
        );
        plan.add_landmark(
            Landmark::new(LandmarkKind::Door, Point::new(10.0, 0.0), 1.5).unwrap(),
        );
        plan
    }

    #[test]
    fn corridor_validation() {
        let line = Polyline::new(vec![Point::origin(), Point::new(1.0, 0.0)]).unwrap();
        assert!(Corridor::new(line.clone(), 0.0).is_err());
        assert!(Corridor::new(line.clone(), -1.0).is_err());
        assert!(Corridor::new(line, 2.0).is_ok());
    }

    #[test]
    fn corridor_containment() {
        let line = Polyline::new(vec![Point::origin(), Point::new(10.0, 0.0)]).unwrap();
        let c = Corridor::new(line, 4.0).unwrap();
        assert!(c.contains(Point::new(5.0, 1.9)));
        assert!(c.contains(Point::new(5.0, 2.0)));
        assert!(!c.contains(Point::new(5.0, 2.1)));
        assert_eq!(c.distance_to(Point::new(5.0, 3.0)), 3.0);
    }

    #[test]
    fn landmark_validation_and_detection() {
        assert!(Landmark::new(LandmarkKind::Door, Point::origin(), 0.0).is_err());
        let l = Landmark::new(LandmarkKind::Signature, Point::new(1.0, 1.0), 2.0).unwrap();
        assert!(l.detects(Point::new(2.0, 2.0)));
        assert!(!l.detects(Point::new(4.0, 4.0)));
    }

    #[test]
    fn walls_block_crossing_steps() {
        let plan = corridor_plan();
        assert!(plan.blocks(Point::new(5.0, 1.0), Point::new(5.0, 3.0)));
        assert!(plan.blocks(Point::new(5.0, -3.0), Point::new(5.0, 3.0)));
        assert!(!plan.blocks(Point::new(1.0, 0.0), Point::new(19.0, 0.0)));
    }

    #[test]
    fn corridor_width_lookup() {
        let plan = corridor_plan();
        assert_eq!(plan.corridor_width_at(Point::new(5.0, 0.0)), Some(4.0));
        // Near but outside: still attributed to the corridor.
        assert_eq!(plan.corridor_width_at(Point::new(5.0, 5.0)), Some(4.0));
        // Far away: open space.
        assert_eq!(plan.corridor_width_at(Point::new(5.0, 50.0)), None);
    }

    #[test]
    fn corridor_width_prefers_containing() {
        let mut plan = FloorPlan::new();
        let wide = Corridor::new(
            Polyline::new(vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)]).unwrap(),
            8.0,
        )
        .unwrap();
        let narrow = Corridor::new(
            Polyline::new(vec![Point::new(0.0, 3.0), Point::new(10.0, 3.0)]).unwrap(),
            1.0,
        )
        .unwrap();
        plan.add_corridor(wide).add_corridor(narrow);
        // (5, 2.0) is inside the wide corridor (|2.0| < 4) but outside the
        // narrow one (|2.0 - 3.0| > 0.5), even though the narrow centerline
        // is closer.
        assert_eq!(plan.corridor_width_at(Point::new(5.0, 2.0)), Some(8.0));
        // A point inside both picks the closer centerline.
        assert_eq!(plan.corridor_width_at(Point::new(5.0, 2.9)), Some(1.0));
    }

    #[test]
    fn landmark_queries() {
        let plan = corridor_plan();
        let hit = plan.detected_landmark(Point::new(10.5, 0.0)).unwrap();
        assert_eq!(hit.kind, LandmarkKind::Door);
        assert!(plan.detected_landmark(Point::new(5.0, 0.0)).is_none());
    }

    #[test]
    fn empty_plan_is_unconstrained() {
        let plan = FloorPlan::new();
        assert!(!plan.blocks(Point::origin(), Point::new(100.0, 100.0)));
        assert_eq!(plan.corridor_width_at(Point::origin()), None);
        assert!(plan.detected_landmark(Point::origin()).is_none());
    }

    #[test]
    fn merge_combines_elements() {
        let mut a = corridor_plan();
        let mut b = FloorPlan::new();
        b.add_wall(Point::new(30.0, 0.0), Point::new(40.0, 0.0));
        a.merge(b);
        assert_eq!(a.walls().len(), 3);
        assert_eq!(a.corridors().len(), 1);
        assert_eq!(a.landmarks().len(), 2);
    }

    /// NaN and infinite endpoints degrade to "no wall" instead of
    /// panicking; finite moves still stop at the nearer of two walls.
    #[test]
    fn blocking_wall_is_total_on_nan() {
        let plan = corridor_plan();
        let near = plan.blocking_wall(Point::new(5.0, -5.0), Point::new(5.0, 5.0)).unwrap();
        assert!(std::ptr::eq(near, &plan.walls()[1]));
        let far = plan.blocking_wall(Point::new(5.0, 5.0), Point::new(5.0, -5.0)).unwrap();
        assert!(std::ptr::eq(far, &plan.walls()[0]));
        let nan = f64::NAN;
        for (a, b) in [
            (Point::new(nan, 0.0), Point::new(5.0, 5.0)),
            (Point::new(5.0, -5.0), Point::new(5.0, nan)),
            (Point::new(nan, nan), Point::new(nan, nan)),
        ] {
            assert!(plan.blocking_wall(a, b).is_none());
        }
        // Infinite endpoints: whatever the answer, no panic.
        let _ = plan.blocking_wall(Point::new(5.0, f64::NEG_INFINITY), Point::new(5.0, 1e308));
    }

    /// A NaN query point is in no corridor and near none.
    #[test]
    fn corridor_width_is_total_on_nan() {
        let plan = corridor_plan();
        assert_eq!(plan.corridor_width_at(Point::new(10.0, 0.5)), Some(4.0));
        for p in [
            Point::new(f64::NAN, 0.0),
            Point::new(10.0, f64::NAN),
            Point::new(f64::INFINITY, f64::NAN),
        ] {
            assert_eq!(plan.corridor_width_at(p), None);
        }
    }

    /// A NaN query point detects no landmark.
    #[test]
    fn detected_landmark_is_total_on_nan() {
        let plan = corridor_plan();
        assert!(plan.detected_landmark(Point::new(0.5, 0.0)).is_some());
        for p in [Point::new(f64::NAN, 0.0), Point::new(0.0, f64::NAN)] {
            assert!(plan.detected_landmark(p).is_none());
        }
    }

    #[test]
    fn landmark_kind_display() {
        assert_eq!(LandmarkKind::Turn.to_string(), "turn");
        assert_eq!(LandmarkKind::Signature.to_string(), "signature");
    }
}
