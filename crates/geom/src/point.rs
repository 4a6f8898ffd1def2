//! Points and vectors in the 2-D map plane (meters).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// A position on the local map, in meters.
///
/// # Examples
///
/// ```
/// use uniloc_geom::Point;
///
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(3.0, 4.0);
/// assert_eq!(a.distance(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// East coordinate (m).
    pub x: f64,
    /// North coordinate (m).
    pub y: f64,
}

uniloc_stats::impl_json_struct!(Point { x, y });

impl Point {
    /// Creates a point from map coordinates.
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// The map origin `(0, 0)`.
    pub fn origin() -> Self {
        Point { x: 0.0, y: 0.0 }
    }

    /// Euclidean distance to `other`.
    pub fn distance(self, other: Point) -> f64 {
        (self - other).norm()
    }

    /// Squared Euclidean distance (avoids the square root).
    pub fn distance_sq(self, other: Point) -> f64 {
        let d = self - other;
        d.x * d.x + d.y * d.y
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    pub fn lerp(self, other: Point, t: f64) -> Point {
        Point { x: self.x + (other.x - self.x) * t, y: self.y + (other.y - self.y) * t }
    }

    /// Component-wise midpoint.
    pub fn midpoint(self, other: Point) -> Point {
        self.lerp(other, 0.5)
    }

    /// True when both coordinates are finite.
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})", self.x, self.y)
    }
}

/// A displacement in the map plane, in meters.
///
/// # Examples
///
/// ```
/// use uniloc_geom::Vector2;
///
/// // Walking one step of 0.7 m due east:
/// let step = Vector2::from_heading(std::f64::consts::FRAC_PI_2, 0.7);
/// assert!((step.x - 0.7).abs() < 1e-12);
/// assert!(step.y.abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vector2 {
    /// East component (m).
    pub x: f64,
    /// North component (m).
    pub y: f64,
}

impl Vector2 {
    /// Creates a vector from components.
    pub fn new(x: f64, y: f64) -> Self {
        Vector2 { x, y }
    }

    /// The zero vector.
    pub fn zero() -> Self {
        Vector2 { x: 0.0, y: 0.0 }
    }

    /// A displacement of `length` meters along `heading` radians, where
    /// heading 0 is north (+y) and grows clockwise (compass convention, as a
    /// phone magnetometer reports it).
    pub fn from_heading(heading: f64, length: f64) -> Self {
        Vector2 { x: heading.sin() * length, y: heading.cos() * length }
    }

    /// Euclidean norm.
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared norm.
    pub fn norm_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product.
    pub fn dot(self, other: Vector2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (z component of the 3-D cross product).
    pub fn cross(self, other: Vector2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Unit vector in the same direction, or `None` for the zero vector.
    pub fn normalized(self) -> Option<Vector2> {
        let n = self.norm();
        if n == 0.0 {
            None
        } else {
            Some(self / n)
        }
    }

    /// Compass heading in radians (`0` = north/+y, clockwise positive,
    /// range `[0, 2*pi)`).
    pub fn heading(self) -> f64 {
        let h = self.x.atan2(self.y);
        if h < 0.0 {
            h + 2.0 * std::f64::consts::PI
        } else {
            h
        }
    }

    /// Rotates the vector by `angle` radians counter-clockwise.
    pub fn rotated(self, angle: f64) -> Vector2 {
        let (s, c) = angle.sin_cos();
        Vector2 { x: c * self.x - s * self.y, y: s * self.x + c * self.y }
    }

    /// The perpendicular vector (rotated 90 degrees counter-clockwise).
    pub fn perp(self) -> Vector2 {
        Vector2 { x: -self.y, y: self.x }
    }
}

impl Add<Vector2> for Point {
    type Output = Point;
    fn add(self, v: Vector2) -> Point {
        Point { x: self.x + v.x, y: self.y + v.y }
    }
}

impl AddAssign<Vector2> for Point {
    fn add_assign(&mut self, v: Vector2) {
        self.x += v.x;
        self.y += v.y;
    }
}

impl Sub for Point {
    type Output = Vector2;
    fn sub(self, other: Point) -> Vector2 {
        Vector2 { x: self.x - other.x, y: self.y - other.y }
    }
}

impl Sub<Vector2> for Point {
    type Output = Point;
    fn sub(self, v: Vector2) -> Point {
        Point { x: self.x - v.x, y: self.y - v.y }
    }
}

impl Add for Vector2 {
    type Output = Vector2;
    fn add(self, other: Vector2) -> Vector2 {
        Vector2 { x: self.x + other.x, y: self.y + other.y }
    }
}

impl Sub for Vector2 {
    type Output = Vector2;
    fn sub(self, other: Vector2) -> Vector2 {
        Vector2 { x: self.x - other.x, y: self.y - other.y }
    }
}

impl Mul<f64> for Vector2 {
    type Output = Vector2;
    fn mul(self, k: f64) -> Vector2 {
        Vector2 { x: self.x * k, y: self.y * k }
    }
}

impl Div<f64> for Vector2 {
    type Output = Vector2;
    fn div(self, k: f64) -> Vector2 {
        Vector2 { x: self.x / k, y: self.y / k }
    }
}

impl Neg for Vector2 {
    type Output = Vector2;
    fn neg(self) -> Vector2 {
        Vector2 { x: -self.x, y: -self.y }
    }
}

impl fmt::Display for Vector2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{:.2}, {:.2}>", self.x, self.y)
    }
}

/// Normalizes an angle to `[0, 2*pi)`.
pub fn wrap_angle(a: f64) -> f64 {
    let two_pi = 2.0 * std::f64::consts::PI;
    let mut a = a % two_pi;
    if a < 0.0 {
        a += two_pi;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn distance_and_midpoint() {
        let a = Point::new(1.0, 1.0);
        let b = Point::new(4.0, 5.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.distance_sq(b), 25.0);
        assert_eq!(a.midpoint(b), Point::new(2.5, 3.0));
    }

    #[test]
    fn lerp_endpoints() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, -4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.25), Point::new(2.5, -1.0));
    }

    #[test]
    fn heading_compass_convention() {
        // North.
        assert!((Vector2::new(0.0, 1.0).heading()).abs() < 1e-12);
        // East.
        assert!((Vector2::new(1.0, 0.0).heading() - FRAC_PI_2).abs() < 1e-12);
        // South.
        assert!((Vector2::new(0.0, -1.0).heading() - PI).abs() < 1e-12);
        // West.
        assert!((Vector2::new(-1.0, 0.0).heading() - 1.5 * PI).abs() < 1e-12);
    }

    #[test]
    fn from_heading_roundtrip() {
        for i in 0..16 {
            let h = i as f64 * PI / 8.0;
            let v = Vector2::from_heading(h, 2.0);
            assert!((v.norm() - 2.0).abs() < 1e-12);
            assert!((wrap_angle(v.heading() - h)).min(2.0 * PI - wrap_angle(v.heading() - h)) < 1e-9);
        }
    }

    #[test]
    fn dot_and_cross() {
        let a = Vector2::new(1.0, 0.0);
        let b = Vector2::new(0.0, 1.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), 1.0);
        assert_eq!(b.cross(a), -1.0);
    }

    #[test]
    fn normalized_zero_is_none() {
        assert!(Vector2::zero().normalized().is_none());
        let u = Vector2::new(3.0, 4.0).normalized().unwrap();
        assert!((u.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rotation_quarter_turn() {
        let v = Vector2::new(1.0, 0.0).rotated(FRAC_PI_2);
        assert!((v.x).abs() < 1e-12);
        assert!((v.y - 1.0).abs() < 1e-12);
        let p = Vector2::new(1.0, 0.0).perp();
        assert_eq!(p, Vector2::new(0.0, 1.0));
    }

    #[test]
    fn point_vector_arithmetic() {
        let p = Point::new(1.0, 2.0);
        let v = Vector2::new(0.5, -1.0);
        assert_eq!(p + v, Point::new(1.5, 1.0));
        let mut q = p;
        q += v;
        assert_eq!(q, p + v);
        assert_eq!((p + v) - p, v);
        assert_eq!(-v, Vector2::new(-0.5, 1.0));
        assert_eq!(v * 2.0, Vector2::new(1.0, -2.0));
        assert_eq!(v / 0.5, Vector2::new(1.0, -2.0));
    }

    #[test]
    fn wrap_angle_normalizes() {
        assert!((wrap_angle(-0.1) - (2.0 * PI - 0.1)).abs() < 1e-12);
        assert!((wrap_angle(2.0 * PI + 0.3) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Point::new(1.0, 2.0).to_string(), "(1.00, 2.00)");
        assert_eq!(Vector2::new(1.0, 2.0).to_string(), "<1.00, 2.00>");
    }

    #[test]
    fn is_finite_detects_nan() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 2.0).is_finite());
        assert!(!Point::new(1.0, f64::INFINITY).is_finite());
    }
}
