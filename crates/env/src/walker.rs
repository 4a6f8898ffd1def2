//! Pedestrian trajectory generation with personalised gait.
//!
//! The paper tests "with 6 persons, including both females and males with
//! different ages (from 20s to 50s)" and relies on the PDR system's step
//! personalisation to absorb individual gait differences. A [`Walker`] walks
//! a route step by step: each step has a true length (drawn from the
//! persona's distribution), a true duration ("the normal period of one human
//! walking step is from 0.4 s to 0.7 s"), and a true heading from the route
//! tangent. The IMU simulator then corrupts these truths into sensor
//! readings.

use uniloc_rng::Rng;
use uniloc_geom::{Point, Polyline};

/// A walking-style profile for one person.
#[derive(Debug, Clone, PartialEq)]
pub struct GaitProfile {
    /// Persona name (for reports).
    pub name: String,
    /// Mean step length in meters.
    pub step_length_m: f64,
    /// Mean step frequency in Hz.
    pub step_freq_hz: f64,
    /// Coefficient of variation of step length (fraction).
    pub length_cv: f64,
    /// Hand-tremble heading noise, standard deviation in radians.
    pub tremble_rad: f64,
}

impl GaitProfile {
    /// A typical adult gait (0.65 m steps at 1.8 Hz).
    pub fn average() -> Self {
        GaitProfile {
            name: "average".to_owned(),
            step_length_m: 0.65,
            step_freq_hz: 1.8,
            length_cv: 0.06,
            tremble_rad: 0.05,
        }
    }

    /// The six evaluation personas (both sexes, ages 20s-50s), mirroring the
    /// paper's subject pool.
    pub fn personas() -> Vec<GaitProfile> {
        let mk = |name: &str, len: f64, freq: f64, cv: f64, tremble: f64| GaitProfile {
            name: name.to_owned(),
            step_length_m: len,
            step_freq_hz: freq,
            length_cv: cv,
            tremble_rad: tremble,
        };
        vec![
            mk("f-20s", 0.62, 1.95, 0.05, 0.04),
            mk("m-20s", 0.72, 1.90, 0.05, 0.05),
            mk("f-30s", 0.63, 1.85, 0.06, 0.05),
            mk("m-30s", 0.74, 1.80, 0.06, 0.05),
            mk("f-40s", 0.60, 1.70, 0.07, 0.06),
            mk("m-50s", 0.66, 1.60, 0.08, 0.07),
        ]
    }

    /// Mean walking speed in m/s.
    pub fn speed(&self) -> f64 {
        self.step_length_m * self.step_freq_hz
    }
}

/// One true step taken by a walker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepEvent {
    /// Time of step completion, seconds since walk start.
    pub t: f64,
    /// Duration of this step in seconds.
    pub duration: f64,
    /// True position after the step.
    pub position: Point,
    /// True heading of travel during the step (compass radians).
    pub heading: f64,
    /// True step length in meters.
    pub step_length: f64,
    /// Arc-length distance from the route start.
    pub station: f64,
}

/// A completed walk along a route: the ground truth for every experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    steps: Vec<StepEvent>,
    route_length: f64,
}

impl Trajectory {
    /// The step events in time order.
    pub fn steps(&self) -> &[StepEvent] {
        &self.steps
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the walk has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Total duration in seconds.
    pub fn duration(&self) -> f64 {
        self.steps.last().map_or(0.0, |s| s.t)
    }

    /// Length of the walked route in meters.
    pub fn route_length(&self) -> f64 {
        self.route_length
    }

    /// True position at time `t` (linear interpolation between steps, clamped
    /// to the walk).
    pub fn position_at(&self, t: f64) -> Point {
        if self.steps.is_empty() {
            return Point::origin();
        }
        if t <= self.steps[0].t {
            return self.steps[0].position;
        }
        let idx = self.steps.partition_point(|s| s.t <= t);
        if idx >= self.steps.len() {
            return self.steps[self.steps.len() - 1].position;
        }
        let a = &self.steps[idx - 1];
        let b = &self.steps[idx];
        let w = if b.t > a.t { (t - a.t) / (b.t - a.t) } else { 0.0 };
        a.position.lerp(b.position, w)
    }
}

/// Walks routes with a given gait.
///
/// # Examples
///
/// ```
/// use uniloc_env::{GaitProfile, Walker};
/// use uniloc_geom::{Point, Polyline};
///
/// let route = Polyline::new(vec![Point::new(0.0, 0.0), Point::new(50.0, 0.0)])?;
/// let mut walker = Walker::new(
///     GaitProfile::average(),
///     uniloc_rng::Rng::seed_from_u64(1),
/// );
/// let walk = walker.walk(&route);
/// // ~50 m / 0.65 m per step:
/// assert!((walk.len() as i64 - 77).abs() < 8);
/// let last = walk.steps().last().unwrap();
/// assert!((last.station - route.length()).abs() < 1.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Walker {
    gait: GaitProfile,
    rng: Rng,
}

impl Walker {
    /// Creates a walker with a gait and a seeded RNG.
    pub fn new(gait: GaitProfile, rng: Rng) -> Self {
        Walker { gait, rng }
    }

    /// Walks the full route, returning the ground-truth trajectory.
    pub fn walk(&mut self, route: &Polyline) -> Trajectory {
        let mut steps = Vec::new();
        let mut station = 0.0;
        let mut t = 0.0;
        let len = route.length();
        while station < len {
            let step_len = (self.gait.step_length_m
                * (1.0 + self.gait.length_cv * self.rng.standard_normal()))
            .clamp(0.3 * self.gait.step_length_m, 1.8 * self.gait.step_length_m);
            // Step period varies in the paper's 0.4-0.7 s band.
            let nominal = 1.0 / self.gait.step_freq_hz;
            let duration = (nominal * (1.0 + 0.08 * self.rng.standard_normal())).clamp(0.4, 0.7);
            let heading = route.heading_at(station + step_len / 2.0);
            station = (station + step_len).min(len);
            t += duration;
            steps.push(StepEvent {
                t,
                duration,
                position: route.point_at(station),
                heading,
                step_length: step_len,
                station,
            });
        }
        Trajectory { steps, route_length: len }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn straight_route(len: f64) -> Polyline {
        Polyline::new(vec![Point::new(0.0, 0.0), Point::new(len, 0.0)]).unwrap()
    }

    #[test]
    fn walk_covers_route() {
        let route = straight_route(100.0);
        let mut w = Walker::new(GaitProfile::average(), Rng::seed_from_u64(7));
        let traj = w.walk(&route);
        let last = traj.steps().last().unwrap();
        assert!((last.station - 100.0).abs() < 1e-9);
        assert_eq!(last.position, Point::new(100.0, 0.0));
        assert_eq!(traj.route_length(), 100.0);
    }

    #[test]
    fn step_count_matches_gait() {
        let route = straight_route(130.0);
        let gait = GaitProfile::average();
        let expected = 130.0 / gait.step_length_m;
        let mut w = Walker::new(gait, Rng::seed_from_u64(8));
        let n = w.walk(&route).len() as f64;
        assert!((n - expected).abs() < expected * 0.1, "n={n}, expected~{expected}");
    }

    #[test]
    fn step_durations_in_band() {
        let route = straight_route(200.0);
        let mut w = Walker::new(GaitProfile::average(), Rng::seed_from_u64(9));
        for s in w.walk(&route).steps() {
            assert!((0.4..=0.7).contains(&s.duration), "duration {}", s.duration);
        }
    }

    #[test]
    fn times_strictly_increase() {
        let route = straight_route(80.0);
        let mut w = Walker::new(GaitProfile::average(), Rng::seed_from_u64(10));
        let traj = w.walk(&route);
        for pair in traj.steps().windows(2) {
            assert!(pair[1].t > pair[0].t);
            assert!(pair[1].station >= pair[0].station);
        }
    }

    #[test]
    fn position_at_interpolates() {
        let route = straight_route(50.0);
        let mut w = Walker::new(GaitProfile::average(), Rng::seed_from_u64(11));
        let traj = w.walk(&route);
        // Before the walk starts.
        assert_eq!(traj.position_at(-1.0), traj.steps()[0].position);
        // After it ends.
        assert_eq!(traj.position_at(1e9), traj.steps().last().unwrap().position);
        // Midway between steps 10 and 11.
        let a = &traj.steps()[10];
        let b = &traj.steps()[11];
        let mid = traj.position_at((a.t + b.t) / 2.0);
        assert!((mid.x - (a.position.x + b.position.x) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn personas_are_distinct_and_plausible() {
        let personas = GaitProfile::personas();
        assert_eq!(personas.len(), 6);
        for p in &personas {
            assert!((0.4..0.9).contains(&p.step_length_m));
            assert!((1.3..2.2).contains(&p.step_freq_hz));
            assert!((0.6..1.7).contains(&p.speed()));
        }
        // Distinct names.
        let mut names: Vec<&str> = personas.iter().map(|p| p.name.as_str()).collect();
        names.dedup();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn deterministic_with_same_seed() {
        let route = straight_route(60.0);
        let mut w1 = Walker::new(GaitProfile::average(), Rng::seed_from_u64(5));
        let mut w2 = Walker::new(GaitProfile::average(), Rng::seed_from_u64(5));
        assert_eq!(w1.walk(&route), w2.walk(&route));
    }

    #[test]
    fn heading_follows_route_turns() {
        let route = Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(20.0, 0.0),
            Point::new(20.0, 20.0),
        ])
        .unwrap();
        let mut w = Walker::new(GaitProfile::average(), Rng::seed_from_u64(6));
        let traj = w.walk(&route);
        let early = traj.steps()[3].heading;
        let late = traj.steps().last().unwrap().heading;
        assert!((early - std::f64::consts::FRAC_PI_2).abs() < 1e-6, "east leg");
        assert!(late.abs() < 1e-6, "north leg");
    }

    #[test]
    fn empty_trajectory_behaviour() {
        let traj = Trajectory { steps: vec![], route_length: 0.0 };
        assert!(traj.is_empty());
        assert_eq!(traj.duration(), 0.0);
        assert_eq!(traj.position_at(1.0), Point::origin());
    }
}
