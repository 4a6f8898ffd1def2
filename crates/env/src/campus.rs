//! The evaluation campus: the daily path of Fig. 2 and the eight daily paths
//! of Fig. 4.
//!
//! Fig. 4 of the paper shows eight paths totalling 2.78 km — 0.80 km outdoor
//! and 1.98 km indoor — radiating from the authors' laboratory to a library,
//! restaurants, bus stations and an auditorium. We reproduce the *segment
//! structure* (which environment kinds in which order, with which lengths)
//! rather than the literal campus shape: the error models only ever see
//! features (fingerprint density, corridor width, landmark spacing, sky
//! view), so the segment inventory is what matters.
//!
//! Each path is generated by [`build_path`] from a [`PathSpec`]: segments
//! are laid out in an east/north staircase, each with its zone, corridor,
//! walls, landmarks (turns at corners, doors at segment boundaries,
//! signatures every ~40 m indoors) and access points at per-kind spacing.

use crate::world::{World, WorldBuilder};
use crate::zone::EnvKind;
use uniloc_geom::{
    cmp_nan_last, Corridor, FloorPlan, Landmark, LandmarkKind, Point, Polyline, Rect, Vector2,
};

/// A labelled span of a scenario route.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentInfo {
    /// Station (m from route start) where the segment begins.
    pub start_station: f64,
    /// Station where the segment ends.
    pub end_station: f64,
    /// Environment kind of the segment.
    pub kind: EnvKind,
}

/// One experiment venue: a world plus a walking route through it.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (e.g. `"path1"`).
    pub name: String,
    /// The simulated world.
    pub world: World,
    /// The ground-truth walking route.
    pub route: Polyline,
    /// Labelled route segments in station order.
    pub segments: Vec<SegmentInfo>,
}

impl Scenario {
    /// Environment kind at a route station.
    pub fn kind_at_station(&self, s: f64) -> EnvKind {
        self.segments
            .iter()
            .find(|seg| s >= seg.start_station && s <= seg.end_station)
            .map(|seg| seg.kind)
            .unwrap_or_else(|| self.world.kind_at(self.route.point_at(s)))
    }

    /// Total meters of the route that are outdoors.
    pub fn outdoor_length(&self) -> f64 {
        self.segments
            .iter()
            .filter(|s| !s.kind.is_roofed())
            .map(|s| s.end_station - s.start_station)
            .sum()
    }

    /// Fingerprint survey points for this venue: a per-zone grid with
    /// `indoor_spacing` inside roofed zones and `outdoor_spacing` outside
    /// (the paper uses 1-3 m indoors and 12 m in open spaces).
    ///
    /// # Panics
    ///
    /// Panics if either spacing is not positive.
    pub fn survey_points(&self, indoor_spacing: f64, outdoor_spacing: f64) -> Vec<Point> {
        assert!(indoor_spacing > 0.0 && outdoor_spacing > 0.0, "spacings must be positive");
        let mut out: Vec<Point> = Vec::new();
        for zone in self.world.zones() {
            let spacing = if zone.kind().is_roofed() { indoor_spacing } else { outdoor_spacing };
            let bb = zone.polygon().bounding_rect();
            for p in bb.grid(spacing) {
                if zone.contains(p) {
                    out.push(p);
                }
            }
        }
        dedup_survey_points(out)
    }
}

/// Deduplicates overlapping-zone grid points on a fine lattice: sorted by
/// `(x, y)`, with NaN coordinates after every number, then points closer
/// than 0.25 m to their predecessor dropped (a NaN point is never close).
fn dedup_survey_points(mut points: Vec<Point>) -> Vec<Point> {
    points.sort_by(|a, b| cmp_nan_last(a.x, b.x).then_with(|| cmp_nan_last(a.y, b.y)));
    points.dedup_by(|a, b| a.distance(*b) < 0.25);
    points
}

/// Specification of one path segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathSpec {
    /// Environment kind of the segment.
    pub kind: EnvKind,
    /// Segment length in meters.
    pub length: f64,
}

impl PathSpec {
    /// Convenience constructor.
    pub const fn new(kind: EnvKind, length: f64) -> Self {
        PathSpec { kind, length }
    }
}

/// AP deployment spacing (m along the path) per environment kind; `None`
/// means no WiFi coverage (the basement).
fn ap_spacing(kind: EnvKind) -> Option<f64> {
    match kind {
        EnvKind::Office => Some(15.0),
        EnvKind::Corridor => Some(20.0),
        EnvKind::SemiOpenCorridor => Some(25.0),
        EnvKind::Basement => None,
        EnvKind::CarPark => Some(45.0),
        EnvKind::MallFloor => Some(18.0),
        EnvKind::OpenSpace | EnvKind::Road => Some(80.0),
    }
}

/// Zone half-width (m) around a segment centerline.
fn zone_half_width(kind: EnvKind) -> f64 {
    if kind.is_roofed() {
        kind.default_path_width_m() / 2.0 + 4.0
    } else {
        22.0
    }
}

/// Builds a scenario from a segment spec list.
///
/// Segments are laid out alternating east and north, turning 90 degrees at
/// every boundary. Indoor segments get corridors, side walls (with door gaps
/// at the ends), turn/door landmarks and signatures every 40 m; every
/// segment gets access points at kind-dependent spacing. Five cellular
/// towers surround the campus: two within ~330 m (audible even at basement
/// penetration loss) and three farther out.
///
/// # Examples
///
/// ```
/// use uniloc_env::campus::{build_path, PathSpec};
/// use uniloc_env::EnvKind;
///
/// let s = build_path(
///     "mini",
///     1,
///     &[PathSpec::new(EnvKind::Office, 40.0), PathSpec::new(EnvKind::OpenSpace, 60.0)],
/// );
/// assert_eq!(s.route.length(), 100.0);
/// assert_eq!(s.outdoor_length(), 60.0);
/// ```
///
/// # Panics
///
/// Panics if `specs` is empty or any length is not positive.
pub fn build_path(name: &str, seed: u64, specs: &[PathSpec]) -> Scenario {
    assert!(!specs.is_empty(), "path needs at least one segment");
    assert!(specs.iter().all(|s| s.length > 0.0), "segment lengths must be positive");

    let start = Point::new(5.0, 5.0);
    let mut vertices = vec![start];
    let mut plan = FloorPlan::new();
    let mut builder = WorldBuilder::new(name, seed);
    let mut segments = Vec::with_capacity(specs.len());

    let mut cursor = start;
    let mut station = 0.0;
    let mut ap_positions: Vec<Point> = Vec::new();

    for (i, spec) in specs.iter().enumerate() {
        // Alternate east / north.
        let dir = if i % 2 == 0 { Vector2::new(1.0, 0.0) } else { Vector2::new(0.0, 1.0) };
        let perp = dir.perp();
        let end = cursor + dir * spec.length;
        vertices.push(end);

        // Zone rectangle around the centerline.
        let hw = zone_half_width(spec.kind);
        let corner_a = cursor + perp * hw - dir * 2.0;
        let corner_b = end - perp * hw + dir * 2.0;
        let rect = Rect::new(corner_a, corner_b).expect("finite segment corners");
        let priority = if spec.kind.is_roofed() { 10 } else { 1 };
        builder = builder.zone_rect(
            &format!("{name}-seg{i}-{}", spec.kind),
            spec.kind,
            rect,
            priority,
        );

        // Corridor with the kind's physical width (indoor + car park).
        let width = spec.kind.default_path_width_m();
        if spec.kind.is_roofed() {
            let center = Polyline::new(vec![cursor, end]).expect("segment has length");
            plan.add_corridor(Corridor::new(center, width).expect("positive width"));
            // Side walls with door gaps at the ends.
            let margin = width.max(2.0);
            if spec.length > 2.0 * margin {
                let a = cursor + dir * margin;
                let b = end - dir * margin;
                plan.add_wall(a + perp * (width / 2.0), b + perp * (width / 2.0));
                plan.add_wall(a - perp * (width / 2.0), b - perp * (width / 2.0));
            }
        }

        // Landmarks: a turn at every interior corner, a door where a roofed
        // segment starts or ends, signatures every 40 m indoors.
        if i > 0 {
            plan.add_landmark(
                Landmark::new(LandmarkKind::Turn, cursor, 1.5).expect("positive radius"),
            );
            let prev_roofed = specs[i - 1].kind.is_roofed();
            if prev_roofed != spec.kind.is_roofed() {
                plan.add_landmark(
                    Landmark::new(LandmarkKind::Door, cursor, 2.0).expect("positive radius"),
                );
            }
        }
        // Signatures are sparse — UnLoc-style sensor signatures exist only
        // where the environment is distinctive, and "it is hard to find
        // sufficient signatures outdoors" (none are placed outdoors).
        if spec.kind.is_roofed() && spec.kind != EnvKind::Basement {
            let mut s = 70.0;
            while s < spec.length - 10.0 {
                plan.add_landmark(
                    Landmark::new(LandmarkKind::Signature, cursor + dir * s, 2.0)
                        .expect("positive radius"),
                );
                s += 70.0;
            }
        }

        // Access points, offset alternately left/right of the centerline.
        if let Some(spacing) = ap_spacing(spec.kind) {
            let mut s = spacing / 2.0;
            let mut side = 1.0;
            while s < spec.length {
                let lateral = if spec.kind.is_roofed() { hw - 1.0 } else { 12.0 };
                ap_positions.push(cursor + dir * s + perp * (side * lateral));
                side = -side;
                s += spacing;
            }
        }

        segments.push(SegmentInfo {
            start_station: station,
            end_station: station + spec.length,
            kind: spec.kind,
        });
        station += spec.length;
        cursor = end;
    }

    for p in ap_positions {
        builder = builder.access_point(p);
    }
    // Five towers: two near (audible through basement-grade penetration),
    // three far.
    for t in [
        Point::new(250.0, 180.0),
        Point::new(-270.0, 160.0),
        Point::new(550.0, -400.0),
        Point::new(-500.0, -450.0),
        Point::new(750.0, 300.0),
    ] {
        builder = builder.cell_tower(t);
    }

    let world = builder.floorplan(plan).build();
    let route = Polyline::new(vertices).expect("specs produce a valid route");
    Scenario { name: name.to_owned(), world, route, segments }
}

/// Segment specs of the eight daily paths of Fig. 4, path1 first.
const PATHS: [&[PathSpec]; 8] = [
    // path1, the daily path of Fig. 2.
    &[
        PathSpec::new(EnvKind::Office, 50.0),
        PathSpec::new(EnvKind::SemiOpenCorridor, 80.0),
        PathSpec::new(EnvKind::Basement, 60.0),
        PathSpec::new(EnvKind::CarPark, 50.0),
        PathSpec::new(EnvKind::OpenSpace, 80.0),
    ],
    &[
        PathSpec::new(EnvKind::Office, 40.0),
        PathSpec::new(EnvKind::Corridor, 70.0),
        PathSpec::new(EnvKind::OpenSpace, 90.0),
        PathSpec::new(EnvKind::Office, 90.0),
    ],
    &[
        PathSpec::new(EnvKind::Office, 50.0),
        PathSpec::new(EnvKind::SemiOpenCorridor, 100.0),
        PathSpec::new(EnvKind::OpenSpace, 120.0),
        PathSpec::new(EnvKind::Corridor, 80.0),
        PathSpec::new(EnvKind::Office, 42.0),
    ],
    &[
        PathSpec::new(EnvKind::Office, 45.0),
        PathSpec::new(EnvKind::Corridor, 90.0),
        PathSpec::new(EnvKind::CarPark, 60.0),
        PathSpec::new(EnvKind::OpenSpace, 101.0),
        PathSpec::new(EnvKind::Office, 80.0),
    ],
    &[
        PathSpec::new(EnvKind::Office, 50.0),
        PathSpec::new(EnvKind::SemiOpenCorridor, 120.0),
        PathSpec::new(EnvKind::OpenSpace, 148.0),
        PathSpec::new(EnvKind::Corridor, 97.0),
    ],
    &[
        PathSpec::new(EnvKind::Office, 40.0),
        PathSpec::new(EnvKind::Basement, 80.0),
        PathSpec::new(EnvKind::Corridor, 98.0),
        PathSpec::new(EnvKind::OpenSpace, 65.0),
        PathSpec::new(EnvKind::Office, 60.0),
    ],
    &[
        PathSpec::new(EnvKind::Office, 55.0),
        PathSpec::new(EnvKind::Corridor, 85.0),
        PathSpec::new(EnvKind::OpenSpace, 82.0),
        PathSpec::new(EnvKind::SemiOpenCorridor, 90.0),
        PathSpec::new(EnvKind::Office, 60.0),
    ],
    &[
        PathSpec::new(EnvKind::Office, 35.0),
        PathSpec::new(EnvKind::SemiOpenCorridor, 77.0),
        PathSpec::new(EnvKind::OpenSpace, 70.0),
        PathSpec::new(EnvKind::Corridor, 90.0),
    ],
];

/// Daily path `n` (1–8) of Fig. 4, named `path<n>` and built from seed
/// `seed + n - 1` (wrapping), exactly as [`all_paths`] builds it.
///
/// # Panics
///
/// Panics unless `1 <= n <= 8`.
pub fn path(n: usize, seed: u64) -> Scenario {
    assert!((1..=PATHS.len()).contains(&n), "campus path {n} is not one of path1..path8");
    build_path(&format!("path{n}"), seed.wrapping_add(n as u64 - 1), PATHS[n - 1])
}

/// The daily path of Fig. 2: 320 m through office, semi-open corridor,
/// basement passageway, car park and open space.
pub fn daily_path(seed: u64) -> Scenario {
    path(1, seed)
}

/// All eight daily paths of Fig. 4 — 2.78 km total, 0.76 km outdoor /
/// 2.02 km indoor, matching the paper's 0.8 / 1.98 split.
pub fn all_paths(seed: u64) -> Vec<Scenario> {
    (1..=PATHS.len()).map(|n| path(n, seed)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniloc_rng::Rng;

    /// The survey-point sort is total on NaN: finite points keep their
    /// `(x, y)` order (`-0.0` equal to `0.0`), NaN coordinates sort after
    /// every number, and a NaN point is never a duplicate.
    #[test]
    fn survey_point_dedup_is_total_on_nan() {
        let nan = f64::NAN;
        let p = Point::new;
        let out = dedup_survey_points(vec![
            p(1.0, nan),
            p(2.0, 0.0),
            p(nan, 0.0),
            p(1.0, 0.0),
            p(1.1, 0.0),
            p(-0.0, 3.0),
            p(2.0, 0.1),
            p(0.0, 1.0),
            p(nan, nan),
        ]);
        let bits: Vec<(u64, u64)> = out.iter().map(|q| (q.x.to_bits(), q.y.to_bits())).collect();
        let want: Vec<(u64, u64)> = [
            p(0.0, 1.0),
            p(-0.0, 3.0),
            p(1.0, 0.0),
            p(1.0, nan),
            p(1.1, 0.0),
            p(2.0, 0.0),
            p(nan, 0.0),
            p(nan, nan),
        ]
        .iter()
        .map(|q| (q.x.to_bits(), q.y.to_bits()))
        .collect();
        assert_eq!(bits, want);
    }

    #[test]
    fn daily_path_structure() {
        let s = daily_path(1);
        assert_eq!(s.route.length(), 320.0);
        assert_eq!(s.segments.len(), 5);
        assert_eq!(s.kind_at_station(10.0), EnvKind::Office);
        assert_eq!(s.kind_at_station(100.0), EnvKind::SemiOpenCorridor);
        assert_eq!(s.kind_at_station(160.0), EnvKind::Basement);
        assert_eq!(s.kind_at_station(215.0), EnvKind::CarPark);
        assert_eq!(s.kind_at_station(300.0), EnvKind::OpenSpace);
        assert_eq!(s.outdoor_length(), 80.0);
    }

    #[test]
    fn route_runs_through_matching_zones() {
        let s = daily_path(2);
        for station in [10.0, 100.0, 160.0, 215.0, 300.0] {
            let p = s.route.point_at(station);
            assert_eq!(
                s.world.kind_at(p),
                s.kind_at_station(station),
                "zone mismatch at station {station}"
            );
        }
    }

    #[test]
    fn eight_paths_total_length() {
        let paths = all_paths(3);
        assert_eq!(paths.len(), 8);
        let total: f64 = paths.iter().map(|p| p.route.length()).sum();
        assert!((total - 2780.0).abs() < 1e-6, "total {total}");
        let outdoor: f64 = paths.iter().map(Scenario::outdoor_length).sum();
        assert!((outdoor - 756.0).abs() < 1e-6, "outdoor {outdoor}");
        // Names are unique.
        let mut names: Vec<&str> = paths.iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn path_builds_what_all_paths_builds() {
        for seed in [0, 3, 0x5eed, u64::MAX] {
            let all = all_paths(seed);
            for (i, want) in all.iter().enumerate() {
                let got = path(i + 1, seed);
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "path{} seed {seed}", i + 1);
            }
        }
        assert_eq!(format!("{:?}", daily_path(9)), format!("{:?}", path(1, 9)));
    }

    #[test]
    fn basement_has_no_wifi_but_some_cellular() {
        let s = daily_path(4);
        let mut rng = Rng::seed_from_u64(9);
        let mut memo = s.world.shadow_memo();
        let basement_point = s.route.point_at(160.0);
        assert_eq!(s.world.kind_at(basement_point), EnvKind::Basement);
        let wifi = s.world.wifi_observation(basement_point, &mut memo, &mut rng);
        assert!(wifi.len() <= 1, "basement should be WiFi-dark, heard {}", wifi.len());
        let mut heard = 0usize;
        for _ in 0..20 {
            heard += s.world.cell_observation(basement_point, &mut memo, &mut rng).len();
        }
        let avg = heard as f64 / 20.0;
        assert!((1.0..=3.5).contains(&avg), "basement cellular avg {avg}");
    }

    #[test]
    fn office_hears_several_aps() {
        let s = daily_path(5);
        let mut rng = Rng::seed_from_u64(10);
        let p = s.route.point_at(25.0);
        let n = s.world.wifi_observation(p, &mut s.world.shadow_memo(), &mut rng).len();
        assert!(n >= 3, "office heard only {n} APs");
    }

    #[test]
    fn open_space_sees_satellites() {
        let s = daily_path(6);
        let mut rng = Rng::seed_from_u64(11);
        let mut memo = s.world.shadow_memo();
        let p = s.route.point_at(300.0);
        let mut total = 0;
        for _ in 0..30 {
            total += s.world.visible_satellites(p, &mut memo, &mut rng);
        }
        assert!(total as f64 / 30.0 > 8.0);
    }

    #[test]
    fn landmarks_present_at_turns() {
        let s = daily_path(7);
        // Corner between office and corridor (station 50).
        let corner = s.route.point_at(50.0);
        assert!(s.world.floorplan().detected_landmark(corner).is_some());
        // Mid-corridor (station 100) might only have a signature at 90.
        assert!(!s.world.floorplan().landmarks().is_empty());
    }

    #[test]
    fn corridor_width_looked_up_along_route() {
        let s = daily_path(8);
        let office_width = s.world.floorplan().corridor_width_at(s.route.point_at(20.0));
        assert_eq!(office_width, Some(EnvKind::Office.default_path_width_m()));
        let open = s.world.floorplan().corridor_width_at(s.route.point_at(310.0));
        assert_eq!(open, None, "open space has no corridor");
    }

    #[test]
    fn survey_points_follow_spacing() {
        let s = build_path("tiny", 1, &[PathSpec::new(EnvKind::Office, 30.0)]);
        let coarse = s.survey_points(3.0, 12.0);
        let fine = s.survey_points(1.0, 12.0);
        assert!(fine.len() > 4 * coarse.len());
        // All points indoors for an office-only path.
        assert!(coarse.iter().all(|&p| s.world.is_indoor(p)));
    }

    #[test]
    fn walls_do_not_block_the_route() {
        let s = daily_path(9);
        // Walking along the route must never cross a wall.
        let stations = s.route.sample_stations(1.0);
        for w in stations.windows(2) {
            let a = s.route.point_at(w[0]);
            let b = s.route.point_at(w[1]);
            assert!(
                !s.world.floorplan().blocks(a, b),
                "route blocked between stations {} and {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    #[should_panic(expected = "path needs at least one segment")]
    fn empty_spec_panics() {
        build_path("empty", 1, &[]);
    }
}
