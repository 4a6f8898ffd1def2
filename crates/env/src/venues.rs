//! The urban venues of Section V: the training office and open space (where
//! Table II's error models are learned), a shopping-mall floor and an urban
//! open space (where 89% of the experiments run, in places the models never
//! saw).

use crate::campus::{Scenario, SegmentInfo};
use crate::world::WorldBuilder;
use crate::zone::EnvKind;
use uniloc_geom::{Corridor, FloorPlan, Landmark, LandmarkKind, Point, Polyline, Rect};

/// Builds a rectangular indoor venue with a serpentine route.
///
/// `rows` lanes run the long way across the floor, connected at alternating
/// ends — the standard way to survey a floor on foot.
fn serpentine(width: f64, height: f64, rows: usize, inset: f64, phase: f64) -> Polyline {
    assert!(rows >= 2, "serpentine needs at least two rows");
    let mut pts = Vec::new();
    let dy = (height - 2.0 * inset) / (rows - 1) as f64;
    for r in 0..rows {
        let y = inset + r as f64 * dy;
        let (x0, x1) = if r % 2 == 0 { (inset + phase, width - inset) } else { (width - inset, inset + phase) };
        pts.push(Point::new(x0, y));
        pts.push(Point::new(x1, y));
    }
    Polyline::new(pts).expect("serpentine vertices are valid")
}

/// Common tower ring shared by the urban venues.
fn with_towers(builder: WorldBuilder) -> WorldBuilder {
    [
        Point::new(230.0, 160.0),
        Point::new(-250.0, 140.0),
        Point::new(520.0, -380.0),
        Point::new(-480.0, -420.0),
        Point::new(700.0, 280.0),
    ]
    .into_iter()
    .fold(builder, |b, t| b.cell_tower(t))
}

/// An office floor of `width x height` meters with corridor lanes of
/// *alternating physical widths* (narrow 2 m corridors and 5 m open-plan
/// aisles, both of which real offices have), walls at the lane edges,
/// landmarks and dense APs. The width variation matters: the motion/fusion
/// error models include corridor width (`beta_2`), and a single-width
/// training floor would leave that coefficient unidentifiable.
///
/// This is the venue family used both for error-model training (the
/// paper's 56 x 20 m^2 office) and for the "another office" new-place
/// tests.
pub fn office(name: &str, seed: u64, width: f64, height: f64) -> Scenario {
    const NARROW: f64 = 2.0;
    const WIDE: f64 = 5.0;
    // Lay lanes bottom-up with alternating widths until the floor is full.
    let mut lanes: Vec<(f64, f64)> = Vec::new(); // (center y, lane width)
    let mut y = 3.0;
    let mut idx = 0usize;
    loop {
        let w = if idx.is_multiple_of(2) { NARROW } else { WIDE };
        if y + w / 2.0 > height - 1.0 {
            break;
        }
        lanes.push((y, w));
        let next_w = if idx.is_multiple_of(2) { WIDE } else { NARROW };
        y += w / 2.0 + next_w / 2.0 + 0.8;
        idx += 1;
    }
    assert!(lanes.len() >= 2, "office too small for a serpentine survey");

    let mut plan = FloorPlan::new();
    let mut route_pts = Vec::new();
    for (r, &(y, w)) in lanes.iter().enumerate() {
        let (x0, x1) = if r % 2 == 0 { (3.0, width - 3.0) } else { (width - 3.0, 3.0) };
        route_pts.push(Point::new(x0, y));
        route_pts.push(Point::new(x1, y));
        let lane = Polyline::new(vec![Point::new(3.0, y), Point::new(width - 3.0, y)])
            .expect("lane has positive length");
        plan.add_corridor(Corridor::new(lane, w).expect("positive lane width"));
        // Walls at the lane edges, with gaps at both ends for turns.
        plan.add_wall(Point::new(6.0, y - w / 2.0), Point::new(width - 6.0, y - w / 2.0));
        plan.add_wall(Point::new(6.0, y + w / 2.0), Point::new(width - 6.0, y + w / 2.0));
        // Turn landmarks at lane ends.
        for x in [3.0, width - 3.0] {
            plan.add_landmark(
                Landmark::new(LandmarkKind::Turn, Point::new(x, y), 1.5)
                    .expect("positive radius"),
            );
        }
        // Door signatures along the lane (sparse: only distinctive doors
        // make usable landmarks).
        let mut x = 18.0;
        while x < width - 10.0 {
            plan.add_landmark(
                Landmark::new(LandmarkKind::Door, Point::new(x, y), 1.5)
                    .expect("positive radius"),
            );
            x += 30.0;
        }
    }
    let route = Polyline::new(route_pts).expect("serpentine vertices are valid");
    let rect = Rect::new(Point::new(0.0, 0.0), Point::new(width, height))
        .expect("finite venue corners");
    let mut builder = WorldBuilder::new(name, seed)
        .zone_rect(name, EnvKind::Office, rect, 10)
        .floorplan(plan);
    // APs on a ~15 m grid.
    for p in rect.grid(15.0) {
        builder = builder.access_point(p);
    }
    let world = with_towers(builder).build();
    let len = route.length();
    Scenario {
        name: name.to_owned(),
        world,
        route,
        segments: vec![SegmentInfo { start_station: 0.0, end_station: len, kind: EnvKind::Office }],
    }
}

/// The paper's training office: 56 x 20 m^2.
pub fn training_office(seed: u64) -> Scenario {
    office("training-office", seed, 56.0, 20.0)
}

/// The shopping-mall floor (95 x 27 m^2, at basement level so only ~2 cell
/// towers are audible). Returns `variants` scenarios sharing the same floor
/// but walking different ~300 m trajectories, mirroring the paper's "10
/// different 300-m trajectories".
pub fn shopping_mall(seed: u64, variants: usize) -> Vec<Scenario> {
    let (width, height) = (95.0, 27.0);
    let rect = Rect::new(Point::new(0.0, 0.0), Point::new(width, height))
        .expect("finite venue corners");
    let mut plan = FloorPlan::new();
    let aisle_width = EnvKind::MallFloor.default_path_width_m();
    // Three aisles with storefront walls between them.
    for (i, y) in [4.5, 13.5, 22.5].into_iter().enumerate() {
        let aisle = Polyline::new(vec![Point::new(3.0, y), Point::new(width - 3.0, y)])
            .expect("aisle has positive length");
        plan.add_corridor(Corridor::new(aisle, aisle_width).expect("positive aisle width"));
        if i < 2 {
            let wy = y + 4.5;
            plan.add_wall(Point::new(7.0, wy), Point::new(width - 7.0, wy));
        }
        for x in [3.0, width - 3.0] {
            plan.add_landmark(
                Landmark::new(LandmarkKind::Turn, Point::new(x, y), 1.5)
                    .expect("positive radius"),
            );
        }
        // A few distinctive shop entrances act as door landmarks.
        let mut x = 18.0;
        while x < width - 10.0 {
            plan.add_landmark(
                Landmark::new(LandmarkKind::Door, Point::new(x, y), 1.5)
                    .expect("positive radius"),
            );
            x += 32.0;
        }
    }
    let mut builder = WorldBuilder::new("shopping-mall", seed)
        .zone_rect("mall-floor", EnvKind::MallFloor, rect, 10)
        .floorplan(plan);
    for p in rect.grid(18.0) {
        builder = builder.access_point(p);
    }
    let world = with_towers(builder).build();

    (0..variants.max(1))
        .map(|i| {
            let phase = (i % 5) as f64 * 2.0;
            let mut route = serpentine(width, height, 3, 4.5, phase);
            if i % 2 == 1 {
                route = route.reversed();
            }
            let len = route.length();
            Scenario {
                name: format!("mall-t{i}"),
                world: world.clone(),
                route,
                segments: vec![SegmentInfo {
                    start_station: 0.0,
                    end_station: len,
                    kind: EnvKind::MallFloor,
                }],
            }
        })
        .collect()
}

/// An urban open space. Fingerprints are 12 m apart out here, GPS sees the
/// whole sky, and there are no corridors to constrain PDR.
pub fn open_space(name: &str, seed: u64, width: f64, height: f64, variants: usize) -> Vec<Scenario> {
    let rect = Rect::new(Point::new(0.0, 0.0), Point::new(width, height))
        .expect("finite venue corners");
    let mut plan = FloorPlan::new();
    // A few scattered signatures (building corners, statues) — sparse, as
    // the paper notes it is "hard to find sufficient signatures outdoors".
    plan.add_landmark(
        Landmark::new(LandmarkKind::Signature, Point::new(width * 0.2, height * 0.3), 2.0)
            .expect("positive radius"),
    );
    plan.add_landmark(
        Landmark::new(LandmarkKind::Signature, Point::new(width * 0.75, height * 0.7), 2.0)
            .expect("positive radius"),
    );
    let mut builder = WorldBuilder::new(name, seed)
        .zone_rect(name, EnvKind::OpenSpace, rect, 1)
        .floorplan(plan);
    // Sparse APs at the space's edges (from surrounding buildings).
    for p in [
        Point::new(2.0, 2.0),
        Point::new(width - 2.0, 2.0),
        Point::new(2.0, height - 2.0),
        Point::new(width - 2.0, height - 2.0),
        Point::new(width / 2.0, -3.0),
    ] {
        builder = builder.access_point(p);
    }
    let world = with_towers(builder).build();

    (0..variants.max(1))
        .map(|i| {
            let rows = 3 + (i % 2);
            let phase = (i % 4) as f64 * 3.0;
            let mut route = serpentine(width, height, rows, 6.0, phase);
            if i % 2 == 1 {
                route = route.reversed();
            }
            let len = route.length();
            Scenario {
                name: format!("{name}-t{i}"),
                world: world.clone(),
                route,
                segments: vec![SegmentInfo {
                    start_station: 0.0,
                    end_station: len,
                    kind: EnvKind::OpenSpace,
                }],
            }
        })
        .collect()
}

/// The training open space used alongside the training office for learning
/// Table II's outdoor coefficients.
///
/// Deviation from the paper's ~1000 m^2 rectangle: the training walk is a
/// one-directional 260 m outdoor path with a single mid-way turn. PDR drift
/// (heading bias, gait-scale error) largely *cancels* on back-and-forth
/// serpentine surveys, which would train the outdoor
/// distance-from-landmark coefficient (beta_1) to ~0; the evaluation paths
/// are one-directional, so the training walk must be too.
pub fn training_open_space(seed: u64) -> Scenario {
    crate::campus::build_path(
        "training-open-space",
        seed,
        &[
            crate::campus::PathSpec::new(EnvKind::OpenSpace, 150.0),
            crate::campus::PathSpec::new(EnvKind::OpenSpace, 110.0),
        ],
    )
}

/// The evaluation urban open space of Fig. 8b.
pub fn urban_open_space(seed: u64, variants: usize) -> Vec<Scenario> {
    open_space("urban-open-space", seed, 95.0, 60.0, variants)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniloc_rng::Rng;

    #[test]
    fn training_office_dimensions() {
        let s = training_office(1);
        let bb = s.world.zones()[0].polygon().bounding_rect();
        assert_eq!(bb.width(), 56.0);
        assert_eq!(bb.height(), 20.0);
        assert!(s.route.length() > 150.0, "route long enough to survey the floor");
        assert!(s.world.is_indoor(Point::new(10.0, 10.0)));
    }

    #[test]
    fn office_route_stays_inside() {
        let s = training_office(2);
        for station in s.route.sample_stations(2.0) {
            let p = s.route.point_at(station);
            assert!(
                s.world.zones()[0].contains(p),
                "route leaves the office at station {station} ({p})"
            );
        }
    }

    #[test]
    fn office_route_not_blocked_by_walls() {
        let s = training_office(3);
        let stations = s.route.sample_stations(1.0);
        for w in stations.windows(2) {
            let a = s.route.point_at(w[0]);
            let b = s.route.point_at(w[1]);
            assert!(!s.world.floorplan().blocks(a, b), "blocked at {}..{}", w[0], w[1]);
        }
    }

    #[test]
    fn mall_variants_share_world() {
        let malls = shopping_mall(4, 10);
        assert_eq!(malls.len(), 10);
        for m in &malls {
            assert!((m.route.length() - 300.0).abs() < 80.0, "length {}", m.route.length());
            assert_eq!(m.world.name(), "shopping-mall");
        }
        // Different variants walk different routes.
        assert_ne!(malls[0].route, malls[1].route);
    }

    #[test]
    fn mall_hears_few_towers() {
        let malls = shopping_mall(5, 1);
        let mut rng = Rng::seed_from_u64(3);
        let mut memo = malls[0].world.shadow_memo();
        let p = malls[0].route.point_at(50.0);
        let mut heard = 0usize;
        for _ in 0..20 {
            heard += malls[0].world.cell_observation(p, &mut memo, &mut rng).len();
        }
        let avg = heard as f64 / 20.0;
        assert!((1.0..=3.5).contains(&avg), "mall cellular avg {avg}");
    }

    #[test]
    fn mall_has_wifi() {
        let malls = shopping_mall(6, 1);
        let mut rng = Rng::seed_from_u64(4);
        let p = malls[0].route.point_at(100.0);
        let mut memo = malls[0].world.shadow_memo();
        assert!(malls[0].world.wifi_observation(p, &mut memo, &mut rng).len() >= 3);
    }

    #[test]
    fn open_space_is_outdoor_with_sky() {
        let spaces = urban_open_space(7, 10);
        assert_eq!(spaces.len(), 10);
        let s = &spaces[0];
        let mut rng = Rng::seed_from_u64(5);
        let mut memo = s.world.shadow_memo();
        let p = s.route.point_at(30.0);
        assert!(!s.world.is_indoor(p));
        let mut sats = 0;
        for _ in 0..20 {
            sats += s.world.visible_satellites(p, &mut memo, &mut rng);
        }
        assert!(sats as f64 / 20.0 > 8.0);
        // No corridors outdoors.
        assert_eq!(s.world.floorplan().corridor_width_at(p), None);
    }

    #[test]
    fn training_open_space_is_one_directional_outdoor() {
        let s = training_open_space(8);
        assert_eq!(s.route.length(), 260.0);
        assert_eq!(s.outdoor_length(), 260.0);
        // Long unlandmarked straights so drift accumulation is observable
        // during training.
        let longest = s
            .route
            .segments()
            .map(|seg| seg.length())
            .fold(0.0f64, f64::max);
        assert!(longest > 100.0, "longest straight {longest}");
    }

    #[test]
    fn serpentine_length_scales_with_rows() {
        let three = serpentine(95.0, 27.0, 3, 4.5, 0.0);
        let four = serpentine(95.0, 27.0, 4, 4.5, 0.0);
        assert!(four.length() > three.length());
    }
}
