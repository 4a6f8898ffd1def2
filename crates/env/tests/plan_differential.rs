//! Differential equivalence suite: a survey on a shared [`SurveyPlan`] IS
//! the point-by-point survey it replaces.
//!
//! A plan holds the seed-independent half of a survey (the points, their
//! zone kinds, every transmitter's mean RSS), so that one plan per venue
//! can serve walkers built at any seed. Every fleet fingerprint depends on
//! the plan path returning exactly what [`World::wifi_observation`] and
//! [`World::cell_observation`] return, so this suite drives both paths with
//! adversarial random inputs and asserts bit-level equality:
//!
//! * random [`build_path`] worlds mixing roofed and open segments, the plan
//!   laid by the same venue built at another seed, and survey points along
//!   and around the path, exactly on shadowing-lattice lines, outside the
//!   bounds, at ±1e12 m, at ±inf and at NaN: the WiFi survey, then the
//!   cellular survey, against one observation per point in the same order
//!   from the same RNG seed, equal on `f64::to_bits` and leaving the RNG in
//!   the same state;
//! * [`Scenario::survey_plan`] at random spacings against the points of
//!   [`Scenario::survey_points`];
//! * ownership: a world with one zone, wall, AP or tower more, or one
//!   transmitter moved, refuses the plan, and a plan at other spacings
//!   fails [`Scenario::assert_plan`]; both panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use uniloc_env::campus::{build_path, PathSpec};
use uniloc_env::{EnvKind, Scenario, SurveyPlan, World, WorldBuilder};
use uniloc_geom::{FloorPlan, Point, Rect};
use uniloc_rng::check::Checker;
use uniloc_rng::Rng;

const REGRESSIONS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/plan_differential.regressions"
);

/// One coordinate: usually near the path, sometimes on a 4 m or 22 m
/// lattice line, far outside, infinite or NaN.
fn gen_coord(rng: &mut Rng, lo: f64, hi: f64) -> f64 {
    match rng.gen_range(0..20u32) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 1e12,
        4 => -1e12,
        5 => -0.0,
        6..=8 => {
            let cell = if rng.gen_bool(0.5) { 4.0 } else { 22.0 };
            rng.gen_range((lo / cell) as i64 - 2..(hi / cell) as i64 + 3) as f64 * cell
        }
        9 | 10 => rng.gen_range(-5000.0..5000.0),
        _ => rng.gen_range(lo - 30.0..hi + 30.0),
    }
}

fn gen_specs(rng: &mut Rng) -> Vec<PathSpec> {
    let kinds = EnvKind::ALL;
    (0..rng.gen_range(1..4usize))
        .map(|_| PathSpec::new(kinds[rng.gen_range(0..kinds.len())], rng.gen_range(30.0..90.0)))
        .collect()
}

/// A plan case: a path venue, the seed of the world that surveys and the
/// seed of the world that lays the plan, an RNG seed and survey points.
#[derive(Debug)]
struct PlanCase {
    specs: Vec<PathSpec>,
    seed: u64,
    plan_seed: u64,
    rng_seed: u64,
    points: Vec<Point>,
}

fn gen_plan_case(rng: &mut Rng, scale: f64) -> PlanCase {
    let specs = gen_specs(rng);
    let points = (0..rng.gen_range(0..(4.0 + 80.0 * scale) as usize))
        .map(|_| Point::new(gen_coord(rng, -20.0, 300.0), gen_coord(rng, -20.0, 120.0)))
        .collect();
    PlanCase {
        specs,
        seed: rng.next_u64(),
        plan_seed: rng.next_u64(),
        rng_seed: rng.next_u64(),
        points,
    }
}

/// A scan list as bits: `(id, RSS bits)` per reading, scan by scan.
fn bits<Id: Copy>(scans: &[Vec<(Id, f64)>], id: impl Fn(Id) -> u32) -> Vec<Vec<(u32, u64)>> {
    scans
        .iter()
        .map(|scan| scan.iter().map(|&(i, rss)| (id(i), rss.to_bits())).collect())
        .collect()
}

/// The plan path (WiFi survey, then cellular survey) against one
/// observation per point in the same order, from the same RNG seed.
fn check_surveys(world: &World, plan: &SurveyPlan, rng_seed: u64) -> Result<(), String> {
    let points = plan.points();
    let mut rng = Rng::seed_from_u64(rng_seed);
    let mut memo = world.shadow_memo();
    let wifi: Vec<_> =
        points.iter().map(|&p| world.wifi_observation(p, &mut memo, &mut rng)).collect();
    let cell: Vec<_> =
        points.iter().map(|&p| world.cell_observation(p, &mut memo, &mut rng)).collect();

    let mut plan_rng = Rng::seed_from_u64(rng_seed);
    let mut plan_memo = world.shadow_memo();
    let plan_wifi = world.wifi_survey(plan, &mut plan_memo, &mut plan_rng);
    let plan_cell = world.cell_survey(plan, &mut plan_memo, &mut plan_rng);

    let radios = [
        ("WiFi", bits(&wifi, |id| id.0), bits(&plan_wifi, |id| id.0)),
        ("cell", bits(&cell, |id| id.0), bits(&plan_cell, |id| id.0)),
    ];
    for (radio, want, got) in radios {
        let n = want.len().max(got.len());
        if let Some(i) = (0..n).find(|&i| want.get(i) != got.get(i)) {
            let p = points.get(i);
            return Err(format!("{radio} at {p:?}: {:?} vs plan {:?}", want.get(i), got.get(i)));
        }
    }
    uniloc_rng::require!(rng == plan_rng, "the plan path left the RNG in another state");
    Ok(())
}

/// Surveys on a plan laid by the same venue at another seed equal the
/// point-by-point observations, bit for bit and draw for draw.
#[test]
fn plan_survey_equals_point_observations() {
    Checker::new("plan_survey_equals_point_observations")
        .cases(96)
        .regressions(REGRESSIONS)
        .run(gen_plan_case, |case| {
            let world = build_path("plan", case.seed, &case.specs).world;
            let planner = build_path("plan", case.plan_seed, &case.specs).world;
            let plan = planner.survey_plan(case.points.clone());
            uniloc_rng::require!(world.owns_plan(&plan), "a reseeded venue must own the plan");
            check_surveys(&world, &plan, case.rng_seed)
        });
}

/// A scenario's plan lays exactly its survey points and surveys them as
/// the points would be, at any positive spacings.
#[test]
fn scenario_plan_equals_its_survey_points() {
    Checker::new("scenario_plan_equals_its_survey_points")
        .cases(24)
        .regressions(REGRESSIONS)
        .run(
            |rng, _| {
                let specs = gen_specs(rng);
                let spacings = (rng.gen_range(0.7..6.0), rng.gen_range(4.0..25.0));
                (specs, spacings, rng.next_u64(), rng.next_u64())
            },
            |(specs, (indoor, outdoor), seed, rng_seed)| {
                let scenario = build_path("plan", *seed, specs);
                let plan = scenario.survey_plan(*indoor, *outdoor);
                let points = scenario.survey_points(*indoor, *outdoor);
                let bits = |p: &Point| [p.x.to_bits(), p.y.to_bits()];
                uniloc_rng::require!(
                    plan.points().iter().map(bits).eq(points.iter().map(bits)),
                    "plan points differ from the survey points"
                );
                scenario.assert_plan(&plan, *indoor, *outdoor);
                check_surveys(&scenario.world, &plan, *rng_seed)
            },
        );
}

/// The panic message of `f`, if it panicked.
fn panic_message(f: impl FnOnce()) -> Option<String> {
    let err = catch_unwind(AssertUnwindSafe(f)).err()?;
    Some(match err.downcast::<&str>() {
        Ok(s) => (*s).to_owned(),
        Err(err) => *err.downcast::<String>().unwrap_or_default(),
    })
}

/// A small venue, with one change per `variant` (0 is the base).
fn venue(variant: u32, seed: u64) -> World {
    let office = Rect::new(Point::new(0.0, 0.0), Point::new(30.0, 10.0)).unwrap();
    let mut plan = FloorPlan::new();
    plan.add_wall(Point::new(10.0, -5.0), Point::new(10.0, 5.0));
    if variant == 1 {
        plan.add_wall(Point::new(20.0, -5.0), Point::new(20.0, 5.0));
    }
    let mut builder = WorldBuilder::new("venue", seed)
        .zone_rect("office", EnvKind::Office, office, 1)
        .floorplan(plan)
        .access_point(Point::new(5.0, 5.0))
        .access_point(Point::new(if variant == 2 { 26.0 } else { 25.0 }, 5.0))
        .cell_tower(Point::new(250.0, if variant == 3 { 151.0 } else { 150.0 }));
    if variant == 4 {
        let hall = Rect::new(Point::new(30.0, 0.0), Point::new(60.0, 10.0)).unwrap();
        builder = builder.zone_rect("hall", EnvKind::Basement, hall, 1);
    }
    if variant == 5 {
        builder = builder.access_point(Point::new(15.0, 8.0));
    }
    if variant == 6 {
        builder = builder.cell_tower(Point::new(-400.0, 200.0));
    }
    builder.build()
}

/// A world that differs in any zone, wall, AP or tower refuses the plan,
/// and its surveys panic; the same venue at any seed owns it.
#[test]
fn a_plan_from_another_world_panics() {
    let points = vec![Point::new(3.0, 4.0), Point::new(12.0, 6.0), Point::new(40.0, 5.0)];
    let plan = venue(0, 1).survey_plan(points);
    for seed in [2, 0x5eed, u64::MAX] {
        assert!(venue(0, seed).owns_plan(&plan), "seed {seed}");
        check_surveys(&venue(0, seed), &plan, seed).unwrap();
    }
    for variant in 1..=6 {
        let other = venue(variant, 1);
        assert!(!other.owns_plan(&plan), "variant {variant} owns the base plan");
        let mut memo = other.shadow_memo();
        let mut rng = Rng::seed_from_u64(3);
        let wifi = panic_message(|| {
            other.wifi_survey(&plan, &mut memo, &mut rng);
        });
        assert_eq!(wifi.as_deref(), Some("survey plan from another world"), "variant {variant}");
        let cell = panic_message(|| {
            other.cell_survey(&plan, &mut memo, &mut rng);
        });
        assert_eq!(cell.as_deref(), Some("survey plan from another world"), "variant {variant}");
    }
}

/// A plan laid at other spacings, or over given points, fails
/// [`Scenario::assert_plan`]; the venue at another seed passes it.
#[test]
fn a_plan_at_other_spacings_panics() {
    let specs = [PathSpec::new(EnvKind::Office, 40.0), PathSpec::new(EnvKind::OpenSpace, 60.0)];
    let scenario: Scenario = build_path("spacings", 7, &specs);
    let plan = scenario.survey_plan(1.5, 12.0);
    build_path("spacings", 8, &specs).assert_plan(&plan, 1.5, 12.0);
    for (indoor, outdoor) in [(2.0, 12.0), (1.5, 11.0), (1.5 + f64::EPSILON, 12.0)] {
        let msg = panic_message(|| scenario.assert_plan(&plan, indoor, outdoor));
        assert_eq!(msg.as_deref(), Some("survey plan at other spacings"), "{indoor}/{outdoor}");
    }
    let given = scenario.world.survey_plan(scenario.survey_points(1.5, 12.0));
    let msg = panic_message(|| scenario.assert_plan(&given, 1.5, 12.0));
    assert_eq!(msg.as_deref(), Some("survey plan at other spacings"));
    let office = build_path("spacings", 7, &specs[..1]);
    let msg = panic_message(|| office.assert_plan(&plan, 1.5, 12.0));
    assert_eq!(msg.as_deref(), Some("survey plan from another world"));
}
