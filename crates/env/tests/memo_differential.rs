//! Differential equivalence suite: the shadowing-lattice memo IS the
//! field it memoizes.
//!
//! [`NoiseMemo`] and the [`uniloc_env::ShadowMemo`] a sensor hub owns are
//! pure accelerators: they change how often a lattice node is hashed, never
//! a value. Every survey fingerprint, every synthesized frame and with
//! them every fleet digest depend on that being exactly true, so this
//! suite drives the memo and its reference with adversarial random inputs
//! and asserts bit-level equality:
//!
//! * a memo-routed sample against [`SpatialNoise::sample`], for random
//!   seeds, sigmas, salts, both cell sizes the worlds use (4 m and 22 m)
//!   and random memo rectangles: points inside the rectangle, negative
//!   coordinates, points exactly on lattice lines, points outside the
//!   rectangle (up to ±1e12 m, and past the range where `floor() as i64`
//!   saturates), ±inf and NaN coordinates, and repeated queries once a
//!   node is filled;
//! * at [`World`] level, a sequence of WiFi, cellular, sky-view and
//!   satellite queries through one warm memo against the same sequence
//!   with a fresh memo per call, from the same RNG seed.
//!
//! Equality is asserted on `f64::to_bits`, not `==`: a NaN sample must
//! match a NaN sample, and `-0.0` must not pass for `0.0`.

use uniloc_env::campus::{build_path, PathSpec};
use uniloc_env::noise::{NoiseMemo, SpatialNoise};
use uniloc_env::{EnvKind, World};
use uniloc_geom::{Point, Rect};
use uniloc_rng::check::Checker;
use uniloc_rng::Rng;

const REGRESSIONS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/memo_differential.regressions"
);

fn checker(name: &str) -> Checker {
    Checker::new(name).cases(128).regressions(REGRESSIONS)
}

/// The two lattice cells the worlds use: room-scale WiFi shadowing and
/// block-scale macro-cell shadowing.
const CELLS: [f64; 2] = [4.0, 22.0];

/// One coordinate: usually near the memo rectangle, sometimes on a lattice
/// line, far outside, saturating `floor() as i64`, infinite or NaN.
fn gen_coord(rng: &mut Rng, lo: f64, hi: f64, cell: f64) -> f64 {
    match rng.gen_range(0..24u32) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 1e12,
        4 => -1e12,
        5 => 1e300,
        6 => -0.0,
        // Exactly on a lattice line, inside or just around the rectangle.
        7..=10 => (rng.gen_range((lo / cell) as i64 - 2..(hi / cell) as i64 + 3) as f64) * cell,
        // Far outside the rectangle on either side.
        11 | 12 => rng.gen_range(-5000.0..5000.0),
        _ => rng.gen_range(lo - 2.0 * cell..hi + 2.0 * cell),
    }
}

/// A memo case: a field, its salts, the memo rectangle and a query
/// sequence of `(stream, point)` that revisits earlier points.
#[derive(Debug)]
struct NoiseCase {
    field: SpatialNoise,
    salts: Vec<u64>,
    area: Rect,
    queries: Vec<(usize, Point)>,
}

fn gen_noise_case(rng: &mut Rng, scale: f64) -> NoiseCase {
    let cell = CELLS[rng.gen_range(0..CELLS.len())];
    let field = SpatialNoise::new(rng.next_u64(), cell, rng.gen_range(0.0..12.0));
    let salts: Vec<u64> = (0..rng.gen_range(1..5usize))
        .map(|_| rng.next_u64())
        .collect();
    // Rectangles anywhere, often straddling the origin, sometimes thin.
    let x = rng.gen_range(-300.0..300.0);
    let y = rng.gen_range(-300.0..300.0);
    let w = rng.gen_range(0.0..400.0 * scale);
    let h = rng.gen_range(0.0..400.0 * scale);
    let area = Rect::new(Point::new(x, y), Point::new(x + w, y + h)).expect("finite rectangle");
    let mut queries: Vec<(usize, Point)> = Vec::new();
    for _ in 0..rng.gen_range(1..(8.0 + 120.0 * scale) as usize) {
        if !queries.is_empty() && rng.gen_range(0..4u32) == 0 {
            // A repeat: the node is filled by now.
            let q = queries[rng.gen_range(0..queries.len())];
            queries.push(q);
            continue;
        }
        let p = Point::new(
            gen_coord(rng, x, x + w, cell),
            gen_coord(rng, y, y + h, cell),
        );
        queries.push((rng.gen_range(0..salts.len()), p));
    }
    NoiseCase {
        field,
        salts,
        area,
        queries,
    }
}

/// Every memo-routed sample equals the field's own sample, bit for bit,
/// whether the node was a miss, a first fill or a hit.
#[test]
fn memo_sample_equals_field_sample() {
    checker("memo_sample_equals_field_sample").run(gen_noise_case, |case| {
        let mut memo = NoiseMemo::new(case.field, case.salts.clone(), case.area);
        for (i, &(stream, p)) in case.queries.iter().enumerate() {
            let got = memo.sample(stream, p);
            let want = case.field.sample(case.salts[stream], p);
            if got.to_bits() != want.to_bits() {
                return Err(format!(
                    "query {i} (stream {stream}, {p:?}): memo {got} vs field {want}"
                ));
            }
        }
        Ok(())
    });
}

/// One world-level query.
#[derive(Debug, Clone, Copy)]
enum Query {
    Wifi(Point),
    Cell(Point),
    Sky(Point),
    Satellites(Point),
}

/// A world case: a path scenario mixing roofed and open segments (so both
/// fields are read) and a query sequence along, around and far off it.
#[derive(Debug)]
struct WorldCase {
    seed: u64,
    specs: Vec<PathSpec>,
    rng_seed: u64,
    queries: Vec<Query>,
}

fn gen_world_case(rng: &mut Rng, scale: f64) -> WorldCase {
    let kinds = EnvKind::ALL;
    let specs: Vec<PathSpec> = (0..rng.gen_range(1..4usize))
        .map(|_| {
            PathSpec::new(
                kinds[rng.gen_range(0..kinds.len())],
                rng.gen_range(30.0..90.0),
            )
        })
        .collect();
    let mut queries: Vec<Query> = Vec::new();
    for _ in 0..rng.gen_range(1..(4.0 + 60.0 * scale) as usize) {
        if !queries.is_empty() && rng.gen_range(0..4u32) == 0 {
            let q = queries[rng.gen_range(0..queries.len())];
            queries.push(q);
            continue;
        }
        let p = Point::new(
            gen_coord(rng, -20.0, 300.0, 4.0),
            gen_coord(rng, -20.0, 120.0, 4.0),
        );
        queries.push(match rng.gen_range(0..4u32) {
            0 => Query::Wifi(p),
            1 => Query::Cell(p),
            2 => Query::Sky(p),
            _ => Query::Satellites(p),
        });
    }
    WorldCase {
        seed: rng.gen_range(0..1000u64),
        specs,
        rng_seed: rng.next_u64(),
        queries,
    }
}

/// Runs the queries, drawing a memo per call from `memo`, and renders each
/// answer as bits.
fn run_queries(
    world: &World,
    queries: &[Query],
    rng_seed: u64,
    mut memo: impl FnMut() -> Option<uniloc_env::ShadowMemo>,
) -> Vec<Vec<u64>> {
    let mut rng = Rng::seed_from_u64(rng_seed);
    let mut warm = world.shadow_memo();
    queries
        .iter()
        .map(|q| {
            let mut fresh = memo();
            let m = fresh.as_mut().unwrap_or(&mut warm);
            match *q {
                Query::Wifi(p) => world
                    .wifi_observation(p, m, &mut rng)
                    .into_iter()
                    .flat_map(|(id, rss)| [u64::from(id.0), rss.to_bits()])
                    .collect(),
                Query::Cell(p) => world
                    .cell_observation(p, m, &mut rng)
                    .into_iter()
                    .flat_map(|(id, rss)| [u64::from(id.0), rss.to_bits()])
                    .collect(),
                Query::Sky(p) => vec![world.sky_view(p, m).to_bits()],
                Query::Satellites(p) => vec![u64::from(world.visible_satellites(p, m, &mut rng))],
            }
        })
        .collect()
}

/// A sequence of scans through one warm memo equals the same sequence
/// with a fresh memo per call, from the same RNG seed.
#[test]
fn warm_world_memo_equals_fresh_memo_per_call() {
    Checker::new("warm_world_memo_equals_fresh_memo_per_call")
        .cases(48)
        .regressions(REGRESSIONS)
        .run(gen_world_case, |case| {
            let scenario = build_path("memo", case.seed, &case.specs);
            let world = &scenario.world;
            let warm = run_queries(world, &case.queries, case.rng_seed, || None);
            let fresh = run_queries(world, &case.queries, case.rng_seed, || {
                Some(world.shadow_memo())
            });
            for (i, (a, b)) in warm.iter().zip(&fresh).enumerate() {
                if a != b {
                    return Err(format!(
                        "query {i} {:?}: warm {a:?} vs fresh {b:?}",
                        case.queries[i]
                    ));
                }
            }
            Ok(())
        });
}
