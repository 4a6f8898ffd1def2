//! Property-based tests for the simulated world, on the in-repo
//! [`uniloc_rng::check`] harness.

use uniloc_env::campus::{build_path, PathSpec};
use uniloc_env::{radio, EnvKind, SpatialNoise};
use uniloc_geom::Point;
use uniloc_rng::check::Checker;
use uniloc_rng::{require, require_eq, Rng};

/// Shared regressions file for this suite (the `.proptest-regressions`
/// successor; format `name 0xseed scale`).
const REGRESSIONS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/proptests.regressions");

fn checker(name: &str) -> Checker {
    Checker::new(name).cases(128).regressions(REGRESSIONS)
}

fn pick_kind(rng: &mut Rng) -> EnvKind {
    let all = EnvKind::ALL;
    all[rng.gen_range(0..all.len())]
}

/// Shadowing fields are deterministic and bounded for any seed/query.
#[test]
fn spatial_noise_deterministic_and_bounded() {
    checker("spatial_noise_deterministic_and_bounded").run(
        |rng, scale| {
            (
                rng.gen_range(0..10_000u64),                       // seed
                rng.gen_range(0..100u64),                          // salt
                Point::new(
                    rng.gen_range(-500.0 * scale..500.0 * scale),
                    rng.gen_range(-500.0 * scale..500.0 * scale),
                ),
                rng.gen_range(0.1..0.1 + 11.9 * scale),            // sigma
            )
        },
        |&(seed, salt, p, sigma)| {
            let f = SpatialNoise::new(seed, 4.0, sigma);
            let v1 = f.sample(salt, p);
            let v2 = f.sample(salt, p);
            require_eq!(v1, v2);
            require!(v1.is_finite());
            // Bilinear blend of ~N(0, sigma) nodes: |v| beyond 8 sigma would
            // be astronomically unlikely and indicates a scaling bug.
            require!(v1.abs() < 8.0 * sigma, "sample {v1} vs sigma {sigma}");
            Ok(())
        },
    );
}

/// The consistency conditions of `generated_paths_are_consistent`, shared
/// with the pinned regression case below.
fn check_path_consistency(
    seed: u64,
    lengths: &[f64],
    kinds: &[EnvKind],
) -> Result<(), String> {
    let specs: Vec<PathSpec> = lengths
        .iter()
        .zip(kinds)
        .map(|(&l, &k)| PathSpec::new(k, l))
        .collect();
    let total: f64 = lengths.iter().sum();
    let s = build_path("prop", seed, &specs);
    require!((s.route.length() - total).abs() < 1e-9);
    // Segments tile [0, total].
    require!((s.segments[0].start_station).abs() < 1e-9);
    for w in s.segments.windows(2) {
        require!((w[0].end_station - w[1].start_station).abs() < 1e-9);
    }
    require!((s.segments.last().unwrap().end_station - total).abs() < 1e-9);
    // The walkable route never crosses its own walls.
    let stations = s.route.sample_stations(2.0);
    for w in stations.windows(2) {
        let a = s.route.point_at(w[0]);
        let b = s.route.point_at(w[1]);
        require!(
            !s.world.floorplan().blocks(a, b),
            "route blocked between {} and {}",
            w[0],
            w[1]
        );
    }
    // Zone lookup along the route agrees with the segment labels.
    // Adjacent outdoor zones share a priority and may overlap near
    // corners, so outdoor segments are checked on the indoor/outdoor
    // split; roofed zones out-prioritize outdoor ones and must match
    // exactly.
    for seg in &s.segments {
        let mid = s.route.point_at((seg.start_station + seg.end_station) / 2.0);
        if seg.kind.is_roofed() {
            require_eq!(s.world.kind_at(mid), seg.kind);
        } else {
            require!(!s.world.is_indoor(mid));
        }
    }
    Ok(())
}

/// Any generated path scenario is internally consistent: route length
/// equals the spec sum, segments tile the route, and the route is never
/// blocked by its own walls.
#[test]
fn generated_paths_are_consistent() {
    checker("generated_paths_are_consistent").run(
        |rng, scale| {
            let n = rng.gen_range(1..5usize);
            let lengths: Vec<f64> = (0..n)
                .map(|_| rng.gen_range(30.0..30.0 + 90.0 * scale))
                .collect();
            let kinds: Vec<EnvKind> = (0..5).map(|_| pick_kind(rng)).collect();
            let seed = rng.gen_range(0..500u64);
            (seed, lengths, kinds)
        },
        |(seed, lengths, kinds)| check_path_consistency(*seed, lengths, kinds),
    );
}

/// The counterexample proptest shrank to before the migration (carried over
/// from `tests/proptests.proptest-regressions`): a five-segment path built
/// with seed 0 whose first two segments are 30 m.
#[test]
fn generated_paths_regression_seed0_five_kinds() {
    use EnvKind::{Office, OpenSpace, Road};
    check_path_consistency(
        0,
        &[30.0, 30.0],
        &[OpenSpace, Road, Office, Office, Office],
    )
    .unwrap();
}

/// Observations respect receiver floors for arbitrary query points.
#[test]
fn observations_respect_floors() {
    checker("observations_respect_floors").run(
        |rng, scale| {
            (
                Point::new(
                    175.0 + (rng.gen_range(-50.0..400.0) - 175.0) * scale,
                    35.0 + (rng.gen_range(-50.0..120.0) - 35.0) * scale,
                ),
                rng.gen_range(0..100u64),
            )
        },
        |&(p, rng_seed)| {
            let s = build_path(
                "floors",
                7,
                &[
                    PathSpec::new(EnvKind::Office, 60.0),
                    PathSpec::new(EnvKind::OpenSpace, 60.0),
                ],
            );
            let mut rng = Rng::seed_from_u64(rng_seed);
            let mut memo = s.world.shadow_memo();
            for (_, rss) in s.world.wifi_observation(p, &mut memo, &mut rng) {
                require!(rss >= radio::WIFI_FLOOR_DBM);
                require!(rss < 30.0, "implausibly strong WiFi: {rss}");
            }
            for (_, rss) in s.world.cell_observation(p, &mut memo, &mut rng) {
                require!(rss >= radio::CELL_FLOOR_DBM);
                require!(rss < 0.0, "implausibly strong cellular: {rss}");
            }
            let sats = s.world.visible_satellites(p, &mut memo, &mut rng);
            require!(sats <= 14);
            require!(s.world.ambient_light(p, &mut rng) >= 0.0);
            let sky = s.world.sky_view(p, &mut memo);
            require!((0.0..=1.0).contains(&sky));
            Ok(())
        },
    );
}
