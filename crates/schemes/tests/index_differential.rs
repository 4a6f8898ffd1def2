//! Differential equivalence suite: the fingerprint kernels ARE their
//! retained references.
//!
//! The kernels behind [`FingerprintDb::match_scan`],
//! [`FingerprintDb::local_density`], [`FingerprintDb::hears_any`] and
//! [`SpatialGrid::nearest`] are pure accelerators: slab top-k selection,
//! a nearest-neighbour table, a sorted heard-id list and a dense CSR grid
//! change how much work is done, never what comes out. The whole pipeline
//! (golden traces, chaos artifacts, the fleet differential harness)
//! depends on that being exactly true, so this suite drives each kernel
//! and its reference with adversarial random inputs and asserts bit-level
//! equality:
//!
//! * matching against `match_scan_linear`: random databases × random
//!   scans × random `k`; empty scans, scans over a disjoint AP universe,
//!   duplicated survey positions and duplicated fingerprints (distance
//!   ties), `k = 0`, `k > len`;
//!   non-finite RSSIs (NaN, ±inf) in the online scan and in the stored
//!   fingerprints — both paths must rank them identically via `total_cmp`
//!   tie-breaking, not panic; build determinism and scratch reuse;
//! * density against `local_density_linear`: duplicate positions, points
//!   exactly on the radius, radius 0, NaN and ∞ radii and coordinates, a
//!   NaN query point, and fewer than 2 and fewer than 40 points in range;
//! * the grid against the `HashMap` grid it replaced, kept below as a
//!   reference: equidistant ties, far and non-finite queries;
//! * `hears_any` against the emptiness of a linear top-1 match.
//!
//! Equality is asserted on `f64::to_bits`, not `==`: a NaN distance must
//! match a NaN distance, and `-0.0` must not pass for `0.0`.

use std::collections::{BTreeMap, HashMap};
use uniloc_env::ApId;
use uniloc_geom::Point;
use uniloc_rng::check::Checker;
use uniloc_rng::{require, require_eq, Rng};
use uniloc_schemes::fingerprint::{FingerprintDb, FingerprintMatch};
use uniloc_schemes::SpatialGrid;
use uniloc_sensors::WifiScan;

const REGRESSIONS: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/index_differential.regressions");

fn checker(name: &str) -> Checker {
    Checker::new(name).cases(128).regressions(REGRESSIONS)
}

/// Draws an RSSI that is usually physical but occasionally NaN or ±inf —
/// corrupt readings that slipped past upstream validation must rank
/// identically on both paths, not differently-or-panic.
fn gen_rssi(rng: &mut Rng) -> f64 {
    match rng.gen_range(0..20u32) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => rng.gen_range(-95.0..-25.0),
    }
}

/// A scan over AP ids `[base, base + universe)`: shifting `base` between
/// the database and the online scan produces partially or fully disjoint
/// AP sets. Sometimes empty.
fn gen_scan(rng: &mut Rng, base: u32, universe: u32) -> WifiScan {
    let n = rng.gen_range(0..8usize);
    let m: BTreeMap<u32, f64> =
        (0..n).map(|_| (base + rng.gen_range(0..universe), gen_rssi(rng))).collect();
    WifiScan { readings: m.into_iter().map(|(a, r)| (ApId(a), r)).collect() }
}

/// Raw database entries: duplicated survey positions, occasional exact
/// fingerprint duplicates (guaranteed distance ties), and the occasional
/// empty scan (dropped at construction).
fn gen_entries(rng: &mut Rng, scale: f64) -> Vec<(Point, WifiScan)> {
    let n = (rng.gen_range(0..60usize) as f64 * scale) as usize;
    let mut entries: Vec<(Point, WifiScan)> = Vec::with_capacity(n);
    for _ in 0..n {
        // A coarse grid of survey positions, so duplicates are common.
        let p = Point::new(
            rng.gen_range(0..8u32) as f64 * 3.0,
            rng.gen_range(0..4u32) as f64 * 3.0,
        );
        if !entries.is_empty() && rng.gen_range(0..6u32) == 0 {
            // Exact duplicate of an earlier fingerprint: a tied distance
            // that must resolve by entry order on both paths.
            let i = rng.gen_range(0..entries.len());
            let scan = entries[i].1.clone();
            entries.push((p, scan));
        } else {
            entries.push((p, gen_scan(rng, 0, 12)));
        }
    }
    entries
}

fn gen_db(rng: &mut Rng, scale: f64) -> FingerprintDb<WifiScan> {
    FingerprintDb::from_entries(gen_entries(rng, scale))
}

/// An online scan that overlaps the database's AP universe fully,
/// partially, or not at all.
fn gen_online(rng: &mut Rng) -> WifiScan {
    let base = match rng.gen_range(0..4u32) {
        0 => 100, // fully disjoint AP universe
        1 => 8,   // partial overlap
        _ => 0,   // same universe
    };
    gen_scan(rng, base, 12)
}

/// Element-for-element bit equality, with the index of the first
/// divergence in the error.
fn require_identical(
    indexed: &[FingerprintMatch],
    linear: &[FingerprintMatch],
) -> Result<(), String> {
    require_eq!(indexed.len(), linear.len());
    for (i, (a, b)) in indexed.iter().zip(linear).enumerate() {
        if a.position.x.to_bits() != b.position.x.to_bits()
            || a.position.y.to_bits() != b.position.y.to_bits()
            || a.distance.to_bits() != b.distance.to_bits()
        {
            return Err(format!("first divergence at rank {i}: indexed {a:?} vs linear {b:?}"));
        }
    }
    Ok(())
}

/// The core differential property: for every database, scan and `k`, the
/// indexed path returns exactly what scoring every entry returns.
#[test]
fn indexed_match_equals_linear_scan() {
    checker("indexed_match_equals_linear_scan").run(
        |rng, scale| {
            let db = gen_db(rng, scale);
            let scan = gen_online(rng);
            let k = rng.gen_range(0..10usize);
            (db, scan, k)
        },
        |(db, scan, k)| {
            require_identical(&db.match_scan(scan, *k), &db.match_scan_linear(scan, *k))
        },
    );
}

/// `match_scan_into` reuses whatever garbage is in the output buffer —
/// stale capacity, stale contents — without it leaking into the result.
#[test]
fn buffer_reuse_never_leaks_stale_matches() {
    checker("buffer_reuse_never_leaks_stale_matches").run(
        |rng, scale| {
            let db = gen_db(rng, scale);
            let scans: Vec<WifiScan> = (0..4).map(|_| gen_online(rng)).collect();
            let k = rng.gen_range(0..10usize);
            (db, scans, k)
        },
        |(db, scans, k)| {
            let mut buf: Vec<FingerprintMatch> = Vec::new();
            for scan in scans {
                db.match_scan_into(scan, *k, &mut buf);
                require_identical(&buf, &db.match_scan_linear(scan, *k))?;
            }
            Ok(())
        },
    );
}

/// Building the database (and with it the signal index) twice from the
/// same entries is deterministic: both copies answer every query with
/// bit-identical output.
#[test]
fn index_build_is_deterministic() {
    checker("index_build_is_deterministic").run(
        |rng, scale| {
            let entries = gen_entries(rng, scale);
            let scans: Vec<WifiScan> = (0..3).map(|_| gen_online(rng)).collect();
            let k = rng.gen_range(1..8usize);
            (entries, scans, k)
        },
        |(entries, scans, k)| {
            let a = FingerprintDb::from_entries(entries.clone());
            let b = FingerprintDb::from_entries(entries.clone());
            require_eq!(a.len(), b.len());
            for scan in scans {
                require_identical(&a.match_scan(scan, *k), &b.match_scan(scan, *k))?;
                // Matching through the same database twice (thread-local
                // scratch reuse) is also stable.
                require_identical(&a.match_scan(scan, *k), &a.match_scan(scan, *k))?;
            }
            Ok(())
        },
    );
}

/// Degenerate inputs: empty database, empty scan, `k = 0`, `k` far beyond
/// the database size. Both paths agree (and agree on emptiness where the
/// contract demands it).
#[test]
fn degenerate_inputs_agree() {
    checker("degenerate_inputs_agree").run(
        |rng, scale| {
            let db = gen_db(rng, scale);
            let scan = gen_online(rng);
            (db, scan)
        },
        |(db, scan)| {
            let empty_scan = WifiScan::default();
            require!(db.match_scan(&empty_scan, 5).is_empty());
            require!(db.match_scan_linear(&empty_scan, 5).is_empty());
            require!(db.match_scan(scan, 0).is_empty());
            require!(db.match_scan_linear(scan, 0).is_empty());
            for k in [1usize, db.len(), db.len() + 7, 1000] {
                require_identical(&db.match_scan(scan, k), &db.match_scan_linear(scan, k))?;
            }
            let empty_db = FingerprintDb::from_entries(Vec::<(Point, WifiScan)>::new());
            require!(empty_db.match_scan(scan, 5).is_empty());
            require!(empty_db.match_scan_linear(scan, 5).is_empty());
            Ok(())
        },
    );
}

/// Tied distances resolve identically: a database of exact-duplicate
/// fingerprints at distinct positions must come back in entry order on
/// both paths, for every `k`.
#[test]
fn tied_distances_resolve_by_entry_order() {
    checker("tied_distances_resolve_by_entry_order").run(
        |rng, scale| {
            let fp = gen_scan(rng, 0, 6);
            let n = 2 + (rng.gen_range(0..20usize) as f64 * scale) as usize;
            let entries: Vec<(Point, WifiScan)> = (0..n)
                .map(|i| (Point::new(i as f64, rng.gen_range(0.0..30.0)), fp.clone()))
                .collect();
            let scan = gen_scan(rng, 0, 6);
            let k = rng.gen_range(1..8usize);
            (entries, scan, k)
        },
        |(entries, scan, k)| {
            let db = FingerprintDb::from_entries(entries.clone());
            require_identical(&db.match_scan(scan, *k), &db.match_scan_linear(scan, *k))
        },
    );
}

/// A coordinate on a coarse lattice (ties and duplicates are common),
/// occasionally random, NaN or ±inf.
fn gen_coord(rng: &mut Rng, lattice: f64) -> f64 {
    match rng.gen_range(0..40u32) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3..=8 => rng.gen_range(-10.0..40.0),
        _ => rng.gen_range(0..10u32) as f64 * lattice,
    }
}

/// A database whose survey positions sit on a 3 m lattice, with
/// duplicates and the occasional non-finite coordinate. Every entry hears
/// one AP, so none is dropped at construction.
fn gen_density_db(rng: &mut Rng, scale: f64) -> FingerprintDb<WifiScan> {
    let n = (rng.gen_range(0..120usize) as f64 * scale) as usize;
    let mut positions: Vec<Point> = Vec::with_capacity(n);
    for _ in 0..n {
        let p = if !positions.is_empty() && rng.gen_range(0..8u32) == 0 {
            positions[rng.gen_range(0..positions.len())]
        } else {
            Point::new(gen_coord(rng, 3.0), gen_coord(rng, 3.0))
        };
        positions.push(p);
    }
    FingerprintDb::from_entries(
        positions.into_iter().map(|p| (p, WifiScan { readings: vec![(ApId(0), -50.0)] })),
    )
}

/// A density query: a lattice point, so lattice fingerprints lie exactly
/// on lattice-multiple radii, or a random, NaN or infinite point, with a
/// radius that is a lattice multiple, 0, random, NaN, ∞ or negative.
fn gen_density_query(rng: &mut Rng) -> (Point, f64) {
    let p = match rng.gen_range(0..10u32) {
        0 => Point::new(f64::NAN, 3.0),
        1 => Point::new(rng.gen_range(-5.0..30.0), f64::INFINITY),
        2 | 3 => Point::new(rng.gen_range(-5.0..30.0), rng.gen_range(-5.0..30.0)),
        _ => Point::new(rng.gen_range(0..10u32) as f64 * 3.0, rng.gen_range(0..10u32) as f64 * 3.0),
    };
    let radius = match rng.gen_range(0..12u32) {
        0 => 0.0,
        1 => f64::NAN,
        2 => f64::INFINITY,
        3 => -1.0,
        4 | 5 => rng.gen_range(0.0..40.0),
        _ => rng.gen_range(1..10u32) as f64 * 3.0,
    };
    (p, radius)
}

fn require_same_density(got: Option<f64>, want: Option<f64>) -> Result<(), String> {
    if got.map(f64::to_bits) != want.map(f64::to_bits) {
        return Err(format!("table-driven {got:?} vs linear {want:?}"));
    }
    Ok(())
}

/// The table-driven density equals the retained linear reference, bit
/// for bit, on every database and query — including the degenerate ones
/// (nothing or one point in range, fewer than 40 probes, non-finite data).
#[test]
fn table_density_equals_linear_reference() {
    checker("table_density_equals_linear_reference").run(
        |rng, scale| {
            let db = gen_density_db(rng, scale);
            let queries: Vec<(Point, f64)> = (0..6).map(|_| gen_density_query(rng)).collect();
            (db, queries)
        },
        |(db, queries)| {
            for &(p, radius) in queries {
                let (got, want) = (db.local_density(p, radius), db.local_density_linear(p, radius));
                require_same_density(got, want)
                    .map_err(|e| format!("query {p:?} radius {radius}: {e}"))?;
            }
            Ok(())
        },
    );
}

/// Dense fine-grained surveys (more than 40 points in range, every probe
/// resolved from the table) agree with the reference too.
#[test]
fn table_density_equals_linear_reference_on_dense_surveys() {
    checker("table_density_equals_linear_reference_on_dense_surveys").cases(32).run(
        |rng, scale| {
            let spacing = rng.gen_range(0.5..3.0);
            let side = 4 + (rng.gen_range(0..30usize) as f64 * scale) as usize;
            let entries: Vec<(Point, WifiScan)> = (0..side * side)
                .map(|i| {
                    let jitter = rng.gen_range(-0.2..0.2) * spacing;
                    let p = Point::new(
                        (i % side) as f64 * spacing + jitter,
                        (i / side) as f64 * spacing,
                    );
                    (p, WifiScan { readings: vec![(ApId(1), -60.0)] })
                })
                .collect();
            let extent = side as f64 * spacing;
            let queries: Vec<(Point, f64)> = (0..4)
                .map(|_| {
                    let p = Point::new(rng.gen_range(0.0..extent), rng.gen_range(0.0..extent));
                    (p, rng.gen_range(0.0..extent / 2.0))
                })
                .collect();
            (FingerprintDb::from_entries(entries), queries)
        },
        |(db, queries)| {
            for &(p, radius) in queries {
                let (got, want) = (db.local_density(p, radius), db.local_density_linear(p, radius));
                require_same_density(got, want)
                    .map_err(|e| format!("query {p:?} radius {radius}: {e}"))?;
            }
            Ok(())
        },
    );
}

/// The `HashMap` grid that `SpatialGrid` replaced, kept as its reference.
/// Key arithmetic wraps, which is what the original `cx + dx` did in
/// release builds (a non-finite query's key saturates).
struct HashGrid {
    cell: f64,
    buckets: HashMap<(i64, i64), Vec<usize>>,
    positions: Vec<Point>,
}

impl HashGrid {
    fn build(positions: Vec<Point>, cell: f64) -> Self {
        let mut buckets: HashMap<(i64, i64), Vec<usize>> = HashMap::new();
        for (i, p) in positions.iter().enumerate() {
            buckets
                .entry(((p.x / cell).floor() as i64, (p.y / cell).floor() as i64))
                .or_default()
                .push(i);
        }
        HashGrid { cell, buckets, positions }
    }

    fn nearest(&self, p: Point) -> Option<usize> {
        let cx = (p.x / self.cell).floor() as i64;
        let cy = (p.y / self.cell).floor() as i64;
        let mut best: Option<(usize, f64)> = None;
        for ring in 0..=3i64 {
            for dx in -ring..=ring {
                for dy in -ring..=ring {
                    if dx.abs() != ring && dy.abs() != ring {
                        continue; // only the ring boundary
                    }
                    let key = (cx.wrapping_add(dx), cy.wrapping_add(dy));
                    if let Some(ids) = self.buckets.get(&key) {
                        for &i in ids {
                            let d = self.positions[i].distance_sq(p);
                            if best.is_none_or(|(_, bd)| d < bd) {
                                best = Some((i, d));
                            }
                        }
                    }
                }
            }
            if let Some((_, d)) = best {
                if d.sqrt() < (ring as f64) * self.cell {
                    break;
                }
            }
        }
        best.map(|(i, _)| i)
    }
}

/// `SpatialGrid::nearest` returns the reference's index — not just an
/// equally near one — for lattice positions with duplicates (so
/// equidistant ties are everywhere), lattice-midpoint queries, far
/// queries and non-finite queries and positions.
#[test]
fn spatial_grid_nearest_equals_hashmap_reference() {
    checker("spatial_grid_nearest_equals_hashmap_reference").run(
        |rng, scale| {
            let n = (rng.gen_range(0..80usize) as f64 * scale) as usize;
            let mut positions: Vec<Point> = Vec::with_capacity(n);
            for _ in 0..n {
                let p = if !positions.is_empty() && rng.gen_range(0..6u32) == 0 {
                    positions[rng.gen_range(0..positions.len())]
                } else {
                    Point::new(gen_coord(rng, 2.5), gen_coord(rng, 2.5))
                };
                positions.push(p);
            }
            let queries: Vec<Point> = (0..24)
                .map(|_| match rng.gen_range(0..10u32) {
                    0 => Point::new(f64::NAN, rng.gen_range(0.0..20.0)),
                    1 => Point::new(f64::INFINITY, 0.0),
                    2 => Point::new(0.0, f64::NEG_INFINITY),
                    3 => Point::new(rng.gen_range(-1e4..1e4), 1e4),
                    // Lattice midpoints: equidistant from 2 or 4 positions.
                    4..=6 => {
                        let half = 1.25 * f64::from(rng.gen_range(0..2u32));
                        Point::new(
                            rng.gen_range(0..10u32) as f64 * 2.5 + 1.25,
                            rng.gen_range(0..10u32) as f64 * 2.5 + half,
                        )
                    }
                    _ => Point::new(rng.gen_range(-5.0..30.0), rng.gen_range(-5.0..30.0)),
                })
                .collect();
            (positions, queries)
        },
        |(positions, queries)| {
            let grid = SpatialGrid::build(positions.clone(), 5.0);
            let reference = HashGrid::build(positions.clone(), 5.0);
            for &q in queries {
                require_eq!(grid.nearest(q), reference.nearest(q));
            }
            Ok(())
        },
    );
}

/// The sorted-id check says "no shared id" exactly when a linear top-1
/// match comes back empty, for every non-empty (id-ordered) scan.
#[test]
fn hears_any_iff_linear_match_is_nonempty() {
    checker("hears_any_iff_linear_match_is_nonempty").run(
        |rng, scale| {
            let db = gen_db(rng, scale);
            let scans: Vec<WifiScan> = (0..6).map(|_| gen_online(rng)).collect();
            (db, scans)
        },
        |(db, scans)| {
            for scan in scans.iter().filter(|s| !s.is_empty()) {
                require_eq!(db.hears_any(scan), !db.match_scan_linear(scan, 1).is_empty());
            }
            Ok(())
        },
    );
}
