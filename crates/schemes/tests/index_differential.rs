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
//!   reference: equidistant ties, far and non-finite queries; and its
//!   block table against the same reference: every cell size, queries
//!   inside, on and past the grown border and on cell edges, non-finite
//!   positions, sparse and empty grids, nearest positions in ring 2 or 3;
//! * `hears_any` against the emptiness of a linear top-1 match;
//! * the survey memo against uncached `SignalIndex` calls: random
//!   interleavings over databases and clones, scans one RSSI bit apart,
//!   `-0.0` against `0.0`, two threads on two clones, and a calibrated
//!   WiFi scheme sharing its survey with a feature pass.
//!
//! Equality is asserted on `f64::to_bits`, not `==`: a NaN distance must
//! match a NaN distance, and `-0.0` must not pass for `0.0`.

use std::collections::{BTreeMap, HashMap};
use uniloc_env::ApId;
use uniloc_geom::Point;
use uniloc_rng::check::Checker;
use uniloc_rng::{require, require_eq, Rng};
use uniloc_schemes::fingerprint::{FingerprintDb, FingerprintMatch, TOP_K};
use uniloc_schemes::{
    LocalizationScheme, LocationEstimate, SignalIndex, SpatialGrid, WifiFingerprintScheme,
};
use uniloc_sensors::{RssiCalibration, SensorFrame, WifiScan};

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

/// Cell sizes for the block-table cases: fusion's 5 m, and others that
/// move the lattice against cell edges.
const GRID_CELLS: [f64; 4] = [5.0, 2.5, 1.0, 7.3];

/// Positions for the block-table cases, by kind: a lattice with
/// duplicates (ties everywhere), a lattice three cells apart (the nearest
/// position of most queries lies in ring 2 or 3), a lattice with a few
/// non-finite coordinates, every position on one non-finite column (a
/// dense table whose key saturates or is NaN's 0), two clusters too far
/// apart for a dense table, and no positions at all.
fn gen_block_positions(rng: &mut Rng, scale: f64, cell: f64) -> Vec<Point> {
    let n = 1 + (rng.gen_range(0..80usize) as f64 * scale) as usize;
    let kind = rng.gen_range(0..8u32);
    let column = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][rng.gen_range(0..3usize)];
    let mut positions: Vec<Point> = Vec::with_capacity(n);
    for _ in 0..n {
        let p = match kind {
            0 | 1 => Point::new(gen_coord(rng, cell / 2.0), gen_coord(rng, cell / 2.0)),
            2 | 3 => {
                let spacing = 3.0 * cell;
                Point::new(
                    rng.gen_range(0..6u32) as f64 * spacing,
                    rng.gen_range(0..4u32) as f64 * spacing,
                )
            }
            4 => Point::new(column, rng.gen_range(0..6u32) as f64 * cell),
            5 => {
                let far = if rng.gen_range(0..2u32) == 0 { 0.0 } else { 1e7 };
                Point::new(far + rng.gen_range(0.0..20.0), far + rng.gen_range(0.0..20.0))
            }
            6 => return Vec::new(),
            _ => Point::new(rng.gen_range(-20.0..40.0), rng.gen_range(-20.0..40.0)),
        };
        if !positions.is_empty() && rng.gen_range(0..6u32) == 0 {
            positions.push(positions[rng.gen_range(0..positions.len())]);
        } else {
            positions.push(p);
        }
    }
    positions
}

/// Queries against `positions`: inside the occupied key range, on its
/// one-cell grown border and one and two cells past it, exactly on cell
/// edges, at lattice midpoints (equidistant ties), and NaN, ±inf and far.
fn gen_block_queries(rng: &mut Rng, positions: &[Point], cell: f64) -> Vec<Point> {
    let finite: Vec<Point> =
        positions.iter().copied().filter(|p| p.x.is_finite() && p.y.is_finite()).collect();
    let key = |v: f64| (v / cell).floor();
    let (mut k0, mut k1) = ((0.0, 0.0), (4.0, 4.0));
    if let Some(first) = finite.first() {
        k0 = (key(first.x), key(first.y));
        k1 = k0;
        for p in &finite {
            k0 = (k0.0.min(key(p.x)), k0.1.min(key(p.y)));
            k1 = (k1.0.max(key(p.x)), k1.1.max(key(p.y)));
        }
    }
    let in_key = |rng: &mut Rng, lo: f64, hi: f64| {
        (lo + rng.gen_range(0..(hi - lo).clamp(0.0, 1e6) as u64 + 1) as f64) * cell
    };
    (0..32)
        .map(|_| match rng.gen_range(0..12u32) {
            0 => Point::new(f64::NAN, rng.gen_range(0.0..20.0)),
            1 => Point::new(f64::INFINITY, in_key(rng, k0.1, k1.1)),
            2 if rng.gen_range(0..2u32) == 0 => {
                Point::new(f64::NEG_INFINITY, in_key(rng, k0.1, k1.1))
            }
            2 => Point::new(in_key(rng, k0.0, k1.0), f64::NEG_INFINITY),
            3 => Point::new(rng.gen_range(-1e4..1e4), 1e4),
            // One, two or three cells past the occupied range, on a side.
            4 | 5 => {
                let past = rng.gen_range(1..4u32) as f64;
                let frac = rng.gen_range(0.0..1.0);
                let low = rng.gen_range(0..2u32) == 0;
                let beyond = |lo: f64, hi: f64| if low { lo - past } else { hi + past };
                if rng.gen_range(0..2u32) == 0 {
                    let y = in_key(rng, k0.1, k1.1) + frac * cell;
                    Point::new((beyond(k0.0, k1.0) + frac) * cell, y)
                } else {
                    let x = in_key(rng, k0.0, k1.0) + frac * cell;
                    Point::new(x, (beyond(k0.1, k1.1) + frac) * cell)
                }
            }
            // Exactly on cell edges, inside and on the border.
            6 | 7 => {
                let x = in_key(rng, k0.0 - 1.0, k1.0 + 1.0);
                Point::new(x, in_key(rng, k0.1 - 1.0, k1.1 + 1.0))
            }
            // Midpoints between positions: equidistant from both.
            8 | 9 if finite.len() >= 2 => {
                let a = finite[rng.gen_range(0..finite.len())];
                let b = finite[rng.gen_range(0..finite.len())];
                Point::new((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)
            }
            _ => Point::new(
                rng.gen_range((k0.0 - 2.0) * cell..(k1.0 + 3.0) * cell),
                rng.gen_range((k0.1 - 2.0) * cell..(k1.1 + 3.0) * cell),
            ),
        })
        .collect()
}

/// The block table returns the ring walk's index — the `HashMap`
/// reference's — on dense grids of every shape, on their grown border and
/// past it, on cell edges and ties, with non-finite queries and positions,
/// on sparse and empty grids, and where the nearest position lies only in
/// ring 2 or 3.
#[test]
fn block_table_nearest_equals_hashmap_reference() {
    checker("block_table_nearest_equals_hashmap_reference").run(
        |rng, scale| {
            let cell = GRID_CELLS[rng.gen_range(0..GRID_CELLS.len())];
            let positions = gen_block_positions(rng, scale, cell);
            let queries = gen_block_queries(rng, &positions, cell);
            (cell, positions, queries)
        },
        |(cell, positions, queries)| {
            let grid = SpatialGrid::build(positions.clone(), *cell);
            let reference = HashGrid::build(positions.clone(), *cell);
            for &q in queries {
                let (got, want) = (grid.nearest(q), reference.nearest(q));
                if got != want {
                    return Err(format!("query {q:?}: block table {got:?} vs reference {want:?}"));
                }
            }
            Ok(())
        },
    );
}

/// The survey memo's reference: an index built from the database's own
/// entries, called directly, with no memo in between.
fn uncached(db: &FingerprintDb<WifiScan>) -> SignalIndex {
    let entries: Vec<(Point, WifiScan)> = db.entries().map(|(p, s)| (p, s.clone())).collect();
    SignalIndex::build(&entries)
}

/// `scan` with one reading's RSSI changed in its lowest bit, or a zero
/// RSSI's sign flipped: a key the memo must not confuse with the original.
fn one_bit_off(rng: &mut Rng, scan: &WifiScan) -> WifiScan {
    let mut scan = scan.clone();
    if !scan.readings.is_empty() {
        let i = rng.gen_range(0..scan.readings.len());
        let r = &mut scan.readings[i].1;
        *r = if *r == 0.0 { -*r } else { f64::from_bits(r.to_bits() ^ 1) };
    }
    scan
}

/// One step of a memo interleaving.
#[derive(Debug, Clone)]
enum MemoOp {
    Match { db: usize, scan: WifiScan, k: usize },
    Density { db: usize, p: Point, radius: f64 },
}

/// A random interleaving over `dbs` databases: fresh scans, repeats of an
/// earlier scan or query, scans one RSSI bit away, `-0.0` against `0.0`,
/// and a spread of `k`.
fn gen_memo_ops(rng: &mut Rng, dbs: usize, n: usize) -> Vec<MemoOp> {
    let mut ops: Vec<MemoOp> = Vec::with_capacity(n);
    for _ in 0..n {
        let db = rng.gen_range(0..dbs);
        let earlier = (!ops.is_empty()).then(|| ops[rng.gen_range(0..ops.len())].clone());
        let op = match (rng.gen_range(0..8u32), earlier) {
            (0 | 1, Some(MemoOp::Match { scan, k, .. })) => MemoOp::Match { db, scan, k },
            (2, Some(MemoOp::Match { scan, k, .. })) => {
                MemoOp::Match { db, scan: one_bit_off(rng, &scan), k }
            }
            (3, Some(MemoOp::Density { p, radius, .. })) => MemoOp::Density { db, p, radius },
            (3, _) | (4, _) => {
                let (p, radius) = gen_density_query(rng);
                MemoOp::Density { db, p, radius }
            }
            (5, _) => {
                let mut scan = gen_online(rng);
                if let Some(r) = scan.readings.first_mut() {
                    r.1 = if rng.gen_range(0..2u32) == 0 { 0.0 } else { -0.0 };
                }
                MemoOp::Match { db, scan, k: rng.gen_range(0..6usize) }
            }
            _ => MemoOp::Match { db, scan: gen_online(rng), k: rng.gen_range(0..6usize) },
        };
        ops.push(op);
    }
    ops
}

/// Runs `ops` through the memoized databases and checks every answer
/// against the uncached index of the same database.
fn run_memo_ops(
    dbs: &[FingerprintDb<WifiScan>],
    references: &[SignalIndex],
    ops: &[MemoOp],
) -> Result<(), String> {
    let mut got = Vec::new();
    let mut want = Vec::new();
    for (step, op) in ops.iter().enumerate() {
        match op {
            MemoOp::Match { db, scan, k } => {
                dbs[*db].match_scan_into(scan, *k, &mut got);
                references[*db].match_into(scan, *k, &mut want);
                require_identical(&got, &want).map_err(|e| format!("step {step}: {e}"))?;
            }
            MemoOp::Density { db, p, radius } => {
                let got = dbs[*db].local_density(*p, *radius);
                let want = references[*db].local_density(*p, *radius);
                require_same_density(got, want).map_err(|e| format!("step {step}: {e}"))?;
            }
        }
    }
    Ok(())
}

/// Over random interleavings of databases (and clones sharing one
/// survey), scans and `k`, every memoized match and density equals an
/// uncached `SignalIndex` call, bit for bit.
#[test]
fn memoized_answers_equal_uncached_index_calls() {
    checker("memoized_answers_equal_uncached_index_calls").run(
        |rng, scale| {
            let dbs: Vec<FingerprintDb<WifiScan>> = (0..2)
                .map(|i| if i == 0 { gen_db(rng, scale) } else { gen_density_db(rng, scale) })
                .collect();
            let ops = gen_memo_ops(rng, 4, 40);
            (dbs, ops)
        },
        |(dbs, ops)| {
            // Databases 2 and 3 are clones of 0 and 1: same survey, same memo.
            let all: Vec<FingerprintDb<WifiScan>> = dbs.iter().chain(dbs.iter()).cloned().collect();
            let references: Vec<SignalIndex> = all.iter().map(uncached).collect();
            run_memo_ops(&all, &references, ops)
        },
    );
}

/// Two clones of one database, used from two threads at once, each get
/// the uncached answer to every call.
#[test]
fn memo_is_exact_across_threads() {
    checker("memo_is_exact_across_threads").cases(32).run(
        |rng, scale| {
            let db = gen_db(rng, scale.max(0.5));
            let ops: Vec<Vec<MemoOp>> = (0..2).map(|_| gen_memo_ops(rng, 1, 200)).collect();
            (db, ops)
        },
        |(db, ops)| {
            let reference = [uncached(db)];
            std::thread::scope(|s| {
                let handles: Vec<_> = ops
                    .iter()
                    .map(|ops| {
                        let clone = [db.clone()];
                        let reference = &reference;
                        s.spawn(move || run_memo_ops(&clone, reference, ops))
                    })
                    .collect();
                handles.into_iter().try_for_each(|h| h.join().expect("memo thread panicked"))
            })
        },
    );
}

/// A frame carrying only `scan`.
fn wifi_frame(t: f64, scan: WifiScan) -> SensorFrame {
    SensorFrame {
        t,
        true_position: Point::origin(),
        wifi: Some(scan),
        cell: None,
        gps: None,
        steps: vec![],
        landmark: None,
        light_lux: 100.0,
        magnetic_variance: 0.5,
    }
}

/// A calibrated WiFi scheme whose survey is shared with a feature pass,
/// which matches the raw scan and measures density on the same survey
/// before each update, estimates exactly what the same scheme over a
/// private copy of the survey does: the calibrated scan keys differently
/// and never gets the raw scan's match.
#[test]
fn calibrated_scheme_on_a_shared_survey_equals_a_private_one() {
    checker("calibrated_scheme_on_a_shared_survey_equals_a_private_one").run(
        |rng, scale| {
            let entries = gen_entries(rng, scale.max(0.3));
            let scans: Vec<WifiScan> = (0..24)
                .map(|_| {
                    let mut scan = gen_scan(rng, 0, 12);
                    while scan.readings.len() < 3 {
                        scan = gen_scan(rng, 0, 12);
                    }
                    scan
                })
                .collect();
            let calibration =
                RssiCalibration { alpha: rng.gen_range(0.9..1.1), delta: rng.gen_range(-6.0..6.0) };
            (entries, scans, calibration)
        },
        |(entries, scans, calibration)| {
            let shared = FingerprintDb::from_entries(entries.clone());
            let private = FingerprintDb::from_entries(entries.clone());
            let scheme = |db| WifiFingerprintScheme::new(db).with_calibration(*calibration);
            let (mut on_shared, mut on_private) = (scheme(shared.clone()), scheme(private));
            let mut feature_matches = Vec::new();
            let bits = |p: Point| (p.x.to_bits(), p.y.to_bits());
            for (i, scan) in scans.iter().enumerate() {
                shared.match_scan_into(scan, TOP_K, &mut feature_matches);
                let _ = shared.local_density(Point::new(i as f64, 3.0), 20.0);
                let frame = wifi_frame(i as f64 * 0.5, scan.clone());
                let (a, b) = (on_shared.update(&frame), on_private.update(&frame));
                let key = |e: LocationEstimate| (bits(e.position), e.spread.map(f64::to_bits));
                require_eq!(a.map(key), b.map(key));
                let means = (on_shared.posterior_mean(), on_private.posterior_mean());
                require_eq!(means.0.map(bits), means.1.map(bits));
            }
            Ok(())
        },
    );
}
