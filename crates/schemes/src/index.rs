//! Fingerprint kernels for the per-epoch hot path: top-k matching, the
//! spatial-density feature, and the nearest-position grid behind the
//! fusion scheme's particle reweight.
//!
//! Two structures live here:
//!
//! * [`SignalIndex`] — built once inside every
//!   [`FingerprintDb`](crate::fingerprint::FingerprintDb): the survey as
//!   struct-of-arrays slabs (a flat `Vec<f64>` RSSI matrix with parallel
//!   id/offset/position arrays), the sorted list of ids the survey hears,
//!   and a nearest-neighbour table holding, for each fingerprint, its
//!   nearest other fingerprint and the squared distance to it.
//! * [`SpatialGrid`] — a dense CSR grid over positions with
//!   expanding-ring nearest lookup, used by the fusion scheme's
//!   per-particle reweight. A block table holds each cell's 3×3
//!   neighbourhood as one contiguous slice, so most lookups scan one slice
//!   and never walk rings.
//!
//! Every kernel is exact: it returns the bits its retained reference
//! returns (`FingerprintDb::match_scan_linear`,
//! `FingerprintDb::local_density_linear`, and the `HashMap` grid kept in
//! `tests/index_differential.rs`), which that suite checks with
//! `f64::to_bits` equality.
//!
//! # Matching
//!
//! [`SignalIndex::match_into`] scores every slab entry, in entry order,
//! with the same merge, arithmetic and operation order as
//! [`uniloc_sensors::merge_distance`]. It ranks the scored
//! `(entry index, distance)` pairs under `(total_cmp(distance), entry
//! index)`. That comparator is a total order with unique keys, so it has
//! exactly one sorted permutation: the one a stable `total_cmp` sort of
//! the entry-ordered matches produces. Only the best `k` are kept, so
//! `select_nth_unstable_by(k - 1)` moves them to the front and only that
//! prefix is sorted. Both steps run in place.
//!
//! An RSSI-bucketed inverted index used to prune the candidates here. It
//! pruned little: the ±1-bucket window of a 3–8-AP scan gathered 1123 of
//! the mall's 1165 fingerprints, and the posting walk and candidate dedup
//! cost more than the scoring they saved. With top-k selection on both
//! sides the plain slab scan was faster on every benchmark venue (µs per
//! WiFi match, index → slab: mall 73 → 32, office 15.5 → 9.9, path1
//! 37 → 31, path2 62 → 50, open-space 3.1 → 2.0).
//!
//! # Density
//!
//! [`SignalIndex::local_density`] keeps the reference's definition: the
//! in-radius set `{q : q.distance(p) <= radius}`, its 40 points closest to
//! `p` under `(distance_sq, entry index)` as probes, and each probe's
//! squared distance to its nearest other in-radius point. Three things
//! make it cheaper without changing a bit:
//!
//! * The radius test skips `hypot` when the squared distance is already a
//!   relative 1e-9 inside or outside `radius²`: both are computed from
//!   the same coordinate differences, and the margin dwarfs the few ulps
//!   between them. Radii outside `1e-100..=1e100` (where underflow or
//!   overflow could break that) take the exact test for every point.
//! * The 40 probes are found with selection plus a sort of the prefix,
//!   under the same unique-key argument as matching.
//! * A probe's nearest in-radius neighbour comes from the table when the
//!   table's neighbour passes the same radius test. The table holds the
//!   minimum over *all* other fingerprints, the in-radius set is a subset
//!   that contains that neighbour, so the table value is also the
//!   in-radius minimum. Every other probe scans the in-radius set as the
//!   reference does. (`f64::min` ignores NaN and squared distances are
//!   never `-0.0`, so a minimum's bits do not depend on scan order.)
//!
//! The table is built with a uniform grid search that stops as soon as no
//! unsearched point can come closer. Write `u = 2⁻⁵³` (the unit roundoff),
//! `c` for the cell, `x0` for the smallest x and `K = max(nx, ny)` for the
//! grid's larger side in cells. A point's column is `floor(ũ)` with
//! `ũ = fl(fl(x − x0) / c)`: two roundings, so `|ũ − (x − x0)/c| ≤ 3u·ũ`,
//! and `ũ < K`. After ring `r` around point `a` is searched, an unsearched
//! point `q` sits at least `r + 1` columns (or rows) from `a`'s, so
//! `ũ_q − ũ_a > r`, and in exact arithmetic
//! `|q.x − a.x| > c·(r − 7uK) ≥ c·r·(1 − 7uK)` for `r ≥ 1`. `distance_sq`
//! rounds the difference, both squares and the sum, so its value for `q`
//! is at least `(1 − 4u)` times the exact one, hence above
//! `(r·c)²·(1 − 18uK)`. The test computes `(r·c)²·(1 − η)` with five
//! roundings, each at most a factor `(1 + u)`, so with
//! `η = 32u·(K + 1) = (K + 1)·2⁻⁴⁸ ≥ 18uK + 5.0001u` the computed bound is
//! below every unsearched point's squared distance. The search stops once
//! the best squared distance is below that bound; an unsearched point is
//! then strictly farther, and a tie never replaces the best (`d < best`),
//! so the table equals an exhaustive ring search's, index included. Ring
//! 0 never stops (its bound is 0). Cells outside `1e-100..=1e100` walk
//! every ring, so no square in the argument can underflow or overflow.
//!
//! # Scratch
//!
//! Per-call buffers (scan, scored pairs, in-radius set) live in a
//! thread-local pool so the steady-state epoch loop performs no heap
//! allocation here. Growing the pool is one-time, amortized warmup, and
//! which epoch it lands on depends on thread scheduling and process
//! history (a resumed fleet replays on cold pools), so — like the
//! observatory's own span bookkeeping — pool growth runs under
//! [`uniloc_obs::alloc::pause`] and is never attributed to the epoch that
//! happened to trigger it. The per-epoch meter thus reads the same on any
//! thread layout, which the fleet's jobs-invariance and crash-resume
//! differential suites require.

use std::cell::RefCell;

use crate::fingerprint::{FingerprintMatch, RssiLike, MISSING_PENALTY_DBM};
use uniloc_geom::Point;

/// Probes of the density estimate: the in-radius fingerprints closest to
/// the query point, whose nearest-neighbour spacings are averaged.
const DENSITY_PROBES: usize = 40;

/// Nearest-neighbour table entry of a fingerprint with no finite
/// neighbour.
const NO_NEIGHBOR: u32 = u32::MAX;

thread_local! {
    static SCRATCH: RefCell<MatchScratch> = const {
        RefCell::new(MatchScratch {
            scan_buf: Vec::new(),
            scored: Vec::new(),
            density_buf: Vec::new(),
        })
    };
}

/// Reusable per-thread buffers for [`SignalIndex::match_into`] and
/// [`SignalIndex::local_density`]: capacity grows under the alloc-meter
/// pause (see the module docs), after which every call is allocation-free.
struct MatchScratch {
    /// The online scan's readings as plain `(u32, f64)` pairs.
    scan_buf: Vec<(u32, f64)>,
    /// Scored entries as `(entry index, distance)` pairs.
    scored: Vec<(u32, f64)>,
    /// The in-radius set as `(distance_sq to the query, entry index)`.
    density_buf: Vec<(f64, u32)>,
}

/// Clears `buf` and makes room for `n` items, growing it unattributed.
pub(crate) fn reserve_scratch<T>(buf: &mut Vec<T>, n: usize) {
    buf.clear();
    if buf.capacity() < n {
        let _pause = uniloc_obs::alloc::pause();
        buf.reserve(n);
    }
}

/// The `q.distance(p) <= radius` test, with `hypot` skipped where a
/// squared-distance bound with margin already decides it (module docs).
struct Within {
    p: Point,
    radius: f64,
    /// Squared distances below this are certainly in range.
    inside_sq: f64,
    /// Squared distances above this are certainly out of range.
    outside_sq: f64,
}

impl Within {
    fn new(p: Point, radius: f64) -> Self {
        let (inside_sq, outside_sq) = if (1e-100..=1e100).contains(&radius) {
            let r2 = radius * radius;
            (r2 * (1.0 - 1e-9), r2 * (1.0 + 1e-9))
        } else {
            (f64::NEG_INFINITY, f64::INFINITY)
        };
        Within { p, radius, inside_sq, outside_sq }
    }

    fn contains(&self, q: Point) -> bool {
        let d2 = q.distance_sq(self.p);
        if d2 < self.inside_sq {
            true
        } else if d2 > self.outside_sq {
            false
        } else {
            q.distance(self.p) <= self.radius
        }
    }
}

/// The fingerprint slabs, heard-id list and nearest-neighbour table,
/// built once at database construction.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalIndex {
    /// Survey position of each fingerprint, in entry order.
    positions: Vec<Point>,
    /// Reading-range offsets into `ids`/`rssis`: entry `e`'s readings are
    /// `offsets[e]..offsets[e + 1]`.
    offsets: Vec<u32>,
    /// Flat id array, parallel to `rssis`, readings in original order.
    ids: Vec<u32>,
    /// Flat RSSI matrix, parallel to `ids`.
    rssis: Vec<f64>,
    /// Every id some fingerprint hears, sorted and deduplicated.
    heard: Vec<u32>,
    /// Per entry: its nearest other fingerprint with finite coordinates
    /// and the squared distance to it ([`NO_NEIGHBOR`] when there is none).
    nearest: Vec<(u32, f64)>,
}

impl SignalIndex {
    /// Builds the index from `(position, scan)` entries. Deterministic:
    /// the same entries always produce the same index bytes.
    pub fn build<S: RssiLike>(entries: &[(Point, S)]) -> Self {
        let n = entries.len();
        assert!(n < u32::MAX as usize, "fingerprint database too large to index");
        let mut positions = Vec::with_capacity(n);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut ids = Vec::new();
        let mut rssis = Vec::new();
        for (p, s) in entries {
            positions.push(*p);
            for i in 0..s.reading_count() {
                let (id, r) = s.reading(i);
                ids.push(id);
                rssis.push(r);
            }
            offsets.push(ids.len() as u32);
        }
        let mut heard = ids.clone();
        heard.sort_unstable();
        heard.dedup();
        let nearest = nearest_neighbors(&positions);
        SignalIndex { positions, offsets, ids, rssis, heard, nearest }
    }

    /// Number of indexed fingerprints.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the index holds no fingerprints.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Number of distinct ids the survey hears.
    pub(crate) fn heard_len(&self) -> usize {
        self.heard.len()
    }

    /// Whether some fingerprint hears an id of `scan`.
    ///
    /// For a non-empty scan with readings in id order (every
    /// [`RssiLike`] scan's contract), this is exactly whether
    /// [`match_into`](Self::match_into) finds a match: the merge over two
    /// id-sorted lists meets every shared id, and the distance is `None`
    /// only when no id is shared.
    pub fn hears_any<S: RssiLike>(&self, scan: &S) -> bool {
        (0..scan.reading_count()).any(|i| self.heard.binary_search(&scan.reading(i).0).is_ok())
    }

    /// Exact RADAR distance between the buffered scan and slab entry `e`
    /// — the same merge, arithmetic and operation order as
    /// [`uniloc_sensors::merge_distance`] with the scan on the left.
    fn entry_distance(&self, scan: &[(u32, f64)], e: usize) -> Option<f64> {
        let lo = self.offsets[e] as usize;
        let hi = self.offsets[e + 1] as usize;
        let ids = &self.ids[lo..hi];
        let rssis = &self.rssis[lo..hi];
        let mut sum_sq = 0.0;
        let mut common = 0usize;
        let mut i = 0;
        let mut j = 0;
        let mut missing = 0usize;
        while i < scan.len() && j < ids.len() {
            let (ka, ra) = scan[i];
            match ka.cmp(&ids[j]) {
                std::cmp::Ordering::Equal => {
                    let rb = rssis[j];
                    sum_sq += (ra - rb) * (ra - rb);
                    common += 1;
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => {
                    missing += 1;
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    missing += 1;
                    j += 1;
                }
            }
        }
        missing += scan.len() - i + ids.len() - j;
        if common == 0 {
            return None;
        }
        sum_sq += missing as f64 * MISSING_PENALTY_DBM * MISSING_PENALTY_DBM;
        Some((sum_sq / (common + missing) as f64).sqrt())
    }

    /// Copies the `k` best scored entries into `out` as matches.
    fn emit(&self, scored: &[(u32, f64)], k: usize, out: &mut Vec<FingerprintMatch>) {
        out.clear();
        let take = scored.len().min(k);
        if out.capacity() < take {
            // Capacity growth of a caller-recycled buffer is warmup, not
            // steady-state work: keep it out of the alloc meter so counts
            // stay scheduling-invariant.
            let _pause = uniloc_obs::alloc::pause();
            out.reserve(take - out.len());
        }
        out.extend(
            scored
                .iter()
                .take(k)
                .map(|&(e, d)| FingerprintMatch { position: self.positions[e as usize], distance: d }),
        );
    }

    /// Fills `out` with the `k` best matches of `scan`, byte-identical to
    /// the linear reference (module docs).
    pub fn match_into<S: RssiLike>(&self, scan: &S, k: usize, out: &mut Vec<FingerprintMatch>) {
        out.clear();
        if scan.no_signal() || k == 0 || self.is_empty() {
            return;
        }
        SCRATCH.with(|cell| {
            let MatchScratch { scan_buf, scored, .. } = &mut *cell.borrow_mut();
            reserve_scratch(scan_buf, scan.reading_count());
            reserve_scratch(scored, self.len());
            scan_buf.extend((0..scan.reading_count()).map(|i| scan.reading(i)));
            for e in 0..self.len() {
                if let Some(d) = self.entry_distance(scan_buf, e) {
                    scored.push((e as u32, d));
                }
            }
            let rank = |a: &(u32, f64), b: &(u32, f64)| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0));
            if scored.len() > k {
                scored.select_nth_unstable_by(k - 1, rank);
                scored.truncate(k);
            }
            scored.sort_unstable_by(rank);
            self.emit(scored, k, out);
        });
    }

    /// Mean nearest-neighbor spacing of fingerprints within `radius` of
    /// `p` — bit-identical to the linear reference (module docs), with
    /// the in-radius buffer pooled per thread.
    pub fn local_density(&self, p: Point, radius: f64) -> Option<f64> {
        SCRATCH.with(|cell| {
            let nearby = &mut cell.borrow_mut().density_buf;
            reserve_scratch(nearby, self.len());
            let within = Within::new(p, radius);
            for (e, q) in self.positions.iter().enumerate() {
                if within.contains(*q) {
                    nearby.push((q.distance_sq(p), e as u32));
                }
            }
            if nearby.len() < 2 {
                return None;
            }
            let rank = |a: &(f64, u32), b: &(f64, u32)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
            let probes = nearby.len().min(DENSITY_PROBES);
            if nearby.len() > probes {
                nearby.select_nth_unstable_by(probes - 1, rank);
            }
            nearby[..probes].sort_unstable_by(rank);
            let mut total = 0.0;
            for i in 0..probes {
                let e = nearby[i].1 as usize;
                let (j, d) = self.nearest[e];
                let best = if j != NO_NEIGHBOR && within.contains(self.positions[j as usize]) {
                    d
                } else {
                    let a = self.positions[e];
                    let mut best = f64::INFINITY;
                    for (jj, &(_, f)) in nearby.iter().enumerate() {
                        if jj != i {
                            best = best.min(a.distance_sq(self.positions[f as usize]));
                        }
                    }
                    best
                };
                total += best.sqrt();
            }
            Some(total / probes as f64)
        })
    }
}

/// Each position's nearest other position with finite coordinates, and
/// the squared distance to it, by uniform grid search (module docs).
/// Positions with a non-finite coordinate get [`NO_NEIGHBOR`].
fn nearest_neighbors(positions: &[Point]) -> Vec<(u32, f64)> {
    ring_search(positions, true)
}

/// The grid search behind [`nearest_neighbors`]; without `stop` it walks
/// every ring, the exhaustive reference of the stopping rule's test.
fn ring_search(positions: &[Point], stop: bool) -> Vec<(u32, f64)> {
    let mut table = vec![(NO_NEIGHBOR, f64::INFINITY); positions.len()];
    let finite: Vec<u32> =
        (0..positions.len() as u32).filter(|&e| positions[e as usize].is_finite()).collect();
    if finite.len() < 2 {
        return table;
    }
    let (mut x0, mut y0, mut x1, mut y1) =
        (f64::INFINITY, f64::INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY);
    for &e in &finite {
        let p = positions[e as usize];
        x0 = x0.min(p.x);
        y0 = y0.min(p.y);
        x1 = x1.max(p.x);
        y1 = y1.max(p.y);
    }
    // About one point per cell. The second bound keeps thin, line-like
    // surveys from getting sliver cells; an overflowing span gives an
    // infinite cell, i.e. one cell holding everything.
    let m = finite.len() as f64;
    let (w, h) = (x1 - x0, y1 - y0);
    let mut cell = (w * h / m).sqrt().max(w.max(h) / m);
    if cell == 0.0 {
        cell = 1.0; // every point coincides
    }
    let cell_of =
        |p: Point| (((p.x - x0) / cell).floor() as usize, ((p.y - y0) / cell).floor() as usize);
    let (mut nx, mut ny) = (0usize, 0usize);
    for &e in &finite {
        let (cx, cy) = cell_of(positions[e as usize]);
        nx = nx.max(cx + 1);
        ny = ny.max(cy + 1);
    }
    // Column-major CSR over the cells.
    let mut starts = vec![0u32; nx * ny + 1];
    for &e in &finite {
        let (cx, cy) = cell_of(positions[e as usize]);
        starts[cx * ny + cy + 1] += 1;
    }
    for c in 0..nx * ny {
        starts[c + 1] += starts[c];
    }
    let mut fill = starts.clone();
    let mut ids = vec![0u32; finite.len()];
    for &e in &finite {
        let (cx, cy) = cell_of(positions[e as usize]);
        let slot = &mut fill[cx * ny + cy];
        ids[*slot as usize] = e;
        *slot += 1;
    }
    // `1 − η` of the stopping rule (module docs); 0 never stops.
    let shrink = if (1e-100..=1e100).contains(&cell) {
        1.0 - (nx.max(ny) as f64 + 1.0) * 2f64.powi(-48)
    } else {
        0.0
    };
    let (nx, ny) = (nx as isize, ny as isize);
    for &e in &finite {
        let a = positions[e as usize];
        let (cx, cy) = cell_of(a);
        let (cx, cy) = (cx as isize, cy as isize);
        let mut best = (NO_NEIGHBOR, f64::INFINITY);
        let visit = |x: isize, y: isize, best: &mut (u32, f64)| {
            if !(0..nx).contains(&x) || !(0..ny).contains(&y) {
                return;
            }
            let c = (x * ny + y) as usize;
            for &f in &ids[starts[c] as usize..starts[c + 1] as usize] {
                if f != e {
                    let d = a.distance_sq(positions[f as usize]);
                    if d < best.1 {
                        *best = (f, d);
                    }
                }
            }
        };
        // Ring r is the boundary of the (2r + 1)² block around (cx, cy):
        // its two side columns, then the rest of its top and bottom rows.
        // After ring max(nx, ny) - 1 every cell has been searched.
        for r in 0..nx.max(ny) {
            let sides: &[isize] = if r == 0 { &[0] } else { &[-r, r] };
            for &dx in sides {
                for y in (cy - r).max(0)..=(cy + r).min(ny - 1) {
                    visit(cx + dx, y, &mut best);
                }
            }
            if r > 0 {
                for x in (cx - r + 1).max(0)..=(cx + r - 1).min(nx - 1) {
                    visit(x, cy - r, &mut best);
                    visit(x, cy + r, &mut best);
                }
            }
            let reach = r as f64 * cell;
            if stop && best.1 < reach * reach * shrink {
                break;
            }
        }
        table[e as usize] = best;
    }
    table
}

/// The cells of a 3×3 block in the ring walk's visit order: ring 0, then
/// ring 1 by `dx` and, within each `dx`, `dy` ascending.
const BLOCK_ORDER: [(i64, i64); 9] =
    [(0, 0), (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)];

/// Spatial grid over positions for O(1) nearest lookups (the fusion
/// scheme's per-particle inner loop would otherwise be quadratic).
///
/// Positions are bucketed by `(floor(x / cell), floor(y / cell))` as
/// `i64` into a CSR layout: slot `s` holds the position ids
/// `ids[starts[s]..starts[s + 1]]`, ascending. Slots are a dense
/// column-major table over the occupied key range whenever that range is
/// compact — every benchmark venue (at most 39 × 32 cells, on path1).
/// A range too wide for a dense table (far-flung or non-finite positions)
/// keeps one slot per occupied key in sorted key order and finds slots by
/// binary search instead.
///
/// A dense grid also keeps a block table: for every cell of the table
/// grown by one cell on each side, the positions of its 3×3 block with
/// their ids, inline, in the ring walk's visit order. A lookup scans
/// that one slice for rings 0 and 1 and walks rings only from ring 2 on.
/// Each position sits in nine blocks, so the table costs about 9 × 24
/// bytes per position.
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    cell: f64,
    /// Key of the dense table's first column and row.
    origin: (i64, i64),
    /// Dense table size in cells (columns, rows); zero for a sparse grid.
    cols: u64,
    rows: u64,
    /// Sorted occupied keys of a sparse grid; empty for a dense one.
    sparse_keys: Vec<(i64, i64)>,
    starts: Vec<u32>,
    ids: Vec<u32>,
    positions: Vec<Point>,
    /// Block `b` of the grown table (column-major, `rows + 2` per column)
    /// is `blocks[block_starts[b]..block_starts[b + 1]]`; both empty for
    /// a sparse grid.
    block_starts: Vec<u32>,
    blocks: Vec<(Point, u32)>,
}

impl SpatialGrid {
    /// Buckets the positions into a grid of `cell`-sized squares.
    pub fn build(positions: Vec<Point>, cell: f64) -> Self {
        assert!(positions.len() < u32::MAX as usize, "too many positions to grid");
        let keys: Vec<(i64, i64)> = positions
            .iter()
            .map(|p| ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64))
            .collect();
        let mut origin = (i64::MAX, i64::MAX);
        let mut last = (i64::MIN, i64::MIN);
        for &(kx, ky) in &keys {
            origin = (origin.0.min(kx), origin.1.min(ky));
            last = (last.0.max(kx), last.1.max(ky));
        }
        let span = |lo: i64, hi: i64| (i128::from(hi) - i128::from(lo) + 1).max(0) as u128;
        let (cols, rows) = (span(origin.0, last.0), span(origin.1, last.1));
        let cap = 16 * positions.len() as u128 + 4096;
        let dense = cols.checked_mul(rows).is_some_and(|c| c <= cap);
        let mut grid = SpatialGrid {
            cell,
            origin,
            cols: if dense { cols as u64 } else { 0 },
            rows: if dense { rows as u64 } else { 0 },
            sparse_keys: Vec::new(),
            starts: Vec::new(),
            ids: vec![0; positions.len()],
            positions,
            block_starts: Vec::new(),
            blocks: Vec::new(),
        };
        if !dense {
            grid.sparse_keys = keys.clone();
            grid.sparse_keys.sort_unstable();
            grid.sparse_keys.dedup();
        }
        let slots = if dense { (cols * rows) as usize } else { grid.sparse_keys.len() };
        let slot_of: Vec<usize> = keys
            .iter()
            .map(|&(kx, ky)| grid.slot(kx, ky).expect("every position has a slot"))
            .collect();
        // Counting sort by slot, stable in insertion order.
        let mut starts = vec![0u32; slots + 1];
        for &s in &slot_of {
            starts[s + 1] += 1;
        }
        for s in 0..slots {
            starts[s + 1] += starts[s];
        }
        let mut fill = starts.clone();
        for (i, &s) in slot_of.iter().enumerate() {
            grid.ids[fill[s] as usize] = i as u32;
            fill[s] += 1;
        }
        grid.starts = starts;
        if dense {
            grid.build_blocks();
        }
        grid
    }

    /// Fills a dense grid's block table. A counting pass sizes both
    /// arrays, as the CSR table is sized, so the build allocates a fixed
    /// number of times; a table whose total would overflow its `u32`
    /// offsets is left out, and lookups then walk every ring.
    fn build_blocks(&mut self) {
        let (cols, rows) = (self.cols as i64, self.rows as i64);
        let grown_rows = rows as usize + 2;
        let grown = (cols as usize + 2) * grown_rows;
        let starts = &self.starts;
        // The CSR slot of grown cell `g`'s neighbour `(dx, dy)`, if any.
        let slot = |g: usize, (dx, dy): (i64, i64)| {
            let c = (g / grown_rows) as i64 - 1 + dx;
            let r = (g % grown_rows) as i64 - 1 + dy;
            ((0..cols).contains(&c) && (0..rows).contains(&r)).then(|| (c * rows + r) as usize)
        };
        let count = |s: usize| (starts[s + 1] - starts[s]) as u64;
        let mut block_starts = Vec::with_capacity(grown + 1);
        let mut total = 0u64;
        block_starts.push(0u32);
        for g in 0..grown {
            total += BLOCK_ORDER.iter().filter_map(|&d| slot(g, d)).map(count).sum::<u64>();
            let Ok(end) = u32::try_from(total) else { return };
            block_starts.push(end);
        }
        let mut blocks = Vec::with_capacity(total as usize);
        for g in 0..grown {
            for s in BLOCK_ORDER.iter().filter_map(|&d| slot(g, d)) {
                let ids = &self.ids[starts[s] as usize..starts[s + 1] as usize];
                blocks.extend(ids.iter().map(|&i| (self.positions[i as usize], i)));
            }
        }
        self.block_starts = block_starts;
        self.blocks = blocks;
    }

    /// The CSR slot of cell key `(kx, ky)`, if the grid has one.
    fn slot(&self, kx: i64, ky: i64) -> Option<usize> {
        if self.sparse_keys.is_empty() {
            // Unsigned wrap-around differences: an exact `origin <= k <
            // origin + size` test for any pair of i64 keys.
            let col = (kx as u64).wrapping_sub(self.origin.0 as u64);
            let row = (ky as u64).wrapping_sub(self.origin.1 as u64);
            (col < self.cols && row < self.rows).then(|| (col * self.rows + row) as usize)
        } else {
            self.sparse_keys.binary_search(&(kx, ky)).ok()
        }
    }

    /// The block of the grown-table cell holding key `(kx, ky)`, if the
    /// grid has a block table and the key lies in the grown table. The
    /// wrapping differences are `slot`'s, shifted by the one-cell border,
    /// so the block holds exactly the cells `slot` finds around the key.
    fn block(&self, kx: i64, ky: i64) -> Option<&[(Point, u32)]> {
        if self.block_starts.is_empty() {
            return None;
        }
        let col = (kx as u64).wrapping_sub(self.origin.0 as u64).wrapping_add(1);
        let row = (ky as u64).wrapping_sub(self.origin.1 as u64).wrapping_add(1);
        let grown_rows = self.rows + 2;
        (col < self.cols + 2 && row < grown_rows).then(|| {
            let b = (col * grown_rows + row) as usize;
            &self.blocks[self.block_starts[b] as usize..self.block_starts[b + 1] as usize]
        })
    }

    /// Index of the position nearest to `p`, searching expanding rings
    /// (up to 3 cells; beyond that no fingerprint can constrain anything).
    /// Cells are visited ring by ring, `dx` then `dy`, and ids in
    /// insertion order, so ties resolve to the first position met in that
    /// order. A NaN coordinate keys to cell 0 and an infinite one
    /// saturates; key arithmetic wraps, so neither can overflow.
    ///
    /// Rings 0 and 1 come from the key's block when the grid has one: the
    /// same positions in the same order, then ring 1's stopping test.
    /// Ring 0's test, `d.sqrt() < 0.0 * cell`, never holds.
    pub fn nearest(&self, p: Point) -> Option<usize> {
        let cx = (p.x / self.cell).floor() as i64;
        let cy = (p.y / self.cell).floor() as i64;
        let mut best: Option<(usize, f64)> = None;
        let mut first_ring = 0;
        if let Some(block) = self.block(cx, cy) {
            for &(q, i) in block {
                let d = q.distance_sq(p);
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((i as usize, d));
                }
            }
            if best.is_some_and(|(_, d)| d.sqrt() < self.cell) {
                return best.map(|(i, _)| i);
            }
            first_ring = 2;
        }
        for ring in first_ring..=3i64 {
            for dx in -ring..=ring {
                for dy in -ring..=ring {
                    if dx.abs() != ring && dy.abs() != ring {
                        continue; // only the ring boundary
                    }
                    let Some(s) = self.slot(cx.wrapping_add(dx), cy.wrapping_add(dy)) else {
                        continue;
                    };
                    for &i in &self.ids[self.starts[s] as usize..self.starts[s + 1] as usize] {
                        let i = i as usize;
                        let d = self.positions[i].distance_sq(p);
                        if best.is_none_or(|(_, bd)| d < bd) {
                            best = Some((i, d));
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

#[cfg(test)]
mod tests {
    use super::*;
    use uniloc_env::ApId;
    use uniloc_sensors::WifiScan;

    fn scan(pairs: &[(u32, f64)]) -> WifiScan {
        WifiScan { readings: pairs.iter().map(|&(id, r)| (ApId(id), r)).collect() }
    }

    fn entries() -> Vec<(Point, WifiScan)> {
        (0..30)
            .map(|i| {
                (
                    Point::new(i as f64 * 2.0, 0.0),
                    scan(&[(0, -40.0 - i as f64 * 2.0), (1, -50.0 - i as f64)]),
                )
            })
            .collect()
    }

    #[test]
    fn build_is_deterministic() {
        let e = entries();
        assert_eq!(SignalIndex::build(&e), SignalIndex::build(&e));
    }

    #[test]
    fn match_into_equals_linear_scoring() {
        let e = entries();
        let idx = SignalIndex::build(&e);
        let online = scan(&[(0, -52.0), (1, -55.0)]);
        let mut out = Vec::new();
        idx.match_into(&online, 3, &mut out);
        let mut linear: Vec<FingerprintMatch> = e
            .iter()
            .filter_map(|(p, fp)| {
                crate::fingerprint::RssiLike::fingerprint_distance(&online, fp)
                    .map(|d| FingerprintMatch { position: *p, distance: d })
            })
            .collect();
        linear.sort_by(|a, b| a.distance.total_cmp(&b.distance));
        linear.truncate(3);
        assert_eq!(out, linear);
    }

    #[test]
    fn non_finite_readings_stay_exact() {
        let mut e = entries();
        e.push((Point::new(99.0, 0.0), scan(&[(0, f64::NAN), (1, -55.0)])));
        let idx = SignalIndex::build(&e);
        let online = scan(&[(1, -55.0)]);
        let mut out = Vec::new();
        idx.match_into(&online, 5, &mut out);
        let mut linear: Vec<FingerprintMatch> = e
            .iter()
            .filter_map(|(p, fp)| {
                crate::fingerprint::RssiLike::fingerprint_distance(&online, fp)
                    .map(|d| FingerprintMatch { position: *p, distance: d })
            })
            .collect();
        linear.sort_by(|a, b| a.distance.total_cmp(&b.distance));
        linear.truncate(5);
        assert_eq!(out.len(), linear.len());
        for (a, b) in out.iter().zip(&linear) {
            assert_eq!(a.position, b.position);
            assert!(a.distance == b.distance || (a.distance.is_nan() && b.distance.is_nan()));
        }
    }

    #[test]
    fn empty_scan_and_zero_k_match_nothing() {
        let idx = SignalIndex::build(&entries());
        let mut out = vec![FingerprintMatch { position: Point::origin(), distance: 0.0 }];
        idx.match_into(&WifiScan::default(), 3, &mut out);
        assert!(out.is_empty());
        idx.match_into(&scan(&[(0, -50.0)]), 0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn hears_any_tracks_shared_ids() {
        let idx = SignalIndex::build(&entries());
        assert!(idx.hears_any(&scan(&[(1, -60.0)])));
        assert!(idx.hears_any(&scan(&[(1, -60.0), (7, -70.0)])));
        assert!(!idx.hears_any(&scan(&[(2, -60.0), (7, -70.0)])));
        assert!(!SignalIndex::build::<WifiScan>(&[]).hears_any(&scan(&[(0, -60.0)])));
    }

    /// The table of `positions` is the exhaustive ring search's, index
    /// included, and each distance is the brute-force minimum's bits.
    /// Non-finite points get no neighbour and are never one.
    fn assert_exact_table(positions: &[Point], case: &str) {
        let table = nearest_neighbors(positions);
        assert_eq!(table, ring_search(positions, false), "{case}: early stop changed the table");
        for (e, a) in positions.iter().enumerate() {
            let (j, d) = table[e];
            if !a.is_finite() {
                assert_eq!(j, NO_NEIGHBOR, "{case}: entry {e}");
                continue;
            }
            let brute = positions
                .iter()
                .enumerate()
                .filter(|&(f, q)| f != e && q.is_finite())
                .map(|(_, q)| a.distance_sq(*q))
                .fold(f64::INFINITY, f64::min);
            if brute == f64::INFINITY {
                assert_eq!(j, NO_NEIGHBOR, "{case}: entry {e}");
                continue;
            }
            assert_ne!(j, NO_NEIGHBOR, "{case}: entry {e}");
            assert_eq!(d.to_bits(), brute.to_bits(), "{case}: entry {e}");
            assert_eq!(d.to_bits(), a.distance_sq(positions[j as usize]).to_bits());
        }
    }

    #[test]
    fn nearest_neighbor_table_matches_brute_force() {
        // A jittered grid with duplicates, a far outlier and non-finite
        // points.
        let mut positions: Vec<Point> = (0..120)
            .map(|i| {
                Point::new((i % 12) as f64 * 1.5 + (i % 7) as f64 * 0.1, (i / 12) as f64 * 2.0)
            })
            .collect();
        positions.push(positions[5]);
        positions.push(Point::new(500.0, -80.0));
        positions.push(Point::new(f64::NAN, 1.0));
        positions.push(Point::new(3.0, f64::INFINITY));
        assert_exact_table(&positions, "jittered grid");

        // Survey-style lattices: every interior point has four neighbours
        // at exactly the same distance, so ties decide the index.
        for (step, (cols, rows)) in [(1.5, (40, 12)), (3.0, (9, 9)), (12.0, (5, 3)), (0.1, (30, 1))]
        {
            let lattice: Vec<Point> = (0..cols * rows)
                .map(|i| Point::new((i % cols) as f64 * step, (i / cols) as f64 * step))
                .collect();
            assert_exact_table(&lattice, &format!("{cols}x{rows} lattice at {step} m"));
            // The same lattice a billion meters off the origin.
            let far: Vec<Point> =
                lattice.iter().map(|p| Point::new(p.x + 1e9, p.y - 1e9)).collect();
            assert_exact_table(&far, &format!("{cols}x{rows} lattice at 1e9 m"));
        }

        // Points exactly on cell boundaries: the table's cell for m points
        // over a W × H box is max(sqrt(W·H / m), max(W, H) / m). Two corners
        // fix the box and the rest sit on multiples of that cell.
        let (w, h, m) = (37.0, 23.0, 60usize);
        let cell = (w * h / m as f64).sqrt().max(w.max(h) / m as f64);
        let mut boundary = vec![Point::new(0.0, 0.0), Point::new(w, h)];
        let per_row = (w / cell) as usize + 1;
        boundary.extend((0..m - 2).map(|i| {
            Point::new((i % per_row) as f64 * cell, ((i / per_row) as f64 * cell).min(h))
        }));
        assert_exact_table(&boundary, "cell boundaries");
        let shifted: Vec<Point> =
            boundary.iter().map(|p| Point::new(p.x - 1e9, p.y + 1e9)).collect();
        assert_exact_table(&shifted, "cell boundaries at 1e9 m");

        // Random clouds, uniform and clustered, where the nearest point
        // often lies a ring beyond a candidate found in an inner one.
        let mut rng = uniloc_rng::Rng::seed_from_u64(31);
        for n in [2usize, 3, 17, 90, 400] {
            let uniform: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..50.0), rng.gen_range(0.0..20.0)))
                .collect();
            assert_exact_table(&uniform, &format!("{n} uniform points"));
            let clustered: Vec<Point> = (0..n)
                .map(|i| {
                    let c = (i % 3) as f64 * 40.0;
                    Point::new(c + rng.gen_range(0.0..2.0), c + rng.gen_range(0.0..2.0))
                })
                .collect();
            assert_exact_table(&clustered, &format!("{n} clustered points"));
        }

        // Fewer than two finite points: no neighbours at all.
        let lone = nearest_neighbors(&[Point::origin(), Point::new(f64::NAN, 0.0)]);
        assert!(lone.iter().all(|&(j, _)| j == NO_NEIGHBOR));
    }

    #[test]
    fn grid_nearest_matches_brute_force() {
        let positions: Vec<Point> = (0..50)
            .map(|i| Point::new((i % 10) as f64 * 3.0, (i / 10) as f64 * 4.0))
            .collect();
        let grid = SpatialGrid::build(positions.clone(), 5.0);
        for qx in 0..12 {
            for qy in 0..8 {
                let q = Point::new(qx as f64 * 2.7 - 1.0, qy as f64 * 3.1 - 1.0);
                let brute = positions
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| a.distance_sq(q).total_cmp(&b.distance_sq(q)))
                    .map(|(i, _)| i)
                    .unwrap();
                let got = grid.nearest(q).unwrap();
                assert_eq!(
                    positions[got].distance_sq(q),
                    positions[brute].distance_sq(q),
                    "query {q}"
                );
            }
        }
    }

    #[test]
    fn grid_expands_rings_until_a_hit() {
        // One far-away position: the origin query only finds it on an
        // outer ring, exercising the ring expansion rather than the
        // center-cell shortcut.
        let grid = SpatialGrid::build(vec![Point::new(14.0, 0.0)], 5.0);
        assert_eq!(grid.nearest(Point::origin()), Some(0));
        // Beyond 3 rings nothing is found.
        let far = SpatialGrid::build(vec![Point::new(100.0, 100.0)], 5.0);
        assert_eq!(far.nearest(Point::origin()), None);
        // Empty grid.
        assert_eq!(SpatialGrid::build(Vec::new(), 5.0).nearest(Point::origin()), None);
    }

    #[test]
    fn wide_key_ranges_keep_sparse_slots() {
        // Two clusters a million cells apart cannot share a dense table;
        // lookups on both sides still resolve.
        let positions = vec![Point::new(1.0, 1.0), Point::new(5e6, 5e6), Point::new(2.0, 1.0)];
        let grid = SpatialGrid::build(positions, 5.0);
        assert!(!grid.sparse_keys.is_empty());
        assert_eq!(grid.nearest(Point::new(1.9, 0.0)), Some(2));
        assert_eq!(grid.nearest(Point::new(5e6 + 1.0, 5e6)), Some(1));
        assert_eq!(grid.nearest(Point::new(1e3, 1e3)), None);
    }
}
