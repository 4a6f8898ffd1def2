//! Deterministic spatially-correlated noise fields.
//!
//! Lognormal shadowing makes RSSI vary from place to place — but for
//! fingerprinting to work at all, that variation must be *stable across
//! revisits*: the offline survey and the online measurement at the same
//! location must see (almost) the same shadowing. [`SpatialNoise`] provides
//! such a field: a seeded value-noise lattice with bilinear interpolation,
//! so nearby points get correlated values and the same point always gets the
//! same value. Fast temporal fading is added separately (and randomly) at
//! measurement time.

use uniloc_geom::{Point, Rect};
use uniloc_rng::splitmix64;

fn hash_node(seed: u64, salt: u64, ix: i64, iy: i64) -> u64 {
    let mut h = splitmix64(&mut (seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F)));
    h = splitmix64(&mut (h ^ (ix as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB)));
    splitmix64(&mut (h ^ (iy as u64).wrapping_mul(0x8EBC_6AF0_9C88_C6E3)))
}

/// Maps a 64-bit hash to an approximately standard-normal value by summing
/// twelve uniforms (Irwin–Hall); ample for shadowing.
fn gaussian_from_hash(h: u64) -> f64 {
    let mut s = 0.0;
    let mut x = h;
    for _ in 0..12 {
        x = splitmix64(&mut x);
        s += (x >> 11) as f64 / (1u64 << 53) as f64;
    }
    s - 6.0
}

/// A seeded, smooth, zero-mean Gaussian field over the map plane.
///
/// # Examples
///
/// ```
/// use uniloc_env::SpatialNoise;
/// use uniloc_geom::Point;
///
/// let field = SpatialNoise::new(42, 4.0, 6.0);
/// let a = field.sample(1, Point::new(10.0, 10.0));
/// // Deterministic: the same query always returns the same value.
/// assert_eq!(a, field.sample(1, Point::new(10.0, 10.0)));
/// // Different salts give independent fields.
/// assert_ne!(a, field.sample(2, Point::new(10.0, 10.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpatialNoise {
    seed: u64,
    /// Lattice cell size in meters (correlation distance).
    cell_m_milli: u64,
    /// Field standard deviation, scaled by 1000 to keep Eq/Hash derivable.
    sigma_milli: u64,
}

impl SpatialNoise {
    /// Creates a field with the given `seed`, correlation `cell` size
    /// (meters) and standard deviation `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `cell <= 0` or `sigma < 0`.
    pub fn new(seed: u64, cell: f64, sigma: f64) -> Self {
        assert!(cell > 0.0, "cell size must be positive");
        assert!(sigma >= 0.0, "sigma must be non-negative");
        SpatialNoise {
            seed,
            cell_m_milli: (cell * 1000.0).round() as u64,
            sigma_milli: (sigma * 1000.0).round() as u64,
        }
    }

    fn cell(&self) -> f64 {
        self.cell_m_milli as f64 / 1000.0
    }

    /// Field standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma_milli as f64 / 1000.0
    }

    /// Samples the field for stream `salt` (e.g. one access-point id per
    /// stream) at point `p`. Returns a value with standard deviation
    /// [`SpatialNoise::sigma`], smoothly varying in space.
    pub fn sample(&self, salt: u64, p: Point) -> f64 {
        self.interpolate(p, |ix, iy| self.node(salt, ix, iy))
    }

    /// The unit-variance lattice value of stream `salt` at node `(ix, iy)`
    /// (the node at `(ix * cell, iy * cell)` meters). A pure function of
    /// the seed, the salt and the node; never NaN.
    fn node(&self, salt: u64, ix: i64, iy: i64) -> f64 {
        gaussian_from_hash(hash_node(self.seed, salt, ix, iy))
    }

    /// Smoothstep-bilinear blend of the four lattice nodes around `p`,
    /// scaled by sigma. The one interpolation routine: [`Self::sample`]
    /// and [`NoiseMemo::sample`] differ only in where `node` reads from.
    fn interpolate(&self, p: Point, mut node: impl FnMut(i64, i64) -> f64) -> f64 {
        let cell = self.cell();
        let gx = p.x / cell;
        let gy = p.y / cell;
        let ix = gx.floor() as i64;
        let iy = gy.floor() as i64;
        let fx = gx - ix as f64;
        let fy = gy - iy as f64;
        // Smoothstep for C1 continuity.
        let sx = fx * fx * (3.0 - 2.0 * fx);
        let sy = fy * fy * (3.0 - 2.0 * fy);
        // `floor() as i64` saturates for huge or infinite coordinates, so
        // the far neighbours wrap rather than overflow.
        let (jx, jy) = (ix.wrapping_add(1), iy.wrapping_add(1));
        let n00 = node(ix, iy);
        let n10 = node(jx, iy);
        let n01 = node(ix, jy);
        let n11 = node(jx, jy);
        let a = n00 * (1.0 - sx) + n10 * sx;
        let b = n01 * (1.0 - sx) + n11 * sx;
        (a * (1.0 - sy) + b * sy) * self.sigma()
    }
}

/// Nodes per stream above which a [`NoiseMemo`] covers nothing (every
/// node is then a miss). 2^18 nodes is a 2 km square at the 4 m cell; the
/// benchmark venues need at most a few thousand.
const MAX_MEMO_NODES: u64 = 1 << 18;

/// A [`SpatialNoise`] field with its lattice nodes memoized over one
/// rectangle, for a fixed list of streams (salts).
///
/// A survey or a walk samples the same few hundred nodes per stream over
/// and over: every point of a 1 m survey grid reads four nodes of a 4 m
/// lattice. The memo keeps one dense row-major array of node values per
/// stream, covering the nodes of `area`; each array is allocated on the
/// stream's first query and each node is computed on its first read. NaN
/// marks "not yet computed": a node value is a finite sum minus 6, never
/// NaN. A node outside the rectangle is computed directly, which is a
/// cache miss, not a second formula. Both paths feed the same
/// interpolation routine, so
/// `memo.sample(i, p)` equals `field.sample(salts[i], p)` bit for bit for
/// every `p`, NaN coordinates included.
///
/// # Examples
///
/// ```
/// use uniloc_env::noise::{NoiseMemo, SpatialNoise};
/// use uniloc_geom::{Point, Rect};
///
/// let field = SpatialNoise::new(42, 4.0, 6.0);
/// let area = Rect::new(Point::new(0.0, 0.0), Point::new(40.0, 20.0))?;
/// let mut memo = NoiseMemo::new(field, vec![7, 9], area);
/// for p in [Point::new(10.0, 10.0), Point::new(-300.0, 5.0)] {
///     assert_eq!(memo.sample(1, p).to_bits(), field.sample(9, p).to_bits());
/// }
/// # Ok::<(), uniloc_geom::GeomError>(())
/// ```
#[derive(Debug)]
pub struct NoiseMemo {
    field: SpatialNoise,
    salts: Vec<u64>,
    /// Lattice index of the rectangle's lower-left node.
    x0: i64,
    y0: i64,
    /// Nodes per row and per column (both 0 when the memo covers nothing).
    nx: i64,
    ny: i64,
    /// Per stream: `nx * ny` node values, row-major; empty until the
    /// stream's first query.
    nodes: Vec<Vec<f64>>,
}

impl NoiseMemo {
    /// A memo of `field` for the streams `salts` (stream `i` is salt
    /// `salts[i]`), covering every lattice node that a sample inside
    /// `area` reads.
    pub fn new(field: SpatialNoise, salts: Vec<u64>, area: Rect) -> Self {
        let cell = field.cell();
        let lo = |v: f64| (v / cell).floor() as i64;
        let (x0, y0) = (lo(area.min().x), lo(area.min().y));
        // A sample reads nodes `floor(g)` and `floor(g) + 1`.
        let nx = lo(area.max().x).saturating_sub(x0).saturating_add(2);
        let ny = lo(area.max().y).saturating_sub(y0).saturating_add(2);
        let fits = (nx as u64)
            .checked_mul(ny as u64)
            .is_some_and(|n| n <= MAX_MEMO_NODES);
        let (nx, ny) = if fits { (nx, ny) } else { (0, 0) };
        let nodes = vec![Vec::new(); salts.len()];
        NoiseMemo {
            field,
            salts,
            x0,
            y0,
            nx,
            ny,
            nodes,
        }
    }

    /// The memoized field.
    pub(crate) fn field(&self) -> &SpatialNoise {
        &self.field
    }

    /// Number of streams.
    pub(crate) fn streams(&self) -> usize {
        self.salts.len()
    }

    /// Samples stream `stream` at `p`: exactly
    /// `self.field().sample(salts[stream], p)`.
    ///
    /// # Panics
    ///
    /// Panics if `stream` is not below the number of salts.
    pub fn sample(&mut self, stream: usize, p: Point) -> f64 {
        let field = self.field;
        field.interpolate(p, |ix, iy| self.node(stream, ix, iy))
    }

    fn node(&mut self, stream: usize, ix: i64, iy: i64) -> f64 {
        let salt = self.salts[stream];
        let Some(slot) = self.slot(ix, iy) else {
            return self.field.node(salt, ix, iy);
        };
        let table = &mut self.nodes[stream];
        if table.is_empty() {
            *table = vec![f64::NAN; (self.nx * self.ny) as usize];
        }
        let cached = table[slot];
        if !cached.is_nan() {
            return cached;
        }
        let v = self.field.node(salt, ix, iy);
        table[slot] = v;
        v
    }

    /// Row-major slot of node `(ix, iy)`, or `None` outside the rectangle.
    /// Checked subtraction keeps saturated lattice indices from wrapping
    /// into range.
    fn slot(&self, ix: i64, iy: i64) -> Option<usize> {
        let dx = ix.checked_sub(self.x0)?;
        let dy = iy.checked_sub(self.y0)?;
        ((0..self.nx).contains(&dx) && (0..self.ny).contains(&dy))
            .then(|| (dy * self.nx + dx) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let a = SpatialNoise::new(7, 4.0, 6.0);
        let b = SpatialNoise::new(7, 4.0, 6.0);
        for i in 0..50 {
            let p = Point::new(i as f64 * 1.7, (i * i % 13) as f64);
            assert_eq!(a.sample(3, p), b.sample(3, p));
        }
    }

    #[test]
    fn different_seeds_decorrelate() {
        let a = SpatialNoise::new(1, 4.0, 6.0);
        let b = SpatialNoise::new(2, 4.0, 6.0);
        let p = Point::new(10.0, 20.0);
        assert_ne!(a.sample(0, p), b.sample(0, p));
    }

    #[test]
    fn spatial_continuity() {
        let f = SpatialNoise::new(9, 4.0, 6.0);
        // Values 10 cm apart differ much less than sigma.
        for i in 0..100 {
            let p = Point::new(i as f64 * 0.37, i as f64 * 0.11);
            let q = Point::new(p.x + 0.1, p.y);
            assert!((f.sample(5, p) - f.sample(5, q)).abs() < 2.0);
        }
    }

    #[test]
    fn distribution_roughly_standard() {
        let f = SpatialNoise::new(11, 4.0, 1.0);
        let mut vals = Vec::new();
        for i in 0..60 {
            for j in 0..60 {
                // Sample at lattice nodes (independent values).
                vals.push(f.sample(1, Point::new(i as f64 * 4.0, j as f64 * 4.0)));
            }
        }
        let n = vals.len() as f64;
        let mean = vals.iter().sum::<f64>() / n;
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn sigma_scales_field() {
        let f1 = SpatialNoise::new(3, 4.0, 1.0);
        let f6 = SpatialNoise::new(3, 4.0, 6.0);
        let p = Point::new(12.3, 45.6);
        assert!((f6.sample(7, p) - 6.0 * f1.sample(7, p)).abs() < 1e-9);
    }

    #[test]
    fn zero_sigma_is_flat() {
        let f = SpatialNoise::new(3, 4.0, 0.0);
        assert_eq!(f.sample(1, Point::new(5.0, 5.0)), 0.0);
    }

    #[test]
    #[should_panic(expected = "cell size must be positive")]
    fn rejects_zero_cell() {
        SpatialNoise::new(0, 0.0, 1.0);
    }

    /// A rectangle too large to memoize (every node would be a 4 m node of
    /// a 10^6 m square) memoizes nothing and still answers exactly.
    #[test]
    fn oversized_area_memoizes_nothing() {
        let f = SpatialNoise::new(5, 4.0, 2.0);
        let area = Rect::new(Point::new(-5e5, -5e5), Point::new(5e5, 5e5)).unwrap();
        let mut memo = NoiseMemo::new(f, vec![1, 2], area);
        assert_eq!(memo.nx * memo.ny, 0);
        for p in [Point::new(0.0, 0.0), Point::new(-17.3, 4.4), Point::new(4e5, -3e5)] {
            assert_eq!(memo.sample(1, p).to_bits(), f.sample(2, p).to_bits());
        }
        assert!(memo.nodes.iter().all(Vec::is_empty));
    }

    #[test]
    fn negative_coordinates_work() {
        let f = SpatialNoise::new(5, 4.0, 2.0);
        let v = f.sample(1, Point::new(-17.3, -4.4));
        assert!(v.is_finite());
        assert_eq!(v, f.sample(1, Point::new(-17.3, -4.4)));
    }
}
