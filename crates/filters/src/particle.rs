//! A generic sequential-importance-resampling particle filter.
//!
//! The motion-based PDR of [7] and the Travi-Navi-style fusion scheme both
//! maintain a cloud of particles per step: predict with the noisy step
//! model, kill particles that cross walls (weight zero), reweight by RSSI
//! likelihood (fusion only), and resample when the effective sample size
//! collapses.

use uniloc_rng::Rng;

/// One weighted hypothesis.
#[derive(Debug, Clone, PartialEq)]
pub struct Particle<S> {
    /// The hypothesis state.
    pub state: S,
    /// Importance weight (maintained normalized after updates).
    pub weight: f64,
}

/// A particle filter over states of type `S`.
///
/// # Examples
///
/// Tracking a 1-D random walk:
///
/// ```
/// use uniloc_filters::ParticleFilter;
///
/// let mut rng = uniloc_rng::Rng::seed_from_u64(1);
/// let mut pf = ParticleFilter::new((0..200).map(|i| i as f64 * 0.1));
/// // Observe the target near 5.0.
/// pf.reweight(|&x: &f64| (-(x - 5.0) * (x - 5.0)).exp());
/// let est = pf.estimate(|&x| x);
/// assert!((est - 5.0).abs() < 0.5);
/// ```
#[derive(Debug)]
pub struct ParticleFilter<S> {
    particles: Vec<Particle<S>>,
    /// Resampling scratch: the next cloud is built here and swapped in, so
    /// steady-state resampling reuses one buffer instead of allocating a
    /// fresh `Vec` per resample. Empty between calls.
    spare: Vec<Particle<S>>,
    /// Reweighting scratch: the pre-update weights, kept for the
    /// total-collapse rollback. Cleared between calls.
    prior_weights: Vec<f64>,
}

/// Scratch buffers are transient: a clone starts with empty (but
/// pre-sized) scratch, and equality compares the cloud only.
impl<S: Clone> Clone for ParticleFilter<S> {
    fn clone(&self) -> Self {
        ParticleFilter {
            particles: self.particles.clone(),
            spare: Vec::with_capacity(self.particles.len()),
            prior_weights: Vec::with_capacity(self.particles.len()),
        }
    }
}

impl<S: PartialEq> PartialEq for ParticleFilter<S> {
    fn eq(&self, other: &Self) -> bool {
        self.particles == other.particles
    }
}

impl<S: Clone> ParticleFilter<S> {
    /// Creates a filter with uniform weights over the given states.
    ///
    /// # Panics
    ///
    /// Panics when `states` is empty.
    pub fn new(states: impl IntoIterator<Item = S>) -> Self {
        let particles: Vec<Particle<S>> = states
            .into_iter()
            .map(|state| Particle { state, weight: 1.0 })
            .collect();
        assert!(!particles.is_empty(), "particle filter needs at least one particle");
        let n = particles.len();
        let mut pf = ParticleFilter {
            particles,
            spare: Vec::with_capacity(n),
            prior_weights: Vec::with_capacity(n),
        };
        pf.normalize();
        pf
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.particles.len()
    }

    /// Always false — construction rejects empty clouds.
    pub fn is_empty(&self) -> bool {
        self.particles.is_empty()
    }

    /// Read access to the cloud.
    pub fn particles(&self) -> &[Particle<S>] {
        &self.particles
    }

    /// Applies a motion model to every particle.
    pub fn predict<F>(&mut self, rng: &mut Rng, mut motion: F)
    where
        F: FnMut(&mut S, &mut Rng),
    {
        for p in &mut self.particles {
            motion(&mut p.state, rng);
        }
    }

    /// Multiplies weights by a likelihood and renormalizes.
    ///
    /// Returns `false` when every particle got zero likelihood (total
    /// collapse — e.g. all particles crossed walls); in that case the
    /// previous weights are restored so the caller can decide how to
    /// recover (typically by reinitializing around a landmark).
    pub fn reweight<F>(&mut self, mut likelihood: F) -> bool
    where
        F: FnMut(&S) -> f64,
    {
        self.prior_weights.clear();
        self.prior_weights.extend(self.particles.iter().map(|p| p.weight));
        let mut total = 0.0;
        for p in &mut self.particles {
            let l = likelihood(&p.state).max(0.0);
            p.weight *= l;
            total += p.weight;
        }
        if total <= 0.0 || !total.is_finite() {
            for (p, &w) in self.particles.iter_mut().zip(&self.prior_weights) {
                p.weight = w;
            }
            return false;
        }
        for p in &mut self.particles {
            p.weight /= total;
        }
        true
    }

    /// Normalizes weights to sum to one (uniform if all are zero).
    pub fn normalize(&mut self) {
        let total: f64 = self.particles.iter().map(|p| p.weight).sum();
        if total > 0.0 && total.is_finite() {
            for p in &mut self.particles {
                p.weight /= total;
            }
        } else {
            let w = 1.0 / self.particles.len() as f64;
            for p in &mut self.particles {
                p.weight = w;
            }
        }
    }

    /// Effective sample size `1 / sum(w_i^2)` — the standard degeneracy
    /// metric.
    pub fn effective_sample_size(&self) -> f64 {
        let s: f64 = self.particles.iter().map(|p| p.weight * p.weight).sum();
        if s > 0.0 {
            1.0 / s
        } else {
            0.0
        }
    }

    /// Systematic resampling: draws a fresh equally-weighted cloud.
    pub fn resample(&mut self, rng: &mut Rng) {
        let n = self.particles.len();
        let step = 1.0 / n as f64;
        let mut u = rng.gen_range(0.0..step);
        let mut cum = self.particles[0].weight;
        let mut i = 0usize;
        self.spare.clear();
        self.spare.reserve(n);
        for _ in 0..n {
            while u > cum && i + 1 < n {
                i += 1;
                cum += self.particles[i].weight;
            }
            self.spare.push(Particle { state: self.particles[i].state.clone(), weight: step });
            u += step;
        }
        std::mem::swap(&mut self.particles, &mut self.spare);
        self.spare.clear();
    }

    /// Resamples only when the effective sample size falls below
    /// `threshold_frac * len` (typically 0.5).
    pub fn maybe_resample(&mut self, threshold_frac: f64, rng: &mut Rng) -> bool {
        if self.effective_sample_size() < threshold_frac * self.particles.len() as f64 {
            self.resample(rng);
            true
        } else {
            false
        }
    }

    /// Weighted mean of a scalar projection of the state.
    pub fn estimate<F>(&self, mut project: F) -> f64
    where
        F: FnMut(&S) -> f64,
    {
        self.particles.iter().map(|p| p.weight * project(&p.state)).sum()
    }

    /// Weighted mean of a 2-D projection (e.g. particle position).
    pub fn estimate_xy<F>(&self, mut project: F) -> (f64, f64)
    where
        F: FnMut(&S) -> (f64, f64),
    {
        let mut x = 0.0;
        let mut y = 0.0;
        for p in &self.particles {
            let (px, py) = project(&p.state);
            x += p.weight * px;
            y += p.weight * py;
        }
        (x, y)
    }

    /// Replaces the entire cloud (e.g. reinitializing at a landmark).
    ///
    /// # Panics
    ///
    /// Panics when `states` is empty.
    pub fn reinitialize(&mut self, states: impl IntoIterator<Item = S>) {
        let particles: Vec<Particle<S>> = states
            .into_iter()
            .map(|state| Particle { state, weight: 1.0 })
            .collect();
        assert!(!particles.is_empty(), "cannot reinitialize with zero particles");
        self.particles = particles;
        self.spare.clear();
        self.spare.reserve(self.particles.len());
        self.prior_weights.clear();
        self.prior_weights.reserve(self.particles.len());
        self.normalize();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> Rng {
        Rng::seed_from_u64(seed)
    }

    #[test]
    fn new_normalizes_weights() {
        let pf = ParticleFilter::new(vec![1.0f64, 2.0, 3.0, 4.0]);
        let total: f64 = pf.particles().iter().map(|p| p.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(pf.len(), 4);
        assert!(!pf.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one particle")]
    fn empty_cloud_panics() {
        ParticleFilter::<f64>::new(vec![]);
    }

    #[test]
    fn reweight_concentrates_mass() {
        let mut pf = ParticleFilter::new((0..100).map(|i| i as f64));
        assert!(pf.reweight(|&x| if (40.0..=60.0).contains(&x) { 1.0 } else { 0.0 }));
        let est = pf.estimate(|&x| x);
        assert!((est - 50.0).abs() < 1.0);
        // ESS dropped from 100 to ~21.
        assert!(pf.effective_sample_size() < 25.0);
    }

    #[test]
    fn reweight_total_collapse_restores_weights() {
        let mut pf = ParticleFilter::new(vec![1.0f64, 2.0]);
        let before: Vec<f64> = pf.particles().iter().map(|p| p.weight).collect();
        assert!(!pf.reweight(|_| 0.0));
        let after: Vec<f64> = pf.particles().iter().map(|p| p.weight).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn resample_prefers_heavy_particles() {
        let mut pf = ParticleFilter::new((0..50).map(|i| i as f64));
        pf.reweight(|&x| if x == 7.0 { 1.0 } else { 1e-6 });
        pf.resample(&mut rng(1));
        let sevens = pf.particles().iter().filter(|p| p.state == 7.0).count();
        assert!(sevens > 45, "resampling should clone the dominant particle, got {sevens}");
        // Weights equalized.
        let w = pf.particles()[0].weight;
        assert!(pf.particles().iter().all(|p| (p.weight - w).abs() < 1e-12));
    }

    #[test]
    fn maybe_resample_only_on_degeneracy() {
        let mut pf = ParticleFilter::new((0..10).map(|i| i as f64));
        assert!(!pf.maybe_resample(0.5, &mut rng(2)), "uniform cloud must not resample");
        pf.reweight(|&x| if x < 2.0 { 1.0 } else { 1e-9 });
        assert!(pf.maybe_resample(0.5, &mut rng(3)));
    }

    #[test]
    fn predict_applies_motion() {
        let mut pf = ParticleFilter::new(vec![0.0f64; 10]);
        pf.predict(&mut rng(4), |s, _| *s += 2.0);
        assert!(pf.particles().iter().all(|p| p.state == 2.0));
    }

    #[test]
    fn estimate_xy_weighted_mean() {
        let mut pf = ParticleFilter::new(vec![(0.0f64, 0.0f64), (10.0, 20.0)]);
        pf.reweight(|_| 1.0);
        let (x, y) = pf.estimate_xy(|&(a, b)| (a, b));
        assert!((x - 5.0).abs() < 1e-12);
        assert!((y - 10.0).abs() < 1e-12);
    }

    #[test]
    fn reinitialize_replaces_cloud() {
        let mut pf = ParticleFilter::new(vec![1.0f64]);
        pf.reinitialize(vec![5.0, 6.0, 7.0]);
        assert_eq!(pf.len(), 3);
        let total: f64 = pf.particles().iter().map(|p| p.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn systematic_resampling_preserves_the_mean() {
        let mut pf = ParticleFilter::new((0..300).map(|i| i as f64 * 0.1));
        pf.reweight(|x: &f64| (-(x - 15.0) * (x - 15.0) / 8.0).exp());
        let before = pf.estimate(|&x| x);
        pf.resample(&mut rng(11));
        let after = pf.estimate(|&x| x);
        assert!((before - after).abs() < 1.0, "weighted {before} vs resampled {after}");
    }

    #[test]
    fn tracking_a_moving_target() {
        // A target moves +1 per tick; the filter tracks it through noisy
        // observations.
        let mut r = rng(5);
        let mut pf = ParticleFilter::new((0..300).map(|i| i as f64 * 0.1));
        let mut target = 3.0;
        for _ in 0..30 {
            target += 1.0;
            pf.predict(&mut r, |s, rng| *s += 1.0 + rng.gen_range(-0.3..0.3));
            let obs = target + 0.2;
            pf.reweight(|&x| (-(x - obs) * (x - obs) / 2.0).exp());
            pf.maybe_resample(0.5, &mut r);
        }
        let est = pf.estimate(|&x| x);
        assert!((est - target).abs() < 1.0, "est {est} vs target {target}");
    }
}
