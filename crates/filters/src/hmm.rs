//! Second-order HMM grid location predictor.
//!
//! UniLoc needs the user's (approximate) location *before* the WiFi scheme
//! produces one, to compute the online fingerprint-density feature
//! (`beta_1`): "to calculate the value of factor beta_1, we estimate the
//! user's location based on the existing location prediction methods [...]
//! In our current implementation, we use a second order HMM."
//!
//! States are the fingerprint grid locations. The transition model is
//! second-order: given the last two smoothed positions, the walker is
//! expected to continue with the same displacement; states near the
//! extrapolated point get high transition probability. The observation
//! model is a Gaussian kernel around the latest (noisy) location evidence.

use uniloc_geom::Point;

/// A discrete-grid second-order HMM location filter.
///
/// # Examples
///
/// ```
/// use uniloc_filters::Hmm2Predictor;
/// use uniloc_geom::Point;
///
/// // A 1-D corridor of candidate locations every meter.
/// let grid: Vec<Point> = (0..50).map(|i| Point::new(i as f64, 0.0)).collect();
/// let mut hmm = Hmm2Predictor::new(grid, 2.0, 4.0)?;
/// // Feed noisy observations of a walker moving east 1 m per epoch.
/// let mut est = Point::new(0.0, 0.0);
/// for i in 0..20 {
///     let obs = Point::new(i as f64 + 0.8, 0.0);
///     est = hmm.observe(obs);
/// }
/// // The smoothed track follows the walker (with a small smoothing lag).
/// assert!((est.x - 19.8).abs() < 4.0);
/// // The second-order prediction extrapolates the motion.
/// let next = hmm.predict_next().unwrap();
/// assert!(next.x > est.x);
/// # Ok::<(), &'static str>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Hmm2Predictor {
    states: Vec<Point>,
    belief: Vec<f64>,
    prev_mean: Option<Point>,
    prev_prev_mean: Option<Point>,
    trans_sigma: f64,
    obs_sigma: f64,
}

impl Hmm2Predictor {
    /// Creates a predictor over `states` (typically the fingerprint grid).
    ///
    /// `trans_sigma` is the motion-model spread (m), `obs_sigma` the
    /// observation spread (m).
    ///
    /// # Errors
    ///
    /// Returns an error message when `states` is empty or sigmas are not
    /// positive.
    pub fn new(states: Vec<Point>, trans_sigma: f64, obs_sigma: f64) -> Result<Self, &'static str> {
        if states.is_empty() {
            return Err("Hmm2Predictor needs at least one state");
        }
        if trans_sigma <= 0.0 || obs_sigma <= 0.0 {
            return Err("Hmm2Predictor sigmas must be positive");
        }
        let n = states.len();
        Ok(Hmm2Predictor {
            states,
            belief: vec![1.0 / n as f64; n],
            prev_mean: None,
            prev_prev_mean: None,
            trans_sigma,
            obs_sigma,
        })
    }

    /// Current belief over the states (sums to one).
    pub fn belief(&self) -> &[f64] {
        &self.belief
    }

    /// Incorporates one noisy location observation and returns the smoothed
    /// position estimate (belief-weighted mean).
    pub fn observe(&mut self, obs: Point) -> Point {
        // Second-order extrapolation from the two previous means.
        let expected = match (self.prev_mean, self.prev_prev_mean) {
            (Some(m1), Some(m2)) => Some(m1 + (m1 - m2)),
            (Some(m1), None) => Some(m1),
            _ => None,
        };
        let t2 = 2.0 * self.trans_sigma * self.trans_sigma;
        let o2 = 2.0 * self.obs_sigma * self.obs_sigma;
        let mut total = 0.0;
        for (i, s) in self.states.iter().enumerate() {
            let trans = match expected {
                Some(e) => (-s.distance_sq(e) / t2).exp(),
                None => 1.0,
            };
            let observation = (-s.distance_sq(obs) / o2).exp();
            let post = trans * observation;
            self.belief[i] = post;
            total += post;
        }
        if total > 0.0 && total.is_finite() {
            for b in &mut self.belief {
                *b /= total;
            }
        } else {
            // Degenerate: reset to the observation kernel alone.
            let mut t = 0.0;
            for (i, s) in self.states.iter().enumerate() {
                let w = (-s.distance_sq(obs) / o2).exp();
                self.belief[i] = w;
                t += w;
            }
            if t > 0.0 {
                for b in &mut self.belief {
                    *b /= t;
                }
            } else {
                let u = 1.0 / self.states.len() as f64;
                self.belief.fill(u);
            }
        }
        let mean = self.mean();
        self.prev_prev_mean = self.prev_mean;
        self.prev_mean = Some(mean);
        mean
    }

    /// The belief-weighted mean position.
    pub fn mean(&self) -> Point {
        let mut x = 0.0;
        let mut y = 0.0;
        for (s, b) in self.states.iter().zip(&self.belief) {
            x += s.x * b;
            y += s.y * b;
        }
        Point::new(x, y)
    }

    /// Second-order prediction of the *next* position (before any
    /// observation arrives) — what the feature extractor uses.
    pub fn predict_next(&self) -> Option<Point> {
        match (self.prev_mean, self.prev_prev_mean) {
            (Some(m1), Some(m2)) => Some(m1 + (m1 - m2)),
            (Some(m1), None) => Some(m1),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corridor_grid() -> Vec<Point> {
        (0..60).map(|i| Point::new(i as f64, 0.0)).collect()
    }

    #[test]
    fn construction_validation() {
        assert!(Hmm2Predictor::new(vec![], 1.0, 1.0).is_err());
        assert!(Hmm2Predictor::new(corridor_grid(), 0.0, 1.0).is_err());
        assert!(Hmm2Predictor::new(corridor_grid(), 1.0, -1.0).is_err());
        assert!(Hmm2Predictor::new(corridor_grid(), 2.0, 3.0).is_ok());
    }

    #[test]
    fn single_observation_pulls_mean() {
        let mut hmm = Hmm2Predictor::new(corridor_grid(), 2.0, 3.0).unwrap();
        let est = hmm.observe(Point::new(30.0, 0.0));
        assert!((est.x - 30.0).abs() < 2.0, "est {est}");
    }

    #[test]
    fn belief_stays_normalized() {
        let mut hmm = Hmm2Predictor::new(corridor_grid(), 2.0, 3.0).unwrap();
        for i in 0..10 {
            hmm.observe(Point::new(i as f64 * 2.0, 0.0));
            let total: f64 = hmm.belief().iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn tracks_and_extrapolates_motion() {
        let mut hmm = Hmm2Predictor::new(corridor_grid(), 2.5, 4.0).unwrap();
        let mut last = Point::origin();
        for i in 0..25 {
            last = hmm.observe(Point::new(i as f64 * 1.5 + 0.4, 0.0));
        }
        let next = hmm.predict_next().unwrap();
        assert!(next.x > last.x, "prediction must lead the track");
        assert!((next.x - last.x) < 4.0, "prediction must stay physical");
    }

    #[test]
    fn smooths_observation_outliers() {
        let mut hmm = Hmm2Predictor::new(corridor_grid(), 2.0, 3.0).unwrap();
        for i in 0..10 {
            hmm.observe(Point::new(i as f64, 0.0));
        }
        // A wild outlier at x = 55 while the walker is near 10.
        let est = hmm.observe(Point::new(55.0, 0.0));
        assert!(est.x < 35.0, "outlier must be damped, got {est}");
    }

    #[test]
    fn far_observation_recovers_gracefully() {
        let mut hmm = Hmm2Predictor::new(corridor_grid(), 2.0, 2.0).unwrap();
        for i in 0..5 {
            hmm.observe(Point::new(i as f64, 0.0));
        }
        // Persistent evidence at the far end eventually wins.
        let mut est = Point::origin();
        for _ in 0..10 {
            est = hmm.observe(Point::new(55.0, 0.0));
        }
        assert!(est.x > 45.0, "belief should follow persistent evidence, got {est}");
    }

    #[test]
    fn predict_before_observations_is_none() {
        let hmm = Hmm2Predictor::new(corridor_grid(), 2.0, 3.0).unwrap();
        assert!(hmm.predict_next().is_none());
    }
}
