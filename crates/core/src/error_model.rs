//! Section III: the general two-step error-modeling workflow.
//!
//! Step 1 (data collection) happens in [`crate::pipeline::collect_training`]
//! — walk a training venue with ground truth, record per-scheme
//! `(features, localization error)` tuples, split by indoor/outdoor.
//! Step 2 (regression modeling) happens here: a multiple linear regression
//! per scheme and environment with the intercept forced to zero ("the
//! localization error is zero if all coefficients are zero") — except GPS,
//! whose error the paper models as a constant Gaussian
//! (`beta_0 = 13.5 m`, `sigma_eps = 9.4 m`).
//!
//! "The offline error modeling only needs to be performed once when one
//! localization scheme is first integrated into UniLoc. The learned error
//! models can be used in new places without retraining" — hence the set is
//! serializable.

use std::collections::BTreeMap;
use uniloc_iodetect::IoState;
use uniloc_schemes::SchemeId;
use uniloc_stats::{ols, Normal, StatsError};

/// Minimum predicted error (m) — regressions with negative coefficients can
/// extrapolate below zero; a localization error is never smaller than this.
pub const MIN_PREDICTED_ERROR_M: f64 = 0.1;

/// Minimum samples needed to fit one (scheme, environment) model.
pub const MIN_TRAINING_SAMPLES: usize = 10;

/// One training tuple from the data-collection phase.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingSample {
    /// Which scheme produced the estimate.
    pub scheme: SchemeId,
    /// Indoor or outdoor (ground truth during training).
    pub indoor: bool,
    /// Feature vector (Table I ordering for the scheme).
    pub features: Vec<f64>,
    /// Measured localization error (m).
    pub error: f64,
}

/// A fitted linear error model for one (scheme, environment).
#[derive(Debug, Clone, PartialEq)]
pub struct LinearErrorModel {
    /// Intercept `beta_0` (zero for all schemes except GPS).
    pub intercept: f64,
    /// Feature coefficients `beta_1 .. beta_p`.
    pub coefficients: Vec<f64>,
    /// Residual standard deviation `sigma_eps` (drives Eq. 2).
    pub sigma: f64,
    /// Residual mean `mu_eps` (diagnostic; near zero for a good fit).
    pub residual_mean: f64,
    /// Coefficient of determination.
    pub r_squared: f64,
    /// Two-sided p-value per coefficient (Table II's significance column).
    pub p_values: Vec<f64>,
    /// Number of training observations.
    pub n_obs: usize,
}

impl LinearErrorModel {
    /// Predicts the expected localization error for a feature vector
    /// (Eq. 6), clamped to [`MIN_PREDICTED_ERROR_M`].
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the fitted coefficient count.
    pub fn predict(&self, features: &[f64]) -> f64 {
        assert_eq!(
            features.len(),
            self.coefficients.len(),
            "feature arity mismatch in error prediction"
        );
        let mut y = self.intercept;
        for (c, x) in self.coefficients.iter().zip(features) {
            y += c * x;
        }
        y.max(MIN_PREDICTED_ERROR_M)
    }
}

/// The predicted error distribution of one scheme at one location:
/// `Y_t ~ N(mean, sigma)` (Section IV-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorPrediction {
    /// Expected localization error (m).
    pub mean: f64,
    /// Residual standard deviation of the model (m).
    pub sigma: f64,
}

impl ErrorPrediction {
    /// The probability integral transform of a realized value `x`:
    /// `P(Y_t <= x)` under this prediction. Uniform on `[0, 1]` across
    /// observations exactly when the model is calibrated — the quantity
    /// the calibration monitor bins — and, evaluated at the adaptive
    /// threshold `tau`, exactly Eq. 2's confidence.
    pub fn pit(&self, x: f64) -> f64 {
        // A garbage prediction (non-finite mean) yields zero probability
        // mass below any threshold — the caller sees zero confidence and
        // excludes the scheme, instead of a panic mid-walk.
        if !self.mean.is_finite() || !x.is_finite() {
            return 0.0;
        }
        let sigma = if self.sigma.is_finite() { self.sigma.max(1e-6) } else { 1e-6 };
        Normal::new(self.mean, sigma)
            .expect("parameters validated above")
            .cdf(x)
    }

    /// The `q`-quantile of the predicted error distribution: the error
    /// bound this model claims holds with probability `q` (the value
    /// coverage diagnostics compare against realized error).
    ///
    /// # Panics
    ///
    /// Panics when `q` is outside `(0, 1)`.
    pub fn quantile(&self, q: f64) -> f64 {
        // A garbage prediction claims an unbounded error: every coverage
        // check against it fails open rather than panicking.
        if !self.mean.is_finite() {
            return f64::INFINITY;
        }
        let sigma = if self.sigma.is_finite() { self.sigma.max(1e-6) } else { 1e-6 };
        Normal::new(self.mean, sigma)
            .expect("parameters validated above")
            .quantile(q)
    }
}

/// The trained error models of all integrated schemes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ErrorModelSet {
    models: BTreeMap<SchemeId, EnvPair>,
}

#[derive(Debug, Clone, PartialEq, Default)]
struct EnvPair {
    indoor: Option<LinearErrorModel>,
    outdoor: Option<LinearErrorModel>,
}

uniloc_stats::impl_json_struct!(TrainingSample { scheme, indoor, features, error });
uniloc_stats::impl_json_struct!(LinearErrorModel {
    intercept,
    coefficients,
    sigma,
    residual_mean,
    r_squared,
    p_values,
    n_obs,
});
uniloc_stats::impl_json_struct!(ErrorPrediction { mean, sigma });
uniloc_stats::impl_json_struct!(ErrorModelSet { models });
uniloc_stats::impl_json_struct!(EnvPair { indoor, outdoor });

impl ErrorModelSet {
    /// The model for one scheme and environment, if trained.
    pub fn model(&self, scheme: SchemeId, io: IoState) -> Option<&LinearErrorModel> {
        let pair = self.models.get(&scheme)?;
        match io {
            IoState::Indoor => pair.indoor.as_ref(),
            IoState::Outdoor => pair.outdoor.as_ref(),
        }
    }

    /// Inserts/replaces a model (how a user integrates a new scheme).
    pub fn insert(&mut self, scheme: SchemeId, io: IoState, model: LinearErrorModel) {
        let pair = self.models.entry(scheme).or_default();
        match io {
            IoState::Indoor => pair.indoor = Some(model),
            IoState::Outdoor => pair.outdoor = Some(model),
        }
    }

    /// Schemes with at least one trained model.
    pub fn schemes(&self) -> impl Iterator<Item = SchemeId> + '_ {
        self.models.keys().copied()
    }

    /// Predicts the error distribution for a scheme given its current
    /// features. `None` when no model exists for this (scheme, environment)
    /// or the feature arity does not match the trained model.
    pub fn predict(
        &self,
        scheme: SchemeId,
        io: IoState,
        features: &[f64],
    ) -> Option<ErrorPrediction> {
        let m = self.model(scheme, io)?;
        if features.len() != m.coefficients.len() {
            return None;
        }
        // A non-finite feature (corrupt sensor value that slipped through
        // validation) would otherwise propagate NaN into confidences and
        // BMA weights; no prediction is strictly safer than a poisoned one.
        if features.iter().any(|f| !f.is_finite()) {
            return None;
        }
        let mean = m.predict(features);
        if !mean.is_finite() {
            return None;
        }
        Some(ErrorPrediction { mean, sigma: m.sigma })
    }
}

/// Fits error models for every `(scheme, environment)` group in the
/// training samples (Step 2 of the workflow).
///
/// Groups with fewer than [`MIN_TRAINING_SAMPLES`] observations, or with
/// degenerate (collinear) features, are skipped — the paper's framework
/// simply has no model there and excludes the scheme in that environment.
///
/// # Errors
///
/// Returns an error only when *no* model could be fitted at all.
pub fn train(samples: &[TrainingSample]) -> Result<ErrorModelSet, StatsError> {
    let mut groups: BTreeMap<(SchemeId, bool), Vec<&TrainingSample>> = BTreeMap::new();
    for s in samples {
        groups.entry((s.scheme, s.indoor)).or_default().push(s);
    }
    let mut set = ErrorModelSet::default();
    for ((scheme, indoor), group) in groups {
        if group.len() < MIN_TRAINING_SAMPLES {
            continue;
        }
        let io = if indoor { IoState::Indoor } else { IoState::Outdoor };
        let arity = group[0].features.len();
        if group.iter().any(|s| s.features.len() != arity) {
            continue; // inconsistent extraction; skip the group
        }
        let model = if arity == 0 {
            // GPS-style constant model: mean + std of the observed errors.
            let errors: Vec<f64> = group.iter().map(|s| s.error).collect();
            let mean = uniloc_stats::mean(&errors)?;
            let sigma = uniloc_stats::std_dev(&errors).unwrap_or(1.0).max(0.5);
            LinearErrorModel {
                intercept: mean,
                coefficients: vec![],
                sigma,
                residual_mean: 0.0,
                r_squared: 0.0,
                p_values: vec![],
                n_obs: errors.len(),
            }
        } else {
            let xs: Vec<&[f64]> = group.iter().map(|s| s.features.as_slice()).collect();
            let ys: Vec<f64> = group.iter().map(|s| s.error).collect();
            match ols::fit(&xs, &ys) {
                Ok(fit) => LinearErrorModel {
                    intercept: 0.0,
                    coefficients: fit.coefficients().to_vec(),
                    sigma: fit.residual_std().max(0.25),
                    residual_mean: fit.residual_mean(),
                    r_squared: fit.r_squared(),
                    p_values: fit.p_values().to_vec(),
                    n_obs: fit.n_obs(),
                },
                Err(_) => continue, // collinear features etc.
            }
        };
        set.insert(scheme, io, model);
    }
    if set.models.is_empty() {
        return Err(StatsError::InsufficientData { got: samples.len(), needed: MIN_TRAINING_SAMPLES });
    }
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(scheme: SchemeId, indoor: bool, features: Vec<f64>, error: f64) -> TrainingSample {
        TrainingSample { scheme, indoor, features, error }
    }

    fn planted_samples(beta: &[f64], n: usize, scheme: SchemeId) -> Vec<TrainingSample> {
        (0..n)
            .map(|i| {
                let f: Vec<f64> = (0..beta.len())
                    .map(|j| ((i * 7 + j * 13) % 19) as f64 * 0.5 + 0.5)
                    .collect();
                let y: f64 =
                    f.iter().zip(beta).map(|(x, b)| x * b).sum::<f64>() + ((i % 5) as f64 - 2.0) * 0.1;
                sample(scheme, true, f, y)
            })
            .collect()
    }

    #[test]
    fn recovers_planted_coefficients() {
        let samples = planted_samples(&[1.2, -0.3], 100, SchemeId::Wifi);
        let set = train(&samples).unwrap();
        let m = set.model(SchemeId::Wifi, IoState::Indoor).unwrap();
        assert!((m.coefficients[0] - 1.2).abs() < 0.1, "{:?}", m.coefficients);
        assert!((m.coefficients[1] + 0.3).abs() < 0.1);
        assert!(m.r_squared > 0.9);
        assert!(set.model(SchemeId::Wifi, IoState::Outdoor).is_none());
    }

    #[test]
    fn gps_constant_model() {
        let samples: Vec<TrainingSample> = (0..50)
            .map(|i| sample(SchemeId::Gps, false, vec![], 13.5 + (i % 10) as f64 - 4.5))
            .collect();
        let set = train(&samples).unwrap();
        let m = set.model(SchemeId::Gps, IoState::Outdoor).unwrap();
        assert!((m.intercept - 13.5).abs() < 0.5);
        assert!(m.coefficients.is_empty());
        assert!(m.sigma > 1.0);
        // Prediction needs no features and never sees the GPS sensor.
        let p = set.predict(SchemeId::Gps, IoState::Outdoor, &[]).unwrap();
        assert!((p.mean - m.intercept).abs() < 1e-12);
    }

    #[test]
    fn too_few_samples_skipped() {
        let mut samples = planted_samples(&[1.0], 100, SchemeId::Wifi);
        samples.extend(planted_samples(&[2.0], 5, SchemeId::Cellular));
        let set = train(&samples).unwrap();
        assert!(set.model(SchemeId::Cellular, IoState::Indoor).is_none());
    }

    #[test]
    fn empty_training_errors() {
        assert!(train(&[]).is_err());
    }

    #[test]
    fn prediction_clamps_to_minimum() {
        let m = LinearErrorModel {
            intercept: 0.0,
            coefficients: vec![-1.0],
            sigma: 1.0,
            residual_mean: 0.0,
            r_squared: 0.5,
            p_values: vec![0.01],
            n_obs: 50,
        };
        assert_eq!(m.predict(&[100.0]), MIN_PREDICTED_ERROR_M);
    }

    #[test]
    fn predict_rejects_wrong_arity() {
        let samples = planted_samples(&[1.0, 2.0], 60, SchemeId::Motion);
        let set = train(&samples).unwrap();
        assert!(set.predict(SchemeId::Motion, IoState::Indoor, &[1.0]).is_none());
        assert!(set.predict(SchemeId::Motion, IoState::Indoor, &[1.0, 2.0]).is_some());
    }

    #[test]
    fn json_roundtrip() {
        let samples = planted_samples(&[0.8, 0.4], 80, SchemeId::Fusion);
        let set = train(&samples).unwrap();
        let json = uniloc_stats::json::to_string(&set);
        let back: ErrorModelSet = uniloc_stats::json::from_str(&json).unwrap();
        let a = set.model(SchemeId::Fusion, IoState::Indoor).unwrap();
        let b = back.model(SchemeId::Fusion, IoState::Indoor).unwrap();
        assert!((a.coefficients[0] - b.coefficients[0]).abs() < 1e-12);
        assert_eq!(a.n_obs, b.n_obs);
    }

    #[test]
    fn insert_integrates_new_scheme() {
        let mut set = ErrorModelSet::default();
        let m = LinearErrorModel {
            intercept: 0.0,
            coefficients: vec![2.0],
            sigma: 1.5,
            residual_mean: 0.0,
            r_squared: 0.8,
            p_values: vec![0.001],
            n_obs: 30,
        };
        set.insert(SchemeId::Custom(1), IoState::Indoor, m);
        let p = set.predict(SchemeId::Custom(1), IoState::Indoor, &[3.0]).unwrap();
        assert!((p.mean - 6.0).abs() < 1e-12);
        assert_eq!(set.schemes().count(), 1);
    }
}
