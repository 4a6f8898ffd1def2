//! Ordinary least squares with inference output.
//!
//! The heart of UniLoc's error modeling (Section III of the paper) is the
//! multiple linear regression of Eq. 1:
//!
//! ```text
//! y_i = beta_0 + beta_1 x_1i + ... + beta_p x_pi + eps_i
//! ```
//!
//! where `y_i` is the measured localization error at the i-th survey location
//! and `x_ji` are the sensor-data features of Table I. The paper fixes
//! `beta_0 = 0` ("the localization error is zero if all coefficients are
//! zero"), so [`fit`] fits no intercept.
//! Table II reports, per coefficient, the estimate and its p-value, plus the
//! residual mean `mu_eps`, residual deviation `sigma_eps`, and `R^2` — all of
//! which [`OlsFit`] exposes.

use crate::dist::StudentT;
use crate::matrix::Matrix;
use crate::{Result, StatsError};

/// Fits `y ~ X` by ordinary least squares, with no intercept (the paper's
/// `beta_0 = 0`).
///
/// `xs` holds one row of regressors per observation; all rows must share
/// one length `p >= 1`.
///
/// # Errors
///
/// * [`StatsError::InsufficientData`] — fewer observations than
///   parameters plus one, or empty input.
/// * [`StatsError::DimensionMismatch`] — ragged rows or `xs.len() !=
///   ys.len()`.
/// * [`StatsError::Singular`] — collinear regressors.
/// * [`StatsError::NonFinite`] — NaN/inf in the inputs.
///
/// # Examples
///
/// ```
/// use uniloc_stats::ols;
///
/// // Noisy y = 3 x1 + 1 x2.
/// let xs: Vec<Vec<f64>> = (0..30)
///     .map(|i| vec![i as f64 * 0.1, ((i * 7) % 13) as f64 * 0.2])
///     .collect();
/// let ys: Vec<f64> = xs
///     .iter()
///     .enumerate()
///     .map(|(i, r)| 3.0 * r[0] + r[1] + if i % 2 == 0 { 0.01 } else { -0.01 })
///     .collect();
/// let fit = ols::fit(&xs, &ys)?;
/// assert!((fit.coefficients()[0] - 3.0).abs() < 0.05);
/// assert!(fit.r_squared() > 0.99);
/// # Ok::<(), uniloc_stats::StatsError>(())
/// ```
pub fn fit<R: AsRef<[f64]>>(xs: &[R], ys: &[f64]) -> Result<OlsFit> {
    if xs.len() != ys.len() {
        return Err(StatsError::DimensionMismatch {
            context: "ols::fit (xs vs ys length)",
            got: (xs.len(), 1),
            expected: (ys.len(), 1),
        });
    }
    if xs.is_empty() {
        return Err(StatsError::InsufficientData { got: 0, needed: 2 });
    }
    let p = xs[0].as_ref().len();
    if p == 0 {
        return Err(StatsError::InsufficientData { got: 0, needed: 1 });
    }
    let n = xs.len();
    if n <= p {
        return Err(StatsError::InsufficientData { got: n, needed: p + 1 });
    }
    // Build the design matrix.
    let mut design = Matrix::zeros(n, p);
    for (i, row) in xs.iter().enumerate() {
        let row = row.as_ref();
        if row.len() != p {
            return Err(StatsError::DimensionMismatch {
                context: "ols::fit (ragged xs)",
                got: (1, row.len()),
                expected: (1, p),
            });
        }
        for (j, &v) in row.iter().enumerate() {
            if !v.is_finite() {
                return Err(StatsError::NonFinite("regressor"));
            }
            design[(i, j)] = v;
        }
    }
    if ys.iter().any(|v| !v.is_finite()) {
        return Err(StatsError::NonFinite("response"));
    }

    // Normal equations: (X^T X) beta = X^T y, solved via Cholesky.
    let gram = design.gram();
    let xty = design.transpose().matmul(&Matrix::column(ys)?)?;
    let l = gram.cholesky()?;
    let beta = solve_cholesky(&l, &xty);

    // Residuals and diagnostics.
    let mut residuals = Vec::with_capacity(n);
    let mut ss_res = 0.0;
    for i in 0..n {
        let mut yhat = 0.0;
        for j in 0..p {
            yhat += design[(i, j)] * beta[j];
        }
        let r = ys[i] - yhat;
        residuals.push(r);
        ss_res += r * r;
    }
    // Total sum of squares: without an intercept, the conventional
    // (uncentered) definition sum(y^2).
    let ss_tot: f64 = ys.iter().map(|y| y * y).sum();
    let r_squared = if ss_tot > 0.0 { 1.0 - ss_res / ss_tot } else { 0.0 };
    let dof = (n - p) as f64;
    let sigma2 = ss_res / dof;

    // Covariance of beta: sigma^2 (X^T X)^-1 ; the standard errors are the
    // diagonal square roots, and each t statistic's two-sided tail is the
    // coefficient's p-value.
    let gram_inv = gram.inverse()?;
    let mut p_values = Vec::with_capacity(p);
    let t_dist = StudentT::new(dof)?;
    for j in 0..p {
        let se = (sigma2 * gram_inv[(j, j)]).max(0.0).sqrt();
        let t = if se > 0.0 { beta[j] / se } else { f64::INFINITY };
        p_values.push(if t.is_finite() { t_dist.p_value_two_sided(t) } else { 0.0 });
    }

    let residual_mean = residuals.iter().sum::<f64>() / n as f64;
    let residual_std = (residuals
        .iter()
        .map(|r| (r - residual_mean) * (r - residual_mean))
        .sum::<f64>()
        / dof)
        .sqrt();

    Ok(OlsFit { coefficients: beta, p_values, residual_mean, residual_std, r_squared, n_obs: n })
}

/// Solves `L L^T x = b` given the Cholesky factor `L` (single-column `b`).
fn solve_cholesky(l: &Matrix, b: &Matrix) -> Vec<f64> {
    let n = l.rows();
    // Forward: L z = b.
    let mut z = vec![0.0; n];
    for i in 0..n {
        let mut s = b[(i, 0)];
        for k in 0..i {
            s -= l[(i, k)] * z[k];
        }
        z[i] = s / l[(i, i)];
    }
    // Backward: L^T x = z.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = z[i];
        for k in (i + 1)..n {
            s -= l[(k, i)] * x[k];
        }
        x[i] = s / l[(i, i)];
    }
    x
}

/// The result of an OLS fit: estimates plus the inference quantities UniLoc's
/// Table II reports.
#[derive(Debug, Clone, PartialEq)]
pub struct OlsFit {
    coefficients: Vec<f64>,
    p_values: Vec<f64>,
    residual_mean: f64,
    residual_std: f64,
    r_squared: f64,
    n_obs: usize,
}

impl OlsFit {
    /// Fitted coefficients, in input order.
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Two-sided p-value of each coefficient — the significance column of the
    /// paper's Table II ("a pvalue less than .05 indicates that the feature
    /// is significant given the other features in the model").
    pub fn p_values(&self) -> &[f64] {
        &self.p_values
    }

    /// Residual mean `mu_eps` (should sit near zero; Table II).
    pub fn residual_mean(&self) -> f64 {
        self.residual_mean
    }

    /// Residual standard deviation `sigma_eps` — the spread the confidence
    /// computation of Eq. 2 uses.
    pub fn residual_std(&self) -> f64 {
        self.residual_std
    }

    /// Uncentered coefficient of determination `R^2` (no intercept).
    pub fn r_squared(&self) -> f64 {
        self.r_squared
    }

    /// Number of observations used by the fit.
    pub fn n_obs(&self) -> usize {
        self.n_obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniloc_rng::Rng;

    fn noisy_dataset(n: usize, betas: &[f64], noise: f64, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let row: Vec<f64> = (0..betas.len()).map(|_| rng.gen_range(0.0..10.0)).collect();
            let eps = if noise > 0.0 { rng.gen_range(-noise..noise) } else { 0.0 };
            let y: f64 = row.iter().zip(betas).map(|(x, b)| x * b).sum::<f64>() + eps;
            xs.push(row);
            ys.push(y);
        }
        (xs, ys)
    }

    #[test]
    fn recovers_exact_coefficients_without_noise() {
        let (xs, ys) = noisy_dataset(50, &[1.5, -2.0, 0.3], 0.0, 1);
        let fit = fit(&xs, &ys).unwrap();
        assert!((fit.coefficients()[0] - 1.5).abs() < 1e-9);
        assert!((fit.coefficients()[1] + 2.0).abs() < 1e-9);
        assert!((fit.coefficients()[2] - 0.3).abs() < 1e-9);
        assert!(fit.r_squared() > 0.999999);
    }

    #[test]
    fn recovers_coefficients_under_noise() {
        let (xs, ys) = noisy_dataset(500, &[2.5, 0.8], 0.5, 2);
        let fit = fit(&xs, &ys).unwrap();
        assert!((fit.coefficients()[0] - 2.5).abs() < 0.05);
        assert!((fit.coefficients()[1] - 0.8).abs() < 0.05);
        // Both regressors are strongly significant.
        assert!(fit.p_values().iter().all(|&p| p < 1e-6));
    }

    #[test]
    fn irrelevant_feature_has_large_p_value() {
        let mut rng = Rng::seed_from_u64(3);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..300 {
            let x1: f64 = rng.gen_range(0.0..10.0);
            let junk: f64 = rng.gen_range(0.0..10.0);
            xs.push(vec![x1, junk]);
            ys.push(3.0 * x1 + rng.gen_range(-2.0..2.0));
        }
        let fit = fit(&xs, &ys).unwrap();
        assert!(fit.p_values()[0] < 1e-6, "real feature must be significant");
        assert!(fit.p_values()[1] > 0.05, "junk feature must be insignificant");
    }

    #[test]
    fn residual_diagnostics_are_sane() {
        let (xs, ys) = noisy_dataset(400, &[1.0, 1.0], 1.0, 4);
        let fit = fit(&xs, &ys).unwrap();
        // Uniform(-1,1) noise: mean ~0, sd ~1/sqrt(3)=0.577.
        assert!(fit.residual_mean().abs() < 0.1);
        assert!((fit.residual_std() - 0.577).abs() < 0.1);
        assert_eq!(fit.n_obs(), 400);
    }

    #[test]
    fn rejects_collinear_features() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
        let ys: Vec<f64> = (0..20).map(|i| i as f64).collect();
        assert!(matches!(fit(&xs, &ys).unwrap_err(), StatsError::Singular(_)));
    }

    #[test]
    fn rejects_too_few_observations() {
        let xs = vec![vec![1.0, 2.0], vec![2.0, 3.0]];
        let ys = vec![1.0, 2.0];
        assert!(matches!(fit(&xs, &ys).unwrap_err(), StatsError::InsufficientData { .. }));
    }

    #[test]
    fn rejects_mismatched_lengths() {
        let xs = vec![vec![1.0], vec![2.0]];
        let ys = vec![1.0];
        assert!(matches!(fit(&xs, &ys).unwrap_err(), StatsError::DimensionMismatch { .. }));
    }

    #[test]
    fn rejects_nan_input() {
        let xs = vec![vec![1.0], vec![f64::NAN], vec![3.0]];
        let ys = vec![1.0, 2.0, 3.0];
        assert!(matches!(fit(&xs, &ys).unwrap_err(), StatsError::NonFinite(_)));
    }
}
