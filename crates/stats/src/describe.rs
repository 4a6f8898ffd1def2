//! Descriptive statistics and empirical distributions.
//!
//! Section V of the paper validates error prediction with a *normalized
//! root-mean-square error* (Eq. 7) and reports accuracy as CDFs and 50th/90th
//! percentiles of localization error (Figs. 6-8). This module provides those
//! primitives.

use crate::{Result, StatsError};

/// Arithmetic mean.
///
/// # Errors
///
/// Returns [`StatsError::InsufficientData`] on an empty slice.
pub fn mean(xs: &[f64]) -> Result<f64> {
    if xs.is_empty() {
        return Err(StatsError::InsufficientData { got: 0, needed: 1 });
    }
    Ok(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Sample variance (Bessel-corrected).
///
/// # Errors
///
/// Returns [`StatsError::InsufficientData`] when fewer than two observations
/// are supplied.
pub fn variance(xs: &[f64]) -> Result<f64> {
    if xs.len() < 2 {
        return Err(StatsError::InsufficientData { got: xs.len(), needed: 2 });
    }
    let m = mean(xs)?;
    Ok(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64)
}

/// Sample standard deviation.
///
/// # Errors
///
/// Same as [`variance`].
pub fn std_dev(xs: &[f64]) -> Result<f64> {
    variance(xs).map(f64::sqrt)
}

/// Root-mean-square error between predictions and ground truth.
///
/// # Errors
///
/// * [`StatsError::DimensionMismatch`] — slices have different lengths.
/// * [`StatsError::InsufficientData`] — empty input.
pub fn rmse(predicted: &[f64], actual: &[f64]) -> Result<f64> {
    if predicted.len() != actual.len() {
        return Err(StatsError::DimensionMismatch {
            context: "rmse",
            got: (predicted.len(), 1),
            expected: (actual.len(), 1),
        });
    }
    if predicted.is_empty() {
        return Err(StatsError::InsufficientData { got: 0, needed: 1 });
    }
    let ss: f64 = predicted.iter().zip(actual).map(|(p, a)| (p - a) * (p - a)).sum();
    Ok((ss / predicted.len() as f64).sqrt())
}

/// Normalized RMSE — Eq. 7 of the paper: RMSE of the predicted localization
/// errors divided by the mean of the true localization errors.
///
/// This is the quantity Table III reports per scheme and condition.
///
/// # Errors
///
/// Same as [`rmse`]; additionally [`StatsError::InvalidParameter`] when the
/// mean of `actual` is zero (the normalization is undefined).
pub fn normalized_rmse(predicted: &[f64], actual: &[f64]) -> Result<f64> {
    let r = rmse(predicted, actual)?;
    let m = mean(actual)?;
    if m == 0.0 {
        return Err(StatsError::InvalidParameter("normalized_rmse: mean of actual is zero"));
    }
    Ok(r / m)
}

/// Linear-interpolated percentile (`q` in `[0, 100]`).
///
/// # Errors
///
/// [`StatsError::InsufficientData`] on an empty slice,
/// [`StatsError::InvalidParameter`] when `q` is outside `[0, 100]` or the
/// data contains NaN.
pub fn percentile(xs: &[f64], q: f64) -> Result<f64> {
    if xs.is_empty() {
        return Err(StatsError::InsufficientData { got: 0, needed: 1 });
    }
    if !(0.0..=100.0).contains(&q) {
        return Err(StatsError::InvalidParameter("percentile q must be in [0, 100]"));
    }
    if xs.iter().any(|v| v.is_nan()) {
        return Err(StatsError::NonFinite("percentile input"));
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered above"));
    let rank = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        Ok(sorted[lo])
    } else {
        let w = rank - lo as f64;
        Ok(sorted[lo] * (1.0 - w) + sorted[hi] * w)
    }
}

/// Empirical cumulative distribution function over a fixed sample.
///
/// Backs every CDF figure in the evaluation (Figs. 7 and 8).
///
/// # Examples
///
/// ```
/// use uniloc_stats::Ecdf;
///
/// let cdf = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0])?;
/// assert_eq!(cdf.eval(2.5), 0.5);
/// assert_eq!(cdf.eval(0.0), 0.0);
/// assert_eq!(cdf.eval(10.0), 1.0);
/// # Ok::<(), uniloc_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF, taking ownership of the sample.
    ///
    /// # Errors
    ///
    /// [`StatsError::InsufficientData`] on empty input,
    /// [`StatsError::NonFinite`] on NaN.
    pub fn new(mut sample: Vec<f64>) -> Result<Self> {
        if sample.is_empty() {
            return Err(StatsError::InsufficientData { got: 0, needed: 1 });
        }
        if sample.iter().any(|v| v.is_nan()) {
            return Err(StatsError::NonFinite("Ecdf input"));
        }
        sample.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered above"));
        Ok(Ecdf { sorted: sample })
    }

    /// `P(X <= x)` under the empirical distribution.
    pub fn eval(&self, x: f64) -> f64 {
        // partition_point returns the count of elements <= x when we ask for
        // the first index where the predicate flips.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Inverse ECDF: the smallest sample value `v` with `P(X <= v) >= p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p <= 1.0, "Ecdf::quantile requires p in (0,1], got {p}");
        let idx = ((p * self.sorted.len() as f64).ceil() as usize).saturating_sub(1);
        self.sorted[idx.min(self.sorted.len() - 1)]
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false: construction rejects empty samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Evaluates the CDF on an evenly spaced grid from `min` to `max` —
    /// convenient for printing the figure series.
    pub fn series(&self, points: usize) -> Vec<(f64, f64)> {
        let lo = self.sorted[0];
        let hi = self.sorted[self.sorted.len() - 1];
        let n = points.max(2);
        (0..n)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (n - 1) as f64;
                (x, self.eval(x))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_known() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs).unwrap(), 5.0);
        // Population variance is 4; Bessel-corrected = 32/7.
        assert!((variance(&xs).unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert!((std_dev(&xs).unwrap() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_error() {
        assert!(mean(&[]).is_err());
        assert!(variance(&[1.0]).is_err());
        assert!(percentile(&[], 50.0).is_err());
        assert!(Ecdf::new(vec![]).is_err());
    }

    #[test]
    fn rmse_known() {
        let pred = [1.0, 2.0, 3.0];
        let act = [2.0, 2.0, 5.0];
        // Errors: -1, 0, -2 => mean square = 5/3.
        assert!((rmse(&pred, &act).unwrap() - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn rmse_rejects_mismatch() {
        assert!(rmse(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn normalized_rmse_matches_eq7() {
        let pred = [3.0, 5.0];
        let act = [4.0, 4.0];
        let r = ((1.0 + 1.0) / 2.0f64).sqrt();
        assert!((normalized_rmse(&pred, &act).unwrap() - r / 4.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_rmse_rejects_zero_mean() {
        assert!(normalized_rmse(&[1.0, -1.0], &[1.0, -1.0]).is_err());
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(percentile(&xs, 100.0).unwrap(), 4.0);
        assert_eq!(percentile(&xs, 50.0).unwrap(), 2.5);
        assert!((percentile(&xs, 90.0).unwrap() - 3.7).abs() < 1e-12);
    }

    #[test]
    fn percentile_validates_q() {
        assert!(percentile(&[1.0], -1.0).is_err());
        assert!(percentile(&[1.0], 101.0).is_err());
    }

    #[test]
    fn ecdf_step_behavior() {
        let cdf = Ecdf::new(vec![1.0, 1.0, 2.0, 3.0]).unwrap();
        assert_eq!(cdf.eval(0.5), 0.0);
        assert_eq!(cdf.eval(1.0), 0.5); // ties counted
        assert_eq!(cdf.eval(2.0), 0.75);
        assert_eq!(cdf.eval(3.0), 1.0);
        assert_eq!(cdf.len(), 4);
        assert!(!cdf.is_empty());
    }

    #[test]
    fn ecdf_quantile_inverse() {
        let cdf = Ecdf::new(vec![10.0, 20.0, 30.0, 40.0, 50.0]).unwrap();
        assert_eq!(cdf.quantile(0.2), 10.0);
        assert_eq!(cdf.quantile(0.5), 30.0);
        assert_eq!(cdf.quantile(0.9), 50.0);
        assert_eq!(cdf.quantile(1.0), 50.0);
    }

    #[test]
    fn ecdf_series_monotone() {
        let cdf = Ecdf::new(vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]).unwrap();
        let series = cdf.series(20);
        assert_eq!(series.len(), 20);
        for w in series.windows(2) {
            assert!(w[1].1 >= w[0].1, "ECDF series must be nondecreasing");
        }
        assert_eq!(series.last().unwrap().1, 1.0);
    }

    #[test]
    fn nan_rejected_everywhere() {
        assert!(percentile(&[1.0, f64::NAN], 50.0).is_err());
        assert!(Ecdf::new(vec![f64::NAN]).is_err());
    }
}
