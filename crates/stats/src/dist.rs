//! Probability distributions used by UniLoc.
//!
//! The paper models the online localization error of a scheme at time `t` as
//! a Gaussian `Y_t ~ N(mu_t, sigma_eps)` (Section IV-A) and derives each
//! scheme's confidence as `P(Y_t <= tau)` (Eq. 2) — i.e. a normal CDF
//! evaluation. Coefficient significance in Table II is reported as Student-t
//! p-values. Both distributions are implemented here with classical special
//! function approximations (no external numerics crates).

use crate::{Result, StatsError};

/// Error function `erf(x)`, accurate to ~1.2e-7 (Abramowitz & Stegun 7.1.26).
///
/// # Examples
///
/// ```
/// use uniloc_stats::dist::erf;
/// assert!((erf(0.0)).abs() < 1e-12);
/// assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
/// assert!((erf(-1.0) + erf(1.0)).abs() < 1e-12); // odd function
/// ```
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    // A&S formula 7.1.26.
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Complementary error function `1 - erf(x)`.
pub fn erfc(x: f64) -> f64 {
    1.0 - erf(x)
}

/// Natural log of the gamma function (Lanczos approximation, g = 7).
///
/// Accurate to ~1e-13 for positive arguments, which is ample for the
/// incomplete-beta continued fraction behind Student-t p-values.
pub fn ln_gamma(x: f64) -> f64 {
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized incomplete beta function `I_x(a, b)` via Lentz's continued
/// fraction (Numerical Recipes 6.4).
pub fn beta_inc(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    // Use the symmetry relation for faster convergence.
    if x <= (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - beta_inc(b, a, 1.0 - x)
    }
}

fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 1e-14;
    const TINY: f64 = 1e-30;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Normal (Gaussian) distribution `N(mu, sigma)`.
///
/// UniLoc uses this for (a) the predicted-error distribution of each scheme
/// (`mu_t` from the regression, `sigma_eps` from the residuals) and (b) the
/// GPS error model, which the paper measures as `N(13.5 m, 9.4 m)`.
///
/// # Examples
///
/// ```
/// use uniloc_stats::Normal;
///
/// let n = Normal::new(13.5, 9.4)?;
/// // Probability the GPS error is under 20 m:
/// let p = n.cdf(20.0);
/// assert!(p > 0.7 && p < 0.8);
/// # Ok::<(), uniloc_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `std_dev <= 0` or either
    /// parameter is non-finite.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self> {
        if !mean.is_finite() || !std_dev.is_finite() {
            return Err(StatsError::NonFinite("Normal::new"));
        }
        if std_dev <= 0.0 {
            return Err(StatsError::InvalidParameter("Normal std_dev must be positive"));
        }
        Ok(Normal { mean, std_dev })
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Normal { mean: 0.0, std_dev: 1.0 }
    }

    /// Distribution mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Distribution standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Cumulative distribution function `P(X <= x)`.
    ///
    /// This is exactly the integral in the paper's Eq. 2 once `Y_t` is
    /// standardized.
    pub fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / (self.std_dev * std::f64::consts::SQRT_2);
        0.5 * (1.0 + erf(z))
    }

    /// Inverse CDF (quantile function), Acklam's rational approximation
    /// (relative error < 1.15e-9).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 1)`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1), got {p}");
        self.mean + self.std_dev * standard_normal_quantile(p)
    }
}

fn standard_normal_quantile(p: f64) -> f64 {
    // Peter Acklam's algorithm.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    const P_HIGH: f64 = 1.0 - P_LOW;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Student's t distribution with `nu` degrees of freedom.
///
/// Used to turn OLS t statistics into the two-sided p-values reported in
/// Table II of the paper.
///
/// # Examples
///
/// ```
/// use uniloc_stats::StudentT;
///
/// let t = StudentT::new(10.0)?;
/// // Symmetric around zero:
/// assert!((t.cdf(0.0) - 0.5).abs() < 1e-12);
/// // A large |t| means a small two-sided p-value:
/// assert!(t.p_value_two_sided(6.0) < 0.001);
/// # Ok::<(), uniloc_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudentT {
    nu: f64,
}

impl StudentT {
    /// Creates a t distribution with `nu > 0` degrees of freedom.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] when `nu <= 0` or non-finite.
    pub fn new(nu: f64) -> Result<Self> {
        if !nu.is_finite() || nu <= 0.0 {
            return Err(StatsError::InvalidParameter("StudentT nu must be positive and finite"));
        }
        Ok(StudentT { nu })
    }

    /// Cumulative distribution function.
    pub fn cdf(&self, t: f64) -> f64 {
        if t == 0.0 {
            return 0.5;
        }
        let x = self.nu / (self.nu + t * t);
        let p = 0.5 * beta_inc(0.5 * self.nu, 0.5, x);
        if t > 0.0 {
            1.0 - p
        } else {
            p
        }
    }

    /// Two-sided p-value `P(|T| >= |t|)` for a t statistic.
    pub fn p_value_two_sided(&self, t: f64) -> f64 {
        let x = self.nu / (self.nu + t * t);
        beta_inc(0.5 * self.nu, 0.5, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_reference_values() {
        // Reference values from tables.
        let cases = [(0.0, 0.0), (0.5, 0.5204999), (1.0, 0.8427008), (2.0, 0.9953223)];
        for (x, want) in cases {
            assert!((erf(x) - want).abs() < 1e-6, "erf({x})");
        }
    }

    #[test]
    fn erf_is_odd_and_bounded() {
        for i in 0..100 {
            let x = -5.0 + 0.1 * i as f64;
            assert!((erf(x) + erf(-x)).abs() < 1e-12);
            assert!(erf(x) >= -1.0 && erf(x) <= 1.0);
        }
    }

    #[test]
    fn erfc_complements() {
        assert!((erfc(0.7) + erf(0.7) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ln_gamma_reference() {
        // Gamma(5) = 24.
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-10);
        // Gamma(0.5) = sqrt(pi).
        assert!((ln_gamma(0.5) - 0.5 * std::f64::consts::PI.ln()).abs() < 1e-10);
        // Gamma(1) = 1.
        assert!(ln_gamma(1.0).abs() < 1e-10);
    }

    #[test]
    fn beta_inc_bounds_and_symmetry() {
        assert_eq!(beta_inc(2.0, 3.0, 0.0), 0.0);
        assert_eq!(beta_inc(2.0, 3.0, 1.0), 1.0);
        // I_x(a,b) = 1 - I_{1-x}(b,a)
        let v = beta_inc(2.5, 1.5, 0.3);
        let w = 1.0 - beta_inc(1.5, 2.5, 0.7);
        assert!((v - w).abs() < 1e-10);
    }

    #[test]
    fn beta_inc_uniform_case() {
        // I_x(1,1) = x.
        for i in 1..10 {
            let x = i as f64 / 10.0;
            assert!((beta_inc(1.0, 1.0, x) - x).abs() < 1e-10);
        }
    }

    #[test]
    fn normal_rejects_bad_params() {
        assert!(Normal::new(0.0, 0.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn normal_cdf_reference() {
        let n = Normal::standard();
        assert!((n.cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((n.cdf(1.0) - 0.8413447).abs() < 1e-6);
        assert!((n.cdf(-1.96) - 0.0249979).abs() < 1e-5);
    }

    #[test]
    fn normal_quantile_inverts_cdf() {
        let n = Normal::new(13.5, 9.4).unwrap();
        for p in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let x = n.quantile(p);
            assert!((n.cdf(x) - p).abs() < 1e-6, "p={p}");
        }
    }

    #[test]
    #[should_panic(expected = "quantile requires p in (0,1)")]
    fn normal_quantile_panics_outside_unit() {
        Normal::standard().quantile(1.0);
    }

    #[test]
    fn student_t_matches_normal_for_large_nu() {
        let t = StudentT::new(1e6).unwrap();
        let n = Normal::standard();
        for x in [-2.0, -0.5, 0.0, 0.7, 1.5] {
            assert!((t.cdf(x) - n.cdf(x)).abs() < 1e-4, "x={x}");
        }
    }

    #[test]
    fn student_t_reference_values() {
        // t distribution with 5 dof: P(T <= 2.015) ~ 0.95.
        let t = StudentT::new(5.0).unwrap();
        assert!((t.cdf(2.015) - 0.95).abs() < 1e-3);
        // Two-sided p at the 97.5% quantile 2.571 is 0.05.
        assert!((t.p_value_two_sided(2.571) - 0.05).abs() < 1e-3);
    }

    #[test]
    fn student_t_rejects_bad_nu() {
        assert!(StudentT::new(0.0).is_err());
        assert!(StudentT::new(-3.0).is_err());
    }

    #[test]
    fn student_t_symmetry() {
        let t = StudentT::new(7.0).unwrap();
        for x in [0.3, 1.1, 2.5] {
            assert!((t.cdf(x) + t.cdf(-x) - 1.0).abs() < 1e-9, "x={x}");
            assert!((t.p_value_two_sided(x) - t.p_value_two_sided(-x)).abs() < 1e-12);
        }
    }

    #[test]
    fn p_value_decreases_with_t() {
        let t = StudentT::new(20.0).unwrap();
        let mut last = 1.1;
        for x in [0.0, 0.5, 1.0, 2.0, 4.0] {
            let p = t.p_value_two_sided(x);
            assert!(p < last);
            last = p;
        }
    }

    #[test]
    fn normal_quantile_tails() {
        // Acklam's approximation must stay accurate in the far tails, which
        // the confidence computation hits for very bad schemes.
        let n = Normal::standard();
        for p in [1e-6, 1e-3, 0.999, 0.999999] {
            let x = n.quantile(p);
            assert!((n.cdf(x) - p).abs() / p.min(1.0 - p).max(1e-9) < 0.05, "p={p}");
        }
    }

    #[test]
    fn normal_accessors() {
        let n = Normal::new(3.0, 2.0).unwrap();
        assert_eq!(n.mean(), 3.0);
        assert_eq!(n.std_dev(), 2.0);
    }
}
