//! Statistical substrate for the UniLoc reproduction.
//!
//! UniLoc's contribution (error modeling + locally-weighted Bayesian model
//! averaging) is built on a small amount of classical statistics. Rather than
//! pulling in a heavyweight numerics stack, this crate implements exactly the
//! pieces the paper needs, from scratch:
//!
//! * [`matrix`] — a small dense row-major matrix with the factorizations
//!   required by ordinary least squares (Cholesky, partially pivoted LU).
//! * [`dist`] — the error function, the normal distribution (the paper models
//!   per-scheme localization error as `N(mu_t, sigma_eps)`, Section IV-A) and
//!   Student's t distribution (used for coefficient p-values in Table II).
//! * [`ols`] — multiple linear regression with the inference output of
//!   Table II: coefficient estimates, p-values, R^2 and residual
//!   diagnostics, with no intercept (the paper forces `beta_0 = 0`,
//!   Section III-B).
//! * [`describe`] — descriptive statistics, RMSE / normalized RMSE (Eq. 7)
//!   and empirical CDFs (used throughout Section V).
//!
//! # Examples
//!
//! Fitting the paper's error-model regression (Eq. 1) on synthetic data:
//!
//! ```
//! use uniloc_stats::ols;
//!
//! // y = 2.0 * x1 - 0.5 * x2 (+ noise-free here)
//! let xs = vec![
//!     vec![1.0, 2.0],
//!     vec![2.0, 1.0],
//!     vec![3.0, 4.0],
//!     vec![4.0, 0.0],
//!     vec![0.5, 2.5],
//! ];
//! let ys: Vec<f64> = xs.iter().map(|r| 2.0 * r[0] - 0.5 * r[1]).collect();
//! let fit = ols::fit(&xs, &ys)?;
//! assert!((fit.coefficients()[0] - 2.0).abs() < 1e-9);
//! assert!((fit.coefficients()[1] + 0.5).abs() < 1e-9);
//! # Ok::<(), uniloc_stats::StatsError>(())
//! ```

pub mod describe;
pub mod dist;
pub mod json;
pub mod matrix;
pub mod ols;

use std::error::Error;
use std::fmt;

/// Errors produced by statistical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StatsError {
    /// Operand shapes are incompatible (e.g. `m x n` times `p x q`, `n != p`).
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        context: &'static str,
        /// Dimensions the caller supplied.
        got: (usize, usize),
        /// Dimensions the operation required.
        expected: (usize, usize),
    },
    /// A matrix that must be invertible / positive definite is (numerically)
    /// singular. Carries the pivot index where decomposition broke down.
    Singular(usize),
    /// The input sample is empty or too small for the requested statistic.
    InsufficientData {
        /// Number of observations supplied.
        got: usize,
        /// Minimum number of observations required.
        needed: usize,
    },
    /// An input contained a NaN or infinity where finite data is required.
    NonFinite(&'static str),
    /// A distribution parameter is out of its valid domain (e.g. sigma <= 0).
    InvalidParameter(&'static str),
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::DimensionMismatch { context, got, expected } => write!(
                f,
                "dimension mismatch in {context}: got {}x{}, expected {}x{}",
                got.0, got.1, expected.0, expected.1
            ),
            StatsError::Singular(k) => {
                write!(f, "matrix is singular or not positive definite at pivot {k}")
            }
            StatsError::InsufficientData { got, needed } => {
                write!(f, "insufficient data: got {got} observations, need at least {needed}")
            }
            StatsError::NonFinite(what) => write!(f, "non-finite value encountered in {what}"),
            StatsError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
        }
    }
}

impl Error for StatsError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StatsError>;

pub use describe::{mean, normalized_rmse, percentile, rmse, std_dev, variance, Ecdf};
pub use dist::{erf, erfc, Normal, StudentT};
pub use json::{FromJson, Json, JsonError, ToJson};
pub use matrix::Matrix;
pub use ols::OlsFit;
