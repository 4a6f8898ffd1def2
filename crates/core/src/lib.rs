//! UniLoc: a unified mobile localization framework exploiting scheme
//! diversity.
//!
//! This crate implements the paper's primary contribution (Du, Tong, Li —
//! ICDCS 2018): run any number of localization schemes in parallel, predict
//! each scheme's error **online** from real-time sensor-data features, turn
//! the prediction into a probabilistic confidence, and combine scheme
//! outputs with a locally-weighted Bayesian Model Averaging ensemble that
//! beats every individual scheme — and, usually, the oracle that always
//! picks the single best one.
//!
//! The pieces map to the paper like this:
//!
//! * [`features`] — Table I: the sensor-data features that drive each
//!   scheme's error (fingerprint spatial density, RSSI distance deviation,
//!   distance from the last landmark, corridor width, ...).
//! * [`error_model`] — Section III: the two-step error-modeling workflow
//!   (collect `(features, error)` samples with ground truth, fit a
//!   per-scheme multiple linear regression with `beta_0 = 0`, indoor and
//!   outdoor separately) producing Table II.
//! * [`mod@confidence`] — Eq. 2: confidence as `P(Y_t <= tau)` under
//!   `Y_t ~ N(mu_t, sigma_eps)` with an adaptive threshold `tau`.
//! * [`engine`] — Section IV: **UniLoc1** (pick the most-confident scheme)
//!   and **UniLoc2** (locally-weighted BMA, Eqs. 3-5), scheme exclusion by
//!   zero confidence, and the GPS duty-cycling policy.
//! * [`pipeline`] — the experiment harness: surveys fingerprints, builds
//!   the five schemes, walks a scenario and records per-epoch results
//!   (training-data collection and evaluation share this machinery).
//! * [`energy`] — Section IV-C / Table IV: the power/energy accounting
//!   model.
//! * [`response`] — Table V: the response-time decomposition model.
//!
//! # Quickstart
//!
//! ```no_run
//! use uniloc_core::pipeline::{self, PipelineConfig};
//! use uniloc_env::{campus, venues};
//!
//! // 1. Train error models once, in two small training venues.
//! let cfg = PipelineConfig::default();
//! let mut samples = Vec::new();
//! samples.extend(pipeline::collect_training(&venues::training_office(1), &cfg, 10));
//! samples.extend(pipeline::collect_training(&venues::training_open_space(2), &cfg, 11));
//! let models = uniloc_core::error_model::train(&samples).unwrap();
//!
//! // 2. Use them in a new place, without retraining.
//! let scenario = campus::daily_path(3);
//! let records = pipeline::run_walk(&scenario, &models, &cfg, 12);
//! let mean_err: f64 = records.iter().filter_map(|r| r.uniloc2_error).sum::<f64>()
//!     / records.len() as f64;
//! println!("UniLoc2 mean error: {mean_err:.1} m");
//! ```

pub mod aloc;
pub mod confidence;
pub mod energy;
pub mod engine;
pub mod error_model;
pub mod features;
pub mod fleet;
pub mod guard;
pub mod parallel;
pub mod pipeline;
pub mod quarantine;
pub mod response;
pub mod session;

pub use aloc::ALocSelector;
pub use confidence::{adaptive_tau, confidence};
pub use energy::EnergyReport;
pub use engine::{SchemeReport, UniLocEngine, UniLocOutput};
pub use guard::{scrub_frame, FrameGate, GateVerdict, ScrubReport};
pub use quarantine::{DegradationLadder, QuarantineMachine, SchemeVerdict};
pub use error_model::{ErrorModelSet, ErrorPrediction, LinearErrorModel, TrainingSample};
pub use features::{CustomFeatureFn, FeatureExtractor, PredictorKind, SharedContext};
pub use fleet::{DueKey, FinishedSession, FleetRunStats, FleetScheduler, FleetSession, SessionCheckpoint};
pub use pipeline::{EpochRecord, PipelineConfig};
pub use response::{ResponseTimeModel, ResponseTimeReport};
pub use session::Session;
