//! Estimation filters used across the UniLoc schemes.
//!
//! * [`particle`] — the generic particle filter behind the motion-based PDR
//!   and the fusion scheme ("300 particles are generated and maintained
//!   every step", Section II of the paper).
//! * [`kalman`] — a 2-D constant-velocity Kalman filter, one of the
//!   "existing location prediction methods \[24\], like Hidden Markov Model
//!   (HMM) or Kalman filter" the paper mentions for the online
//!   fingerprint-density feature.
//! * [`hmm`] — the second-order HMM grid predictor the paper actually uses:
//!   "In our current implementation, we use a second order HMM, which can
//!   provide an acceptable estimation accuracy."

pub mod hmm;
pub mod kalman;
pub mod particle;

pub use hmm::Hmm2Predictor;
pub use kalman::Kalman2D;
pub use particle::{Particle, ParticleFilter};
