//! # uniloc-faults — deterministic fault injection for UniLoc
//!
//! The paper's central robustness claim is that scheme diversity lets the
//! ensemble "temporarily exclude one localization scheme by simply setting
//! its confidence as zero, if it is not available in some regions"
//! (paper §III). This crate supplies the adversary that claim is tested
//! against: a scripted, seeded fault injector that corrupts a
//! [`SensorFrame`](uniloc_sensors::SensorFrame) stream the way the field
//! does — blackouts, AP churn, NLOS bias, multipath jumps, IMU drift,
//! NaN storms, duplicated and time-regressing frames.
//!
//! Design contract:
//!
//! * **Deterministic.** The applied schedule is a pure function of
//!   `(plan, seed, input frames)`. Each input epoch draws from its own
//!   child RNG stream, so frame-stream faults (duplicates, regressions)
//!   never shift the randomness of later epochs. [`FaultInjector::schedule_json`]
//!   is the byte-reproducibility witness used by the proptests.
//! * **Sidecar.** [`FaultPlan::none`] is an exact pass-through: the output
//!   walk is a clone of the input, byte for byte, so golden traces and
//!   determinism tests are unaffected when no faults are scripted.
//! * **Scripted in walk fractions.** Fault windows are `[0, 1]` fractions
//!   of the walk, not absolute epochs, so one plan scales across venues
//!   and the library plans always leave a recovery tail for the engine's
//!   quarantine machinery to prove re-admission.
//!
//! The defense side — the input-validation gate, per-scheme quarantine,
//! and degradation ladder — lives in `uniloc-core`; this crate only
//! attacks.

pub mod inject;
pub mod plan;
pub mod process;

pub use inject::{FaultEvent, FaultInjector};
pub use plan::{FaultClause, FaultKind, FaultPlan};
pub use process::CrashPoint;
