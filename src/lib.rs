//! UniLoc — a unified mobile localization framework exploiting scheme
//! diversity.
//!
//! This is the facade crate of the [UniLoc reproduction] (Du, Tong, Li —
//! ICDCS 2018): it re-exports every workspace crate under one roof and
//! hosts the runnable examples and cross-crate integration tests.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `uniloc-core` | error modeling, confidence, UniLoc1/UniLoc2 engines, pipeline, energy & response models |
//! | [`schemes`] | `uniloc-schemes` | GPS, WiFi/cellular fingerprinting, PDR, fusion, oracle |
//! | [`mod@env`] | `uniloc-env` | simulated venues, radio propagation, walker trajectories |
//! | [`sensors`] | `uniloc-sensors` | device profiles, scans, GPS fixes, IMU pipeline |
//! | [`filters`] | `uniloc-filters` | particle filter, Kalman filter, 2nd-order HMM |
//! | [`faults`] | `uniloc-faults` | deterministic fault injection: scripted sensor-fault schedules |
//! | [`iodetect`] | `uniloc-iodetect` | indoor/outdoor detection |
//! | [`obs`] | `uniloc-obs` | structured tracing, metrics registry, clocks |
//! | [`geom`] | `uniloc-geom` | planar geometry, floor plans, geo frames |
//! | [`stats`] | `uniloc-stats` | OLS regression, distributions, descriptive stats, JSON |
//! | [`rng`] | `uniloc-rng` | deterministic seeded random streams, property-test harness |
//!
//! See `examples/quickstart.rs` for the end-to-end train-then-localize
//! flow, and the `uniloc-bench` crate for the per-figure/table experiment
//! regenerators.
//!
//! [UniLoc reproduction]: https://doi.org/10.1109/ICDCS.2018.00149

pub use uniloc_core as core;
pub use uniloc_rng as rng;
pub use uniloc_env as env;
pub use uniloc_faults as faults;
pub use uniloc_filters as filters;
pub use uniloc_geom as geom;
pub use uniloc_iodetect as iodetect;
pub use uniloc_obs as obs;
pub use uniloc_schemes as schemes;
pub use uniloc_sensors as sensors;
pub use uniloc_stats as stats;
