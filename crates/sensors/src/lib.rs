//! Smartphone sensor simulation for the UniLoc reproduction.
//!
//! This crate turns the truth-level environment of `uniloc-env` into the
//! imperfect measurements a phone actually delivers:
//!
//! * [`device`] — phone models with the RSSI heterogeneity the paper
//!   measures between the Google Nexus 5X and LG G3
//!   (`rssi_A = alpha * rssi_B + delta`, Section III-B).
//! * [`scans`] — [`WifiScan`] and [`CellScan`] (one [`Scan`] type over
//!   AP or tower ids) and [`GpsFix`] (coordinate, HDOP, visible
//!   satellites — exactly what "the GPS module of current smartphones"
//!   reports).
//! * [`hub`] — the [`SensorHub`] samples a whole walk into per-epoch
//!   [`SensorFrame`]s, evolving IMU heading drift along the way.
//! * [`calibrate`] — online RSSI offset calibration between heterogeneous
//!   devices ("we transfer their RSSI readings [...] by an online-learned
//!   offset").
//!
//! # Examples
//!
//! ```
//! use uniloc_env::{campus, GaitProfile, Walker};
//! use uniloc_sensors::{DeviceProfile, SensorHub};
//!
//! let scenario = campus::daily_path(1);
//! let mut walker = Walker::new(
//!     GaitProfile::average(),
//!     uniloc_rng::Rng::seed_from_u64(2),
//! );
//! let walk = walker.walk(&scenario.route);
//! let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 3);
//! let frames = hub.sample_walk(&walk, 0.5);
//! assert!(!frames.is_empty());
//! // Early frames are in the office: WiFi audible, no usable GPS.
//! assert!(frames[10].wifi.as_ref().is_some_and(|w| !w.readings.is_empty()));
//! ```

pub mod calibrate;
pub mod device;
pub mod hub;
pub mod scans;

pub use calibrate::RssiCalibration;
pub use device::{DeviceModel, DeviceProfile};
pub use hub::{LandmarkObservation, SensorFrame, SensorHub, StepMeasurement};
pub use scans::{merge_distance, CellScan, GpsFix, Scan, WifiScan};
