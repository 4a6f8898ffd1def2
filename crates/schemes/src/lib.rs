//! The five localization schemes UniLoc aggregates (Section II of the
//! paper), each implemented as a black box over [`SensorFrame`]s:
//!
//! | Scheme | Paper reference | Module |
//! |---|---|---|
//! | GPS | phone GPS module | [`gps`] |
//! | WiFi RSSI fingerprinting | RADAR \[1\] | [`radar`] |
//! | Cellular RSSI fingerprinting | RADAR on GSM (Otsason et al. \[22\]) | [`radar`] |
//! | Motion-based PDR | Li et al. \[7\] + UnLoc \[12\] landmarks | [`pdr`] |
//! | Sensor-data fusion | Travi-Navi \[11\] | [`fusion`] |
//!
//! All schemes implement [`LocalizationScheme`]; UniLoc "without going into
//! the details of individual schemes, only processes the final outputs".
//! The [`oracle`] module provides the ground-truth-assisted single-selection
//! baseline the paper plots as "Oracle".
//!
//! [`SensorFrame`]: uniloc_sensors::SensorFrame

pub mod crowdsource;
pub mod estimate;
pub mod fingerprint;
pub mod fusion;
pub mod gps;
pub mod horus;
pub mod index;
pub mod oracle;
pub mod pdr;
pub mod radar;

pub use crowdsource::RadioMapBuilder;
pub use estimate::{LocalizationScheme, LocationEstimate, SchemeId};
pub use horus::{HorusScheme, ProbFingerprintDb};
pub use fingerprint::{CellFingerprintDb, FingerprintMatch, WifiFingerprintDb};
pub use index::{SignalIndex, SpatialGrid};
pub use fusion::FusionScheme;
pub use gps::GpsScheme;
pub use oracle::Oracle;
pub use pdr::PdrScheme;
pub use radar::{CellFingerprintScheme, FingerprintScheme, WifiFingerprintScheme};
