//! Simulated physical world for the UniLoc reproduction.
//!
//! The original paper evaluates on a real university campus and urban venues
//! with physical WiFi access points, GSM towers, GPS satellites and human
//! walkers. None of those are available to a pure-Rust reproduction, so this
//! crate simulates the *environment layer*: everything underneath the sensor
//! APIs that the five localization schemes consume. The substitutions are
//! documented in `DESIGN.md`; the guiding principle is that the **features
//! the error models see** (Table I of the paper) must vary across space the
//! way the paper describes — e.g. the basement has no WiFi and no GPS but
//! two audible cell towers, outdoor fingerprints are 12 m apart, corridors
//! constrain PDR drift while open spaces do not.
//!
//! * [`zone`] — the indoor/outdoor zone taxonomy ([`EnvKind`]) with
//!   per-kind sky view, ambient light, magnetic disturbance and cellular
//!   penetration loss.
//! * [`noise`] — deterministic spatially-correlated noise (lognormal
//!   shadowing fields that are stable across revisits, so fingerprinting
//!   works).
//! * [`radio`] — log-distance path-loss propagation for WiFi and cellular.
//! * [`world`] — the [`World`] container with truth-level observation
//!   queries.
//! * [`walker`] — gait-personalised pedestrian trajectory generation.
//! * [`campus`] — the paper's campus: the daily path of Fig. 2 and the
//!   eight paths of Fig. 4.
//! * [`venues`] — the shopping mall, urban open space and offices used in
//!   Section V.
//!
//! # Examples
//!
//! ```
//! use uniloc_env::campus;
//!
//! let scenario = campus::daily_path(7);
//! assert_eq!(scenario.route.length().round(), 320.0);
//! let mut rng = uniloc_rng::Rng::seed_from_u64(1);
//! let mut memo = scenario.world.shadow_memo();
//! let start = scenario.route.start();
//! // The office where the path starts is indoors and has audible APs.
//! assert!(scenario.world.is_indoor(start));
//! assert!(!scenario.world.wifi_observation(start, &mut memo, &mut rng).is_empty());
//! ```

pub mod campus;
pub mod noise;
pub mod radio;
pub mod venues;
pub mod walker;
pub mod world;
pub mod zone;

pub use campus::Scenario;
pub use noise::SpatialNoise;
pub use radio::{AccessPoint, ApId, CellTower, TowerId};
pub use walker::{GaitProfile, StepEvent, Trajectory, Walker};
pub use world::{ShadowMemo, SurveyPlan, World, WorldBuilder};
pub use zone::{EnvKind, Zone};
