//! IODetector replica: energy-efficient indoor/outdoor detection.
//!
//! UniLoc trains and applies its error models separately for indoor and
//! outdoor environments, and "IODetector \[36\] is used to automatically
//! identify the indoor and outdoor environments. It is very energy-
//! efficient, as it only uses some low-power sensors, including light
//! sensor, magnetism sensor and cellular signals."
//!
//! This module reproduces the three sub-detectors and their fusion:
//!
//! * **Light** — daylight outdoors is 1-2 orders of magnitude brighter than
//!   artificial indoor lighting.
//! * **Magnetism** — steel structures disturb the geomagnetic field indoors,
//!   raising magnetometer variance.
//! * **Cellular** — entering a building attenuates the aggregate cell RSSI
//!   by the penetration loss; the detector watches for level shifts against
//!   a slow-moving baseline.
//!
//! Each sub-detector votes `Indoor` / `Outdoor` / abstain; votes are fused
//! by confidence-weighted majority with hysteresis (two consecutive
//! contradicting epochs are required to flip the state), which suppresses
//! flicker at doorways.
//!
//! # Examples
//!
//! ```
//! use uniloc_iodetect::{IoDetector, IoState};
//! use uniloc_sensors::SensorFrame;
//!
//! let mut det = IoDetector::new();
//! // Bright daylight, quiet magnetics: outdoor once hysteresis clears
//! // (two consecutive agreeing epochs).
//! det.classify(20_000.0, 0.1, None);
//! let state = det.classify(20_000.0, 0.1, None);
//! assert_eq!(state, IoState::Outdoor);
//! // Dim artificial light, heavy disturbance: back to indoor.
//! det.classify(300.0, 0.7, None);
//! let state = det.classify(300.0, 0.7, None);
//! assert_eq!(state, IoState::Indoor);
//! ```

use uniloc_sensors::SensorFrame;

/// The detector's environment verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoState {
    /// Under a roof (the paper's broad definition of indoor).
    Indoor,
    /// Open sky.
    Outdoor,
}

impl IoState {
    /// The verdict's lowercase name, `indoor` or `outdoor`.
    pub fn as_str(self) -> &'static str {
        match self {
            IoState::Indoor => "indoor",
            IoState::Outdoor => "outdoor",
        }
    }
}

impl std::fmt::Display for IoState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A sub-detector vote with confidence in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Vote {
    state: IoState,
    confidence: f64,
}

// The three sub-detectors' thresholds.

/// Light above this (lux) votes outdoor strongly.
const OUTDOOR_LUX: f64 = 5_000.0;
/// Light below this votes indoor strongly.
const INDOOR_LUX: f64 = 1_000.0;
/// Magnetic variance above this votes indoor.
const MAGNETIC_INDOOR: f64 = 0.45;
/// Magnetic variance below this votes outdoor.
const MAGNETIC_OUTDOOR: f64 = 0.25;
/// Cellular level shift (dB) against the baseline that votes indoor.
const CELL_DROP_DB: f64 = 8.0;
/// Smoothing factor for the cellular baseline EMA.
const CELL_EMA: f64 = 0.15;

/// Streaming indoor/outdoor detector with hysteresis.
#[derive(Debug, Clone)]
pub struct IoDetector {
    state: IoState,
    /// Consecutive epochs contradicting the held state.
    contradictions: u32,
    /// Running cellular RSSI baseline (dBm), `None` until first reading.
    cell_baseline: Option<f64>,
}

impl IoDetector {
    /// Creates a detector, initially assuming indoor (the paper's walks
    /// start in an office).
    pub fn new() -> Self {
        IoDetector { state: IoState::Indoor, contradictions: 0, cell_baseline: None }
    }

    /// The currently held state.
    pub fn state(&self) -> IoState {
        self.state
    }

    /// Classifies one epoch from raw features: ambient light (lux),
    /// magnetometer disturbance (0-1) and the mean cellular RSSI (dBm) if a
    /// scan is available. Returns the (hysteresis-filtered) state.
    pub fn classify(&mut self, light_lux: f64, magnetic: f64, mean_cell_dbm: Option<f64>) -> IoState {
        // One fixed slot per sub-detector (`None` = abstain) — this runs
        // every epoch, so the vote set lives on the stack.
        let mut votes: [Option<Vote>; 3] = [None; 3];
        // Light sub-detector.
        if light_lux >= OUTDOOR_LUX {
            votes[0] = Some(Vote { state: IoState::Outdoor, confidence: 0.9 });
        } else if light_lux <= INDOOR_LUX {
            votes[0] = Some(Vote { state: IoState::Indoor, confidence: 0.7 });
        }
        // Magnetism sub-detector.
        if magnetic >= MAGNETIC_INDOOR {
            votes[1] = Some(Vote { state: IoState::Indoor, confidence: 0.5 });
        } else if magnetic <= MAGNETIC_OUTDOOR {
            votes[1] = Some(Vote { state: IoState::Outdoor, confidence: 0.4 });
        }
        // Cellular sub-detector: level shift vs. baseline.
        if let Some(rssi) = mean_cell_dbm {
            if let Some(base) = self.cell_baseline {
                let delta = rssi - base;
                if delta <= -CELL_DROP_DB {
                    votes[2] = Some(Vote { state: IoState::Indoor, confidence: 0.5 });
                } else if delta >= CELL_DROP_DB {
                    votes[2] = Some(Vote { state: IoState::Outdoor, confidence: 0.5 });
                }
                self.cell_baseline = Some(base + CELL_EMA * (rssi - base));
            } else {
                self.cell_baseline = Some(rssi);
            }
        }

        let indoor: f64 = votes
            .iter()
            .flatten()
            .filter(|v| v.state == IoState::Indoor)
            .map(|v| v.confidence)
            .sum();
        let outdoor: f64 = votes
            .iter()
            .flatten()
            .filter(|v| v.state == IoState::Outdoor)
            .map(|v| v.confidence)
            .sum();
        let instant = if indoor > outdoor {
            Some(IoState::Indoor)
        } else if outdoor > indoor {
            Some(IoState::Outdoor)
        } else {
            None
        };

        match instant {
            Some(s) if s != self.state => {
                self.contradictions += 1;
                if self.contradictions >= 2 {
                    self.state = s;
                    self.contradictions = 0;
                }
            }
            Some(_) => self.contradictions = 0,
            None => {}
        }
        self.state
    }

    /// Convenience: classifies a full [`SensorFrame`].
    pub fn classify_frame(&mut self, frame: &SensorFrame) -> IoState {
        let mean_cell = frame.cell.as_ref().and_then(|c| {
            if c.readings.is_empty() {
                None
            } else {
                Some(c.readings.iter().map(|r| r.1).sum::<f64>() / c.readings.len() as f64)
            }
        });
        self.classify(frame.light_lux, frame.magnetic_variance, mean_cell)
    }
}

impl Default for IoDetector {
    fn default() -> Self {
        IoDetector::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniloc_rng::Rng;
    use uniloc_env::{campus, GaitProfile, Walker};
    use uniloc_sensors::{DeviceProfile, SensorHub};

    #[test]
    fn bright_light_wins_quickly() {
        let mut d = IoDetector::new();
        assert_eq!(d.state(), IoState::Indoor);
        d.classify(25_000.0, 0.1, None);
        let s = d.classify(25_000.0, 0.1, None);
        assert_eq!(s, IoState::Outdoor);
    }

    #[test]
    fn hysteresis_suppresses_single_outliers() {
        let mut d = IoDetector::new();
        // One anomalous bright epoch indoors must not flip the state.
        d.classify(300.0, 0.6, None);
        d.classify(12_000.0, 0.6, None);
        assert_eq!(d.state(), IoState::Indoor);
        d.classify(300.0, 0.6, None);
        assert_eq!(d.state(), IoState::Indoor);
    }

    #[test]
    fn cellular_drop_votes_indoor() {
        let mut d = IoDetector::new();
        // Establish an outdoor state and baseline.
        for _ in 0..3 {
            d.classify(20_000.0, 0.1, Some(-75.0));
        }
        assert_eq!(d.state(), IoState::Outdoor);
        // Ambiguous light (covered walkway) but a sharp cell drop: indoor.
        for _ in 0..4 {
            d.classify(2_500.0, 0.4, Some(-92.0));
        }
        assert_eq!(d.state(), IoState::Indoor);
    }

    #[test]
    fn classify_frame_accuracy_on_daily_path() {
        let scenario = campus::daily_path(11);
        let mut walker =
            Walker::new(GaitProfile::average(), Rng::seed_from_u64(12));
        let walk = walker.walk(&scenario.route);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 13);
        let frames = hub.sample_walk(&walk, 0.5);
        let mut detector = IoDetector::new();
        let mut correct = 0usize;
        for f in &frames {
            let predicted = detector.classify_frame(f);
            let truth = if scenario.world.is_indoor(f.true_position) {
                IoState::Indoor
            } else {
                IoState::Outdoor
            };
            if predicted == truth {
                correct += 1;
            }
        }
        let acc = correct as f64 / frames.len() as f64;
        assert!(acc > 0.9, "IODetector accuracy {acc}");
    }

    #[test]
    fn empty_cell_scan_is_ignored() {
        let mut d = IoDetector::new();
        let s = d.classify(300.0, 0.6, None);
        assert_eq!(s, IoState::Indoor);
    }

    #[test]
    fn display_names() {
        assert_eq!(IoState::Indoor.to_string(), "indoor");
        assert_eq!(IoState::Outdoor.to_string(), "outdoor");
    }
}

uniloc_stats::impl_json_enum!(IoState { Indoor, Outdoor });
