//! The [`SensorHub`]: samples a ground-truth walk into the per-epoch
//! [`SensorFrame`]s that localization schemes consume.
//!
//! Schemes in UniLoc are black boxes over sensor data ("we treat all
//! localization schemes as black boxes and execute them on smartphones
//! independently"): every 0.5 s epoch they receive the same frame of WiFi /
//! cellular / GPS / IMU / light measurements. The hub is where device
//! imperfections enter: RSSI heterogeneity, GPS fix error (the paper's
//! measured `N(13.5 m, 9.4 m)` outdoors), and IMU heading drift whose rate
//! grows with the local magnetic disturbance.

use crate::device::DeviceProfile;
use crate::scans::{CellScan, GpsFix, WifiScan};
use uniloc_rng::Rng;
use uniloc_env::{ShadowMemo, SurveyPlan, Trajectory, World};
use uniloc_geom::{LandmarkKind, Point, Vector2};

/// One IMU-derived step, as the phone's PDR front-end reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepMeasurement {
    /// Completion time (s since walk start).
    pub t: f64,
    /// Step duration (s).
    pub duration: f64,
    /// Estimated step length (m) after gait personalisation.
    pub length_est: f64,
    /// Estimated compass heading of the step (radians, 0 = north).
    pub heading_est: f64,
}

/// A landmark the phone's sensors recognized this epoch: a sharp turn seen
/// by the gyroscope, a door or WiFi/magnetic signature matched against the
/// landmark database. The position is the landmark's *known map position*
/// (how UnLoc-style calibration works), not the user's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LandmarkObservation {
    /// What kind of landmark fired.
    pub kind: LandmarkKind,
    /// The landmark's known position on the map.
    pub position: Point,
}

/// All sensor data gathered in one localization epoch.
///
/// `true_position` is carried for evaluation (computing localization error
/// against ground truth, training error models) — schemes must not read it
/// at inference time.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorFrame {
    /// Epoch time (s since walk start).
    pub t: f64,
    /// Ground-truth position (evaluation only).
    pub true_position: Point,
    /// WiFi scan (`None` when a fault plan takes the radio out).
    pub wifi: Option<WifiScan>,
    /// Cellular scan (`None` when a fault plan takes the radio out).
    pub cell: Option<CellScan>,
    /// GPS fix (`None` indoors / too few satellites / receiver disabled).
    pub gps: Option<GpsFix>,
    /// Steps completed since the previous epoch.
    pub steps: Vec<StepMeasurement>,
    /// Landmark recognized this epoch, if any.
    pub landmark: Option<LandmarkObservation>,
    /// Ambient light (lux) — IODetector input.
    pub light_lux: f64,
    /// Magnetometer disturbance proxy in `[0, 1]` — IODetector input.
    pub magnetic_variance: f64,
}

/// A truth-level scan through `device`'s RSSI transfer, in place.
fn measured<Id>(device: DeviceProfile, mut readings: Vec<(Id, f64)>) -> Vec<(Id, f64)> {
    for (_, rss) in &mut readings {
        *rss = device.measure_rssi(*rss);
    }
    readings
}

/// Samples sensor measurements for a device moving through a world.
///
/// # Examples
///
/// ```
/// use uniloc_env::{campus, GaitProfile, Walker};
/// use uniloc_sensors::{DeviceProfile, SensorHub};
///
/// let scenario = campus::daily_path(1);
/// let walk = Walker::new(GaitProfile::average(), uniloc_rng::Rng::seed_from_u64(2))
///     .walk(&scenario.route);
/// let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 3);
/// let frames = hub.sample_walk(&walk, 0.5);
/// // Every completed step appears in exactly one frame.
/// let steps: usize = frames.iter().map(|f| f.steps.len()).sum();
/// assert_eq!(steps, walk.len());
/// ```
#[derive(Debug)]
pub struct SensorHub<'w> {
    world: &'w World,
    /// This hub's own memo of the world's shadowing-lattice nodes.
    memo: ShadowMemo,
    device: DeviceProfile,
    rng: Rng,
    heading_bias: f64,
    /// Persistent per-walk step-length scale error (gait personalisation
    /// residual).
    step_scale: f64,
    last_landmark: Option<Point>,
}

impl<'w> SensorHub<'w> {
    /// Creates a hub for `device` in `world`, with deterministic noise from
    /// `seed`.
    pub fn new(world: &'w World, device: DeviceProfile, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let step_scale = 1.0 + 0.08 * rng.standard_normal();
        SensorHub {
            world,
            memo: world.shadow_memo(),
            device,
            rng,
            heading_bias: 0.0,
            step_scale,
            last_landmark: None,
        }
    }

    /// The device being simulated.
    pub fn device(&self) -> DeviceProfile {
        self.device
    }

    /// The world this hub measures.
    pub fn world(&self) -> &'w World {
        self.world
    }

    /// Performs one WiFi scan at `p` through the device's RSSI transfer.
    pub fn scan_wifi(&mut self, p: Point) -> WifiScan {
        let truth = self.world.wifi_observation(p, &mut self.memo, &mut self.rng);
        WifiScan { readings: measured(self.device, truth) }
    }

    /// Performs one cellular scan at `p`.
    pub fn scan_cell(&mut self, p: Point) -> CellScan {
        let truth = self.world.cell_observation(p, &mut self.memo, &mut self.rng);
        CellScan { readings: measured(self.device, truth) }
    }

    /// One WiFi scan at each point of `plan`, in order: exactly
    /// [`SensorHub::scan_wifi`] at each point, the same draws and bits
    /// ([`World::wifi_survey`]).
    ///
    /// # Panics
    ///
    /// Panics when the hub's world does not own `plan`.
    pub fn survey_wifi(&mut self, plan: &SurveyPlan) -> Vec<WifiScan> {
        let truth = self.world.wifi_survey(plan, &mut self.memo, &mut self.rng);
        truth.into_iter().map(|t| WifiScan { readings: measured(self.device, t) }).collect()
    }

    /// One cellular scan at each point of `plan`, in order: exactly
    /// [`SensorHub::scan_cell`] at each point.
    ///
    /// # Panics
    ///
    /// Panics when the hub's world does not own `plan`.
    pub fn survey_cell(&mut self, plan: &SurveyPlan) -> Vec<CellScan> {
        let truth = self.world.cell_survey(plan, &mut self.memo, &mut self.rng);
        truth.into_iter().map(|t| CellScan { readings: measured(self.device, t) }).collect()
    }

    /// Attempts a GPS fix at `p`. Returns `None` with fewer than 4 visible
    /// satellites.
    ///
    /// The fix error magnitude follows the paper's outdoor measurement
    /// `|N(13.5 m, 9.4 m)|`, inflated when fewer satellites are visible
    /// (semi-open corridors, car parks).
    pub fn gps_fix(&mut self, p: Point) -> Option<GpsFix> {
        let sats = self.world.visible_satellites(p, &mut self.memo, &mut self.rng);
        if sats < 4 {
            return None;
        }
        let hdop =
            (0.4 + 5.5 / (sats as f64 - 3.0) + 0.15 * self.rng.standard_normal().abs()).min(20.0);
        let degradation = (10.5 / sats as f64).max(1.0).powf(1.2);
        let magnitude = (13.5 + 9.4 * self.rng.standard_normal()).abs() * degradation;
        let angle = self.rng.gen_range(0.0..(2.0 * std::f64::consts::PI));
        let reported = p + Vector2::from_heading(angle, magnitude);
        Some(GpsFix {
            coordinate: self.world.geo_frame().to_geo(reported),
            hdop,
            satellites: sats,
        })
    }

    /// Reads the ambient light sensor at `p`.
    pub fn light(&mut self, p: Point) -> f64 {
        self.world.ambient_light(p, &mut self.rng)
    }

    /// Reads the magnetometer disturbance proxy at `p`.
    pub fn magnetic_variance(&mut self, p: Point) -> f64 {
        (self.world.magnetic_disturbance(p) + 0.05 * self.rng.standard_normal()).clamp(0.0, 1.0)
    }

    /// Corrupts one true step into an IMU [`StepMeasurement`], advancing the
    /// heading-drift state.
    pub fn measure_step(&mut self, step: &uniloc_env::StepEvent) -> StepMeasurement {
        let mag = self.world.magnetic_disturbance(step.position);
        // Heading bias: AR(1) random walk whose innovation grows with the
        // magnetic disturbance (magnetometer corrections are weaker where
        // the field is disturbed). The slow retention makes drift persist
        // over tens of meters — the error-accumulation behaviour the
        // paper's beta_1 (distance from last landmark) feature captures.
        let rate = 0.025 + 0.020 * mag;
        self.heading_bias = self.heading_bias * 0.97 + rate * self.rng.standard_normal();
        let tremble = 0.03 + 0.02 * mag;
        let heading_est = step.heading + self.heading_bias + tremble * self.rng.standard_normal();
        // Persistent per-walk gait-scale error plus per-step noise: the
        // correlated part produces along-track drift that only landmark
        // calibration can remove.
        let length_est =
            step.step_length * self.step_scale * (1.0 + 0.03 * self.rng.standard_normal());
        StepMeasurement { t: step.t, duration: step.duration, length_est, heading_est }
    }

    /// Checks for a landmark recognition at the walker's physical position.
    /// Fires once per pass (with an 88% recognition rate), not continuously
    /// while inside the detection radius.
    fn observe_landmark(&mut self, p: Point) -> Option<LandmarkObservation> {
        match self.world.floorplan().detected_landmark(p) {
            Some(l) => {
                let revisit = self
                    .last_landmark
                    .is_some_and(|q| q.distance(l.position) < 1e-6);
                self.last_landmark = Some(l.position);
                if !revisit && self.rng.gen_bool(0.88) {
                    Some(LandmarkObservation { kind: l.kind, position: l.position })
                } else {
                    None
                }
            }
            None => {
                self.last_landmark = None;
                None
            }
        }
    }

    /// Samples a whole walk into frames every `interval` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `interval <= 0`.
    pub fn sample_walk(&mut self, walk: &Trajectory, interval: f64) -> Vec<SensorFrame> {
        self.sample_walk_prefix(walk, interval, usize::MAX)
    }

    /// The first `limit` frames of [`SensorHub::sample_walk`], bit for bit,
    /// without synthesizing the rest. Frames draw from the hub's one RNG in
    /// frame order, and frame `k`'s draws depend only on the frames before
    /// it, so stopping after `limit` frames changes none of them.
    ///
    /// # Panics
    ///
    /// Panics if `interval <= 0`.
    pub fn sample_walk_prefix(
        &mut self,
        walk: &Trajectory,
        interval: f64,
        limit: usize,
    ) -> Vec<SensorFrame> {
        assert!(interval > 0.0, "sampling interval must be positive");
        let duration = walk.duration();
        let mut frames = Vec::new();
        let mut step_idx = 0usize;
        let steps = walk.steps();
        let mut t = interval;
        while frames.len() < limit && t <= duration + interval {
            let epoch_t = t.min(duration);
            let p = walk.position_at(epoch_t);
            let mut epoch_steps = Vec::new();
            while step_idx < steps.len() && steps[step_idx].t <= epoch_t {
                epoch_steps.push(self.measure_step(&steps[step_idx]));
                step_idx += 1;
            }
            frames.push(SensorFrame {
                t: epoch_t,
                true_position: p,
                wifi: Some(self.scan_wifi(p)),
                cell: Some(self.scan_cell(p)),
                gps: self.gps_fix(p),
                steps: epoch_steps,
                landmark: self.observe_landmark(p),
                light_lux: self.light(p),
                magnetic_variance: self.magnetic_variance(p),
            });
            if epoch_t >= duration {
                break;
            }
            t += interval;
        }
        frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniloc_env::{campus, GaitProfile, Walker};

    fn path_frames(seed: u64) -> (campus::Scenario, Trajectory, Vec<SensorFrame>) {
        let scenario = campus::daily_path(seed);
        let mut walker =
            Walker::new(GaitProfile::average(), Rng::seed_from_u64(seed + 1));
        let walk = walker.walk(&scenario.route);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), seed + 2);
        let frames = hub.sample_walk(&walk, 0.5);
        (scenario, walk, frames)
    }

    #[test]
    fn frames_cover_walk_and_steps() {
        let (_, walk, frames) = path_frames(1);
        assert!(!frames.is_empty());
        let total_steps: usize = frames.iter().map(|f| f.steps.len()).sum();
        assert_eq!(total_steps, walk.len());
        // Epoch times increase and end at walk duration.
        for w in frames.windows(2) {
            assert!(w[1].t > w[0].t);
        }
        assert!((frames.last().unwrap().t - walk.duration()).abs() < 1e-9);
    }

    #[test]
    fn gps_available_outdoors_only() {
        let (scenario, _, frames) = path_frames(2);
        let mut indoor_fixes = 0usize;
        let mut outdoor_fixes = 0usize;
        let mut outdoor_frames = 0usize;
        let mut indoor_frames = 0usize;
        for f in &frames {
            if scenario.world.is_indoor(f.true_position) {
                indoor_frames += 1;
                if f.gps.is_some_and(|g| g.is_reliable()) {
                    indoor_fixes += 1;
                }
            } else {
                outdoor_frames += 1;
                if f.gps.is_some_and(|g| g.is_reliable()) {
                    outdoor_fixes += 1;
                }
            }
        }
        assert!(outdoor_fixes as f64 / outdoor_frames as f64 > 0.9, "outdoors GPS must work");
        assert!(
            (indoor_fixes as f64 / indoor_frames as f64) < 0.1,
            "reliable indoor fixes should be rare: {indoor_fixes}/{indoor_frames}"
        );
    }

    #[test]
    fn gps_error_matches_paper_distribution() {
        let scenario = campus::daily_path(3);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 5);
        let p = scenario.route.point_at(300.0); // open space
        let mut errors = Vec::new();
        for _ in 0..400 {
            if let Some(fix) = hub.gps_fix(p) {
                let reported = scenario.world.geo_frame().to_local(fix.coordinate);
                errors.push(reported.distance(p));
            }
        }
        assert!(errors.len() > 350);
        let mean = errors.iter().sum::<f64>() / errors.len() as f64;
        // |N(13.5, 9.4)| has mean ~13.9.
        assert!((mean - 13.9).abs() < 2.5, "GPS mean error {mean}");
    }

    #[test]
    fn heading_bias_accumulates_but_stays_bounded() {
        let (_, walk, _) = path_frames(4);
        let scenario = campus::daily_path(4);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 6);
        let mut max_err: f64 = 0.0;
        for s in walk.steps() {
            let m = hub.measure_step(s);
            let err = (m.heading_est - s.heading).abs();
            max_err = max_err.max(err);
        }
        assert!(max_err > 0.005, "some drift must appear");
        assert!(max_err < 0.6, "drift must stay physical, got {max_err}");
    }

    #[test]
    fn device_offset_shifts_scans() {
        let scenario = campus::daily_path(5);
        let p = scenario.route.point_at(25.0);
        let mut nexus = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 7);
        let mut g3 = SensorHub::new(&scenario.world, DeviceProfile::lg_g3(), 7);
        let a = nexus.scan_wifi(p);
        let b = g3.scan_wifi(p);
        // Same seed, same truth: the difference is exactly the transfer.
        for ((id_a, ra), (id_b, rb)) in a.readings.iter().zip(&b.readings) {
            assert_eq!(id_a, id_b);
            let expected = DeviceProfile::lg_g3().measure_rssi(
                (ra - DeviceProfile::nexus_5x().rssi_delta) / DeviceProfile::nexus_5x().rssi_alpha,
            );
            assert!((rb - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn light_and_magnetics_reflect_environment() {
        let (scenario, _, frames) = path_frames(7);
        let mut indoor_light = Vec::new();
        let mut outdoor_light = Vec::new();
        for f in &frames {
            if scenario.world.is_indoor(f.true_position) {
                indoor_light.push(f.light_lux);
            } else {
                outdoor_light.push(f.light_lux);
            }
            assert!((0.0..=1.0).contains(&f.magnetic_variance));
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(avg(&outdoor_light) > 5.0 * avg(&indoor_light));
    }

    #[test]
    fn landmarks_observed_once_per_pass() {
        let scenario = campus::daily_path(9);
        let mut walker = Walker::new(GaitProfile::average(), Rng::seed_from_u64(10));
        let walk = walker.walk(&scenario.route);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 11);
        let frames = hub.sample_walk(&walk, 0.5);
        let observed: Vec<_> = frames.iter().filter_map(|f| f.landmark).collect();
        // The daily path has several landmarks (turns at 4 corners, doors).
        assert!(observed.len() >= 3, "only {} landmark observations", observed.len());
        // No two consecutive frames observe the same landmark position.
        for w in frames.windows(2) {
            if let (Some(a), Some(b)) = (w[0].landmark, w[1].landmark) {
                assert!(
                    a.position.distance(b.position) > 1e-6,
                    "same landmark fired twice in a row"
                );
            }
        }
        // Observed positions are real landmarks from the plan.
        for obs in &observed {
            assert!(
                scenario
                    .world
                    .floorplan()
                    .landmarks()
                    .iter()
                    .any(|l| l.position.distance(obs.position) < 1e-9),
                "observation does not match any planned landmark"
            );
        }
    }

    #[test]
    fn sample_walk_is_deterministic() {
        let scenario = campus::daily_path(12);
        let mut walker1 = Walker::new(GaitProfile::average(), Rng::seed_from_u64(13));
        let walk1 = walker1.walk(&scenario.route);
        let mut walker2 = Walker::new(GaitProfile::average(), Rng::seed_from_u64(13));
        let walk2 = walker2.walk(&scenario.route);
        let mut hub1 = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 14);
        let mut hub2 = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 14);
        let f1 = hub1.sample_walk(&walk1, 0.5);
        let f2 = hub2.sample_walk(&walk2, 0.5);
        assert_eq!(f1, f2, "same seeds must reproduce identical frames");
    }

    /// The limited sampler is the prefix of the full one: same frames, bit
    /// for bit, at every cut including the empty one and past the end.
    #[test]
    fn prefix_sampler_equals_truncated_walk() {
        let (scenario, walk, full) = path_frames(15);
        let len = full.len();
        for k in [0, 1, len - 1, len, len + 3] {
            let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 15 + 2);
            let prefix = hub.sample_walk_prefix(&walk, 0.5, k);
            assert_eq!(prefix, full[..k.min(len)], "prefix of {k} frames");
        }
    }

    #[test]
    #[should_panic(expected = "sampling interval must be positive")]
    fn zero_interval_panics() {
        let scenario = campus::daily_path(8);
        let mut walker = Walker::new(GaitProfile::average(), Rng::seed_from_u64(1));
        let walk = walker.walk(&scenario.route);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 9);
        hub.sample_walk(&walk, 0.0);
    }
}
