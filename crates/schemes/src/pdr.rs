//! The motion-based PDR scheme (Li et al. \[7\] with UnLoc-style landmarks).
//!
//! The scheme "infers the walking model (i.e., step count, step length and
//! walking orientation) from the readings of inertial sensors and uses a
//! particle filter to incorporate the map constraints (e.g., path edges and
//! walls). We also detect more landmarks (e.g., turns, doors and
//! signatures) \[12\] for calibration." 300 particles are maintained per step;
//! particles whose step crosses a wall die; a recognized landmark reweights
//! the cloud around the landmark's known position, resetting accumulated
//! drift (which is why the error model's `beta_1` is *distance from the
//! last landmark*).

use crate::estimate::{LocalizationScheme, LocationEstimate, SchemeId};
use uniloc_rng::Rng;
use uniloc_filters::ParticleFilter;
use uniloc_geom::{FloorPlan, Point, Vector2};
use uniloc_sensors::{SensorFrame, StepMeasurement};

/// Particles maintained every step (the paper uses 300).
const NUM_PARTICLES: usize = 300;

/// Per-step multiplicative step-length noise (standard deviation).
const STEP_LENGTH_NOISE: f64 = 0.08;

/// Per-step additive heading noise (radians, standard deviation).
const HEADING_NOISE: f64 = 0.05;

/// Initial cloud spread around the start position (m).
const INIT_SPREAD: f64 = 1.0;

/// Gaussian kernel width for landmark calibration (m).
const LANDMARK_SIGMA: f64 = 3.5;

/// Resample when ESS drops below this fraction of the cloud.
pub(crate) const RESAMPLE_FRAC: f64 = 0.5;

/// One PDR particle: position plus per-particle gait personalisation
/// (step-length scale and heading offset hypotheses).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PdrParticle {
    pub pos: Point,
    pub length_scale: f64,
    pub heading_offset: f64,
}

/// The particle-filter machinery shared by the motion-based and fusion
/// schemes.
#[derive(Debug, Clone)]
pub(crate) struct PdrCore {
    pub plan: FloorPlan,
    pub pf: ParticleFilter<PdrParticle>,
    pub rng: Rng,
    /// Per-step wall-penalty scratch, recycled across
    /// [`advance_step`](Self::advance_step) calls so the steady-state epoch
    /// loop performs no heap allocation.
    penalty_scratch: Vec<f64>,
}

impl PdrCore {
    pub fn new(plan: FloorPlan, start: Point, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let pf = ParticleFilter::new(Self::spawn_cloud(&mut rng, &plan, start));
        let penalty_scratch = Vec::with_capacity(NUM_PARTICLES);
        PdrCore { plan, pf, rng, penalty_scratch }
    }

    /// Spawns a cloud around `center`, rejecting positions separated from
    /// the center by a wall (you cannot be on the other side of a wall from
    /// where you know you are).
    fn spawn_cloud(rng: &mut Rng, plan: &FloorPlan, center: Point) -> Vec<PdrParticle> {
        (0..NUM_PARTICLES)
            .map(|_| {
                let mut pos = center;
                for _ in 0..8 {
                    let cand =
                        center + Vector2::new(gauss(rng) * INIT_SPREAD, gauss(rng) * INIT_SPREAD);
                    if !plan.blocks(center, cand) {
                        pos = cand;
                        break;
                    }
                }
                PdrParticle {
                    pos,
                    length_scale: 1.0 + 0.05 * gauss(rng),
                    heading_offset: 0.03 * gauss(rng),
                }
            })
            .collect()
    }

    /// Advances every particle by one measured step. A particle whose step
    /// would cross a wall slides along that wall (the standard
    /// map-constrained PDR behaviour) and is down-weighted; a particle that
    /// cannot even slide stays put and is penalized harder.
    pub fn advance_step(&mut self, step: &StepMeasurement) {
        let mut penalties = std::mem::take(&mut self.penalty_scratch);
        penalties.clear();
        penalties.reserve(self.pf.len());
        let plan = &self.plan;
        self.pf.predict(&mut self.rng, |p, rng| {
            let heading = step.heading_est + p.heading_offset + HEADING_NOISE * gauss(rng);
            let length =
                (step.length_est * p.length_scale * (1.0 + STEP_LENGTH_NOISE * gauss(rng)))
                    .max(0.0);
            let old = p.pos;
            let delta = Vector2::from_heading(heading, length);
            let cand = old + delta;
            if let Some(wall) = plan.blocking_wall(old, cand) {
                // Slide: keep only the wall-parallel motion component.
                let along = (wall.segment.b - wall.segment.a).normalized();
                let slid = along
                    .map(|d| old + d * delta.dot(d))
                    .filter(|&q| !plan.blocks(old, q));
                match slid {
                    Some(q) => {
                        p.pos = q;
                        penalties.push(0.9);
                    }
                    None => {
                        // Boxed in: stay put, heavy penalty.
                        penalties.push(0.4);
                    }
                }
            } else {
                p.pos = cand;
                penalties.push(1.0);
            }
        });
        let mut idx = 0usize;
        let survived = self.pf.reweight(|_| {
            let w = penalties[idx];
            idx += 1;
            w
        });
        debug_assert!(survived, "penalties are always positive");
        self.penalty_scratch = penalties;
        self.pf.maybe_resample(RESAMPLE_FRAC, &mut self.rng);
    }

    /// Landmark calibration: reweight the cloud around the landmark's known
    /// position. A landmark is an *absolute* fix — when the cloud has
    /// drifted hopelessly far (beyond 3 sigma), reweighting would only snap
    /// to the nearest edge of the wrong cloud, so the filter re-initializes
    /// at the landmark instead (kidnapped-filter recovery, which is what a
    /// recognized door/signature physically justifies).
    pub fn calibrate_landmark(&mut self, landmark_pos: Point) {
        let est = self.estimate().position;
        if est.distance(landmark_pos) > 3.0 * LANDMARK_SIGMA {
            let cloud = Self::spawn_cloud(&mut self.rng, &self.plan, landmark_pos);
            self.pf.reinitialize(cloud);
            return;
        }
        let sigma2 = 2.0 * LANDMARK_SIGMA * LANDMARK_SIGMA;
        let ok = self
            .pf
            .reweight(|p| (-p.pos.distance_sq(landmark_pos) / sigma2).exp());
        if !ok {
            let cloud = Self::spawn_cloud(&mut self.rng, &self.plan, landmark_pos);
            self.pf.reinitialize(cloud);
        }
        self.pf.maybe_resample(RESAMPLE_FRAC, &mut self.rng);
    }

    /// The weighted mean of a subsampled particle-cloud posterior (up to
    /// 32 representatives, each weighing at least `1e-12`): the weights
    /// are summed, then the weighted x's, then the weighted y's, in
    /// particle order.
    pub fn posterior_mean(&self) -> Option<Point> {
        let n = self.pf.len();
        let step = (n / 32).max(1);
        let particles = self.pf.particles();
        let w: f64 = particles.iter().step_by(step).map(|p| p.weight.max(1e-12)).sum();
        if w > 0.0 {
            let x = particles
                .iter()
                .step_by(step)
                .map(|p| p.weight.max(1e-12) * p.state.pos.x)
                .sum::<f64>()
                / w;
            let y = particles
                .iter()
                .step_by(step)
                .map(|p| p.weight.max(1e-12) * p.state.pos.y)
                .sum::<f64>()
                / w;
            Some(Point::new(x, y))
        } else {
            None
        }
    }

    /// Weighted-mean estimate and cloud spread.
    pub fn estimate(&self) -> LocationEstimate {
        let (x, y) = self.pf.estimate_xy(|p| (p.pos.x, p.pos.y));
        let mean = Point::new(x, y);
        let var = self.pf.estimate(|p| p.pos.distance_sq(mean));
        LocationEstimate::with_spread(mean, var.sqrt())
    }
}

fn gauss(rng: &mut Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// The motion-based PDR scheme.
///
/// # Examples
///
/// ```no_run
/// use uniloc_env::campus;
/// use uniloc_schemes::PdrScheme;
///
/// let scenario = campus::daily_path(1);
/// let scheme =
///     PdrScheme::new(scenario.world.floorplan().clone(), scenario.route.start(), 7);
/// ```
#[derive(Debug, Clone)]
pub struct PdrScheme {
    core: PdrCore,
}

impl PdrScheme {
    /// Creates the scheme with the venue floor plan and the walk's start
    /// position (PDR is a relative scheme; like the original systems it is
    /// anchored at a known start, e.g. the building entrance).
    pub fn new(plan: FloorPlan, start: Point, seed: u64) -> Self {
        PdrScheme { core: PdrCore::new(plan, start, seed) }
    }
}

impl LocalizationScheme for PdrScheme {
    fn id(&self) -> SchemeId {
        SchemeId::Motion
    }

    fn update(&mut self, frame: &SensorFrame) -> Option<LocationEstimate> {
        for step in &frame.steps {
            self.core.advance_step(step);
        }
        if let Some(lm) = frame.landmark {
            self.core.calibrate_landmark(lm.position);
        }
        // Sidecar-only telemetry: degeneracy of the particle cloud.
        uniloc_obs::global_metrics()
            .gauge("pdr.particle_filter.ess")
            .set(self.core.pf.effective_sample_size());
        Some(self.core.estimate())
    }

    fn posterior_mean(&self) -> Option<Point> {
        self.core.posterior_mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniloc_env::{campus, venues, GaitProfile, Walker};
    use uniloc_sensors::{DeviceProfile, SensorHub};

    fn run(scenario: &campus::Scenario, seed: u64) -> Vec<(f64, f64)> {
        let mut walker = Walker::new(GaitProfile::average(), Rng::seed_from_u64(seed));
        let walk = walker.walk(&scenario.route);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), seed + 1);
        let frames = hub.sample_walk(&walk, 0.5);
        let mut scheme =
            PdrScheme::new(scenario.world.floorplan().clone(), scenario.route.start(), seed + 2);
        frames
            .iter()
            .filter_map(|f| {
                scheme.update(f).map(|e| {
                    let (_, station) = scenario.route.project(f.true_position);
                    (station, e.position.distance(f.true_position))
                })
            })
            .collect()
    }

    #[test]
    fn tracks_office_walk_tightly() {
        let scenario = venues::training_office(71);
        let results = run(&scenario, 72);
        let errs: Vec<f64> = results.iter().map(|r| r.1).collect();
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        // Landmark-calibrated PDR in a walled office: a few meters (the
        // paper's indoor motion scheme sits at ~3-6 m too).
        assert!(mean < 7.0, "office PDR mean error {mean}");
    }

    #[test]
    fn error_grows_on_long_unlandmarked_stretch() {
        // The open-space tail of the daily path has no landmarks: drift
        // accumulates, as the paper's beta_1 feature captures. A single
        // walk's drift is noisy, so the claim is averaged over several
        // seeds.
        let mut open = Vec::new();
        let mut office = Vec::new();
        for seed in 0..6 {
            let scenario = campus::daily_path(73 + seed);
            let results = run(&scenario, 74 + seed);
            open.extend(results.iter().filter(|r| r.0 > 240.0).map(|r| r.1));
            office.extend(results.iter().filter(|r| r.0 < 50.0).map(|r| r.1));
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&open) > mean(&office),
            "open-space drift ({}) must exceed office error ({})",
            mean(&open),
            mean(&office)
        );
    }

    #[test]
    fn always_available() {
        let scenario = campus::daily_path(75);
        let mut walker = Walker::new(GaitProfile::average(), Rng::seed_from_u64(76));
        let walk = walker.walk(&scenario.route);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 77);
        let frames = hub.sample_walk(&walk, 0.5);
        let mut scheme =
            PdrScheme::new(scenario.world.floorplan().clone(), scenario.route.start(), 78);
        assert!(frames.iter().all(|f| scheme.update(f).is_some()));
    }

    #[test]
    fn landmark_calibration_pulls_cloud() {
        let plan = FloorPlan::new();
        let mut core = PdrCore::new(plan, Point::origin(), 79);
        // Drift the cloud artificially.
        core.pf.predict(&mut Rng::seed_from_u64(1), |p, _| {
            p.pos += Vector2::new(10.0, 0.0);
        });
        let before = core.estimate().position;
        assert!((before.x - 10.0).abs() < 1.0);
        // Calibrate against a landmark at (12, 1).
        core.calibrate_landmark(Point::new(12.0, 1.0));
        let after = core.estimate().position;
        assert!(
            after.distance(Point::new(12.0, 1.0)) < before.distance(Point::new(12.0, 1.0)),
            "calibration must pull toward the landmark"
        );
    }

    #[test]
    fn wall_constraint_blocks_drift_through_walls() {
        // A narrow corridor with heavy heading bias: particles that try to
        // cross the walls die, keeping the estimate inside.
        let mut plan = FloorPlan::new();
        plan.add_wall(Point::new(-6.0, 1.5), Point::new(60.0, 1.5));
        plan.add_wall(Point::new(-6.0, -1.5), Point::new(60.0, -1.5));
        plan.add_wall(Point::new(-6.0, -1.5), Point::new(-6.0, 1.5));
        let mut core = PdrCore::new(plan, Point::origin(), 84);
        // 40 steps east with a strong northward heading bias.
        for i in 0..40 {
            let step = StepMeasurement {
                t: i as f64 * 0.5,
                duration: 0.5,
                length_est: 0.65,
                // ~17 degrees north of east.
                heading_est: std::f64::consts::FRAC_PI_2 - 0.3,
            };
            core.advance_step(&step);
        }
        let est = core.estimate().position;
        assert!(est.y.abs() < 2.0, "estimate must stay in the corridor, y={}", est.y);
        assert!(est.x > 15.0, "estimate must progress along the corridor, x={}", est.x);
    }
}
