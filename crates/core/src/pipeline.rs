//! The experiment harness: surveys a venue, builds the five schemes, walks
//! the route and records per-epoch results.
//!
//! Both phases of the paper's workflow share this machinery:
//!
//! * **Training** ([`collect_training`]) — Step 1 of Section III: walk a
//!   venue *with ground truth*, recording `(features, error)` tuples per
//!   scheme, split indoor/outdoor.
//! * **Evaluation** ([`run_walk`]) — Section V: walk any venue with trained
//!   models and record every scheme's error, UniLoc1/UniLoc2's errors, the
//!   oracle, scheme usage and the GPS duty cycle.

use crate::error_model::{train, ErrorModelSet, ErrorPrediction, TrainingSample};
use crate::features::{FeatureExtractor, PredictorKind, SharedContext};
use crate::quarantine::DegradationLadder;
use uniloc_env::{venues, GaitProfile, Scenario, Walker};
use uniloc_geom::Point;
use uniloc_iodetect::IoState;
use uniloc_schemes::{
    CellFingerprintDb, CellFingerprintScheme, FusionScheme, GpsScheme, LocalizationScheme,
    PdrScheme, SchemeId, WifiFingerprintDb, WifiFingerprintScheme,
};
use uniloc_sensors::{DeviceProfile, RssiCalibration, SensorHub};
use uniloc_rng::Rng;
use uniloc_stats::StatsError;

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Localization epoch interval (s); the paper updates every 0.5 s.
    pub epoch_interval: f64,
    /// Fingerprint spacing indoors (m); the paper surveys at 1-3 m.
    pub indoor_spacing: f64,
    /// Fingerprint spacing outdoors (m); the paper's open spaces use 12 m.
    pub outdoor_spacing: f64,
    /// The phone running online localization.
    pub device: DeviceProfile,
    /// Online device calibration toward the survey device, if any.
    pub calibration: Option<RssiCalibration>,
    /// Walker gait.
    pub gait: GaitProfile,
    /// Online location predictor for the feature extractor.
    pub predictor: PredictorKind,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            epoch_interval: 0.5,
            indoor_spacing: 1.5,
            outdoor_spacing: 12.0,
            device: DeviceProfile::nexus_5x(),
            calibration: None,
            gait: GaitProfile::average(),
            predictor: PredictorKind::default(),
        }
    }
}

/// Why a [`PipelineConfig`] cannot be used. Raised by
/// [`PipelineConfig::validate`] at the harness entry points, so a negative
/// epoch interval or a zero survey spacing fails *here*, with the field
/// named, instead of deep inside the epoch loop or the survey grid.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A rate/spacing field that must be strictly positive and finite was
    /// not; `(field, value)`.
    NonPositive(&'static str, f64),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NonPositive(field, v) => {
                write!(f, "`{field}` must be positive and finite, got {v}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl PipelineConfig {
    /// Checks every numeric field for physical sense. Harness entry
    /// points ([`build_context`], [`collect_training`], [`run_walk`])
    /// call this and panic with the typed error, so a bad config fails
    /// fast and near its cause.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let positive = |field, v: f64| {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(ConfigError::NonPositive(field, v))
            }
        };
        positive("epoch_interval", self.epoch_interval)?;
        positive("indoor_spacing", self.indoor_spacing)?;
        positive("outdoor_spacing", self.outdoor_spacing)
    }
}

/// Panics with the named field when `cfg` is unusable — the shared
/// guard behind every harness entry point.
fn assert_valid(cfg: &PipelineConfig) {
    if let Err(e) = cfg.validate() {
        panic!("invalid PipelineConfig: {e}");
    }
}

/// Everything recorded for one localization epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// Epoch time (s since walk start).
    pub t: f64,
    /// Ground-truth station along the route (m from start).
    pub station: f64,
    /// Ground-truth position.
    pub truth: Point,
    /// Ground-truth indoor flag.
    pub indoor: bool,
    /// IODetector's verdict.
    pub io_detected: IoState,
    /// Per-scheme localization error (None = unavailable).
    pub scheme_errors: Vec<(SchemeId, Option<f64>)>,
    /// Per-scheme position estimates (None = unavailable).
    pub estimates: Vec<(SchemeId, Option<Point>)>,
    /// Per-scheme predicted error distribution (None = not predictable).
    pub predictions: Vec<(SchemeId, Option<ErrorPrediction>)>,
    /// UniLoc1 (best-selection) error.
    pub uniloc1_error: Option<f64>,
    /// The scheme UniLoc1 selected.
    pub uniloc1_choice: Option<SchemeId>,
    /// UniLoc2 (locally-weighted BMA) error.
    pub uniloc2_error: Option<f64>,
    /// UniLoc2 error under the full-posterior mixture variant (Eqs. 3-4
    /// computed over scheme posteriors instead of point estimates).
    pub uniloc2_mixture_error: Option<f64>,
    /// Oracle (ground-truth best single scheme) error.
    pub oracle_error: Option<f64>,
    /// The scheme the oracle picked.
    pub oracle_choice: Option<SchemeId>,
    /// Per-scheme BMA weights this epoch (Eq. 5).
    pub weights: Vec<(SchemeId, f64)>,
    /// Whether UniLoc's duty-cycling kept the GPS receiver on.
    pub gps_enabled: bool,
    /// The adaptive confidence threshold used this epoch.
    pub tau: Option<f64>,
    /// The engine's degradation-ladder state this epoch.
    pub ladder: DegradationLadder,
    /// Schemes excluded from this epoch's fusion by the quarantine
    /// machine.
    pub quarantined: Vec<SchemeId>,
}

uniloc_stats::impl_json_struct!(EpochRecord {
    t,
    station,
    truth,
    indoor,
    io_detected,
    scheme_errors,
    estimates,
    predictions,
    uniloc1_error,
    uniloc1_choice,
    uniloc2_error,
    uniloc2_mixture_error,
    oracle_error,
    oracle_choice,
    weights,
    gps_enabled,
    tau,
    ladder,
    quarantined,
});

/// Surveys the venue's fingerprint databases (always with the reference
/// device, as in the paper) and snapshots the floor plan.
pub fn build_context(scenario: &Scenario, cfg: &PipelineConfig, seed: u64) -> SharedContext {
    assert_valid(cfg);
    let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), seed);
    let points = scenario.survey_points(cfg.indoor_spacing, cfg.outdoor_spacing);
    SharedContext {
        wifi_db: WifiFingerprintDb::survey_wifi(&mut hub, &points),
        cell_db: CellFingerprintDb::survey_cell(&mut hub, &points),
        plan: scenario.world.floorplan().clone(),
    }
}

/// Builds the paper's five schemes for a scenario.
pub fn build_schemes(
    scenario: &Scenario,
    ctx: &SharedContext,
    cfg: &PipelineConfig,
    seed: u64,
) -> Vec<Box<dyn LocalizationScheme>> {
    let start = scenario.route.start();
    let mut wifi = WifiFingerprintScheme::new(ctx.wifi_db.clone());
    if let Some(cal) = cfg.calibration {
        wifi = wifi.with_calibration(cal);
    }
    vec![
        Box::new(GpsScheme::new(*scenario.world.geo_frame())),
        Box::new(wifi),
        Box::new(CellFingerprintScheme::new(ctx.cell_db.clone())),
        Box::new(PdrScheme::new(ctx.plan.clone(), start, seed)),
        Box::new(FusionScheme::new(ctx.plan.clone(), start, ctx.wifi_db.clone(), seed + 1)),
    ]
}

/// Step 1 of the error-modeling workflow: walks the scenario, running every
/// scheme, and records `(features, error)` training tuples. Ground truth is
/// used for the indoor/outdoor split and for the location-dependent
/// features, exactly as the paper's training phase does.
///
/// Following Section III-B, the walk is repeated against downsampled
/// fingerprint databases ("for larger fingerprint distances (e.g., 5 m,
/// 10 m, and 15 m), we downsample the fine-grained fingerprint data") so
/// the density feature `beta_1` actually varies in the training set —
/// without the sweep it would be a constant column and the regression could
/// not identify its coefficient.
pub fn collect_training(
    scenario: &Scenario,
    cfg: &PipelineConfig,
    seed: u64,
) -> Vec<TrainingSample> {
    let _span = uniloc_obs::global()
        .span(uniloc_obs::Stage::PipelineCollectTraining)
        .field("scenario", scenario.name.as_str());
    assert_valid(cfg);
    let base_ctx = build_context(scenario, cfg, seed);
    let mut samples = Vec::new();
    for (pass, spacing) in [None, Some(5.0), Some(10.0), Some(15.0)].into_iter().enumerate() {
        let ctx = match spacing {
            None => base_ctx.clone(),
            Some(s) => SharedContext {
                wifi_db: base_ctx.wifi_db.downsampled(s),
                cell_db: base_ctx.cell_db.downsampled(s),
                plan: base_ctx.plan.clone(),
            },
        };
        collect_training_pass(
            scenario,
            cfg,
            &ctx,
            seed + 100 * pass as u64,
            &mut samples,
        );
    }
    samples
}

fn collect_training_pass(
    scenario: &Scenario,
    cfg: &PipelineConfig,
    ctx: &SharedContext,
    seed: u64,
    samples: &mut Vec<TrainingSample>,
) {
    let mut schemes = build_schemes(scenario, ctx, cfg, seed + 2);
    let mut extractor = FeatureExtractor::new(ctx);

    for frame in &walk_frames(scenario, cfg, seed) {
        extractor.begin_epoch(frame);
        let indoor = scenario.world.is_indoor(frame.true_position);
        let io = if indoor { IoState::Indoor } else { IoState::Outdoor };
        for scheme in &mut schemes {
            let id = scheme.id();
            let Some(est) = scheme.update(frame) else { continue };
            let Some(features) =
                extractor.features(ctx, id, io, frame, Some(frame.true_position))
            else {
                continue;
            };
            samples.push(TrainingSample {
                scheme: id,
                indoor,
                features,
                error: est.position.distance(frame.true_position),
            });
        }
        extractor.note_estimate(frame.true_position);
    }
}

/// Trains the error models as Section III-B does, on the default config:
/// one [`collect_training`] pass over the training office
/// ([`venues::training_office`]`(seed)`, walk seed `seed + 10`), then one
/// over the training open space (`seed + 1`, walk seed `seed + 11`).
///
/// # Errors
///
/// Propagates [`train`]'s error (the training venues always produce
/// enough samples unless the substrate is broken).
pub fn train_standard_models(seed: u64) -> Result<ErrorModelSet, StatsError> {
    let cfg = PipelineConfig::default();
    let mut samples = collect_training(&venues::training_office(seed), &cfg, seed + 10);
    samples.extend(collect_training(&venues::training_open_space(seed + 1), &cfg, seed + 11));
    train(&samples)
}

/// Samples the sensor-frame stream of one walk through a scenario — the
/// exact frames [`run_walk`] evaluates on. Exposed separately so a fault
/// injector (`uniloc-faults`) can corrupt the stream between sampling and
/// evaluation; uses the same RNG streams (`seed + 3` for the walker,
/// `seed + 4` for the sensor hub) as the fused path, so
/// `run_walk_on_frames(.., &walk_frames(..))` is byte-identical to
/// [`run_walk`].
pub fn walk_frames(
    scenario: &Scenario,
    cfg: &PipelineConfig,
    seed: u64,
) -> Vec<uniloc_sensors::SensorFrame> {
    walk_frames_prefix(scenario, cfg, seed, usize::MAX)
}

/// The first `limit` frames of [`walk_frames`], bit for bit, without
/// synthesizing the rest ([`SensorHub::sample_walk_prefix`]). Same streams:
/// the walker on `seed + 3` builds the whole trajectory, and the hub on
/// `seed + 4` stops after `limit` frames.
pub fn walk_frames_prefix(
    scenario: &Scenario,
    cfg: &PipelineConfig,
    seed: u64,
    limit: usize,
) -> Vec<uniloc_sensors::SensorFrame> {
    assert_valid(cfg);
    let mut walker = Walker::new(cfg.gait.clone(), Rng::seed_from_u64(seed + 3));
    let walk = walker.walk(&scenario.route);
    let mut hub = SensorHub::new(&scenario.world, cfg.device, seed + 4);
    hub.sample_walk_prefix(&walk, cfg.epoch_interval, limit)
}

/// Walks a scenario with trained models and records everything Section V
/// reports.
pub fn run_walk(
    scenario: &Scenario,
    models: &ErrorModelSet,
    cfg: &PipelineConfig,
    seed: u64,
) -> Vec<EpochRecord> {
    let frames = walk_frames(scenario, cfg, seed);
    run_walk_on_frames(scenario, models, cfg, seed, &frames)
}

/// Evaluates a pre-sampled (possibly fault-injected) frame stream with
/// trained models. `seed` must match the one used elsewhere in the run:
/// the survey uses `seed`, scheme construction `seed + 2` — the same
/// stream discipline as [`run_walk`].
///
/// Since the session refactor this is a thin driver over
/// [`crate::session::Session`]: one session is built from the scenario and
/// stepped over every frame in order. The per-epoch work — and therefore
/// every record byte and every observability effect — is the session's;
/// the only harness-level additions are the `pipeline.run_walk` /
/// `pipeline.build_context` spans wrapping the walk, which the fleet
/// scheduler deliberately does not emit (see `DESIGN.md` §9).
pub fn run_walk_on_frames(
    scenario: &Scenario,
    models: &ErrorModelSet,
    cfg: &PipelineConfig,
    seed: u64,
    frames: &[uniloc_sensors::SensorFrame],
) -> Vec<EpochRecord> {
    assert_valid(cfg);
    let obs = uniloc_obs::global();
    let _walk_span = obs
        .span(uniloc_obs::Stage::PipelineRunWalk)
        .field("scenario", scenario.name.as_str())
        .field("seed", seed);
    let ctx = {
        let _s = obs.span(uniloc_obs::Stage::PipelineBuildContext);
        build_context(scenario, cfg, seed)
    };
    let mut session = crate::session::Session::from_context(
        std::sync::Arc::new(scenario.clone()),
        ctx,
        models,
        cfg,
        seed,
    );
    frames.iter().map(|frame| session.step(frame)).collect()
}

/// Mean of the defined, finite values of an optional-valued series.
///
/// Non-finite values (a scheme reporting a NaN/infinite error is a
/// defined-but-useless observation) are excluded rather than poisoning
/// the mean; a series with no finite values yields `None`.
pub fn mean_defined(values: impl Iterator<Item = Option<f64>>) -> Option<f64> {
    let mut sum = 0.0;
    let mut n = 0u64;
    for v in values.flatten().filter(|v| v.is_finite()) {
        sum += v;
        n += 1;
    }
    if n == 0 {
        None
    } else {
        Some(sum / n as f64)
    }
}

/// Per-scheme mean error across records.
pub fn scheme_mean_error(records: &[EpochRecord], id: SchemeId) -> Option<f64> {
    mean_defined(records.iter().map(|r| {
        r.scheme_errors
            .iter()
            .find(|(s, _)| *s == id)
            .and_then(|(_, e)| *e)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> PipelineConfig {
        PipelineConfig { indoor_spacing: 2.0, ..PipelineConfig::default() }
    }

    #[test]
    fn training_collection_produces_all_schemes() {
        let scenario = venues::training_office(201);
        let cfg = small_cfg();
        let samples = collect_training(&scenario, &cfg, 202);
        assert!(samples.len() > 500, "got {} samples", samples.len());
        for id in [SchemeId::Wifi, SchemeId::Cellular, SchemeId::Motion, SchemeId::Fusion] {
            let n = samples.iter().filter(|s| s.scheme == id).count();
            assert!(n > 50, "{id} has only {n} samples");
        }
        // All office samples are indoor.
        assert!(samples.iter().all(|s| s.indoor));
        // Errors are physical.
        assert!(samples.iter().all(|s| s.error.is_finite() && s.error >= 0.0));
    }

    #[test]
    fn outdoor_training_includes_gps() {
        let scenario = venues::training_open_space(203);
        let cfg = small_cfg();
        let samples = collect_training(&scenario, &cfg, 204);
        let gps = samples.iter().filter(|s| s.scheme == SchemeId::Gps).count();
        assert!(gps > 20, "GPS outdoor samples: {gps}");
        assert!(samples.iter().all(|s| !s.indoor));
    }

    #[test]
    fn end_to_end_walk_beats_individual_schemes() {
        // Train on the office + open space, evaluate in the office (same
        // place, quick smoke test; the benches do the full campus).
        let cfg = small_cfg();
        let mut samples = collect_training(&venues::training_office(205), &cfg, 206);
        samples.extend(collect_training(&venues::training_open_space(207), &cfg, 208));
        let models = train(&samples).unwrap();
        let eval = venues::office("eval-office", 209, 48.0, 18.0);
        let records = run_walk(&eval, &models, &cfg, 210);
        assert!(!records.is_empty());

        let uniloc2 = mean_defined(records.iter().map(|r| r.uniloc2_error)).unwrap();
        let best_scheme = SchemeId::BUILTIN
            .iter()
            .filter_map(|&id| scheme_mean_error(&records, id))
            .fold(f64::INFINITY, f64::min);
        // In a single benign venue the best individual scheme can edge out
        // the ensemble; UniLoc's gains come from diverse paths (see the
        // fig6/fig7 benches). Competitive here means within 2x.
        assert!(
            uniloc2 <= best_scheme * 2.0,
            "UniLoc2 ({uniloc2:.2}) should be competitive with the best scheme ({best_scheme:.2})"
        );
        // UniLoc should be well under 10 m indoors.
        assert!(uniloc2 < 10.0, "UniLoc2 error {uniloc2}");
    }

    /// `validate` at the exact edges of every constraint: the open lower
    /// end, the closed upper end, and subnormals.
    #[test]
    fn validate_accepts_boundary_values() {
        // Strictly-positive fields: the smallest subnormal is positive
        // and finite, so it passes; f64::MAX is the closed top end.
        let cfg = PipelineConfig {
            epoch_interval: 5e-324,
            indoor_spacing: f64::MIN_POSITIVE,
            outdoor_spacing: f64::MAX,
            ..PipelineConfig::default()
        };
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_each_boundary_violation_with_the_field_named() {
        let base = PipelineConfig::default();
        // Positive-and-finite fields: zero, negative zero, infinity and
        // NaN all fail with the field named.
        for bad in [0.0, -0.0, f64::INFINITY, f64::NAN] {
            let cfg = PipelineConfig { epoch_interval: bad, ..base.clone() };
            assert!(
                matches!(cfg.validate(), Err(ConfigError::NonPositive("epoch_interval", _))),
                "epoch_interval = {bad}"
            );
        }
        let cfg = PipelineConfig { indoor_spacing: -1.5, ..base.clone() };
        assert!(matches!(cfg.validate(), Err(ConfigError::NonPositive("indoor_spacing", _))));
        let cfg = PipelineConfig { outdoor_spacing: f64::NEG_INFINITY, ..base.clone() };
        assert!(matches!(cfg.validate(), Err(ConfigError::NonPositive("outdoor_spacing", _))));

        // The first failing field wins, in declaration order.
        let cfg = PipelineConfig { epoch_interval: f64::NAN, outdoor_spacing: 0.0, ..base };
        assert!(matches!(cfg.validate(), Err(ConfigError::NonPositive("epoch_interval", _))));
    }

    #[test]
    fn mean_defined_filters_non_finite() {
        // All-NaN input must be None, not Some(NaN).
        let all_nan = [Some(f64::NAN), Some(f64::NAN), None];
        assert_eq!(mean_defined(all_nan.into_iter()), None);
        // Non-finite values are excluded from an otherwise defined series.
        let mixed = [Some(1.0), Some(f64::NAN), Some(3.0), Some(f64::INFINITY), None];
        assert_eq!(mean_defined(mixed.into_iter()), Some(2.0));
        // Plain cases are unchanged.
        assert_eq!(mean_defined([Some(2.0), Some(4.0)].into_iter()), Some(3.0));
        assert_eq!(mean_defined(std::iter::empty()), None);
        assert_eq!(mean_defined([None, None].into_iter()), None);
    }

    #[test]
    fn records_are_internally_consistent() {
        let cfg = small_cfg();
        let samples = collect_training(&venues::training_office(211), &cfg, 212);
        let models = train(&samples).unwrap();
        let eval = venues::training_office(211);
        let records = run_walk(&eval, &models, &cfg, 213);
        for r in &records {
            // Oracle error is a lower bound on any selection.
            if let (Some(o), Some(u1)) = (r.oracle_error, r.uniloc1_error) {
                assert!(o <= u1 + 1e-9, "oracle {o} > uniloc1 {u1}");
            }
            // Every record has the five schemes listed.
            assert_eq!(r.scheme_errors.len(), 5);
            assert_eq!(r.estimates.len(), 5);
            assert_eq!(r.predictions.len(), 5);
            // Station within route bounds.
            assert!(r.station >= 0.0 && r.station <= eval.route.length() + 1e-9);
        }
    }
}
