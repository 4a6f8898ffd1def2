//! The "General" feature: "any localization scheme can be easily integrated
//! into UniLoc". This test integrates a sixth, user-defined scheme — a
//! Kalman-smoothed cellular tracker — gives it an error model, and checks
//! the engine folds it into the ensemble.

use uniloc_rng::Rng;
use uniloc::core::engine::UniLocEngine;
use uniloc::core::error_model::{train, LinearErrorModel};
use uniloc::core::pipeline::{self, PipelineConfig};
use uniloc::env::{venues, GaitProfile, Walker};
use uniloc::filters::Kalman2D;
use uniloc::iodetect::IoState;
use uniloc::schemes::{
    CellFingerprintDb, CellFingerprintScheme, LocalizationScheme, LocationEstimate, SchemeId,
};
use uniloc::sensors::{DeviceProfile, SensorFrame, SensorHub};

/// A user-integrated scheme: cellular fingerprinting smoothed by a
/// constant-velocity Kalman filter.
struct SmoothedCellular {
    inner: CellFingerprintScheme,
    kalman: Option<Kalman2D>,
    last_t: f64,
}

impl SmoothedCellular {
    fn new(db: CellFingerprintDb) -> Self {
        SmoothedCellular { inner: CellFingerprintScheme::new(db), kalman: None, last_t: 0.0 }
    }
}

impl LocalizationScheme for SmoothedCellular {
    fn id(&self) -> SchemeId {
        SchemeId::Custom(1)
    }

    fn update(&mut self, frame: &SensorFrame) -> Option<LocationEstimate> {
        let raw = self.inner.update(frame)?;
        let dt = (frame.t - self.last_t).max(0.1);
        self.last_t = frame.t;
        let kf = self
            .kalman
            .get_or_insert_with(|| Kalman2D::new(raw.position, 0.5, 64.0));
        kf.predict(dt);
        kf.update(raw.position);
        Some(LocationEstimate::with_spread(
            kf.position(),
            kf.position_variance().sqrt(),
        ))
    }
}

#[test]
fn smoothing_beats_raw_cellular() {
    let venue = venues::training_office(81);
    let cfg = PipelineConfig::default();
    let ctx = pipeline::build_context(&venue, &cfg, 82);
    let mut raw = CellFingerprintScheme::new(ctx.cell_db.clone());
    let mut smoothed = SmoothedCellular::new(ctx.cell_db.clone());

    let mut walker = Walker::new(GaitProfile::average(), Rng::seed_from_u64(83));
    let walk = walker.walk(&venue.route);
    let mut hub = SensorHub::new(&venue.world, DeviceProfile::nexus_5x(), 84);
    let frames = hub.sample_walk(&walk, 0.5);

    let mean_err = |scheme: &mut dyn LocalizationScheme| {
        let errs: Vec<f64> = frames
            .iter()
            .filter_map(|f| scheme.update(f).map(|e| e.position.distance(f.true_position)))
            .collect();
        errs.iter().sum::<f64>() / errs.len() as f64
    };
    let raw_err = mean_err(&mut raw);
    let smooth_err = mean_err(&mut smoothed);
    assert!(
        smooth_err < raw_err,
        "Kalman smoothing ({smooth_err:.2}) should beat raw cellular ({raw_err:.2})"
    );
}

#[test]
fn custom_scheme_joins_the_ensemble() {
    let venue = venues::training_office(85);
    let cfg = PipelineConfig::default();
    let ctx = pipeline::build_context(&venue, &cfg, 86);

    // Train the built-in models, then hand-integrate the custom scheme
    // with a constant error model (as a user without features would).
    let mut samples = pipeline::collect_training(&venue, &cfg, 87);
    samples.extend(pipeline::collect_training(&venues::training_open_space(88), &cfg, 89));
    let mut models = train(&samples).expect("training venues produce enough samples");
    models.insert(
        SchemeId::Custom(1),
        IoState::Indoor,
        LinearErrorModel {
            intercept: 4.0,
            coefficients: vec![],
            sigma: 3.0,
            residual_mean: 0.0,
            r_squared: 0.0,
            p_values: vec![],
            n_obs: 100,
        },
    );

    let mut schemes = pipeline::build_schemes(&venue, &ctx, &cfg, 90);
    schemes.push(Box::new(SmoothedCellular::new(ctx.cell_db.clone())));
    let mut engine = UniLocEngine::new(schemes, models, ctx);
    assert_eq!(engine.scheme_ids().len(), 6);
    // Register the custom scheme's (empty, constant-model) feature vector:
    // available whenever a cellular scan exists indoors.
    engine.register_custom_features(
        SchemeId::Custom(1),
        std::sync::Arc::new(|_ctx, io, frame, _loc| {
            (io == IoState::Indoor
                && frame.cell.as_ref().is_some_and(|c| !c.readings.is_empty()))
            .then(Vec::new)
        }),
    );

    let mut walker = Walker::new(GaitProfile::average(), Rng::seed_from_u64(91));
    let walk = walker.walk(&venue.route);
    let mut hub = SensorHub::new(&venue.world, DeviceProfile::nexus_5x(), 92);
    let frames = hub.sample_walk(&walk, 0.5);

    // With features + a model registered, the sixth scheme participates in
    // the ensemble: it gets nonzero BMA weight.
    let mut custom_listed = 0usize;
    let mut custom_weighted = 0usize;
    let mut delivered = 0usize;
    for f in &frames {
        let out = engine.update(f);
        delivered += usize::from(out.bayesian_average.is_some());
        if let Some(r) = out.reports.iter().find(|r| r.id == SchemeId::Custom(1)) {
            custom_listed += 1;
            custom_weighted += usize::from(r.weight > 0.0);
            assert!(r.estimate.is_some(), "the custom scheme itself still runs");
        }
    }
    assert_eq!(custom_listed, frames.len());
    assert_eq!(delivered, frames.len());
    assert!(
        custom_weighted as f64 > 0.5 * frames.len() as f64,
        "custom scheme participated at only {custom_weighted}/{} epochs",
        frames.len()
    );

    // Positions stay accurate with the sixth scheme integrated.
    let mut engine2 = {
        let ctx = pipeline::build_context(&venue, &cfg, 86);
        let schemes = pipeline::build_schemes(&venue, &ctx, &cfg, 90);
        UniLocEngine::new(schemes, engine.models().clone(), ctx)
    };
    let errs: Vec<f64> = frames
        .iter()
        .filter_map(|f| {
            engine2
                .update(f)
                .bayesian_average
                .map(|p| p.distance(f.true_position))
        })
        .collect();
    let mean = errs.iter().sum::<f64>() / errs.len() as f64;
    assert!(mean < 8.0, "accuracy with the integrated scheme: {mean:.2}");
}
