//! Ablations of UniLoc's design choices (Section IV discussion):
//!
//! 1. **Locally-weighted BMA vs global-weight BMA vs unweighted mean** —
//!    the paper's contribution over prior BMA fusion \[29\] is computing a
//!    *unique weight per location* from real-time context rather than one
//!    fixed weight per scheme for the whole place.
//! 2. **Adaptive tau vs fixed tau** — Eq. 2 sets the confidence threshold
//!    "adaptively at different locations, as the average predicted error of
//!    all available schemes".
//! 3. **Robustness to error-model noise** — "even with imperfect online
//!    error prediction", UniLoc2 "can better tolerate the uncertainty":
//!    coefficients are perturbed and the end accuracy tracked.
//! 4. **Fingerprint-spacing sweep** — the spatial-density feature's effect
//!    on the WiFi scheme (the paper downsamples to 5/10/15 m).
//! 5. **Horus vs RADAR** — the probabilistic-fingerprinting sample-count
//!    trade-off the paper cites as its reason for using RADAR.
//! 6. **A-Loc-style selection vs UniLoc** — the related-work baseline \[28\]
//!    that picks one low-cost scheme meeting an accuracy requirement.
//! 7. **Location-predictor choice** — the paper's second-order HMM vs the
//!    Kalman filter it also names, vs no smoothing at all.
//! 8. **Point-mass vs full-posterior BMA** — Eq. 4 evaluated over each
//!    scheme's posterior candidates instead of its point estimate.
//!
//! Run with: `cargo run --release -p uniloc-bench --bin ablations`

use uniloc_bench::{mean_defined, system_errors, trained_models};
use uniloc_core::aloc::ALocSelector;
use uniloc_core::confidence::{self, confidence};
use uniloc_core::energy::scheme_power_mw;
use uniloc_core::error_model::ErrorModelSet;
use uniloc_core::pipeline::{self, EpochRecord, PipelineConfig};
use uniloc_env::{campus, venues};
use uniloc_geom::Point;
use uniloc_iodetect::IoState;
use uniloc_schemes::{
    HorusScheme, LocalizationScheme, ProbFingerprintDb, SchemeId, WifiFingerprintDb,
    WifiFingerprintScheme,
};
use uniloc_sensors::{DeviceProfile, SensorHub};
use uniloc_env::{GaitProfile, Walker};
use uniloc_rng::Rng;

/// Re-fuses recorded per-epoch estimates with externally supplied weights
/// through the engine's weighted mean and returns the mean error.
fn refuse(records: &[EpochRecord], weight_of: impl Fn(&EpochRecord, SchemeId) -> f64) -> f64 {
    let errors: Vec<f64> = records
        .iter()
        .filter_map(|r| {
            let weighted =
                r.estimates.iter().filter_map(|&(id, p)| p.map(|p| (weight_of(r, id), p)));
            confidence::weighted_mean(weighted).map(|p| p.distance(r.truth))
        })
        .collect();
    errors.iter().sum::<f64>() / errors.len() as f64
}

fn recorded_weight(r: &EpochRecord, id: SchemeId) -> f64 {
    r.weight(id).unwrap_or(0.0)
}

fn main() {
    uniloc_bench::init_obs();
    let cfg = PipelineConfig::default();
    let models = trained_models(1);
    let scenario = campus::daily_path(3);
    let records = pipeline::run_walk(&scenario, &models, &cfg, 12);

    // ---- 1. weighting strategies -------------------------------------
    println!("== ablation 1: BMA weighting strategy (daily path) ==");
    let local = refuse(&records, recorded_weight);
    // Global weights: each scheme's average confidence-derived weight over
    // the whole walk (the [29] baseline: one weight per scheme per place).
    let mut global: Vec<(SchemeId, f64)> = SchemeId::BUILTIN
        .iter()
        .map(|&id| {
            let mean_w = records.iter().map(|r| recorded_weight(r, id)).sum::<f64>()
                / records.len() as f64;
            (id, mean_w)
        })
        .collect();
    global.sort_by_key(|(id, _)| *id);
    let global_err = refuse(&records, |_, id| {
        global.iter().find(|(s, _)| *s == id).map_or(0.0, |(_, w)| *w)
    });
    let unweighted = refuse(&records, |_, _| 1.0);
    println!("  locally-weighted BMA (UniLoc2) : {local:.2} m");
    println!("  globally-weighted BMA ([29])   : {global_err:.2} m");
    println!("  unweighted mean                : {unweighted:.2} m");
    println!("  paper claim: per-location weights adapt to spatial variation.");

    // ---- 2. adaptive vs fixed tau -------------------------------------
    println!("\n== ablation 2: adaptive vs fixed confidence threshold ==");
    let with_tau = |records: &[EpochRecord], tau: Option<f64>| {
        refuse(records, |r, id| {
            let Some(p) = r.prediction(id) else { return 0.0 };
            let t = tau.or(r.tau).unwrap_or(5.0);
            confidence(p, t)
        })
    };
    println!("  adaptive tau (Eq. 2)           : {:.2} m", with_tau(&records, None));
    for fixed in [2.0, 5.0, 10.0, 20.0] {
        println!("  fixed tau = {fixed:>4.1} m            : {:.2} m", with_tau(&records, Some(fixed)));
    }

    // ---- 3. robustness to error-model noise ---------------------------
    println!("\n== ablation 3: robustness to error-model perturbation ==");
    for pct in [0.0, 0.2, 0.5, 1.0] {
        let mut noisy = ErrorModelSet::default();
        let mut rng = Rng::seed_from_u64(99);
        for id in SchemeId::BUILTIN {
            for io in [IoState::Indoor, IoState::Outdoor] {
                if let Some(m) = models.model(id, io) {
                    let mut m = m.clone();
                    for c in &mut m.coefficients {
                        *c *= 1.0 + rng.gen_range(-pct..=pct);
                    }
                    m.intercept *= 1.0 + rng.gen_range(-pct..=pct.max(1e-12));
                    noisy.insert(id, io, m);
                }
            }
        }
        let recs = pipeline::run_walk(&scenario, &noisy, &cfg, 12);
        let u1 = mean_defined(&system_errors(&recs, "uniloc1")).unwrap_or(f64::NAN);
        let u2 = mean_defined(&system_errors(&recs, "uniloc2")).unwrap_or(f64::NAN);
        println!(
            "  coefficients perturbed +/-{:>3.0}%:  uniloc1 {u1:5.2} m   uniloc2 {u2:5.2} m",
            pct * 100.0
        );
    }
    println!("  paper claim: UniLoc2 tolerates prediction uncertainty better than");
    println!("  selection, because weighting degrades gracefully.");

    // ---- 4. fingerprint-spacing sweep ----------------------------------
    println!("\n== ablation 4: WiFi error vs fingerprint spacing (office) ==");
    let office = venues::training_office(61);
    let mut hub = SensorHub::new(&office.world, DeviceProfile::nexus_5x(), 62);
    let points = office.survey_points(1.5, 12.0);
    let full_db = WifiFingerprintDb::survey_wifi(&mut hub, &points);
    let mut walker = Walker::new(GaitProfile::average(), Rng::seed_from_u64(63));
    let walk = walker.walk(&office.route);
    let mut run_hub = SensorHub::new(&office.world, DeviceProfile::nexus_5x(), 64);
    let frames = run_hub.sample_walk(&walk, 0.5);
    for spacing in [1.5, 3.0, 5.0, 10.0, 15.0] {
        let db = if spacing > 1.5 { full_db.downsampled(spacing) } else { full_db.clone() };
        let density = db
            .local_density(Point::new(28.0, 10.0), 20.0)
            .unwrap_or(f64::NAN);
        let mut scheme = WifiFingerprintScheme::new(db);
        let errs: Vec<f64> = frames
            .iter()
            .filter_map(|f| scheme.update(f).map(|e| e.position.distance(f.true_position)))
            .collect();
        let mean = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
        println!(
            "  spacing {spacing:>4.1} m  (measured density {density:>5.2} m)  wifi error {mean:5.2} m"
        );
    }
    println!("  paper claim: error grows with fingerprint spacing — the beta_1 feature.");

    // ---- 5. Horus vs RADAR: the sample-count trade-off -----------------
    println!("\n== ablation 5: Horus vs RADAR (probabilistic fingerprints) ==");
    let radar_err = {
        let mut scheme = WifiFingerprintScheme::new(full_db.clone());
        let errs: Vec<f64> = frames
            .iter()
            .filter_map(|f| scheme.update(f).map(|e| e.position.distance(f.true_position)))
            .collect();
        errs.iter().sum::<f64>() / errs.len().max(1) as f64
    };
    println!("  RADAR (1 sample/point)           : {radar_err:5.2} m");
    for samples in [1u32, 4, 12] {
        let mut survey_hub = SensorHub::new(&office.world, DeviceProfile::nexus_5x(), 65);
        let db = ProbFingerprintDb::survey(&mut survey_hub, &points, samples);
        let mut scheme = HorusScheme::new(db);
        let errs: Vec<f64> = frames
            .iter()
            .filter_map(|f| scheme.update(f).map(|e| e.position.distance(f.true_position)))
            .collect();
        let mean = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
        println!("  Horus ({samples:>2} samples/point)        : {mean:5.2} m");
    }
    println!("  paper: Horus needs many samples per location, which is why its");
    println!("  evaluation uses RADAR; with enough samples Horus catches up.");

    // ---- 6. A-Loc selection vs UniLoc ----------------------------------
    println!("\n== ablation 6: A-Loc-style selection vs UniLoc (daily path) ==");
    for requirement in [3.0, 6.0, 12.0] {
        let aloc = ALocSelector::new(requirement);
        let mut errors = Vec::new();
        let mut power_sum = 0.0;
        for r in &records {
            if let Some(choice) = aloc.select(&r.reports()) {
                if let Some(e) = r.scheme_error(choice) {
                    errors.push(e);
                    power_sum += scheme_power_mw(choice);
                }
            }
        }
        let mean = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
        let avg_power = power_sum / errors.len().max(1) as f64;
        println!(
            "  A-Loc (req {requirement:>4.1} m): error {mean:5.2} m at {avg_power:6.0} mW selected-scheme power"
        );
    }
    let u1 = mean_defined(&system_errors(&records, "uniloc1")).unwrap_or(f64::NAN);
    let u2 = mean_defined(&system_errors(&records, "uniloc2")).unwrap_or(f64::NAN);
    println!("  UniLoc1 (selection)  : error {u1:5.2} m");
    println!("  UniLoc2 (combination): error {u2:5.2} m");
    println!("  paper: a-Loc picks ONE low-cost scheme meeting a requirement; UniLoc");
    println!("  combines all of them — trading a little energy for accuracy.");

    // ---- 7. online location predictor for the density feature ----------
    println!("\n== ablation 7: location predictor for the beta_1 feature ==");
    for (label, kind) in [
        ("second-order HMM (paper)", uniloc_core::PredictorKind::Hmm2),
        ("Kalman filter", uniloc_core::PredictorKind::Kalman),
        ("last estimate", uniloc_core::PredictorKind::LastEstimate),
    ] {
        let cfg = PipelineConfig { predictor: kind, ..PipelineConfig::default() };
        let recs = pipeline::run_walk(&scenario, &models, &cfg, 12);
        let u2 = mean_defined(&system_errors(&recs, "uniloc2")).unwrap_or(f64::NAN);
        println!("  {label:<26}: uniloc2 {u2:5.2} m");
    }
    println!("  paper: 'a second order HMM ... can provide an acceptable estimation");
    println!("  accuracy' — the choice of predictor barely moves the end result.");

    // ---- 8. point-mass vs full-posterior BMA ----------------------------
    println!("\n== ablation 8: BMA over point estimates vs full posteriors ==");
    let point = mean_defined(&system_errors(&records, "uniloc2")).unwrap_or(f64::NAN);
    let mixture =
        mean_defined(&records.iter().map(|r| r.uniloc2_mixture_error).collect::<Vec<_>>())
            .unwrap_or(f64::NAN);
    println!("  point-mass components (default) : {point:5.2} m");
    println!("  posterior-mean components       : {mixture:5.2} m");
    println!("  Eq. 4's estimate is the mixture mean, so combining each scheme's");
    println!("  posterior mean (top-k candidates / particle cloud) is the literal");
    println!("  reading; with posteriors centered on the estimates both agree.");
}
