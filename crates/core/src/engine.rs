//! Section IV: the UniLoc ensemble engine.
//!
//! Every epoch the engine (1) classifies indoor/outdoor with IODetector,
//! (2) runs every scheme on the frame, (3) extracts each scheme's features
//! and predicts its error from the trained models, (4) converts predictions
//! into confidences with the adaptive threshold of Eq. 2, and (5) produces
//!
//! * **UniLoc1** — the estimate of the most-confident scheme, and
//! * **UniLoc2** — the locally-weighted BMA combination of Eqs. 3-5:
//!   `w_n,t = c_n,t / sum_i c_i,t`, position = `sum_n w_n,t * pos_n` (the
//!   BMA posterior mean; with each scheme's posterior centered on its own
//!   estimate, the mixture mean reduces to exactly this weighted average,
//!   computed independently for X and Y as in the paper).
//!
//! An unavailable scheme "just sets its output to zero and UniLoc will
//! exclude it in calculation temporarily" — here, `None` estimates get zero
//! confidence. The engine also implements the GPS duty-cycling policy of
//! Section IV-C: the GPS error model needs no GPS features, so the engine
//! compares its predicted error against every other scheme *before*
//! consulting the receiver and ignores the fix when GPS would not win.

use crate::confidence::{adaptive_tau, confidence};
use crate::error_model::{ErrorModelSet, ErrorPrediction};
use crate::features::{FeatureExtractor, PredictorKind, SharedContext};
use crate::guard::{self, FrameGate, GateVerdict};
use crate::quarantine::{
    trip, DegradationLadder, QuarantineMachine, QuarantineTransition, SchemeVerdict,
};
use uniloc_geom::Point;
use uniloc_iodetect::{IoDetector, IoState};
use uniloc_obs::Stage;
use uniloc_schemes::{LocalizationScheme, LocationEstimate, SchemeId};
use uniloc_sensors::SensorFrame;

/// Per-scheme diagnostics for one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchemeReport {
    /// Which scheme.
    pub id: SchemeId,
    /// The scheme's estimate, if available this epoch.
    pub estimate: Option<LocationEstimate>,
    /// Predicted error distribution from the trained model, if computable.
    pub prediction: Option<ErrorPrediction>,
    /// Eq. 2 confidence (zero when excluded).
    pub confidence: f64,
    /// BMA weight (Eq. 5; zero when excluded).
    pub weight: f64,
}

/// The engine's output for one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct UniLocOutput {
    /// Epoch time.
    pub t: f64,
    /// UniLoc1 position (most-confident scheme), if any scheme delivered.
    pub best_selection: Option<Point>,
    /// The scheme UniLoc1 selected.
    pub selected: Option<SchemeId>,
    /// UniLoc2 position (locally-weighted BMA over scheme point estimates),
    /// if any scheme delivered.
    pub bayesian_average: Option<Point>,
    /// UniLoc2 position computed over the schemes' full posteriors (the
    /// literal Eqs. 3-4: each scheme contributes the mean of its
    /// `P(l | M_n, s_t)`; point-only schemes contribute a point mass).
    pub mixture_average: Option<Point>,
    /// IODetector's verdict this epoch.
    pub io: IoState,
    /// The adaptive threshold used for confidences.
    pub tau: Option<f64>,
    /// Whether the GPS duty-cycling policy kept the receiver on.
    pub gps_enabled: bool,
    /// Per-scheme diagnostics.
    pub reports: Vec<SchemeReport>,
    /// How degraded the ensemble was this epoch (see
    /// [`DegradationLadder`]); never feeds back into fusion.
    pub ladder: DegradationLadder,
    /// Schemes excluded from this epoch's fusion by the quarantine
    /// machine (trips detected this epoch take effect next epoch).
    pub quarantined: Vec<SchemeId>,
}

/// Pre-rendered per-scheme metric names and estimate stage: the per-epoch
/// loop must not `format!`, so every name a scheme can emit is built once
/// at engine construction (index-aligned with the scheme list).
struct SchemeNames {
    estimate_span: Stage,
    available: String,
    unavailable: String,
    nonfinite: String,
    selected: String,
    teleport: String,
    divergence: String,
    tripped: String,
    readmitted: String,
}

impl SchemeNames {
    fn new(id: SchemeId) -> Self {
        SchemeNames {
            estimate_span: Stage::named(&format!("scheme.estimate.{id}"))
                .unwrap_or(Stage::EstimateCustom),
            available: format!("engine.scheme.available.{id}"),
            unavailable: format!("engine.scheme.unavailable.{id}"),
            nonfinite: format!("faults.validation.nonfinite_estimate.{id}"),
            selected: format!("engine.uniloc1.selected.{id}"),
            teleport: format!("quarantine.signal.teleport.{id}"),
            divergence: format!("quarantine.signal.divergence.{id}"),
            tripped: format!("quarantine.tripped.{id}"),
            readmitted: format!("quarantine.readmitted.{id}"),
        }
    }
}

/// The `engine.ladder.*` counter for a ladder state, as a static string.
fn ladder_counter_name(ladder: DegradationLadder) -> &'static str {
    match ladder {
        DegradationLadder::Nominal => "engine.ladder.nominal",
        DegradationLadder::Degraded(_) => "engine.ladder.degraded",
        DegradationLadder::DeadReckoningOnly => "engine.ladder.dead_reckoning_only",
        DegradationLadder::Lost => "engine.ladder.lost",
    }
}

/// Per-epoch working buffers, recycled across [`UniLocEngine::update`]
/// calls so the steady-state epoch loop performs no heap allocation (the
/// allocation observatory's `alloc.steady.allocs` meter pins this at
/// zero). Purely capacity caches: contents are dead between epochs.
#[derive(Default)]
struct EpochScratch {
    /// Per-scheme posterior means (Eq. 4 component means).
    posterior_means: Vec<Option<Point>>,
    /// Per-scheme non-finite-estimate strikes.
    nonfinite: Vec<bool>,
    /// Predictions of available, participating schemes (adaptive tau).
    usable: Vec<ErrorPrediction>,
    /// The feature vector of the scheme being predicted.
    feats: Vec<f64>,
    /// Fingerprint-lookup scratch for feature extraction.
    matches: Vec<uniloc_schemes::FingerprintMatch>,
}

/// The UniLoc ensemble engine.
///
/// Owns the scheme instances, the shared feature context (fingerprint
/// databases + map), the trained error models, the IODetector and the
/// per-walk feature state.
pub struct UniLocEngine {
    schemes: Vec<Box<dyn LocalizationScheme>>,
    models: ErrorModelSet,
    ctx: SharedContext,
    extractor: FeatureExtractor,
    iodetector: IoDetector,
    /// Frame-stream gate: duplicate / time-regression / bad-clock frames.
    gate: FrameGate,
    /// Per-scheme quarantine state machine.
    quarantine: QuarantineMachine,
    /// Last `(t, position)` each scheme reported (teleport detection).
    prev_scheme: Vec<Option<(f64, Point)>>,
    /// Consecutive epochs each scheme exceeded its speed limit.
    teleport_streak: Vec<u32>,
    /// Consecutive epochs each scheme diverged from the fused estimate.
    diverge_streak: Vec<u32>,
    /// Last `(t, position)` the ensemble fused (watchdog).
    prev_fused: Option<(f64, Point)>,
    /// Consecutive epochs the fused estimate did not move while steps
    /// kept arriving.
    frozen_streak: u32,
    /// IODetector verdict of the last admitted frame (reported when a
    /// frame is rejected outright).
    last_io: IoState,
    /// Pre-rendered metric/span names, index-aligned with `schemes`.
    names: Vec<SchemeNames>,
    /// Per-epoch working buffers (see [`EpochScratch`]).
    scratch: EpochScratch,
    /// Pool for the output's `reports` vector; refilled by
    /// [`recycle`](Self::recycle).
    reports_pool: Vec<SchemeReport>,
    /// Pool for the output's `quarantined` vector; refilled by
    /// [`recycle`](Self::recycle).
    excluded_pool: Vec<SchemeId>,
}

impl std::fmt::Debug for UniLocEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UniLocEngine")
            .field("schemes", &self.schemes.iter().map(|s| s.id()).collect::<Vec<_>>())
            .field("models", &self.models.schemes().collect::<Vec<_>>())
            .finish_non_exhaustive()
    }
}

impl UniLocEngine {
    /// Creates an engine over the given schemes.
    ///
    /// # Panics
    ///
    /// Panics when `schemes` is empty.
    pub fn new(
        schemes: Vec<Box<dyn LocalizationScheme>>,
        models: ErrorModelSet,
        ctx: SharedContext,
    ) -> Self {
        UniLocEngine::with_predictor(schemes, models, ctx, PredictorKind::default())
    }

    /// Creates an engine with an explicit online location predictor for the
    /// feature extractor (HMM by default; the paper also names the Kalman
    /// filter as an option).
    ///
    /// # Panics
    ///
    /// Panics when `schemes` is empty.
    pub fn with_predictor(
        schemes: Vec<Box<dyn LocalizationScheme>>,
        models: ErrorModelSet,
        ctx: SharedContext,
        predictor: PredictorKind,
    ) -> Self {
        assert!(!schemes.is_empty(), "UniLoc needs at least one scheme");
        let extractor = FeatureExtractor::with_predictor(&ctx, predictor);
        let ids: Vec<SchemeId> = schemes.iter().map(|s| s.id()).collect();
        let names: Vec<SchemeNames> = ids.iter().map(|&id| SchemeNames::new(id)).collect();
        let n = schemes.len();
        UniLocEngine {
            schemes,
            models,
            ctx,
            extractor,
            iodetector: IoDetector::new(),
            gate: FrameGate::new(),
            quarantine: QuarantineMachine::new(&ids),
            prev_scheme: vec![None; n],
            teleport_streak: vec![0; n],
            diverge_streak: vec![0; n],
            prev_fused: None,
            frozen_streak: 0,
            last_io: IoState::Outdoor,
            names,
            scratch: EpochScratch::default(),
            reports_pool: Vec::new(),
            excluded_pool: Vec::new(),
        }
    }

    /// Returns a spent output's buffers to the engine's pools so the next
    /// [`update`](Self::update) runs allocation-free in steady state.
    /// Optional: an output that is dropped instead is simply reallocated
    /// next epoch.
    pub fn recycle(&mut self, out: UniLocOutput) {
        let UniLocOutput { mut reports, mut quarantined, .. } = out;
        reports.clear();
        quarantined.clear();
        self.reports_pool = reports;
        self.excluded_pool = quarantined;
    }

    /// The integrated schemes.
    pub fn scheme_ids(&self) -> Vec<SchemeId> {
        self.schemes.iter().map(|s| s.id()).collect()
    }

    /// The trained error models.
    pub fn models(&self) -> &ErrorModelSet {
        &self.models
    }

    /// Registers a feature function for a custom scheme so it can
    /// participate in the ensemble (pair it with a model inserted into the
    /// [`ErrorModelSet`]).
    pub fn register_custom_features(
        &mut self,
        id: uniloc_schemes::SchemeId,
        f: crate::features::CustomFeatureFn,
    ) {
        self.extractor.register_custom(id, f);
    }

    /// Every scheme's full quarantine standing (sentence remainder,
    /// probation countdown, strikes) — see
    /// [`QuarantineMachine::standings`](crate::quarantine::QuarantineMachine::standings).
    pub fn quarantine_standings(&self) -> Vec<(SchemeId, crate::quarantine::QuarantineStanding)> {
        self.quarantine.standings()
    }

    /// The degraded output emitted when a frame fails validation outright
    /// (non-finite timestamp): no scheme runs, no state advances.
    fn rejected_output(&self, frame: &SensorFrame) -> UniLocOutput {
        let reports = self
            .schemes
            .iter()
            .map(|s| SchemeReport {
                id: s.id(),
                estimate: None,
                prediction: None,
                confidence: 0.0,
                weight: 0.0,
            })
            .collect();
        UniLocOutput {
            t: frame.t,
            best_selection: None,
            selected: None,
            bayesian_average: None,
            mixture_average: None,
            io: self.last_io,
            tau: None,
            gps_enabled: false,
            reports,
            ladder: DegradationLadder::Lost,
            quarantined: self.quarantine.excluded(),
        }
    }

    /// Processes one epoch.
    ///
    /// Instrumentation (spans + counters through `uniloc-obs`) is
    /// sidecar-only: it reads pipeline state and the clock but never
    /// writes back, so output is byte-identical at any trace level.
    pub fn update(&mut self, frame: &SensorFrame) -> UniLocOutput {
        let obs = uniloc_obs::global();
        let metrics = uniloc_obs::global_metrics();
        let _update_span = obs.span(Stage::EngineUpdate).field("t", frame.t);

        // Input-validation gate: a malformed frame must never abort the
        // walk. A non-finite clock rejects the whole frame; everything
        // else is scrubbed per channel and the epoch proceeds on what
        // survived. Clean frames pass through borrowed and untouched.
        let verdict = self.gate.admit(frame.t);
        if verdict == GateVerdict::Rejected {
            metrics.counter("faults.validation.rejected_frame").inc();
            obs.event(
                uniloc_obs::TraceLevel::Warn,
                "engine.frame_rejected",
                vec![("t".to_owned(), frame.t.into())],
            );
            return self.rejected_output(frame);
        }
        let scrubbed = guard::scrub_frame(frame);
        if let Some((_, rep)) = &scrubbed {
            for (name, n) in [
                ("faults.validation.dropped_reading.wifi", rep.wifi_readings),
                ("faults.validation.dropped_reading.cell", rep.cell_readings),
                ("faults.validation.dropped_gps", rep.gps_fixes),
                ("faults.validation.dropped_step", rep.steps),
                ("faults.validation.scrubbed_env", rep.env_channels),
            ] {
                if n > 0 {
                    metrics.counter(name).add(u64::from(n));
                }
            }
        }
        let frame: &SensorFrame = match &scrubbed {
            Some((clean, _)) => clean,
            None => frame,
        };
        // Replayed frames (duplicate timestamp or a clock that ran
        // backwards) keep their radio scans — fingerprinting is stateless
        // — but lose their steps: integrating the same steps twice
        // teleports the PDR cloud.
        let replay_frame;
        let frame = match verdict {
            GateVerdict::Duplicate | GateVerdict::TimeRegression => {
                metrics
                    .counter(match verdict {
                        GateVerdict::Duplicate => "faults.validation.duplicate_frame",
                        _ => "faults.validation.time_regression",
                    })
                    .inc();
                if frame.steps.is_empty() {
                    frame
                } else {
                    let mut f = frame.clone();
                    f.steps.clear();
                    replay_frame = f;
                    &replay_frame
                }
            }
            _ => frame,
        };

        // Tick quarantine sentences; snapshot the exclusion set that
        // governs this epoch's fusion.
        self.quarantine.begin_epoch();
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut excluded_now = std::mem::take(&mut self.excluded_pool);
        self.quarantine.excluded_into(&mut excluded_now);

        let io = self.iodetector.classify_frame(frame);
        self.last_io = io;
        self.extractor.begin_epoch(frame);

        // Predict every scheme's error before any scheme runs, into the
        // epoch's reports. GPS duty cycling: predict GPS error without the
        // receiver and compare with every other scheme's prediction. The
        // reports are reserved first, so their growth is `engine.update`'s.
        let mut reports = std::mem::take(&mut self.reports_pool);
        reports.clear();
        reports.reserve(self.schemes.len());
        let predict_span = obs.span(Stage::EnginePredict);
        let mut predict = |id: SchemeId| {
            let (matches, feats) = (&mut scratch.matches, &mut scratch.feats);
            let has = self.extractor.features_into(&self.ctx, id, io, frame, None, matches, feats);
            if has {
                self.models.predict(id, io, feats)
            } else {
                None
            }
        };
        let gps_prediction = predict(SchemeId::Gps);
        let mut non_gps_best = f64::INFINITY;
        for s in &self.schemes {
            let id = s.id();
            let prediction = if id == SchemeId::Gps { gps_prediction } else { predict(id) };
            if id != SchemeId::Gps {
                non_gps_best = prediction.map_or(non_gps_best, |p| non_gps_best.min(p.mean));
            }
            reports.push(SchemeReport { id, estimate: None, prediction, confidence: 0.0, weight: 0.0 });
        }
        let gps_enabled = match gps_prediction {
            Some(p) => p.mean <= non_gps_best || !non_gps_best.is_finite(),
            None => false,
        };
        drop(predict_span);

        // Run every scheme on the full frame (schemes execute
        // independently, as in the paper's Section II) and fill in each
        // report's estimate. The duty-cycling policy governs only whether
        // *UniLoc* powers the receiver and lets GPS participate in the
        // ensemble; the standalone scheme's output is still reported for
        // evaluation.
        scratch.posterior_means.clear();
        scratch.nonfinite.clear();
        scratch.nonfinite.resize(self.schemes.len(), false);
        for (idx, s) in self.schemes.iter_mut().enumerate() {
            let estimate = {
                let _s = obs.span(self.names[idx].estimate_span);
                s.update(frame)
            };
            // Output-side validation: a non-finite estimate is treated as
            // unavailable *and* counts as a quarantine strike — it means
            // the scheme's internal state is corrupt, not merely blind.
            let estimate = match estimate {
                Some(e)
                    if !e.position.x.is_finite()
                        || !e.position.y.is_finite()
                        || e.spread.is_some_and(|s| !s.is_finite()) =>
                {
                    scratch.nonfinite[idx] = true;
                    metrics.counter(&self.names[idx].nonfinite).inc();
                    None
                }
                other => other,
            };
            metrics
                .counter(if estimate.is_some() {
                    &self.names[idx].available
                } else {
                    &self.names[idx].unavailable
                })
                .inc();
            // The posterior mean of P(l | M_n, s_t) — the component mean
            // the literal Eq. 4 integrates.
            scratch
                .posterior_means
                .push(if estimate.is_some() { s.posterior_mean() } else { None });
            reports[idx].estimate = estimate;
        }
        let participates = |r: &SchemeReport| {
            (r.id != SchemeId::Gps || gps_enabled) && !excluded_now.contains(&r.id)
        };

        // Adaptive tau over schemes that are available, predictable and
        // participating.
        let confidence_span = obs.span(Stage::EngineConfidence);
        scratch.usable.clear();
        scratch.usable.extend(
            reports
                .iter()
                .filter(|r| r.estimate.is_some() && participates(r))
                .filter_map(|r| r.prediction),
        );
        let tau = adaptive_tau(&scratch.usable);

        // Confidences and weights.
        if let Some(tau) = tau {
            let mut total = 0.0;
            for r in &mut reports {
                if r.estimate.is_some() && participates(r) {
                    if let Some(pred) = r.prediction {
                        r.confidence = confidence(pred, tau);
                        total += r.confidence;
                    }
                }
            }
            if total > 0.0 {
                for r in &mut reports {
                    r.weight = r.confidence / total;
                }
            }
            metrics.gauge("engine.tau").set(tau);
        }
        drop(confidence_span);
        let fuse_span = obs.span(Stage::EngineFuse);

        // UniLoc1: most-confident scheme. `total_cmp` keeps a stray NaN
        // confidence (already gated upstream) from panicking mid-walk.
        let best = reports
            .iter()
            .enumerate()
            .filter(|(_, r)| r.estimate.is_some() && r.confidence > 0.0)
            .max_by(|(_, a), (_, b)| a.confidence.total_cmp(&b.confidence));
        // `carrier` is the scheme that actually produced the headline
        // position (for the degradation ladder when nothing fused).
        let (best_selection, selected, selected_idx, carrier) = match best {
            Some((i, r)) => (r.estimate.map(|e| e.position), Some(r.id), Some(i), Some(r.id)),
            None => {
                // No model-backed scheme: fall back to any available
                // estimate so UniLoc still reports a position, preferring
                // schemes not under quarantine.
                let fallback = reports
                    .iter()
                    .find(|r| r.estimate.is_some() && !excluded_now.contains(&r.id))
                    .or_else(|| reports.iter().find(|r| r.estimate.is_some()));
                (
                    fallback.and_then(|r| r.estimate).map(|e| e.position),
                    None,
                    None,
                    fallback.map(|r| r.id),
                )
            }
        };

        // UniLoc2: locally-weighted BMA mean (X and Y independently).
        let mut wsum = 0.0;
        let mut x = 0.0;
        let mut y = 0.0;
        for r in &reports {
            if let Some(e) = r.estimate {
                if r.weight > 0.0 {
                    wsum += r.weight;
                    x += r.weight * e.position.x;
                    y += r.weight * e.position.y;
                }
            }
        }
        let bayesian_average = if wsum > 0.0 {
            metrics.counter("engine.fusion.mode.bma").inc();
            Some(Point::new(x / wsum, y / wsum))
        } else {
            metrics.counter("engine.fusion.mode.fallback").inc();
            best_selection
        };
        if let Some(i) = selected_idx {
            metrics.counter(&self.names[i].selected).inc();
        }

        // The mixture-mean variant: identical weights, but each component
        // contributes its posterior mean instead of its point estimate.
        let mut mw = 0.0;
        let mut mx = 0.0;
        let mut my = 0.0;
        for (r, pm) in reports.iter().zip(&scratch.posterior_means) {
            if r.weight > 0.0 {
                if let Some(p) = pm.or_else(|| r.estimate.map(|e| e.position)) {
                    mw += r.weight;
                    mx += r.weight * p.x;
                    my += r.weight * p.y;
                }
            }
        }
        let mixture_average = if mw > 0.0 {
            Some(Point::new(mx / mw, my / mw))
        } else {
            bayesian_average
        };
        drop(fuse_span);

        // Numerical-corruption tripwire (sidecar-only): a NaN/infinite
        // fused position means a scheme or the weight math broke; flag it
        // for the flight recorder rather than letting it propagate
        // silently into downstream consumers.
        for (kind, p) in [
            ("best_selection", best_selection),
            ("bayesian_average", bayesian_average),
            ("mixture_average", mixture_average),
        ] {
            if let Some(p) = p {
                if !p.x.is_finite() || !p.y.is_finite() {
                    metrics.counter("engine.non_finite_estimate").inc();
                    obs.event(
                        uniloc_obs::TraceLevel::Warn,
                        "engine.non_finite_estimate",
                        vec![
                            ("output".to_owned(), kind.into()),
                            ("t".to_owned(), frame.t.into()),
                            ("x".to_owned(), p.x.into()),
                            ("y".to_owned(), p.y.into()),
                        ],
                    );
                }
            }
        }

        // Feed the fused estimate back into the HMM location predictor.
        if let Some(p) = bayesian_average.or(best_selection) {
            self.extractor.note_estimate(p);
        }

        // Trip evaluation: teleports, persistent divergence from the
        // fused estimate, and the non-finite outputs flagged above. Each
        // verdict feeds the quarantine machine; a trip detected now takes
        // effect at the NEXT epoch's fusion, so this stage reads outputs
        // but never rewrites them.
        let fused = bayesian_average.or(best_selection);
        let fused_finite =
            fused.filter(|p| p.x.is_finite() && p.y.is_finite());
        for (i, r) in reports.iter().enumerate() {
            let mut strike = scratch.nonfinite[i];
            if let Some(e) = r.estimate {
                if let Some((pt, pp)) = self.prev_scheme[i] {
                    let dt = frame.t - pt;
                    if dt > 1e-3 {
                        let speed = e.position.distance(pp) / dt;
                        if speed > trip::teleport_speed_limit_m_s(r.id) {
                            self.teleport_streak[i] += 1;
                        } else {
                            self.teleport_streak[i] = 0;
                        }
                        if self.teleport_streak[i] >= trip::TELEPORT_CONSECUTIVE {
                            strike = true;
                            metrics.counter(&self.names[i].teleport).inc();
                        }
                    }
                }
                if let Some(f) = fused_finite {
                    let limit = trip::DIVERGE_FLOOR_M
                        .max(trip::DIVERGE_MULT * r.prediction.map_or(0.0, |p| p.mean));
                    if e.position.distance(f) > limit {
                        self.diverge_streak[i] += 1;
                    } else {
                        self.diverge_streak[i] = 0;
                    }
                    if self.diverge_streak[i] >= trip::DIVERGE_CONSECUTIVE {
                        strike = true;
                        metrics.counter(&self.names[i].divergence).inc();
                    }
                }
                self.prev_scheme[i] = Some((frame.t, e.position));
            }
            let scheme_verdict = if strike {
                SchemeVerdict::Strike
            } else if r.estimate.is_some() {
                SchemeVerdict::Sane
            } else {
                SchemeVerdict::Absent
            };
            match self.quarantine.observe(r.id, scheme_verdict) {
                Some(QuarantineTransition::Tripped(id, strikes)) => {
                    metrics.counter(&self.names[i].tripped).inc();
                    obs.event(
                        uniloc_obs::TraceLevel::Warn,
                        "quarantine.tripped",
                        vec![
                            ("scheme".to_owned(), id.to_string().into()),
                            ("strikes".to_owned(), i64::from(strikes).into()),
                            ("t".to_owned(), frame.t.into()),
                        ],
                    );
                }
                Some(QuarantineTransition::Readmitted(id)) => {
                    metrics.counter(&self.names[i].readmitted).inc();
                    obs.event(
                        uniloc_obs::TraceLevel::Info,
                        "quarantine.readmitted",
                        vec![
                            ("scheme".to_owned(), id.to_string().into()),
                            ("t".to_owned(), frame.t.into()),
                        ],
                    );
                }
                None => {}
            }
        }

        // Watchdog: a fused estimate that freezes while steps keep
        // arriving, or teleports across the map, means the ensemble
        // output can no longer be trusted even though every per-scheme
        // check passed.
        let flight = uniloc_obs::global_flight();
        let mut frozen = false;
        if let Some(f) = fused_finite {
            if let Some((pt, pf)) = self.prev_fused {
                let moved = f.distance(pf);
                if !frame.steps.is_empty() && moved < trip::FROZEN_EPS_M {
                    self.frozen_streak += 1;
                } else {
                    self.frozen_streak = 0;
                }
                if self.frozen_streak >= trip::FROZEN_EPOCHS {
                    frozen = true;
                    metrics.counter("engine.watchdog.frozen").inc();
                    if self.frozen_streak == trip::FROZEN_EPOCHS {
                        flight.trigger("watchdog_frozen", || {
                            vec![
                                ("t".to_owned(), frame.t.into()),
                                ("epochs".to_owned(), i64::from(self.frozen_streak).into()),
                            ]
                        });
                    }
                }
                let dt = frame.t - pt;
                if dt > 1e-3 && moved / dt > trip::FUSED_TELEPORT_SPEED_M_S {
                    metrics.counter("engine.watchdog.teleport").inc();
                    flight.trigger("watchdog_teleport", || {
                        vec![
                            ("t".to_owned(), frame.t.into()),
                            ("speed_m_s".to_owned(), (moved / dt).into()),
                        ]
                    });
                }
            }
            self.prev_fused = Some((frame.t, f));
        } else {
            self.frozen_streak = 0;
        }

        // Degradation ladder: a pure function of this epoch's outputs and
        // the exclusion set — reported, never fed back.
        let mut contributing = 0u32;
        let mut all_motion = true;
        for r in &reports {
            if r.weight > 0.0 && r.estimate.is_some() {
                contributing += 1;
                if r.id != SchemeId::Motion {
                    all_motion = false;
                }
            }
        }
        let total = reports.len() as u32;
        let ladder = if fused_finite.is_none() || frozen {
            DegradationLadder::Lost
        } else if contributing == 0 {
            match carrier {
                Some(SchemeId::Motion) => DegradationLadder::DeadReckoningOnly,
                Some(_) => DegradationLadder::Degraded(total.saturating_sub(1)),
                None => DegradationLadder::Lost,
            }
        } else if all_motion {
            DegradationLadder::DeadReckoningOnly
        } else if contributing == total {
            DegradationLadder::Nominal
        } else {
            DegradationLadder::Degraded(total - contributing)
        };
        metrics.counter(ladder_counter_name(ladder)).inc();

        self.scratch = scratch;
        UniLocOutput {
            t: frame.t,
            best_selection,
            selected,
            bayesian_average,
            mixture_average,
            io,
            tau,
            gps_enabled,
            reports,
            ladder,
            quarantined: excluded_now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error_model::LinearErrorModel;
    use uniloc_schemes::fingerprint::FingerprintDb;

    /// A scripted scheme for engine unit tests.
    struct Scripted {
        id: SchemeId,
        output: Option<LocationEstimate>,
    }

    impl LocalizationScheme for Scripted {
        fn id(&self) -> SchemeId {
            self.id
        }
        fn update(&mut self, _frame: &SensorFrame) -> Option<LocationEstimate> {
            self.output
        }
    }

    fn empty_ctx() -> SharedContext {
        SharedContext {
            wifi_db: FingerprintDb::from_entries(Vec::<(Point, uniloc_sensors::WifiScan)>::new()),
            cell_db: FingerprintDb::from_entries(Vec::<(Point, uniloc_sensors::CellScan)>::new()),
            plan: uniloc_geom::FloorPlan::new(),
        }
    }

    fn frame_indoor() -> SensorFrame {
        SensorFrame {
            t: 1.0,
            true_position: Point::origin(),
            wifi: None,
            cell: None,
            gps: None,
            steps: vec![],
            landmark: None,
            light_lux: 300.0,
            magnetic_variance: 0.6,
        }
    }

    fn motion_model(set: &mut ErrorModelSet, coeff: f64, sigma: f64) {
        set.insert(
            SchemeId::Motion,
            IoState::Indoor,
            LinearErrorModel {
                intercept: 0.0,
                coefficients: vec![coeff, 0.0],
                sigma,
                residual_mean: 0.0,
                r_squared: 0.9,
                p_values: vec![0.001, 0.5],
                n_obs: 100,
            },
        );
    }

    fn custom_model(set: &mut ErrorModelSet, id: SchemeId, mean: f64, sigma: f64) {
        // A constant model via intercept (like GPS) for scripted schemes.
        set.insert(
            id,
            IoState::Indoor,
            LinearErrorModel {
                intercept: mean,
                coefficients: vec![],
                sigma,
                residual_mean: 0.0,
                r_squared: 0.0,
                p_values: vec![],
                n_obs: 50,
            },
        );
    }

    // Custom schemes have no feature extractor, so their features are None
    // and they get excluded. For engine-level unit tests we therefore use
    // Motion (whose features always exist) plus scripted outputs.

    #[test]
    #[should_panic(expected = "at least one scheme")]
    fn rejects_empty_scheme_list() {
        UniLocEngine::new(vec![], ErrorModelSet::default(), empty_ctx());
    }

    #[test]
    fn weights_form_a_simplex_and_bma_lies_between() {
        // Two "motion" schemes cannot coexist (same id is fine for this
        // test: the engine treats entries independently).
        let a = Scripted {
            id: SchemeId::Motion,
            output: Some(LocationEstimate::at(Point::new(0.0, 0.0))),
        };
        let b = Scripted {
            id: SchemeId::Motion,
            output: Some(LocationEstimate::at(Point::new(10.0, 0.0))),
        };
        let mut models = ErrorModelSet::default();
        motion_model(&mut models, 0.05, 1.0);
        let mut engine = UniLocEngine::new(vec![Box::new(a), Box::new(b)], models, empty_ctx());
        let out = engine.update(&frame_indoor());
        let total: f64 = out.reports.iter().map(|r| r.weight).sum();
        assert!((total - 1.0).abs() < 1e-9, "weights must sum to 1, got {total}");
        let p = out.bayesian_average.unwrap();
        assert!(p.x >= 0.0 && p.x <= 10.0, "BMA must stay in the hull, x={}", p.x);
        // Equal models and equal availability -> the midpoint.
        assert!((p.x - 5.0).abs() < 1e-9);
    }

    #[test]
    fn unavailable_scheme_is_excluded() {
        let a = Scripted {
            id: SchemeId::Motion,
            output: Some(LocationEstimate::at(Point::new(2.0, 2.0))),
        };
        let b = Scripted { id: SchemeId::Motion, output: None };
        let mut models = ErrorModelSet::default();
        motion_model(&mut models, 0.05, 1.0);
        let mut engine = UniLocEngine::new(vec![Box::new(a), Box::new(b)], models, empty_ctx());
        let out = engine.update(&frame_indoor());
        assert_eq!(out.reports[1].confidence, 0.0);
        assert_eq!(out.reports[1].weight, 0.0);
        let p = out.bayesian_average.unwrap();
        assert!((p.x - 2.0).abs() < 1e-9, "only the available scheme counts");
        assert_eq!(out.selected, Some(SchemeId::Motion));
    }

    #[test]
    fn no_models_falls_back_to_any_estimate() {
        let a = Scripted {
            id: SchemeId::Motion,
            output: Some(LocationEstimate::at(Point::new(3.0, 4.0))),
        };
        let mut engine =
            UniLocEngine::new(vec![Box::new(a)], ErrorModelSet::default(), empty_ctx());
        let out = engine.update(&frame_indoor());
        assert_eq!(out.selected, None);
        assert_eq!(out.best_selection, Some(Point::new(3.0, 4.0)));
        assert_eq!(out.bayesian_average, Some(Point::new(3.0, 4.0)));
        assert!(out.tau.is_none());
    }

    #[test]
    fn gps_excluded_when_policy_keeps_receiver_off() {
        // A GPS scheme reporting estimates, but a GPS model predicting a
        // *larger* error than the other scheme: the duty policy keeps the
        // receiver off and GPS must carry zero weight even though its
        // estimate exists.
        struct AlwaysGps;
        impl LocalizationScheme for AlwaysGps {
            fn id(&self) -> SchemeId {
                SchemeId::Gps
            }
            fn update(&mut self, _f: &SensorFrame) -> Option<LocationEstimate> {
                Some(LocationEstimate::at(Point::new(100.0, 100.0)))
            }
        }
        let motion = Scripted {
            id: SchemeId::Motion,
            output: Some(LocationEstimate::at(Point::new(1.0, 1.0))),
        };
        let mut models = ErrorModelSet::default();
        // Outdoor models (the frame below reads as outdoor).
        models.insert(
            SchemeId::Motion,
            IoState::Outdoor,
            LinearErrorModel {
                intercept: 0.0,
                coefficients: vec![0.01, 0.0],
                sigma: 1.0,
                residual_mean: 0.0,
                r_squared: 0.9,
                p_values: vec![0.001, 0.5],
                n_obs: 100,
            },
        );
        models.insert(
            SchemeId::Gps,
            IoState::Outdoor,
            LinearErrorModel {
                intercept: 13.5,
                coefficients: vec![],
                sigma: 9.4,
                residual_mean: 0.0,
                r_squared: 0.0,
                p_values: vec![],
                n_obs: 50,
            },
        );
        let mut engine =
            UniLocEngine::new(vec![Box::new(AlwaysGps), Box::new(motion)], models, empty_ctx());
        let outdoor_frame = SensorFrame {
            t: 1.0,
            true_position: Point::origin(),
            wifi: None,
            cell: None,
            gps: None,
            steps: vec![],
            landmark: None,
            light_lux: 20_000.0,
            magnetic_variance: 0.1,
        };
        // Two epochs so the IODetector hysteresis settles on outdoor.
        engine.update(&outdoor_frame);
        let out = engine.update(&outdoor_frame);
        assert_eq!(out.io, IoState::Outdoor);
        assert!(!out.gps_enabled, "motion predicts 0.01 m; GPS (13.5 m) must stay off");
        let gps = out.reports.iter().find(|r| r.id == SchemeId::Gps).unwrap();
        assert!(gps.estimate.is_some(), "the standalone scheme still reports");
        assert_eq!(gps.weight, 0.0, "but it must not participate");
        let p = out.bayesian_average.unwrap();
        assert!((p.x - 1.0).abs() < 1e-9, "fused position must ignore GPS");
    }

    #[test]
    fn mixture_average_uses_posterior_means() {
        /// A scheme whose posterior mean differs from its point estimate.
        struct Skewed;
        impl LocalizationScheme for Skewed {
            fn id(&self) -> SchemeId {
                SchemeId::Motion
            }
            fn update(&mut self, _f: &SensorFrame) -> Option<LocationEstimate> {
                Some(LocationEstimate::at(Point::new(0.0, 0.0)))
            }
            fn posterior_mean(&self) -> Option<Point> {
                // Posterior mass sits at x = 4 even though the point
                // estimate says x = 0.
                Some(Point::new(4.0, 0.0))
            }
        }
        let mut models = ErrorModelSet::default();
        motion_model(&mut models, 0.05, 1.0);
        let mut engine = UniLocEngine::new(vec![Box::new(Skewed)], models, empty_ctx());
        let out = engine.update(&frame_indoor());
        assert_eq!(out.bayesian_average, Some(Point::new(0.0, 0.0)));
        assert_eq!(out.mixture_average, Some(Point::new(4.0, 0.0)));
    }

    #[test]
    fn mixture_falls_back_to_point_estimates() {
        let a = Scripted {
            id: SchemeId::Motion,
            output: Some(LocationEstimate::at(Point::new(2.0, 6.0))),
        };
        let mut models = ErrorModelSet::default();
        motion_model(&mut models, 0.05, 1.0);
        let mut engine = UniLocEngine::new(vec![Box::new(a)], models, empty_ctx());
        let out = engine.update(&frame_indoor());
        // Scripted has no posterior: mixture == point BMA.
        assert_eq!(out.mixture_average, out.bayesian_average);
    }

    #[test]
    fn instrumentation_populates_sidecar_metrics_only() {
        let a = Scripted {
            id: SchemeId::Motion,
            output: Some(LocationEstimate::at(Point::new(1.0, 2.0))),
        };
        let mut models = ErrorModelSet::default();
        motion_model(&mut models, 0.05, 1.0);
        let mut engine = UniLocEngine::new(vec![Box::new(a)], models, empty_ctx());
        let out = engine.update(&frame_indoor());
        // The pipeline output is what it always was...
        assert_eq!(out.bayesian_average, Some(Point::new(1.0, 2.0)));
        // ...and the sidecar has availability, fusion-mode and span-timing
        // records (counts are global across parallel tests, so only
        // presence and positivity are asserted).
        let snap = uniloc_obs::global_metrics().snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert!(counter("engine.scheme.available.motion") >= 1);
        assert!(counter("engine.fusion.mode.bma") >= 1);
        assert!(
            snap.histograms.iter().any(|(n, h)| n == "span.engine.update" && h.count() >= 1),
            "engine.update span timings recorded"
        );
    }

    #[test]
    fn custom_scheme_without_extractor_is_excluded_but_listed() {
        let a = Scripted {
            id: SchemeId::Custom(7),
            output: Some(LocationEstimate::at(Point::new(1.0, 1.0))),
        };
        let b = Scripted {
            id: SchemeId::Motion,
            output: Some(LocationEstimate::at(Point::new(5.0, 5.0))),
        };
        let mut models = ErrorModelSet::default();
        motion_model(&mut models, 0.05, 1.0);
        custom_model(&mut models, SchemeId::Custom(7), 3.0, 1.0);
        let mut engine = UniLocEngine::new(vec![Box::new(a), Box::new(b)], models, empty_ctx());
        let out = engine.update(&frame_indoor());
        // Custom(7) has a model but the built-in extractor returns None
        // features for custom schemes, so it is excluded from the ensemble.
        let custom = out.reports.iter().find(|r| r.id == SchemeId::Custom(7)).unwrap();
        assert_eq!(custom.weight, 0.0);
        assert_eq!(out.bayesian_average, Some(Point::new(5.0, 5.0)));
        assert_eq!(engine.scheme_ids(), vec![SchemeId::Custom(7), SchemeId::Motion]);
    }
}
