//! One walker's serving session.
//!
//! The batch harness ([`pipeline::run_walk_on_frames`]) historically owned
//! the whole per-epoch loop. A [`Session`] extracts exactly that loop body
//! so the same code serves two callers:
//!
//! * the legacy batch path — [`pipeline::run_walk_on_frames`] now builds a
//!   `Session` and drives it over the frame stream, so its output (records
//!   *and* observability effects, in order) is unchanged, and
//! * the fleet scheduler ([`crate::fleet`]) — thousands of concurrent
//!   sessions, each stepped one due epoch at a time, interleaved across
//!   worker threads.
//!
//! A `Session` owns everything that is per-walker: the five scheme states,
//! the online error models, the quarantine machine and degradation ladder
//! (all inside its [`UniLocEngine`]), and — when the caller installs one —
//! the isolated observability session its calibration bins and flight
//! postmortems land in. Nothing in a `Session` references another session,
//! which is the isolation property `tests/fleet_differential.rs` holds
//! under chaos plans.
//!
//! # Equivalence contract
//!
//! `Session::step` is a verbatim extraction of the historical loop body:
//! for the same engine state and frame it performs the same engine update,
//! the same metric/calibration/flight calls in the same order, and returns
//! the same [`EpochRecord`]. The observability session is resolved
//! once per step ([`uniloc_obs::session::current`]), so the effects land
//! wherever the *calling thread* points — the process session on the
//! legacy path, the session's private
//! [`ObsSession`](uniloc_obs::ObsSession) under the fleet scheduler. The
//! names they carry are built once, so a steady step allocates its record.

use std::sync::Arc;

use crate::engine::UniLocEngine;
use crate::error_model::{ErrorModelSet, ErrorPrediction};
use crate::features::SharedContext;
use crate::pipeline::{self, EpochRecord, PipelineConfig};
use uniloc_env::Scenario;
use uniloc_geom::Point;
use uniloc_obs::flight::UNAVAILABLE_THRESHOLD;
use uniloc_schemes::{Oracle, SchemeId};

/// One walker's online localization state: the scheme set, error models,
/// quarantine/degradation ladder (via the engine) and the scenario frame
/// of reference. See the module docs for the equivalence contract.
pub struct Session {
    scenario: Arc<Scenario>,
    engine: UniLocEngine,
    epochs: usize,
    /// Per scheme, in report order: the names its calibration cell and
    /// residual histogram go by, built once, and its current run of
    /// unavailable epochs (the `scheme_unavailable` trigger).
    tracks: Vec<SchemeTrack>,
}

struct SchemeTrack {
    name: String,
    residual: String,
    unavailable_run: u64,
}

impl Session {
    /// Builds the session end to end: surveys the venue with `seed`
    /// (exactly like the batch path), builds the five schemes on
    /// `seed + 2` and wires the engine.
    ///
    /// # Panics
    ///
    /// Panics when `cfg` fails [`PipelineConfig::validate`].
    pub fn new(
        scenario: Arc<Scenario>,
        models: &ErrorModelSet,
        cfg: &PipelineConfig,
        seed: u64,
    ) -> Session {
        let ctx = pipeline::build_context(&scenario, cfg, seed);
        Session::from_context(scenario, ctx, models, cfg, seed)
    }

    /// Builds the session from an already-surveyed context — the shared
    /// entry point of the batch harness (which wraps the survey in its own
    /// span) and of callers that checkpoint/replay.
    ///
    /// `seed` must be the same root used for the survey: schemes draw from
    /// `seed + 2` (fusion from `seed + 3` via `build_schemes`' `+ 1`),
    /// the stream discipline every other entry point follows.
    pub fn from_context(
        scenario: Arc<Scenario>,
        ctx: SharedContext,
        models: &ErrorModelSet,
        cfg: &PipelineConfig,
        seed: u64,
    ) -> Session {
        let schemes = pipeline::build_schemes(&scenario, &ctx, cfg, seed + 2);
        let engine = UniLocEngine::with_predictor(schemes, models.clone(), ctx, cfg.predictor);
        let track = |id: SchemeId| SchemeTrack {
            name: id.to_string(),
            residual: format!("error_model.residual.{id}"),
            unavailable_run: 0,
        };
        let tracks = engine.scheme_ids().into_iter().map(track).collect();
        Session { scenario, engine, epochs: 0, tracks }
    }

    /// The scenario this session walks.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Epochs served so far.
    pub fn epochs(&self) -> usize {
        self.epochs
    }

    /// The fusion engine serving this session, for introspection
    /// (quarantine standings, scheme weights) in tests and harnesses.
    pub fn engine(&self) -> &UniLocEngine {
        &self.engine
    }

    /// Serves one localization epoch: runs the engine on `frame`, feeds
    /// the calibration monitor and flight recorder, and returns the epoch
    /// record. This is the historical `run_walk_on_frames` loop body,
    /// verbatim — see the module docs.
    pub fn step(&mut self, frame: &uniloc_sensors::SensorFrame) -> EpochRecord {
        let obs = uniloc_obs::session::current();
        let (metrics, calib, flight) = (&obs.metrics, &obs.calibration, &obs.flight);
        // Under a VirtualClock the sidecar's timestamps follow simulation
        // time; under the default MonotonicClock this is a no-op.
        uniloc_obs::global().sync_virtual_clock(frame.t);
        // Tell the allocation observatory which epoch this is *before* any
        // span opens: epochs past the warmup window count toward the
        // steady-state allocs-per-epoch meter. A no-op unless the calling
        // thread's obs session opted into allocation tracking.
        uniloc_obs::alloc::epoch_phase(self.epochs as u64);
        metrics.counter("pipeline.epochs").inc();
        let out = self.engine.update(frame);
        let truth = frame.true_position;
        let (_, station) = self.scenario.route.project(truth);
        let scheme_errors: Vec<(SchemeId, Option<f64>)> = out
            .reports
            .iter()
            .map(|r| (r.id, r.estimate.map(|e| e.position.distance(truth))))
            .collect();
        // Predicted-minus-actual residuals: only the evaluation harness
        // knows ground truth, so the calibration histograms — and the
        // calibration monitor judging them — live here, not in the engine.
        for (r, track) in out.reports.iter().zip(&mut self.tracks) {
            let run = if r.estimate.is_some() { 0 } else { track.unavailable_run + 1 };
            track.unavailable_run = run;
            if run == UNAVAILABLE_THRESHOLD {
                flight.trigger("scheme_unavailable", || {
                    vec![
                        ("scheme".to_owned(), track.name.as_str().into()),
                        ("t".to_owned(), frame.t.into()),
                    ]
                });
            }
            if let (Some(p), Some(e)) = (r.prediction, r.estimate) {
                let realized = e.position.distance(truth);
                metrics
                    .histogram(&track.residual, uniloc_obs::RESIDUAL_BUCKETS_M)
                    .record(p.mean - realized);
                if let Some(alarm) =
                    calib.observe(&track.name, out.io.as_str(), p.mean, p.sigma, realized)
                {
                    flight.trigger("calibration_drift", || {
                        vec![
                            ("scheme".to_owned(), alarm.scheme.into()),
                            ("io".to_owned(), alarm.io.into()),
                            ("direction".to_owned(), alarm.direction.into()),
                            ("statistic".to_owned(), alarm.statistic.into()),
                            ("t".to_owned(), frame.t.into()),
                        ]
                    });
                }
            }
        }
        // Numerical corruption in any fused output freezes a postmortem
        // (the engine already counted it and raised the warn event).
        if [out.best_selection, out.bayesian_average, out.mixture_average]
            .iter()
            .flatten()
            .any(|p| !p.x.is_finite() || !p.y.is_finite())
        {
            flight.trigger("non_finite_estimate", || vec![("t".to_owned(), frame.t.into())]);
        }
        let estimates: Vec<(SchemeId, Option<Point>)> = out
            .reports
            .iter()
            .map(|r| (r.id, r.estimate.map(|e| e.position)))
            .collect();
        let predictions: Vec<(SchemeId, Option<ErrorPrediction>)> =
            out.reports.iter().map(|r| (r.id, r.prediction)).collect();
        let oracle = Oracle::select(&scheme_errors);
        self.epochs += 1;
        let record = EpochRecord {
            t: frame.t,
            station,
            truth,
            indoor: self.scenario.world.is_indoor(truth),
            io_detected: out.io,
            scheme_errors,
            estimates,
            predictions,
            uniloc1_error: out.best_selection.map(|p| p.distance(truth)),
            uniloc1_choice: out.selected,
            uniloc2_error: out.bayesian_average.map(|p| p.distance(truth)),
            uniloc2_mixture_error: out.mixture_average.map(|p| p.distance(truth)),
            oracle_error: oracle.map(|(_, e)| e),
            oracle_choice: oracle.map(|(id, _)| id),
            weights: out.reports.iter().map(|r| (r.id, r.weight)).collect(),
            gps_enabled: out.gps_enabled,
            tau: out.tau,
            ladder: out.ladder,
            quarantined: out.quarantined.clone(),
        };
        // Hand the report / exclusion vectors back to the engine so the
        // next epoch reuses their capacity instead of reallocating.
        self.engine.recycle(out);
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniloc_env::venues;

    fn models(seed: u64) -> ErrorModelSet {
        pipeline::train_standard_models(seed).expect("training venues produce enough samples")
    }

    /// Driving a `Session` frame by frame reproduces the batch harness
    /// byte for byte — the extraction is an equivalence-preserving
    /// refactor, not a reimplementation.
    #[test]
    fn session_steps_match_batch_walk() {
        let models = models(41);
        let cfg = PipelineConfig { indoor_spacing: 2.0, ..PipelineConfig::default() };
        let scenario = venues::office("session-eq", 42, 40.0, 15.0);
        let frames = pipeline::walk_frames(&scenario, &cfg, 43);
        let batch = pipeline::run_walk_on_frames(&scenario, &models, &cfg, 43, &frames);

        let mut session = Session::new(Arc::new(scenario), &models, &cfg, 43);
        let stepped: Vec<EpochRecord> = frames.iter().map(|f| session.step(f)).collect();
        assert_eq!(stepped, batch);
        assert_eq!(session.epochs(), frames.len());
    }

    /// The `(scheme, t)` of every `scheme_unavailable` postmortem in `lines`.
    fn unavailable_dumps(lines: &[String]) -> Vec<(String, f64)> {
        use uniloc_stats::json::Json;
        let docs = lines.iter().map(|l| Json::parse(l).expect("flight line parses"));
        docs.filter(|d| d.get("reason").and_then(Json::as_str) == Some("scheme_unavailable"))
            .map(|d| {
                let fields = d.get("fields").unwrap();
                let scheme = fields.get("scheme").and_then(Json::as_str).unwrap().to_owned();
                (scheme, fields.get("t").and_then(Json::as_f64).unwrap())
            })
            .collect()
    }

    /// A scheme's 25th consecutive unavailable epoch raises one
    /// postmortem; the epochs around it raise none, an available epoch
    /// re-arms the trigger, each scheme keeps its own run, and a stubbed
    /// session raises nothing.
    #[test]
    fn unavailability_runs_trip_once_per_scheme_and_rearm() {
        use uniloc_obs::session::{install, ObsSession};
        let models = models(41);
        let cfg = PipelineConfig { indoor_spacing: 2.0, ..PipelineConfig::default() };
        let scenario = Arc::new(venues::office("session-runs", 42, 40.0, 15.0));
        let mut frames = pipeline::walk_frames(&scenario, &cfg, 43);
        assert!(frames.len() > 51, "walk too short: {} frames", frames.len());
        // GPS never fixes indoors. Cellular loses its radio for epochs
        // 0..=24, hears it at 25, and loses it again for 26..=50.
        for (i, f) in frames.iter_mut().enumerate().take(51) {
            if i != 25 {
                f.cell = None;
            }
        }
        let walk = |obs: &Arc<ObsSession>| {
            let _guard = install(Arc::clone(obs));
            let mut session = Session::new(Arc::clone(&scenario), &models, &cfg, 43);
            let records: Vec<EpochRecord> = frames.iter().map(|f| session.step(f)).collect();
            let available = |i: usize, id: SchemeId| {
                records[i].scheme_errors.iter().any(|&(s, e)| s == id && e.is_some())
            };
            assert!((0..records.len()).all(|i| !available(i, SchemeId::Gps)));
            assert!(available(25, SchemeId::Cellular) && !available(24, SchemeId::Cellular));
            obs.capture().flight_lines
        };

        let lines = walk(&Arc::new(ObsSession::isolated()));
        let t = |i: usize| frames[i].t;
        let expected = [("gps", t(24)), ("cellular", t(24)), ("cellular", t(50))];
        assert_eq!(unavailable_dumps(&lines), expected.map(|(s, t)| (s.to_owned(), t)));
        let stubbed = walk(&Arc::new(ObsSession::stubbed()));
        assert!(stubbed.is_empty(), "a stubbed session dumps nothing");
    }
}
