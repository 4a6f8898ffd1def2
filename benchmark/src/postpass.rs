//! The Table V split of one fix, measured single-threaded on sampled lanes.
//!
//! For every sampled walker the same frames go through three things, one
//! frame at a time: the serving `Session::step`, a twin `UniLocEngine`
//! built the way the session builds its own, and twin schemes fed the
//! scrubbed frame. The twin engine's fused output must match the
//! session's records bit for bit.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use uniloc_bench::fleet::{spec_frames, spec_pipeline_config, spec_scenario, SessionSpec};
use uniloc_core::engine::UniLocEngine;
use uniloc_core::error_model::ErrorModelSet;
use uniloc_core::guard::scrub_frame;
use uniloc_core::pipeline::{self, EpochRecord, PipelineConfig};
use uniloc_core::session::Session;
use uniloc_core::UniLocOutput;
use uniloc_obs::ObsSession;
use uniloc_schemes::SchemeId;
use uniloc_sensors::SensorFrame;

/// Every `STRIDE`-th lane is sampled, at most `MAX_LANES` of them.
const STRIDE: usize = 8;
const MAX_LANES: usize = 16;

#[derive(Debug, Default)]
pub struct Split {
    pub epochs: u64,
    pub step_ns: u64,
    pub engine_ns: u64,
    /// Index-aligned with [`SchemeId::BUILTIN`].
    pub scheme_ns: [u64; 5],
    /// Epochs whose twin output differed from the session's record.
    pub mismatches: u64,
}

impl Split {
    fn mean_us(&self, ns: u64) -> f64 {
        ns as f64 / 1e3 / self.epochs.max(1) as f64
    }
    pub fn step_mean_us(&self) -> f64 {
        self.mean_us(self.step_ns)
    }
    pub fn engine_mean_us(&self) -> f64 {
        self.mean_us(self.engine_ns)
    }
    pub fn scheme_mean_us(&self, i: usize) -> f64 {
        self.mean_us(self.scheme_ns[i])
    }
}

fn bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

/// Whether the twin engine's output is the session's record, bit for bit.
fn same_fix(record: &EpochRecord, out: &UniLocOutput, frame: &SensorFrame) -> bool {
    let truth = frame.true_position;
    let estimates_match = record.estimates.len() == out.reports.len()
        && record
            .estimates
            .iter()
            .zip(&out.reports)
            .all(|((id, p), r)| {
                *id == r.id
                    && p.map(|p| (p.x.to_bits(), p.y.to_bits()))
                        == r.estimate
                            .map(|e| (e.position.x.to_bits(), e.position.y.to_bits()))
            });
    estimates_match
        && bits(record.uniloc1_error) == bits(out.best_selection.map(|p| p.distance(truth)))
        && bits(record.uniloc2_error) == bits(out.bayesian_average.map(|p| p.distance(truth)))
        && bits(record.uniloc2_mixture_error)
            == bits(out.mixture_average.map(|p| p.distance(truth)))
}

/// Runs the post-pass over the sampled specs.
pub fn run(
    specs: &[SessionSpec],
    models: &ErrorModelSet,
    base: &PipelineConfig,
    max_epochs: usize,
) -> Split {
    let mut split = Split::default();
    for spec in specs.iter().step_by(STRIDE).take(MAX_LANES) {
        let scenario = spec_scenario(spec);
        let cfg = spec_pipeline_config(base, spec);
        let frames = spec_frames(&scenario, &cfg, spec, max_epochs);
        // The walker's own observability, as the fleet gives it.
        let mut obs = ObsSession::isolated();
        obs.alloc_tracking = true;
        let _guard = uniloc_obs::session::install(Arc::new(obs));
        let ctx = pipeline::build_context(&scenario, &cfg, spec.seed);
        let scenario = Arc::new(scenario);
        let twin_schemes = || pipeline::build_schemes(&scenario, &ctx, &cfg, spec.seed + 2);
        let mut engine = UniLocEngine::with_predictor(
            twin_schemes(),
            models.clone(),
            ctx.clone(),
            cfg.predictor,
        );
        let mut schemes = twin_schemes();
        let mut session =
            Session::from_context(Arc::clone(&scenario), ctx.clone(), models, &cfg, spec.seed);
        for frame in &frames {
            let t = Instant::now();
            let record = session.step(frame);
            split.step_ns += t.elapsed().as_nanos() as u64;

            let t = Instant::now();
            let out = engine.update(frame);
            split.engine_ns += t.elapsed().as_nanos() as u64;
            if !same_fix(&record, &out, frame) {
                split.mismatches += 1;
            }
            engine.recycle(out);

            let scrubbed = scrub_frame(frame);
            let input = scrubbed.as_ref().map_or(frame, |(clean, _)| clean);
            for scheme in &mut schemes {
                let i = SchemeId::BUILTIN
                    .iter()
                    .position(|&id| id == scheme.id())
                    .expect("built-in scheme");
                let t = Instant::now();
                black_box(scheme.update(black_box(input)));
                split.scheme_ns[i] += t.elapsed().as_nanos() as u64;
            }
            split.epochs += 1;
        }
    }
    split
}
