//! The traced run: the real `FleetScheduler`, fed by builder closures that
//! call the program's public build functions one by one inside spans, with
//! retirement, checkpoint cuts and resume handled here the same way
//! `uniloc_bench::fleet::run_fleet_durable` handles them. The fleet it
//! serves must be byte-identical to the untraced run's, which the caller
//! checks through the fleet digest.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use uniloc_bench::chaos::{error_stats, fused_error};
use uniloc_bench::fleet::{
    atomic_write_json, fleet_specs, load_fleet_checkpoint, records_digest, solo_records,
    spec_pipeline_config, spec_scenario, FleetCheckpoint, FleetConfig, ResidentEntry, SessionSpec,
    SessionSummary,
};
use uniloc_core::error_model::ErrorModelSet;
use uniloc_core::fleet::{
    FinishedSession, FleetEvent, FleetRunStats, FleetScheduler, FleetSession, RunControl,
    SupervisionPolicy, CHECKPOINT_VERSION,
};
use uniloc_core::pipeline::{self, PipelineConfig};
use uniloc_core::session::Session;
use uniloc_faults::{FaultInjector, FaultPlan};
use uniloc_obs::fleet::{FleetAggregator, FleetSnapshot, SessionMeta};
use uniloc_obs::ObsSession;
use uniloc_stats::json::ToJson;

use crate::trace::{Tracer, NO_LANE};
use crate::workload::{CrashPlan, RESIDENT};

/// Frame and survey counts gathered by the traced builders.
#[derive(Default)]
pub struct BuildCounts {
    pub sessions: AtomicU64,
    pub synthesized_frames: AtomicU64,
    pub served_frames: AtomicU64,
    pub survey_points: AtomicU64,
}

pub struct TracedFleet {
    /// Retired rows, sorted by lane.
    pub summaries: Vec<SessionSummary>,
    pub snapshot: Option<FleetSnapshot>,
    /// One entry per scheduler run: the crash prefix and the resume for
    /// `crash-resume`, otherwise just the one run.
    pub runs: Vec<FleetRunStats>,
    pub counts: Arc<BuildCounts>,
    /// The crash checkpoint, for `crash-resume`.
    pub checkpoint: Option<FleetCheckpoint>,
    pub checkpoint_bytes: u64,
    pub violations: usize,
}

/// The lane-order fleet digest, folded exactly as `FLEET.json`'s
/// `fleet_digest` is.
pub fn fleet_digest(summaries: &[SessionSummary]) -> String {
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for s in summaries {
        digest ^= s.digest.wrapping_add(s.spec.lane);
        digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{digest:016x}")
}

fn session_meta(s: &SessionSummary) -> SessionMeta {
    SessionMeta {
        lane: s.spec.lane,
        name: s.spec.name.clone(),
        persona: s.spec.persona.clone(),
        device: s.spec.device.clone(),
        venue: s.spec.scenario.clone(),
        faulted: s.spec.plan != "none",
        epochs: s.epochs as u64,
        mean_error_m: s.mean_error,
        nonfinite: s.nonfinite_fused as u64,
        quarantined: s.quarantined.clone(),
    }
}

/// The retired row, minus the digest (timed as its own span).
fn summarize(spec: SessionSpec, finished: &FinishedSession, digest: u64) -> SessionSummary {
    let (mean_error, _, _) = error_stats(&finished.records);
    let nonfinite_fused = finished
        .records
        .iter()
        .filter_map(fused_error)
        .filter(|e| !e.is_finite())
        .count();
    let mut quarantined: Vec<String> = Vec::new();
    for r in &finished.records {
        for id in &r.quarantined {
            let s = id.to_string();
            if !quarantined.contains(&s) {
                quarantined.push(s);
            }
        }
    }
    SessionSummary {
        spec,
        epochs: finished.epochs,
        digest,
        mean_error,
        nonfinite_fused,
        quarantined,
        flight_lines: finished.capture.flight_lines.len(),
        poisoned: finished.poisoned.as_ref().map(ToString::to_string),
    }
}

/// Everything a traced builder needs, cloned into each closure.
#[derive(Clone)]
struct Builder {
    tracer: Arc<Tracer>,
    models: Arc<ErrorModelSet>,
    base: PipelineConfig,
    max_epochs: usize,
    counts: Arc<BuildCounts>,
}

impl Builder {
    /// Builds the spec's walker the way `build_session_with_obs` does, one
    /// public call per span; `replay` re-serves a restored walker's frames.
    fn build(&self, spec: SessionSpec, replay: Option<usize>) -> FleetSession {
        let (t, lane) = (&self.tracer, spec.lane);
        let root = t.open("build", lane, 0);
        let mut obs = ObsSession::isolated();
        obs.alloc_tracking = true;
        let panic_epoch = FaultPlan::by_name(&spec.plan).and_then(|p| p.panic_epoch());
        let name = spec.name.clone();
        let mut session = FleetSession::build_with_obs(lane, name, Arc::new(obs), || {
            let scenario = t.time("build.venue", lane, root.id, || spec_scenario(&spec));
            let cfg = spec_pipeline_config(&self.base, &spec);
            let mut frames = t.time("build.frames", lane, root.id, || {
                pipeline::walk_frames(&scenario, &cfg, spec.seed)
            });
            self.counts
                .synthesized_frames
                .fetch_add(frames.len() as u64, Ordering::Relaxed);
            if self.max_epochs > 0 {
                frames.truncate(self.max_epochs);
            }
            if spec.plan != "none" {
                frames = t.time("build.inject", lane, root.id, || {
                    let plan = FaultPlan::by_name(&spec.plan).expect("spec names a library plan");
                    let chaos_seed = spec.seed
                        ^ plan
                            .name
                            .bytes()
                            .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(b as u64));
                    FaultInjector::new(plan, chaos_seed)
                        .with_geo_frame(*scenario.world.geo_frame())
                        .inject_walk(&frames)
                });
            }
            self.counts
                .served_frames
                .fetch_add(frames.len() as u64, Ordering::Relaxed);
            let points = scenario
                .survey_points(cfg.indoor_spacing, cfg.outdoor_spacing)
                .len();
            self.counts
                .survey_points
                .fetch_add(points as u64, Ordering::Relaxed);
            let ctx = t.time("build.survey", lane, root.id, || {
                pipeline::build_context(&scenario, &cfg, spec.seed)
            });
            let session = t.time("build.session", lane, root.id, || {
                Session::from_context(Arc::new(scenario), ctx, &self.models, &cfg, spec.seed)
            });
            (session, frames)
        });
        session.set_panic_at_epoch(panic_epoch);
        if let Some(cursor) = replay {
            t.time("resume.replay", lane, root.id, || {
                session.replay_recorded(cursor)
            });
        }
        self.counts.sessions.fetch_add(1, Ordering::Relaxed);
        t.close(root);
        session
    }
}

struct Pass {
    stats: FleetRunStats,
    summaries: Vec<SessionSummary>,
    snapshot: Option<FleetSnapshot>,
}

/// One scheduler run with traced admission, retirement and checkpoint cuts,
/// resuming from `resume` when given.
fn run_pass(
    builder: &Builder,
    cfg: &FleetConfig,
    specs: &[SessionSpec],
    resume: Option<&FleetCheckpoint>,
    control: RunControl,
    ckpt_path: &str,
) -> Result<Pass, String> {
    let t = &builder.tracer;
    uniloc_obs::process_flight().rearm_dumps();
    let mut scheduler = FleetScheduler::new(cfg.jobs, builder.base.epoch_interval, RESIDENT);
    let (mut summaries, base_snap, mut restored) = match resume {
        Some(c) => {
            let resident: BTreeMap<u64, ResidentEntry> = c
                .resident
                .iter()
                .map(|r| (r.checkpoint.lane, r.clone()))
                .collect();
            (c.retired.clone(), c.snapshot.clone(), resident)
        }
        None => (Vec::with_capacity(cfg.sessions), None, BTreeMap::new()),
    };
    let retired: BTreeSet<u64> = summaries.iter().map(|s| s.spec.lane).collect();
    let spec_by_lane: BTreeMap<u64, &SessionSpec> = specs.iter().map(|s| (s.lane, s)).collect();
    for spec in specs.iter().filter(|s| !retired.contains(&s.lane)) {
        let (b, spec) = (builder.clone(), spec.clone());
        match restored.remove(&spec.lane) {
            Some(entry) => {
                let cursor = entry.checkpoint.cursor as usize;
                scheduler.admit_restored(
                    spec.lane,
                    entry.strikes,
                    entry.backoff_rounds,
                    move || b.build(spec, Some(cursor)),
                );
            }
            None => scheduler.admit(spec.lane, move || b.build(spec, None)),
        }
    }
    if !restored.is_empty() {
        return Err(format!(
            "checkpoint lanes {:?} missing from the spec mix",
            restored.keys()
        ));
    }
    let mut agg = Some(FleetAggregator::with_exemplar_cap(cfg.shards, cfg.top_k));
    let mut ckpt_error = None;
    let stats =
        scheduler.run_supervised(
            &SupervisionPolicy::default(),
            &control,
            |event| match event {
                FleetEvent::Finished(finished) => {
                    let lane = finished.lane;
                    let root = t.open("retire", lane, 0);
                    let spec = (*spec_by_lane[&lane]).clone();
                    let digest = t.time("retire.digest", lane, root.id, || {
                        records_digest(&finished.records)
                    });
                    let summary = t.time("retire.stats", lane, root.id, || {
                        summarize(spec, &finished, digest)
                    });
                    if let Some(agg) = agg.as_mut() {
                        t.time("retire.aggregate", lane, root.id, || {
                            agg.observe(&session_meta(&summary), &finished.capture);
                        });
                    }
                    summaries.push(summary);
                    drop(finished);
                    t.close(root);
                }
                FleetEvent::Checkpoint {
                    round,
                    resident,
                    unflushed,
                } => {
                    if ckpt_error.is_some() {
                        return;
                    }
                    let open = t.open("ckpt.cut", NO_LANE, 0);
                    let mut rows = summaries.clone();
                    let mut snap = match (&base_snap, &agg) {
                        (Some(b), Some(a)) => Some(b.merge(&a.snapshot())),
                        (None, Some(a)) => Some(a.snapshot()),
                        (b, None) => b.clone(),
                    };
                    for finished in unflushed {
                        let spec = (*spec_by_lane[&finished.lane]).clone();
                        let summary = summarize(spec, finished, records_digest(&finished.records));
                        if let Some(snap) = snap.as_mut() {
                            snap.observe(&session_meta(&summary), &finished.capture);
                        }
                        rows.push(summary);
                    }
                    rows.sort_by_key(|s| s.spec.lane);
                    let ckpt = FleetCheckpoint {
                        version: CHECKPOINT_VERSION,
                        seed: cfg.seed,
                        sessions: cfg.sessions,
                        scenario_names: cfg.scenario_names.clone(),
                        max_epochs: cfg.max_epochs,
                        chaos_every: cfg.chaos_every,
                        obs_stub: cfg.obs_stub,
                        shards: cfg.shards,
                        top_k: cfg.top_k,
                        panic_lane: cfg.panic_lane,
                        panic_epoch: cfg.panic_epoch,
                        round,
                        retired: rows,
                        resident: resident
                            .iter()
                            .map(|r| ResidentEntry {
                                checkpoint: spec_by_lane[&r.lane].checkpoint(r.cursor as usize),
                                strikes: r.strikes,
                                backoff_rounds: r.backoff_rounds,
                            })
                            .collect(),
                        snapshot: snap,
                    };
                    if let Err(e) = atomic_write_json(ckpt_path, &ckpt.to_json()) {
                        ckpt_error = Some(format!("write checkpoint {ckpt_path}: {e}"));
                    }
                    t.close(open);
                }
            },
        );
    if let Some(e) = ckpt_error {
        return Err(e);
    }
    summaries.sort_by_key(|s| s.spec.lane);
    let snapshot = match (base_snap, agg) {
        (Some(b), Some(a)) => Some(b.merge(&a.snapshot())),
        (None, Some(a)) => Some(a.snapshot()),
        (b, None) => b,
    };
    Ok(Pass {
        stats,
        summaries,
        snapshot,
    })
}

/// Serves the whole fleet traced, crashing and resuming it when `crash`
/// is set. `ckpt_path` receives the checkpoint cuts.
///
/// # Errors
///
/// Returns spec, checkpoint and crash-plan failures.
pub fn run(
    tracer: &Arc<Tracer>,
    models: &Arc<ErrorModelSet>,
    base: &PipelineConfig,
    cfg: &FleetConfig,
    crash: Option<CrashPlan>,
    ckpt_path: &str,
) -> Result<TracedFleet, String> {
    let specs = tracer.time("setup.specs", NO_LANE, 0, || fleet_specs(cfg))?;
    let builder = Builder {
        tracer: Arc::clone(tracer),
        models: Arc::clone(models),
        base: base.clone(),
        max_epochs: cfg.max_epochs,
        counts: Arc::new(BuildCounts::default()),
    };
    let control = match crash {
        Some(c) => RunControl {
            checkpoint_every: c.checkpoint_every,
            stop_after_rounds: Some(c.crash_after_rounds),
        },
        None => RunControl::default(),
    };
    let first = run_pass(&builder, cfg, &specs, None, control, ckpt_path)?;
    let mut runs = vec![first.stats];
    let (mut pass, mut checkpoint, mut checkpoint_bytes) = (first.summaries, None, 0);
    let mut snapshot = first.snapshot;
    if let Some(c) = crash {
        if !runs[0].aborted {
            return Err(format!(
                "the fleet finished before its crash at round {}",
                c.crash_after_rounds
            ));
        }
        let ckpt = tracer.time("ckpt.load", NO_LANE, 0, || load_fleet_checkpoint(ckpt_path))?;
        checkpoint_bytes = std::fs::metadata(ckpt_path)
            .map_err(|e| format!("stat {ckpt_path}: {e}"))?
            .len();
        let resumed = run_pass(
            &builder,
            cfg,
            &specs,
            Some(&ckpt),
            RunControl::default(),
            ckpt_path,
        )?;
        runs.push(resumed.stats);
        pass = resumed.summaries;
        snapshot = resumed.snapshot;
        checkpoint = Some(ckpt);
    }
    let violations = tracer.time("verify.spotcheck", NO_LANE, 0, || {
        spot_check(&pass, models, base, cfg)
    });
    Ok(TracedFleet {
        summaries: pass,
        snapshot,
        runs,
        counts: builder.counts,
        checkpoint,
        checkpoint_bytes,
        violations,
    })
}

/// The program's own resilience check, repeated so the traced run does the
/// same work as `run_fleet`: non-finite fused estimates, and clean walkers
/// that quarantined a scheme replayed solo (the first 64 of them).
fn spot_check(
    summaries: &[SessionSummary],
    models: &ErrorModelSet,
    base: &PipelineConfig,
    cfg: &FleetConfig,
) -> usize {
    let mut violations = summaries.iter().filter(|s| s.nonfinite_fused > 0).count();
    for s in summaries
        .iter()
        .filter(|s| s.spec.plan == "none" && !s.quarantined.is_empty())
        .take(64)
    {
        if records_digest(&solo_records(&s.spec, models, base, cfg.max_epochs)) != s.digest {
            violations += 1;
        }
    }
    violations
}
