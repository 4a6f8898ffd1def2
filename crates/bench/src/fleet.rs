//! The fleet load generator: thousands of seeded walkers — mixed personas,
//! devices, venues and fault plans — served by one deterministic
//! [`FleetScheduler`], shared by `uniloc fleet` and the differential test
//! suite.
//!
//! Every walker is fully determined by its [`SessionSpec`], whose seed is
//! `split_seed(fleet_seed, lane)` — disjoint per-lane streams
//! (property-tested in `tests/fleet_properties.rs`). The generator's
//! artifacts echo the spec mix and a per-session FNV-1a digest of the
//! canonical epoch records, so a one-line `diff` proves two runs served
//! byte-identical fleets. The report deliberately excludes `jobs`,
//! `resident` and every wall-clock number: it must be byte-identical at
//! any worker count, resident cap and machine speed (held by
//! `tests/fleet_differential.rs` and the CI fleet smoke).
//!
//! Wall-clock throughput is measured by the fleet benchmark in
//! `benchmark/`, which drives this module's public API.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::chaos::{error_stats, fused_error, quarantined_schemes, scenario_by_name};
use uniloc_core::error_model::ErrorModelSet;
use uniloc_core::fleet::{
    check_checkpoint_version, CheckpointError, FinishedSession, FleetEvent,
    FleetRunStats, FleetScheduler, FleetSession, RunControl, SessionCheckpoint, SupervisionPolicy,
    CHECKPOINT_VERSION,
};
use uniloc_core::pipeline::{self, EpochRecord, PipelineConfig};
use uniloc_core::session::Session;
use uniloc_env::{GaitProfile, Scenario, SurveyPlan};
use uniloc_faults::{FaultInjector, FaultPlan};
use uniloc_obs::fleet::{self as obsfleet, FleetAggregator, FleetSnapshot, SessionMeta};
use uniloc_obs::ObsSession;
use uniloc_rng::split_seed;
use uniloc_sensors::{DeviceProfile, SensorFrame};
use uniloc_stats::json::{flattened, float, hex, Fnv1a, FromJson, Json, ToJson};

/// Load-generator parameters. Everything that shapes the fleet's *output*
/// lives here except `jobs`/`resident`, which only shape its execution.
#[derive(Clone, Default)]
pub struct FleetConfig {
    /// Root seed; lane seeds derive via [`split_seed`].
    pub seed: u64,
    /// Walkers to admit.
    pub sessions: usize,
    /// Scenario vocabulary names cycled across lanes
    /// ([`scenario_by_name`]).
    pub scenario_names: Vec<String>,
    /// Worker threads for the scheduler (`<= 1` runs inline). Never
    /// affects artifacts.
    pub jobs: usize,
    /// Maximum sessions live at once; bounds memory, never affects
    /// artifacts. `0` picks a default.
    pub resident: usize,
    /// Serves each walker only the first this-many epochs of its walk, and
    /// synthesizes only those frames; `0` serves full walks.
    pub max_epochs: usize,
    /// Every `chaos_every`-th lane walks under a fault plan (cycling the
    /// smoke library); `0` keeps the whole fleet clean.
    pub chaos_every: usize,
    /// Serve every walker under a stubbed [`ObsSession`] (the *obs off*
    /// half of the obs-overhead bench; `uniloc fleet` sets it only there).
    /// Records are byte-identical either way — observability never feeds
    /// the pipeline — but captures come back empty, so no fleet snapshot
    /// is aggregated.
    pub obs_stub: bool,
    /// Telemetry aggregation shards (`0` picks the default). Never affects
    /// artifacts: the shard merge is associative and commutative, which
    /// `tests/fleet_proptests.rs` holds. `uniloc fleet` always passes `0`;
    /// a resume takes the value from the checkpoint.
    pub shards: usize,
    /// Worst-session exemplars kept by the fleet observatory (`0` picks
    /// the default, [`uniloc_obs::fleet::EXEMPLAR_CAP`]; `uniloc fleet`
    /// always passes `0`). Shapes only the health plane's exemplar table,
    /// never the fleet report.
    pub top_k: usize,
    /// Arms a process-level fault on this lane: its walker panics at
    /// epoch [`FleetConfig::panic_epoch`] (plan `panic_at_epoch_<E>`),
    /// exercising the supervisor's strike/poison path. `None` keeps the
    /// fleet panic-free.
    pub panic_lane: Option<u64>,
    /// The epoch [`FleetConfig::panic_lane`] panics at.
    pub panic_epoch: u64,
}

/// The complete recipe for one walker. A spec (plus the shared error
/// models and base config) determines the session's records byte for byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSpec {
    pub lane: u64,
    pub name: String,
    /// Scenario vocabulary name.
    pub scenario: String,
    /// Persona name from [`GaitProfile::personas`].
    pub persona: String,
    /// `nexus5x` or `lgg3`.
    pub device: String,
    /// Fault-plan name, `none` for a clean walker.
    pub plan: String,
    /// The session's root seed: `split_seed(fleet_seed, lane)`.
    pub seed: u64,
}

uniloc_stats::impl_json_struct!(SessionSpec {
    lane,
    name,
    scenario,
    persona,
    device,
    plan,
    seed with hex,
});

impl SessionSpec {
    /// The checkpoint naming this spec with `cursor` frames served.
    pub fn checkpoint(&self, cursor: usize) -> SessionCheckpoint {
        SessionCheckpoint {
            version: CHECKPOINT_VERSION,
            lane: self.lane,
            name: self.name.clone(),
            scenario: self.scenario.clone(),
            persona: self.persona.clone(),
            device: self.device.clone(),
            plan: self.plan.clone(),
            seed: self.seed,
            cursor: cursor as u64,
        }
    }
}

/// Generates the fleet's session mix: scenarios, personas, devices and
/// fault plans cycled over lanes, seeds split per lane.
///
/// # Errors
///
/// Returns the first unknown scenario name.
pub fn fleet_specs(cfg: &FleetConfig) -> Result<Vec<SessionSpec>, String> {
    for name in &cfg.scenario_names {
        scenario_by_name(name, 1)?;
    }
    if cfg.scenario_names.is_empty() {
        return Err("fleet needs at least one scenario".to_owned());
    }
    let personas = GaitProfile::personas();
    let plans = FaultPlan::smoke_library();
    let mut specs = Vec::with_capacity(cfg.sessions);
    for lane in 0..cfg.sessions as u64 {
        let scenario = cfg.scenario_names[lane as usize % cfg.scenario_names.len()].clone();
        let persona = personas[lane as usize % personas.len()].name.clone();
        let device = if lane % 2 == 0 { "nexus5x" } else { "lgg3" };
        let plan = if cfg.panic_lane == Some(lane) {
            // The process-fault lane: sensor chaos never stacks on top, so
            // the panicking walker's frame stream (and hence its partial
            // records at poison time) stays byte-deterministic.
            FaultPlan::panic_at_epoch(cfg.panic_epoch).name
        } else if cfg.chaos_every > 0 && (lane as usize + 1).is_multiple_of(cfg.chaos_every) {
            plans[(lane as usize / cfg.chaos_every) % plans.len()].name.clone()
        } else {
            "none".to_owned()
        };
        specs.push(SessionSpec {
            lane,
            name: format!("s{lane:05}-{scenario}-{persona}"),
            scenario,
            persona,
            device: device.to_owned(),
            plan,
            seed: split_seed(cfg.seed, lane),
        });
    }
    Ok(specs)
}

/// The per-walker pipeline config: the shared base with the spec's persona
/// and device swapped in.
///
/// # Panics
///
/// Panics on a persona or device name outside the generator vocabulary.
pub fn spec_pipeline_config(base: &PipelineConfig, spec: &SessionSpec) -> PipelineConfig {
    let gait = GaitProfile::personas()
        .into_iter()
        .find(|g| g.name == spec.persona)
        .unwrap_or_else(|| panic!("unknown persona {}", spec.persona));
    let device = DeviceProfile::by_name(&spec.device)
        .unwrap_or_else(|| panic!("unknown device {}", spec.device));
    PipelineConfig { gait, device, ..base.clone() }
}

/// The spec's venue, seeded with the spec's own seed — every walker gets
/// its own deterministic world.
///
/// # Panics
///
/// Panics on an unknown scenario name ([`fleet_specs`] validates them).
pub fn spec_scenario(spec: &SessionSpec) -> Scenario {
    scenario_by_name(&spec.scenario, spec.seed)
        .unwrap_or_else(|e| panic!("spec scenario vanished: {e}"))
}

/// The spec's frame stream: the first `max_epochs` frames of the walk (the
/// whole walk when `0`), then fault-injected when the spec names a plan —
/// the same chaos-seed discipline as the chaos sweep. Only the served
/// prefix is synthesized ([`pipeline::walk_frames_prefix`]); it equals
/// [`pipeline::walk_frames`] truncated to `max_epochs`, bit for bit.
pub fn spec_frames(
    scenario: &Scenario,
    cfg: &PipelineConfig,
    spec: &SessionSpec,
    max_epochs: usize,
) -> Vec<SensorFrame> {
    let limit = if max_epochs == 0 { usize::MAX } else { max_epochs };
    let frames = pipeline::walk_frames_prefix(scenario, cfg, spec.seed, limit);
    if spec.plan == "none" {
        return frames;
    }
    let plan = FaultPlan::by_name(&spec.plan)
        .unwrap_or_else(|| panic!("unknown fault plan {}", spec.plan));
    let chaos_seed = plan.chaos_seed(spec.seed);
    let mut injector =
        FaultInjector::new(plan, chaos_seed).with_geo_frame(*scenario.world.geo_frame());
    injector.inject_walk(&frames)
}

/// Builds the spec's [`FleetSession`] — venue, frames and serving session,
/// all constructed under the walker's isolated observability session.
pub fn build_session(
    spec: SessionSpec,
    models: Arc<ErrorModelSet>,
    base: PipelineConfig,
    max_epochs: usize,
) -> FleetSession {
    build_session_with_obs(spec, models, base, max_epochs, false)
}

/// [`build_session`] with the walker's observability selectable: stubbed
/// sessions run the same instrument sites against sink state (the
/// obs-overhead bench's *off* half).
pub fn build_session_with_obs(
    spec: SessionSpec,
    models: Arc<ErrorModelSet>,
    base: PipelineConfig,
    max_epochs: usize,
    obs_stub: bool,
) -> FleetSession {
    build_walker(spec, models, base, max_epochs, obs_stub, None)
}

/// [`build_session_with_obs`], surveying on `survey` when given: the
/// venue's plan that the whole fleet shares ([`venue_plans`]). Without
/// one the walker lays its own ([`pipeline::build_context`]).
fn build_walker(
    spec: SessionSpec,
    models: Arc<ErrorModelSet>,
    base: PipelineConfig,
    max_epochs: usize,
    obs_stub: bool,
    survey: Option<Arc<SurveyPlan>>,
) -> FleetSession {
    let lane = spec.lane;
    let name = spec.name.clone();
    let panic_epoch = FaultPlan::by_name(&spec.plan).and_then(|p| p.panic_epoch());
    let obs = if obs_stub {
        Arc::new(ObsSession::stubbed())
    } else {
        // Full observability includes the allocation observatory: the
        // walker's timed spans attribute heap traffic into its isolated
        // registry (`alloc.*` counters), which the fleet aggregator folds
        // like any other counter.
        let mut obs = ObsSession::isolated();
        obs.alloc_tracking = true;
        Arc::new(obs)
    };
    let mut fleet_session = FleetSession::build_with_obs(lane, name, obs, move || {
        let scenario = spec_scenario(&spec);
        let cfg = spec_pipeline_config(&base, &spec);
        let frames = spec_frames(&scenario, &cfg, &spec, max_epochs);
        let ctx = match &survey {
            Some(survey) => pipeline::build_context_on(&scenario, &cfg, spec.seed, survey),
            None => pipeline::build_context(&scenario, &cfg, spec.seed),
        };
        let session = Session::from_context(Arc::new(scenario), ctx, &models, &cfg, spec.seed);
        (session, frames)
    });
    fleet_session.set_panic_at_epoch(panic_epoch);
    fleet_session
}

/// One survey plan per venue of `cfg`, for every walker of that venue to
/// share read-only. A plan depends on the venue's geometry and `base`'s
/// spacings, never on the seed, so the seed-1 venue lays it for all.
/// An invalid `base` lays none: each walker's builder then fails in its
/// own job, as it would without plans.
///
/// # Errors
///
/// Returns the first unknown scenario name.
fn venue_plans(
    cfg: &FleetConfig,
    base: &PipelineConfig,
) -> Result<BTreeMap<String, Arc<SurveyPlan>>, String> {
    let mut plans = BTreeMap::new();
    if base.validate().is_err() {
        return Ok(plans);
    }
    for name in &cfg.scenario_names {
        if !plans.contains_key(name) {
            let venue = scenario_by_name(name, 1)?;
            let plan = venue.survey_plan(base.indoor_spacing, base.outdoor_spacing);
            plans.insert(name.clone(), Arc::new(plan));
        }
    }
    Ok(plans)
}

/// The spec's records through the *legacy batch path*
/// ([`pipeline::run_walk_on_frames`]), for differential testing against
/// the scheduler.
pub fn solo_records(
    spec: &SessionSpec,
    models: &ErrorModelSet,
    base: &PipelineConfig,
    max_epochs: usize,
) -> Vec<EpochRecord> {
    let scenario = spec_scenario(spec);
    let cfg = spec_pipeline_config(base, spec);
    let frames = spec_frames(&scenario, &cfg, spec, max_epochs);
    pipeline::run_walk_on_frames(&scenario, models, &cfg, spec.seed, &frames)
}

/// Digest of a record series: FNV-1a over the canonical JSON array,
/// streamed. [`FinishedSession::digest`] folds the same bytes as the
/// records are served.
pub fn records_digest(records: &[EpochRecord]) -> u64 {
    Fnv1a::digest(records)
}

/// One retired walker's row in the fleet report. Round-trips through JSON
/// exactly (the checkpoint-resident form for already-retired walkers).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSummary {
    pub spec: SessionSpec,
    pub epochs: usize,
    /// [`records_digest`] of the session's records.
    pub digest: u64,
    pub mean_error: Option<f64>,
    pub nonfinite_fused: usize,
    pub quarantined: Vec<String>,
    /// Flight-recorder lines the walker's isolated obs captured
    /// (postmortems; deterministic — session clocks follow simulation
    /// time).
    pub flight_lines: usize,
    /// `Some(failure)` when the supervisor poisoned the walker after it
    /// exhausted its panic strikes; the row then summarizes the partial
    /// records served before the first panic.
    pub poisoned: Option<String>,
}

/// The generator's complete output: the canonical report (worker-count
/// invariant) and the run's wall-clock stats (bench-only).
pub struct FleetResult {
    pub report: Json,
    pub summaries: Vec<SessionSummary>,
    pub stats: FleetRunStats,
    /// Resilience-contract violations: non-finite fused estimates, or a
    /// quarantined clean walker whose records diverge from a solo legacy
    /// replay of the same spec (the isolation-breach spot-check).
    pub violations: Vec<String>,
    /// The fleet observatory's aggregate — every retired capture folded
    /// through the sharded merge. `None` when the fleet ran obs-stubbed
    /// (stub captures are empty by design).
    pub snapshot: Option<FleetSnapshot>,
}

/// Every artifact `uniloc fleet` writes for `result`, as `(file name,
/// bytes)` pairs in write order: `FLEET.json`, then, unless the fleet ran
/// obs-stubbed, the health plane and the call-count and heap profiles.
/// None carries a wall-clock number, so each is byte-identical at any
/// `--jobs`/`--resident` and after a crash and resume.
pub fn artifacts(result: &FleetResult) -> Vec<(&'static str, String)> {
    let mut out = vec![("FLEET.json", result.report.to_string_pretty())];
    if let Some(snap) = &result.snapshot {
        let health = obsfleet::health_report(snap, &obsfleet::SloTargets::default());
        out.push(("FLEET_HEALTH.json", health.to_string_pretty()));
        let tree = obsfleet::profile_tree(snap);
        out.push(("PROF_fleet.folded", obsfleet::folded_lines(&tree)));
        out.push(("PROF_fleet.json", obsfleet::profile_report(&tree).to_string_pretty()));
        let heap = obsfleet::alloc_tree(snap);
        out.push(("PROF_alloc.folded", obsfleet::alloc_folded_lines(&heap)));
        out.push(("PROF_alloc.json", obsfleet::alloc_report(snap, &heap).to_string_pretty()));
    }
    out
}

/// The aggregator's view of one retired walker.
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

fn summarize(spec: SessionSpec, finished: &FinishedSession) -> SessionSummary {
    let (mean_error, _, _) = error_stats(&finished.records);
    let nonfinite_fused =
        finished.records.iter().filter_map(fused_error).filter(|e| !e.is_finite()).count();
    SessionSummary {
        spec,
        epochs: finished.epochs,
        digest: finished.digest,
        mean_error,
        nonfinite_fused,
        quarantined: quarantined_schemes(&finished.records),
        flight_lines: finished.capture.flight_lines.len(),
        poisoned: finished.poisoned.as_ref().map(std::string::ToString::to_string),
    }
}

// The row's spec keys sit beside its own; FLEET.json and the checkpoint
// carry the same bytes.
uniloc_stats::impl_json_struct!(SessionSummary {
    ..spec,
    epochs,
    digest with hex,
    mean_error as "mean_error_m" with float,
    nonfinite_fused,
    quarantined,
    flight_lines,
    poisoned,
});

/// One resident (not yet retired) walker in a [`FleetCheckpoint`]: its
/// recipe + cursor, plus the supervision state the scheduler carries for
/// it (strikes accrued, backoff rounds still to serve).
#[derive(Debug, Clone, PartialEq)]
pub struct ResidentEntry {
    pub checkpoint: SessionCheckpoint,
    pub strikes: u32,
    pub backoff_rounds: u64,
}

uniloc_stats::impl_json_struct!(ResidentEntry { checkpoint, strikes, backoff_rounds });

/// The durable whole-fleet checkpoint: everything `uniloc fleet --resume`
/// needs to reproduce an uninterrupted run's artifacts byte for byte.
///
/// The fleet is deterministic, so — like [`SessionCheckpoint`] — this is a
/// *recipe*, not a state dump: the config echo pins the spec mix, each
/// resident walker carries its recipe + cursor (its RNG streams are pure
/// functions of the seed, so replay restores every stream position), and
/// the already-retired rows plus the aggregate snapshot carry everything
/// the dropped sessions contributed. Jobs and resident cap are deliberately
/// absent: they never shape artifacts, so a resume may change them.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCheckpoint {
    /// Format version ([`CHECKPOINT_VERSION`]); restore rejects others.
    pub version: u64,
    /// Config echo — resume validates these against its own [`FleetConfig`].
    pub seed: u64,
    pub sessions: usize,
    pub scenario_names: Vec<String>,
    pub max_epochs: usize,
    pub chaos_every: usize,
    pub obs_stub: bool,
    pub shards: usize,
    pub top_k: usize,
    pub panic_lane: Option<u64>,
    pub panic_epoch: u64,
    /// Scheduler rounds completed when the checkpoint was cut (the
    /// scheduler cursor; diagnostics only — resume re-derives scheduling
    /// from the restored session states).
    pub round: u64,
    /// Every retired walker's row — flushed or still buffered for
    /// lane-order flushing — sorted by lane.
    pub retired: Vec<SessionSummary>,
    /// Every walker still being served, sorted by lane.
    pub resident: Vec<ResidentEntry>,
    /// The fleet observatory aggregate over exactly the `retired` rows
    /// (`None` for an obs-stubbed fleet).
    pub snapshot: Option<FleetSnapshot>,
}

uniloc_stats::impl_json_struct!(FleetCheckpoint {
    version,
    seed with hex,
    sessions,
    scenario_names as "scenarios",
    max_epochs,
    chaos_every,
    obs_stub,
    shards,
    top_k,
    panic_lane,
    panic_epoch,
    round,
    retired,
    resident,
    snapshot,
});

impl FleetCheckpoint {
    /// Parses and *validates* a fleet checkpoint document, rejecting
    /// foreign format versions — the typed restore entry point.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::VersionMismatch`] on a foreign version,
    /// [`CheckpointError::Malformed`] on any other parse failure.
    pub fn restore(json: &Json) -> Result<FleetCheckpoint, CheckpointError> {
        check_checkpoint_version(json)?;
        let ckpt: FleetCheckpoint =
            FromJson::from_json(json).map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        // The nested per-walker checkpoints share the document's format:
        // a resident entry under a different version means a tampered or
        // spliced document, not merely a stale one — reject it the same
        // typed way.
        for entry in &ckpt.resident {
            if entry.checkpoint.version != CHECKPOINT_VERSION {
                return Err(CheckpointError::VersionMismatch {
                    found: entry.checkpoint.version,
                    expected: CHECKPOINT_VERSION,
                });
            }
        }
        Ok(ckpt)
    }

    /// The checkpoint of `cfg`'s fleet after `round` scheduler rounds:
    /// the config echo plus the retired rows, resident walkers and
    /// aggregate at the cut.
    pub fn cut(
        cfg: &FleetConfig,
        round: u64,
        retired: Vec<SessionSummary>,
        resident: Vec<ResidentEntry>,
        snapshot: Option<FleetSnapshot>,
    ) -> FleetCheckpoint {
        FleetCheckpoint {
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
            retired,
            resident,
            snapshot,
        }
    }

    /// The fleet this checkpoint was cut from, served with `jobs` workers
    /// and at most `resident` live sessions (execution-only knobs the
    /// checkpoint does not pin).
    pub fn config(&self, jobs: usize, resident: usize) -> FleetConfig {
        FleetConfig {
            seed: self.seed,
            sessions: self.sessions,
            scenario_names: self.scenario_names.clone(),
            jobs,
            resident,
            max_epochs: self.max_epochs,
            chaos_every: self.chaos_every,
            obs_stub: self.obs_stub,
            shards: self.shards,
            top_k: self.top_k,
            panic_lane: self.panic_lane,
            panic_epoch: self.panic_epoch,
        }
    }

    /// The config echo a checkpoint of `cfg`'s fleet pins: its
    /// artifact-shaping knobs, keyed as in the checkpoint document.
    pub fn config_echo(cfg: &FleetConfig) -> Vec<(String, Json)> {
        const CUT_STATE: [&str; 5] = ["version", "round", "retired", "resident", "snapshot"];
        let cut = FleetCheckpoint::cut(cfg, 0, Vec::new(), Vec::new(), None);
        flattened(&cut)
            .into_iter()
            .filter(|(key, _)| !CUT_STATE.contains(&key.as_str()))
            .collect()
    }

    /// Validates that `cfg` regenerates the fleet this checkpoint was cut
    /// from — every knob of the [config echo](Self::config_echo) must
    /// match (jobs and resident cap are execution-only and free to
    /// change).
    ///
    /// # Errors
    ///
    /// Names the first mismatched knob.
    pub fn check_config(&self, cfg: &FleetConfig) -> Result<(), String> {
        let echo = FleetCheckpoint::config_echo;
        let (was, now) = (echo(&self.config(cfg.jobs, cfg.resident)), echo(cfg));
        match was.iter().zip(&now).find(|(a, b)| a != b) {
            Some(((knob, a), (_, b))) => Err(format!(
                "checkpoint was cut from a different fleet: {knob} was {a}, resume asks {b}"
            )),
            None => Ok(()),
        }
    }
}

/// Writes a JSON document durably: canonical bytes to a same-directory
/// temp file, fsync'd, then atomically renamed over `path` — a crash
/// mid-write leaves either the old checkpoint or the new one, never a
/// torn file.
///
/// # Errors
///
/// Propagates the underlying filesystem error.
pub fn atomic_write_json(path: &str, doc: &Json) -> std::io::Result<()> {
    use std::io::Write;
    let tmp = format!("{path}.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(doc.canonical().to_string_pretty().as_bytes())?;
        f.write_all(b"\n")?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Loads and validates a [`FleetCheckpoint`] written by
/// [`atomic_write_json`].
///
/// # Errors
///
/// Describes the read, parse, or version failure.
pub fn load_fleet_checkpoint(path: &str) -> Result<FleetCheckpoint, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read checkpoint {path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("parse checkpoint {path}: {e}"))?;
    FleetCheckpoint::restore(&json).map_err(|e| format!("restore checkpoint {path}: {e}"))
}

/// Durability knobs for [`run_fleet_durable`]. The default runs exactly
/// like [`run_fleet`]: no checkpoints, no simulated crash, default
/// supervision.
#[derive(Debug, Clone, Default)]
pub struct FleetRunOptions {
    /// Cut a [`FleetCheckpoint`] every N scheduler rounds (`0` = never;
    /// requires `checkpoint_path`).
    pub checkpoint_every: u64,
    /// Where checkpoints land (atomically replaced at each cut).
    pub checkpoint_path: Option<String>,
    /// Resume from this checkpoint instead of starting fresh.
    pub resume_from: Option<FleetCheckpoint>,
    /// Simulated process crash: abandon the run after this many rounds
    /// (the crash-injection harness's kill switch).
    pub crash_after_rounds: Option<u64>,
}

/// What [`run_fleet_durable`] produced.
pub enum FleetOutcome {
    /// The fleet ran to completion.
    Completed(Box<FleetResult>),
    /// The simulated crash cut the run short after `rounds` rounds; the
    /// last checkpoint on disk (if any) is the resume point.
    Crashed { rounds: u64 },
}

/// Runs the whole fleet to completion, summarizing and dropping each
/// session's records as it retires so memory stays bounded by the
/// resident cap at any fleet size.
///
/// # Errors
///
/// Returns the first unknown scenario name.
pub fn run_fleet(
    models: &Arc<ErrorModelSet>,
    base: &PipelineConfig,
    cfg: &FleetConfig,
) -> Result<FleetResult, String> {
    match run_fleet_durable(models, base, cfg, FleetRunOptions::default())? {
        FleetOutcome::Completed(result) => Ok(*result),
        FleetOutcome::Crashed { .. } => unreachable!("no crash scheduled"),
    }
}

/// [`run_fleet`] with the crash-safety machinery exposed: periodic
/// durable checkpoints, resume, and the simulated-crash kill switch. A
/// resumed run's `FLEET.json` / `FLEET_HEALTH.json` / profiler artifacts
/// are byte-identical to an uninterrupted run's — the crash-recovery
/// differential suite (`tests/fleet_crash_recovery.rs`) and the CI smoke
/// hold that.
///
/// # Errors
///
/// Returns unknown scenario names, a resume config mismatch
/// ([`FleetCheckpoint::check_config`]), and checkpoint write failures.
pub fn run_fleet_durable(
    models: &Arc<ErrorModelSet>,
    base: &PipelineConfig,
    cfg: &FleetConfig,
    opts: FleetRunOptions,
) -> Result<FleetOutcome, String> {
    let specs = fleet_specs(cfg)?;
    if let Some(ckpt) = &opts.resume_from {
        ckpt.check_config(cfg)?;
        check_lanes(ckpt, &specs)?;
    }
    if opts.checkpoint_every > 0 && opts.checkpoint_path.is_none() {
        return Err("checkpoint cadence set but no checkpoint path".to_owned());
    }
    // The dump cap is per-run: earlier runs in this process (another fleet
    // round, a solo walk, a test) must not starve this fleet's postmortem
    // budget on the process session's recorder. (Session postmortems
    // budget on each walker's own isolated recorder, so this cannot
    // perturb resume byte-identity.)
    uniloc_obs::process_flight().rearm_dumps();
    let resident_cap = if cfg.resident == 0 { 64 } else { cfg.resident };
    let mut scheduler = FleetScheduler::new(cfg.jobs, base.epoch_interval, resident_cap);

    // Resume state: rows already retired (they skip admission entirely),
    // the aggregate those rows folded into, and the supervision + cursor
    // state of every walker that was still being served at the cut.
    let (mut summaries, base_snap, mut restored) = match opts.resume_from {
        Some(ckpt) => {
            let restored: BTreeMap<u64, ResidentEntry> =
                ckpt.resident.into_iter().map(|r| (r.checkpoint.lane, r)).collect();
            (ckpt.retired, ckpt.snapshot, restored)
        }
        None => (Vec::with_capacity(cfg.sessions), None, BTreeMap::new()),
    };
    let retired_lanes: std::collections::BTreeSet<u64> =
        summaries.iter().map(|s| s.spec.lane).collect();
    let spec_by_lane: BTreeMap<u64, SessionSpec> =
        specs.iter().map(|s| (s.lane, s.clone())).collect();
    let plans = venue_plans(cfg, base)?;

    let mut admitted = 0usize;
    for spec in &specs {
        if retired_lanes.contains(&spec.lane) {
            continue;
        }
        admitted += 1;
        let lane = spec.lane;
        let survey = plans.get(&spec.scenario).cloned();
        let (spec, models, base) = (spec.clone(), Arc::clone(models), base.clone());
        let (max_epochs, obs_stub) = (cfg.max_epochs, cfg.obs_stub);
        let build = move || build_walker(spec, models, base, max_epochs, obs_stub, survey);
        match restored.remove(&lane) {
            // A mid-flight walker: rebuild from its recipe and replay the
            // already-served frames *with recording*, so its eventual row
            // and capture match an uninterrupted serve byte for byte.
            Some(entry) => {
                let cursor = entry.checkpoint.cursor as usize;
                scheduler.admit_restored(lane, entry.strikes, entry.backoff_rounds, move || {
                    let mut session = build();
                    session.replay_recorded(cursor);
                    session
                });
            }
            None => scheduler.admit(lane, build),
        }
    }
    uniloc_obs::info!(
        "fleet: {} session(s) over {} scenario(s), resident cap {resident_cap}, {} resumed row(s)",
        admitted,
        cfg.scenario_names.len(),
        summaries.len()
    );

    let mut agg =
        (!cfg.obs_stub).then(|| FleetAggregator::with_exemplar_cap(cfg.shards, cfg.top_k));
    let control = RunControl {
        checkpoint_every: opts.checkpoint_every,
        stop_after_rounds: opts.crash_after_rounds,
    };
    let mut ckpt_error: Option<String> = None;
    let policy = SupervisionPolicy::default();
    let stats = scheduler.run_supervised(&policy, &control, |event| match event {
        FleetEvent::Finished(finished) => {
            let spec = spec_by_lane
                .get(&finished.lane)
                .unwrap_or_else(|| panic!("retired lane {} has no spec", finished.lane))
                .clone();
            let summary = summarize(spec, &finished);
            if let Some(agg) = agg.as_mut() {
                agg.observe(&session_meta(&summary), &finished.capture);
            }
            summaries.push(summary);
        }
        FleetEvent::Checkpoint { round, resident, unflushed } => {
            let Some(path) = opts.checkpoint_path.as_deref() else { return };
            if ckpt_error.is_some() {
                return;
            }
            // The checkpoint aggregate covers exactly its retired rows:
            // the resumed base, everything folded since, and the
            // finished-but-unflushed sessions folded in directly (the
            // fold is associative and commutative, so folding them here
            // and later in their own shard lands on the same snapshot).
            let mut rows = summaries.clone();
            let mut snap = fleet_snapshot(base_snap.as_ref(), agg.as_ref());
            for finished in unflushed {
                let spec = spec_by_lane
                    .get(&finished.lane)
                    .unwrap_or_else(|| panic!("unflushed lane {} has no spec", finished.lane))
                    .clone();
                let summary = summarize(spec, finished);
                if let Some(snap) = snap.as_mut() {
                    snap.observe(&session_meta(&summary), &finished.capture);
                }
                rows.push(summary);
            }
            rows.sort_by_key(|s| s.spec.lane);
            let resident = resident
                .iter()
                .map(|r| ResidentEntry {
                    checkpoint: spec_by_lane
                        .get(&r.lane)
                        .unwrap_or_else(|| panic!("resident lane {} has no spec", r.lane))
                        .checkpoint(r.cursor as usize),
                    strikes: r.strikes,
                    backoff_rounds: r.backoff_rounds,
                })
                .collect();
            let ckpt = FleetCheckpoint::cut(cfg, round, rows, resident, snap);
            if let Err(e) = atomic_write_json(path, &ckpt.to_json()) {
                ckpt_error = Some(format!("write checkpoint {path}: {e}"));
            }
        }
    });
    if let Some(e) = ckpt_error {
        return Err(e);
    }
    if stats.aborted {
        uniloc_obs::info!("fleet: simulated crash after {} round(s)", stats.rounds);
        return Ok(FleetOutcome::Crashed { rounds: stats.rounds });
    }
    // Resumed rows arrive before this run's retirements; restore the
    // canonical lane order.
    summaries.sort_by_key(|s| s.spec.lane);

    // Resilience contract. Non-finite fused estimates are always a
    // violation — the defense stack scrubs them even under faults. A
    // quarantine on a *clean* walker, though, is not by itself one:
    // harsh venues legitimately trip the quarantine machine on clean
    // data (path1's NLOS stretches quarantine cellular for some
    // personas). What would be a breach is a neighbor's fault leaking
    // in — and since every session is deterministic, a leak shows up
    // as the fleet's records diverging from a solo replay of the same
    // spec through the legacy batch path. So each suspicious walker
    // gets spot-checked against its solo digest, capped so a venue
    // where quarantine is the norm cannot stall a large fleet.
    const SPOT_CHECK_CAP: usize = 64;
    let mut violations = Vec::new();
    let mut suspicious: Vec<&SessionSummary> = Vec::new();
    for s in &summaries {
        if s.nonfinite_fused > 0 {
            violations.push(format!(
                "{}: {} non-finite fused estimate(s)",
                s.spec.name, s.nonfinite_fused
            ));
        }
        if s.spec.plan == "none" && !s.quarantined.is_empty() {
            suspicious.push(s);
        }
    }
    if suspicious.len() > SPOT_CHECK_CAP {
        uniloc_obs::info!(
            "fleet: {} quarantined clean walker(s); spot-checking the first {SPOT_CHECK_CAP}",
            suspicious.len()
        );
        suspicious.truncate(SPOT_CHECK_CAP);
    }
    for s in suspicious {
        let solo = solo_records(&s.spec, models, base, cfg.max_epochs);
        if records_digest(&solo) != s.digest {
            violations.push(format!(
                "{}: fleet records diverge from the solo legacy run \
                 (quarantined {:?} — isolation breach)",
                s.spec.name, s.quarantined
            ));
        }
    }

    let report = fleet_report(cfg, &summaries);
    let snapshot = fleet_snapshot(base_snap.as_ref(), agg.as_ref());
    Ok(FleetOutcome::Completed(Box::new(FleetResult {
        report,
        summaries,
        stats,
        violations,
        snapshot,
    })))
}

/// Checks every lane of a checkpoint against `specs`, the spec mix its
/// config echo regenerates: each lane appears at most once across the
/// retired rows and the resident walkers, lies inside the mix and carries
/// the mix's recipe, and the snapshot covers exactly the retired rows. A
/// checkpoint that loads yet fails here would write foreign rows into the
/// resumed fleet's artifacts.
///
/// # Errors
///
/// Names the first offending lane and, for a foreign recipe, the first key
/// that differs.
fn check_lanes(ckpt: &FleetCheckpoint, specs: &[SessionSpec]) -> Result<(), String> {
    let retired = ckpt.retired.iter().map(|row| (row.spec.lane, flattened(&row.spec), None));
    let resident = ckpt.resident.iter().map(|entry| {
        let c = &entry.checkpoint;
        (c.lane, flattened(c), Some(c.cursor as usize))
    });
    let mut seen = std::collections::BTreeSet::new();
    for (lane, recipe, cursor) in retired.chain(resident) {
        if !seen.insert(lane) {
            return Err(format!("checkpoint lane {lane} is listed twice"));
        }
        let Some(spec) = usize::try_from(lane).ok().and_then(|i| specs.get(i)) else {
            return Err(format!(
                "checkpoint lane {lane} lies outside the fleet's lanes 0..{}",
                specs.len()
            ));
        };
        let want = match cursor {
            Some(cursor) => flattened(&spec.checkpoint(cursor)),
            None => flattened(spec),
        };
        if let Some(((key, was), (_, now))) = recipe.iter().zip(&want).find(|(a, b)| a != b) {
            return Err(format!(
                "checkpoint lane {lane} is not this fleet's walker: its {key} is {was}, \
                 the spec mix has {now}"
            ));
        }
    }
    match &ckpt.snapshot {
        Some(snap) if snap.sessions != ckpt.retired.len() as u64 => Err(format!(
            "checkpoint snapshot covers {} session(s), but {} row(s) retired",
            snap.sessions,
            ckpt.retired.len()
        )),
        _ => Ok(()),
    }
}

/// A resumed run's aggregate: the checkpoint's fold ⊕ this run's fold.
/// Both operands use the same exact merge algebra, so this equals the
/// uninterrupted fold byte for byte.
fn fleet_snapshot(
    base: Option<&FleetSnapshot>,
    agg: Option<&FleetAggregator>,
) -> Option<FleetSnapshot> {
    match (base, agg) {
        (Some(b), Some(a)) => Some(b.merge(&a.snapshot())),
        (None, Some(a)) => Some(a.snapshot()),
        (b, None) => b.cloned(),
    }
}

/// The obs layer's measured cost: one fleet served twice per pass — obs
/// fully on vs. [`ObsSession::stubbed`] — keeping each mode's best
/// (fastest) pass. Wall-clock only; the records are verified byte-identical
/// via the fleet digest before any throughput is compared.
pub struct ObsOverhead {
    /// Best epochs/s with isolated (full) observability.
    pub epochs_per_sec_obs: f64,
    /// Best epochs/s with stubbed observability.
    pub epochs_per_sec_stub: f64,
    /// Fractional throughput cost of the obs layer:
    /// `(stub - obs) / stub`. Negative means noise favored the obs run.
    pub overhead_frac: f64,
}

/// Measures the obs layer's throughput cost over `passes` paired runs of
/// the configured fleet (see [`ObsOverhead`]). Best-of-N per mode bounds
/// scheduler noise; both modes must serve byte-identical fleets.
///
/// # Errors
///
/// Returns scenario errors, and a hard error when the obs-on and
/// obs-stubbed runs disagree on the fleet digest — that would mean
/// observability leaked into the pipeline.
pub fn measure_obs_overhead(
    models: &Arc<ErrorModelSet>,
    base: &PipelineConfig,
    cfg: &FleetConfig,
    passes: usize,
) -> Result<ObsOverhead, String> {
    let digest_of = |report: &Json| -> String {
        report
            .get("fleet_digest")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_owned()
    };
    let eps = |stats: &FleetRunStats| -> f64 {
        let secs = stats.run_ns as f64 / 1e9;
        if secs > 0.0 { stats.epochs as f64 / secs } else { 0.0 }
    };
    let mut best_obs: f64 = 0.0;
    let mut best_stub: f64 = 0.0;
    for pass in 0..passes.max(1) {
        let on = run_fleet(models, base, &FleetConfig { obs_stub: false, ..cfg.clone() })?;
        let off = run_fleet(models, base, &FleetConfig { obs_stub: true, ..cfg.clone() })?;
        if digest_of(&on.report) != digest_of(&off.report) {
            return Err(
                "obs-stubbed fleet served different records than the obs-on fleet \
                 — observability leaked into the pipeline"
                    .to_owned(),
            );
        }
        best_obs = best_obs.max(eps(&on.stats));
        best_stub = best_stub.max(eps(&off.stats));
        uniloc_obs::info!(
            "obs-overhead pass {}/{}: obs {:.0} epochs/s, stub {:.0} epochs/s",
            pass + 1,
            passes.max(1),
            eps(&on.stats),
            eps(&off.stats)
        );
    }
    let overhead_frac =
        if best_stub > 0.0 { (best_stub - best_obs) / best_stub } else { 0.0 };
    Ok(ObsOverhead {
        epochs_per_sec_obs: best_obs,
        epochs_per_sec_stub: best_stub,
        overhead_frac,
    })
}

/// Assembles the canonical fleet report. Deliberately excludes `jobs`,
/// `resident` and all wall-clock numbers — see the module docs.
fn fleet_report(cfg: &FleetConfig, summaries: &[SessionSummary]) -> Json {
    // The row shape is the summary's JSON form — the same bytes the
    // checkpoint carries, so a resumed row re-enters the report verbatim.
    let rows: Vec<Json> = summaries.iter().map(ToJson::to_json).collect();
    // The fleet digest folds every session digest in lane order: one
    // number that two runs must share iff they served identical fleets.
    let mut fleet_digest: u64 = 0xcbf2_9ce4_8422_2325;
    for s in summaries {
        fleet_digest ^= s.digest.wrapping_add(s.spec.lane);
        fleet_digest = fleet_digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let total_epochs: usize = summaries.iter().map(|s| s.epochs).sum();
    let faulted = summaries.iter().filter(|s| s.spec.plan != "none").count();
    let quarantined_sessions = summaries.iter().filter(|s| !s.quarantined.is_empty()).count();
    let poisoned_sessions = summaries.iter().filter(|s| s.poisoned.is_some()).count();
    Json::Obj(vec![
        ("fleet".into(), Json::Str("uniloc-fleet".into())),
        ("seed".into(), Json::Int(cfg.seed as i64)),
        ("sessions".into(), Json::Int(summaries.len() as i64)),
        (
            "scenarios".into(),
            Json::Arr(cfg.scenario_names.iter().cloned().map(Json::Str).collect()),
        ),
        ("max_epochs".into(), Json::Int(cfg.max_epochs as i64)),
        ("chaos_every".into(), Json::Int(cfg.chaos_every as i64)),
        ("total_epochs".into(), Json::Int(total_epochs as i64)),
        ("faulted_sessions".into(), Json::Int(faulted as i64)),
        ("quarantined_sessions".into(), Json::Int(quarantined_sessions as i64)),
        ("poisoned_sessions".into(), Json::Int(poisoned_sessions as i64)),
        ("fleet_digest".into(), Json::Str(format!("{fleet_digest:016x}"))),
        ("rows".into(), Json::Arr(rows)),
    ])
    .canonical()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(sessions: usize) -> FleetConfig {
        FleetConfig {
            seed: 7,
            sessions,
            scenario_names: vec!["office".to_owned(), "open-space".to_owned()],
            jobs: 2,
            resident: 4,
            max_epochs: 20,
            chaos_every: 8,
            obs_stub: false,
            shards: 0,
            top_k: 0,
            panic_lane: None,
            panic_epoch: 0,
        }
    }

    #[test]
    fn specs_mix_personas_devices_and_plans() {
        let specs = fleet_specs(&cfg(16)).unwrap();
        assert_eq!(specs.len(), 16);
        // Lane seeds are split — all distinct.
        let mut seeds: Vec<u64> = specs.iter().map(|s| s.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 16);
        // Both devices, several personas, both scenarios appear.
        assert!(specs.iter().any(|s| s.device == "nexus5x"));
        assert!(specs.iter().any(|s| s.device == "lgg3"));
        assert!(specs.iter().any(|s| s.scenario == "office"));
        assert!(specs.iter().any(|s| s.scenario == "open-space"));
        // chaos_every = 8 faults lanes 7 and 15.
        let faulted: Vec<u64> =
            specs.iter().filter(|s| s.plan != "none").map(|s| s.lane).collect();
        assert_eq!(faulted, vec![7, 15]);
    }

    #[test]
    fn unknown_scenario_is_rejected() {
        let mut c = cfg(4);
        c.scenario_names = vec!["mars".to_owned()];
        assert!(fleet_specs(&c).unwrap_err().contains("mars"));
    }

    /// The digest of no records is FNV-1a 64 of `[]`, and one byte of
    /// difference in the canonical text changes it.
    #[test]
    fn fnv_digest_is_stable_and_sensitive() {
        assert_eq!(records_digest(&[]), 0x0961_2b07_b5ec_b5a5);
        assert_ne!(Fnv1a::digest("a"), Fnv1a::digest("b"));
    }

    #[test]
    fn panic_lane_overrides_the_spec_plan() {
        let mut c = cfg(16);
        c.panic_lane = Some(7);
        c.panic_epoch = 5;
        let specs = fleet_specs(&c).unwrap();
        assert_eq!(specs[7].plan, "panic_at_epoch_5");
        // Only the armed lane changes; its neighbors keep their mix.
        let clean = fleet_specs(&cfg(16)).unwrap();
        for lane in (0..16).filter(|&l| l != 7) {
            assert_eq!(specs[lane], clean[lane]);
        }
    }

    const CONFIG_KEYS: &str =
        "seed sessions scenarios max_epochs chaos_every obs_stub shards top_k panic_lane panic_epoch";

    #[test]
    fn fleet_checkpoint_round_trips_and_rejects_foreign_configs() {
        let c = cfg(8);
        let specs = fleet_specs(&c).unwrap();
        let ckpt = FleetCheckpoint {
            version: CHECKPOINT_VERSION,
            seed: c.seed,
            sessions: c.sessions,
            scenario_names: c.scenario_names.clone(),
            max_epochs: c.max_epochs,
            chaos_every: c.chaos_every,
            obs_stub: false,
            shards: 0,
            top_k: 0,
            panic_lane: None,
            panic_epoch: 0,
            round: 3,
            retired: vec![SessionSummary {
                spec: specs[0].clone(),
                epochs: 20,
                digest: 0xdead_beef,
                mean_error: Some(1.25),
                nonfinite_fused: 0,
                quarantined: vec!["gps".to_owned()],
                flight_lines: 2,
                poisoned: None,
            }],
            resident: vec![ResidentEntry {
                checkpoint: specs[1].checkpoint(7),
                strikes: 2,
                backoff_rounds: 3,
            }],
            snapshot: None,
        };
        let text = ckpt.to_json().canonical().to_string();
        let back = FleetCheckpoint::restore(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, ckpt);
        assert!(back.check_config(&c).is_ok());
        let mut other = c.clone();
        other.seed += 1;
        assert!(back.check_config(&other).unwrap_err().contains("seed"));
        // The echo is the config keys alone: the cut's state stays out.
        let echo = FleetCheckpoint::config_echo(&c);
        let keys: Vec<&str> = echo.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys.join(" "), CONFIG_KEYS);
        // A foreign format version fails loudly, not by misparse.
        let mut doc = Json::parse(&text).unwrap();
        if let Json::Obj(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                if k == "version" {
                    *v = Json::Int(CHECKPOINT_VERSION as i64 + 9);
                }
            }
        }
        assert!(matches!(
            FleetCheckpoint::restore(&doc),
            Err(CheckpointError::VersionMismatch { .. })
        ));
        // So does a foreign version on a *nested* resident walker's
        // checkpoint (a spliced document, not a stale one).
        let mut spliced = ckpt.clone();
        spliced.resident[0].checkpoint.version = CHECKPOINT_VERSION + 9;
        let spliced = Json::parse(&spliced.to_json().canonical().to_string()).unwrap();
        assert!(matches!(
            FleetCheckpoint::restore(&spliced),
            Err(CheckpointError::VersionMismatch { found, expected: CHECKPOINT_VERSION })
                if found == CHECKPOINT_VERSION + 9
        ));
    }

    /// The tentpole contract at unit scale: crash a checkpointing fleet
    /// between rounds, resume from the file on disk, and the report and
    /// snapshot come out byte-identical to the uninterrupted run —
    /// including a poisoned lane whose strikes straddle the cut.
    #[test]
    fn crashed_fleet_resumes_byte_identically() {
        let mut c = cfg(12);
        c.jobs = 2;
        c.resident = 3;
        c.panic_lane = Some(5);
        c.panic_epoch = 4;
        let models = Arc::new(crate::trained_models(11));
        let base = PipelineConfig::default();

        let straight = run_fleet(&models, &base, &c).unwrap();
        let report = straight.report.to_string();
        assert_eq!(
            straight.report.get("poisoned_sessions").unwrap().as_i64(),
            Some(1),
            "the armed lane must poison, and only it"
        );
        let snap = straight.snapshot.expect("obs-on fleet has a snapshot");
        assert_eq!(snap.counter("fleet.poisoned"), 1);
        assert_eq!(snap.counter("parallel.retries"), 2, "3 strikes = 2 retries");

        let dir = std::env::temp_dir().join(format!("uniloc-fleet-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.ckpt.json").to_string_lossy().into_owned();
        for crash_after in [2u64, 5, 9] {
            let outcome = run_fleet_durable(
                &models,
                &base,
                &c,
                FleetRunOptions {
                    checkpoint_every: 2,
                    checkpoint_path: Some(path.clone()),
                    crash_after_rounds: Some(crash_after),
                    ..FleetRunOptions::default()
                },
            )
            .unwrap();
            assert!(matches!(outcome, FleetOutcome::Crashed { rounds } if rounds == crash_after));
            let ckpt = load_fleet_checkpoint(&path).unwrap();
            let resumed = match run_fleet_durable(
                &models,
                &base,
                &c,
                FleetRunOptions { resume_from: Some(ckpt), ..FleetRunOptions::default() },
            )
            .unwrap()
            {
                FleetOutcome::Completed(r) => *r,
                FleetOutcome::Crashed { .. } => panic!("resume must complete"),
            };
            assert_eq!(
                resumed.report.to_string(),
                report,
                "crash at round {crash_after}: resumed report diverged"
            );
            assert_eq!(
                resumed.snapshot.as_ref(),
                Some(&snap),
                "crash at round {crash_after}: resumed snapshot diverged"
            );
            assert!(resumed.violations.is_empty(), "{:?}", resumed.violations);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
