//! Differential tests for the fleet session engine (`DESIGN.md` §9): N
//! sessions interleaved through the [`FleetScheduler`] must be
//! epoch-for-epoch byte-identical to each walker running alone through the
//! legacy batch path, at any worker count, resident cap and admission
//! order — and per-session fault/quarantine state must never leak between
//! sessions under a chaos plan.
//!
//! Fleet sessions deliberately emit no harness-level `pipeline.run_walk` /
//! `pipeline.build_context` spans (a span guard cannot be held across
//! scheduler rounds), so observability comparisons filter the
//! `span.pipeline.*` metrics out of the solo capture; everything else must
//! match byte for byte.

use std::collections::BTreeMap;
use std::sync::Arc;

use uniloc::core::error_model::{train, ErrorModelSet};
use uniloc::core::fleet::{FleetScheduler, FinishedSession};
use uniloc::core::pipeline::{self, EpochRecord, PipelineConfig};
use uniloc::core::session::Session;
use uniloc::env::venues;
use uniloc::faults::{FaultInjector, FaultPlan};
use uniloc::sensors::SensorFrame;
use uniloc::obs::session as obs_session;
use uniloc::obs::ObsSession;
use uniloc_bench::fleet::{
    build_session, fleet_specs, records_digest, solo_records, spec_frames, spec_pipeline_config,
    spec_scenario, FleetConfig, SessionSpec,
};

const JOB_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn models(seed: u64) -> Arc<ErrorModelSet> {
    let cfg = PipelineConfig::default();
    let mut samples =
        pipeline::collect_training(&venues::training_office(seed), &cfg, seed + 10);
    samples.extend(pipeline::collect_training(
        &venues::training_open_space(seed + 1),
        &cfg,
        seed + 11,
    ));
    Arc::new(train(&samples).expect("training venues produce enough samples"))
}

/// Drives a whole spec set through a scheduler and returns each finished
/// session keyed by lane. `admit_order` permutes the admission sequence;
/// the scheduler must canonicalize it away.
fn run_fleet_sessions(
    specs: &[SessionSpec],
    admit_order: &[usize],
    models: &Arc<ErrorModelSet>,
    base: &PipelineConfig,
    max_epochs: usize,
    jobs: usize,
    resident: usize,
) -> BTreeMap<u64, FinishedSession> {
    let mut scheduler = FleetScheduler::new(jobs, base.epoch_interval, resident);
    for &i in admit_order {
        let (spec, models, base) = (specs[i].clone(), Arc::clone(models), base.clone());
        scheduler.admit(spec.lane, move || build_session(spec, models, base, max_epochs));
    }
    let mut finished = BTreeMap::new();
    let mut last_lane = None;
    scheduler.run(|f| {
        assert!(last_lane < Some(f.lane), "retirement must stream in lane order");
        last_lane = Some(f.lane);
        finished.insert(f.lane, f);
    });
    assert_eq!(finished.len(), specs.len());
    finished
}

/// A deterministic shuffle: sort by a multiplicative hash of the index.
fn shuffled(n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17));
    order
}

/// Tentpole (a) + (b): a 1000-session fleet is epoch-for-epoch identical
/// to each walker alone through the legacy batch path, and its output is
/// invariant across jobs 1/2/4/8, resident caps and admission order.
#[test]
fn fleet_matches_legacy_batch_and_is_jobs_invariant() {
    let models = models(5);
    let base = PipelineConfig::default();
    let cfg = FleetConfig {
        seed: 11,
        sessions: 1000,
        scenario_names: vec!["office".to_owned(), "open-space".to_owned()],
        jobs: 0, // unused: each run below picks its own
        resident: 0,
        max_epochs: 12,
        chaos_every: 0,
        obs_stub: false,
        shards: 0,
        top_k: 0,
        panic_lane: None,
        panic_epoch: 0,
    };
    let specs = fleet_specs(&cfg).unwrap();
    let in_order: Vec<usize> = (0..specs.len()).collect();

    // Baseline: jobs = 1, admission in lane order.
    let baseline =
        run_fleet_sessions(&specs, &in_order, &models, &base, cfg.max_epochs, 1, 64);

    // (a) Epoch-for-epoch equality with the legacy batch path, walker by
    // walker.
    for spec in &specs {
        let solo = solo_records(spec, &models, &base, cfg.max_epochs);
        let fleet = &baseline[&spec.lane].records;
        assert_eq!(
            fleet, &solo,
            "lane {} ({}) diverged from its legacy batch run",
            spec.lane, spec.name
        );
    }

    // (b) Worker-count, resident-cap and admission-order invariance, via
    // per-session digests of the canonical records.
    let digests: BTreeMap<u64, u64> =
        baseline.iter().map(|(&lane, f)| (lane, records_digest(&f.records))).collect();
    let variants = [
        (JOB_COUNTS[1], 64, in_order.clone()),
        (JOB_COUNTS[2], 7, in_order.clone()),
        (JOB_COUNTS[3], 64, shuffled(specs.len())),
    ];
    for (jobs, resident, order) in variants {
        let run =
            run_fleet_sessions(&specs, &order, &models, &base, cfg.max_epochs, jobs, resident);
        for (&lane, f) in &run {
            assert_eq!(
                records_digest(&f.records),
                digests[&lane],
                "lane {lane} changed at jobs={jobs} resident={resident}"
            );
            assert_eq!(f.epochs, baseline[&lane].epochs);
        }
    }
}

/// The spec's records and observability capture through the legacy path,
/// run under an isolated session so the capture is comparable.
fn solo_with_capture(
    spec: &SessionSpec,
    models: &ErrorModelSet,
    base: &PipelineConfig,
    max_epochs: usize,
) -> (Vec<EpochRecord>, uniloc::obs::SessionCapture) {
    let obs = Arc::new(ObsSession::isolated());
    let guard = obs_session::install(Arc::clone(&obs));
    let records = solo_records(spec, models, base, max_epochs);
    drop(guard);
    (records, obs.capture())
}

/// Metrics JSONL lines minus the signals the two paths deliberately emit
/// differently: the solo path records harness-level `span.pipeline.*`
/// timings the fleet path skips, and the fleet path runs with the
/// allocation observatory on (`alloc.*`) while the solo path leaves it off.
/// Alloc determinism is covered by the artifact byte-identity test above.
fn metrics_without_pipeline_spans(m: &uniloc::obs::MetricsSnapshot) -> Vec<String> {
    m.jsonl_lines()
        .into_iter()
        .filter(|l| !l.contains("\"span.pipeline.") && !l.contains("\"name\":\"alloc."))
        .collect()
}

/// Flight postmortems embed counter deltas, which pick up `alloc.*`
/// counters only on the alloc-tracking (fleet) side; strip those entries
/// so the two captures compare on the signals both paths emit.
fn flight_lines_without_alloc(lines: &[String]) -> Vec<String> {
    use uniloc::stats::json::Json;
    lines
        .iter()
        .map(|line| {
            let mut doc = Json::parse(line).expect("flight line parses");
            if let Json::Obj(fields) = &mut doc {
                for (key, value) in fields.iter_mut() {
                    if key != "counters_delta" {
                        continue;
                    }
                    if let Json::Arr(entries) = value {
                        entries.retain(|entry| {
                            !matches!(entry, Json::Arr(pair)
                                if matches!(pair.first(), Some(Json::Str(n)) if n.starts_with("alloc.")))
                        });
                    }
                }
            }
            doc.to_string()
        })
        .collect()
}

/// Tentpole (c): chaos plans stay confined to the walker they were
/// injected into. Clean sessions in a mixed fleet are byte-identical —
/// records, metrics, calibration cells, flight lines — to their solo runs;
/// faulted sessions match *their* solo faulted runs and are the only ones
/// carrying quarantine or postmortem state.
#[test]
fn fault_and_quarantine_state_never_leaks_between_sessions() {
    let models = models(5);
    let base = PipelineConfig::default();
    let cfg = FleetConfig {
        seed: 23,
        sessions: 24,
        scenario_names: vec!["office".to_owned()],
        jobs: 0,
        resident: 0,
        max_epochs: 40,
        chaos_every: 4,
        obs_stub: false,
        shards: 0,
        top_k: 0,
        panic_lane: None,
        panic_epoch: 0,
    };
    let specs = fleet_specs(&cfg).unwrap();
    assert_eq!(specs.iter().filter(|s| s.plan != "none").count(), 6);

    let fleet = run_fleet_sessions(&specs, &shuffled(specs.len()), &models, &base,
        cfg.max_epochs, 4, 5);

    let mut faulted_with_effects = 0;
    for spec in &specs {
        let f = &fleet[&spec.lane];
        let (solo, solo_cap) = solo_with_capture(spec, &models, &base, cfg.max_epochs);
        assert_eq!(f.records, solo, "lane {} diverged under fleet chaos", spec.lane);
        // The walker's whole observability capture matches its solo run
        // (modulo the harness spans): nothing from a neighbor leaked in,
        // nothing of its own leaked out.
        assert_eq!(
            metrics_without_pipeline_spans(&f.capture.metrics),
            metrics_without_pipeline_spans(&solo_cap.metrics),
            "lane {} metrics diverged",
            spec.lane
        );
        assert_eq!(
            f.capture.calibration.jsonl_lines(),
            solo_cap.calibration.jsonl_lines(),
            "lane {} calibration diverged",
            spec.lane
        );
        assert_eq!(
            flight_lines_without_alloc(&f.capture.flight_lines),
            flight_lines_without_alloc(&solo_cap.flight_lines),
            "lane {} flight postmortems diverged",
            spec.lane
        );
        let quarantined = f.records.iter().any(|r| !r.quarantined.is_empty());
        if spec.plan == "none" {
            assert!(!quarantined, "clean lane {} caught a neighbor's fault", spec.lane);
        } else if quarantined || !f.capture.flight_lines.is_empty() {
            faulted_with_effects += 1;
        }
    }
    assert!(
        faulted_with_effects > 0,
        "chaos plans must visibly perturb at least one faulted walker"
    );
}

/// Checkpoint → restore resumes byte-identically. A session rebuilt from
/// its spec and replayed to its [`SessionCheckpoint`] cursor, the way
/// fleet resume restores a resident walker, then served to the end by
/// the scheduler records exactly the uninterrupted run's record stream.
#[test]
fn checkpoint_restore_resumes_byte_identically() {
    let models = models(5);
    let base = PipelineConfig::default();
    let cfg = FleetConfig {
        seed: 31,
        sessions: 3,
        scenario_names: vec!["office".to_owned()],
        jobs: 0,
        resident: 0,
        max_epochs: 20,
        chaos_every: 2,
        obs_stub: false,
        shards: 0,
        top_k: 0,
        panic_lane: None,
        panic_epoch: 0,
    };
    let specs = fleet_specs(&cfg).unwrap();
    for spec in &specs {
        let full = solo_records(spec, &models, &base, cfg.max_epochs);
        let cut = full.len() / 2;
        let ckpt = spec.checkpoint(cut);
        let mut restored = build_session(
            spec.clone(),
            Arc::clone(&models),
            base.clone(),
            cfg.max_epochs,
        );
        restored.replay_recorded(ckpt.cursor as usize);
        assert_eq!(restored.cursor(), cut);

        let mut scheduler = FleetScheduler::new(2, base.epoch_interval, 2);
        scheduler.admit(spec.lane, move || restored);
        let mut resumed = Vec::new();
        scheduler.run(|f| resumed.push(f));
        assert_eq!(resumed.len(), 1);
        assert_eq!(
            resumed[0].records, full,
            "restored lane {} did not resume at its checkpoint",
            spec.lane
        );
    }
}

/// The fleet session's frame stream really is the legacy stream: same
/// walk, same truncation, same chaos-seed discipline — so the
/// differential above compares like with like. `spec_frames` synthesizes
/// only the served prefix, so this is also the prefix claim: on every
/// fleet venue, clean and faulted, for no limit, a 1- and 4-frame limit
/// and a limit past the walk's end, the prefix equals the whole walk
/// truncated (then injected).
#[test]
fn spec_frames_match_legacy_walk_frames() {
    let cfg = FleetConfig {
        seed: 47,
        sessions: 10,
        scenario_names: ["mall", "office", "path1", "path2", "open-space"]
            .map(str::to_owned)
            .to_vec(),
        jobs: 0,
        resident: 0,
        max_epochs: 0,
        chaos_every: 2,
        obs_stub: false,
        shards: 0,
        top_k: 0,
        panic_lane: None,
        panic_epoch: 0,
    };
    let base = PipelineConfig::default();
    let specs = fleet_specs(&cfg).unwrap();
    assert!(specs.iter().any(|s| s.plan == "none") && specs.iter().any(|s| s.plan != "none"));
    for spec in specs {
        let scenario = spec_scenario(&spec);
        let pcfg = spec_pipeline_config(&base, &spec);
        let whole = pipeline::walk_frames(&scenario, &pcfg, spec.seed);
        for max_epochs in [0, 1, 4, whole.len() + 7] {
            let frames = spec_frames(&scenario, &pcfg, &spec, max_epochs);
            let mut legacy = whole.clone();
            if max_epochs > 0 {
                legacy.truncate(max_epochs);
            }
            if let Some(plan) = FaultPlan::by_name(&spec.plan) {
                let name_hash =
                    plan.name.bytes().fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(b as u64));
                let chaos_seed = spec.seed ^ name_hash;
                legacy = FaultInjector::new(plan, chaos_seed)
                    .with_geo_frame(*scenario.world.geo_frame())
                    .inject_walk(&legacy);
            }
            let (got, want) = (frame_text(&frames), frame_text(&legacy));
            let at = format!("{} ({}) at max_epochs {max_epochs}", spec.name, spec.plan);
            assert_eq!(got.len(), want.len(), "{at}: frame count");
            if let Some(i) = (0..got.len()).find(|&i| got[i] != want[i]) {
                panic!("{at}: frame {i} differs:\n  {}\n  {}", got[i], want[i]);
            }
            // Injection may drop or repeat frames; a clean walk serves the
            // whole prefix.
            if spec.plan == "none" {
                let served = if max_epochs == 0 { whole.len() } else { max_epochs };
                assert_eq!(frames.len(), served.min(whole.len()), "{at}");
            }
        }
    }
}

/// Frames rendered through `Debug`, which prints every f64 exactly (`-0.0`
/// apart from `0.0`) and every NaN alike, so NaN-stormed streams compare
/// where `==` cannot.
fn frame_text(frames: &[SensorFrame]) -> Vec<String> {
    frames.iter().map(|f| format!("{f:?}")).collect()
}

/// `FleetSession::build` really constructs under the walker's own obs
/// session: a session built while some *other* session is installed must
/// not leak effects into it.
#[test]
fn session_construction_is_obs_isolated() {
    let models = models(5);
    let base = PipelineConfig::default();
    let spec = SessionSpec {
        lane: 0,
        name: "iso".to_owned(),
        scenario: "office".to_owned(),
        persona: "m-30s".to_owned(),
        device: "nexus5x".to_owned(),
        plan: "none".to_owned(),
        seed: 99,
    };
    let outer = Arc::new(ObsSession::isolated());
    let guard = obs_session::install(Arc::clone(&outer));
    let built = build_session(spec, Arc::clone(&models), base, 5);
    drop(guard);
    drop(built);
    let cap = outer.capture();
    assert!(cap.metrics.jsonl_lines().is_empty(), "construction leaked metrics outward");
    assert!(cap.flight_lines.is_empty());
}

/// Tentpole (fleet observatory): `FLEET_HEALTH.json`, `PROF_fleet.folded`
/// and `PROF_fleet.json` are byte-identical at any worker count and shard
/// count, and the obs-stub configuration never perturbs the pipeline (the
/// fleet digest of the canonical records is unchanged).
#[test]
fn observatory_artifacts_are_jobs_and_shard_invariant() {
    use uniloc::obs::fleet::{
        alloc_folded_lines, alloc_report, alloc_tree, folded_lines, health_report,
        profile_report, profile_tree, SloTargets,
    };
    use uniloc_bench::fleet::run_fleet;

    let models = models(5);
    let base = PipelineConfig::default();
    let mk = |jobs, shards, obs_stub| FleetConfig {
        seed: 61,
        sessions: 48,
        scenario_names: vec!["office".to_owned(), "open-space".to_owned()],
        jobs,
        resident: 16,
        max_epochs: 10,
        chaos_every: 6,
        obs_stub,
        shards,
        top_k: 0,
        panic_lane: None,
        panic_epoch: 0,
    };
    let digest_of = |report: &uniloc::stats::json::Json| {
        report.get("fleet_digest").unwrap().as_str().unwrap().to_owned()
    };
    let artifacts = |cfg: &FleetConfig| {
        let result = run_fleet(&models, &base, cfg).unwrap();
        let snap = result.snapshot.expect("obs-on fleets aggregate");
        let tree = profile_tree(&snap);
        let heap = alloc_tree(&snap);
        (
            health_report(&snap, &SloTargets::default()).to_string(),
            folded_lines(&tree),
            profile_report(&tree).to_string(),
            alloc_folded_lines(&heap),
            alloc_report(&snap, &heap).to_string(),
            digest_of(&result.report),
        )
    };

    let baseline = artifacts(&mk(1, 1, false));
    assert!(baseline.0.contains("\"health\":\"uniloc-fleet\""));
    assert!(baseline.1.starts_with("fleet "));
    assert!(baseline.1.contains("fleet;engine.update;"));
    // The heap profile saw real traffic and attributes it to real stages.
    assert!(baseline.3.contains("fleet;engine.update;"));
    assert!(baseline.4.contains("\"prof\":\"alloc\""));
    assert!(
        !baseline.4.contains("\"allocs_per_epoch\":0,"),
        "steady-state alloc meter must be live on an obs-on fleet"
    );
    for (jobs, shards) in [(2, 0), (4, 3), (8, 16)] {
        assert_eq!(
            artifacts(&mk(jobs, shards, false)),
            baseline,
            "observatory artifacts changed at jobs={jobs} shards={shards}"
        );
    }

    let stub = run_fleet(&models, &base, &mk(4, 0, true)).unwrap();
    assert!(stub.snapshot.is_none(), "stubbed fleets aggregate nothing");
    assert_eq!(
        digest_of(&stub.report),
        baseline.5,
        "observability leaked into the pipeline"
    );
}

/// Seeding sanity for the load generator itself: the same [`FleetConfig`]
/// always generates the same specs, and distinct fleet seeds generate
/// disjoint per-lane session seeds.
#[test]
fn load_generator_is_seed_deterministic() {
    let mk = |seed| FleetConfig {
        seed,
        sessions: 64,
        scenario_names: vec!["office".to_owned(), "open-space".to_owned()],
        jobs: 0,
        resident: 0,
        max_epochs: 10,
        chaos_every: 8,
        obs_stub: false,
        shards: 0,
        top_k: 0,
        panic_lane: None,
        panic_epoch: 0,
    };
    let a = fleet_specs(&mk(1)).unwrap();
    let b = fleet_specs(&mk(1)).unwrap();
    assert_eq!(a, b);
    let c = fleet_specs(&mk(2)).unwrap();
    let seeds_a: Vec<u64> = a.iter().map(|s| s.seed).collect();
    let seeds_c: Vec<u64> = c.iter().map(|s| s.seed).collect();
    assert!(seeds_a.iter().all(|s| !seeds_c.contains(s)));
}

/// One tiny stepped-vs-batch cross-check through the public facade, so a
/// regression in the `Session` extraction fails fast here too, not only
/// in the heavyweight differential above.
#[test]
fn facade_session_steps_match_batch() {
    let models = models(5);
    let cfg = PipelineConfig { indoor_spacing: 3.0, ..PipelineConfig::default() };
    let scenario = venues::office("facade-eq", 7, 30.0, 12.0);
    let frames = pipeline::walk_frames(&scenario, &cfg, 8);
    let batch = pipeline::run_walk_on_frames(&scenario, &models, &cfg, 8, &frames);
    let mut session = Session::new(Arc::new(scenario), &models, &cfg, 8);
    let stepped: Vec<EpochRecord> = frames.iter().map(|f| session.step(f)).collect();
    assert_eq!(stepped, batch);
}
