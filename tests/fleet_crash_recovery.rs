//! Crash-recovery differential suite (`DESIGN.md` §12): a fleet killed at
//! any swept cut point and resumed from its last durable
//! [`FleetCheckpoint`] must produce every artifact — the `FLEET.json`
//! report, the `FLEET_HEALTH.json` health plane and both profiler trees —
//! byte-identical to an uninterrupted run, including across chained
//! crash → resume → crash → resume sequences; and a panicking session
//! must poison only itself, leaving every other lane's row untouched.
//!
//! The kill switch is `uniloc_faults::CrashPoint` driving
//! [`FleetRunOptions::crash_after_rounds`]; resume reloads the checkpoint
//! exactly as `uniloc fleet --resume` does.

use std::sync::Arc;

use uniloc::core::error_model::{train, ErrorModelSet};
use uniloc::core::pipeline::{self, PipelineConfig};
use uniloc::env::venues;
use uniloc::faults::CrashPoint;
use uniloc::obs::fleet as obsfleet;
use uniloc::stats::json::Json;
use uniloc_bench::fleet::{
    load_fleet_checkpoint, run_fleet, run_fleet_durable, FleetCheckpoint, FleetConfig,
    FleetOutcome, FleetResult, FleetRunOptions,
};

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

fn fleet_config(seed: u64, jobs: usize, panic_lane: Option<u64>) -> FleetConfig {
    FleetConfig {
        seed,
        sessions: 18,
        scenario_names: vec!["office".to_owned(), "open-space".to_owned()],
        jobs,
        resident: 5,
        max_epochs: 10,
        chaos_every: 4,
        obs_stub: false,
        shards: 0,
        top_k: 0,
        panic_lane,
        panic_epoch: 3,
    }
}

/// Every artifact the CLI derives from a [`FleetResult`], rendered to the
/// exact bytes `uniloc fleet` writes. Byte-comparing these is the whole
/// resume-determinism contract: if each artifact matches, an operator
/// cannot tell a resumed fleet from one that never crashed.
fn artifacts(result: &FleetResult) -> Vec<(&'static str, String)> {
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

fn assert_same_artifacts(straight: &FleetResult, resumed: &FleetResult, label: &str) {
    let (a, b) = (artifacts(straight), artifacts(resumed));
    assert_eq!(a.len(), b.len(), "{label}: artifact sets differ");
    for ((name, want), (_, got)) in a.iter().zip(&b) {
        assert!(want == got, "{label}: {name} diverged after resume");
    }
}

fn ckpt_path(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("uniloc-crash-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp checkpoint dir");
    dir.join("FLEET.ckpt.json").to_string_lossy().into_owned()
}

/// Resumes from the checkpoint at `path`, with `jobs` workers (resume may
/// change execution-only knobs; artifact-shaping ones come from the
/// checkpoint), optionally crashing again after `crash_after` rounds.
fn resume(
    models: &Arc<ErrorModelSet>,
    base: &PipelineConfig,
    seed: u64,
    jobs: usize,
    panic_lane: Option<u64>,
    path: &str,
    crash_after: Option<u64>,
) -> FleetOutcome {
    let ckpt = load_fleet_checkpoint(path).expect("checkpoint loads");
    let cfg = fleet_config(seed, jobs, panic_lane);
    run_fleet_durable(
        models,
        base,
        &cfg,
        FleetRunOptions {
            checkpoint_every: 2,
            checkpoint_path: Some(path.to_owned()),
            resume_from: Some(ckpt),
            crash_after_rounds: crash_after,
            ..FleetRunOptions::default()
        },
    )
    .expect("resumed fleet runs")
}

/// Tentpole (c): kill the fleet at evenly swept cut points — both on and
/// between checkpoint rounds — and resume each from its last durable
/// checkpoint, under a *different* worker count. Every artifact must come
/// back byte-identical to the uninterrupted run, and the resumed fleet
/// must hold the same resilience contract (zero violations).
#[test]
fn swept_kill_points_resume_byte_identically() {
    let models = models(29);
    let base = PipelineConfig::default();
    let straight = run_fleet(&models, &base, &fleet_config(29, 2, None)).expect("straight run");
    assert!(straight.violations.is_empty(), "straight run violated: {:?}", straight.violations);
    let total_rounds = straight.stats.rounds;
    assert!(total_rounds >= 4, "fleet too short to sweep: {total_rounds} rounds");

    for point in CrashPoint::sweep(total_rounds - 1, 3) {
        let path = ckpt_path(&point.name);
        let outcome = run_fleet_durable(
            &models,
            &base,
            &fleet_config(29, 2, None),
            FleetRunOptions {
                checkpoint_every: 2,
                checkpoint_path: Some(path.clone()),
                crash_after_rounds: Some(point.after_rounds),
                ..FleetRunOptions::default()
            },
        )
        .expect("crashing fleet starts");
        match outcome {
            FleetOutcome::Crashed { rounds } => assert_eq!(rounds, point.after_rounds),
            FleetOutcome::Completed(_) => {
                panic!("{}: fleet finished before the scheduled crash", point.name)
            }
        }
        // Resume under a different worker count: jobs is execution-only
        // and must not shape artifacts.
        let resumed = match resume(&models, &base, 29, 3, None, &path, None) {
            FleetOutcome::Completed(result) => *result,
            FleetOutcome::Crashed { .. } => unreachable!("no second crash scheduled"),
        };
        assert!(
            resumed.violations.is_empty(),
            "{}: resumed run violated: {:?}",
            point.name,
            resumed.violations
        );
        assert_same_artifacts(&straight, &resumed, &point.name);
    }
}

/// Repeated failure: crash, resume, crash *again*, resume again. The
/// second incarnation checkpoints over the same path; the final artifacts
/// must still match an uninterrupted run byte for byte.
#[test]
fn chained_double_crash_still_resumes_byte_identically() {
    let models = models(31);
    let base = PipelineConfig::default();
    let straight = run_fleet(&models, &base, &fleet_config(31, 2, None)).expect("straight run");
    let path = ckpt_path("chained");

    let first = run_fleet_durable(
        &models,
        &base,
        &fleet_config(31, 2, None),
        FleetRunOptions {
            checkpoint_every: 2,
            checkpoint_path: Some(path.clone()),
            crash_after_rounds: Some(3),
            ..FleetRunOptions::default()
        },
    )
    .expect("first incarnation starts");
    assert!(matches!(first, FleetOutcome::Crashed { rounds: 3 }));

    // Second incarnation resumes, survives two more rounds (cutting a
    // fresh checkpoint at its own round 2), then dies too.
    match resume(&models, &base, 31, 1, None, &path, Some(2)) {
        FleetOutcome::Crashed { rounds } => assert_eq!(rounds, 2),
        FleetOutcome::Completed(_) => panic!("second incarnation outlived its crash"),
    }

    let finished = match resume(&models, &base, 31, 4, None, &path, None) {
        FleetOutcome::Completed(result) => *result,
        FleetOutcome::Crashed { .. } => unreachable!("no third crash scheduled"),
    };
    assert!(finished.violations.is_empty(), "violations: {:?}", finished.violations);
    assert_same_artifacts(&straight, &finished, "chained");
}

/// Reading a checkpoint never panics: every proper prefix of a real fleet
/// checkpoint, cut on a char boundary the way a torn write leaves it, is
/// a parse error that names a byte offset inside the prefix.
#[test]
fn truncated_checkpoint_fails_with_an_offset() {
    let models = models(41);
    let base = PipelineConfig::default();
    let cfg = FleetConfig {
        sessions: 4,
        resident: 2,
        max_epochs: 4,
        ..fleet_config(41, 2, None)
    };
    let path = ckpt_path("truncated");
    let outcome = run_fleet_durable(
        &models,
        &base,
        &cfg,
        FleetRunOptions {
            checkpoint_every: 1,
            checkpoint_path: Some(path.clone()),
            crash_after_rounds: Some(6),
            ..FleetRunOptions::default()
        },
    )
    .expect("crashing fleet starts");
    assert!(matches!(outcome, FleetOutcome::Crashed { rounds: 6 }));
    let text = std::fs::read_to_string(&path).expect("checkpoint written");
    let doc = text.trim_end();
    let ckpt = FleetCheckpoint::restore(&Json::parse(doc).expect("whole checkpoint parses"))
        .expect("checkpoint restores");
    assert!(
        !ckpt.retired.is_empty() && !ckpt.resident.is_empty() && ckpt.snapshot.is_some(),
        "the checkpoint should carry retired rows, resident walkers and a snapshot"
    );
    for cut in (0..doc.len()).filter(|&i| doc.is_char_boundary(i)) {
        let err = Json::parse(&doc[..cut]).expect_err("a proper prefix cannot parse");
        assert!(
            err.offset().is_some_and(|at| at <= cut),
            "prefix of {cut} bytes: {err}"
        );
    }
}

/// Tentpole (a) acceptance: a single panicking session is retried, then
/// poisoned — and poisons *only itself*. Every other lane's report row is
/// byte-identical to a fleet that never had the panicking lane armed, the
/// fleet completes, and the supervisor's counters land in the snapshot.
#[test]
fn panicking_session_poisons_only_itself() {
    let models = models(37);
    let base = PipelineConfig::default();
    let clean = run_fleet(&models, &base, &fleet_config(37, 2, None)).expect("clean run");
    let poisoned_lane = 7u64;
    let poisoned =
        run_fleet(&models, &base, &fleet_config(37, 2, Some(poisoned_lane))).expect("poison run");

    assert_eq!(poisoned.summaries.len(), clean.summaries.len(), "fleet must complete");
    let victims: Vec<_> =
        poisoned.summaries.iter().filter(|s| s.poisoned.is_some()).collect();
    assert_eq!(victims.len(), 1, "exactly one session must be poisoned");
    assert_eq!(victims[0].spec.lane, poisoned_lane);
    // The victim stops at the panic epoch: only pre-panic epochs retire.
    assert_eq!(victims[0].epochs as u64, fleet_config(37, 2, None).panic_epoch);

    for (p, c) in poisoned.summaries.iter().zip(&clean.summaries) {
        assert_eq!(p.spec.lane, c.spec.lane);
        if p.spec.lane != poisoned_lane {
            assert_eq!(p, c, "lane {} caught the neighbor's poison", p.spec.lane);
        }
    }

    let snap = poisoned.snapshot.as_ref().expect("full-obs fleet aggregates");
    assert_eq!(snap.counter("fleet.poisoned"), 1, "one poisoning must be counted");
    assert_eq!(
        snap.counter("parallel.retries"),
        2,
        "three strikes = two retries before poisoning"
    );
    let clean_snap = clean.snapshot.as_ref().expect("clean snapshot");
    assert_eq!(clean_snap.counter("fleet.poisoned"), 0);
    assert_eq!(clean_snap.counter("parallel.retries"), 0);
}
