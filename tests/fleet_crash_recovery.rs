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
//! exactly as `uniloc fleet --resume` does. Malformed checkpoints —
//! truncated, with a repeated, missing or unknown key, or spliced together
//! from other real documents — fail to load cleanly, never by a panic or a
//! silent misread.

use std::sync::Arc;

use uniloc::core::error_model::ErrorModelSet;
use uniloc::core::pipeline::{self, PipelineConfig};
use uniloc::faults::CrashPoint;
use uniloc::obs::fleet::ERROR_BUCKETS_M;
use uniloc::rng::check::Checker;
use uniloc::rng::{require, Rng};
use uniloc::stats::json::{Json, ToJson};
use uniloc_bench::fleet::{
    artifacts, load_fleet_checkpoint, run_fleet, run_fleet_durable, FleetCheckpoint, FleetConfig,
    FleetOutcome, FleetResult, FleetRunOptions,
};

fn models(seed: u64) -> Arc<ErrorModelSet> {
    Arc::new(
        pipeline::train_standard_models(seed).expect("training venues produce enough samples"),
    )
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

/// Byte-compares every artifact `uniloc fleet` writes for the two runs
/// ([`artifacts`]): the whole resume-determinism contract. If each one
/// matches, an operator cannot tell a resumed fleet from one that never
/// crashed.
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

/// The checkpoint a 4-walker fleet seeded `seed` leaves on disk when it
/// crashes after 6 rounds (one checkpoint per round), with its path.
fn small_crashed_checkpoint(models: &Arc<ErrorModelSet>, seed: u64, tag: &str) -> (String, String) {
    let cfg =
        FleetConfig { sessions: 4, resident: 2, max_epochs: 4, ..fleet_config(seed, 2, None) };
    let path = ckpt_path(tag);
    let outcome = run_fleet_durable(
        models,
        &PipelineConfig::default(),
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
    (path, text)
}

/// Reading a checkpoint never panics: every proper prefix of a real fleet
/// checkpoint, cut on a char boundary the way a torn write leaves it, is
/// a parse error that names a byte offset inside the prefix.
#[test]
fn truncated_checkpoint_fails_with_an_offset() {
    let (_, text) = small_crashed_checkpoint(&models(41), 41, "truncated");
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

/// A spliced checkpoint that repeats a key is a parse error at the
/// repeat's offset — never a panic, and never a silent pick of whichever
/// copy comes first (`Json::get` returns the first). Both a second
/// top-level `version` and a repeated key inside a nested object are
/// caught.
#[test]
fn duplicate_key_checkpoint_is_rejected() {
    let (path, text) = small_crashed_checkpoint(&models(43), 43, "duplicate");
    load_fleet_checkpoint(&path).expect("the unspliced checkpoint loads");

    // Top level: a second `version` ahead of the real one.
    let top = text.replacen('{', "{\"version\": 0,", 1);
    // Nested: the snapshot object's first key, repeated at its front.
    let open = text.find("\"snapshot\": {").expect("checkpoint has a snapshot") + 12;
    let key_start = open + text[open..].find('"').expect("snapshot has a key");
    let key_len = text[key_start + 1..].find('"').expect("key is terminated") + 2;
    let key = &text[key_start..key_start + key_len];
    let nested = format!("{}{key}: null,{}", &text[..open + 1], &text[open + 1..]);

    for (what, doc, repeat_at) in [
        // `version` sorts last among the top-level keys, after any
        // nested `version`.
        ("top-level", top, text.rfind("\"version\"").expect("version key") + 13),
        ("nested", nested, key_start + key_len + 7),
    ] {
        let err = Json::parse(&doc).expect_err("a repeated key cannot parse");
        assert_eq!(err.offset(), Some(repeat_at), "{what}: {err}");
        std::fs::write(&path, &doc).expect("write spliced checkpoint");
        let err = load_fleet_checkpoint(&path).expect_err("a spliced checkpoint cannot load");
        assert!(err.contains("duplicate object key"), "{what}: {err}");
    }
}

/// Every node of `doc` in pre-order, the root first.
fn nodes(doc: &Json) -> Vec<&Json> {
    let mut out = vec![doc];
    match doc {
        Json::Arr(items) => items.iter().for_each(|j| out.extend(nodes(j))),
        Json::Obj(pairs) => pairs.iter().for_each(|(_, j)| out.extend(nodes(j))),
        _ => {}
    }
    out
}

/// Applies `edit` to node `*at` of `doc` in pre-order, counting only
/// objects when `objects` is set.
fn edit_node(doc: &mut Json, at: &mut usize, objects: bool, edit: &mut dyn FnMut(&mut Json)) {
    if !objects || matches!(doc, Json::Obj(_)) {
        if *at == 0 {
            *at = usize::MAX;
            return edit(doc);
        }
        *at -= 1;
    }
    match doc {
        Json::Arr(items) => items.iter_mut().for_each(|j| edit_node(j, at, objects, edit)),
        Json::Obj(pairs) => pairs.iter_mut().for_each(|(_, j)| edit_node(j, at, objects, edit)),
        _ => {}
    }
}

/// The node at `path` (object keys and array indices) below `doc`.
fn at_path<'a>(doc: &'a mut Json, path: &[&str]) -> &'a mut Json {
    path.iter().fold(doc, |doc, step| match doc {
        Json::Arr(items) => &mut items[step.parse::<usize>().expect("an index")],
        Json::Obj(pairs) => &mut pairs.iter_mut().find(|(k, _)| k == step).expect(step).1,
        _ => panic!("no `{step}` below a scalar"),
    })
}

/// The pairs of the object at `path` below `doc`.
fn object_at<'a>(doc: &'a mut Json, path: &[&str]) -> &'a mut Vec<(String, Json)> {
    match at_path(doc, path) {
        Json::Obj(pairs) => pairs,
        _ => panic!("{path:?} is not an object"),
    }
}

/// One mutation of a real checkpoint; node and key numbers are taken
/// modulo the live counts.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    /// Node `at` becomes node `node` of donor `donor`.
    Graft { at: u64, donor: usize, node: u64 },
    /// Object `at` loses its key number `key`.
    DeleteKey { at: u64, key: u64 },
    /// Object `at` gains a key no writer emits, valued node `node` of
    /// donor `donor`.
    InsertKey { at: u64, donor: usize, node: u64 },
}

/// The spliced-checkpoint properties: loading never panics; a checkpoint
/// that loads re-serializes to the spliced document's own canonical bytes
/// (nothing was silently dropped, reordered or coerced); and every error
/// histogram in its snapshot densifies to exactly its `count()`.
fn check_spliced(doc: &Json, path: &str) -> Result<(), String> {
    std::fs::write(path, doc.to_string_pretty()).map_err(|e| e.to_string())?;
    let loaded = std::panic::catch_unwind(|| load_fleet_checkpoint(path))
        .map_err(|_| "load_fleet_checkpoint panicked".to_owned())?;
    let Ok(ckpt) = loaded else { return Ok(()) };
    let (back, want) = (ckpt.to_json().canonical().to_string(), doc.canonical().to_string());
    if back != want {
        let at = back.bytes().zip(want.bytes()).take_while(|(a, b)| a == b).count();
        let around = |s: &str| s[at.saturating_sub(60)..(at + 20).min(s.len())].to_owned();
        return Err(format!(
            "accepted, but re-serializes differently at byte {at}: `{}` vs `{}`",
            around(&back),
            around(&want)
        ));
    }
    let Some(snap) = &ckpt.snapshot else { return Ok(()) };
    let cohorts = snap.cohorts.iter().map(|(key, c)| (key.as_str(), &c.error_hist));
    for (what, hist) in std::iter::once(("fleet", &snap.error_hist)).chain(cohorts) {
        let (dense, _) = hist.dense(ERROR_BUCKETS_M);
        let dense: u64 = dense.iter().sum();
        let count = hist.count();
        require!(dense == count, "{what}: dense counts sum to {dense}, count() is {count}");
    }
    Ok(())
}

/// A real checkpoint mutated 1 to 4 times: subtrees of other real
/// documents grafted in (a second fleet's checkpoint, `FLEET.json` rows
/// and `FLEET_HEALTH.json`), a key deleted, or a key no writer emits added
/// to some object. Pinned first: malformed error histograms (a repeated
/// bucket index, which used to keep only its last count, and an index past
/// the overflow bucket, which used to count in `count()` yet vanish from
/// the dense counts the health plane prints); three values that used to
/// load and re-serialize to other bytes: an integer `mean_error_m`, a
/// decimal `cursor` and a 16-digit `sum_micro`; and three key-set probes
/// that did the same: a missing nullable top-level key, a retired row
/// missing its nullable `poisoned`, and a resident entry carrying an extra
/// key.
#[test]
fn spliced_checkpoints_load_or_fail_cleanly() {
    let models = models(47);
    let (path, text) = small_crashed_checkpoint(&models, 47, "spliced");
    let target = Json::parse(&text).expect("checkpoint parses");
    let (_, other) = small_crashed_checkpoint(&models, 53, "spliced-donor");
    let done = run_fleet(&models, &PipelineConfig::default(), &fleet_config(59, 2, None))
        .expect("donor fleet runs");
    let docs: std::collections::BTreeMap<&str, String> = artifacts(&done).into_iter().collect();
    let parse = |text: &str| Json::parse(text).expect("artifact parses");
    let fleet = parse(&docs["FLEET.json"]);
    let donors = [
        parse(&other),
        fleet.get("rows").expect("FLEET.json has rows").clone(),
        parse(&docs["FLEET_HEALTH.json"]),
    ];
    let grafts: Vec<Vec<&Json>> = donors.iter().map(nodes).collect();
    check_spliced(&target, &path).expect("the unspliced checkpoint holds the properties");

    let mut pinned = Vec::new();
    for counts in ["[[3,5],[3,7]]", "[[99,1],[2,4]]", "[[2,4],[99,1]]"] {
        let mut doc = target.clone();
        *at_path(&mut doc, &["snapshot", "error_hist", "counts"]) = Json::parse(counts).unwrap();
        pinned.push((format!("error_hist counts {counts}"), doc));
    }
    let text = |s: &str| Json::Str(s.to_owned());
    for (what, path, value) in [
        ("integer `mean_error_m`", &["retired", "0", "mean_error_m"][..], Json::Int(3)),
        ("decimal `cursor`", &["resident", "0", "checkpoint", "cursor"], text("9603200")),
        ("hex `sum_micro`", &["snapshot", "error_hist", "sum_micro"], text("0000000000000000")),
    ] {
        let mut doc = target.clone();
        *at_path(&mut doc, path) = value;
        pinned.push((what.to_owned(), doc));
    }
    for (what, path, key) in [
        ("top-level `panic_lane` removed", &[][..], "panic_lane"),
        ("first retired row without `poisoned`", &["retired", "0"], "poisoned"),
    ] {
        let mut doc = target.clone();
        object_at(&mut doc, path).retain(|(k, _)| k != key);
        pinned.push((what.to_owned(), doc));
    }
    let mut doc = target.clone();
    object_at(&mut doc, &["resident", "0"]).push(("extra".to_owned(), Json::Int(0)));
    pinned.push(("first resident entry with an extra key".to_owned(), doc));
    for (what, doc) in &pinned {
        check_spliced(doc, &path).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert!(load_fleet_checkpoint(&path).is_err(), "{what}: must not load");
    }

    Checker::new("spliced_checkpoints_load_or_fail_cleanly")
        .cases(256)
        .regressions(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fleet_crash_recovery.regressions"))
        .run(
            |rng: &mut Rng, scale| {
                let n = 1 + (scale * 3.0) as usize;
                (0..n)
                    .map(|_| {
                        let (at, node) = (rng.next_u64(), rng.next_u64());
                        let donor = rng.gen_range(0..donors.len());
                        match rng.gen_range(0..3u32) {
                            0 => Mutation::Graft { at, donor, node },
                            1 => Mutation::DeleteKey { at, key: node },
                            _ => Mutation::InsertKey { at, donor, node },
                        }
                    })
                    .collect::<Vec<_>>()
            },
            |mutations| {
                let mut doc = target.clone();
                for &m in mutations {
                    let (at, objects) = match m {
                        Mutation::Graft { at, .. } => (at, false),
                        Mutation::DeleteKey { at, .. } => (at, true),
                        Mutation::InsertKey { at, .. } => (at, true),
                    };
                    let live = nodes(&doc).into_iter();
                    let live = live.filter(|j| !objects || matches!(j, Json::Obj(_))).count();
                    let mut at = (at % live.max(1) as u64) as usize;
                    let donor = |d: usize, n: u64| grafts[d][(n % grafts[d].len() as u64) as usize];
                    edit_node(&mut doc, &mut at, objects, &mut |j| match (m, j) {
                        (Mutation::Graft { donor: d, node, .. }, j) => *j = donor(d, node).clone(),
                        (Mutation::DeleteKey { key, .. }, Json::Obj(p)) if !p.is_empty() => {
                            p.remove((key % p.len() as u64) as usize);
                        }
                        (Mutation::InsertKey { donor: d, node, .. }, Json::Obj(p))
                            if p.iter().all(|(k, _)| k != "unknown_key") =>
                        {
                            p.push(("unknown_key".to_owned(), donor(d, node).clone()));
                        }
                        _ => {}
                    });
                }
                check_spliced(&doc, &path)
            },
        );
}

/// The seed-47 crashed checkpoint, edited, resumed into its own fleet.
/// A checkpoint can load and still not belong to the fleet it resumes
/// (the spliced-checkpoint property only checks loading): resume must
/// reject it before admitting anything, naming the lane, rather than
/// write foreign rows into the artifacts. The unedited checkpoint resumes.
fn resume_edited(tag: &str, edit: impl FnOnce(&mut FleetCheckpoint)) -> Result<(), String> {
    let models = models(47);
    let (_, text) = small_crashed_checkpoint(&models, 47, tag);
    let ckpt = FleetCheckpoint::restore(&Json::parse(&text).unwrap()).expect("checkpoint loads");
    let cfg = FleetConfig { sessions: 4, resident: 2, max_epochs: 4, ..fleet_config(47, 2, None) };
    let resume = |ckpt: FleetCheckpoint| {
        let opts = FleetRunOptions { resume_from: Some(ckpt), ..FleetRunOptions::default() };
        run_fleet_durable(&models, &PipelineConfig::default(), &cfg, opts).map(|_| ())
    };
    resume(ckpt.clone()).expect("the unedited checkpoint resumes");
    let mut edited = ckpt;
    edit(&mut edited);
    resume(edited)
}

/// A retired row taken from the seed-53 fleet's checkpoint: same lane,
/// name and persona, another walker's seed.
#[test]
fn resume_rejects_a_retired_row_of_another_fleet() {
    let (_, donor) = small_crashed_checkpoint(&models(47), 53, "foreign-row-donor");
    let donor = FleetCheckpoint::restore(&Json::parse(&donor).unwrap()).expect("donor loads");
    let mut lane = None;
    let err = resume_edited("foreign-row", |ckpt| {
        let theirs = |l: u64| donor.retired.iter().find(|d| d.spec.lane == l);
        let row = ckpt
            .retired
            .iter_mut()
            .find(|row| theirs(row.spec.lane).is_some())
            .expect("both fleets retired a common lane");
        lane = Some(row.spec.lane);
        *row = theirs(row.spec.lane).unwrap().clone();
    })
    .expect_err("a foreign retired row must not resume");
    let lane = lane.unwrap();
    assert!(err.contains(&format!("lane {lane} ")) && err.contains("its seed is"), "{err}");
}

/// A retired row for a lane past the end of the 4-walker fleet, which
/// would otherwise make the resumed fleet report 5 sessions.
#[test]
fn resume_rejects_a_retired_lane_past_the_fleet() {
    let err = resume_edited("past-end", |ckpt| {
        let mut row = ckpt.retired[0].clone();
        row.spec.lane = 4;
        ckpt.retired.push(row);
    })
    .expect_err("a lane past the fleet must not resume");
    assert!(err.contains("lane 4 lies outside the fleet's lanes 0..4"), "{err}");
}

/// A lane listed twice, and a snapshot that no longer covers exactly the
/// retired rows, are rejected the same way.
#[test]
fn resume_rejects_a_repeated_lane_and_an_uncovering_snapshot() {
    let err = resume_edited("repeated-lane", |ckpt| {
        let row = ckpt.retired[0].clone();
        ckpt.retired.push(row);
    })
    .expect_err("a lane retired twice must not resume");
    assert!(err.contains("is listed twice"), "{err}");
    let err = resume_edited("uncovering-snapshot", |ckpt| {
        ckpt.retired.pop();
    })
    .expect_err("a snapshot over more rows than retired must not resume");
    assert!(err.contains("snapshot covers"), "{err}");
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
