//! Tier-1 regression: a steady-state epoch allocates its record and
//! nothing else.
//!
//! Two meters, two claims. The alloc observatory attributes every
//! allocation made inside an `engine.update` span tree to its pipeline
//! stage, and splits the count into warmup (the first
//! [`uniloc_obs::alloc::STEADY_WARMUP_EPOCHS`] epochs, where scratch
//! buffers legitimately grow to their high-water marks) and steady state.
//! After the indexed-matching + scratch-reuse work, a clean walk's steady
//! state allocates *nothing* inside spans: every per-epoch buffer —
//! feature vectors, fingerprint matches, particle snapshots, scheme
//! reports, the exclusion set — is recycled.
//!
//! That meter cannot see allocations outside spans or under the
//! observatory's pause guard, so [`uniloc_obs::alloc::thread_allocs`]
//! counts everything `Session::step` allocates on its thread around each
//! call. A steady step allocates exactly the four vectors of its
//! [`EpochRecord`](uniloc_core::pipeline::EpochRecord): every steady step
//! under stubbed observability, whose disabled flight recorder never
//! builds a trigger's fields, and the median steady step under full
//! observability, where an epoch that dumps a postmortem also allocates
//! the dump.
//!
//! This is a regression tripwire, not a benchmark: a new `Vec`, `format!`
//! or `clone()` inside a span shows up as a nonzero steady count with its
//! stage name attached; one anywhere else in the step (a metric name, a
//! calibration key, a trigger's bookkeeping) moves the per-step count off
//! four.
//!
//! A fleet folds each record into its session's digest as it is served
//! (`FinishedSession::digest`): the record's canonical JSON streams through
//! an FNV-1a sink, which allocates nothing.
//!
//! Building a session shares its venue's radio map instead of copying it:
//! the context, the fingerprint schemes and fusion read one survey, so
//! `Session::from_context` allocates a fixed amount however many
//! fingerprints the venue has. Fusion's block table is sized by a
//! counting pass, so it adds a fixed number of allocations too.
//!
//! The survey's memo is a work fence of its own: an epoch scores
//! each heard radio's scan once, though a RADAR scheme and its feature
//! both ask for the match, and measures the WiFi density once, though the
//! WiFi and fusion features both ask for it.

use std::sync::{Arc, OnceLock};

use uniloc_core::error_model::ErrorModelSet;
use uniloc_core::pipeline::{self, PipelineConfig};
use uniloc_core::Session;
use uniloc_env::venues;
use uniloc_obs::alloc::{thread_allocs, STEADY_WARMUP_EPOCHS};
use uniloc_obs::session::{install, ObsSession};
use uniloc_schemes::fingerprint::{FingerprintDb, RssiLike};
use uniloc_sensors::{CellScan, SensorFrame, WifiScan};
use uniloc_stats::json::{Fnv1a, ToJson};

/// Steady-state allocations tolerated inside spans per walk. Zero: the
/// engine's epoch loop is allocation-free once warm.
const STEADY_ALLOC_BUDGET: u64 = 0;

/// Allocations a steady `Session::step` makes on its thread: the record's
/// `scheme_errors`, `estimates`, `predictions` and `weights`.
const RECORD_ALLOCS: u64 = 4;

fn counter(capture: &uniloc_obs::session::SessionCapture, name: &str) -> u64 {
    capture.metrics.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0)
}

fn models() -> &'static ErrorModelSet {
    static MODELS: OnceLock<ErrorModelSet> = OnceLock::new();
    MODELS.get_or_init(|| {
        pipeline::train_standard_models(7).expect("training venues produce enough samples")
    })
}

/// Walks the zero-alloc office under `obs` and returns what each step
/// allocated on this thread, then what folding its record into a digest
/// allocated, in epoch order.
fn walk(obs: &Arc<ObsSession>) -> (Vec<u64>, Vec<u64>) {
    let cfg = PipelineConfig::default();
    let scenario = venues::office("zero-alloc", 21, 40.0, 15.0);
    let frames = pipeline::walk_frames(&scenario, &cfg, 22);
    assert!(frames.len() > 20, "walk too short to exercise steady state");

    let _guard = install(Arc::clone(obs));
    let mut walk = Session::new(Arc::new(scenario), models(), &cfg, 23);
    let mut per_step = Vec::with_capacity(frames.len());
    let mut per_fold = Vec::with_capacity(frames.len());
    let mut digest = Fnv1a::new();
    for f in &frames {
        let before = thread_allocs();
        let record = walk.step(f);
        per_step.push(thread_allocs() - before);
        let before = thread_allocs();
        record.write_canonical(&mut digest).expect("a hash accepts every write");
        per_fold.push(thread_allocs() - before);
        drop(record);
    }
    (per_step, per_fold)
}

/// What `Session::from_context` allocates on this thread over an
/// already-surveyed `scenario`, and the survey's WiFi fingerprint count.
fn session_build(scenario: uniloc_env::Scenario, seed: u64) -> (u64, u64) {
    let cfg = PipelineConfig::default();
    let models = models();
    let ctx = pipeline::build_context(&scenario, &cfg, seed);
    let fingerprints = ctx.wifi_db.len() as u64;
    let scenario = Arc::new(scenario);
    let before = thread_allocs();
    let session = Session::from_context(scenario, ctx, models, &cfg, seed);
    let allocs = thread_allocs() - before;
    drop(session);
    (allocs, fingerprints)
}

/// The median of the steady epochs' per-step allocation counts.
fn steady_median(per_step: &[u64]) -> u64 {
    let mut steady = per_step[STEADY_WARMUP_EPOCHS as usize..].to_vec();
    steady.sort_unstable();
    steady[steady.len() / 2]
}

#[test]
fn steady_state_epoch_loop_is_allocation_free() {
    let mut obs = ObsSession::isolated();
    obs.alloc_tracking = true;
    let session = Arc::new(obs);
    let (per_step, _) = walk(&session);

    let capture = session.capture();
    let steady_epochs = counter(&capture, "alloc.steady_epochs");
    let steady_allocs = counter(&capture, "alloc.steady.allocs");
    assert!(
        steady_epochs as usize >= per_step.len() - 3,
        "steady meter missed epochs: {steady_epochs} of {}",
        per_step.len()
    );
    if steady_allocs > STEADY_ALLOC_BUDGET {
        // Attribute the regression before failing: list every stage that
        // allocated at all (warmup included) so the offending code path
        // is named in the assertion message.
        let mut stages: Vec<(String, u64)> = capture
            .metrics
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with("alloc.allocs."))
            .map(|(n, v)| (n.clone(), *v))
            .collect();
        stages.sort_by_key(|&(_, v)| std::cmp::Reverse(v));
        panic!(
            "steady-state epoch loop allocated {steady_allocs} time(s) over \
             {steady_epochs} steady epochs (budget {STEADY_ALLOC_BUDGET}); \
             allocating stages (warmup included): {stages:?}"
        );
    }
    let median = steady_median(&per_step);
    assert_eq!(
        median, RECORD_ALLOCS,
        "a steady step under full obs allocated {median} time(s), not just its record; \
         per step: {per_step:?}"
    );
}

#[test]
fn stubbed_step_allocates_only_its_record() {
    let (per_step, _) = walk(&Arc::new(ObsSession::stubbed()));
    let steady = &per_step[STEADY_WARMUP_EPOCHS as usize..];
    assert!(
        steady.iter().all(|&n| n == RECORD_ALLOCS),
        "a steady step under stubbed obs allocated more than its record; per step: {per_step:?}"
    );
}

#[test]
fn folding_a_record_into_the_digest_allocates_nothing() {
    let (_, per_fold) = walk(&Arc::new(ObsSession::stubbed()));
    assert!(
        per_fold.iter().all(|&n| n == 0),
        "folding a record into the digest allocated; per record: {per_fold:?}"
    );
}

#[test]
fn session_build_shares_the_radio_map() {
    let _guard = install(Arc::new(ObsSession::stubbed()));
    let office = venues::office("zero-alloc", 21, 40.0, 15.0);
    let mall = venues::shopping_mall(5, 1).swap_remove(0);
    for (venue, (allocs, fingerprints)) in
        [("office", session_build(office, 23)), ("mall", session_build(mall, 6))]
    {
        assert!(
            allocs < fingerprints,
            "building a {venue} session allocated {allocs} time(s) over its \
             {fingerprints} WiFi fingerprints: something copies the radio map"
        );
    }
}

/// Whether `frame` carries a scan the radio's scheme and feature match:
/// one with at least [`RssiLike::MIN_READINGS`] readings.
fn heard<S: RssiLike>(frame: &SensorFrame) -> bool {
    S::in_frame(frame).is_some_and(|s| s.reading_count() >= S::MIN_READINGS)
}

/// The memo misses on `db`'s survey since it read `before`.
fn misses_over<S: RssiLike>(db: &FingerprintDb<S>, before: (u64, u64)) -> (u64, u64) {
    let after = db.memo_misses();
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn mall_epoch_scores_each_heard_scan_once() {
    let _guard = install(Arc::new(ObsSession::stubbed()));
    let cfg = PipelineConfig::default();
    let scenario = venues::shopping_mall(5, 1).swap_remove(0);
    let frames = pipeline::walk_frames(&scenario, &cfg, 6);
    assert!(frames.len() >= 40, "mall walk too short: {} frames", frames.len());
    let ctx = pipeline::build_context(&scenario, &cfg, 6);
    // Clones share the session's surveys, and with them the memo.
    let (wifi, cell) = (ctx.wifi_db.clone(), ctx.cell_db.clone());
    let mut session = Session::from_context(Arc::new(scenario), ctx, models(), &cfg, 6);
    let (mut wifi_heard, mut cell_heard, mut densities) = (0, 0, 0);
    for (epoch, f) in frames.iter().take(40).enumerate() {
        let (w0, c0) = (wifi.memo_misses(), cell.memo_misses());
        session.step(f);
        let (w, c) = (misses_over(&wifi, w0), misses_over(&cell, c0));
        let (hw, hc) = (u64::from(heard::<WifiScan>(f)), u64::from(heard::<CellScan>(f)));
        assert_eq!(w.0, hw, "epoch {epoch}: WiFi scan scored {} time(s)", w.0);
        assert_eq!(c.0, hc, "epoch {epoch}: cellular scan scored {} time(s)", c.0);
        assert!(w.1 <= 1 && c.1 <= 1, "epoch {epoch}: density passes {} / {}", w.1, c.1);
        (wifi_heard, cell_heard, densities) = (wifi_heard + hw, cell_heard + hc, densities + w.1);
    }
    assert!(wifi_heard >= 30 && cell_heard >= 30, "heard {wifi_heard} / {cell_heard} of 40");
    assert!(densities >= 30, "WiFi density measured on {densities} of 40 epochs");
}
